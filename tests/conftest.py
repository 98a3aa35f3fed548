import numpy as np
import pytest

from neutralctl import NeutralSystem, spectrum

Z2 = np.zeros((2, 2))


@pytest.fixture(autouse=True)
def cold_root_search():
    # every test starts with no remembered find_roots search
    spectrum._last_search = None


@pytest.fixture
def ex3():
    # double integrator chain with neutral coupling, fully controllable
    return NeutralSystem(
        n=2, m=1, p=0,
        A_minus1=[[0, 1], [0, 0]],
        A0=[[0, 1], [0, 0]],
        A1=Z2,
        B=[[0], [1]],
    )


@pytest.fixture
def ex3_transposed_observed():
    # transposed partner of ex3; its second component finally observes it
    return NeutralSystem(
        n=2, m=1, p=1,
        A_minus1=[[0, 0], [1, 0]],
        A0=[[0, 0], [1, 0]],
        A1=Z2,
        B=[[0], [0]],
        C=[[0, 1]],
    )


@pytest.fixture
def ex4():
    # observability fixture: no meaningful input, delayed output y = z_1(t-1)
    return NeutralSystem(
        n=2, m=1, p=1,
        A_minus1=[[0, -1], [0, 1]],
        A0=Z2,
        A1=[[0, 1], [0, 0]],
        B=[[0], [0]],
        C=[[1, 0]],
    )


@pytest.fixture
def ex5():
    # neutral coefficient with one immovable-looking eigenvalue at 1 that the
    # input can reach; null controllable but not fully controllable
    return NeutralSystem(
        n=2, m=1, p=0,
        A_minus1=[[1, 0], [0, 0]],
        A0=[[0, 0], [1, 0]],
        A1=Z2,
        B=[[1], [0]],
    )


@pytest.fixture
def ex5_transposed():
    # transposed partner of ex5 with the output that finally observes it
    return NeutralSystem(
        n=2, m=1, p=1,
        A_minus1=[[1, 0], [0, 0]],
        A0=[[0, 1], [0, 0]],
        A1=Z2,
        B=[[0], [0]],
        C=[[1, 0]],
    )


EX5_JSON = """{
  "n": 2, "m": 1, "p": 0,
  "A_minus1": [[1, 0], [0, 0]],
  "A0": [[0, 0], [1, 0]],
  "A1": [[0, 0], [0, 0]],
  "B": [[1], [0]]
}
"""

EX3_JSON = """{
  "n": 2, "m": 1, "p": 0,
  "A_minus1": [[0, 1], [0, 0]],
  "A0": [[0, 1], [0, 0]],
  "A1": [[0, 0], [0, 0]],
  "B": [[0], [1]]
}
"""

EX4_JSON = """{
  "n": 2, "m": 1, "p": 1,
  "A_minus1": [[0, -1], [0, 1]],
  "A0": [[0, 0], [0, 0]],
  "A1": [[0, 1], [0, 0]],
  "B": [[0], [0]],
  "C": [[1, 0]]
}
"""

# ex5 with one derivative and state kernel on [-0.5, 0]
KERNEL_JSON = """{
  "n": 2, "m": 1, "p": 0,
  "A_minus1": [[1, 0], [0, 0]],
  "A0": [[0, 0], [1, 0]],
  "A1": [[0, 0], [0, 0]],
  "B": [[1], [0]],
  "kernels": [{"a": -0.5, "b": 0, "A2": [[0.2, 0], [0, -0.1]], "A3": [[0, 0.3], [-0.4, 0]]}]
}
"""


@pytest.fixture
def ex5_file(tmp_path):
    path = tmp_path / "ex5.json"
    path.write_text(EX5_JSON)
    return path


@pytest.fixture
def ex3_file(tmp_path):
    path = tmp_path / "ex3.json"
    path.write_text(EX3_JSON)
    return path


@pytest.fixture
def ex4_file(tmp_path):
    path = tmp_path / "ex4.json"
    path.write_text(EX4_JSON)
    return path


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.json"
    path.write_text(KERNEL_JSON)
    return path


def neutral_pair(A, B):
    """The neutral system with coefficient A_minus1 = A, input B and no delay
    or kernel terms: condition 2 of it is a question about the pair (A, B)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    return NeutralSystem(n=n, m=B.shape[1], p=0, A_minus1=A, A0=np.zeros((n, n)),
                         A1=np.zeros((n, n)), B=B)


def random_pair(rng, n_max=6, m_max=3):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    A = rng.integers(-2, 3, size=(n, n)).astype(float)
    B = rng.integers(-2, 3, size=(n, m)).astype(float)
    return A, B
