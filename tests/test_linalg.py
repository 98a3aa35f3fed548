import numpy as np
import pytest

from conftest import random_pair
from neutralctl import (
    UnstabilizableMode,
    controllable_staircase,
    eigen_rank_test,
    inclusion_rank_test,
    kalman_matrix,
    numerical_rank,
    pole_place_nonzero,
)
from neutralctl.linalg import RANK_FLOOR


def test_rank_identity():
    rep = numerical_rank(np.eye(3))
    assert rep.rank == 3
    assert rep.singular_values.shape == (3,)


def test_rank_near_singular():
    rep = numerical_rank(np.array([[1.0, 0.0], [0.0, 1e-14]]), tol=1e-9)
    assert rep.rank == 1


def test_rank_zero_matrix():
    assert numerical_rank(np.zeros((3, 2))).rank == 0
    # [D(lambda), C^T] of an n = 1 system with C = 0 at a root: rounding
    # noise alone must not count as rank, however small the relative cutoff
    rep = numerical_rank(np.array([[1e-17, 0.0]]))
    assert rep.rank == 0
    assert rep.tolerance_used == RANK_FLOOR


def test_rank_example3_augmented_at_zero():
    M = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    assert numerical_rank(M).rank == 2


def test_rank_orthogonal_invariance():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        M = rng.standard_normal((n, n))
        M[:, -1] = M[:, 0]  # force a rank drop
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        assert numerical_rank(Q @ M).rank == numerical_rank(M).rank


def test_kalman_nilpotent():
    K = kalman_matrix(np.zeros((2, 2)), np.array([[1.0], [0.0]]))
    assert np.array_equal(K, [[1.0, 0.0], [0.0, 0.0]])


def test_kalman_example5_pair():
    K = kalman_matrix(np.diag([1.0, 0.0]), np.array([[1.0], [0.0]]))
    assert np.array_equal(K, [[1.0, 1.0], [0.0, 0.0]])


def test_kalman_example4_dual_pair():
    K = kalman_matrix(np.array([[0.0, 0.0], [-1.0, 1.0]]), np.array([[1.0], [0.0]]))
    assert np.array_equal(K, [[1.0, 0.0], [0.0, -1.0]])


def test_inclusion_test_full_rank_input():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    assert inclusion_rank_test(A, np.eye(4)).passed


def test_inclusion_test_example5_pair():
    res = inclusion_rank_test(np.diag([1.0, 0.0]), np.array([[1.0], [0.0]]))
    assert res.passed
    assert res.reports[0].rank == 1 and res.reports[1].rank == 1


def test_inclusion_test_no_input():
    assert not inclusion_rank_test(np.diag([1.0, 0.0]), np.zeros((2, 1))).passed


def test_eigen_test_example5_pair():
    assert eigen_rank_test(np.diag([1.0, 0.0]), np.array([[1.0], [0.0]])).passed


def test_eigen_test_witness():
    res = eigen_rank_test(np.diag([1.0, 0.0]), np.zeros((2, 1)))
    assert not res.passed
    (mu, v, rank), = res.witnesses
    assert abs(mu - 1.0) < 1e-12
    assert rank == 1
    M = np.hstack([mu * np.eye(2) - np.diag([1.0, 0.0]), np.zeros((2, 1))])
    assert np.linalg.norm(v.conj() @ M) <= 1e-9 * np.linalg.norm(v)


def test_eigen_test_nilpotent_vacuous():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert eigen_rank_test(A, np.zeros((2, 1))).passed


def test_rank_test_equivalence_random():
    rng = np.random.default_rng(2024)
    for _ in range(250):
        A, B = random_pair(rng)
        assert inclusion_rank_test(A, B).passed == eigen_rank_test(A, B).passed


def test_rank_feedback_invariance():
    # rank [mu I - A - B F, B] never depends on F
    rng = np.random.default_rng(11)
    for _ in range(40):
        A, B = random_pair(rng, n_max=5, m_max=2)
        n, m = A.shape[0], B.shape[1]
        F = rng.standard_normal((m, n))
        for _ in range(3):
            mu = complex(*rng.standard_normal(2))
            M1 = np.hstack([mu * np.eye(n) - A, B])
            M2 = np.hstack([mu * np.eye(n) - A - B @ F, B])
            assert numerical_rank(M1).rank == numerical_rank(M2).rank


def test_staircase_controllable_pair():
    st = controllable_staircase(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]]))
    assert st.n_controllable == 2
    assert st.uncontrollable_eigenvalues.size == 0


def test_staircase_example5_pair():
    st = controllable_staircase(np.diag([1.0, 0.0]), np.array([[1.0], [0.0]]))
    assert st.n_controllable == 1
    assert np.allclose(sorted(np.abs(st.uncontrollable_eigenvalues)), [0.0])
    # the controllable block carries the eigenvalue 1
    assert abs(st.A_t[0, 0] - 1.0) < 1e-12


def test_staircase_zero_input():
    st = controllable_staircase(np.diag([1.0, 2.0]), np.zeros((2, 1)))
    assert st.n_controllable == 0


def test_staircase_structure_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        A, B = random_pair(rng, n_max=6, m_max=3)
        st = controllable_staircase(A, B)
        n, r = A.shape[0], st.n_controllable
        assert np.allclose(st.Q @ st.Q.T, np.eye(n), atol=1e-12)
        assert np.allclose(st.A_t, st.Q.T @ A @ st.Q, atol=1e-10)
        if r < n:
            assert np.max(np.abs(st.A_t[r:, :r])) < 1e-8 * (1 + np.abs(A).max())
            assert np.max(np.abs(st.B_t[r:, :])) < 1e-8 * (1 + np.abs(B).max())
        assert r == numerical_rank(kalman_matrix(A, B)).rank


def test_pole_place_example5_pair():
    A = np.diag([1.0, 0.0])
    B = np.array([[1.0], [0.0]])
    F = pole_place_nonzero(A, B, 0.3)
    assert np.allclose(F, [[-1.0, 0.0]])
    assert np.allclose(np.linalg.eigvals(A + B @ F), 0.0)


def test_pole_place_unstabilizable():
    with pytest.raises(UnstabilizableMode) as err:
        pole_place_nonzero(np.array([[2.0]]), np.array([[0.0]]), 0.5)
    assert abs(err.value.mu - 2.0) < 1e-12


def test_pole_place_nothing_to_move():
    F = pole_place_nonzero(np.diag([0.1, 0.0]), np.zeros((2, 1)), 0.3)
    assert np.array_equal(F, np.zeros((1, 2)))


def test_pole_place_random_verified():
    rng = np.random.default_rng(31)
    placed = 0
    for _ in range(60):
        A, B = random_pair(rng, n_max=5, m_max=3)
        radius = 0.4
        try:
            F = pole_place_nonzero(A, B, radius)
        except UnstabilizableMode:
            continue
        eigs = np.linalg.eigvals(A + B @ F)
        zcut = 1e-6 * max(1.0, np.linalg.norm(A + B @ F, 2))
        assert np.all((np.abs(eigs) < radius) | (np.abs(eigs) <= max(zcut, 1e-2)))
        placed += 1
    assert placed > 20


def test_pole_place_targets_override():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    F = pole_place_nonzero(A, B, 0.5, targets=[0.1, -0.2])
    eigs = sorted(np.linalg.eigvals(A + B @ F).real)
    assert np.allclose(eigs, [-0.2, 0.1], atol=1e-9)
