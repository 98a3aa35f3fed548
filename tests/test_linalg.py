import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import neutral_pair, random_pair
from neutralctl import (
    PlacementError,
    UnstabilizableMode,
    check_condition1,
    check_condition2,
    controllable_staircase,
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
    with pytest.raises(ValueError, match="^numerical_rank needs a nonempty matrix$"):
        numerical_rank(np.zeros((0, 3)))


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
def test_rank_tolerance_must_be_finite_and_positive(ex5, tol, monkeypatch):
    # NaN ranked every matrix zero and inf or -1 decided verdicts before
    with pytest.raises(ValueError, match="rank tolerance must be finite and positive"):
        numerical_rank(np.eye(2), tol)
    with pytest.raises(ValueError, match="rank tolerance"):
        controllable_staircase(ex5.A_minus1, ex5.B, tol)
    # condition 1 rejects it before its root search
    monkeypatch.setattr("neutralctl.analysis.find_roots", None)
    with pytest.raises(ValueError, match="rank tolerance"):
        check_condition1(ex5, tol_rank=tol)


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
    with pytest.raises(ValueError, match=r"^incompatible shapes \(2, 2\) and \(3, 1\)$"):
        kalman_matrix(np.zeros((2, 2)), np.ones((3, 1)))


def test_kalman_example5_pair():
    K = kalman_matrix(np.diag([1.0, 0.0]), np.array([[1.0], [0.0]]))
    assert np.array_equal(K, [[1.0, 1.0], [0.0, 0.0]])


def test_kalman_example4_dual_pair():
    K = kalman_matrix(np.array([[0.0, 0.0], [-1.0, 1.0]]), np.array([[1.0], [0.0]]))
    assert np.array_equal(K, [[1.0, 0.0], [0.0, -1.0]])


def _uncontrollable_mus(A, B):
    return [mu for mu, _ in controllable_staircase(A, B).uncontrollable_modes()]


# Condition 2, named as the Kalman-image inclusion and as the eigenvalue
# test, on the staircase that decides it.
def test_inclusion_test_full_rank_input():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    assert _uncontrollable_mus(A, np.eye(4)) == []


def test_inclusion_test_example5_pair():
    st = controllable_staircase(np.diag([1.0, 0.0]), np.array([[1.0], [0.0]]))
    assert st.uncontrollable_modes() == []
    assert st.n_controllable == 1  # the rank of the Kalman matrix


def test_inclusion_test_no_input():
    assert _uncontrollable_mus(np.diag([1.0, 0.0]), np.zeros((2, 1))) == [1.0]


def test_eigen_test_example5_pair():
    assert _uncontrollable_mus(np.diag([1.0, 0.0]), np.array([[1.0], [0.0]])) == []


def test_eigen_test_witness():
    A = np.diag([1.0, 0.0])
    res = check_condition2(neutral_pair(A, np.zeros((2, 1))))
    assert not res.passed
    (w,) = res.witnesses
    assert abs(w.lam - 1.0) < 1e-12
    assert w.rank_found == 1
    M = np.hstack([w.lam * np.eye(2) - A, np.zeros((2, 1))])
    assert np.linalg.norm(w.null_vector.conj() @ M) <= 1e-9 * np.linalg.norm(w.null_vector)


def test_eigen_test_nilpotent_vacuous():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert _uncontrollable_mus(A, np.zeros((2, 1))) == []


def test_rank_test_equivalence_random():
    # the staircase's condition 2 against Im A^n inside Im [B, AB, ..., A^(n-1) B],
    # decided from two SVD ranks with no eigenvalue computation
    rng = np.random.default_rng(2024)
    for _ in range(250):
        A, B = random_pair(rng)
        n = A.shape[0]
        K = kalman_matrix(A, B)
        inclusion = (numerical_rank(K).rank
                     == numerical_rank(np.hstack([K, np.linalg.matrix_power(A, n)])).rank)
        assert check_condition2(neutral_pair(A, B)).passed == inclusion


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
    assert st.uncontrollable_modes() == []


def test_staircase_example5_pair():
    st = controllable_staircase(np.diag([1.0, 0.0]), np.array([[1.0], [0.0]]))
    assert st.n_controllable == 1
    assert np.allclose(np.linalg.eigvals(st.A_t[1:, 1:]), [0.0])
    assert st.uncontrollable_modes() == []
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
        assert np.all(np.abs(eigs) < radius)
        placed += 1
    assert placed > 20


def test_pole_place_targets_override():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    F = pole_place_nonzero(A, B, 0.5, targets=[0.1, -0.2])
    eigs = sorted(np.linalg.eigvals(A + B @ F).real)
    assert np.allclose(eigs, [-0.2, 0.1], atol=1e-9)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 12), st.integers(1, 3), st.floats(0.2, 1.5), st.floats(0.3, 3.0),
       st.integers(0, 2**32 - 1))
def test_pole_place_returns_only_gains_inside_the_disk(n, m, scale, omega, seed):
    # the contract: every computed eigenvalue of A + B F inside the disk, or
    # a typed error
    rng = np.random.default_rng(seed)
    A = scale * rng.standard_normal((n, n))
    B = rng.standard_normal((n, m))
    radius = math.exp(-omega)
    try:
        F = pole_place_nonzero(A, B, radius)
    except (UnstabilizableMode, PlacementError):
        return
    assert np.max(np.abs(np.linalg.eigvals(A + B @ F))) < radius


def _mp_spectral_radius(M):
    # largest |eigenvalue| of the float matrix M in 60-digit arithmetic
    with mpmath.workdps(60):
        eigs = mpmath.eig(mpmath.matrix(M.tolist()), left=False, right=False)
        return float(max(abs(x) for x in eigs))


@pytest.mark.parametrize("n", range(2, 13))
def test_pole_place_clustered_spectrum_against_mpmath(n):
    # deadbeat placement of diag(linspace(1.1, 2, n)) from one input needs a
    # gain that grows like 9^n; the old zero cutoff grew with it and accepted
    # closed loops of true spectral radius 0.49 (n = 8) and 41.6 (n = 12)
    A = np.diag(np.linspace(1.1, 2.0, n))
    B = np.ones((n, 1))
    radius = math.exp(-2.0)
    if n <= 6:
        F = pole_place_nonzero(A, B, radius)
        assert _mp_spectral_radius(A + B @ F) < radius  # 0.051 at n = 6
    else:
        with pytest.raises(PlacementError, match=r"radius 0\.135335: "
                           r"\|\|F\|\| = \S+, largest \|eig\| = \S+$") as err:
            pole_place_nonzero(A, B, radius)
        assert err.value.max_eig >= radius


@pytest.mark.parametrize("reached", [False, True])
def test_pole_place_uncontrollable_nilpotent_block_under_one_rule(reached):
    # a rotated 3x3 Jordan block at zero that B cannot reach: the staircase
    # counts it as zeros, but its computed eigenvalues scatter to about 1e-5;
    # with or without a controllable mode, the gain passes a disk that holds
    # the scatter and raises PlacementError on one that does not
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    N = Q @ np.diag([5.0, 5.0], 1) @ Q.T
    if reached:
        A = np.zeros((4, 4))
        A[0, 0], A[1:, 1:] = 1.5, N
        B = np.eye(4, 1)
        Q4, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        A, B = Q4 @ A @ Q4.T, Q4 @ B
    else:
        A, B = N, np.zeros((3, 1))
    assert controllable_staircase(A, B).n_controllable == int(reached)
    F = pole_place_nonzero(A, B, 1e-3)
    assert np.max(np.abs(np.linalg.eigvals(A + B @ F))) < 1e-3
    with pytest.raises(PlacementError) as err:
        pole_place_nonzero(A, B, 1e-6)
    assert 1e-6 <= err.value.max_eig < 1e-4


def test_pole_place_one_column_per_mode_is_exact():
    # each column reaches one mode and places it at zero with the gain -1.5,
    # so the closed loop is exactly zero; a random single-input reduction
    # gave a gain of norm 630 whose deadbeat scatter missed the disk
    A, B = 1.5 * np.eye(3), np.eye(3)
    F = pole_place_nonzero(A, B, 1e-9)
    assert np.array_equal(A + B @ F, np.zeros((3, 3)))


def _mp_ackermann(A, b, c):
    # -e_n^T K^-1 p(A) for p(z) = z^n - c^n, K = [b, Ab, ..., A^(n-1) b], in
    # 50-digit arithmetic
    n = A.shape[0]
    with mpmath.workdps(50):
        Am, col = mpmath.matrix(A.tolist()), mpmath.matrix(b.tolist())
        K = mpmath.matrix(n, n)
        for j in range(n):
            for i in range(n):
                K[i, j] = col[i]
            col = Am * col
        e_n = mpmath.matrix(n, 1)
        e_n[n - 1] = 1
        row = mpmath.lu_solve(K.T, e_n).T * (Am**n - mpmath.mpf(c) ** n * mpmath.eye(n))
        return -np.array([float(x) for x in row])


def test_pole_place_single_input_gain_against_mpmath_ackermann():
    # one input has one gain for a given spectrum, which Ackermann's formula
    # gives through the Kalman matrix; the placement never forms that matrix
    rng = np.random.default_rng(2024)
    for _ in range(40):
        n = int(rng.integers(1, 7))
        A, b = rng.standard_normal((n, n)), rng.standard_normal((n, 1))
        assert controllable_staircase(A, b).n_controllable == n
        targets = [0.3 * np.exp(2j * np.pi * k / n) for k in range(n)]
        F = pole_place_nonzero(A, b, 0.5, targets=targets)
        ref = _mp_ackermann(A, b, 0.3)
        assert np.linalg.norm(F[0] - ref) <= 1e-9 * np.linalg.norm(ref)


def test_pole_place_targets_splitting_a_conjugate_pair_between_inputs():
    # each column of B = I reaches one mode of A = I, and no real gain row
    # places one mode at 0.1 + 0.1j
    with pytest.raises(ValueError, match=r"closed under conjugation .*input 0's block of 1 "):
        pole_place_nonzero(np.eye(2), np.eye(2), 0.5, targets=[0.1 + 0.1j, 0.1 - 0.1j])


def test_pole_place_repeated_conjugate_pair_between_inputs():
    # each column reaches two modes; the pair 0.05j, -0.05j given twice must
    # be dealt one copy of each to each column, whatever the order given
    A = np.diag([1.0, 2.0, 3.0, 4.0])
    B = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    F = pole_place_nonzero(A, B, 0.1, targets=[0.05j, 0.05j, -0.05j, -0.05j])
    eig = np.linalg.eigvals(A + B @ F)
    assert np.allclose(sorted(eig, key=lambda z: z.imag), [-0.05j, -0.05j, 0.05j, 0.05j],
                       atol=1e-12)


def test_pole_place_redundant_input_column():
    # the second column repeats the first, so after the first places its mode
    # only rounding of it is left; it must reach no mode, and the third column
    # places the other one
    Q = np.linalg.qr(np.random.default_rng(7).standard_normal((2, 2)))[0]
    A = Q @ np.diag([1.0, 2.0]) @ Q.T
    B = Q @ np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    F = pole_place_nonzero(A, B, 0.1)
    assert np.max(np.abs(np.linalg.eigvals(A + B @ F))) < 1e-12
    assert np.linalg.norm(F) < 10


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
def test_pole_place_with_a_dependent_input_column(k1, k2, t, seed):
    # A = diag(A1, A2) under a random rotation, b reaches only A1's modes and
    # c only A2's; the column t b (or 0) that repeats b must reach no mode
    rng = np.random.default_rng(seed)
    n = k1 + k2
    A = np.zeros((n, n))
    A[:k1, :k1] = rng.standard_normal((k1, k1))
    A[k1:, k1:] = rng.standard_normal((k2, k2))
    b = np.r_[rng.standard_normal(k1), np.zeros(k2)]
    c = np.r_[np.zeros(k1), rng.standard_normal(k2)]
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A, B = Q @ A @ Q.T, Q @ np.c_[b, t * b, c]
    F = pole_place_nonzero(A, B, 0.1)
    assert np.max(np.abs(np.linalg.eigvals(A + B @ F))) < 0.1


def test_pole_place_rejects_nan_target():
    with pytest.raises(ValueError, match="inside the disk"):
        pole_place_nonzero(np.eye(1), np.eye(1), 0.5, targets=[float("nan")])


@pytest.mark.parametrize("radius, targets, message", [
    (math.nan, [5.0, 7.0], "radius must be finite and positive, got nan"),
    (math.inf, [5.0, 7.0], "radius must be finite and positive, got inf"),
    (0.0, [5.0, 7.0], "radius must be finite and positive, got 0.0"),
    (-1.0, [5.0, 7.0], "radius must be finite and positive, got -1.0"),
    (0.5, [0.1], "need exactly 2 placement targets, got 1"),
])
def test_pole_place_rejects_bad_radius_or_target_count(radius, targets, message):
    # NaN said the targets must lie inside the disk, and inf placed 5 and 7
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pole_place_nonzero(np.diag([1.0, 2.0]), np.eye(2), radius, targets=targets)
