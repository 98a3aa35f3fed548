import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import neutral_pair
from neutralctl.spectrum import SpectrumError
from neutralctl import (
    KernelSegment,
    NeutralSystem,
    NoOutputError,
    UnstabilizableMode,
    SpectrumRegion,
    check_condition1,
    check_condition2,
    check_final_observability,
    check_null_controllability,
    check_stabilizability,
    delta,
    pole_place_nonzero,
    synthesize_stage1,
    transpose_dual,
    verdict_to_dict,
)

Z2 = np.zeros((2, 2))
REGION = SpectrumRegion(-2, 2, -14, 14)


def test_condition2_example5(ex5):
    res = check_condition2(ex5)
    assert res.passed and res.scope == "exact"


def test_condition2_example3(ex3):
    assert check_condition2(ex3).passed


def test_condition2_immovable_chain():
    sys = NeutralSystem(n=2, m=1, p=0, A_minus1=np.eye(2), A0=Z2, A1=Z2, B=[[0], [0]])
    res = check_condition2(sys)
    assert not res.passed
    assert any(abs(w.lam - 1.0) < 1e-9 for w in res.witnesses)


@pytest.mark.parametrize("n", [8, 10, 12])
def test_condition2_distinct_diagonal_is_controllable(n):
    # the Kalman matrix of this controllable pair is an ill-conditioned
    # Vandermonde matrix; the staircase does not form it
    res = check_condition2(neutral_pair(np.diag(np.linspace(1.1, 2.0, n)), np.ones((n, 1))))
    assert res.passed and res.witnesses == ()


def _rotated_planted_pair(rng, nilpotent):
    """(Q A Q^T, Q B) with A = [[Ac, A12], [0, Au]] and B = [[Bc], [0]]: a
    generic (Ac, Bc) and an uncontrollable upper-triangular block Au, strictly
    so when nilpotent.  Returns the pair and the diagonal of Au."""
    nc = int(rng.integers(1, 5))
    nu = int(rng.integers(2, 6)) if nilpotent else int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    n = nc + nu
    Au = np.triu(rng.standard_normal((nu, nu)), 1)
    if not nilpotent:
        Au += np.diag(rng.choice([-1.0, 1.0], nu) * rng.uniform(0.5, 3.0, nu))
    A = np.block([[rng.standard_normal((nc, nc)), rng.standard_normal((nc, nu))],
                  [np.zeros((nu, nc)), Au]])
    B = np.vstack([rng.standard_normal((nc, m)), np.zeros((nu, m))])
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ A @ Q.T, Q @ B, np.diag(Au)


def test_condition2_rotated_planted_block():
    rng = np.random.default_rng(4242)
    for _ in range(300):
        A, B, planted = _rotated_planted_pair(rng, nilpotent=False)
        n = A.shape[0]
        res = check_condition2(neutral_pair(A, B))
        assert not res.passed
        for mu in planted:
            (w,) = [w for w in res.witnesses if abs(w.lam - mu) <= 1e-6 * (1 + abs(mu))]
            M = np.hstack([w.lam * np.eye(n) - A, B])
            v = w.null_vector
            assert np.linalg.norm(v.conj() @ M) <= 1e-9 * np.linalg.norm(v) * (1 + np.linalg.norm(A))
        radius = float(rng.uniform(0.2, 3.5))
        if np.max(np.abs(planted)) >= radius:
            with pytest.raises(UnstabilizableMode):
                pole_place_nonzero(A, B, radius)
        else:
            F = pole_place_nonzero(A, B, radius)
            assert np.all(np.abs(np.linalg.eigvals(A + B @ F)) < radius)


def test_condition2_rotated_nilpotent_block_passes():
    # a nilpotent uncontrollable block of order k scatters its computed
    # eigenvalues up to about ||block|| eps^(1/k); deflation still finds k zeros
    rng = np.random.default_rng(4343)
    for _ in range(200):
        A, B, _ = _rotated_planted_pair(rng, nilpotent=True)
        assert check_condition2(neutral_pair(A, B)).passed


def _only_witness(res, mu, A, B):
    assert not res.passed
    (w,) = res.witnesses
    assert abs(w.lam - mu) <= 1e-12
    M = np.hstack([w.lam * np.eye(A.shape[0]) - A, B])
    assert np.linalg.norm(w.null_vector.conj() @ M) <= 1e-12 * np.linalg.norm(w.null_vector)


def test_condition2_small_mode_of_non_normal_block():
    # a well-conditioned eigenvalue 0.05 beside seven semisimple zeros: below
    # the scatter 8 ||A|| eps^(1/8) of a nilpotent block of order 8, yet no zero
    A = np.zeros((8, 8))
    A[0, 0], A[0, 1] = 0.05, 1.0
    B = np.zeros((8, 1))
    _only_witness(check_condition2(neutral_pair(A, B)), 0.05, A, B)
    with pytest.raises(UnstabilizableMode):
        pole_place_nonzero(A, B, 0.01)


def test_condition2_keeps_every_mode_beside_zeros():
    A = np.diag([1.0, 0.2] + [0.0] * 10)
    res = check_condition2(neutral_pair(A, np.zeros((12, 1))))
    assert np.allclose([w.lam for w in res.witnesses], [0.2, 1.0], rtol=0, atol=1e-12)


def test_condition2_small_mode_beside_rotated_jordan_chain():
    # a Jordan chain at zero of order 8 scatters the eigenvalues computed from
    # the whole block to about 0.01, past the mode 0.005 beside it, so no
    # modulus rule can tell them apart; deflating the zeros first recovers it
    rng = np.random.default_rng(77)
    for _ in range(20):
        A = np.diag(np.r_[np.zeros(8), 0.005]) + np.diag(np.r_[np.ones(7), 0.0], 1)
        Q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        A = Q @ A @ Q.T
        _only_witness(check_condition2(neutral_pair(A, np.zeros((9, 1)))), 0.005, A,
                      np.zeros((9, 1)))


@pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
def test_condition2_does_not_depend_on_input_units(scale):
    # the input is ranked against its own norm: a weak input is still present
    A = np.diag([1.1, 2.0])
    assert check_condition2(neutral_pair(A, scale * np.ones((2, 1)))).passed
    # ... and a weak input still cannot reach a mode it has no component on
    res = check_condition2(neutral_pair(A, scale * np.array([[1.0], [0.0]])))
    assert [w.lam for w in res.witnesses] == [2.0]


@st.composite
def _integer_pairs(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    entries = st.lists(st.integers(-2, 2), min_size=n * (n + m), max_size=n * (n + m))
    M = np.array(draw(entries), dtype=float).reshape(n, n + m)
    return M[:, :n], M[:, n:]


def _same_mus(a, b):
    close = lambda x, ys: any(abs(x - y) <= 1e-6 * (1 + abs(x)) for y in ys)
    return all(close(x, b) for x in a) and all(close(y, a) for y in b)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_integer_pairs(), st.integers(0, 2**32 - 1))
def test_condition2_invariant_under_similarity_and_feedback(pair, seed):
    A, B = pair
    n, m = B.shape
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    F = rng.integers(-2, 3, size=(m, n)).astype(float)
    base = check_condition2(neutral_pair(A, B))
    for A2, B2 in ((Q @ A @ Q.T, Q @ B), (A + B @ F, B)):
        other = check_condition2(neutral_pair(A2, B2))
        assert other.passed == base.passed
        assert _same_mus([w.lam for w in base.witnesses], [w.lam for w in other.witnesses])


@pytest.mark.parametrize("order", [3, 4])
def test_condition2_defective_mode_is_one_witness(order):
    # a rotated Jordan block at 2: the eigensolver returns `order` copies
    # split by about 2 eps^(1/order), some of them complex; they are one mode
    rng = np.random.default_rng(31)
    J = 2.0 * np.eye(order) + np.diag(np.ones(order - 1), 1)
    for _ in range(20):
        Q, _ = np.linalg.qr(rng.standard_normal((order, order)))
        A, B = Q @ J @ Q.T, np.zeros((order, 1))
        (w,) = check_condition2(neutral_pair(A, B)).witnesses
        assert abs(w.lam - 2.0) <= 1e-12
        M = np.hstack([w.lam * np.eye(order) - A, B])
        assert np.linalg.norm(w.null_vector.conj() @ M) <= 1e-9 * np.linalg.norm(w.null_vector)


def test_condition1_example3(ex3):
    res = check_condition1(ex3, SpectrumRegion(-2, 2, -10, 10))
    assert res.passed
    assert res.scope == "region_limited"


def test_condition1_example5(ex5):
    assert check_condition1(ex5, SpectrumRegion(-1, 1, -40, 40)).passed
    assert check_condition1(ex5).passed  # on default_region


def test_condition1_witness_for_bad_input(ex5):
    bad = NeutralSystem(
        n=2, m=1, p=0, A_minus1=ex5.A_minus1, A0=ex5.A0, A1=ex5.A1, B=[[0], [1]]
    )
    res = check_condition1(bad, SpectrumRegion(-1, 1, -8, 8))
    assert not res.passed
    at_2pi = [w for w in res.witnesses if abs(w.lam - 2j * np.pi) < 1e-6]
    assert at_2pi
    w = at_2pi[0]
    # left null vector is (1, 0) up to phase
    assert abs(w.null_vector[1]) < 1e-8
    M = np.hstack([delta(bad, w.lam), bad.B.astype(complex)])
    assert np.linalg.norm(w.null_vector.conj() @ M) <= 1e-6 * np.linalg.norm(w.null_vector)


def test_stabilizability_examples(ex3, ex5):
    assert check_stabilizability(ex5, REGION).overall
    assert check_stabilizability(ex3, REGION).overall


def test_stabilizability_no_input():
    sys = NeutralSystem(n=2, m=1, p=0, A_minus1=np.diag([2.0, 0.0]), A0=Z2, A1=Z2, B=[[0], [0]])
    verdict = check_stabilizability(sys, SpectrumRegion(-1, 2, -14, 14))
    assert not verdict.overall
    assert not verdict.condition1.passed
    assert not verdict.condition2.passed
    assert verdict.status == "fail"


def test_null_controllability_example5(ex5):
    verdict = check_null_controllability(ex5, SpectrumRegion(-1, 1, -14, 14))
    assert verdict.overall
    assert verdict.status == "conjecture-pass"
    assert "conjecture" in verdict.conjecture_note or "unproven" in verdict.conjecture_note


def test_null_controllability_definite_negative():
    sys = NeutralSystem(n=2, m=1, p=0, A_minus1=np.diag([0.5, 0.0]), A0=Z2, A1=Z2, B=[[0], [0]])
    verdict = check_null_controllability(sys, SpectrumRegion(-2, 1, -14, 14))
    assert not verdict.overall
    assert verdict.status == "necessary-failed"


def test_null_controllability_example4_dual(ex4):
    dual = transpose_dual(ex4)
    assert check_null_controllability(dual, REGION).overall


def test_observability_example4(ex4):
    assert check_final_observability(ex4, REGION).overall


def test_observability_example3_transposed(ex3_transposed_observed):
    # the dual of this fixture is ex3 itself, which is exactly controllable
    assert check_final_observability(ex3_transposed_observed, REGION).overall


def test_observability_example3_direct_output_fails(ex3):
    # attaching y = z_2(t-1) to ex3 directly leaves the first state free:
    # (1, 0) lies in the kernel of the stacked matrix at lambda = 0
    sys = NeutralSystem(
        n=2, m=1, p=1,
        A_minus1=ex3.A_minus1, A0=ex3.A0, A1=ex3.A1, B=ex3.B, C=[[0, 1]],
    )
    verdict = check_final_observability(sys, REGION)
    assert not verdict.overall
    kernel_vecs = [w for w in verdict.condition1.witnesses if abs(w.lam) < 1e-8]
    assert kernel_vecs and abs(kernel_vecs[0].null_vector[1]) < 1e-8


def test_observability_zero_output_fails_condition1():
    # with C = 0 the stacked matrix [D(lambda), C^T] vanishes at every root
    sys = NeutralSystem(
        n=1, m=1, p=1, A_minus1=[[1.0]], A0=[[-0.5]], A1=[[-1.0]], B=[[-0.5]], C=[[0.0]]
    )
    verdict = check_final_observability(sys, SpectrumRegion(-3, 3, -4, 4))
    assert verdict.condition1.witnesses
    assert not verdict.condition1.passed
    assert not verdict.overall


def test_observability_example5_transposed(ex5_transposed):
    assert check_final_observability(ex5_transposed, REGION).overall


def test_observability_requires_output(ex5):
    with pytest.raises(NoOutputError):
        check_final_observability(ex5)


def test_observability_witnesses_are_stacked_kernel_vectors():
    # output that misses the second state entirely
    sys = NeutralSystem(
        n=2, m=1, p=1, A_minus1=np.diag([0.5, 0.5]), A0=Z2, A1=Z2, B=[[0], [0]], C=[[1, 0]]
    )
    verdict = check_final_observability(sys, SpectrumRegion(-2, 1, -14, 14))
    assert not verdict.overall
    for w in verdict.condition2.witnesses:
        M = np.vstack([w.lam * np.eye(2) - sys.A_minus1, sys.C.astype(complex)])
        assert np.linalg.norm(M @ w.null_vector) <= 1e-6 * np.linalg.norm(w.null_vector)


def _random_system_with_output(rng):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    p = int(rng.integers(1, 3))
    half = lambda shape: rng.integers(-2, 3, size=shape).astype(float) / 2.0
    return NeutralSystem(
        n=n, m=m, p=p,
        A_minus1=half((n, n)), A0=half((n, n)), A1=half((n, n)),
        B=half((n, m)), C=half((p, n)),
    )


def _manual_transpose(sys):
    return NeutralSystem(
        n=sys.n, m=sys.p, p=sys.m,
        A_minus1=np.asarray(sys.A_minus1).T,
        A0=np.asarray(sys.A0).T,
        A1=np.asarray(sys.A1).T,
        B=np.asarray(sys.C).T,
        C=np.asarray(sys.B).T,
    )


def test_duality_flags_match_on_random_systems():
    rng = np.random.default_rng(99)
    region = SpectrumRegion(-3.0, 3.0, -4.0, 4.0)
    for _ in range(25):
        sys = _random_system_with_output(rng)
        obs = check_final_observability(sys, region)
        ctrl = check_null_controllability(_manual_transpose(sys), region)
        assert obs.overall == ctrl.overall
        assert obs.condition1.passed == ctrl.condition1.passed
        assert obs.condition2.passed == ctrl.condition2.passed


SMALL = SpectrumRegion(-2.0, 2.0, -3.0, 3.0)


@st.composite
def _small_systems(draw, with_output):
    # entries in {-1, -0.5, 0, 0.5, 1}, sometimes with one kernel segment
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    p = draw(st.integers(1, 2)) if with_output else 0
    halves = lambda *shape: np.reshape(draw(st.lists(
        st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]),
        min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))), shape)
    kernels = (KernelSegment(-0.5, 0.0, halves(n, n), halves(n, n)),) if draw(st.booleans()) else ()
    return NeutralSystem(n=n, m=m, p=p, A_minus1=halves(n, n), A0=halves(n, n),
                         A1=halves(n, n), B=halves(n, m), C=halves(p, n) if p else None,
                         kernels=kernels)


def _verdict_or_error(check, sys):
    try:
        return check(sys, SMALL)
    except SpectrumError as e:
        return type(e)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(_small_systems(with_output=True))
def test_observability_is_controllability_of_transpose_dual(sys):
    obs = _verdict_or_error(check_final_observability, sys)
    ctrl = _verdict_or_error(check_null_controllability, transpose_dual(sys))
    if isinstance(obs, type):
        assert obs is ctrl
        return
    assert (obs.overall, obs.status) == (ctrl.overall, ctrl.status)
    for a, b in ((obs.condition1, ctrl.condition1), (obs.condition2, ctrl.condition2)):
        assert a.passed == b.passed
        assert [w.lam for w in a.witnesses] == [w.lam for w in b.witnesses]
        for wa, wb in zip(a.witnesses, b.witnesses):
            assert np.array_equal(wa.null_vector, np.conj(wb.null_vector))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(_small_systems(with_output=False), st.integers(0, 2**32 - 1))
def test_condition1_invariant_under_real_similarity(sys, seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((sys.n, sys.n)))
    sim = lambda M: Q @ M @ Q.T
    rotated = NeutralSystem(
        n=sys.n, m=sys.m, p=0, A_minus1=sim(sys.A_minus1), A0=sim(sys.A0), A1=sim(sys.A1),
        B=Q @ sys.B,
        kernels=tuple(KernelSegment(k.a, k.b, sim(k.A2), sim(k.A3)) for k in sys.kernels),
    )
    base = _verdict_or_error(check_condition1, sys)
    other = _verdict_or_error(check_condition1, rotated)
    if isinstance(base, type):
        assert base is other
        return
    assert other.passed == base.passed
    assert _same_mus([w.lam for w in base.witnesses], [w.lam for w in other.witnesses])


def _verdict_summary(check, sys):
    # what a verdict reports beside its witness vectors
    v = _verdict_or_error(check, sys)
    if isinstance(v, type):
        return v
    return [(c.passed, [w.lam for w in c.witnesses], [w.rank_found for w in c.witnesses])
            for c in (v.condition1, v.condition2)]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_small_systems(with_output=True), st.integers(-10, 10))
def test_verdicts_do_not_depend_on_the_units_of_input_and_output(sys, k):
    # condition 1 ranked [D(lambda), B] as given, so 1e-8 B or 1e8 B failed
    # systems that B passed; now B (and C through the dual) is ranked at unit
    # norm, as condition 2 always did
    s = 10.0**k
    assert _verdict_summary(check_stabilizability, sys) == _verdict_summary(
        check_stabilizability, dataclasses.replace(sys, B=s * sys.B))
    assert _verdict_summary(check_final_observability, sys) == _verdict_summary(
        check_final_observability, dataclasses.replace(sys, C=s * sys.C))


def _mp_relative_sigma_min(M):
    # sigma_min / sigma_max of M in 30-digit arithmetic
    with mpmath.workdps(30):
        s = mpmath.svd_c(mpmath.matrix(M.tolist()), compute_uv=False)
        return float(min(s) / max(s))


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_condition1_planted_failure_at_every_input_scale(scale):
    # the input reaches the modes -1 and -1.1 but not -11; ranked as given,
    # [D(-1), B] lost a rank both at 1e-8 (B below D's scale) and at 1e8 (D's
    # 0.1 below B's scale), and -1 and -1.1 became false witnesses
    A0 = np.diag([-1.0, -1.1, -11.0])
    b = np.array([[1.0], [1.0], [0.0]])
    sys = NeutralSystem(n=3, m=1, p=1, A_minus1=np.zeros((3, 3)), A0=A0, A1=np.zeros((3, 3)),
                        B=scale * b, C=scale * b.T)
    region = SpectrumRegion(-12.0, 1.0, -2.0, 2.0)
    ctrl = check_condition1(sys, region)
    obs = check_final_observability(sys, region).condition1
    for res in (ctrl, obs):
        assert not res.passed
        (w,) = res.witnesses
        assert abs(w.lam + 11.0) < 1e-12 and w.rank_found == 2
        assert abs(abs(w.null_vector[2]) - 1.0) < 1e-12
    b_unit = b / np.linalg.norm(b)
    for lam in (-1.0, -1.1, -11.0):
        ratio = _mp_relative_sigma_min(np.hstack([lam * np.eye(3) - A0, b_unit]))
        # the witness is exact; the other roots clear the cutoff 1e-9 (n + m)
        assert ratio < 1e-25 if lam == -11.0 else ratio > 1e-3


def test_similarity_invariance(ex5):
    rng = np.random.default_rng(3)
    region = SpectrumRegion(-2, 2, -14, 14)
    base = check_stabilizability(ex5, region)
    for _ in range(5):
        T = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        if abs(np.linalg.det(T)) < 0.3:
            continue
        Ti = np.linalg.inv(T)
        sim = NeutralSystem(
            n=2, m=1, p=0,
            A_minus1=T @ ex5.A_minus1 @ Ti,
            A0=T @ ex5.A0 @ Ti,
            A1=T @ ex5.A1 @ Ti,
            B=T @ ex5.B,
        )
        verdict = check_stabilizability(sim, region)
        assert verdict.overall == base.overall


def test_implication_chain(ex3, ex5):
    region = SpectrumRegion(-2, 2, -14, 14)
    for sys in (ex3, ex5):
        nc_verdict = check_null_controllability(sys, region)
        if not nc_verdict.overall:
            continue
        assert check_stabilizability(sys, region).overall
        for omega in (0.5, 1.0, 2.0):
            plan = synthesize_stage1(sys, omega, region)
            assert plan.stage1_ok


def test_verdict_to_dict_schema(ex5):
    verdict = check_stabilizability(ex5, REGION)
    payload = verdict_to_dict(verdict)
    assert payload["overall"] is True
    assert payload["tolerances"]["rank"] == 1e-9
    assert set(payload["condition1"]) == {"passed", "scope", "witnesses"}
    assert payload["region"]["im_max"] == REGION.im_max


@pytest.mark.parametrize("check, kind", [
    (check_stabilizability, "stabilizability"),
    (check_null_controllability, "null_controllability"),
    (check_final_observability, "final_observability"),
])
def test_verdict_to_dict_records_what_decided_it(ex5, check, kind):
    # the record's criterion and tolerances are the verdict's own, so a
    # verdict cannot be written under another kind or other tolerances
    sys = NeutralSystem(n=2, m=1, p=1, A_minus1=ex5.A_minus1, A0=ex5.A0, A1=ex5.A1, B=ex5.B,
                        C=[[0, 1]])
    verdict = check(sys, REGION, tol_rank=1e-6, tol_root=1e-8)
    assert (verdict.kind, verdict.tol_rank, verdict.tol_root) == (kind, 1e-6, 1e-8)
    payload = verdict_to_dict(verdict)
    assert payload["kind"] == kind
    assert payload["tolerances"] == {"rank": 1e-6, "root": 1e-8}
