import math

import numpy as np
import pytest

from neutralctl import (
    Condition2Violated,
    FeedbackLaw,
    History,
    NeutralSystem,
    SpectrumRegion,
    apply_feedback,
    default_region,
    estimate_decay,
    find_roots,
    plan_to_dict,
    pole_place_nonzero,
    simulate_closed_loop,
    spectral_abscissa,
    synthesize_stage1,
    verify_decay,
    zero_law,
)
from neutralctl import spectrum

Z2 = np.zeros((2, 2))
REGION = SpectrumRegion(-2, 2, -14, 14)

# deadbeat placement leaves its closed-loop A_minus1 with computed eigenvalues
# of modulus 1.7e-9, which must not count as chains
FOUND_SYSTEM = NeutralSystem(
    n=2, m=1, p=0,
    A_minus1=[[0.3, 0.1], [0, -0.2]],
    A0=[[-1, 0.2], [0.1, -0.5]],
    A1=[[0.1, 0], [0.2, 0.1]],
    B=[[1], [0.5]],
)


def test_stage1_example5(ex5):
    plan = synthesize_stage1(ex5, 1.0, REGION)
    closed = ex5.A_minus1 + ex5.B @ plan.F_minus1
    assert np.allclose(closed, np.zeros((2, 2)))
    assert plan.chains_after == ()
    assert len(plan.residual_roots) == 1
    root = plan.residual_roots[0]
    assert abs(root.lam) < 1e-8 and root.multiplicity == 2
    assert plan.stage1_ok
    assert plan.stage2_required
    # independent eigensolve confirms the disk placement
    eigs = np.linalg.eigvals(closed)
    assert np.all((np.abs(eigs) < math.exp(-1.0)) | (np.abs(eigs) < 1e-9))


def test_stage1_example3_zero_gain_admissible(ex3):
    for omega in (0.5, 2.0):
        plan = synthesize_stage1(ex3, omega, SpectrumRegion(-2, 2, -10, 10))
        assert np.allclose(plan.F_minus1, np.zeros((1, 2)))
        assert plan.chains_after == ()
        assert sum(r.multiplicity for r in plan.residual_roots) == 2
        assert all(abs(r.lam) < 1e-8 for r in plan.residual_roots)
        assert plan.stage1_ok


def test_stage1_condition2_violation():
    sys = NeutralSystem(n=2, m=1, p=0, A_minus1=np.diag([2.0, 0.0]), A0=Z2, A1=Z2, B=[[0], [0]])
    with pytest.raises(Condition2Violated) as err:
        synthesize_stage1(sys, 1.0, SpectrumRegion(-1, 2, -14, 14))
    assert abs(err.value.mu - 2.0) < 1e-9


def test_stage1_rejects_nonpositive_omega(ex5):
    with pytest.raises(ValueError):
        synthesize_stage1(ex5, 0.0)


def test_residual_monotone_in_omega(ex5):
    plans = {w: synthesize_stage1(ex5, w, REGION) for w in (0.5, 1.0, 2.0)}
    lams = {
        w: {(round(r.lam.real, 6), round(r.lam.imag, 6)) for r in plans[w].residual_roots}
        for w in plans
    }
    assert lams[0.5] <= lams[1.0] <= lams[2.0]


def test_residual_finite_under_region_widening(ex5):
    plan = synthesize_stage1(ex5, 1.0, REGION)
    assert all(c.abscissa < -1.0 - 0.1 for c in plan.chains_after)  # vacuous: none
    wide = SpectrumRegion(REGION.re_min, REGION.re_max, 2 * REGION.im_min, 2 * REGION.im_max)
    plan_wide = synthesize_stage1(ex5, 1.0, wide)
    assert sum(r.multiplicity for r in plan_wide.residual_roots) == sum(
        r.multiplicity for r in plan.residual_roots
    )


def test_verify_decay_scalar_loop():
    sys = NeutralSystem(n=1, m=1, p=0, A_minus1=[[0]], A0=[[1]], A1=[[0]], B=[[1]])
    law = FeedbackLaw([[0.0]], [[-3.0]], [[0.0]])
    ok, abscissa = verify_decay(sys, law, 1.0, SpectrumRegion(-4, 2, -14, 14))
    assert ok
    assert abs(abscissa + 2.0) < 1e-8


def test_verify_decay_stage1_only_fails_at_origin(ex5):
    law = FeedbackLaw([[-1.0, 0.0]], np.zeros((1, 2)), np.zeros((1, 2)))
    ok, abscissa = verify_decay(ex5, law, 1.0, REGION)
    assert not ok
    assert abs(abscissa) < 1e-8


def test_verify_decay_zero_law(ex5):
    ok, abscissa = verify_decay(ex5, zero_law(ex5), 0.5, REGION)
    assert not ok
    assert abs(abscissa) < 1e-8


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
def test_verify_decay_rejects_non_finite_omega(ex5, omega, monkeypatch):
    # nan answered (False, ...) and -inf True; inf blamed the region bounds
    calls = []
    monkeypatch.setattr(spectrum, "_det_logderiv_many", lambda *args: calls.append(args))
    for region in (None, REGION):
        with pytest.raises(ValueError, match="^omega must be finite, got "):
            verify_decay(ex5, zero_law(ex5), omega, region)
    assert calls == []


def test_stage1_intermediate_system_consistency(ex5):
    plan = synthesize_stage1(ex5, 1.0, REGION)
    law = FeedbackLaw(plan.F_minus1, np.zeros_like(plan.F_minus1), np.zeros_like(plan.F_minus1))
    inter = apply_feedback(ex5, law)
    assert np.allclose(inter.A0, ex5.A0 + ex5.B @ np.zeros_like(plan.F_minus1))
    assert np.allclose(inter.A_minus1, ex5.A_minus1 + ex5.B @ plan.F_minus1)


def test_plan_to_dict_schema(ex5):
    plan = synthesize_stage1(ex5, 1.0, REGION)
    payload = plan_to_dict(plan)
    assert payload["omega"] == 1.0
    assert payload["stage2_required"] is True
    assert payload["F_minus1"] == plan.F_minus1.tolist()
    assert len(payload["residual_roots"]) == 1


def test_stage1_default_window_deadbeat_loop():
    plan = synthesize_stage1(FOUND_SYSTEM, 0.5)
    closed = FOUND_SYSTEM.A_minus1 + FOUND_SYSTEM.B @ plan.F_minus1
    # independent check: the closed neutral coefficient is nilpotent
    assert np.linalg.norm(closed @ closed) < 1e-12
    assert plan.chains_after == ()
    assert plan.stage1_ok
    assert plan.region.re_min > -3.0


def _scalar_fast_root():
    # deadbeat F_minus1 = -0.4 leaves D(lambda) = lambda + 2.5, one root at -2.5
    return NeutralSystem(n=1, m=1, p=0, A_minus1=[[0.4]], A0=[[-2.5]], A1=[[0.0]], B=[[1.0]])


def test_stage1_default_window_reaches_left_of_omega():
    plan = synthesize_stage1(_scalar_fast_root(), 3.0)
    assert np.allclose(plan.F_minus1, [[-0.4]], rtol=0.0, atol=1e-12)
    assert plan.region.re_min <= -4.0
    assert [r.multiplicity for r in plan.residual_roots] == [1]
    assert abs(plan.residual_roots[0].lam + 2.5) < 1e-9
    assert plan.stage2_required


def test_verify_decay_default_window_reaches_left_of_omega():
    law = FeedbackLaw([[-0.4]], [[0.0]], [[0.0]])
    ok, abscissa = verify_decay(_scalar_fast_root(), law, 3.0)
    assert not ok
    assert abs(abscissa + 2.5) < 1e-9


def test_explicit_window_must_reach_minus_omega(monkeypatch):
    # D(lambda) = lambda + 2.5: a window from -2 hid the root that decides
    # both answers, so the plan had no residual root and verify_decay said
    # (True, -inf); now the window is refused before any D is evaluated
    sys = NeutralSystem(n=1, m=1, p=0, A_minus1=[[0.0]], A0=[[-2.5]], A1=[[0.0]], B=[[1.0]])
    calls = []
    monkeypatch.setattr(spectrum, "_det_logderiv_many", lambda *args: calls.append(args))
    short = r"^region re_min = -2\.0 does not reach -omega = -3\.0$"
    with pytest.raises(ValueError, match=short):
        synthesize_stage1(sys, 3.0, SpectrumRegion(-2, 2, -8, 8))
    with pytest.raises(ValueError, match=short):
        verify_decay(sys, zero_law(sys), 3.0, SpectrumRegion(-2, 2, -13, 13))
    assert calls == []
    monkeypatch.undo()
    ok, abscissa = verify_decay(sys, zero_law(sys), 3.0, SpectrumRegion(-3, 2, -13, 13))
    assert not ok and abs(abscissa + 2.5) < 1e-9


def test_spectral_abscissa_of_deadbeat_loops_matches_simulation():
    # oracle: the growth rate of a simulated trajectory, which a simple real
    # rightmost root, well separated from the rest, sets late in the run
    rng = np.random.default_rng(2024)
    matched = skipped = 0
    for _ in range(16):
        n = int(rng.integers(2, 5))
        A_minus1, A0, A1 = (0.4 * rng.standard_normal((n, n)) for _ in range(3))
        sys = NeutralSystem(n=n, m=1, p=0, A_minus1=A_minus1, A0=A0, A1=A1,
                            B=rng.standard_normal((n, 1)))
        F = pole_place_nonzero(sys.A_minus1, sys.B, math.exp(-1.0))
        law = FeedbackLaw(F, np.zeros_like(F), np.zeros_like(F))
        closed = apply_feedback(sys, law)
        region = default_region(closed)
        abscissa, qualifier = spectral_abscissa(closed, region)
        assert qualifier == "exact"
        roots = sorted(find_roots(closed, region), key=lambda r: -r.lam.real)
        top = roots[0]
        rest = [r.lam.real for r in roots[1:] if r.lam != top.lam.conjugate()]
        if top.lam.imag != 0.0 or top.multiplicity != 1 or max(rest, default=-9.0) > top.lam.real - 0.5:
            skipped += 1
            continue
        traj = simulate_closed_loop(sys, law, History.constant(np.ones(n), 100), horizon=16.0,
                                    step=0.01)
        assert abs(-estimate_decay(traj, (10.0, 16.0)) - abscissa) < 1e-2
        matched += 1
    assert matched >= 4, (matched, skipped)
