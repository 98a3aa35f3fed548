"""Stage-1 stabilizing synthesis.

For a target decay rate omega the derivative-feedback gain F_minus1 moves
every nonzero eigenvalue of A_minus1 + B F_minus1 into the open disk of
radius e^{-omega}, which pushes all eigenvalue chains left of -omega.  The
intermediate closed loop then keeps only finitely many eigenvalues with
Re lambda >= -omega; the plan reports that residual set instead of
constructing the distributed second-stage feedback that would assign it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import check_condition2
from .linalg import DEFAULT_RANK_TOL, pole_place_nonzero
from .spectrum import (
    DEFAULT_ROOT_TOL,
    Root,
    SpectrumChain,
    SpectrumRegion,
    default_region,
    find_roots,
    predict_chains,
    spectral_abscissa,
)
from .system import FeedbackLaw, NeutralSystem, apply_feedback

__all__ = [
    "Condition2Violated",
    "StabilizationPlan",
    "synthesize_stage1",
    "verify_decay",
    "plan_to_dict",
]

# Chains approach their abscissa only like 1/k, so the finite-residual claim
# is certified only with this margin between chain abscissas and -omega.
ASYMPTOTIC_MARGIN = 0.1


class Condition2Violated(ValueError):
    """A nonzero eigenvalue of A_minus1 cannot be modified by the input."""

    def __init__(self, mu):
        self.mu = complex(mu)
        super().__init__(
            f"nonzero eigenvalue {self.mu} of the neutral coefficient is "
            "uncontrollable; no derivative feedback can move its chain"
        )


@dataclass(frozen=True)
class StabilizationPlan:
    omega: float
    F_minus1: np.ndarray
    chains_after: tuple[SpectrumChain, ...]
    residual_roots: tuple[Root, ...]
    stage1_ok: bool
    stage2_required: bool
    asymptotic_margin_ok: bool
    region: SpectrumRegion


def synthesize_stage1(
    sys: NeutralSystem,
    omega: float,
    region: SpectrumRegion | None = None,
    tol_rank: float = DEFAULT_RANK_TOL,
    tol_root: float = DEFAULT_ROOT_TOL,
) -> StabilizationPlan:
    """Choose F_minus1 for decay rate omega and report the residual spectrum.

    Controllable modes of A_minus1 are placed at zero (deadbeat), one input
    column at a time (linalg.pole_place_nonzero).  stage1_ok requires every
    chain left of -omega.  The default region is default_region of the
    closed loop, reaching at least to -omega - 1; a given region must reach
    -omega (re_min <= -omega), else ValueError is raised before any search.
    Raises Condition2Violated when some nonzero eigenvalue of A_minus1 is
    immovable, and PlacementError when the placed gain leaves a computed
    eigenvalue of A_minus1 + B F_minus1 on or outside the disk of radius
    e^{-omega}.
    """
    F, inter = _stage1_loop(sys, omega, tol_rank)
    region = _decay_region(inter, omega, region)
    chains = tuple(predict_chains(inter))
    roots = find_roots(inter, region, tol_root)
    residual = tuple(r for r in roots if r.lam.real >= -omega - 1e-10)

    chains_ok = all(c.abscissa < -omega for c in chains)
    margin_ok = all(c.abscissa < -omega - ASYMPTOTIC_MARGIN for c in chains)
    return StabilizationPlan(
        omega=float(omega),
        F_minus1=F,
        chains_after=chains,
        residual_roots=residual,
        stage1_ok=chains_ok,
        stage2_required=bool(residual),
        asymptotic_margin_ok=margin_ok,
        region=region,
    )


def _plan_region(sys, omega, tol_rank):
    # the region synthesize_stage1 searches when given none
    return _decay_region(_stage1_loop(sys, omega, tol_rank)[1], omega)


def _stage1_loop(sys, omega, tol_rank):
    # the stage-1 gain F_minus1 and the closed loop it makes
    if not 0 < omega < math.inf:
        raise ValueError(f"omega must be finite and positive, got {omega}")
    c2 = check_condition2(sys, tol_rank)
    if not c2.passed:
        raise Condition2Violated(max((w.lam for w in c2.witnesses), key=abs))
    F = pole_place_nonzero(sys.A_minus1, sys.B, math.exp(-omega), tol=tol_rank)
    return F, apply_feedback(sys, FeedbackLaw(F, np.zeros_like(F), np.zeros_like(F)))


def verify_decay(
    sys: NeutralSystem,
    law: FeedbackLaw,
    omega: float,
    region: SpectrumRegion | None = None,
):
    """(achieved, abscissa): whether the closed loop decays faster than omega.

    True when the spectral abscissa of the closed loop, the larger of its
    roots in the region and its chain abscissas, lies strictly left of
    -omega.  The default region, and the reach a given one must have, are
    as in synthesize_stage1.  omega may be zero or negative (omega = 0 asks
    for plain stability) but must be finite, else ValueError is raised
    before any search.
    """
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    closed = apply_feedback(sys, law)
    region = _decay_region(closed, omega, region)
    abscissa, _ = spectral_abscissa(closed, region)
    return abscissa < -omega, abscissa


def _decay_region(sys: NeutralSystem, omega: float, region=None) -> SpectrumRegion:
    # the roots with Re >= -omega decide both answers: a given region must
    # reach -omega, and the default one is widened to -omega - 1
    if region is not None:
        if region.re_min > -omega:
            raise ValueError(f"region re_min = {region.re_min} does not reach -omega = {-omega}")
        return region
    region = default_region(sys)
    return replace(region, re_min=min(region.re_min, -omega - 1.0))


def plan_to_dict(plan: StabilizationPlan) -> dict:
    return {
        "omega": plan.omega,
        "F_minus1": plan.F_minus1.tolist(),
        "chains_after": [c.as_dict() for c in plan.chains_after],
        "residual_roots": [
            {
                "re": r.lam.real,
                "im": r.lam.imag,
                "multiplicity": r.multiplicity,
                "residual": r.residual,
            }
            for r in plan.residual_roots
        ],
        "stage1_ok": plan.stage1_ok,
        "stage2_required": plan.stage2_required,
        "asymptotic_margin_ok": plan.asymptotic_margin_ok,
        "region": plan.region.as_dict(),
        "note": (
            "residual_roots lists the finitely many eigenvalues with "
            "Re lambda >= -omega that a distributed second-stage feedback "
            "would still have to assign"
        ),
    }
