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
from dataclasses import dataclass

import numpy as np

from .analysis import check_condition2
from .linalg import DEFAULT_RANK_TOL, _placement_ok, pole_place_nonzero
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
    targets=None,
    tol_rank: float = DEFAULT_RANK_TOL,
    tol_root: float = DEFAULT_ROOT_TOL,
) -> StabilizationPlan:
    """Choose F_minus1 for decay rate omega and report the residual spectrum.

    Controllable modes of A_minus1 go to the `targets` (default all zero).
    stage1_ok requires every chain left of -omega and an eigensolve of the
    closed neutral coefficient that passes the placement check of
    pole_place_nonzero.  Raises Condition2Violated when some nonzero
    eigenvalue of A_minus1 is immovable.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    c2 = check_condition2(sys, tol_rank)
    if not c2.passed:
        mu = max((w.lam for w in c2.witnesses), key=abs, default=complex("nan"))
        raise Condition2Violated(mu)
    radius = math.exp(-omega)
    F = pole_place_nonzero(sys.A_minus1, sys.B, radius, targets=targets, tol=tol_rank)
    law = FeedbackLaw(F, np.zeros_like(F), np.zeros_like(F))
    inter = apply_feedback(sys, law)
    if region is None:
        region = default_region(inter)
    chains = tuple(predict_chains(inter))
    roots = find_roots(inter, region, tol_root)
    residual = tuple(r for r in roots if r.lam.real >= -omega - 1e-10)

    placed_ok = _placement_ok(sys.A_minus1, sys.B, F, radius, () if targets is None else targets)
    chains_ok = all(c.abscissa < -omega for c in chains)
    margin_ok = all(c.abscissa < -omega - ASYMPTOTIC_MARGIN for c in chains)
    return StabilizationPlan(
        omega=float(omega),
        F_minus1=F,
        chains_after=chains,
        residual_roots=residual,
        stage1_ok=placed_ok and chains_ok,
        stage2_required=bool(residual),
        asymptotic_margin_ok=margin_ok,
        region=region,
    )


def verify_decay(
    sys: NeutralSystem,
    law: FeedbackLaw,
    omega: float,
    region: SpectrumRegion | None = None,
):
    """(achieved, abscissa): whether the closed loop decays faster than omega.

    True when the spectral abscissa of the closed loop over the region and
    every chain abscissa lie strictly left of -omega.
    """
    closed = apply_feedback(sys, law)
    if region is None:
        region = default_region(closed)
    abscissa, _ = spectral_abscissa(closed, region)
    chains = predict_chains(closed)
    ok = abscissa < -omega and all(c.abscissa < -omega for c in chains)
    return ok, abscissa


def plan_to_dict(plan: StabilizationPlan) -> dict:
    return {
        "omega": plan.omega,
        "F_minus1": plan.F_minus1.tolist(),
        "chains_after": [
            {
                "mu_re": c.mu.real,
                "mu_im": c.mu.imag,
                "abscissa": c.abscissa,
                "phase": c.phase,
                "multiplicity": c.multiplicity,
            }
            for c in plan.chains_after
        ],
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
        "region": {
            "re_min": plan.region.re_min,
            "re_max": plan.region.re_max,
            "im_min": plan.region.im_min,
            "im_max": plan.region.im_max,
        },
        "note": (
            "residual_roots lists the finitely many eigenvalues with "
            "Re lambda >= -omega that a distributed second-stage feedback "
            "would still have to assign"
        ),
    }
