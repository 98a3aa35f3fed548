"""Verdict-level checks for neutral delay systems.

Two rank conditions decide the control-theoretic properties:

  condition 1: rank [D(lambda), B] = n at every eigenvalue lambda (tested at
               every root found in a search region; D(lambda) is nonsingular
               off the spectrum, so the rank can only drop there);
  condition 2: rank [mu I - A_minus1, B] = n for every nonzero mu, which
               holds when the uncontrollable block of the orthogonal
               controllability staircase of (A_minus1, B) is nilpotent, to
               the rank tolerance; its nonzero eigenvalues are the witnesses.

Together they characterize complete stabilizability by derivative-plus-state
feedback; they are necessary for exact null controllability, and sufficiency
is conjectural, which every verdict states rather than assumes.  Final
observability of the delayed output is decided by running the controllability
check on the transposed system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_RANK_TOL,
    ZERO_EIG_RTOL,
    controllable_staircase,
    numerical_rank,
)
from .spectrum import (
    DEFAULT_ROOT_TOL,
    SpectrumRegion,
    default_region,
    delta_many,
    find_roots,
)
from .system import NeutralSystem, NoOutputError, transpose_dual

__all__ = [
    "Witness",
    "CheckResult",
    "Verdict",
    "check_condition1",
    "check_condition2",
    "check_stabilizability",
    "check_null_controllability",
    "check_final_observability",
    "verdict_to_dict",
]

_CONJECTURE_PASS = (
    "necessary conditions hold; exact null controllability follows under the "
    "unproven equivalence with complete stabilizability"
)
_CONJECTURE_FAIL = (
    "a necessary condition fails, so the system is definitely not exactly "
    "null controllable"
)


@dataclass(frozen=True)
class Witness:
    """Point of failure: lambda, an annihilating vector, and the rank found.

    For input-side checks the vector v satisfies v^H [M, B] ~ 0; for the
    observability check it is a right kernel vector of the stacked [M; C].
    """

    lam: complex
    null_vector: np.ndarray
    rank_found: int


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witnesses: tuple[Witness, ...]
    scope: str  # "exact" or "region_limited"


@dataclass(frozen=True)
class Verdict:
    condition1: CheckResult
    condition2: CheckResult
    overall: bool
    region: SpectrumRegion
    conjecture_note: str
    status: str  # "pass", "conjecture-pass", "necessary-failed", "fail"


def check_condition2(sys: NeutralSystem, tol_rank: float = DEFAULT_RANK_TOL) -> CheckResult:
    """rank [mu I - A_minus1, B] = n for all mu != 0.

    Decided by the orthogonal controllability staircase of (A_minus1, B): the
    condition holds when its uncontrollable block is nilpotent, to the rank
    tolerance: its zero eigenvalue is deflated first, and each nonzero
    eigenvalue mu left is a witness, with a vector v such that
    v^H [mu I - A_minus1, B] = 0 by construction; rank_found is the
    numerical rank of [mu I - A_minus1, B].  B is ranked against its own
    norm, so the verdict does not depend on the units of the input; B = 0
    leaves every nonzero eigenvalue of A_minus1 a witness.
    """
    st = controllable_staircase(sys.A_minus1, sys.B, tol_rank)
    witnesses = tuple(
        Witness(mu, v, numerical_rank(np.hstack([mu * np.eye(sys.n) - sys.A_minus1, sys.B]),
                                      tol_rank).rank)
        for mu, v in st.uncontrollable_modes()
    )
    return CheckResult(not witnesses, witnesses, "exact")


def check_condition1(
    sys: NeutralSystem,
    region: SpectrumRegion | None = None,
    tol_rank: float = DEFAULT_RANK_TOL,
    tol_root: float = DEFAULT_ROOT_TOL,
) -> CheckResult:
    """rank [D(lambda), B] = n at every spectrum point inside the region.

    Certification is region-limited: eigenvalues of high-frequency chains
    beyond the window are only covered heuristically (their behaviour is
    governed by condition 2), which the verdict records, never proves.
    """
    if region is None:
        region = default_region(sys)
    roots = find_roots(sys, region, tol_root)
    witnesses = []
    D = delta_many(sys, [root.lam for root in roots]) if roots else []
    for root, D_root in zip(roots, D):
        M = np.hstack([D_root, sys.B.astype(complex)])
        rep = numerical_rank(M, tol_rank)
        if rep.rank < sys.n:
            U, _, _ = np.linalg.svd(M)
            witnesses.append(Witness(root.lam, U[:, -1], rep.rank))
    return CheckResult(not witnesses, tuple(witnesses), "region_limited")


def _combine(sys, region, tol_rank, tol_root, kind):
    if region is None:
        region = default_region(sys)
    c1 = check_condition1(sys, region, tol_rank, tol_root)
    c2 = check_condition2(sys, tol_rank)
    overall = c1.passed and c2.passed
    if kind == "stabilizability":
        status = "pass" if overall else "fail"
        note = (
            "both rank conditions are necessary and sufficient for complete "
            "stabilizability (condition 1 certified on the region only)"
        )
    else:
        status = "conjecture-pass" if overall else "necessary-failed"
        note = _CONJECTURE_PASS if overall else _CONJECTURE_FAIL
    return Verdict(c1, c2, overall, region, note, status)


def check_stabilizability(
    sys: NeutralSystem,
    region: SpectrumRegion | None = None,
    tol_rank: float = DEFAULT_RANK_TOL,
    tol_root: float = DEFAULT_ROOT_TOL,
) -> Verdict:
    """Complete stabilizability: conditions 1 and 2 together."""
    return _combine(sys, region, tol_rank, tol_root, "stabilizability")


def check_null_controllability(
    sys: NeutralSystem,
    region: SpectrumRegion | None = None,
    tol_rank: float = DEFAULT_RANK_TOL,
    tol_root: float = DEFAULT_ROOT_TOL,
) -> Verdict:
    """Exact null controllability: same conditions, conjectural sufficiency.

    A failing verdict is a definite negative (the conditions are necessary);
    a passing verdict is positive only under the stated conjecture.
    """
    return _combine(sys, region, tol_rank, tol_root, "null_controllability")


def check_final_observability(
    sys: NeutralSystem,
    region: SpectrumRegion | None = None,
    tol_rank: float = DEFAULT_RANK_TOL,
    tol_root: float = DEFAULT_ROOT_TOL,
) -> Verdict:
    """Final observability of the delayed output y = C z(t-1).

    Equivalent to exact null controllability of the transposed system;
    witnesses come back as right kernel vectors of the stacked matrices
    [D(lambda); C] and [mu I - A_minus1; C].
    """
    if sys.p == 0:
        raise NoOutputError("check_final_observability needs an output matrix")
    dual = transpose_dual(sys)
    v = check_null_controllability(dual, region, tol_rank, tol_root)

    def flip(result: CheckResult) -> CheckResult:
        # v^H [M^T, C^T] = 0 is the same as [M; C] conj(v) = 0.
        return CheckResult(
            result.passed,
            tuple(Witness(w.lam, np.conj(w.null_vector), w.rank_found) for w in result.witnesses),
            result.scope,
        )

    return Verdict(
        flip(v.condition1), flip(v.condition2), v.overall, v.region, v.conjecture_note, v.status
    )


_KIND_DESCRIPTIONS = {
    "stabilizability": (
        "complete stabilizability by u = F_minus1 dz(t-1) + F0 z(t) + F1 z(t-1): "
        "rank[D(lambda) B] = n on the spectrum and rank[mu I - A_minus1 B] = n "
        "for mu != 0 (necessary and sufficient)"
    ),
    "null_controllability": (
        "exact null controllability: rank[D(lambda) B] = n on the spectrum and "
        "rank[mu I - A_minus1 B] = n for mu != 0 (necessary; sufficiency conjectural)"
    ),
    "final_observability": (
        "final observability of y = C z(t-1): trivial kernels of [D(lambda); C] "
        "on the spectrum and of [mu I - A_minus1; C] for mu != 0, via the "
        "transposed system"
    ),
}


def _witness_to_dict(w: Witness) -> dict:
    return {
        "lambda_re": float(w.lam.real),
        "lambda_im": float(w.lam.imag),
        "null_vector_re": [float(x) for x in np.real(w.null_vector)],
        "null_vector_im": [float(x) for x in np.imag(w.null_vector)],
        "rank_found": int(w.rank_found),
    }


def verdict_to_dict(
    verdict: Verdict,
    kind: str,
    tol_rank: float = DEFAULT_RANK_TOL,
    tol_root: float = DEFAULT_ROOT_TOL,
) -> dict:
    """Fixed JSON-ready schema for CI diffing."""
    return {
        "kind": kind,
        "criterion": _KIND_DESCRIPTIONS[kind],
        "overall": bool(verdict.overall),
        "status": verdict.status,
        "conjecture_note": verdict.conjecture_note,
        "condition1": {
            "passed": bool(verdict.condition1.passed),
            "scope": verdict.condition1.scope,
            "witnesses": [_witness_to_dict(w) for w in verdict.condition1.witnesses],
        },
        "condition2": {
            "passed": bool(verdict.condition2.passed),
            "scope": verdict.condition2.scope,
            "witnesses": [_witness_to_dict(w) for w in verdict.condition2.witnesses],
        },
        "region": verdict.region.as_dict(),
        "tolerances": {
            "rank": tol_rank,
            "root": tol_root,
            "zero_eigenvalue_rtol": ZERO_EIG_RTOL,
        },
        "coverage_note": (
            "condition 1 tested at all roots inside the region; chain "
            "eigenvalues beyond it are covered heuristically when condition 2 "
            "passes" if verdict.condition1.scope == "region_limited" else ""
        ),
    }
