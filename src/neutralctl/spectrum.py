"""Spectrum of a neutral delay system.

The eigenvalues are the zeros of det D(lambda) where

    D(lambda) = lambda I - lambda e^{-lambda} A_minus1 - A0 - e^{-lambda} A1
                - sum over segments [(e^{lambda b} - e^{lambda a}) A2
                                     + phi(lambda; a, b) A3],

with phi(lambda; a, b) = (e^{lambda b} - e^{lambda a}) / lambda, summed as
its 6-term power series where |lambda| < _SERIES_CUT; D, D' and the root
residual read one list of D's terms w M.  Zeros are counted on rectangle
boundaries by the argument principle and located by adaptive subdivision:
each search rectangle reads its distinct zeros and their multiplicities off
its contour moments (a Hankel pencil and a Vandermonde solve), polishes them
together by multiplicity-aware Newton iteration, one batch per iteration,
keeps them if each residual sigma_min(D) / (|lambda| + sum |w| ||M||_F), the
normwise backward error, is at most tol, and is split otherwise.  Only
the outer contour of a search is hash-perturbed, and it is integrated once;
each sub-rectangle reuses its parent's edge panels and adds one cut line.  A
contour step (the outer contour's edges, or a cut line with the straddled
panels of the sides it slices) is one panel loop over all of its edges,
whose rounds, in the fewest equal chunks of at most _CHUNK = 120 points,
are each held to one floor on |det|.  Each edge starts from
max(4, ceil(length / 2)) panels, and every panel, starting or halved, takes its 21 Gauss-Kronrod
nodes in one round.  It settles when its G10 and K21 moments against xi^q
agree for every q < _P, and is halved otherwise.  Every coefficient is
real, so det D(conj lambda) = conj det D(lambda): a contour symmetric
about the real axis is integrated on its lower half and mirrored, and
find_roots searches only above a cut just below the real axis and
reflects what it finds there.  Each nonzero eigenvalue mu of A_minus1
generates a vertical chain of eigenvalues approaching
ln|mu| + i(arg mu + 2 pi k), which this module predicts directly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import controllable_staircase
from .system import NeutralSystem

__all__ = [
    "SpectrumRegion",
    "Root",
    "SpectrumChain",
    "SpectrumError",
    "SingularAtEvaluationPoint",
    "ContourThroughZero",
    "QuadratureNotConverged",
    "MaxDepthExceeded",
    "RootAccountingError",
    "delta",
    "delta_many",
    "delta_derivative",
    "delta_derivative_many",
    "det_logderiv",
    "count_zeros",
    "find_roots",
    "predict_chains",
    "spectral_abscissa",
    "spectral_right_bound",
    "default_region",
    "roots_to_csv",
]

DEFAULT_ROOT_TOL = 1e-9

# Kernel coefficients switch to their 6-term power series below this |lambda|.
_SERIES_CUT = 1e-4

# Smallest node the subdivision search splits.
_MIN_LEAF = 1e-10
_SPLIT_FRACTIONS = (0.5, 0.375, 0.625, 0.4375, 0.5625, 0.34375, 0.65625, 0.40625, 0.59375)
# find_roots searches above Im = -delta for the first of these that cuts cleanly
_HALF_CUTS = (0.37, 0.29, 0.45)

# Contour moments kept per panel: a node resolves up to _P // 2 distinct
# zeros.  Hankel singular values below _RANK_CUT times the largest are noise.
_P = 8
_RANK_CUT = 1e-8

# The G10/K21 Gauss-Kronrod pair of QUADPACK's qk21 (Piessens et al., 1983)
# on [-1, 1]: the 10 Gauss nodes, then the 11 Kronrod nodes that extend them,
# each group ascending; the K21 weights in that node order, and the G10
# weights of the first 10 nodes.
_GK_NODES = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244, -0.4333953941292472,
    -0.14887433898163122, 0.14887433898163122, 0.4333953941292472, 0.6794095682990244,
    0.8650633666889845, 0.9739065285171717,
    -0.9956571630258081, -0.9301574913557082, -0.7808177265864169, -0.5627571346686047,
    -0.2943928627014602, 0.0, 0.2943928627014602, 0.5627571346686047, 0.7808177265864169,
    0.9301574913557082, 0.9956571630258081])
_GK_WEIGHTS = np.array([
    0.032558162307964725, 0.07503967481091996, 0.10938715880229764, 0.13470921731147334,
    0.14773910490133849, 0.14773910490133849, 0.13470921731147334, 0.10938715880229764,
    0.07503967481091996, 0.032558162307964725,
    0.011694638867371874, 0.054755896574351995, 0.0931254545836976, 0.12349197626206584,
    0.14277593857706009, 0.1494455540029169, 0.14277593857706009, 0.12349197626206584,
    0.0931254545836976, 0.054755896574351995, 0.011694638867371874])
_G_WEIGHTS = np.array([
    0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
    0.29552422471475287, 0.29552422471475287, 0.26926671930999635, 0.21908636251598204,
    0.1494513491505806, 0.06667134430868814])
# K21 weights times xi^q, q < _P: a panel's node values times this table are
# its moments against xi^q; the G10 table gives them from its 10 Gauss values
_GK_MOMENTS = _GK_WEIGHTS[:, None] * _GK_NODES[:, None] ** np.arange(_P)
_G_MOMENTS = _G_WEIGHTS[:, None] * _GK_NODES[:10, None] ** np.arange(_P)
# reversing a panel maps xi to -xi, and mirroring it conjugates dz
_MIRROR = -((-1.0) ** np.arange(_P))


class SpectrumError(RuntimeError):
    """Base class for spectrum-search failures."""


class SingularAtEvaluationPoint(SpectrumError):
    """det D(lambda) vanished where the logarithmic derivative was needed."""


class ContourThroughZero(SpectrumError):
    """det D vanished or was not finite on a counting contour edge.

    The message names the edge and the |det| magnitudes that triggered it.
    Also raised when no cut line of a search rectangle could be integrated.
    """


class QuadratureNotConverged(SpectrumError):
    """Boundary quadrature ran out of panels or missed an integer winding."""


class MaxDepthExceeded(SpectrumError):
    """Subdivision reached the minimum node size without resolving its zeros."""


class RootAccountingError(SpectrumError):
    """Refined multiplicities do not add up to the region count."""


@dataclass(frozen=True)
class SpectrumRegion:
    """Closed axis-aligned rectangle in the complex plane.

    Each bound is stored as a Python float, -0.0 as 0.0, so every spelling
    of one window (-1, -1.0, np.float64(-1.0)) is one region and one search.
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        # adding 0.0 turns -0.0 into 0.0 and rejects a string, which float() parses
        for k, v in self.as_dict().items():
            object.__setattr__(self, k, float(v + 0.0))
        bad = [f"{k} = {v}" for k, v in self.as_dict().items() if not math.isfinite(v)]
        if bad:
            raise ValueError(f"region bounds must be finite, got {', '.join(bad)}")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError(
                f"degenerate region [{self.re_min}, {self.re_max}] x "
                f"[{self.im_min}, {self.im_max}]"
            )

    @property
    def width(self):
        return self.re_max - self.re_min

    @property
    def height(self):
        return self.im_max - self.im_min

    def symmetrized(self) -> "SpectrumRegion":
        """Reflection-symmetric cover about the real axis."""
        top = max(abs(self.im_min), abs(self.im_max))
        return SpectrumRegion(self.re_min, self.re_max, -top, top)

    def contains(self, lam: complex) -> bool:
        return self.re_min <= lam.real <= self.re_max and self.im_min <= lam.imag <= self.im_max

    def as_dict(self) -> dict:
        """The JSON record written in verdict.json and plan.json."""
        return {"re_min": self.re_min, "re_max": self.re_max,
                "im_min": self.im_min, "im_max": self.im_max}


@dataclass(frozen=True)
class Root:
    """Located zero of det D with its contour-moment multiplicity.

    residual is lam's normwise backward error (see find_roots).  A root below
    the real axis mirrors one above, with its residual and newton_iterations.
    """

    lam: complex
    multiplicity: int
    residual: float
    newton_iterations: int


@dataclass(frozen=True)
class SpectrumChain:
    """Vertical eigenvalue chain generated by a nonzero eigenvalue of A_minus1."""

    mu: complex
    multiplicity: int
    abscissa: float
    phase: float

    def predict(self, k: int) -> complex:
        return complex(self.abscissa, self.phase + 2.0 * math.pi * k)

    def as_dict(self) -> dict:
        """The JSON record written in chains.json and plan.json."""
        return {"mu_re": self.mu.real, "mu_im": self.mu.imag, "abscissa": self.abscissa,
                "phase": self.phase, "multiplicity": self.multiplicity}


def _phi_many(lam, a, b, ea, eb, deriv):
    # phi = int_a^b e^{lambda s} ds, or phi' when deriv, from ea = e^{lambda a}
    # and eb = e^{lambda b}; below _SERIES_CUT the 6-term power series of either
    if deriv:
        out = ((b * eb - a * ea) * lam - (eb - ea)) / (lam * lam)
    else:
        out = (eb - ea) / lam
    small = np.abs(lam) < _SERIES_CUT
    if small.any():
        ls = lam[small]
        acc = np.zeros_like(ls)
        for k in range(5 + deriv, deriv - 1, -1):  # the coefficient of lambda^(k - deriv)
            acc = acc * ls + k**deriv * (b ** (k + 1) - a ** (k + 1)) / math.factorial(k + 1)
        out[small] = acc
    return out


def _terms(sys, lam, deriv):
    # (w, M) for each term of D = lambda I - sum of w M, or (w', M) for those
    # of D' = I - sum of w' M; lam has shape (K, 1, 1), under np.errstate
    E = np.exp(-lam)
    if deriv:  # A0 has no term in D'
        yield (1.0 - lam) * E, sys.A_minus1
        yield -E, sys.A1
    else:
        yield lam * E, sys.A_minus1
        yield 1.0, sys.A0
        yield E, sys.A1
    for seg in sys.kernels:
        ea, eb = np.exp(lam * seg.a), np.exp(lam * seg.b)
        yield (seg.b * eb - seg.a * ea if deriv else eb - ea), seg.A2
        yield _phi_many(lam, seg.a, seg.b, ea, eb, deriv), seg.A3


def _delta_many(sys, lam, deriv):
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))[:, None, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        T = np.eye(sys.n) if deriv else lam * np.eye(sys.n)
        for w, M in _terms(sys, lam, deriv):
            T = T - w * M
    return T


def delta_many(sys: NeutralSystem, lam) -> np.ndarray:
    """Characteristic matrices D(lambda) for an array of points, shape (K, n, n)."""
    return _delta_many(sys, lam, False)


def delta(sys: NeutralSystem, lam: complex) -> np.ndarray:
    """Characteristic matrix D(lambda) at a single point."""
    return delta_many(sys, [lam])[0]


def delta_derivative_many(sys: NeutralSystem, lam) -> np.ndarray:
    """Analytic derivative D'(lambda) for an array of points."""
    return _delta_many(sys, lam, True)


def delta_derivative(sys: NeutralSystem, lam: complex) -> np.ndarray:
    return delta_derivative_many(sys, [lam])[0]


def _det_logderiv_many(sys, lam):
    # (det D, trace(D^{-1} D')) per point, from one stacked solve.  Where det
    # is exactly 0, as wherever LAPACK meets a zero pivot, D is solved as the
    # identity, so that the stack does not raise, and logd is nan.
    T, Td = delta_many(sys, lam), delta_derivative_many(sys, lam)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det = np.linalg.det(T)
        zero = det == 0
        T[zero] = np.eye(sys.n)
        logd = np.trace(np.linalg.solve(T, Td), axis1=1, axis2=2)
    logd[zero] = np.nan
    return det, logd


def det_logderiv(sys: NeutralSystem, lam: complex):
    """(det D(lambda), trace(D^{-1} D')) at one point.

    The trace equals (det)'/det by Jacobi's formula.  Raises
    SingularAtEvaluationPoint where det D(lambda) is exactly 0, which
    includes a regular D whose det underflows.
    """
    det, logd = _det_logderiv_many(sys, [lam])
    if det[0] == 0:
        raise SingularAtEvaluationPoint(f"det D is singular at lambda = {complex(lam)}")
    return complex(det[0]), complex(logd[0])


@dataclass(frozen=True)
class _Side:
    # Accepted panels of one rectangle side from z0 to z1, west to east or
    # south to north: the panel boundaries t in the side's parameter [0, 1],
    # and per panel the moments of logderiv dz against xi^q, q < _P, in the
    # panel's own variable xi, which runs from -1 to 1 along it.
    z0: complex
    z1: complex
    t: np.ndarray
    val: np.ndarray


def _edge_error(kind, z0, z1, what, min_det, med):
    return kind(f"{what} on edge {z0} -> {z1} (min |det| {min_det:.3g}, median {med:.3g})")


# A panel settles when its G10 and K21 moments against xi^q, every q < _P,
# differ by at most _SETTLE times its share of the side: the G10/K21 error
# estimate of each side's count, and of each higher moment, is then at most
# _SETTLE.  Edges and cut lines start from _PANELS_PER_UNIT panels per unit
# of length, at least 4.  Both were chosen together from a sweep of (grid,
# tolerance) pairs recorded in CHANGES.md: the pair with the fewest D
# batches among those tighter than the count budget that keep the mirrored
# and direct outer-contour moments within 1e-10 and the benchmark's roots
# within 1e-13.
_SETTLE = 1e-3
_PANELS_PER_UNIT = 0.5
# A panel of _MIN_SEG is kept as it is, and its edge fails when its G10 and
# K21 counts differ by more than _EDGE_BUDGET, a quarter of the 0.47 that
# keeps the winding estimate within 0.25 of the true integer.  A cut this
# close to a panel boundary, in side parameter, reuses the boundary.
_EDGE_BUDGET = 0.47 / 4.0
_MIN_SEG = 1e-12
_MAX_SEGS = 4000
# Points per _det_logderiv_many call: a quadrature round is evaluated in the
# fewest chunks of at most this many, all of one size, which bounds the
# largest D batch in memory.
_CHUNK = 120


class _Edge:
    # One edge of _adaptive_edges: the panels (a, b) in its parameter to
    # evaluate next, each at all 21 of its nodes in one round; side once it
    # has finished.  The starting panels default to a uniform grid, and own
    # records that they did.

    def __init__(self, z0, z1, segs=None):
        self.own = segs is None
        if self.own:
            # checked before the grid is built; given panels are the two pieces of a straddled one
            n0 = max(4, math.ceil(abs(z1 - z0) * _PANELS_PER_UNIT))
            if n0 > _MAX_SEGS:
                raise QuadratureNotConverged(
                    f"{n0} starting panels on edge {z0} -> {z1} exceed the budget of {_MAX_SEGS}")
            segs = np.column_stack([np.arange(n0), np.arange(1, n0 + 1)]) / n0
        self.z0, self.z1 = z0, z1
        self.pending = np.asarray(segs, dtype=float)
        self.end = self.pending[-1, 1]
        self.med = self.side = None
        self.done_a, self.done_val = [], []
        self.processed = len(self.pending)

    def nodes(self):
        a = self.pending[:, 0][:, None]
        hw = 0.5 * (self.pending[:, 1] - self.pending[:, 0])[:, None]
        return self.z0 + (a + (_GK_NODES + 1.0) * hw).ravel() * (self.z1 - self.z0)

    def take(self, mags, logd):
        # The round's |det| and logderiv values, which must be nonzero and
        # finite: the median over the starting panels' nodes, the smallest
        # |det| met, the pending panels' K21 moments and the halves of those
        # whose G10 moments miss them.
        z0, z1 = self.z0, self.z1
        if not mags.all():
            raise ContourThroughZero(f"det D is singular at a node of edge {z0} -> {z1}")
        if not np.all(np.isfinite(mags)) or not np.all(np.isfinite(logd)):
            lo, med = float(np.min(mags)), float(np.median(mags))
            raise _edge_error(ContourThroughZero, z0, z1, "det D is not finite", lo, med)
        if self.med is None:
            self.med, self.min_det = float(np.median(mags)), math.inf
        self.min_det = min(self.min_det, float(np.min(mags)))
        f = logd.reshape(len(self.pending), -1)
        a, b = self.pending[:, 0], self.pending[:, 1]
        scale = 0.5 * (b - a) * (z1 - z0)
        vals = f @ _GK_MOMENTS * scale[:, None]
        err = np.abs(vals - f[:, :10] @ _G_MOMENTS * scale[:, None])
        tiny = (b - a) <= _MIN_SEG
        ok = tiny | (err.max(axis=1) <= _SETTLE * (b - a))
        self.done_a.append(a[ok])
        self.done_val.append(vals[ok])
        a, b = a[~ok], b[~ok]
        m = 0.5 * (a + b)
        self.pending = np.column_stack([a, m, m, b]).reshape(-1, 2)
        self.processed += len(self.pending)
        if self.processed > _MAX_SEGS or np.any(tiny & (err[:, 0] > _EDGE_BUDGET)):
            raise _edge_error(QuadratureNotConverged, z0, z1, "panels do not settle",
                              self.min_det, self.med)
        if not len(self.pending):
            a = np.concatenate(self.done_a)
            order = np.argsort(a)
            self.side = _Side(z0, z1, np.append(a[order], self.end),
                              np.concatenate(self.done_val)[order])


def _adaptive_edges(sys, edges):
    # Panel-adaptive quadrature of logderiv along the edges (z0, z1) or
    # (z0, z1, starting panels) of one contour step together: a panel
    # settles when its G10 and K21 moments agree, and is halved otherwise.
    # Each round evaluates the pending panels of every edge in one loop of
    # chunks.  Then the smallest node |det| met on the edges given no
    # starting panels must stay above 1e-12 times their largest starting
    # median; a straddled panel's pieces are not held, as their side passed
    # this floor when it was laid.  The step stops in the first round in
    # which anything fails: the first failed edge in order is raised, else
    # the floor, naming the edge of the minimum.  Returns the sides.
    runs = [_Edge(*edge) for edge in edges]
    held = [run for run in runs if run.own]
    live = runs
    while live:
        _quadrature_round(sys, live)
        if held:
            low = min(held, key=lambda run: run.min_det)
            med = max(run.med for run in held)
            if low.min_det <= 1e-12 * med:
                raise _edge_error(ContourThroughZero, low.z0, low.z1, "det D vanishes",
                                  low.min_det, med)
        live = [run for run in runs if run.side is None]
    return [run.side for run in runs]


def _quadrature_round(sys, live):
    # One round of _adaptive_edges: the pending nodes of the live edges, in
    # order, in the fewest _det_logderiv_many calls of at most _CHUNK points,
    # of equal size, and each edge's share of the values handed to it.  Each
    # node's logderiv is written over the node and only |det| is kept, so a
    # round holds one complex and one float per node.
    z = np.concatenate([run.nodes() for run in live])
    mags = np.empty(len(z))
    size = math.ceil(len(z) / math.ceil(len(z) / _CHUNK))
    for i in range(0, len(z), size):
        part = slice(i, i + size)
        det, z[part] = _det_logderiv_many(sys, z[part])
        mags[part] = np.abs(det)
    at = 0
    for run in live:
        part = slice(at, at + len(_GK_NODES) * len(run.pending))
        run.take(mags[part], z[part])
        at = part.stop


def _side_ends(rect):
    # (start, end) of the bottom, right, top and left sides of a rectangle,
    # each in the direction its _Side runs
    sw = complex(rect.re_min, rect.im_min)
    se = complex(rect.re_max, rect.im_min)
    ne = complex(rect.re_max, rect.im_max)
    nw = complex(rect.re_min, rect.im_max)
    return (sw, se), (se, ne), (nw, ne), (sw, nw)


def _moments(sides, c=0.0, rho=1.0, P=1):
    # Counterclockwise moments (1/2 pi i) int u^p det'/det, p < P, with
    # u = (lambda - c) / rho; by default S_0 alone, the zero count.  On a
    # panel u = alpha + beta xi, so its moments v_q = int xi^q u^p det'/det
    # step from p to p + 1 by v_q <- alpha v_q + beta v_(q+1), and S_p is
    # the sum of v_0 over the panels of all four sides after p steps: memory
    # O(panels P).  The steps are well conditioned when the panels lie on a
    # rectangle of centre c and half-diagonal rho.
    signs = (1.0, 1.0, -1.0, -1.0)
    v = np.concatenate([sign * side.val[:, :P] for side, sign in zip(sides, signs)])
    S = [v[:, 0].sum()]
    if P > 1:
        d = [(side.z1 - side.z0) / rho for side in sides]
        alpha = np.concatenate([(side.z0 - c) / rho + 0.5 * (side.t[:-1] + side.t[1:]) * dk
                                for side, dk in zip(sides, d)])[:, None]
        beta = np.concatenate([0.5 * np.diff(side.t) * dk for side, dk in zip(sides, d)])[:, None]
        for _ in range(P - 1):
            v = alpha * v[:, :-1] + beta * v[:, 1:]
            S.append(v[:, 0].sum())
    return np.array(S) / (2.0j * math.pi)


def _count_of(W):
    # the non-negative integer within 0.25 of a winding estimate, else None
    if not np.isfinite(W):
        return None
    k = int(round(W.real))
    return k if k >= 0 and abs(W - k) <= 0.25 else None


def _inflate(rect):
    # Deterministic pseudo-random inflation by 1e-6 .. 1e-4 of the size per
    # side, one factor for both imaginary sides, so that a window symmetric
    # about the real axis keeps a symmetric contour.  The key's trailing 0
    # fixes where every contour lies, and with it the root digits and the
    # work counts.
    key = repr((rect.re_min, rect.re_max, rect.im_min, rect.im_max, 0)).encode()
    digest = hashlib.sha256(key).digest()
    fs = []
    for i in range(3):
        u = int.from_bytes(digest[8 * i : 8 * i + 8], "big") / 2.0**64
        fs.append(1e-6 * (100.0**u))
    w, h = rect.width, rect.height
    return SpectrumRegion(
        rect.re_min - fs[0] * w,
        rect.re_max + fs[1] * w,
        rect.im_min - fs[2] * h,
        rect.im_max + fs[2] * h,
    )


def _mirror_half(half):
    # A south-to-north side of a real-symmetric contour from its lower half:
    # det D(conj z) = conj det D(z), so the upper half's panels are the lower
    # ones in reverse order with the moments _MIRROR conj(val)
    t = np.concatenate([0.5 * half.t, 1.0 - 0.5 * half.t[-2::-1]])
    val = np.concatenate([half.val, _MIRROR * half.val[::-1].conj()])
    return _Side(half.z0, half.z0.conjugate(), t, val)


def _outer_contour(sys, region):
    # (count, contour rectangle, its four sides) on the inflated copy of the
    # region, integrated once.  On a window symmetric about the real axis
    # only the bottom edge, first, and the lower halves of the vertical
    # sides are integrated; the top edge mirrors the bottom, val conj(val).
    rect = _inflate(region)
    ends = _side_ends(rect)
    if region.im_min == -region.im_max:
        sw, se = ends[0]
        bottom, right, left = _adaptive_edges(
            sys, [(sw, se), (se, complex(se.real, 0.0)), (sw, complex(sw.real, 0.0))])
        top = _Side(*ends[2], bottom.t, bottom.val.conj())
        sides = [bottom, _mirror_half(right), top, _mirror_half(left)]
    else:
        sides = _adaptive_edges(sys, ends)
    W = _moments(sides)[0]
    k = _count_of(W)
    if k is None:
        raise QuadratureNotConverged(f"winding {W:.6g} over {rect} is not near an integer")
    return k, rect, sides


def count_zeros(sys: NeutralSystem, region: SpectrumRegion) -> int:
    """Number of zeros of det D inside the rectangle, counting multiplicity.

    The winding number of det D over the boundary is integrated by adaptive
    Gauss-Kronrod G10/K21 panels, max(4, ceil(length / 2)) to start with
    per edge, each evaluated at its 21 nodes in one round: a panel settles
    when its G10 and K21 moments against xi^q, q < 8 in the panel's
    variable xi, each differ by at most 1e-3 times its share of the edge,
    and is halved otherwise, so the error estimate of each edge's count is
    at most 1e-3.  The contour is always a copy of the rectangle inflated
    by deterministic pseudo-random factors in [1e-6, 1e-4] of its size, one
    for both imaginary sides, so that symmetry about the real axis is kept;
    a zero exactly on the requested boundary would otherwise contribute a
    half winding (an integer for even multiplicities, hence undetectable).  The
    contour is integrated once: a det that is 0 or not finite at a node
    raises ContourThroughZero, and panels that do not settle raise
    QuadratureNotConverged, each naming the edge.  On a rectangle symmetric
    about the real axis only the bottom edge and the lower halves of the
    vertical sides are integrated; the rest is their mirror image, since
    det D(conj lambda) = conj det D(lambda).  The integrated edges share one
    panel loop: each round evaluates all of their pending panels, in the
    fewest equal chunks of at most 120 points.  After each round the
    smallest node |det| met on any of them must stay above 1e-12 times
    their largest starting median, else "det D vanishes" names the edge of
    the minimum.  The first round with a failure stops the loop and reports
    the first failed edge in order, else the floor.  find_roots integrates
    this outer contour once; its sub-rectangles reuse it plus one cut line
    each.
    """
    return _outer_contour(sys, region)[0]


def _residuals(sys, lams):
    # per point, as find_roots defines it: D and the denominator from one
    # pass over D's terms; a zero M is left out of the denominator, as
    # inf * 0 is NaN
    lam = np.asarray(lams, dtype=complex)[:, None, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        T, scale = lam * np.eye(sys.n), np.abs(lam)
        for w, M in _terms(sys, lam, False):
            T = T - w * M
            if norm := np.linalg.norm(M):
                scale = scale + np.abs(w) * norm
    sig = np.linalg.svd(T, compute_uv=False)[:, -1:, None]
    return np.divide(sig, scale, out=np.zeros_like(sig), where=scale > 0).ravel().tolist()


def _newton(sys, starts, mults):
    # Multiplicity-aware Newton from every start at once, one batch per
    # iteration.  For multiple roots |det| bottoms out at the cancellation
    # noise of the matrix entries, so each start stops at its first step
    # that does not lower |det|, and one whose det is 0 (D singular), or
    # whose logderiv is zero or not finite, stops there: (best point or None,
    # iterations) per start.  The update is Python's
    # complex division, whose rounding numpy's does not share.
    lam = [complex(z) for z in starts]
    best, best_mag = [None] * len(lam), [math.inf] * len(lam)
    out = [None] * len(lam)
    live = list(range(len(lam)))
    for iterations in range(1, 61):
        det, logd = _det_logderiv_many(sys, [lam[j] for j in live])
        going = []
        for j, dj, gj in zip(live, det, logd):
            mag = abs(complex(dj))
            if not mag < best_mag[j]:
                out[j] = best[j], iterations
            else:
                best[j], best_mag[j] = lam[j], mag
                if mag == 0.0 or gj == 0 or not np.isfinite(gj):
                    out[j] = best[j], iterations
                else:
                    lam[j] = lam[j] - mults[j] / complex(gj)
                    going.append(j)
        live = going
        if not live:
            return out
    for j in live:
        out[j] = best[j], 60
    return out


def _node_roots(sys, rect, count, sides, tol):
    # The zeros of one node from its moments S_p, or None.  The Hankel pencil
    # of S_0 .. S_2k-1, k = min(count, _P // 2), cut at its numerical rank d,
    # gives the d distinct zeros unless d = k < count, and a Vandermonde
    # solve their multiplicities, positive integers adding up to count.
    # Newton, run from all estimates together, must leave each in the node
    # and nearest its own estimate, and each must pass the residual test.  A
    # root is real if its conjugate also lies in the node nearest its own
    # estimate.
    c = complex(0.5 * (rect.re_min + rect.re_max), 0.5 * (rect.im_min + rect.im_max))
    rho = 0.5 * math.hypot(rect.width, rect.height)
    k = min(count, _P // 2)
    S = _moments(sides, c, rho, 2 * k)
    hankel = np.add.outer(np.arange(k), np.arange(k))
    U, sig, Vh = np.linalg.svd(S[hankel])
    d = int(np.count_nonzero(sig > _RANK_CUT * sig[0]))
    if d == k < count:
        return None
    pencil = U[:, :d].conj().T @ S[hankel + 1] @ Vh[:d].conj().T / sig[:d]
    u = np.linalg.eigvals(pencil)
    m = np.linalg.lstsq(np.vander(u, d, increasing=True).T, S[:d], rcond=None)[0]
    mults = [_count_of(x) for x in m]
    if None in mults or 0 in mults or sum(mults) != count:
        return None
    est = c + rho * u
    polished = _newton(sys, est, mults)
    for i, (lam, _) in enumerate(polished):
        if lam is None or not rect.contains(lam) or np.argmin(np.abs(est - lam)) != i:
            return None
    residuals = _residuals(sys, [lam for lam, _ in polished])
    roots = []
    for i, ((lam, iterations), mult, res) in enumerate(zip(polished, mults, residuals)):
        if res > tol:
            return None
        if rect.contains(lam.conjugate()) and np.argmin(np.abs(est - lam.conjugate())) == i:
            lam = complex(lam.real, 0.0)
        roots.append(Root(lam=lam, multiplicity=mult, residual=res, newton_iterations=iterations))
    return roots


def _straddled(side, c):
    # The panel of a side that its parameter c cuts inside, farther than
    # _MIN_SEG from both ends, as its two pieces (each one starting panel for
    # _adaptive_edges), or None
    t = side.t
    i = int(np.searchsorted(t, c))  # t[i - 1] < c <= t[i]
    if c - t[i - 1] > _MIN_SEG and t[i] - c > _MIN_SEG:
        return [(t[i - 1], c), (c, t[i])]
    return None


def _slice(side, c, piece=None):
    # The panels of a side below and above its parameter c, as two sides;
    # piece is the straddled panel integrated afresh, as a side along it.
    t, val = side.t, side.val
    i = int(np.searchsorted(t, c))  # t[i - 1] < c <= t[i]
    if piece is not None:
        t = np.concatenate([t[: i - 1], piece.t, t[i + 1 :]])
        val = np.concatenate([val[: i - 1], piece.val, val[i:]])
        i += int(np.searchsorted(piece.t, c)) - 1
    elif c - t[i - 1] <= _MIN_SEG:
        i -= 1
    zc = side.z0 + c * (side.z1 - side.z0)
    lo_t = t[: i + 1] / c
    hi_t = (t[i:] - c) / (1.0 - c)
    lo_t[-1], hi_t[0] = 1.0, 0.0
    return _Side(side.z0, zc, lo_t, val[:i]), _Side(zc, side.z1, hi_t, val[i:])


def _split(sys, rect, sides, vertical=None, fracs=_SPLIT_FRACTIONS):
    # Cut the rectangle at the first fraction whose cut line integrates
    # cleanly and leaves both children with integer windings: a horizontal
    # line when vertical, by default when the rectangle is at least as tall
    # as it is wide.  The children reuse the parent's sides, sliced at the
    # cut, and share the cut line with opposite orientations, so their
    # counts add up to the parent's by construction; the RootAccountingError
    # checks of find_roots guard the totals.  The cut line and the straddled
    # panels of the two sliced sides are integrated together.
    bottom, right, top, left = sides
    if vertical is None:
        vertical = rect.height >= rect.width
    for frac in fracs:
        if vertical:
            y = rect.im_min + frac * rect.height
            line = (complex(rect.re_min, y), complex(rect.re_max, y))
            cut_sides = (right, left)
        else:
            x = rect.re_min + frac * rect.width
            line = (complex(x, rect.im_min), complex(x, rect.im_max))
            cut_sides = (bottom, top)
        plans = [_straddled(side, frac) for side in cut_sides]
        edges = [line] + [(side.z0, side.z1, p) for side, p in zip(cut_sides, plans) if p]
        try:
            cut, *pieces = _adaptive_edges(sys, edges)
        except SpectrumError:
            continue
        (s1, s2), (s3, s4) = [_slice(side, frac, pieces.pop(0) if p else None)
                              for side, p in zip(cut_sides, plans)]
        if vertical:
            lo = SpectrumRegion(rect.re_min, rect.re_max, rect.im_min, y)
            hi = SpectrumRegion(rect.re_min, rect.re_max, y, rect.im_max)
            kids = [(lo, (bottom, s1, cut, s3)), (hi, (cut, s2, top, s4))]
        else:
            lo = SpectrumRegion(rect.re_min, x, rect.im_min, rect.im_max)
            hi = SpectrumRegion(x, rect.re_max, rect.im_min, rect.im_max)
            kids = [(lo, (s1, cut, s3, left)), (hi, (s2, right, s4, cut))]
        counts = [_count_of(_moments(s)[0]) for _, s in kids]
        if None not in counts:
            return [(r, k, s) for (r, s), k in zip(kids, counts)]
    raise ContourThroughZero(
        f"no subdivision line of {rect} kept the zero count consistent"
    )


def _check_sum(roots, count, what):
    got = sum(r.multiplicity for r in roots)
    if got != count:
        raise RootAccountingError(f"refined multiplicities sum to {got}, {what} count is {count}")


# (key, roots, error) of the last find_roots search: its roots, or the type
# and args of the SpectrumError it raised, never the exception itself, whose
# traceback holds the failed search's frames
_last_search = None


def find_roots(
    sys: NeutralSystem,
    region: SpectrumRegion,
    tol: float = DEFAULT_ROOT_TOL,
) -> list[Root]:
    """All zeros of det D in the region, each with residual <= tol.

    The region is symmetrized about the real axis, whose mirror image maps
    the zeros onto themselves: the outer contour is integrated on its lower
    half, one cut at Im = -delta (the first of _HALF_CUTS that cuts cleanly,
    times top / 2 when top < 2) splits it, and only the upper child
    [re_min, re_max] x [-delta, top] is searched: each search rectangle
    reads its roots off its contour moments and polishes all of them
    together by Newton, or is split.  A root whose conjugate lies in its
    rectangle, nearer its own moment estimate than any other, is put on the
    axis and reported once, a root above it with its exact conjugate (same
    residual and newton_iterations), and a root below it, the conjugate of
    one above, is dropped.  RootAccountingError is raised unless the upper
    child's roots add up to its count and the reported roots to the whole
    region's.  The result is sorted by (Re rounded to 9 decimals, Im) and
    closed under conjugation bit for bit.  tol (finite and positive, else
    ValueError) bounds each root's residual sigma_min(D(lam)) / (|lam| + sum
    |w(lam)| ||M||_F) over D = lam I - sum w M, its normwise backward error.

    The last search is remembered: its roots, or the SpectrumError it
    raised.  A call whose symmetrized region, tol and kernel bounds equal it
    and whose A_minus1, A0, A1 and kernel matrices are bit-identical to it
    evaluates no D: it returns a new list of the remembered Root objects, or
    raises a new exception of the remembered type with the same message.
    B, C, m and p are not read, so a system and its transposed dual share
    one search.  Windows and kernel bounds are stored as floats, so an int
    bound and its float are one search.  There is one entry, so a failed
    search replaces the earlier one; an error other than a SpectrumError,
    such as MemoryError, is not remembered and leaves it in place.
    """
    global _last_search
    if not 0 < tol < math.inf:
        raise ValueError(f"root tolerance must be finite and positive, got {tol}")
    region = region.symmetrized()
    # the scalars by value, the coefficient matrices by their bytes
    key = (region, float(tol), [(s.a, s.b) for s in sys.kernels],
           *(M.tobytes() for M in (sys.A_minus1, sys.A0, sys.A1)),
           *(M.tobytes() for s in sys.kernels for M in (s.A2, s.A3)))
    if _last_search is None or _last_search[0] != key:
        try:
            _last_search = key, tuple(_search(sys, region, tol)), None
        except SpectrumError as e:
            _last_search = key, None, (type(e), e.args)
            raise
    _, roots, error = _last_search
    if error:
        raise error[0](*error[1])
    return list(roots)


def _search(sys, region, tol):
    total, rect, sides = _outer_contour(sys, region)
    if not total:
        return []
    scale = min(1.0, 0.5 * rect.im_max)
    fracs = [0.5 - d * scale / rect.height for d in _HALF_CUTS]
    _, (rect, upper, sides) = _split(sys, rect, sides, vertical=True, fracs=fracs)
    found: list[Root] = []
    # depth first, so that only one path of the tree and its siblings hold
    # their side panels at a time
    stack = [(rect, upper, sides)] if upper else []
    while stack:
        rect, count, sides = stack.pop()
        roots = _node_roots(sys, rect, count, sides, tol)
        if roots is not None:
            found += roots
            continue
        if max(rect.width, rect.height) < _MIN_LEAF:
            raise MaxDepthExceeded(f"node {rect} below {_MIN_LEAF} still holds {count} zeros")
        stack.extend(kid for kid in reversed(_split(sys, rect, sides)) if kid[1])
    _check_sum(found, upper, "upper half")
    roots = [r for r in found if r.lam.imag >= 0.0]
    roots += [replace(r, lam=r.lam.conjugate()) for r in roots if r.lam.imag > 0.0]
    # Re rounded at a fixed scale, so that rounding noise in the real parts
    # of a vertical chain does not decide its order
    roots.sort(key=lambda r: (round(r.lam.real, 9), r.lam.imag))
    _check_sum(roots, total, "region")
    return roots


def predict_chains(sys: NeutralSystem) -> list[SpectrumChain]:
    """One chain per nonzero eigenvalue of the neutral coefficient: per mode
    of the staircase of (A_minus1, 0), whose gathered count of computed
    copies is the chain's multiplicity.
    """
    modes = controllable_staircase(sys.A_minus1, np.zeros_like(sys.B)).gathered_modes()
    chains = [SpectrumChain(mu=mu, multiplicity=size, abscissa=math.log(abs(mu)),
                            phase=math.atan2(mu.imag, mu.real)) for mu, _, size in modes]
    return sorted(chains, key=lambda c: (c.abscissa, c.phase))


def spectral_right_bound(sys: NeutralSystem) -> float:
    """Guaranteed upper bound on Re lambda over all eigenvalues.

    If Re lambda > ln(2 ||A_minus1||) the neutral term contributes less than
    |lambda| / 2 to D(lambda) v = 0, forcing |lambda| <= 2 S with S the sum
    of the remaining coefficient norms; hence no root lies beyond
    max(ln(2 ||A_minus1||), 2 S).
    """
    nrm = float(np.linalg.norm(sys.A_minus1, 2))
    L = math.log(2.0 * nrm) if nrm > 0 else -math.inf
    S = float(np.linalg.norm(sys.A0, 2)) + float(np.linalg.norm(sys.A1, 2))
    for seg in sys.kernels:
        S += 2.0 * float(np.linalg.norm(seg.A2, 2))
        S += (seg.b - seg.a) * float(np.linalg.norm(seg.A3, 2))
    return max(L, 2.0 * S)


def default_region(sys: NeutralSystem) -> SpectrumRegion:
    """Search window covering the chains, the origin and the right bound.

    The imaginary extent covers |Im| <= 20 pi plus a half unit so that the
    frequent chain eigenvalues at multiples of 2 pi i stay clear of the
    counting contour.
    """
    chains = predict_chains(sys)
    lo = min((c.abscissa for c in chains), default=0.0)
    hi = max((c.abscissa for c in chains), default=0.0)
    re_max = max(0.0, hi, spectral_right_bound(sys)) + 1.0
    re_min = min(lo, 0.0) - 2.0
    top = 20.0 * math.pi + 0.5
    return SpectrumRegion(re_min, re_max, -top, top)


def spectral_abscissa(sys: NeutralSystem, region: SpectrumRegion):
    """(max real part of the spectrum estimate, qualifier).

    The estimate is the larger of the root maximum inside the region and
    the chain abscissa maximum.  The qualifier is "exact" when the region
    reaches the guaranteed right bound, else "region_limited".  Requires
    the region to cover |Im lambda| <= 4 pi.
    """
    region = region.symmetrized()
    if region.im_max < 4.0 * math.pi - 1e-9:
        raise ValueError("region must cover |Im lambda| <= 4 pi")
    roots = find_roots(sys, region)
    chains = predict_chains(sys)
    vals = [r.lam.real for r in roots] + [c.abscissa for c in chains]
    value = max(vals) if vals else -math.inf
    qualifier = "exact" if region.re_max >= spectral_right_bound(sys) else "region_limited"
    return value, qualifier


def roots_to_csv(roots) -> str:
    lines = ["re,im,multiplicity,residual"]
    for r in roots:
        lines.append(f"{r.lam.real!r},{r.lam.imag!r},{r.multiplicity},{r.residual!r}")
    return "\n".join(lines) + "\n"
