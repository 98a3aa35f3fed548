"""Spectrum of a neutral delay system.

The eigenvalues are the zeros of det D(lambda) where

    D(lambda) = lambda I - lambda e^{-lambda} A_minus1 - A0 - e^{-lambda} A1
                - sum over segments [(e^{lambda b} - e^{lambda a}) A2
                                     + phi(lambda; a, b) A3],

with phi(lambda; a, b) = (e^{lambda b} - e^{lambda a}) / lambda, summed as
its 6-term power series where |lambda| < _SERIES_CUT.  D and D' are written
term by term in one function, each term with its weight in D and in D', and a
segment's two exponentials serve both of its weights.  Zeros are counted on
rectangle boundaries by the argument principle and located by adaptive
subdivision: each search rectangle reads its distinct zeros and their
multiplicities off its own contour moments (a Hankel pencil and a Vandermonde
solve), polishes them by multiplicity-aware Newton iteration on the
determinant, and is split when that fails.  Only the outer contour of a
search is hash-perturbed, and it is integrated once; each sub-rectangle
reuses its parent's edge panels and adds one cut line, which gets the same
edge-local vanishing-determinant check as every edge.  Every coefficient is
real, so det D(conj lambda) = conj det D(lambda): a contour symmetric about
the real axis is integrated on its lower half and mirrored, and find_roots
searches only above a cut just below the real axis and reflects what it finds
there.  Each nonzero eigenvalue mu of A_minus1 generates a vertical chain of
eigenvalues approaching ln|mu| + i(arg mu + 2 pi k), which this module
predicts directly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import zero_eig_cutoff
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

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)
_POW = np.arange(_P)
_XI_POW = _GL_NODES[:, None] ** _POW
# _BINOM[p, q] a^(p - q) b^q is the xi^q coefficient of (a + b xi)^p
_BINOM = np.array([[math.comb(p, q) for q in range(_P)] for p in range(_P)], dtype=float)
_SHIFT = np.maximum(_POW[:, None] - _POW, 0)
# a panel's moments from its lower and upper half's: xi = (xi_half -+ 1) / 2
_FROM_LO = (_BINOM * (-1.0) ** _SHIFT / 2.0 ** _POW[:, None]).T
_FROM_HI = (_BINOM / 2.0 ** _POW[:, None]).T
# reversing a panel maps xi to -xi, and mirroring it conjugates dz
_MIRROR = -((-1.0) ** _POW)


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
    """Closed axis-aligned rectangle in the complex plane."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
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

    find_roots reports a root below the real axis as the exact conjugate of
    one above it, with that root's residual and newton_iterations.
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


def _delta_many(sys, lam, deriv):
    # D = lambda I - sum of w M, or D' = I - sum of w' M when deriv: one line
    # per term, with w' if deriv else w
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))[:, None, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        E = np.exp(-lam)
        T = np.eye(sys.n) if deriv else lam * np.eye(sys.n)
        T = T - ((1.0 - lam) * E if deriv else lam * E) * sys.A_minus1
        if not deriv:  # A0 drops out of D'
            T = T - sys.A0
        T = T - (-E if deriv else E) * sys.A1
        for seg in sys.kernels:
            ea, eb = np.exp(lam * seg.a), np.exp(lam * seg.b)
            T = T - (seg.b * eb - seg.a * ea if deriv else eb - ea) * seg.A2
            T = T - _phi_many(lam, seg.a, seg.b, ea, eb, deriv) * seg.A3
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
    T, Td = delta_many(sys, lam), delta_derivative_many(sys, lam)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det = np.linalg.det(T)
        try:
            X = np.linalg.solve(T, Td)
        except np.linalg.LinAlgError as e:
            raise SingularAtEvaluationPoint(str(e)) from e
        logd = np.trace(X, axis1=1, axis2=2)
    return det, logd


def det_logderiv(sys: NeutralSystem, lam: complex):
    """(det D(lambda), trace(D^{-1} D')) via one LU factorization.

    The trace equals (det)'/det by Jacobi's formula.  Raises
    SingularAtEvaluationPoint when D(lambda) is singular.
    """
    det, logd = _det_logderiv_many(sys, [lam])
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


def _gl_batch(sys, z0, z1, segs):
    # GL10 moments per (a, b) row of segs, a sub-segment of [z0, z1] in its
    # parameter, with the |det| node magnitudes for the floor checks.
    a = segs[:, 0][:, None]
    hw = 0.5 * (segs[:, 1] - segs[:, 0])[:, None]
    z = z0 + (a + (_GL_NODES + 1.0) * hw).ravel() * (z1 - z0)
    try:
        det, logd = _det_logderiv_many(sys, z)
    except SingularAtEvaluationPoint:
        raise ContourThroughZero(f"det D is singular at a node of edge {z0} -> {z1}") from None
    vals = (_GL_WEIGHTS * logd.reshape(-1, 10)) @ _XI_POW * (hw * (z1 - z0))
    mags = np.abs(det)
    if not np.all(np.isfinite(mags)) or not np.all(np.isfinite(vals)):
        lo, med = float(np.min(mags)), float(np.median(mags))
        raise _edge_error(ContourThroughZero, z0, z1, "det D is not finite", lo, med)
    return vals, mags


# Edge integrals aim below this absolute error so that the total winding
# estimate is reliably within 0.25 of the true integer.
_EDGE_BUDGET = 0.47 / 4.0
_MIN_SEG = 1e-12
_MAX_SEGS = 4000
# A cut this close (in side parameter) to a panel boundary reuses the boundary.
_SNAP = 1e-12


def _adaptive_edge(sys, z0, z1, segs=None):
    # Panel-adaptive quadrature of logderiv along one edge: each panel is
    # halved until the halved count agrees with the coarse one, which fails
    # to terminate only when a zero of det sits (numerically) on the edge.
    # The starting panels are (a, b) parameter rows, by default a uniform
    # grid.  Returns the side and the median and smallest node |det|.
    if segs is None:
        n0 = max(4, math.ceil(abs(z1 - z0) * 1.25))
        segs = np.column_stack([np.arange(n0), np.arange(1, n0 + 1)]) / n0
    active = np.asarray(segs, dtype=float)
    end = active[-1, 1]
    old, mags = _gl_batch(sys, z0, z1, active)
    med, min_det = float(np.median(mags)), float(np.min(mags))
    done_a, done_val = [], []
    processed = len(active)
    while len(active):
        a, b = active[:, 0], active[:, 1]
        m = 0.5 * (a + b)
        halves = np.column_stack([a, m, m, b]).reshape(-1, 2)
        vals, mags = _gl_batch(sys, z0, z1, halves)
        min_det = min(min_det, float(np.min(mags)))
        if min_det <= 1e-12 * med:
            raise _edge_error(ContourThroughZero, z0, z1, "det D vanishes", min_det, med)
        fine = vals[0::2] @ _FROM_LO + vals[1::2] @ _FROM_HI
        err = np.abs(fine[:, 0] - old[:, 0])
        tiny = (b - a) <= _MIN_SEG
        ok = tiny | (err <= _EDGE_BUDGET * (b - a))
        done_a.append(a[ok])
        done_val.append(fine[ok])
        again = np.repeat(~ok, 2)
        active, old = halves[again], vals[again]
        processed += len(active)
        if processed > _MAX_SEGS or np.any(tiny & (err > _EDGE_BUDGET)):
            raise _edge_error(QuadratureNotConverged, z0, z1, "panels do not settle", min_det, med)
    a = np.concatenate(done_a)
    order = np.argsort(a)
    side = _Side(z0, z1, np.append(a[order], end), np.concatenate(done_val)[order])
    return side, med, min_det


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
    # panel u = alpha + beta xi, and the shift is well conditioned when the
    # panels lie on a rectangle of centre c and half-diagonal rho.
    total = np.zeros(P, dtype=complex)
    for side, sign in zip(sides, (1.0, 1.0, -1.0, -1.0)):
        d = (side.z1 - side.z0) / rho
        alpha = (side.z0 - c) / rho + 0.5 * (side.t[:-1] + side.t[1:]) * d
        beta = 0.5 * np.diff(side.t) * d
        shift = _BINOM[:P, :P] * (alpha[:, None] ** _POW[:P])[:, _SHIFT[:P, :P]]
        shift *= (beta[:, None] ** _POW[:P])[:, None, :]
        total += sign * np.einsum("jpq,jq->p", shift, side.val[:, :P])
    return total / (2.0j * math.pi)


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
        (bottom, *b), (right, *r), (left, *l) = [
            _adaptive_edge(sys, z0, z1)
            for z0, z1 in ((sw, se), (se, complex(se.real, 0.0)), (sw, complex(sw.real, 0.0)))
        ]
        top = _Side(*ends[2], bottom.t, bottom.val.conj())
        edges = [(bottom, *b), (_mirror_half(right), *r), (top, *b), (_mirror_half(left), *l)]
    else:
        edges = [_adaptive_edge(sys, z0, z1) for z0, z1 in ends]
    sides, meds, lows = zip(*edges)
    # cross-edge floor: the smallest |det| of any side against the largest median
    low = int(np.argmin(lows))
    med = max(meds)
    if lows[low] <= 1e-12 * med:
        what = "det D vanishes (median: largest of the four edges)"
        raise _edge_error(ContourThroughZero, *ends[low], what, lows[low], med)
    W = _moments(sides)[0]
    if not np.isfinite(W):
        raise ContourThroughZero(f"winding of det D over {rect} is not finite")
    k = _count_of(W)
    if k is None:
        raise QuadratureNotConverged(f"winding {W:.6g} over {rect} is not near an integer")
    return k, rect, sides


def count_zeros(sys: NeutralSystem, region: SpectrumRegion) -> int:
    """Number of zeros of det D inside the rectangle, counting multiplicity.

    The winding number of det D over the boundary is integrated by adaptive
    Gauss-Legendre panels until it lies within 0.25 of an integer.  The
    contour is always a copy of the rectangle inflated by deterministic
    pseudo-random factors in [1e-6, 1e-4] of its size, one for both
    imaginary sides, so that symmetry about the real axis is kept; a zero
    exactly on the requested boundary would otherwise contribute a half
    winding (an integer for even multiplicities, hence undetectable).  The
    contour is integrated once: a det that vanishes or is not finite on it
    raises ContourThroughZero, and panels that do not settle raise
    QuadratureNotConverged, each naming the edge.  On a rectangle symmetric
    about the real axis only the bottom edge and the lower halves of the
    vertical sides are integrated; the rest is their mirror image, since
    det D(conj lambda) = conj det D(lambda).  find_roots integrates this
    outer contour once; its sub-rectangles reuse it plus one cut line each.
    """
    return _outer_contour(sys, region)[0]


def _residual(sys, lam):
    # |det| at lam over the largest |det| on four probe points at a local scale
    r = 1e-2 * (1.0 + abs(lam))
    probes = lam + r * np.array([1.0, 1.0j, -1.0, -1.0j])
    det = np.linalg.det(delta_many(sys, np.concatenate(([lam], probes))))
    # a scalar's abs, which can differ in the last bit from np.abs of an array
    here, scale = abs(det[0]), float(np.max(np.abs(det[1:])))
    return float(here / scale) if scale else 0.0


def _newton(sys, lam, mult):
    # Multiplicity-aware Newton.  For multiple roots |det| bottoms out at the
    # cancellation noise of the matrix entries, so it stops at the first step
    # that does not lower |det|: (best point or None, iterations).
    best, best_mag = None, math.inf
    for iterations in range(1, 61):
        try:
            det, logd = det_logderiv(sys, lam)
        except SingularAtEvaluationPoint:
            return lam, iterations
        mag = abs(det)
        if not mag < best_mag:
            break
        best, best_mag = lam, mag
        if mag == 0.0 or not np.isfinite(logd):
            break
        lam = lam - mult / logd
    return best, iterations


def _node_roots(sys, rect, count, sides, tol):
    # The zeros of one node from its moments S_p, or None.  The Hankel pencil
    # of S_0 .. S_2k-1, k = min(count, _P // 2), cut at its numerical rank d,
    # gives the d distinct zeros unless d = k < count, and a Vandermonde
    # solve their multiplicities, positive integers adding up to count.
    # Newton from each estimate must stay in the node and nearest its own
    # estimate, and pass the residual test.  A root is real if its conjugate
    # also lies in the node nearest its own estimate.
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
    roots = []
    for i, mult in enumerate(mults):
        lam, iterations = _newton(sys, complex(est[i]), mult)
        if lam is None or not rect.contains(lam) or np.argmin(np.abs(est - lam)) != i:
            return None
        res = _residual(sys, lam)
        if not res <= tol:  # NaN when the probes overflow
            return None
        if rect.contains(lam.conjugate()) and np.argmin(np.abs(est - lam.conjugate())) == i:
            lam = complex(lam.real, 0.0)
        roots.append(Root(lam=lam, multiplicity=mult, residual=res, newton_iterations=iterations))
    return roots


def _slice(sys, side, c):
    # The panels of a side below and above its parameter c, as two sides.
    # A panel straddling c is integrated afresh as its two pieces, each
    # starting from one GL panel.
    t, val = side.t, side.val
    i = int(np.searchsorted(t, c))  # t[i - 1] < c <= t[i]
    if c - t[i - 1] <= _SNAP:
        i -= 1
    elif t[i] - c > _SNAP:
        piece, _, _ = _adaptive_edge(sys, side.z0, side.z1, [(t[i - 1], c), (c, t[i])])
        t = np.concatenate([t[: i - 1], piece.t, t[i + 1 :]])
        val = np.concatenate([val[: i - 1], piece.val, val[i:]])
        i += int(np.searchsorted(piece.t, c)) - 1
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
    # checks of find_roots guard the totals.
    bottom, right, top, left = sides
    if vertical is None:
        vertical = rect.height >= rect.width
    for frac in fracs:
        try:
            if vertical:
                y = rect.im_min + frac * rect.height
                cut, _, _ = _adaptive_edge(sys, complex(rect.re_min, y), complex(rect.re_max, y))
                r1, r2 = _slice(sys, right, frac)
                l1, l2 = _slice(sys, left, frac)
                lo = SpectrumRegion(rect.re_min, rect.re_max, rect.im_min, y)
                hi = SpectrumRegion(rect.re_min, rect.re_max, y, rect.im_max)
                kids = [(lo, (bottom, r1, cut, l1)), (hi, (cut, r2, top, l2))]
            else:
                x = rect.re_min + frac * rect.width
                cut, _, _ = _adaptive_edge(sys, complex(x, rect.im_min), complex(x, rect.im_max))
                b1, b2 = _slice(sys, bottom, frac)
                t1, t2 = _slice(sys, top, frac)
                lo = SpectrumRegion(rect.re_min, x, rect.im_min, rect.im_max)
                hi = SpectrumRegion(x, rect.re_max, rect.im_min, rect.im_max)
                kids = [(lo, (b1, cut, t1, left)), (hi, (b2, right, t2, cut))]
        except SpectrumError:
            continue
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


def find_roots(
    sys: NeutralSystem,
    region: SpectrumRegion,
    tol: float = DEFAULT_ROOT_TOL,
) -> list[Root]:
    """All zeros of det D in the region, refined to residual <= tol.

    The region is symmetrized about the real axis, whose mirror image maps
    the zeros onto themselves: the outer contour is integrated on its lower
    half, one cut at Im = -delta (the first of _HALF_CUTS that cuts cleanly,
    times top / 2 when top < 2) splits it, and only the upper child
    [re_min, re_max] x [-delta, top] is searched: each search rectangle
    reads its roots off its contour moments, or is split.  A root whose
    conjugate lies in its rectangle, nearer its own moment estimate than any
    other, is put on the axis and reported once, a root above it with its
    exact conjugate (same residual and newton_iterations), and a root below
    it, the conjugate of one above, is dropped.  RootAccountingError is
    raised unless the upper child's roots add up to its count and the
    reported roots to the whole region's.  The result is sorted by (Re
    rounded to 9 decimals, Im) and closed under conjugation bit for bit.
    """
    region = region.symmetrized()
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
    """One chain per nonzero eigenvalue of the neutral coefficient.

    Numerically repeated eigenvalues collapse into a single chain with the
    repeat count recorded as its multiplicity.
    """
    eigs = np.linalg.eigvals(sys.A_minus1)
    cutoff = zero_eig_cutoff(sys.A_minus1)
    chains = []
    used = np.zeros(eigs.size, dtype=bool)
    order = sorted(range(eigs.size), key=lambda i: (eigs[i].real, eigs[i].imag))
    for i in order:
        if used[i] or abs(eigs[i]) <= cutoff:
            continue
        mu = eigs[i]
        group = 0
        for j in order:
            if not used[j] and abs(eigs[j] - mu) <= 1e-8 * (1.0 + abs(mu)):
                used[j] = True
                group += 1
        chains.append(
            SpectrumChain(
                mu=complex(mu),
                multiplicity=group,
                abscissa=math.log(abs(mu)),
                phase=math.atan2(mu.imag, mu.real),
            )
        )
    chains.sort(key=lambda c: (c.abscissa, c.phase))
    return chains


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
