"""Spectrum of a neutral delay system.

The eigenvalues are the zeros of det D(lambda) where

    D(lambda) = lambda I - lambda e^{-lambda} A_minus1 - A0 - e^{-lambda} A1
                - sum over segments [(e^{lambda b} - e^{lambda a}) A2
                                     + phi(lambda; a, b) A3],

with phi(lambda; a, b) = (e^{lambda b} - e^{lambda a}) / lambda continued
through lambda = 0 by its power series.  Zeros are counted on rectangle
boundaries by the argument principle, isolated by adaptive subdivision and
refined by multiplicity-aware Newton iteration on the determinant, started at
the centroid of a leaf's zeros (the first contour moment, taken on the same
quadrature nodes).  Only the outer contour of a search is hash-perturbed, and
it is integrated once; each sub-rectangle reuses its parent's edge panels and
adds one cut line, which gets the same edge-local vanishing-determinant check
as every edge.  Each
nonzero eigenvalue mu of A_minus1 generates a vertical chain of eigenvalues
approaching ln|mu| + i(arg mu + 2 pi k), which this module predicts directly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

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

# Leaf geometry limits for the subdivision search.
_NEWTON_DIAM = 2.0
_MIN_LEAF = 1e-10
_SPLIT_FRACTIONS = (0.5, 0.375, 0.625, 0.4375, 0.5625, 0.34375, 0.65625, 0.40625, 0.59375)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


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
    """Subdivision reached the minimum leaf size without isolating a root."""


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


@dataclass(frozen=True)
class Root:
    """Located zero of det D with its isolating-count multiplicity."""

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


def _phi_many(lam, a, b):
    # integral of e^{lambda s} over [a, b]; removable singularity at 0.
    lam = np.asarray(lam, dtype=complex)
    out = np.empty_like(lam)
    small = np.abs(lam) < _SERIES_CUT
    big = ~small
    lb = lam[big]
    out[big] = (np.exp(lb * b) - np.exp(lb * a)) / lb
    ls = lam[small]
    acc = np.zeros_like(ls)
    for k in range(5, -1, -1):
        acc = acc * ls + (b ** (k + 1) - a ** (k + 1)) / math.factorial(k + 1)
    out[small] = acc
    return out


def _phi_prime_many(lam, a, b):
    lam = np.asarray(lam, dtype=complex)
    out = np.empty_like(lam)
    small = np.abs(lam) < _SERIES_CUT
    big = ~small
    lb = lam[big]
    eb = np.exp(lb * b)
    ea = np.exp(lb * a)
    out[big] = ((b * eb - a * ea) * lb - (eb - ea)) / (lb * lb)
    ls = lam[small]
    acc = np.zeros_like(ls)
    for k in range(6, 0, -1):
        acc = acc * ls + k * (b ** (k + 1) - a ** (k + 1)) / math.factorial(k + 1)
    out[small] = acc
    return out


def delta_many(sys: NeutralSystem, lam) -> np.ndarray:
    """Characteristic matrices D(lambda) for an array of points, shape (K, n, n)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
        E = np.exp(-lam)
        eye = np.eye(sys.n)
        T = (
            lam[:, None, None] * eye
            - (lam * E)[:, None, None] * sys.A_minus1
            - sys.A0
            - E[:, None, None] * sys.A1
        )
        for seg in sys.kernels:
            c2 = np.exp(lam * seg.b) - np.exp(lam * seg.a)
            c3 = _phi_many(lam, seg.a, seg.b)
            T = T - c2[:, None, None] * seg.A2 - c3[:, None, None] * seg.A3
    return T


def delta(sys: NeutralSystem, lam: complex) -> np.ndarray:
    """Characteristic matrix D(lambda) at a single point."""
    return delta_many(sys, [lam])[0]


def delta_derivative_many(sys: NeutralSystem, lam) -> np.ndarray:
    """Analytic derivative D'(lambda) for an array of points."""
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"):
        E = np.exp(-lam)
        eye = np.eye(sys.n)
        T = (
            np.broadcast_to(eye, (lam.size, sys.n, sys.n)).astype(complex).copy()
            - ((1.0 - lam) * E)[:, None, None] * sys.A_minus1
            + E[:, None, None] * sys.A1
        )
        for seg in sys.kernels:
            c2 = seg.b * np.exp(lam * seg.b) - seg.a * np.exp(lam * seg.a)
            c3 = _phi_prime_many(lam, seg.a, seg.b)
            T = T - c2[:, None, None] * seg.A2 - c3[:, None, None] * seg.A3
    return T


def delta_derivative(sys: NeutralSystem, lam: complex) -> np.ndarray:
    return delta_derivative_many(sys, [lam])[0]


def _det_logderiv_many(sys, lam):
    T = delta_many(sys, lam)
    Td = delta_derivative_many(sys, lam)
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
    # Accepted panels of one rectangle side, which runs west to east or south
    # to north with parameter t in [0, 1]: the panel boundaries t, the
    # integrals of logderiv dz and lambda logderiv dz over the panels (one
    # row of two per panel), and the smallest node |det| evaluated inside
    # each panel.
    t: np.ndarray
    val: np.ndarray
    mag: np.ndarray


def _edge_error(kind, z0, z1, what, min_det, med):
    return kind(f"{what} on edge {z0} -> {z1} (min |det| {min_det:.3g}, median {med:.3g})")


def _gl_batch(sys, z0, z1, segs):
    # GL10 integrals of logderiv and lambda logderiv per (a, b) row of segs,
    # a sub-segment of [z0, z1] in its parameter, with the node parameters
    # and the |det| node magnitudes for the vanishing-determinant floor check.
    a = segs[:, 0][:, None]
    hw = 0.5 * (segs[:, 1] - segs[:, 0])[:, None]
    s = (a + (_GL_NODES + 1.0) * hw).ravel()
    w = (np.broadcast_to(_GL_WEIGHTS, (segs.shape[0], 10)) * hw).ravel()
    z = z0 + s * (z1 - z0)
    try:
        det, logd = _det_logderiv_many(sys, z)
    except SingularAtEvaluationPoint:
        raise ContourThroughZero(f"det D is singular at a node of edge {z0} -> {z1}") from None
    wl = w * logd
    vals = np.column_stack([wl, wl * z]).reshape(segs.shape[0], 10, 2).sum(axis=1) * (z1 - z0)
    mags = np.abs(det)
    if not np.all(np.isfinite(mags)) or not np.all(np.isfinite(vals)):
        lo, med = float(np.min(mags)), float(np.median(mags))
        raise _edge_error(ContourThroughZero, z0, z1, "det D is not finite", lo, med)
    return vals, s, mags


# Edge integrals aim below this absolute error so that the total winding
# estimate is reliably within 0.25 of the true integer.
_EDGE_BUDGET = 0.47 / 4.0
_MIN_SEG = 1e-12
_MAX_SEGS = 4000
# A cut this close (in side parameter) to a panel boundary reuses the boundary.
_SNAP = 1e-12


def _adaptive_edge(sys, z0, z1, segs=None):
    # Panel-adaptive quadrature of logderiv along one edge: each panel is
    # halved until the halved sum agrees with the coarse value, which fails
    # to terminate only when a zero of det sits (numerically) on the edge.
    # The starting panels are (a, b) parameter rows, by default a uniform
    # grid of the edge.  Returns the accepted panels and the median |det| on
    # the starting nodes, the scale of the floor checks.
    if segs is None:
        n0 = max(4, math.ceil(abs(z1 - z0) * 1.25))
        segs = np.column_stack([np.arange(n0), np.arange(1, n0 + 1)]) / n0
    active = np.asarray(segs, dtype=float)
    end = active[-1, 1]
    old, s, mags = _gl_batch(sys, z0, z1, active)
    med = float(np.median(mags))
    min_det = float(np.min(mags))
    nodes, node_mags = [s], [mags]
    done_a, done_val = [], []
    processed = len(active)
    while len(active):
        a, b = active[:, 0], active[:, 1]
        m = 0.5 * (a + b)
        halves = np.column_stack([a, m, m, b]).reshape(-1, 2)
        vals, s, mags = _gl_batch(sys, z0, z1, halves)
        nodes.append(s)
        node_mags.append(mags)
        min_det = min(min_det, float(np.min(mags)))
        if min_det <= 1e-12 * med:
            raise _edge_error(ContourThroughZero, z0, z1, "det D vanishes", min_det, med)
        fine = vals[0::2] + vals[1::2]
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
    t = np.append(a[order], end)
    where = np.searchsorted(t, np.concatenate(nodes), side="right") - 1
    mag = np.full(a.size, np.inf)
    np.minimum.at(mag, np.clip(where, 0, a.size - 1), np.concatenate(node_mags))
    return _Side(t, np.concatenate(done_val)[order], mag), med


def _side_ends(rect):
    # (start, end) of the bottom, right, top and left sides of a rectangle,
    # each in the direction its _Side runs
    sw = complex(rect.re_min, rect.im_min)
    se = complex(rect.re_max, rect.im_min)
    ne = complex(rect.re_max, rect.im_max)
    nw = complex(rect.re_min, rect.im_max)
    return (sw, se), (se, ne), (nw, ne), (sw, nw)


def _winding(sides):
    # counterclockwise contour moments (1/2 pi i) int lambda^p det'/det,
    # p = 0, 1, over bottom, right, top and left: the zero count and the sum
    # of the zeros
    bottom, right, top, left = (side.val.sum(axis=0) for side in sides)
    return (bottom + right - top - left) / (2.0j * math.pi)


def _count_of(W):
    # the non-negative integer within 0.25 of a winding estimate, else None
    if not np.isfinite(W):
        return None
    k = int(round(W.real))
    return k if k >= 0 and abs(W - k) <= 0.25 else None


def _inflate(rect):
    # Deterministic pseudo-random inflation by 1e-6 .. 1e-4 of the size per
    # side.  The key's trailing 0 fixes where every contour lies, and with it
    # the root digits and the work counts.
    key = repr((rect.re_min, rect.re_max, rect.im_min, rect.im_max, 0)).encode()
    digest = hashlib.sha256(key).digest()
    fs = []
    for i in range(4):
        u = int.from_bytes(digest[8 * i : 8 * i + 8], "big") / 2.0**64
        fs.append(1e-6 * (100.0**u))
    w, h = rect.width, rect.height
    return SpectrumRegion(
        rect.re_min - fs[0] * w,
        rect.re_max + fs[1] * w,
        rect.im_min - fs[2] * h,
        rect.im_max + fs[3] * h,
    )


def _outer_contour(sys, region):
    # (count, contour rectangle, its four sides) on the inflated copy of the
    # region, integrated once
    rect = _inflate(region)
    ends = _side_ends(rect)
    edges = [_adaptive_edge(sys, z0, z1) for z0, z1 in ends]
    sides = [side for side, _ in edges]
    # cross-edge floor: the smallest |det| of any side against the largest median
    lows = [float(np.min(side.mag)) for side in sides]
    low = int(np.argmin(lows))
    med = max(m for _, m in edges)
    if lows[low] <= 1e-12 * med:
        what = "det D vanishes (median: largest of the four edges)"
        raise _edge_error(ContourThroughZero, *ends[low], what, lows[low], med)
    W = _winding(sides)[0]
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
    contour is always a copy of the rectangle inflated by a deterministic
    pseudo-random factor in [1e-6, 1e-4] of its size; a zero exactly on the
    requested boundary would otherwise contribute a half winding (an integer
    for even multiplicities, hence undetectable).  The contour is integrated
    once: a det that vanishes or is not finite on it raises
    ContourThroughZero, and panels that do not settle raise
    QuadratureNotConverged, each naming the edge.  Only this outer contour
    is perturbed: find_roots counts the sub-rectangles of its search on
    their parent's panels plus one cut line each, not through this function.
    """
    return _outer_contour(sys, region)[0]


def _residual(sys, lam):
    # |det| at lam over the largest |det| on four probe points at a local
    # scale; returns (residual, probe scale, probe radius).
    r = 1e-2 * (1.0 + abs(lam))
    probes = lam + r * np.array([1.0, 1.0j, -1.0, -1.0j])
    vals = np.abs(np.linalg.det(delta_many(sys, probes)))
    scale = float(np.max(vals))
    here = abs(np.linalg.det(delta(sys, lam)))
    if scale == 0.0:
        return 0.0, scale, r
    return float(here / scale), scale, r


def _newton_cluster(sys, rect, count, sides, tol):
    # Multiplicity-aware Newton from the centroid s1 / s0 of the leaf's zeros
    # (the moments' common quadrature error cancels in the ratio, unlike in
    # s1 / count).  For multiple roots |det| bottoms out at the cancellation
    # noise of the matrix entries, so the iteration stops at the first step
    # that does not lower |det| and keeps its best point; the accepted root
    # must then pass the residual test and an isolating count (tried at
    # growing radii until the contour clears the noise floor).
    s0, s1 = _winding(sides)
    lam = complex(s1 / s0)
    best = None
    best_mag = math.inf
    for iterations in range(1, 61):
        try:
            det, logd = det_logderiv(sys, lam)
        except SingularAtEvaluationPoint:
            best, best_mag = lam, 0.0
            break
        mag = abs(det)
        if not mag < best_mag:
            break
        best, best_mag = lam, mag
        if mag == 0.0 or not np.isfinite(logd):
            break
        lam = lam - count / logd
    if best is None or not rect.contains(best):
        return None
    lam = best
    res, probe_scale, probe_r = _residual(sys, lam)
    if res > tol:
        return None
    cap = 0.3 * min(0.5 * rect.width, 0.5 * rect.height)
    scale = 1.0 + abs(lam)
    # an isolating contour is pointless while |det| on it would drown in the
    # determinant noise seen at the Newton stall point
    r_noise = 0.0
    if best_mag > 0.0 and probe_scale > 0.0:
        r_noise = probe_r * (100.0 * best_mag / probe_scale) ** (1.0 / count)
    radii = [
        r * scale
        for r in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3)
        if r * scale <= cap and r * scale >= r_noise
    ]
    if not radii:
        radii = [min(max(1e-7 * scale, r_noise), cap)]
    for iso in radii:
        iso_rect = SpectrumRegion(
            lam.real - iso, lam.real + iso, lam.imag - iso, lam.imag + iso
        )
        try:
            got = count_zeros(sys, iso_rect)
        except SpectrumError:
            continue
        if got == count:
            return Root(lam=lam, multiplicity=count, residual=res, newton_iterations=iterations)
    return None


def _slice(sys, side, z0, z1, c):
    # The panels of side [z0, z1] below and above parameter c, each
    # reparametrized to [0, 1].  A panel straddling c is integrated afresh as
    # its two pieces, each starting from one GL panel.
    t, val, mag = side.t, side.val, side.mag
    i = int(np.searchsorted(t, c))  # t[i - 1] < c <= t[i]
    if c - t[i - 1] <= _SNAP:
        i -= 1
    elif t[i] - c > _SNAP:
        piece, _ = _adaptive_edge(sys, z0, z1, [(t[i - 1], c), (c, t[i])])
        t = np.concatenate([t[: i - 1], piece.t, t[i + 1 :]])
        val = np.concatenate([val[: i - 1], piece.val, val[i:]])
        mag = np.concatenate([mag[: i - 1], piece.mag, mag[i:]])
        i += int(np.searchsorted(piece.t, c)) - 1
    lo_t = t[: i + 1] / c
    hi_t = (t[i:] - c) / (1.0 - c)
    lo_t[-1], hi_t[0] = 1.0, 0.0
    return _Side(lo_t, val[:i], mag[:i]), _Side(hi_t, val[i:], mag[i:])


def _split(sys, rect, sides):
    # Cut the longer extent at the first fraction whose cut line integrates
    # cleanly and leaves both children with integer windings.  The children
    # reuse the parent's sides, sliced at the cut, and share the cut line
    # with opposite orientations, so their counts add up to the parent's by
    # construction; the final RootAccountingError check guards the total.
    bottom, right, top, left = sides
    (sw, se), (_, ne), (nw, _), _ = _side_ends(rect)
    vertical = rect.height >= rect.width  # split the longer extent
    for frac in _SPLIT_FRACTIONS:
        try:
            if vertical:
                y = rect.im_min + frac * rect.height
                cut, _ = _adaptive_edge(sys, complex(rect.re_min, y), complex(rect.re_max, y))
                r1, r2 = _slice(sys, right, se, ne, frac)
                l1, l2 = _slice(sys, left, sw, nw, frac)
                lo = SpectrumRegion(rect.re_min, rect.re_max, rect.im_min, y)
                hi = SpectrumRegion(rect.re_min, rect.re_max, y, rect.im_max)
                kids = [(lo, (bottom, r1, cut, l1)), (hi, (cut, r2, top, l2))]
            else:
                x = rect.re_min + frac * rect.width
                cut, _ = _adaptive_edge(sys, complex(x, rect.im_min), complex(x, rect.im_max))
                b1, b2 = _slice(sys, bottom, sw, se, frac)
                t1, t2 = _slice(sys, top, nw, ne, frac)
                lo = SpectrumRegion(rect.re_min, x, rect.im_min, rect.im_max)
                hi = SpectrumRegion(x, rect.re_max, rect.im_min, rect.im_max)
                kids = [(lo, (b1, cut, t1, left)), (hi, (b2, right, t2, cut))]
        except SpectrumError:
            continue
        counts = [_count_of(_winding(s)[0]) for _, s in kids]
        if None not in counts:
            return [(r, k, s) for (r, s), k in zip(kids, counts)]
    raise ContourThroughZero(
        f"no subdivision line of {rect} kept the zero count consistent"
    )


def _conjugate_close(roots):
    out = []
    for r in roots:
        lam = r.lam
        if abs(lam.imag) <= 1e-9 * (1.0 + abs(lam)):
            lam = complex(lam.real, 0.0)
        out.append(Root(lam, r.multiplicity, r.residual, r.newton_iterations))
    pos = [r for r in out if r.lam.imag > 0]
    neg = {id(r): r for r in out if r.lam.imag < 0}
    replace = {}
    for rp in pos:
        best = None
        best_d = math.inf
        for rid, rn in neg.items():
            d = abs(rn.lam - rp.lam.conjugate())
            if d < best_d:
                best, best_d = rid, d
        if best is not None and best_d <= 1e-6 * (1.0 + abs(rp.lam)):
            rn = neg.pop(best)
            if rn.multiplicity == rp.multiplicity:
                replace[id(rn)] = Root(
                    rp.lam.conjugate(), rn.multiplicity, rn.residual, rn.newton_iterations
                )
    return [replace.get(id(r), r) for r in out]


def find_roots(
    sys: NeutralSystem,
    region: SpectrumRegion,
    tol: float = DEFAULT_ROOT_TOL,
) -> list[Root]:
    """All zeros of det D in the region, refined to residual <= tol.

    The region is symmetrized about the real axis first; the result is
    sorted by (Re, Im), closed under conjugation, and its multiplicities
    sum to the argument-principle count of the whole region.
    """
    region = region.symmetrized()
    total, rect, sides = _outer_contour(sys, region)
    roots: list[Root] = []
    # depth first, so that only one path of the tree and its siblings hold
    # their side panels at a time
    stack = [(rect, total, sides)] if total else []
    while stack:
        rect, count, sides = stack.pop()
        if math.hypot(rect.width, rect.height) <= _NEWTON_DIAM:
            root = _newton_cluster(sys, rect, count, sides, tol)
            if root is not None:
                roots.append(root)
                continue
        if max(rect.width, rect.height) < _MIN_LEAF:
            raise MaxDepthExceeded(f"leaf {rect} below {_MIN_LEAF} still holds {count} zeros")
        stack.extend(kid for kid in reversed(_split(sys, rect, sides)) if kid[1])
    roots = _conjugate_close(roots)
    roots.sort(key=lambda r: (r.lam.real, r.lam.imag))
    if sum(r.multiplicity for r in roots) != total:
        raise RootAccountingError(
            f"refined multiplicities sum to {sum(r.multiplicity for r in roots)}, "
            f"region count is {total}"
        )
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
