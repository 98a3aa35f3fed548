import math
import traceback
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from neutralctl import (
    ContourThroughZero,
    KernelSegment,
    NeutralSystem,
    QuadratureNotConverged,
    SingularAtEvaluationPoint,
    SpectrumError,
    SpectrumRegion,
    count_zeros,
    default_region,
    delta,
    delta_derivative,
    det_logderiv,
    find_roots,
    predict_chains,
    roots_to_csv,
    spectral_abscissa,
    spectral_right_bound,
    transpose_dual,
)
from neutralctl import spectrum
from neutralctl.spectrum import (
    _adaptive_edges,
    _inflate,
    _moments,
    _outer_contour,
    _side_ends,
    _split,
    delta_many,
)

Z2 = np.zeros((2, 2))


def scalar_system(a_minus1=0.0, a0=0.0, a1=0.0):
    return NeutralSystem(
        n=1, m=1, p=0, A_minus1=[[a_minus1]], A0=[[a0]], A1=[[a1]], B=[[1]]
    )


def kernel_system():
    rng = np.random.default_rng(42)
    return NeutralSystem(
        n=2, m=1, p=0,
        A_minus1=0.2 * rng.standard_normal((2, 2)),
        A0=rng.standard_normal((2, 2)),
        A1=0.5 * rng.standard_normal((2, 2)),
        B=[[1], [0]],
        kernels=(
            KernelSegment(-0.8, -0.3, 0.3 * rng.standard_normal((2, 2)), rng.standard_normal((2, 2))),
            KernelSegment(-0.2, 0.0, 0.2 * rng.standard_normal((2, 2)), 0.4 * rng.standard_normal((2, 2))),
        ),
    )


def kernel_system4():
    # n = 4 with derivative and state kernels on two segments
    rng = np.random.default_rng(4)
    return NeutralSystem(
        n=4, m=1, p=0,
        A_minus1=0.25 * rng.standard_normal((4, 4)),
        A0=0.5 * rng.standard_normal((4, 4)),
        A1=0.25 * rng.standard_normal((4, 4)),
        B=np.ones((4, 1)),
        kernels=tuple(
            KernelSegment(
                a, b, 0.15 * rng.standard_normal((4, 4)), 0.25 * rng.standard_normal((4, 4))
            )
            for a, b in ((-1.0, -0.5), (-0.5, 0.0))
        ),
    )


def test_delta_example3_closed_form(ex3):
    for lam in (0.7 + 0.3j, -1.2 + 4.0j, 2.0):
        D = delta(ex3, lam)
        expected = np.array(
            [[lam, -lam * np.exp(-lam) - 1.0], [0.0, lam]], dtype=complex
        )
        assert np.allclose(D, expected, atol=1e-14)


def test_delta_example5_closed_form(ex5):
    for lam in (0.7 + 0.3j, -0.4 - 2.0j):
        D = delta(ex5, lam)
        expected = np.array(
            [[lam - lam * np.exp(-lam), 0.0], [-1.0, lam]], dtype=complex
        )
        assert np.allclose(D, expected, atol=1e-14)


def test_delta_at_zero_kills_lambda_terms():
    sys = kernel_system()
    D0 = delta(sys, 0.0)
    expected = -sys.A0 - sys.A1
    for seg in sys.kernels:
        expected = expected - (seg.b - seg.a) * seg.A3
    assert np.allclose(D0, expected, atol=1e-14)


def test_delta_derivative_trivial():
    sys = scalar_system()
    assert np.allclose(delta_derivative(sys, 0.37 + 0.1j), [[1.0]])


def test_delta_derivative_example5_at_zero(ex5):
    assert np.allclose(delta_derivative(ex5, 0.0), [[0.0, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("case", ["ex5", "kern"])
def test_delta_derivative_matches_finite_differences(case, ex5):
    sys = ex5 if case == "ex5" else kernel_system()
    rng = np.random.default_rng(17)
    for _ in range(20):
        lam = complex(*(2.0 * rng.standard_normal(2)))
        eps = 1e-5 * (1.0 + abs(lam))
        fd = (delta(sys, lam + eps) - delta(sys, lam - eps)) / (2.0 * eps)
        an = delta_derivative(sys, lam)
        scale = np.max(np.abs(an)) + 1.0
        assert np.max(np.abs(fd - an)) / scale < 1e-8


def _mp_phi(lam, a, b):
    # phi(lambda; a, b) and phi'(lambda; a, b) in the working precision of mpmath
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    if lam == 0:
        return b - a, (b * b - a * a) / 2
    eb, ea = mpmath.exp(lam * b), mpmath.exp(lam * a)
    return (eb - ea) / lam, ((b * eb - a * ea) * lam - (eb - ea)) / lam**2


def test_kernel_series_continuity():
    # the power series below the cut against 40-digit phi and phi'
    from neutralctl.spectrum import _SERIES_CUT, _phi_many

    lam = np.array([0.7e-4 + 0.3e-4j])
    assert abs(lam[0]) < _SERIES_CUT  # series branch active
    for a, b in ((-0.8, -0.3), (-0.2, 0.0), (-1.0, 0.0)):
        ea, eb = np.exp(lam * a), np.exp(lam * b)
        with mpmath.workdps(40):
            exact = [complex(x) for x in _mp_phi(mpmath.mpc(complex(lam[0])), a, b)]
        for deriv in (False, True):
            series = _phi_many(lam, a, b, ea, eb, deriv)[0]
            assert abs(series - exact[deriv]) <= 1e-15 * abs(exact[deriv])


def _mp_delta_terms(sys, lam):
    # (matrix, weight in D, weight in D') of every term of D = sum w M, at
    # 40 digits from the system's float coefficients
    e = mpmath.exp(-lam)
    terms = [(np.eye(sys.n), lam, 1), (sys.A_minus1, -lam * e, -(1 - lam) * e),
             (sys.A0, -1, 0), (sys.A1, -e, e)]
    for seg in sys.kernels:
        eb, ea = mpmath.exp(lam * seg.b), mpmath.exp(lam * seg.a)
        phi, dphi = _mp_phi(lam, seg.a, seg.b)
        terms += [(seg.A2, -(eb - ea), -(seg.b * eb - seg.a * ea)), (seg.A3, -phi, -dphi)]
    return terms


def kernel_system3():
    # n = 3 with one short segment that stops just short of 0
    rng = np.random.default_rng(3)
    return NeutralSystem(
        n=3, m=1, p=0,
        A_minus1=0.3 * rng.standard_normal((3, 3)),
        A0=rng.standard_normal((3, 3)),
        A1=0.5 * rng.standard_normal((3, 3)),
        B=np.ones((3, 1)),
        kernels=(KernelSegment(-0.733, -0.0037, rng.standard_normal((3, 3)),
                               rng.standard_normal((3, 3))),),
    )


def test_delta_and_derivative_match_mpmath():
    # D and D' against 40 digits, below the series cut and above it, within
    # 1e-13 of the term scale sum |w| ||M|| of each
    mods = (0.0, 1e-7, 3e-5, 9e-5, 0.1, 1.0, 5.0, 30.0)
    lams = np.array([r * np.exp(1j * t) for r in mods for t in (0.3, 1.9, 3.5, 5.1)])
    for sys in (kernel_system(), kernel_system3(), kernel_system4()):
        D, Dp = delta_many(sys, lams), spectrum.delta_derivative_many(sys, lams)
        for lam, D_lam, Dp_lam in zip(lams, D, Dp):
            with mpmath.workdps(40):
                terms = _mp_delta_terms(sys, mpmath.mpc(complex(lam)))
                for got, col in ((D_lam, 1), (Dp_lam, 2)):
                    exact = sum(t[col] * mpmath.matrix(np.asarray(t[0]).tolist()) for t in terms)
                    err = max(abs(complex(exact[i, j]) - got[i, j])
                              for i in range(sys.n) for j in range(sys.n))
                    scale = sum(float(abs(t[col])) * np.linalg.norm(t[0], 2) for t in terms)
                    assert err <= 1e-13 * scale, (lam, col, err / scale)


def test_constant_derivative_kernel_reduces_to_discrete_taps():
    # integral of M dz(t+s) over [-1, 0] telescopes to M z(t) - M z(t-1)
    M = np.array([[0.2, -0.1], [0.4, 0.3]])
    base = dict(n=2, m=1, p=0, A_minus1=[[0.3, 0.0], [0.0, 0.1]], B=[[1], [0]])
    with_kernel = NeutralSystem(
        A0=Z2, A1=Z2, kernels=(KernelSegment(-1.0, 0.0, M, np.zeros((2, 2))),), **base
    )
    discrete = NeutralSystem(A0=M, A1=-M, **base)
    lams = np.array([0.3 + 1j, -0.2 - 3j, 1e-6 + 0j, 2.0 + 0j])
    assert np.allclose(delta_many(with_kernel, lams), delta_many(discrete, lams), atol=1e-12)


def test_det_logderiv_scalar():
    sys = scalar_system()
    det, logd = det_logderiv(sys, 0.5 + 0.25j)
    assert abs(det - (0.5 + 0.25j)) < 1e-14
    assert abs(logd - 1.0 / (0.5 + 0.25j)) < 1e-12


def test_det_logderiv_example_determinants(ex3, ex5):
    for lam in (0.3 + 1.1j, -0.7 + 2.0j):
        det3, _ = det_logderiv(ex3, lam)
        assert abs(det3 - lam**2) < 1e-12 * (1 + abs(lam) ** 2)
        det5, _ = det_logderiv(ex5, lam)
        oracle = lam**2 * (1.0 - np.exp(-lam))
        assert abs(det5 - oracle) < 1e-12 * (1 + abs(oracle))


def test_det_logderiv_singular(ex3):
    with pytest.raises(SingularAtEvaluationPoint, match=r"^det D is singular at lambda = 0j$"):
        det_logderiv(ex3, 0.0)


def test_det_logderiv_many_marks_exact_zero_pivots_in_a_stack():
    # D upper triangular with diagonal lambda - A0[i, i], all dyadic, so at
    # lambda = A0[i, i] LU meets an exact zero pivot and det is exactly 0:
    # logd is nan there alone, and at the ordinary points of the same stack
    # it equals a solve of that matrix on its own, bit for bit
    rng = np.random.default_rng(7)
    upper = lambda k: np.triu(rng.integers(-8, 9, (4, 4)) / 8.0, k)
    A0 = upper(1) + np.diag([0.5, -0.25, 1.5, -2.0])
    sys = NeutralSystem(n=4, m=1, p=0, A_minus1=upper(1), A0=A0, A1=upper(1), B=np.ones((4, 1)))
    lam = np.array([0.3 + 0.7j, 0.5, -1 + 2j, -0.25, 2 - 0.5j, 1.5, 0.5 + 1e-3j, -2.0])
    zero = np.isin(lam, np.diag(A0))
    det, logd = spectrum._det_logderiv_many(sys, lam)
    assert zero.sum() == 4 and np.array_equal(det == 0, zero)
    assert np.array_equal(np.isnan(logd), zero)
    for z, got in zip(lam[~zero], logd[~zero]):
        want = np.trace(np.linalg.solve(delta(sys, z), delta_derivative(sys, z)))
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


def test_det_logderiv_raises_where_det_underflows():
    # D = 1e-41 I is regular, but its det, 1e-328, underflows to 0: a point
    # is singular exactly where det is 0, so this one raises too
    Z8 = np.zeros((8, 8))
    sys = NeutralSystem(n=8, m=1, p=0, A_minus1=Z8, A0=-1e-41 * np.eye(8), A1=Z8,
                        B=np.zeros((8, 1)))
    with pytest.raises(SingularAtEvaluationPoint, match=r"^det D is singular at lambda = 0j$"):
        det_logderiv(sys, 0.0)


def test_count_zeros_example5(ex5):
    assert count_zeros(ex5, SpectrumRegion(-1, 1, -7, 7)) == 5


def test_count_zeros_example3(ex3):
    assert count_zeros(ex3, SpectrumRegion(-1, 1, -1, 1)) == 2


def test_count_zeros_empty_window():
    sys = scalar_system(a0=-1.0)  # only root at -1
    assert count_zeros(sys, SpectrumRegion(1.0, 2.0, -1.0, 1.0)) == 0


def test_find_roots_example5_wide(ex5):
    roots = find_roots(ex5, SpectrumRegion(-1, 1, -40, 40))
    assert sum(r.multiplicity for r in roots) == 15
    by_k = {}
    for r in roots:
        k = round(r.lam.imag / (2 * math.pi))
        by_k[k] = r
    assert by_k[0].multiplicity == 3
    assert abs(by_k[0].lam) < 1e-8
    for k in range(-6, 7):
        if k == 0:
            continue
        r = by_k[k]
        assert r.multiplicity == 1
        assert abs(r.lam - 2j * math.pi * k) < 1e-8
        assert r.residual < 1e-10


def test_find_roots_example3(ex3):
    roots = find_roots(ex3, SpectrumRegion(-2, 2, -10, 10))
    assert len(roots) == 1
    assert roots[0].multiplicity == 2
    assert abs(roots[0].lam) < 1e-9


def test_find_roots_scalar_exponential():
    roots = find_roots(scalar_system(a0=-1.0), SpectrumRegion(-2, 2, -3, 3))
    assert len(roots) == 1
    assert roots[0].multiplicity == 1
    assert abs(roots[0].lam + 1.0) < 1e-10


def test_find_roots_symmetrizes_region(ex5):
    # an asymmetric window is reflected about the real axis before searching
    roots = find_roots(ex5, SpectrumRegion(-1, 1, -1, 8))
    ims = sorted(round(r.lam.imag, 6) for r in roots)
    assert ims == [-round(2 * math.pi, 6), 0.0, round(2 * math.pi, 6)]


def test_find_roots_conjugate_symmetry(ex5):
    roots = find_roots(ex5, SpectrumRegion(-1, 1, -20, 20))
    lams = sorted((r.lam.real, r.lam.imag) for r in roots)
    mirrored = sorted((r.lam.real, -r.lam.imag) for r in roots)
    assert lams == mirrored


def test_find_roots_vertical_chain_in_increasing_im(ex5):
    # every root of ex5 lies on Re = 0; rounding noise in Re must not order them
    ims = [r.lam.imag for r in find_roots(ex5, default_region(ex5))]
    assert len(ims) == 21
    assert ims == sorted(ims)


def test_find_roots_sum_matches_count(ex5):
    region = SpectrumRegion(-1, 1, -15, 15)
    roots = find_roots(ex5, region)
    assert sum(r.multiplicity for r in roots) == count_zeros(ex5, region.symmetrized())


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, 0.0])
def test_find_roots_rejects_a_tolerance_no_residual_passes(ex5, tol, monkeypatch):
    # NaN, -1 and 0 ran the whole subdivision into MaxDepthExceeded before
    points = count_points(monkeypatch, "_det_logderiv_many")
    with pytest.raises(ValueError, match="root tolerance must be finite and positive"):
        find_roots(ex5, SpectrumRegion(-1, 1, -7, 7), tol)
    assert points == []


def test_find_roots_repeatable(ex5):
    region = SpectrumRegion(-1, 1, -15, 15)
    r1 = find_roots(ex5, region)
    spectrum._last_search = None  # a second search, not the remembered first
    r2 = find_roots(ex5, region)
    assert [(r.lam, r.multiplicity, r.residual) for r in r1] == [
        (r.lam, r.multiplicity, r.residual) for r in r2
    ]


@pytest.mark.parametrize(
    "case, region",
    [
        ("ex5", SpectrumRegion(-1, 1, -10, 16)),
        ("half", SpectrumRegion(-2, 1, -10, 16)),
        ("kern4", SpectrumRegion(-4, 3, -10, 16)),
        ("kern4", SpectrumRegion(-4, 3, -1, 4)),
    ],
)
def test_split_counts_match_fresh_counts(case, region, ex5):
    # children counted on their parent's sliced sides plus the shared cut
    # line agree with counts on their own freshly inflated contours
    sys = {
        "ex5": ex5,
        "half": NeutralSystem(
            n=2, m=1, p=0, A_minus1=np.diag([0.5, 0.0]), A0=Z2, A1=Z2, B=[[0], [0]]
        ),
        "kern4": kernel_system4(),
    }[case]
    _, rect, sides = _outer_contour(sys, region)
    kids = _split(sys, rect, sides)
    assert len(kids) == 2
    assert all(k > 0 for _, k, _ in kids)
    for child, k, _ in kids:
        assert k == count_zeros(sys, child)


def count_points(monkeypatch, name):
    # the number of points of each call of spectrum.<name>
    points = []
    inner = getattr(spectrum, name)

    def counted(sys, lam):
        points.append(np.size(lam))
        return inner(sys, lam)

    monkeypatch.setattr(spectrum, name, counted)
    return points


def test_find_roots_work_bound(ex5, monkeypatch):
    # deterministic work counters of one wide search: log-derivative points
    # (172,669 when every split recounted both children from scratch, 30,021
    # when the whole symmetric window was searched rather than its upper
    # half, 15,723 when each root took an isolating count) and
    # Newton's det_logderiv calls (94 when Newton started at the leaf centre,
    # 20 when it polished one estimate at a time; none since it polishes a
    # node's estimates in one batch per iteration).  Every quadrature round
    # goes in chunks of at most 120 points (the largest batch was 1,020 when
    # each edge was integrated alone).
    points = count_points(monkeypatch, "_det_logderiv_many")
    calls = count_points(monkeypatch, "det_logderiv")
    roots = find_roots(ex5, SpectrumRegion(-1, 1, -40, 40))
    assert sum(r.multiplicity for r in roots) == 15
    assert sum(points) <= 6_000
    assert len(calls) <= 70
    assert calls == []
    assert max(points) <= 120


def test_find_roots_batches_per_search(ex5, monkeypatch):
    # D batches of a small symmetric search: the outer contour's three edges
    # and a split's cut line with its straddled panels share each round, and
    # Newton runs all estimates of a node together (14 batches when every
    # edge, straddled panel and Newton step was a batch of its own)
    batches = count_points(monkeypatch, "delta_many")
    (root,) = find_roots(ex5, SpectrumRegion(-1, 1, -4, 4))
    assert root.multiplicity == 3
    assert len(batches) <= 10


def test_find_roots_memory_on_a_tall_window(monkeypatch):
    # an n = 2 system on the tall window of the spectrum-wide benchmark: no
    # D batch above 120 points (640 when each edge was integrated alone) and
    # a tracemalloc peak below 85,000 bytes (276,744 when each edge was
    # integrated alone, about 170,000 while the moments were shifted through
    # a (panels, P, P) binomial tensor, about 106,000 by the two-term
    # recurrence at 1.25 starting panels per unit, about 75,000 at 0.5 while
    # starting panels took their G10 and Kronrod nodes in two rounds, about
    # 65,000 in one); the first search warms numpy's first-call state, which
    # would dominate
    sys = kernel_system()
    region = SpectrumRegion(-4, 3, -25, 25)
    find_roots(sys, region)
    spectrum._last_search = None  # measure a search, not the remembered first
    batches = count_points(monkeypatch, "delta_many")
    tracemalloc.start()
    try:
        roots = find_roots(sys, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(r.multiplicity for r in roots) == count_zeros(sys, region) > 0
    assert max(batches) <= 120
    assert peak < 85_000


def _scalar_newton(sys, lam, mult):
    # one start at a time on the public det_logderiv, as Newton ran before
    # it batched a node's estimates
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


def _bits(result):
    lam, iterations = result
    return (None if lam is None else (lam.real.hex(), lam.imag.hex()), iterations)


def test_batched_newton_matches_one_start_at_a_time():
    # spectrum._newton on groups of up to four starts against the loop on
    # one start, bit for bit: starts near roots at several distances, with
    # their multiplicities, and anywhere in the window, on kernel-free and
    # kernel systems; plus a start at an exact zero of det D (singular) and
    # one where det is 5e-324j and logd is not finite, each in a group with
    # ordinary starts, which must run on undisturbed
    rng = np.random.default_rng(314)
    scalar = scalar_system(a0=0.3)
    assert not np.isfinite(det_logderiv(scalar, complex(0.3, 5e-324))[1])
    with pytest.raises(SingularAtEvaluationPoint):
        det_logderiv(scalar, 0.3)
    cases = [(scalar, [0.3, complex(0.3, 5e-324), 1.7 + 0.2j, -0.4], [1, 1, 1, 2])]
    systems = [_random_real_system(rng, n, kernels=False) for n in (1, 2, 3, 4)]
    systems += [kernel_system(), kernel_system4()]
    region = SpectrumRegion(-3, 2, -7, 7)
    for sys in systems:
        roots = find_roots(sys, region)
        starts, mults = [], []
        for _ in range(32):
            if rng.random() < 0.75:
                r = roots[rng.integers(len(roots))]
                offset = 10.0 ** rng.uniform(-7, -0.5) * np.exp(2j * math.pi * rng.random())
                starts.append(r.lam + offset)
                mults.append(r.multiplicity if rng.random() < 0.8 else 2)
            else:
                starts.append(complex(rng.uniform(-3, 2), rng.uniform(-7, 7)))
                mults.append(1)
        for i in range(0, len(starts), 4):
            size = int(rng.integers(1, 5))
            cases.append((sys, starts[i : i + size], mults[i : i + size]))
    total = 0
    for sys, starts, mults in cases:
        got = spectrum._newton(sys, starts, mults)
        want = [_scalar_newton(sys, complex(z), m) for z, m in zip(starts, mults)]
        assert [_bits(g) for g in got] == [_bits(w) for w in want]
        total += len(starts)
    assert total >= 100
    assert _bits(spectrum._newton(scalar, [0.3], [1])[0]) == _bits((0.3 + 0j, 1))


def test_merged_edge_rounds_name_the_failing_edge():
    # edges integrated together stop in the first round in which any fails:
    # a singular node or a non-finite det names its own edge, and of several
    # edges failing in one round the first in order is reported
    edge = (-1 + 0j, 1 + 0j)
    node = spectrum._Edge(*edge).nodes()[3]
    assert node.imag == 0.0
    singular = scalar_system(a0=node.real)
    good = (2 - 1j, 2 + 1j)
    with pytest.raises(ContourThroughZero, match=r"^det D is singular at a node of edge "
                                                 r"\(-1\+0j\) -> \(1\+0j\)$"):
        _adaptive_edges(singular, [good, edge])
    far_left = scalar_system(a_minus1=0.5)
    west, farther = (-800 - 5j, -800 + 5j), (-900 - 5j, -900 + 5j)
    for order, named in (([good, west, farther], "-800"), ([farther, good, west], "-900")):
        with pytest.raises(ContourThroughZero,
                           match=rf"^det D is not finite on edge \({named}-5j\)"):
            _adaptive_edges(far_left, order)
    # the zero at 0 stops the first edge only after some halvings, while
    # the west edge fails in the first round, which stops the step
    with pytest.raises(ContourThroughZero, match=r"^det D vanishes on edge \(-0-1j\) -> 1j "):
        _adaptive_edges(far_left, [(-1j, 1j), good])
    with pytest.raises(ContourThroughZero, match=r"^det D is not finite on edge \(-800-5j\)"):
        _adaptive_edges(far_left, [(-1j, 1j), west])
    sides = _adaptive_edges(far_left, [good])
    assert len(sides) == 1 and sides[0].z1 == good[1]


def test_one_floor_holds_every_edge_of_a_step(monkeypatch):
    # the smallest |det| on any edge of a step against the largest median
    # over their starting panels, after every round: the far-left edge's
    # median of 9e11 stops the step after its first round of 189 points,
    # where each edge against its own median took 24,297
    points = count_points(monkeypatch, "_det_logderiv_many")
    far_left = scalar_system(a_minus1=0.5)
    with pytest.raises(ContourThroughZero, match=r"^det D vanishes on edge \(-0-1j\) -> 1j "):
        _adaptive_edges(far_left, [(-1j, 1j), (-30 - 1j, -20 - 1j)])
    assert sum(points) == 189


def _recipe_system(seed, n):
    # a kernel-free random system drawn as in the random-search survey
    # recorded in CHANGES.md; find_roots does not read B
    return _random_real_system(np.random.default_rng([seed, n, 0]), n, kernels=False)


def test_straddled_pieces_are_not_held_to_the_floor():
    # a cut's re-integrated pieces of a straddled panel are not held to the
    # cut line's floor: holding them jointly with the line fails this search
    # with "no subdivision line ... kept the zero count consistent"
    roots = find_roots(_recipe_system(4, 6), SpectrumRegion(-4, 3, -25, 25))
    assert sum(r.multiplicity for r in roots) == len(roots) == 51


@pytest.mark.xfail(strict=True, raises=ContourThroughZero,
                   reason="the outer contour's floor compares every edge with the largest "
                          "median of all of them, a false alarm on tall or wide windows")
@pytest.mark.parametrize("seed, n, window, count", [
    (1, 7, SpectrumRegion(-4, 3, -25, 25), 63),
    (2, 4, None, 85),
])
def test_zero_free_outer_contours_are_counted(seed, n, window, count):
    # each edge against its own median answers both; a fix flips the marker
    sys = _recipe_system(seed, n)
    roots = find_roots(sys, window or default_region(sys))
    assert len(roots) == count


def test_failing_outer_contour_is_integrated_once(monkeypatch):
    # e^{-lambda} overflows on the whole far-left window, so the first edge
    # fails; re-inflating the contour 8 more times took 11,340 points
    points = count_points(monkeypatch, "_det_logderiv_many")
    with pytest.raises(ContourThroughZero, match=r"on edge \(-800\.\d+-5\.\d+j\) -> \(-699\."):
        find_roots(scalar_system(a_minus1=0.5), SpectrumRegion(-800, -700, -5, 5))
    assert sum(points) <= 2_000


def _memo_system():
    # kernel_system with an output, so that it has a transposed dual
    return replace(kernel_system(), p=1, C=[[1.0, 0.0]])


def _ulp(M):
    # M with its first entry moved up by one ulp
    M = np.array(M, dtype=float)
    M.flat[0] = np.nextafter(M.flat[0], math.inf)
    return M


def _with_kernel(sys, **fields):
    return replace(sys, kernels=(replace(sys.kernels[0], **fields), *sys.kernels[1:]))


_MEMO_REGION = SpectrumRegion(-2.0, 0.0, -4.0, 4.0)
_EX5_REGION = SpectrumRegion(-1.0, 1.0, -8.0, 8.0)


def test_repeated_search_evaluates_no_d(monkeypatch):
    # the second search of the same inputs is the remembered first: the same
    # Root objects in a new list, with no D evaluated; the key holds the
    # symmetrized region
    sys = _memo_system()
    first = find_roots(sys, _MEMO_REGION)
    points = count_points(monkeypatch, "_det_logderiv_many")
    again = find_roots(sys, _MEMO_REGION)
    lower = find_roots(sys, SpectrumRegion(-2.0, 0.0, -4.0, 1.0))
    assert points == []
    assert first and again == first == lower
    assert again is not first and lower is not again
    assert all(a is b for a, b in zip(again, first))


@pytest.mark.parametrize("change", [
    "A_minus1", "A0", "A1", "A2", "A3", "a", "b", "re_min", "re_max", "im_max", "tol",
])
def test_search_changed_by_one_ulp_is_searched_again(change, monkeypatch):
    # every input of the search is part of the key: one ulp of any of them
    # is a new search, equal to a cold one
    sys, region, tol = _memo_system(), _MEMO_REGION, 1e-9
    if change in ("A_minus1", "A0", "A1"):
        sys = replace(sys, **{change: _ulp(getattr(sys, change))})
    elif change in ("A2", "A3"):
        sys = _with_kernel(sys, **{change: _ulp(getattr(sys.kernels[0], change))})
    elif change in ("a", "b"):
        sys = _with_kernel(sys, **{change: float(np.nextafter(getattr(sys.kernels[0], change), 0.0))})
    elif change in ("re_min", "re_max", "im_max"):
        region = replace(region, **{change: float(np.nextafter(getattr(region, change), math.inf))})
    else:
        tol = float(np.nextafter(tol, 1.0))
    find_roots(_memo_system(), _MEMO_REGION)
    points = count_points(monkeypatch, "_det_logderiv_many")
    roots = find_roots(sys, region, tol)
    assert points
    spectrum._last_search = None
    assert find_roots(sys, region, tol) == roots


@pytest.mark.parametrize("spelling", ["kernel b -0.0", "re_max -0.0", "int bounds",
                                      "np.float64 bounds"])
def test_one_window_spelled_another_way_is_one_search(spelling, monkeypatch):
    # a window and its kernel bounds are stored as floats, -0.0 as 0.0: the
    # other spelling is a memo hit, bit-identical to a cold search of the
    # float form, whose contour _inflate hashes from the same floats
    sys, region = _memo_system(), _MEMO_REGION
    if spelling == "kernel b -0.0":
        sys = replace(sys, kernels=(sys.kernels[0], replace(sys.kernels[1], b=-0.0)))
    elif spelling == "re_max -0.0":
        region = replace(region, re_max=-0.0)
    elif spelling == "int bounds":
        region = SpectrumRegion(-2, 0, -4, 4)
    else:
        region = SpectrumRegion(*map(np.float64, (-2, 0, -4, 4)))
    assert region.as_dict() == _MEMO_REGION.as_dict()
    assert all(type(v) is float for v in region.as_dict().values())
    assert math.copysign(1.0, region.re_max) == math.copysign(1.0, sys.kernels[1].b) == 1.0
    cold = find_roots(_memo_system(), _MEMO_REGION)
    points = count_points(monkeypatch, "_det_logderiv_many")
    assert _root_bits(find_roots(sys, region)) == _root_bits(cold)
    assert points == []


def _root_bits(roots):
    return [(r.lam.real.hex(), r.lam.imag.hex(), r.multiplicity, r.residual.hex()) for r in roots]


def test_ex5_window_roots_do_not_depend_on_the_type_of_its_bounds(ex5):
    # int, float and np.float64 bounds used to inflate to three contours,
    # whose roots differed in their last bits
    found = []
    for cast in (int, float, np.float64):
        spectrum._last_search = None
        found.append(_root_bits(find_roots(ex5, SpectrumRegion(*map(cast, (-1, 1, -15, 15))))))
    assert found[0] and found[0] == found[1] == found[2]


def test_window_with_no_zeros_is_an_empty_search(monkeypatch):
    # the outer contour counts 0, so no half is cut; the empty result is
    # remembered like any other
    sys, region = scalar_system(a0=-1.0), SpectrumRegion(1.0, 2.0, -1.0, 1.0)
    points = count_points(monkeypatch, "_det_logderiv_many")
    assert find_roots(sys, region) == []
    assert points
    del points[:]
    assert find_roots(sys, region) == []
    assert points == []


def test_search_of_another_system_in_between_is_forgotten(ex5, monkeypatch):
    sys = _memo_system()
    find_roots(sys, _MEMO_REGION)
    find_roots(ex5, _EX5_REGION)
    points = count_points(monkeypatch, "_det_logderiv_many")
    find_roots(sys, _MEMO_REGION)
    assert points


def test_search_ignores_inputs_and_outputs(monkeypatch):
    # B, C, m and p are not read by the search: a new B or C alone reuses the
    # first search, and a hand-transposed dual reuses the transposed dual's
    sys = _memo_system()
    first = find_roots(sys, _MEMO_REGION)
    points = count_points(monkeypatch, "_det_logderiv_many")
    for other in (replace(sys, B=[[5.0], [1.0]]), replace(sys, C=[[0.0, 1.0], [2.0, 2.0]], p=2)):
        assert find_roots(other, _MEMO_REGION) == first
    assert points == []
    dual = transpose_dual(sys)
    roots = find_roots(dual, _MEMO_REGION)
    assert points
    del points[:]
    hand = NeutralSystem(
        n=2, m=1, p=1, A_minus1=sys.A_minus1.T, A0=sys.A0.T, A1=sys.A1.T,
        B=sys.C.T, C=sys.B.T,
        kernels=tuple(KernelSegment(s.a, s.b, s.A2.T, s.A3.T) for s in sys.kernels),
    )
    for other in (hand, replace(dual, B=[[2.0, 0.5], [1.0, 3.0]], m=2),
                  replace(dual, C=[[0.0, 7.0]])):
        assert find_roots(other, _MEMO_REGION) == roots
    assert points == []


_FAR_LEFT = SpectrumRegion(-800, -700, -5, 5)


def test_raised_search_is_not_remembered(ex5, monkeypatch):
    # what the memo keeps of a search that raised (the name is older than
    # that): the far-left window of test_failing_outer_contour_is_integrated_once
    # evaluates D and raises, a repeat raises the same type and message
    # without evaluating D, and the failure has replaced the ex5 search
    good = find_roots(ex5, _EX5_REGION)
    points = count_points(monkeypatch, "_det_logderiv_many")
    sys = scalar_system(a_minus1=0.5)
    with pytest.raises(ContourThroughZero, match=r"on edge \(-800\.") as first:
        find_roots(sys, _FAR_LEFT)
    assert points
    del points[:]
    with pytest.raises(ContourThroughZero) as again:
        find_roots(sys, _FAR_LEFT)
    assert str(again.value) == str(first.value)
    assert points == []
    assert find_roots(ex5, _EX5_REGION) == good
    assert points


def _raise_far_left(sys):
    with pytest.raises(SpectrumError) as info:
        find_roots(sys, _FAR_LEFT)
    return info.value


def test_remembered_failure_raises_a_fresh_exception(monkeypatch):
    # each hit is a new exception, not the first one raised again, so its
    # traceback does not grow from hit to hit
    sys = scalar_system(a_minus1=0.5)
    first = _raise_far_left(sys)
    points = count_points(monkeypatch, "_det_logderiv_many")
    second, third = _raise_far_left(sys), _raise_far_left(sys)
    assert points == []
    assert len({id(first), id(second), id(third)}) == 3
    assert type(first) is type(second) is type(third) is ContourThroughZero
    assert str(first) == str(second) == str(third)
    assert len(traceback.extract_tb(second.__traceback__)) == len(
        traceback.extract_tb(third.__traceback__))


@pytest.mark.parametrize("error", [MemoryError, KeyboardInterrupt])
def test_error_that_is_not_a_spectrum_error_is_not_remembered(error, monkeypatch):
    # a MemoryError says nothing about the inputs: the next call searches,
    # and the SpectrumError it raises is remembered
    calls = []

    def search(sys, region, tol):
        calls.append(region)
        if len(calls) == 1:
            raise error
        raise ContourThroughZero("planted")

    monkeypatch.setattr(spectrum, "_search", search)
    sys = scalar_system(a_minus1=0.5)
    with pytest.raises(error):
        find_roots(sys, _FAR_LEFT)
    for _ in range(2):
        with pytest.raises(ContourThroughZero, match="^planted$"):
            find_roots(sys, _FAR_LEFT)
    assert len(calls) == 2


def test_failure_changed_by_one_ulp_is_searched_again(monkeypatch):
    # A0 is part of the key of a failed search as of any other
    sys = scalar_system(a_minus1=0.5)
    first = _raise_far_left(sys)
    points = count_points(monkeypatch, "_det_logderiv_many")
    _raise_far_left(sys)
    assert points == []
    moved = _raise_far_left(replace(sys, A0=_ulp(sys.A0)))
    assert points
    assert type(moved) is type(first)


def test_editing_a_returned_list_does_not_change_the_next(ex5):
    roots = find_roots(ex5, _EX5_REGION)
    kept = list(roots)
    roots.append(roots[0])
    roots.reverse()
    assert find_roots(ex5, _EX5_REGION) == kept


def test_edge_over_the_panel_budget_fails_before_evaluating(monkeypatch):
    # the root 1e4 stretches the default window's bottom edge to 20,004, so
    # its starting grid of 10,002 panels exceeds the budget; the edge used to
    # fail only after 750,150 points and about 190 MB
    sys = NeutralSystem(n=2, m=1, p=0, A_minus1=Z2, A0=np.diag([1e4, -1.0]), A1=Z2,
                        B=[[1], [0]])
    region = default_region(sys)
    points = count_points(monkeypatch, "_det_logderiv_many")
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureNotConverged,
                           match=r"^10002 starting panels on edge \(-2\.\d+-63\.\d+j\) -> "
                                 r"\(20001\.\d+-63\.\d+j\) exceed the budget of 4000$"):
            count_zeros(sys, region)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert points == []
    assert peak < 2_000_000


@pytest.mark.parametrize("top", [1e6, 1e300])
def test_panel_budget_is_checked_before_the_grid(monkeypatch, top):
    # the right edge's 500,065 starting panels at Im 1e6 used to be laid out,
    # 16 MB, before the budget failed them; at 1e300 numpy raised "Maximum
    # allowed size exceeded" building the grid
    sys = scalar_system(a_minus1=0.5, a0=-1.0, a1=0.2)
    points = count_points(monkeypatch, "_det_logderiv_many")
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureNotConverged,
                           match=r"^\d+ starting panels on edge .* exceed the budget of 4000$"):
            count_zeros(sys, SpectrumRegion(-2, 1, -top, top))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert points == []
    assert peak < 1_000_000


def test_overflowed_winding_is_not_near_an_integer(monkeypatch, ex5):
    # a winding that overflows is a quadrature failure, not a zero on the
    # contour: ContourThroughZero "winding ... is not finite" before
    monkeypatch.setattr(spectrum, "_moments", lambda sides: np.array([complex(math.inf, 0.0)]))
    with pytest.raises(QuadratureNotConverged, match=r"^winding inf\+0j over .* is not near an integer$"):
        count_zeros(ex5, _EX5_REGION)


def test_default_region_of_a_far_right_root():
    # the root 3000 stretches the default window's bottom edge to 6,003,
    # which starts from 3,002 panels, under the budget (7,505 at 1.25 panels
    # per unit, which raised QuadratureNotConverged before evaluating)
    sys = NeutralSystem(n=2, m=1, p=0, A_minus1=Z2, A0=np.diag([3000.0, -1.0]), A1=Z2,
                        B=[[1], [0]])
    roots = find_roots(sys, default_region(sys))
    assert [r.multiplicity for r in roots] == [1, 1]
    assert all(abs(r.lam - z) <= 1e-12 * abs(z) for r, z in zip(roots, (-1.0, 3000.0)))


def test_gauss_kronrod_table():
    # the G10/K21 pair: K21 integrates x^k on [-1, 1] exactly for k <= 31,
    # and its 10 Gauss nodes for k <= 19, where they are numpy's
    # Gauss-Legendre rule; each node group is ascending and symmetric
    x, wk, wg = spectrum._GK_NODES, spectrum._GK_WEIGHTS, spectrum._G_WEIGHTS
    assert x.shape == wk.shape == (21,) and wg.shape == (10,)
    assert np.all(np.diff(np.sort(x)) > 0)
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(wk @ x**k - exact) <= 1e-14
        if k <= 19:
            assert abs(wg @ x[:10] ** k - exact) <= 1e-14
    gx, gw = np.polynomial.legendre.leggauss(10)
    assert np.max(np.abs(x[:10] - gx)) <= 1e-15 and np.max(np.abs(wg - gw)) <= 1e-15
    for nodes, weights in ((x[:10], wg), (x[:10], wk[:10]), (x[10:], wk[10:])):
        assert np.all(np.diff(nodes) > 0)
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    assert abs(wk.sum() - 2.0) <= 1e-15 and abs(wg.sum() - 2.0) <= 1e-15


def test_edge_points_per_settled_and_halved_panel(monkeypatch):
    # on a zero-free edge every starting panel settles in one round at its 21
    # Gauss-Kronrod nodes (two rounds of 10 and 11 when the G10 nodes came
    # first, 30 points when the rule was GL10 against GL10 on the halves);
    # the edge of length 8 starts from 4 panels (10 at 1.25 panels per
    # unit), so its 84 points are one call; a panel that does not settle is
    # halved, and each half also costs all 21 nodes in one round
    points = count_points(monkeypatch, "_det_logderiv_many")
    sys = scalar_system(a0=5.0)
    (side,) = _adaptive_edges(sys, [(-1 - 4j, -1 + 4j)])
    assert points == [84] and len(side.t) == 5
    monkeypatch.setattr(spectrum, "_CHUNK", 10**6)  # one call per round
    del points[:]
    near = scalar_system(a0=-0.09)
    (side,) = _adaptive_edges(near, [(-0.1 - 5j, -0.1 + 5j, [(0.0, 1.0)])])
    assert points[:2] == [21, 42] and len(points) > 2
    assert all(p % 42 == 0 for p in points[1:])
    assert len(side.t) - 1 == 1 + sum(points[1:]) // 42


@pytest.mark.parametrize("zeros, region", [
    ((0.4,), SpectrumRegion(-2, 2, -3, 3)),
    ((0.4,), SpectrumRegion(-2, 2, -1, 3)),
    ((-0.7, 1.3), SpectrumRegion(-2, 2, -3, 3)),
    ((-0.7, 1.3), SpectrumRegion(-2, 2.5, -0.5, 2)),
])
def test_moments_of_planted_zeros(zeros, region):
    # det D = prod (lambda - a) through a diagonal A0: every moment S_p,
    # p < _P, of the outer contour (mirrored on a symmetric window) and of
    # the children of a horizontal and a vertical split is the exact sum of
    # ((a - c) / rho)^p over the zeros inside, S_0 their count
    n = len(zeros)
    sys = NeutralSystem(n=n, m=1, p=0, A_minus1=np.zeros((n, n)), A0=np.diag(zeros),
                        A1=np.zeros((n, n)), B=np.ones((n, 1)))
    count, rect, sides = _outer_contour(sys, region)
    assert count == n
    nodes = [(rect, count, sides)]
    for vertical in (True, False):
        nodes += _split(sys, rect, sides, vertical=vertical)
    for r, k, s in nodes:
        c = complex(0.5 * (r.re_min + r.re_max), 0.5 * (r.im_min + r.im_max))
        rho = 0.5 * math.hypot(r.width, r.height)
        inside = [a for a in zeros if r.contains(complex(a))]
        S = _moments(s, c, rho, spectrum._P)
        assert k == len(inside)
        for p in range(spectrum._P):
            assert abs(S[p] - sum(((a - c) / rho) ** p for a in inside)) <= 1e-12


def _mp_shifted_moments(sides, c, rho, P):
    # S_p at 40 digits from the same stored panel moments, by the binomial
    # expansion of u^p = (alpha + beta xi)^p on each panel, and the sum of
    # the terms' moduli per p
    with mpmath.workdps(40):
        c, rho = mpmath.mpc(c), mpmath.mpf(rho)
        S, size = [mpmath.mpc(0)] * P, [mpmath.mpf(0)] * P
        for side, sign in zip(sides, (1, 1, -1, -1)):
            z0, z1 = mpmath.mpc(side.z0), mpmath.mpc(side.z1)
            for j in range(len(side.t) - 1):
                t0, t1 = mpmath.mpf(side.t[j]), mpmath.mpf(side.t[j + 1])
                alpha = (z0 + (t0 + t1) / 2 * (z1 - z0) - c) / rho
                beta = (t1 - t0) / 2 * (z1 - z0) / rho
                for p in range(P):
                    for q in range(p + 1):
                        term = (sign * math.comb(p, q) * alpha ** (p - q) * beta**q
                                * mpmath.mpc(side.val[j, q]) / (2j * mpmath.pi))
                        S[p] += term
                        size[p] += abs(term)
        return S, size


@pytest.mark.parametrize("region", [SpectrumRegion(-4, 3, -10, 10), SpectrumRegion(-4, 3, -3, 9)])
def test_moments_match_binomial_shift(region):
    # all eight moments of the outer contour (mirrored on the symmetric
    # window, direct on the other) and of both children of a horizontal and
    # of a vertical split, each in its own node's variable, against the
    # 40-digit binomial expansion of the stored panel moments
    sys = kernel_system()
    count, rect, sides = _outer_contour(sys, region)
    nodes = [(rect, count, sides)]
    for vertical in (True, False):
        nodes += _split(sys, rect, sides, vertical=vertical)
    assert len(nodes) == 5 and count > 0
    for r, _, s in nodes:
        c = complex(0.5 * (r.re_min + r.re_max), 0.5 * (r.im_min + r.im_max))
        rho = 0.5 * math.hypot(r.width, r.height)
        S = _moments(s, c, rho, 8)
        ref, size = _mp_shifted_moments(s, c, rho, 8)
        for p in range(8):
            assert abs(mpmath.mpc(S[p]) - ref[p]) <= 1e-14 * size[p]


def test_newton_stops_where_logderiv_vanishes():
    # det D = lambda^2 - 1 has the log-derivative 2 lambda / (lambda^2 - 1),
    # exactly 0 at the start 0: that estimate stops there (the update used
    # to raise ZeroDivisionError), and the start beside it runs on to 1
    sys = NeutralSystem(n=2, m=1, p=0, A_minus1=Z2, A0=np.diag([1.0, -1.0]), A1=Z2,
                        B=[[1], [0]])
    assert det_logderiv(sys, 0j) == (-1, 0)
    (at_zero, iterations), (lam, _) = spectrum._newton(sys, [0j, 0.5 + 0.1j], [1, 1])
    assert (at_zero, iterations) == (0j, 1)
    assert abs(lam - 1.0) <= 1e-15


def _conjugate_closed(roots):
    # the (Re, Im, multiplicity) set is its own mirror image, bit for bit
    keys = sorted((r.lam.real, r.lam.imag, r.multiplicity) for r in roots)
    return keys == sorted((re, -im, m) for re, im, m in keys)


def planted_system():
    # det D = (lambda - 0.5 lambda e^-lambda - 0.3) (lambda + 0.5)^2
    # ((lambda + 0.2)^2 + 1e-6), in a rotated basis: a chain beside a real
    # Jordan double root and a pair 1e-3 off the real axis
    A_minus1 = np.zeros((5, 5))
    A_minus1[0, 0] = 0.5
    A0 = np.zeros((5, 5))
    A0[0, 0] = 0.3
    A0[1:3, 1:3] = [[-0.5, 1.0], [0.0, -0.5]]
    A0[3:, 3:] = [[-0.2, 1e-3], [-1e-3, -0.2]]
    Q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((5, 5)))
    return NeutralSystem(n=5, m=1, p=0, A_minus1=Q @ A_minus1 @ Q.T, A0=Q @ A0 @ Q.T,
                         A1=np.zeros((5, 5)), B=np.ones((5, 1)))


def test_find_roots_planted_real_double_root_and_near_real_pair():
    sys = planted_system()
    region = SpectrumRegion(-2, 1, -10, 10)
    roots = find_roots(sys, region)
    assert _conjugate_closed(roots)
    assert sum(r.multiplicity for r in roots) == count_zeros(sys, region)
    (double,) = [r for r in roots if abs(r.lam + 0.5) < 1e-6]
    assert double.multiplicity == 2 and double.lam.imag == 0.0
    pair = sorted((r for r in roots if abs(r.lam + 0.2) < 1e-2), key=lambda r: r.lam.imag)
    assert [r.multiplicity for r in pair] == [1, 1]
    assert pair[0].lam == pair[1].lam.conjugate()
    assert abs(pair[1].lam - (-0.2 + 1e-3j)) < 1e-12


def test_find_roots_integrates_no_isolating_contour(ex5, monkeypatch):
    # every search rectangle reads its roots off the moments of the outer
    # contour and its cut lines; no root takes a contour of its own
    def fail(sys, region):
        raise AssertionError(f"count_zeros called on {region}")

    cases = [
        (ex5, SpectrumRegion(-1, 1, -40, 40)),
        (kernel_system4(), SpectrumRegion(-4, 3, -10, 10)),
        (planted_system(), SpectrumRegion(-2, 1, -10, 10)),
    ]
    totals = [count_zeros(sys, region) for sys, region in cases]
    monkeypatch.setattr(spectrum, "count_zeros", fail)
    for (sys, region), total in zip(cases, totals):
        roots = find_roots(sys, region)
        assert _conjugate_closed(roots)
        assert sum(r.multiplicity for r in roots) == total > 0


def _rotated_jordan_at(mu, order, seed):
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((order, order)))
    return Q @ (mu * np.eye(order) + np.eye(order, k=1)) @ Q.T


def _jordan_case(A0):
    # a Jordan block's one zero is the mean of its exact eigenvalues, though
    # the float coefficients of a rotated block spread its computed
    # eigenvalues over a circle of radius up to about 1e-3 (4.5e-4 for
    # rotated_jordan5, at 60 digits)
    return np.zeros_like(A0), A0, [np.trace(A0) / len(A0)]


def _semisimple_case():
    # det D = f^2 for A_minus1 = diag(0.5, 0.5) and A0 = diag(0.3, 0.3)
    f = lambda lam: lam * (1 - 0.5 * mpmath.exp(-lam)) - 0.3
    with mpmath.workdps(30):
        zeros = [float(mpmath.findroot(f, x)) for x in (-1.0, 0.4)]
    return 0.5 * np.eye(2), 0.3 * np.eye(2), zeros


# (A_minus1, A0, the zeros in [-2, 2] x [-3, 3], each of multiplicity n)
_HIGH_MULTIPLICITY = {
    "jordan9_at_0": _jordan_case(np.eye(9, k=1)),
    "rotated_jordan5": _jordan_case(_rotated_jordan_at(-0.3, 5, seed=5)),
    **{f"rotated_jordan{order}_at_{mu}_seed{seed}":
       _jordan_case(_rotated_jordan_at(mu, order, seed))
       for order in (4, 5, 6) for mu in (-0.3, 0.7) for seed in range(20)
       if (order, mu, seed) != (5, -0.3, 5)},
    "semisimple2": _semisimple_case(),
}


@pytest.mark.parametrize("case", list(_HIGH_MULTIPLICITY))
def test_find_roots_single_zero_of_high_multiplicity(case):
    # more zeros at one point than a node resolves as distinct zeros: each
    # point must be found as one root of full multiplicity
    A_minus1, A0, zeros = _HIGH_MULTIPLICITY[case]
    n = len(A0)
    sys = NeutralSystem(n=n, m=1, p=0, A_minus1=A_minus1, A0=A0, A1=np.zeros((n, n)),
                        B=np.ones((n, 1)))
    roots = find_roots(sys, SpectrumRegion(-2, 2, -3, 3))
    assert [(r.multiplicity, r.lam.imag) for r in roots] == [(n, 0.0)] * len(zeros)
    for root, zero in zip(roots, zeros):
        assert abs(root.lam - zero) <= 1e-12


def _random_real_system(rng, n, kernels):
    s = 1.0 / math.sqrt(n)
    return NeutralSystem(
        n=n, m=1, p=0,
        A_minus1=0.5 * s * rng.standard_normal((n, n)),
        A0=s * rng.standard_normal((n, n)),
        A1=0.5 * s * rng.standard_normal((n, n)),
        B=rng.standard_normal((n, 1)),
        kernels=tuple(
            KernelSegment(a, b, 0.3 * s * rng.standard_normal((n, n)),
                          0.5 * s * rng.standard_normal((n, n)))
            for a, b in ((-1.0, -0.5), (-0.5, 0.0))
        ) if kernels else (),
    )


def _mp_det(sys, lam):
    # det D(lambda) at 30 digits, from the system's float coefficients
    M = lambda A: mpmath.matrix(np.asarray(A).tolist())
    e = mpmath.exp(-lam)
    D = lam * mpmath.eye(sys.n) - lam * e * M(sys.A_minus1) - M(sys.A0) - e * M(sys.A1)
    for seg in sys.kernels:
        c2 = mpmath.exp(lam * seg.b) - mpmath.exp(lam * seg.a)
        D -= c2 * M(seg.A2) + (c2 / lam) * M(seg.A3)
    return mpmath.det(D)


@pytest.mark.parametrize("seed", range(6))
def test_find_roots_half_search_against_full_counts_and_mpmath(seed):
    # the half search's total equals the counts of two asymmetric rectangles
    # that split the window, integrated on all four sides with no mirror, and
    # every root is a zero of det D at 30 digits
    rng = np.random.default_rng([2024, seed])
    sys = _random_real_system(rng, n=1 + seed % 4, kernels=seed % 2 == 1)
    region = SpectrumRegion(-3, 2, -7, 7)
    roots = find_roots(sys, region)
    assert roots and _conjugate_closed(roots)
    cut = 0.8137
    halves = (SpectrumRegion(-3, 2, -7, cut), SpectrumRegion(-3, 2, cut, 7))
    assert sum(r.multiplicity for r in roots) == sum(count_zeros(sys, h) for h in halves)
    with mpmath.workdps(30):
        for r in roots:
            assert r.multiplicity == 1
            ref = complex(mpmath.findroot(lambda z: _mp_det(sys, z), mpmath.mpc(r.lam)))
            assert abs(r.lam - ref) <= 1e-10 * abs(ref)


def test_mirrored_outer_contour_matches_full_integration():
    # all eight contour moments of the mirrored sides, in the variable of a
    # rectangle off the real axis, against all four sides of the same
    # contour integrated directly
    sys = kernel_system4()
    region = SpectrumRegion(-4, 3, -10, 10)
    count, rect, sides = _outer_contour(sys, region)
    assert rect == _inflate(region) and rect.im_min == -rect.im_max
    full = _adaptive_edges(sys, _side_ends(rect))
    c, rho = complex(-0.5, 2.0), 0.5 * math.hypot(rect.width, rect.height)
    mirrored, direct = _moments(sides, c, rho, 8), _moments(full, c, rho, 8)
    assert count == round(direct[0].real) > 0
    assert np.all(np.abs(mirrored - direct) <= 1e-8)


@pytest.mark.parametrize("make, region", [
    (kernel_system, SpectrumRegion(-4, 3, -25, 25)),
    (kernel_system4, SpectrumRegion(-4, 3, -10, 10)),
    (kernel_system4, SpectrumRegion(-4, 3, -3, 9)),
])
def test_outer_contour_moments_against_mpmath_zeros(make, region):
    # the accuracy of all eight moments of the outer contour (mirrored on the
    # symmetric windows, direct on the other), in its own variable u =
    # (lambda - c) / rho: S_p against sum m u^p over its zeros, each refined
    # from its reported root by findroot on det D at 40 digits, so that the
    # reference shares no quadrature with the contour (the mirrored test
    # compares two integrations by the same rule)
    sys = make()
    count, rect, sides = _outer_contour(sys, region)
    c = complex(0.5 * (rect.re_min + rect.re_max), 0.5 * (rect.im_min + rect.im_max))
    rho = 0.5 * math.hypot(rect.width, rect.height)
    S = _moments(sides, c, rho, 8)
    inside = [r for r in find_roots(sys, region) if rect.contains(r.lam)]
    assert sum(r.multiplicity for r in inside) == count > 0
    with mpmath.workdps(40):
        zeros = [mpmath.findroot(lambda z: _mp_det(sys, z), mpmath.mpc(r.lam)) for r in inside]
        for r, z in zip(inside, zeros):
            assert abs(complex(z) - r.lam) <= 1e-8 * max(1.0, abs(r.lam))
        for p in range(8):
            ref = sum(r.multiplicity * ((z - c) / rho) ** p for r, z in zip(inside, zeros))
            assert abs(mpmath.mpc(S[p]) - ref) <= 1e-10


def test_predict_chains_example5(ex5):
    chains = predict_chains(ex5)
    assert len(chains) == 1
    c = chains[0]
    assert c.abscissa == 0.0 and c.phase == 0.0 and c.multiplicity == 1
    assert c.predict(3) == 6j * math.pi


def test_predict_chains_nilpotent(ex3):
    assert predict_chains(ex3) == []


def test_predict_chains_abscissa():
    sys = NeutralSystem(
        n=2, m=1, p=0, A_minus1=np.diag([math.exp(-1.0), 0.0]), A0=Z2, A1=Z2, B=[[1], [0]]
    )
    chains = predict_chains(sys)
    assert len(chains) == 1
    assert abs(chains[0].abscissa + 1.0) < 1e-14


def test_predict_chains_collapses_repeats():
    sys = NeutralSystem(n=2, m=1, p=0, A_minus1=np.diag([0.5, 0.5]), A0=Z2, A1=Z2, B=[[1], [0]])
    chains = predict_chains(sys)
    assert len(chains) == 1
    assert chains[0].multiplicity == 2


@pytest.mark.parametrize("order", [2, 3])
def test_predict_chains_rotated_jordan_block(order):
    # A_minus1 = Q J Q^T with J one Jordan block at 0.5: eigvals scatters its
    # copies by about 0.5 eps^(1/order), yet it is one eigenvalue of
    # algebraic multiplicity `order`, so one chain
    rng = np.random.default_rng(40 + order)
    J = 0.5 * np.eye(order) + np.eye(order, k=1)
    for _ in range(5):
        Q, _ = np.linalg.qr(rng.standard_normal((order, order)))
        zero = np.zeros((order, order))
        sys = NeutralSystem(n=order, m=1, p=0, A_minus1=Q @ J @ Q.T, A0=zero, A1=zero,
                            B=np.zeros((order, 1)))
        chains = predict_chains(sys)
        assert len(chains) == 1
        assert chains[0].multiplicity == order
        assert abs(chains[0].mu - 0.5) < 1e-9
        assert abs(chains[0].abscissa - math.log(0.5)) < 1e-9


def test_chain_deviation_decays_like_one_over_k():
    # genuine O(1/k) deviation needs a retarded perturbation of the pure chain
    sys = scalar_system(a_minus1=0.5, a0=0.3)
    top = 2 * math.pi * 16 + 1.0
    roots = find_roots(sys, SpectrumRegion(-1.5, 0.5, -top, top))
    devs = {}
    for r in roots:
        k = round(r.lam.imag / (2 * math.pi))
        if k > 0:
            devs[k] = abs(r.lam.real - math.log(0.5))
    ks = sorted(devs)
    assert ks[-1] >= 15
    C = max(devs[k] * k for k in ks if 3 <= k <= 6)
    for k in ks:
        if k >= 3:
            assert devs[k] <= 1.3 * C / k + 1e-9


def test_spectral_abscissa_examples(ex3, ex5):
    region = SpectrumRegion(-2, 2, -14, 14)
    val5, _ = spectral_abscissa(ex5, region)
    assert abs(val5) < 1e-8
    val3, _ = spectral_abscissa(ex3, region)
    assert abs(val3) < 1e-8
    val1, _ = spectral_abscissa(scalar_system(a0=-1.0), region)
    assert abs(val1 + 1.0) < 1e-8


def test_spectral_abscissa_rejects_narrow_region(ex5):
    with pytest.raises(ValueError):
        spectral_abscissa(ex5, SpectrumRegion(-1, 1, -3, 3))


def test_spectral_right_bound_holds(ex3, ex5):
    for sys in (ex3, ex5, scalar_system(a0=2.0), kernel_system()):
        bound = spectral_right_bound(sys)
        region = SpectrumRegion(-3, bound + 1.0, -14, 14)
        val, qual = spectral_abscissa(sys, region)
        assert val <= bound + 1e-9
        assert qual == "exact"


def test_default_region_covers_chains(ex5):
    region = default_region(ex5)
    assert region.re_min <= -2.0 and region.re_max >= 2.0
    assert region.im_max >= 20 * math.pi


def test_roots_to_csv(ex3):
    roots = find_roots(ex3, SpectrumRegion(-2, 2, -10, 10))
    text = roots_to_csv(roots)
    lines = text.strip().split("\n")
    assert lines[0] == "re,im,multiplicity,residual"
    assert len(lines) == 2
    assert ",2," in lines[1]
