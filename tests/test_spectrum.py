import math

import mpmath
import numpy as np
import pytest

from neutralctl import (
    ContourThroughZero,
    KernelSegment,
    NeutralSystem,
    SingularAtEvaluationPoint,
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
)
from neutralctl import spectrum
from neutralctl.spectrum import (
    _adaptive_edge,
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
    with pytest.raises(SingularAtEvaluationPoint):
        det_logderiv(ex3, 0.0)


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


def test_find_roots_repeatable(ex5):
    region = SpectrumRegion(-1, 1, -15, 15)
    r1 = find_roots(ex5, region)
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
    # Newton's det_logderiv calls (94 when Newton started at the leaf centre)
    points = count_points(monkeypatch, "_det_logderiv_many")
    calls = count_points(monkeypatch, "det_logderiv")
    roots = find_roots(ex5, SpectrumRegion(-1, 1, -40, 40))
    assert sum(r.multiplicity for r in roots) == 15
    assert sum(points) <= 6_000
    assert len(calls) <= 70


def test_failing_outer_contour_is_integrated_once(monkeypatch):
    # e^{-lambda} overflows on the whole far-left window, so the first edge
    # fails; re-inflating the contour 8 more times took 11,340 points
    points = count_points(monkeypatch, "_det_logderiv_many")
    with pytest.raises(ContourThroughZero, match=r"on edge \(-800\.\d+-5\.\d+j\) -> \(-699\."):
        find_roots(scalar_system(a_minus1=0.5), SpectrumRegion(-800, -700, -5, 5))
    assert sum(points) <= 2_000


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


@pytest.mark.parametrize("mu, order, A0", [
    (0.0, 9, np.eye(9, k=1)),
    (-0.3, 5, _rotated_jordan_at(-0.3, 5, seed=5)),
], ids=["jordan9_at_0", "rotated_jordan5"])
def test_find_roots_single_zero_of_high_multiplicity(mu, order, A0):
    # det D = det(lambda I - A0) with A0 a Jordan block: one zero of
    # multiplicity 9 or 5, more than a node resolves as distinct zeros.  The
    # float coefficients of the rotated block spread its eigenvalues over a
    # circle of radius 4.5e-4 (60-digit mpmath): one root at their mean.
    Z = np.zeros((order, order))
    sys = NeutralSystem(n=order, m=1, p=0, A_minus1=Z, A0=A0, A1=Z, B=np.ones((order, 1)))
    (root,) = find_roots(sys, SpectrumRegion(-2, 2, -3, 3))
    assert root.multiplicity == order and root.lam.imag == 0.0
    with mpmath.workdps(60):
        eigs = [complex(e) for e in mpmath.eig(mpmath.matrix(A0.tolist()), left=False, right=False)]
    assert abs(root.lam - np.mean(eigs)) <= 1e-12
    assert abs(root.lam - mu) <= 1e-12 and max(abs(e - mu) for e in eigs) <= 1e-3


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
    full = [_adaptive_edge(sys, z0, z1)[0] for z0, z1 in _side_ends(rect)]
    c, rho = complex(-0.5, 2.0), 0.5 * math.hypot(rect.width, rect.height)
    mirrored, direct = _moments(sides, c, rho, 8), _moments(full, c, rho, 8)
    assert count == round(direct[0].real) > 0
    assert np.all(np.abs(mirrored - direct) <= 1e-8)


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
    for sys in (ex3, ex5, scalar_system(a0=2.0)):
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
