import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from neutralctl import (
    DegenerateWindow,
    FeedbackLaw,
    History,
    HistoryGridMismatch,
    KernelSegment,
    NeutralSystem,
    StepNotUnitDivisor,
    Trajectory,
    apply_feedback,
    estimate_decay,
    simulate,
    simulate_closed_loop,
    trajectory_to_csv,
    zero_law,
)
from neutralctl.simulate import (
    _W_CENTER, _W_LEFT, _W_RIGHT, _history_integral, _interp_many, _mids,
)

Z2 = np.zeros((2, 2))


def ode_system(A0):
    A0 = np.asarray(A0, dtype=float)
    n = A0.shape[0]
    return NeutralSystem(
        n=n, m=1, p=0, A_minus1=np.zeros((n, n)), A0=A0, A1=np.zeros((n, n)),
        B=np.zeros((n, 1)) + np.eye(n, 1),
    )


def test_zero_history_zero_control_stays_zero(ex5):
    traj = simulate(ex5, History.constant([0.0, 0.0], 50), horizon=3.0, step=0.02)
    assert np.all(traj.z == 0.0)
    assert np.all(traj.dz == 0.0)


def test_example3_hand_solution(ex3):
    q = 1000
    hist = History.from_function(
        lambda th: np.array([th + 1.0, 1.0]), q, dfn=lambda th: np.array([1.0, 0.0])
    )
    traj = simulate(ex3, hist, horizon=3.0, step=1.0 / q)
    exact = np.stack([1.0 + traj.t, np.ones_like(traj.t)], axis=1)
    assert np.max(np.abs(traj.z - exact)) <= 1e-8
    assert np.allclose(traj.z[2 * q], [3.0, 1.0], atol=1e-10)


def test_ode_reduction_matches_matrix_exponential():
    A0 = np.array([[0.0, 1.0], [-2.0, -3.0]])
    sys = ode_system(A0)
    q = 1000
    z0 = np.array([1.0, -0.5])
    traj = simulate(sys, History.constant(z0, q), horizon=3.0, step=1.0 / q)
    for j in (333, 1500, 3000):
        exact = expm(A0 * traj.t[j]) @ z0
        assert np.linalg.norm(traj.z[j] - exact) <= 1e-8 * np.linalg.norm(exact)


def test_fourth_order_on_ode_fixture():
    A0 = np.array([[0.0, 1.0], [-2.0, -3.0]])
    sys = ode_system(A0)
    z0 = np.array([1.0, -0.5])

    def max_err(q):
        traj = simulate(sys, History.constant(z0, q), horizon=2.0, step=1.0 / q)
        errs = [
            np.linalg.norm(traj.z[j] - expm(A0 * traj.t[j]) @ z0)
            for j in range(0, 2 * q + 1, q // 5)
        ]
        return max(errs)

    e10, e20 = max_err(10), max_err(20)
    assert e10 / e20 >= 8.0


def test_neutral_fixture_self_convergence(ex5):
    # fourth order on genuinely neutral dynamics, although this history's dz
    # jumps at t = 0: the error falls by about 14 when q doubles
    def run(q):
        hist = History.from_function(
            lambda th: np.array([np.sin(th), np.cos(th)]), q,
            dfn=lambda th: np.array([np.cos(th), -np.sin(th)]),
        )
        return simulate(ex5, hist, horizon=3.0, step=1.0 / q)

    ref = run(320)
    e1 = np.max(np.abs(run(20).z[::2] - ref.z[::32]))
    e2 = np.max(np.abs(run(40).z[::4] - ref.z[::32]))
    assert e1 / e2 >= 8.0


def test_closed_loop_zero_law_bit_identical(ex5):
    hist = History.from_function(
        lambda th: np.array([np.cos(th), th]), 50,
        dfn=lambda th: np.array([-np.sin(th), 1.0]),
    )
    open_loop = simulate(ex5, hist, horizon=4.0, step=0.02)
    closed = simulate_closed_loop(ex5, zero_law(ex5), hist, horizon=4.0, step=0.02)
    assert np.array_equal(open_loop.z, closed.z)
    assert np.array_equal(open_loop.dz, closed.dz)


def test_closed_loop_example5_hand_solution(ex5):
    law = FeedbackLaw([[-1.0, 0.0]], np.zeros((1, 2)), np.zeros((1, 2)))
    q = 100
    traj = simulate_closed_loop(ex5, law, History.constant([1.0, 0.0], q), horizon=3.0, step=1.0 / q)
    # dz1 cancels exactly, so z = (1, t)
    exact = np.stack([np.ones_like(traj.t), traj.t], axis=1)
    assert np.max(np.abs(traj.z - exact)) <= 1e-9
    assert np.allclose(traj.z[2 * q], [1.0, 2.0], atol=1e-10)


def test_closed_loop_scalar_exponential():
    sys = NeutralSystem(n=1, m=1, p=0, A_minus1=[[0]], A0=[[1]], A1=[[0]], B=[[1]])
    law = FeedbackLaw([[0.0]], [[-3.0]], [[0.0]])
    q = 1000
    traj = simulate_closed_loop(sys, law, History.constant([1.0], q), horizon=3.0, step=1.0 / q)
    exact = np.exp(-2.0 * traj.t)
    assert np.max(np.abs(traj.z[:, 0] - exact) / exact) <= 1e-8


def test_closed_loop_matches_applied_feedback(ex5):
    law = FeedbackLaw([[-0.5, 0.2]], [[0.3, -0.1]], [[0.0, 0.4]])
    hist = History.from_function(
        lambda th: np.array([np.exp(th), th * th]), 50,
        dfn=lambda th: np.array([np.exp(th), 2 * th]),
    )
    a = simulate_closed_loop(ex5, law, hist, horizon=4.0, step=0.02)
    b = simulate(apply_feedback(ex5, law), hist, horizon=4.0, step=0.02)
    scale = 1.0 + np.max(np.abs(b.z))
    assert np.max(np.abs(a.z - b.z)) <= 1e-9 * scale


def test_continuity_across_integer_times(ex5):
    hist = History.from_function(
        lambda th: np.array([np.sin(2 * th), np.cos(th)]), 100,
        dfn=lambda th: np.array([2 * np.cos(2 * th), -np.sin(th)]),
    )
    traj = simulate(ex5, hist, horizon=4.0, step=0.01)
    # z rows are shared between intervals, so the sewing jump is exactly zero;
    # dz jumps at integers are allowed and expected for neutral systems
    assert traj.z.shape == (401, 2)
    jumps = np.abs(np.diff(traj.z, axis=0)).max(axis=1)
    assert np.max(jumps) <= 10 * 0.01 * (1.0 + np.abs(traj.z).max())


def test_kernel_constant_derivative_matches_discrete_reduction():
    # integral of M dz(t+s) over [-1, 0] telescopes to M z(t) - M z(t-1); the
    # kernel path reads exactly those two values, so it must agree with the
    # discrete-tap system to rounding
    M = np.array([[0.2, -0.1], [0.4, 0.3]])
    base = dict(n=2, m=1, p=0, A_minus1=[[0.3, 0.0], [0.0, 0.1]], B=[[1], [0]])
    with_kernel = NeutralSystem(
        A0=Z2, A1=Z2, kernels=(KernelSegment(-1.0, 0.0, M, np.zeros((2, 2))),), **base
    )
    discrete = NeutralSystem(A0=M, A1=-M, **base)

    q = 100
    hist = History.from_function(
        lambda th: np.array([np.cos(th), np.sin(2 * th)]), q,
        dfn=lambda th: np.array([-np.sin(th), 2 * np.cos(2 * th)]),
    )
    a = simulate(with_kernel, hist, horizon=3.0, step=1.0 / q)
    b = simulate(discrete, hist, horizon=3.0, step=1.0 / q)
    assert np.max(np.abs(a.z - b.z)) / (1.0 + np.abs(b.z).max()) <= 1e-12


_K2 = np.array([[0.4, -0.2], [0.1, 0.3]])
_K3 = np.array([[-0.5, 0.2], [0.3, 0.4]])


@pytest.mark.parametrize(
    "kernels, qs",
    [
        ((KernelSegment(-0.5, 0.0, _K2, Z2),), (40, 80)),
        ((KernelSegment(-1.0, -0.25, Z2, _K3),), (40, 80)),
        (
            (KernelSegment(-0.75, -0.25, _K2, _K3), KernelSegment(-0.25, 0.0, -_K2, 0.5 * _K3)),
            (40, 80),
        ),
        # off the grid with b within one step of 0, so the reads near t are
        # interpolated and extrapolated; on finer grids those reads dominate
        ((KernelSegment(-0.733, -0.0037, _K2, _K3),), (80, 160)),
    ],
    ids=["A2", "A3", "A2+A3", "off-grid"],
)
def test_kernel_eigen_solution_convergence(kernels, qs):
    # a real root lam of det D with D(lam) v = 0 gives the exact solution
    # z(t) = e^{lam t} v, and its restriction to [-1, 0] is a compatible history
    from neutralctl import SpectrumRegion, delta, find_roots

    sys = NeutralSystem(
        n=2, m=1, p=0, A_minus1=[[0.3, 0.1], [-0.2, 0.2]], A0=[[-2.0, 0.5], [0.0, 0.5]],
        A1=[[0.2, 0.0], [0.1, -0.3]], B=[[1], [0]], kernels=kernels,
    )
    roots = find_roots(sys, SpectrumRegion(-3.0, 2.0, -1.0, 1.0))
    lam = max(r.lam.real for r in roots if abs(r.lam.imag) < 1e-9 and r.multiplicity == 1)
    v = np.linalg.svd(delta(sys, lam).real)[2][-1]

    def err(q):
        hist = History.from_function(
            lambda th: np.exp(lam * th) * v, q, dfn=lambda th: lam * np.exp(lam * th) * v
        )
        traj = simulate(sys, hist, horizon=3.0, step=1.0 / q)
        exact = np.exp(lam * traj.t)[:, None] * v
        return np.max(np.abs(traj.z - exact)) / np.max(np.abs(exact))

    assert np.log2(err(qs[0]) / err(qs[1])) >= 3.8


def test_estimate_decay_synthetic_exponential():
    t = np.arange(0, 601) / 100.0
    v = np.array([0.6, 0.8])
    z = np.exp(-2.0 * t)[:, None] * v
    dz = -2.0 * z
    traj = Trajectory(h=0.01, t=t, z=z, dz=dz, u=np.zeros((t.size, 1)), v0=v)
    assert abs(estimate_decay(traj, (0.5, 5.5)) - 2.0) <= 1e-6


def test_estimate_decay_scalar_loop():
    sys = NeutralSystem(n=1, m=1, p=0, A_minus1=[[0]], A0=[[1]], A1=[[0]], B=[[1]])
    law = FeedbackLaw([[0.0]], [[-3.0]], [[0.0]])
    traj = simulate_closed_loop(sys, law, History.constant([1.0], 100), horizon=5.0, step=0.01)
    assert abs(estimate_decay(traj, (1.0, 5.0)) - 2.0) <= 0.01


def test_decay_consistency_with_spectral_bound():
    # when the closed-loop spectrum certifies rate omega, the realized decay
    # measured from the trajectory cannot fall 0.1 below it
    from neutralctl import SpectrumRegion, verify_decay

    sys = NeutralSystem(n=1, m=1, p=0, A_minus1=[[0]], A0=[[1]], A1=[[0]], B=[[1]])
    law = FeedbackLaw([[0.0]], [[-3.0]], [[0.0]])
    ok, _ = verify_decay(sys, law, 1.0, SpectrumRegion(-4, 2, -14, 14))
    assert ok
    traj = simulate_closed_loop(sys, law, History.constant([1.0], 100), horizon=6.0, step=0.01)
    assert estimate_decay(traj, (2.0, 6.0)) >= 1.0 - 0.1


def test_estimate_decay_stage1_polynomial_growth(ex5):
    law = FeedbackLaw([[-1.0, 0.0]], np.zeros((1, 2)), np.zeros((1, 2)))
    traj = simulate_closed_loop(ex5, law, History.constant([1.0, 0.0], 100), horizon=40.0, step=0.01)
    assert abs(estimate_decay(traj, (30.0, 40.0))) <= 0.05


def test_partial_final_interval(ex3):
    q = 20
    hist = History.from_function(
        lambda th: np.array([th + 1.0, 1.0]), q, dfn=lambda th: np.array([1.0, 0.0])
    )
    traj = simulate(ex3, hist, horizon=0.5, step=1.0 / q)
    assert traj.t.size == 11
    assert np.allclose(traj.z[-1], [1.5, 1.0], atol=1e-10)


def test_step_validation(ex5):
    hist = History.constant([1.0, 0.0], 3)
    with pytest.raises(StepNotUnitDivisor):
        simulate(ex5, hist, horizon=1.0, step=0.3)
    with pytest.raises(StepNotUnitDivisor):
        simulate(ex5, History.constant([1.0, 0.0], 5), horizon=1.0, step=0.2)
    with pytest.raises(ValueError, match=r"^horizon 1\.05 is not a multiple of the step 0\.1$"):
        simulate(ex5, History.constant([1.0, 0.0], 10), horizon=1.05, step=0.1)


def test_step_too_small_for_any_grid(ex5):
    # OverflowError("cannot convert float infinity to integer") before
    with pytest.raises(StepNotUnitDivisor,
                       match=r"^step 5e-324 is too small: 1/step exceeds the largest array index$"):
        simulate(ex5, History.constant([1.0, 0.0], 10), horizon=1.0, step=5e-324)


def test_history_grid_mismatch(ex5):
    with pytest.raises(HistoryGridMismatch):
        simulate(ex5, History.constant([1.0, 0.0], 50), horizon=1.0, step=0.01)
    with pytest.raises(HistoryGridMismatch):
        simulate(ex5, History.constant([1.0], 100), horizon=1.0, step=0.01)
    with pytest.raises(HistoryGridMismatch, match=r"must have shape \(11, n\), got \(10, 2\)"):
        History(q=10, z=np.zeros((10, 2)), dz=np.zeros((10, 2)))


def test_degenerate_window(ex5):
    traj = simulate(ex5, History.constant([0.0, 0.0], 20), horizon=3.0, step=0.05)
    with pytest.raises(DegenerateWindow):
        estimate_decay(traj, (0.0, 3.0))  # trajectory is identically zero
    with pytest.raises(DegenerateWindow):
        estimate_decay(traj, (0.0, 1.0))  # window shorter than 2
    with pytest.raises(DegenerateWindow, match="fewer than 3 samples"):
        estimate_decay(traj, (2.99, 5.0))  # one sample, at t = 3


def test_history_finite_difference_consistency():
    f = lambda th: np.array([np.sin(3 * th)])
    df = lambda th: np.array([3 * np.cos(3 * th)])
    for q in (20, 40):
        hist = History.from_function(f, q)
        theta = -1.0 + np.arange(q + 1) / q
        assert np.array_equal(History.from_samples(f(theta)[0][:, None], q).dz, hist.dz)
        exact = np.array([df(-1.0 + j / q) for j in range(q + 1)])
        # one-sided endpoint stencils carry a larger constant than the interior
        assert np.max(np.abs(hist.dz - exact)[1:-1]) <= 5.0 * (1.0 / q) ** 2
        assert np.max(np.abs(hist.dz - exact)) <= 12.0 * (1.0 / q) ** 2


def test_sewing_value_recorded(ex5):
    hist = History.from_function(
        lambda th: np.array([th + 2.0, th]), 20, dfn=lambda th: np.array([1.0, 1.0])
    )
    traj = simulate(ex5, hist, horizon=1.0, step=0.05)
    expected = hist.z[-1] - ex5.A_minus1 @ hist.z[0]
    assert np.allclose(traj.v0, expected)


def test_trajectory_csv_format(ex5):
    traj = simulate(ex5, History.constant([1.0, 0.0], 20), horizon=1.0, step=0.05)
    text = trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,z_1,z_2,dz_1,dz_2,u_1"
    assert len(lines) == traj.t.size + 1


def _random_trajectory(rows, n=3, m=1):
    # a table of 1 + 2n + m columns of random floats
    rng = np.random.default_rng(rows)
    return Trajectory(h=0.01, t=0.01 * np.arange(rows), z=rng.standard_normal((rows, n)),
                      dz=rng.standard_normal((rows, n)), u=rng.standard_normal((rows, m)),
                      v0=np.zeros(n))


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 2001])
def test_trajectory_csv_blocks_match_rows(rows):
    # joining 256-row blocks writes the bytes of joining every row
    traj = _random_trajectory(rows)
    table = np.column_stack((traj.t, traj.z, traj.dz, traj.u))
    lines = ["t,z_1,z_2,z_3,dz_1,dz_2,dz_3,u_1"]
    lines += [",".join(repr(x) for x in row) for row in table.tolist()]
    assert trajectory_to_csv(traj) == "\n".join(lines) + "\n"


def test_trajectory_csv_memory():
    # a 2,001 x 8 table of 289,567 bytes peaks at 715,246 bytes (826,942
    # while every row string lived until one final join)
    traj = _random_trajectory(2001)
    tracemalloc.start()
    try:
        trajectory_to_csv(traj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 760_000


def test_initial_derivative_jump_recorded(ex3):
    # history slope differs from the equation's right derivative at t = 0
    hist = History.from_function(
        lambda th: np.array([5.0 * th, 1.0]), 50, dfn=lambda th: np.array([5.0, 0.0])
    )
    traj = simulate(ex3, hist, horizon=1.0, step=0.02)
    # dz1(0+) = dz2(-1) + z2(0) = 0 + 1, not the history slope 5
    assert abs(traj.dz[0, 0] - 1.0) < 1e-12


def _random_loop(rng, n, m, kernels=(), q=20):
    s = 1.0 / np.sqrt(n)
    sys = NeutralSystem(
        n=n, m=m, p=0, A_minus1=0.4 * s * rng.standard_normal((n, n)),
        A0=s * rng.standard_normal((n, n)), A1=0.5 * s * rng.standard_normal((n, n)),
        B=rng.standard_normal((n, m)), kernels=kernels,
    )
    law = FeedbackLaw(*(0.3 * s * rng.standard_normal((m, n)) for _ in range(3)))
    freq = rng.uniform(0.5, 3.0, n)
    hist = History.from_function(
        lambda th: np.cos(freq * th), q, dfn=lambda th: -freq * np.sin(freq * th)
    )
    return sys, law, hist


def test_closed_loop_law_bit_identical_to_applied_feedback():
    # the gains fold into the coefficients by the same float expressions as
    # apply_feedback, so the two runs take the same steps bit for bit
    for seed in range(20):
        rng = np.random.default_rng(seed)
        kernels = ()
        if seed % 2:
            A2, A3 = (0.3 * rng.standard_normal((3, 3)) for _ in range(2))
            kernels = (KernelSegment(-0.5, 0.0, A2, A3),)
        sys, law, hist = _random_loop(rng, 3, 1, kernels)
        a = simulate_closed_loop(sys, law, hist, horizon=3.0, step=0.05)
        b = simulate(apply_feedback(sys, law), hist, horizon=3.0, step=0.05)
        assert np.array_equal(a.z, b.z) and np.array_equal(a.dz, b.dz), seed


def test_callable_control_called_once_per_node_and_half_step(ex5):
    calls = []

    def control(t):
        calls.append(t)
        return np.array([np.sin(t)])

    simulate(ex5, History.constant([1.0, 0.0], 50), control=control, horizon=4.0, step=0.02)
    # 200 steps over 4 intervals: each interval's nodes and half-steps
    assert len(calls) <= 2 * 200 + 4
    # a constant vector is the constant callable
    hist = History.constant([1.0, 0.0], 50)
    const, func = (simulate(ex5, hist, control=c, horizon=2.0, step=0.02)
                   for c in ([0.5], lambda t: np.array([0.5])))
    assert np.array_equal(const.z, func.z) and np.array_equal(const.dz, func.dz)


def test_callable_control_shape_is_checked(ex5):
    with pytest.raises(ValueError, match=r"shape \(1,\)"):
        simulate(ex5, History.constant([1.0, 0.0], 50), control=lambda t: np.zeros(2),
                 horizon=1.0, step=0.02)


def _stagewise_closed_loop(sys, law, hist, intervals):
    # classical RK4 written stage by stage: delayed reads at half-steps by
    # the cubic midpoint stencil, one-sided in the first and last panel
    q = hist.q
    h = 1.0 / q
    w = {"left": np.array([5, 15, -5, 1]), "center": np.array([-1, 9, 9, -1]),
         "right": np.array([1, -5, 15, 5])}

    def mid(arr, i):
        lo, kind = (0, "left") if i == 0 else (q - 3, "right") if i == q - 1 else (i - 1, "center")
        return w[kind] @ arr[lo : lo + 4] / 16.0

    def f(y, zr, dzr):
        u = law.F_minus1 @ dzr + law.F0 @ y + law.F1 @ zr
        return sys.A_minus1 @ dzr + sys.A0 @ y + sys.A1 @ zr + sys.B @ u

    zp, dzp = hist.z, hist.dz
    y = zp[-1]
    out = [y]
    for _ in range(intervals):
        zc, dzc = [y], [f(y, zp[0], dzp[0])]
        for i in range(q):
            zm, dzm = mid(zp, i), mid(dzp, i)
            k1 = f(y, zp[i], dzp[i])
            k2 = f(y + 0.5 * h * k1, zm, dzm)
            k3 = f(y + 0.5 * h * k2, zm, dzm)
            k4 = f(y + h * k3, zp[i + 1], dzp[i + 1])
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            zc.append(y)
            dzc.append(f(y, zp[i + 1], dzp[i + 1]))
        zp, dzp = np.array(zc), np.array(dzc)
        out.extend(zc[1:])
    return np.array(out)


def test_closed_loop_matches_stagewise_rk4():
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        sys, law, hist = _random_loop(rng, int(rng.integers(1, 5)), int(rng.integers(1, 3)))
        traj = simulate_closed_loop(sys, law, hist, horizon=5.0, step=0.05)
        ref = _stagewise_closed_loop(sys, law, hist, 5)
        assert np.max(np.abs(traj.z - ref)) <= 1e-11 * (1.0 + np.max(np.abs(ref))), seed


def test_closed_loop_matches_stagewise_rk4_fine_grid():
    # 200 steps per block: the prefix scan runs eight rounds
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        sys, law, hist = _random_loop(rng, int(rng.integers(1, 5)), int(rng.integers(1, 3)), q=200)
        traj = simulate_closed_loop(sys, law, hist, horizon=5.0, step=1.0 / 200)
        ref = _stagewise_closed_loop(sys, law, hist, 5)
        assert np.max(np.abs(traj.z - ref)) <= 1e-11 * (1.0 + np.max(np.abs(ref))), seed


def _read_mid(arr, i):
    # value at node coordinate i + 1/2 of a fully filled array
    last = arr.shape[0] - 1
    if i <= 0:
        return _W_LEFT @ arr[0:4]
    if i >= last - 1:
        return _W_RIGHT @ arr[last - 3 : last + 1]
    return _W_CENTER @ arr[i - 1 : i + 3]


def _read_at(x, z_prev, z_cur, filled):
    # z at node coordinate x of the previous interval; x past its end reads
    # rows 0..filled of the current one
    q = z_prev.shape[0] - 1
    arr, last = z_prev, q
    if x > q + 1e-9:
        arr, last, x = z_cur[: filled + 1], filled, x - q
        if filled < 3:
            arr, last, x = np.vstack((z_prev[q - 3 : q], arr)), filled + 3, x + 3.0
    k = round(2.0 * x)
    if abs(2.0 * x - k) <= 1e-9 and k <= 2 * last:
        return arr[k // 2] if k % 2 == 0 else _read_mid(arr, k // 2)
    return _interp_many(arr, last, [x])[0]


def _stepwise_kernel_loop(sys, law, hist, intervals):
    # the per-step loop that the block scan replaced, kept as its oracle:
    # every step reads its kernel forcing from the rows computed before it
    q, n, B = hist.q, sys.n, sys.B
    h = 1.0 / q
    ends = [(q * (1.0 + seg.a), q * (1.0 + seg.b)) for seg in sys.kernels]
    A2 = np.hstack([seg.A2 for seg in sys.kernels])
    A3 = np.hstack([seg.A3 for seg in sys.kernels])
    T = np.vstack([np.eye(n) * (hi == q) for _, hi in ends])
    M = np.block([[sys.A0 + B @ law.F0 + A2 @ T, A3], [T, np.zeros((T.shape[0], T.shape[0]))]])
    AD = np.vstack(((sys.A_minus1 + B @ law.F_minus1).T, (sys.A1 + B @ law.F1).T))
    H = h * M
    I, H2, H3 = np.eye(M.shape[0]), H @ H, H @ H @ H
    P = I + H + H2 / 2.0 + H3 / 6.0 + (H3 @ H) / 24.0
    Q0 = (h / 6.0) * (I + H + H2 / 2.0 + H3 / 4.0)
    Qm = (h / 6.0) * (4.0 * I + 2.0 * H + H2 / 2.0)

    def forced(s, z_prev, z_cur, filled):
        d = np.concatenate([
            (0.0 if hi == q else _read_at(s + hi, z_prev, z_cur, filled))
            - _read_at(s + lo, z_prev, z_cur, filled)
            for lo, hi in ends
        ])
        return np.concatenate((A2 @ d, d))

    Y = np.hstack((hist.z, np.zeros((q + 1, T.shape[0]))))
    Y[-1, n:] = np.concatenate([_history_integral(hist.z, lo, hi) for lo, hi in ends])
    dz_prev, out = hist.dz, [Y[-1, :n]]
    for _ in range(intervals):
        z_prev = Y[:, :n]
        reads = np.hstack((dz_prev, z_prev))
        g = np.zeros((2 * q + 1, M.shape[0]))
        g[:, :n] = np.vstack((reads, _mids(reads))) @ AD
        g_node, g_mid = g[: q + 1], g[q + 1 :]
        F = g_node[:-1] @ Q0.T + g_mid @ Qm.T + (h / 6.0) * g_node[1:]
        Y = np.vstack((Y[-1:], np.empty((q, M.shape[0]))))
        zc = Y[:, :n]
        gk = np.zeros_like(g_node)
        gk[0] = forced(0.0, z_prev, zc, 0)
        for i in range(q):
            gk[i + 1] = forced(i + 1.0, z_prev, zc, i)
            F[i] += Q0 @ gk[i] + Qm @ forced(i + 0.5, z_prev, zc, i) + (h / 6.0) * gk[i + 1]
            Y[i + 1] = P @ Y[i] + F[i]
        dz_prev = Y @ M[:n].T + (g_node + gk)[:, :n]
        out.extend(Y[1:, :n])
    return np.array(out)


def test_kernel_loop_matches_stepwise_reads():
    # a segment ending 1 to 8 steps before 0, on the grid (even seeds) or
    # off it, with an optional segment just below it, gives blocks of one to
    # five steps; the off-grid segment ending within one step of 0 (last
    # seed) gives one-step blocks
    for q in (20, 40):
        for seed in range(8):
            rng = np.random.default_rng(300 + seed)
            n = int(rng.integers(1, 4))
            lag = float(rng.integers(1, 9)) if seed % 2 == 0 else rng.uniform(1.0, 8.0)
            cuts = np.cumsum([-lag / q] + list(-rng.uniform(0.05, 0.25, int(rng.integers(1, 3)))))
            if seed == 7:
                cuts = [-0.0037, -0.733]
            kernels = tuple(
                KernelSegment(a, b, 0.3 * rng.standard_normal((n, n)), 0.3 * rng.standard_normal((n, n)))
                for b, a in zip(cuts, cuts[1:])
            )
            sys, law, hist = _random_loop(rng, n, 1, kernels, q=q)
            traj = simulate_closed_loop(sys, law, hist, horizon=3.0, step=1.0 / q)
            ref = _stepwise_kernel_loop(sys, law, hist, 3)
            assert np.max(np.abs(traj.z - ref)) <= 1e-11 * (1.0 + np.max(np.abs(ref))), (q, seed)


def test_closed_loop_v0_uses_closed_loop_A_minus1(ex5):
    law = FeedbackLaw([[-1.0, 0.0]], np.zeros((1, 2)), np.zeros((1, 2)))
    hist = History.constant([1.0, 0.0], 20)
    closed = simulate_closed_loop(ex5, law, hist, horizon=1.0, step=0.05)
    applied = simulate(apply_feedback(ex5, law), hist, horizon=1.0, step=0.05)
    # z(0) - (A_minus1 + B F_minus1) z(-1) = (1, 0) - 0 (1, 0)
    assert np.array_equal(closed.v0, [1.0, 0.0])
    assert np.array_equal(closed.v0, applied.v0)


def test_closed_loop_rejects_gains_of_the_wrong_shape(ex5):
    law = FeedbackLaw(np.zeros((1, 3)), np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(ValueError, match=r"shape \(1, 3\), expected \(1, 2\)"):
        simulate_closed_loop(ex5, law, History.constant([1.0, 0.0], 20), horizon=1.0, step=0.05)


def test_overflow_raises_naming_first_time():
    sys = NeutralSystem(n=1, m=1, p=0, A_minus1=[[0]], A0=[[50]], A1=[[0]], B=[[1]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"not finite at t = 14\.13$"):
            simulate(sys, History.constant([1.0], 100), horizon=20.0, step=0.01)


def test_history_rejects_non_finite_samples():
    z = np.ones((21, 2))
    z[5, 1] = np.nan
    with pytest.raises(ValueError, match=r"z\[5, 1\] = nan"):
        History.from_samples(z, 20)
    with pytest.raises(ValueError, match=r"dz\[0, 0\] = inf"):
        History(q=20, z=np.ones((21, 2)), dz=np.full((21, 2), np.inf))
    # too few samples for finite differences is a grid error, never garbage
    with pytest.raises(HistoryGridMismatch):
        History.from_samples(np.ones((2, 1)), 1)
