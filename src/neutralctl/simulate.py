"""Method-of-steps integration of the neutral delay equation.

The unit delay is resolved exactly on a grid of step h = 1/q, so each
interval [k, k+1] is a forced ODE driven by the samples of the previous
interval.  Integration is classical fourth-order Runge-Kutta; delayed reads
at half-steps use cubic interpolation of the stored samples, and the stored
derivative always comes from the right-hand side itself, which keeps the
neutral term consistent with the equation and lets derivative jumps
propagate across integer times as they should.

Kernels need no quadrature: int_a^b A2 dz(t+s) ds telescopes exactly to
A2 [z(t+b) - z(t+a)], and w(t) = int_a^b z(t+s) ds rides along as RK4 state
with w' = z(t+b) - z(t+a).  Fourth order holds for a history compatible with
the equation; otherwise derivative jumps at integer times limit it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .system import FeedbackLaw, NeutralSystem

__all__ = [
    "StepNotUnitDivisor",
    "HistoryGridMismatch",
    "DegenerateWindow",
    "History",
    "Trajectory",
    "simulate",
    "simulate_closed_loop",
    "estimate_decay",
    "trajectory_to_csv",
]


class StepNotUnitDivisor(ValueError):
    """Step h must equal 1/q for an integer q >= 10."""


class HistoryGridMismatch(ValueError):
    """History grid does not match the requested step or state dimension."""


class DegenerateWindow(ValueError):
    """Decay-rate window is too short or the trajectory vanishes on it."""


# Cubic midpoint weights on four consecutive nodes, for x at the half-step of
# the first / an interior / the last node interval of the stencil.
_W_LEFT = np.array([5.0, 15.0, -5.0, 1.0]) / 16.0
_W_CENTER = np.array([-1.0, 9.0, 9.0, -1.0]) / 16.0
_W_RIGHT = np.array([1.0, -5.0, 15.0, 5.0]) / 16.0

# Three-point Gauss-Legendre nodes and weights on [0, 1], exact for cubics.
_GL3_X = 0.5 + 0.5 * math.sqrt(0.6) * np.array([-1.0, 0.0, 1.0])
_GL3_W = np.array([5.0, 8.0, 5.0]) / 18.0


@dataclass(frozen=True)
class History:
    """Initial segment on [-1, 0]: z and dz sampled on a uniform grid."""

    q: int
    z: np.ndarray
    dz: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        dz = np.asarray(self.dz, dtype=float)
        if z.ndim != 2 or z.shape[0] != self.q + 1 or dz.shape != z.shape:
            raise HistoryGridMismatch(
                f"history arrays must have shape ({self.q + 1}, n), got {z.shape} and {dz.shape}"
            )
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "dz", dz)

    @classmethod
    def from_samples(cls, z, q: int, dz=None) -> "History":
        """History from grid samples of z; derivatives fall back to
        second-order finite differences when dz is not given."""
        z = np.asarray(z, dtype=float)
        if dz is None:
            dz = np.empty_like(z)
            if z.ndim == 2 and z.shape[0] == q + 1 >= 3:
                h = 1.0 / q
                dz[1:-1] = (z[2:] - z[:-2]) / (2.0 * h)
                dz[0] = (-3.0 * z[0] + 4.0 * z[1] - z[2]) / (2.0 * h)
                dz[-1] = (3.0 * z[-1] - 4.0 * z[-2] + z[-3]) / (2.0 * h)
        return cls(q=q, z=z, dz=dz)

    @classmethod
    def from_function(cls, fn, q: int, dfn=None) -> "History":
        """Sample a smooth initial function; derivatives fall back to
        second-order finite differences when dfn is not given."""
        theta = -1.0 + np.arange(q + 1) / q
        z = np.array([np.atleast_1d(np.asarray(fn(t), dtype=float)) for t in theta])
        dz = None
        if dfn is not None:
            dz = np.array([np.atleast_1d(np.asarray(dfn(t), dtype=float)) for t in theta])
        return cls.from_samples(z, q, dz)

    @classmethod
    def constant(cls, vec, q: int) -> "History":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        z = np.tile(vec, (q + 1, 1))
        return cls(q=q, z=z, dz=np.zeros_like(z))


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution on [0, T] with derivative and input records.

    dz holds right-hand-side values; at integer times it is the right
    derivative, so the jumps a neutral system propagates stay visible.
    v0 is the sewing value z(0) - A_minus1 z(-1) of the initial state.
    """

    h: float
    t: np.ndarray
    z: np.ndarray
    dz: np.ndarray
    u: np.ndarray
    v0: np.ndarray


def _steps_per_unit(step: float) -> int:
    if step <= 0:
        raise StepNotUnitDivisor(f"step must be positive, got {step}")
    q = round(1.0 / step)
    if q < 10 or abs(q * step - 1.0) > 1e-9:
        raise StepNotUnitDivisor(f"step {step} is not 1/q for an integer q >= 10")
    return q


def _read_mid(arr, i):
    # value at node coordinate i + 1/2 of a fully filled array
    last = arr.shape[0] - 1
    if i <= 0:
        return _W_LEFT @ arr[0:4]
    if i >= last - 1:
        return _W_RIGHT @ arr[last - 3 : last + 1]
    return _W_CENTER @ arr[i - 1 : i + 3]


def _interp_many(arr, filled, x):
    """Cubic Lagrange interpolation of rows 0..filled (at least 3) of arr at
    positions x >= 0; past `filled` the last stencil extrapolates."""
    x = np.asarray(x, dtype=float)
    j0 = np.clip(np.floor(x).astype(int) - 1, 0, filled - 3)
    s = x - j0
    w0 = -(s - 1.0) * (s - 2.0) * (s - 3.0) / 6.0
    w1 = s * (s - 2.0) * (s - 3.0) / 2.0
    w2 = -s * (s - 1.0) * (s - 3.0) / 2.0
    w3 = s * (s - 1.0) * (s - 2.0) / 6.0
    return (
        w0[:, None] * arr[j0]
        + w1[:, None] * arr[j0 + 1]
        + w2[:, None] * arr[j0 + 2]
        + w3[:, None] * arr[j0 + 3]
    )


def _read_at(x, z_prev, z_cur, filled):
    """z at node coordinate x of the previous interval; x past its end reads
    rows 0..filled of the current one.  Grid nodes and half-steps are stored
    rows and midpoint stencils, anything else is cubic interpolation."""
    q = z_prev.shape[0] - 1
    arr, last = z_prev, q
    if x > q + 1e-9:
        arr, last, x = z_cur[: filled + 1], filled, x - q
        if filled < 3:
            # too few rows for a cubic stencil: lead in with the previous
            # interval's last samples
            arr, last, x = np.vstack((z_prev[q - 3 : q], arr)), filled + 3, x + 3.0
    k = round(2.0 * x)
    if abs(2.0 * x - k) <= 1e-9 and k <= 2 * last:
        return arr[k // 2] if k % 2 == 0 else _read_mid(arr, k // 2)
    return _interp_many(arr, last, [x])[0]


def _history_integral(z, lo, hi):
    """Integral in time of the cubic interpolant of z between node
    coordinates lo and hi, by three Gauss-Legendre points per grid panel."""
    q = z.shape[0] - 1
    cuts = np.concatenate(([lo], np.arange(math.floor(lo) + 1, math.ceil(hi)), [hi]))
    width = np.diff(cuts)
    x = cuts[:-1, None] + width[:, None] * _GL3_X
    return ((width[:, None] * _GL3_W).ravel() / q) @ _interp_many(z, q, x.ravel())


def _make_control(sys, control):
    if control is None:
        control = np.zeros(sys.m)
    if callable(control):
        def ufun(t, y, zr, dzr):
            return np.atleast_1d(np.asarray(control(t), dtype=float))
        return ufun
    const = np.atleast_1d(np.asarray(control, dtype=float))
    if const.shape != (sys.m,):
        raise ValueError(f"constant control must have shape ({sys.m},)")
    return lambda t, y, zr, dzr: const


def _law_control(law: FeedbackLaw):
    def ufun(t, y, zr, dzr):
        return law.F_minus1 @ dzr + law.F0 @ y + law.F1 @ zr

    return ufun


def _simulate_core(sys, history, ufun, horizon, step):
    q = _steps_per_unit(step)
    h = 1.0 / q
    if history.q != q:
        raise HistoryGridMismatch(f"history grid has q={history.q}, simulation needs q={q}")
    if history.z.shape[1] != sys.n:
        raise HistoryGridMismatch(
            f"history dimension {history.z.shape[1]} does not match n={sys.n}"
        )
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    n_steps = round(horizon * q)
    if n_steps < 1 or abs(n_steps * h - horizon) > 1e-9:
        raise ValueError(f"horizon {horizon} is not a multiple of the step {h}")

    n = sys.n
    A_1, A0, A1, B = sys.A_minus1, sys.A0, sys.A1, sys.B
    kernels = sys.kernels
    v0 = history.z[-1] - A_1 @ history.z[0]
    z_hist = history.z
    if kernels:
        # segment bounds as node coordinates of the interval before t
        ends = [(q * (1.0 + seg.a), q * (1.0 + seg.b)) for seg in kernels]
        at_t = np.array([[hi == q] for _, hi in ends], dtype=float)
        A2 = np.hstack([seg.A2 for seg in kernels])
        A3 = np.hstack([seg.A3 for seg in kernels])
        # the running integrals w = int_a^b z(t+s) ds ride along as extra
        # state columns; only the last history row needs their start value
        z_hist = np.hstack((z_hist, np.zeros((q + 1, n * len(kernels)))))
        z_hist[-1, n:] = np.concatenate([_history_integral(history.z, lo, hi) for lo, hi in ends])

    def delayed(s, z_prev, z_cur, filled):
        # z(t+b) - z(t+a) per segment for t at node coordinate s, leaving out
        # z(t) itself, which is the stage state
        return np.array([
            (0.0 if hi == q else _read_at(s + hi, z_prev, z_cur, filled))
            - _read_at(s + lo, z_prev, z_cur, filled)
            for lo, hi in ends
        ])

    def rhs(t_abs, Y, zr, dzr, dd):
        # A2 telescopes exactly to A2 [z(t+b) - z(t+a)], which is also w'
        y = Y[:n]
        val = A_1 @ dzr + A0 @ y + A1 @ zr
        u = ufun(t_abs, y, zr, dzr)
        if not kernels:
            return val + B @ u, u
        d = (dd + at_t * y).ravel()
        val = val + A2 @ d + A3 @ Y[n:]
        return np.concatenate((val + B @ u, d)), u

    intervals_z = [z_hist]
    intervals_dz = [history.dz]
    intervals_u = []
    dd_mid = dd_end = None

    remaining = n_steps
    r = 0
    while remaining > 0:
        steps = min(q, remaining)
        z_prev = intervals_z[-1][:, :n]
        dz_prev = intervals_dz[-1][:, :n]
        z_cur = np.zeros((steps + 1, z_hist.shape[1]))
        dz_cur = np.zeros_like(z_cur)
        u_cur = np.zeros((steps + 1, sys.m))
        zc = z_cur[:, :n]

        z_cur[0] = intervals_z[-1][-1]
        if kernels:
            dd_end = delayed(0.0, z_prev, zc, 0)
        dz_cur[0], u_cur[0] = rhs(float(r), z_cur[0], z_prev[0], dz_prev[0], dd_end)
        for i in range(steps):
            t = r + i * h
            zr_mid = _read_mid(z_prev, i)
            dzr_mid = _read_mid(dz_prev, i)
            zr_end = z_prev[i + 1]
            dzr_end = dz_prev[i + 1]
            if kernels:
                dd_mid = delayed(i + 0.5, z_prev, zc, i)
                dd_end = delayed(i + 1.0, z_prev, zc, i)
            k1 = dz_cur[i].copy()
            k2, _ = rhs(t + 0.5 * h, z_cur[i] + 0.5 * h * k1, zr_mid, dzr_mid, dd_mid)
            k3, _ = rhs(t + 0.5 * h, z_cur[i] + 0.5 * h * k2, zr_mid, dzr_mid, dd_mid)
            k4, _ = rhs(t + h, z_cur[i] + h * k3, zr_end, dzr_end, dd_end)
            z_cur[i + 1] = z_cur[i] + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            dz_cur[i + 1], u_cur[i + 1] = rhs(t + h, z_cur[i + 1], zr_end, dzr_end, dd_end)

        intervals_z.append(z_cur)
        intervals_dz.append(dz_cur)
        intervals_u.append(u_cur)
        remaining -= steps
        r += 1

    # junctions carry the right derivative and the matching input
    z = np.concatenate([intervals_z[1][:1]] + [zs[1:] for zs in intervals_z[1:]])
    dz = np.concatenate([dzs[:-1] for dzs in intervals_dz[1:]] + [intervals_dz[-1][-1:]])
    u = np.concatenate([us[:-1] for us in intervals_u] + [intervals_u[-1][-1:]])
    return Trajectory(
        h=h, t=np.arange(n_steps + 1) / q, z=z[:, :n], dz=dz[:, :n], u=u, v0=v0
    )


def simulate(
    sys: NeutralSystem,
    history: History,
    control=None,
    horizon: float = 5.0,
    step: float = 0.01,
) -> Trajectory:
    """Integrate the open-loop equation from the given initial segment.

    `control` is None (zero input), a callable t -> u(t), or a constant
    input vector.  The step must divide the unit delay exactly and the
    horizon must be a multiple of the step.
    """
    return _simulate_core(sys, history, _make_control(sys, control), horizon, step)


def simulate_closed_loop(
    sys: NeutralSystem,
    law: FeedbackLaw,
    history: History,
    horizon: float = 5.0,
    step: float = 0.01,
) -> Trajectory:
    """Integrate with u(t) = F_minus1 dz(t-1) + F0 z(t) + F1 z(t-1) computed
    from the stored samples."""
    if law.F_minus1.shape != (sys.m, sys.n):
        raise ValueError(
            f"feedback gains have shape {law.F_minus1.shape}, expected ({sys.m}, {sys.n})"
        )
    return _simulate_core(sys, history, _law_control(law), horizon, step)


def estimate_decay(traj: Trajectory, window) -> float:
    """Exponential decay rate from the log-norm slope over [t_a, t_b].

    The fitted norm is sqrt(||z||^2 + ||dz||^2); the returned rate is the
    negated least-squares slope, so decaying solutions give positive values.
    """
    t_a, t_b = float(window[0]), float(window[1])
    if t_b - t_a < 2.0 - 1e-12:
        raise DegenerateWindow(f"window [{t_a}, {t_b}] is shorter than 2 time units")
    mask = (traj.t >= t_a - 1e-12) & (traj.t <= t_b + 1e-12)
    if np.count_nonzero(mask) < 3:
        raise DegenerateWindow("window contains fewer than 3 samples")
    norms = np.sqrt(np.sum(traj.z[mask] ** 2, axis=1) + np.sum(traj.dz[mask] ** 2, axis=1))
    if np.min(norms) <= 0.0:
        raise DegenerateWindow("trajectory vanishes inside the window")
    slope = np.polyfit(traj.t[mask], np.log(norms), 1)[0]
    return float(-slope)


def trajectory_to_csv(traj: Trajectory) -> str:
    n = traj.z.shape[1]
    m = traj.u.shape[1]
    header = (
        ["t"]
        + [f"z_{i + 1}" for i in range(n)]
        + [f"dz_{i + 1}" for i in range(n)]
        + [f"u_{i + 1}" for i in range(m)]
    )
    table = np.column_stack((traj.t, traj.z, traj.dz, traj.u))
    lines = [",".join(header)]
    # converting a block of rows at a time keeps the Python floats of the
    # whole table from being alive at once
    for k in range(0, table.shape[0], 256):
        lines.extend(",".join(map(repr, row)) for row in table[k : k + 256].tolist())
    lines.append("")
    return "\n".join(lines)
