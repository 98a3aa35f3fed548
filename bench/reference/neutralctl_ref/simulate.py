"""Method-of-steps integration of the neutral delay equation.

The unit delay is resolved exactly on a grid of step h = 1/q, so each
interval [k, k+1] is a forced ODE driven by the samples of the previous
interval.  Integration is classical fourth-order Runge-Kutta; delayed reads
at half-steps use cubic interpolation of the stored samples, and the stored
derivative always comes from the right-hand side itself, which keeps the
neutral term consistent with the equation and lets derivative jumps
propagate across integer times as they should.
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
    def from_function(cls, fn, q: int, dfn=None) -> "History":
        """Sample a smooth initial function; derivatives fall back to
        second-order finite differences when dfn is not given."""
        theta = -1.0 + np.arange(q + 1) / q
        z = np.array([np.atleast_1d(np.asarray(fn(t), dtype=float)) for t in theta])
        if dfn is not None:
            dz = np.array([np.atleast_1d(np.asarray(dfn(t), dtype=float)) for t in theta])
        else:
            h = 1.0 / q
            dz = np.empty_like(z)
            dz[1:-1] = (z[2:] - z[:-2]) / (2.0 * h)
            dz[0] = (-3.0 * z[0] + 4.0 * z[1] - z[2]) / (2.0 * h)
            dz[-1] = (3.0 * z[-1] - 4.0 * z[-2] + z[-3]) / (2.0 * h)
        return cls(q=q, z=z, dz=dz)

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


def _read_node(arr, i):
    return arr[i]


def _read_mid(arr, i):
    # value at node coordinate i + 1/2 of a fully filled array
    last = arr.shape[0] - 1
    if i <= 0:
        return _W_LEFT @ arr[0:4]
    if i >= last - 1:
        return _W_RIGHT @ arr[last - 3 : last + 1]
    return _W_CENTER @ arr[i - 1 : i + 3]


def _interp_many(arr, filled, x):
    """Cubic Lagrange interpolation of rows of arr at positions x in [0, filled]."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, float(filled))
    if filled == 0:
        return np.tile(arr[0], (x.size, 1))
    if filled < 3:
        j = np.clip(np.floor(x).astype(int), 0, filled - 1)
        s = (x - j)[:, None]
        return (1.0 - s) * arr[j] + s * arr[j + 1]
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


def _zero_control(sys):
    zeros = np.zeros(sys.m)

    def ufun(t, y, zr, dzr):
        return zeros

    return ufun


def _make_control(sys, control):
    if control is None:
        return _zero_control(sys)
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

    A_1, A0, A1, B = sys.A_minus1, sys.A0, sys.A1, sys.B
    kernels = sys.kernels
    v0 = history.z[-1] - A_1 @ history.z[0]

    def kernel_term(t_abs, r, z_prev, dz_prev, z_cur, dz_cur, filled_z, filled_dz):
        total = np.zeros(sys.n)
        for seg in kernels:
            lo = t_abs + seg.a
            hi = t_abs + seg.b
            k_lo = math.ceil(lo * q - 1e-9)
            k_hi = math.floor(hi * q + 1e-9)
            taus = [lo] + [k / q for k in range(k_lo, k_hi + 1) if lo < k / q < hi] + [hi]
            taus = np.array(taus)
            x = (taus - (r - 1.0)) * q  # coordinate in the previous interval
            in_prev = x <= q + 1e-12
            zv = np.empty((taus.size, sys.n))
            dzv = np.empty((taus.size, sys.n))
            if np.any(in_prev):
                zv[in_prev] = _interp_many(z_prev, q, x[in_prev])
                dzv[in_prev] = _interp_many(dz_prev, q, x[in_prev])
            cur = ~in_prev
            if np.any(cur):
                zv[cur] = _interp_many(z_cur, filled_z, x[cur] - q)
                dzv[cur] = _interp_many(dz_cur, filled_dz, x[cur] - q)
            dt = np.diff(taus)
            w = np.zeros(taus.size)
            w[:-1] += 0.5 * dt
            w[1:] += 0.5 * dt
            total += seg.A2 @ (w @ dzv) + seg.A3 @ (w @ zv)
        return total

    intervals_z = [history.z]
    intervals_dz = [history.dz]
    intervals_u = []

    remaining = n_steps
    r = 0
    while remaining > 0:
        steps = min(q, remaining)
        z_prev = intervals_z[-1]
        dz_prev = intervals_dz[-1]
        z_cur = np.zeros((steps + 1, sys.n))
        dz_cur = np.zeros((steps + 1, sys.n))
        u_cur = np.zeros((steps + 1, sys.m))

        def rhs(t_abs, y, zr, dzr, filled_z, filled_dz):
            val = A_1 @ dzr + A0 @ y + A1 @ zr
            if kernels:
                val = val + kernel_term(
                    t_abs, r, z_prev, dz_prev, z_cur, dz_cur, filled_z, filled_dz
                )
            u = ufun(t_abs, y, zr, dzr)
            return val + B @ u, u

        def node_eval(t_abs, y, zr, dzr, idx):
            # the kernel integral touches dz at its own node; seed it with the
            # neighbouring value and correct once (second-order endpoint)
            if not kernels:
                return rhs(t_abs, y, zr, dzr, idx, idx)
            dz_cur[idx] = dz_cur[idx - 1] if idx > 0 else dz_prev[-1]
            val, u = rhs(t_abs, y, zr, dzr, idx, idx)
            dz_cur[idx] = val
            return rhs(t_abs, y, zr, dzr, idx, idx)

        z_cur[0] = z_prev[-1]
        dz_cur[0], u_cur[0] = node_eval(
            float(r), z_cur[0], _read_node(z_prev, 0), _read_node(dz_prev, 0), 0
        )
        for i in range(steps):
            t = r + i * h
            zr_mid = _read_mid(z_prev, i)
            dzr_mid = _read_mid(dz_prev, i)
            zr_end = _read_node(z_prev, i + 1)
            dzr_end = _read_node(dz_prev, i + 1)
            k1 = dz_cur[i].copy()
            k2, _ = rhs(t + 0.5 * h, z_cur[i] + 0.5 * h * k1, zr_mid, dzr_mid, i, i)
            k3, _ = rhs(t + 0.5 * h, z_cur[i] + 0.5 * h * k2, zr_mid, dzr_mid, i, i)
            k4, _ = rhs(t + h, z_cur[i] + h * k3, zr_end, dzr_end, i, i)
            z_cur[i + 1] = z_cur[i] + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            dz_cur[i + 1], u_cur[i + 1] = node_eval(t + h, z_cur[i + 1], zr_end, dzr_end, i + 1)

        intervals_z.append(z_cur)
        intervals_dz.append(dz_cur)
        intervals_u.append(u_cur)
        remaining -= steps
        r += 1

    t = np.arange(n_steps + 1) / q
    z_rows = [intervals_z[1][0]]
    dz_rows = [intervals_dz[1][0]]
    u_rows = [intervals_u[0][0]]
    for idx in range(1, len(intervals_z)):
        zc, dzc, uc = intervals_z[idx], intervals_dz[idx], intervals_u[idx - 1]
        if idx > 1:
            # junction carries the right derivative and the matching input
            dz_rows[-1] = dzc[0]
            u_rows[-1] = uc[0]
        z_rows.extend(zc[1:])
        dz_rows.extend(dzc[1:])
        u_rows.extend(uc[1:])
    return Trajectory(
        h=h,
        t=t,
        z=np.array(z_rows),
        dz=np.array(dz_rows),
        u=np.array(u_rows),
        v0=v0,
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
    lines = [",".join(header)]
    for j in range(traj.t.size):
        row = [repr(float(traj.t[j]))]
        row += [repr(float(x)) for x in traj.z[j]]
        row += [repr(float(x)) for x in traj.dz[j]]
        row += [repr(float(x)) for x in traj.u[j]]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
