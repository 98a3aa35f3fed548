"""Method-of-steps integration of the neutral delay equation.

The unit delay is resolved exactly on a grid of step h = 1/q, so each
interval [k, k+1] is a forced linear ODE Y' = M Y + g(t) driven by the
samples of the previous interval, with feedback gains folded into M and the
forcing matrices.  Classical RK4 on it is one affine map per step,
Y+ = P Y + Q0 g(t) + Qm g(t+h/2) + (h/6) g(t+h), and each interval's forcing
is one batch: stored rows at the nodes, cubic midpoint stencils at the
half-steps, and a callable input called once at each.  The stored
derivative is M Y + g itself, which keeps the neutral term consistent with
the equation and lets derivative jumps propagate across integer times.

Kernels need no quadrature: int_a^b A2 dz(t+s) ds telescopes exactly to
A2 [z(t+b) - z(t+a)], and w(t) = int_a^b z(t+s) ds rides along as state
with w' = z(t+b) - z(t+a); reads past the previous interval are made step
by step, from the rows just computed.  Fourth order holds for a history
compatible with the equation; otherwise derivative jumps at integer times
limit it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .system import FeedbackLaw, NeutralSystem, zero_law

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
        for name, arr in (("z", z), ("dz", dz)):
            if not np.isfinite(arr).all():
                i, j = np.argwhere(~np.isfinite(arr))[0]
                raise ValueError(f"history {name}[{i}, {j}] = {arr[i, j]} is not finite")
            object.__setattr__(self, name, arr)

    @classmethod
    def from_samples(cls, z, q: int, dz=None) -> "History":
        """History from grid samples of z; derivatives fall back to
        second-order finite differences when dz is not given."""
        z = np.asarray(z, dtype=float)
        if dz is None:
            dz = np.zeros_like(z)
            if z.ndim == 2 and z.shape[0] == q + 1:
                if q < 2:
                    raise HistoryGridMismatch(f"finite differences need q >= 2, got q={q}")
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


def _mids(arr):
    """Rows at every half-step of a fully filled array, by the stencils of
    _read_mid."""
    w = _W_CENTER
    center = w[0] * arr[:-3] + w[1] * arr[1:-2] + w[2] * arr[2:-1] + w[3] * arr[3:]
    return np.vstack((_W_LEFT @ arr[:4], center, _W_RIGHT @ arr[-4:]))


def _inputs(control, m, times):
    """Rows c(t) of the external input at the given times."""
    if control is None:
        return np.zeros((times.size, m))
    if callable(control):
        c = np.array([np.atleast_1d(np.asarray(control(t), dtype=float)) for t in times.tolist()])
    else:
        c = np.tile(np.atleast_1d(np.asarray(control, dtype=float)), (times.size, 1))
    if c.shape != (times.size, m):
        raise ValueError(f"control must have shape ({m},), got shape {c.shape[1:]}")
    return c


def _simulate_core(sys, history, law, control, horizon, step):
    q = _steps_per_unit(step)
    h, n, B, kernels = 1.0 / q, sys.n, sys.B, sys.kernels
    if history.q != q:
        raise HistoryGridMismatch(f"history grid has q={history.q}, simulation needs q={q}")
    if history.z.shape[1] != n:
        raise HistoryGridMismatch(f"history dimension {history.z.shape[1]} does not match n={n}")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    n_steps = round(horizon * q)
    if n_steps < 1 or abs(n_steps * h - horizon) > 1e-9:
        raise ValueError(f"horizon {horizon} is not a multiple of the step {h}")

    v0 = history.z[-1] - sys.A_minus1 @ history.z[0]
    # the gains fold in as in apply_feedback; AD forces with the delayed
    # reads [dz(t-1), z(t-1)] and FD feeds them back into u
    M = sys.A0 + B @ law.F0
    AD = np.vstack(((sys.A_minus1 + B @ law.F_minus1).T, (sys.A1 + B @ law.F1).T))
    FD = np.vstack((law.F_minus1.T, law.F1.T))
    z_hist = history.z
    if kernels:
        # segment bounds as node coordinates of the interval before t
        ends = [(q * (1.0 + seg.a), q * (1.0 + seg.b)) for seg in kernels]
        A2 = np.hstack([seg.A2 for seg in kernels])
        A3 = np.hstack([seg.A3 for seg in kernels])
        # the running integrals w = int_a^b z(t+s) ds ride along as extra
        # state with w' = z(t+b) - z(t+a), which A2 telescopes to; T passes
        # z(t) itself to the segments that end at 0
        T = np.vstack([np.eye(n) * (hi == q) for _, hi in ends])
        M = np.block([[M + A2 @ T, A3], [T, np.zeros((T.shape[0], T.shape[0]))]])
        # only the last history row needs the integrals' start value
        z_hist = np.hstack((z_hist, np.zeros((q + 1, T.shape[0]))))
        z_hist[-1, n:] = np.concatenate([_history_integral(history.z, lo, hi) for lo, hi in ends])

    def forced(s, z_prev, z_cur, filled):
        # kernel forcing [A2 d; d] with d = z(t+b) - z(t+a) per segment for t
        # at node coordinate s, leaving out z(t) itself
        d = np.concatenate([
            (0.0 if hi == q else _read_at(s + hi, z_prev, z_cur, filled))
            - _read_at(s + lo, z_prev, z_cur, filled)
            for lo, hi in ends
        ])
        return np.concatenate((A2 @ d, d))

    # RK4 on Y' = M Y + g(t), its four stages regrouped into one affine map:
    # Y+ = P Y + Q0 g(t) + Qm g(t + h/2) + (h/6) g(t + h)
    I = np.eye(M.shape[0])
    H = h * M
    H2, H3 = H @ H, H @ H @ H
    P = I + H + H2 / 2.0 + H3 / 6.0 + (H3 @ H) / 24.0
    Q0 = (h / 6.0) * (I + H + H2 / 2.0 + H3 / 4.0)
    Qm = (h / 6.0) * (4.0 * I + 2.0 * H + H2 / 2.0)

    intervals_z, intervals_dz, intervals_u = [z_hist], [history.dz], []
    for r, start in enumerate(range(0, n_steps, q)):
        steps = min(q, n_steps - start)
        z_prev = intervals_z[-1][:, :n]
        # one batch of delayed reads and inputs: the steps + 1 nodes, then
        # the half-steps
        reads = np.hstack((intervals_dz[-1], z_prev))
        reads = np.vstack((reads[: steps + 1], _mids(reads)[:steps]))
        c = _inputs(control, sys.m, (r * q + np.r_[0 : steps + 1, 0.5 : steps]) / q)
        g = np.zeros((2 * steps + 1, M.shape[0]))
        g[:, :n] = reads @ AD + c @ B.T
        g_node, g_mid = g[: steps + 1], g[steps + 1 :]
        F = g_node[:-1] @ Q0.T + g_mid @ Qm.T + (h / 6.0) * g_node[1:]

        Y = np.empty((steps + 1, M.shape[0]))
        Y[0] = intervals_z[-1][-1]
        zc = Y[:, :n]
        # kernel reads past the previous interval need the rows just computed
        gk = np.zeros_like(g_node)
        if kernels:
            gk[0] = forced(0.0, z_prev, zc, 0)
        for i in range(steps):
            if kernels:
                gk[i + 1] = forced(i + 1.0, z_prev, zc, i)
                F[i] += Q0 @ gk[i] + Qm @ forced(i + 0.5, z_prev, zc, i) + (h / 6.0) * gk[i + 1]
            Y[i + 1] = P @ Y[i] + F[i]

        intervals_z.append(Y)
        intervals_dz.append(Y @ M[:n].T + (g_node + gk)[:, :n])
        intervals_u.append(reads[: steps + 1] @ FD + Y[:, :n] @ law.F0.T + c[: steps + 1])

    # junctions carry the right derivative and the matching input
    z = np.concatenate([intervals_z[1][:1]] + [zs[1:] for zs in intervals_z[1:]])
    dz = np.concatenate([dzs[:-1] for dzs in intervals_dz[1:]] + [intervals_dz[-1][-1:]])
    u = np.concatenate([us[:-1] for us in intervals_u] + [intervals_u[-1][-1:]])
    return Trajectory(h=h, t=np.arange(n_steps + 1) / q, z=z[:, :n], dz=dz, u=u, v0=v0)


def simulate(
    sys: NeutralSystem,
    history: History,
    control=None,
    horizon: float = 5.0,
    step: float = 0.01,
) -> Trajectory:
    """Integrate the open-loop equation from the given initial segment.

    `control` is None (zero input), a callable t -> u(t), or a constant
    input vector.  A callable is called once per grid node and half-step of
    each unit interval.  The step must divide the unit delay exactly and the
    horizon must be a multiple of the step.
    """
    return _simulate_core(sys, history, zero_law(sys), control, horizon, step)


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
    return _simulate_core(sys, history, law, None, horizon, step)


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
