"""Method-of-steps integration of the neutral delay equation.

The unit delay is resolved exactly on a grid of step h = 1/q, so each
interval [k, k+1] is a forced linear ODE Y' = M Y + g(t) driven by the
samples of the previous interval, with feedback gains folded into M and the
forcing matrices.  Classical RK4 on it is one affine map per step,
Y+ = P Y + Q0 g(t) + Qm g(t+h/2) + (h/6) g(t+h), and each interval's forcing
is one batch: stored rows at the nodes, cubic midpoint stencils at the
half-steps, and a callable input called once at each.  With the forcing
known, a run of steps is a linear recurrence, solved as one prefix scan
over the affine maps.  The stored derivative is M Y + g itself, which keeps
the neutral term consistent with the equation and lets derivative jumps
propagate across integer times.

Kernels need no quadrature: int_a^b A2 dz(t+s) ds telescopes exactly to
A2 [z(t+b) - z(t+a)], and w(t) = int_a^b z(t+s) ds rides along as state
with w' = z(t+b) - z(t+a).  A kernel read lags its step by the bound's
distance from 0, so an interval is cut into blocks short enough that each
block's reads, one batch of cubic interpolation, land on rows known when it
starts.  Fourth order holds for a history compatible with the equation,
and on example 5 a history whose dz jumps at t = 0 still converges at a
measured order of 3.77 to 3.96.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .system import FeedbackLaw, NeutralSystem, apply_feedback, zero_law

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
    v0 is the sewing value z(0) - A_minus1 z(-1) of the initial state, with
    the closed loop's A_minus1 + B F_minus1 under feedback.
    """

    h: float
    t: np.ndarray
    z: np.ndarray
    dz: np.ndarray
    u: np.ndarray
    v0: np.ndarray


def _steps_per_unit(step: float) -> int:
    if not step > 0:  # also NaN
        raise StepNotUnitDivisor(f"step must be positive, got {step}")
    q = round(1.0 / step)
    if q < 10 or abs(q * step - 1.0) > 1e-9:
        raise StepNotUnitDivisor(f"step {step} is not 1/q for an integer q >= 10")
    return q


def _interp_many(arr, filled, x, first=0):
    """Cubic Lagrange interpolation of rows first..filled of arr at positions
    x >= 0; past `filled` the last stencil extrapolates, and with fewer than
    four rows from `first` on it leads in with the rows before `first`.
    `filled` and `first` may be given per position."""
    x = np.asarray(x, dtype=float)
    j0 = np.minimum(np.maximum(np.floor(x).astype(int) - 1, first), filled - 3)
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


def _history_integral(z, lo, hi):
    """Integral in time of the cubic interpolant of z between node
    coordinates lo and hi, by three Gauss-Legendre points per grid panel."""
    q = z.shape[0] - 1
    cuts = np.concatenate(([lo], np.arange(math.floor(lo) + 1, math.ceil(hi)), [hi]))
    width = np.diff(cuts)
    x = cuts[:-1, None] + width[:, None] * _GL3_X
    return ((width[:, None] * _GL3_W).ravel() / q) @ _interp_many(z, q, x.ravel())


def _mids(arr):
    """Rows at every half-step of a fully filled array, by the cubic midpoint
    stencils."""
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
    closed = apply_feedback(sys, law)
    q = _steps_per_unit(step)
    h, n, B, kernels = 1.0 / q, sys.n, sys.B, sys.kernels
    if history.q != q:
        raise HistoryGridMismatch(f"history grid has q={history.q}, simulation needs q={q}")
    if history.z.shape[1] != n:
        raise HistoryGridMismatch(f"history dimension {history.z.shape[1]} does not match n={n}")
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    n_steps = round(horizon * q)
    if n_steps < 1 or abs(n_steps * h - horizon) > 1e-9:
        raise ValueError(f"horizon {horizon} is not a multiple of the step {h}")

    # the gains fold into the closed loop's coefficients; AD forces with the
    # delayed reads [dz(t-1), z(t-1)] and FD feeds them back into u
    v0 = history.z[-1] - closed.A_minus1 @ history.z[0]
    M = closed.A0
    AD = np.vstack((closed.A_minus1.T, closed.A1.T))
    FD = np.vstack((law.F_minus1.T, law.F1.T))
    z_hist = history.z
    block = q  # steps whose forcing is known before the first of them
    if kernels:
        # segment bounds as node coordinates of the interval before t; an
        # upper bound at 0 (hi == q) is folded into M
        ends = np.array([(q * (1.0 + seg.a), q * (1.0 + seg.b)) for seg in kernels])
        fold = ends[:, 1] == q
        A2 = np.hstack([seg.A2 for seg in kernels])
        A3 = np.hstack([seg.A3 for seg in kernels])
        # the running integrals w = int_a^b z(t+s) ds ride along as extra
        # state with w' = z(t+b) - z(t+a), which A2 telescopes to; T passes
        # z(t) itself to the segments that end at 0
        T = np.vstack([np.eye(n) * f for f in fold])
        M = np.block([[M + A2 @ T, A3], [T, np.zeros((T.shape[0], T.shape[0]))]])
        # only the last history row needs the integrals' start value
        z_hist = np.hstack((z_hist, np.zeros((q + 1, T.shape[0]))))
        z_hist[-1, n:] = np.concatenate([_history_integral(history.z, lo, hi) for lo, hi in ends])
        # a read lags its step by at least L steps, so the stencils of a
        # block of floor(L) - 3 steps end at rows known when it starts
        lag = q - np.where(fold, ends[:, 0], ends[:, 1]).max()
        block = max(1, math.floor(lag) - 3)

    def forced(W, s, filled):
        # kernel forcing [A2 d; d] with d = z(t+b) - z(t+a) per segment,
        # leaving out z(t) itself, for t at node coordinates s of the interval
        # that starts at row q of W: a read past row q uses its rows up to
        # `filled`, led in by the rows before q while it has fewer than four
        x = (ends.T[:, :, None] + s).ravel()
        k = np.rint(2.0 * x)
        x = np.where(np.abs(2.0 * x - k) <= 1e-9, 0.5 * k, x)
        cur = x > q
        z = _interp_many(W[:, :n], np.where(cur, filled, q), x, np.where(cur, q, 0))
        lo, hi = z.reshape(2, len(ends), s.size, n)
        d = (np.where(fold[:, None, None], 0.0, hi) - lo).transpose(1, 0, 2).reshape(s.size, -1)
        return np.hstack((d @ A2.T, d))

    # RK4 on Y' = M Y + g(t), its four stages regrouped into one affine map:
    # Y+ = P Y + Q0 g(t) + Qm g(t + h/2) + (h/6) g(t + h)
    I = np.eye(M.shape[0])
    H = h * M
    H2, H3 = H @ H, H @ H @ H
    P = I + H + H2 / 2.0 + H3 / 6.0 + (H3 @ H) / 24.0
    Q0 = (h / 6.0) * (I + H + H2 / 2.0 + H3 / 4.0)
    Qm = (h / 6.0) * (4.0 * I + 2.0 * H + H2 / 2.0)
    # the transposed powers P^(2^k) that a scan over one block needs
    PT = [P.T]
    while 2 ** len(PT) < block:
        PT.append(PT[-1] @ PT[-1])

    Z = np.empty((q + n_steps + 1, M.shape[0]))  # the history, then every step
    Z[: q + 1] = z_hist
    dz_prev, dzs, us = history.dz, [], []
    for start in range(0, n_steps, q):
        steps = min(q, n_steps - start)
        W = Z[start : start + q + steps + 1]  # the previous interval, then this one
        Y = W[q:]
        # one batch of delayed reads and inputs: the steps + 1 nodes, then
        # the half-steps
        reads = np.hstack((dz_prev, W[: q + 1, :n]))
        reads = np.vstack((reads[: steps + 1], _mids(reads)[:steps]))
        c = _inputs(control, sys.m, (start + np.r_[0 : steps + 1, 0.5 : steps]) / q)
        # an overflow is reported below, naming its time, rather than warned of
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.zeros((2 * steps + 1, M.shape[0]))
            g[:, :n] = reads @ AD + c @ B.T
            g_node, g_mid = g[: steps + 1], g[steps + 1 :]
            F = g_node[:-1] @ Q0.T + g_mid @ Qm.T + (h / 6.0) * g_node[1:]

            gk = np.zeros_like(g_node)
            if kernels:
                gk[0] = forced(W, np.zeros(1), q)[0]
            for i0 in range(0, steps, block):
                i1 = min(i0 + block, steps)
                b = i1 - i0
                if kernels:
                    # one batch for the block's later nodes and its half-steps
                    fk = forced(W, np.r_[i0 + 1 : i1 + 1, i0 + 0.5 : i1], q + i0)
                    gk[i0 + 1 : i1 + 1] = fk[:b]
                    F[i0:i1] += gk[i0:i1] @ Q0.T + fk[b:] @ Qm.T + (h / 6.0) * gk[i0 + 1 : i1 + 1]
                # Y[i+1] = P Y[i] + F[i] over the block as a prefix scan: after
                # the round with d, S[j] sums P^(j-i) F[i] over j - 2d < i <= j
                S = F[i0:i1]
                S[0] += P @ Y[i0]
                for k in range((b - 1).bit_length()):
                    S[1 << k :] += S[: -(1 << k)] @ PT[k]
                Y[i0 + 1 : i1 + 1] = S

            dzs.append(Y @ M[:n].T + (g_node + gk)[:, :n])
            us.append(reads[: steps + 1] @ FD + Y[:, :n] @ law.F0.T + c[: steps + 1])
        bad = ~np.isfinite(np.hstack((Y[:, :n], dzs[-1], us[-1]))).all(axis=1)
        if bad.any():
            t = (start + np.argmax(bad)) / q
            raise ValueError(f"the solution overflows: z, dz or u is not finite at t = {t:g}")
        dz_prev = dzs[-1]

    # junctions carry the right derivative and the matching input
    dz = np.concatenate([d[:-1] for d in dzs] + [dzs[-1][-1:]])
    u = np.concatenate([x[:-1] for x in us] + [us[-1][-1:]])
    z = Z[q:, :n].copy()  # a view would keep the history rows and w alive
    return Trajectory(h=h, t=np.arange(n_steps + 1) / q, z=z, dz=dz, u=u, v0=v0)


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
    blocks = [",".join(header)]
    # one string per block of 256 rows keeps neither the Python floats nor the
    # row strings of the whole table alive at once
    for k in range(0, table.shape[0], 256):
        blocks.append("\n".join(",".join(map(repr, row)) for row in table[k : k + 256].tolist()))
    del table  # freed before the join, which holds the blocks and the text at once
    blocks.append("")
    return "\n".join(blocks)
