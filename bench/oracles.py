"""Correctness oracles, written from the model equations with numpy only.

Nothing here calls neutralctl: the characteristic matrix, the matrix
exponential and the closed-loop solution are computed independently, so a
check fails when the program's answer is wrong, not when it merely changes.
Every check returns a list of problem strings; an empty list is a pass.
"""

from __future__ import annotations

import cmath
import math
import xml.etree.ElementTree as ET

import numpy as np

# A reported root must make D(lambda) numerically singular (see
# singularity()).  Over 1700 roots of the spectrum workloads the largest
# value seen was 2e-15; multiple roots, located only to about eps^(1/m), may reach
# 1e-6 for m = 3, which this bound still admits.
ROOT_SIGMA_BOUND = 1e-4

# Relative tolerance of the rank test used for condition 1, as in the
# program's documented convention (tol * sigma_max * max(dims)).
RANK_TOL = 1e-9

# Kernel-free closed-loop trajectories must match the exact solution to this
# relative accuracy.  RK4 at h = 0.01 reaches 1e-9 to 1e-6 on these systems:
# its global error grows like T (h r)^4 r for growth rate r, and some of the
# closed loops grow at r ~ 4.  A lower-order or wrong integrator misses by far.
TRAJ_RTOL = 1e-4


def arrays(sysd):
    """numpy views of a system dict (the JSON system file format)."""
    out = {k: np.array(sysd[k], dtype=float) for k in ("A_minus1", "A0", "A1", "B")}
    out["kernels"] = [
        (float(s["a"]), float(s["b"]), np.array(s["A2"], float), np.array(s["A3"], float))
        for s in sysd.get("kernels", [])
    ]
    return out


def char_matrix(sa, lam):
    """D(lambda) from the Laplace transform of the model equation."""
    lam = complex(lam)
    n = sa["A0"].shape[0]
    e = cmath.exp(-lam)
    D = lam * np.eye(n) - lam * e * sa["A_minus1"] - sa["A0"] - e * sa["A1"]
    for a, b, A2, A3 in sa["kernels"]:
        eb, ea = cmath.exp(lam * b), cmath.exp(lam * a)
        if abs(lam) > 1e-6:
            phi = (eb - ea) / lam
        else:
            phi = (b - a) + lam * (b * b - a * a) / 2 + lam * lam * (b**3 - a**3) / 6
        D = D - (eb - ea) * A2 - phi * A3
    return D


def singularity(sa, lam):
    """sigma_min / sigma_max of D(lambda), with sigma_max floored at 1: for
    n = 1 the plain ratio is always 1, and so is it for D = lambda I near 0."""
    s = np.linalg.svd(char_matrix(sa, lam), compute_uv=False)
    return float(s[-1] / max(s[0], 1.0))


def rank_full(M):
    """Whether M has full row rank.  Singular values above
    RANK_TOL * sigma_max * max(dims) count, as in the program's documented
    rule, and a matrix with sigma_max <= 1e-12 is numerically zero, rank 0
    (the systems' entries are of order 1).  The absolute floor is where this
    oracle and the program part: a purely relative rule calls [1e-17, 0]
    rank 1."""
    s = np.linalg.svd(M, compute_uv=False)
    if s[0] <= 1e-12:
        return False
    return bool(s[-1] > RANK_TOL * s[0] * max(M.shape))


def check_roots(sa, roots, region):
    """roots: sequence of (lambda, multiplicity).  Each must be a zero of det D
    inside the (symmetrized) region, and the set must be closed under
    conjugation because the coefficients are real."""
    problems = []
    re_min, re_max, _, im_top = region
    pad = 1e-6 * (1 + abs(im_top))
    lams = [complex(lam) for lam, _ in roots]
    for lam, mult in roots:
        if mult < 1:
            problems.append(f"root {lam} has multiplicity {mult}")
        if not (re_min - pad <= lam.real <= re_max + pad and abs(lam.imag) <= im_top + pad):
            problems.append(f"root {lam} outside the region")
        r = singularity(sa, lam)
        if not r < ROOT_SIGMA_BOUND:
            problems.append(f"D is not singular at root {lam}: sigma ratio {r:.3g}")
    for lam in lams:
        if abs(lam.imag) > 1e-9 * (1 + abs(lam)):
            if min(abs(lam.conjugate() - mu) for mu in lams) > 1e-6 * (1 + abs(lam)):
                problems.append(f"root {lam} has no conjugate partner")
    return problems


def condition1_holds(sa, B, roots):
    """Condition 1 recomputed at the given roots: rank [D(lambda), B] = n."""
    return all(rank_full(np.hstack([char_matrix(sa, lam), np.asarray(B, dtype=complex)]))
               for lam, _ in roots)


def expm(M):
    """Matrix exponential by scaling and squaring of a degree-20 Taylor sum."""
    nrm = float(np.linalg.norm(M, 1))
    s = max(0, math.ceil(math.log2(nrm)) + 1) if nrm > 0 else 0
    A = M / 2.0**s
    E = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, 21):
        term = term @ A / k
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


def kernel_free_solution(P, A0, A1, z_hist, q, n_steps):
    """Exact nodal solution of z'(t) = P z'(t-1) + A0 z(t) + A1 z(t-1) with a
    constant history z = z_hist, z' = 0 on [-1, 0].

    On interval k, y_j(s) = z(j + s) for j <= k solve a linear constant-
    coefficient system (the method of steps written as one ODE), so each
    interval is one matrix exponential of growing size.
    """
    n = A0.shape[0]
    c = np.asarray(z_hist, dtype=float)
    nodes = [c.copy()]
    starts = [c.copy()]  # z(0), z(1), ...
    k = 0
    while len(nodes) <= n_steps:
        dim = n * (k + 1) + 1
        M = np.zeros((dim, dim))
        # block j holds y_j, j = 0..k; the last coordinate is the constant 1.
        L_prev = None
        for j in range(k + 1):
            L = np.zeros((n, dim))
            L[:, j * n:(j + 1) * n] += A0
            if j == 0:
                L[:, -1] += A1 @ c
            else:
                L[:, (j - 1) * n:j * n] += A1
                L += P @ L_prev
            M[j * n:(j + 1) * n] = L
            L_prev = L
        X = np.concatenate(starts[: k + 1] + [np.ones(1)])
        step = expm(M / q)
        for _ in range(q):
            X = step @ X
            nodes.append(X[k * n:(k + 1) * n].copy())
            if len(nodes) > n_steps:
                break
        starts.append(X[k * n:(k + 1) * n].copy())
        k += 1
    return np.array(nodes[: n_steps + 1])


def check_trajectory(sa, F, horizon, q, z_hist, csv):
    """Trajectory CSV (t, z, dz, u columns) of the closed loop
    u = F dz(t-1) from a constant history."""
    problems = []
    n, m = sa["B"].shape
    n_steps = round(horizon * q)
    if csv.shape != (n_steps + 1, 1 + 2 * n + m):
        return [f"trajectory shape {csv.shape}, expected {(n_steps + 1, 1 + 2 * n + m)}"]
    if not np.all(np.isfinite(csv)):
        return ["trajectory has non-finite entries"]
    t, z, dz, u = csv[:, 0], csv[:, 1:1 + n], csv[:, 1 + n:1 + 2 * n], csv[:, 1 + 2 * n:]
    if np.max(np.abs(t - np.arange(n_steps + 1) / q)) > 1e-12:
        problems.append("time column is not the uniform grid")
    F = np.asarray(F, dtype=float)
    # interior nodes of each interval: the feedback and the equation are
    # algebraic identities there (the junctions carry one-sided values)
    j = np.array([i for i in range(1, n_steps) if i % q])
    dz_del = np.where((j >= q)[:, None], dz[np.maximum(j - q, 0)], 0.0)
    z_del = np.where((j >= q)[:, None], z[np.maximum(j - q, 0)], z_hist)
    scale = 1.0 + np.max(np.abs(dz))
    if np.max(np.abs(u[j] - dz_del @ F.T)) > 1e-9 * scale * (1 + np.abs(F).max()):
        problems.append("input column differs from F dz(t-1)")
    if not sa["kernels"]:
        rhs = dz_del @ sa["A_minus1"].T + z[j] @ sa["A0"].T + z_del @ sa["A1"].T + u[j] @ sa["B"].T
        if np.max(np.abs(dz[j] - rhs)) > 1e-9 * scale:
            problems.append("derivative column violates the equation")
        P = sa["A_minus1"] + sa["B"] @ F
        exact = kernel_free_solution(P, sa["A0"], sa["A1"], z_hist, q, n_steps)
        err = np.max(np.abs(z - exact), axis=1)
        ref = np.maximum.accumulate(np.max(np.abs(exact), axis=1))
        worst = float(np.max(err / np.maximum(ref, 1.0)))
        if worst > TRAJ_RTOL:
            problems.append(f"trajectory deviates from the exact solution by {worst:.3g}")
    return problems


def check_svg(text):
    try:
        root = ET.fromstring(text)
    except ET.ParseError as e:
        return [f"SVG does not parse: {e}"]
    if not root.tag.endswith("svg"):
        return [f"SVG root element is {root.tag}"]
    return []


def check_placement(sa, F, omega):
    """Stage-1 contract: A_minus1 + B F has all nonzero eigenvalues inside
    the disk of radius e^-omega (deadbeat targets may scatter around 0)."""
    M = sa["A_minus1"] + sa["B"] @ np.asarray(F, dtype=float)
    rho = float(np.max(np.abs(np.linalg.eigvals(M))))
    if not rho < math.exp(-omega):
        return [f"closed neutral coefficient has spectral radius {rho:.4g} >= e^-{omega}"]
    return []
