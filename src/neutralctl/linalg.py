"""Finite-dimensional linear algebra: tolerance-based numerical rank,
controllability (Kalman) matrices, the orthogonal controllability staircase
and disk-targeted pole placement, one input column at a time.

The staircase is the one place that decides which modes of a pair (A, B) the
input cannot reach: condition 2 of the analysis and the placement's
unstabilizable-mode check both read its uncontrollable_modes(), and the
chains of the spectrum read the modes of (A_minus1, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_RANK_TOL",
    "RANK_FLOOR",
    "RankReport",
    "Staircase",
    "UnstabilizableMode",
    "PlacementError",
    "numerical_rank",
    "kalman_matrix",
    "controllable_staircase",
    "pole_place_nonzero",
]

DEFAULT_RANK_TOL = 1e-9

# A matrix whose largest singular value is at most RANK_FLOOR is numerically
# zero and has rank 0, whatever the relative tolerance.
RANK_FLOOR = 1e-12


class UnstabilizableMode(ValueError):
    """An uncontrollable eigenvalue lies on or outside the target disk."""

    def __init__(self, mu):
        self.mu = complex(mu)
        super().__init__(f"uncontrollable eigenvalue {self.mu} cannot be moved inside the disk")


class PlacementError(RuntimeError):
    """The placed gain leaves a computed eigenvalue of A + B F on or outside
    the disk.  norm_F and max_eig describe that gain."""

    def __init__(self, radius, norm_F, max_eig):
        self.radius, self.norm_F, self.max_eig = float(radius), float(norm_F), float(max_eig)
        super().__init__(
            f"no gain puts every computed eigenvalue of A + B F inside radius {self.radius:.6g}; "
            f"last candidate: ||F|| = {self.norm_F:.6g}, largest |eig| = {self.max_eig:.6g}"
        )


def _check_rank_tol(tol):
    # NaN, an infinite or a non-positive tolerance would rank every matrix
    # zero or full and so decide a verdict instead of failing
    if not 0 < tol < math.inf:
        raise ValueError(f"rank tolerance must be finite and positive, got {tol}")


@dataclass(frozen=True)
class RankReport:
    """Numerical rank of one matrix: rank = #{sigma_i > tolerance_used}."""

    rank: int
    singular_values: np.ndarray
    tolerance_used: float


def numerical_rank(M, tol: float = DEFAULT_RANK_TOL) -> RankReport:
    """Rank of M via SVD with relative threshold tol * sigma_max * max(dims).

    When sigma_max <= RANK_FLOOR the threshold is RANK_FLOOR instead, so a
    numerically zero matrix has rank 0.
    """
    _check_rank_tol(tol)
    M = np.asarray(M)
    if M.size == 0:
        raise ValueError("numerical_rank needs a nonempty matrix")
    s = np.linalg.svd(M, compute_uv=False)
    sigma_max = s[0] if s.size else 0.0
    cutoff = tol * sigma_max * max(M.shape) if sigma_max > RANK_FLOOR else RANK_FLOOR
    rank = int(np.count_nonzero(s > cutoff))
    return RankReport(rank=rank, singular_values=s, tolerance_used=cutoff)


def kalman_matrix(A, B) -> np.ndarray:
    """Horizontal concatenation [B, AB, ..., A^{n-1} B]."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape[0] != n:
        raise ValueError(f"incompatible shapes {A.shape} and {B.shape}")
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


@dataclass(frozen=True)
class Staircase:
    """Orthogonal controllability decomposition of a pair (A, B).

    Q^T A Q has the controllable block of size n_controllable leading and a
    zero block below it; Q^T B is zero outside the leading rows.  The
    eigenvalues of the trailing block are exactly the uncontrollable modes.
    rank_cutoff is the singular value at or below which a block of A counted
    as zero; B's own block is ranked against rank_cutoff * ||B||_F.
    """

    Q: np.ndarray
    n_controllable: int
    A_t: np.ndarray
    B_t: np.ndarray
    rank_cutoff: float

    def uncontrollable_modes(self) -> list[tuple[complex, np.ndarray]]:
        """(mu, v) for each mode of gathered_modes()."""
        return [(mu, v) for mu, v, _ in self.gathered_modes()]

    def gathered_modes(self) -> list[tuple[complex, np.ndarray, int]]:
        """(mu, v, size) for each distinct nonzero eigenvalue mu of the
        trailing block, sorted by (Re, Im), with v^H [mu I - A, B] = 0 and
        size the number of computed eigenvalues gathered into mu.

        The zero eigenvalue is deflated first (Kublanovskaya; Van Dooren,
        LAA 27, 1981): while the block T has singular values at or below
        rank_cutoff, its null vectors are rotated to the front, giving
        [[0, X], [0, T2]], and the search goes on in T2.  What remains has
        no eigenvalue of modulus <= rank_cutoff, so all its eigenvalues are
        modes, however non-normal the block.  A nilpotent block deflates to
        nothing, although its computed eigenvalues scatter up to about
        ||T|| eps^(1/k).  A defective nonzero mode scatters the same way, so
        its computed copies are gathered by the same step: the j computed
        eigenvalues nearest the first one left form one mode, at their mean
        mu, for the largest j such that T - mu I deflates at least j times.
        For a simple mode v = P conj(y), with y a unit eigenvector of the
        last block's transpose and P the orthonormal basis of that block, so
        the identity holds by construction and ||v|| = 1; for a gathered
        mode y is the left singular vector of T - mu I for its smallest
        singular value, and the identity holds up to rank_cutoff.
        """
        r = self.n_controllable
        if r == self.A_t.shape[0]:
            return []
        T, P = _deflate(self.A_t[r:, r:], self.Q[:, r:], self.rank_cutoff)
        if not T.size:
            return []
        mus, Y = np.linalg.eig(T.T)
        eye = np.eye(T.shape[0])
        left = sorted(range(mus.size), key=lambda i: (mus[i].real, mus[i].imag))
        modes = []
        while left:
            near = sorted(left, key=lambda j: abs(mus[j] - mus[left[0]]))
            # the largest passing j, not the first failing one: the mean of
            # three of a Jordan block's four copies is farther off than all four
            size = next(j for j in range(len(near), 0, -1) if j == 1 or len(
                _deflate(T - mus[near[:j]].mean() * eye, eye, self.rank_cutoff)[0]) <= len(T) - j)
            group = near[:size]
            mu = complex(mus[group].mean())
            y = np.conj(Y[:, group[0]]) if size == 1 else np.linalg.svd(T - mu * eye)[0][:, -1]
            modes.append((mu, P @ y, size))
            left = [j for j in left if j not in group]
        return sorted(modes, key=lambda mode: (mode[0].real, mode[0].imag))


def _deflate(T, P, cutoff):
    # while T has singular values at or below cutoff, rotate its null vectors
    # to the front ([[0, X], [0, T2]]) and go on in T2; returns the last T2
    # and the matching columns of the basis P
    while T.size:
        _, s, Vh = np.linalg.svd(T)
        k = int(np.count_nonzero(s > cutoff))
        if k == T.shape[0]:
            break
        V = Vh[:k].conj().T
        T = V.conj().T @ T @ V
        P = P @ V
    return T, P


def controllable_staircase(A, B, tol: float = DEFAULT_RANK_TOL) -> Staircase:
    """Orthogonal similarity splitting (A, B) into controllable and
    uncontrollable blocks by repeated SVDs of the sub-input blocks.

    Every block is ranked against one cutoff, tol * ||[A, B / ||B||_F]||_F
    * (n + m), set by the scale of the whole pair with B taken at unit norm:
    a block that is zero up to rounding of the pair's entries has rank 0,
    however small its own largest singular value, and the verdict does not
    depend on the units of the input.  B = 0 has rank 0.
    """
    _check_rank_tol(tol)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m = B.shape
    cutoff = tol * math.hypot(np.linalg.norm(A), 1.0) * (n + m)
    Q = np.eye(n)
    A_t = A.copy()
    B_t = B.copy()
    row0 = 0
    blk = B_t
    blk_scale = float(np.linalg.norm(B))
    while row0 < n:
        U, s, _ = np.linalg.svd(blk)
        r = int(np.count_nonzero(s > cutoff * blk_scale))
        if r == 0:
            break
        Qk = np.eye(n)
        Qk[row0:, row0:] = U
        A_t = Qk.T @ A_t @ Qk
        B_t = Qk.T @ B_t
        Q = Q @ Qk
        prev = row0
        row0 += r
        if row0 >= n:
            break
        blk = A_t[row0:, prev:row0]
        blk_scale = 1.0
    return Staircase(Q=Q, n_controllable=row0, A_t=A_t, B_t=B_t, rank_cutoff=cutoff)


def pole_place_nonzero(A, B, radius: float, targets=None, tol: float = DEFAULT_RANK_TOL):
    """Gain F such that every computed eigenvalue of A + B F has modulus
    < radius.

    Controllable modes are moved to `targets` (default: all zero, deadbeat)
    one input column at a time (Miminis & Paige, Int. J. Control 35, 1982).
    Column k places the r_k modes it reaches among those the earlier columns
    left at the next r_k targets, by Ackermann's formula on its staircase's
    Hessenberg form H with input beta e1, where e_r^T K^-1 = e_r^T / (beta
    prod diag(H, -1)); its row vanishes on the earlier blocks, which so keep
    their targets.  A column whose part on the modes left is at the
    staircase's rank cutoff, as one the earlier columns span, places none.
    For one input this is the unique single-input gain.  The gain is
    accepted only when max |eigvals(A + B F)| < radius; no condition number
    bounds how far the exact spectrum of the float A + B F lies from the
    computed one.  Raises UnstabilizableMode when a nonzero uncontrollable
    eigenvalue has modulus >= radius, ValueError when a block's targets are
    not closed under conjugation, and PlacementError when the gain fails the
    test, as a deadbeat loop does once its rounding scatter, about
    ||A + B F|| eps^(1/n), reaches the radius.  The rule is the same for
    F = 0 (B reaches no mode) and for uncontrollable zero blocks.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n, m = B.shape
    if radius <= 0:
        raise ValueError("radius must be positive")
    st = controllable_staircase(A, B, tol)
    r = st.n_controllable
    mu = max((mu for mu, _ in st.uncontrollable_modes()), key=abs, default=0.0)
    if abs(mu) >= radius:
        raise UnstabilizableMode(mu)
    if targets is None:
        targets = [0.0] * r
    # the j-th copies of z and conj(z) sort side by side: no even share splits a pair
    targets = [complex(t) for t in targets]
    targets = [z for *_, z in sorted((abs(z), z.real, abs(z.imag), targets[:j].count(z), z.imag, z)
                                     for j, z in enumerate(targets))]
    if len(targets) != r:
        raise ValueError(f"need exactly {r} placement targets, got {len(targets)}")
    if not all(abs(t) < radius for t in targets):
        raise ValueError("placement targets must lie inside the disk")

    F = np.zeros((m, n))
    P = st.Q[:, :r]  # orthonormal basis of the modes no column has placed yet
    for k in range(m):
        b = P.T @ B[:, k]
        # ranked as the staircase ranks B: a column the earlier ones already
        # span leaves only rounding here, which must reach no mode
        if np.linalg.norm(b) <= st.rank_cutoff * np.linalg.norm(B):
            continue
        sk = controllable_staircase(P.T @ A @ P, b.reshape(-1, 1), tol)
        rk = sk.n_controllable
        share, targets = targets[:rk], targets[rk:]
        coeffs = np.atleast_1d(np.poly(share))
        if np.max(np.abs(coeffs.imag)) > 1e-9 * max(1.0, np.max(np.abs(coeffs))):
            raise ValueError("placement targets must be closed under conjugation within "
                             f"each input's block; input {k}'s block of {rk} gets {share}")
        H = sk.A_t[:rk, :rk]
        # g = -e_r^T K^-1 p(H), with e_r^T p(H) by Horner on the row
        row = np.zeros(rk)
        for c in coeffs.real:
            row = row @ H
            row[-1] += c
        g = -row / (sk.B_t[0, 0] * np.prod(np.diag(H, -1)))
        F[k] = g @ sk.Q[:, :rk].T @ P.T
        P = P @ sk.Q[:, rk:]
    max_eig = float(np.max(np.abs(np.linalg.eigvals(A + B @ F))))
    if max_eig < radius:
        return F
    raise PlacementError(radius, np.linalg.norm(F, 2), max_eig)
