"""Metamorphic relations of find_roots: properties that relate the spectra of
related systems, so that they need no reference value.

For a block-diagonal system det D = det D1 * det D2, and an orthogonal
similarity of every coefficient leaves det D unchanged.  Every coefficient
is real, so the spectrum is closed under conjugation.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from neutralctl import KernelSegment, NeutralSystem, SpectrumRegion, find_roots

REGION = SpectrumRegion(-3, 3, -4, 4)
SEGMENTS = ((-1.0, -0.5), (-0.5, 0.0))


def _draw(rng, n, kernels):
    s = 1.0 / math.sqrt(n)
    coeffs = [scale * s * rng.standard_normal((n, n)) for scale in (0.5, 1.0, 0.5)]
    blocks = [[scale * s * rng.standard_normal((n, n)) for scale in (0.3, 0.5)]
              for _ in SEGMENTS] if kernels else []
    return coeffs, blocks


def _system(coeffs, blocks, transform=lambda M: M):
    n = coeffs[0].shape[0]
    A_minus1, A0, A1 = (transform(M) for M in coeffs)
    kernels = tuple(KernelSegment(a, b, transform(A2), transform(A3))
                    for (a, b), (A2, A3) in zip(SEGMENTS, blocks))
    return NeutralSystem(n=n, m=1, p=0, A_minus1=A_minus1, A0=A0, A1=A1, B=np.ones((n, 1)),
                         kernels=kernels)


def _diag(first, second):
    # the coefficients of the block-diagonal system of two drawn systems
    def block(M1, M2):
        n1, n2 = len(M1), len(M2)
        return np.block([[M1, np.zeros((n1, n2))], [np.zeros((n2, n1)), M2]])

    coeffs = [block(M1, M2) for M1, M2 in zip(first[0], second[0])]
    blocks = [[block(M1, M2) for M1, M2 in zip(b1, b2)] for b1, b2 in zip(first[1], second[1])]
    return coeffs, blocks


def _spectrum(sys):
    return [(r.lam, r.multiplicity) for r in find_roots(sys, REGION)]


def _close(a, b):
    return abs(a - b) <= 1e-10 * max(1.0, abs(a))


def _merged(roots):
    # (lam, multiplicity) with the multiplicities of coinciding roots summed
    out = []
    for lam, m in roots:
        for i, (mu, k) in enumerate(out):
            if _close(mu, lam):
                out[i] = (mu, k + m)
                break
        else:
            out.append((lam, m))
    return out


def _assert_same(got, want):
    # the same roots to 1e-10 relative, each with its multiplicity
    want = _merged(want)
    assert len(got) == len(want)
    unmatched = list(want)
    for lam, m in got:
        match = [w for w in unmatched if _close(w[0], lam)]
        assert len(match) == 1 and match[0][1] == m, (lam, m, match)
        unmatched.remove(match[0])


def _assert_conjugate_closed(roots):
    # bit for bit, as find_roots reports a non-real root with its exact conjugate
    assert {(lam.conjugate(), m) for lam, m in roots} == set(roots)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 3), st.booleans())
def test_spectra_of_related_systems(seed, n1, n2, kernels):
    # S1 and S2 are random systems of sizes n1 and n2, both with or both
    # without kernels on the same segments
    rng = np.random.default_rng(seed)
    first, second = _draw(rng, n1, kernels), _draw(rng, n2, kernels)
    s1, s2 = _spectrum(_system(*first)), _spectrum(_system(*second))
    # diag(S1, S1) doubles every multiplicity
    _assert_same(_spectrum(_system(*_diag(first, first))), [(lam, 2 * m) for lam, m in s1])
    # diag(S1, S2) is the union of the two spectra
    both = _diag(first, second)
    union = _spectrum(_system(*both))
    _assert_same(union, s1 + s2)
    # an orthogonal similarity of every coefficient leaves it unchanged
    Q, _ = np.linalg.qr(rng.standard_normal((n1 + n2, n1 + n2)))
    _assert_same(_spectrum(_system(*both, transform=lambda M: Q @ M @ Q.T)), union)
    for roots in (s1, s2, union):
        _assert_conjugate_closed(roots)
