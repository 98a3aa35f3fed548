"""Acceptance suite: one test per shipped criterion.

Each test prints a single pass line (bypassing capture so it shows up in
any report) and enforces the criterion's tolerances and runtime budget.
"""

import json
import math
import sys
import time
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from conftest import neutral_pair
import neutralctl as nc
from neutralctl.cli import main as cli_main

Z2 = np.zeros((2, 2))


class timed:
    """Times a criterion and prints its pass/fail line past pytest capture."""

    def __init__(self, capfd, num, label, limit):
        self.capfd, self.num, self.label, self.limit = capfd, num, label, limit

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        line = (
            f"criterion {self.num:2d}: {status} in {elapsed:6.2f}s "
            f"(limit {self.limit:g}s): {self.label}"
        )
        with self.capfd.disabled():
            print(line, file=sys.stderr, flush=True)
        if exc_type is None:
            assert elapsed < self.limit, f"criterion {self.num} exceeded {self.limit}s"
        return False


def test_criterion_01_example3_controllable(capfd, ex3, ex3_file, tmp_path):
    with timed(capfd, 1, "example 3 fixture stabilizable and controllable, exact ranks", 1.0):
        out = tmp_path / "c1"
        assert cli_main(["check-stabilizability", "--system", str(ex3_file),
                         "--out", str(out)]) == 0
        assert cli_main(["check-controllability", "--system", str(ex3_file),
                         "--out", str(out)]) == 0
        aug = np.hstack([nc.delta(ex3, 0.0), ex3.B.astype(complex)])
        assert nc.numerical_rank(aug, tol=1e-9).rank == 2
        assert nc.numerical_rank(nc.kalman_matrix(ex3.A_minus1, ex3.B), tol=1e-9).rank == 2


def test_criterion_02_example4_observable(capfd, ex4, ex4_file, tmp_path):
    with timed(capfd, 2, "example 4 fixture finally observable through y = z1(t-1)", 1.0):
        out = tmp_path / "c2"
        code = cli_main(["check-observability", "--system", str(ex4_file),
                         "--re-min", "-2", "--re-max", "2", "--im-max", "14",
                         "--out", str(out)])
        assert code == 0
        dual = nc.transpose_dual(ex4)
        K = nc.kalman_matrix(dual.A_minus1, dual.B)
        assert np.array_equal(K, [[1.0, 0.0], [0.0, -1.0]])
        assert nc.numerical_rank(K, tol=1e-9).rank == 2


def test_criterion_03_example5_verdict(capfd, ex5):
    with timed(capfd, 3, "example 5 fixture passes both conditions, Kalman rank 1", 10.0):
        region = nc.SpectrumRegion(-1, 1, -40, 40)
        verdict = nc.check_stabilizability(ex5, region)
        assert verdict.overall
        assert verdict.condition1.passed and verdict.condition2.passed
        # null controllability distinguished from full controllability
        assert nc.numerical_rank(nc.kalman_matrix(ex5.A_minus1, ex5.B)).rank == 1
        assert nc.check_null_controllability(ex5, region).status == "conjecture-pass"


def test_criterion_04_spectrum_oracle(capfd, ex5):
    with timed(capfd, 4, "example 5 spectrum: triple zero and 2 pi i k chain roots", 10.0):
        assert nc.count_zeros(ex5, nc.SpectrumRegion(-1, 1, -7, 7)) == 5
        roots = nc.find_roots(ex5, nc.SpectrumRegion(-1, 1, -40, 40))
        by_k = {round(r.lam.imag / (2 * math.pi)): r for r in roots}
        assert set(by_k) == set(range(-6, 7))
        assert by_k[0].multiplicity == 3 and abs(by_k[0].lam) < 1e-8
        for k in list(range(-6, 0)) + list(range(1, 7)):
            assert by_k[k].multiplicity == 1
            assert abs(by_k[k].lam - 2j * math.pi * k) < 1e-8
        assert all(r.residual < 1e-10 for r in roots)


def test_criterion_05_chain_asymptotics(capfd, ):
    with timed(capfd, 5, "chain at ln(1/2): deviations bounded by fitted C/|k|", 30.0):
        sys_ = nc.NeutralSystem(
            n=2, m=1, p=0, A_minus1=np.diag([0.5, 0.0]), A0=Z2, A1=Z2, B=[[0], [0]]
        )
        chains = nc.predict_chains(sys_)
        assert len(chains) == 1 and abs(chains[0].abscissa - math.log(0.5)) < 1e-14
        top = 2 * math.pi * 20 + math.pi
        roots = nc.find_roots(sys_, nc.SpectrumRegion(-1.2, -0.2, -top, top))
        devs = {}
        for r in roots:
            k = round(r.lam.imag / (2 * math.pi))
            devs[abs(k)] = max(devs.get(abs(k), 0.0), abs(r.lam.real - math.log(0.5)))
        assert all(k in devs for k in range(5, 21))
        # this fixture's chain is exact, so deviations sit at the root-finder
        # noise floor; the fitted constant carries that floor explicitly
        floor = 1e-9
        C = max(max(devs[k] * k for k in range(5, 9)), floor * 20)
        for k in range(5, 21):
            assert devs[k] <= C / k + floor
        smoothed = [max(devs[k], floor) for k in range(5, 21)]
        for a, b in zip(smoothed, smoothed[1:]):
            assert b <= 1.1 * a


def _exact_rank(rows):
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _exact_kalman_inclusion(A, B):
    """Im A^n inside Im [B, AB, ..., A^(n-1) B] for integer matrices given as
    lists of rows, decided in exact arithmetic (no numpy).  It is equivalent
    to rank [mu I - A, B] = n for every mu != 0."""
    n = len(A)

    def mul(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(len(Y[0]))]
                for i in range(n)]

    blocks = [B]
    for _ in range(n - 1):
        blocks.append(mul(A, blocks[-1]))
    An = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        An = mul(A, An)
    K = [sum((blk[i] for blk in blocks), []) for i in range(n)]
    return _exact_rank(K) == _exact_rank([K[i] + An[i] for i in range(n)])


def test_criterion_06_rank_test_equivalence(capfd, ):
    with timed(capfd, 6, "staircase condition 2 equals exact Kalman-image inclusion on 1000 pairs",
               30.0):
        rng = np.random.default_rng(20250101)
        agree = 0
        for _ in range(1000):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 4))
            A = rng.integers(-2, 3, size=(n, n))
            B = rng.integers(-2, 3, size=(n, m))
            if nc.check_condition2(neutral_pair(A, B)).passed == _exact_kalman_inclusion(A.tolist(), B.tolist()):
                agree += 1
        assert agree == 1000


def _random_system_with_output(rng):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 3))
    p = int(rng.integers(1, 3))
    half = lambda shape: rng.integers(-2, 3, size=shape).astype(float) / 2.0
    return nc.NeutralSystem(
        n=n, m=m, p=p,
        A_minus1=half((n, n)), A0=half((n, n)), A1=half((n, n)),
        B=half((n, m)), C=half((p, n)),
    )


def _manual_transpose(sys_):
    return nc.NeutralSystem(
        n=sys_.n, m=sys_.p, p=sys_.m,
        A_minus1=np.asarray(sys_.A_minus1).T,
        A0=np.asarray(sys_.A0).T,
        A1=np.asarray(sys_.A1).T,
        B=np.asarray(sys_.C).T,
        C=np.asarray(sys_.B).T,
    )


def test_criterion_07_duality(capfd, ex3, ex4, ex5, ex5_transposed):
    with timed(capfd, 7, "observability equals controllability of the transposed system", 60.0):
        fixtures = [
            nc.NeutralSystem(n=2, m=1, p=1, A_minus1=ex3.A_minus1, A0=ex3.A0,
                             A1=ex3.A1, B=ex3.B, C=[[0, 1]]),
            ex4,
            ex5_transposed,
        ]
        rng = np.random.default_rng(777)
        systems = fixtures + [_random_system_with_output(rng) for _ in range(100)]
        region = nc.SpectrumRegion(-3.0, 3.0, -4.0, 4.0)
        for sys_ in systems:
            obs = nc.check_final_observability(sys_, region)
            ctrl = nc.check_null_controllability(_manual_transpose(sys_), region)
            assert obs.overall == ctrl.overall
            assert obs.condition1.passed == ctrl.condition1.passed
            assert obs.condition2.passed == ctrl.condition2.passed


def test_criterion_08_stage1_synthesis(capfd, ex5):
    with timed(capfd, 8, "stage-1 gain for example 5 at omega = 1", 5.0):
        plan = nc.synthesize_stage1(ex5, 1.0, nc.SpectrumRegion(-2, 2, -14, 14))
        closed = ex5.A_minus1 + ex5.B @ plan.F_minus1
        eigs = np.linalg.eigvals(closed)
        radius = math.exp(-1.0)
        assert np.all((np.abs(eigs) < radius) | (np.abs(eigs) < 1e-9))
        assert plan.chains_after == ()
        assert len(plan.residual_roots) == 1
        assert plan.residual_roots[0].multiplicity == 2
        assert abs(plan.residual_roots[0].lam) < 1e-8
        assert plan.stage1_ok and plan.stage2_required


def test_criterion_09_simulator_oracles(capfd, ex3):
    with timed(capfd, 9, "hand, matrix-exponential and order-of-accuracy oracles", 30.0):
        q = 1000
        hist = nc.History.from_function(
            lambda th: np.array([th + 1.0, 1.0]), q, dfn=lambda th: np.array([1.0, 0.0])
        )
        traj = nc.simulate(ex3, hist, horizon=3.0, step=1.0 / q)
        exact = np.stack([1.0 + traj.t, np.ones_like(traj.t)], axis=1)
        assert np.max(np.abs(traj.z - exact)) <= 1e-8

        A0 = np.array([[0.0, 1.0], [-2.0, -3.0]])
        ode = nc.NeutralSystem(n=2, m=1, p=0, A_minus1=Z2, A0=A0, A1=Z2, B=[[0], [1]])
        z0 = np.array([1.0, -0.5])
        traj = nc.simulate(ode, nc.History.constant(z0, q), horizon=3.0, step=1.0 / q)
        for j in (1000, 3000):
            ref = expm(A0 * traj.t[j]) @ z0
            assert np.linalg.norm(traj.z[j] - ref) <= 1e-8 * np.linalg.norm(ref)

        def max_err(qq):
            t = nc.simulate(ode, nc.History.constant(z0, qq), horizon=2.0, step=1.0 / qq)
            return max(
                np.linalg.norm(t.z[j] - expm(A0 * t.t[j]) @ z0)
                for j in range(0, 2 * qq + 1, qq // 5)
            )

        assert max_err(10) / max_err(20) >= 8.0


def test_criterion_10_decay_estimates(capfd, ex5):
    with timed(capfd, 10, "decay estimates match the closed-loop spectra", 30.0):
        scalar = nc.NeutralSystem(n=1, m=1, p=0, A_minus1=[[0]], A0=[[1]], A1=[[0]], B=[[1]])
        law = nc.FeedbackLaw([[0.0]], [[-3.0]], [[0.0]])
        traj = nc.simulate_closed_loop(scalar, law, nc.History.constant([1.0], 100),
                                       horizon=5.0, step=0.01)
        assert abs(nc.estimate_decay(traj, (1.0, 5.0)) - 2.0) <= 0.01

        stage1 = nc.FeedbackLaw([[-1.0, 0.0]], np.zeros((1, 2)), np.zeros((1, 2)))
        traj = nc.simulate_closed_loop(ex5, stage1, nc.History.constant([1.0, 0.0], 100),
                                       horizon=40.0, step=0.01)
        assert abs(nc.estimate_decay(traj, (30.0, 40.0))) <= 0.05


def test_criterion_11_implication_chain(capfd, ex3, ex4, ex5):
    with timed(capfd, 11, "null-controllable fixtures synthesize at omega in {1/2, 1, 2}", 60.0):
        region = nc.SpectrumRegion(-3.0, 3.0, -4.0, 4.0)
        fixtures = [ex3, ex5, nc.transpose_dual(ex4)]
        rng = np.random.default_rng(4242)
        while len(fixtures) < 11:
            sys_ = _random_system_with_output(rng)
            fixtures.append(sys_)
        passing = [s for s in fixtures if nc.check_null_controllability(s, region).overall]
        assert len(passing) >= 6
        for sys_ in passing:
            assert nc.check_stabilizability(sys_, region).overall
            for omega in (0.5, 1.0, 2.0):
                plan = nc.synthesize_stage1(sys_, omega, region)
                assert plan.stage1_ok


def test_criterion_12_determinism(capfd, ex5_file, kernel_file, tmp_path):
    with timed(capfd, 12, "byte-identical outputs across repeated runs", 60.0):
        payloads = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli_main(["spectrum", "--system", str(ex5_file), "--re-min", "-1",
                             "--re-max", "1", "--im-max", "40", "--out", str(out)]) == 0
            assert cli_main(["check-stabilizability", "--system", str(ex5_file),
                             "--out", str(out)]) == 0
            assert cli_main(["simulate", "--system", str(kernel_file), "--horizon", "3",
                             "--out", str(out)]) == 0
            payloads.append(tuple(
                (out / artifact).read_bytes()
                for artifact in ("roots.csv", "verdict.json", "trajectory.csv", "trajectory.svg")
            ))
        assert payloads[0] == payloads[1]
        json.loads(payloads[0][1])  # verdict stays valid JSON
