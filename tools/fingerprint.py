"""Fingerprint of the answers neutralctl gives on a fixed set of inputs.

    python tools/fingerprint.py [--quick]

Runs, in one process, on the src/ tree next to this directory:

- seeds 1-8 of the three benchmark workloads, op after op through
  bench/workloads.py, each op with the remembered find_roots search cleared
  and then checked by the workload's oracles;
- the random search corpus: seeds 1-12, n = 2-7, with and without two
  kernel segments, on three fixed windows and default_region (576 searches);
- the CLI matrix on the four system files of tests/conftest.py: spectrum,
  the three checks, synthesize with no, some and all region flags, and
  simulate with and without a history and a feedback file.

spectrum._search is wrapped, so every search prints one line: its roots by
repr, or the type and message of the error it raised, and the points at
which it evaluated det D and its log-derivative (_det_logderiv_many).  Every
op prints its outcome, the oracles' problems and a hash of its artifacts,
and every CLI run its exit code and hashes of stdout, stderr and each file
it wrote.  The last line is one sha256 over all lines.  Running the tool on
two trees and diffing the outputs shows whether a change keeps every answer
bit for bit.  --quick runs seed 1 of the workloads and of the corpus only.
Nothing under bench/ is written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in bench/ or tests/
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import conftest  # noqa: E402
import workloads  # noqa: E402

from neutralctl import KernelSegment, NeutralSystem, SpectrumRegion, analysis, spectrum  # noqa: E402
from neutralctl.cli import main as cli_main  # noqa: E402

CORPUS_WINDOWS = {"tall": (-4, 3, -25, 25), "small": (-3, 3, -4, 4),
                  "mid": (-2.5, 1.5, -12, 12), "default": None}
FIXTURES = {"ex3": conftest.EX3_JSON, "ex4": conftest.EX4_JSON,
            "ex5": conftest.EX5_JSON, "kernel": conftest.KERNEL_JSON}


class Recorder:
    """The printed lines, their running hash, the op being run and the
    points of the wrapped log-derivative."""

    def __init__(self):
        # the stream at start: CLI ops run with stdout redirected
        self.stream = sys.stdout
        self.digest = hashlib.sha256()
        self.context = ""
        self.points = 0

    def emit(self, line):
        print(line, file=self.stream, flush=True)
        self.digest.update(line.encode() + b"\n")

    def install(self):
        search, logderiv = spectrum._search, spectrum._det_logderiv_many

        def counted(sys_, lam):
            self.points += np.size(lam)
            return logderiv(sys_, lam)

        def searched(sys_, region, tol):
            start = self.points
            try:
                roots = search(sys_, region, tol)
            except Exception as e:
                self.emit(f"search {self.context}: raises {type(e).__name__}: {e} "
                          f"points {self.points - start}")
                raise
            self.emit(f"search {self.context}: {roots!r} points {self.points - start}")
            return roots

        spectrum._det_logderiv_many, spectrum._search = counted, searched


def _sha(data):
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()[:16]


def _artifacts(data):
    # the files a CLI op wrote, or the verdicts an in-process op returned
    if isinstance(data, dict):
        return " ".join(f"{name}={_sha(text)}" for name, text in sorted(data.items()))
    if data is None:
        return "none"
    return _sha(json.dumps([analysis.verdict_to_dict(v) for v in data], sort_keys=True))


def run_workloads(rec, seeds):
    for seed in seeds:
        for name, cls in workloads.WORKLOADS.items():
            with tempfile.TemporaryDirectory() as work:
                wl = cls(seed, work)
                for i in range(wl.round_size):
                    rec.context = f"{name} seed {seed} op {i}"
                    spectrum._last_search = None
                    inp = wl.prepare(i)
                    try:
                        out = wl.run(inp)
                    except Exception as e:
                        out = workloads.Outcome(False, error=type(e).__name__)
                    wl.collect(inp, out)
                    try:
                        problems = wl.check(inp, out) if out.ok else []
                    except Exception as e:
                        problems = [f"checking raised {type(e).__name__}: {e}"]
                    state = "ok" if out.ok else f"failed {out.error}"
                    rec.emit(f"op {rec.context}: {state} roots {out.roots} steps {out.steps} "
                             f"problems {problems!r} artifacts {_artifacts(out.data)}")


def corpus_system(seed, n, kernels):
    rng = np.random.default_rng([seed, n, int(kernels)])
    s = 1.0 / math.sqrt(n)
    A_minus1, A0, A1 = (rng.standard_normal((n, n)) * f for f in (0.5 * s, s, 0.5 * s))
    segs = ()
    if kernels:
        segs = tuple(KernelSegment(a, b, rng.standard_normal((n, n)) * 0.3 * s,
                                   rng.standard_normal((n, n)) * 0.5 * s)
                     for a, b in ((-1.0, -0.5), (-0.5, 0.0)))
    return NeutralSystem(n=n, m=1, p=0, A_minus1=A_minus1, A0=A0, A1=A1,
                         B=np.ones((n, 1)), kernels=segs)


def run_corpus(rec, seeds):
    for seed in seeds:
        for n in range(2, 8):
            for kernels in (False, True):
                sys_ = corpus_system(seed, n, kernels)
                for label, window in CORPUS_WINDOWS.items():
                    rec.context = f"corpus seed {seed} n {n} kernels {int(kernels)} {label}"
                    spectrum._last_search = None
                    region = (spectrum.default_region(sys_) if window is None
                              else SpectrumRegion(*window))
                    with contextlib.suppress(spectrum.SpectrumError):  # the search printed it
                        spectrum.find_roots(sys_, region)


def cli_matrix():
    # (label, argv) of every run on one fixture file, before --system and
    # --out; {hist} and {fb} stand for the history and feedback files
    region = ["--re-min", "-3", "--re-max", "2", "--im-max", "8"]
    runs = [(cmd, [cmd]) for cmd in ("spectrum", "check-controllability",
                                     "check-stabilizability", "check-observability")]
    for label, flags in (("none", []), ("re-min", region[:2]), ("im-max", region[4:]),
                         ("all", region)):
        runs.append((f"synthesize {label}", ["synthesize", "--omega", "1", *flags]))
    for label, extra in (("plain", []), ("feedback", ["--feedback", "{fb}"]),
                         ("history", ["--history", "{hist}", "--horizon", "3"]),
                         ("history feedback", ["--history", "{hist}", "--feedback", "{fb}",
                                               "--horizon", "3"])):
        runs.append((f"simulate {label}", ["simulate", *extra]))
    return runs


def run_cli(rec, work):
    work = Path(work)
    theta = -1.0 + np.arange(101) / 100
    hist = work / "history.json"
    hist.write_text(json.dumps({"z": np.stack([theta + 1, np.ones_like(theta)], 1).tolist()}),
                    encoding="utf-8")
    fb = work / "feedback.json"
    fb.write_text(json.dumps({"F_minus1": [[-0.5, 0.0]], "F0": [[-1.0, 0.0]]}), encoding="utf-8")
    for fixture, text in FIXTURES.items():
        path = work / f"{fixture}.json"
        path.write_text(text, encoding="utf-8")
        for k, (label, argv) in enumerate(cli_matrix()):
            rec.context = f"cli {fixture} {label}"
            out = work / f"{fixture}-{k}"
            fill = {"{hist}": str(hist), "{fb}": str(fb)}
            argv = [fill.get(a, a) for a in argv] + ["--system", str(path), "--out", str(out)]
            spectrum._last_search = None
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli_main(argv)
            texts = [s.getvalue().replace(str(work), "<work>") for s in (stdout, stderr)]
            files = sorted(out.iterdir()) if out.exists() else []
            rec.emit(" ".join([f"{rec.context}: exit {code} stdout {_sha(texts[0])}",
                               f"stderr {_sha(texts[1])}",
                               *(f"{f.name}={_sha(f.read_bytes())}" for f in files)]))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--quick", action="store_true", help="seed 1 of the workloads and the corpus")
    args = p.parse_args(argv)
    seeds = [1] if args.quick else range(1, 9)
    rec = Recorder()
    rec.install()
    run_workloads(rec, seeds)
    run_corpus(rec, [1] if args.quick else range(1, 13))
    with tempfile.TemporaryDirectory() as work:
        run_cli(rec, work)
    print(f"sha256 {rec.digest.hexdigest()}", file=rec.stream)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
