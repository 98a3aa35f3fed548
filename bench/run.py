"""neutralctl benchmark: one closed-loop workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the program is imported from the src/ tree next to
this directory.  The seed makes one round of ops, and one caller replays
that round, op after op, for S seconds.  Each pass over the round runs in a
fresh interpreter, so nothing the program keeps in memory carries over from
one pass into the next.  The first pass is checked by the oracles in
oracles.py, outside the timed region of each op, and every later pass must
reproduce its outputs.  Each timed op runs side by side, on the same CPU,
with the same op of a frozen copy of the program as it was when the
benchmark was defined (reference/neutralctl_ref), and the gated times are
the program's over the reference's: the shared machine's speed drifts by up
to 2x within minutes, and the ratio of two like ops run side by side does
not.  The last stdout
line is one JSON object with correct/attempted/failed and the metrics: the
end-to-end metrics with --trace 0, the per-layer metrics of tracing.py with
--trace 1.  See NOTES.md for the workloads, the metrics and what each
layer should move.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
WORKLOADS = ("verdicts-small", "spectrum-wide", "simulate-closed-loop")

# setup_s is the program's set-up over the reference's, timed side by side,
# times this constant, so that it reads roughly in seconds: the reference's
# median set-up time while the benchmark was tuned on the machine named in
# NOTES.md.
REF_SETUP_S = {"verdicts-small": 0.374, "spectrum-wide": 0.411, "simulate-closed-loop": 0.400}

# loaded before a set-up is timed, so that the program's set-up and the
# reference's run on an equal footing: numpy and the standard modules the
# program imported when the benchmark was defined
PRELOAD = ("argparse", "cmath", "concurrent.futures", "dataclasses", "hashlib", "io",
           "json", "math", "os", "pathlib", "numpy", "oracles")

# set-up time is the median of at least this many set-ups: one per pass,
# and probes in fresh interpreters to make up the count
SETUPS = 3

# ops at the start of the round that the memory pass runs: tracemalloc
# slows them 3 to 6 times, so about 5 s per run
MEMORY_OPS = {"verdicts-small": 6, "spectrum-wide": 2, "simulate-closed-loop": 1}

Record = collections.namedtuple("Record", "pass_no slot seconds ok error roots steps ref_seconds")

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up the program and the reference, print the times and exit")
    p.add_argument("--pass-index", type=int,
                   help="run pass N over the round in this interpreter, print its ops and exit")
    p.add_argument("--reference", action="store_true",
                   help="with --pass-index: run the frozen reference next to each op")
    p.add_argument("--reference-worker", action="store_true",
                   help="serve the frozen reference's side of a pass (see Reference)")
    return p.parse_args(argv)


def preload():
    """PRELOAD, and a first call of each numpy.linalg routine the program
    uses."""
    sys.path[:0] = [str(BENCH), str(SRC)]
    for module in PRELOAD:
        importlib.import_module(module)
    import numpy as np

    for f in (np.linalg.det, np.linalg.svd, np.linalg.eigvals):
        f(np.eye(2))
    np.linalg.solve(np.eye(2), np.ones(2))


def setup(name, seed, work, reference=None):
    """Import, input generation and warm-up of the program, timed together
    after preload(); with a reference, side by side with its set-up.
    Returns the reference's set-up time too, or None."""
    preload()
    if reference is not None:
        reference.send("setup")
    t0 = time.process_time()
    import workloads  # imports neutralctl

    if not Path(workloads.nc.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"neutralctl was imported from {workloads.nc.__file__}, not {SRC}")
    wl = workloads.WORKLOADS[name](seed, work)
    inputs = [wl.prepare(i) for i in range(wl.round_size)]
    workloads.warm_up(work)
    dt = time.process_time() - t0
    return workloads, wl, inputs, dt, reference.receive() if reference else None


class Reference:
    """The frozen reference in an interpreter of its own, started by this
    one, which has pinned itself to one CPU; the two take turns on it every
    few milliseconds, so both meet the same machine speed.  send("setup")
    or send(k) starts the reference's set-up or its op k, to run while this
    interpreter does the same; receive() returns the CPU seconds it took."""

    def __init__(self, args):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--reference-worker"]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
        if self.proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("the reference worker did not start")

    def send(self, command):
        self.proc.stdin.write(f"{command}\n")
        self.proc.stdin.flush()

    def receive(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference worker ended early")
        return float(line)

    def close(self):
        if self.proc.poll() is None:
            with contextlib.suppress(OSError):
                self.send("quit")
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def reference_worker(args, work):
    """The reference's side of Reference: set-up and ops on command, each
    answered with its CPU seconds."""
    preload()
    import workloads

    print("ready", flush=True)
    for line in sys.stdin:
        command = line.strip()
        if command == "quit":
            break
        t0 = time.process_time()
        if command == "setup":
            sys.path.insert(0, str(REFERENCE))
            import neutralctl_ref

            wl = workloads.WORKLOADS[args.workload](args.seed, work, neutralctl_ref)
            inputs = [wl.prepare(i) for i in range(wl.round_size)]
            workloads.warm_up(work, neutralctl_ref)
            dt = time.process_time() - t0
        else:
            k = int(command)
            try:
                out = wl.run(inputs[k])
            except Exception as e:  # it fails where the program failed when frozen
                out = workloads.Outcome(False, error=type(e).__name__)
            dt = time.process_time() - t0
            wl.collect(inputs[k], out)
        print(dt, flush=True)
    return 0


def child(args, *extra):
    """Run this script in a fresh interpreter; returns its JSON result line."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} failed: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def output_of(wl, out):
    """What the program answered, before any oracle: the same input must
    give the same string in every pass."""
    if not out.ok:
        return f"failed {out.error}"
    return hashlib.sha256(repr(wl.fingerprint(out)).encode()).hexdigest()


def one_pass(args, workloads, wl, inputs, reference=None):
    """One pass over the round, op after op: each op starts when the previous
    one has finished.  Pass 0 checks every op with the oracles, outside its
    timed region.  With --trace 1 the program runs under the tracer.  With a
    reference, each op runs side by side with the reference's, and both are
    timed by their process's CPU time."""
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    # the benchmark's own span around each op is the parent of its layers
    run = wl.run if tracer is None else tracer.wrap("bench.op", wl.run)
    ops, problems = [], []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for k, inp in enumerate(inputs):
            if tracer is not None:
                tracer.op = k
            if reference is not None:
                reference.send(k)
            clock = time.perf_counter if reference is None else time.process_time
            t0 = clock()
            try:
                out = run(inp)
            except Exception as e:  # an op that raises is a failed op, not a crash
                out = workloads.Outcome(False, error=type(e).__name__)
            dt = clock() - t0
            ref_s = reference.receive() if reference is not None else None
            wl.collect(inp, out)
            output = output_of(wl, out)
            if args.pass_index == 0:
                problems += [f"op {k}: {p}" for p in check(wl, inp, out)]
            ops.append([dt, output, out.ok, out.error, out.roots, out.steps, ref_s])
    result = {"ops": ops, "problems": problems,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        result["aggregate"] = tracer.aggregate()
        if args.pass_index == 1:
            tracer.write(trace_path(args))
    return result


def check(wl, inp, out):
    """The oracles on one op.  A problem makes the op failed and the run
    incorrect; a wrong verdict makes the op failed only (see
    workloads.wrong_verdict)."""
    try:
        found = wl.check(inp, out) if out.ok else []
    except Exception as e:  # e.g. an artifact the op should have written
        found = [f"checking raised {type(e).__name__}: {e}"]
    if found:
        out.ok, out.error = False, "oracle"
    return found


def trace_path(args):
    return ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"


def passes(args, seconds=None, count=None, trace=0, reference=False):
    """Passes over the round, each in a fresh interpreter.  With `seconds`,
    another pass starts unless it would end, on average, more than half a
    pass past that much busy time (the program's and the reference's); with
    `count`, that many.  Returns the passes' results, one Record per op, and
    the problems: pass 0's oracle findings and every op whose output differs
    from pass 0's."""
    results, records, problems = [], [], []
    busy = 0.0
    for r in itertools.count():
        if r == count or (seconds is not None and r and busy * (1 + 0.5 / r) > seconds):
            break
        extra = ("--trace", str(trace if r else 0)) + (("--reference",) if reference else ())
        res = child(args, "--pass-index", str(r), *extra)
        results.append(res)
        problems += [f"pass {r}, {p}" for p in res["problems"]]
        for k, (dt, output, *_, ref_s) in enumerate(res["ops"]):
            first = results[0]["ops"][k]
            if output != first[1]:
                problems.append(f"pass {r}, op {k}: another output than in pass 0")
            busy += dt + (ref_s or 0.0)
            records.append(Record(r, k, dt, *first[2:6], ref_s))
    return results, records, problems


def op_peaks(workloads, wl, inputs, first):
    """Peak memory the program allocates during each op at the start of the
    round, in MB above what was allocated before the op, as tracemalloc
    counts it (numpy reports its buffers to it).  These are the first runs
    of the ops in this interpreter; the pass is untimed."""
    peaks, problems = [], []
    tracemalloc.start()
    try:
        for k, inp in enumerate(inputs[:MEMORY_OPS[wl.name]]):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                out = wl.run(inp)
            except Exception as e:
                out = workloads.Outcome(False, error=type(e).__name__)
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)
            wl.collect(inp, out)
            if output_of(wl, out) != first["ops"][k][1]:
                problems.append(f"memory pass, op {k}: another output than in pass 0")
    finally:
        tracemalloc.stop()
    return peaks, problems


def nearest_rank(sorted_values, q):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def environment(args, numpy):
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def timed_run(args, workloads, wl, inputs, work):
    results, records, problems = passes(args, seconds=args.seconds, reference=True)
    setups = [(res["setup_s"], res["ref_setup_s"]) for res in results]
    setups += [tuple(child(args, "--setup-probe").values()) for _ in range(SETUPS - len(setups))]
    setup_s = statistics.median(s * REF_SETUP_S[wl.name] / r for s, r in setups)
    # printed only: the interpreter and numpy set most of it
    peak_rss_mb = max(res["peak_rss_mb"] for res in results)
    peaks, found = op_peaks(workloads, wl, inputs, results[0])
    problems += found
    problems += [f"fixture: {p}" for p in workloads.fixtures(work)]

    # each input's times are medians over the passes, which keeps a short
    # burst of contention on the shared machine out of the figures
    slots = collections.defaultdict(list)
    for r in records:
        slots[r.slot].append(r)
    median_s = [statistics.median(r.seconds for r in rs) for rs in slots.values()]
    ref_median_s = [statistics.median(r.ref_seconds for r in rs) for rs in slots.values()]
    ratios = [statistics.median(r.seconds / r.ref_seconds for r in rs) for rs in slots.values()]
    total = sum(median_s)
    time_vs_ref = total / sum(ref_median_s)
    op_p50_vs_ref = statistics.median(ratios)
    firsts = [rs[0] for rs in slots.values()]
    done = [r for r in firsts if r.ok]
    ops_per_s = len(done) / total
    roots = sum(r.roots for r in done)
    steps = sum(r.steps for r in done)
    # a failed op misses every latency limit
    p50 = statistics.median(t if r.ok else math.inf for t, r in zip(median_s, firsts))
    every = sorted(r.seconds if r.ok else math.inf for r in records)
    tail = min(90, math.floor(100 * (len(every) - 10) / len(every)))
    tail = tail if tail > 50 else None
    busy = sum(r.seconds for r in records)
    ref_busy = sum(r.ref_seconds for r in records)
    failed = len(firsts) - len(done)
    errors = collections.Counter(r.error for r in firsts if not r.ok)
    lines = [
        f"setup_s = {setup_s:.4f} s (median over {len(setups)} interpreters of the program's "
        f"set-up / the reference's times {REF_SETUP_S[wl.name]} s; measured: "
        f"{', '.join(f'{s:.3f}/{r:.3f}' for s, r in setups)} s)",
        f"time_vs_ref = {time_vs_ref:.4f} ratio (program {busy:.2f} s, reference {ref_busy:.2f} s "
        f"over {len(results)} passes of {len(firsts)} ops; each input's time is its median "
        f"over the passes)",
        f"op_p50_vs_ref = {op_p50_vs_ref:.4f} ratio (median over the inputs of program / reference)",
        "as measured, moving with the machine's speed:",
        f"ops_per_s = {ops_per_s:.4f} 1/s ({len(done)} of {len(firsts)} inputs complete)",
        f"op_p50_s = {p50:.4f} s (median over {len(firsts)} inputs: "
        f"{', '.join(f'{t:.3f}' if r.ok else f'({t:.3f})' for t, r in zip(median_s, firsts))}; "
        f"failed in brackets)",
        f"op_p{tail}_s = {nearest_rank(every, tail / 100):.4f} s ({len(every)} ops; the highest "
        f"percentile up to 90 with ten ops beyond it)" if tail
        else f"op tail percentile: not reported, {len(every)} ops",
        f"roots_per_s = {roots / total:.4f} 1/s ({roots} roots per pass)",
    ]
    if steps:
        lines.append(f"sim_steps_per_s = {steps / total:.2f} 1/s ({steps} RK4 steps per pass)")
    lines.append(f"failed_frac = {failed / len(firsts):.4f} ({failed} of {len(firsts)} inputs)")
    lines.append(f"op_peak_mb = {statistics.median(peaks):.4f} MB (median over the first "
                 f"{len(peaks)} ops: {', '.join(f'{p:.3f}' for p in peaks)}); "
                 f"peak_rss_mb = {peak_rss_mb:.1f} MB (largest of the passes' processes)")
    if errors:
        lines.append(f"failures by cause: {json.dumps(dict(sorted(errors.items())))}")
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "time_vs_ref": {"value": time_vs_ref, "unit": "ratio"},
        "op_p50_vs_ref": {"value": op_p50_vs_ref, "unit": "ratio"},
        "op_peak_mb": {"value": statistics.median(peaks), "unit": "MB"},
    }
    return lines, problems, len(firsts), failed, metrics


def traced_run(args, workloads, wl, work):
    """One pass untraced (the oracles' pass and the reference for the
    overhead), then two traced passes over the same round."""
    import tracing

    results, records, problems = passes(args, count=3, trace=1)
    busy = [sum(r.seconds for r in records if r.pass_no == i) for i in range(3)]
    layers = []
    for res in results[1:]:
        agg = collections.defaultdict(float, res["aggregate"])
        agg["trace.overhead_s"] = statistics.mean(busy[1:]) - busy[0]
        layers.append(tracing.layer_metrics(agg))
    for name, unit, _ in tracing.PER_LAYER:
        a, b = layers[0][name]["value"], layers[1][name]["value"]
        if unit != "s" and a != b:
            problems.append(f"trace self-check: {name} = {a} then {b} on the same ops")
        elif unit == "s":
            layers[0][name]["value"] = (a + b) / 2.0
    problems += [f"fixture: {p}" for p in workloads.fixtures(work)]
    reference = [r for r in records if r.pass_no == 0]
    failed = sum(not r.ok for r in reference)
    lines = [f"traced {len(reference)} ops (one pass) twice; untraced {busy[0]:.3f} s, "
             f"traced {busy[1]:.3f} s and {busy[2]:.3f} s; spans in {trace_path(args)}"]
    lines += [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in layers[0].items()]
    return lines, problems, len(reference), failed, layers[0]


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "neutralctl" / "__init__.py").is_file():
        print(f"error: no neutralctl sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    # the default single-worker search is what is measured
    threads_env = os.environ.pop("NEUTRALCTL_THREADS", None)
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    reference = None
    try:
        if args.reference_worker:
            return reference_worker(args, work)
        if args.setup_probe or args.reference:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            reference = Reference(args)
        workloads, wl, inputs, own_setup, ref_setup = setup(
            args.workload, args.seed, work, reference)
        if args.setup_probe:
            print(json.dumps({"setup_s": own_setup, "ref_setup_s": ref_setup}))
            return 0
        if args.pass_index is not None:
            result = one_pass(args, workloads, wl, inputs, reference)
            print(json.dumps(dict(result, setup_s=own_setup, ref_setup_s=ref_setup)))
            return 0
        env = environment(args, workloads.np)
        env["NEUTRALCTL_THREADS_unset_from"] = threads_env
        if args.trace:
            lines, problems, attempted, failed, metrics = traced_run(
                args, workloads, wl, work)
        else:
            lines, problems, attempted, failed, metrics = timed_run(
                args, workloads, wl, inputs, work)
    finally:
        if reference is not None:
            reference.close()
        shutil.rmtree(work, ignore_errors=True)
    print(f"environment: {json.dumps(env)}")
    for line in lines:
        print(line)
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    if len(problems) > 20:
        print(f"CHECK FAILED: ... and {len(problems) - 20} more")
    print(f"wall time {time.perf_counter() - t_start:.1f} s")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
