"""Spans and counters at the public functions of every neutralctl module.

The traced run wraps each public function at every name a caller resolves
it by: the defining module's attribute (which catches calls through module
globals, such as spectrum's own count_zeros/delta_many/det_logderiv), the
names other modules bound at import (analysis and synthesis import
find_roots, cli imports the simulator and binds the checks in cli._CHECKS)
and the package re-exports.  numpy.linalg.det/solve/svd/eigvals are wrapped
too and attributed to the enclosing span.  Nothing is installed outside
the traced run.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time
import types
from collections import defaultdict

import numpy as np

MODULES = ("cli", "system", "analysis", "linalg", "spectrum", "synthesis", "simulate", "svg")
NUMPY_LINALG = ("det", "solve", "svd", "eigvals")


def _points(c, result):
    c["spectrum.delta_many.points"] += result.shape[0]


def _roots(c, result):
    c["spectrum.roots"] += len(result)


def _steps(c, result):
    c["simulate.steps"] += len(result.t) - 1


def _csv_bytes(c, result):
    c["simulate.trajectory_to_csv.bytes"] += len(result.encode())


def _svg_bytes(c, result):
    c["svg.bytes"] += len(result.encode())


# counters read off a wrapped function's return value
_RESULT_COUNTERS = {
    "spectrum.delta_many": _points,
    "spectrum.find_roots": _roots,
    "simulate.simulate": _steps,
    "simulate.simulate_closed_loop": _steps,
    "simulate.trajectory_to_csv": _csv_bytes,
    "svg.spectrum_svg": _svg_bytes,
    "svg.trajectory_svg": _svg_bytes,
}


class Tracer:
    """In-memory span log: [name, parent index, op, start, end, ok] per call."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.op = -1
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        on_result = _RESULT_COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, tracer.op, 0.0, 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span[5] = True
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(counters, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every name the wrappers must catch; restore on exit."""
        mods = [importlib.import_module(f"neutralctl.{m}") for m in MODULES]
        wrappers = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        undo = []
        for ns in [importlib.import_module("neutralctl")] + mods:
            for attr, obj in list(vars(ns).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    undo.append((ns, attr, obj))
                    setattr(ns, attr, wrappers[obj])
        cli = importlib.import_module("neutralctl.cli")
        checks = dict(cli._CHECKS)
        cli._CHECKS.update({k: (kind, wrappers[fn]) for k, (kind, fn) in checks.items()})
        for attr in NUMPY_LINALG:
            fn = getattr(np.linalg, attr)
            undo.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, self.wrap(f"numpy.linalg.{attr}", fn))
        try:
            yield self
        finally:
            for ns, attr, obj in reversed(undo):
                setattr(ns, attr, obj)
            cli._CHECKS.update(checks)

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, parent, op, t0, t1, ok) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "op": op, "name": name,
                                     "start": t0, "end": t1, "ok": ok}) + "\n")

    def aggregate(self):
        """calls, failed and self time per span name; self time per module;
        numpy.linalg calls whose enclosing span is in spectrum."""
        child = [0.0] * len(self.spans)
        for name, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg = defaultdict(float)
        for i, (name, parent, _, t0, t1, ok) in enumerate(self.spans):
            own = (t1 - t0) - child[i]
            module = name.rsplit(".", 1)[0]
            agg[f"{name}.calls"] += 1
            agg[f"{name}.failed"] += not ok
            agg[f"{name}.self_s"] += own
            agg[f"{module}.self_s"] += own
            if module == "numpy.linalg" and parent >= 0 and self.spans[parent][0].startswith("spectrum."):
                agg[f"{name}.spectrum_calls"] += 1
                agg[f"{name}.spectrum_self_s"] += own
        agg.update(self.counters)
        agg["trace.spans"] = len(self.spans)
        return agg


def _ratio(a, b):
    return a / b if b else 0.0


# (name, unit, how it is computed from the aggregate); counts repeat exactly
# for a given seed, times do not.
PER_LAYER = [
    ("spectrum.count_zeros.calls", "count", None),
    ("spectrum.count_zeros.failed", "count", None),
    ("spectrum.count_zeros.self_s", "s", None),
    ("spectrum.count_zeros.self_s_per_batch", "s", lambda a: _ratio(
        a["spectrum.count_zeros.self_s"], a["spectrum.delta_many.calls"])),
    ("spectrum.delta_many.points", "count", None),
    ("spectrum.delta_many.batches", "count", lambda a: a["spectrum.delta_many.calls"]),
    ("spectrum.delta_many.self_s", "s", None),
    ("spectrum.delta_many.self_s_per_point", "s", lambda a: _ratio(
        a["spectrum.delta_many.self_s"], a["spectrum.delta_many.points"])),
    ("spectrum.points_per_batch", "count", lambda a: _ratio(
        a["spectrum.delta_many.points"], a["spectrum.delta_many.calls"])),
    ("spectrum.delta_derivative_many.self_s", "s", None),
    ("spectrum.det_logderiv.calls", "count", None),
    ("spectrum.find_roots.calls", "count", None),
    ("spectrum.find_roots.self_s", "s", None),
    ("spectrum.roots", "count", None),
    ("spectrum.points_per_root", "count", lambda a: _ratio(
        a["spectrum.delta_many.points"], a["spectrum.roots"])),
    ("spectrum.count_zeros_per_root", "count", lambda a: _ratio(
        a["spectrum.count_zeros.calls"], a["spectrum.roots"])),
    ("spectrum.self_s", "s", None),
    ("numpy.linalg.solve.spectrum_calls", "count", None),
    ("numpy.linalg.solve.spectrum_self_s", "s", None),
    ("numpy.linalg.det.spectrum_calls", "count", None),
    ("numpy.linalg.det.spectrum_self_s", "s", None),
    ("numpy.linalg.svd.calls", "count", None),
    ("numpy.linalg.eigvals.calls", "count", None),
    ("numpy.linalg.self_s", "s", None),
    ("analysis.check_condition1.calls", "count", None),
    ("analysis.check_condition1.self_s", "s", None),
    ("analysis.check_condition2.self_s", "s", None),
    ("analysis.self_s", "s", None),
    ("linalg.numerical_rank.calls", "count", None),
    ("linalg.inclusion_rank_test.calls", "count", None),
    ("linalg.eigen_rank_test.calls", "count", None),
    ("linalg.pole_place_nonzero.calls", "count", None),
    ("linalg.pole_place_nonzero.self_s", "s", None),
    ("linalg.self_s", "s", None),
    ("synthesis.synthesize_stage1.self_s", "s", None),
    ("synthesis.self_s", "s", None),
    ("simulate.simulate_closed_loop.self_s", "s", None),
    ("simulate.steps", "count", None),
    ("simulate.trajectory_to_csv.self_s", "s", None),
    ("simulate.trajectory_to_csv.bytes", "bytes", None),
    ("simulate.self_s", "s", None),
    ("svg.self_s", "s", None),
    ("svg.bytes", "bytes", None),
    ("cli.main.calls", "count", None),
    ("cli.main.self_s", "s", None),
    ("cli.self_s", "s", None),
    ("system.parse_system.calls", "count", None),
    ("system.parse_system.self_s", "s", None),
    ("system.self_s", "s", None),
    ("bench.op.self_s", "s", None),
    ("trace.spans", "count", None),
    ("trace.overhead_s", "s", None),
]

def layer_metrics(agg):
    out = {}
    for name, unit, derive in PER_LAYER:
        value = float(derive(agg) if derive else agg.get(name, 0))
        out[name] = {"value": int(value) if unit != "s" and value.is_integer() else value,
                     "unit": unit}
    return out
