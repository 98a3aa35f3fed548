"""Data model for linear neutral delay systems with unit delay.

A system couples the derivative at time t to the derivative at t - 1
(neutral coefficient), to the instantaneous state, to the state at t - 1,
and optionally to distributed state/derivative history through
piecewise-constant kernels on [-1, 0].  This module owns the JSON file
format, validation, duality transposition and closed-loop formation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "SystemFormatError",
    "DimensionError",
    "NoOutputError",
    "KernelSegment",
    "NeutralSystem",
    "FeedbackLaw",
    "parse_system",
    "serialize_system",
    "load_system",
    "transpose_dual",
    "apply_feedback",
    "zero_law",
    "parse_feedback",
    "parse_history",
]


class SystemFormatError(ValueError):
    """Malformed system definition (syntax, missing or unknown fields, or a
    coefficient entry that is not finite)."""


class DimensionError(ValueError):
    """Matrix dimensions inconsistent with the declared n, m, p."""


class NoOutputError(ValueError):
    """An output matrix is required but the system has p = 0."""


def _freeze(name, a):
    # a row-major copy, also of a transposed view: the layout sets the
    # summation order of matmul and np.linalg.norm, so the last bits of a
    # derived system's results; every entry must be finite
    a = np.array(a, dtype=float, order="C")
    if not np.isfinite(a).all():
        at = tuple(np.argwhere(~np.isfinite(a))[0])
        raise SystemFormatError(f"{name}[{', '.join(map(str, at))}] = {a[at]} is not finite")
    a.setflags(write=False)
    return a


def _check_shape(name, mat, rows, cols):
    if mat.shape != (rows, cols):
        raise DimensionError(
            f"{name} has shape {mat.shape[0]}x{mat.shape[1]}, expected {rows}x{cols}"
        )


@dataclass(frozen=True)
class KernelSegment:
    """Constant kernel pair on a subinterval [a, b] of [-1, 0].

    A2 weighs the delayed derivative, A3 the delayed state.  The bounds are
    stored as Python floats, -0.0 as 0.0.
    """

    a: float
    b: float
    A2: np.ndarray
    A3: np.ndarray

    def __post_init__(self):
        # as in SpectrumRegion: -0.0 becomes 0.0, and a string is rejected
        object.__setattr__(self, "a", float(self.a + 0.0))
        object.__setattr__(self, "b", float(self.b + 0.0))
        object.__setattr__(self, "A2", _freeze("A2", self.A2))
        object.__setattr__(self, "A3", _freeze("A3", self.A3))
        if not (-1.0 <= self.a < self.b <= 0.0):
            raise SystemFormatError(
                f"kernel segment [{self.a}, {self.b}] must satisfy -1 <= a < b <= 0"
            )


@dataclass(frozen=True)
class NeutralSystem:
    """Immutable neutral delay system with one discrete delay normalized to 1.

    Dynamics: dz(t) = A_minus1 dz(t-1) + A0 z(t) + A1 z(t-1)
              + sum over kernel segments of
                integral_a^b [A2 dz(t+s) + A3 z(t+s)] ds
              + B u(t),
    with optional output y(t) = C z(t-1) when p >= 1.
    """

    n: int
    m: int
    p: int
    A_minus1: np.ndarray
    A0: np.ndarray
    A1: np.ndarray
    B: np.ndarray
    C: np.ndarray | None = None
    kernels: tuple[KernelSegment, ...] = ()

    def __post_init__(self):
        # a bool is an int to isinstance, but not a dimension
        for name, least, what in (("n", 1, "positive"), ("m", 1, "positive"),
                                  ("p", 0, "nonnegative")):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, int) and v >= least):
                raise DimensionError(f"{name} must be a {what} integer, got {v!r}")
        for name in ("A_minus1", "A0", "A1", "B"):
            object.__setattr__(self, name, _freeze(name, getattr(self, name)))
        _check_shape("A_minus1", self.A_minus1, self.n, self.n)
        _check_shape("A0", self.A0, self.n, self.n)
        _check_shape("A1", self.A1, self.n, self.n)
        _check_shape("B", self.B, self.n, self.m)
        if self.p > 0:
            if self.C is None:
                raise DimensionError("p > 0 but no output matrix C given")
            object.__setattr__(self, "C", _freeze("C", self.C))
            _check_shape("C", self.C, self.p, self.n)
        else:
            if self.C is not None:
                raise DimensionError("p = 0 but an output matrix C was given")
        segs = tuple(self.kernels)
        for seg in segs:
            _check_shape("A2", seg.A2, self.n, self.n)
            _check_shape("A3", seg.A3, self.n, self.n)
        ordered = sorted(segs, key=lambda s: s.a)
        for s1, s2 in zip(ordered, ordered[1:]):
            if s2.a < s1.b - 1e-12:
                raise SystemFormatError(
                    f"kernel segments [{s1.a}, {s1.b}] and [{s2.a}, {s2.b}] overlap"
                )
        object.__setattr__(self, "kernels", segs)


@dataclass(frozen=True)
class FeedbackLaw:
    """Static feedback u(t) = F_minus1 dz(t-1) + F0 z(t) + F1 z(t-1)."""

    F_minus1: np.ndarray
    F0: np.ndarray
    F1: np.ndarray

    def __post_init__(self):
        for name in ("F_minus1", "F0", "F1"):
            object.__setattr__(self, name, _freeze(name, getattr(self, name)))
        shape = self.F_minus1.shape
        if self.F0.shape != shape or self.F1.shape != shape:
            raise DimensionError("feedback gain matrices must share one m x n shape")


def zero_law(sys: NeutralSystem) -> FeedbackLaw:
    z = np.zeros((sys.m, sys.n))
    return FeedbackLaw(z, z, z)


_TOP_FIELDS = {"n", "m", "p", "A_minus1", "A0", "A1", "B", "C", "kernels"}
_SEG_FIELDS = {"a", "b", "A2", "A3"}


def _is_number(x):
    # JSON true/false are ints to Python, and NaN, Infinity or 1e999 parse to
    # non-finite floats; none of them is a coefficient
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer literal beyond the float range
        return False


def _require_matrix(obj, name, where=None):
    what = f"field {name!r}" if where is None else f"field {name!r} of {where}"
    if name not in obj:
        raise SystemFormatError(f"missing required {what}")
    raw = obj[name]
    if not (isinstance(raw, list) and raw and all(isinstance(r, list) for r in raw)):
        raise SystemFormatError(f"{what} must be a non-empty array of rows")
    _check_rows(raw, what)
    for r in raw:
        for x in r:
            if not _is_number(x):
                raise SystemFormatError(f"{what} contains a non-numeric or non-finite entry {x!r}")
    return np.array(raw, dtype=float)


def _check_rows(rows, what):
    # numpy names no row of a ragged table
    width = [len(r) if isinstance(r, list) else None for r in rows]
    i = next((i for i, w in enumerate(width) if w != width[0]), None)
    if i is not None:
        said = [f"row {k} is a number" if width[k] is None
                else f"row {k} has {width[k]} value" + "s" * (width[k] != 1) for k in (i, 0)]
        raise SystemFormatError(f"{what} rows must have equal length: {', '.join(said)}")


def _load_object(text, fields):
    # the JSON object of an input file, whose fields must all be in fields;
    # syntax errors report the offending position
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SystemFormatError(
            f"syntax error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    if not isinstance(obj, dict):
        raise SystemFormatError("top-level value must be an object")
    unknown = set(obj) - fields
    if unknown:
        raise SystemFormatError(f"unknown fields: {sorted(unknown)}")
    return obj


def parse_system(text: str) -> NeutralSystem:
    """Parse a system definition file (UTF-8 JSON) into a NeutralSystem.

    Unknown fields are rejected; matrix entries keep the exact value of
    their decimal literals.  Syntax errors report the offending position.
    """
    obj = _load_object(text, _TOP_FIELDS)
    for name in ("n", "m"):
        if name not in obj:
            raise SystemFormatError(f"missing required field {name!r}")
        if not isinstance(obj[name], int) or isinstance(obj[name], bool):
            raise SystemFormatError(f"field {name!r} must be an integer")
    p = obj.get("p", 0)
    if not isinstance(p, int) or isinstance(p, bool):
        raise SystemFormatError("field 'p' must be an integer")
    mats = {name: _require_matrix(obj, name) for name in ("A_minus1", "A0", "A1", "B")}
    C = None
    if p > 0:
        C = _require_matrix(obj, "C")
    elif "C" in obj:
        raise SystemFormatError("field 'C' given but p is 0 or absent")
    segments = obj.get("kernels", [])
    if not isinstance(segments, list):
        raise SystemFormatError("field 'kernels' must be an array of segment objects")
    kernels = []
    for i, raw in enumerate(segments):
        if not isinstance(raw, dict):
            raise SystemFormatError(f"kernels[{i}] must be an object")
        unknown = set(raw) - _SEG_FIELDS
        if unknown:
            raise SystemFormatError(f"kernels[{i}] has unknown fields: {sorted(unknown)}")
        for name in ("a", "b"):
            if name not in raw or not _is_number(raw[name]):
                raise SystemFormatError(f"kernels[{i}] needs finite numeric bounds 'a' and 'b'")
        kernels.append(
            KernelSegment(
                raw["a"],
                raw["b"],
                _require_matrix(raw, "A2", where=f"kernels[{i}]"),
                _require_matrix(raw, "A3", where=f"kernels[{i}]"),
            )
        )
    return NeutralSystem(
        n=obj["n"],
        m=obj["m"],
        p=p,
        A_minus1=mats["A_minus1"],
        A0=mats["A0"],
        A1=mats["A1"],
        B=mats["B"],
        C=C,
        kernels=tuple(kernels),
    )


def serialize_system(sys: NeutralSystem) -> str:
    """Inverse of parse_system; round-trips every matrix entry exactly."""
    obj = {
        "n": sys.n,
        "m": sys.m,
        "p": sys.p,
        "A_minus1": sys.A_minus1.tolist(),
        "A0": sys.A0.tolist(),
        "A1": sys.A1.tolist(),
        "B": sys.B.tolist(),
    }
    if sys.p > 0:
        obj["C"] = sys.C.tolist()
    if sys.kernels:
        obj["kernels"] = [
            {"a": s.a, "b": s.b, "A2": s.A2.tolist(), "A3": s.A3.tolist()}
            for s in sys.kernels
        ]
    return json.dumps(obj, indent=2) + "\n"


def load_system(path) -> NeutralSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def transpose_dual(sys: NeutralSystem) -> NeutralSystem:
    """Transposed system realizing the controllability/observability duality.

    Every coefficient matrix is transposed, the output matrix becomes the
    input matrix and vice versa.  Requires p >= 1.
    """
    if sys.p == 0:
        raise NoOutputError("transpose_dual needs an output matrix (p >= 1)")
    kernels = tuple(replace(s, A2=s.A2.T, A3=s.A3.T) for s in sys.kernels)
    return replace(sys, m=sys.p, p=sys.m, A_minus1=sys.A_minus1.T, A0=sys.A0.T,
                   A1=sys.A1.T, B=sys.C.T, C=sys.B.T, kernels=kernels)


def apply_feedback(sys: NeutralSystem, law: FeedbackLaw) -> NeutralSystem:
    """Closed-loop system: A_minus1 + B F_minus1, A0 + B F0, A1 + B F1."""
    if law.F_minus1.shape != (sys.m, sys.n):
        raise DimensionError(
            f"feedback gains have shape {law.F_minus1.shape}, expected ({sys.m}, {sys.n})"
        )
    return replace(sys, A_minus1=sys.A_minus1 + sys.B @ law.F_minus1,
                   A0=sys.A0 + sys.B @ law.F0, A1=sys.A1 + sys.B @ law.F1)


def parse_feedback(text: str, m: int, n: int) -> FeedbackLaw:
    """Parse a feedback-law JSON file: {"F_minus1": .., "F0": .., "F1": ..}.

    Missing gains default to zero.
    """
    obj = _load_object(text, {"F_minus1", "F0", "F1"})
    gains = {}
    for name in ("F_minus1", "F0", "F1"):
        if name in obj:
            g = _require_matrix(obj, name)
            _check_shape(name, g, m, n)
            gains[name] = g
        else:
            gains[name] = np.zeros((m, n))
    return FeedbackLaw(gains["F_minus1"], gains["F0"], gains["F1"])


def parse_history(text: str):
    """Parse a history file: {"z": rows, "dz": rows}, with dz optional.

    Returns the float arrays (z, dz), dz None when absent or null;
    History.from_samples checks their grid and that their values are finite.
    """
    obj = _load_object(text, {"z", "dz"})
    if "z" not in obj:
        raise SystemFormatError("history file must be an object with a 'z' array")
    return _samples(obj, "z"), None if obj.get("dz") is None else _samples(obj, "dz")


def _samples(obj, name):
    # JSON numbers only, for np.asarray reads "0.5" and true as numbers; NaN
    # and infinities pass, for History to say where they are
    leaves = lambda x: [y for r in x for y in leaves(r)] if isinstance(x, list) else [x]
    bad = [x for x in leaves(obj[name]) if not (isinstance(x, float) or _is_number(x))]
    if bad:
        raise SystemFormatError(f"history samples must be numbers: {name} holds {bad[0]!r}")
    if isinstance(obj[name], list):
        _check_rows(obj[name], f"history {name}")
    return np.asarray(obj[name], dtype=float)
