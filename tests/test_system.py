import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neutralctl import (
    DimensionError,
    FeedbackLaw,
    KernelSegment,
    NeutralSystem,
    NoOutputError,
    SpectrumRegion,
    SystemFormatError,
    apply_feedback,
    parse_system,
    serialize_system,
    transpose_dual,
    zero_law,
)
from neutralctl.system import parse_feedback, parse_history


def test_parse_minimal():
    sys = parse_system('{"n": 1, "m": 1, "A_minus1": [[0]], "A0": [[0]], "A1": [[0]], "B": [[1]]}')
    assert sys.n == 1 and sys.m == 1 and sys.p == 0
    assert sys.B[0, 0] == 1.0
    assert sys.kernels == ()


def test_parse_example3(ex3_file, ex3):
    sys = parse_system(ex3_file.read_text())
    assert np.array_equal(sys.A_minus1, ex3.A_minus1)
    assert np.array_equal(sys.A0, ex3.A0)
    assert np.array_equal(sys.B, ex3.B)


def test_parse_dimension_mismatch():
    text = '{"n": 2, "m": 1, "A_minus1": [[0,0],[0,0]], "A0": [[0,0],[0,0]], "A1": [[0,0],[0,0]], "B": [[1],[0],[0]]}'
    with pytest.raises(DimensionError, match="B"):
        parse_system(text)


def test_parse_syntax_error_reports_position():
    with pytest.raises(SystemFormatError, match=r"line \d+, column \d+"):
        parse_system('{"n": 1,,}')


def test_parse_unknown_field_rejected():
    with pytest.raises(SystemFormatError, match="unknown"):
        parse_system('{"n": 1, "m": 1, "A_minus1": [[0]], "A0": [[0]], "A1": [[0]], "B": [[1]], "extra": 1}')


def test_parse_missing_field():
    with pytest.raises(SystemFormatError, match="A1"):
        parse_system('{"n": 1, "m": 1, "A_minus1": [[0]], "A0": [[0]], "B": [[1]]}')


SCALAR = '{"n": 1, "m": 1, "A_minus1": [[0]], "A0": [[%s]], "A1": [[0]], "B": [[1]]%s}'


@pytest.mark.parametrize(
    "text",
    [
        SCALAR % ("NaN", ""),
        SCALAR % ("Infinity", ""),
        SCALAR % ("-1e999", ""),
        SCALAR % ("true", ""),
        SCALAR % ("0", ', "kernels": [{"a": -1, "b": false, "A2": [[0]], "A3": [[1]]}]'),
    ],
    ids=["nan", "infinity", "overflow", "bool-entry", "bool-bound"],
)
def test_parse_rejects_non_finite_and_boolean_numbers(text):
    with pytest.raises(SystemFormatError):
        parse_system(text)


@pytest.mark.parametrize("value", ["5", "null"])
def test_parse_rejects_kernels_that_are_not_an_array(value):
    # an uncaught TypeError before
    with pytest.raises(SystemFormatError, match="kernels"):
        parse_system(SCALAR % ("0", f', "kernels": {value}'))


def test_round_trip_exact():
    text = json.dumps(
        {
            "n": 2,
            "m": 1,
            "p": 1,
            "A_minus1": [[0.1, -0.3], [2.5e-3, 1.0]],
            "A0": [[0, 1], [0.7, 0]],
            "A1": [[0, 0], [0, 0.125]],
            "B": [[1], [0.2]],
            "C": [[0.30000000000000004, 1]],
            "kernels": [{"a": -0.75, "b": -0.25, "A2": [[0.1, 0], [0, 0]], "A3": [[0, 0], [0, 0.9]]}],
        }
    )
    sys = parse_system(text)
    again = parse_system(serialize_system(sys))
    for name in ("A_minus1", "A0", "A1", "B", "C"):
        assert np.array_equal(getattr(sys, name), getattr(again, name))
    assert sys.kernels[0].a == again.kernels[0].a
    assert np.array_equal(sys.kernels[0].A3, again.kernels[0].A3)


# finite floats, with the signed zeros, subnormals and the float range's ends
# drawn often enough to appear in every run
_ENTRIES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@st.composite
def _any_systems(draw):
    n, m, p = draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.sampled_from([0, 1, 2]))

    def mat(rows, cols):
        row = st.lists(_ENTRIES, min_size=cols, max_size=cols)
        return np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=float)

    k = draw(st.integers(0, 2))
    ends = sorted(draw(st.lists(st.floats(-1.0, 0.0), min_size=2 * k, max_size=2 * k, unique=True)))
    kernels = tuple(KernelSegment(a, b, mat(n, n), mat(n, n)) for a, b in zip(ends[::2], ends[1::2]))
    return NeutralSystem(n=n, m=m, p=p, A_minus1=mat(n, n), A0=mat(n, n), A1=mat(n, n),
                         B=mat(n, m), C=mat(p, n) if p else None, kernels=kernels)


def _bits(x):
    # shape and bit pattern, so that -0.0 and 0.0 differ
    x = np.asarray(x, dtype=float)
    return x.shape, x.tobytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_any_systems())
def test_round_trip_property(sys):
    again = parse_system(serialize_system(sys))
    assert (again.n, again.m, again.p) == (sys.n, sys.m, sys.p)
    for name in ("A_minus1", "A0", "A1", "B"):
        assert _bits(getattr(again, name)) == _bits(getattr(sys, name))
    assert (again.C is None) == (sys.C is None)
    if sys.C is not None:
        assert _bits(again.C) == _bits(sys.C)
    assert len(again.kernels) == len(sys.kernels)
    for seg, twin in zip(sys.kernels, again.kernels):
        assert _bits([twin.a, twin.b]) == _bits([seg.a, seg.b])
        assert _bits(twin.A2) == _bits(seg.A2) and _bits(twin.A3) == _bits(seg.A3)


def test_kernel_validation():
    with pytest.raises(SystemFormatError):
        KernelSegment(a=-0.2, b=-0.5, A2=np.zeros((1, 1)), A3=np.zeros((1, 1)))
    with pytest.raises(SystemFormatError, match="overlap"):
        NeutralSystem(
            n=1, m=1, p=0,
            A_minus1=[[0]], A0=[[0]], A1=[[0]], B=[[1]],
            kernels=(
                KernelSegment(-0.8, -0.3, np.zeros((1, 1)), np.zeros((1, 1))),
                KernelSegment(-0.5, -0.1, np.zeros((1, 1)), np.zeros((1, 1))),
            ),
        )


def test_transpose_dual_example4(ex4):
    dual = transpose_dual(ex4)
    assert np.array_equal(dual.A_minus1, [[0, 0], [-1, 1]])
    assert np.array_equal(dual.B, [[1], [0]])
    assert np.array_equal(dual.C, [[0, 0]])
    assert dual.m == 1 and dual.p == 1


def test_transpose_dual_involution(ex4):
    back = transpose_dual(transpose_dual(ex4))
    assert np.array_equal(back.A_minus1, ex4.A_minus1)
    assert np.array_equal(back.A1, ex4.A1)
    assert np.array_equal(back.B, ex4.B)
    assert np.array_equal(back.C, ex4.C)


def test_transpose_dual_example5_with_output(ex5):
    sys = NeutralSystem(
        n=2, m=1, p=1,
        A_minus1=ex5.A_minus1, A0=ex5.A0, A1=ex5.A1, B=ex5.B, C=[[1, 0]],
    )
    dual = transpose_dual(sys)
    assert np.array_equal(dual.B, [[1], [0]])
    assert np.array_equal(dual.A0, [[0, 1], [0, 0]])


def test_transpose_dual_requires_output(ex5):
    with pytest.raises(NoOutputError):
        transpose_dual(ex5)


def test_apply_feedback_zero_law(ex5):
    closed = apply_feedback(ex5, zero_law(ex5))
    assert np.array_equal(closed.A_minus1, ex5.A_minus1)
    assert np.array_equal(closed.A0, ex5.A0)
    assert np.array_equal(closed.A1, ex5.A1)


def test_apply_feedback_example5(ex5):
    law = FeedbackLaw([[-1.0, 0.0]], np.zeros((1, 2)), np.zeros((1, 2)))
    closed = apply_feedback(ex5, law)
    assert np.array_equal(closed.A_minus1, np.zeros((2, 2)))
    assert np.array_equal(closed.B, ex5.B)


def test_apply_feedback_scalar_cancellation():
    sys = NeutralSystem(n=1, m=1, p=0, A_minus1=[[2]], A0=[[0]], A1=[[0]], B=[[1]])
    law = FeedbackLaw([[-2.0]], [[0.0]], [[0.0]])
    assert apply_feedback(sys, law).A_minus1[0, 0] == 0.0


def test_apply_feedback_dimension_mismatch(ex5):
    law = FeedbackLaw(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(DimensionError):
        apply_feedback(ex5, law)


def test_system_arrays_immutable(ex5):
    with pytest.raises(ValueError):
        ex5.A0[0, 0] = 5.0


@pytest.mark.parametrize("text, message", [
    ('{"z": [[0, 1], [1]]}', "z rows must have equal length: row 1 has 1 value, row 0 has 2 values"),
    ('{"z": [[0, 1], [1, 2]], "dz": [[0, 1], [1]]}',
     "dz rows must have equal length: row 1 has 1 value, row 0 has 2 values"),
    ('{"z": [[0], [1], [2, 3]]}', "z rows must have equal length: row 2 has 2 values, row 0 has 1 value"),
    ('{"z": [[0, 1], 5]}', "z rows must have equal length: row 1 is a number, row 0 has 2 values"),
])
def test_parse_history_ragged_rows(text, message):
    # numpy's "setting an array element with a sequence" ValueError before
    with pytest.raises(SystemFormatError, match=f"^history {re.escape(message)}$"):
        parse_history(text)


def _system_text(**fields):
    # a valid 2 x 1 system file with fields replaced, or dropped when None
    obj = {"n": 2, "m": 1, "A_minus1": [[0, 0], [0, 0]], "A0": [[0, 1], [0, 0]],
           "A1": [[0, 0], [0, 0]], "B": [[0], [1]]}
    obj.update(fields)
    return json.dumps({k: v for k, v in obj.items() if v is not None})


@pytest.mark.parametrize("text, message", [
    (_system_text(A0=[[0, 1], [2]]),
     "field 'A0' rows must have equal length: row 1 has 1 value, row 0 has 2 values"),
    (_system_text(B=[[0], [1], [2, 3]]),
     "field 'B' rows must have equal length: row 2 has 2 values, row 0 has 1 value"),
    (_system_text(kernels=[{"a": -1, "b": 0, "A2": [[0, 0], [0]], "A3": [[0, 0], [0, 0]]}]),
     "field 'A2' of kernels[0] rows must have equal length: "
     "row 1 has 1 value, row 0 has 2 values"),
], ids=["A0", "B", "kernel A2"])
def test_parse_system_ragged_rows(text, message):
    # "has ragged rows" before, naming no row
    with pytest.raises(SystemFormatError, match=f"^{re.escape(message)}$"):
        parse_system(text)


def test_parse_feedback_ragged_rows():
    with pytest.raises(SystemFormatError, match="^field 'F0' rows must have equal length: "
                                                "row 1 has 1 value, row 0 has 2 values$"):
        parse_feedback('{"F0": [[1, 2], [3]]}', 2, 2)


_M = [[0.0]]
_TYPED_ERRORS = {
    "n 0": (lambda: NeutralSystem(n=0, m=1, p=0, A_minus1=_M, A0=_M, A1=_M, B=_M),
            DimensionError, "n must be a positive integer, got 0"),
    "m float": (lambda: NeutralSystem(n=1, m=1.0, p=0, A_minus1=_M, A0=_M, A1=_M, B=_M),
                DimensionError, "m must be a positive integer, got 1.0"),
    "p negative": (lambda: NeutralSystem(n=1, m=1, p=-1, A_minus1=_M, A0=_M, A1=_M, B=_M),
                   DimensionError, "p must be a nonnegative integer, got -1"),
    "p without C": (lambda: NeutralSystem(n=1, m=1, p=1, A_minus1=_M, A0=_M, A1=_M, B=_M),
                    DimensionError, "p > 0 but no output matrix C given"),
    "C without p": (lambda: NeutralSystem(n=1, m=1, p=0, A_minus1=_M, A0=_M, A1=_M, B=_M, C=_M),
                    DimensionError, "p = 0 but an output matrix C was given"),
    "gain shapes": (lambda: FeedbackLaw(np.zeros((1, 2)), np.zeros((2, 1)), np.zeros((1, 2))),
                    DimensionError, "feedback gain matrices must share one m x n shape"),
    "int beyond float": (lambda: parse_system(_system_text(A1=[[0, 10**400], [0, 0]])),
                         SystemFormatError,
                         f"field 'A1' contains a non-numeric or non-finite entry {10**400!r}"),
    "kernel string": (lambda: parse_system(_system_text(kernels=[
                          {"a": -1, "b": 0, "A2": [[0, 0], [0, 0]], "A3": [[0, "1"], [0, 0]]}])),
                      SystemFormatError,
                      "field 'A3' of kernels[0] contains a non-numeric or non-finite entry '1'"),
    "no rows": (lambda: parse_system(_system_text(A0=[])),
                SystemFormatError, "field 'A0' must be a non-empty array of rows"),
    "flat rows": (lambda: parse_system(_system_text(A0=[0, 1])),
                  SystemFormatError, "field 'A0' must be a non-empty array of rows"),
    "top-level array": (lambda: parse_system("[1, 2]"),
                        SystemFormatError, "top-level value must be an object"),
    "missing n": (lambda: parse_system(_system_text(n=None)),
                  SystemFormatError, "missing required field 'n'"),
    "float n": (lambda: parse_system(_system_text(n=2.0)),
                SystemFormatError, "field 'n' must be an integer"),
    "string p": (lambda: parse_system(_system_text(p="1")),
                 SystemFormatError, "field 'p' must be an integer"),
    "C with p 0": (lambda: parse_system(_system_text(C=[[1, 0]])),
                   SystemFormatError, "field 'C' given but p is 0 or absent"),
    "kernel array": (lambda: parse_system(_system_text(kernels=[[-1, 0]])),
                     SystemFormatError, "kernels[0] must be an object"),
    "kernel field": (lambda: parse_system(_system_text(kernels=[{"a": -1, "b": 0, "c": 1}])),
                     SystemFormatError, "kernels[0] has unknown fields: ['c']"),
    "history without z": (lambda: parse_history('{"dz": [[0], [0]]}'),
                          SystemFormatError, "history file must be an object with a 'z' array"),
    "region flat": (lambda: SpectrumRegion(1, 1, -1, 1),
                    ValueError, "degenerate region [1.0, 1.0] x [-1.0, 1.0]"),
    "region upside down": (lambda: SpectrumRegion(0, 1, 2, -2),
                           ValueError, "degenerate region [0.0, 1.0] x [2.0, -2.0]"),
}


@pytest.mark.parametrize("case", list(_TYPED_ERRORS))
def test_typed_errors(case):
    make, error, message = _TYPED_ERRORS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        make()


def test_string_bounds_are_rejected():
    # a bound is a number: float() alone would parse "-1"
    with pytest.raises(TypeError):
        SpectrumRegion("-1", 1, -1, 1)
    with pytest.raises(TypeError):
        KernelSegment("-1", 0, np.zeros((1, 1)), np.zeros((1, 1)))
