import json
import math

import numpy as np
import pytest

from normtrace import jsonio
from normtrace.errors import MatrixFileError


def test_dumps_is_valid_json_and_deterministic():
    obj = {"b": [1, 2.5, "x"], "a": {"nested": [True, None]}}
    t1 = jsonio.dumps(obj)
    t2 = jsonio.dumps(obj)
    assert t1 == t2
    assert json.loads(t1) == obj


def test_dumps_float_precision_round_trips():
    x = 0.1 + 0.2
    assert json.loads(jsonio.dumps({"v": x}))["v"] == x
    assert json.loads(jsonio.dumps({"v": 1e-300}))["v"] == 1e-300


def test_dumps_infinities_become_strings():
    t = jsonio.dumps({"p": math.inf, "q": -math.inf})
    payload = json.loads(t)
    assert payload == {"p": "inf", "q": "-inf"}
    with pytest.raises(ValueError):
        jsonio.dumps({"v": math.nan})


def test_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    m = (rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))) / np.sqrt(2)
    path = tmp_path / "m.json"
    jsonio.write_matrix_file(path, m)
    back = jsonio.read_matrix_file(path)
    assert back.dtype == np.complex128
    assert np.array_equal(back, m)
    # signed zeros, the smallest subnormal and huge magnitudes come back bit for bit
    extreme = np.array([
        [complex(1.5, 5e-324), complex(0.1, -1e300), complex(-0.0, -0.0)],
        [3.0, complex(-2.5e-8, 7.0), complex(0.0, -0.0)],
    ])
    back = jsonio.matrix_from_text(jsonio.matrix_to_text(extreme))
    assert back.view(np.float64).tobytes() == extreme.view(np.float64).tobytes()


def test_matrix_to_text_bytes_are_pinned():
    # signed zeros, the smallest subnormal, 17-digit decimals, huge and
    # integer-valued floats, and numpy scalars, each written as 17 significant digits
    m = [[complex(-0.0, 5e-324), complex(0.1, 1e300)], [np.float64(3.0), complex(np.float64(-2.5e-8), -0.0)]]
    assert jsonio.matrix_to_text(m) == (
        "{\n"
        '  "rows": 2,\n'
        '  "cols": 2,\n'
        '  "data": [\n'
        "    [-0, 4.9406564584124654e-324],\n"
        "    [0.10000000000000001, 1.0000000000000001e+300],\n"
        "    [3, 0],\n"
        "    [-2.4999999999999999e-08, -0]\n"
        "  ]\n"
        "}\n"
    )


def test_dumps_scalars_of_every_type():
    obj = {"a": [np.float64(0.1), 2.0, -0.0, np.int64(3), True, None, math.inf, np.float64(-math.inf)], "b": {"c": 1e-320}}
    assert jsonio.dumps(obj) == (
        '{\n  "a": [0.10000000000000001, 2, -0, 3, true, null, "inf", "-inf"],\n'
        '  "b": {\n    "c": 9.9998886718268301e-321\n  }\n}'
    )


class _Count(int):
    def __str__(self):
        return "a count"


class _Name(str):
    pass


class _Record(dict):
    pass


@pytest.mark.parametrize("nan", [math.nan, np.float64(math.nan), np.float32(math.nan)], ids=["float", "f64", "f32"])
@pytest.mark.parametrize("where", ["value", "list", "nested"])
def test_dumps_refuses_nan_wherever_it_sits(nan, where):
    obj = {"value": {"v": nan}, "list": {"v": [1.0, nan]}, "nested": {"v": [[1, 2], [nan]]}}[where]
    with pytest.raises(ValueError, match="NaN"):
        jsonio.dumps(obj)


def test_dumps_writes_scalars_outside_lists_and_subclasses_as_before():
    # numpy scalars, bools and None as values of a dict and as items of a
    # nested list; int, str, dict and tuple subclasses by their base type
    obj = _Record({
        "np": {"i": np.int64(-7), "u": np.uint8(200), "f": np.float64(0.1), "g": np.float32(0.5),
               "inf": np.float64(math.inf)},
        "flags": {"t": True, "f": False, "none": None},
        "nested": [[True, None], [np.int32(1), np.float64(-0.0)], [], {}],
        _Name("subclasses"): [_Count(3), _Name("caf\u00e9 \"q\"\n"), (1, (2.0,))],
        7: "an int key",
    })
    assert jsonio.dumps(obj) == (
        '{\n'
        '  "np": {\n'
        '    "i": -7,\n    "u": 200,\n    "f": 0.10000000000000001,\n    "g": 0.5,\n    "inf": "inf"\n'
        '  },\n'
        '  "flags": {\n    "t": true,\n    "f": false,\n    "none": null\n  },\n'
        '  "nested": [\n    [true, null],\n    [1, -0],\n    [],\n    {}\n  ],\n'
        '  "subclasses": [\n    3,\n    ' + json.dumps("caf\u00e9 \"q\"\n")
        + ',\n    [\n      1,\n      [2]\n    ]\n  ],\n'
        '  "7": "an int key"\n'
        '}'
    )
    assert json.loads(jsonio.dumps(obj))["subclasses"][1] == "caf\u00e9 \"q\"\n"
    with pytest.raises(TypeError, match="not serializable"):
        jsonio.dumps({"flag": np.bool_(True)})  # as before: a numpy bool is no int
    with pytest.raises(TypeError, match="not serializable"):
        jsonio.dumps([{1, 2}])


def test_matrix_text_shape():
    text = jsonio.matrix_to_text(np.array([[1.0 + 2.0j]]))
    payload = json.loads(text)
    assert payload["rows"] == 1 and payload["cols"] == 1
    assert payload["data"] == [[1.0, 2.0]]
    assert text.endswith("\n")


@pytest.mark.parametrize(
    "bad",
    [
        '{"rows": 1, "cols": 1}',
        '{"rows": 1, "cols": 2, "data": [[1, 0]]}',
        '{"rows": 1, "cols": 1, "data": [[1]]}',
        '{"rows": 1, "cols": 1, "data": [["a", 0]]}',
        '{"rows": 0, "cols": 1, "data": []}',
        '{"rows": 1, "cols": 1, "data": [[true, 0]]}',
        "[1, 2, 3]",
        "not json",
        '{"rows": 1, "cols": 0, "data": []}',
        '{"rows": 1, "cols": true, "data": [[1, 0]]}',
    ],
)
def test_matrix_from_text_rejects_malformed(bad):
    with pytest.raises(MatrixFileError):
        jsonio.matrix_from_text(bad)


@pytest.mark.parametrize("bad", [np.ones(3), np.zeros((0, 2)), np.zeros((1, 1, 1))])
def test_matrix_to_text_rejects_non_matrices(bad):
    with pytest.raises(MatrixFileError, match="2-d matrix"):
        jsonio.matrix_to_text(bad)


def test_matrix_to_text_rejects_non_finite():
    with pytest.raises(MatrixFileError):
        jsonio.matrix_to_text(np.array([[np.inf]]))
