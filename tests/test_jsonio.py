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
    ],
)
def test_matrix_from_text_rejects_malformed(bad):
    with pytest.raises(MatrixFileError):
        jsonio.matrix_from_text(bad)


def test_matrix_to_text_rejects_non_finite():
    with pytest.raises(MatrixFileError):
        jsonio.matrix_to_text(np.array([[np.inf]]))
