"""Plain-text serialization: matrix files and reports with fixed float formatting.

Floats are written with 17 significant digits so every double round-trips
exactly; infinities (legal only inside report grids) are written as the
strings "inf" / "-inf".  Serialization is deterministic, so identical inputs
produce byte-identical text.
"""
from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import MatrixFileError


def format_float(x: float) -> str:
    if math.isnan(x):
        raise ValueError("NaN is not serializable")
    return format(float(x), ".17g")


def _float_text(x: float) -> str:
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format_float(x)


# the text of a scalar by its exact type; subclasses and numpy scalars take _scalar_text's isinstance checks
_TEXT = {
    float: lambda x: format(x, ".17g") if math.isfinite(x) else _float_text(x),
    int: int.__repr__, str: encode_basestring_ascii,  # what json.dumps calls on a str
    bool: lambda x: "true" if x else "false", type(None): lambda x: "null",
}


def _is_scalar(x) -> bool:
    return type(x) in _TEXT or isinstance(x, (int, float, str, np.integer, np.floating))


def _scalar_text(x) -> str:
    text = _TEXT.get(type(x))
    if text is not None:
        return text(x)
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return _float_text(float(x))
    raise TypeError(f"not serializable: {type(x)!r}")


def _emit(obj, out: list[str], indent: int) -> None:
    text = _TEXT.get(type(obj))
    if text is not None:
        out.append(text(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = "  " * (indent + 1)
        out.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(",\n")
            out.append(inner + encode_basestring_ascii(key if type(key) is str else str(key)) + ": ")
            _emit(val, out, indent + 1)
        out.append("\n" + "  " * indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        try:  # a list of scalars of the exact types of _TEXT, as most are
            out.append("[" + ", ".join([_TEXT[type(x)](x) for x in obj]) + "]")
            return
        except KeyError:
            pass
        if all(map(_is_scalar, obj)):
            out.append("[" + ", ".join(map(_scalar_text, obj)) + "]")
            return
        inner = "  " * (indent + 1)
        out.append("[\n")
        for i, x in enumerate(obj):
            if i:
                out.append(",\n")
            out.append(inner)
            _emit(x, out, indent + 1)
        out.append("\n" + "  " * indent + "]")
    elif _is_scalar(obj):
        out.append(_scalar_text(obj))
    else:
        raise TypeError(f"not serializable: {type(obj)!r}")


def dumps(obj) -> str:
    out: list[str] = []
    _emit(obj, out, 0)
    return "".join(out)


def matrix_to_text(m) -> str:
    """Serialize a complex matrix as rows, cols, and row-major [re, im] pairs."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.size == 0:
        raise MatrixFileError(f"expected a nonempty 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise MatrixFileError("matrix entries must be finite")
    rows, cols = m.shape
    data = m.reshape(-1, 1).view(np.float64).tolist()
    return dumps({"rows": rows, "cols": cols, "data": data}) + "\n"


def _is_number(x) -> bool:
    # parsed JSON holds exact ints and floats, and type() leaves out bool
    return type(x) in (int, float) and math.isfinite(x)


def _parse_int(text: str):
    # the emitter writes a negative zero as "-0", which int() would read as +0
    return -0.0 if text == "-0" else int(text)


def matrix_from_text(text: str) -> np.ndarray:
    try:
        obj = json.loads(text, parse_int=_parse_int)
    except json.JSONDecodeError as exc:
        raise MatrixFileError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise MatrixFileError("top level must be an object")
    rows = obj.get("rows")
    cols = obj.get("cols")
    data = obj.get("data")
    if not isinstance(rows, int) or isinstance(rows, bool) or rows < 1:
        raise MatrixFileError("rows must be a positive integer")
    if not isinstance(cols, int) or isinstance(cols, bool) or cols < 1:
        raise MatrixFileError("cols must be a positive integer")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise MatrixFileError(f"data must list exactly rows*cols = {rows * cols} entries")
    for i, entry in enumerate(data):
        if not (type(entry) is list and len(entry) == 2 and _is_number(entry[0]) and _is_number(entry[1])):
            raise MatrixFileError(f"entry {i} must be a [re, im] pair of finite numbers")
    # each [re, im] row of float64 pairs is one complex128
    return np.array(data, dtype=np.float64).view(np.complex128).reshape(rows, cols)


def read_matrix_file(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_text(fh.read())


def write_matrix_file(path, m) -> None:
    text = matrix_to_text(m)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
