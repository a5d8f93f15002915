"""Plain-text serialization: audit reports and matrix files.

A report is the standard library's compact one-line JSON, each float written
as the shortest text that reads back as the same double (0.3, 1e-09, 1.0), so
a float field stays a JSON float whatever its value.  A NaN or an infinity
raises ValueError; the audit echoes its grids' infinities as the strings
"inf" and "-inf".  Matrix files keep their own layout: one [re, im] pair of
17-significant-digit floats per line.  Serialization is deterministic, so
identical inputs produce byte-identical text.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .errors import MatrixFileError


def dumps(obj) -> str:
    """obj as one line of JSON; a NaN or an infinity in it raises ValueError."""
    return json.dumps(obj, allow_nan=False)


def matrix_to_text(m) -> str:
    """Serialize a complex matrix as rows, cols, and row-major [re, im] pairs."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.size == 0:
        raise MatrixFileError(f"expected a nonempty 2-d matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise MatrixFileError("matrix entries must be finite")
    rows, cols = m.shape
    pairs = ",\n".join(f"    [{re:.17g}, {im:.17g}]" for re, im in m.reshape(-1, 1).view(np.float64).tolist())
    return f'{{\n  "rows": {rows},\n  "cols": {cols},\n  "data": [\n{pairs}\n  ]\n}}\n'


def _is_number(x) -> bool:
    # parsed JSON holds exact ints and floats, and type() leaves out bool
    return type(x) in (int, float) and math.isfinite(x)


def _parse_int(text: str):
    # a matrix file writes a negative zero as "-0", which int() would read as +0
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
