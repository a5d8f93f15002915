"""Two-parameter unitarily invariant norms and their classical special cases.

The central object is the gauge (sum of the p-th powers of the k largest
absolute entries)^(1/p).  Applied to singular values it yields a norm for
every k in [1, m] and p >= 1; k = m gives the Schatten p-norm and p = 1 the
Ky Fan k-norm.  Each norm is a function of the singular values alone, and for
a fixed p one cumulative power sum over the descending spectrum serves every
k at once: ``gauge_table`` returns the gauge for each k, ``gauge_kp`` reads
one entry of it, and the matrix-level functions compute the singular values,
then call that.  ``gauge_table`` also tabulates each row of a stack of spectra.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ExponentRangeError, RankRangeError, ShapeMismatchError
from .linalg import as_exponent, as_integer, as_matrix, singular_values

# above this exponent sums are accumulated on a scaled axis to avoid overflow
LARGE_P_THRESHOLD = 50.0


def gauge_table(desc: np.ndarray, p: float) -> np.ndarray:
    """Gauges of a descending nonnegative spectrum for every k = 1..len(desc).

    Entry k - 1 is the l_p combination of the k largest entries; p = math.inf
    gives the largest entry for every k.  A (trials, d) stack of spectra gives
    one table per row.
    """
    p = as_exponent(p, "p")
    top = desc[..., :1]
    if math.isinf(p) and p > 0:
        return np.repeat(top, desc.shape[-1], axis=-1)
    if not p >= 1:
        raise ExponentRangeError(f"p={p} must be >= 1 or +inf")
    if p > LARGE_P_THRESHOLD:
        # an all-zero spectrum is scaled by 1 and stays zero
        return top * ((desc / np.where(top == 0.0, 1.0, top)) ** p).cumsum(axis=-1) ** (1.0 / p)
    return (desc**p).cumsum(axis=-1) ** (1.0 / p)


def gauge_kp(x, k: int, p: float) -> float:
    """l_p combination of the k largest |x_j|, x real or complex; p = math.inf returns max |x_j|."""
    k = as_integer(k, RankRangeError, "an integer k")
    try:
        v = np.abs(np.asarray(x))  # complex entries by their moduli
    except (TypeError, ValueError):  # ragged nesting, or entries such as strings or None
        v = np.empty(0, object)
    if v.dtype.kind not in "iuf" or v.ndim != 1 or v.size == 0:
        raise ShapeMismatchError(f"x must be a nonempty 1-d sequence of numbers, got {x!r}")
    if not 1 <= k <= v.size:
        raise RankRangeError(f"k={k} outside [1, {v.size}]")
    return float(gauge_table(np.sort(v)[::-1][:k].astype(float), p)[-1])


def kp_norm(q, k: int, p: float) -> float:
    """Gauge of the singular values: the (k, p) norm of a matrix, k at most its smaller side."""
    return gauge_kp(singular_values(as_matrix(q)), k, p)


def schatten_norm(q, p: float) -> float:
    """Schatten p-norm; p = 1 trace norm, p = 2 Frobenius, p = inf spectral."""
    s = singular_values(as_matrix(q))
    return gauge_kp(s, s.size, p)


def kyfan_norm(q, k: int) -> float:
    """Sum of the k largest singular values."""
    return gauge_kp(singular_values(as_matrix(q)), k, 1.0)
