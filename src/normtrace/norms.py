"""Two-parameter unitarily invariant norms and their classical special cases.

The central object is the gauge (sum of the p-th powers of the k largest
absolute entries)^(1/p).  Applied to singular values it yields a norm for
every k in [1, m] and p >= 1; k = m gives the Schatten p-norm and p = 1 the
Ky Fan k-norm.  Each norm is a function of the singular values alone:
``gauge_kp`` and ``schatten_gauge`` take them, and the matrix-level functions
compute them, then call those.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ExponentRangeError, RankRangeError, ShapeMismatchError
from .linalg import as_matrix, require_square, singular_values

# above this exponent sums are accumulated on a scaled axis to avoid overflow
LARGE_P_THRESHOLD = 50.0


def _power_sum_root(values: np.ndarray, p: float) -> float:
    # values nonnegative, p > 0 finite
    top = float(values.max())
    if top == 0.0:
        return 0.0
    if p > LARGE_P_THRESHOLD:
        return top * float(np.sum((values / top) ** p)) ** (1.0 / p)
    return float(np.sum(values**p)) ** (1.0 / p)


def gauge_kp(x, k: int, p: float) -> float:
    """l_p combination of the k largest |x_j|; p = math.inf returns max |x_j|."""
    v = np.abs(np.asarray(x, dtype=float))
    if v.ndim != 1 or v.size == 0:
        raise ShapeMismatchError("x must be a nonempty 1-d real sequence")
    if not 1 <= k <= v.size:
        raise RankRangeError(f"k={k} outside [1, {v.size}]")
    if math.isinf(p) and p > 0:
        return float(v.max())
    if not p >= 1:
        raise ExponentRangeError(f"p={p} must be >= 1 or +inf")
    top = np.sort(v)[::-1][:k]
    return _power_sum_root(top, p)


def kp_norm(q, k: int, p: float) -> float:
    """Gauge of the singular values: the (k, p) norm of a square matrix."""
    q = as_matrix(q)
    require_square(q)
    return gauge_kp(singular_values(q), k, p)


def schatten_gauge(s: np.ndarray, p: float) -> float:
    """Schatten p-norm of a spectrum of singular values: the gauge over all of it."""
    return gauge_kp(s, s.size, p)


def schatten_norm(q, p: float) -> float:
    """Schatten p-norm; p = 1 trace norm, p = 2 Frobenius, p = inf spectral."""
    return schatten_gauge(singular_values(as_matrix(q)), p)


def kyfan_norm(q, k: int) -> float:
    """Sum of the k largest singular values."""
    return gauge_kp(singular_values(as_matrix(q)), k, 1.0)
