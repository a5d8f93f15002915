"""Symmetric anti-norms on positive semidefinite matrices.

Anti-norms are homogeneous and superadditive rather than subadditive, and
they may vanish on nonzero operators.  Each anti-norm is a function of the
eigenvalues alone: ``<name>_of`` takes the ascending spectrum that
``psd_spectrum`` returns, and ``<name>`` on a matrix is that spectrum, then
that function.  ``psd_spectrum`` validates positive semidefiniteness and
clamps round-off negatives to zero.  For a fixed p in (0, 1], one cumulative
power sum over the ascending spectrum serves every k at once:
``antinorm_table`` returns the (k, p) anti-norm for each k, and
``kp_antinorm_of`` (at p = 1 the Ky Fan anti-norm) and the p > 0 branch of
``schatten_antinorm_of`` read one entry of it.  ``psd_spectrum``,
``antinorm_table`` and ``schatten_antinorm_of`` also take a stack, one matrix
or spectrum per row, and give each row the value it gives alone.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import (
    ExponentRangeError,
    NotHermitianError,
    NotPsdError,
    RankRangeError,
    ShapeMismatchError,
    SingularPowerError,
)
from .linalg import (
    PD_FLOOR_COEFF,
    as_integer,
    as_matrix,
    hermitian_eigenvalues,
    psd_eigenvalues,
    psd_power,
    require_square,
)


def psd_spectrum(q) -> np.ndarray:
    """Ascending eigenvalues of a PSD matrix, round-off negatives set to zero.

    A (trials, d, d) stack gives one row per matrix, each checked alone.
    """
    try:
        w = hermitian_eigenvalues(q)
    except NotHermitianError as exc:
        raise NotPsdError("matrix is not Hermitian within tolerance") from exc
    return psd_eigenvalues(w)


def antinorm_table(w: np.ndarray, p: float, ambient_dim: int | None = None) -> np.ndarray:
    """(k, p) anti-norms of an ascending PSD spectrum for every k = 1..ambient_dim.

    ambient_dim (default len(w)) > len(w) prepends that many zero eigenvalues,
    so the entries for k up to the padding are 0.  A (trials, d) stack of
    spectra gives one table per row.
    """
    m = w.shape[-1]
    amb = m if ambient_dim is None else as_integer(ambient_dim, ShapeMismatchError, "an integer ambient_dim")
    if amb < m:
        raise ShapeMismatchError(f"ambient_dim={amb} smaller than matrix dimension {m}")
    if not 0 < p <= 1:
        raise ExponentRangeError(f"p={p} must lie in (0, 1]")
    table = (w**p).cumsum(axis=-1) ** (1.0 / p)
    return np.concatenate([np.zeros(w.shape[:-1] + (amb - m,)), table], axis=-1) if amb > m else table


def kp_antinorm_of(w: np.ndarray, k: int, p: float, ambient_dim: int | None = None) -> float:
    """(k, p) anti-norm of an ascending PSD spectrum, a 1-d array; see kp_antinorm."""
    if np.ndim(w) != 1:
        raise ShapeMismatchError(f"expected a 1-d spectrum, got shape {np.shape(w)}")
    k = as_integer(k, RankRangeError, "an integer k")
    table = antinorm_table(w, p, ambient_dim)
    if not 1 <= k <= table.size:
        raise RankRangeError(f"k={k} outside [1, {table.size}]")
    return float(table[k - 1])


def kp_antinorm(q, k: int, p: float, ambient_dim: int | None = None) -> float:
    """(sum of p-th powers of the k smallest eigenvalues)^(1/p) for p in (0, 1].

    ambient_dim > m treats the matrix as embedded in a larger space, padding
    the spectrum with zeros; the padded zeros count among the smallest
    eigenvalues, so the result can vanish on a nonzero operator.
    """
    return kp_antinorm_of(psd_spectrum(q), k, p, ambient_dim)


def kyfan_antinorm(q, k: int) -> float:
    """Sum of the k smallest eigenvalues of a PSD matrix: the (k, 1) anti-norm, a cumulative sum."""
    return kp_antinorm(q, k, 1.0)


def schatten_antinorm_of(w: np.ndarray, p: float):
    """Schatten anti-norm of an ascending PSD spectrum, or of each row of a stack; see schatten_antinorm."""
    if math.isnan(p) or math.isinf(p) or p == 0.0 or p > 1.0:
        raise ExponentRangeError(f"p={p} must lie in (0, 1] or be a finite negative number")
    rows = np.atleast_2d(w)
    if p < 0:
        lo = rows[:, 0]
        if (lo <= PD_FLOOR_COEFF * (1.0 + rows[:, -1])).any():
            raise SingularPowerError("negative exponent needs a safely positive definite matrix")
        sums = ((rows / lo[:, None]) ** p).sum(axis=-1)
        # the root in Python floats, as libm pow, per row
        values = lo * np.array([x ** (1.0 / p) for x in sums.tolist()])
    else:
        values = antinorm_table(rows, p)[:, -1]
    return values if w.ndim > 1 else float(values[0])


def schatten_antinorm(q, p: float) -> float:
    """(tr Q^p)^(1/p) for p in (0, 1], extended to p < 0 on positive definite Q."""
    return schatten_antinorm_of(psd_spectrum(q), p)


def partial_fidelity(rho, sigma, k: int) -> float:
    """Sum of the m-k smallest singular values of sqrt(rho) sqrt(sigma).

    Interpolates between 0 at k = m and the full fidelity-type overlap at
    k = 0 (not admitted): the Ky Fan (m-k) anti-norm of |sqrt(rho) sqrt(sigma)|,
    whose eigenvalues are the singular values of the product.
    """
    r = as_matrix(rho)
    s = as_matrix(sigma)
    if r.shape != s.shape:
        raise ShapeMismatchError(f"operands have shapes {r.shape} and {s.shape}")
    m, k = require_square(r), as_integer(k, RankRangeError, "an integer k")
    if not 1 <= k <= m:
        raise RankRangeError(f"k={k} outside [1, {m}]")
    if k == m:
        return 0.0
    a = psd_power(r, 0.5) @ psd_power(s, 0.5)
    return kp_antinorm_of(np.linalg.svd(a, compute_uv=False)[::-1], m - k, 1.0)
