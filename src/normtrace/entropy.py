"""Renyi, Tsallis, and the unified two-parameter entropy of density matrices.

unified_entropy(rho, alpha, s) = ((tr rho^alpha)^s - 1) / ((1 - alpha) s)
with the s -> 0 limit giving Renyi, s = 1 giving Tsallis, and alpha -> 1
giving von Neumann for every s.  Limit routing uses fixed thresholds so the
branch taken is deterministic.  Each entropy is a function of the eigenvalues
alone, and of only two numbers of them: the power sum tr rho^alpha
(``power_sum_of``) and the von Neumann value (``von_neumann_of``), both read
from ``density_spectrum``: the full ascending spectrum, with round-off of
exact zeros set to 0.0 by linalg's one rule (``psd_eigenvalues``), one row
per state of a stack.  ``<name>_from`` takes the two as values and routes
between them; each is a float, or a list of one per state of a stack whose
entries are closed one by one in Python floats.  ``<name>`` on a density
matrix is ``<name>_from`` on the two values of its spectrum.  A value outside
the float range raises DomainError.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, ExponentRangeError, NotDensityError, NotHermitianError
from .linalg import DEFAULT_TOL, hermitian_eigenvalues, psd_eigenvalues

ALPHA_ONE_TOL = 1e-9  # |alpha - 1| below this routes to the von Neumann branch
S_ZERO_TOL = 1e-12  # |s| below this routes to the Renyi branch
DENSITY_EIG_FLOOR = -1e-10


def _check_alpha(alpha: float) -> None:
    if math.isnan(alpha) or math.isinf(alpha) or not alpha > 0:
        raise ExponentRangeError(f"alpha={alpha} must be a positive real")


def density_spectrum(rho, tol: float = 1e-9) -> np.ndarray:
    """Validated eigenvalues of a density matrix, ascending, round-off of exact zeros set to 0.0.

    Inputs are never renormalized: a trace away from 1 beyond tol is an error.
    A (trials, d, d) stack gives a (trials, d) array, one spectrum per row.
    """
    try:
        w = hermitian_eigenvalues(rho, DEFAULT_TOL)
    except NotHermitianError as exc:
        raise NotDensityError("density matrix must be Hermitian") from exc
    off = [t for t in w.reshape(-1, w.shape[-1]).sum(axis=1).tolist() if abs(t - 1.0) > tol]
    if off:
        raise NotDensityError(f"trace {off[0]:.12g} differs from 1 beyond {tol}")
    low = float(w.min())
    if low < DENSITY_EIG_FLOOR:
        raise NotDensityError(f"eigenvalue {low:.3e} below {DENSITY_EIG_FLOOR}")
    # past the floor, psd_eigenvalues only zeroes: its own check cannot fail
    return psd_eigenvalues(w)


def von_neumann_of(w):
    """-tr(rho ln rho) of a density spectrum, 0 ln 0 read as 0; a (states, d) stack gives a list."""
    return (-(w * np.log(np.where(w > 0.0, w, 1.0))).sum(axis=-1)).tolist()


def power_sum_of(w, alpha: float):
    """tr rho^alpha of a density spectrum; a (states, d) stack gives a list.

    alpha must be positive, as a zero eigenvalue has no power of order <= 0.
    """
    _check_alpha(alpha)
    return (w**alpha).sum(axis=-1).tolist()


def _closed(formula: Callable[[float], float], x):
    """formula on x, or on each entry of a list x, in Python floats.

    Every entropy value and bound term is closed here, so this is where a value
    outside the float range raises DomainError.
    """
    try:
        if isinstance(x, list):
            return [formula(v) for v in x]
        return formula(float(x))
    except OverflowError as exc:
        raise DomainError("entropy term overflows the float range") from exc
    except ValueError as exc:  # math.log(0.0)
        raise DomainError("entropy term undefined: tr rho^alpha underflowed to 0") from exc


def _renyi(power_sum, von_neumann, alpha: float):
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        return von_neumann
    return _closed(lambda x: math.log(x) / (1.0 - alpha), power_sum)


def renyi_entropy_from(power_sum, von_neumann, alpha: float):
    """Renyi entropy from tr rho^alpha and the von Neumann value; see the module notes."""
    _check_alpha(alpha)
    return _renyi(power_sum, von_neumann, alpha)


def tsallis_entropy_from(power_sum, von_neumann, alpha: float):
    """Tsallis entropy from tr rho^alpha and the von Neumann value; see the module notes."""
    _check_alpha(alpha)
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        return von_neumann
    return _closed(lambda x: (x - 1.0) / (1.0 - alpha), power_sum)


def unified_entropy_from(power_sum, von_neumann, alpha: float, s: float):
    """Unified (alpha, s) entropy from tr rho^alpha and the von Neumann value; see the module notes."""
    _check_alpha(alpha)
    if math.isnan(s) or math.isinf(s):
        raise ExponentRangeError(f"s={s} must be a finite real")
    if abs(alpha - 1.0) < ALPHA_ONE_TOL or abs(s) < S_ZERO_TOL:
        return _renyi(power_sum, von_neumann, alpha)
    return _closed(lambda x: math.expm1(s * math.log(x)) / ((1.0 - alpha) * s), power_sum)


def _inputs(rho, alpha: float, tol: float) -> tuple:
    w = density_spectrum(rho, tol)
    return power_sum_of(w, alpha), von_neumann_of(w)


def von_neumann_entropy(rho, tol: float = 1e-9) -> float:
    """-tr(rho ln rho)."""
    return von_neumann_of(density_spectrum(rho, tol))


def renyi_entropy(rho, alpha: float, tol: float = 1e-9) -> float:
    """ln(tr rho^alpha) / (1 - alpha); alpha near 1 gives von Neumann."""
    return renyi_entropy_from(*_inputs(rho, alpha, tol), alpha)


def tsallis_entropy(rho, alpha: float, tol: float = 1e-9) -> float:
    """(tr rho^alpha - 1) / (1 - alpha); alpha near 1 gives von Neumann."""
    return tsallis_entropy_from(*_inputs(rho, alpha, tol), alpha)


def unified_entropy(rho, alpha: float, s: float, tol: float = 1e-9) -> float:
    """((tr rho^alpha)^s - 1) / ((1 - alpha) s) with deterministic limit branches."""
    return unified_entropy_from(*_inputs(rho, alpha, tol), alpha, s)


def max_entropy_value(m: int, alpha: float, s: float) -> float:
    """Entropy of the maximally mixed state on dimension m, any (alpha, s)."""
    if int(m) != m or m < 1:
        raise DomainError(f"m={m} must be a positive integer")
    _check_alpha(alpha)
    if abs(alpha - 1.0) < ALPHA_ONE_TOL or abs(s) < S_ZERO_TOL:
        return math.log(m)
    return _closed(lambda x: math.expm1((1.0 - alpha) * s * math.log(x)) / ((1.0 - alpha) * s), m)


def dim_weight(m: int, alpha: float, s: float = 1.0) -> float:
    """m^((1 - alpha) s), the weight of the reduced entropy in the unified-entropy bounds."""
    return _closed(lambda x: x ** ((1.0 - alpha) * s), m)


def alpha_log(x: float, alpha: float) -> float:
    """Deformed logarithm (x^(1-alpha) - 1) / (1 - alpha), ln x at alpha near 1."""
    if math.isnan(x) or x <= 0:
        raise DomainError(f"x={x} must be positive")
    _check_alpha(alpha)
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        return math.log(x)
    return _closed(lambda v: math.expm1((1.0 - alpha) * math.log(v)) / (1.0 - alpha), x)
