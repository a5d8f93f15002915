"""Renyi, Tsallis, and the unified two-parameter entropy of density matrices.

unified_entropy(rho, alpha, s) = ((tr rho^alpha)^s - 1) / ((1 - alpha) s)
with the s -> 0 limit giving Renyi, s = 1 giving Tsallis, and alpha -> 1
giving von Neumann for every s.  Limit routing uses fixed thresholds so the
branch taken is deterministic; s == 1 takes Tsallis' closed form, which needs
no logarithm.  Each entropy is a function of the eigenvalues alone, and of only
two numbers of them: the power sum tr rho^alpha (``power_sum_of``) and the von
Neumann value (``von_neumann_of``), both read from ``density_spectrum``: the
full ascending spectrum, with round-off of exact zeros set to 0.0 by linalg's
one rule (``zero_round_off``), one row per state of a stack.
``unified_entropy_from`` takes the two as values and routes between them; each
is a float, or a list of one per state of a stack whose entries are closed one
by one in Python floats.  Each named entropy of a density matrix is it on its
spectrum's two values.  A value outside the float range raises DomainError.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, ExponentRangeError, NotDensityError, NotHermitianError
from .linalg import as_exponent, as_integer, hermitian_eigenvalues, spectral_radius, zero_round_off

ALPHA_ONE_TOL = 1e-9  # |alpha - 1| below this routes to the von Neumann branch
S_ZERO_TOL = 1e-12  # |s| below this routes to the Renyi branch
DENSITY_EIG_FLOOR = -1e-10
TRACE_TOL = 1e-9  # |tr rho - 1| above this is not a density matrix


def _check_alpha(alpha: float) -> None:
    if not 0 < as_exponent(alpha, "alpha") < math.inf:
        raise ExponentRangeError(f"alpha={alpha} must be a positive real")


def _check_s(s: float) -> None:
    if not math.isfinite(as_exponent(s, "s")):
        raise ExponentRangeError(f"s={s} must be a finite real")


def density_spectrum(rho) -> np.ndarray:
    """Validated eigenvalues of a density matrix, ascending, round-off of exact zeros set to 0.0.

    Inputs are never renormalized: a trace away from 1 beyond TRACE_TOL is an error.
    A (trials, d, d) stack gives a (trials, d) array, one spectrum per row.
    """
    try:
        w = hermitian_eigenvalues(rho)
    except NotHermitianError as exc:
        raise NotDensityError("density matrix must be Hermitian") from exc
    off = [t for t in w.reshape(-1, w.shape[-1]).sum(axis=1).tolist() if abs(t - 1.0) > TRACE_TOL]
    if off:
        raise NotDensityError(f"trace {off[0]:.12g} differs from 1 beyond {TRACE_TOL}")
    low = float(w[..., 0].min())  # each row ascends from its minimum
    if low < DENSITY_EIG_FLOOR:
        raise NotDensityError(f"eigenvalue {low:.3e} below {DENSITY_EIG_FLOOR}")
    return zero_round_off(w, spectral_radius(w))


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


def unified_entropy_from(power_sum, von_neumann, alpha: float, s: float):
    """Unified (alpha, s) entropy from tr rho^alpha and the von Neumann value; see the module notes."""
    _check_alpha(alpha)
    _check_s(s)
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        return von_neumann
    if abs(s) < S_ZERO_TOL:  # Renyi
        return _closed(lambda x: math.log(x) / (1.0 - alpha), power_sum)
    if s == 1.0:  # Tsallis
        return _closed(lambda x: (x - 1.0) / (1.0 - alpha), power_sum)
    return _closed(lambda x: math.expm1(s * math.log(x)) / ((1.0 - alpha) * s), power_sum)


def von_neumann_entropy(rho) -> float:
    """-tr(rho ln rho)."""
    return von_neumann_of(density_spectrum(rho))


def renyi_entropy(rho, alpha: float) -> float:
    """ln(tr rho^alpha) / (1 - alpha), the unified entropy at s = 0; alpha near 1 gives von Neumann."""
    return unified_entropy(rho, alpha, 0.0)


def tsallis_entropy(rho, alpha: float) -> float:
    """(tr rho^alpha - 1) / (1 - alpha), the unified entropy at s = 1; alpha near 1 gives von Neumann."""
    return unified_entropy(rho, alpha, 1.0)


def unified_entropy(rho, alpha: float, s: float) -> float:
    """((tr rho^alpha)^s - 1) / ((1 - alpha) s) with deterministic limit branches."""
    w = density_spectrum(rho)
    return unified_entropy_from(power_sum_of(w, alpha), von_neumann_of(w), alpha, s)


def max_entropy_value(m: int, alpha: float, s: float) -> float:
    """Entropy of the maximally mixed state on dimension m, any (alpha, s)."""
    if as_integer(m, DomainError, "a positive integer m") < 1:
        raise DomainError(f"m={m} must be a positive integer")
    _check_alpha(alpha)
    _check_s(s)
    if abs(alpha - 1.0) < ALPHA_ONE_TOL or abs(s) < S_ZERO_TOL:
        return math.log(m)
    return _closed(lambda x: math.expm1((1.0 - alpha) * s * math.log(x)) / ((1.0 - alpha) * s), m)


def dim_weight(m: int, alpha: float, s: float) -> float:
    """m^((1 - alpha) s), the weight of the reduced entropy in the unified-entropy bounds."""
    return _closed(lambda x: x ** ((1.0 - alpha) * s), m)

