"""Renyi, Tsallis, and the unified two-parameter entropy of density matrices.

unified_entropy(rho, alpha, s) = ((tr rho^alpha)^s - 1) / ((1 - alpha) s)
with the s -> 0 limit giving Renyi, s = 1 giving Tsallis, and alpha -> 1
giving von Neumann for every s.  Limit routing uses fixed thresholds so the
branch taken is deterministic.  Each entropy is a function of the eigenvalues
alone, and of only two numbers of them: the power sum tr rho^alpha
(``power_sum_of``) and the von Neumann value (``von_neumann_of``).
``<name>_from`` routes between the two, given each as a function so that only
the one its branch needs is computed and a caller may memoize both per state.
``<name>`` on a density matrix is the spectrum that ``density_spectrum``
returns, then ``<name>_from`` on its two numbers.  The two inputs may also be
lists, one entry per state of a stack (``per_state`` gives them from
``density_spectrum`` of a stack), closed entry by entry in Python floats.  A
value outside the float range raises DomainError.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, ExponentRangeError, NotDensityError, NotHermitianError
from .linalg import DEFAULT_TOL, hermitian_eigenvalues

ALPHA_ONE_TOL = 1e-9  # |alpha - 1| below this routes to the von Neumann branch
S_ZERO_TOL = 1e-12  # |s| below this routes to the Renyi branch
EIG_DROP = 1e-14  # eigenvalues at or below this are dropped from sums
DENSITY_EIG_FLOOR = -1e-10

Lazy = Callable[[], object]  # a spectral input: a float, or a list of one per state


def _check_alpha(alpha: float) -> None:
    if math.isnan(alpha) or math.isinf(alpha) or not alpha > 0:
        raise ExponentRangeError(f"alpha={alpha} must be a positive real")


def density_spectrum(rho, tol: float = 1e-9):
    """Validated eigenvalues of a density matrix, ascending, tiny ones dropped.

    Inputs are never renormalized: a trace away from 1 beyond tol is an error.
    A (trials, d, d) stack gives its spectra grouped by length, as a list of
    (trial indices, stacked spectra) pairs; per_state reads values off them.
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
    if w.ndim == 1:
        return w[w > EIG_DROP]
    # the dropped eigenvalues are the smallest, so a row keeps its last `size`
    kept, d = (w > EIG_DROP).sum(axis=-1), w.shape[-1]
    groups = [(np.flatnonzero(kept == size), size) for size in sorted(set(kept.tolist()))]
    return [(rows, w[rows, d - size :]) for rows, size in groups]


def per_state(f: Callable[[np.ndarray], list], groups: list) -> list:
    """f of each group of density_spectrum of a stack, as one value per state in stack order."""
    values = [None] * sum(len(rows) for rows, _ in groups)
    for rows, spectra in groups:
        for t, v in zip(rows.tolist(), f(spectra)):
            values[t] = v
    return values


def von_neumann_of(w):
    """-tr(rho ln rho) of a density spectrum; a (states, d) stack of spectra gives a list."""
    return (-(w * np.log(w)).sum(axis=-1)).tolist()


def power_sum_of(w, alpha: float):
    """tr rho^alpha of a density spectrum; a (states, d) stack of spectra gives a list."""
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


def _renyi(power_sum: Lazy, von_neumann: Lazy, alpha: float):
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        return von_neumann()
    return _closed(lambda x: math.log(x) / (1.0 - alpha), power_sum())


def renyi_entropy_from(power_sum: Lazy, von_neumann: Lazy, alpha: float):
    """Renyi entropy from tr rho^alpha and the von Neumann value; see the module notes."""
    _check_alpha(alpha)
    return _renyi(power_sum, von_neumann, alpha)


def tsallis_entropy_from(power_sum: Lazy, von_neumann: Lazy, alpha: float):
    """Tsallis entropy from tr rho^alpha and the von Neumann value; see the module notes."""
    _check_alpha(alpha)
    if abs(alpha - 1.0) < ALPHA_ONE_TOL:
        return von_neumann()
    return _closed(lambda x: (x - 1.0) / (1.0 - alpha), power_sum())


def unified_entropy_from(power_sum: Lazy, von_neumann: Lazy, alpha: float, s: float):
    """Unified (alpha, s) entropy from tr rho^alpha and the von Neumann value; see the module notes."""
    _check_alpha(alpha)
    if math.isnan(s) or math.isinf(s):
        raise ExponentRangeError(f"s={s} must be a finite real")
    if abs(alpha - 1.0) < ALPHA_ONE_TOL or abs(s) < S_ZERO_TOL:
        return _renyi(power_sum, von_neumann, alpha)
    return _closed(lambda x: math.expm1(s * math.log(x)) / ((1.0 - alpha) * s), power_sum())


def _inputs(w: np.ndarray, alpha: float) -> tuple[Lazy, Lazy]:
    return (lambda: power_sum_of(w, alpha)), (lambda: von_neumann_of(w))


def von_neumann_entropy(rho, tol: float = 1e-9) -> float:
    """-tr(rho ln rho)."""
    return von_neumann_of(density_spectrum(rho, tol))


def renyi_entropy(rho, alpha: float, tol: float = 1e-9) -> float:
    """ln(tr rho^alpha) / (1 - alpha); alpha near 1 gives von Neumann."""
    return renyi_entropy_from(*_inputs(density_spectrum(rho, tol), alpha), alpha)


def tsallis_entropy(rho, alpha: float, tol: float = 1e-9) -> float:
    """(tr rho^alpha - 1) / (1 - alpha); alpha near 1 gives von Neumann."""
    return tsallis_entropy_from(*_inputs(density_spectrum(rho, tol), alpha), alpha)


def unified_entropy(rho, alpha: float, s: float, tol: float = 1e-9) -> float:
    """((tr rho^alpha)^s - 1) / ((1 - alpha) s) with deterministic limit branches."""
    return unified_entropy_from(*_inputs(density_spectrum(rho, tol), alpha), alpha, s)


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
