"""Dense complex matrix kernels for operators on small Hilbert spaces."""
from __future__ import annotations

import math
import operator
from numbers import Real

import numpy as np

from .errors import (
    BadDimsError,
    DomainError,
    ExponentRangeError,
    NotHermitianError,
    NotPsdError,
    NotSquareError,
    ShapeMismatchError,
    SingularPowerError,
)

DEFAULT_TOL = 1e-10
# floor below which a PSD matrix is treated as singular for negative powers
PD_FLOOR_COEFF = 1e-8
# eigenvalues of a PSD matrix at or below this share of its spectral radius are
# round-off of exact zeros
PSD_ZERO_REL = 1e-13


def as_matrix(a) -> np.ndarray:
    """Coerce input to a nonempty 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.size == 0:
        raise ShapeMismatchError(f"expected a nonempty 2-d matrix, got shape {m.shape}")
    return m


def as_integer(x, error=BadDimsError, expected: str = "an integer") -> int:
    """x as an int; a bool, or a value that is not an integer such as 2.5 or even 2.0, raises error."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise error(f"expected {expected}, got {x!r}")


def as_exponent(x, name: str) -> float:
    """x as a float; a bool, or a value that is not a real number such as "2", 1j or None, raises ExponentRangeError."""
    if type(x) is float:  # the common case, without the abstract class check's 0.5 us
        return x
    if isinstance(x, bool) or not isinstance(x, Real):
        raise ExponentRangeError(f"{name} takes a real number, got {x!r}")
    return float(x)


def as_matrices(a) -> np.ndarray:
    """Coerce input to a nonempty complex128 matrix or (trials, r, c) stack of matrices."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.size == 0:
        raise ShapeMismatchError(f"expected a nonempty matrix or stack of matrices, got shape {m.shape}")
    return m


def stacked(parts) -> np.ndarray:
    """The stacks of parts joined along the first axis; a single part is itself, not a copy."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def require_square(m: np.ndarray) -> int:
    if m.shape[-2] != m.shape[-1]:
        raise NotSquareError(f"square matrix required, got shape {m.shape}")
    return m.shape[-1]


def is_hermitian(m) -> bool:
    """True when max |M - M^dag| <= DEFAULT_TOL * (1 + max |M|) for M or each matrix of a stack; NaN or inf: DomainError."""
    m = as_matrices(m)
    if m.shape[-2] != m.shape[-1]:
        return False
    # one row per matrix; each row's test is closed in Python floats, which for
    # a few rows costs less than more numpy calls.  The scale comes first, as
    # M - M^dag would take inf - inf
    rows = (-1, m.shape[-1] ** 2)
    scale = np.abs(m).reshape(rows).max(axis=1).tolist()
    if not all(map(math.isfinite, scale)):
        raise DomainError("matrix entries must be finite")
    off = np.abs(m - m.conj().swapaxes(-1, -2)).reshape(rows).max(axis=1).tolist()
    return all(o <= DEFAULT_TOL * (1.0 + s) for o, s in zip(off, scale))


def psd_eigenvalues(w: np.ndarray) -> np.ndarray:
    """Ascending Hermitian eigenvalues (or rows of them) with round-off of exact zeros set to zero.

    NotPsdError when a row's smallest is below -DEFAULT_TOL * (1 + its spectral radius).
    """
    lows = w[..., 0].ravel().tolist()
    radius = spectral_radius(w)
    if any(low < -DEFAULT_TOL * (1.0 + r) for low, r in zip(lows, radius.ravel().tolist())):
        raise NotPsdError("matrix has a negative eigenvalue beyond tolerance")
    return zero_round_off(w, radius)


def spectral_radius(w: np.ndarray) -> np.ndarray:
    """Largest magnitude of an ascending spectrum, one per row, kept as a (..., 1) column."""
    return np.maximum(-w[..., :1], w[..., -1:])


def zero_round_off(w: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """Entries at or below PSD_ZERO_REL times their row's spectral radius set to zero.

    These are the round-off negatives, and the tiny positives that eigvalsh
    returns for exact zeros, which a power p < 1 would otherwise magnify.
    """
    return np.where(w <= PSD_ZERO_REL * radius, 0.0, w)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending; a stack gives one row per matrix."""
    m = as_matrices(m)
    require_square(m)
    if not is_hermitian(m):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)


def singular_values(q) -> np.ndarray:
    """Singular values in descending order; a NaN or infinite entry raises DomainError."""
    q = as_matrix(q)
    if not np.isfinite(q).all():  # LAPACK would not converge on a NaN, and return NaNs for an infinity
        raise DomainError("matrix entries must be finite")
    return np.linalg.svd(q, compute_uv=False)


def kron(a, b) -> np.ndarray:
    """Kronecker product of matrices or stacks of them, the left factor owning the block index; np.kron's products."""
    a, b = as_matrices(a), as_matrices(b)
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def psd_power(q, t: float) -> np.ndarray:
    """Spectral power Q^t of a PSD matrix.

    Round-off negatives inside (-DEFAULT_TOL * scale, 0) are clamped to zero.  A
    negative exponent requires the smallest eigenvalue to clear the floor
    PD_FLOOR_COEFF * (1 + spectral norm).  A t not a finite real raises ExponentRangeError.
    """
    t = as_exponent(t, "t")
    if not math.isfinite(t):
        raise ExponentRangeError(f"t={t} must be a finite real")
    q = as_matrix(q)
    require_square(q)
    if not is_hermitian(q):
        raise NotPsdError("matrix is not Hermitian within tolerance")
    w, u = np.linalg.eigh(q)
    spec = float(np.abs(w).max())
    w = psd_eigenvalues(w)
    if t < 0:
        floor = PD_FLOOR_COEFF * (1.0 + spec)
        if float(w.min()) <= floor:
            raise SingularPowerError(
                f"negative power {t} needs min eigenvalue above {floor:.3e}"
            )
    x = (u * w**t) @ u.conj().T
    return (x + x.conj().T) / 2.0

