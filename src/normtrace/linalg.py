"""Dense complex matrix kernels for operators on small Hilbert spaces."""
from __future__ import annotations

import numpy as np

from .errors import (
    NotHermitianError,
    NotPsdError,
    NotSquareError,
    ShapeMismatchError,
    SingularPowerError,
)

DEFAULT_TOL = 1e-10
# floor below which a PSD matrix is treated as singular for negative powers
PD_FLOOR_COEFF = 1e-8


def as_matrix(a) -> np.ndarray:
    """Coerce input to a nonempty 2-d complex128 array."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.size == 0:
        raise ShapeMismatchError(f"expected a nonempty 2-d matrix, got shape {m.shape}")
    return m


def require_square(m: np.ndarray) -> int:
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"square matrix required, got shape {m.shape}")
    return m.shape[0]


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    """True when max |M - M^dag| <= tol * (1 + max |M|)."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    scale = 1.0 + float(np.abs(m).max())
    return float(np.abs(m - m.conj().T).max()) <= tol * scale


def is_psd(m, tol: float = DEFAULT_TOL) -> bool:
    """Hermitian with spectrum bounded below by -tol * (1 + spectral norm)."""
    m = as_matrix(m)
    if not is_hermitian(m, tol):
        return False
    w = np.linalg.eigvalsh(m)
    spec = float(np.abs(w).max())
    return float(w.min()) >= -tol * (1.0 + spec)


def hermitian_eigenvalues(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending."""
    m = as_matrix(m)
    require_square(m)
    if not is_hermitian(m, tol):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(m)


def hermitian_eigh(m, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and unitary eigenvector columns of a Hermitian matrix."""
    m = as_matrix(m)
    require_square(m)
    if not is_hermitian(m, tol):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    return np.linalg.eigh(m)


def singular_values(q, pad_to: int | None = None) -> np.ndarray:
    """Singular values in descending order, optionally zero-padded to pad_to."""
    return zero_pad(np.linalg.svd(as_matrix(q), compute_uv=False), pad_to)


def zero_pad(s: np.ndarray, pad_to: int | None) -> np.ndarray:
    """A descending spectrum followed by zeros up to length pad_to, if that is longer."""
    if pad_to is not None and pad_to > s.size:
        s = np.concatenate([s, np.zeros(pad_to - s.size)])
    return s


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor owning the outer (block) index."""
    return np.kron(as_matrix(a), as_matrix(b))


def psd_power(q, t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Spectral power Q^t of a PSD matrix.

    Round-off negatives inside (-tol * scale, 0) are clamped to zero.  A
    negative exponent requires the smallest eigenvalue to clear the floor
    PD_FLOOR_COEFF * (1 + spectral norm).
    """
    q = as_matrix(q)
    require_square(q)
    if not is_hermitian(q, tol):
        raise NotPsdError("matrix is not Hermitian within tolerance")
    w, u = np.linalg.eigh(q)
    spec = float(np.abs(w).max())
    if float(w.min()) < -tol * (1.0 + spec):
        raise NotPsdError("matrix has a negative eigenvalue beyond tolerance")
    w = np.where(w < 0.0, 0.0, w)
    if t < 0:
        floor = PD_FLOOR_COEFF * (1.0 + spec)
        if float(w.min()) <= floor:
            raise SingularPowerError(
                f"negative power {t} needs min eigenvalue above {floor:.3e}"
            )
    x = (u * w**t) @ u.conj().T
    return (x + x.conj().T) / 2.0


def pauli_x(n: int) -> np.ndarray:
    """Cyclic shift: basis vector j maps to j+1 (mod n)."""
    if n < 1:
        raise ShapeMismatchError("dimension must be positive")
    return np.roll(np.eye(n, dtype=np.complex128), 1, axis=0)


def pauli_z(n: int) -> np.ndarray:
    """Phase operator diag(exp(i 2 pi j / n)) for j = 0..n-1."""
    if n < 1:
        raise ShapeMismatchError("dimension must be positive")
    return np.diag(np.exp(2j * np.pi * np.arange(n) / n))
