"""Operators on a two-factor tensor product space and their partial traces."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .linalg import as_integer, as_matrix


@dataclass(frozen=True)
class BipartiteOperator:
    """Square matrix on an (m*n)-dimensional product space, factor A first.

    The row index decomposes as i*n + a with i the A index and a the B index,
    so the matrix is an m-by-m grid of n-by-n blocks.
    """

    matrix: np.ndarray
    dim_a: int
    dim_b: int

    def __post_init__(self):
        m = as_matrix(self.matrix)
        dim_a, dim_b = as_integer(self.dim_a), as_integer(self.dim_b)
        if dim_a < 1 or dim_b < 1:
            raise ShapeMismatchError("factor dimensions must be positive")
        d = dim_a * dim_b
        if m.shape != (d, d):
            raise ShapeMismatchError(
                f"matrix shape {m.shape} does not match factors ({self.dim_a}, {self.dim_b})"
            )
        object.__setattr__(self, "matrix", m)

    def block(self, i: int, j: int) -> np.ndarray:
        """The n-by-n block at grid position (i, j), each in [0, dim_a)."""
        i, j = (as_integer(x, ShapeMismatchError, "an integer block index") for x in (i, j))
        if not (0 <= i < self.dim_a and 0 <= j < self.dim_a):
            raise ShapeMismatchError(f"block ({i}, {j}) outside [0, {self.dim_a})")
        n = self.dim_b
        return self.matrix[i * n : (i + 1) * n, j * n : (j + 1) * n]


def partial_trace_b(w: BipartiteOperator) -> np.ndarray:
    """Trace out the second factor: entry (i, j) is the trace of block (i, j)."""
    return trace_out_b(w.matrix, w.dim_a, w.dim_b)


def trace_out_b(mats: np.ndarray, m: int, n: int) -> np.ndarray:
    """Tr_B of an (m*n)-square matrix, or of each matrix in a (trials, m*n, m*n) stack."""
    t = mats.reshape(mats.shape[:-2] + (m, n, m, n))
    return np.einsum("...iaja->...ij", t)


def partial_trace_a(w: BipartiteOperator) -> np.ndarray:
    """Trace out the first factor: the sum of the diagonal blocks."""
    t = w.matrix.reshape(w.dim_a, w.dim_b, w.dim_a, w.dim_b)
    return np.einsum("iaib->ab", t)


def twirl_oracle_b(w: BipartiteOperator) -> np.ndarray:
    """n times the average of conjugations by I (x) X^l Z^j over the full shift/phase family.

    Equals kron(partial_trace_b(w), I_n) exactly, which makes this sum an
    independent cross-check for the block-trace route: it never takes a
    block trace.  It is the shift sum of the phase sum, each generator applied
    by its structure to entry (i, a, k, b) of the (m, n, m, n) view of W.
    Z^j = diag(z^j), z_a = exp(2 pi i a / n), so the n phase conjugations
    multiply it by one factor F[a, b] = sum_j z_a^j conj(z_b^j), from the
    cumulative powers of z.  The cyclic shift X^l moves it to (i, a+l, k, b+l),
    so one index array (a - l) mod n gathers the n shifted copies.
    """
    m, n = w.dim_a, w.dim_b
    z_powers = np.vander(np.exp(2j * np.pi * np.arange(n) / n), n, increasing=True)  # [a, j] = z_a^j
    phased = w.matrix.reshape(m, n, m, n) * (z_powers @ z_powers.conj().T)[None, :, None, :]
    back = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n  # [l, a] = (a - l) mod n
    # advanced indices apart put their (l, a, b) axes first: (n, n, n, m, m), summed over l
    shifted = phased[:, back[:, :, None], :, back[:, None, :]].sum(axis=0)
    return shifted.transpose(2, 0, 3, 1).reshape(m * n, m * n) / n
