"""Operators on a two-factor tensor product space and their partial traces."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError
from .linalg import as_integer, as_matrix, pauli_x, pauli_z


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
    block trace.  The group average is the shift average of the phase
    average, each one stacked conjugation over the n powers of its generator.
    """
    m, n = w.dim_a, w.dim_b
    eye_a = np.eye(m, dtype=np.complex128)[None, :, None, :, None]
    acc = w.matrix
    for gen in (pauli_z(n), pauli_x(n)):
        powers = np.empty((n, n, n), dtype=np.complex128)
        powers[0] = np.eye(n)
        for j in range(1, n):
            np.matmul(powers[j - 1], gen, out=powers[j])
        # kron(I_m, U) for every power U at once, as a broadcast product
        us = (eye_a * powers[:, None, :, None, :]).reshape(n, m * n, m * n)
        acc = (us @ acc @ us.conj().swapaxes(1, 2)).sum(axis=0)
    return acc / n

