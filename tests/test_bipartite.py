"""Partial traces checked block by block and against the twirl route."""
import numpy as np
import pytest

from normtrace.bipartite import (
    BipartiteOperator,
    partial_trace_a,
    partial_trace_b,
    swap_factors,
    twirl_oracle_b,
)
from normtrace.errors import ShapeMismatchError


def ginibre(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


DIMS = [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3)]


def test_operator_validation():
    with pytest.raises(ShapeMismatchError):
        BipartiteOperator(np.eye(5), 2, 3)
    with pytest.raises(ShapeMismatchError):
        BipartiteOperator(np.eye(4), 0, 4)
    w = BipartiteOperator(np.arange(36).reshape(6, 6).astype(complex), 2, 3)
    assert w.block(1, 0).shape == (3, 3)
    assert w.block(0, 1)[0, 0] == 3


@pytest.mark.parametrize("m,n", DIMS)
def test_partial_trace_b_block_oracle(m, n):
    rng = np.random.default_rng(m * 10 + n)
    w = BipartiteOperator(ginibre(rng, m * n), m, n)
    qa = partial_trace_b(w)
    ref = np.array([[np.trace(w.block(i, j)) for j in range(m)] for i in range(m)])
    assert np.allclose(qa, ref)
    assert np.trace(qa) == pytest.approx(complex(np.trace(w.matrix)), abs=1e-12)


@pytest.mark.parametrize("m,n", DIMS)
def test_partial_trace_a_block_oracle(m, n):
    rng = np.random.default_rng(m * 100 + n)
    w = BipartiteOperator(ginibre(rng, m * n), m, n)
    qb = partial_trace_a(w)
    ref = sum(w.block(i, i) for i in range(m))
    assert np.allclose(qb, ref)


def test_partial_trace_of_kron_products():
    rng = np.random.default_rng(9)
    a = ginibre(rng, 3)
    b = ginibre(rng, 2)
    w = BipartiteOperator(np.kron(a, b), 3, 2)
    assert np.allclose(partial_trace_b(w), np.trace(b) * a)
    assert np.allclose(partial_trace_a(w), np.trace(a) * b)


@pytest.mark.parametrize("m,n", DIMS)
def test_twirl_equals_embedded_partial_trace(m, n):
    rng = np.random.default_rng(m * 1000 + n)
    w = BipartiteOperator(ginibre(rng, m * n), m, n)
    twirled = twirl_oracle_b(w)
    rebuilt = np.kron(partial_trace_b(w), np.eye(n))
    scale = max(1.0, float(np.abs(w.matrix).max()))
    assert np.abs(twirled - rebuilt).max() <= 1e-12 * scale


def test_swap_factors_exchanges_roles():
    rng = np.random.default_rng(18)
    w = BipartiteOperator(ginibre(rng, 6), 2, 3)
    s = swap_factors(w)
    assert (s.dim_a, s.dim_b) == (3, 2)
    assert np.allclose(partial_trace_b(s), partial_trace_a(w))
    assert np.allclose(partial_trace_a(s), partial_trace_b(w))
    # swapping twice restores the original matrix
    assert np.allclose(swap_factors(s).matrix, w.matrix)
