"""Partial traces checked block by block and against the twirl route."""
import numpy as np
import pytest

from normtrace import bipartite
from normtrace.bipartite import (
    BipartiteOperator,
    partial_trace_a,
    partial_trace_b,
    twirl_oracle_b,
)
from normtrace.errors import PreconditionError, ShapeMismatchError


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


@pytest.mark.parametrize("i,j", [(5, 0), (-1, 0), (0, 2), (0, -3), (1.0, 0), (True, 0), (0, "1")])
def test_block_index_must_be_an_integer_in_range(i, j):
    # block(5, 0) and block(-1, 0) returned an empty (0, 2) array, and a float index raised a bare TypeError
    w = BipartiteOperator(np.arange(16).reshape(4, 4).astype(complex), 2, 2)
    with pytest.raises(ShapeMismatchError):
        w.block(i, j)
    assert w.block(np.int64(1), 1).tolist() == [[10, 11], [14, 15]]


@pytest.mark.parametrize("matrix,dim_a,dim_b", [(np.eye(5), 2.5, 2), (np.eye(2), True, 2), (np.eye(4), 2, 2.0)])
def test_factor_dims_must_be_integers(matrix, dim_a, dim_b):
    # 2.5 * 2 == 5 and True * 2 == 2 match the shape, but no partial trace has such factors
    with pytest.raises(PreconditionError, match="integer"):
        BipartiteOperator(matrix, dim_a, dim_b)
    w = BipartiteOperator(np.eye(4), np.int64(2), np.int32(2))
    assert partial_trace_b(w).shape == (2, 2)


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


TWIRL_DIMS = DIMS + [(1, 1), (1, 4), (3, 1), (2, 5), (6, 6)]


@pytest.mark.parametrize("m,n", TWIRL_DIMS)
def test_twirl_equals_embedded_partial_trace(m, n):
    rng = np.random.default_rng(m * 1000 + n)
    w = BipartiteOperator(ginibre(rng, m * n), m, n)
    twirled = twirl_oracle_b(w)
    rebuilt = np.kron(partial_trace_b(w), np.eye(n))
    scale = max(1.0, float(np.abs(w.matrix).max()))
    assert twirled.shape == (m * n, m * n)
    assert np.abs(twirled - rebuilt).max() <= 1e-12 * scale


@pytest.mark.parametrize("m,n", TWIRL_DIMS + [(3, 4)])
def test_twirl_is_the_literal_group_sum(m, n):
    # the phase factor and the shift gather equal (1/n) sum over l, j of
    # U W U^dag with U = I (x) X^l Z^j, on every shape whose index arithmetic
    # differs: n = 1, m = 1, n prime and n composite
    rng = np.random.default_rng(m * 7 + n)
    w = BipartiteOperator(ginibre(rng, m * n), m, n)
    x = np.roll(np.eye(n), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(n) / n))
    total = np.zeros((m * n, m * n), dtype=complex)
    for l in range(n):
        for j in range(n):
            u = np.kron(np.eye(m), np.linalg.matrix_power(x, l) @ np.linalg.matrix_power(z, j))
            total += u @ w.matrix @ u.conj().T
    assert np.abs(twirl_oracle_b(w) - total / n).max() <= 1e-12 * float(np.abs(w.matrix).max())


def test_twirl_never_takes_a_block_trace(monkeypatch):
    # the oracle is a cross-check only while it shares no code with the
    # block-trace route: it must run with that route and einsum unavailable
    rng = np.random.default_rng(25)
    w = BipartiteOperator(100.0 * ginibre(rng, 12), 3, 4)
    rebuilt = np.kron(partial_trace_b(w), np.eye(4))

    def unavailable(*args, **kwargs):
        raise AssertionError("the twirl oracle took a block trace")

    monkeypatch.setattr(bipartite, "trace_out_b", unavailable)
    monkeypatch.setattr(bipartite, "partial_trace_b", unavailable)
    monkeypatch.setattr(np, "einsum", unavailable)
    twirled = bipartite.twirl_oracle_b(w)
    assert np.abs(twirled - rebuilt).max() <= 1e-12 * float(np.abs(w.matrix).max())
