"""Norm family checked against direct singular value computations."""
import math

import numpy as np
import pytest

from normtrace.errors import DomainError, ExponentRangeError, RankRangeError, ShapeMismatchError
from normtrace.norms import LARGE_P_THRESHOLD, gauge_kp, gauge_table, kp_norm, kyfan_norm, schatten_norm


def ginibre(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def top_sv(q, k):
    return np.sort(np.linalg.svd(q, compute_uv=False))[::-1][:k]


@pytest.mark.parametrize("m", [2, 3, 5, 9])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 10.0, 60.0])
def test_kp_norm_matches_direct_sum(m, p):
    rng = np.random.default_rng(100 * m + int(p * 10))
    q = ginibre(rng, m, m)
    table = gauge_table(top_sv(q, m), p)
    assert table.shape == (m,)
    for k in range(1, m + 1):
        ref = float(np.sum(top_sv(q, k) ** p) ** (1.0 / p))
        assert kp_norm(q, k, p) == pytest.approx(ref, rel=1e-12)
        assert table[k - 1] == pytest.approx(kp_norm(q, k, p), rel=1e-13)
        assert table[k - 1] == pytest.approx(ref, rel=1e-13)


def test_gauge_table_scaled_branch_matches_direct_sum():
    # values whose 60th powers overflow on the unscaled axis
    s = np.array([1e200, 3e199, 1e199, 5.0])
    p = 60.0
    assert p > LARGE_P_THRESHOLD
    table = gauge_table(s, p)
    for k in range(1, s.size + 1):
        ref = 1e200 * float(np.sum((s[:k] / 1e200) ** p)) ** (1.0 / p)
        assert table[k - 1] == pytest.approx(ref, rel=1e-13)
        assert table[k - 1] == pytest.approx(gauge_kp(s, k, p), rel=1e-13)


def test_gauge_table_of_zero_padded_spectrum():
    # the (kd, p) norm of a spectrum zero-padded to length kd, as the channel cases read it
    rng = np.random.default_rng(17)
    s = top_sv(ginibre(rng, 3, 3), 3)
    for p in (1.0, 1.5, 10.0, 60.0, np.inf):
        table = gauge_table(s, p)
        for kd in range(1, 8):
            padded = np.concatenate([s, np.zeros(max(0, kd - s.size))])
            assert table[min(kd, s.size) - 1] == pytest.approx(gauge_kp(padded, kd, p), rel=1e-13)


def test_kp_norm_infinite_p_is_spectral():
    rng = np.random.default_rng(3)
    q = ginibre(rng, 4, 4)
    s1 = top_sv(q, 1)[0]
    table = gauge_table(top_sv(q, 4), np.inf)
    for k in range(1, 5):
        assert kp_norm(q, k, np.inf) == pytest.approx(s1, rel=1e-13)
        assert table[k - 1] == s1


def test_gauge_accepts_any_vector_order():
    assert gauge_kp([1.0, 5.0, 3.0], 2, 1.0) == pytest.approx(8.0)
    assert gauge_kp([1.0, 5.0, 3.0], 2, np.inf) == pytest.approx(5.0)


def test_large_p_does_not_overflow():
    q = np.diag([1e150, 1e140, 1.0])
    v = kp_norm(q, 2, 200.0)
    assert np.isfinite(v)
    assert v == pytest.approx(1e150, rel=1e-10)


def test_kyfan_is_p_one():
    rng = np.random.default_rng(8)
    q = ginibre(rng, 4, 4)
    for k in range(1, 5):
        assert kyfan_norm(q, k) == pytest.approx(kp_norm(q, k, 1.0), rel=1e-14)
        assert kyfan_norm(q, k) == pytest.approx(float(top_sv(q, k).sum()), rel=1e-13)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, np.inf])
def test_schatten_matches_full_k(p):
    rng = np.random.default_rng(int(10 * p) if np.isfinite(p) else 99)
    q = ginibre(rng, 4, 4)
    assert schatten_norm(q, p) == pytest.approx(kp_norm(q, 4, p), rel=1e-13)


def test_schatten_rectangular():
    rng = np.random.default_rng(12)
    q = ginibre(rng, 3, 5)
    sv = np.linalg.svd(q, compute_uv=False)
    assert schatten_norm(q, 2.0) == pytest.approx(float(np.sqrt((sv**2).sum())), rel=1e-13)
    assert schatten_norm(q, 2.0) == pytest.approx(float(np.linalg.norm(q, "fro")), rel=1e-13)


def test_unitary_invariance():
    rng = np.random.default_rng(21)
    q = ginibre(rng, 4, 4)
    u, _ = np.linalg.qr(ginibre(rng, 4, 4))
    v, _ = np.linalg.qr(ginibre(rng, 4, 4))
    for k, p in [(1, 2.0), (2, 1.0), (3, 3.0), (4, np.inf)]:
        assert kp_norm(u @ q @ v, k, p) == pytest.approx(kp_norm(q, k, p), rel=1e-11)


def test_triangle_inequality_sampled():
    rng = np.random.default_rng(31)
    for trial in range(25):
        a = ginibre(rng, 4, 4)
        b = ginibre(rng, 4, 4)
        for k, p in [(2, 1.0), (3, 2.0), (4, 1.5), (2, np.inf)]:
            lhs = kp_norm(a + b, k, p)
            rhs = kp_norm(a, k, p) + kp_norm(b, k, p)
            assert lhs <= rhs + 1e-10 * max(1.0, rhs)


def test_monotone_in_k_and_p():
    rng = np.random.default_rng(41)
    q = ginibre(rng, 5, 5)
    values = [kp_norm(q, k, 2.0) for k in range(1, 6)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    # p -> ||.||_(k)^(p) is nonincreasing for fixed k
    ps = [1.0, 1.5, 2.0, 4.0, 16.0]
    for k in (2, 4):
        vals = [kp_norm(q, k, p) for p in ps]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_gauge_kp_reads_complex_entries_by_their_moduli():
    # a complex entry raised a bare TypeError from the conversion to float
    assert gauge_kp([3 + 4j], 1, 1.0) == 5.0
    assert gauge_kp(np.array([1.0, -2.0 + 0j, 3j]), 2, 2.0) == pytest.approx(math.sqrt(13.0), rel=1e-15)
    assert gauge_kp([1, -7, 2], 2, 1.0) == 9.0


@pytest.mark.parametrize("x,k,p", [([math.nan, 1.0], 1, 2.0), ([math.inf, 1.0], 2, 2.0), ([1.0, math.nan], 1, math.inf)])
def test_gauge_kp_refuses_a_non_finite_entry(x, k, p):
    # a NaN or infinite entry sorts among the k largest, and its gauge was returned as nan or inf
    with pytest.raises(DomainError, match="entries of x must be finite"):
        gauge_kp(x, k, p)


@pytest.mark.parametrize("x", [["a"], "ab", [None], [1.0, "2"], [[1.0, 2.0], [3.0]], [True, False]])
def test_gauge_kp_rejects_sequences_that_are_not_numbers(x):
    with pytest.raises(ShapeMismatchError, match="sequence of numbers"):
        gauge_kp(x, 1, 1.0)


def test_rank_and_exponent_validation():
    q = np.eye(3)
    with pytest.raises(RankRangeError):
        kp_norm(q, 0, 2.0)
    with pytest.raises(RankRangeError):
        kp_norm(q, 4, 2.0)
    with pytest.raises(ExponentRangeError):
        kp_norm(q, 2, 0.5)
    with pytest.raises(ExponentRangeError):
        kp_norm(q, 2, np.nan)
    with pytest.raises(RankRangeError):
        gauge_kp([1.0, 2.0], 3, 1.0)
    for x in ([[1.0, 2.0]], [], 3.0):  # not a nonempty 1-d sequence
        with pytest.raises(ShapeMismatchError):
            gauge_kp(x, 1, 1.0)
    for p in (0.0, 0.5, -np.inf, np.nan):
        with pytest.raises(ExponentRangeError):
            gauge_table(np.array([2.0, 1.0]), p)


def test_zero_matrix():
    z = np.zeros((3, 3))
    assert kp_norm(z, 2, 2.0) == 0.0
    assert schatten_norm(z, np.inf) == 0.0
    for p in (1.0, 1.5, 10.0, 60.0, np.inf):
        assert gauge_table(np.zeros(3), p).tolist() == [0.0, 0.0, 0.0]


def test_gauge_table_of_a_stack_matches_each_row():
    rng = np.random.default_rng(31)
    rows = np.stack([top_sv(ginibre(rng, 5, 5), 5) for _ in range(3)] + [np.zeros(5)])
    for p in (1.0, 1.5, 2.0, 60.0, np.inf):
        assert gauge_table(rows, p).tolist() == [gauge_table(r, p).tolist() for r in rows]
