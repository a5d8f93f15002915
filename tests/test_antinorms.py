import numpy as np
import pytest

from normtrace.antinorms import (
    antinorm_table,
    kp_antinorm,
    kp_antinorm_of,
    kyfan_antinorm,
    partial_fidelity,
    psd_spectrum,
    schatten_antinorm,
    schatten_antinorm_of,
)
from normtrace.errors import (
    ExponentRangeError,
    NotPsdError,
    RankRangeError,
    ShapeMismatchError,
    SingularPowerError,
)
from normtrace.linalg import psd_power
from normtrace.norms import kp_norm, kyfan_norm


def psd(rng, n):
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    return g @ g.conj().T


@pytest.mark.parametrize("m", [2, 3, 5])
def test_kyfan_antinorm_sums_smallest(m):
    rng = np.random.default_rng(m)
    a = psd(rng, m)
    w = np.sort(np.linalg.eigvalsh(a))
    for k in range(1, m + 1):
        assert kyfan_antinorm(a, k) == pytest.approx(float(w[:k].sum()), rel=1e-12)
    for k in (0, m + 1):
        with pytest.raises(RankRangeError):
            kyfan_antinorm(a, k)


def test_kyfan_antinorm_is_the_k_1_antinorm():
    # the (k, 1) entry of the anti-norm table, a cumulative sum; numpy's sum
    # groups 8 or more terms pairwise, so it may differ in the last bits
    rng = np.random.default_rng(12)
    a = psd(rng, 12)
    w = psd_spectrum(a)
    for k in range(1, 13):
        assert kyfan_antinorm(a, k) == kp_antinorm(a, k, 1.0)
        assert kyfan_antinorm(a, k) == pytest.approx(float(w[:k].sum()), rel=1e-13, abs=0.0)


def test_complement_identity_with_kyfan_norm():
    # sum of k smallest = trace minus sum of (m-k) largest
    rng = np.random.default_rng(7)
    a = psd(rng, 4)
    tr = float(np.trace(a).real)
    for k in range(1, 4):
        lhs = kyfan_antinorm(a, k)
        rhs = tr - kyfan_norm(a, 4 - k)
        assert lhs == pytest.approx(rhs, abs=1e-11)


@pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 1.0])
def test_kp_antinorm_direct_formula(p):
    rng = np.random.default_rng(int(100 * p))
    a = psd(rng, 4)
    w = np.sort(np.linalg.eigvalsh(a))
    for k in range(1, 5):
        ref = float(np.sum(w[:k] ** p) ** (1.0 / p))
        assert kp_antinorm(a, k, p) == pytest.approx(ref, rel=1e-11)


@pytest.mark.parametrize("m", [4, 9])
@pytest.mark.parametrize("p", [0.25, 0.5, 0.75, 1.0])
def test_antinorm_table_direct_formula(m, p):
    rng = np.random.default_rng(int(100 * p) + m)
    a = psd(rng, m)
    w = np.sort(np.linalg.eigvalsh(a))
    table = antinorm_table(w, p)
    assert table.shape == (m,)
    for k in range(1, m + 1):
        ref = float(np.sum(w[:k] ** p) ** (1.0 / p))
        assert kp_antinorm(a, k, p) == pytest.approx(ref, rel=1e-11)
        assert table[k - 1] == pytest.approx(kp_antinorm_of(w, k, p), rel=1e-13)
        assert table[k - 1] == pytest.approx(ref, rel=1e-13)
    assert table[-1] == pytest.approx(schatten_antinorm_of(w, p), rel=1e-13)


def test_kp_antinorm_ambient_padding():
    a = np.diag([2.0, 3.0])
    # ambient dimension 4 prepends two zero eigenvalues
    assert kp_antinorm(a, 1, 0.5, ambient_dim=4) == 0.0
    assert kp_antinorm(a, 3, 1.0, ambient_dim=4) == pytest.approx(2.0)
    assert kp_antinorm(a, 4, 1.0, ambient_dim=4) == pytest.approx(5.0)
    with pytest.raises(ShapeMismatchError):
        kp_antinorm(a, 1, 0.5, ambient_dim=1)
    with pytest.raises(RankRangeError):
        kp_antinorm(a, 5, 0.5, ambient_dim=4)
    with pytest.raises(RankRangeError):
        kp_antinorm(a, 0, 0.5, ambient_dim=4)
    w = np.array([2.0, 3.0])
    for p in (0.25, 0.5, 1.0):
        table = antinorm_table(w, p, ambient_dim=5)
        assert table.shape == (5,)
        # k at or below the three padded zeros reads 0; above them, the real spectrum
        assert table[:3].tolist() == [0.0, 0.0, 0.0]
        for k in range(1, 6):
            padded = np.concatenate([np.zeros(3), w])
            assert table[k - 1] == pytest.approx(float(np.sum(padded[:k] ** p) ** (1.0 / p)), rel=1e-13)
            assert table[k - 1] == pytest.approx(kp_antinorm_of(w, k, p, ambient_dim=5), rel=1e-13)
    with pytest.raises(ShapeMismatchError):
        antinorm_table(w, 0.5, ambient_dim=1)


@pytest.mark.parametrize("k", [1, 5])
def test_kp_antinorm_of_takes_one_spectrum(k):
    # a (rows, d) stack raised a bare TypeError, and a k past one row an IndexError
    with pytest.raises(ShapeMismatchError, match="1-d spectrum"):
        kp_antinorm_of(np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]]), k, 0.5)


def test_superadditivity_sampled():
    rng = np.random.default_rng(19)
    for trial in range(25):
        a = psd(rng, 4)
        b = psd(rng, 4)
        for k, p in [(1, 1.0), (2, 0.5), (3, 0.75), (4, 1.0)]:
            lhs = kp_antinorm(a + b, k, p)
            rhs = kp_antinorm(a, k, p) + kp_antinorm(b, k, p)
            assert lhs >= rhs - 1e-9 * max(1.0, lhs)


def test_kp_antinorm_rejects_bad_exponent():
    a = np.eye(3)
    for p in (0.0, 1.5, -0.5, np.nan):
        with pytest.raises(ExponentRangeError):
            kp_antinorm(a, 2, p)
        with pytest.raises(ExponentRangeError):
            antinorm_table(np.ones(3), p)


def test_schatten_antinorm_positive_branch():
    rng = np.random.default_rng(23)
    a = psd(rng, 4)
    w = np.linalg.eigvalsh(a)
    for p in (0.25, 0.5, 1.0):
        ref = float(np.sum(w**p) ** (1.0 / p))
        assert schatten_antinorm(a, p) == pytest.approx(ref, rel=1e-11)


def test_schatten_antinorm_negative_branch():
    rng = np.random.default_rng(29)
    a = psd(rng, 3) + np.eye(3)
    w = np.linalg.eigvalsh(a)
    for p in (-0.5, -1.0, -2.0):
        ref = float(np.sum(w**p) ** (1.0 / p))
        assert schatten_antinorm(a, p) == pytest.approx(ref, rel=1e-10)
    # harmonic mean style value sits below the smallest eigenvalue scale
    assert schatten_antinorm(a, -1.0) <= float(w.sum())


def test_schatten_antinorm_negative_needs_pd():
    with pytest.raises(SingularPowerError):
        schatten_antinorm(np.diag([1.0, 0.0]), -1.0)


def test_schatten_antinorm_exponent_validation():
    a = np.eye(2)
    for p in (0.0, 2.0, np.nan, np.inf):
        with pytest.raises(ExponentRangeError):
            schatten_antinorm(a, p)


def test_antinorms_reject_non_psd():
    h = np.diag([1.0, -1.0])
    with pytest.raises(NotPsdError):
        kyfan_antinorm(h, 1)
    with pytest.raises(NotPsdError):
        kp_antinorm(h, 1, 0.5)
    g = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotPsdError):
        kyfan_antinorm(g, 1)


def test_antinorm_can_vanish_on_nonzero_input():
    a = np.diag([0.0, 1.0, 2.0])
    assert kyfan_antinorm(a, 1) == 0.0
    assert kp_antinorm(a, 2, 0.5) > 0.0
    for p in (0.25, 0.5, 1.0):
        assert antinorm_table(np.zeros(3), p).tolist() == [0.0, 0.0, 0.0]


def test_partial_fidelity_extremes():
    rng = np.random.default_rng(31)
    a = psd(rng, 3)
    rho = a / np.trace(a).real
    assert partial_fidelity(rho, rho, 3) == 0.0
    # identical states: |sqrt(rho) sqrt(rho)| = rho, so dropping the top level
    # leaves the trace minus the largest eigenvalue
    top = float(np.linalg.eigvalsh(rho).max())
    assert partial_fidelity(rho, rho, 1) == pytest.approx(1.0 - top, abs=1e-10)
    with pytest.raises(RankRangeError):
        partial_fidelity(rho, rho, 0)


def test_partial_fidelity_monotone_in_k():
    rng = np.random.default_rng(37)
    a, b = psd(rng, 4), psd(rng, 4)
    rho = a / np.trace(a).real
    sigma = b / np.trace(b).real
    vals = [partial_fidelity(rho, sigma, k) for k in range(1, 5)]
    assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))
    with pytest.raises(ShapeMismatchError):
        partial_fidelity(rho, psd(rng, 3), 1)


def density(rng, n, rank=None):
    g = (rng.standard_normal((n, rank or n)) + 1j * rng.standard_normal((n, rank or n))) / np.sqrt(2)
    a = g @ g.conj().T
    return a / np.trace(a).real


@pytest.mark.parametrize("d,rank", [(4, None), (9, None), (16, None), (36, None), (9, 2)])
def test_partial_fidelity_matches_direct_svd(d, rank):
    # the m-k smallest singular values of sqrt(rho) sqrt(sigma), rho possibly rank-deficient
    rng = np.random.default_rng(d + (rank or 0))
    rho, sigma = density(rng, d, rank), density(rng, d)
    sv = np.sort(np.linalg.svd(psd_power(rho, 0.5) @ psd_power(sigma, 0.5), compute_uv=False))
    for k in range(1, d):
        expected = float(sv[: d - k].sum())
        assert abs(partial_fidelity(rho, sigma, k) - expected) <= 1e-12 * abs(expected)


def test_partial_fidelity_rejects_bad_inputs():
    rng = np.random.default_rng(41)
    rho, sigma = density(rng, 3), density(rng, 3)
    with pytest.raises(NotPsdError):
        partial_fidelity(rho + 1e-3j * np.triu(np.ones((3, 3)), 1), sigma, 1)
    with pytest.raises(NotPsdError):
        partial_fidelity(rho, -sigma, 1)
    with pytest.raises(ShapeMismatchError):
        partial_fidelity(rho, density(rng, 2), 1)
    for k in (0, 4):
        with pytest.raises(RankRangeError):
            partial_fidelity(rho, sigma, k)


def test_partial_fidelity_decomposition_count(monkeypatch):
    # one eigh per square root and one svd of their product
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, _f=real, **kw: calls.append(_n) or _f(*a, **kw))
    rng = np.random.default_rng(43)
    partial_fidelity(density(rng, 5), density(rng, 5), 2)
    assert sorted(calls) == ["eigh", "eigh", "svd"]


def test_stacked_spectra_match_one_by_one():
    # a stack is checked and tabulated row by row, with the values each matrix gives alone
    rng = np.random.default_rng(21)
    pd = [psd(rng, 4) + 0.5 * np.eye(4) for _ in range(3)]
    stack = np.stack(pd)
    rows = psd_spectrum(stack)
    assert rows.tolist() == [psd_spectrum(a).tolist() for a in pd]
    for p in (0.25, 0.5, 1.0):
        padded = antinorm_table(rows, p, ambient_dim=6)
        assert padded.tolist() == [antinorm_table(r, p, ambient_dim=6).tolist() for r in rows]
    for p in (0.5, -1.0):
        assert schatten_antinorm_of(rows, p).tolist() == [schatten_antinorm(a, p) for a in pd]
    with pytest.raises(NotPsdError):
        psd_spectrum(np.stack([pd[0], -pd[1]]))
    with pytest.raises(NotPsdError):
        psd_spectrum(np.stack([pd[0], pd[1] + 1e-3j * np.triu(np.ones((4, 4)))]))
    with pytest.raises(SingularPowerError):
        schatten_antinorm_of(np.stack([rows[0], np.zeros(4)]), -1.0)


# rank arguments that are no integer: a float, even an integral one, a string or a bool
NON_INTEGER_RANKS = {
    "kp_norm k=2.5": (lambda a: kp_norm(a, 2.5, 2.0), RankRangeError),
    "kp_norm k=True": (lambda a: kp_norm(a, True, 2.0), RankRangeError),
    "kyfan_norm k=2.0": (lambda a: kyfan_norm(a, 2.0), RankRangeError),
    "kp_antinorm k=2.5": (lambda a: kp_antinorm(a, 2.5, 0.5), RankRangeError),
    "kyfan_antinorm k='2'": (lambda a: kyfan_antinorm(a, "2"), RankRangeError),
    "kp_antinorm_of k=1.0": (lambda a: kp_antinorm_of(psd_spectrum(a), 1.0, 0.5), RankRangeError),
    "partial_fidelity k=1.5": (lambda a: partial_fidelity(a / 6, a / 6, 1.5), RankRangeError),
    "kp_antinorm ambient_dim=5.5": (lambda a: kp_antinorm(a, 2, 0.5, ambient_dim=5.5), ShapeMismatchError),
    "kp_antinorm ambient_dim=True": (lambda a: kp_antinorm(a, 1, 0.5, ambient_dim=True), ShapeMismatchError),
}


@pytest.mark.parametrize("name", NON_INTEGER_RANKS)
def test_rank_arguments_must_be_integers(name):
    # no rank is truncated, read as 0 or 1, or left to fail deep in an index
    call, error = NON_INTEGER_RANKS[name]
    a = 2.0 * np.eye(3, dtype=complex)
    with pytest.raises(error, match="expected an integer"):
        call(a)
    # numpy integers are integers
    assert kp_norm(a, np.int64(2), 2.0) == kp_norm(a, 2, 2.0)
    assert kp_antinorm(a, np.int64(2), 0.5, ambient_dim=np.int64(5)) == kp_antinorm(a, 2, 0.5, ambient_dim=5)
