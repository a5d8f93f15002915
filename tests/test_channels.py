import numpy as np
import pytest

from normtrace.channels import (
    StinespringChannel,
    choi_matrix,
    choi_rank,
    kraus_to_stinespring,
    partial_trace_channel,
    singular_value_conjugation_check,
    validate_isometry,
)
from normtrace.audit import sample
from normtrace.bipartite import BipartiteOperator, partial_trace_b
from normtrace.errors import NotTracePreservingError, PreconditionError, ShapeMismatchError


def ginibre(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def haar_isometry(rng, rows, cols):
    q, r = np.linalg.qr(ginibre(rng, rows, cols))
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_channel(rng, m, n, d):
    return StinespringChannel(haar_isometry(rng, n * d, m), m, n, d)


def test_validate_isometry():
    rng = np.random.default_rng(1)
    v = haar_isometry(rng, 6, 2)
    assert validate_isometry(v)
    assert not validate_isometry(2.0 * v)
    with pytest.raises(ShapeMismatchError):
        validate_isometry(ginibre(rng, 2, 6))


@pytest.mark.parametrize("big", [1e160, 1e200, np.inf])
def test_a_huge_or_infinite_entry_is_no_isometry(recwarn, big):
    # an isometry's entries have modulus at most 1, so V^dag V, whose square of a
    # huge entry overflows, is never formed, and no warning or bare OverflowError escapes
    v = haar_isometry(np.random.default_rng(2), 6, 2)
    v[0, 0] = big
    assert validate_isometry(v) is False
    assert validate_isometry(np.stack([haar_isometry(np.random.default_rng(3), 6, 2), v])) is False
    with pytest.raises(NotTracePreservingError):
        StinespringChannel(v, 2, 3, 2)
    assert len(recwarn) == 0


def test_channel_rejects_non_isometry():
    rng = np.random.default_rng(2)
    with pytest.raises(NotTracePreservingError):
        StinespringChannel(ginibre(rng, 6, 2), 2, 2, 3)
    with pytest.raises(ShapeMismatchError):
        StinespringChannel(haar_isometry(rng, 6, 2), 2, 2, 2)


@pytest.mark.parametrize("dims", [(2, 0, 3), (2, -2, -3), (0, 6, 1)])
def test_channel_dimensions_must_be_positive(dims):
    # (2, -2, -3) matches a 6 x 2 dilation's shape, so only the sign check refuses it
    with pytest.raises(ShapeMismatchError, match="channel dimensions must be positive"):
        StinespringChannel(haar_isometry(np.random.default_rng(4), 6, 2), *dims)


@pytest.mark.parametrize("dims", [(2, 2, 2.0), (2.0, 2, 2), (2, True, 4), (True, 2, 1)])
def test_channel_dims_must_be_integers(dims):
    # each of these matches the dilation's shape, but a Choi rank needs integer dims
    v = np.eye(4)[:, : int(dims[0])]
    with pytest.raises(PreconditionError, match="integer"):
        StinespringChannel(v, *dims)
    assert choi_rank(StinespringChannel(np.eye(4)[:, :2], np.int64(2), np.int64(2), np.int64(2))) == 2


@pytest.mark.parametrize("m,n,d", [(2, 2, 2), (3, 2, 3), (2, 4, 1), (4, 3, 2)])
def test_apply_equals_kraus_sum(m, n, d):
    # two independent routes: partial trace of the dilated operator versus
    # the explicit operator sum
    rng = np.random.default_rng(m * 100 + n * 10 + d)
    ch = random_channel(rng, m, n, d)
    q = ginibre(rng, m, m)
    out = ch.apply(q)
    ks = ch.kraus_operators()
    acc = sum(k @ q @ k.conj().T for k in ks)
    assert np.allclose(out, acc, atol=1e-12)
    # completeness sum_c K_c^dag K_c = I
    comp = sum(k.conj().T @ k for k in ks)
    assert np.allclose(comp, np.eye(m), atol=1e-10)


def test_apply_preserves_trace_and_positivity():
    rng = np.random.default_rng(7)
    ch = random_channel(rng, 3, 2, 2)
    g = ginibre(rng, 3, 3)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    out = ch.apply(rho)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(out).min() >= -1e-12


def test_kraus_to_stinespring_round_trip():
    rng = np.random.default_rng(11)
    ch = random_channel(rng, 2, 3, 2)
    rebuilt = kraus_to_stinespring(ch.kraus_operators())
    assert np.allclose(rebuilt.v, ch.v)
    assert (rebuilt.dim_in, rebuilt.dim_out, rebuilt.dim_env) == (2, 3, 2)
    with pytest.raises(ShapeMismatchError):
        kraus_to_stinespring([])
    with pytest.raises(ShapeMismatchError, match="Kraus operators must share one shape"):
        kraus_to_stinespring([np.eye(2) / np.sqrt(2.0), np.eye(2, 3) / np.sqrt(2.0)])
    with pytest.raises(NotTracePreservingError):
        kraus_to_stinespring([np.eye(2), np.eye(2)])


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2)])
def test_partial_trace_channel_agrees_with_block_route(m, n):
    rng = np.random.default_rng(m * 10 + n)
    ch = partial_trace_channel(m, n)
    assert (ch.dim_in, ch.dim_out, ch.dim_env) == (m * n, m, n)
    q = ginibre(rng, m * n, m * n)
    direct = partial_trace_b(BipartiteOperator(q, m, n))
    assert np.allclose(ch.apply(q), direct, atol=1e-13)


@pytest.mark.parametrize("m,n", [("2", 2), (2.0, 2), (2, 2.5), (True, 2), (2, None)])
def test_partial_trace_channel_takes_integer_dimensions(m, n):
    # "2" and None raised a bare TypeError from a comparison, and 2.0 and 2.5 one from np.eye
    with pytest.raises(ShapeMismatchError, match="expected an integer dimension"):
        partial_trace_channel(m, n)
    assert partial_trace_channel(np.int64(2), 2).dim_in == 4


@pytest.mark.parametrize("m,n", [(2, 0), (0, 3), (-1, 2)])
def test_partial_trace_channel_takes_positive_dimensions(m, n):
    with pytest.raises(ShapeMismatchError, match="factor dimensions must be positive"):
        partial_trace_channel(m, n)


def amplitude_damping(gamma):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]], dtype=complex)
    return kraus_to_stinespring([k0, k1])


def depolarizing(prob):
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    ops = [
        np.sqrt(1.0 - 3.0 * prob / 4.0) * np.eye(2, dtype=complex),
        np.sqrt(prob / 4.0) * x,
        np.sqrt(prob / 4.0) * y,
        np.sqrt(prob / 4.0) * z,
    ]
    return kraus_to_stinespring(ops)


def test_choi_ranks_of_reference_channels():
    assert choi_rank(depolarizing(0.5)) == 4
    assert choi_rank(amplitude_damping(0.3)) == 2
    identity = kraus_to_stinespring([np.eye(2, dtype=complex)])
    assert choi_rank(identity) == 1
    assert choi_rank(partial_trace_channel(2, 3)) == 3


@pytest.mark.parametrize("m,n,d", [(2, 2, 1), (3, 2, 4), (4, 3, 2), (2, 1, 3), (1, 2, 5), (3, 3, 12)])
def test_choi_rank_counts_the_choi_spectrum(m, n, d):
    # the rank read from the dim_env-square Gram matrix of the Kraus operators
    # is the count of Choi eigenvalues above the relative tolerance, also when
    # the environment is larger than the Choi matrix or the Kraus family is
    # linearly dependent
    rng = np.random.default_rng(10 * m + n + d)
    ch = random_channel(rng, m, n, d)
    # every Kraus operator twice, halved: twice the environment, the same rank
    doubled = kraus_to_stinespring([k / np.sqrt(2) for k in ch.kraus_operators() for _ in range(2)])
    for channel in (ch, doubled, partial_trace_channel(m, n)):
        w = np.linalg.eigvalsh(choi_matrix(channel))
        assert choi_rank(channel) == np.count_nonzero(w > 1e-9 * w.max())


def test_choi_matrix_properties():
    rng = np.random.default_rng(13)
    ch = random_channel(rng, 3, 2, 2)
    c = choi_matrix(ch)
    assert c.shape == (6, 6)
    assert np.allclose(c, c.conj().T)
    assert np.linalg.eigvalsh(c).min() >= -1e-12
    # trace of the Choi matrix equals the input dimension
    assert np.trace(c).real == pytest.approx(3.0, abs=1e-10)


def test_choi_reproduces_action():
    # Phi(E_ij) blocks reassemble the channel action entrywise
    rng = np.random.default_rng(17)
    m = 2
    ch = random_channel(rng, m, 3, 2)
    c = choi_matrix(ch)
    q = ginibre(rng, m, m)
    out = np.zeros((3, 3), dtype=complex)
    for i in range(m):
        for j in range(m):
            block = c[:, :].reshape(3, m, 3, m)[:, i, :, j]
            out += q[i, j] * block
    assert np.allclose(out, ch.apply(q), atol=1e-12)


@pytest.mark.parametrize("rows,cols", [(3, 2), (4, 4), (5, 3)])
def test_conjugation_preserves_singular_values(rows, cols):
    rng = np.random.default_rng(rows + 10 * cols)
    v = haar_isometry(rng, rows, cols)
    q = ginibre(rng, cols, cols)
    assert singular_value_conjugation_check(v, q)


def test_conjugation_check_rejects_non_isometry():
    rng = np.random.default_rng(23)
    v = 1.7 * haar_isometry(rng, 4, 2)
    q = ginibre(rng, 2, 2)
    assert not singular_value_conjugation_check(v, q)


def test_conjugation_check_accepts_channel_objects():
    rng = np.random.default_rng(29)
    ch = random_channel(rng, 3, 2, 2)
    q = ginibre(rng, 3, 3)
    assert singular_value_conjugation_check(ch, q)


def test_conjugation_check_holds_for_every_sampled_channel():
    # Q's 1e-9 sits at the check's cutoff, where rounding put it on one side in Q and on the other in V Q V^dag:
    # a filter by the cutoff then counted one nonzero value more on one side and answered False for 108 of these
    q = np.diag([1.0, 1e-9])
    assert all(singular_value_conjugation_check(sample("channel", (2, 2, 2), seed), q) for seed in range(200))


def test_conjugation_check_of_a_zero_input_holds():
    v = haar_isometry(np.random.default_rng(31), 4, 2)
    assert singular_value_conjugation_check(v, np.zeros((2, 2))) is True


@pytest.mark.parametrize("q_shape", [(3, 3), (2, 3)])
def test_conjugation_check_refuses_incompatible_shapes(q_shape):
    v = haar_isometry(np.random.default_rng(37), 4, 2)
    with pytest.raises(ShapeMismatchError, match="incompatible shapes"):
        singular_value_conjugation_check(v, np.ones(q_shape))
