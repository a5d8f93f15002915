import math
import re
import warnings

import numpy as np
import pytest

from normtrace import antinorms, entropy, norms
from normtrace.errors import (
    BadDimsError,
    DomainError,
    ExponentRangeError,
    NotHermitianError,
    NotPsdError,
    NotSquareError,
    ShapeMismatchError,
    SingularPowerError,
)
from normtrace.linalg import (
    as_exponent,
    as_integer,
    as_matrices,
    as_matrix,
    hermitian_eigenvalues,
    is_hermitian,
    kron,
    psd_eigenvalues,
    psd_power,
    singular_values,
)


def ginibre(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def test_as_matrix_accepts_lists():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    assert m.shape == (2, 2)


@pytest.mark.parametrize("bad", [3.0, [1, 2, 3], np.zeros((2, 2, 2)), np.zeros((0, 2))])
def test_as_matrix_rejects_non_matrices(bad):
    with pytest.raises(ShapeMismatchError):
        as_matrix(bad)


@pytest.mark.parametrize("bad", [3.0, [1, 2, 3], np.zeros((2, 2, 2, 2)), np.zeros((0, 2, 2))])
def test_as_matrices_rejects_non_stacks(bad):
    with pytest.raises(ShapeMismatchError):
        as_matrices(bad)
    assert as_matrices(np.zeros((3, 2, 2))).dtype == np.complex128


def test_hermitian_checks():
    rng = np.random.default_rng(11)
    g = ginibre(rng, 4, 4)
    h = g + g.conj().T
    assert is_hermitian(h)
    assert not is_hermitian(h + 1e-6 * 1j * np.eye(4))
    assert is_hermitian(np.ones((2, 3))) is False  # a non-square matrix, or stack, is no Hermitian one
    assert is_hermitian(np.ones((2, 2, 3))) is False


def test_psd_eigenvalues_zero_round_off():
    # round-off of an exact zero, either sign, becomes zero; a row's scale is its own
    w = np.array([[-1e-16, 2e-16, 1e-3, 1.0], [1e-18, 2e-18, 1e-17, 1e-3]])
    assert psd_eigenvalues(w).tolist() == [[0.0, 0.0, 1e-3, 1.0], [0.0, 0.0, 0.0, 1e-3]]
    assert psd_eigenvalues(np.array([1e-20, 1e-12])).tolist() == [1e-20, 1e-12]
    with pytest.raises(NotPsdError):
        psd_eigenvalues(np.array([-1e-3, 1.0]))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_hermitian_eigenvalues_ascending_and_match_numpy(n):
    rng = np.random.default_rng(n)
    g = ginibre(rng, n, n)
    h = g + g.conj().T
    w = hermitian_eigenvalues(h)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(w, np.linalg.eigvalsh(h))


def test_hermitian_eigenvalues_rejects_bad_input():
    with pytest.raises(NotSquareError):
        hermitian_eigenvalues(np.zeros((2, 3)))
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("rows,cols", [(3, 3), (4, 2), (2, 5)])
def test_singular_values_match_numpy(rows, cols):
    rng = np.random.default_rng(rows * 10 + cols)
    q = ginibre(rng, rows, cols)
    sv = singular_values(q)
    ref = np.linalg.svd(q, compute_uv=False)
    assert np.all(np.diff(sv) <= 0)
    assert np.allclose(sv, ref)


def test_singular_values_via_gram_route():
    # eigenvalues of Q^dag Q are squared singular values
    rng = np.random.default_rng(17)
    q = ginibre(rng, 5, 5)
    sv = singular_values(q)
    gram = np.sort(np.linalg.eigvalsh(q.conj().T @ q))[::-1]
    assert np.allclose(sv**2, gram)


def test_kron_matches_numpy():
    rng = np.random.default_rng(2)
    a = ginibre(rng, 2, 2)
    b = ginibre(rng, 3, 3)
    assert np.allclose(kron(a, b), np.kron(a, b))


@pytest.mark.parametrize("left,right", [((1, 1), (1, 1)), ((1, 1), (3, 2)), ((2, 3), (1, 1)), ((4, 4), (3, 3)),
                                        ((2, 5), (3, 1)), ((1, 4), (4, 1)), ((6, 6), (2, 2)), ((3, 2), (2, 4))])
def test_kron_has_the_bytes_of_numpy_kron(left, right):
    # the broadcast product forms the same entry products as np.kron
    rng = np.random.default_rng(sum(left) * 10 + sum(right))
    a = ginibre(rng, *left)
    (s, t) = right
    factors = [ginibre(rng, s, t), np.full((s, t), -0.0, dtype=complex), rng.standard_normal((s, t))]
    if s == t:
        factors += [np.eye(s), np.eye(s) / s]
    for b in factors:
        got, want = kron(a, b), np.kron(a, b.astype(complex))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (left, right)


def test_kron_of_a_stack_is_the_stack_of_krons():
    rng = np.random.default_rng(4)
    a = np.array([ginibre(rng, 3, 2) for _ in range(5)])
    for b in (ginibre(rng, 2, 4), np.eye(3), np.array([ginibre(rng, 2, 2) for _ in range(5)])):
        want = np.array([np.kron(x, y.astype(complex)) for x, y in zip(a, b if b.ndim == 3 else [b] * 5)])
        assert kron(a, b).tobytes() == want.tobytes()


@pytest.mark.parametrize("x", [2.5, 2.0, True, False, "2", None, np.float64(2.0), np.bool_(True)])
def test_as_integer_rejects_what_is_not_an_integer(x):
    with pytest.raises(BadDimsError, match="expected an integer"):
        as_integer(x)


def test_as_integer_takes_python_and_numpy_integers():
    assert [as_integer(x) for x in (0, 7, np.int64(3), np.uint8(2), 2**70)] == [0, 7, 3, 2, 2**70]


def test_psd_power_square_root():
    rng = np.random.default_rng(23)
    g = ginibre(rng, 4, 4)
    a = g @ g.conj().T
    r = psd_power(a, 0.5)
    assert np.allclose(r @ r, a)
    assert is_hermitian(r)


def test_psd_power_inverse_on_pd():
    rng = np.random.default_rng(29)
    g = ginibre(rng, 3, 3)
    a = g @ g.conj().T + np.eye(3)
    assert np.allclose(psd_power(a, -1.0) @ a, np.eye(3))


def test_psd_power_negative_requires_pd():
    a = np.diag([1.0, 0.0])
    with pytest.raises(SingularPowerError):
        psd_power(a, -0.5)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_psd_power_refuses_a_non_finite_exponent(t):
    # it returned a NaN matrix for NaN and +inf, and the projector diag(1, 0) for -inf
    with pytest.raises(ExponentRangeError, match=f"t={t} must be a finite real"):
        psd_power(np.diag([1.0, 2.0]), t)


# each matrix-level function on a matrix with one bad entry: psd_power, the
# anti-norms and the entropy run the Hermitian check, the norms the SVD
NON_FINITE_CALLS = {
    "singular_values": singular_values,
    "kp_norm": lambda q: norms.kp_norm(q, 1, 2.0),
    "schatten_norm": lambda q: norms.schatten_norm(q, 2.0),
    "hermitian_eigenvalues": hermitian_eigenvalues,
    "psd_power": lambda q: psd_power(q, 0.5),
    "kp_antinorm": lambda q: antinorms.kp_antinorm(q, 1, 0.5),
    "schatten_antinorm": lambda q: antinorms.schatten_antinorm(q, 0.5),
    "unified_entropy": lambda q: entropy.unified_entropy(q, 2.0, 0.5),
    "partial_fidelity rho": lambda q: antinorms.partial_fidelity(q, np.eye(2) / 2, 1),
    "partial_fidelity sigma": lambda q: antinorms.partial_fidelity(np.eye(2) / 2, q, 1),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
@pytest.mark.parametrize("call", list(NON_FINITE_CALLS))
def test_a_non_finite_entry_raises_domain_error(call, where, bad, capfd):
    # an infinity warned in the Hermitian check's inf - inf, then read as not
    # Hermitian, or gave kp_norm a NaN; a NaN stopped the SVD with a bare LinAlgError
    q = np.eye(2, dtype=complex) / 2
    q[where] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            NON_FINITE_CALLS[call](q)
    assert capfd.readouterr() == ("", "")  # and nothing from LAPACK on the terminal


# each public function of one matrix, the other arguments valid
MATRIX_CALLS = {
    "kp_norm": lambda q: norms.kp_norm(q, 1, 2.0),
    "schatten_norm": lambda q: norms.schatten_norm(q, 2.0),
    "kyfan_norm": lambda q: norms.kyfan_norm(q, 1),
    "kp_antinorm": lambda q: antinorms.kp_antinorm(q, 1, 0.5),
    "kyfan_antinorm": lambda q: antinorms.kyfan_antinorm(q, 1),
    "schatten_antinorm": lambda q: antinorms.schatten_antinorm(q, 0.5),
    "unified_entropy": lambda q: entropy.unified_entropy(q, 2.0, 0.5),
    "renyi_entropy": lambda q: entropy.renyi_entropy(q, 2.0),
    "tsallis_entropy": lambda q: entropy.tsallis_entropy(q, 2.0),
    "von_neumann_entropy": entropy.von_neumann_entropy,
}


@pytest.mark.parametrize("call", list(MATRIX_CALLS))
def test_a_function_of_one_matrix_refuses_a_stack(call):
    # the anti-norms and entropies returned an array or a list, one value per matrix, or said a 1-d spectrum
    with pytest.raises(ShapeMismatchError, match=r"^expected a nonempty 2-d matrix, got shape \(2, 2, 2\)$"):
        MATRIX_CALLS[call](np.stack([np.eye(2) / 2] * 2))


RHO = np.diag([0.25, 0.75])

# each public function at each of its exponent arguments, the others valid,
# with a value that the argument admits
EXPONENT_CALLS = {
    "kp_norm p": (lambda x: norms.kp_norm(RHO, 1, x), 2.0),
    "schatten_norm p": (lambda x: norms.schatten_norm(RHO, x), 2.0),
    "gauge_kp p": (lambda x: norms.gauge_kp([3.0, 4.0], 1, x), 2.0),
    "kp_antinorm p": (lambda x: antinorms.kp_antinorm(RHO, 1, x), 0.5),
    "schatten_antinorm p": (lambda x: antinorms.schatten_antinorm(RHO, x), 0.5),
    "psd_power t": (lambda x: psd_power(RHO, x), 0.5),
    "unified_entropy alpha": (lambda x: entropy.unified_entropy(RHO, x, 0.5), 2.0),
    "unified_entropy s": (lambda x: entropy.unified_entropy(RHO, 2.0, x), 0.5),
    "renyi_entropy alpha": (lambda x: entropy.renyi_entropy(RHO, x), 2.0),
    "tsallis_entropy alpha": (lambda x: entropy.tsallis_entropy(RHO, x), 2.0),
    "max_entropy_value alpha": (lambda x: entropy.max_entropy_value(2, x, 0.5), 2.0),
    "max_entropy_value s": (lambda x: entropy.max_entropy_value(2, 2.0, x), 0.5),
}


@pytest.mark.parametrize("x", [True, False, "2", 1j, None])
@pytest.mark.parametrize("call", list(EXPONENT_CALLS))
def test_an_exponent_that_is_not_a_real_number_raises(call, x):
    # kp_norm(q, 1, True) ran at p = 1, and "2", 1j and None raised a bare TypeError
    function, admitted = EXPONENT_CALLS[call]
    name = call.split()[1]
    with pytest.raises(ExponentRangeError, match=f"^{name} takes a real number, got {re.escape(repr(x))}$"):
        function(x)
    assert np.array_equal(function(np.float64(admitted)), function(admitted))


def test_as_exponent_takes_python_and_numpy_reals():
    values = [as_exponent(x, "p") for x in (2, 0.5, np.float64(-1.5), np.int64(3), np.float32(0.5), math.inf)]
    assert values == [2.0, 0.5, -1.5, 3.0, 0.5, math.inf]
    assert all(type(v) is float for v in values)
