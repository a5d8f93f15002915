"""Entropy family: closed forms, limit branches, and validation."""
import math

import numpy as np
import pytest

from normtrace.entropy import (
    density_spectrum,
    dim_weight,
    max_entropy_value,
    power_sum_of,
    renyi_entropy,
    tsallis_entropy,
    unified_entropy,
    unified_entropy_from,
    von_neumann_entropy,
    von_neumann_of,
)
from normtrace.errors import DomainError, ExponentRangeError, NotDensityError


def random_density(rng, n):
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    a = g @ g.conj().T
    return a / np.trace(a).real


def test_von_neumann_diagonal_oracle():
    rho = np.diag([0.5, 0.25, 0.25])
    ref = -(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25))
    assert von_neumann_entropy(rho) == pytest.approx(ref, rel=1e-13)


def test_pure_state_entropies_vanish():
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0] = 1.0
    assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)
    assert renyi_entropy(rho, 2.0) == pytest.approx(0.0, abs=1e-12)
    assert tsallis_entropy(rho, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert unified_entropy(rho, 2.0, 1.5) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.5, 3.0])
def test_renyi_diagonal_oracle(alpha):
    w = np.array([0.1, 0.2, 0.3, 0.4])
    rho = np.diag(w)
    ref = math.log(float(np.sum(w**alpha))) / (1.0 - alpha)
    assert renyi_entropy(rho, alpha) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.5, 3.0])
def test_tsallis_diagonal_oracle(alpha):
    w = np.array([0.1, 0.2, 0.3, 0.4])
    rho = np.diag(w)
    ref = (float(np.sum(w**alpha)) - 1.0) / (1.0 - alpha)
    assert tsallis_entropy(rho, alpha) == pytest.approx(ref, rel=1e-12)


def test_unified_reduces_to_named_families():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 4)
    for alpha in (0.5, 2.0):
        assert unified_entropy(rho, alpha, 1.0) == pytest.approx(
            tsallis_entropy(rho, alpha), rel=1e-12
        )
        assert unified_entropy(rho, alpha, 0.0) == pytest.approx(
            renyi_entropy(rho, alpha), rel=1e-12
        )
    assert unified_entropy(rho, 1.0, 0.7) == pytest.approx(von_neumann_entropy(rho), rel=1e-12)


def test_unified_general_formula():
    w = np.array([0.6, 0.3, 0.1])
    rho = np.diag(w)
    alpha, s = 2.0, -1.0
    t = float(np.sum(w**alpha))
    ref = (t**s - 1.0) / ((1.0 - alpha) * s)
    assert unified_entropy(rho, alpha, s) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("s", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_entropies_from_memoized_inputs(alpha, s):
    # a caller that memoizes tr rho^alpha and the von Neumann value gets the
    # matrix-level values
    rng = np.random.default_rng(int(10 * alpha) + int(10 * s) + 50)
    rho = random_density(rng, 5)
    w = density_spectrum(rho)
    assert power_sum_of(w, alpha) == pytest.approx(float(np.sum(np.linalg.eigvalsh(rho) ** alpha)), rel=1e-13)
    assert von_neumann_of(w) == pytest.approx(von_neumann_entropy(rho), rel=1e-13)
    power_sum, von_neumann = power_sum_of(w, alpha), von_neumann_of(w)
    got = unified_entropy_from(power_sum, von_neumann, alpha, s)
    assert got == pytest.approx(unified_entropy(rho, alpha, s), rel=1e-13, abs=1e-15)
    if s == 1.0:  # Tsallis is the unified entropy at s = 1, bit for bit, in its closed form
        assert got == tsallis_entropy(rho, alpha)
        assert alpha == 1.0 or got == (power_sum - 1.0) / (1.0 - alpha)


@pytest.mark.parametrize("m", [2, 3, 4, 6])
@pytest.mark.parametrize("alpha", [0.3, 0.7, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("s", [-1.0, 0.0, 0.5, 1.0, 2.0])
def test_maximally_mixed_attains_max_entropy(m, alpha, s):
    rho = np.eye(m) / m
    assert unified_entropy(rho, alpha, s) == pytest.approx(
        max_entropy_value(m, alpha, s), abs=1e-12
    )


def test_limit_continuity_near_branches():
    rng = np.random.default_rng(10)
    for _ in range(10):
        rho = random_density(rng, 3)
        vn = von_neumann_entropy(rho)
        assert abs(renyi_entropy(rho, 1.0 + 1e-4) - vn) <= 1e-3
        assert abs(renyi_entropy(rho, 1.0 - 1e-4) - vn) <= 1e-3
        for alpha in (0.5, 2.0):
            r = renyi_entropy(rho, alpha)
            assert abs(unified_entropy(rho, alpha, 1e-6) - r) <= 1e-5
            assert abs(unified_entropy(rho, alpha, -1e-6) - r) <= 1e-5


def test_density_validation():
    with pytest.raises(NotDensityError):
        density_spectrum(np.diag([0.7, 0.7]))
    with pytest.raises(NotDensityError):
        density_spectrum(np.diag([1.5, -0.5]))
    with pytest.raises(NotDensityError):
        density_spectrum(np.array([[0.5, 0.5], [0.0, 0.5]]))
    w = density_spectrum(np.diag([0.25, 0.75]))
    assert np.allclose(np.sort(w), [0.25, 0.75])


def test_density_errors_name_the_failing_value():
    with pytest.raises(NotDensityError, match=r"trace 1\.4 differs from 1 beyond 1e-09"):
        density_spectrum(np.diag([0.7, 0.7]))
    with pytest.raises(NotDensityError, match=r"eigenvalue -5\.000e-01 below -1e-10"):
        density_spectrum(np.stack([np.diag([0.5, 0.5]), np.diag([1.5, -0.5])]))
    # within the floor, a negative eigenvalue is round-off of a zero and becomes 0.0
    w = density_spectrum(np.diag([-1e-14, 1.0 + 1e-14]))
    assert w.tolist() == [0.0, 1.0 + 1e-14]


def test_alpha_negative_or_zero_rejected():
    rho = np.eye(2) / 2
    for alpha in (0.0, -1.0, np.nan):
        with pytest.raises(ExponentRangeError):
            renyi_entropy(rho, alpha)
    with pytest.raises(ExponentRangeError):
        unified_entropy(rho, 0.0, 1.0)
    with pytest.raises(ExponentRangeError):
        unified_entropy(rho, 2.0, np.inf)


def test_max_entropy_value_forms():
    assert max_entropy_value(4, 1.0, 2.0) == pytest.approx(math.log(4))
    assert max_entropy_value(4, 2.0, 0.0) == pytest.approx(math.log(4))
    m, alpha, s = 3, 2.0, 1.5
    ref = (m ** ((1.0 - alpha) * s) - 1.0) / ((1.0 - alpha) * s)
    assert max_entropy_value(m, alpha, s) == pytest.approx(ref, rel=1e-13)
    with pytest.raises(DomainError):
        max_entropy_value(0, 2.0, 1.0)
    # at s = 1 it is the deformed logarithm ln_a(m) = (m^(1-a) - 1) / (1 - a)
    assert max_entropy_value(3, 0.5, 1.0) == pytest.approx((3.0**0.5 - 1.0) / 0.5, rel=1e-13)
    assert max_entropy_value(3, 1.0, 1.0) == math.log(3)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_max_entropy_value_refuses_a_non_finite_s_as_unified_entropy_does(alpha, s):
    # it returned NaN, or 0.0 at s = -inf and ln 2 at alpha = 1, where the
    # entropy of the maximally mixed state itself raises
    message = f"s={s} must be a finite real"
    with pytest.raises(ExponentRangeError, match=message):
        unified_entropy(np.eye(2) / 2, alpha, s)
    with pytest.raises(ExponentRangeError, match=message):
        max_entropy_value(2, alpha, s)


@pytest.mark.parametrize("m", [True, 2.0, 1.5, "2", None])
def test_max_entropy_value_takes_only_an_integer_m(m):
    # True ran as m = 1 and gave 0.0, 2.0 ran as m = 2, and None raised a bare TypeError
    with pytest.raises(DomainError, match="expected a positive integer m"):
        max_entropy_value(m, 1.5, 1.0)
    assert max_entropy_value(np.int64(2), 1.5, 1.0) == max_entropy_value(2, 1.5, 1.0)


def test_tiny_eigenvalues_are_dropped():
    # spectrum entries at or below the round-off threshold are zeroed and must
    # not poison logs
    rho = np.diag([1.0 - 1e-15, 1e-15])
    assert np.isfinite(von_neumann_entropy(rho))
    assert np.isfinite(renyi_entropy(rho, 0.5))


def test_float_range_errors_are_domain_errors():
    # tr rho^alpha underflows to 0 at alpha = 1000, where its logarithm is undefined
    rho = np.eye(3) / 3
    with pytest.raises(DomainError, match="underflowed"):
        unified_entropy(rho, 1000.0, -2.0)
    with pytest.raises(DomainError, match="underflowed"):
        renyi_entropy(rho, 1000.0)
    # the Tsallis form, the unified entropy at s = 1, takes no logarithm and stays finite
    assert tsallis_entropy(rho, 1000.0) == pytest.approx(1.0 / 999.0, rel=1e-15)
    assert unified_entropy(rho, 1000.0, 1.0) == tsallis_entropy(rho, 1000.0)
    # 2^1998 and (tr rho^0.001)^1000 = 3^1000 overflow
    with pytest.raises(DomainError, match="overflows"):
        dim_weight(2, 1000.0, -2.0)
    with pytest.raises(DomainError, match="overflows"):
        max_entropy_value(2, 1000.0, -2.0)
    with pytest.raises(DomainError, match="overflows"):
        unified_entropy(rho, 0.001, 1000.0)
    assert dim_weight(3, 2.0, 1.5) == 3.0 ** -1.5


def test_stacked_densities_match_one_by_one():
    # a stack mixing full-rank and rank-deficient states is one (trials, d)
    # array whose rows are the states' spectra alone, bit for bit, with their
    # round-off zeros exactly 0.0; spectra of 8 or more entries are summed
    # pairwise by numpy, so each row's sums must equal those of the state alone
    rng = np.random.default_rng(8)
    pure = np.zeros((12, 12), dtype=complex)
    pure[1, 1] = 1.0

    def of_rank(r):
        g = rng.standard_normal((12, r)) + 1j * rng.standard_normal((12, r))
        rho = g @ g.conj().T
        return rho / np.trace(rho).real

    full = random_density(rng, 12)
    stack = np.stack([full, of_rank(9), pure, of_rank(9), random_density(rng, 12), of_rank(10)])
    spectra = density_spectrum(stack)
    assert type(spectra) is np.ndarray and spectra.shape == (6, 12)
    for row, rho, rank in zip(spectra, stack, (12, 9, 1, 9, 12, 10)):
        alone = density_spectrum(rho)
        assert row.tobytes() == alone.tobytes()
        assert row[: 12 - rank].tolist() == [0.0] * (12 - rank) and (row[12 - rank :] > 0).all()
    for alpha in (0.3, 1.5):
        assert power_sum_of(spectra, alpha) == [power_sum_of(density_spectrum(r), alpha) for r in stack]
    vn = von_neumann_of(spectra)
    assert vn == [von_neumann_of(density_spectrum(r)) for r in stack]
    assert vn[2] == 0.0
    batch = unified_entropy_from(power_sum_of(spectra, 0.3), vn, 0.3, 2.0)
    assert batch == [unified_entropy(r, 0.3, 2.0) for r in stack]
    with pytest.raises(NotDensityError):
        density_spectrum(np.stack([pure, 2 * pure]))
