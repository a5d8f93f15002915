"""Seeded samplers, the inequality registry, and the reproducible audit runner.

Each registry case binds one proved relation to an evaluator returning a
signed margin normalized by max(1, |lhs|, |rhs|); margin >= -tolerance means
the relation held on that instance.  The SAT-WRQA case instead returns the
negated equality residual of the product family c * R (x) I, so its margins
sit at zero up to round-off.  The evaluators, the stacked spectra they read and
the parameter axes with their domains live in margins.py; a registry row holds
all its case knows, its extra report field and witnesses too.

The runner makes a case's trial instances TRIAL_WINDOW at a time, evaluates
each window, saturators and every dims pair included, as one batch (one
margins.Spectra, which decomposes each size of a matrix once, and one evaluator
call), and folds its in-bound margins by numpy reductions.  evaluate_case, a
batch of one on a one-point grid, agrees.  A channel case's saturators are its
bipartite twin's products R (x) I: the Tr_B channel's output on them, with the
identity as dilation, is the twin's Tr_B W, so no identity is built.

Each case names a trial kind and a saturator kind of the KINDS table.  A kind
is a draw, which makes its generator calls and nothing else, and a finish,
which maps the stacked draws of many instances to their stacked matrices.
The registry's makers only draw (margins.Drawn); Spectra finishes each
(form, finish, sizes) group of a window in one call, a channel's V and Q
together, and sample finishes a stack of one.  Draws
come from numpy's PCG64 generator and are bit-reproducible per (kind, dims,
seed); the audit derives per-trial seeds by hashing (base_seed, case id, trial
index), so reports are deterministic in the configuration alone.  run_audit
derives a run's seeds as one stream in run order, hashes them TRIAL_WINDOW at a
time, across case boundaries, in vectorized passes of numpy's SeedSequence, and
hands them to the makers as TrialSeeds, ints that carry their generator state.
"""
from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, fields
from functools import partial
from numbers import Real
from typing import Callable, NamedTuple, Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from ._version import __version__
from . import jsonio
from .channels import StinespringChannel, qr_isometry
from .errors import BadDimsError, DomainError, ExponentRangeError, KindMismatchError, PreconditionError, RankRangeError
from .linalg import as_exponent, as_integer, kron
from .margins import (
    GRIDS,
    Drawn,
    Grid,
    Spectra,
    eval_cpn1,
    eval_et41,
    eval_kpk2,
    eval_kpn1,
    eval_kqn1,
    eval_kqn2,
    eval_satwrqa,
    eval_tpn62,
    drawn,
    make_grid,
    outside,
)

DEFAULT_DIMS = ((2, 2), (2, 3), (3, 2), (4, 3))
ENV_DIM_MODES = ("choi_rank", "dim_env")  # a channel's d: its Choi rank, or its dilation's dim_env

PRNG_INFO = {
    "bit_generator": "PCG64 via numpy.random.default_rng",
    "gaussian_sampler": "numpy Generator.standard_normal",
    "seed_derivation": "first 8 bytes of sha256('<base_seed>:<case_id>:<trial>'), big-endian",
}


# ---------------------------------------------------------------------------
# samplers and instance kinds


def _gaussians(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((2, rows, cols))  # the real part's draws, then the imaginary part's


# finishes of stacked (2, rows, cols) draws, on the last axes: a draw's own
# finish is that of a stack of one


def _ginibre(x: np.ndarray) -> np.ndarray:
    return (x[..., 0, :, :] + 1j * x[..., 1, :, :]) / math.sqrt(2.0)


def _psd(x: np.ndarray) -> np.ndarray:
    g = _ginibre(x)
    return g @ g.conj().swapaxes(-1, -2)


def _pd(x: np.ndarray) -> np.ndarray:
    a = _psd(x)
    # floor at one tenth of the mean eigenvalue keeps negative powers stable
    return a + 0.1 * (_traces(a) / a.shape[-1]) * np.eye(a.shape[-1])


def _density(x: np.ndarray) -> np.ndarray:
    a = _psd(x)
    return a / _traces(a)


def _traces(a: np.ndarray) -> np.ndarray:
    return np.trace(a, axis1=-2, axis2=-1).real[..., None, None]


def _haar(x: np.ndarray) -> np.ndarray:
    return qr_isometry(_ginibre(x))


class Kind(NamedTuple):
    """An instance kind: draw(rng, m, n) -> (sizes, draws) and finish, as margins.Drawn holds them."""

    form: str  # its instances' form, as margins.drawn names it
    draw: Callable
    finish: Callable


def _joint(finish) -> Kind:  # W on H_A (x) H_B, finish of an (m*n)-square draw
    return Kind("bipartite", lambda rng, m, n: ((m, n), (_gaussians(rng, m * n, m * n),)), lambda x, m, n: finish(x[0]))


def _square(finish) -> Kind:  # R on H_A, finish of an m-square draw
    return Kind("matrix", lambda rng, m, n: ((m, m), (_gaussians(rng, m, m),)), lambda x, m, _: finish(x[0]))


def _product(finish, share: bool = False) -> Kind:  # R (x) I, or R (x) I / n, R finish of an m-square draw
    return Kind("bipartite", lambda rng, m, n: ((m, n), (_gaussians(rng, m, m),)),
                lambda x, m, n: kron(finish(x[0]), np.eye(n) / n if share else np.eye(n)))


def _channel(finish) -> Kind:
    """(Phi, Q): Phi from m to n with a Haar dilation into n*d, d drawn first, and Q finish of an m-square draw."""
    def draw(rng, m, n):
        d = math.ceil(m / n) + int(rng.integers(0, 3))
        return (m, n, d), (_gaussians(rng, n * d, m), _gaussians(rng, m, m))

    return Kind("channel", draw, lambda x, m, n, d: (_haar(x[0]), finish(x[1])))


# Instance kinds, whose forms are those of margins.drawn.  A registry case
# draws its trials from one kind and its saturators, instances known to attain
# equality in its bound, from another.
KINDS = {
    "bipartite": _joint(_ginibre),
    "bipartite_psd": _joint(_psd),
    "bipartite_pd": _joint(_pd),
    "bipartite_density": _joint(_density),
    "square": _square(_ginibre),
    "square_psd": _square(_psd),
    "channel_ginibre": _channel(_ginibre),
    "channel_psd": _channel(_psd),
    "channel_density": _channel(_density),
    # saturators: products R (x) I (which a channel case reads through Tr_B, the channel of the identity
    # dilation) and scalars
    "product_psd": _product(_psd),
    "product_pd": _product(_pd),
    "product_density": _product(_density, share=True),
    "scaled_product": Kind(  # c R (x) I, c drawn before R
        # rng.choice of a 2-sequence draws integers(0, 2), so this is its value and stream, at a quarter of its cost
        "bipartite", lambda rng, m, n: ((m, n), ((1.0, 2.5)[rng.integers(0, 2)], _gaussians(rng, m, m))),
        lambda x, m, n: x[0][:, None, None] * kron(_psd(x[1]), np.eye(n)),
    ),
    # 2 I, a scale no call draws: every eigenvalue multiplicity equals the
    # dimension, so both chained bounds are tight across the whole grid
    "scalar": Kind(
        "matrix", lambda rng, m, n: ((m, m), (2.0,)), lambda x, m, _: x[0][:, None, None] * np.eye(m, dtype=complex),
    ),
    "scalar_bipartite": Kind(
        "bipartite", lambda rng, m, n: ((m, n), (2.0,)),
        lambda x, m, n: x[0][:, None, None] * np.eye(m * n, dtype=complex),
    ),
}


def _build(kind: Kind, dims, seed) -> Drawn:
    return Drawn(kind.form, kind.finish, *kind.draw(np.random.default_rng(seed), *dims))


def _sample_channel(rng: np.random.Generator, m: int, n: int, d: int) -> StinespringChannel:
    if n * d < m:
        raise BadDimsError(f"no isometry from dimension {m} into {n}*{d}")
    return StinespringChannel(_haar(_gaussians(rng, n * d, m)[None])[0], m, n, d)


# sample kind -> (the dims it takes, builder(rng, *dims)), each the finish of a stack of one draw
_SAMPLERS = {
    "ginibre": (("rows", "cols"), lambda rng, rows, cols: _ginibre(_gaussians(rng, rows, cols)[None])[0]),
    **{name: (("m",), lambda rng, m, f=f: f(_gaussians(rng, m, m)[None])[0])
       for name, f in (("psd", _psd), ("pd", _pd), ("density", _density), ("unitary", _haar))},
    "channel": (("m", "n", "d"), _sample_channel),
    **{name: (("m", "n"), lambda rng, m, n, k=k: Drawn(k.form, k.finish, *k.draw(rng, m, n)).alone())
       for name, k in KINDS.items() if name.startswith("bipartite")},
}


def _dims_tuple(dims) -> tuple[int, ...]:
    t = tuple(as_integer(x) for x in np.atleast_1d(dims))
    if not t or any(x < 1 for x in t):
        raise BadDimsError(f"dimensions must be positive, got {dims!r}")
    return t


def sample(kind: str, dims, seed: int):
    """Deterministic random instance; bit-identical per (kind, dims, seed).

    Kinds and their dims: ginibre (rows, cols); psd/pd/density/unitary m;
    bipartite/bipartite_psd/bipartite_pd/bipartite_density (m, n), built as the
    audit's trial kinds of those names; channel (m, n, d) with n*d >= m.
    seed is a nonnegative integer; any other seed raises PreconditionError.
    """
    if kind not in _SAMPLERS:
        raise KindMismatchError(f"unknown sample kind {kind!r}")
    names, build = _SAMPLERS[kind]
    t = _dims_tuple(dims)
    if len(t) != len(names):
        raise BadDimsError(f"{kind} needs dims ({', '.join(names)})")
    if as_integer(seed, PreconditionError, "a nonnegative integer seed") < 0:
        raise PreconditionError(f"expected a nonnegative integer seed, got {seed!r}")
    return build(np.random.default_rng(seed), *t)


def _trial_seed(base_seed: int, tag: str, index: int) -> int:
    digest = hashlib.sha256(f"{base_seed}:{tag}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# numpy's SeedSequence (numpy/random/bit_generator.pyx), which default_rng(seed)
# runs on an int seed: hashmix folds the seed's uint32 words into a pool of 4,
# each pool word is mixed into the other three, and generate_state hashes the
# pool, cycled, into the state words.  Each hashmix call takes the next pair
# of constants of a multiplicative chain.
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, count: int) -> tuple:
    """The (xor, multiplier) constants of count successive hashmix calls, as uint32 arrays."""
    chain = [init]
    for _ in range(count):
        chain.append(chain[-1] * mult & 0xFFFFFFFF)
    return np.array(chain[:-1], np.uint32), np.array(chain[1:], np.uint32)


def _hashmix(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mult  # uint32 arrays wrap silently
    return words ^ (words >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> 16)


_POOL_HASH_XOR, _POOL_HASH_MULT = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
# pool word i is hashed once for each other word, with three successive
# constants, and mixed into it; with placeholder constants (xor 0, multiplier
# 1) at position i, one step mixes all four words and then puts word i back
_MIX_STEPS = tuple(
    (np.insert(_POOL_HASH_XOR[4 + 3 * i:7 + 3 * i], i, 0), np.insert(_POOL_HASH_MULT[4 + 3 * i:7 + 3 * i], i, 1))
    for i in range(4)
)
_STATE_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _seed_states(seeds: list) -> np.ndarray:
    """Row i is np.random.SeedSequence(seeds[i]).generate_state(4, np.uint64), for 0 <= seeds[i] < 2**64."""
    entropy = np.zeros((len(seeds), 2), "<u8")
    entropy[:, 0] = seeds
    # a seed's words are its little-endian uint32 words; words 2 and 3 are 0
    pool = _hashmix(entropy.view("<u4"), _POOL_HASH_XOR[:4], _POOL_HASH_MULT[:4])
    for i, (xor, mult) in enumerate(_MIX_STEPS):
        source = pool[:, i].copy()
        pool = _mix(pool, _hashmix(source[:, None], xor, mult))
        pool[:, i] = source
    state = _hashmix(np.tile(pool, 2), *_STATE_HASH)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class TrialSeed(int, ISeedSequence):
    """An int seed that carries the generator state numpy hashes from it.

    It is the int it was made from everywhere; np.random.default_rng(seed)
    takes it as a seed sequence and builds from its precomputed state words
    the generator of default_rng(int(seed)) without hashing the seed again.
    Such a generator cannot spawn (rng.spawn raises TypeError), since numpy
    spawns only from a SeedSequence; no draw spawns.
    """

    def __new__(cls, value: int, state: np.ndarray):
        seed = super().__new__(cls, value)
        seed._state = state
        return seed

    def __getnewargs__(self):
        # copy and pickle rebuild an int subclass from these arguments
        return int(self), self._state

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        # the one request PCG64 makes of its seed sequence
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"a TrialSeed holds 4 uint64 state words, not {n_words!r} of {dtype!r}")
        return self._state.copy()


def _seeds(values: list) -> list:
    """values as TrialSeeds, hashed in one pass."""
    return [TrialSeed(value, state) for value, state in zip(values, _seed_states(values))]


def _seed_stream(base_seed: int, ids: list, trials: int, pairs: int):
    """A run's TrialSeeds in run order: each case's trial seeds, then its saturator seeds, one per dims pair.

    They are hashed TRIAL_WINDOW at a time across case boundaries, so windows of
    one or two instances share a pass, and at most TRIAL_WINDOW wait to be handed out.
    """
    tags = ((tag, i) for cid in ids for tag, count in ((cid, trials), (cid + ":sat", pairs)) for i in range(count))
    chunks = iter(lambda: [_trial_seed(base_seed, tag, i) for tag, i in itertools.islice(tags, TRIAL_WINDOW)], [])
    return itertools.chain.from_iterable(map(_seeds, chunks))  # a chunk is hashed when the one before runs out


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class InequalityCase:
    id: str
    description: str
    paper_eq: str
    form: str  # its trial instances' form, as margins.drawn names it
    make_instance: Callable  # (dims, seed) -> a trial instance, drawn only (margins.Drawn); seed an int, or a TrialSeed
    axes: tuple  # products of grid axes, each a string of axis names (see _axis), taken in turn
    evaluate: Callable
    saturator: Callable  # (dims, seed) -> an instance attaining equality, drawn only
    saturator_form: str  # a channel case's saturators are bipartite products
    extra: Optional[tuple] = None  # (report field, each instance's statistic of a window's Spectra, its fold)
    witness: Optional[tuple] = None  # (a spectrum where the bound is tight, one where it is strict, the grid point)


def _case(cid: str, description: str, paper_eq: str, kinds: tuple, axes: tuple, evaluate, **fields) -> InequalityCase:
    """A registry case drawing trials and saturators from kinds, a (trial, saturator) pair of KINDS."""
    trial, saturator = kinds
    return InequalityCase(
        cid, description, paper_eq, KINDS[trial].form, partial(_build, KINDS[trial]),
        axes, evaluate, partial(_build, KINDS[saturator]), KINDS[saturator].form, **fields,
    )


def _strict_dominance(sp: Spectra) -> np.ndarray:
    """Each instance's ||W||_(n) < n ||W||_inf, by more than 1e-9 relative."""
    lhs = sp.norm("joint", sp.n[:, None], (1.0,))[:, 0]
    rhs = sp.n * sp.norm("joint", None, (math.inf,))[:, 0]
    return rhs - lhs > 1e-9 * np.maximum(np.maximum(1.0, lhs), rhs)


def _equivalence_deviation(sp: Spectra) -> np.ndarray:
    """Each instance's largest |(||Tr_B W||_{k} - ||W||_{kn}) - (||W||_((m-k)n) - ||Tr_B W||_(m-k))|, 0 < k < m."""
    m, n, ks = sp.bound[:, None], sp.n[:, None], np.arange(1, int(sp.bound.max()))
    inner, ones = ks < m, (1.0,) * len(ks)  # each row's k: 1 to m - 1
    anti = sp.antinorm("reduced", ks, ones) - sp.antinorm("joint", ks * n, ones)
    rest = np.where(inner, m - ks, 1)
    norm = sp.norm("joint", rest * n, ones) - sp.norm("reduced", rest, ones)
    traces = sp.joined([np.trace(part["joint"], axis1=-2, axis2=-1).real for part in sp.parts])
    deviation = np.abs(anti - norm) / np.maximum(1.0, np.abs(traces))[:, None]
    return np.fmax.reduce(np.where(inner, deviation, 0.0), axis=-1, initial=0.0)


REGISTRY: dict[str, InequalityCase] = {case.id: case for case in (
    _case(
        "KPN1", "partial trace against the (k, p) norm of the joint operator",
        "||Tr_B W||_(k)^(p) <= n^((p-1)/p) ||W||_(kn)^(p)",
        ("bipartite", "product_psd"), ("k norm_p",), eval_kpn1,
    ),
    _case(
        "SPN1", "partial trace against the Schatten norm of the joint operator",
        "||Tr_B W||_p <= n^((p-1)/p) ||W||_p",
        ("bipartite", "product_psd"), ("norm_p",), eval_kpn1,
    ),
    _case(
        "TFSN", "trace, Frobenius, and spectral norm forms of the partial trace bound",
        "||Tr_B W||_1 <= ||W||_1; ||Tr_B W||_2 <= sqrt(n) ||W||_2; ||Tr_B W||_inf <= n ||W||_inf",
        ("bipartite", "product_psd"), ("tfsn_p",), eval_kpn1,
    ),
    _case(
        "KPK1", "Ky Fan norm of the partial trace against the joint Ky Fan norm",
        "||Tr_B W||_(k) <= ||W||_(kn)",
        ("bipartite", "product_psd"), ("k",), eval_kpn1,
    ),
    _case(
        "KPK2", "spectral norm of the partial trace against the Ky Fan n-norm",
        "||Tr_B W||_inf <= ||W||_(n)",
        ("bipartite", "product_psd"), ("",), eval_kpk2,
        extra=("dominance_strict_count", _strict_dominance, lambda stats: int(np.count_nonzero(stats))),
    ),
    _case(
        "TPN2", "(k, p) norm against the (k, pq) norm of the same operator",
        "||R||_(k)^(p) <= k^((q-1)/(pq)) ||R||_(k)^(pq)",
        ("square", "scalar"), ("k pq",), eval_cpn1,
        witness=((2.0, 2.0, 1.0), (3.0, 2.0, 1.0), {"k": 2, "p": 1.0, "q": 2.0}),
    ),
    _case(
        "CPN1", "chained partial trace and exponent interpolation bound",
        "||Tr_B W||_(k)^(p) <= [k^(q-1) n^(pq-1)]^(1/(pq)) ||W||_(kn)^(pq)",
        ("bipartite", "scalar_bipartite"), ("k pq",), eval_cpn1,
    ),
    _case(
        "KQN1", "partial trace against the (k, p) anti-norm of the joint operator",
        "||Tr_B W||_{k}^(p) >= n^((p-1)/p) ||W||_{kn}^(p), 0 < p <= 1",
        ("bipartite_psd", "product_psd"), ("k antinorm_p",), eval_kqn1,
    ),
    _case(
        "KQN2", "negative exponent Schatten anti-norm bound under partial trace",
        "||Tr_B W||_p >= n^((p-1)/p) ||W||_p, p < 0, W positive definite",
        ("bipartite_pd", "product_pd"), ("negative_p",), eval_kqn2,
    ),
    _case(
        "KQK1", "Ky Fan anti-norm of the partial trace against the joint anti-norm",
        "||Tr_B W||_{k} >= ||W||_{kn}",
        ("bipartite_psd", "product_psd"), ("k",), eval_kqn1,
        extra=("equivalence_max_dev", _equivalence_deviation, lambda stats: float(np.max(stats, initial=0.0))),
    ),
    _case(
        "TPN62", "(k, p) anti-norm against the (k, pq) anti-norm of the same operator",
        "||R||_{k}^(p) >= k^((q-1)/(pq)) ||R||_{k}^(pq), p, q in (0, 1)",
        ("square_psd", "scalar"), ("k subunit_pq",), eval_tpn62,
        witness=((1.0, 1.0, 3.0), (3.0, 2.0, 1.0), {"k": 2, "p": 0.5, "q": 0.5}),
    ),
    _case(
        "STCT1", "channel output (k, p) norm against the padded input norm",
        "||Phi(Q)||_(k)^(p) <= d^((p-1)/p) ||Q||_(kd)^(p)",
        ("channel_ginibre", "product_psd"), ("k norm_p",), eval_kpn1,
    ),
    _case(
        "STCTP", "channel output Schatten norm against the input Schatten norm",
        "||Phi(Q)||_p <= d^((p-1)/p) ||Q||_p",
        ("channel_ginibre", "product_psd"), ("norm_p",), eval_kpn1,
    ),
    _case(
        "STCT2", "channel output (k, p) anti-norm against the padded input anti-norm",
        "||Phi(Q)||_{k}^(p) >= d^((p-1)/p) ||Q||_{kd}^(p), spectrum padded to n*d",
        ("channel_psd", "product_psd"), ("k antinorm_p",), eval_kqn1,
    ),
    _case(
        "STCTPP", "channel output Schatten anti-norm against the input Schatten anti-norm",
        "||Phi(Q)||_p >= d^((p-1)/p) ||Q||_p, 0 < p <= 1",
        ("channel_psd", "product_psd"), ("antinorm_p",), eval_kqn2,
    ),
    _case(
        "ET41", "unified entropy of the joint state against the reduced state",
        "E_as(W) <= n^((1-a)s) E_as(Tr_B W) + (1/s) ln_a(n^s)",
        ("bipartite_density", "product_density"), ("alpha s",), eval_et41,
    ),
    _case(
        "ETT41", "Tsallis entropy of the joint state against the reduced state",
        "T_a(W) <= n^(1-a) T_a(Tr_B W) + ln_a(n)",
        ("bipartite_density", "product_density"), ("alpha tsallis",), eval_et41,
    ),
    _case(
        "ET42", "Renyi entropy of the joint state against the reduced state",
        "R_a(W) <= R_a(Tr_B W) + ln(n)",
        ("bipartite_density", "product_density"), ("alpha",), eval_et41,
    ),
    _case(
        "STCTEP", "input entropy against the channel output entropy",
        "E_as(rho) <= d^((1-a)s) E_as(Phi(rho)) + (1/s) ln_a(d^s)",
        ("channel_density", "product_density"), ("alpha s",), eval_et41,
    ),
    _case(
        "SAT-WRQA", "equality of the norm and anti-norm partial trace bounds on c * R (x) I",
        "equality in the (k, p) norm and anti-norm bounds at W = c R (x) I",
        ("scaled_product", "scaled_product"), ("norm k norm_p", "antinorm k antinorm_p"), eval_satwrqa,
    ),
)}

REGISTRY_IDS = tuple(REGISTRY)


def _entered(cid: str, forms, inst) -> Drawn:
    """inst, an instance of case cid, as a Drawn (margins.drawn), which must be of one of forms, each named once."""
    inst = drawn(inst)
    if inst.form not in forms:
        raise KindMismatchError(f"case {cid} needs a {' or '.join(forms)} instance, not a {inst.form} one")
    return inst


def _env_mode(mode) -> str:
    if mode not in ENV_DIM_MODES:
        raise PreconditionError(f"unknown env_dim_mode {mode!r}, expected one of {ENV_DIM_MODES}")
    return mode


def evaluate_case(case_id: str, instance, params) -> float:
    """Signed normalized margin of one registry case on one instance.

    This is the audit's evaluation on a batch of one with a one-point grid.
    The instance is of the case's form or, as its saturators are, of its
    saturator_form (a channel case's saturators are bipartite products).
    params, a mapping, names exactly the grid columns of the case's axes: k an
    integer, family a string, and every other column a real number other than
    a bool, on the grid or off it; a point outside the domain (margins.AXES) of
    every product of the axes, the range the paper proves the bound on, raises
    ExponentRangeError (PreconditionError for a family), and a point whose margin
    is not finite raises DomainError.  An "env_mode" entry of
    params, one of ENV_DIM_MODES ("choi_rank" by default), picks a channel's d
    as AuditConfig.env_dim_mode does, and is checked as that is.
    """
    if not isinstance(case_id, str) or case_id not in REGISTRY:  # a list would raise a bare TypeError
        raise KindMismatchError(f"unknown case id {case_id!r}")
    case = REGISTRY[case_id]
    instance = _entered(case_id, dict.fromkeys((case.form, case.saturator_form)), instance)
    if not all(np.isfinite(x).all() for x in instance.draws):  # a finished instance's draws are its matrices
        raise DomainError("matrix entries must be finite")
    expected = set(make_grid(case.axes, 1))  # the columns the case's axes set
    try:
        params = dict(params)
    except (TypeError, ValueError):  # None, 5 or "k": no mapping of names to values
        message = f"case {case_id} takes a mapping of params {sorted(expected)}, not {params!r}"
        raise PreconditionError(message) from None
    env_mode = _env_mode(params.pop("env_mode", "choi_rank"))
    missing, unexpected = sorted(expected - params.keys()), sorted(params.keys() - expected)
    if missing or unexpected:
        raise PreconditionError(
            f"case {case_id} takes params {sorted(expected)}: missing {missing}, unexpected {unexpected}"
        )
    for name, value in params.items():
        if name == "k":  # True would run as k = 1, and 1.5 or "1" fail deep in an index
            params["k"] = as_integer(value, RankRangeError, "an integer k")
        elif name != "family":
            as_exponent(value, name)
    column = outside(case.axes, params)
    if column is not None:  # a bound holds only on the range it is proved on, so a point past it is no replay
        error = PreconditionError if column == "family" else ExponentRangeError
        raise error(f"{column}={params[column]!r} lies outside the range case {case_id} is proved on: {case.paper_eq}")
    grid, sp = Grid({name: (value,) for name, value in params.items()}, 1), Spectra([instance], env_mode)
    if not sp.in_bound(grid).all():  # a point that was asked for is never out of bound
        raise RankRangeError(f"k={params['k']} outside [1, {sp.bound[0]}]")
    with np.errstate(over="ignore", invalid="ignore"):  # a margin past the float range is refused below
        margin = float(case.evaluate(sp, grid)[0, 0])
    if not math.isfinite(margin):  # as run_audit refuses it
        raise DomainError(f"case {case_id} has no finite margin at {params}: its terms leave the float range")
    return margin


# ---------------------------------------------------------------------------
# audit configuration, runner, report


@dataclass(frozen=True)
class AuditConfig:
    base_seed: int = 42
    trials_per_case: int = 200
    dims: tuple = DEFAULT_DIMS
    tolerance: float = 1e-9
    env_dim_mode: str = "choi_rank"
    case_filter: Optional[tuple] = None

    def __post_init__(self):
        # every trial seed hashes the seed's text, so 42.0 or True would give another audit; each
        # number is stored as the int or float it stands for, a JSON value in the report's echo
        object.__setattr__(self, "base_seed", as_integer(self.base_seed, PreconditionError))
        object.__setattr__(self, "trials_per_case", as_integer(self.trials_per_case, PreconditionError))
        if self.trials_per_case < 1:
            raise PreconditionError("trials_per_case must be at least 1")
        try:
            dims = tuple(tuple(as_integer(x) for x in pair) for pair in self.dims)
        except TypeError:  # dims, or a pair in them, that is no sequence: 5, None, (2, 3) or ((2, 3), 4)
            dims = ()
        if not dims or any(len(pair) != 2 or min(pair) < 1 for pair in dims):
            raise BadDimsError(f"dims must be nonempty (m, n) pairs, got {self.dims!r}")
        object.__setattr__(self, "dims", dims)
        # a bool would run as 0 or 1 and echo as false or true, a str fails deep in a comparison,
        # NaN fails every margin, and inf hides violations
        t = self.tolerance
        if isinstance(t, bool) or not isinstance(t, Real) or not 0 < t < math.inf:
            raise PreconditionError(f"tolerance must be a finite positive real number, got {t!r}")
        object.__setattr__(self, "tolerance", float(t))
        _env_mode(self.env_dim_mode)
        if self.case_filter is not None:
            if isinstance(self.case_filter, str):  # "KPN1" would read as the ids K, P, N and 1
                raise PreconditionError(f"case_filter takes a sequence of case ids, not a string: {self.case_filter!r}")
            try:
                ids = tuple(self.case_filter)
            except TypeError:
                raise PreconditionError(f"case_filter takes a sequence of case ids, got {self.case_filter!r}") from None
            if not ids:  # a run of no case must not read as clean
                raise PreconditionError("case_filter selects no case")
            unknown = [c for c in ids if c not in REGISTRY_IDS]
            if unknown:
                raise KindMismatchError(f"unknown case ids {unknown}")
            object.__setattr__(self, "case_filter", tuple(map(str, ids)))


@dataclass(frozen=True)
class AuditReport:
    version: str
    config: dict
    cases: tuple

    @property
    def violations(self) -> int:
        return sum(c["violations"] for c in self.cases)

    def to_text(self) -> str:
        payload = {"version": self.version, "config": self.config, "cases": list(self.cases)}
        return jsonio.dumps(payload) + "\n"


def _echoed(x):
    """x as JSON reads it back: every tuple or list in it, nested ones too, a new list, and ±inf "inf"/"-inf"."""
    if isinstance(x, (tuple, list)):
        return [_echoed(v) for v in x]
    return str(x) if isinstance(x, float) and math.isinf(x) else x


def _config_echo(cfg: AuditConfig) -> dict:
    fixed = {name + "_grid": _echoed(grid) for name, grid in GRIDS.items()}
    return {**{f.name: _echoed(getattr(cfg, f.name)) for f in fields(cfg)}, **fixed, "prng": dict(PRNG_INFO)}


def _case_extras(case: InequalityCase, stats: np.ndarray) -> dict:
    extra = {} if case.extra is None else {case.extra[0]: case.extra[2](stats)}
    if case.witness is not None:  # both witnesses in one batch, on the witnesses' one-point grid
        *spectra, point = case.witness
        sp = Spectra([drawn(np.diag(s).astype(complex)) for s in spectra])
        equality, strict = case.evaluate(sp, Grid({name: (v,) for name, v in point.items()}, 1))[:, 0].tolist()
        extra.update(equality_margin=equality, strict_margin=strict)
    return extra


# domain problems of one instance; anything else is a bug and propagates
_INSTANCE_ERRORS = (PreconditionError, np.linalg.LinAlgError)

# trials made and evaluated together, so a case holds at most this many trial
# instances at once (and its saturators, in the last window) however many
# trials it runs
TRIAL_WINDOW = 64


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _evaluate(case: InequalityCase, members: list, config: AuditConfig, failed: dict) -> list:
    """(indices, margins, in-bound mask, statistics) arrays of the members kept, one per batch evaluated.

    members, (index, Drawn instance) pairs, are one batch on the case's grid at
    their largest rank bound, made here for the batch.  On a domain error each
    member is evaluated again alone, so only the ones that raise go to failed, as do
    those with an in-bound margin that is not finite: none of them is kept.
    """
    try:
        sp = Spectra([inst for _, inst in members], config.env_dim_mode)
        grid = make_grid(case.axes, int(sp.bound.max()))
        margins = case.evaluate(sp, grid)
        stats = None if case.extra is None else case.extra[1](sp)
    except _INSTANCE_ERRORS as exc:
        if len(members) == 1:
            failed[members[0][0]] = _describe(exc)
            return []
        return [batch for member in members for batch in _evaluate(case, [member], config, failed)]
    indices, mask = np.array([index for index, _ in members]), sp.in_bound(grid)
    finite = np.isfinite(margins) | ~mask
    if finite.all():  # one check per batch
        return [(indices, margins, mask, stats)]
    kept = finite.all(axis=1)
    trials = config.trials_per_case
    for i in np.flatnonzero(~kept).tolist():
        index, j = members[i][0], int(np.argmin(finite[i]))  # j: the first in-bound point that is not finite
        who = f"trial {index}" if index < trials else f"saturator {index - trials}"
        point = ", ".join(f"{name}={column[j]}" for name, column in grid.items()) or "its one point"
        failed[index] = f"non-finite margin {margins[i, j]} in {case.id} {who} at {point}"
    return [(indices[kept], margins[kept], mask[kept], None if stats is None else stats[kept])]


def run_audit(config: AuditConfig = AuditConfig()) -> AuditReport:
    """Evaluate every selected registry case on seeded instances.

    A case's trials are made in trial order, TRIAL_WINDOW at a time, and its
    saturator instances, one per dims pair, join the last window; their seeds
    come from one stream for the run (_seed_stream).  Each window is evaluated
    as one batch, and its in-bound margins (Spectra.in_bound) are folded before
    the next window is made: worst_margin is the minimum of the trial rows,
    violations counts their margins below -tolerance, and saturation_residual is
    the maximum |margin| of the saturator rows.  Each tightness claim above
    tolerance (saturation_residual, KQK1's equivalence_max_dev, |equality_margin|
    of TPN2's and TPN62's witnesses) counts as one more violation.  A
    PreconditionError or LinAlgError on an instance never aborts the run: it
    counts in failures, the first message in trial order is kept, and the
    instance contributes no margin (a failed saturator also nulls
    saturation_residual).  Any other exception propagates.
    """
    selected = config.case_filter if config.case_filter is not None else REGISTRY_IDS
    ids = [cid for cid in REGISTRY_IDS if cid in selected]
    trials, dims = config.trials_per_case, config.dims
    seeds = _seed_stream(config.base_seed, ids, trials, len(dims))
    records = []
    for cid in ids:
        case = REGISTRY[cid]
        failed = {}  # instance index -> message; saturators follow the trials
        stats = [np.empty(0)]  # the kept trials' statistics, batch by batch
        worst = math.inf  # no trial margin yet
        violations = 0
        residual = 0.0
        for start in range(0, trials, TRIAL_WINDOW):
            stop = min(start + TRIAL_WINDOW, trials)
            # (instance index, dims): the trials, then the saturators
            specs = [(t, dims[t % len(dims)]) for t in range(start, stop)]
            if stop == trials:
                specs += [(trials + i, pair) for i, pair in enumerate(dims)]
            members = []
            for (index, pair), seed in zip(specs, seeds):  # specs run out first, so no seed is drawn past them
                make, form = ((case.make_instance, case.form) if index < trials
                              else (case.saturator, case.saturator_form))
                try:
                    inst = make(pair, seed)
                except _INSTANCE_ERRORS as exc:
                    failed[index] = _describe(exc)
                    continue
                members.append((index, _entered(cid, (form,), inst)))  # a maker's mistake, so outside the guard
            for indices, margins, mask, stat in _evaluate(case, members, config, failed) if members else ():
                n = int(np.searchsorted(indices, trials))  # rows are in index order, the saturators last
                trial, saturator = margins[:n][mask[:n]], margins[n:][mask[n:]]
                worst = min(worst, float(trial.min(initial=math.inf)))
                violations += int(np.count_nonzero(trial < -config.tolerance))
                residual = max(residual, float(np.abs(saturator).max(initial=0.0)))
                if stat is not None:
                    stats.append(stat[:n])
        # a residual over only some saturator instances must not read as clean
        saturation = residual if max(failed, default=-1) < trials else None
        extra = _case_extras(case, np.concatenate(stats))
        # each tightness claim that does not hold within tolerance counts as a violation
        claims = (saturation or 0.0, extra.get("equivalence_max_dev", 0.0), abs(extra.get("equality_margin", 0.0)))
        violations += sum(not x <= config.tolerance for x in claims)
        record = {
            "id": cid,
            "paper_eq": case.paper_eq,
            "trials": config.trials_per_case,
            "violations": violations,
            "worst_margin": worst if worst < math.inf else None,
            "saturation_residual": saturation,
            "failures": len(failed),
        }
        if failed:
            record["first_failure"] = failed[min(failed)]
        if extra:
            record["extra"] = extra
        records.append(record)
    return AuditReport(version=__version__, config=_config_echo(config), cases=tuple(records))
