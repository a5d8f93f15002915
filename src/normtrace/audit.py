"""Seeded samplers, the inequality registry, and the reproducible audit runner.

Each registry case binds one proved relation to an evaluator returning a
signed margin normalized by max(1, |lhs|, |rhs|); margin >= -tolerance means
the relation held on that instance.  The SAT-WRQA case instead returns the
negated equality residual of the product family c * R (x) I, so its margins
sit at zero up to round-off.  The evaluators, the stacked spectra they read and
the parameter grids live in margins.py.

The runner makes a case's trial instances TRIAL_WINDOW at a time and evaluates
each window in batches of same-shape instances: one margins.Spectra and one
evaluator call per batch.  evaluate_case, a batch of one with a one-point grid,
gives the same margins.

Each case names a trial kind and a saturator kind of the KINDS table, which
gives each kind's form (see margins.form) and builder.  Builders draw from
numpy's PCG64 generator and are bit-reproducible per (kind, dims, seed); the
audit derives per-trial seeds by hashing (base_seed, case id, trial index), so
reports are deterministic in the configuration alone.
"""
from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass, fields
from functools import partial
from typing import Callable, Optional

import numpy as np

from ._version import __version__
from . import jsonio
from .antinorms import kyfan_antinorm_of
from .bipartite import BipartiteOperator
from .channels import StinespringChannel, partial_trace_channel
from .errors import BadDimsError, KindMismatchError, PreconditionError
from .linalg import kron
from .margins import (
    Grid,
    Spectra,
    eval_cpn1,
    eval_et41,
    eval_et42,
    eval_ett41,
    eval_kpk1,
    eval_kpk2,
    eval_kpn1,
    eval_kqk1,
    eval_kqn1,
    eval_kqn2,
    eval_satwrqa,
    eval_spn1,
    eval_stct1,
    eval_stct2,
    eval_stctep,
    eval_stctp,
    eval_stctpp,
    eval_tfsn,
    eval_tpn2,
    eval_tpn62,
    form,
    make_grid,
)

NORM_P_GRID = (1.0, 1.5, 2.0, 3.0, 10.0, math.inf)
ANTINORM_P_GRID = (0.25, 0.5, 0.75, 1.0)
NEGATIVE_P_GRID = (-0.5, -1.0, -2.0)
PQ_GRID = tuple((p, q) for p in (1.0, 1.5, 2.0) for q in (1.5, 2.0, 3.0))
SUBUNIT_PQ_GRID = tuple((p, q) for p in (0.25, 0.5, 0.75) for q in (0.25, 0.5, 0.75))
ALPHA_GRID = (0.3, 0.7, 1.0, 1.5, 3.0)
S_GRID = (-1.0, 0.0, 0.5, 1.0, 2.0)
DEFAULT_DIMS = ((2, 2), (2, 3), (3, 2), (4, 3))
ENV_DIM_MODES = ("choi_rank", "dim_env")  # a channel's d: its Choi rank, or its dilation's dim_env

PRNG_INFO = {
    "bit_generator": "PCG64 via numpy.random.default_rng",
    "gaussian_sampler": "numpy Generator.standard_normal",
    "seed_derivation": "first 8 bytes of sha256('<base_seed>:<case_id>:<trial>'), big-endian",
}


# ---------------------------------------------------------------------------
# samplers and instance kinds


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / math.sqrt(2.0)


def _psd(rng: np.random.Generator, n: int) -> np.ndarray:
    g = _ginibre(rng, n, n)
    return g @ g.conj().T


def _pd(rng: np.random.Generator, n: int) -> np.ndarray:
    a = _psd(rng, n)
    # floor at one tenth of the mean eigenvalue keeps negative powers stable
    return a + 0.1 * (float(a.trace().real) / n) * np.eye(n)


def _density(rng: np.random.Generator, n: int) -> np.ndarray:
    a = _psd(rng, n)
    return a / float(a.trace().real)


def _isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, rows, cols))
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def _channel(rng: np.random.Generator, m: int, n: int, d: int) -> StinespringChannel:
    if n * d < m:
        raise BadDimsError(f"no isometry from dimension {m} into {n}*{d}")
    return StinespringChannel(_isometry(rng, n * d, m), m, n, d)


def _random_channel(rng: np.random.Generator, m: int, n: int) -> StinespringChannel:
    # d is drawn before the isometry
    return _channel(rng, m, n, math.ceil(m / n) + int(rng.integers(0, 3)))


def _bipartite(matrix) -> tuple:
    """The bipartite kind whose operator on H_A (x) H_B is matrix(rng, m, n)."""
    return "bipartite", lambda rng, m, n: BipartiteOperator(matrix(rng, m, n), m, n)


# Instance kinds: name -> (form, builder(rng, m, n)), the forms being those of
# margins.form.  A registry case draws its trials from one kind and its
# saturators, instances known to attain equality in its bound, from another.
KINDS = {
    "bipartite": _bipartite(lambda rng, m, n: _ginibre(rng, m * n, m * n)),
    "bipartite_psd": _bipartite(lambda rng, m, n: _psd(rng, m * n)),
    "bipartite_pd": _bipartite(lambda rng, m, n: _pd(rng, m * n)),
    "bipartite_density": _bipartite(lambda rng, m, n: _density(rng, m * n)),
    "square": ("matrix", lambda rng, m, n: _ginibre(rng, m, m)),
    "square_psd": ("matrix", lambda rng, m, n: _psd(rng, m)),
    "channel_ginibre": ("channel", lambda rng, m, n: (_random_channel(rng, m, n), _ginibre(rng, m, m))),
    "channel_psd": ("channel", lambda rng, m, n: (_random_channel(rng, m, n), _psd(rng, m))),
    "channel_density": ("channel", lambda rng, m, n: (_random_channel(rng, m, n), _density(rng, m))),
    # saturators: products R (x) I, scalars, and Tr_B as a channel on a product
    "product_psd": _bipartite(lambda rng, m, n: kron(_psd(rng, m), np.eye(n))),
    "product_pd": _bipartite(lambda rng, m, n: kron(_pd(rng, m), np.eye(n))),
    "product_density": _bipartite(lambda rng, m, n: kron(_density(rng, m), np.eye(n) / n)),
    "scaled_product": _bipartite(  # c R (x) I, c drawn before R
        lambda rng, m, n: float(rng.choice((1.0, 2.5))) * kron(_psd(rng, m), np.eye(n))
    ),
    # every eigenvalue multiplicity equals the dimension, so both chained
    # bounds are tight across the whole grid
    "scalar": ("matrix", lambda rng, m, n: 2.0 * np.eye(m, dtype=np.complex128)),
    "scalar_bipartite": _bipartite(lambda rng, m, n: 2.0 * np.eye(m * n, dtype=np.complex128)),
    "ptrace_psd": ("channel", lambda rng, m, n: (partial_trace_channel(m, n), kron(_psd(rng, m), np.eye(n)))),
    "ptrace_density": (
        "channel", lambda rng, m, n: (partial_trace_channel(m, n), kron(_density(rng, m), np.eye(n) / n)),
    ),
}

# sample kind -> (the dims it takes, builder(rng, *dims))
_SAMPLERS = {
    "ginibre": (("rows", "cols"), _ginibre),
    "psd": (("m",), _psd),
    "pd": (("m",), _pd),
    "density": (("m",), _density),
    "unitary": (("m",), lambda rng, m: _isometry(rng, m, m)),
    "channel": (("m", "n", "d"), _channel),
    **{kind: (("m", "n"), build) for kind, (_, build) in KINDS.items() if kind.startswith("bipartite")},
}


def _integer(x, error=BadDimsError) -> int:
    """x as an int; a value that is not an integer, such as 2.5 or even 2.0, raises error."""
    try:
        return operator.index(x)
    except TypeError:
        raise error(f"expected an integer, got {x!r}") from None


def _dims_tuple(dims) -> tuple[int, ...]:
    t = tuple(_integer(x) for x in np.atleast_1d(dims))
    if not t or any(x < 1 for x in t):
        raise BadDimsError(f"dimensions must be positive, got {dims!r}")
    return t


def sample(kind: str, dims, seed: int):
    """Deterministic random instance; bit-identical per (kind, dims, seed).

    Kinds and their dims: ginibre (rows, cols); psd/pd/density/unitary m;
    bipartite/bipartite_psd/bipartite_pd/bipartite_density (m, n), built as the
    audit's trial kinds of those names; channel (m, n, d) with n*d >= m.
    """
    if kind not in _SAMPLERS:
        raise KindMismatchError(f"unknown sample kind {kind!r}")
    names, build = _SAMPLERS[kind]
    t = _dims_tuple(dims)
    if len(t) != len(names):
        raise BadDimsError(f"{kind} needs dims ({', '.join(names)})")
    return build(np.random.default_rng(seed), *t)


def _trial_seed(base_seed: int, tag: str, index: int) -> int:
    digest = hashlib.sha256(f"{base_seed}:{tag}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _build(build, dims, seed):
    return build(np.random.default_rng(seed), *dims)


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class InequalityCase:
    id: str
    description: str
    paper_eq: str
    form: str  # what margins.form names its instances
    make_instance: Callable  # (dims, seed) -> a trial instance
    axes: tuple  # products of grid axes, each a string of axis names (see _axis), taken in turn
    evaluate: Callable
    saturator: Callable  # (dims, seed) -> an instance attaining equality


def _case(cid: str, description: str, paper_eq: str, kinds: tuple, axes: tuple, evaluate) -> InequalityCase:
    """A registry case drawing trials and saturators from kinds, a (trial, saturator) pair of KINDS."""
    trial, saturator = kinds
    return InequalityCase(
        cid, description, paper_eq, KINDS[trial][0], partial(_build, KINDS[trial][1]),
        axes, evaluate, partial(_build, KINDS[saturator][1]),
    )


REGISTRY: dict[str, InequalityCase] = {case.id: case for case in (
    _case(
        "KPN1", "partial trace against the (k, p) norm of the joint operator",
        "||Tr_B W||_(k)^(p) <= n^((p-1)/p) ||W||_(kn)^(p)",
        ("bipartite", "product_psd"), ("k norm_p",), eval_kpn1,
    ),
    _case(
        "SPN1", "partial trace against the Schatten norm of the joint operator",
        "||Tr_B W||_p <= n^((p-1)/p) ||W||_p",
        ("bipartite", "product_psd"), ("norm_p",), eval_spn1,
    ),
    _case(
        "TFSN", "trace, Frobenius, and spectral norm forms of the partial trace bound",
        "||Tr_B W||_1 <= ||W||_1; ||Tr_B W||_2 <= sqrt(n) ||W||_2; ||Tr_B W||_inf <= n ||W||_inf",
        ("bipartite", "product_psd"), ("variant",), eval_tfsn,
    ),
    _case(
        "KPK1", "Ky Fan norm of the partial trace against the joint Ky Fan norm",
        "||Tr_B W||_(k) <= ||W||_(kn)",
        ("bipartite", "product_psd"), ("k",), eval_kpk1,
    ),
    _case(
        "KPK2", "spectral norm of the partial trace against the Ky Fan n-norm",
        "||Tr_B W||_inf <= ||W||_(n)",
        ("bipartite", "product_psd"), ("",), eval_kpk2,
    ),
    _case(
        "TPN2", "(k, p) norm against the (k, pq) norm of the same operator",
        "||R||_(k)^(p) <= k^((q-1)/(pq)) ||R||_(k)^(pq)",
        ("square", "scalar"), ("k pq",), eval_tpn2,
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
        ("bipartite_psd", "product_psd"), ("k",), eval_kqk1,
    ),
    _case(
        "TPN62", "(k, p) anti-norm against the (k, pq) anti-norm of the same operator",
        "||R||_{k}^(p) >= k^((q-1)/(pq)) ||R||_{k}^(pq), p, q in (0, 1)",
        ("square_psd", "scalar"), ("k subunit_pq",), eval_tpn62,
    ),
    _case(
        "STCT1", "channel output (k, p) norm against the padded input norm",
        "||Phi(Q)||_(k)^(p) <= d^((p-1)/p) ||Q||_(kd)^(p)",
        ("channel_ginibre", "ptrace_psd"), ("k norm_p",), eval_stct1,
    ),
    _case(
        "STCTP", "channel output Schatten norm against the input Schatten norm",
        "||Phi(Q)||_p <= d^((p-1)/p) ||Q||_p",
        ("channel_ginibre", "ptrace_psd"), ("norm_p",), eval_stctp,
    ),
    _case(
        "STCT2", "channel output (k, p) anti-norm against the padded input anti-norm",
        "||Phi(Q)||_{k}^(p) >= d^((p-1)/p) ||Q||_{kd}^(p), spectrum padded to n*d",
        ("channel_psd", "ptrace_psd"), ("k antinorm_p",), eval_stct2,
    ),
    _case(
        "STCTPP", "channel output Schatten anti-norm against the input Schatten anti-norm",
        "||Phi(Q)||_p >= d^((p-1)/p) ||Q||_p, 0 < p <= 1",
        ("channel_psd", "ptrace_psd"), ("antinorm_p",), eval_stctpp,
    ),
    _case(
        "ET41", "unified entropy of the joint state against the reduced state",
        "E_as(W) <= n^((1-a)s) E_as(Tr_B W) + (1/s) ln_a(n^s)",
        ("bipartite_density", "product_density"), ("alpha s",), eval_et41,
    ),
    _case(
        "ETT41", "Tsallis entropy of the joint state against the reduced state",
        "T_a(W) <= n^(1-a) T_a(Tr_B W) + ln_a(n)",
        ("bipartite_density", "product_density"), ("alpha",), eval_ett41,
    ),
    _case(
        "ET42", "Renyi entropy of the joint state against the reduced state",
        "R_a(W) <= R_a(Tr_B W) + ln(n)",
        ("bipartite_density", "product_density"), ("alpha",), eval_et42,
    ),
    _case(
        "STCTEP", "input entropy against the channel output entropy",
        "E_as(rho) <= d^((1-a)s) E_as(Phi(rho)) + (1/s) ln_a(d^s)",
        ("channel_density", "ptrace_density"), ("alpha s",), eval_stctep,
    ),
    _case(
        "SAT-WRQA", "equality of the norm and anti-norm partial trace bounds on c * R (x) I",
        "equality in the (k, p) norm and anti-norm bounds at W = c R (x) I",
        ("scaled_product", "scaled_product"), ("norm k norm_p", "antinorm k antinorm_p"), eval_satwrqa,
    ),
)}

REGISTRY_IDS = tuple(REGISTRY)


def evaluate_case(case_id: str, instance, params) -> float:
    """Signed normalized margin of one registry case on one instance.

    This is the audit's evaluation on a batch of one with a one-point grid.
    params names exactly the grid columns of the case's axes.  An "env_mode"
    entry of params, one of ENV_DIM_MODES ("choi_rank" by default), picks a
    channel's d as AuditConfig.env_dim_mode does, and AuditConfig checks it.
    """
    if case_id not in REGISTRY:
        raise KindMismatchError(f"unknown case id {case_id!r}")
    case = REGISTRY[case_id]
    if form(instance)[0] != case.form:
        raise KindMismatchError(f"case {case_id} needs a {case.form} instance")
    params = dict(params)
    env_mode = params.pop("env_mode", "choi_rank")
    expected = set(make_grid(case.axes, 1, AuditConfig(env_dim_mode=env_mode)))  # the columns the case's axes set
    missing, unexpected = sorted(expected - params.keys()), sorted(params.keys() - expected)
    if missing or unexpected:
        raise PreconditionError(
            f"case {case_id} takes params {sorted(expected)}: missing {missing}, unexpected {unexpected}"
        )
    grid = Grid({name: (value,) for name, value in params.items()}, 1)
    return float(case.evaluate(Spectra([instance], env_mode), grid)[0, 0])


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
    norm_p_grid: tuple = NORM_P_GRID
    antinorm_p_grid: tuple = ANTINORM_P_GRID
    negative_p_grid: tuple = NEGATIVE_P_GRID
    pq_grid: tuple = PQ_GRID
    subunit_pq_grid: tuple = SUBUNIT_PQ_GRID
    alpha_grid: tuple = ALPHA_GRID
    s_grid: tuple = S_GRID

    def __post_init__(self):
        if _integer(self.trials_per_case, PreconditionError) < 1:
            raise PreconditionError("trials_per_case must be at least 1")
        dims = tuple(tuple(_integer(x) for x in pair) for pair in self.dims)
        if not dims or any(len(pair) != 2 or min(pair) < 1 for pair in dims):
            raise BadDimsError(f"dims must be nonempty (m, n) pairs, got {self.dims!r}")
        object.__setattr__(self, "dims", dims)
        if not (self.tolerance > 0 and math.isfinite(self.tolerance)):  # inf would hide every violation
            raise PreconditionError(f"tolerance must be finite and positive, got {self.tolerance!r}")
        if self.env_dim_mode not in ENV_DIM_MODES:
            raise PreconditionError(f"unknown env_dim_mode {self.env_dim_mode!r}, expected one of {ENV_DIM_MODES}")
        empty = [f.name for f in fields(self) if f.name.endswith("_grid") and len(getattr(self, f.name)) == 0]
        if empty:
            raise PreconditionError(f"empty parameter grids: {', '.join(empty)}")
        if self.case_filter is not None:
            if len(self.case_filter) == 0:  # a run of no case must not read as clean
                raise PreconditionError("case_filter selects no case")
            unknown = [c for c in self.case_filter if c not in REGISTRY]
            if unknown:
                raise KindMismatchError(f"unknown case ids {unknown}")


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


def _config_echo(cfg: AuditConfig) -> dict:
    return {
        "base_seed": cfg.base_seed,
        "trials_per_case": cfg.trials_per_case,
        "dims": [list(pair) for pair in cfg.dims],
        "tolerance": cfg.tolerance,
        "env_dim_mode": cfg.env_dim_mode,
        "case_filter": list(cfg.case_filter) if cfg.case_filter is not None else None,
        "norm_p_grid": list(cfg.norm_p_grid),
        "antinorm_p_grid": list(cfg.antinorm_p_grid),
        "negative_p_grid": list(cfg.negative_p_grid),
        "pq_grid": [list(pq) for pq in cfg.pq_grid],
        "subunit_pq_grid": [list(pq) for pq in cfg.subunit_pq_grid],
        "alpha_grid": list(cfg.alpha_grid),
        "s_grid": list(cfg.s_grid),
        "prng": dict(PRNG_INFO),
    }


# equality-iff witnesses of TPN2 and TPN62: (a spectrum where the bound is
# tight, one where it is strict, the grid point)
_WITNESSES = {
    "TPN2": ((2.0, 2.0, 1.0), (3.0, 2.0, 1.0), {"k": 2, "p": 1.0, "q": 2.0}),
    "TPN62": ((1.0, 1.0, 3.0), (3.0, 2.0, 1.0), {"k": 2, "p": 0.5, "q": 0.5}),
}


def _case_extras(cid: str, stats: list):
    if cid == "KPK2":
        return {"dominance_strict_count": sum(stats)}
    if cid == "KQK1":
        return {"equivalence_max_dev": max([0.0] + stats)}
    if cid in _WITNESSES:
        flat, tilted, pr = _WITNESSES[cid]
        return {
            "equality_margin": evaluate_case(cid, np.diag(flat).astype(complex), pr),
            "strict_margin": evaluate_case(cid, np.diag(tilted).astype(complex), pr),
        }
    return None


def _trial_stats(cid: str, sp: Spectra) -> list:
    """Each trial's share of the case's extra report field, None for a case without one."""
    if cid == "KPK2":
        n = sp.dim_b
        lhs = sp.norm("w", np.array([n]), (1.0,))[:, 0]
        rhs = n * sp.norm("w", None, (math.inf,))[:, 0]
        return (rhs - lhs > 1e-9 * np.maximum(np.maximum(1.0, lhs), rhs)).tolist()
    if cid == "KQK1":
        m, n = sp.dim_a, sp.dim_b
        ks, ones = np.arange(1, m), (1.0,) * (m - 1)
        qa, w = sp.psd("qa"), sp.psd("w")
        anti = sp.columns(lambda k: kyfan_antinorm_of(qa, k) - kyfan_antinorm_of(w, k * n), ks.tolist())
        norm = sp.norm("w", (m - ks) * n, ones) - sp.norm("qa", m - ks, ones)
        denom = np.maximum(1.0, np.abs(np.trace(sp.matrices["w"], axis1=-2, axis2=-1).real))
        return np.fmax.reduce(np.abs(anti - norm) / denom[:, None], axis=-1, initial=0.0).tolist()
    return [None] * sp.size


# domain problems of one instance; anything else is a bug and propagates
_INSTANCE_ERRORS = (PreconditionError, np.linalg.LinAlgError)

# trials made and evaluated together, so a case holds at most this many trial
# instances at once (and its saturators, in the last window) however many
# trials it runs
TRIAL_WINDOW = 64


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _instances(make, specs, failed: dict) -> list:
    """(index, instance) for each (index, dims, seed); a maker's domain error goes to failed."""
    made = []
    for index, dims, seed in specs:
        try:
            made.append((index, make(dims, seed)))
        except _INSTANCE_ERRORS as exc:
            failed[index] = _describe(exc)
    return made


def _evaluate(case: InequalityCase, members: list, config: AuditConfig, grids: dict, failed: dict) -> dict:
    """index -> (margins, trial statistic) of (index, instance) members, evaluated as one batch.

    grids holds the case's grid per rank bound, made on first use.  On a domain
    error each member is evaluated again alone, so only the ones that raise go
    to failed, and those contribute no margin.
    """
    try:
        sp = Spectra([inst for _, inst in members], config.env_dim_mode)
        if sp.kmax not in grids:
            grids[sp.kmax] = make_grid(case.axes, sp.kmax, config)
        margins = case.evaluate(sp, grids[sp.kmax])
        stats = _trial_stats(case.id, sp)
    except _INSTANCE_ERRORS as exc:
        if len(members) == 1:
            failed[members[0][0]] = _describe(exc)
            return {}
        results = {}
        for member in members:
            results.update(_evaluate(case, [member], config, grids, failed))
        return results
    return {index: (row, stat) for (index, _), row, stat in zip(members, margins, stats)}


def run_audit(config: AuditConfig = AuditConfig()) -> AuditReport:
    """Evaluate every selected registry case on seeded instances.

    A case's trials are made in trial order, TRIAL_WINDOW at a time, and its
    saturator instances, one per dims pair, join the last window.  Each window
    is evaluated in batches of same-shape instances and its trial margins are
    folded in (trial, point) order before the next window is made.  A
    PreconditionError or LinAlgError on an instance never aborts the run: it
    counts in failures, the first message in trial order is kept, and the
    instance contributes no margin (a failed saturator also nulls
    saturation_residual).  Any other exception propagates.
    """
    ids = config.case_filter if config.case_filter is not None else REGISTRY_IDS
    base, trials, dims = config.base_seed, config.trials_per_case, config.dims
    records = []
    for cid in REGISTRY_IDS:
        if cid not in ids:
            continue
        case = REGISTRY[cid]
        failed = {}  # instance index -> message; saturators follow the trials
        grids = {}  # rank bound -> the case's grid
        stats = []
        worst = None
        violations = 0
        residual = 0.0
        for start in range(0, trials, TRIAL_WINDOW):
            stop = min(start + TRIAL_WINDOW, trials)
            specs = [(t, dims[t % len(dims)], _trial_seed(base, cid, t)) for t in range(start, stop)]
            made = _instances(case.make_instance, specs, failed)
            if stop == trials:
                specs = [(trials + i, pair, _trial_seed(base, cid + ":sat", i)) for i, pair in enumerate(dims)]
                made += _instances(case.saturator, specs, failed)
            groups = {}
            for index, inst in made:
                groups.setdefault(form(inst), []).append((index, inst))
            results = {}
            for members in groups.values():
                results.update(_evaluate(case, members, config, grids, failed))
            for index in sorted(results):
                margins, stat = results[index]
                if index >= trials:  # a saturator
                    for margin in margins.tolist():
                        residual = max(residual, abs(margin))
                    continue
                stats.append(stat)
                for margin in margins.tolist():
                    if worst is None or margin < worst:
                        worst = margin
                    if margin < -config.tolerance:
                        violations += 1
        # a residual over only some saturator instances must not read as clean
        saturation = residual if max(failed, default=-1) < trials else None
        record = {
            "id": cid,
            "paper_eq": case.paper_eq,
            "trials": config.trials_per_case,
            "violations": violations,
            "worst_margin": worst,
            "saturation_residual": saturation,
            "failures": len(failed),
        }
        if failed:
            record["first_failure"] = failed[min(failed)]
        extra = _case_extras(cid, stats)
        if extra is not None:
            record["extra"] = extra
        records.append(record)
    return AuditReport(version=__version__, config=_config_echo(config), cases=tuple(records))
