"""Seeded samplers, the inequality registry, and the reproducible audit runner.

Each registry case binds one proved relation to an evaluator returning a
signed margin normalized by max(1, |lhs|, |rhs|); margin >= -tolerance means
the relation held on that instance.  The SAT-WRQA case instead returns the
negated equality residual of the product family c * R (x) I, so its margins
sit at zero up to round-off.

Every functional the cases compare is unitarily invariant, so an evaluator
reads only spectra: singular values for norms, eigenvalues for anti-norms and
entropies, of W and Tr_B W or of Q and Phi(Q), plus a channel's Choi rank.
The runner wraps each instance in a memo of those spectra as soon as it is
made, so each matrix is decomposed once per instance.  The memo also keeps one
table per (matrix, exponent): for norms and anti-norms one cumulative power sum
over the sorted spectrum, which serves every k, and for entropies the power sum
tr rho^alpha and the von Neumann value.  Every point of the parameter grid is
then a lookup in those tables.

Samplers draw from numpy's PCG64 generator and are bit-reproducible per
(kind, dims, seed); the audit derives per-trial seeds by hashing
(base_seed, case id, trial index), so reports are deterministic in the
configuration alone.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._version import __version__
from . import jsonio
from .antinorms import antinorm_table, kyfan_antinorm_of, psd_spectrum, schatten_antinorm_of
from .bipartite import BipartiteOperator, partial_trace_b
from .channels import StinespringChannel, choi_rank, partial_trace_channel
from .entropy import (
    alpha_log,
    density_spectrum,
    max_entropy_value,
    power_sum_of,
    renyi_entropy_from,
    tsallis_entropy_from,
    unified_entropy_from,
    von_neumann_of,
)
from .errors import BadDimsError, KindMismatchError, PreconditionError, RankRangeError
from .linalg import as_matrix, kron, require_square, singular_values
from .norms import gauge_table

NORM_P_GRID = (1.0, 1.5, 2.0, 3.0, 10.0, math.inf)
ANTINORM_P_GRID = (0.25, 0.5, 0.75, 1.0)
NEGATIVE_P_GRID = (-0.5, -1.0, -2.0)
PQ_GRID = tuple((p, q) for p in (1.0, 1.5, 2.0) for q in (1.5, 2.0, 3.0))
SUBUNIT_PQ_GRID = tuple((p, q) for p in (0.25, 0.5, 0.75) for q in (0.25, 0.5, 0.75))
ALPHA_GRID = (0.3, 0.7, 1.0, 1.5, 3.0)
S_GRID = (-1.0, 0.0, 0.5, 1.0, 2.0)
DEFAULT_DIMS = ((2, 2), (2, 3), (3, 2), (4, 3))

PRNG_INFO = {
    "bit_generator": "PCG64 via numpy.random.default_rng",
    "gaussian_sampler": "numpy Generator.standard_normal",
    "seed_derivation": "first 8 bytes of sha256('<base_seed>:<case_id>:<trial>'), big-endian",
}


# ---------------------------------------------------------------------------
# samplers


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


def _ginibre_square(rng: np.random.Generator, m: int) -> np.ndarray:
    return _ginibre(rng, m, m)


def _channel(rng: np.random.Generator, m: int, n: int, d: int) -> StinespringChannel:
    if n * d < m:
        raise BadDimsError(f"no isometry from dimension {m} into {n}*{d}")
    return StinespringChannel(_isometry(rng, n * d, m), m, n, d)


def _dims_tuple(dims) -> tuple[int, ...]:
    if isinstance(dims, (int, np.integer)):
        t = (int(dims),)
    else:
        t = tuple(int(x) for x in dims)
    if not t or any(x < 1 for x in t):
        raise BadDimsError(f"dimensions must be positive, got {dims!r}")
    return t


def sample(kind: str, dims, seed: int):
    """Deterministic random instance; bit-identical per (kind, dims, seed).

    Kinds and their dims: ginibre (rows, cols); psd/pd/density/unitary m;
    bipartite/bipartite_psd/bipartite_pd/bipartite_density (m, n);
    channel (m, n, d) with n*d >= m.
    """
    rng = np.random.default_rng(seed)
    t = _dims_tuple(dims)
    if kind == "ginibre":
        if len(t) != 2:
            raise BadDimsError("ginibre needs (rows, cols)")
        return _ginibre(rng, *t)
    if kind in ("psd", "pd", "density", "unitary"):
        if len(t) != 1:
            raise BadDimsError(f"{kind} needs a single dimension")
        n = t[0]
        if kind == "psd":
            return _psd(rng, n)
        if kind == "pd":
            return _pd(rng, n)
        if kind == "density":
            return _density(rng, n)
        return _isometry(rng, n, n)
    if kind in ("bipartite", "bipartite_psd", "bipartite_pd", "bipartite_density"):
        if len(t) != 2:
            raise BadDimsError(f"{kind} needs (m, n)")
        m, n = t
        size = m * n
        if kind == "bipartite":
            mat = _ginibre(rng, size, size)
        elif kind == "bipartite_psd":
            mat = _psd(rng, size)
        elif kind == "bipartite_pd":
            mat = _pd(rng, size)
        else:
            mat = _density(rng, size)
        return BipartiteOperator(mat, m, n)
    if kind == "channel":
        if len(t) != 3:
            raise BadDimsError("channel needs (m, n, d)")
        return _channel(rng, *t)
    raise KindMismatchError(f"unknown sample kind {kind!r}")


def _trial_seed(base_seed: int, tag: str, index: int) -> int:
    digest = hashlib.sha256(f"{base_seed}:{tag}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# margin helpers


def _slack(small: float, large: float) -> float:
    """Normalized margin of the inequality small <= large."""
    return float((large - small) / max(1.0, abs(small), abs(large)))


def _dim_factor(n: int, p: float) -> float:
    """n^((p-1)/p), continued as n at p = +inf.

    Evaluators read their functionals before this and the other exponent
    factors, so an exponent such as p = 0 raises the functional's
    ExponentRangeError, which counts as a failure, before a factor divides by it.
    """
    if math.isinf(p):
        return float(n)
    return float(n) ** ((p - 1.0) / p)


# ---------------------------------------------------------------------------
# per-instance spectra


def _square_singular_values(q) -> np.ndarray:
    q = as_matrix(q)
    require_square(q)
    return singular_values(q)


def _entry(table: np.ndarray, k: Optional[int]) -> float:
    """Entry k of a table indexed by k = 1..len; None reads the last (the Schatten value)."""
    if k is None:
        k = table.size
    if not 1 <= k <= table.size:
        raise RankRangeError(f"k={k} outside [1, {table.size}]")
    return float(table[k - 1])


class _Spectra:
    """Lazily computed, validated spectra of one audit instance.

    The matrices are W and Tr_B W of a bipartite instance, Q and Phi(Q) of a
    (channel, Q) pair, or a plain matrix Q.  Each is decomposed at most once per
    spectrum kind (singular values, PSD eigenvalues, density eigenvalues), with
    the checks of the matrix-level functions, and a channel's Choi rank is
    computed once.  On top of the spectra it keeps one table per (matrix,
    exponent), built the first time a grid point asks for it, so each grid
    point of the instance is a lookup; a lookup outside a table raises the
    RankRangeError or ExponentRangeError of the scalar function it stands for.
    """

    def __init__(self, inst):
        self.inst = inst
        if isinstance(inst, BipartiteOperator):
            self.matrices = {"w": inst.matrix, "qa": partial_trace_b(inst)}
        elif isinstance(inst, tuple):
            ch, q = inst
            self.matrices = {"q": q, "out": ch.apply(q)}
        else:
            self.matrices = {"q": inst}
        self._memo = {}

    def _get(self, key, make):
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = make()
        return value

    def sv(self, name: str) -> np.ndarray:
        return self._get(("sv", name), lambda: _square_singular_values(self.matrices[name]))

    def psd(self, name: str) -> np.ndarray:
        return self._get(("psd", name), lambda: psd_spectrum(self.matrices[name]))

    def density(self, name: str) -> np.ndarray:
        return self._get(("density", name), lambda: density_spectrum(self.matrices[name]))

    def norm(self, name: str, k: Optional[int], p: float) -> float:
        """(k, p) norm of a matrix; k None gives its Schatten p-norm."""
        # numpy's SVD returns the singular values in descending order
        return _entry(self._get(("norm", name, p), lambda: gauge_table(self.sv(name), p)), k)

    def antinorm(self, name: str, k: int, p: float, ambient_dim: Optional[int] = None) -> float:
        """(k, p) anti-norm of a PSD matrix, its spectrum zero-padded to ambient_dim."""
        key = ("antinorm", name, p, ambient_dim)
        return _entry(self._get(key, lambda: antinorm_table(self.psd(name), p, ambient_dim)), k)

    def entropy_inputs(self, name: str, alpha: float):
        """tr rho^alpha and the von Neumann value of a state, for the entropy_from functions."""
        return (
            lambda: self._get(("power_sum", name, alpha), lambda: power_sum_of(self.density(name), alpha)),
            lambda: self._get(("von_neumann", name), lambda: von_neumann_of(self.density(name))),
        )

    def env_dim(self, params) -> int:
        ch = self.inst[0]
        mode = params.get("env_mode", "choi_rank")
        if mode == "dim_env":
            return ch.dim_env
        if mode == "choi_rank":
            return self._get("choi_rank", lambda: choi_rank(ch))
        raise PreconditionError(f"unknown env_dim mode {mode!r}")


# ---------------------------------------------------------------------------
# evaluators: functions of the spectra of one instance


def _eval_kpn1(sp: _Spectra, pr) -> float:
    k, p = pr["k"], pr["p"]
    n = sp.inst.dim_b
    joint = sp.norm("w", k * n, p)
    return _slack(sp.norm("qa", k, p), _dim_factor(n, p) * joint)


def _eval_spn1(sp: _Spectra, pr) -> float:
    p = pr["p"]
    joint = sp.norm("w", None, p)
    return _slack(sp.norm("qa", None, p), _dim_factor(sp.inst.dim_b, p) * joint)


def _eval_tfsn(sp: _Spectra, pr) -> float:
    n = sp.inst.dim_b
    variant = pr["variant"]
    if variant == "trace":
        return _slack(sp.norm("qa", None, 1.0), sp.norm("w", None, 1.0))
    if variant == "frobenius":
        return _slack(sp.norm("qa", None, 2.0), math.sqrt(n) * sp.norm("w", None, 2.0))
    if variant == "spectral":
        return _slack(sp.norm("qa", None, math.inf), n * sp.norm("w", None, math.inf))
    raise PreconditionError(f"unknown variant {variant!r}")


def _eval_kpk1(sp: _Spectra, pr) -> float:
    k = pr["k"]
    return _slack(sp.norm("qa", k, 1.0), sp.norm("w", k * sp.inst.dim_b, 1.0))


def _eval_kpk2(sp: _Spectra, pr) -> float:
    return _slack(sp.norm("qa", None, math.inf), sp.norm("w", sp.inst.dim_b, 1.0))


def _eval_tpn2(sp: _Spectra, pr) -> float:
    k, p, qq = pr["k"], pr["p"], pr["q"]
    lhs, top = sp.norm("q", k, p), sp.norm("q", k, p * qq)
    factor = float(k) ** ((qq - 1.0) / (p * qq))
    return _slack(lhs, factor * top)


def _eval_cpn1(sp: _Spectra, pr) -> float:
    k, p, qq = pr["k"], pr["p"], pr["q"]
    n = sp.inst.dim_b
    lhs, joint = sp.norm("qa", k, p), sp.norm("w", k * n, p * qq)
    factor = (float(k) ** (qq - 1.0) * float(n) ** (p * qq - 1.0)) ** (1.0 / (p * qq))
    return _slack(lhs, factor * joint)


def _eval_kqn1(sp: _Spectra, pr) -> float:
    k, p = pr["k"], pr["p"]
    n = sp.inst.dim_b
    joint = sp.antinorm("w", k * n, p)
    return _slack(_dim_factor(n, p) * joint, sp.antinorm("qa", k, p))


def _eval_kqn2(sp: _Spectra, pr) -> float:
    p = pr["p"]
    joint = schatten_antinorm_of(sp.psd("w"), p)
    return _slack(_dim_factor(sp.inst.dim_b, p) * joint, schatten_antinorm_of(sp.psd("qa"), p))


def _eval_kqk1(sp: _Spectra, pr) -> float:
    k = pr["k"]
    return _slack(kyfan_antinorm_of(sp.psd("w"), k * sp.inst.dim_b), kyfan_antinorm_of(sp.psd("qa"), k))


def _eval_tpn62(sp: _Spectra, pr) -> float:
    k, p, qq = pr["k"], pr["p"], pr["q"]
    top, rhs = sp.antinorm("q", k, p * qq), sp.antinorm("q", k, p)
    factor = float(k) ** ((qq - 1.0) / (p * qq))
    return _slack(factor * top, rhs)


def _eval_stct1(sp: _Spectra, pr) -> float:
    k, p = pr["k"], pr["p"]
    d = sp.env_dim(pr)
    # the (kd, p) norm of Q's spectrum zero-padded to length kd: the zeros add nothing
    padded = sp.norm("q", min(k * d, sp.sv("q").size), p)
    return _slack(sp.norm("out", k, p), _dim_factor(d, p) * padded)


def _eval_stctp(sp: _Spectra, pr) -> float:
    p = pr["p"]
    d = sp.env_dim(pr)
    return _slack(sp.norm("out", None, p), _dim_factor(d, p) * sp.norm("q", None, p))


def _eval_stct2(sp: _Spectra, pr) -> float:
    k, p = pr["k"], pr["p"]
    d = sp.env_dim(pr)
    padded = sp.antinorm("q", k * d, p, ambient_dim=sp.inst[0].dim_out * d)
    return _slack(_dim_factor(d, p) * padded, sp.antinorm("out", k, p))


def _eval_stctpp(sp: _Spectra, pr) -> float:
    p = pr["p"]
    d = sp.env_dim(pr)
    joint = schatten_antinorm_of(sp.psd("q"), p)
    return _slack(_dim_factor(d, p) * joint, schatten_antinorm_of(sp.psd("out"), p))


def _eval_et41(sp: _Spectra, pr) -> float:
    alpha, s = pr["alpha"], pr["s"]
    n = sp.inst.dim_b
    lhs = unified_entropy_from(*sp.entropy_inputs("w", alpha), alpha, s)
    reduced = unified_entropy_from(*sp.entropy_inputs("qa", alpha), alpha, s)
    rhs = float(n) ** ((1.0 - alpha) * s) * reduced
    return _slack(lhs, rhs + max_entropy_value(n, alpha, s))


def _eval_ett41(sp: _Spectra, pr) -> float:
    alpha = pr["alpha"]
    n = sp.inst.dim_b
    lhs = tsallis_entropy_from(*sp.entropy_inputs("w", alpha), alpha)
    reduced = tsallis_entropy_from(*sp.entropy_inputs("qa", alpha), alpha)
    return _slack(lhs, float(n) ** (1.0 - alpha) * reduced + alpha_log(float(n), alpha))


def _eval_et42(sp: _Spectra, pr) -> float:
    alpha = pr["alpha"]
    rhs = renyi_entropy_from(*sp.entropy_inputs("qa", alpha), alpha) + math.log(sp.inst.dim_b)
    return _slack(renyi_entropy_from(*sp.entropy_inputs("w", alpha), alpha), rhs)


def _eval_stctep(sp: _Spectra, pr) -> float:
    alpha, s = pr["alpha"], pr["s"]
    d = sp.env_dim(pr)
    lhs = unified_entropy_from(*sp.entropy_inputs("q", alpha), alpha, s)
    out = unified_entropy_from(*sp.entropy_inputs("out", alpha), alpha, s)
    rhs = float(d) ** ((1.0 - alpha) * s) * out
    return _slack(lhs, rhs + max_entropy_value(d, alpha, s))


def _eval_sat_wrqa(sp: _Spectra, pr) -> float:
    if pr["family"] == "norm":
        return -abs(_eval_kpn1(sp, pr))
    return -abs(_eval_kqn1(sp, pr))


# ---------------------------------------------------------------------------
# instance makers and saturators


def _make_bipartite(kind: str):
    def make(dims, seed):
        return sample(kind, dims, seed)

    return make


def _make_square(builder):
    def make(dims, seed):
        rng = np.random.default_rng(seed)
        return builder(rng, dims[0])

    return make


def _make_channel_pair(input_kind: str):
    def make(dims, seed):
        m, n = dims
        rng = np.random.default_rng(seed)
        d = math.ceil(m / n) + int(rng.integers(0, 3))
        ch = _channel(rng, m, n, d)
        if input_kind == "ginibre":
            q = _ginibre(rng, m, m)
        elif input_kind == "psd":
            q = _psd(rng, m)
        else:
            q = _density(rng, m)
        return ch, q

    return make


def _make_sat_wrqa(dims, seed):
    m, n = dims
    rng = np.random.default_rng(seed)
    c = float(rng.choice((1.0, 2.5)))
    return BipartiteOperator(c * kron(_psd(rng, m), np.eye(n)), m, n)


def _sat_product(base: str):
    def make(dims, seed):
        m, n = dims
        rng = np.random.default_rng(seed)
        r = _psd(rng, m) if base == "psd" else _pd(rng, m)
        return BipartiteOperator(kron(r, np.eye(n)), m, n)

    return make


def _sat_scalar(dims, seed):
    # every eigenvalue multiplicity equals the dimension, so both chained
    # bounds are tight across the whole grid
    return 2.0 * np.eye(dims[0], dtype=np.complex128)


def _sat_identity_bipartite(dims, seed):
    m, n = dims
    return BipartiteOperator(2.0 * np.eye(m * n, dtype=np.complex128), m, n)


def _sat_ptrace_pair(input_kind: str):
    def make(dims, seed):
        m, n = dims
        rng = np.random.default_rng(seed)
        ch = partial_trace_channel(m, n)
        if input_kind == "density":
            q = kron(_density(rng, m), np.eye(n) / n)
        else:
            q = kron(_psd(rng, m), np.eye(n))
        return ch, q

    return make


def _sat_product_density(dims, seed):
    m, n = dims
    rng = np.random.default_rng(seed)
    return BipartiteOperator(kron(_density(rng, m), np.eye(n) / n), m, n)


# ---------------------------------------------------------------------------
# parameter grids


def _ks(m: int):
    return range(1, m + 1)


def _grid_kpn1(w, cfg):
    return [{"k": k, "p": p} for k in _ks(w.dim_a) for p in cfg.norm_p_grid]


def _grid_spn1(w, cfg):
    return [{"p": p} for p in cfg.norm_p_grid]


def _grid_tfsn(w, cfg):
    return [{"variant": v} for v in ("trace", "frobenius", "spectral")]


def _grid_kpk1(w, cfg):
    return [{"k": k} for k in _ks(w.dim_a)]


def _grid_single(w, cfg):
    return [{}]


def _grid_tpn2(q, cfg):
    m = q.shape[0]
    return [{"k": k, "p": p, "q": qq} for k in _ks(m) for (p, qq) in cfg.pq_grid]


def _grid_cpn1(w, cfg):
    return [{"k": k, "p": p, "q": qq} for k in _ks(w.dim_a) for (p, qq) in cfg.pq_grid]


def _grid_kqn1(w, cfg):
    return [{"k": k, "p": p} for k in _ks(w.dim_a) for p in cfg.antinorm_p_grid]


def _grid_kqn2(w, cfg):
    return [{"p": p} for p in cfg.negative_p_grid]


def _grid_tpn62(q, cfg):
    m = q.shape[0]
    return [{"k": k, "p": p, "q": qq} for k in _ks(m) for (p, qq) in cfg.subunit_pq_grid]


def _grid_stct1(inst, cfg):
    ch, _ = inst
    return [{"k": k, "p": p} for k in _ks(ch.dim_out) for p in cfg.norm_p_grid]


def _grid_stctp(inst, cfg):
    return [{"p": p} for p in cfg.norm_p_grid]


def _grid_stct2(inst, cfg):
    ch, _ = inst
    return [{"k": k, "p": p} for k in _ks(ch.dim_out) for p in cfg.antinorm_p_grid]


def _grid_stctpp(inst, cfg):
    return [{"p": p} for p in cfg.antinorm_p_grid]


def _grid_alpha_s(w, cfg):
    return [{"alpha": a, "s": s} for a in cfg.alpha_grid for s in cfg.s_grid]


def _grid_alpha(w, cfg):
    return [{"alpha": a} for a in cfg.alpha_grid]


def _grid_sat_wrqa(w, cfg):
    norm_part = [
        {"k": k, "p": p, "family": "norm"} for k in _ks(w.dim_a) for p in cfg.norm_p_grid
    ]
    anti_part = [
        {"k": k, "p": p, "family": "antinorm"} for k in _ks(w.dim_a) for p in cfg.antinorm_p_grid
    ]
    return norm_part + anti_part


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class InequalityCase:
    id: str
    description: str
    paper_eq: str
    instance_kind: str
    make_instance: Callable
    param_grid: Callable
    evaluate: Callable
    saturator: Optional[Callable] = None


REGISTRY: dict[str, InequalityCase] = {}
for _c in (
    InequalityCase(
        "KPN1",
        "partial trace against the (k, p) norm of the joint operator",
        "||Tr_B W||_(k)^(p) <= n^((p-1)/p) ||W||_(kn)^(p)",
        "bipartite",
        _make_bipartite("bipartite"),
        _grid_kpn1,
        _eval_kpn1,
        _sat_product("psd"),
    ),
    InequalityCase(
        "SPN1",
        "partial trace against the Schatten norm of the joint operator",
        "||Tr_B W||_p <= n^((p-1)/p) ||W||_p",
        "bipartite",
        _make_bipartite("bipartite"),
        _grid_spn1,
        _eval_spn1,
        _sat_product("psd"),
    ),
    InequalityCase(
        "TFSN",
        "trace, Frobenius, and spectral norm forms of the partial trace bound",
        "||Tr_B W||_1 <= ||W||_1; ||Tr_B W||_2 <= sqrt(n) ||W||_2; ||Tr_B W||_inf <= n ||W||_inf",
        "bipartite",
        _make_bipartite("bipartite"),
        _grid_tfsn,
        _eval_tfsn,
        _sat_product("psd"),
    ),
    InequalityCase(
        "KPK1",
        "Ky Fan norm of the partial trace against the joint Ky Fan norm",
        "||Tr_B W||_(k) <= ||W||_(kn)",
        "bipartite",
        _make_bipartite("bipartite"),
        _grid_kpk1,
        _eval_kpk1,
        _sat_product("psd"),
    ),
    InequalityCase(
        "KPK2",
        "spectral norm of the partial trace against the Ky Fan n-norm",
        "||Tr_B W||_inf <= ||W||_(n)",
        "bipartite",
        _make_bipartite("bipartite"),
        _grid_single,
        _eval_kpk2,
        _sat_product("psd"),
    ),
    InequalityCase(
        "TPN2",
        "(k, p) norm against the (k, pq) norm of the same operator",
        "||R||_(k)^(p) <= k^((q-1)/(pq)) ||R||_(k)^(pq)",
        "matrix",
        _make_square(_ginibre_square),
        _grid_tpn2,
        _eval_tpn2,
        _sat_scalar,
    ),
    InequalityCase(
        "CPN1",
        "chained partial trace and exponent interpolation bound",
        "||Tr_B W||_(k)^(p) <= [k^(q-1) n^(pq-1)]^(1/(pq)) ||W||_(kn)^(pq)",
        "bipartite",
        _make_bipartite("bipartite"),
        _grid_cpn1,
        _eval_cpn1,
        _sat_identity_bipartite,
    ),
    InequalityCase(
        "KQN1",
        "partial trace against the (k, p) anti-norm of the joint operator",
        "||Tr_B W||_{k}^(p) >= n^((p-1)/p) ||W||_{kn}^(p), 0 < p <= 1",
        "bipartite_psd",
        _make_bipartite("bipartite_psd"),
        _grid_kqn1,
        _eval_kqn1,
        _sat_product("psd"),
    ),
    InequalityCase(
        "KQN2",
        "negative exponent Schatten anti-norm bound under partial trace",
        "||Tr_B W||_p >= n^((p-1)/p) ||W||_p, p < 0, W positive definite",
        "bipartite_pd",
        _make_bipartite("bipartite_pd"),
        _grid_kqn2,
        _eval_kqn2,
        _sat_product("pd"),
    ),
    InequalityCase(
        "KQK1",
        "Ky Fan anti-norm of the partial trace against the joint anti-norm",
        "||Tr_B W||_{k} >= ||W||_{kn}",
        "bipartite_psd",
        _make_bipartite("bipartite_psd"),
        _grid_kpk1,
        _eval_kqk1,
        _sat_product("psd"),
    ),
    InequalityCase(
        "TPN62",
        "(k, p) anti-norm against the (k, pq) anti-norm of the same operator",
        "||R||_{k}^(p) >= k^((q-1)/(pq)) ||R||_{k}^(pq), p, q in (0, 1)",
        "psd_matrix",
        _make_square(_psd),
        _grid_tpn62,
        _eval_tpn62,
        _sat_scalar,
    ),
    InequalityCase(
        "STCT1",
        "channel output (k, p) norm against the padded input norm",
        "||Phi(Q)||_(k)^(p) <= d^((p-1)/p) ||Q||_(kd)^(p)",
        "channel_pair",
        _make_channel_pair("ginibre"),
        _grid_stct1,
        _eval_stct1,
        _sat_ptrace_pair("psd"),
    ),
    InequalityCase(
        "STCTP",
        "channel output Schatten norm against the input Schatten norm",
        "||Phi(Q)||_p <= d^((p-1)/p) ||Q||_p",
        "channel_pair",
        _make_channel_pair("ginibre"),
        _grid_stctp,
        _eval_stctp,
        _sat_ptrace_pair("psd"),
    ),
    InequalityCase(
        "STCT2",
        "channel output (k, p) anti-norm against the padded input anti-norm",
        "||Phi(Q)||_{k}^(p) >= d^((p-1)/p) ||Q||_{kd}^(p), spectrum padded to n*d",
        "channel_pair",
        _make_channel_pair("psd"),
        _grid_stct2,
        _eval_stct2,
        _sat_ptrace_pair("psd"),
    ),
    InequalityCase(
        "STCTPP",
        "channel output Schatten anti-norm against the input Schatten anti-norm",
        "||Phi(Q)||_p >= d^((p-1)/p) ||Q||_p, 0 < p <= 1",
        "channel_pair",
        _make_channel_pair("psd"),
        _grid_stctpp,
        _eval_stctpp,
        _sat_ptrace_pair("psd"),
    ),
    InequalityCase(
        "ET41",
        "unified entropy of the joint state against the reduced state",
        "E_as(W) <= n^((1-a)s) E_as(Tr_B W) + (1/s) ln_a(n^s)",
        "bipartite_density",
        _make_bipartite("bipartite_density"),
        _grid_alpha_s,
        _eval_et41,
        _sat_product_density,
    ),
    InequalityCase(
        "ETT41",
        "Tsallis entropy of the joint state against the reduced state",
        "T_a(W) <= n^(1-a) T_a(Tr_B W) + ln_a(n)",
        "bipartite_density",
        _make_bipartite("bipartite_density"),
        _grid_alpha,
        _eval_ett41,
        _sat_product_density,
    ),
    InequalityCase(
        "ET42",
        "Renyi entropy of the joint state against the reduced state",
        "R_a(W) <= R_a(Tr_B W) + ln(n)",
        "bipartite_density",
        _make_bipartite("bipartite_density"),
        _grid_alpha,
        _eval_et42,
        _sat_product_density,
    ),
    InequalityCase(
        "STCTEP",
        "input entropy against the channel output entropy",
        "E_as(rho) <= d^((1-a)s) E_as(Phi(rho)) + (1/s) ln_a(d^s)",
        "channel_pair",
        _make_channel_pair("density"),
        _grid_alpha_s,
        _eval_stctep,
        _sat_ptrace_pair("density"),
    ),
    InequalityCase(
        "SAT-WRQA",
        "equality of the norm and anti-norm partial trace bounds on c * R (x) I",
        "equality in the (k, p) norm and anti-norm bounds at W = c R (x) I",
        "bipartite_psd",
        _make_sat_wrqa,
        _grid_sat_wrqa,
        _eval_sat_wrqa,
        _make_sat_wrqa,
    ),
):
    REGISTRY[_c.id] = _c

REGISTRY_IDS = tuple(REGISTRY)


def _check_kind(case: InequalityCase, instance) -> None:
    kind = case.instance_kind
    if kind.startswith("bipartite"):
        if not isinstance(instance, BipartiteOperator):
            raise KindMismatchError(f"case {case.id} needs a BipartiteOperator")
        return
    if kind == "channel_pair":
        ok = (
            isinstance(instance, tuple)
            and len(instance) == 2
            and isinstance(instance[0], StinespringChannel)
        )
        if not ok:
            raise KindMismatchError(f"case {case.id} needs a (channel, matrix) pair")
        return
    if isinstance(instance, BipartiteOperator) or not isinstance(instance, np.ndarray):
        raise KindMismatchError(f"case {case.id} needs a plain square matrix")


def evaluate_case(case_id: str, instance, params) -> float:
    """Signed normalized margin of one registry case on one instance."""
    if case_id not in REGISTRY:
        raise KindMismatchError(f"unknown case id {case_id!r}")
    case = REGISTRY[case_id]
    _check_kind(case, instance)
    return case.evaluate(_Spectra(instance), dict(params))


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
        if self.trials_per_case < 1:
            raise PreconditionError("trials_per_case must be at least 1")
        dims = tuple(tuple(int(x) for x in pair) for pair in self.dims)
        if not dims or any(len(pair) != 2 or min(pair) < 1 for pair in dims):
            raise BadDimsError(f"dims must be nonempty (m, n) pairs, got {self.dims!r}")
        object.__setattr__(self, "dims", dims)
        if not self.tolerance > 0:
            raise PreconditionError("tolerance must be positive")
        if self.env_dim_mode not in ("choi_rank", "dim_env"):
            raise PreconditionError(f"unknown env_dim_mode {self.env_dim_mode!r}")
        if self.case_filter is not None:
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


def _case_extras(cid: str, trial_stats: dict):
    if cid == "KPK2":
        return {"dominance_strict_count": trial_stats["dominance_strict_count"]}
    if cid == "KQK1":
        return {"equivalence_max_dev": trial_stats["equivalence_max_dev"]}
    if cid == "TPN2":
        flat = np.diag([2.0, 2.0, 1.0]).astype(complex)
        tilted = np.diag([3.0, 2.0, 1.0]).astype(complex)
        pr = {"k": 2, "p": 1.0, "q": 2.0}
        return {
            "equality_margin": evaluate_case(cid, flat, pr),
            "strict_margin": evaluate_case(cid, tilted, pr),
        }
    if cid == "TPN62":
        flat = np.diag([1.0, 1.0, 3.0]).astype(complex)
        tilted = np.diag([3.0, 2.0, 1.0]).astype(complex)
        pr = {"k": 2, "p": 0.5, "q": 0.5}
        return {
            "equality_margin": evaluate_case(cid, flat, pr),
            "strict_margin": evaluate_case(cid, tilted, pr),
        }
    return None


def _update_trial_stats(cid: str, sp: _Spectra, stats: dict) -> None:
    if cid == "KPK2":
        n = sp.inst.dim_b
        lhs = sp.norm("w", n, 1.0)
        rhs = n * sp.norm("w", None, math.inf)
        if rhs - lhs > 1e-9 * max(1.0, lhs, rhs):
            stats["dominance_strict_count"] += 1
    elif cid == "KQK1":
        m, n = sp.inst.dim_a, sp.inst.dim_b
        denom = max(1.0, abs(float(np.trace(sp.inst.matrix).real)))
        dev = 0.0
        for k in range(1, m):
            raw_anti = kyfan_antinorm_of(sp.psd("qa"), k) - kyfan_antinorm_of(sp.psd("w"), k * n)
            raw_norm = sp.norm("w", (m - k) * n, 1.0) - sp.norm("qa", m - k, 1.0)
            dev = max(dev, abs(raw_anti - raw_norm) / denom)
        stats["equivalence_max_dev"] = max(stats["equivalence_max_dev"], dev)


# domain problems of one instance; anything else is a bug and propagates
_INSTANCE_ERRORS = (PreconditionError, np.linalg.LinAlgError)


def _margins(case: InequalityCase, sp: _Spectra, config: AuditConfig):
    for params in case.param_grid(sp.inst, config):
        pr = dict(params)
        pr["env_mode"] = config.env_dim_mode
        yield case.evaluate(sp, pr)


def run_audit(config: AuditConfig = AuditConfig()) -> AuditReport:
    """Evaluate every selected registry case on seeded instances.

    Each trial and each saturator instance is decomposed once into the
    spectra its case reads, and the whole parameter grid is evaluated on them.
    A PreconditionError or LinAlgError on an instance never aborts the run: it
    counts in the case's failures and the first message is kept in the record.
    A failed saturator instance also sets saturation_residual to None.  Any
    other exception propagates.
    """
    ids = config.case_filter if config.case_filter is not None else REGISTRY_IDS
    records = []
    for cid in REGISTRY_IDS:
        if cid not in ids:
            continue
        case = REGISTRY[cid]
        worst = None
        violations = 0
        failures = 0
        first_failure = None
        stats = {"dominance_strict_count": 0, "equivalence_max_dev": 0.0}
        for trial in range(config.trials_per_case):
            dims = config.dims[trial % len(config.dims)]
            seed = _trial_seed(config.base_seed, cid, trial)
            try:
                sp = _Spectra(case.make_instance(dims, seed))
                for margin in _margins(case, sp, config):
                    if worst is None or margin < worst:
                        worst = margin
                    if margin < -config.tolerance:
                        violations += 1
                _update_trial_stats(cid, sp, stats)
            except _INSTANCE_ERRORS as exc:
                failures += 1
                first_failure = first_failure or f"{type(exc).__name__}: {exc}"
        saturation = None
        if case.saturator is not None:
            residual, trial_failures = 0.0, failures
            for i, dims in enumerate(config.dims):
                try:
                    sp = _Spectra(case.saturator(dims, _trial_seed(config.base_seed, cid + ":sat", i)))
                    for margin in _margins(case, sp, config):
                        residual = max(residual, abs(margin))
                except _INSTANCE_ERRORS as exc:
                    failures += 1
                    first_failure = first_failure or f"{type(exc).__name__}: {exc}"
            # a residual over only some saturator instances must not read as clean
            saturation = residual if failures == trial_failures else None
        record = {
            "id": cid,
            "paper_eq": case.paper_eq,
            "trials": config.trials_per_case,
            "violations": violations,
            "worst_margin": worst,
            "saturation_residual": saturation,
            "failures": failures,
        }
        if first_failure is not None:
            record["first_failure"] = first_failure
        extra = _case_extras(cid, stats)
        if extra is not None:
            record["extra"] = extra
        records.append(record)
    return AuditReport(version=__version__, config=_config_echo(config), cases=tuple(records))
