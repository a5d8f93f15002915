"""Batched margins of the audit's relations.

Every functional the registry cases compare is unitarily invariant, so an
evaluator reads only spectra: singular values for norms, eigenvalues for
anti-norms and entropies, of W and Tr_B W or of Q and Phi(Q), plus a channel's
Choi rank.  form names an instance's kind (bipartite operator, channel pair or
plain matrix) and shape.  Spectra holds one batch of instances of one form and
shape: drawn instances are finished, each matrix is stacked and decomposed in
one call, one table per (matrix, exponent) serves the stack (a cumulative power
sum over the sorted spectra serves every k; entropies read tr rho^alpha and the
von Neumann value), and one evaluator call returns the (instances, grid points)
margins, each normalized by max(1, |lhs|, |rhs|).
Each case declares its grid as products of named axes (see _axis), and
make_grid builds it from an audit configuration.
"""
from __future__ import annotations

import itertools
import math
import sys
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .antinorms import antinorm_table, kyfan_antinorm_of, psd_spectrum, schatten_antinorm_of
from .bipartite import BipartiteOperator, trace_out_b
from .channels import StinespringChannel, channel_outputs, choi_ranks
from .entropy import (
    density_spectrum,
    dim_weight,
    max_entropy_value,
    power_sum_of,
    renyi_entropy_from,
    tsallis_entropy_from,
    unified_entropy_from,
    von_neumann_of,
)
from .errors import KindMismatchError, PreconditionError, RankRangeError
from .linalg import as_matrix, require_square
from .norms import gauge_table


# ---------------------------------------------------------------------------
# margin helpers


def _slack(small, large) -> np.ndarray:
    """Normalized margins of the inequalities small <= large, entry by entry."""
    return (large - small) / np.maximum(np.maximum(1.0, np.abs(small)), np.abs(large))


def _dim_factor(n: int, p: float) -> float:
    """n^((p-1)/p), continued as n at p = +inf.

    Evaluators read their functionals before this and the other exponent
    factors, so an exponent such as p = 0 raises the functional's
    ExponentRangeError, which counts as a failure, before a factor divides by it.
    """
    if math.isinf(p):
        return float(n)
    return float(n) ** ((p - 1.0) / p)


def _rank_factor(k: int, p: float, q: float) -> float:
    """k^((q-1)/(pq)), the factor between the (k, p) and (k, pq) functionals of one operator."""
    return float(k) ** ((q - 1.0) / (p * q))


def _chain_factor(n: int, k: int, p: float, q: float) -> float:
    """[k^(q-1) n^(pq-1)]^(1/(pq)), the factor of the chained CPN1 bound."""
    return (float(k) ** (q - 1.0) * float(n) ** (p * q - 1.0)) ** (1.0 / (p * q))


def _products(p: tuple, q: tuple) -> tuple:
    return tuple(a * b for a, b in zip(p, q))


# ---------------------------------------------------------------------------
# stacked spectra of a batch of instances


class Drawn(NamedTuple):
    """An audit instance as drawn: its kind's generator output, to be finished in a stack.

    finish(draws, *sizes) maps a sub-stack, the rows of one finish and sizes with their
    draws stacked field by field, to its stacked W, Q, or (V, Q) pair of stacks.
    sizes[:2] is the shape form gives; a channel's sizes are (dim_in, dim_out, dim_env).
    """

    form: str
    finish: Callable
    sizes: tuple
    draws: tuple

    def alone(self):
        """The finished instance: a BipartiteOperator, a (StinespringChannel, Q) pair or a matrix."""
        out = self.finish(tuple(np.array([x]) for x in self.draws), *self.sizes)
        if self.form == "channel":
            return StinespringChannel(out[0][0], *self.sizes), out[1][0]
        return BipartiteOperator(out[0], *self.sizes) if self.form == "bipartite" else out[0]

    def __getattr__(self, name: str):
        # any other attribute is the finished instance's, so code that reads a maker's W.matrix, say, gets it
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.alone(), name)


def form(inst) -> tuple:
    """(form, shape) of an audit instance; instances of one form and shape stack into one batch.

    The forms are "bipartite", a BipartiteOperator (shape (m, n)); "channel", a
    (StinespringChannel, input matrix) pair (shape (dim_in, dim_out)); and
    "matrix", a plain ndarray (its shape).  A Drawn instance has the form and
    shape of its finished one.  Anything else raises KindMismatchError.
    """
    if isinstance(inst, Drawn):
        return inst.form, inst.sizes[:2]
    if isinstance(inst, BipartiteOperator):
        return "bipartite", (inst.dim_a, inst.dim_b)
    if isinstance(inst, tuple) and len(inst) == 2 and isinstance(inst[0], StinespringChannel):
        return "channel", (inst[0].dim_in, inst[0].dim_out)
    if isinstance(inst, np.ndarray):
        return "matrix", inst.shape
    raise KindMismatchError(f"not an audit instance: {type(inst).__name__}")


def _stack(mats) -> np.ndarray:
    stack = np.array([as_matrix(q) for q in mats])
    require_square(stack)
    return stack


def _substacks(insts: list, kind: str) -> list:
    """(rows, stack) of each sub-stack of a batch of one form.

    A sub-stack is the Drawn rows of one finish and sizes, finished in one call,
    or the finished rows (for channels, those of one dim_env), stacked as they are.
    """
    groups = {}
    for i, x in enumerate(insts):
        key = (x.finish, x.sizes) if isinstance(x, Drawn) else (None, x[0].dim_env if kind == "channel" else None)
        groups.setdefault(key, []).append(i)
    subs = []
    for (finish, sizes), rows in groups.items():
        xs = [insts[i] for i in rows]
        if finish is not None:
            subs.append((rows, finish(tuple(np.array(f) for f in zip(*(x.draws for x in xs))), *sizes)))
        elif kind == "channel":
            subs.append((rows, (np.array([ch.v for ch, _ in xs]), _stack(q for _, q in xs))))
        else:
            subs.append((rows, _stack(x.matrix if kind == "bipartite" else x for x in xs)))
    return subs


def _joined(subs: list) -> np.ndarray:
    """The stack of a batch's rows, from its sub-stacks' (rows, stack) pairs."""
    order = [i for rows, _ in subs for i in rows]
    stack = np.concatenate([x for _, x in subs]) if len(subs) > 1 else subs[0][1]
    return stack if order == list(range(len(order))) else stack[np.argsort(order)]


class Spectra:
    """Lazily computed, validated spectra of a batch of same-form, same-shape instances.

    Each matrix (W and Tr_B W, Q and Phi(Q), or Q) is stacked to (trials, d, d)
    and decomposed at most once per spectrum kind, in one call, with the checks
    of the matrix-level functions applied row by row.  Each sub-stack (see
    _substacks) is finished in one call, and a channel sub-stack, whose V share
    one d, takes one call for Phi(Q) and, under "choi_rank", one for the Choi
    ranks.  One table per (matrix, exponent) serves the stack, so a functional at every
    grid point is a lookup giving a (trials, points) array; a lookup outside a
    table raises the scalar function's RankRangeError or ExponentRangeError.
    """

    def __init__(self, insts: list, env_mode: str = "choi_rank"):
        self.size = len(insts)
        kind, shape = form(insts[0])
        subs = _substacks(insts, kind)
        # kmax bounds the grid's rank k: the size of Tr_B W, of Phi(Q) or of Q
        if kind == "bipartite":
            self.dim_a, self.dim_b = shape
            self.kmax = self.dim_a
            w = _joined(subs)
            self.matrices = {"w": w, "qa": trace_out_b(w, *shape)}
        elif kind == "channel":
            self.kmax = n = shape[1]
            # (rows, d, their stacked dilations V) per sub-stack
            self.dilations = [(rows, v.shape[-2] // n, v) for rows, (v, _) in subs]
            # env_dims: each channel's d, its Choi rank or, under "dim_env", its dilation's dim_env
            out, ds = np.empty((self.size, n, n), dtype=np.complex128), np.empty(self.size, dtype=int)
            for (rows, d, v), (_, (_, q)) in zip(self.dilations, subs):
                out[rows] = channel_outputs(v, q, n, d)
                ds[rows] = choi_ranks(v, n, d) if env_mode == "choi_rank" else d
            q = _joined([(rows, q) for rows, (_, q) in subs])
            self.matrices, self.env_dims = {"q": q, "out": out}, ds.tolist()
        else:
            self.matrices = {"q": _joined(subs)}
            self.kmax = shape[-1]
        self._memo = {}

    def _get(self, key, make):
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = make()
        return value

    def sv(self, name: str) -> np.ndarray:
        # numpy's SVD returns the singular values in descending order
        return self._get(("sv", name), lambda: np.linalg.svd(self.matrices[name], compute_uv=False))

    def psd(self, name: str) -> np.ndarray:
        return self._get(("psd", name), lambda: psd_spectrum(self.matrices[name]))

    def density(self, name: str) -> np.ndarray:
        return self._get(("density", name), lambda: density_spectrum(self.matrices[name]))

    def columns(self, f, values) -> np.ndarray:
        """(trials, points) array whose column j is f(values[j]), a value per trial."""
        return np.array([f(v) for v in values]).T if len(values) else np.empty((self.size, 0))

    def _lookup(self, key, make, k, exps: tuple) -> np.ndarray:
        """Entry k[j] (1-based) of the table make(exps[j]) for each point j, per trial.

        k holds one rank per point; None reads each table's last entry.
        """
        if not exps:
            return np.empty((self.size, 0))
        distinct = dict.fromkeys(exps)
        tables = [self._get(key + (e,), partial(make, e)) for e in distinct]
        d = tables[0].shape[-1]
        # grids are small, so the gather index is built in Python ints
        ks = [d] * len(exps) if k is None else np.asarray(k).tolist()
        bad = [r for r in ks if not 1 <= r <= d]
        if bad:
            raise RankRangeError(f"k={bad[0]} outside [1, {d}]")
        start = {e: i * d - 1 for i, e in enumerate(distinct)}  # entry r of table e is start[e] + r
        flat = tables[0] if len(tables) == 1 else np.concatenate(tables, axis=-1)
        return flat.take([start[e] + r for e, r in zip(exps, ks)], axis=1)

    def norm(self, name: str, k, p: tuple) -> np.ndarray:
        """(k, p) norms of a matrix at each point; k None gives its Schatten p-norms."""
        return self._lookup(("norm", name), lambda e: gauge_table(self.sv(name), e), k, p)

    def antinorm(self, name: str, k, p: tuple, ambient_dim=None) -> np.ndarray:
        """(k, p) anti-norms of a PSD matrix, its spectrum zero-padded to ambient_dim."""
        table = partial(antinorm_table, ambient_dim=ambient_dim)
        return self._lookup(("antinorm", name, ambient_dim), lambda e: table(self.psd(name), e), k, p)

    def per_d(self, f) -> np.ndarray:
        """(trials, points) array whose row t is row t of f(d) at trial t's channel d."""
        ds = self.env_dims
        rows = {d: f(d) for d in set(ds)}
        return np.array([rows[d][t] for t, d in enumerate(ds)])

    def entropy(self, name: str, formula, alpha: tuple, *rest: tuple) -> np.ndarray:
        """A *_entropy_from formula of a state at each point's (alpha, ...).

        It reads one memoized list of von Neumann values per state, and one of
        power sums per distinct alpha, each with one entry per trial.
        """
        spectra = self.density(name)
        von_neumann = self._get(("von_neumann", name), partial(von_neumann_of, spectra))
        sums = {a: self._get(("power_sum", name, a), partial(power_sum_of, spectra, a)) for a in dict.fromkeys(alpha)}
        return self.columns(lambda point: formula(sums[point[0]], von_neumann, *point), list(zip(alpha, *rest)))


# ---------------------------------------------------------------------------
# evaluators: (trials, points) margins from the spectra of a batch


def eval_kpn1(sp: Spectra, g) -> np.ndarray:
    k, p = np.array(g["k"]), g["p"]
    n = sp.dim_b
    joint, lhs = sp.norm("w", k * n, p), sp.norm("qa", k, p)
    return _slack(lhs, g.factors(_dim_factor, n, p) * joint)


def eval_spn1(sp: Spectra, g) -> np.ndarray:
    p = g["p"]
    joint, lhs = sp.norm("w", None, p), sp.norm("qa", None, p)
    return _slack(lhs, g.factors(_dim_factor, sp.dim_b, p) * joint)


def eval_tfsn(sp: Spectra, g) -> np.ndarray:
    n = sp.dim_b
    forms = {"trace": (1.0, 1.0), "frobenius": (2.0, math.sqrt(n)), "spectral": (math.inf, float(n))}
    unknown = [v for v in g["variant"] if v not in forms]
    if unknown:
        raise PreconditionError(f"unknown variant {unknown[0]!r}")
    p, factor = zip(*(forms[v] for v in g["variant"]))
    return _slack(sp.norm("qa", None, p), np.array(factor) * sp.norm("w", None, p))


def eval_kpk1(sp: Spectra, g) -> np.ndarray:
    k, ones = np.array(g["k"]), (1.0,) * g.size
    return _slack(sp.norm("qa", k, ones), sp.norm("w", k * sp.dim_b, ones))


def eval_kpk2(sp: Spectra, g) -> np.ndarray:
    lhs = sp.norm("qa", None, (math.inf,) * g.size)
    return _slack(lhs, sp.norm("w", np.full(g.size, sp.dim_b), (1.0,) * g.size))


def eval_tpn2(sp: Spectra, g) -> np.ndarray:
    k, p, q = g["k"], g["p"], g["q"]
    lhs, top = sp.norm("q", np.array(k), p), sp.norm("q", np.array(k), _products(p, q))
    return _slack(lhs, g.factors(_rank_factor, None, k, p, q) * top)


def eval_cpn1(sp: Spectra, g) -> np.ndarray:
    k, p, q = g["k"], g["p"], g["q"]
    n = sp.dim_b
    lhs, joint = sp.norm("qa", np.array(k), p), sp.norm("w", np.array(k) * n, _products(p, q))
    return _slack(lhs, g.factors(_chain_factor, n, k, p, q) * joint)


def eval_kqn1(sp: Spectra, g) -> np.ndarray:
    k, p = np.array(g["k"]), g["p"]
    n = sp.dim_b
    joint, rhs = sp.antinorm("w", k * n, p), sp.antinorm("qa", k, p)
    return _slack(g.factors(_dim_factor, n, p) * joint, rhs)


def eval_kqn2(sp: Spectra, g) -> np.ndarray:
    p = g["p"]
    joint = sp.columns(lambda e: schatten_antinorm_of(sp.psd("w"), e), p)
    rhs = sp.columns(lambda e: schatten_antinorm_of(sp.psd("qa"), e), p)
    return _slack(g.factors(_dim_factor, sp.dim_b, p) * joint, rhs)


def eval_kqk1(sp: Spectra, g) -> np.ndarray:
    k, n = g["k"], sp.dim_b
    joint = sp.columns(lambda k: kyfan_antinorm_of(sp.psd("w"), k * n), k)
    return _slack(joint, sp.columns(lambda k: kyfan_antinorm_of(sp.psd("qa"), k), k))


def eval_tpn62(sp: Spectra, g) -> np.ndarray:
    k, p, q = g["k"], g["p"], g["q"]
    top, rhs = sp.antinorm("q", np.array(k), _products(p, q)), sp.antinorm("q", np.array(k), p)
    return _slack(g.factors(_rank_factor, None, k, p, q) * top, rhs)


def eval_stct1(sp: Spectra, g) -> np.ndarray:
    k, p = np.array(g["k"]), g["p"]
    m = sp.matrices["q"].shape[-1]
    # the (kd, p) norm of Q's spectrum zero-padded to length kd: the zeros add nothing
    padded = sp.per_d(lambda d: sp.norm("q", np.minimum(k * d, m), p))
    lhs = sp.norm("out", k, p)
    return _slack(lhs, g.per_trial(_dim_factor, sp.env_dims, p) * padded)


def eval_stctp(sp: Spectra, g) -> np.ndarray:
    p = g["p"]
    ds = sp.env_dims
    lhs, rhs = sp.norm("out", None, p), sp.norm("q", None, p)
    return _slack(lhs, g.per_trial(_dim_factor, ds, p) * rhs)


def eval_stct2(sp: Spectra, g) -> np.ndarray:
    k, p = np.array(g["k"]), g["p"]
    # Q's spectrum zero-padded to the output dimension, kmax, times d
    padded = sp.per_d(lambda d: sp.antinorm("q", k * d, p, ambient_dim=sp.kmax * d))
    rhs = sp.antinorm("out", k, p)
    return _slack(g.per_trial(_dim_factor, sp.env_dims, p) * padded, rhs)


def eval_stctpp(sp: Spectra, g) -> np.ndarray:
    p = g["p"]
    ds = sp.env_dims
    joint = sp.columns(lambda e: schatten_antinorm_of(sp.psd("q"), e), p)
    rhs = sp.columns(lambda e: schatten_antinorm_of(sp.psd("out"), e), p)
    return _slack(g.per_trial(_dim_factor, ds, p) * joint, rhs)


def eval_et41(sp: Spectra, g) -> np.ndarray:
    alpha, s = g["alpha"], g["s"]
    n = sp.dim_b
    lhs = sp.entropy("w", unified_entropy_from, alpha, s)
    reduced = sp.entropy("qa", unified_entropy_from, alpha, s)
    rhs = g.factors(dim_weight, n, alpha, s) * reduced
    return _slack(lhs, rhs + g.factors(max_entropy_value, n, alpha, s))


def eval_ett41(sp: Spectra, g) -> np.ndarray:
    alpha = g["alpha"]
    n = sp.dim_b
    lhs = sp.entropy("w", tsallis_entropy_from, alpha)
    reduced = sp.entropy("qa", tsallis_entropy_from, alpha)
    rhs = g.factors(dim_weight, n, alpha) * reduced
    # ln_a(n) is the Tsallis entropy of the maximally mixed state
    return _slack(lhs, rhs + g.factors(max_entropy_value, n, alpha, (1.0,) * g.size))


def eval_et42(sp: Spectra, g) -> np.ndarray:
    alpha = g["alpha"]
    rhs = sp.entropy("qa", renyi_entropy_from, alpha) + math.log(sp.dim_b)
    return _slack(sp.entropy("w", renyi_entropy_from, alpha), rhs)


def eval_stctep(sp: Spectra, g) -> np.ndarray:
    alpha, s = g["alpha"], g["s"]
    ds = sp.env_dims
    lhs = sp.entropy("q", unified_entropy_from, alpha, s)
    out = sp.entropy("out", unified_entropy_from, alpha, s)
    rhs = g.per_trial(dim_weight, ds, alpha, s) * out
    return _slack(lhs, rhs + g.per_trial(max_entropy_value, ds, alpha, s))


def eval_satwrqa(sp: Spectra, g) -> np.ndarray:
    norm = [j for j, family in enumerate(g["family"]) if family == "norm"]
    anti = [j for j, family in enumerate(g["family"]) if family != "norm"]
    margins = np.empty((sp.size, g.size))
    margins[:, norm] = eval_kpn1(sp, g.take(norm))
    margins[:, anti] = eval_kqn1(sp, g.take(anti))
    return -np.abs(margins)


# ---------------------------------------------------------------------------
# parameter grids: each case declares its axes, and a grid is their product


class Grid(dict):
    """Parameter columns by name, each with one entry per point, in grid order.

    run_audit makes one grid per case and rank bound, so the factors memoized
    on it serve every batch of the case.
    """

    def __init__(self, columns: dict, size: int):
        super().__init__(columns)
        self.size = size
        self._memo = {}

    def take(self, points: list) -> "Grid":
        key = ("take", tuple(points))
        if key not in self._memo:
            columns = {name: tuple(col[j] for j in points) for name, col in self.items()}
            self._memo[key] = Grid(columns, len(points))
        return self._memo[key]

    def factors(self, f, d, *columns) -> np.ndarray:
        """f(d, *point) at every point, in Python floats; d None calls f(*point)."""
        key = (f, d, columns)
        if key not in self._memo:
            head = () if d is None else (d,)
            self._memo[key] = np.array([f(*head, *point) for point in zip(*columns)])
        return self._memo[key]

    def per_trial(self, f, ds: list, *columns) -> np.ndarray:
        """(trials, points) values f(d, *point), d being each trial's channel d."""
        return np.array([self.factors(f, d, *columns) for d in ds])


def _axis(name: str, kmax: int, cfg) -> tuple:
    """The columns one grid axis sets, and its values, each one entry per column."""
    if name == "k":
        return ("k",), [(k,) for k in range(1, kmax + 1)]
    if name == "variant":
        return ("variant",), [("trace",), ("frobenius",), ("spectral",)]
    if name in ("norm", "antinorm"):  # the SAT-WRQA family, a single value
        return ("family",), [(name,)]
    # interned: CPython's type attribute cache keeps a reference to each name
    # string it is asked for, so a fresh string per call would stay alive
    values = getattr(cfg, sys.intern(name + "_grid"))
    if name.endswith("pq"):
        return ("p", "q"), [tuple(pq) for pq in values]
    return ("p" if name.endswith("_p") else name,), [(v,) for v in values]


def make_grid(axes: tuple, kmax: int, cfg) -> Grid:
    """The points of each product of axes in turn, the last axis varying fastest."""
    names, points = (), []
    for product in axes:
        parts = [_axis(name, kmax, cfg) for name in product.split()]
        names = sum((cols for cols, _ in parts), ())
        points += [sum(value, ()) for value in itertools.product(*(values for _, values in parts))]
    return Grid(dict(zip(names, zip(*points))), len(points))
