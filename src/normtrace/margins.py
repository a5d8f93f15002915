"""Batched margins of the audit's relations.

Every functional the registry cases compare is unitarily invariant, so an
evaluator reads only spectra: singular values for norms, eigenvalues for
anti-norms and entropies, of two matrices every window names "joint" and
"reduced" (W and Tr_B W, Q and Phi(Q), or a matrix R twice, its own Tr_B over
a trivial factor), plus a channel's Choi rank.  So each bound family has one
evaluator, which its particular and channel cases share, and a grid without a
k, p or s column is the family's Schatten (k the rank), Ky Fan (p = 1) or Renyi
(s = 0) case; TFSN is Schatten's at p = 1, 2 and inf, ETT41 the s = 1 case, and
TPN2 CPN1's chained bound on a matrix, at n = 1.  drawn makes every audit
instance a Drawn, of a form (bipartite operator, channel pair or plain matrix)
and a shape, which Drawn.alone finishes by itself.
Spectra holds one window of Drawn instances of any forms and shapes (a channel
case's trials beside its bipartite saturators, say): each (form, finish, sizes)
group is finished in one call, the matrices of each size are stacked and
decomposed in one call, the sizes' spectra join in one zero-padded stack per
matrix, one table per (matrix, exponent) serves the window (a cumulative power
sum over the sorted spectra serves every k; entropies read tr rho^alpha and the
von Neumann value), and one evaluator call returns the (instances, grid points) margins,
each normalized by max(1, |lhs|, |rhs|).  Each instance has its own traced-out
dimension and rank bound, and a grid point whose k exceeds an instance's bound
is out of bound for it (Spectra.in_bound): never folded.  Each case declares
its grid as products of named axes; AXES gives their columns and domains, the
ranges the bounds are proved on, and make_grid builds the grid (GRIDS).
"""
from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .antinorms import antinorm_table, psd_spectrum, schatten_antinorm_of
from .bipartite import BipartiteOperator, trace_out_b
from .channels import StinespringChannel, channel_outputs, choi_gram, gram_ranks, require_isometry
from .entropy import (
    density_spectrum,
    dim_weight,
    max_entropy_value,
    power_sum_of,
    unified_entropy_from,
    von_neumann_of,
)
from .errors import DomainError, KindMismatchError
from .linalg import as_matrix, require_square, stacked
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
# stacked spectra of a window of instances


class Drawn(NamedTuple):
    """An audit instance as drawn: its kind's generator output, to be finished in a stack.

    A finish maps the draws of a group of one finish and sizes, stacked field by
    field, to its stacked matrices, a channel's to its stacked (V, Q) pair; sizes[:2]
    is the shape, and a channel's sizes are (dim_in, dim_out, dim_env).
    """

    form: str
    finish: Callable
    sizes: tuple
    draws: tuple

    def alone(self):
        """Its finish on a stack of one, wrapped: a BipartiteOperator, (StinespringChannel, Q) pair or matrix."""
        finished = self.finish(tuple(map(np.array, zip(self.draws))), *self.sizes)
        if self.form == "channel":
            return StinespringChannel(finished[0][0], *self.sizes), finished[1][0]
        return BipartiteOperator(finished[0], *self.sizes) if self.form == "bipartite" else finished[0]

    def __getattr__(self, name: str):
        # any other attribute is the finished instance's, so code that reads a maker's W.matrix, say, gets it
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.alone(), name)


def _given(x: tuple, *sizes):  # the finish of a finished instance: its one matrix, or a channel's (V, Q) pair
    return x[0] if len(x) == 1 else x


def drawn(inst) -> Drawn:
    """An audit instance as a Drawn, the one place that tells instance forms apart: a Drawn is itself.

    A BipartiteOperator ("bipartite", shape (dim_a, dim_b)), a (StinespringChannel, Q)
    pair ("channel", shape (dim_in, dim_out)) or an ndarray ("matrix", its shape) is
    wrapped with a finish that returns its matrices; anything else raises KindMismatchError.
    """
    if isinstance(inst, Drawn):
        return inst
    if isinstance(inst, BipartiteOperator):
        return Drawn("bipartite", _given, (inst.dim_a, inst.dim_b), (inst.matrix,))
    if isinstance(inst, tuple) and len(inst) == 2 and isinstance(inst[0], StinespringChannel):
        ch, q = inst
        return Drawn("channel", _given, (ch.dim_in, ch.dim_out, ch.dim_env), (ch.v, ch.input(q)))
    if isinstance(inst, np.ndarray):
        return Drawn("matrix", _given, inst.shape, (as_matrix(inst),))
    raise KindMismatchError(f"not an audit instance: {type(inst).__name__}")


def _by_size(stacks: list) -> list:
    """The indices of the stacks of each trailing shape, in first-seen order."""
    shapes = [stack.shape[1:] for stack in stacks]
    return [[i for i, s in enumerate(shapes) if s == shape] for shape in dict.fromkeys(shapes)]


class Spectra:
    """Lazily computed, validated spectra of a window of Drawn instances (drawn) of any forms and shapes.

    The rows are grouped once, by (form, finish, sizes), each group finished in one call to its matrices "joint"
    and "reduced" (W and Tr_B W, Q and Phi(Q), or R and R); the stacks of one size are joined and decomposed at
    most once per spectrum kind, in one call, with the matrix-level checks row by row.  A channel group has one
    (m, n, d); the window's V stacks, kept in dilations, take one isometry check per input dimension, and its
    Choi ranks one call per Gram size.
    Row i has its traced-out dimension n[i] (n, a channel's d, or 1) and rank bound
    bound[i], the size of its reduced matrix.  The sizes' spectra join zero-padded,
    descending ones on the right and ascending ones on the left, which keeps each
    cumulative sum bit for bit, so one table per (matrix, exponent) serves the window,
    the Ky Fan norms and anti-norms as its p = 1 tables; a pairwise sum depends on its row
    width alone, so other sums run per size (sizewise).  A point past a row's bound is
    out of bound for it (in_bound) and never folded.
    """

    def __init__(self, insts: list, env_mode: str = "choi_rank"):
        self.size, self._memo = len(insts), {}
        groups = {}
        for i, x in enumerate(insts):
            groups.setdefault((x.form, x.finish, x.sizes), []).append(i)
        self.rows = [np.array(rows) for rows in groups.values()]
        # each group's stacked matrices by name, its channels' dilations V, the Choi Grams
        self.parts, self.dilations, grams, self.n = [], [], [], np.empty(self.size, int)
        for ((form, finish, sizes), rows), at in zip(groups.items(), self.rows):
            finished = finish(tuple(map(np.array, zip(*(insts[i].draws for i in rows)))), *sizes)
            v, joint = finished if form == "channel" else (None, finished)
            require_square(joint)
            if form == "bipartite":
                reduced, self.n[at] = trace_out_b(joint, *sizes), sizes[1]
            elif form == "channel":
                _, n, d = sizes
                # each channel's d: its dilation's dim_env or, under "choi_rank", its Choi rank (below)
                reduced, self.n[at] = channel_outputs(v, joint, n, d), d
                self.dilations.append(v)
                if env_mode == "choi_rank":
                    grams.append((choi_gram(v, n, d), at))
            else:  # a matrix is its own Tr_B over a trivial factor
                reduced, self.n[at] = joint, 1
            self.parts.append({"joint": joint, "reduced": reduced})
        require_isometry(*self.dilations)  # before any Choi rank, so a dilation that is no isometry fails as such
        for ids in _by_size([gram for gram, _ in grams]):
            self.n[stacked([grams[i][1] for i in ids])] = gram_ranks(stacked([grams[i][0] for i in ids]))
        self.bound = self.joined([part["reduced"].shape[-1] for part in self.parts], int)
        # each matrix's (rows, group indices) per size: the rows of its groups, in window order, one after another
        self.sizes = {name: [(stacked([self.rows[i] for i in ids]), ids) for ids in _by_size(
            [part[name] for part in self.parts])] for name in self.parts[0]}

    def _get(self, key, make):
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = make()
        return value

    def joined(self, parts: list, dtype=float, rows=None) -> np.ndarray:
        """One array, in window order, of per-group values (or per-size ones at rows), a row per instance."""
        out = np.empty((self.size,) + np.shape(parts[0])[1:], dtype)
        for at, x in zip(self.rows if rows is None else rows, parts):
            out[at] = x
        return out

    def spectra(self, kind: str, name: str) -> list:
        """Each size's spectra of a matrix: "sv" descending singular values, or ascending validated eigenvalues."""
        decompose = {"sv": partial(np.linalg.svd, compute_uv=False), "psd": psd_spectrum, "density": density_spectrum}
        return self._get((kind, name), lambda: [decompose[kind](stacked([self.parts[i][name] for i in ids]))
                                                for _, ids in self.sizes[name]])

    def padded(self, kind: str, name: str) -> np.ndarray:
        """The window's spectra of a matrix, zero-padded to one width: "sv" on the right, eigenvalues on the left."""
        if ("padded", kind, name) not in self._memo:
            parts = self.spectra(kind, name)
            width = max(s.shape[-1] for s in parts)
            out = self._memo["padded", kind, name] = np.zeros((self.size, width))
            for (rows, _), s in zip(self.sizes[name], parts):
                out[rows, slice(0, s.shape[-1]) if kind == "sv" else slice(width - s.shape[-1], width)] = s
        return self._memo["padded", kind, name]

    def sizewise(self, kind: str, name: str, f, values) -> np.ndarray:
        """(rows, points) array whose column j is f(s, values[j]) on each size's spectra s."""
        parts = self.spectra(kind, name)
        return self.joined([np.array([f(s, v) for v in values], float).reshape(len(values), len(s)).T for s in parts],
                           rows=[rows for rows, _ in self.sizes[name]])

    def in_bound(self, g) -> np.ndarray:
        """(rows, points) mask of the points whose k is in [1, the row's rank bound]; a grid without k has no other."""
        k = np.array(g.get("k", (1,) * g.size))
        return (k >= 1) & (k <= self.bound[:, None])

    def _lookup(self, key, make, k, exps: tuple, first) -> np.ndarray:
        """Entry k[i, j] (1-based) of row i's own table make(exps[j]), the window's from column first[i] on.

        k >= 1 (in_bound holds every k of a grid to it) broadcasts to (rows, points);
        None, or a k past the last entry, reads the last: for a descending spectrum,
        the value of the spectrum zero-padded to k.
        """
        if not exps:
            return np.empty((self.size, 0))
        distinct = dict.fromkeys(exps)
        tables = [self._get(key + (e,), partial(make, e)) for e in distinct]
        width = tables[0].shape[-1]
        start = {e: i * width - 1 for i, e in enumerate(distinct)}  # entry r of table e is start[e] + r
        index = np.minimum(first + (width - first if k is None else k), width) + [start[e] for e in exps]
        flat = tables[0] if len(tables) == 1 else np.concatenate(tables, axis=-1)
        # an index shared by every row is a take, which costs less than the gather
        return flat.take(index, axis=1) if index.ndim == 1 else flat[np.arange(self.size)[:, None], index]

    def norm(self, name: str, k, p: tuple) -> np.ndarray:
        """(k, p) norms of a matrix at each point; k None gives its Schatten p-norms."""
        table = lambda e: gauge_table(self.padded("sv", name), e)  # noqa: E731
        return self._lookup(("norm", name), table, k, p, 0)

    def antinorm(self, name: str, k, p: tuple) -> np.ndarray:
        """(k, p) anti-norms of a PSD matrix; "joint" zero-pads to n times the rank bound (so Phi(Q)'s size times d)."""
        ambient = self.bound * self.n if name == "joint" else self.bound
        top = int(ambient.max())
        table = lambda e: antinorm_table(self.padded("psd", name), e, top)  # noqa: E731
        return self._lookup(("antinorm", name, top), table, k, p, (top - ambient)[:, None])

    def schatten_antinorm(self, name: str, p: tuple) -> np.ndarray:
        """Schatten anti-norms of a PSD matrix at each point, p < 0 too."""
        return self.sizewise("psd", name, schatten_antinorm_of, p)

    def entropy(self, name: str, alpha: tuple, s: tuple) -> np.ndarray:
        """Unified entropies of a state at each point's (alpha, s), from its von Neumann value and power sums."""
        von_neumann = self.sizewise("density", name, lambda w, _: von_neumann_of(w), (None,))[:, 0].tolist()
        alphas = tuple(dict.fromkeys(alpha))
        sums = dict(zip(alphas, self.sizewise("density", name, power_sum_of, alphas).T.tolist()))
        return np.array([unified_entropy_from(sums[a], von_neumann, a, t) for a, t in zip(alpha, s)]).T


# ---------------------------------------------------------------------------
# evaluators: (instances, points) margins from the spectra of a window


def eval_kpn1(sp: Spectra, g) -> np.ndarray:
    """The (k, p) norm bound, and its restrictions: no k column is Schatten's, no p column Ky Fan's (p = 1)."""
    k, p = np.array(g["k"]) if "k" in g else None, g.get("p", (1.0,) * g.size)
    # the (kn, p) norm of the spectrum zero-padded to length kn: a kd past Q's size reads the full gauge
    joint = sp.norm("joint", None if k is None else k * sp.n[:, None], p)
    return _slack(sp.norm("reduced", k, p), g.factors(_dim_factor, sp.n, p) * joint)


def eval_kpk2(sp: Spectra, g) -> np.ndarray:
    return _slack(sp.norm("reduced", None, (math.inf,) * g.size), sp.norm("joint", sp.n[:, None], (1.0,) * g.size))


def eval_cpn1(sp: Spectra, g) -> np.ndarray:
    """The chained (k, p) to (kn, pq) norm bound; a matrix R, at n = 1, is TPN2's single-operator bound."""
    k, p, q = g["k"], g["p"], g["q"]
    lhs, joint = sp.norm("reduced", np.array(k), p), sp.norm("joint", np.array(k) * sp.n[:, None], _products(p, q))
    return _slack(lhs, g.factors(_chain_factor, sp.n, k, p, q) * joint)


def eval_kqn1(sp: Spectra, g) -> np.ndarray:
    """The (k, p) anti-norm bound, and its Ky Fan restriction: no p column is p = 1."""
    k, p = np.array(g["k"]), g.get("p", (1.0,) * g.size)
    joint = sp.antinorm("joint", k * sp.n[:, None], p)
    return _slack(g.factors(_dim_factor, sp.n, p) * joint, sp.antinorm("reduced", k, p))


def eval_kqn2(sp: Spectra, g) -> np.ndarray:
    p = g["p"]
    joint, rhs = sp.schatten_antinorm("joint", p), sp.schatten_antinorm("reduced", p)
    return _slack(g.factors(_dim_factor, sp.n, p) * joint, rhs)


def eval_tpn62(sp: Spectra, g) -> np.ndarray:
    k, p, q = g["k"], g["p"], g["q"]
    top, rhs = sp.antinorm("joint", np.array(k), _products(p, q)), sp.antinorm("joint", np.array(k), p)
    return _slack(g.factors(_rank_factor, None, k, p, q) * top, rhs)


def eval_et41(sp: Spectra, g) -> np.ndarray:
    """The unified (alpha, s) entropy bound: no s column is its Renyi case (s = 0), and s = 1 is Tsallis'."""
    alpha, s = g["alpha"], g.get("s", (0.0,) * g.size)
    lhs = sp.entropy("joint", alpha, s)
    rhs = g.factors(dim_weight, sp.n, alpha, s) * sp.entropy("reduced", alpha, s)
    return _slack(lhs, rhs + g.factors(max_entropy_value, sp.n, alpha, s))


def eval_satwrqa(sp: Spectra, g) -> np.ndarray:
    norm = [j for j, family in enumerate(g["family"]) if family == "norm"]
    anti = [j for j, family in enumerate(g["family"]) if family == "antinorm"]
    margins = np.empty((sp.size, g.size))
    margins[:, norm] = eval_kpn1(sp, g.take(norm))
    margins[:, anti] = eval_kqn1(sp, g.take(anti))
    return -np.abs(margins)


# ---------------------------------------------------------------------------
# parameter grids: each case declares its axes, and a grid is their product


class Grid(dict):
    """Parameter columns by name, each with one entry per point, in grid order."""

    def __init__(self, columns: dict, size: int):
        super().__init__(columns)
        self.size = size

    def take(self, points: list) -> "Grid":
        return Grid({name: tuple(col[j] for j in points) for name, col in self.items()}, len(points))

    def factors(self, f, ns, *columns) -> np.ndarray:
        """(rows, points) values f(n, *point) in Python floats, n row i's ns[i]; one row if ns is None or one n.

        Every exponent factor of a bound is closed here, once per distinct n, so
        this is where one outside the float range raises DomainError, as an
        entropy term does.
        """
        values = [None] if ns is None else ns.tolist()
        order = {n: i for i, n in enumerate(dict.fromkeys(values))}  # the distinct n, as Python ints
        rows = []
        for n in order:
            head = () if n is None else (n,)
            try:
                row = [f(*head, *point) for point in zip(*columns)]
            except OverflowError:
                row = [math.inf]
            if any(map(math.isinf, row)):  # past the float range a power raises, and a product reads inf
                raise DomainError(f"bound factor {f.__name__} overflows the float range")
            rows.append(row)
        table = np.array(rows)
        return table if len(rows) == 1 else table[[order[n] for n in values]]


# the registry's parameter grids by axis name; the audit report echoes each as "<name>_grid"
GRIDS = {
    "norm_p": (1.0, 1.5, 2.0, 3.0, 10.0, math.inf),
    "antinorm_p": (0.25, 0.5, 0.75, 1.0),
    "negative_p": (-0.5, -1.0, -2.0),
    "pq": tuple((p, q) for p in (1.0, 1.5, 2.0) for q in (1.5, 2.0, 3.0)),
    "subunit_pq": tuple((p, q) for p in (0.25, 0.5, 0.75) for q in (0.25, 0.5, 0.75)),
    "alpha": (0.3, 0.7, 1.0, 1.5, 3.0),
    "s": (-1.0, 0.0, 0.5, 1.0, 2.0),
}


# each grid axis's columns, each with its domain, the range the paper proves a bound on: None for k (an integer
# in [1, rank bound], Spectra.in_bound), a tuple, which is also the axis's grid, or a predicate, grid GRIDS[name]
AXES = {
    "k": {"k": None},
    "norm_p": {"p": lambda p: p >= 1.0},
    "antinorm_p": {"p": lambda p: 0.0 < p <= 1.0},
    "negative_p": {"p": lambda p: -math.inf < p < 0.0},
    "pq": {"p": lambda p: p >= 1.0, "q": lambda q: q >= 1.0},
    "subunit_pq": {"p": lambda p: 0.0 < p < 1.0, "q": lambda q: 0.0 < q < 1.0},
    "alpha": {"alpha": lambda a: 0.0 < a < math.inf},
    "s": {"s": math.isfinite},
    "tfsn_p": {"p": (1.0, 2.0, math.inf)},  # TFSN's trace, Frobenius and spectral norms
    "tsallis": {"s": (1.0,)},  # ETT41's s
    "norm": {"family": ("norm",)},  # the SAT-WRQA families
    "antinorm": {"family": ("antinorm",)},
}


def _axis(name: str, kmax: int) -> tuple:
    """The columns one grid axis sets, and its values, each one entry per column."""
    columns, (domain, *_) = tuple(AXES[name]), AXES[name].values()
    values = range(1, kmax + 1) if domain is None else domain if isinstance(domain, tuple) else GRIDS[name]
    return columns, [v if len(columns) > 1 else (v,) for v in values]


def outside(axes: tuple, point: dict):
    """None if point, a value per column, lies in the domain (AXES) of some product of axes, k aside; else the
    first column outside its domain in the product whose columns the point holds longest, the first on a tie."""
    misses = []
    for product in axes:
        domains = [item for name in product.split() for item in AXES[name].items()]
        held = [domain is None or (point[column] in domain if isinstance(domain, tuple) else domain(point[column]))
                for column, domain in domains]
        if all(held):
            return None
        misses.append((held.index(False), domains[held.index(False)][0]))
    return max(misses, key=lambda miss: miss[0])[1]


def make_grid(axes: tuple, kmax: int) -> Grid:
    """The points of each product of axes in turn, the last axis varying fastest."""
    names, points = (), []
    for product in axes:
        parts = [_axis(name, kmax) for name in product.split()]
        names = sum((cols for cols, _ in parts), ())
        points += [sum(value, ()) for value in itertools.product(*(values for _, values in parts))]
    return Grid(dict(zip(names, zip(*points))), len(points))
