"""Trace-preserving completely positive maps via isometric dilations.

A channel is held as a single isometry V from the input space into
out (x) env, output index first; the action is Q -> Tr_env(V Q V^dag).
Kraus operators are the environment slices of V.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipartite import trace_out_b
from .errors import NotTracePreservingError, ShapeMismatchError
from .linalg import as_integer, as_matrices, as_matrix, singular_values, stacked

ISOMETRY_TOL = 1e-10
CHOI_RANK_TOL = 1e-9
CONJUGATION_TOL = 1e-9  # singular values at most this share of the largest are zeros, and match within it


def qr_isometry(g: np.ndarray) -> np.ndarray:
    """Q of g = QR rephased so R's diagonal is positive: a function of g, Haar for a Ginibre g."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def validate_isometry(*vs) -> bool:
    """True when V^dag V = I within ISOMETRY_TOL * (1 + max|V|^2) for each tall V, or stack of them, given.

    An isometry has no entry above 1 in modulus, so a V with one above 2, or one that is not finite, is refused
    before its V^dag V, which could overflow, is formed.  V^dag V is formed per stack, and the residuals are
    checked in one pass per input dimension.
    """
    pairs = {}
    for v in map(as_matrices, vs):
        if v.shape[-2] < v.shape[-1]:
            raise ShapeMismatchError("isometry requires at least as many rows as columns")
        v = v.reshape((-1,) + v.shape[-2:])
        top = np.abs(v).max(axis=(-2, -1))
        if not (top <= 2.0).all():
            return False
        pairs.setdefault(v.shape[-1], []).append((v.conj().swapaxes(-1, -2) @ v, top))
    for m, grams_tops in pairs.items():
        grams, tops = zip(*grams_tops)
        off = np.abs(stacked(grams) - np.eye(m)).max(axis=(-2, -1)).tolist()
        if not all(o <= ISOMETRY_TOL * (1.0 + t ** 2) for o, t in zip(off, stacked(tops).tolist())):
            return False
    return True


def require_isometry(*vs) -> None:
    """NotTracePreservingError unless validate_isometry holds for each V, or stack of them, given."""
    if not validate_isometry(*vs):
        raise NotTracePreservingError("dilation matrix is not an isometry")


def channel_outputs(v: np.ndarray, q: np.ndarray, dim_out: int, dim_env: int) -> np.ndarray:
    """Tr_env(V Q V^dag) for one dilation and input, or for each pair of two stacks of them."""
    return trace_out_b(v @ q @ v.conj().swapaxes(-1, -2), dim_out, dim_env)


def choi_gram(v: np.ndarray, dim_out: int, dim_env: int) -> np.ndarray:
    """The smaller Gram matrix of the Choi factor of a dilation V, or of each V of a stack.

    The Choi matrix is A A^dag, column c of A holding vec(K_c), K_c the slice of V at
    environment index c; its nonzero eigenvalues are those of A^dag A, and this is the smaller of the two.
    """
    lead, m = v.shape[:-2], v.shape[-1]
    a = v.reshape(lead + (dim_out, dim_env, m)).swapaxes(-1, -2).reshape(lead + (dim_out * m, dim_env))
    ah = a.conj().swapaxes(-1, -2)
    return ah @ a if dim_env <= dim_out * m else a @ ah


def gram_ranks(grams: np.ndarray) -> np.ndarray:
    """Rank of a PSD Gram matrix, or of each of a stack: its eigenvalues above CHOI_RANK_TOL times its largest."""
    w = np.linalg.eigvalsh(grams)  # ascending: the last is the largest
    return np.count_nonzero(w > CHOI_RANK_TOL * w[..., -1:], axis=-1)


@dataclass(frozen=True)
class StinespringChannel:
    """Channel Q -> Tr_env(V Q V^dag); rows of V decompose as b*dim_env + c."""

    v: np.ndarray
    dim_in: int
    dim_out: int
    dim_env: int

    def __post_init__(self):
        v = as_matrix(self.v)
        dim_in, dim_out, dim_env = (as_integer(x) for x in (self.dim_in, self.dim_out, self.dim_env))
        expected = (dim_out * dim_env, dim_in)
        if min(dim_in, dim_out, dim_env) < 1:
            raise ShapeMismatchError("channel dimensions must be positive")
        if v.shape != expected:
            raise ShapeMismatchError(f"dilation shape {v.shape}, expected {expected}")
        require_isometry(v)
        object.__setattr__(self, "v", v)

    def input(self, q) -> np.ndarray:
        """q as a complex matrix, which must be square on dim_in."""
        q = as_matrix(q)
        if q.shape != (self.dim_in, self.dim_in):
            raise ShapeMismatchError(f"input shape {q.shape}, channel expects ({self.dim_in}, {self.dim_in})")
        return q

    def apply(self, q) -> np.ndarray:
        """Channel output Tr_env(V Q V^dag) for a square input on dim_in."""
        return channel_outputs(self.v, self.input(q), self.dim_out, self.dim_env)

    def kraus_operators(self) -> list[np.ndarray]:
        """Environment slices of V; apply(Q) equals sum_c K_c Q K_c^dag."""
        r = self.v.reshape(self.dim_out, self.dim_env, self.dim_in)
        return [np.ascontiguousarray(r[:, c, :]) for c in range(self.dim_env)]


def kraus_to_stinespring(kraus) -> StinespringChannel:
    """Stack a Kraus family into one isometry, one environment slot each.

    Requires a nonempty list of equal-shape operators with
    sum_c K_c^dag K_c = I on the input space.
    """
    ops = [as_matrix(k) for k in kraus]
    if not ops:
        raise ShapeMismatchError("at least one Kraus operator required")
    n, m = ops[0].shape
    if any(op.shape != (n, m) for op in ops):
        raise ShapeMismatchError("Kraus operators must share one shape")
    d = len(ops)
    v = np.stack(ops, axis=0).transpose(1, 0, 2).reshape(n * d, m)
    return StinespringChannel(v, m, n, d)


def partial_trace_channel(m: int, n: int) -> StinespringChannel:
    """Partial trace over the second factor as a channel from dim m*n to m."""
    m, n = (as_integer(x, ShapeMismatchError, "an integer dimension") for x in (m, n))
    if m < 1 or n < 1:
        raise ShapeMismatchError("factor dimensions must be positive")
    return StinespringChannel(np.eye(m * n, dtype=np.complex128), m * n, m, n)


def choi_matrix(ch: StinespringChannel) -> np.ndarray:
    """Block matrix sum_ij Phi(E_ij) (x) E_ij, output factor first."""
    total = np.zeros((ch.dim_out * ch.dim_in,) * 2, dtype=np.complex128)
    for k in ch.kraus_operators():
        w = k.reshape(-1)
        total += np.outer(w, w.conj())
    return total


def choi_rank(ch: StinespringChannel) -> int:
    """Number of Choi eigenvalues above CHOI_RANK_TOL relative to the largest."""
    return int(gram_ranks(choi_gram(ch.v, ch.dim_out, ch.dim_env)))


def singular_value_conjugation_check(ch_or_v, q) -> bool:
    """Whether V Q V^dag and Q share their nonzero singular values.

    True for every isometry V; accepts either a channel or a raw tall matrix
    so that non-isometric counterexamples can be probed directly.
    """
    if isinstance(ch_or_v, StinespringChannel):
        v = ch_or_v.v
    else:
        v = as_matrix(ch_or_v)
    q = as_matrix(q)
    if q.shape[0] != q.shape[1] or v.shape[1] != q.shape[0]:
        raise ShapeMismatchError(f"incompatible shapes {v.shape} and {q.shape}")
    s_out = singular_values(v @ q @ v.conj().T)
    s_in = singular_values(q)
    smax = max(float(s_out.max()), float(s_in.max()))
    if smax == 0.0:
        return True
    cutoff = CONJUGATION_TOL * smax
    a = s_out[s_out > cutoff]
    b = s_in[s_in > cutoff]
    if a.size != b.size:
        return False
    if a.size == 0:
        return True
    return float(np.abs(a - b).max()) <= cutoff
