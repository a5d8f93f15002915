"""Textbook margins of the partial-trace bounds, for checking the library's evaluators.

Nothing here imports normtrace or the benchmark: each value is rebuilt from
its definition, with numpy's decompositions sorted by hand, an einsum partial
trace, a channel's output summed over its Kraus operators and entropies summed
term by term, and each bound's factor is written out from the case's paper_eq.
A margin is (large - small) / max(1, |small|, |large|) for the relation
small <= large, as the audit normalizes it.
"""
from __future__ import annotations

import math

import numpy as np


def partial_trace_b(w: np.ndarray, m: int, n: int) -> np.ndarray:
    """Tr_B W on H_A (x) H_B: entry (i, k) is sum_j W[(i, j), (k, j)]."""
    return np.einsum("ijkj->ik", w.reshape(m, n, m, n))


def singular_values(a: np.ndarray) -> np.ndarray:
    """The singular values, descending."""
    return np.sort(np.linalg.svd(a, compute_uv=False))[::-1]


def eigenvalues(a: np.ndarray) -> np.ndarray:
    """The eigenvalues of a PSD matrix, ascending; those within 1e-12 of the largest, relative, are round-off of
    zeros (a channel's output can be rank deficient), and read as 0."""
    w = np.sort(np.linalg.eigvalsh(a))
    return np.where(np.abs(w) <= 1e-12 * w[-1], 0.0, w)


def kp_norm(a: np.ndarray, k, p: float) -> float:
    """(k, p) norm: the l_p norm of the k largest singular values; k None, or past the size, takes them all."""
    top = singular_values(a)[:k]
    return float(top.max()) if math.isinf(p) else float(np.sum(top**p) ** (1.0 / p))


def kp_antinorm(a: np.ndarray, k: int, p: float, size=None) -> float:
    """(k, p) anti-norm of a PSD matrix, 0 < p <= 1: the l_p quasi-norm of its k smallest eigenvalues,
    the spectrum padded with zeros to length size if one is given."""
    low = np.concatenate([np.zeros((size or len(a)) - len(a)), eigenvalues(a)])[:k]
    return float(np.sum(low**p) ** (1.0 / p))


def schatten_antinorm(a: np.ndarray, p: float) -> float:
    """(tr A^p)^(1/p) of a positive definite matrix, p < 0 (KQN2's) or 0 < p <= 1 (STCTPP's)."""
    return float(np.sum(eigenvalues(a) ** p) ** (1.0 / p))


def unified_entropy(rho: np.ndarray, alpha: float, s: float) -> float:
    """((tr rho^alpha)^s - 1) / ((1 - alpha) s); Renyi at s = 0 and von Neumann at alpha = 1."""
    w = eigenvalues(rho)
    w = w[w > 0.0]
    if alpha == 1.0:
        return float(-np.sum(w * np.log(w)))
    trace = float(np.sum(w**alpha))
    if s == 0.0:
        return math.log(trace) / (1.0 - alpha)
    return (trace**s - 1.0) / ((1.0 - alpha) * s)


def slack(small: float, large: float) -> float:
    """The normalized margin of small <= large."""
    return (large - small) / max(1.0, abs(small), abs(large))


# each channel case's bound is its bipartite twin's, read with Q for W, Phi(Q) for Tr_B W and d for n
CHANNELS = {
    "STCT1": "KPN1",  # ||Phi(Q)||_(k)^(p) <= d^((p-1)/p) ||Q||_(kd)^(p)
    "STCTP": "SPN1",  # ||Phi(Q)||_p <= d^((p-1)/p) ||Q||_p
    "STCT2": "KQN1",  # ||Phi(Q)||_{k}^(p) >= d^((p-1)/p) ||Q||_{kd}^(p), spectrum padded to n*d
    "STCTPP": "KQN2",  # ||Phi(Q)||_p >= d^((p-1)/p) ||Q||_p, 0 < p <= 1
    "STCTEP": "ET41",  # E_as(rho) <= d^((1-a)s) E_as(Phi(rho)) + (1/s) ln_a(d^s)
}


def margin(cid: str, w: np.ndarray, m: int, n: int, point: dict) -> float:
    """The margin of case cid on W, an operator on C^m (x) C^n, at one grid point; TPN2's and TPN62's R is W at n = 1.

    A channel case's W is its saturator R (x) I, read through Tr_B, the channel of the identity dilation.
    """
    return _margin(CHANNELS.get(cid, cid), w, partial_trace_b(w, m, n), n, point)


def channel_margin(cid: str, v: np.ndarray, dim_env: int, q: np.ndarray, env_mode: str, point: dict) -> float:
    """The margin of channel case cid on (Phi, Q), Phi's dilation V with rows b * dim_env + c, at one grid point.

    Phi(Q) = sum_c K_c Q K_c^dag, K_c the slice of V at environment index c, and d is
    dim_env or, under "choi_rank", the rank of the matrix whose columns are the vec K_c.
    """
    kraus = [v.reshape(-1, dim_env, v.shape[1])[:, c, :] for c in range(dim_env)]
    output = sum(k @ q @ k.conj().T for k in kraus)
    d = dim_env if env_mode == "dim_env" else int(np.linalg.matrix_rank(np.stack([k.ravel() for k in kraus], axis=1)))
    return _margin(CHANNELS[cid], q, output, d, point)


def _margin(cid: str, w: np.ndarray, reduced: np.ndarray, n: int, point: dict) -> float:
    """The margin of bipartite or matrix case cid on W, with its Tr_B W and traced-out dimension n."""
    k, p, q = point.get("k"), point.get("p"), point.get("q")
    if cid == "KPN1":  # ||Tr_B W||_(k)^(p) <= n^((p-1)/p) ||W||_(kn)^(p)
        factor = n if math.isinf(p) else n ** ((p - 1.0) / p)
        return slack(kp_norm(reduced, k, p), factor * kp_norm(w, k * n, p))
    if cid == "SPN1":  # ||Tr_B W||_p <= n^((p-1)/p) ||W||_p
        factor = n if math.isinf(p) else n ** ((p - 1.0) / p)
        return slack(kp_norm(reduced, None, p), factor * kp_norm(w, None, p))
    if cid == "TFSN":  # ||Tr_B W||_1 <= ||W||_1; ||Tr_B W||_2 <= sqrt(n) ||W||_2; ||Tr_B W||_inf <= n ||W||_inf
        factor = {1.0: 1.0, 2.0: math.sqrt(n), math.inf: n}[p]
        return slack(kp_norm(reduced, None, p), factor * kp_norm(w, None, p))
    if cid == "KPK1":  # ||Tr_B W||_(k) <= ||W||_(kn)
        return slack(kp_norm(reduced, k, 1.0), kp_norm(w, k * n, 1.0))
    if cid == "KPK2":  # ||Tr_B W||_inf <= ||W||_(n)
        return slack(kp_norm(reduced, 1, math.inf), kp_norm(w, n, 1.0))
    if cid == "TPN2":  # ||R||_(k)^(p) <= k^((q-1)/(pq)) ||R||_(k)^(pq)
        return slack(kp_norm(w, k, p), k ** ((q - 1.0) / (p * q)) * kp_norm(w, k, p * q))
    if cid == "CPN1":  # ||Tr_B W||_(k)^(p) <= [k^(q-1) n^(pq-1)]^(1/(pq)) ||W||_(kn)^(pq)
        factor = (k ** (q - 1.0) * n ** (p * q - 1.0)) ** (1.0 / (p * q))
        return slack(kp_norm(reduced, k, p), factor * kp_norm(w, k * n, p * q))
    if cid == "KQN1":  # ||Tr_B W||_{k}^(p) >= n^((p-1)/p) ||W||_{kn}^(p)
        return slack(n ** ((p - 1.0) / p) * kp_antinorm(w, k * n, p, len(reduced) * n), kp_antinorm(reduced, k, p))
    if cid == "KQN2":  # ||Tr_B W||_p >= n^((p-1)/p) ||W||_p, p < 0
        return slack(n ** ((p - 1.0) / p) * schatten_antinorm(w, p), schatten_antinorm(reduced, p))
    if cid == "KQK1":  # ||Tr_B W||_{k} >= ||W||_{kn}
        return slack(kp_antinorm(w, k * n, 1.0), kp_antinorm(reduced, k, 1.0))
    if cid == "TPN62":  # ||R||_{k}^(p) >= k^((q-1)/(pq)) ||R||_{k}^(pq), p, q in (0, 1)
        return slack(k ** ((q - 1.0) / (p * q)) * kp_antinorm(w, k, p * q), kp_antinorm(w, k, p))
    if cid == "SAT-WRQA":  # equality in the (k, p) norm and anti-norm bounds at W = c R (x) I: minus |margin|
        return -abs(_margin("KPN1" if point["family"] == "norm" else "KQN1", w, reduced, n, point))
    alpha = point["alpha"]
    if cid == "ET41":  # E_as(W) <= n^((1-a)s) E_as(Tr_B W) + (1/s) ln_a(n^s)
        s = point["s"]
        # (1/s) ln_a(n^s) = (n^((1-a)s) - 1) / ((1-a)s), which tends to ln(n) at s = 0 and at a = 1
        weight = n ** ((1.0 - alpha) * s)
        top = math.log(n) if s == 0.0 or alpha == 1.0 else (weight - 1.0) / ((1.0 - alpha) * s)
        return slack(unified_entropy(w, alpha, s), weight * unified_entropy(reduced, alpha, s) + top)
    if cid == "ETT41":  # T_a(W) <= n^(1-a) T_a(Tr_B W) + ln_a(n), T_a the unified entropy at s = 1
        log = math.log(n) if alpha == 1.0 else (n ** (1.0 - alpha) - 1.0) / (1.0 - alpha)
        return slack(unified_entropy(w, alpha, 1.0), n ** (1.0 - alpha) * unified_entropy(reduced, alpha, 1.0) + log)
    if cid == "ET42":  # R_a(W) <= R_a(Tr_B W) + ln(n)
        return slack(unified_entropy(w, alpha, 0.0), unified_entropy(reduced, alpha, 0.0) + math.log(n))
    raise KeyError(f"no textbook margin for case {cid}")


# every case: the bipartite and matrix cases, then the channel cases
CASES = ("KPN1", "SPN1", "TFSN", "KPK1", "KPK2", "TPN2", "CPN1", "KQN1", "KQN2", "KQK1", "TPN62", "ET41", "ETT41",
         "ET42", "SAT-WRQA") + tuple(CHANNELS)


# the audit's extra report fields, each from its definition


def dominance_strict(w: np.ndarray, n: int) -> bool:
    """KPK2's dominance_strict_count counts the trials where ||W||_(n) < n ||W||_inf by more than 1e-9, relative."""
    lhs, rhs = kp_norm(w, n, 1.0), n * kp_norm(w, 1, math.inf)
    return rhs - lhs > 1e-9 * max(1.0, lhs, rhs)


def equivalence_dev(w: np.ndarray, m: int, n: int) -> float:
    """KQK1's equivalence_max_dev term: the largest, over 1 <= k < m, relative to max(1, |tr W|), of
    |(||Tr_B W||_{k} - ||W||_{kn}) - (||W||_((m-k)n) - ||Tr_B W||_(m-k))|; the k smallest and the m - k
    largest eigenvalues of each matrix sum to its trace, and tr Tr_B W = tr W, so each term is 0 but for round-off."""
    reduced, scale = partial_trace_b(w, m, n), max(1.0, abs(np.trace(w).real))
    terms = [(kp_antinorm(reduced, k, 1.0) - kp_antinorm(w, k * n, 1.0))
             - (kp_norm(w, (m - k) * n, 1.0) - kp_norm(reduced, m - k, 1.0)) for k in range(1, m)]
    return max((abs(t) / scale for t in terms), default=0.0)


# equality-iff witnesses: (a spectrum of R where the bound is tight, one where it is strict, the grid point);
# TPN2 is tight iff the k largest singular values are equal, TPN62 iff the k smallest eigenvalues are
WITNESSES = {
    "TPN2": ((2.0, 2.0, 1.0), (3.0, 2.0, 1.0), {"k": 2, "p": 1.0, "q": 2.0}),
    "TPN62": ((1.0, 1.0, 3.0), (3.0, 2.0, 1.0), {"k": 2, "p": 0.5, "q": 0.5}),
}


def witness_margins(cid: str) -> dict:
    """The equality_margin and strict_margin of case cid's witnesses, each R the diagonal matrix of its spectrum."""
    *spectra, point = WITNESSES[cid]
    equality, strict = (margin(cid, np.diag(s).astype(complex), len(s), 1, point) for s in spectra)
    return {"equality_margin": equality, "strict_margin": strict}
