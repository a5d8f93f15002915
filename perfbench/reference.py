"""Independent numpy formulas that the benchmark checks normtrace against.

Nothing here imports normtrace: every value is rebuilt from the definitions
(spectra from numpy decompositions, partial traces as explicit block sums,
channel outputs as Kraus sums), so a wrong result in the library cannot be
reproduced by the check that is meant to catch it.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

EIG_DROP = 1e-14  # eigenvalues of a density matrix at or below this carry no entropy
CHOI_RANK_TOL = 1e-9  # Choi eigenvalues above this share of the largest count towards the rank


# ---------------------------------------------------------------------------
# seeded instances, following the sampler description in the audit report


def trial_seed(base_seed: int, case_id: str, trial: int) -> int:
    """First 8 bytes of sha256('<base_seed>:<case_id>:<trial>'), big-endian."""
    digest = hashlib.sha256(f"{base_seed}:{case_id}:{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    re = rng.standard_normal((rows, cols))
    im = rng.standard_normal((rows, cols))
    return (re + 1j * im) / math.sqrt(2.0)


def psd(rng: np.random.Generator, n: int) -> np.ndarray:
    g = ginibre(rng, n, n)
    return g @ g.conj().T


def density(rng: np.random.Generator, n: int) -> np.ndarray:
    a = psd(rng, n)
    return a / np.trace(a).real


def isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Q factor of a Ginibre matrix with the phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(ginibre(rng, rows, cols))
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


# ---------------------------------------------------------------------------
# functionals of spectra


def singular_values(m: np.ndarray) -> np.ndarray:
    """Descending singular values."""
    return np.linalg.svd(m, compute_uv=False)


def psd_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues with round-off negatives set to zero."""
    return np.clip(np.linalg.eigvalsh(m), 0.0, None)


def kp_gauge(sv_desc: np.ndarray, k: int, p: float) -> float:
    """(sum of the p-th powers of the k largest values)^(1/p); max at p = inf."""
    top = sv_desc[:k]
    if math.isinf(p):
        return float(top[0])
    return float(np.sum(top**p) ** (1.0 / p))


def kp_anti(w_asc: np.ndarray, k: int, p: float) -> float:
    """(sum of the p-th powers of the k smallest values)^(1/p), 0 < p <= 1."""
    return float(np.sum(w_asc[:k] ** p) ** (1.0 / p))


def entropy(w: np.ndarray, alpha: float, s: float) -> float:
    """Unified (alpha, s) entropy of a spectrum; von Neumann at alpha = 1, Renyi at s = 0."""
    w = w[w > EIG_DROP]
    if alpha == 1.0:
        return float(-np.sum(w * np.log(w)))
    t = float(np.sum(w**alpha))
    if s == 0.0:
        return math.log(t) / (1.0 - alpha)
    return (t**s - 1.0) / ((1.0 - alpha) * s)


def max_entropy(n: int, alpha: float, s: float) -> float:
    """Entropy of the maximally mixed state on n levels."""
    if alpha == 1.0 or s == 0.0:
        return math.log(n)
    return (float(n) ** ((1.0 - alpha) * s) - 1.0) / ((1.0 - alpha) * s)


def dim_factor(n: int, p: float) -> float:
    return float(n) if math.isinf(p) else float(n) ** ((p - 1.0) / p)


def slack(small: float, large: float) -> float:
    """Margin of small <= large, normalised by max(1, |small|, |large|)."""
    return (large - small) / max(1.0, abs(small), abs(large))


# ---------------------------------------------------------------------------
# partial traces and channels


def partial_trace_b(w: np.ndarray, m: int, n: int) -> np.ndarray:
    """Entry (i, j) is the trace of the n-by-n block at (i, j)."""
    out = np.zeros((m, m), dtype=complex)
    for i in range(m):
        for j in range(m):
            out[i, j] = np.trace(w[i * n : (i + 1) * n, j * n : (j + 1) * n])
    return out


def partial_trace_a(w: np.ndarray, m: int, n: int) -> np.ndarray:
    """Sum of the m diagonal n-by-n blocks."""
    out = np.zeros((n, n), dtype=complex)
    for i in range(m):
        out += w[i * n : (i + 1) * n, i * n : (i + 1) * n]
    return out


def kraus(v: np.ndarray, dim_env: int) -> list[np.ndarray]:
    """Kraus operators of the dilation V whose rows decompose as out * dim_env + env."""
    return [v[c::dim_env, :] for c in range(dim_env)]


def channel_apply(v: np.ndarray, dim_env: int, q: np.ndarray) -> np.ndarray:
    return sum(k @ q @ k.conj().T for k in kraus(v, dim_env))


def choi_rank(v: np.ndarray, dim_env: int) -> int:
    """Rank of sum_c vec(K_c) vec(K_c)^dag, from the singular values of [vec K_c]."""
    stack = np.stack([k.reshape(-1) for k in kraus(v, dim_env)], axis=1)
    ev = singular_values(stack) ** 2
    return int(np.count_nonzero(ev > CHOI_RANK_TOL * ev.max()))


def psd_power(q: np.ndarray, t: float) -> np.ndarray:
    w, u = np.linalg.eigh(q)
    return (u * np.clip(w, 0.0, None) ** t) @ u.conj().T


def partial_fidelity(rho: np.ndarray, sigma: np.ndarray, k: int) -> float:
    """Sum of the m - k smallest singular values of sqrt(rho) sqrt(sigma)."""
    sv = singular_values(psd_power(rho, 0.5) @ psd_power(sigma, 0.5))
    return float(np.sort(sv)[: rho.shape[0] - k].sum())


# ---------------------------------------------------------------------------
# audit margins rebuilt from a report's configuration


def _grid(config: dict, key: str) -> list[float]:
    # the report writes infinities as the string "inf"
    return [float(x) for x in config[key]]


def _margins_kpn1(w, m, n, cfg):
    sv_w = singular_values(w)
    sv_a = singular_values(partial_trace_b(w, m, n))
    return [
        slack(kp_gauge(sv_a, k, p), dim_factor(n, p) * kp_gauge(sv_w, k * n, p))
        for k in range(1, m + 1)
        for p in _grid(cfg, "norm_p_grid")
    ]


def _margins_kqn1(w, m, n, cfg):
    ev_w = psd_eigenvalues(w)
    ev_a = psd_eigenvalues(partial_trace_b(w, m, n))
    return [
        slack(dim_factor(n, p) * kp_anti(ev_w, k * n, p), kp_anti(ev_a, k, p))
        for k in range(1, m + 1)
        for p in _grid(cfg, "antinorm_p_grid")
    ]


def _margins_et41(w, m, n, cfg):
    ev_w = np.linalg.eigvalsh(w)
    ev_a = np.linalg.eigvalsh(partial_trace_b(w, m, n))
    out = []
    for alpha in _grid(cfg, "alpha_grid"):
        for s in _grid(cfg, "s_grid"):
            lhs = entropy(ev_w, alpha, s)
            rhs = float(n) ** ((1.0 - alpha) * s) * entropy(ev_a, alpha, s) + max_entropy(n, alpha, s)
            out.append(slack(lhs, rhs))
    return out


def _margins_stctp(inst, m, n, cfg):
    v, d, q = inst
    env = choi_rank(v, d) if cfg["env_dim_mode"] == "choi_rank" else d
    sv_out = singular_values(channel_apply(v, d, q))
    sv_in = singular_values(q)
    return [
        slack(kp_gauge(sv_out, sv_out.size, p), dim_factor(env, p) * kp_gauge(sv_in, sv_in.size, p))
        for p in _grid(cfg, "norm_p_grid")
    ]


def _instance_bipartite(maker):
    def make(rng, m, n):
        return maker(rng, m * n)

    return make


def _instance_channel_pair(rng, m, n):
    d = math.ceil(m / n) + int(rng.integers(0, 3))
    v = isometry(rng, n * d, m)
    return v, d, ginibre(rng, m, m)


RECOMPUTED = {
    "KPN1": (_instance_bipartite(lambda rng, size: ginibre(rng, size, size)), _margins_kpn1),
    "KQN1": (_instance_bipartite(psd), _margins_kqn1),
    "ET41": (_instance_bipartite(density), _margins_et41),
    "STCTP": (_instance_channel_pair, _margins_stctp),
}


def worst_margin(case_id: str, config: dict) -> float:
    """Smallest margin of a case over every trial that the report's config describes."""
    make, margins = RECOMPUTED[case_id]
    dims = config["dims"]
    worst = math.inf
    for trial in range(config["trials_per_case"]):
        m, n = dims[trial % len(dims)]
        rng = np.random.default_rng(trial_seed(config["base_seed"], case_id, trial))
        worst = min(worst, min(margins(make(rng, m, n), m, n, config)))
    return worst
