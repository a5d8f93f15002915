"""Norms, anti-norms, partial traces, channels, entropies, and their audit."""

from ._version import __version__
from .antinorms import kp_antinorm, kyfan_antinorm, partial_fidelity, schatten_antinorm
from .audit import (
    REGISTRY,
    REGISTRY_IDS,
    AuditConfig,
    AuditReport,
    evaluate_case,
    run_audit,
    sample,
)
from .bipartite import (
    BipartiteOperator,
    partial_trace_a,
    partial_trace_b,
    swap_factors,
    twirl_oracle_b,
)
from .channels import (
    StinespringChannel,
    choi_matrix,
    choi_rank,
    kraus_to_stinespring,
    partial_trace_channel,
    singular_value_conjugation_check,
    validate_isometry,
)
from .entropy import (
    max_entropy_value,
    renyi_entropy,
    tsallis_entropy,
    unified_entropy,
    von_neumann_entropy,
)
from .errors import MatrixFileError, PreconditionError
from .linalg import hermitian_eigenvalues, kron, psd_power, singular_values
from .norms import gauge_kp, kp_norm, kyfan_norm, schatten_norm

__all__ = [
    "__version__",
    "AuditConfig",
    "AuditReport",
    "BipartiteOperator",
    "MatrixFileError",
    "PreconditionError",
    "REGISTRY",
    "REGISTRY_IDS",
    "StinespringChannel",
    "choi_matrix",
    "choi_rank",
    "evaluate_case",
    "gauge_kp",
    "hermitian_eigenvalues",
    "kp_antinorm",
    "kp_norm",
    "kraus_to_stinespring",
    "kron",
    "kyfan_antinorm",
    "kyfan_norm",
    "max_entropy_value",
    "partial_fidelity",
    "partial_trace_a",
    "partial_trace_b",
    "partial_trace_channel",
    "psd_power",
    "renyi_entropy",
    "run_audit",
    "sample",
    "schatten_antinorm",
    "schatten_norm",
    "singular_value_conjugation_check",
    "singular_values",
    "swap_factors",
    "tsallis_entropy",
    "twirl_oracle_b",
    "unified_entropy",
    "validate_isometry",
    "von_neumann_entropy",
]
