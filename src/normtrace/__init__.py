"""Norms, anti-norms, partial traces, channels, entropies, and their audit.

Each submodule loads on first use (PEP 562, Scientific Python SPEC 1), so
``import normtrace`` and the ``compute`` and ``ptrace`` commands never load
the audit modules.  A resolved name is not cached here: ``normtrace.X`` is
always the current binding of X in its submodule.
"""

import importlib

from ._version import __version__

# public name -> the submodule that defines it
_SOURCE = {
    name: module
    for module, names in {
        "antinorms": "kp_antinorm kyfan_antinorm partial_fidelity schatten_antinorm",
        "audit": "REGISTRY REGISTRY_IDS AuditConfig AuditReport evaluate_case run_audit sample",
        "bipartite": "BipartiteOperator partial_trace_a partial_trace_b twirl_oracle_b",
        "channels": (
            "StinespringChannel choi_matrix choi_rank kraus_to_stinespring"
            " partial_trace_channel singular_value_conjugation_check validate_isometry"
        ),
        "entropy": (
            "max_entropy_value renyi_entropy tsallis_entropy unified_entropy von_neumann_entropy"
        ),
        "errors": "MatrixFileError PreconditionError",
        "jsonio": "read_matrix_file write_matrix_file",
        "linalg": "hermitian_eigenvalues kron psd_power singular_values",
        "norms": "gauge_kp kp_norm kyfan_norm schatten_norm",
    }.items()
    for name in names.split()
}

_SUBMODULES = (
    "antinorms", "audit", "bipartite", "channels", "cli", "entropy",
    "errors", "jsonio", "linalg", "margins", "norms",
)

__all__ = ["__version__", *sorted(_SOURCE)]


def __getattr__(name):
    if name in _SOURCE:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return [*__all__, *_SUBMODULES]
