#!/usr/bin/env python3
"""Self-test of the benchmark's checks: perturbed outputs must count as failed.

    python3 perfbench/selftest.py

Runs one round of `library_calls`, `cli_calls` and `audit_default` in this
process, once as is and then with a library function, an audit evaluator or
an instance maker perturbed (for the CLI, in every child process).
`audit_large` shares `audit_default`'s checks.  Exits 0 when every clean
round passes and every perturbed round counts exactly the expected failures,
1 otherwise.
"""
from __future__ import annotations

import contextlib
import dataclasses
import sys
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads

SHIFT = 1e-6


def _shifted(fn):
    def shifted(*args, **kwargs):
        return fn(*args, **kwargs) * (1.0 + SHIFT)

    return shifted


@contextlib.contextmanager
def patched(owner, attr, value):
    old = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, old)


@contextlib.contextmanager
def registry_case(cid, **fields):
    from normtrace import audit

    old = audit.REGISTRY[cid]
    audit.REGISTRY[cid] = dataclasses.replace(old, **fields)
    try:
        yield
    finally:
        audit.REGISTRY[cid] = old


def _raise_precondition(dims, seed):
    from normtrace.errors import PreconditionError

    raise PreconditionError("instance maker disabled by the self-test")


def child_main(argv) -> int:
    """A `normtrace` CLI process whose kp_norm is shifted."""
    from normtrace import cli

    cli.kp_norm = _shifted(cli.kp_norm)
    return cli.main(argv)


def main() -> int:
    sys.path.insert(0, str(run.PACKAGE.parent))
    import numpy as np

    import workloads
    from normtrace import audit, norms
    from normtrace.bipartite import BipartiteOperator

    kpn1 = audit.REGISTRY["KPN1"]

    def shifted_margin(inst, pr):
        return kpn1.evaluate(inst, pr) + SHIFT

    def perturbed_instance(dims, seed):
        w = kpn1.make_instance(dims, seed)
        return BipartiteOperator(w.matrix + SHIFT * np.eye(w.matrix.shape[0]), w.dim_a, w.dim_b)

    def cli_child(wl):
        wl.command = [sys.executable, str(Path(__file__).resolve()), "--child"]

    trials = workloads.DEFAULT_AUDIT_TRIALS
    kp_norm_calls = len(workloads.LIBRARY_DIMS) * workloads.SETS_PER_DIMS  # one per input set
    # (label, workload, perturbation, customize, expected failed per round, expected `correct`)
    checks = [
        ("library clean", "library_calls", contextlib.nullcontext(), None, 0, True),
        ("library kp_norm shifted", "library_calls", patched(norms, "kp_norm", _shifted(norms.kp_norm)), None,
         kp_norm_calls, False),
        ("cli clean", "cli_calls", contextlib.nullcontext(), None, 0, True),
        ("cli kp_norm shifted in the child", "cli_calls", contextlib.nullcontext(), cli_child, 1, False),
        ("audit clean", "audit_default", contextlib.nullcontext(), None, 0, True),
        # caught by the saturation residual, which the shift lifts above the tolerance
        ("audit KPN1 margins shifted", "audit_default", registry_case("KPN1", evaluate=shifted_margin), None,
         trials, False),
        # caught only by recomputing the worst margin from the report's seeds
        ("audit KPN1 instances perturbed", "audit_default",
         registry_case("KPN1", make_instance=perturbed_instance), None, trials, False),
        # every trial raises: counted as failed, while the outputs that remain stay correct
        ("audit KPK2 instances raise", "audit_default",
         registry_case("KPK2", make_instance=_raise_precondition), None, trials, True),
    ]
    ok = True
    for label, name, perturbation, customize, per_round, correct in checks:
        with perturbation:
            result, detail = run.run_workload(name, 7, 0.0, False, customize)
        rounds = len(detail["round_s"])
        failed = result["failed"]
        good = failed == per_round * rounds and result["correct"] == correct
        ok = ok and good
        reasons = (detail["wrong"] + detail["errors"])[:1]
        print(f"{'ok  ' if good else 'FAIL'} {label}: attempted {result['attempted']}, failed {failed}, "
              f"correct {result['correct']} {reasons}")
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.path.insert(0, str(run.PACKAGE.parent))
        sys.exit(child_main(sys.argv[2:]))
    sys.exit(main())
