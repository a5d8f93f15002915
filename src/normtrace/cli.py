"""Command line front end: compute, ptrace, and audit subcommands.

Exit codes: 0 success, 2 argument, input file or report file problems, 3 domain
precondition failures, 4 audit found violations, 5 audit found no violations
but some instances failed to evaluate.
"""
from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from . import jsonio
from ._version import __version__
from .antinorms import kp_antinorm, partial_fidelity, schatten_antinorm
from .bipartite import BipartiteOperator, partial_trace_a, partial_trace_b, twirl_oracle_b
from .entropy import unified_entropy
from .errors import MatrixFileError, PreconditionError
from .linalg import kron
from .norms import kp_norm, schatten_norm


class _ParseFailure(Exception):
    """Argument level problem; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ParseFailure(message)


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise _ParseFailure(f"dims must look like MxN, got {text!r}")
    try:
        m, n = (int(s) for s in parts)
    except ValueError:
        raise _ParseFailure(f"dims must look like MxN, got {text!r}") from None
    if m < 1 or n < 1:
        raise _ParseFailure(f"dims must be positive, got {text!r}")
    return m, n


def _load(path: str) -> np.ndarray:
    try:
        return jsonio.read_matrix_file(path)
    except OSError as exc:
        raise _ParseFailure(f"cannot read {path}: {exc}") from None
    except MatrixFileError as exc:
        raise _ParseFailure(str(exc)) from None


def _norm(q, args) -> float:
    return schatten_norm(q, args.p) if args.k is None else kp_norm(q, args.k, args.p)


def _antinorm(q, args) -> float:
    if args.k is None:
        if args.ambient_dim is not None:  # two options tied together, which argparse cannot say
            raise _ParseFailure("kind 'antinorm' without --k does not read --ambient-dim")
        return schatten_antinorm(q, args.p)
    return kp_antinorm(q, args.k, args.p, ambient_dim=args.ambient_dim)


def _entropy(q, args) -> float:
    return unified_entropy(q, args.alpha, args.s)


def _fidelity(q, args) -> float:
    return partial_fidelity(q, _load(args.sigma), args.k)


def _run_compute(args) -> int:
    print(format(args.kind_value(_load(args.matrix), args), ".15g"))
    return 0


def _run_ptrace(args) -> int:
    if args.oracle and args.over == "a":
        raise _ParseFailure("--oracle checks Tr_B only, so it needs --over b")
    m, n = args.dims
    w = BipartiteOperator(_load(args.matrix), m, n)
    reduced = partial_trace_a(w) if args.over == "a" else partial_trace_b(w)
    if args.oracle:
        twirled = twirl_oracle_b(w)
        rebuilt = kron(reduced, np.eye(n))
        dev = float(np.abs(twirled - rebuilt).max())
        print(f"oracle deviation {dev:.3e}", file=sys.stderr)
    sys.stdout.write(jsonio.matrix_to_text(reduced))
    return 0


def _run_audit(args) -> int:
    # imported here, so that compute and ptrace never load the audit modules
    from .audit import AuditConfig, run_audit

    given = {name: value for name, value in vars(args).items() if name not in ("command", "func", "out")}
    try:  # each of AuditConfig's refusals names an option given
        config = AuditConfig(**given)
    except PreconditionError as exc:
        raise _ParseFailure(str(exc)) from None
    try:  # opened before the run, so a report that cannot be written costs no audit
        out = open(args.out, "w", encoding="utf-8") if args.out is not None else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise _ParseFailure(f"cannot write {args.out}: {exc}") from None
    with out as fh:
        report = run_audit(config)
        fh.write(report.to_text())
    total = report.violations
    failures = sum(c["failures"] for c in report.cases)
    print(
        f"{len(report.cases)} cases, {total} violations, {failures} failures",
        file=sys.stderr,
    )
    if total > 0:
        return 4
    return 5 if failures > 0 else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="normtrace", description="norm and entropy toolbox")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="evaluate one quantity on a matrix file")
    kinds = comp.add_subparsers(dest="kind", required=True)

    def kind(name, value, help):
        # each kind declares the options it reads, in full: an abbreviation such as --s would take --sigma
        k = kinds.add_parser(name, help=help, description=help, allow_abbrev=False)
        k.add_argument("matrix", help="path to a matrix JSON file")
        k.set_defaults(func=_run_compute, kind_value=value)
        return k

    norm = kind("norm", _norm, "the (k, p) norm; without --k the Schatten p-norm")
    norm.add_argument("--p", type=float, required=True, help="exponent, at least 1; 'inf' allowed")
    norm.add_argument("--k", type=int, help="number of largest singular values")
    anti = kind("antinorm", _antinorm, "the (k, p) anti-norm of a PSD matrix; without --k the Schatten anti-norm")
    anti.add_argument("--p", type=float, required=True, help="exponent in (0, 1]; without --k also negative")
    anti.add_argument("--k", type=int, help="number of smallest eigenvalues")
    anti.add_argument("--ambient-dim", type=int, help="pad the spectrum with zeros to this size; needs --k")
    ent = kind("entropy", _entropy, "the unified (alpha, s) entropy of a density matrix")
    ent.add_argument("--alpha", type=float, required=True, help="entropy order")
    ent.add_argument("--s", type=float, required=True, help="entropy second parameter")
    fid = kind("fidelity", _fidelity, "the partial fidelity of two PSD matrices")
    fid.add_argument("--sigma", required=True, help="second matrix file")
    fid.add_argument("--k", type=int, required=True, help="number of largest singular values left out")

    pt = sub.add_parser("ptrace", help="partial trace of a bipartite matrix file")
    pt.add_argument("matrix", help="path to a matrix JSON file")
    pt.add_argument("--dims", type=_parse_dims, required=True, help="factor sizes as MxN")
    pt.add_argument("--over", choices=("a", "b"), default="b")
    pt.add_argument("--oracle", action="store_true",
                    help="also run the twirl oracle (Tr_B only) and report the deviation on stderr")
    pt.set_defaults(func=_run_ptrace)

    # an option not given is left out, so that AuditConfig's default holds
    aud = sub.add_parser("audit", help="run the inequality audit and emit a JSON report",
                         argument_default=argparse.SUPPRESS)
    aud.add_argument("--seed", dest="base_seed", type=int)
    aud.add_argument("--trials", dest="trials_per_case", type=int)
    aud.add_argument("--dims", type=_parse_dims, nargs="+", action="extend", help="pairs like 2x2 3x2, repeatable")
    aud.add_argument("--tolerance", type=float)
    aud.add_argument("--env-dim", dest="env_dim_mode")
    aud.add_argument("--case", dest="case_filter", action="append", help="restrict to one case id")
    aud.add_argument("--out", default=None, help="report path, stdout when omitted")
    aud.set_defaults(func=_run_audit)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())
