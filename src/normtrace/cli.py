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


def _parse_p(text: str) -> float:
    try:
        return float(text)  # which also reads inf, +inf and Infinity, in any case and with spaces around
    except ValueError:
        raise _ParseFailure(f"bad exponent {text!r}") from None


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


# the options each compute kind needs, and those it also reads with --k
_OPTIONS = {"norm": (("p",), ("k",)), "antinorm": (("p",), ("k", "ambient_dim")),
            "entropy": (("alpha", "s"), ()), "fidelity": (("sigma", "k"), ())}


def _require(args) -> None:
    needs, takes = _OPTIONS[args.kind]
    missing = [f"--{n}" for n in needs if getattr(args, n) is None]
    if missing:
        raise _ParseFailure(f"kind {args.kind!r} needs {', '.join(missing)}")
    # every compute option defaults to None, so the options given are the entries set besides these four
    given = [n for n, x in vars(args).items() if x is not None and n not in ("command", "kind", "matrix", "func")]
    unread = [f"--{n.replace('_', '-')}" for n in given if n not in needs + (() if args.k is None else takes)]
    if unread:
        without = " without --k" if args.k is None and set(given) & set(takes) else ""
        raise _ParseFailure(f"kind {args.kind!r}{without} does not read {', '.join(unread)}")


def _run_compute(args) -> int:
    _require(args)
    q = _load(args.matrix)
    if args.kind == "norm":
        p = _parse_p(args.p)
        if args.k is None:
            value = schatten_norm(q, p)
        else:
            value = kp_norm(q, args.k, p)
    elif args.kind == "antinorm":
        p = _parse_p(args.p)
        if args.k is None:
            value = schatten_antinorm(q, p)
        else:
            value = kp_antinorm(q, args.k, p, ambient_dim=args.ambient_dim)
    elif args.kind == "entropy":
        value = unified_entropy(q, float(args.alpha), float(args.s))
    else:  # fidelity
        value = partial_fidelity(q, _load(args.sigma), args.k)
    print(format(value, ".15g"))
    return 0


def _run_ptrace(args) -> int:
    if args.oracle and args.over == "a":
        raise _ParseFailure("--oracle checks Tr_B only, so it needs --over b")
    m, n = _parse_dims(args.dims)
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
    from .audit import DEFAULT_DIMS, REGISTRY_IDS, AuditConfig, run_audit

    if [] in (args.dims or ()):  # each --dims flag gives its own list of pairs
        raise _ParseFailure("--dims needs at least one MxN pair")
    dims = tuple(_parse_dims(t) for pairs in args.dims for t in pairs) if args.dims else DEFAULT_DIMS
    cases = tuple(args.case) if args.case else None
    if cases is not None:
        unknown = [c for c in cases if c not in REGISTRY_IDS]
        if unknown:
            raise _ParseFailure(f"unknown case ids: {', '.join(unknown)}")
    config = AuditConfig(
        base_seed=args.seed,
        trials_per_case=args.trials,
        dims=dims,
        tolerance=args.tolerance,
        env_dim_mode=args.env_dim,
        case_filter=cases,
    )
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
    comp.add_argument("kind", choices=("norm", "antinorm", "entropy", "fidelity"))
    comp.add_argument("matrix", help="path to a matrix JSON file")
    comp.add_argument("--k", type=int, default=None, help="leading index count")
    comp.add_argument("--p", default=None, help="exponent, 'inf' allowed")
    comp.add_argument("--alpha", type=float, default=None, help="entropy order")
    comp.add_argument("--s", type=float, default=None, help="entropy second parameter")
    comp.add_argument("--ambient-dim", type=int, default=None, dest="ambient_dim")
    comp.add_argument("--sigma", default=None, help="second matrix file for fidelity")
    comp.set_defaults(func=_run_compute)

    pt = sub.add_parser("ptrace", help="partial trace of a bipartite matrix file")
    pt.add_argument("matrix", help="path to a matrix JSON file")
    pt.add_argument("--dims", required=True, help="factor sizes as MxN")
    pt.add_argument("--over", choices=("a", "b"), default="b")
    pt.add_argument(
        "--oracle",
        action="store_true",
        help="also run the twirl oracle (Tr_B only) and report the deviation on stderr",
    )
    pt.set_defaults(func=_run_ptrace)

    aud = sub.add_parser("audit", help="run the inequality audit and emit a JSON report")
    aud.add_argument("--seed", type=int, default=42)
    aud.add_argument("--trials", type=int, default=200)
    aud.add_argument("--dims", nargs="*", action="append", default=None, help="pairs like 2x2 3x2, repeatable")
    aud.add_argument("--tolerance", type=float, default=1e-9)
    aud.add_argument("--env-dim", choices=("choi_rank", "dim_env"), default="choi_rank")
    aud.add_argument("--case", action="append", default=None, help="restrict to one case id")
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
