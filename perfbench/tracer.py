"""Per-layer tracing of normtrace from outside the package.

The tracer wraps the public functions of every loaded ``normtrace`` module,
the instance makers, evaluators and saturators held by the audit registry,
``StinespringChannel.apply`` and the four numpy decompositions the library
uses.  A name bound at import by ``from .x import f`` lives in several module
namespaces, so the wrapper replaces every binding of the same function
object.  Each call records its count, its duration and its self time (its
duration minus that of the traced calls made inside it); spans are summed per
name as they close rather than kept one by one, since one default audit makes
hundreds of thousands of them.  Case time is the wall time from the first
traced call tagged with a registry case to the first call of the next case,
or to the end of ``run_audit``.

Run as a script it traces one CLI call in a fresh process:

    python3 perfbench/tracer.py STATS_JSON -- compute norm m.json --p 2

runs ``normtrace.cli.main`` on the arguments after ``--`` and writes the
summed spans to STATS_JSON.
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import sys
import time

NUMPY_DECOMPOSITIONS = ("svd", "eigvalsh", "eigh", "qr")
# helpers called inside nearly every function: a span each would mostly time the tracer
UNTRACED = {"linalg.as_matrix", "linalg.require_square", "jsonio.format_float"}
LAYERS = ("audit", "linalg", "norms", "antinorms", "entropy", "bipartite", "channels", "jsonio", "cli")


class Tracer:
    """Summed spans per traced name, plus wall time per audit case."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, seconds, self seconds, bytes returned]
        self.case_s: dict[str, float] = {}
        self._stack: list[float] = []
        self._case = None
        self._case_start = 0.0

    # -- recording -------------------------------------------------------

    def _enter_case(self, case):
        now = time.perf_counter()
        if self._case is not None:
            self.case_s[self._case] = self.case_s.get(self._case, 0.0) + now - self._case_start
        self._case = case
        self._case_start = now

    def wrap(self, name: str, fn, case=None, count_bytes=False, closes_cases=False):
        rec = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if case is not None and case != self._case:
                self._enter_case(case)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - inner
                if stack:
                    stack[-1] += dt
                if closes_cases:
                    self._enter_case(None)
            if count_bytes:
                rec[3] += len(result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block, then restore."""
        import numpy as np

        from normtrace import audit, channels

        restore = []
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "normtrace" or name.startswith("normtrace."))
        }
        wrappers = {}
        for modname, mod in mods.items():
            layer = modname.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in UNTRACED:
                    continue
                if inspect.isfunction(fn) and fn.__module__ == modname:
                    wrappers[id(fn)] = (fn, self.wrap(
                        name, fn, count_bytes=name == "jsonio.dumps", closes_cases=name == "audit.run_audit"
                    ))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for attr in NUMPY_DECOMPOSITIONS:
            fn = getattr(np.linalg, attr)
            restore.append((np.linalg, attr, fn))
            setattr(np.linalg, attr, self.wrap(f"linalg.np_{attr}", fn))
        apply = channels.StinespringChannel.apply
        restore.append((channels.StinespringChannel, "apply", apply))
        channels.StinespringChannel.apply = self.wrap("channels.StinespringChannel.apply", apply)
        registry = dict(audit.REGISTRY)
        for cid, case in registry.items():
            audit.REGISTRY[cid] = dataclasses.replace(
                case,
                make_instance=self.wrap("audit.make_instance", case.make_instance, case=cid),
                evaluate=self.wrap("audit.evaluate", case.evaluate, case=cid),
                saturator=None
                if case.saturator is None
                else self.wrap("audit.saturator", case.saturator, case=cid),
            )
        try:
            yield self
        finally:
            audit.REGISTRY.update(registry)
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)
            self._enter_case(None)

    # -- summaries -------------------------------------------------------

    def raw(self) -> dict:
        return {"spans": self.spans, "case_s": self.case_s}

    def merge(self, raw: dict) -> None:
        for name, rec in raw["spans"].items():
            mine = self.spans.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(rec):
                mine[i] += v
        for cid, s in raw["case_s"].items():
            self.case_s[cid] = self.case_s.get(cid, 0.0) + s

    def _sum(self, field: int, pred) -> float:
        return sum(rec[field] for name, rec in self.spans.items() if pred(name))

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def layer_calls(self, layer: str) -> int:
        return int(self._sum(0, lambda n: n.startswith(layer + ".")))

    def layer_self_s(self, layer: str) -> float:
        return self._sum(2, lambda n: n.startswith(layer + "."))

    def report_bytes(self) -> int:
        return self.spans.get("jsonio.dumps", [0, 0.0, 0.0, 0])[3]


def layer_metrics(tr: Tracer, rounds: int, ops_per_round: int, case_ids) -> dict:
    """Per-layer values per round of the workload (per operation where named so)."""
    ms = 1000.0 / rounds
    decomps = sum(tr.calls(f"linalg.np_{d}") for d in NUMPY_DECOMPOSITIONS)
    out = {f"audit.case_ms.{cid}": (tr.case_s.get(cid, 0.0) * ms, "ms") for cid in case_ids}
    out.update(
        {
            "audit.sample_ms": ((tr.total_s("audit.make_instance") + tr.total_s("audit.saturator")) * ms, "ms"),
            "audit.runner_self_ms": (tr.self_s("audit.run_audit") * ms, "ms"),
            "audit.margins": (tr.calls("audit.evaluate") / rounds, "count"),
            "linalg.svd_calls": (tr.calls("linalg.np_svd") / rounds, "count"),
            "linalg.eigvalsh_calls": (tr.calls("linalg.np_eigvalsh") / rounds, "count"),
            "linalg.eigh_calls": (tr.calls("linalg.np_eigh") / rounds, "count"),
            "linalg.qr_calls": (tr.calls("linalg.np_qr") / rounds, "count"),
            "linalg.decompositions_per_trial": (decomps / (rounds * ops_per_round), "count"),
            "linalg.decompose_ms": (sum(tr.total_s(f"linalg.np_{d}") for d in NUMPY_DECOMPOSITIONS) * ms, "ms"),
            "linalg.is_hermitian_calls": (tr.calls("linalg.is_hermitian") / rounds, "count"),
            "linalg.is_hermitian_ms": (tr.total_s("linalg.is_hermitian") * ms, "ms"),
        }
    )
    for layer in ("norms", "antinorms", "entropy"):
        out[f"{layer}.self_ms"] = (tr.layer_self_s(layer) * ms, "ms")
        out[f"{layer}.calls"] = (tr.layer_calls(layer) / rounds, "count")
    out.update(
        {
            "bipartite.partial_trace_calls": (
                (tr.calls("bipartite.partial_trace_a") + tr.calls("bipartite.partial_trace_b")) / rounds,
                "count",
            ),
            "bipartite.self_ms": (tr.layer_self_s("bipartite") * ms, "ms"),
            "channels.choi_rank_calls": (tr.calls("channels.choi_rank") / rounds, "count"),
            "channels.choi_rank_ms": (tr.total_s("channels.choi_rank") * ms, "ms"),
            "channels.apply_calls": (tr.calls("channels.StinespringChannel.apply") / rounds, "count"),
            "channels.apply_ms": (tr.total_s("channels.StinespringChannel.apply") * ms, "ms"),
            "jsonio.dumps_ms": (tr.total_s("jsonio.dumps") * ms, "ms"),
            # read_matrix_file's only traced child is matrix_from_text
            "jsonio.read_ms": ((tr.self_s("jsonio.read_matrix_file") + tr.total_s("jsonio.matrix_from_text")) * ms, "ms"),
            "jsonio.report_bytes": (tr.report_bytes() / rounds, "count"),
        }
    )
    return out


def _trace_cli_call(stats_path: str, argv: list[str]) -> int:
    from normtrace import cli

    tracer = Tracer()
    with tracer.installed():
        code = cli.main(argv)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.raw(), fh)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: tracer.py STATS_JSON -- NORMTRACE_ARGS...")
    sys.exit(_trace_cli_call(sys.argv[1], sys.argv[3:]))
