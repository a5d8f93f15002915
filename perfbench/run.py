#!/usr/bin/env python3
"""Benchmark of normtrace: the audit, single library calls and the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; normtrace is imported from ./src.
One process, no extra threads, BLAS held to one thread, CLI children started
one at a time.  With --trace 0 the run is untraced and reports the end-to-end
metrics; with --trace 1 it spends half its time untraced and half traced and
reports the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A copy with per-round detail goes to perfbench/results/.  See README.md.
"""
from __future__ import annotations

import os

# before numpy is imported, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "normtrace"
SETUP_REPEATS = 3  # set-up samples before and after the measured rounds
SETUP_INTERVAL_S = 2.5  # and one between rounds this often
TAIL_SAMPLES = 1000  # a p99 needs ten samples beyond it
IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import normtrace\n"
    "t2 = time.perf_counter()\n"
    "import normtrace.cli\n"
    "t3 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1, t3 - t1)\n"
)


def measure(wl, seconds: float, setup: list, tracer=None):
    """Whole rounds until `seconds` have passed, with a set-up sample between
    rounds every SETUP_INTERVAL_S.

    Returns the number of rounds and the time of every timed unit in them,
    shaped (rounds, units per round).
    """
    first = len(wl.unit_times)
    rounds = 0
    clock = time.perf_counter
    deadline = clock() + seconds
    next_setup = clock() + SETUP_INTERVAL_S
    wl.tracer = tracer
    while True:
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            out = wl.run()
        wl.check(out)
        rounds += 1
        if clock() >= deadline:
            break
        if clock() >= next_setup:
            setup.append(set_up(wl))
            next_setup = clock() + SETUP_INTERVAL_S
    wl.tracer = None
    return rounds, np.array(wl.unit_times[first:]).reshape(rounds, wl.ops_per_round)


def set_up(wl) -> list[float]:
    """One set-up sample in seconds: [numpy, normtrace, normtrace.cli, workload].

    The first three are fresh-process import times, the last two on top of
    numpy; the last is one `prepare` of the workload (inputs and warm-up).
    """
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        capture_output=True, text=True, env=workloads.child_env(), cwd=ROOT, timeout=60, check=True,
    ).stdout.split()
    t0 = time.perf_counter()
    wl.prepare()
    return [float(x) for x in out] + [time.perf_counter() - t0]


def summarise(units) -> tuple[float, float]:
    """(seconds per round, milliseconds per operation) from a run's unit times.

    On a shared machine the neighbours' load slows this code by up to half,
    in spells from under a second to about a minute.  Each timed unit (a
    trial, a call, a CLI process) is short and is repeated every round, so it
    is taken at its fastest repeat, the one least disturbed.  A round is the
    sum of its units at their fastest, and an operation is the median of them.
    """
    best = units.min(axis=0)
    return float(best.sum()), float(np.median(best)) * 1000.0


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run_workload(name: str, seed: int, seconds: float, trace: bool, customize=None):
    """Set up, measure and check one workload; returns (result, detail).

    Set-up is sampled before, between and after the measured rounds, so that
    its fastest sample does not hang on the spell in which the run began.
    """
    from normtrace import audit

    wl = workloads.make(name, seed)
    if customize is not None:
        customize(wl)
    try:
        setup = [set_up(wl) for _ in range(SETUP_REPEATS)]
        wl.build_checks()
        if trace:
            plain_rounds, plain = measure(wl, seconds / 2, setup)
            tracer = Tracer()
            traced_rounds, traced = measure(wl, seconds / 2, setup, tracer)
            rounds = plain_rounds + traced_rounds
            units = traced
        else:
            rounds, units = measure(wl, seconds, setup)
            peak_mb = peak_rss_mb(children=name == "cli_calls")
        setup += [set_up(wl) for _ in range(SETUP_REPEATS)]
        wl.finish(rounds)
    finally:
        wl.close()
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "rounds": rounds,
              "setup_samples": setup, "ops_per_round": wl.ops_per_round,
              "round_s": units.sum(axis=1).tolist()}
    # set-up steps are short, so each is taken at its fastest sample
    numpy_s, normtrace_s, cli_s, prepare_s = (min(col) for col in zip(*setup))
    if trace:
        metrics = layer_metrics(tracer, traced_rounds, wl.ops_per_round, audit.REGISTRY_IDS)
        metrics["cli.import_ms"] = (cli_s * 1000.0, "ms")
        metrics["cli.numpy_import_ms"] = (numpy_s * 1000.0, "ms")
        overhead = summarise(traced)[0] / summarise(plain)[0] - 1.0
        metrics["trace.overhead_pct"] = (overhead * 100.0, "%")
        detail.update(plain_round_s=plain.sum(axis=1).tolist(), spans=tracer.raw())
    else:
        wall, p50 = summarise(units)
        if units.size >= TAIL_SAMPLES:
            detail["op_ms_p99"] = float(np.percentile(units, 99)) * 1000.0
            detail["op_samples"] = units.size
        metrics = {
            "setup_s": (normtrace_s + prepare_s, "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (wl.ops_per_round / wall, "1/s"),
            "op_ms_p50": (p50, "ms"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
    result = {
        "correct": not wl.wrong,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail.update(wrong=wl.wrong, errors=wl.errors)
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no normtrace sources at {PACKAGE}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE.parent))
    import normtrace

    if Path(normtrace.__file__).resolve().parent != PACKAGE:
        print(f"error: normtrace was imported from {normtrace.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2

    result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    detail["result"] = result
    workloads.RESULTS.mkdir(exist_ok=True)
    out = workloads.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for reason in detail["wrong"] + detail["errors"]:
        print(f"failed: {reason}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
