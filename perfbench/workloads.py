"""The four benchmark workloads.

Each workload prepares its inputs from the seed, runs one round of work in
``run``, and checks that round's outputs in ``check``.  A round is a fixed
list of units (a library call, a CLI process, an audit case) and ``run``
times each unit alone; nothing else is timed.  Library functions are looked
up on their modules at call time, so a tracer that swaps module attributes
sees every call.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
TRACER_SCRIPT = Path(__file__).resolve().parent / "tracer.py"

# audit margins: the benchmark recomputes these cases from the report's seeds
RECOMPUTED_CASES = tuple(ref.RECOMPUTED)
MARGIN_ATOL = 1e-13
MARGIN_RTOL = 1e-9


def margin_matches(mine: float, reported) -> bool:
    return reported is not None and abs(mine - reported) <= MARGIN_ATOL + MARGIN_RTOL * abs(reported)


class Workload:
    """Counts of attempted and failed operations, and the reasons for failures."""

    ops_per_round = 0  # each operation is one timed unit

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []  # outputs that disagreed with a check
        self.errors: list[str] = []  # operations that raised
        self.unit_times = array("d")  # seconds per timed unit, round after round
        self.tracer = None  # set during traced rounds

    def fail(self, ops: int, reason: str, wrong: bool) -> None:
        self.failed += ops
        target = self.wrong if wrong else self.errors
        if len(target) < 20:
            target.append(reason)

    def build_checks(self) -> None:
        """Expected values, made once after set-up and outside its timing."""

    def finish(self, rounds: int) -> None:
        """Checks made once per run, after the last round."""

    def close(self) -> None:
        """Release files the workload made."""


# ---------------------------------------------------------------------------
# audit


def report_problems(text: str, expected_trials: int, tolerance: float) -> list[tuple]:
    """(case id, reason, failed trials, output wrong) for each case of a report that fails a check.

    Trials that raised count as failed operations; a record that claims a
    violation, a missing margin, a loose saturation or the wrong trial count
    fails every trial of its case as a wrong output.
    """
    problems = []
    for case in json.loads(text)["cases"]:
        wrong = []
        if case["trials"] != expected_trials:
            wrong.append(f"ran {case['trials']} trials")
        if case["violations"] != 0:
            wrong.append(f"{case['violations']} violations")
        if case["worst_margin"] is None and case["failures"] < case["trials"]:
            wrong.append("no worst margin")
        residual = case["saturation_residual"]
        if residual is not None and not residual <= tolerance:
            wrong.append(f"saturation residual {residual}")
        if wrong:
            problems.append((case["id"], "; ".join(wrong), expected_trials, True))
        elif case["failures"]:
            why = f"{case['failures']} trials raised: {case.get('first_failure')}"
            problems.append((case["id"], why, case["failures"], False))
    return problems


class AuditWorkload(Workload):
    """The audit of every registry case, timed trial by trial.

    A round runs ``run_audit`` once per case with ``case_filter=(case,)``,
    which is ``normtrace audit --case CASE``: the trials, seeds and records
    are those of one unfiltered run of the same config.  The only hook is a
    timestamp taken as each trial's instance maker is entered; a trial's unit
    runs from there to the next trial's, and the case's last trial also holds
    its saturator pass and report.
    """

    def __init__(self, seed: int, **config):
        super().__init__(seed)
        from normtrace import audit

        self.audit = audit
        self.config = audit.AuditConfig(base_seed=seed, **config)
        self.case_configs = [
            dataclasses.replace(self.config, case_filter=(cid,)) for cid in audit.REGISTRY_IDS
        ]
        self.warmup = audit.AuditConfig(base_seed=seed, trials_per_case=1, dims=((2, 2),))
        self.ops_per_round = len(self.case_configs) * self.config.trials_per_case
        self.first_texts = None

    def prepare(self) -> None:
        self.audit.run_audit(self.warmup).to_text()

    def run(self):
        clock = time.perf_counter
        registry = self.audit.REGISTRY
        marks = []

        def marked(make):
            def make_instance(dims, seed):
                marks.append(clock())
                return make(dims, seed)

            return make_instance

        texts = []
        for cfg in self.case_configs:
            (cid,) = cfg.case_filter
            case = registry[cid]
            registry[cid] = dataclasses.replace(case, make_instance=marked(case.make_instance))
            marks.clear()
            try:
                t0 = clock()
                texts.append(self.audit.run_audit(cfg).to_text())
                t1 = clock()
            finally:
                registry[cid] = case
            if len(marks) != cfg.trials_per_case:
                raise RuntimeError(f"{cid}: run_audit made {len(marks)} instances for {cfg.trials_per_case} trials")
            bounds = [t0, *marks[1:], t1]
            self.unit_times.extend(b - a for a, b in zip(bounds, bounds[1:]))
        return texts

    def check(self, texts) -> None:
        trials = self.config.trials_per_case
        self.attempted += self.ops_per_round
        if self.first_texts is None:
            self.first_texts = texts
            self.problems = [
                p for text in texts for p in report_problems(text, trials, self.config.tolerance)
            ]
        for cfg, text, first in zip(self.case_configs, texts, self.first_texts):
            if text != first:
                self.fail(trials, f"{cfg.case_filter[0]}: two reports from one config differ", wrong=True)
        for cid, why, ops, wrong in self.problems:
            self.fail(ops, f"{cid}: {why}", wrong)

    def finish(self, rounds: int) -> None:
        flagged = {p[0] for p in self.problems}
        for text in self.first_texts:
            report = json.loads(text)
            (case,) = report["cases"]
            if case["id"] not in RECOMPUTED_CASES or case["id"] in flagged:
                continue
            mine = ref.worst_margin(case["id"], report["config"])
            if not margin_matches(mine, case["worst_margin"]):
                self.fail(
                    rounds * self.config.trials_per_case,
                    f"{case['id']}: worst margin {case['worst_margin']!r}, recomputed {mine!r}",
                    wrong=True,
                )


# ---------------------------------------------------------------------------
# library calls

LIBRARY_DIMS = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 3), (3, 4), (4, 4), (6, 6))
SETS_PER_DIMS = 2
NORM_PS = (1.0, 1.5, 2.0, 3.0, 10.0, math.inf)
ANTINORM_PS = (0.25, 0.5, 0.75, 1.0)
ALPHAS = (0.3, 0.7, 1.0, 1.5, 3.0)
SS = (-1.0, 0.0, 0.5, 1.0, 2.0)
SCALAR_RTOL = 1e-10
# partial_fidelity takes singular values as square roots of eigenvalues of A^dag A,
# which loses half the digits of the smallest ones
FIDELITY_RTOL = 1e-7


def _scalar_check(expected: float, rtol: float = SCALAR_RTOL):
    def check(got) -> bool:
        return abs(float(got) - expected) <= rtol * max(1.0, abs(expected))

    return check


def _matrix_check(expected: np.ndarray, rtol: float = SCALAR_RTOL):
    scale = max(1.0, float(np.abs(expected).max()))

    def check(got) -> bool:
        got = np.asarray(got)
        return got.shape == expected.shape and float(np.abs(got - expected).max()) <= rtol * scale

    return check


def _exact_check(expected: np.ndarray):
    def check(got) -> bool:
        return np.array_equal(got, expected)

    return check


class LibraryWorkload(Workload):
    """Single public calls, one at a time, on seeded inputs of mixed sizes."""

    def prepare(self) -> None:
        from normtrace import antinorms, bipartite, channels, entropy, jsonio, linalg, norms

        rng = np.random.default_rng(self.seed)
        calls = []
        for m, n in LIBRARY_DIMS:
            for _ in range(SETS_PER_DIMS):
                mn = m * n
                w = bipartite.BipartiteOperator(ref.ginibre(rng, mn, mn), m, n)
                p_mat = ref.psd(rng, mn)
                rho, sigma = ref.density(rng, mn), ref.density(rng, mn)
                d = math.ceil(m / n) + int(rng.integers(0, 3))
                ch = channels.StinespringChannel(ref.isometry(rng, n * d, m), m, n, d)
                q = ref.ginibre(rng, m, m)
                k, kk = int(rng.integers(1, mn + 1)), int(rng.integers(1, mn))
                p, pa = NORM_PS[rng.integers(len(NORM_PS))], ANTINORM_PS[rng.integers(len(ANTINORM_PS))]
                alpha, s = ALPHAS[rng.integers(len(ALPHAS))], SS[rng.integers(len(SS))]
                args = (w, p_mat, rho, sigma, ch, q, k, kk, p, pa, alpha, s)
                calls += [
                    ("kp_norm", lambda w=w, k=k, p=p: norms.kp_norm(w.matrix, k, p), args),
                    ("schatten_norm", lambda w=w, p=p: norms.schatten_norm(w.matrix, p), args),
                    ("kp_antinorm", lambda a=p_mat, k=k, p=pa: antinorms.kp_antinorm(a, k, p), args),
                    ("schatten_antinorm", lambda a=p_mat, p=pa: antinorms.schatten_antinorm(a, p), args),
                    ("unified_entropy", lambda r=rho, a=alpha, s=s: entropy.unified_entropy(r, a, s), args),
                    ("partial_trace_a", lambda w=w: bipartite.partial_trace_a(w), args),
                    ("partial_trace_b", lambda w=w: bipartite.partial_trace_b(w), args),
                    ("twirl_oracle_b", lambda w=w: bipartite.twirl_oracle_b(w), args),
                    ("channel_apply", lambda ch=ch, q=q: ch.apply(q), args),
                    ("choi_rank", lambda ch=ch: channels.choi_rank(ch), args),
                    ("psd_power", lambda a=p_mat: linalg.psd_power(a, 0.5), args),
                    ("partial_fidelity", lambda r=rho, g=sigma, k=kk: antinorms.partial_fidelity(r, g, k), args),
                    (
                        "matrix_round_trip",
                        lambda q=q: jsonio.matrix_from_text(jsonio.matrix_to_text(q)),
                        args,
                    ),
                ]
        self.calls = calls
        self.ops_per_round = len(calls)
        for _, call, _ in calls:
            call()

    def build_checks(self) -> None:
        self.checks = [self._expected(kind, *args) for kind, _, args in self.calls]

    @staticmethod
    def _expected(kind, w, p_mat, rho, sigma, ch, q, k, kk, p, pa, alpha, s):
        mat, m, n = w.matrix, w.dim_a, w.dim_b
        if kind == "kp_norm":
            return _scalar_check(ref.kp_gauge(ref.singular_values(mat), k, p))
        if kind == "schatten_norm":
            return _scalar_check(ref.kp_gauge(ref.singular_values(mat), m * n, p))
        if kind == "kp_antinorm":
            return _scalar_check(ref.kp_anti(ref.psd_eigenvalues(p_mat), k, pa))
        if kind == "schatten_antinorm":
            return _scalar_check(ref.kp_anti(ref.psd_eigenvalues(p_mat), m * n, pa))
        if kind == "unified_entropy":
            return _scalar_check(ref.entropy(np.linalg.eigvalsh(rho), alpha, s))
        if kind == "partial_trace_a":
            return _matrix_check(ref.partial_trace_a(mat, m, n))
        if kind == "partial_trace_b":
            return _matrix_check(ref.partial_trace_b(mat, m, n))
        if kind == "twirl_oracle_b":
            return _matrix_check(np.kron(ref.partial_trace_b(mat, m, n), np.eye(n)))
        if kind == "channel_apply":
            return _matrix_check(ref.channel_apply(ch.v, ch.dim_env, q))
        if kind == "choi_rank":
            rank = ref.choi_rank(ch.v, ch.dim_env)
            return lambda got: got == rank
        if kind == "psd_power":
            return _matrix_check(ref.psd_power(p_mat, 0.5))
        if kind == "partial_fidelity":
            return _scalar_check(ref.partial_fidelity(rho, sigma, kk), FIDELITY_RTOL)
        if kind == "matrix_round_trip":
            return _exact_check(q)
        raise KeyError(kind)

    def run(self):
        clock = time.perf_counter
        times = self.unit_times
        results = []
        for _, call, _ in self.calls:
            t0 = clock()
            try:
                out = call()
            except Exception as exc:  # counted as a failed operation
                out = exc
            times.append(clock() - t0)
            results.append(out)
        return results

    def check(self, results) -> None:
        self.attempted += len(results)
        for (kind, _, _), expect, got in zip(self.calls, self.checks, results):
            if isinstance(got, Exception):
                self.fail(1, f"{kind}: {type(got).__name__}: {got}", wrong=False)
            elif not expect(got):
                self.fail(1, f"{kind}: result disagrees with the numpy reference", wrong=True)


# ---------------------------------------------------------------------------
# CLI calls

CLI_AUDIT_CASES = ("KPN1", "STCTP")  # both recomputed by reference.py
CLI_AUDIT_TRIALS = 4
CLI_AUDIT_DIMS = ((2, 3),)
CLI_TIMEOUT_S = 60
CLI_RTOL = 1e-12
ORACLE_MAX_DEVIATION = 1e-10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _parse_matrix_text(text: str) -> np.ndarray:
    obj = json.loads(text)
    data = np.array(obj["data"], dtype=float)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


class CliWorkload(Workload):
    """Fresh-process ``normtrace`` calls, one at a time, on matrix files made at set-up."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.command = [sys.executable, "-m", "normtrace"]
        self.env = child_env()
        self.work = RESULTS / f"cli-work-{os.getpid()}"

    def prepare(self) -> None:
        from normtrace import jsonio

        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        rng = np.random.default_rng(self.seed)
        self.mats = {
            "g": ref.ginibre(rng, 6, 6),
            "a": ref.psd(rng, 6),
            "rho": ref.density(rng, 6),
            "sigma": ref.density(rng, 6),
            "w": ref.ginibre(rng, 12, 12),
        }
        paths = {}
        for name, mat in self.mats.items():
            paths[name] = str(self.work / f"{name}.json")
            jsonio.write_matrix_file(paths[name], mat)
        audit_args = ["audit", "--seed", str(self.seed), "--trials", str(CLI_AUDIT_TRIALS), "--dims"]
        audit_args += [f"{m}x{n}" for m, n in CLI_AUDIT_DIMS]
        for cid in CLI_AUDIT_CASES:
            audit_args += ["--case", cid]
        self.commands = [
            ("norm", ["compute", "norm", paths["g"], "--k", "2", "--p", "3"]),
            ("antinorm", ["compute", "antinorm", paths["a"], "--k", "2", "--p", "0.5"]),
            ("entropy", ["compute", "entropy", paths["rho"], "--alpha", "2", "--s", "0.5"]),
            ("fidelity", ["compute", "fidelity", paths["rho"], "--sigma", paths["sigma"], "--k", "2"]),
            ("ptrace_b", ["ptrace", paths["w"], "--dims", "3x4", "--over", "b", "--oracle"]),
            ("ptrace_a", ["ptrace", paths["w"], "--dims", "3x4", "--over", "a"]),
            ("audit", audit_args),
        ]
        self.ops_per_round = len(self.commands)
        self._call(self.commands[0][1], None)

    def build_checks(self) -> None:
        mats = self.mats
        self.expected = {
            "norm": ref.kp_gauge(ref.singular_values(mats["g"]), 2, 3.0),
            "antinorm": ref.kp_anti(ref.psd_eigenvalues(mats["a"]), 2, 0.5),
            "entropy": ref.entropy(np.linalg.eigvalsh(mats["rho"]), 2.0, 0.5),
            "fidelity": ref.partial_fidelity(mats["rho"], mats["sigma"], 2),
            "ptrace_b": ref.partial_trace_b(mats["w"], 3, 4),
            "ptrace_a": ref.partial_trace_a(mats["w"], 3, 4),
        }
        # the rest of the config (grids, tolerance) is read from the report's echo
        self.audit_config = {
            "base_seed": self.seed,
            "trials_per_case": CLI_AUDIT_TRIALS,
            "dims": [list(d) for d in CLI_AUDIT_DIMS],
        }

    def _call(self, args, stats_path):
        """One child process; under a tracer it runs tracer.py, which writes its spans to stats_path."""
        cmd = self.command
        if stats_path is not None:
            cmd = [sys.executable, str(TRACER_SCRIPT), str(stats_path), "--"]
        return subprocess.run(
            cmd + args, capture_output=True, text=True, env=self.env, cwd=ROOT, timeout=CLI_TIMEOUT_S
        )

    def run(self):
        clock = time.perf_counter
        stats_path = self.work / "trace.json" if self.tracer is not None else None
        outs = []
        for kind, args in self.commands:
            t0 = clock()
            try:
                proc = self._call(args, stats_path)
            except subprocess.TimeoutExpired as exc:
                proc = exc
            self.unit_times.append(clock() - t0)
            if stats_path is not None and stats_path.exists():
                self.tracer.merge(json.loads(stats_path.read_text()))
                stats_path.unlink()
            outs.append((kind, proc))
        return outs

    def check(self, outs) -> None:
        self.attempted += len(outs)
        for kind, proc in outs:
            if isinstance(proc, subprocess.TimeoutExpired):
                self.fail(1, f"{kind}: timed out", wrong=False)
                continue
            if proc.returncode != 0:
                self.fail(1, f"{kind}: exit {proc.returncode}: {proc.stderr.strip()[-200:]}", wrong=False)
                continue
            try:
                ok = self._output_ok(kind, proc)
            except (ValueError, KeyError, IndexError) as exc:
                ok = False
                kind = f"{kind} ({type(exc).__name__}: {exc})"
            if not ok:
                self.fail(1, f"{kind}: output disagrees with the in-process reference", wrong=True)

    def _output_ok(self, kind, proc) -> bool:
        if kind in ("norm", "antinorm", "entropy"):
            return _scalar_check(self.expected[kind], CLI_RTOL)(float(proc.stdout))
        if kind == "fidelity":
            return _scalar_check(self.expected[kind], FIDELITY_RTOL)(float(proc.stdout))
        if kind in ("ptrace_a", "ptrace_b"):
            ok = _matrix_check(self.expected[kind], CLI_RTOL)(_parse_matrix_text(proc.stdout))
            if kind == "ptrace_b":
                dev = float(proc.stderr.split("oracle deviation", 1)[1].split()[0])
                ok = ok and dev <= ORACLE_MAX_DEVIATION
            return ok
        report = json.loads(proc.stdout)
        config = report["config"]
        if any(config[key] != value for key, value in self.audit_config.items()):
            return False
        if report_problems(proc.stdout, CLI_AUDIT_TRIALS, config["tolerance"]):
            return False
        by_id = {c["id"]: c for c in report["cases"]}
        if sorted(by_id) != sorted(CLI_AUDIT_CASES):
            return False
        return all(
            margin_matches(ref.worst_margin(cid, config), by_id[cid]["worst_margin"]) for cid in CLI_AUDIT_CASES
        )

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# The default config at 40 of its 200 trials per case: the first 40, identical to
# those of the full default audit.  A full audit takes about 5 s, so a 25 s run
# would repeat each trial only about 5 times, too few for the fastest repeat to
# escape a busy spell of this machine (its wall_s spread 31 % over ten runs).
DEFAULT_AUDIT_TRIALS = 40


def make(name: str, seed: int) -> Workload:
    if name == "audit_default":
        return AuditWorkload(seed, trials_per_case=DEFAULT_AUDIT_TRIALS)
    if name == "audit_large":
        return AuditWorkload(seed, dims=((6, 6), (4, 8)), trials_per_case=2)
    if name == "library_calls":
        return LibraryWorkload(seed)
    if name == "cli_calls":
        return CliWorkload(seed)
    raise KeyError(name)


WORKLOADS = ("audit_default", "audit_large", "library_calls", "cli_calls")
