"""End-to-end command line checks through subprocess calls."""
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import normtrace
from normtrace import cli, jsonio
from normtrace.antinorms import kp_antinorm
from normtrace.audit import REGISTRY
from normtrace.bipartite import BipartiteOperator, partial_trace_a, partial_trace_b
from normtrace.entropy import unified_entropy
from normtrace.errors import PreconditionError
from normtrace.norms import kp_norm, schatten_norm


# the child imports the normtrace under test, installed or not
CHILD_PATH = [str(Path(normtrace.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "normtrace", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(CHILD_PATH)},
        **kwargs,
    )


@pytest.fixture()
def matrices(tmp_path):
    rng = np.random.default_rng(99)
    g = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) / np.sqrt(2)
    a = g @ g.conj().T
    rho = a / np.trace(a).real
    paths = {}
    for name, m in [("g", g), ("a", a), ("rho", rho)]:
        p = tmp_path / f"{name}.json"
        jsonio.write_matrix_file(p, m)
        paths[name] = str(p)
    paths["_arrays"] = {"g": g, "a": a, "rho": rho}
    return paths


def test_compute_norm_matches_library(matrices):
    out = run_cli("compute", "norm", matrices["g"], "--k", "2", "--p", "3")
    assert out.returncode == 0
    ref = kp_norm(matrices["_arrays"]["g"], 2, 3.0)
    assert float(out.stdout.strip()) == pytest.approx(ref, rel=1e-14)


def test_compute_norm_inf_token(matrices):
    out = run_cli("compute", "norm", matrices["g"], "--p", "inf")
    assert out.returncode == 0
    ref = schatten_norm(matrices["_arrays"]["g"], math.inf)
    assert float(out.stdout.strip()) == pytest.approx(ref, rel=1e-14)


def test_compute_antinorm_and_entropy(matrices):
    out = run_cli("compute", "antinorm", matrices["a"], "--k", "2", "--p", "0.5")
    assert out.returncode == 0
    assert float(out.stdout.strip()) == pytest.approx(
        kp_antinorm(matrices["_arrays"]["a"], 2, 0.5), rel=1e-13
    )
    out = run_cli("compute", "entropy", matrices["rho"], "--alpha", "2", "--s", "0.5")
    assert out.returncode == 0
    assert float(out.stdout.strip()) == pytest.approx(
        unified_entropy(matrices["_arrays"]["rho"], 2.0, 0.5), rel=1e-13
    )


@pytest.mark.parametrize("alpha,s", [(1.0, 0.5), (1.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.5, 1.0)])
def test_compute_entropy_limits_match_unified_entropy(matrices, capsys, alpha, s):
    code = cli.main(["compute", "entropy", matrices["rho"], "--alpha", str(alpha), "--s", str(s)])
    assert code == 0
    want = unified_entropy(matrices["_arrays"]["rho"], alpha, s)
    assert capsys.readouterr().out == format(want, ".15g") + "\n"


def test_compute_fidelity(matrices):
    out = run_cli(
        "compute", "fidelity", matrices["rho"], "--sigma", matrices["rho"], "--k", "3"
    )
    assert out.returncode == 0
    assert float(out.stdout.strip()) >= 0.0


def test_compute_missing_flag_exits_2(matrices):
    out = run_cli("compute", "norm", matrices["g"])
    assert out.returncode == 2
    assert "error" in out.stderr


def test_compute_bad_file_exits_2(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    out = run_cli("compute", "norm", str(p), "--p", "2")
    assert out.returncode == 2
    out = run_cli("compute", "norm", str(tmp_path / "missing.json"), "--p", "2")
    assert out.returncode == 2


def test_compute_precondition_exits_3(matrices):
    # a Ginibre matrix is not PSD, so anti-norms must refuse it
    out = run_cli("compute", "antinorm", matrices["g"], "--k", "1", "--p", "0.5")
    assert out.returncode == 3
    out = run_cli("compute", "entropy", matrices["a"], "--alpha", "2", "--s", "1")
    assert out.returncode == 3


def test_ptrace_output_and_oracle(matrices):
    out = run_cli("ptrace", matrices["g"], "--dims", "2x3", "--oracle")
    assert out.returncode == 0
    got = jsonio.matrix_from_text(out.stdout)
    w = BipartiteOperator(matrices["_arrays"]["g"], 2, 3)
    assert np.allclose(got, partial_trace_b(w), atol=1e-15)
    assert "oracle deviation" in out.stderr
    # stdout stays a parseable matrix file even with the oracle enabled
    json.loads(out.stdout)


def test_ptrace_over_a(matrices):
    out = run_cli("ptrace", matrices["g"], "--dims", "3x2", "--over", "a")
    assert out.returncode == 0
    got = jsonio.matrix_from_text(out.stdout)
    w = BipartiteOperator(matrices["_arrays"]["g"], 3, 2)
    assert np.allclose(got, partial_trace_a(w), atol=1e-15)


def test_ptrace_oracle_over_a_exits_2(matrices):
    # the twirl oracle reproduces Tr_B only, so it cannot check --over a
    out = run_cli("ptrace", matrices["g"], "--dims", "3x2", "--over", "a", "--oracle")
    assert out.returncode == 2
    assert "--oracle checks Tr_B only" in out.stderr and out.stdout == ""


def test_ptrace_bad_dims(matrices):
    assert run_cli("ptrace", matrices["g"], "--dims", "5").returncode == 2
    assert run_cli("ptrace", matrices["g"], "--dims", "2xx3").returncode == 2
    # shape mismatch between the file and the factorization is a precondition
    assert run_cli("ptrace", matrices["g"], "--dims", "4x4").returncode == 3


def test_audit_reports_are_byte_identical(tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    args = ("audit", "--trials", "3", "--dims", "2x2", "3x2", "--case", "KPN1", "--case", "ET42")
    out1 = run_cli(*args, "--out", str(r1))
    out2 = run_cli(*args, "--out", str(r2))
    assert out1.returncode == 0 and out2.returncode == 0
    assert r1.read_bytes() == r2.read_bytes()
    payload = json.loads(r1.read_text())
    assert [c["id"] for c in payload["cases"]] == ["KPN1", "ET42"]
    assert payload["config"]["trials_per_case"] == 3


def test_audit_stdout_and_summary(tmp_path):
    out = run_cli("audit", "--trials", "2", "--case", "TFSN")
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["cases"][0]["violations"] == 0
    assert "violations" in out.stderr


def test_audit_violation_exit_code():
    # the saturation family sits at equality, so a tolerance far below
    # round-off flags every trial without faking anything
    out = run_cli("audit", "--trials", "2", "--case", "SAT-WRQA", "--tolerance", "1e-30")
    assert out.returncode == 4
    payload = json.loads(out.stdout)
    assert payload["cases"][0]["violations"] > 0


@pytest.mark.parametrize("tolerance", ["inf", "nan"])
def test_audit_non_finite_tolerance_exits_3(capsys, tolerance):
    # an infinite tolerance would hide every violation
    assert cli.main(["audit", "--trials", "1", "--case", "KPN1", "--tolerance", tolerance]) == 3
    out = capsys.readouterr()
    assert "tolerance" in out.err and out.out == ""


def test_audit_unknown_case_exits_2():
    assert run_cli("audit", "--case", "NOPE").returncode == 2


def test_audit_dims_without_pairs_exits_2():
    out = run_cli("audit", "--trials", "1", "--case", "KPN1", "--dims")
    assert out.returncode == 2
    assert "--dims needs at least one MxN pair" in out.stderr and out.stdout == ""


def test_version_flag():
    out = run_cli("--version")
    assert out.returncode == 0
    assert "normtrace" in out.stdout


def test_audit_with_failed_trials_exits_5(monkeypatch, capsys):
    def make_instance(dims, seed):
        raise PreconditionError("instance maker disabled")

    monkeypatch.setitem(REGISTRY, "KPK2", dataclasses.replace(REGISTRY["KPK2"], make_instance=make_instance))
    code = cli.main(["audit", "--case", "KPK2", "--trials", "3"])
    out, err = capsys.readouterr()
    assert code == 5
    (rec,) = json.loads(out)["cases"]
    assert rec["failures"] == 3 and rec["violations"] == 0 and rec["worst_margin"] is None
    assert "0 violations, 3 failures" in err
