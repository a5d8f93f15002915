"""End-to-end command line checks through subprocess calls."""
import argparse
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
from normtrace.antinorms import kp_antinorm, schatten_antinorm
from normtrace.audit import ENV_DIM_MODES, REGISTRY, AuditConfig
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


def test_compute_norm_takes_a_rectangular_matrix_with_k(tmp_path, capsys):
    # the (k, p) norm is the gauge of the singular values, of a matrix of any shape
    g = np.arange(6.0).reshape(2, 3) + 1j
    path = tmp_path / "g23.json"
    jsonio.write_matrix_file(path, g)
    assert cli.main(["compute", "norm", str(path), "--k", "2", "--p", "2"]) == 0
    s = np.linalg.svd(g, compute_uv=False)
    assert float(capsys.readouterr().out) == pytest.approx(math.sqrt(s[0] ** 2 + s[1] ** 2), rel=1e-14)


@pytest.mark.parametrize("token", ["inf", "+inf", "Infinity", " INF "])
def test_parse_p_reads_every_spelling_of_inf(matrices, capsys, token):
    assert cli.main(["compute", "norm", matrices["g"], "--p", token]) == 0
    assert capsys.readouterr().out == format(schatten_norm(matrices["_arrays"]["g"], math.inf), ".15g") + "\n"


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


def test_compute_reads_a_negative_exponent_in_both_spellings(matrices, capsys):
    # argparse reads a word such as -1e-3 after --p as an option, so that spelling is written --p=-1e-3
    want = format(schatten_antinorm(matrices["_arrays"]["a"], -1e-3), ".15g") + "\n"
    for options in (["--p=-1e-3"], ["--p", "-0.001"]):
        assert cli.main(["compute", "antinorm", matrices["a"], *options]) == 0
        assert capsys.readouterr() == (want, "")


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


@pytest.mark.parametrize("kind,options,unread", [
    # it printed its value without the option and exited 0; argparse cannot tie --ambient-dim to --k
    ("antinorm", ("--p", "0.5", "--ambient-dim", "5"), "without --k does not read --ambient-dim"),
])
def test_compute_rejects_options_its_kind_does_not_read(tmp_path, capsys, kind, options, unread):
    path = tmp_path / "diag.json"
    jsonio.write_matrix_file(path, np.diag([1.0, 2.0, 3.0]))
    assert cli.main(["compute", kind, str(path), *options]) == 2
    assert capsys.readouterr().err == f"error: kind {kind!r} {unread}\n"


def _kind_parsers():
    (commands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (kinds,) = [a for a in commands.choices["compute"]._actions if isinstance(a, argparse._SubParsersAction)]
    return {kind: {a.option_strings[-1]: a for a in parser._actions if a.option_strings and a.dest != "help"}
            for kind, parser in kinds.choices.items()}


# each compute kind's options, read off the parser, and each option that another kind declares and it does not
KIND_OPTIONS = _kind_parsers()
FOREIGN_OPTIONS = [(kind, option) for kind, own in KIND_OPTIONS.items()
                   for option in dict.fromkeys(o for x in KIND_OPTIONS.values() for o in x) if option not in own]


@pytest.mark.parametrize("kind,option", FOREIGN_OPTIONS, ids=[" ".join(x) for x in FOREIGN_OPTIONS])
def test_compute_refuses_every_option_another_kind_declares(tmp_path, capsys, kind, option):
    path = tmp_path / "diag.json"
    jsonio.write_matrix_file(path, np.diag([1.0, 2.0, 3.0]))
    # a value each option takes; the value of an option the kind does not declare is never read
    values = {"--p": "1", "--k": "1", "--ambient-dim": "3", "--alpha": "2", "--s": "1", "--sigma": str(path)}
    needed = [x for o, a in KIND_OPTIONS[kind].items() if a.required for x in (o, values[o])]
    assert cli.main(["compute", kind, str(path), *needed, option, values[option]]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: unrecognized arguments: {option} {values[option]}\n"


def test_compute_rejects_an_option_no_kind_lists(tmp_path, capsys):
    # an option that no kind declares is refused as one that another kind declares is
    path = tmp_path / "diag.json"
    jsonio.write_matrix_file(path, np.diag([1.0, 2.0, 3.0]))
    assert cli.main(["compute", "entropy", str(path), "--alpha", "2", "--s", "1", "--extra-dim", "3"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: unrecognized arguments: --extra-dim 3\n"


def test_compute_kind_options_are_spelled_in_full(tmp_path, capsys):
    # with abbreviations on, --amb would be read as --ambient-dim, and the [fidelity --s] case above as --sigma
    path = tmp_path / "diag.json"
    jsonio.write_matrix_file(path, np.diag([1.0, 2.0, 3.0]))
    assert cli.main(["compute", "antinorm", str(path), "--k", "2", "--p", "0.5", "--amb", "5"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: unrecognized arguments: --amb 5\n"


def test_compute_antinorm_reads_the_ambient_dimension_with_k(tmp_path, capsys):
    path = tmp_path / "diag.json"
    jsonio.write_matrix_file(path, np.diag([1.0, 2.0, 3.0]))
    assert cli.main(["compute", "antinorm", str(path), "--k", "3", "--p", "0.5", "--ambient-dim", "5"]) == 0
    expected = kp_antinorm(np.diag([1.0, 2.0, 3.0]), 3, 0.5, ambient_dim=5)
    assert float(capsys.readouterr().out) == pytest.approx(expected, rel=1e-14)
    assert expected != pytest.approx(kp_antinorm(np.diag([1.0, 2.0, 3.0]), 3, 0.5))


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
def test_audit_non_finite_tolerance_exits_2(capsys, tolerance):
    # an infinite tolerance would hide every violation; AuditConfig's refusal names the option, so it is an argument error
    assert cli.main(["audit", "--trials", "1", "--case", "KPN1", "--tolerance", tolerance]) == 2
    out = capsys.readouterr()
    assert out.err == f"error: tolerance must be a finite positive real number, got {float(tolerance)!r}\n"
    assert out.out == ""


@pytest.mark.parametrize("options,message", [
    (("--trials", "0"), "trials_per_case must be at least 1"),
    (("--env-dim", "X"), f"unknown env_dim_mode 'X', expected one of {ENV_DIM_MODES}"),
    (("--case", "KPN1", "--case", "X"), "unknown case ids ['X']"),
], ids=["trials-0", "env-dim-X", "case-X"])
def test_audit_config_refusals_exit_2_before_the_run(monkeypatch, capsys, options, message):
    def run_audit(config):
        raise AssertionError("the audit ran")

    monkeypatch.setattr(normtrace.audit, "run_audit", run_audit)
    assert cli.main(["audit", *options]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_audit_unknown_case_exits_2():
    assert run_cli("audit", "--case", "NOPE").returncode == 2


def test_audit_dims_without_pairs_exits_2():
    out = run_cli("audit", "--trials", "1", "--case", "KPN1", "--dims")
    assert out.returncode == 2
    assert "--dims" in out.stderr and out.stdout == ""


def test_audit_dims_flags_accumulate(capsys):
    # repeated --dims flags keep every pair, as repeated --case flags keep every id
    assert cli.main(["audit", "--trials", "1", "--case", "KPN1", "--dims", "2x3", "--dims", "3x2", "4x3"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["dims"] == [[2, 3], [3, 2], [4, 3]]
    # a --dims with no pair is refused wherever it stands
    assert cli.main(["audit", "--trials", "1", "--case", "KPN1", "--dims", "2x3", "--dims"]) == 2
    out = capsys.readouterr()
    assert "--dims" in out.err and out.out == ""


def test_audit_out_to_an_unwritable_path_exits_2_before_the_run(monkeypatch, tmp_path, capsys):
    def run_audit(config):
        raise AssertionError("the audit ran")

    monkeypatch.setattr(normtrace.audit, "run_audit", run_audit)
    path = tmp_path / "missing_dir" / "r.json"
    assert cli.main(["audit", "--trials", "1", "--case", "KPN1", "--out", str(path)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(f"error: cannot write {path}: ") and out == "" and not path.parent.exists()


def test_audit_options_are_the_config_fields():
    # each config field has exactly one audit option, named by the field, and a bare audit sets none of them, so
    # every default and check is AuditConfig's own
    (commands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for a in commands.choices["audit"]._actions} - {"help"}
    assert dests == {f.name for f in dataclasses.fields(AuditConfig)} | {"out"}
    assert vars(cli._build_parser().parse_args(["audit"])) == {"command": "audit", "func": cli._run_audit, "out": None}


def test_a_bare_audit_runs_the_default_config(monkeypatch, capsys):
    configs = []

    def run_audit(config):
        configs.append(config)
        raise AssertionError("stop")

    monkeypatch.setattr(normtrace.audit, "run_audit", run_audit)
    with pytest.raises(AssertionError, match="stop"):
        cli.main(["audit"])
    assert configs == [AuditConfig()]


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


def test_audit_with_non_finite_margins_exits_5(monkeypatch, capsys):
    # a NaN in the first grid column used to make worst_margin NaN, which the
    # report writer refuses; now each such instance counts as a failure
    kpn1 = REGISTRY["KPN1"]

    def evaluate(sp, grid):
        margins = kpn1.evaluate(sp, grid).copy()
        margins[:, 0] = np.nan
        return margins

    monkeypatch.setitem(REGISTRY, "KPN1", dataclasses.replace(kpn1, evaluate=evaluate))
    code = cli.main(["audit", "--case", "KPN1", "--trials", "3", "--dims", "2x2"])
    out, err = capsys.readouterr()
    assert code == 5
    (rec,) = json.loads(out)["cases"]
    assert rec["failures"] == 4 and rec["violations"] == 0
    assert rec["worst_margin"] is None and rec["saturation_residual"] is None
    assert rec["first_failure"] == "non-finite margin nan in KPN1 trial 0 at k=1, p=1.0"
    assert "0 violations, 4 failures" in err
