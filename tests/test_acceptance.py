"""Acceptance suite: nine end-to-end criteria with stated tolerances.

Every test prints one summary line (visible under pytest -s or in captured
output) and asserts the criterion it reports.
"""
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import normtrace
from normtrace.audit import (
    AuditConfig,
    evaluate_case,
    run_audit,
    sample,
)
from normtrace.bipartite import BipartiteOperator, partial_trace_b, twirl_oracle_b
from normtrace.channels import (
    choi_rank,
    kraus_to_stinespring,
    partial_trace_channel,
    singular_value_conjugation_check,
)
from normtrace.entropy import (
    max_entropy_value,
    renyi_entropy,
    unified_entropy,
    von_neumann_entropy,
)
from normtrace.margins import GRIDS


# the default report, as written by run_audit(AuditConfig()).to_text()
PINNED_REPORT = Path(__file__).parent / "data" / "default_report.json"
PINNED_SHA256 = "456301ef18bd835f15800e4cc001bf7c485063a4bde3ec466003ee5c4426c2ca"
# every float in a case record is a margin, residual or deviation normalized by a
# scale of at least 1, so 1e-12 absolute is 1e-12 of the scale it is measured on
REPORT_RTOL = 1e-12


def _pinned_platform():
    """The build the pinned bytes were written on: numpy 2.4.6 on OpenBLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    return np.__version__ == "2.4.6" and "openblas" in blas.lower()


def _report_mismatches(got, want, path="report"):
    """Paths where two parsed reports differ: floats beyond REPORT_RTOL, anything else at all."""
    if isinstance(want, float) or isinstance(got, float):
        ok = (
            isinstance(got, (int, float))
            and isinstance(want, (int, float))
            and math.isclose(got, want, rel_tol=REPORT_RTOL, abs_tol=REPORT_RTOL)
        )
        return [] if ok else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [m for key in want for m in _report_mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _report_mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def _report(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _ginibre(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def _psd(rng, n):
    g = _ginibre(rng, n)
    return g @ g.conj().T


def _density(rng, n):
    a = _psd(rng, n)
    return a / np.trace(a).real


def _haar_isometry(rng, rows, cols):
    g = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def test_criterion_1_partial_trace_oracle_equivalence():
    rng = np.random.default_rng(20240101)
    start = time.perf_counter()
    worst = 0.0
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3)]:
        for _ in range(200):
            w = BipartiteOperator(_ginibre(rng, m * n), m, n)
            lhs = twirl_oracle_b(w)
            rhs = np.kron(partial_trace_b(w), np.eye(n))
            scale = max(1.0, float(np.abs(w.matrix).max()))
            worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(
        "criterion 1 (twirl oracle)",
        ok,
        f"max scaled deviation {worst:.3e} over 1000 operators in {elapsed:.2f}s",
    )


def test_criterion_2_full_audit_clean():
    start = time.perf_counter()
    report = run_audit(AuditConfig())
    elapsed = time.perf_counter() - start
    failures = sum(c["failures"] for c in report.cases)
    text = report.to_text()
    pinned = PINNED_REPORT.read_bytes().decode("utf-8")
    mismatches = _report_mismatches(json.loads(text), json.loads(pinned))
    # byte equality holds on the pinning build; elsewhere the last digit may move
    exact = text == pinned and hashlib.sha256(text.encode()).hexdigest() == PINNED_SHA256
    ok = (
        report.violations == 0
        and failures == 0
        and elapsed < 60.0
        and not mismatches
        and (exact or not _pinned_platform())
    )
    _report(
        "criterion 2 (full audit)",
        ok,
        f"{len(report.cases)} cases, {report.violations} violations, "
        f"{failures} failures in {elapsed:.1f}s, pinned report byte-identical={exact}, "
        f"mismatches {mismatches[:3]}",
    )


# sha256 of run_audit(config).to_text() beyond the default config, written on
# the pinning build: the dims of the benchmark's large audit at 2 trials per
# case, and the default dims at 70 trials (a 64-trial window and a second one)
# with d read from each dilation
PINNED_CONFIG_SHA256 = {
    **{
        f"large dims, base seed {seed}": (dict(base_seed=seed, dims=((6, 6), (4, 8)), trials_per_case=2), digest)
        for seed, digest in {
            11: "fe3d590f03692de06d5072bc25601765ffd5418a588481d3b8a834d1c6483a9c",
            12: "b5c6b92d2287094b5a24cde8e963aaf7ce415eaadfb4173f8c0f3365fe9ef3ef",
            13: "9de33d969df13c381ed6e07e729d3661aa94ba422534feea6342b184c7995ee2",
            14: "b22d08106836e797494bbd48a22fa2eeaecd367fdf8551c370d8b7204104de79",
            15: "0ebeaf1e0ed45126125b3218080c0cf136e29beaa062b3529d296bb25bb00a38",
            16: "26df4036fc0c5fdf1ae074626f351611ea34759c95c74eb3892db96b6e88a8a3",
        }.items()
    },
    "dim_env, 70 trials": (
        dict(env_dim_mode="dim_env", trials_per_case=70),
        "86fc48672ad5efc36871cdbf44271f232bb06cb469fe365f8783b3f6dc1bac84",
    ),
    # the benchmark's warm-up audit: 20 windows of one trial and one saturator
    "one trial at 2x2, base seed 11": (
        dict(base_seed=11, trials_per_case=1, dims=((2, 2),)),
        "9b7a93c0f5a51ec9e6818fb8560cf528bd54ad81df2a51dd5a46b2bf8d63198a",
    ),
    # 222 seeds, whose hashed chunks of 64 cross case and window boundaries
    "three cases, 70 trials": (
        dict(case_filter=("KPN1", "STCT1", "ET41"), trials_per_case=70),
        "e89acff11a30c34ab31031391266a881b7e5b94168be3b7ef7568680feed6d59",
    ),
}
# sha256 of the bytes of sample("channel", (3, 2, 2), seed).v and of
# sample("unitary", (4,), seed), per seed, written on the pinning build
PINNED_SAMPLE_SHA256 = {
    0: ("d3a1dc7fa31b857e4716b318e1e533ac5a684acbdb8af4bbe9ce8f92cf574cfc",
        "5a846ff4bb01f23e02cca218640484e24b5108e64591714989821ff8bd85bfe0"),
    7: ("bd5325ff673d2f8c68891f756bd2e2287b0f126287a257f69799856f06ab69f8",
        "b722d25a59ac1902bb93f3aa2f4f7206f383c8f49b57701afeea4067054d44d6"),
    2**64 - 1: ("6bb64f2a78b3baace4c6dee305ae3c64efeab1a85658dde5088994c50b51d575",
                "9847468f5e86546ccbbe8b9ddb206fc64797eabdd8cd73c0e79a544b18abe5c4"),
}
# sha256 of sample(kind, dims, seed)'s matrix bytes at seeds 0, 7 and 2**64 - 1;
# the sizes from 8 up sum their traces in numpy's pairwise blocks
PINNED_KIND_SAMPLE_SHA256 = {
    "ginibre": ((3, 5), (
        "d96fa7ef053ed788b80f4cc47ca94075266381ab48e5dfbb748819b6787e135d",
        "24ed707aad5f89e2dfbe5503ecbd5c0d2a44ea101421b49028d44bc41ed11e25",
        "0c761eace1f1fa6eb80658ad04268b7c98c09fe49aaee20bb3ea1946a38d43b7",
    )),
    "psd": ((5,), (
        "1eebd078182afd5cb7d24da04e8575f2c905cd2f2f5f15c6443176aa2fe08396",
        "1aaa6cbadc8b7c9355f2474726b3443840071d5d658f9e34b5e59c90eb9db1dd",
        "1680c3b039505e3be61b83b9326418d89307a0f3828fa5b21e8f6fe36556426e",
    )),
    "pd": ((9,), (
        "24aaeae1d29155da961eb614390d0b8aa71676613502a729c20e5a19f366dc2e",
        "ec1f49ed3d8767a3c0040cbbf323201e7b2d8d49405f88b9cd1c410f68984132",
        "c093d7bae8cb8b31b08a199f02d62553160909caeefe4e4b1a695bb5d629db73",
    )),
    "density": ((12,), (
        "f6ab6d393e4960f6423d5f9a2128d75bb76fa07a35022a3aaa7769f9aeef01fd",
        "0c674d31d0e0e4340fc97c95c4aba135fbf5fb255340af73baa7c883b8e7fd7d",
        "494dc88a90216823b438d1e1569443d54d26a7eb9a4fdbde945967fd67736cec",
    )),
    "bipartite": ((2, 3), (
        "f93c2cf0d49518008bbdfc7922bf5daeba78c6c1e66549ee8cad992ae0d9c9b1",
        "40e63297c6becc428f67cc8decdfb12f26ff10be72db490cc4e5edbf4b0dbcae",
        "e7d536a53509d4f9cff3af962ca795f4934335c8510b6c20bba4fec3bf3c766f",
    )),
    "bipartite_psd": ((3, 3), (
        "6499981a46c435024bbbf685a7c230909381f643311506accf040e1842c808d2",
        "ae9ab6eb52c5e9c494a8e87f0b4dc846065eb8d033bc1d03af57aaf75c011461",
        "eeca135e54be1aecfad937ef1c1c345bd5630e13d3e6e8e8ce4e856abf0b687c",
    )),
    "bipartite_pd": ((4, 3), (
        "1e0f7a41704ccb6ae45de4510ff12c61d34a2ee113a7f97441f15294af6ccd73",
        "a10299d43f7f9467d442a68ad180d25fdb6609226a3c82c55c273bee188ee42c",
        "db1fb81563df84a2b3a279b2831c759e099ef63f81bf6957297b987f0b847e96",
    )),
    "bipartite_density": ((2, 4), (
        "db4f6d45d8314062d75e66e259caed9098b5ae0f0d34d5eb6575efe12cfafbcf",
        "38e8f3481f384e96c114a618a52cfa46d9a2c64f5841e61505187fd482a1ade5",
        "4f5cedea9c2f6c69ab54efc7d1216750178ed7b79ad830aede6b4f7a8becf01c",
    )),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", list(PINNED_CONFIG_SHA256))
def test_criterion_2_reports_beyond_the_default_are_pinned(name):
    if not _pinned_platform():
        pytest.skip("the pinned bytes were written with numpy 2.4.6 on OpenBLAS")
    config, digest = PINNED_CONFIG_SHA256[name]
    report = run_audit(AuditConfig(**config))
    got = _sha256(report.to_text().encode())
    _report(f"criterion 2 ({name})", got == digest, f"report sha256 {got[:12]}…, pinned {digest[:12]}…")


@pytest.mark.parametrize("seed", list(PINNED_SAMPLE_SHA256))
def test_criterion_2_channel_and_unitary_samples_are_pinned(seed):
    if not _pinned_platform():
        pytest.skip("the pinned bytes were written with numpy 2.4.6 on OpenBLAS")
    got = (_sha256(sample("channel", (3, 2, 2), seed).v.tobytes()), _sha256(sample("unitary", (4,), seed).tobytes()))
    _report(f"criterion 2 (samples, seed {seed})", got == PINNED_SAMPLE_SHA256[seed], f"sha256 {got}")


@pytest.mark.parametrize("kind", list(PINNED_KIND_SAMPLE_SHA256))
def test_criterion_2_matrix_samples_are_pinned(kind):
    if not _pinned_platform():
        pytest.skip("the pinned bytes were written with numpy 2.4.6 on OpenBLAS")
    dims, digests = PINNED_KIND_SAMPLE_SHA256[kind]
    made = [sample(kind, dims, seed) for seed in (0, 7, 2**64 - 1)]
    got = tuple(_sha256((x.matrix if isinstance(x, BipartiteOperator) else x).tobytes()) for x in made)
    _report(f"criterion 2 ({kind} samples)", got == digests, f"sha256 {got}")


def test_criterion_3_product_family_saturation():
    rng = np.random.default_rng(20240103)
    worst = 0.0
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 3)]:
        for c in (1.0, 2.5):
            w = BipartiteOperator(c * np.kron(_psd(rng, m), np.eye(n)), m, n)
            for k in range(1, m + 1):
                for p in GRIDS["norm_p"]:
                    worst = max(worst, abs(evaluate_case("KPN1", w, {"k": k, "p": p})))
                for p in GRIDS["antinorm_p"]:
                    worst = max(worst, abs(evaluate_case("KQN1", w, {"k": k, "p": p})))
    ok = worst <= 1e-10
    _report("criterion 3 (saturation family)", ok, f"max equality residual {worst:.3e}")


def test_criterion_4_equality_iff_witnesses():
    from normtrace.norms import kp_norm
    from normtrace.antinorms import kp_antinorm

    flat = np.diag([2.0, 2.0, 1.0]).astype(complex)
    lhs_n = kp_norm(flat, 2, 1.0)
    rhs_n = 2.0 ** 0.5 * kp_norm(flat, 2, 2.0)
    anti = np.diag([1.0, 1.0, 3.0]).astype(complex)
    lhs_a = kp_antinorm(anti, 2, 0.5)
    rhs_a = 2.0 ** (-2.0) * kp_antinorm(anti, 2, 0.25)
    tilted = np.diag([3.0, 2.0, 1.0]).astype(complex)
    strict_n = evaluate_case("TPN2", tilted, {"k": 2, "p": 1.0, "q": 2.0})
    strict_a = evaluate_case("TPN62", tilted, {"k": 2, "p": 0.5, "q": 0.5})
    ok = (
        abs(lhs_n - 4.0) <= 1e-12
        and abs(rhs_n - 4.0) <= 1e-12
        and abs(lhs_a - 4.0) <= 1e-12
        and abs(rhs_a - 4.0) <= 1e-12
        and strict_n > 1e-6
        and strict_a > 1e-6
    )
    _report(
        "criterion 4 (equality iff)",
        ok,
        f"flat sides ({lhs_n:.12f}, {rhs_n:.12f}, {lhs_a:.12f}, {rhs_a:.12f}), "
        f"strict margins ({strict_n:.2e}, {strict_a:.2e})",
    )


def test_criterion_5_entropy_closed_forms_and_saturation():
    worst_closed = 0.0
    for m in (2, 3, 4, 6):
        rho = np.eye(m) / m
        for alpha in (0.3, 0.7, 1.0, 1.5, 3.0):
            for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
                dev = abs(unified_entropy(rho, alpha, s) - max_entropy_value(m, alpha, s))
                worst_closed = max(worst_closed, dev)
    rng = np.random.default_rng(20240105)
    worst_sat = 0.0
    for m, n in [(2, 2), (2, 3), (3, 2), (4, 3)]:
        w = BipartiteOperator(np.kron(_density(rng, m), np.eye(n) / n), m, n)
        for alpha in (0.3, 0.7, 1.0, 1.5, 3.0):
            for s in (-1.0, 0.0, 0.5, 1.0, 2.0):
                worst_sat = max(worst_sat, abs(evaluate_case("ET41", w, {"alpha": alpha, "s": s})))
            worst_sat = max(worst_sat, abs(evaluate_case("ETT41", w, {"alpha": alpha, "s": 1.0})))
            worst_sat = max(worst_sat, abs(evaluate_case("ET42", w, {"alpha": alpha})))
    ok = worst_closed <= 1e-12 and worst_sat <= 1e-10
    _report(
        "criterion 5 (entropy closed forms)",
        ok,
        f"closed form dev {worst_closed:.3e}, product saturation {worst_sat:.3e}",
    )


def test_criterion_6_limit_continuity():
    rng = np.random.default_rng(20240106)
    worst_alpha = 0.0
    worst_s = 0.0
    for i in range(50):
        rho = _density(rng, int(rng.integers(2, 7)))
        vn = von_neumann_entropy(rho)
        for a in (1.0 + 1e-4, 1.0 - 1e-4):
            worst_alpha = max(worst_alpha, abs(renyi_entropy(rho, a) - vn))
        for alpha in (0.5, 2.0):
            r = renyi_entropy(rho, alpha)
            for s in (1e-6, -1e-6):
                worst_s = max(worst_s, abs(unified_entropy(rho, alpha, s) - r))
    ok = worst_alpha <= 1e-3 and worst_s <= 1e-5
    _report(
        "criterion 6 (limit continuity)",
        ok,
        f"alpha branch dev {worst_alpha:.3e}, s branch dev {worst_s:.3e} on 50 densities",
    )


def test_criterion_7_channel_consistency():
    rng = np.random.default_rng(20240107)
    worst = 0.0
    for m, n in [(2, 2), (2, 3), (3, 2)]:
        ch = partial_trace_channel(m, n)
        for _ in range(10):
            q = _ginibre(rng, m * n)
            w = BipartiteOperator(q, m, n)
            for k in range(1, m + 1):
                for p in GRIDS["norm_p"]:
                    a = evaluate_case("STCT1", (ch, q), {"k": k, "p": p})
                    b = evaluate_case("KPN1", w, {"k": k, "p": p})
                    worst = max(worst, abs(a - b))
    k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(0.7)]], dtype=complex)
    k1 = np.array([[0.0, math.sqrt(0.3)], [0.0, 0.0]], dtype=complex)
    damping = kraus_to_stinespring([k0, k1])
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    y = np.array([[0.0, -1j], [1j, 0.0]], dtype=complex)
    z = np.diag([1.0, -1.0]).astype(complex)
    depol = kraus_to_stinespring(
        [
            math.sqrt(1.0 - 3.0 * 0.5 / 4.0) * np.eye(2, dtype=complex),
            math.sqrt(0.5 / 4.0) * x,
            math.sqrt(0.5 / 4.0) * y,
            math.sqrt(0.5 / 4.0) * z,
        ]
    )
    ident = kraus_to_stinespring([np.eye(2, dtype=complex)])
    ranks = (choi_rank(depol), choi_rank(damping), choi_rank(ident))
    ok = worst <= 1e-10 and ranks == (4, 2, 1)
    _report(
        "criterion 7 (channel consistency)",
        ok,
        f"margin agreement {worst:.3e}, Choi ranks {ranks}",
    )


def test_criterion_8_conjugation_cross_check():
    rng = np.random.default_rng(20240108)
    passed = 0
    for _ in range(100):
        rows = int(rng.integers(2, 6))
        cols = int(rng.integers(1, rows + 1))
        v = _haar_isometry(rng, rows, cols)
        q = (rng.standard_normal((cols, cols)) + 1j * rng.standard_normal((cols, cols))) / np.sqrt(2)
        if singular_value_conjugation_check(v, q):
            passed += 1
    ok = passed == 100
    _report("criterion 8 (conjugation check)", ok, f"{passed}/100 pairs agreed")


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    # the child imports the normtrace under test, installed or not
    path = [str(Path(normtrace.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "normtrace", *args], capture_output=True, text=True, env=env
        )

    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    args = ("audit", "--trials", "5", "--case", "KPN1", "--case", "KQN1", "--case", "SAT-WRQA")
    out1 = run(*args, "--out", str(r1))
    out2 = run(*args, "--out", str(r2))
    identical = r1.read_bytes() == r2.read_bytes()
    payload = json.loads(r1.read_text())

    from normtrace import jsonio

    mfile = tmp_path / "m.json"
    rng = np.random.default_rng(20240109)
    jsonio.write_matrix_file(mfile, _ginibre(rng, 4))
    code_ok = run("compute", "norm", str(mfile), "--p", "2").returncode
    code_flags = run("compute", "norm", str(mfile)).returncode
    code_domain = run("compute", "antinorm", str(mfile), "--k", "1", "--p", "0.5").returncode
    code_violation = run(
        "audit", "--trials", "2", "--case", "SAT-WRQA", "--tolerance", "1e-30"
    ).returncode
    codes = (out1.returncode, out2.returncode, code_ok, code_flags, code_domain, code_violation)
    ok = (
        identical
        and codes == (0, 0, 0, 2, 3, 4)
        and payload["cases"][0]["violations"] == 0
    )
    _report(
        "criterion 9 (CLI determinism)",
        ok,
        f"byte-identical={identical}, exit codes {codes}",
    )
