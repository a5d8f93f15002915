"""Registry, samplers, and the audit runner."""
import dataclasses

import numpy as np
import pytest

from normtrace import audit, channels, margins
from normtrace.antinorms import kp_antinorm
from normtrace.audit import (
    DEFAULT_DIMS,
    REGISTRY,
    REGISTRY_IDS,
    AuditConfig,
    evaluate_case,
    run_audit,
    sample,
)
from normtrace.bipartite import BipartiteOperator
from normtrace.channels import StinespringChannel
from normtrace.errors import (
    BadDimsError,
    ExponentRangeError,
    KindMismatchError,
    PreconditionError,
    RankRangeError,
)

EXPECTED_IDS = (
    "KPN1",
    "SPN1",
    "TFSN",
    "KPK1",
    "KPK2",
    "TPN2",
    "CPN1",
    "KQN1",
    "KQN2",
    "KQK1",
    "TPN62",
    "STCT1",
    "STCTP",
    "STCT2",
    "STCTPP",
    "ET41",
    "ETT41",
    "ET42",
    "STCTEP",
    "SAT-WRQA",
)


def test_registry_order_and_ids():
    assert REGISTRY_IDS == EXPECTED_IDS
    for cid, case in REGISTRY.items():
        assert case.id == cid
        assert case.description
        assert case.paper_eq


@pytest.mark.parametrize("kind,dims", [
    ("ginibre", (3, 4)),
    ("psd", (3,)),
    ("pd", (4,)),
    ("density", (3,)),
    ("unitary", (4,)),
    ("bipartite", (2, 3)),
    ("bipartite_psd", (2, 2)),
    ("bipartite_pd", (3, 2)),
    ("bipartite_density", (2, 3)),
    ("channel", (3, 2, 2)),
])
def test_sample_deterministic(kind, dims):
    a = sample(kind, dims, 123)
    b = sample(kind, dims, 123)
    c = sample(kind, dims, 124)
    if isinstance(a, BipartiteOperator):
        assert np.array_equal(a.matrix, b.matrix)
        assert not np.array_equal(a.matrix, c.matrix)
    elif isinstance(a, StinespringChannel):
        assert np.array_equal(a.v, b.v)
        assert not np.array_equal(a.v, c.v)
    else:
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_sample_kind_properties():
    a = sample("psd", (4,), 5)
    assert np.linalg.eigvalsh(a).min() >= -1e-12
    d = sample("density", (4,), 5)
    assert np.trace(d).real == pytest.approx(1.0, abs=1e-12)
    u = sample("unitary", (3,), 5)
    assert np.allclose(u @ u.conj().T, np.eye(3), atol=1e-12)
    p = sample("pd", (3,), 5)
    assert np.linalg.eigvalsh(p).min() > 0
    w = sample("bipartite_density", (2, 3), 5)
    assert (w.dim_a, w.dim_b) == (2, 3)
    assert np.trace(w.matrix).real == pytest.approx(1.0, abs=1e-12)


def test_sample_rejects_bad_requests():
    with pytest.raises(KindMismatchError):
        sample("nope", (2,), 1)
    with pytest.raises(BadDimsError):
        sample("psd", (2, 2), 1)
    with pytest.raises(BadDimsError):
        sample("bipartite", (2,), 1)
    with pytest.raises(BadDimsError):
        sample("psd", (0,), 1)
    with pytest.raises(BadDimsError):
        sample("channel", (4, 1, 2), 1)


def test_instance_kinds_have_their_declared_form():
    for kind, (declared, build) in audit.KINDS.items():
        inst = build(np.random.default_rng(3), 2, 3)
        assert margins.form(inst)[0] == declared, kind
    for cid, case in REGISTRY.items():
        dims = (3, 2) if case.form == "channel" else (2, 2)
        made = (case.make_instance(dims, 5), case.saturator(dims, 5))
        assert [margins.form(inst)[0] for inst in made] == [case.form] * 2, cid


def test_evaluate_case_product_state_margins_vanish():
    r = sample("psd", (3,), 7)
    w = BipartiteOperator(np.kron(r, np.eye(2)), 3, 2)
    for k in (1, 2, 3):
        for p in (1.0, 2.0, np.inf):
            assert abs(evaluate_case("KPN1", w, {"k": k, "p": p})) <= 1e-12
        assert abs(evaluate_case("KQN1", w, {"k": k, "p": 0.5})) <= 1e-12
    assert abs(evaluate_case("SPN1", w, {"p": 3.0})) <= 1e-12


def test_evaluate_case_known_equality_points():
    flat = np.diag([2.0, 2.0, 1.0]).astype(complex)
    assert evaluate_case("TPN2", flat, {"k": 2, "p": 1.0, "q": 2.0}) == pytest.approx(0.0, abs=1e-12)
    anti_flat = np.diag([1.0, 1.0, 3.0]).astype(complex)
    assert evaluate_case("TPN62", anti_flat, {"k": 2, "p": 0.5, "q": 0.5}) == pytest.approx(
        0.0, abs=1e-12
    )
    tilted = np.diag([3.0, 2.0, 1.0]).astype(complex)
    assert evaluate_case("TPN2", tilted, {"k": 2, "p": 1.0, "q": 2.0}) > 1e-6
    assert evaluate_case("TPN62", tilted, {"k": 2, "p": 0.5, "q": 0.5}) > 1e-6


def test_kqn1_holds_on_rank_deficient_products():
    # W = R (x) I_3 with R a rank-2 4x4 Wishart matrix: eigvalsh returns W's
    # exact zeros as round-off of about 1e-16, which a power p = 0.25 would
    # raise to about 1e-4 each
    for seed in range(30):
        rng = np.random.default_rng(seed)
        g = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))) / np.sqrt(2)
        w = BipartiteOperator(np.kron(g @ g.conj().T, np.eye(3)), 4, 3)
        for k in range(1, 5):
            assert evaluate_case("KQN1", w, {"k": k, "p": 0.25}) >= -1e-9
        # R's nonzero eigenvalues are those of g^dag g, each of multiplicity 3 in W
        lam = np.linalg.eigvalsh(g.conj().T @ g)
        expected = (3 * (lam**0.25).sum()) ** 4
        assert kp_antinorm(w.matrix, 12, 0.25) == pytest.approx(expected, rel=1e-12)


def test_entropy_bounds_hold_on_rank_deficient_products():
    # W = R (x) I_3 / 3 with R a rank-2 density on 4 dimensions: half of W's
    # spectrum is round-off of exact zeros, which the entropies read as 0
    margins = {"ET41": [], "ETT41": [], "ET42": []}
    for seed in range(30):
        rng = np.random.default_rng(seed)
        g = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))) / np.sqrt(2)
        r = g @ g.conj().T
        w = BipartiteOperator(np.kron(r / np.trace(r).real, np.eye(3) / 3), 4, 3)
        for alpha in audit.ALPHA_GRID:
            margins["ETT41"].append(evaluate_case("ETT41", w, {"alpha": alpha}))
            margins["ET42"].append(evaluate_case("ET42", w, {"alpha": alpha}))
            for s in audit.S_GRID:
                margins["ET41"].append(evaluate_case("ET41", w, {"alpha": alpha, "s": s}))
    for cid, values in margins.items():
        assert min(values) >= -1e-9, cid


def test_run_audit_edge_shapes():
    # one-dimensional factors: Tr_B of an m x 1 operator is itself, and a 1 x n
    # operator traces to a scalar
    report = run_audit(AuditConfig(trials_per_case=8, dims=((1, 3), (3, 1), (1, 1))))
    assert report.violations == 0
    for rec in report.cases:
        assert rec["failures"] == 0, rec
        assert rec["saturation_residual"] is not None and rec["saturation_residual"] <= 1e-12, rec


@pytest.mark.parametrize("cid,params,error", [
    ("KPN1", {"k": 0, "p": 2.0}, RankRangeError),
    ("KPN1", {"k": 3, "p": 2.0}, RankRangeError),
    ("KPN1", {"k": 1, "p": 0.5}, ExponentRangeError),
    ("SPN1", {"p": 0.0}, ExponentRangeError),
    ("KPK1", {"k": 3}, RankRangeError),
    ("TPN2", {"k": 4, "p": 1.0, "q": 2.0}, RankRangeError),
    ("TPN2", {"k": 1, "p": 1.0, "q": 0.5}, ExponentRangeError),
    ("CPN1", {"k": 1, "p": 0.0, "q": 2.0}, ExponentRangeError),
    ("KQN1", {"k": 3, "p": 0.5}, RankRangeError),
    ("KQN1", {"k": 1, "p": 1.5}, ExponentRangeError),
    ("KQN2", {"p": 0.0}, ExponentRangeError),
    ("TPN62", {"k": 0, "p": 0.5, "q": 0.5}, RankRangeError),
    ("TPN62", {"k": 1, "p": 0.5, "q": 3.0}, ExponentRangeError),
    ("STCT1", {"k": 0, "p": 2.0}, RankRangeError),
    ("STCT1", {"k": 1, "p": 0.0}, ExponentRangeError),
    ("STCT2", {"k": 0, "p": 0.5}, RankRangeError),
    ("STCT2", {"k": 1, "p": 0.0}, ExponentRangeError),
    ("STCTPP", {"p": 0.0}, ExponentRangeError),
    ("ET41", {"alpha": 0.0, "s": 1.0}, ExponentRangeError),
    ("ET42", {"alpha": -1.0}, ExponentRangeError),
])
def test_evaluate_case_out_of_range_params_raise_typed_errors(cid, params, error):
    case = REGISTRY[cid]
    instance = case.make_instance((3, 2) if case.form == "channel" else (2, 2), 5)
    with pytest.raises(error):
        evaluate_case(cid, instance, params)


# each config grid and the cases that read it
GRID_READERS = {
    "norm_p_grid": ("KPN1", "SPN1", "STCT1", "STCTP", "SAT-WRQA"),
    "antinorm_p_grid": ("KQN1", "STCT2", "STCTPP", "SAT-WRQA"),
    "negative_p_grid": ("KQN2",),
    "pq_grid": ("TPN2", "CPN1"),
    "subunit_pq_grid": ("TPN62",),
}


@pytest.mark.parametrize("field,value", [
    ("norm_p_grid", (0.0,)),
    ("antinorm_p_grid", (0.0,)),
    ("negative_p_grid", (0.0,)),
    ("pq_grid", ((0.0, 2.0),)),
    ("pq_grid", ((1.0, 0.0),)),
    ("subunit_pq_grid", ((0.0, 0.5),)),
])
def test_run_audit_counts_zero_exponents_as_failures(field, value):
    cfg = AuditConfig(trials_per_case=1, case_filter=GRID_READERS[field], **{field: value})
    report = run_audit(cfg)
    for rec in report.cases:
        assert rec["failures"] == cfg.trials_per_case + len(cfg.dims), rec
        assert rec["first_failure"].startswith("ExponentRangeError"), rec


@pytest.mark.parametrize("cid,s_grid,failures,message", [
    # n^((1 - alpha) s) = n^1998 overflows on every instance
    ("ET41", (-2.0,), 5, "overflows"),
    ("STCTEP", (-2.0,), 5, "overflows"),
    # tr rho^1000 underflows to 0 on the saturators' product states
    ("ET41", (1.0,), 4, "underflowed"),
    ("ET42", (1.0,), 4, "underflowed"),
    ("STCTEP", (1.0,), 4, "underflowed"),
    # the Tsallis form takes no logarithm
    ("ETT41", (1.0,), 0, None),
])
def test_run_audit_counts_float_range_errors_as_failures(cid, s_grid, failures, message):
    cfg = AuditConfig(trials_per_case=1, alpha_grid=(1000.0,), s_grid=s_grid, case_filter=(cid,))
    (rec,) = run_audit(cfg).cases
    assert rec["failures"] == failures
    if message is not None:
        assert rec["first_failure"].startswith("DomainError") and message in rec["first_failure"]


def test_evaluate_case_rejects_wrong_instance_type():
    ptrace = channels.partial_trace_channel(2, 2)
    # an instance of each form, with its batch shape
    instances = {
        "bipartite": (BipartiteOperator(np.eye(4), 2, 2), (2, 2)),
        "matrix": (np.eye(4, dtype=complex), (4, 4)),
        "channel": ((ptrace, np.eye(4, dtype=complex)), (4, 2)),
    }
    cases = {
        "bipartite": ("KPN1", {"k": 1, "p": 2.0}),
        "matrix": ("TPN2", {"k": 1, "p": 1.0, "q": 2.0}),
        "channel": ("STCT1", {"k": 1, "p": 2.0}),
    }
    for kind, (inst, shape) in instances.items():
        assert margins.form(inst) == (kind, shape)
        assert REGISTRY[cases[kind][0]].form == kind
        for other, (cid, params) in cases.items():
            if other == kind:
                assert isinstance(evaluate_case(cid, inst, params), float)
                continue
            with pytest.raises(KindMismatchError):
                evaluate_case(cid, inst, params)
    # neither a bare channel nor a list (nor a pair that is not a channel's) is an instance
    for junk in (ptrace, np.eye(4).tolist(), (np.eye(4), np.eye(4))):
        with pytest.raises(KindMismatchError):
            margins.form(junk)
        for cid, params in cases.values():
            with pytest.raises(KindMismatchError):
                evaluate_case(cid, junk, params)
    with pytest.raises(KindMismatchError):
        evaluate_case("NOPE", np.eye(4), {})


def test_evaluate_case_reads_env_mode():
    # a dilation with a zero Kraus operator: dim_env 2, Choi rank 1
    ch = channels.kraus_to_stinespring([np.eye(2), np.zeros((2, 2))])
    pair = (ch, np.diag([2.0, 1.0]).astype(complex))
    # ||Phi(Q)||_2 = ||Q||_2, so only the weight d^(1/2) of the bound moves the margin
    assert evaluate_case("STCTP", pair, {"p": 2.0}) == 0.0
    assert evaluate_case("STCTP", pair, {"p": 2.0, "env_mode": "choi_rank"}) == 0.0
    assert evaluate_case("STCTP", pair, {"p": 2.0, "env_mode": "dim_env"}) > 0.1
    with pytest.raises(PreconditionError):
        evaluate_case("STCTP", pair, {"p": 2.0, "env_mode": "guess"})


def test_env_mode_is_checked_on_every_case():
    # AuditConfig and evaluate_case accept the same modes, and a case that
    # reads no channel still rejects an unknown one
    w = sample("bipartite", (2, 2), 3)
    for mode in audit.ENV_DIM_MODES:
        assert AuditConfig(env_dim_mode=mode).env_dim_mode == mode
        assert isinstance(evaluate_case("KPN1", w, {"k": 1, "p": 2.0, "env_mode": mode}), float)
    with pytest.raises(PreconditionError, match="bogus"):
        evaluate_case("KPN1", w, {"k": 1, "p": 2.0, "env_mode": "bogus"})


@pytest.mark.parametrize("cid,params,missing", [
    ("KPN1", {"k": 1}, "p"),
    ("TPN2", {"k": 1, "p": 1.0}, "q"),
    ("ET41", {"alpha": 0.7}, "s"),
    ("SAT-WRQA", {"k": 1, "p": 2.0}, "family"),
])
def test_evaluate_case_names_missing_params(cid, params, missing):
    case = REGISTRY[cid]
    instance = case.make_instance((3, 2) if case.form == "channel" else (2, 2), 5)
    with pytest.raises(PreconditionError, match=f"missing \\['{missing}'\\]"):
        evaluate_case(cid, instance, params)


@pytest.mark.parametrize("cid,params,unexpected", [
    ("KPN1", {"k": 1, "p": 2.0}, "bogus"),
    ("KPK2", {}, "k"),
    ("ET42", {"alpha": 0.7}, "s"),
])
def test_evaluate_case_names_unexpected_params(cid, params, unexpected):
    instance = REGISTRY[cid].make_instance((2, 2), 5)
    with pytest.raises(PreconditionError, match=f"unexpected \\['{unexpected}'\\]"):
        evaluate_case(cid, instance, {**params, unexpected: 3})
    # env_mode is not a grid column, and every case takes it
    assert isinstance(evaluate_case(cid, instance, {**params, "env_mode": "dim_env"}), float)


@pytest.mark.parametrize("field", [
    "norm_p_grid", "antinorm_p_grid", "negative_p_grid", "pq_grid", "subunit_pq_grid", "alpha_grid", "s_grid",
])
def test_config_rejects_empty_grids(field):
    # an empty axis would leave its cases a grid without columns
    with pytest.raises(PreconditionError, match=field):
        AuditConfig(trials_per_case=3, **{field: ()})


def test_run_audit_accepts_list_valued_config_fields():
    lists = AuditConfig(
        trials_per_case=2, norm_p_grid=[1.0, 2.0], pq_grid=[[1.0, 2.0]], case_filter=["KPN1", "TPN2"]
    )
    tuples = AuditConfig(
        trials_per_case=2, norm_p_grid=(1.0, 2.0), pq_grid=((1.0, 2.0),), case_filter=("KPN1", "TPN2")
    )
    assert run_audit(lists).to_text() == run_audit(tuples).to_text()


def test_run_audit_windows_bound_the_instances_held(monkeypatch):
    # with a window of 3, a case holds at most 3 trials and, in its last
    # window, its saturators; the report is that of one window holding them all
    cfg = AuditConfig(trials_per_case=8, case_filter=("KPK2", "KQK1", "STCT1", "ET41"))
    whole = run_audit(cfg).to_text()
    held = [0]  # instances made and not yet evaluated, after each make and evaluation

    def tracking(case):
        def made(make):
            def counted(dims, seed):
                held.append(held[-1] + 1)
                return make(dims, seed)

            return counted

        def evaluate(sp, grid):
            held.append(held[-1] - sp.size)
            return case.evaluate(sp, grid)

        return dict(make_instance=made(case.make_instance), saturator=made(case.saturator), evaluate=evaluate)

    for cid in cfg.case_filter:
        _replace_case(monkeypatch, cid, **tracking(REGISTRY[cid]))
    monkeypatch.setattr(audit, "TRIAL_WINDOW", 3)
    assert run_audit(cfg).to_text() == whole
    # the last window holds 8 - 2 * 3 trials and one saturator per dims pair
    assert max(held) == 2 + len(cfg.dims) and held[-1] == 0


def test_config_validation():
    with pytest.raises(PreconditionError):
        AuditConfig(trials_per_case=0)
    with pytest.raises(BadDimsError):
        AuditConfig(dims=((2, 0),))
    with pytest.raises(PreconditionError):
        AuditConfig(tolerance=0.0)
    with pytest.raises(PreconditionError):
        AuditConfig(env_dim_mode="guess")
    with pytest.raises(KindMismatchError):
        AuditConfig(case_filter=("KPN1", "BOGUS"))
    assert AuditConfig().dims == DEFAULT_DIMS


@pytest.mark.parametrize("case_filter", [(), []])
def test_config_rejects_empty_case_filter(case_filter):
    # a run of no case would report clean without evaluating anything
    with pytest.raises(PreconditionError, match="no case"):
        AuditConfig(case_filter=case_filter)


@pytest.mark.parametrize("tolerance", [float("inf"), float("nan"), -float("inf")])
def test_config_rejects_non_finite_tolerance(tolerance):
    # no margin can fall below minus an infinite tolerance
    with pytest.raises(PreconditionError, match="tolerance"):
        AuditConfig(tolerance=tolerance)


@pytest.mark.parametrize("make,error", [
    (lambda: sample("psd", 2.5, 0), BadDimsError),
    (lambda: sample("psd", (2.0,), 0), BadDimsError),
    (lambda: sample("bipartite", (2, 1.5), 0), BadDimsError),
    (lambda: AuditConfig(dims=((2.7, 3),)), BadDimsError),
    (lambda: AuditConfig(dims=((2, 3), (4, 3.0))), BadDimsError),
    (lambda: AuditConfig(trials_per_case=2.5), PreconditionError),
    (lambda: AuditConfig(trials_per_case=2.0), PreconditionError),
    (lambda: sample("psd", np.int64(2), 0).shape == (2, 2), None),
    (lambda: AuditConfig(dims=((np.int32(2), np.int64(3)),), trials_per_case=np.int64(2)).dims == ((2, 3),), None),
], ids=[
    "sample-scalar", "sample-float", "sample-pair", "config-dims", "config-dims-float", "trials", "trials-float",
    "sample-numpy-int", "config-numpy-int",
])
def test_non_integer_sizes_are_rejected(make, error):
    # a size that is not an integer is an error, never truncated; numpy
    # integers are integers
    if error is None:
        assert make()
        return
    with pytest.raises(error, match="integer"):
        make()


def test_run_audit_small_clean():
    cfg = AuditConfig(trials_per_case=5, dims=((2, 2), (2, 3)))
    report = run_audit(cfg)
    assert report.violations == 0
    assert len(report.cases) == len(REGISTRY_IDS)
    assert tuple(c["id"] for c in report.cases) == REGISTRY_IDS
    for c in report.cases:
        assert c["failures"] == 0
        assert c["trials"] == 5
        assert c["worst_margin"] is not None
        assert c["saturation_residual"] <= 1e-10
    by_id = {c["id"]: c for c in report.cases}
    assert by_id["KPK2"]["extra"]["dominance_strict_count"] >= 0
    assert by_id["KQK1"]["extra"]["equivalence_max_dev"] <= 1e-10
    assert abs(by_id["TPN2"]["extra"]["equality_margin"]) <= 1e-12
    assert by_id["TPN2"]["extra"]["strict_margin"] > 1e-6
    assert abs(by_id["TPN62"]["extra"]["equality_margin"]) <= 1e-12
    assert by_id["TPN62"]["extra"]["strict_margin"] > 1e-6


def test_run_audit_case_filter_and_determinism():
    cfg = AuditConfig(trials_per_case=4, case_filter=("KPN1", "ET41"))
    r1 = run_audit(cfg)
    r2 = run_audit(cfg)
    assert tuple(c["id"] for c in r1.cases) == ("KPN1", "ET41")
    assert r1.to_text() == r2.to_text()
    # a different base seed changes the sampled worst margins
    r3 = run_audit(AuditConfig(trials_per_case=4, base_seed=43, case_filter=("KPN1", "ET41")))
    assert r1.cases[0]["worst_margin"] != r3.cases[0]["worst_margin"]


def test_run_audit_env_dim_modes_agree_on_generic_channels():
    # random Stinespring dilations have full Choi rank, so both environment
    # conventions must produce identical margins
    for mode in ("choi_rank", "dim_env"):
        cfg = AuditConfig(trials_per_case=3, env_dim_mode=mode, case_filter=("STCT1", "STCTEP"))
        rep = run_audit(cfg)
        assert rep.violations == 0
        assert all(c["failures"] == 0 for c in rep.cases)


def test_report_shape():
    cfg = AuditConfig(trials_per_case=2, case_filter=("TFSN",))
    rep = run_audit(cfg)
    assert rep.version
    assert rep.config["trials_per_case"] == 2
    assert rep.config["dims"] == [[2, 2], [2, 3], [3, 2], [4, 3]]
    assert rep.config["prng"]["bit_generator"].startswith("PCG64")
    text = rep.to_text()
    assert text.endswith("\n")
    assert '"id": "TFSN"' in text


DECOMPOSITIONS = ("svd", "eigvalsh", "eigh", "qr")

# grid points per instance of each case, from the rank bound k_max of the
# instance (the size of Tr_B W, of Phi(Q) or of Q) and the config
GRID_SIZES = {
    "KPN1": lambda k, c: k * len(c.norm_p_grid),
    "SPN1": lambda k, c: len(c.norm_p_grid),
    "TFSN": lambda k, c: 3,
    "KPK1": lambda k, c: k,
    "KPK2": lambda k, c: 1,
    "TPN2": lambda k, c: k * len(c.pq_grid),
    "CPN1": lambda k, c: k * len(c.pq_grid),
    "KQN1": lambda k, c: k * len(c.antinorm_p_grid),
    "KQN2": lambda k, c: len(c.negative_p_grid),
    "KQK1": lambda k, c: k,
    "TPN62": lambda k, c: k * len(c.subunit_pq_grid),
    "STCT1": lambda k, c: k * len(c.norm_p_grid),
    "STCTP": lambda k, c: len(c.norm_p_grid),
    "STCT2": lambda k, c: k * len(c.antinorm_p_grid),
    "STCTPP": lambda k, c: len(c.antinorm_p_grid),
    "ET41": lambda k, c: len(c.alpha_grid) * len(c.s_grid),
    "ETT41": lambda k, c: len(c.alpha_grid),
    "ET42": lambda k, c: len(c.alpha_grid),
    "STCTEP": lambda k, c: len(c.alpha_grid) * len(c.s_grid),
    "SAT-WRQA": lambda k, c: k * (len(c.norm_p_grid) + len(c.antinorm_p_grid)),
}


def _rank_bound(inst) -> int:
    if isinstance(inst, BipartiteOperator):
        return inst.dim_a
    if isinstance(inst, tuple):
        return inst[0].dim_out
    return inst.shape[0]


def test_run_audit_decomposes_each_instance_once(monkeypatch):
    # Instances are made first and then evaluated in batches: one per case and
    # shape of its trial and saturator instances, and one per equality witness
    # of evaluate_case.  Every decomposition counts against the batch
    # of the instances it serves: those made while sampling an instance, each
    # stacked call of the batch (one matrix per instance) and each channel's
    # Choi rank.  A channel trial sits at the bound: the sampling QR, Q, Phi(Q)
    # and the Choi spectrum.
    buckets = []
    sampled = {}  # id of an instance -> matrices decomposed while sampling it
    state = {"sampling": None, "batch": None, "in_choi": False}
    points = []  # the grid size of every instance made
    shapes = set()  # (case, batch shape) of every instance made
    cfg = AuditConfig(trials_per_case=8)

    def counting(fn):
        def counted(a, *args, **kwargs):
            matrices = a.shape[0] if a.ndim == 3 else 1
            if state["sampling"] is not None:
                state["sampling"] += matrices
            else:
                state["batch"]["matrices"] += matrices
                state["batch"]["calls"] += not state["in_choi"]
            return fn(a, *args, **kwargs)

        return counted

    def choi_rank(ch, *args):
        state["batch"]["choi_rank"] += 1
        state["in_choi"] = True
        try:
            return channels.choi_rank(ch, *args)
        finally:
            state["in_choi"] = False

    class Batch(audit.Spectra):
        def __init__(self, insts, *args):
            state["batch"] = {
                "size": len(insts), "channel": isinstance(insts[0], tuple), "calls": 0,
                "matrices": sum(sampled.pop(id(inst), 0) for inst in insts),
                "choi_rank": 0, "evaluations": 0, "points": 0,
            }
            buckets.append(state["batch"])
            super().__init__(insts, *args)

    def opening(cid, make):
        def opened(dims, seed):
            state["sampling"] = 0
            inst = make(dims, seed)
            sampled[id(inst)] = state["sampling"]
            state["sampling"] = None
            points.append(GRID_SIZES[cid](_rank_bound(inst), cfg))
            shapes.add((cid, margins.form(inst)))
            return inst

        return opened

    def evaluating(fn):
        def evaluate(sp, grid):
            margins = fn(sp, grid)
            state["batch"]["evaluations"] += 1
            state["batch"]["points"] += margins.size
            return margins

        return evaluate

    for name in DECOMPOSITIONS:
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    monkeypatch.setattr(margins, "choi_rank", choi_rank)
    monkeypatch.setattr(audit, "Spectra", Batch)
    for cid, case in REGISTRY.items():
        monkeypatch.setitem(REGISTRY, cid, dataclasses.replace(
            case,
            make_instance=opening(cid, case.make_instance),
            saturator=opening(cid, case.saturator),
            evaluate=evaluating(case.evaluate),
        ))

    report = run_audit(cfg)

    assert report.violations == 0
    assert all(c["failures"] == 0 for c in report.cases)
    # every case has a saturator, run once per dims pair
    assert len(points) == len(REGISTRY) * (cfg.trials_per_case + len(cfg.dims))
    assert not sampled  # every instance made was evaluated in some batch
    witnesses = 4  # the TPN2 and TPN62 equality and strict margins
    # one batch per case and shape: 8 trials fit one window, and the
    # saturators join the trials of their shape
    assert len(buckets) == len(shapes) + witnesses
    assert sum(b["size"] for b in buckets) == len(points) + witnesses
    channel_trials = 0
    for b in buckets:
        # one evaluate call per batch; each matrix stacked and decomposed once
        assert b["evaluations"] == 1, b
        assert b["calls"] <= (2 if b["channel"] else 4), b
        assert b["matrices"] <= 4 * b["size"], b
        assert b["choi_rank"] == (b["size"] if b["channel"] else 0), b
        channel_trials += b["channel"] and b["matrices"] == 4 * b["size"]
    assert channel_trials > 0  # the bound is reached, so it counts every decomposition
    # every grid point of every instance is evaluated exactly once
    assert sum(b["points"] for b in buckets) == sum(points) + witnesses


def _recorded_batches(monkeypatch, cfg, makers=None):
    """Run the audit recording each case's instances, in the order made, and
    (spectra, grid, instance indices, margins) of every batch, in order."""
    made, batches = {}, {}
    makers = makers or {}
    evaluate_batch = audit._evaluate

    def recording(cid, make):
        def made_by(dims, seed):
            inst = make(dims, seed)
            made.setdefault(cid, []).append(inst)
            return inst

        return made_by

    def evaluating(cid, fn):
        def evaluate(sp, grid):
            margins = fn(sp, grid)
            batches.setdefault(cid, []).append([sp, dict(grid), None, margins.tolist()])
            return margins

        return evaluate

    def indexing(case, members, *args):
        results = evaluate_batch(case, members, *args)
        batches[case.id][-1][2] = [index for index, _ in members]
        return results

    for cid in cfg.case_filter or REGISTRY_IDS:
        case = REGISTRY[cid]
        monkeypatch.setitem(REGISTRY, cid, dataclasses.replace(
            case,
            make_instance=recording(cid, makers.get(cid, case.make_instance)),
            saturator=recording(cid, case.saturator),
            evaluate=evaluating(cid, case.evaluate),
        ))
    monkeypatch.setattr(audit, "_evaluate", indexing)
    report = run_audit(cfg)
    return report, made, batches


def _assert_batches_match_evaluate_case(cid, cfg, insts, batches):
    # instances are made in index order: the trials, then one saturator per dims pair
    assert sorted(i for _, _, rows, _ in batches for i in rows) == list(range(len(insts)))
    for _, grid, rows, margins in batches:
        assert len(margins) == len(rows)
        names = list(grid)
        for row, index in zip(margins, rows):
            for j, margin in enumerate(row):
                params = {name: grid[name][j] for name in names}
                assert margin == evaluate_case(cid, insts[index], params), (cid, index, params)


def test_batched_margins_equal_evaluate_case(monkeypatch):
    # each batch holds three trials, and a saturator where its shape agrees;
    # every margin equals the one-instance, one-point evaluation bit for bit
    cfg = AuditConfig(trials_per_case=6, dims=((2, 2), (4, 3)))
    report, made, batches = _recorded_batches(monkeypatch, cfg)
    assert all(c["failures"] == 0 for c in report.cases)
    channel_d = set()
    for cid in REGISTRY_IDS:
        # not the TPN2 and TPN62 equality witnesses, nor what evaluate_case below records
        recorded = [b for b in batches[cid] if b[2] is not None]
        _assert_batches_match_evaluate_case(cid, cfg, made[cid], recorded)
        assert max(len(rows) for _, _, rows, _ in recorded) >= 3
        if REGISTRY[cid].form == "channel":
            channel_d |= {len(set(sp.env_dims())) for sp, _, _, _ in recorded}
    assert max(channel_d) > 1  # some batch stacks channels of different d


def _rank_deficient_density(dims, seed):
    # a density of rank about half its dimension: the rest of its spectrum is
    # round-off of exact zeros, which density_spectrum sets to 0.0
    m, n = dims
    rng = np.random.default_rng(seed)
    shape = (m * n, (m * n + 1) // 2)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rho = g @ g.conj().T
    return BipartiteOperator(rho / np.trace(rho).real, m, n)


def test_entropy_batches_mixing_rank_deficient_states(monkeypatch):
    makers = {}
    for cid in ("ET41", "ETT41", "ET42"):
        full = REGISTRY[cid].make_instance

        def mixed(dims, seed, full=full):
            return _rank_deficient_density(dims, seed) if seed % 2 else full(dims, seed)

        makers[cid] = mixed
    cfg = AuditConfig(trials_per_case=6, dims=((2, 2), (4, 3)), case_filter=tuple(makers))
    report, made, batches = _recorded_batches(monkeypatch, cfg, makers)
    assert all(c["failures"] == 0 and c["violations"] == 0 for c in report.cases)
    for cid in makers:
        recorded = list(batches[cid])  # evaluate_case below records batches of its own
        _assert_batches_match_evaluate_case(cid, cfg, made[cid], recorded)
        # some batch stacks full-rank states with rank-deficient ones, whose zeros are exactly 0.0
        assert any(0 < (sp.density("w") == 0.0).any(axis=1).sum() < sp.size for sp, _, _, _ in recorded)


def test_run_audit_failed_trial_feeds_no_margin(monkeypatch):
    # trial 1 is a singular product state: its p = 0.5 margin is about 0, far
    # below the other trials', and at p = -1 it raises SingularPowerError
    sampler = REGISTRY["KQN2"].make_instance
    singular = BipartiteOperator(np.kron(np.diag([1.0, 0.0]), np.eye(2)).astype(complex), 2, 2)

    def make_instance(dims, seed):
        return singular if seed == audit._trial_seed(42, "KQN2", 1) else sampler(dims, seed)

    cfg = AuditConfig(
        trials_per_case=3, dims=((3, 2), (2, 2)), negative_p_grid=(0.5, -1.0), case_filter=("KQN2",)
    )
    _replace_case(monkeypatch, "KQN2", make_instance=make_instance)
    (rec,) = run_audit(cfg).cases
    assert rec["failures"] == 1
    assert rec["first_failure"].startswith("SingularPowerError")
    assert abs(evaluate_case("KQN2", singular, {"p": 0.5})) < 1e-12
    others = [sampler(cfg.dims[t % 2], audit._trial_seed(42, "KQN2", t)) for t in (0, 2)]
    expected = min(evaluate_case("KQN2", w, {"p": p}) for w in others for p in cfg.negative_p_grid)
    assert expected > 0.1
    assert rec["worst_margin"] == expected


def _replace_case(monkeypatch, cid, **fields):
    monkeypatch.setitem(REGISTRY, cid, dataclasses.replace(REGISTRY[cid], **fields))


def test_run_audit_counts_failed_saturators(monkeypatch):
    sat = REGISTRY["KPK2"].saturator

    def saturator(dims, seed):
        if dims == (3, 2):
            raise PreconditionError("saturator disabled")
        return sat(dims, seed)

    _replace_case(monkeypatch, "KPK2", saturator=saturator)
    (rec,) = run_audit(AuditConfig(trials_per_case=3, case_filter=("KPK2",))).cases
    assert rec["failures"] == 1
    assert rec["first_failure"] == "PreconditionError: saturator disabled"
    # three of four saturator instances ran clean, which must not read as clean
    assert rec["saturation_residual"] is None
    assert rec["worst_margin"] is not None


def test_run_audit_counts_domain_errors_everywhere(monkeypatch):
    def evaluate(sp, pr):
        raise PreconditionError("evaluator disabled")

    def make_instance(dims, seed):
        raise np.linalg.LinAlgError("no convergence")

    _replace_case(monkeypatch, "KPK2", evaluate=evaluate)
    _replace_case(monkeypatch, "KPN1", make_instance=make_instance)
    cfg = AuditConfig(trials_per_case=3, case_filter=("KPN1", "KPK2"))
    kpn1, kpk2 = run_audit(cfg).cases
    assert kpk2["failures"] == 3 + len(cfg.dims)
    assert kpk2["first_failure"] == "PreconditionError: evaluator disabled"
    assert kpk2["worst_margin"] is None and kpk2["saturation_residual"] is None
    assert kpn1["failures"] == 3
    assert kpn1["first_failure"] == "LinAlgError: no convergence"
    assert kpn1["saturation_residual"] <= 1e-10


def test_run_audit_propagates_programming_errors(monkeypatch):
    # raised by the trials only, so the saturator pass cannot be what lets it out
    def make_instance(dims, seed):
        raise TypeError("bug in an instance maker")

    _replace_case(monkeypatch, "KPK2", make_instance=make_instance)
    with pytest.raises(TypeError, match="bug in an instance maker"):
        run_audit(AuditConfig(trials_per_case=2, case_filter=("KPK2",)))
