"""Registry, samplers, and the audit runner."""
import dataclasses

import numpy as np
import pytest

from normtrace import audit, channels
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
    instance = case.make_instance((3, 2) if case.instance_kind == "channel_pair" else (2, 2), 5)
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


def test_evaluate_case_rejects_wrong_instance_type():
    with pytest.raises(KindMismatchError):
        evaluate_case("KPN1", np.eye(4), {"k": 1, "p": 2.0})
    with pytest.raises(KindMismatchError):
        evaluate_case("TPN2", BipartiteOperator(np.eye(4), 2, 2), {"k": 1, "p": 1.0, "q": 2.0})
    with pytest.raises(KindMismatchError):
        evaluate_case("STCT1", np.eye(4), {"k": 1, "p": 2.0})
    with pytest.raises(KindMismatchError):
        evaluate_case("NOPE", np.eye(4), {})


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


def test_run_audit_decomposes_each_instance_once(monkeypatch):
    # one bucket per instance, opened as it is made: a trial or saturator
    # instance of the runner, or an equality witness of evaluate_case
    buckets = []
    evaluations = []
    cfg = AuditConfig(trials_per_case=8)

    def counting(fn, key):
        def counted(*args, **kwargs):
            buckets[-1][key] += 1
            return fn(*args, **kwargs)

        return counted

    def opening(cid, make):
        def opened(dims, seed):
            buckets.append({"case": cid, "witness": False, "decompositions": 0, "choi_rank": 0})
            inst = make(dims, seed)
            buckets[-1]["grid"] = len(REGISTRY[cid].param_grid(inst, cfg))
            return inst

        return opened

    def evaluating(fn):
        def evaluate(*args):
            evaluations.append(1)
            return fn(*args)

        return evaluate

    def witness(cid, instance, params):
        buckets.append({"case": cid, "witness": True, "decompositions": 0, "choi_rank": 0, "grid": 1})
        return evaluate_case(cid, instance, params)

    for name in DECOMPOSITIONS:
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name), "decompositions"))
    for module in (audit, channels):
        monkeypatch.setattr(module, "choi_rank", counting(channels.choi_rank, "choi_rank"))
    monkeypatch.setattr(audit, "evaluate_case", witness)
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
    made = [b for b in buckets if not b["witness"]]
    # every case has a saturator, run once per dims pair
    assert len(made) == len(REGISTRY) * (cfg.trials_per_case + len(cfg.dims))
    channel_cases = {cid for cid, c in REGISTRY.items() if c.instance_kind == "channel_pair"}
    for b in buckets:
        assert b["decompositions"] <= 4, b
        assert b["choi_rank"] == (b["case"] in channel_cases and not b["witness"]), b
    assert len(evaluations) == sum(b["grid"] for b in buckets)


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
