"""Registry, samplers, and the audit runner."""
import copy
import dataclasses
import hashlib
import importlib.util
import json
import math
import pickle
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from normtrace import audit, channels, cli, margins
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
from normtrace.channels import StinespringChannel, choi_matrix
from normtrace.errors import (
    BadDimsError,
    DomainError,
    ExponentRangeError,
    KindMismatchError,
    PreconditionError,
    RankRangeError,
    ShapeMismatchError,
)
from normtrace.margins import GRIDS, Drawn, Grid, Spectra, make_grid

import oracle

# each channel case beside the bipartite case whose evaluator and saturator kind's draws it shares:
# its saturators are products R (x) I, whose Tr_B W is the Tr_B channel's output with V the identity
TWINS = {"STCT1": "KPN1", "STCTP": "SPN1", "STCT2": "KQN1", "STCTPP": "KQN2", "STCTEP": "ET41"}
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
    for seed in (-1, -2**64, 2.5, 7.0, "7", None):
        with pytest.raises(PreconditionError, match=f"integer seed, got {seed!r}"):
            sample("psd", (3,), seed)
    # numpy seeds from any nonnegative int, 2**64 and above too
    assert not np.array_equal(sample("psd", (2,), 2**64), sample("psd", (2,), 2**80))


def test_scaled_product_draws_its_scale_as_choice_does():
    # the scale is (1.0, 2.5)[rng.integers(0, 2)]: the value rng.choice would
    # give, leaving the generator in the state rng.choice would leave it
    draw = audit.KINDS["scaled_product"].draw
    for seed in range(256):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        _, (c, g) = draw(rng, 2, 3)
        assert type(c) is float and c == float(ref.choice((1.0, 2.5))), seed
        assert g.tobytes() == audit._gaussians(ref, 2, 2).tobytes()
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (1.0, 2.5)[rng.integers(0, 2)] == ref.choice((1.0, 2.5)), seed
        assert rng.bit_generator.state == ref.bit_generator.state, seed


def test_ginibre_reads_the_real_draws_then_the_imaginary_draws():
    # one (2, rows, cols) draw is the stream of two (rows, cols) draws
    for seed in range(50):
        for rows, cols in ((1, 1), (3, 4), (6, 6), (12, 4)):
            rng = np.random.default_rng(seed)
            re = rng.standard_normal((rows, cols))
            expected = (re + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)
            got = audit._ginibre(audit._gaussians(np.random.default_rng(seed), rows, cols))
            assert got.tobytes() == expected.tobytes()


def _form(inst) -> tuple:
    x = margins.drawn(inst)
    return x.form, x.sizes[:2]


def test_instance_kinds_have_their_declared_form():
    for name, kind in audit.KINDS.items():
        inst = audit._build(kind, (2, 3), 3)
        assert margins.drawn(inst) is inst and inst.form == kind.form, name
        assert _form(inst.alone()) == _form(inst), name
    for cid, case in REGISTRY.items():
        dims = (3, 2) if case.form == "channel" else (2, 2)
        made = (case.make_instance(dims, 5), case.saturator(dims, 5))
        assert [inst.form for inst in made] == [case.form, case.saturator_form], cid
        # a case's saturators are of its trials' form, but a channel case's are bipartite products
        assert case.saturator_form == ("bipartite" if cid in TWINS else case.form), cid
        assert cid not in TWINS or case.evaluate is REGISTRY[TWINS[cid]].evaluate, cid
    assert {cid for cid, case in REGISTRY.items() if case.form == "channel"} == set(TWINS)


def test_drawn_instances_read_as_their_finished_ones():
    # code that reads a maker's instance, such as a wrapper that perturbs W,
    # gets the attributes of the instance finished alone
    w = REGISTRY["KPN1"].make_instance((2, 3), 7)
    assert isinstance(w, Drawn) and (w.dim_a, w.dim_b) == (2, 3)
    assert w.matrix.tobytes() == w.alone().matrix.tobytes() == sample("bipartite", (2, 3), 7).matrix.tobytes()
    assert w.draws[0].shape == (2, 6, 6)  # its own fields stay its own
    with pytest.raises(AttributeError):
        w.no_such_attribute
    with pytest.raises(AttributeError):
        w.__array_interface__


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
        for alpha in GRIDS["alpha"]:
            margins["ETT41"].append(evaluate_case("ETT41", w, {"alpha": alpha, "s": 1.0}))
            margins["ET42"].append(evaluate_case("ET42", w, {"alpha": alpha}))
            for s in GRIDS["s"]:
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


@pytest.mark.parametrize("cid,params,column", [
    # each lies outside the range the case's paper_eq is proved on, and each returned a margin:
    ("ETT41", {"alpha": 0.7, "s": 0.5}, "s"),  # ET41's s = 0.5 margin, under ETT41's id
    ("TFSN", {"p": 3.0}, "p"),  # SPN1's p = 3 margin, under TFSN's id
    ("KQN2", {"p": 0.5}, "p"),  # p < 0
    ("KQN2", {"p": -math.inf}, "p"),  # a real p < 0; its functional raised without naming the case
    ("TPN2", {"k": 2, "p": 2.0, "q": 0.75}, "q"),  # p, q >= 1; -0.0141 on sample("ginibre", (3, 3), 1)
    ("TPN62", {"k": 2, "p": 0.5, "q": 1.5}, "q"),  # p, q in (0, 1); -0.107 on sample("psd", 3, 1)
    ("TPN62", {"k": 2, "p": 1.0, "q": 1.0}, "p"),
    # a SAT-WRQA point lies in its family's product, the column named the first it leaves there
    ("SAT-WRQA", {"k": 1, "p": 0.5, "family": "norm"}, "p"),
    ("SAT-WRQA", {"k": 1, "p": 2.0, "family": "antinorm"}, "p"),
])
def test_evaluate_case_refuses_points_outside_the_proved_range(cid, params, column):
    case = REGISTRY[cid]
    instance = {"TPN2": sample("ginibre", (3, 3), 1), "TPN62": sample("psd", 3, 1)}.get(cid)
    instance = case.make_instance((3, 3), 1) if instance is None else instance
    message = f"{column}={params[column]!r} lies outside the range case {cid} is proved on: {case.paper_eq}"
    with pytest.raises(ExponentRangeError, match=f"^{re.escape(message)}$"):
        evaluate_case(cid, instance, params)
    assert margins.outside(case.axes, params) == column


def test_evaluate_case_takes_in_domain_points_off_the_grid():
    # the domain, not the grid, bounds a replay: p = 4 and s = 0.25 are on no grid
    assert 4.0 not in GRIDS["norm_p"] and 0.25 not in GRIDS["s"]
    w, rho = sample("bipartite", (2, 3), 1), sample("bipartite_density", (2, 3), 1)
    for cid, inst, point, value in (
        ("KPN1", w, {"k": 1, "p": 4.0}, 0.7253605886384907),
        ("ET41", rho, {"alpha": 0.7, "s": 0.25}, 0.2150512305684939),
    ):
        got = evaluate_case(cid, inst, point)
        assert got == pytest.approx(value, rel=1e-12), cid
        assert got == pytest.approx(oracle.margin(cid, inst.matrix, 2, 3, point), rel=1e-12), cid


@pytest.mark.parametrize("cid", REGISTRY_IDS)
def test_every_grid_point_lies_in_its_case_domain(cid):
    # the audit evaluates only points the paper proves its bound on: every
    # grid point, at every rank bound up to 12, lies in the case's domain
    axes = REGISTRY[cid].axes
    for kmax in (1, 12):
        grid = make_grid(axes, kmax)
        for j in range(grid.size):
            point = {name: column[j] for name, column in grid.items()}
            assert margins.outside(axes, point) is None, (cid, point)
    # an axis reads its grid from GRIDS exactly when its domain is a predicate
    predicates = {name for name, domains in margins.AXES.items() if callable(next(iter(domains.values())))}
    assert predicates == set(GRIDS)


# each grid, by its report key, and the cases that read it
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
def test_run_audit_counts_zero_exponents_as_failures(monkeypatch, field, value):
    monkeypatch.setitem(margins.GRIDS, field.removesuffix("_grid"), value)
    cfg = AuditConfig(trials_per_case=1, case_filter=GRID_READERS[field])
    report = run_audit(cfg)
    for rec in report.cases:
        assert rec["failures"] == cfg.trials_per_case + len(cfg.dims), rec
        assert rec["first_failure"].startswith("ExponentRangeError"), rec


@pytest.mark.parametrize("cid,s_grid,failures,message", [
    # n^((1 - alpha) s) = n^1998 overflows on every instance
    ("ET41", (-2.0,), 5, "overflows"),
    ("STCTEP", (-2.0,), 5, "overflows"),
    # tr rho^1000 underflows to 0 on the saturators' product states, where its logarithm is undefined
    ("ET41", (0.5,), 4, "underflowed"),
    ("ET42", (1.0,), 4, "underflowed"),
    ("STCTEP", (0.5,), 4, "underflowed"),
    # the Tsallis form, the unified entropy at s = 1, takes no logarithm
    ("ETT41", (1.0,), 0, None),
    ("ET41", (1.0,), 0, None),
    ("STCTEP", (1.0,), 0, None),
])
def test_run_audit_counts_float_range_errors_as_failures(monkeypatch, cid, s_grid, failures, message):
    monkeypatch.setitem(margins.GRIDS, "alpha", (1000.0,))
    monkeypatch.setitem(margins.GRIDS, "s", s_grid)
    cfg = AuditConfig(trials_per_case=1, case_filter=(cid,))
    (rec,) = run_audit(cfg).cases
    assert rec["failures"] == failures
    if message is not None:
        assert rec["first_failure"].startswith("DomainError") and message in rec["first_failure"]


@pytest.mark.parametrize("cid,grid,failures", [
    # n^((p-1)/p) = n^1001 overflows at n = 3, not at n = 2: 3 of the 6 instances fail
    ("KQN2", {"negative_p": (-0.001,)}, 3),
    # k^599 n^599 overflows as a product (it reads inf) at k = n = 2, and k^599 as a power at k = 4
    ("CPN1", {"pq": ((1.0, 600.0),)}, 6),
])
def test_run_audit_counts_overflowing_bound_factors_as_failures(monkeypatch, cid, grid, failures):
    for name, values in grid.items():
        monkeypatch.setitem(margins.GRIDS, name, values)
    cfg = AuditConfig(trials_per_case=2, case_filter=(cid,))
    (rec,) = run_audit(cfg).cases
    assert rec["failures"] == failures
    assert rec["first_failure"].startswith("DomainError: bound factor") and "overflows" in rec["first_failure"]


def test_evaluate_case_overflowing_bound_factor_raises_domain_error():
    with pytest.raises(DomainError, match="overflows the float range"):
        evaluate_case("KQN2", sample("bipartite_pd", (2, 3), 1), {"p": -0.001})


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("cid", EXPECTED_IDS)
def test_evaluate_case_refuses_a_non_finite_entry_before_any_decomposition(recwarn, cid, bad):
    # a NaN would stop the SVD with a bare LinAlgError and an inf read as a NaN margin or a
    # matmul warning; every case and form refuses both as DomainError, with no warning
    case = REGISTRY[cid]
    params = {name: column[0] for name, column in make_grid(case.axes, 1).items()}
    entry = np.eye(4, dtype=complex)
    entry[0, 1] = entry[1, 0] = bad
    forms = {
        "bipartite": BipartiteOperator(entry, 2, 2),
        "matrix": entry,
        "channel": (sample("channel", (4, 2, 2), 3), entry),
    }
    for form in dict.fromkeys((case.form, case.saturator_form)):
        with pytest.raises(DomainError, match="^matrix entries must be finite$"):
            evaluate_case(cid, forms[form], params)
    assert len(recwarn) == 0


def test_evaluate_case_replays_a_channel_case_saturator():
    # a channel case's saturator, a bipartite product R (x) I, replays through the
    # case's own id with its bipartite twin's margins, which the product saturates;
    # the twin's evaluator is called directly, since STCTPP's 0 < p <= 1 lies
    # outside KQN2's p < 0, so evaluate_case refuses it under KQN2's id
    for cid, twin in TWINS.items():
        w = REGISTRY[cid].saturator((3, 2), 5)
        grid = margins.make_grid(REGISTRY[cid].axes, 3)
        assert REGISTRY[cid].evaluate is REGISTRY[twin].evaluate, cid
        twins = REGISTRY[twin].evaluate(Spectra([w]), grid)[0]
        for j in range(grid.size):
            params = {name: column[j] for name, column in grid.items()}
            margin = evaluate_case(cid, w, params)
            assert margin == twins[j] and abs(margin) <= 1e-12, (cid, params)


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
        assert _form(inst) == (kind, shape)
        assert REGISTRY[cases[kind][0]].form == kind
        for cid, params in cases.values():
            # a case takes its trials' form and its saturators': a channel case also takes a bipartite operator
            if kind in (REGISTRY[cid].form, REGISTRY[cid].saturator_form):
                assert isinstance(evaluate_case(cid, inst, params), float)
                continue
            with pytest.raises(KindMismatchError, match=f"case {cid} needs a "):
                evaluate_case(cid, inst, params)
    with pytest.raises(KindMismatchError, match="case STCT1 needs a channel or bipartite instance, not a matrix one"):
        evaluate_case("STCT1", instances["matrix"][0], cases["channel"][1])
    # neither a bare channel nor a list (nor a pair that is not a channel's) is an instance
    for junk in (ptrace, np.eye(4).tolist(), (np.eye(4), np.eye(4))):
        with pytest.raises(KindMismatchError):
            margins.drawn(junk)
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


@pytest.mark.parametrize("cid,params,error,message", [
    # a k that is no integer failed in an index or a ufunc, and True ran as k = 1
    ("KPN1", {"k": 1.5, "p": 2.0}, RankRangeError, "expected an integer k, got 1.5"),
    ("KPN1", {"k": True, "p": 2.0}, RankRangeError, "expected an integer k, got True"),
    ("KPN1", {"k": "1", "p": 2.0}, RankRangeError, "expected an integer k, got '1'"),
    ("KPN1", {"k": 1, "p": "x"}, ExponentRangeError, "p takes a real number, got 'x'"),
    ("KPN1", {"k": 1, "p": True}, ExponentRangeError, "p takes a real number, got True"),
    ("ET41", {"alpha": 0.7, "s": None}, ExponentRangeError, "s takes a real number, got None"),
    # an unknown family was read as an anti-norm; the family's domain refuses it
    ("SAT-WRQA", {"k": 1, "p": 2.0, "family": "x"}, PreconditionError, "family='x' lies outside the range"),
    # params that are no mapping raised a bare TypeError or ValueError from dict(params)
    ("KPN1", None, PreconditionError, "case KPN1 takes a mapping of params ['k', 'p'], not None"),
    ("KPN1", 5, PreconditionError, "case KPN1 takes a mapping of params ['k', 'p'], not 5"),
    ("KPN1", "k", PreconditionError, "case KPN1 takes a mapping of params ['k', 'p'], not 'k'"),
    # a case id that cannot be hashed raised a bare TypeError
    (["KPN1"], {"k": 1, "p": 2.0}, KindMismatchError, "unknown case id ['KPN1']"),
])
def test_evaluate_case_rejects_malformed_params(cid, params, error, message):
    w = sample("bipartite", (2, 3), 5)
    with pytest.raises(error, match=re.escape(message)):
        evaluate_case(cid, w, params)


def test_run_audit_accepts_list_valued_config_fields():
    lists = AuditConfig(trials_per_case=2, dims=[[2, 2], [3, 2]], case_filter=["KPN1", "TPN2"])
    tuples = AuditConfig(trials_per_case=2, dims=((2, 2), (3, 2)), case_filter=("KPN1", "TPN2"))
    # every field is stored as tuples, so a config given lists hashes
    assert lists == tuples and hash(lists) == hash(tuples)
    assert run_audit(lists).to_text() == run_audit(tuples).to_text()


@pytest.mark.parametrize("cid", REGISTRY_IDS)
def test_run_audit_windows_bound_the_instances_held(monkeypatch, cid):
    # with a window of 3, a case holds at most 3 trials and, in its last
    # window, its saturators; the report is that of one window holding them all.
    # Over the 4 dims pairs the windows have different rank bounds, so each
    # window's own grid must give the margins of the one window's grid
    cfg = AuditConfig(trials_per_case=8, case_filter=(cid,))
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

    _replace_case(monkeypatch, cid, **tracking(REGISTRY[cid]))
    monkeypatch.setattr(audit, "TRIAL_WINDOW", 3)
    assert run_audit(cfg).to_text() == whole
    # the last window holds 8 - 2 * 3 trials and one saturator per dims pair; after
    # the windows, TPN2 and TPN62 evaluate their two witnesses, which no maker made
    assert max(held) == 2 + len(cfg.dims) and held[-1] == (-2 if REGISTRY[cid].witness else 0)


# the edge words of a 64-bit seed and 2,000 seeds shaped like trial seeds
EDGE_SEEDS = [0, 1, 2, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 2, 2**64 - 1]
SHA_SEEDS = [int.from_bytes(hashlib.sha256(str(i).encode()).digest()[:8], "big") for i in range(2000)]


def test_seed_states_equal_numpy_seed_sequence():
    seeds = EDGE_SEEDS + SHA_SEEDS
    states = audit._seed_states(seeds)
    assert states.shape == (len(seeds), 4) and states.dtype == np.uint64
    for seed, state in zip(seeds, states):
        assert np.array_equal(state, np.random.SeedSequence(seed).generate_state(4, np.uint64)), seed
    assert np.array_equal(audit._seed_states(seeds[:1]), states[:1])


def _rng_state(seed):
    return np.random.default_rng(seed).bit_generator.state


def _trial_seeds(values):
    return [audit.TrialSeed(value, state) for value, state in zip(values, audit._seed_states(values))]


def test_trial_seed_is_its_int_and_seeds_its_generator():
    for value, seed in zip(EDGE_SEEDS, _trial_seeds(EDGE_SEEDS)):
        assert seed == value and hash(seed) == hash(value)
        assert str(seed) == str(value) and seed % 2 == value % 2
        assert _rng_state(seed) == _rng_state(value)
        first = seed.generate_state(4, np.uint64)
        first[:] = 0  # each call returns its own copy
        assert np.array_equal(seed.generate_state(4, "uint64"), np.random.SeedSequence(value).generate_state(4, np.uint64))


@pytest.mark.parametrize("n_words,dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64), (4, np.int64)])
def test_trial_seed_refuses_other_state_requests(n_words, dtype):
    (seed,) = _trial_seeds([7])
    with pytest.raises(ValueError, match="4 uint64 state words"):
        seed.generate_state(n_words, dtype)
    with pytest.raises(ValueError):
        seed.generate_state(4)  # SeedSequence's default dtype is uint32


def test_trial_seed_survives_copy_and_pickle():
    (seed,) = _trial_seeds([2**64 - 1])
    for twin in (copy.copy(seed), copy.deepcopy(seed), pickle.loads(pickle.dumps(seed))):
        assert type(twin) is audit.TrialSeed and twin == seed
        assert _rng_state(twin) == _rng_state(int(seed))


def test_trial_seed_generator_cannot_spawn():
    (seed,) = _trial_seeds([7])
    with pytest.raises(TypeError):
        np.random.default_rng(seed).spawn(1)


@pytest.mark.parametrize("kind", list(audit.KINDS))
def test_kinds_build_the_same_from_trial_seeds(kind):
    seeds = SHA_SEEDS[:8]
    for dims, value, seed in zip(((2, 2), (2, 3), (3, 2), (4, 3)) * 2, seeds, _trial_seeds(seeds)):
        hashed, plain = (audit._build(audit.KINDS[kind], dims, s) for s in (seed, value))
        assert hashed.sizes == plain.sizes
        assert [np.asarray(x).tobytes() for x in hashed.draws] == [np.asarray(x).tobytes() for x in plain.draws]


def test_run_audit_hands_makers_trial_seeds(monkeypatch):
    # 70 trials make a 64-trial window and a last window of 6 trials and the
    # saturators
    cfg = AuditConfig(base_seed=5, trials_per_case=70, case_filter=("KPK2", "STCTP"))
    handed = []

    def recording(make, tag):
        def record(dims, seed):
            handed.append((tag, dims, seed))
            return make(dims, seed)

        return record

    for cid in cfg.case_filter:
        case = REGISTRY[cid]
        _replace_case(
            monkeypatch, cid, make_instance=recording(case.make_instance, cid),
            saturator=recording(case.saturator, cid + ":sat"),
        )
    run_audit(cfg)
    n = len(cfg.dims)
    expected = [
        (tag, cfg.dims[i % n], i)
        for cid in cfg.case_filter
        for tag, count in ((cid, cfg.trials_per_case), (cid + ":sat", n))
        for i in range(count)
    ]
    assert [(tag, dims) for tag, dims, _ in handed] == [(tag, dims) for tag, dims, _ in expected]
    for (_, _, seed), (tag, _, i) in zip(handed, expected):
        assert type(seed) is audit.TrialSeed and seed == audit._trial_seed(cfg.base_seed, tag, i)
        assert _rng_state(seed) == _rng_state(int(seed))


def test_run_audit_hashes_one_seed_stream_across_cases(monkeypatch):
    # 3 cases of 70 trials and 4 saturators: 222 seeds in run order, hashed in
    # chunks of 64 whose bounds fall inside cases and inside their windows
    cfg = AuditConfig(base_seed=3, trials_per_case=70, case_filter=("KPK2", "STCT1", "ET41"))
    handed, chunks = [], []
    seed_states = audit._seed_states

    def recording(make, tag):
        def record(dims, seed):
            handed.append((tag, seed))
            return make(dims, seed)

        return record

    def counted(seeds):
        chunks.append(len(seeds))
        return seed_states(seeds)

    for cid in cfg.case_filter:
        case = REGISTRY[cid]
        _replace_case(monkeypatch, cid, make_instance=recording(case.make_instance, cid),
                      saturator=recording(case.saturator, cid + ":sat"))
    monkeypatch.setattr(audit, "_seed_states", counted)
    run_audit(cfg)
    n = len(cfg.dims)
    expected = [(tag, i) for cid in cfg.case_filter
                for tag, count in ((cid, cfg.trials_per_case), (cid + ":sat", n)) for i in range(count)]
    assert chunks == [64, 64, 64, len(expected) - 3 * 64]
    assert [tag for tag, _ in handed] == [tag for tag, _ in expected]
    for (_, seed), (tag, i) in zip(handed, expected):
        assert type(seed) is audit.TrialSeed and seed == audit._trial_seed(cfg.base_seed, tag, i)
        state = np.random.SeedSequence(int(seed)).generate_state(4, np.uint64)
        assert np.array_equal(seed.generate_state(4, np.uint64), state), (tag, i)


@pytest.mark.parametrize("base_seed", [42, 7])
@pytest.mark.parametrize("config", [dict(trials_per_case=70), dict(dims=((6, 6), (4, 8)), trials_per_case=2)])
def test_run_audit_without_the_seed_pass_gives_the_same_report(monkeypatch, base_seed, config):
    cfg = AuditConfig(base_seed=base_seed, **config)
    hashed = run_audit(cfg).to_text()
    monkeypatch.setattr(audit, "_seeds", lambda values: values)
    assert run_audit(cfg).to_text() == hashed


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
    # a bare string read as the case ids K, P, N and 1; an id that is no string is unknown
    with pytest.raises(PreconditionError, match="case_filter takes a sequence of case ids, not a string: 'KPN1'"):
        AuditConfig(case_filter="KPN1")
    with pytest.raises(KindMismatchError, match=r"unknown case ids \[\['KPN1'\]\]"):
        AuditConfig(case_filter=[["KPN1"]])
    # a list is stored as a tuple of str, as dims are stored as tuples, so the config hashes
    listed, tupled = AuditConfig(case_filter=["KPN1", np.str_("TPN2")]), AuditConfig(case_filter=("KPN1", "TPN2"))
    assert listed == tupled and hash(listed) == hash(tupled) and {type(c) for c in listed.case_filter} == {str}
    # dims that are no sequence of pairs, and a case_filter that is no sequence, raised a bare TypeError
    for dims in ((2, 3), ((2, 3), 4), 5, None):
        with pytest.raises(BadDimsError, match=re.escape(f"dims must be nonempty (m, n) pairs, got {dims!r}")):
            AuditConfig(dims=dims)
    with pytest.raises(PreconditionError, match="case_filter takes a sequence of case ids, got 5"):
        AuditConfig(case_filter=5)


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


@pytest.mark.parametrize("field,value", [
    # True ran as tolerance 1 and p = 1, and each was echoed as true; "2" escaped as a bare TypeError
    ("tolerance", True),
    ("tolerance", "1e-9"),
])
def test_config_rejects_values_that_are_not_real_numbers(field, value):
    with pytest.raises(PreconditionError, match=f"{field}.*real number"):
        AuditConfig(**{field: value})


def test_config_takes_numpy_reals():
    cfg = AuditConfig(trials_per_case=1, tolerance=np.float64(1e-9), case_filter=("KPN1",))
    assert run_audit(cfg).cases[0]["failures"] == 0
    w = sample("bipartite", (2, 3), 5)
    assert evaluate_case("KPN1", w, {"k": np.int64(1), "p": np.float64(2.0)}) == evaluate_case(
        "KPN1", w, {"k": 1, "p": 2.0})


@pytest.mark.parametrize("make,error", [
    (lambda: sample("psd", 2.5, 0), BadDimsError),
    (lambda: sample("psd", (2.0,), 0), BadDimsError),
    (lambda: sample("bipartite", (2, 1.5), 0), BadDimsError),
    (lambda: AuditConfig(dims=((2.7, 3),)), BadDimsError),
    (lambda: AuditConfig(dims=((2, 3), (4, 3.0))), BadDimsError),
    (lambda: AuditConfig(trials_per_case=2.5), PreconditionError),
    (lambda: AuditConfig(trials_per_case=2.0), PreconditionError),
    # a bool is an int to Python, but no size or seed: trials_per_case=True
    # would run one trial and echo "true"
    (lambda: AuditConfig(trials_per_case=True), PreconditionError),
    (lambda: AuditConfig(dims=((True, 2),)), BadDimsError),
    (lambda: sample("psd", (True,), 3), BadDimsError),
    (lambda: sample("psd", (3,), True), PreconditionError),
    (lambda: sample("psd", (3,), False), PreconditionError),
    (lambda: sample("psd", np.int64(2), 0).shape == (2, 2), None),
    (lambda: AuditConfig(dims=((np.int32(2), np.int64(3)),), trials_per_case=np.int64(2)).dims == ((2, 3),), None),
], ids=[
    "sample-scalar", "sample-float", "sample-pair", "config-dims", "config-dims-float", "trials", "trials-float",
    "trials-bool", "config-dims-bool", "sample-dims-bool", "seed-true", "seed-false",
    "sample-numpy-int", "config-numpy-int",
])
def test_non_integer_sizes_are_rejected(make, error):
    # a size that is not an integer is an error, never truncated; numpy
    # integers are integers, and bools are not
    if error is None:
        assert make()
        return
    with pytest.raises(error, match="integer"):
        make()


@pytest.mark.parametrize("seed", [42.0, 2.5, "42", True, False, None])
def test_config_rejects_base_seed_that_is_not_an_integer(seed):
    # the seed's text is hashed into every trial seed: 42.0 and True ("True")
    # would each give another audit than 42 and 1
    with pytest.raises(PreconditionError, match="integer"):
        AuditConfig(base_seed=seed)


def test_numpy_integer_base_seed_gives_the_same_audit():
    # the config keeps numpy scalars as the Python values they stand for, so
    # they hash the same trial seeds and the report holds only JSON values
    cfg = dict(dims=((2, 2),), case_filter=("KPN1",))
    numpy_cfg = AuditConfig(base_seed=np.int64(42), trials_per_case=np.int32(2), tolerance=np.float64(1e-9), **cfg)
    assert tuple(map(type, (numpy_cfg.base_seed, numpy_cfg.trials_per_case, numpy_cfg.tolerance))) == (int, int, float)
    assert run_audit(numpy_cfg).to_text() == run_audit(
        AuditConfig(base_seed=42, trials_per_case=2, tolerance=1e-9, **cfg)
    ).to_text()


def _leaf_types(x):
    """x with each value that is no dict or list replaced by its type."""
    if isinstance(x, dict):
        return {key: _leaf_types(v) for key, v in x.items()}
    return [_leaf_types(v) for v in x] if isinstance(x, list) else type(x)


def test_report_reads_back_as_itself():
    # every value of a report, grid infinities and integer-valued floats too,
    # parses back to the value and the type it holds in memory
    report = run_audit(AuditConfig(trials_per_case=8))
    payload = {"version": report.version, "config": report.config, "cases": list(report.cases)}
    back = json.loads(report.to_text())
    assert back == payload
    assert _leaf_types(back) == _leaf_types(payload)
    integer_valued = (back["config"]["norm_p_grid"][0], back["cases"][REGISTRY_IDS.index("TPN62")]["extra"]["equality_margin"])
    assert integer_valued == (1.0, 0.0) and all(type(x) is float for x in integer_valued)


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
# instance (the size of Tr_B W, of Phi(Q) or of Q) and the grids
GRID_SIZES = {
    "KPN1": lambda k: k * len(GRIDS["norm_p"]),
    "SPN1": lambda k: len(GRIDS["norm_p"]),
    "TFSN": lambda k: 3,
    "KPK1": lambda k: k,
    "KPK2": lambda k: 1,
    "TPN2": lambda k: k * len(GRIDS["pq"]),
    "CPN1": lambda k: k * len(GRIDS["pq"]),
    "KQN1": lambda k: k * len(GRIDS["antinorm_p"]),
    "KQN2": lambda k: len(GRIDS["negative_p"]),
    "KQK1": lambda k: k,
    "TPN62": lambda k: k * len(GRIDS["subunit_pq"]),
    "STCT1": lambda k: k * len(GRIDS["norm_p"]),
    "STCTP": lambda k: len(GRIDS["norm_p"]),
    "STCT2": lambda k: k * len(GRIDS["antinorm_p"]),
    "STCTPP": lambda k: len(GRIDS["antinorm_p"]),
    "ET41": lambda k: len(GRIDS["alpha"]) * len(GRIDS["s"]),
    "ETT41": lambda k: len(GRIDS["alpha"]),
    "ET42": lambda k: len(GRIDS["alpha"]),
    "STCTEP": lambda k: len(GRIDS["alpha"]) * len(GRIDS["s"]),
    "SAT-WRQA": lambda k: k * (len(GRIDS["norm_p"]) + len(GRIDS["antinorm_p"])),
}


def _rank_bound(inst) -> int:
    kind, shape = _form(inst)
    return shape[1] if kind == "channel" else shape[0]


# the finishes that take a QR: those of every channel kind
QR_FINISHES = {audit.KINDS[kind].finish for kind in ("channel_ginibre", "channel_psd", "channel_density")}


def _gram_size(sizes) -> int:
    # the Choi Gram of a channel from m to n with environment d is the smaller of d and n m
    m, n, d = sizes
    return min(d, n * m)


def test_run_audit_decomposes_each_instance_once(monkeypatch):
    # Instances are made first and then evaluated in batches: one per case
    # window (8 trials fit one window, and the saturators join it), and one per
    # pair of TPN2's or TPN62's equality witnesses.  Every decomposition counts
    # against the batch of the instances it serves: those made while sampling
    # an instance, each stacked call of a size of a matrix of the batch (one
    # matrix per instance) and each channel's Choi spectrum, a row of the
    # stacked Choi eigvalsh.  A batch makes one call per (matrix, spectrum kind,
    # size), one QR per shape and environment dimension d of its channels and
    # one Choi eigvalsh per Gram size.  A channel window sits at the bound: a
    # trial's QR, Q, Phi(Q) and its Choi spectrum, and a saturator's W and
    # Tr_B W, with no dilation.
    buckets = []
    sampled = {}  # id of an instance -> matrices decomposed while sampling it
    state = {"sampling": None, "batch": None, "in_choi": False}
    points = []  # the grid size of every instance made
    shapes = set()  # (case, form and shape) of every instance made
    cfg = AuditConfig(trials_per_case=8)

    def counting(name, fn):
        def counted(a, *args, **kwargs):
            matrices = a.shape[0] if a.ndim == 3 else 1
            if state["sampling"] is not None:
                state["sampling"] += matrices
            else:
                batch = state["batch"]
                batch["matrices"] += matrices
                if name == "qr":
                    batch["qr_calls"] += 1
                elif state["in_choi"]:
                    batch["choi_calls"] += 1
                    batch["choi_rows"] += matrices
                else:
                    batch["calls"] += 1
            return fn(a, *args, **kwargs)

        return counted

    def gram_ranks(grams, *args):
        state["in_choi"] = True
        try:
            return channels.gram_ranks(grams, *args)
        finally:
            state["in_choi"] = False

    def require_isometry(*vs):
        state["batch"]["checked"] += sum(len(v) for v in vs)
        return channels.require_isometry(*vs)

    class Batch(audit.Spectra):
        def __init__(self, insts, *args):
            channel = insts[0].form == "channel"
            state["batch"] = {
                "size": len(insts), "channel": channel, "calls": 0, "qr_calls": 0, "choi_calls": 0,
                "matrices": sum(sampled.pop(id(inst), 0) for inst in insts), "choi_rows": 0,
                "evaluations": 0, "points": 0, "shapes": len({_form(x) for x in insts}),
                "channels": sum(x.form == "channel" for x in insts),
                # the (shape, d) of the channels that take a QR, and of every channel
                "drawn_envs": {x.sizes for x in insts if x.finish in QR_FINISHES},
                "envs": {x.sizes for x in insts if x.form == "channel"},
                "qr_rows": sum(x.finish in QR_FINISHES for x in insts),
                "checked": 0, "decomposed": set(),
            }
            buckets.append(state["batch"])
            super().__init__(insts, *args)
            state["batch"]["sp"] = self

        def spectra(self, kind, name):
            state["batch"]["decomposed"].add((kind, name))
            return super().spectra(kind, name)

    def opening(cid, make):
        def opened(dims, seed):
            state["sampling"] = 0
            inst = make(dims, seed)
            sampled[id(inst)] = state["sampling"]
            state["sampling"] = None
            points.append(GRID_SIZES[cid](_rank_bound(inst)))
            shapes.add((cid, _form(inst)))
            return inst

        return opened

    def evaluating(fn):
        def evaluate(sp, grid):
            margins = fn(sp, grid)
            state["batch"]["evaluations"] += 1
            state["batch"]["points"] += int(sp.in_bound(grid).sum())
            return margins

        return evaluate

    for name in DECOMPOSITIONS:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(margins, "gram_ranks", gram_ranks)
    monkeypatch.setattr(margins, "require_isometry", require_isometry)
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
    witnesses = 2  # batches of the TPN2 and TPN62 equality and strict margins, two 3 x 3 matrices each
    # one batch per case window, each of every form and shape of its trials and saturators
    assert len(buckets) == len(REGISTRY) + witnesses
    assert sum(b["size"] for b in buckets) == len(points) + 2 * witnesses
    assert sum(b["shapes"] for b in buckets) == len(shapes) + witnesses
    channel_trials, shared = 0, 0
    for b in buckets:
        # one evaluate call per batch; the stacks of each size of a matrix are
        # joined and decomposed once per spectrum kind
        assert b["evaluations"] == 1, b
        sizes = {name: {part[name].shape[-1] for part in b["sp"].parts} for _, name in b["decomposed"]}
        assert b["calls"] == sum(len(sizes[name]) for _, name in b["decomposed"]), b
        shared += sum(len(sizes[name]) < b["shapes"] for _, name in b["decomposed"])
        # (two matrices a row, each of one spectrum kind in a channel case, and a
        # channel's Choi spectrum and its QR if it takes one)
        bound = 2 * b["size"] + b["channels"] + b["qr_rows"] if b["channel"] else 4 * b["size"]
        assert b["matrices"] <= bound, b
        # one QR call per shape and d of the channels, one Choi call per Gram
        # size, and exactly one Choi spectrum per channel
        assert b["qr_calls"] == len(b["drawn_envs"]), b
        assert b["choi_calls"] == len({_gram_size(sizes) for sizes in b["envs"]}), b
        assert b["choi_rows"] == b["channels"], b
        # the isometry check reads every dilation, and each is a QR's: no identity is built
        assert b["checked"] == b["channels"] == b["qr_rows"], b
        # a channel window's saturators are its bipartite rows
        assert not b["channel"] or b["size"] - b["channels"] == len(cfg.dims), b
        channel_trials += b["channel"] and b["matrices"] == bound
    assert channel_trials > 0  # the bound is reached, so it counts every decomposition
    assert shared > 0  # some matrix has fewer sizes than its window has shapes
    # some shape of a window holds channels of several d
    assert any(len(b["drawn_envs"]) > len({sizes[:2] for sizes in b["drawn_envs"]}) for b in buckets)
    # and some Gram size serves several shapes and d
    assert any(len({_gram_size(sizes) for sizes in b["envs"]}) < len(b["envs"]) for b in buckets)
    # every in-bound grid point of every instance is evaluated exactly once
    assert sum(b["points"] for b in buckets) == sum(points) + 2 * witnesses


def test_small_runs_make_one_seed_pass_and_check_only_qr_dilations(monkeypatch):
    # a run of one trial per case at one dims pair, 20 windows of two
    # instances, hashes its 40 seeds in one pass; its five channel windows each
    # check the one dilation stack of their trial, a QR's, and no identity;
    # and the default audit's 4,080 seeds take 64 passes, not one or more a window
    passes, made, checked = [], [], []
    seed_states, qr_isometry = audit._seed_states, audit.qr_isometry

    def counted(seeds):
        passes.append(len(seeds))
        return seed_states(seeds)

    def qr(g):
        made.append(qr_isometry(g))
        return made[-1]

    def require_isometry(*vs):
        checked.extend(vs)
        return channels.require_isometry(*vs)

    monkeypatch.setattr(audit, "_seed_states", counted)
    monkeypatch.setattr(audit, "qr_isometry", qr)
    monkeypatch.setattr(margins, "require_isometry", require_isometry)
    run_audit(AuditConfig(base_seed=11, trials_per_case=1, dims=((2, 2),)))
    assert passes == [2 * len(REGISTRY)]
    assert len(checked) == len(made) == len(TWINS)
    assert all(any(v is qr_made for qr_made in made) for v in checked)
    passes.clear()
    run_audit(AuditConfig())
    assert len(passes) == math.ceil(len(REGISTRY) * (200 + len(DEFAULT_DIMS)) / 64) == 64


def test_channel_windows_finish_q_once_per_finish_and_shape(monkeypatch):
    # a window's channels of one finish and sizes (m, n, d) are finished, V and
    # Q together, in one call: one call per (finish, sizes) group
    cids = tuple(cid for cid in REGISTRY_IDS if REGISTRY[cid].form == "channel")
    calls, wrapped, groups = [], {}, set()

    def counted(cid, x):
        key = (cid, x.finish)
        if key not in wrapped:
            finish = x.finish

            def counting_finish(draws, m, n, d):
                calls.append((*key, (m, n, d), len(draws[0])))
                return finish(draws, m, n, d)

            wrapped[key] = counting_finish
        groups.add((*key, x.sizes))
        return x._replace(finish=wrapped[key])

    def counting(cid, make):
        return lambda dims, seed: counted(cid, make(dims, seed))

    for cid in cids:  # the saturators are bipartite products, with no channel's Q
        _replace_case(monkeypatch, cid, make_instance=counting(cid, REGISTRY[cid].make_instance))
    cfg = AuditConfig(trials_per_case=40, case_filter=cids)
    report = run_audit(cfg)
    assert all(c["failures"] == 0 for c in report.cases)
    assert len(calls) == len({call[:3] for call in calls}) == len(groups)
    assert sum(call[3] for call in calls) == len(cids) * cfg.trials_per_case
    # and a shape's channels of several d are finished in a call per d
    assert len(groups) > len({(cid, finish, sizes[:2]) for cid, finish, sizes in groups})


def _row_matrices(sp, name):
    """Each row's matrix of a window's Spectra, in window order."""
    rows = {}
    for indices, part in zip(sp.rows, sp.parts):
        rows.update(zip(indices.tolist(), part[name]))
    return [rows[i] for i in range(sp.size)]


def _recorded_batches(monkeypatch, cfg, makers=None):
    """Run the audit recording each case's instances, in the order made, and
    [spectra, grid, instance indices, margins, in-bound mask] of every batch, in order."""
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
            batches.setdefault(cid, []).append([sp, dict(grid), None, margins.tolist(), sp.in_bound(grid).tolist()])
            return margins

        return evaluate

    def indexing(case, members, *args):
        kept = evaluate_batch(case, members, *args)
        ((indices, margins, mask, _),) = kept  # no batch of these runs fails, so it stays whole
        batches[case.id][-1][2] = indices.tolist()
        assert margins.tolist() == batches[case.id][-1][3] and mask.tolist() == batches[case.id][-1][4]
        return kept

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


def _assert_batches_match_evaluate_case(cid, insts, batches):
    # instances are made in index order: the trials, then one saturator per dims pair
    assert sorted(i for _, _, rows, _, _ in batches for i in rows) == list(range(len(insts)))
    for _, grid, rows, margins, mask in batches:
        assert len(margins) == len(mask) == len(rows)
        names = list(grid)
        for row, inside, index in zip(margins, mask, rows):
            # a saturator replays through its own case too, a channel case's bipartite product included
            for j, (margin, in_bound) in enumerate(zip(row, inside)):
                params = {name: grid[name][j] for name in names}
                if in_bound:
                    assert margin == evaluate_case(cid, insts[index], params), (cid, index, params)
                else:  # exactly the points past the instance's rank bound are out of bound
                    with pytest.raises(RankRangeError):
                        evaluate_case(cid, insts[index], params)


def _assert_windows_match_evaluate_case(monkeypatch, cfg):
    # each case's trials and saturators, of every shape, are one batch; every
    # in-bound margin equals the one-instance, one-point evaluation bit for bit
    report, made, batches = _recorded_batches(monkeypatch, cfg)
    assert all(c["failures"] == 0 for c in report.cases)
    channel_d = set()
    for cid in REGISTRY_IDS:
        # not the TPN2 and TPN62 equality witnesses, nor what evaluate_case below records
        (window,) = recorded = [b for b in batches[cid] if b[2] is not None]
        sp, grid, rows, _, mask = window
        assert rows == list(range(cfg.trials_per_case + len(cfg.dims)))
        # one group per (form, finish, sizes), its rows in window order
        insts = [margins.drawn(inst) for inst in made[cid]]
        keys = [(x.form, x.finish, x.sizes) for x in insts]
        groups = [[i for i, k in enumerate(keys) if k == key] for key in dict.fromkeys(keys)]
        assert [r.tolist() for r in sp.rows] == groups
        assert any(map(all, mask))  # the grid is made at the window's largest rank bound
        _assert_batches_match_evaluate_case(cid, made[cid], recorded)
        for r in sp.rows:
            if insts[r[0]].form == "channel":  # one dilation d per channel group: each row's Choi rank is min(d, n m)
                m, n, d = insts[r[0]].sizes
                assert sp.n[r].tolist() == [min(d, n * m)] * len(r)
                channel_d.add((cid, (m, n, d)))
    return channel_d


def test_batched_margins_equal_evaluate_case(monkeypatch):
    # the default dims: a channel window holds its Tr_B saturators too
    cfg = AuditConfig(trials_per_case=6)
    channel_d = _assert_windows_match_evaluate_case(monkeypatch, cfg)
    assert len(channel_d) > len({(cid, sizes[:2]) for cid, sizes in channel_d})  # some shape has channels of several d


def test_window_of_edge_shapes_equals_evaluate_case(monkeypatch):
    # one-dimensional factors beside a larger shape: rank bounds 1, 3 and 4 in one window
    cfg = AuditConfig(trials_per_case=4, dims=((1, 1), (1, 3), (3, 1), (4, 3)))
    _assert_windows_match_evaluate_case(monkeypatch, cfg)


def test_kqk1_window_of_long_prefixes_equals_evaluate_case(monkeypatch):
    # joint Ky Fan prefixes k n of 9 and 12 terms, past the 8 where numpy's
    # pairwise sums begin: each row of the window still equals its replay
    cfg = AuditConfig(trials_per_case=6, dims=((3, 3), (4, 3)), case_filter=("KQK1",))
    report, made, batches = _recorded_batches(monkeypatch, cfg)
    assert report.cases[0]["failures"] == 0
    (window,) = [b for b in batches["KQK1"] if b[2] is not None]
    sp, grid, _, _, mask = window
    assert (np.array(grid["k"]) * sp.n[:, None])[np.array(mask)].max() == 12
    _assert_batches_match_evaluate_case("KQK1", made["KQK1"], [window])


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
        _assert_batches_match_evaluate_case(cid, made[cid], recorded)
        # some shape stacks full-rank states with rank-deficient ones, whose zeros are exactly 0.0
        assert any(0 < (s == 0.0).any(axis=1).sum() < len(s) for b in recorded for s in b[0].spectra("density", "joint"))


def test_run_audit_failed_trial_feeds_no_margin(monkeypatch):
    # trial 1 is the maximally mixed state on 3 x 2 dimensions, a product state:
    # its alpha = 0.7 margin is about 0, far below the other trials', and at
    # alpha = 500 tr rho^alpha = 6 (1/6)^500 underflows, which raises DomainError;
    # the other trials, on 2 x 2, have an eigenvalue of at least 1/4 and do not
    sampler = REGISTRY["ET42"].make_instance
    mixed = BipartiteOperator(np.eye(6, dtype=complex) / 6, 3, 2)

    def make_instance(dims, seed):
        return mixed if seed == audit._trial_seed(42, "ET42", 1) else sampler(dims, seed)

    monkeypatch.setitem(margins.GRIDS, "alpha", (0.7, 500.0))
    cfg = AuditConfig(trials_per_case=3, dims=((2, 2), (3, 2)), case_filter=("ET42",))
    _replace_case(monkeypatch, "ET42", make_instance=make_instance)
    (rec,) = run_audit(cfg).cases
    assert rec["failures"] == 1
    assert rec["first_failure"] == "DomainError: entropy term undefined: tr rho^alpha underflowed to 0"
    assert abs(evaluate_case("ET42", mixed, {"alpha": 0.7})) < 1e-12
    others = [sampler(cfg.dims[t % 2], audit._trial_seed(42, "ET42", t)) for t in (0, 2)]
    expected = min(evaluate_case("ET42", w, {"alpha": a}) for w in others for a in margins.GRIDS["alpha"])
    assert expected > 0.1
    assert rec["worst_margin"] == expected


def _replace_case(monkeypatch, cid, **fields):
    monkeypatch.setitem(REGISTRY, cid, dataclasses.replace(REGISTRY[cid], **fields))


def test_drawn_wraps_each_finished_form_with_finishes_that_return_its_matrices():
    ptrace = channels.partial_trace_channel(2, 3)
    w, q = BipartiteOperator(np.arange(36.0).reshape(6, 6), 2, 3), np.eye(6)
    for inst, form, sizes, matrices in (
        (w, "bipartite", (2, 3), lambda w: {"joint": w.matrix}),
        ((ptrace, q), "channel", (6, 2, 3), lambda pair: {"v": pair[0].v, "joint": pair[1]}),
        (q[:4, :4], "matrix", (4, 4), lambda r: {"joint": r}),
    ):
        x = margins.drawn(inst)
        assert (x.form, x.sizes) == (form, sizes)
        sp = margins.Spectra([x, x])
        assert [rows.tolist() for rows in sp.rows] == [[0, 1]]  # one finish and sizes: one group
        stacks = {"joint": sp.parts[0]["joint"], **({"v": sp.dilations[0]} if form == "channel" else {})}
        alone = x.alone()
        assert type(alone) is type(inst)
        for name, matrix in matrices(inst).items():
            assert stacks[name].dtype == complex and (stacks[name] == matrix).all()
            assert (matrices(alone)[name] == matrix).all()
        assert margins.drawn(x) is x  # a Drawn enters as it is
    with pytest.raises(ShapeMismatchError):  # a 1-d array is no matrix
        margins.drawn(np.ones(4))


@pytest.mark.parametrize("q", [np.eye(3), np.ones((2, 3))], ids=["3x3", "2x3"])
def test_channel_pair_whose_input_does_not_fit_raises_a_typed_error(q):
    # a 3 x 3 Q failed with numpy's bare matmul ValueError in the batch
    ch = sample("channel", (2, 2, 1), 3)
    message = re.escape(f"input shape {q.shape}, channel expects (2, 2)")
    with pytest.raises(ShapeMismatchError, match=message):
        ch.apply(q)
    with pytest.raises(ShapeMismatchError, match=message):
        evaluate_case("STCT1", (ch, q), {"k": 1, "p": 2.0})


def test_window_groups_drawn_and_finished_instances_of_one_sizes_apart():
    # one window holds, for one (m, n, d), a drawn channel and a finished pair,
    # and a finished BipartiteOperator beside drawn saturators of its shape: the
    # groups are (form, finish, sizes), and every margin is the instance's alone
    case, seeds = REGISTRY["STCT1"], [audit._trial_seed(42, "STCT1", t) for t in range(20)]
    trials = [case.make_instance((2, 2), seed) for seed in seeds]
    sizes = next(x.sizes for x in trials if sum(y.sizes == x.sizes for y in trials) > 1)
    first, second = [x for x in trials if x.sizes == sizes][:2]
    saturators = [case.saturator((2, 2), seed) for seed in seeds[:3]]
    insts = [first, second.alone(), *saturators[:2], saturators[2].alone()]
    sp = margins.Spectra([margins.drawn(x) for x in insts])
    assert [rows.tolist() for rows in sp.rows] == [[0], [1], [2, 3], [4]]
    grid = margins.make_grid(case.axes, int(sp.bound.max()))
    window = [sp, dict(grid), list(range(len(insts))), case.evaluate(sp, grid).tolist(), sp.in_bound(grid).tolist()]
    _assert_batches_match_evaluate_case("STCT1", insts, [window])


@pytest.mark.parametrize("maker", ["make_instance", "saturator"])
def test_run_audit_raises_on_a_maker_of_the_wrong_form(monkeypatch, maker):
    # a maker that returns the wrong form, or no instance, is a bug in the
    # maker and not a domain error of an instance: it raises out of the run
    cfg = AuditConfig(trials_per_case=2, case_filter=("KPN1",))
    _replace_case(monkeypatch, "KPN1", **{maker: lambda dims, seed: np.eye(dims[0], dtype=complex)})
    with pytest.raises(KindMismatchError, match="case KPN1 needs a bipartite instance, not a matrix one"):
        run_audit(cfg)
    _replace_case(monkeypatch, "KPN1", **{maker: lambda dims, seed: np.eye(dims[0]).tolist()})
    with pytest.raises(KindMismatchError, match="not an audit instance: list"):
        run_audit(cfg)


def _load_perfbench(name: str):
    """perfbench/<name>.py, loaded from its file as it is: reference.py holds the benchmark's independent formulas."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"normtrace_benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("makers", ["drawn", "finished alone"])
@pytest.mark.parametrize("env_mode", audit.ENV_DIM_MODES)
def test_worst_margins_equal_the_independent_reference(monkeypatch, env_mode, makers):
    # the benchmark's reference rebuilds these cases' margins from textbook
    # formulas (sorted spectra, block partial traces, Kraus sums), with none
    # of the library's code, and must agree within the benchmark's bound
    reference = _load_perfbench("reference")
    cids = tuple(cid for cid in REGISTRY_IDS if cid in reference.RECOMPUTED)
    assert {"KPN1", "KQN1", "ET41", "STCTP"} <= set(cids)
    if makers == "finished alone":
        alone = lambda make: lambda dims, seed: make(dims, seed).alone()  # noqa: E731
        for cid in cids:
            case = REGISTRY[cid]
            _replace_case(monkeypatch, cid, make_instance=alone(case.make_instance), saturator=alone(case.saturator))
    config = AuditConfig(trials_per_case=8, env_dim_mode=env_mode, case_filter=cids)
    text = run_audit(config).to_text()
    report = json.loads(text)
    for rec in report["cases"]:
        worst = rec["worst_margin"]
        assert abs(reference.worst_margin(rec["id"], report["config"]) - worst) <= 1e-13 + 1e-9 * abs(worst), rec["id"]
    # the benchmark's own check of the report text, whose perfbench/workloads.py runs `import reference`
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    assert _load_perfbench("workloads").report_problems(text, 8, config.tolerance) == []


def _with_zero_kraus(ch: StinespringChannel) -> StinespringChannel:
    """ch with one more environment slot, whose Kraus operator is zero: its dim_env exceeds its Choi rank."""
    v = ch.v.reshape(ch.dim_out, ch.dim_env, ch.dim_in)
    v = np.concatenate([v, np.zeros((ch.dim_out, 1, ch.dim_in))], axis=1)
    return StinespringChannel(v.reshape(-1, ch.dim_in), ch.dim_in, ch.dim_out, ch.dim_env + 1)


@pytest.mark.parametrize("cid", oracle.CASES)
def test_every_margin_equals_the_textbook_oracle(cid):
    # tests/oracle.py rebuilds each margin from its paper_eq with textbook
    # numpy and none of the library's code: every grid point of every trial
    # and saturator of the audit's first 8 trials over the default dims, a
    # channel case's under each env_dim_mode and with a zero Kraus operator added
    # to each of its first four channels
    case = REGISTRY[cid]
    seed = partial(audit._trial_seed, 42)  # the default audit's seeds
    insts = [case.make_instance(DEFAULT_DIMS[t % 4], seed(cid, t)).alone() for t in range(8)]
    if case.form == "channel":
        insts += [(_with_zero_kraus(ch), q) for ch, q in insts[:4]]
    insts += [case.saturator(pair, seed(cid + ":sat", i)).alone() for i, pair in enumerate(DEFAULT_DIMS)]
    for env_mode in audit.ENV_DIM_MODES if case.form == "channel" else ("choi_rank",):
        for inst in insts:
            if isinstance(inst, tuple):  # a channel and its input Q
                (ch, q), bound = inst, inst[0].dim_out
                want = partial(oracle.channel_margin, cid, ch.v, ch.dim_env, q, env_mode)
            else:  # a matrix instance R (TPN2's and TPN62's) is an operator on C^m (x) C^1
                w, m, n = (inst.matrix, inst.dim_a, inst.dim_b) if isinstance(inst, BipartiteOperator) else (
                    inst, len(inst), 1)
                bound, want = m, partial(oracle.margin, cid, w, m, n)
            grid = make_grid(case.axes, bound)
            for j in range(grid.size):
                point = {name: column[j] for name, column in grid.items()}
                got = evaluate_case(cid, inst, {**point, "env_mode": env_mode})
                # saturator margins (and every SAT-WRQA margin) are round-off of 0, hence the absolute floor
                assert got == pytest.approx(want(point), rel=1e-12, abs=1e-13), (cid, env_mode, point)



def test_every_extra_field_equals_the_textbook_oracle():
    # KPK2's dominance_strict_count and KQK1's equivalence_max_dev over the
    # default audit's first 8 trials, and the TPN2 and TPN62 witnesses' margins,
    # rebuilt by tests/oracle.py with none of the library's code
    cfg = AuditConfig(trials_per_case=8, case_filter=("KPK2", "KQK1", "TPN2", "TPN62"))
    extras = {rec["id"]: rec["extra"] for rec in run_audit(cfg).cases}
    trials = {cid: [REGISTRY[cid].make_instance(DEFAULT_DIMS[t % 4], audit._trial_seed(42, cid, t)).alone()
                    for t in range(8)] for cid in ("KPK2", "KQK1")}
    strict = sum(oracle.dominance_strict(w.matrix, w.dim_b) for w in trials["KPK2"])
    assert extras["KPK2"] == {"dominance_strict_count": strict} and 0 < strict <= 8
    deviation = max(oracle.equivalence_dev(w.matrix, w.dim_a, w.dim_b) for w in trials["KQK1"])
    assert extras["KQK1"]["equivalence_max_dev"] == pytest.approx(deviation, abs=1e-14) and deviation <= 1e-13
    for cid in ("TPN2", "TPN62"):
        want = oracle.witness_margins(cid)
        assert extras[cid].keys() == want.keys() and want["strict_margin"] > 1e-6, cid
        for name, value in want.items():
            assert extras[cid][name] == pytest.approx(value, rel=1e-12, abs=1e-13), (cid, name)


# each family evaluator and the cases that read it, particular cases of the family or its channel twins,
# with the column a particular case's grid leaves out
FAMILIES = {
    "KPN1": {"SPN1": "k", "TFSN": "k", "KPK1": "p", "STCT1": None, "STCTP": "k"},
    "KQN1": {"KQK1": "p", "STCT2": None},
    "ET41": {"ET42": "s", "ETT41": None, "STCTEP": None},
}


@pytest.mark.parametrize("family", FAMILIES)
def test_particular_cases_share_their_family_evaluator(family):
    # a grid without a k, p or s column is the family's Schatten (k the rank),
    # Ky Fan (p = 1) or Renyi (s = 0) case: written out, it gives the same bits
    evaluate = REGISTRY[family].evaluate
    for cid, left_out in FAMILIES[family].items():
        case = REGISTRY[cid]
        assert case.evaluate is evaluate, cid
        insts = [case.make_instance(DEFAULT_DIMS[t % 4], t) for t in range(8)]
        insts += [case.saturator(pair, i) for i, pair in enumerate(DEFAULT_DIMS)]
        sp = Spectra(insts)
        kmax = int(sp.bound.max())
        grid = make_grid(case.axes, kmax)
        written = dict(grid)
        if left_out is not None:
            # a k of the window's largest rank bound reads every row's full gauge
            assert left_out not in grid
            written[left_out] = ({"k": kmax, "p": 1.0, "s": 0.0}[left_out],) * grid.size
        assert set(written) == set(make_grid(REGISTRY[family].axes, 1)), cid
        got = evaluate(sp, grid)
        assert got.shape == (len(insts), grid.size)
        assert np.array_equal(got, evaluate(Spectra(insts), Grid(written, grid.size))), cid


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


@pytest.mark.parametrize("cid,column,point", [
    ("KPN1", "first", "k=1, p=1.0"), ("KPN1", "p=inf", "k=1, p=inf"),
    ("KPK2", "first", "its one point"), ("KQK1", "first", "k=1"),
], ids=["first", "p=inf", "KPK2", "KQK1"])
def test_non_finite_margins_fail_their_instance(monkeypatch, cid, column, point):
    # trial 1 gets a NaN margin in its first grid column or in its p = inf
    # column: the fold used to spread the first over worst_margin and to drop
    # the second without a word; KPK2's and KQK1's extra fields drop it too
    case = REGISTRY[cid]
    cfg = AuditConfig(trials_per_case=3, dims=((2, 2),), case_filter=(cid,))
    seed = audit._trial_seed(cfg.base_seed, cid, 1)
    marked = case.make_instance((2, 2), seed).matrix

    def evaluate(sp, grid):
        margins = case.evaluate(sp, grid).copy()
        cols = [0] if column == "first" else [j for j, p in enumerate(grid["p"]) if p == math.inf]
        for i, w in enumerate(_row_matrices(sp, "joint")):
            if np.array_equal(w, marked):
                margins[i, cols] = np.nan
        return margins

    def make_instance(dims, s):
        if s == seed:
            raise PreconditionError("trial 1 disabled")
        return case.make_instance(dims, s)

    monkeypatch.setitem(REGISTRY, cid, dataclasses.replace(case, evaluate=evaluate))
    (rec,) = run_audit(cfg).cases
    assert rec["first_failure"] == f"non-finite margin nan in {cid} trial 1 at {point}"
    # the rest of the record is that of a run whose trial 1 raised
    monkeypatch.setitem(REGISTRY, cid, dataclasses.replace(case, make_instance=make_instance))
    (raised,) = run_audit(cfg).cases
    assert raised["first_failure"] == "PreconditionError: trial 1 disabled"
    assert {**rec, "first_failure": None} == {**raised, "first_failure": None}
    assert rec["failures"] == 1 and math.isfinite(rec["worst_margin"]) and rec["saturation_residual"] is not None


def test_saturator_rows_move_only_the_residual(monkeypatch):
    # a window that mixes trial and saturator rows of two shapes: the
    # saturators' margins, made the most negative of the window, move
    # saturation_residual, whose gate counts one violation, and never
    # worst_margin or a violation per margin
    kpn1 = REGISTRY["KPN1"]
    cfg = AuditConfig(trials_per_case=5, dims=((2, 2), (2, 3)), case_filter=("KPN1",))
    (clean,) = run_audit(cfg).cases
    saturators, mixed = [], []

    def saturator(dims, seed):
        inst = kpn1.saturator(dims, seed)
        saturators.append(inst.matrix)
        return inst

    def evaluate(sp, grid):
        margins = kpn1.evaluate(sp, grid).copy()
        rows = [i for i, w in enumerate(_row_matrices(sp, "joint")) if any(np.array_equal(w, s) for s in saturators)]
        margins[rows] = -1.0
        mixed.append(0 < len(rows) < sp.size)
        return margins

    _replace_case(monkeypatch, "KPN1", saturator=saturator, evaluate=evaluate)
    (rec,) = run_audit(cfg).cases
    assert mixed == [True] and len(saturators) == len(cfg.dims)
    assert rec["saturation_residual"] == 1.0 and clean["saturation_residual"] < 1e-12
    moved = {"saturation_residual": None, "violations": None}
    assert {**rec, **moved} == {**clean, **moved}
    assert rec["violations"] == clean["violations"] + 1 == 1 and rec["worst_margin"] > 0


@pytest.mark.parametrize("cid", EXPECTED_IDS)
def test_every_case_fails_when_its_margins_move_by_a_millionth(monkeypatch, cid):
    # a bound made stronger by 1e-6 must be caught: most trial margins sit far
    # above it, so what catches it is a tightness claim (the saturators'
    # residual, or TPN2's and TPN62's equality witness), gated at the tolerance
    case = REGISTRY[cid]
    _replace_case(monkeypatch, cid, evaluate=lambda sp, grid: case.evaluate(sp, grid) - 1e-6)
    (rec,) = run_audit(AuditConfig(trials_per_case=4, case_filter=(cid,))).cases
    assert rec["violations"] > 0 and rec["failures"] == 0
    assert cli.main(["audit", "--case", cid, "--trials", "4"]) == 4


def test_each_tightness_claim_above_the_tolerance_is_one_violation(monkeypatch):
    # KPN1's saturation residual, TPN2's |equality_margin| and KQK1's
    # equivalence_max_dev, each moved to twice the tolerance: one violation each
    cfg = AuditConfig(trials_per_case=2, case_filter=("KPN1", "TPN2", "KQK1"))
    clean = run_audit(cfg).cases
    assert [rec["violations"] for rec in clean] == [0, 0, 0]
    kpn1, case_extras = REGISTRY["KPN1"], audit._case_extras
    moved = {"TPN2": {"equality_margin": -2e-9, "strict_margin": 0.5}, "KQK1": {"equivalence_max_dev": 2e-9}}
    _replace_case(monkeypatch, "KPN1", evaluate=lambda sp, grid: kpn1.evaluate(sp, grid) - 2e-9)
    monkeypatch.setattr(audit, "_case_extras", lambda case, stats: moved.get(case.id) or case_extras(case, stats))
    records = run_audit(cfg).cases
    assert [rec["violations"] for rec in records] == [1, 1, 1]
    assert 1e-9 < records[0]["saturation_residual"] < 3e-9 and records[0]["worst_margin"] > 0.1


@pytest.mark.parametrize("fill", [np.nan, -np.inf, -1.0])
def test_out_of_bound_points_never_count_or_fail(monkeypatch, fill):
    # one window of rank bounds 2 and 4: the (2, 2) rows' points at k = 3 and
    # k = 4 are out of bound, and whatever they hold leaves the record alone
    kpn1 = REGISTRY["KPN1"]
    cfg = AuditConfig(trials_per_case=4, dims=((2, 2), (4, 3)), case_filter=("KPN1",))
    (clean,) = run_audit(cfg).cases
    masked = []

    def evaluate(sp, grid):
        margins = kpn1.evaluate(sp, grid).copy()
        outside = ~sp.in_bound(grid)
        assert (outside == (np.array(grid["k"]) > sp.bound[:, None])).all()
        margins[outside] = fill
        masked.append(int(outside.sum()))
        return margins

    _replace_case(monkeypatch, "KPN1", evaluate=evaluate)
    (rec,) = run_audit(cfg).cases
    # trials 0 and 2 and the first saturator, at two k and every p
    assert masked == [3 * 2 * len(GRIDS["norm_p"])]
    assert rec == clean and rec["failures"] == 0


def test_non_finite_in_bound_point_of_a_window_fails_its_instance(monkeypatch):
    # the last in-bound point of trial 0, a (2, 2) row beside rows of bound 4,
    # fails it with the message a window of its shape alone gives
    kpn1 = REGISTRY["KPN1"]
    cfg = AuditConfig(trials_per_case=4, dims=((2, 2), (4, 3)), case_filter=("KPN1",))

    def evaluate(sp, grid):
        margins = kpn1.evaluate(sp, grid).copy()
        point = [j for j, (k, p) in enumerate(zip(grid["k"], grid["p"])) if k == 2 and p == math.inf]
        margins[0, point] = np.nan
        return margins

    def make_instance(dims, seed):
        if seed == audit._trial_seed(cfg.base_seed, "KPN1", 0):
            raise PreconditionError("trial 0 disabled")
        return kpn1.make_instance(dims, seed)

    _replace_case(monkeypatch, "KPN1", evaluate=evaluate)
    (rec,) = run_audit(cfg).cases
    assert rec["first_failure"] == "non-finite margin nan in KPN1 trial 0 at k=2, p=inf"
    (alone,) = run_audit(dataclasses.replace(cfg, dims=((2, 2),), trials_per_case=1)).cases
    assert alone["first_failure"] == rec["first_failure"]
    _replace_case(monkeypatch, "KPN1", make_instance=make_instance, evaluate=kpn1.evaluate)
    (raised,) = run_audit(cfg).cases
    assert {**rec, "first_failure": None} == {**raised, "first_failure": None} and rec["failures"] == 1


def test_non_finite_saturator_margins_null_the_residual(monkeypatch):
    # max(0.0, nan) is 0.0, so a saturator that gave only NaN used to read as tight
    stctp = REGISTRY["STCTP"]

    def evaluate(sp, grid):
        margins = stctp.evaluate(sp, grid).copy()
        # the saturator, a 2 x 2 product W, is the row whose joint matrix has dimension 4
        margins[[i for i, w in enumerate(_row_matrices(sp, "joint")) if w.shape[-1] == 4]] = np.nan
        return margins

    _replace_case(monkeypatch, "STCTP", evaluate=evaluate)
    (rec,) = run_audit(AuditConfig(trials_per_case=3, dims=((2, 2),), case_filter=("STCTP",))).cases
    assert rec["saturation_residual"] is None
    assert rec["failures"] == 1
    assert rec["first_failure"] == "non-finite margin nan in STCTP saturator 0 at p=1.0"
    assert rec["violations"] == 0 and math.isfinite(rec["worst_margin"])


def _literal_isometry(g):
    # the per-matrix QR and phase fix the stacked finish replaces
    q, r = np.linalg.qr(g)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def test_stacked_finish_equals_a_literal_per_channel_finish(monkeypatch):
    # one 64-trial window of STCT1 draws channels of every dims pair and every
    # d; it finishes them in stacked calls per shape and d, and its saturators,
    # products W read through Tr_B, as the Tr_B channel with V the identity
    batches, dilations = [], {}  # each stacked Q's bytes -> its V and d

    class Recorded(audit.Spectra):
        def __init__(self, insts, *args):
            super().__init__(insts, *args)
            batches.append((insts, self))

    def outputs(v, q, n, d):
        dilations.update((qi.tobytes(), (vi, d)) for vi, qi in zip(v, q))
        return channels.channel_outputs(v, q, n, d)

    monkeypatch.setattr(audit, "Spectra", Recorded)
    monkeypatch.setattr(margins, "channel_outputs", outputs)
    report = run_audit(AuditConfig(trials_per_case=64, case_filter=("STCT1",)))
    assert report.cases[0]["failures"] == 0
    covered, saturators = set(), 0
    for insts, sp in batches:
        for i, (x, q, out) in enumerate(zip(insts, _row_matrices(sp, "joint"), _row_matrices(sp, "reduced"))):
            if x.form == "channel":
                m, n, dim_env = x.sizes
                vi, d = dilations[q.tobytes()]
                assert dim_env == d and x.finish in QR_FINISHES
                covered.add((m, n, d))
                g = x.draws[0]
                assert vi.tobytes() == _literal_isometry((g[0] + 1j * g[1]) / np.sqrt(2.0)).tobytes()
            else:  # no channel is built, so no dilation reaches channel_outputs
                assert x.form == "bipartite" and q.tobytes() not in dilations
                (m, n, d), saturators = (x.sizes[0] * x.sizes[1], *x.sizes), saturators + 1
                vi = np.eye(m, dtype=complex)
            kraus = vi.reshape(n, d, m).transpose(1, 0, 2)
            expected = sum(k @ q @ k.conj().T for k in kraus)
            assert np.abs(out - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())
            w = np.linalg.eigvalsh(choi_matrix(StinespringChannel(vi, m, n, d)))
            assert sp.n[i] == np.count_nonzero(w > 1e-9 * w.max())
    every_d = {(m, n, d) for m, n in DEFAULT_DIMS for d in range(math.ceil(m / n), math.ceil(m / n) + 3)}
    assert covered == every_d and saturators == len(DEFAULT_DIMS)


@pytest.mark.parametrize("finished", ["odd seeds", "every trial"])
def test_finished_channel_pairs_give_the_report_of_drawn_ones(monkeypatch, finished):
    # a maker may return finished (StinespringChannel, Q) pairs: they join the
    # stacked path at V, also in a batch with drawn channels
    cids = tuple(cid for cid in REGISTRY_IDS if REGISTRY[cid].form == "channel")
    cfg = AuditConfig(trials_per_case=12, case_filter=cids)
    drawn = run_audit(cfg).to_text()
    kinds = set()

    def finishing(make):
        def made(dims, seed):
            inst = make(dims, seed)
            if finished == "every trial" or seed % 2:
                inst = inst.alone()
            kinds.add(type(inst))
            return inst

        return made

    for cid in cids:
        _replace_case(monkeypatch, cid, make_instance=finishing(REGISTRY[cid].make_instance))
    assert run_audit(cfg).to_text() == drawn
    assert kinds == ({tuple, Drawn} if finished == "odd seeds" else {tuple})


@pytest.mark.parametrize("config", [
    dict(trials_per_case=70), dict(dims=((6, 6), (4, 8)), trials_per_case=2),
], ids=["default-dims", "large-dims"])
def test_finished_instances_give_the_report_of_drawn_ones(monkeypatch, config):
    # every registry maker returns its instance finished alone, which the
    # batches stack as it is: the report is the drawn run's
    cfg = AuditConfig(**config)
    drawn = run_audit(cfg).to_text()
    types = set()

    def finishing(make):
        def made(dims, seed):
            inst = make(dims, seed).alone()
            types.add(type(inst))
            return inst

        return made

    for cid, case in REGISTRY.items():
        _replace_case(
            monkeypatch, cid, make_instance=finishing(case.make_instance), saturator=finishing(case.saturator),
        )
    assert run_audit(cfg).to_text() == drawn
    assert types == {BipartiteOperator, tuple, np.ndarray}


def test_stacked_finish_fails_only_the_instance_that_is_not_an_isometry(monkeypatch):
    # trial 3's isometry comes out doubled, so it fails the isometry check: it
    # fails alone, with the message StinespringChannel gives such a dilation
    stctp = REGISTRY["STCTP"]
    cfg = AuditConfig(trials_per_case=8, dims=((2, 2),), case_filter=("STCTP",))
    seed = audit._trial_seed(cfg.base_seed, "STCTP", 3)
    marked = audit._ginibre(stctp.make_instance((2, 2), seed).draws[0])
    qr_isometry = audit.qr_isometry

    def doubling(g):
        return qr_isometry(g) * np.array([[[2.0 if np.array_equal(x, marked) else 1.0]] for x in g])

    def raising(dims, s):
        if s == seed:
            raise PreconditionError("trial 3 disabled")
        return stctp.make_instance(dims, s)

    monkeypatch.setattr(audit, "qr_isometry", doubling)
    (rec,) = run_audit(cfg).cases
    assert rec["failures"] == 1
    assert rec["first_failure"] == "NotTracePreservingError: dilation matrix is not an isometry"
    monkeypatch.setattr(audit, "qr_isometry", qr_isometry)
    _replace_case(monkeypatch, "STCTP", make_instance=raising)
    (raised,) = run_audit(cfg).cases
    assert {**rec, "first_failure": None} == {**raised, "first_failure": None}


def test_window_checks_dilations_before_any_choi_rank(monkeypatch):
    # trial 7's isometry, from 2 into 3 x 3 (d = 3), comes out NaN in a window whose
    # shapes share its input dimension 2: the isometry check, one pass for all
    # of them, fails it alone with the isometry message, where the eigvalsh of
    # its 3 x 3 Choi Gram would not converge
    stctp = REGISTRY["STCTP"]
    cfg = AuditConfig(trials_per_case=9, dims=((2, 2), (2, 3), (2, 1)), case_filter=("STCTP",))
    seed = audit._trial_seed(cfg.base_seed, "STCTP", 7)
    marked = audit._ginibre(stctp.make_instance(cfg.dims[1], seed).draws[0])
    qr_isometry = audit.qr_isometry

    def spoiling(g):
        return qr_isometry(g) * np.array([[[np.nan if np.array_equal(x, marked) else 1.0]] for x in g])

    def raising(dims, s):
        if s == seed:
            raise PreconditionError("trial 7 disabled")
        return stctp.make_instance(dims, s)

    monkeypatch.setattr(audit, "qr_isometry", spoiling)
    (rec,) = run_audit(cfg).cases
    assert rec["failures"] == 1
    assert rec["first_failure"] == "NotTracePreservingError: dilation matrix is not an isometry"
    monkeypatch.setattr(audit, "qr_isometry", qr_isometry)
    _replace_case(monkeypatch, "STCTP", make_instance=raising)
    (raised,) = run_audit(cfg).cases
    assert {**rec, "first_failure": None} == {**raised, "first_failure": None}


# W is 4 x 4 for three shapes and 6 x 6 for two; Tr_B W, Q and Phi(Q) share sizes too
SIZE_DIMS = ((1, 4), (2, 2), (4, 1), (2, 3), (3, 2))


def _degenerate_channel(m, n, seed):
    # Kraus operators W / sqrt(2), twice, for an isometry W from m into n:
    # environment 2 and Choi rank 1, so a Gram size holds ranks 1 and 2
    rng = np.random.default_rng(seed)
    w = np.linalg.qr(rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))[0]
    channel = channels.kraus_to_stinespring([w / np.sqrt(2.0)] * 2)
    return channel, sample("density", (m,), seed)


class _Recorded(margins.Spectra):
    """A window that records the (spectrum kind, matrix) pairs its evaluator decomposes."""

    def spectra(self, kind, name):
        self.__dict__.setdefault("decomposed", set()).add((kind, name))
        return super().spectra(kind, name)


def _row_spectra(sp, kind, name):
    """Each row's spectrum of a matrix of a window, in window order, from its per-size decompositions."""
    rows = {}
    for (indices, _), spectra in zip(sp.sizes[name], sp.spectra(kind, name)):
        rows.update(zip(indices.tolist(), spectra))
    return [rows[i] for i in range(sp.size)]


@pytest.mark.parametrize("env_mode", audit.ENV_DIM_MODES)
def test_size_batched_windows_equal_per_shape_windows(env_mode):
    # a window of five shapes decomposes each size of a matrix once; every
    # spectrum row, statistic and in-bound margin equals, bit for bit, that of
    # a window of its group alone, which decomposes that group's stack
    cfg = AuditConfig(trials_per_case=15, dims=SIZE_DIMS, env_dim_mode=env_mode)
    shared = set()
    for cid, case in REGISTRY.items():
        if env_mode == "dim_env" and case.form != "channel":
            continue
        insts = [case.make_instance(cfg.dims[t % len(cfg.dims)], audit._trial_seed(cfg.base_seed, cid, t))
                 for t in range(cfg.trials_per_case)]
        insts += [case.saturator(pair, audit._trial_seed(cfg.base_seed, cid + ":sat", i))
                  for i, pair in enumerate(cfg.dims)]
        if case.form == "channel":
            insts += [margins.drawn(_degenerate_channel(m, n, 10 * m + n)) for m, n in ((1, 4), (2, 2), (2, 3))]
            channel = {i: x.alone()[0] for i, x in enumerate(insts) if x.form == "channel"}
            ranks = {i: channels.choi_rank(ch) if env_mode == "choi_rank" else ch.dim_env for i, ch in channel.items()}
        sp = _Recorded(insts, env_mode)
        grid = margins.make_grid(case.axes, int(sp.bound.max()))
        stat = (lambda sp: None) if case.extra is None else case.extra[1]  # each instance's extra statistic
        values, mask, stats = case.evaluate(sp, grid), sp.in_bound(grid), stat(sp)
        if case.form == "channel":
            # each channel's own Choi rank, or dim_env, and each saturator's n, the dimension W traces out
            assert sp.n.tolist() == [ranks[i] if i in ranks else x.sizes[1] for i, x in enumerate(insts)], cid
            assert len(ranks) == len(insts) - len(cfg.dims)
            assert env_mode == "dim_env" or 1 in ranks.values() and len(set(ranks.values())) > 2
        spectra = {key: _row_spectra(sp, *key) for key in sp.decomposed}
        shapes = {(insts[rows[0]].form, insts[rows[0]].sizes[:2]) for rows in sp.rows}  # the groups' forms and shapes
        shared |= {(case.form, name) for _, name in sp.decomposed if len(sp.sizes[name]) < len(shapes)}
        for rows in sp.rows:
            alone = _Recorded([insts[i] for i in rows], env_mode)
            inside = alone.in_bound(grid)
            assert (inside == mask[rows]).all() and alone.n.tolist() == sp.n[rows].tolist(), cid
            assert values[rows][inside].tobytes() == case.evaluate(alone, grid)[inside].tobytes(), cid
            if stats is not None:
                assert stats[rows].tobytes() == stat(alone).tobytes(), cid
            for key, rows_spectra in spectra.items():
                assert [rows_spectra[i].tobytes() for i in rows] == [
                    x.tobytes() for x in _row_spectra(alone, *key)], (cid, key)
    # every matrix of every form shares a size between groups somewhere
    forms = ("bipartite", "channel") if env_mode == "choi_rank" else ("channel",)
    assert shared == {(form, name) for form in forms for name in ("joint", "reduced")}


def _literal_ginibre(rng, rows, cols):
    re = rng.standard_normal((rows, cols))
    return (re + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def _literal_psd(rng, n):
    g = _literal_ginibre(rng, n, n)
    return g @ g.conj().T


def _literal_pd(rng, n):
    a = _literal_psd(rng, n)
    return a + 0.1 * (a.trace().real / n) * np.eye(n)


def _literal_density(rng, n):
    a = _literal_psd(rng, n)
    return a / a.trace().real


def _literal_channel(build):
    def pair(rng, m, n):
        d = math.ceil(m / n) + int(rng.integers(0, 3))
        v = _literal_isometry(_literal_ginibre(rng, n * d, m))
        return v, build(rng, m)

    return pair


# each audit kind built one instance at a time: W, Q, or a (V, Q) pair
LITERAL_KINDS = {
    "bipartite": lambda rng, m, n: _literal_ginibre(rng, m * n, m * n),
    "bipartite_psd": lambda rng, m, n: _literal_psd(rng, m * n),
    "bipartite_pd": lambda rng, m, n: _literal_pd(rng, m * n),
    "bipartite_density": lambda rng, m, n: _literal_density(rng, m * n),
    "square": lambda rng, m, n: _literal_ginibre(rng, m, m),
    "square_psd": lambda rng, m, n: _literal_psd(rng, m),
    "channel_ginibre": _literal_channel(lambda rng, m: _literal_ginibre(rng, m, m)),
    "channel_psd": _literal_channel(_literal_psd),
    "channel_density": _literal_channel(_literal_density),
    "product_psd": lambda rng, m, n: np.kron(_literal_psd(rng, m), np.eye(n)),
    "product_pd": lambda rng, m, n: np.kron(_literal_pd(rng, m), np.eye(n)),
    "product_density": lambda rng, m, n: np.kron(_literal_density(rng, m), np.eye(n) / n),
    "scaled_product": lambda rng, m, n: float(rng.choice((1.0, 2.5))) * np.kron(_literal_psd(rng, m), np.eye(n)),
    "scalar": lambda rng, m, n: 2.0 * np.eye(m, dtype=complex),
    "scalar_bipartite": lambda rng, m, n: 2.0 * np.eye(m * n, dtype=complex),
}


@pytest.mark.parametrize("kind", list(audit.KINDS))
def test_stacked_finish_equals_a_literal_build(monkeypatch, kind):
    # five drawn instances of a kind, finished in one batch, equal byte for
    # byte the instances built one at a time from the same generators
    assert LITERAL_KINDS.keys() == audit.KINDS.keys()
    seeds = _trial_seeds(SHA_SEEDS[:5])
    outputs = {}  # (Q, V) bytes of each channel finished -> its output's bytes

    def channel_outputs(v, q, *args):
        out = channels.channel_outputs(v, q, *args)
        outputs.update(((qi.tobytes(), vi.tobytes()), oi.tobytes()) for vi, qi, oi in zip(v, q, out))
        return out

    monkeypatch.setattr(margins, "channel_outputs", channel_outputs)
    for m, n in ((1, 1), (2, 3), (3, 1), (4, 3)):
        sp = margins.Spectra([audit._build(audit.KINDS[kind], (m, n), seed) for seed in seeds])
        literal = [LITERAL_KINDS[kind](np.random.default_rng(int(seed)), m, n) for seed in seeds]
        if audit.KINDS[kind].form == "channel":
            # the V of one d are finished together: instance i's output row must come
            # from its own literal V and Q, so its V is finished byte for byte and paired right
            for i, (out, (v, q)) in enumerate(zip(_row_matrices(sp, "reduced"), literal)):
                assert outputs[q.tobytes(), v.tobytes()] == out.tobytes(), (m, n, i)
            outputs.clear()
            literal = [q for _, q in literal]
        stacked = _row_matrices(sp, "joint")
        assert [x.tobytes() for x in stacked] == [x.tobytes() for x in literal], (m, n)
