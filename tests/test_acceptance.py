"""Acceptance suite: one test per criterion, exact arithmetic, timed budgets.

Each criterion records a single pass line (echoed in the terminal summary);
a failed assertion anywhere keeps that line out and fails the test.
"""
from __future__ import annotations

import itertools
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest
from oracles import FlowSuiteSpec, flow_monitor, materialize

from naivea.augment import augment
from naivea.chains import check_instance, qualifying_pairs, variation_ratio
from naivea.cli import main
from naivea.flow import build_flow, stabilize
from naivea.generators import gen_instance
from naivea.instance_io import read_json, write_canonical
from naivea.space import rips_components
from naivea.tailor import classify, prepare, run_pipeline, tailor_subset
from naivea.verify import verify_naive

CRIT2_PARAMS = {
    "count": 20,
    "min_len": 5,
    "max_len": 300,
    "radii": ["12", "6"],
    "R": "2",
    "epsilon": "1/2",
}
CRIT5_PARAMS = {
    "count": 2000,
    "radii": ["12", "6"],
    "R": "2",
    "epsilon": "1/2",
    "unbounded": True,
}
CRIT6_PARAMS = {"n": 240, "folner_radius": 30, "R": "2", "epsilon": "1/10"}


def run_instance(kind, params):
    t0 = time.monotonic()
    space, family, ip = gen_instance(kind, params, seed=0)
    prep = prepare(space, family, ip.R, ip.epsilon, ip.S)
    subsets, cert = run_pipeline(prep)
    report = prep.report
    return SimpleNamespace(
        space=space,
        family=family,
        params=report.params,
        report=report,
        subsets=subsets,
        cert=cert,
        elapsed=time.monotonic() - t0,
    )


@pytest.fixture(scope="module")
def crit2():
    return run_instance("disjoint_union_paths", CRIT2_PARAMS)


@pytest.fixture(scope="module")
def crit5():
    return run_instance("line", CRIT5_PARAMS)


def test_criterion_1_flow_oracle(criterion):
    t0 = time.monotonic()
    report = flow_monitor(FlowSuiteSpec(points=5, max_value=2))
    assert report.ok, report.failures
    assert report.chains_checked == 3 ** 5 == 243
    assert report.pairs_checked == 243 ** 2
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    criterion(
        f"criterion 1 flow oracle: PASS ({report.chains_checked} chains, "
        f"{report.pairs_checked} ordered pairs, {elapsed:.2f}s < 5s)"
    )


def test_criterion_2_end_to_end(crit2, criterion):
    t0 = time.monotonic()
    assert crit2.report.ok
    L, N, S = crit2.params.L, crit2.params.N, crit2.params.S
    assert (L, N, S) == (39, 1523, Fraction(12))
    pairs = qualifying_pairs(crit2.space, 2)
    worst_in = max(
        variation_ratio(crit2.family.chains[x], crit2.family.chains[y]) for x, y in pairs
    )
    assert worst_in == Fraction(4, 17)  # strictly below epsilon = 1/2
    naive = verify_naive(crit2.space, crit2.subsets, pairs, "1/2")
    assert naive.ok and not naive.violations
    radius = Fraction(naive.stats["support_radius"])
    assert radius <= 6 * S + 8 * N * S
    assert all(rout <= rin for _, _, rin, rout in crit2.cert.pairs)
    elapsed = crit2.elapsed + time.monotonic() - t0
    assert elapsed < 60
    criterion(
        f"criterion 2 end-to-end: PASS ({len(crit2.space.points)} points, "
        f"{naive.stats['pairs_checked']} pairs, S'={radius} <= {6 * S + 8 * N * S}, "
        f"{elapsed:.1f}s < 60s)"
    )


def test_criterion_3_augmented_metric_axioms(two, two_params, criterion):
    t0 = time.monotonic()
    aug = augment(two, rips_components(two, two_params.S), two_params)
    pts = materialize(aug, 10)
    assert len(pts) == 26 <= 40
    for u in pts:
        assert aug.dist(u, u) == 0
    for u, v in itertools.combinations(pts, 2):
        assert aug.dist(u, v) == aug.dist(v, u) > 0
    checked = 0
    for u, v, w in itertools.permutations(pts, 3):
        assert aug.dist(u, v) <= aug.dist(u, w) + aug.dist(w, v)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    criterion(
        f"criterion 3 augmented metric axioms: PASS ({len(pts)} points, "
        f"{checked} triangle triples, {elapsed:.2f}s < 5s)"
    )


def test_criterion_4_case_3b_equalities(crit2, criterion):
    t0 = time.monotonic()
    # crafted large component: unit line of 200 points at scale 2 with N=18
    space, _, _ = gen_instance("line", {"count": 200, "radii": ["2"]})
    params = check_instance(
        space,
        type(crit2.family)(chains={
            x: {p: 1 for p in space.metric.neighbors_within(x, 1)} for x in space.points
        }),
        1,
        2,
        2,
    ).params
    assert (params.L, params.N) == (4, 18)
    decomp, _ = classify(space, rips_components(space, 2), params)
    comp = decomp.components[0]
    assert comp.cls == "BOUNDED_LARGE"
    z = comp.markers
    assert z == tuple(f"p{d:03d}" for d in range(116, 151, 2))
    A = {"p000", "p001", ("p000", 1), ("p000", 2)}
    B = {"p001", "p002", ("p000", 2), ("p000", 3)}
    FA = tailor_subset(comp, A)
    FB = tailor_subset(comp, B)
    assert FA == {"p000", "p001", "p116", "p118"}
    assert FB == {"p001", "p002", "p118", "p120"}
    assert len(FA ^ FB) == len(A ^ B) == 4
    assert len(FA & FB) == len(A & B) == 2
    # a pipeline run that takes branch 3b re-asserts the equalities internally
    space7, family7, _ = gen_instance("line", {"count": 700, "radii": ["2", "1"]})
    _, cert7 = run_pipeline(prepare(space7, family7, 1, 1, 2))
    assert "3b" in cert7.cases.values()
    # and the criterion 2 instance sails through with zero 3b violations
    assert set(crit2.cert.cases.values()) == {"2"}
    elapsed = time.monotonic() - t0
    assert elapsed < 5
    criterion(
        f"criterion 4 case-3b equalities: PASS (hand pair exact, "
        f"{sum(1 for c in cert7.cases.values() if c == '3b')} pipeline 3b points, "
        f"{elapsed:.2f}s < 5s)"
    )


def test_criterion_5_unbounded_emulation(crit5, criterion):
    t0 = time.monotonic()
    assert crit5.report.ok
    params = crit5.params
    assert (params.L, params.N) == (39, 1523)
    doc = crit5.cert.to_jsonable()
    assert set(doc["cases"].values()) == {"1"}
    case1 = params.S + params.S * params.L * params.L
    assert all(Fraction(r) <= case1 for r in doc["radii"].values())
    assert all(rout <= rin for _, _, rin, rout in crit5.cert.pairs)
    # outputs are exactly the stabilized supports
    decomp, _ = classify(crit5.space, rips_components(crit5.space, params.S), params)
    flow_map = build_flow(augment(crit5.space, decomp, params))
    for x in ("p0000", "p0500", "p1357", "p1999"):
        final, _ = stabilize(flow_map, crit5.family.chains[x])
        assert frozenset(crit5.subsets[x]) == frozenset(final)
        assert len(set(crit5.subsets[x])) == len(crit5.subsets[x])
    elapsed = crit5.elapsed + time.monotonic() - t0
    assert elapsed < 30
    criterion(
        f"criterion 5 unbounded emulation: PASS (2000 points all case 1, "
        f"radii <= {case1}, {elapsed:.1f}s < 30s)"
    )


def test_criterion_6_amenability_generator(criterion):
    t0 = time.monotonic()
    art = run_instance("cayley_cyclic", CRIT6_PARAMS)
    assert art.report.ok
    assert all(set(c.values()) == {1} for c in art.family.chains.values())
    worst_in = max(
        variation_ratio(art.family.chains[x], art.family.chains[y])
        for x, y in qualifying_pairs(art.space, 2)
    )
    naive = verify_naive(
        art.space,
        art.subsets,
        qualifying_pairs(art.space, 2),
        "1/10",
        tail_spacing=art.params.S,
        hint_anchors={"g239"},
    )
    assert naive.ok
    assert art.cert.worst_ratio == worst_in == Fraction(4, 59)
    assert naive.stats["worst_ratio"] == "4/59"
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    criterion(
        f"criterion 6 amenability generator: PASS (240 points, worst ratio 4/59 "
        f"preserved exactly, {elapsed:.1f}s < 10s)"
    )


CLI_INSTANCES = {
    "crit2": [
        "generate", "disjoint_union_paths", "--paths", "20", "--min-len", "5",
        "--max-len", "300", "--radii", "12,6", "--R", "2", "--epsilon", "1/2",
    ],
    "crit5": [
        "generate", "line", "--count", "2000", "--radii", "12,6", "--R", "2",
        "--epsilon", "1/2", "--unbounded",
    ],
    "crit6": [
        "generate", "cayley_cyclic", "--n", "240", "--k", "30", "--R", "2",
        "--epsilon", "1/10",
    ],
}


def test_criterion_7_determinism(tmp_path, criterion):
    reruns = 0
    for name, argv in CLI_INSTANCES.items():
        insts, outs = [], []
        for attempt in range(2):
            inst = tmp_path / f"{name}_i{attempt}.json"
            out = tmp_path / f"{name}_o{attempt}.json"
            assert main([*argv, "--seed", "0", "--out", str(inst)]) == 0
            assert main(["run", str(inst), "--out", str(out)]) == 0
            insts.append(inst.read_bytes())
            outs.append(out.read_bytes())
        assert insts[0] == insts[1], f"{name} instance files differ between runs"
        assert outs[0] == outs[1], f"{name} output files differ between runs"
        reruns += 1

    # tampering with either half of an output must fail cmd_verify
    inst = tmp_path / "crit6_i0.json"
    good = tmp_path / "crit6_o0.json"
    assert main(["verify", str(inst), str(good)]) == 0
    doc = read_json(good)
    doc["subsets"]["g000"] = sorted(set(doc["subsets"]["g000"]) - {"g001"})
    bad1 = tmp_path / "tampered_subsets.json"
    write_canonical(bad1, doc)
    assert main(["verify", str(inst), str(bad1)]) != 0
    doc = read_json(good)
    doc["certificate"]["worst_ratio"] = "1/1000000"
    bad2 = tmp_path / "tampered_certificate.json"
    write_canonical(bad2, doc)
    assert main(["verify", str(inst), str(bad2)]) != 0
    criterion(
        f"criterion 7 determinism: PASS ({reruns} instances byte-identical across "
        f"reruns, 2 tampered outputs rejected)"
    )
