"""Classification, annulus markers, tailoring, and the full pipeline."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naivea
from naivea.chains import ChainFamily, InstanceParams, set_ratio, variation_ratio
from naivea.cli import main
from naivea.errors import InternalInvariantError, MalformedInputError, PreconditionError
from naivea.generators import gen_instance
from naivea.instance_io import load_instance, write_canonical
from naivea.space import (
    CLS_BOUNDED_LARGE,
    CLS_BOUNDED_SMALL,
    CLS_UNBOUNDED,
    annulus,
    build_space,
    rips_components,
)
from naivea.tailor import (
    annulus_points,
    classify,
    prepare,
    run_pipeline,
    tailor_subset,
)

SMALL_PARAMS = InstanceParams(R=Fraction(1), epsilon=Fraction(1), S=Fraction(2), L=2, N=6)


def unit_line(count, hints=()):
    width = len(str(count - 1))
    ids = [f"p{i:0{width}d}" for i in range(count)]
    return build_space(
        ids, {"type": "positions", "values": {p: i for i, p in enumerate(ids)}}, hints=hints
    )


def test_classify_small_vs_large():
    # with S=2, N=6 the outer radius is 3*2 + 4*2*6 = 54
    small, _ = classify(unit_line(55), rips_components(unit_line(55), 2), SMALL_PARAMS)
    assert small.components[0].cls == CLS_BOUNDED_SMALL
    assert small.components[0].markers == ()
    large, _ = classify(unit_line(60), rips_components(unit_line(60), 2), SMALL_PARAMS)
    assert large.components[0].cls == CLS_BOUNDED_LARGE
    assert annulus(unit_line(60), SMALL_PARAMS.S, SMALL_PARAMS.N) == (42, 54)
    assert len(large.components[0].markers) == SMALL_PARAMS.N


def test_annulus_markers_hand_case():
    space = unit_line(60)
    decomp, _ = classify(space, rips_components(space, 2), SMALL_PARAMS)
    markers = decomp.components[0].markers
    assert markers == ("p44", "p46", "p48", "p50", "p52", "p54")
    assert markers == annulus_points(space, decomp.components[0], SMALL_PARAMS)
    for z in markers:
        assert 42 < space.dist("p00", z) <= 54


def test_annulus_needs_a_far_point():
    # no point beyond the outer radius 54: the component is small, no markers
    space = unit_line(20)
    decomp = rips_components(space, 2)
    assert annulus_points(space, decomp.components[0], SMALL_PARAMS) == ()


def test_classify_rejects_broken_rays_with_warning(two, two_params):
    # ray hops across the component gap: invalid, so the hint is dropped
    sp = build_space(
        two.points,
        {"type": "positions", "values": {p: two.metric.positions[p] for p in two.points}},
        hints=[{"component_of": "q0", "ray": ["q0", "r0"]}],
    )
    decomp, warnings = classify(sp, rips_components(sp, 2), two_params)
    assert decomp.components[0].cls == CLS_BOUNDED_SMALL
    assert decomp.components[0].ray is None
    assert warnings and "outside the component" in warnings[0]

    sp2 = unit_line(5, hints=[{"component_of": "p0", "ray": ["p0", "p3"]}])
    _, warnings2 = classify(sp2, rips_components(sp2, 2), SMALL_PARAMS)
    assert "exceeds the scale" in warnings2[0]

    sp3 = unit_line(5, hints=[{"component_of": "p0", "ray": ["p0", "p1", "p0"]}])
    _, warnings3 = classify(sp3, rips_components(sp3, 2), SMALL_PARAMS)
    assert "revisits" in warnings3[0]


def test_classify_accepts_valid_ray():
    sp = unit_line(5, hints=[{"component_of": "p0", "ray": ["p2", "p3", "p4"]}])
    decomp, warnings = classify(sp, rips_components(sp, 2), SMALL_PARAMS)
    comp = decomp.components[0]
    assert comp.cls == CLS_UNBOUNDED
    assert comp.basepoint == "p2"
    assert comp.anchor == "p4"
    assert warnings == ()


# two S-connected lines at S = 1, far apart: a0..a5 at 0..5 and b0..b5 at 50..55
HINT_POSITIONS = {f"{c}{i}": base + i for c, base in (("a", 0), ("b", 50)) for i in range(6)}
HINT_IDS = sorted(HINT_POSITIONS)


@st.composite
def ray_hints(draw):
    """0-3 hints naming random points; a ray is a slice of one line, its
    reverse, or random points (which may repeat, jump or cross lines)."""
    hints = []
    for _ in range(draw(st.integers(0, 3))):
        line = draw(st.sampled_from("ab"))
        i = draw(st.integers(0, 5))
        j = draw(st.integers(i + 1, 6))
        shape = draw(st.sampled_from(["slice", "reversed", "random"]))
        if shape == "random":
            ray = draw(st.lists(st.sampled_from(HINT_IDS), min_size=1, max_size=4))
        else:
            ray = [f"{line}{n}" for n in range(i, j)]
            if shape == "reversed":
                ray.reverse()
        hints.append({"component_of": draw(st.sampled_from(HINT_IDS)), "ray": ray})
    return hints


@settings(max_examples=300, deadline=None)
@given(ray_hints())
def test_classify_counts_hints_per_component(hints):
    space = build_space(
        HINT_IDS, {"type": "positions", "values": HINT_POSITIONS}, hints=hints
    )
    params = InstanceParams(R=Fraction(1, 2), epsilon=Fraction(1), S=Fraction(1), L=2, N=6)
    decomp = rips_components(space, 1)
    by_line = {c: [h for h in hints if h["component_of"][0] == c] for c in "ab"}
    crowded = [c for c in "ab" if len(by_line[c]) > 1]
    if crowded:
        with pytest.raises(MalformedInputError, match=f"component of '{crowded[0]}0'"):
            classify(space, decomp, params)
        return
    classified, warnings = classify(space, decomp, params)
    for comp in classified.components:
        mine = by_line[comp.points[0][0]]
        ray = tuple(mine[0]["ray"]) if mine else None
        valid = ray is not None and (
            len(set(ray)) == len(ray)
            and all(p[0] == comp.points[0][0] for p in ray)
            and all(abs(HINT_POSITIONS[u] - HINT_POSITIONS[v]) <= 1 for u, v in zip(ray, ray[1:]))
        )
        if valid:
            assert comp.cls == CLS_UNBOUNDED
            assert (comp.basepoint, comp.ray) == (ray[0], ray)
        else:
            assert comp.cls == CLS_BOUNDED_SMALL
            assert (comp.basepoint, comp.ray) == (comp.points[0], None)
    assert len(warnings) == sum(
        1 for comp in classified.components
        if by_line[comp.points[0][0]] and comp.cls != CLS_UNBOUNDED
    )


def test_tailor_subset_cases():
    space = unit_line(60)
    decomp, _ = classify(space, rips_components(space, 2), SMALL_PARAMS)
    comp = decomp.components[0]
    z = comp.markers
    # tails swap for markers, base points pass through
    out = tailor_subset(comp, {"p00", "p01", ("p00", 1), ("p00", 3)})
    assert out == {"p00", "p01", z[0], z[2]}
    assert isinstance(out, frozenset)


def distinct(members) -> frozenset:
    """The set of a subset's members, which ``run_pipeline`` lists once each."""
    out = frozenset(members)
    assert len(out) == len(members)
    return out


def test_pipeline_small_two_components(two):
    whole = {
        x: {p: 1 for p in ("q0", "q1", "q2")} if x.startswith("q") else {p: 1 for p in ("r0", "r1", "r2")}
        for x in two.points
    }
    subsets, cert = run_pipeline(prepare(two, ChainFamily(chains=whole), 1, 1, 2))
    doc = cert.to_jsonable()
    assert set(doc["cases"].values()) == {"2"}
    assert distinct(subsets["q1"]) == frozenset({"q0", "q1", "q2"})
    assert distinct(subsets["r0"]) == frozenset({"r0", "r1", "r2"})
    assert doc["worst_ratio"] == "0"
    assert doc["worst_radius"] == "2"
    assert doc["params"]["L"] == 4 and doc["params"]["N"] == 18
    assert doc["bound_radius"] == str(6 * 2 + 8 * 2 * 18)
    assert [x for x, *_ in cert.pairs] == ["q0", "q1", "r0", "r1"]
    # one shared subset object per component, not one copy per point
    assert len(subsets) == 6
    assert len({id(s) for s in subsets.values()}) == 2


def test_pipeline_does_not_flow_case_2(monkeypatch):
    """A case-2 subset is its component, so no case-2 point is flowed."""

    def refuse(flow, chain):
        raise AssertionError("a case-2 point was flowed")

    monkeypatch.setattr("naivea.tailor.stabilize", refuse)
    space, family, params = gen_instance("line", {"count": 12, "radii": ["2", "1"]})
    subsets, cert = run_pipeline(prepare(space, family, params.R, params.epsilon, params.S))
    assert set(cert.cases.values()) == {"2"}
    assert all(sub is subsets["p00"] for sub in subsets.values())


def test_pipeline_case_3a_identity():
    # clipped 1-ball indicators: already stabilized, never touch the tail
    space = unit_line(200)
    ids = list(space.points)
    chains = {}
    for i, x in enumerate(ids):
        support = {ids[j] for j in (i - 1, i, i + 1) if 0 <= j < len(ids)}
        chains[x] = {p: 1 for p in support}
    subsets, cert = run_pipeline(prepare(space, ChainFamily(chains=chains), 1, 2, 2))
    doc = cert.to_jsonable()
    assert doc["params"]["L"] == 4 and doc["params"]["N"] == 18
    assert set(doc["cases"].values()) == {"3a"}
    for x, sub in subsets.items():
        assert distinct(sub) == frozenset(chains[x])  # identity on tail-free supports
    assert doc["worst_ratio"] == "1"  # end effects: {p0,p1} vs {p0,p1,p2}
    assert all(rout <= rin for _, _, rin, rout in cert.pairs)


def test_pipeline_case_3b_swaps_tail_for_markers():
    space, family, _ = gen_instance("line", {"count": 700, "radii": ["2", "1"]})
    subsets, cert = run_pipeline(prepare(space, family, 1, 1, 2))
    doc = cert.to_jsonable()
    assert doc["params"]["L"] == 9 and doc["params"]["N"] == 83
    cases = doc["cases"]
    assert cases["p000"] == "3b"
    assert cases["p350"] == "3a"
    # hand-tracked: mass 5 at the basepoint leaves two units on the tail,
    # which land on the first two annulus markers at distances 506 and 508
    assert distinct(subsets["p000"]) == frozenset({"p000", "p001", "p002", "p506", "p508"})
    assert Fraction(doc["radii"]["p000"]) == 508
    for _, _, rin, rout in cert.pairs:
        assert rout <= rin
    # marker swap preserves pair cardinalities: neighbors get equal ratios
    _, _, rin, rout = next(row for row in cert.pairs if row[:2] == ("p000", "p001"))
    assert rout == rin == Fraction(2, 5)


def test_pipeline_case_1_unbounded():
    space, family, _ = gen_instance(
        "line", {"count": 30, "radii": ["2", "1"], "unbounded": True}
    )
    subsets, cert = run_pipeline(prepare(space, family, 1, 1, 2))
    doc = cert.to_jsonable()
    assert set(doc["cases"].values()) == {"1"}
    # the right edge pushes mass onto the virtual continuation of the ray
    assert distinct(subsets["p29"]) == frozenset({"p27", "p28", "p29", ("p29", 1), ("p29", 2)})
    assert Fraction(doc["radii"]["p29"]) == 4
    case1 = Fraction(doc["bounds"]["case1"])
    assert all(Fraction(r) <= case1 for r in doc["radii"].values())


def test_pipeline_rejects_bad_instances(two):
    chains = {x: {x: 1} for x in two.points}
    # prepare records the failed admission and still builds every stage
    prep = prepare(two, ChainFamily(chains=chains), 1, "1/2", 2)
    with pytest.raises(PreconditionError) as exc:
        run_pipeline(prep)
    assert exc.value.report is prep.report
    assert not prep.report.ok and len(prep.decomposition.components) == 2
    assert set(prep.flow_map.base_successor) == set(two.points)


def two_component_doc():
    """A large bounded component p00..p59 and a second one, q0, far off."""
    ids = [f"p{i:02d}" for i in range(60)]  # beyond the outer radius 54: BOUNDED_LARGE
    values = {p: i for i, p in enumerate(ids)}
    values["q0"] = 100  # a second component, anchored at q0
    return {
        "space": {"points": sorted(values), "metric": {"type": "positions", "values": values}},
        "params": {"R": "1/2", "epsilon": "1", "S": "2"},  # no pair is within R
        "chains": {x: {x: 1} for x in values},
    }


def test_pipeline_rejects_supports_outside_their_reach(monkeypatch, tmp_path, capsys):
    """Each support point is checked once, against x's own component: a base
    point of another component, a tail at another anchor, a tail index outside
    1..N and a point beyond S(1 + ||a_x||_1) are invariant failures (exit 4)."""
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    write_canonical(inst, two_component_doc())
    instance = load_instance(inst)
    space, family = instance.space, instance.family
    prep = prepare(space, family, "1/2", 1, 2)
    N = prep.report.params.N
    assert main(["run", str(inst), "--out", str(out)]) == 0
    # p00 is flowed first; its mass is 1, so its reach may be S(1 + 1) = 4
    for support, message in [
        ({"p00", "q0"}, "flow left the component at 'p00'"),
        ({"p00", ("q0", 1)}, "flow left the component at 'p00'"),
        ({"p00", ("p00", N + 1)}, "tail index beyond N in the support of 'p00'"),
        ({"p00", ("p00", 0)}, "tail index beyond N in the support of 'p00'"),
        ({"p00", "p19"}, "stabilized support of 'p00' reaches past S(1 + ||a_x||_1)"),
    ]:
        monkeypatch.setattr(
            "naivea.tailor.stabilize", lambda flow, a, s=support: (dict.fromkeys(s, 1), 0)
        )
        with pytest.raises(InternalInvariantError, match=message):
            run_pipeline(prep)
        capsys.readouterr()
        assert main(["run", str(inst), "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"internal invariant violated: {message}\n"


def test_pipeline_names_the_same_bad_support_member_under_any_hash_seed(tmp_path):
    """A support with several bad points outside x's component names the
    first in ``aug_sort_key`` order, not in set order: the tail (p00, N+1)
    sorts before q0 and (q0, 2)."""
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    write_canonical(inst, two_component_doc())
    instance = load_instance(inst)
    N = prepare(instance.space, instance.family, "1/2", 1, 2).report.params.N
    support = {"p00", "q0", ("p00", N + 1), ("q0", 2), "p01"}
    script = (
        "import sys\n"
        "from naivea import tailor\n"
        "from naivea.cli import main\n"
        f"tailor.stabilize = lambda flow, a: (dict.fromkeys({support!r}, 1), 0)\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    paths = (str(Path(naivea.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    seen = set()
    for seed in ("0", "1", "4"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)),
               "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, "-c", script, "run", str(inst), "--out", str(out)],
                              capture_output=True, env=env, timeout=120)
        seen.add((done.returncode, done.stderr.decode()))
    assert seen == {
        (4, "internal invariant violated: tail index beyond N in the support of 'p00'\n")
    }


def test_pipeline_holds_flowed_supports_to_the_flow_bound(monkeypatch, tmp_path, capsys):
    """A flowed support lies within S(1 + ||a_x||_1) of x, with tail indices
    at most ||a_x||_1: supports inside the case-1 bound S + S*L^2 but past
    either of these are invariant failures (exit 4)."""
    ids = [f"p{i:02d}" for i in range(60)]  # beyond the outer radius 54: BOUNDED_LARGE
    doc = {
        "space": {"points": ids,
                  "metric": {"type": "positions", "values": {p: i for i, p in enumerate(ids)}}},
        "params": {"R": "1/2", "epsilon": "1", "S": "2"},  # no pair is within R
        "chains": {x: {x: 1} for x in ids},
    }
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    write_canonical(inst, doc)
    assert main(["run", str(inst), "--out", str(out)]) == 0
    # each mass is 1, so the reach may be S(1 + 1) = 4 and a tail index 1,
    # against a case-1 bound of 2 + 2 * 2^2 = 10 and N = 6

    def five_on(chain):  # x and the point 5 from it: reach 5
        i = ids.index(next(iter(chain)))
        return {ids[i], ids[i + 5 if i + 5 < len(ids) else i - 5]}

    def second_tail(chain):  # p00 and its anchor's second tail point: reach 4
        x = next(iter(chain))
        return {x, ("p00", 2)} if x == "p00" else {x}

    for supports, message in [
        (five_on, "stabilized support of 'p00' reaches past S(1 + ||a_x||_1)"),
        (second_tail, "tail index beyond ||a_x||_1 in the support of 'p00'"),
    ]:
        monkeypatch.setattr(
            "naivea.tailor.stabilize",
            lambda flow, a, f=supports: (dict.fromkeys(f(a), 1), 0),
        )
        capsys.readouterr()
        assert main(["run", str(inst), "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"internal invariant violated: {message}\n"


def test_repeated_radii_stay_within_the_flow_bound(tmp_path, capsys):
    """Eight equal radii put a line's supports near S(1 + ||a_x||_1): its
    largest radius, 256, is about 0.88 of that bound; run and verify pass."""
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    assert main(["generate", "line", "--count", "300", "--radii", "4,4,4,4,4,4,4,4",
                 "--unbounded", "--R", "1", "--epsilon", "1", "--out", str(inst)]) == 0
    assert main(["run", str(inst), "--out", str(out)]) == 0
    assert "worst radius 256" in capsys.readouterr().out
    assert main(["verify", str(inst), str(out)]) == 0
    assert capsys.readouterr().out.endswith("certificate check: PASS\n")


def test_pipeline_rejects_output_ratios_above_their_input(monkeypatch, tmp_path, capsys):
    """The pair check compares each output ratio with its input ratio: a
    stabilized support that leaves two neighbours disjoint (INF) or makes
    their ratio exceed the input one is an invariant failure (exit 4)."""
    ids = [f"p{i:02d}" for i in range(10)]
    doc = {
        "space": {
            "points": ids,
            "metric": {"type": "positions", "values": {p: i for i, p in enumerate(ids)}},
        },
        "params": {"R": "1", "epsilon": "3", "S": "2"},
        # x carries 2 and its neighbours 1, so x is the largest entry of its chain
        "chains": {
            x: {ids[j]: 2 if j == i else 1 for j in (i - 1, i, i + 1) if 0 <= j < len(ids)}
            for i, x in enumerate(ids)
        },
        "unbounded_hints": [{"component_of": "p00", "ray": ids}],
    }
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    write_canonical(inst, doc)
    instance = load_instance(inst)
    prep = prepare(instance.space, instance.family, "1", "3", "2")
    assert main(["run", str(inst), "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["certificate"]["cases"].values()) == {"1"}
    assert prep.report.pairs[0] == ("p00", "p01", Fraction(3, 2))

    def owner(chain):
        return max(chain, key=chain.get)

    def disjoint(chain):
        return {owner(chain)}

    def wider(chain):
        i = ids.index(owner(chain))
        return {ids[i], ids[i + 1] if i + 1 < len(ids) else ids[i - 1]}

    # ({p00}, {p01}) is disjoint; ({p00, p01}, {p01, p02}) has ratio 2 > 3/2
    for supports, message in [
        (disjoint, "output ratio for ('p00', 'p01') is inf, input was 3/2"),
        (wider, "output ratio for ('p00', 'p01') is 2, input was 3/2"),
    ]:
        monkeypatch.setattr(
            "naivea.tailor.stabilize",
            lambda flow, a, f=supports: (dict.fromkeys(f(a), 1), 0),
        )
        with pytest.raises(InternalInvariantError) as exc:
            run_pipeline(prep)
        assert str(exc.value) == message
        capsys.readouterr()
        assert main(["run", str(inst), "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"internal invariant violated: {message}\n"


def test_pair_errors_come_after_every_point_error(monkeypatch, tmp_path, capsys):
    """A point's error is named before any pair error, even when the pair
    is checked first; with no point error, the first pair error is named."""
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    assert main(["generate", "line", "--count", "30", "--radii", "2,1", "--unbounded",
                 "--out", str(inst)]) == 0
    late = load_instance(inst).family.chains["p25"]
    check_instance, stabilize = naivea.tailor.check_instance, naivea.tailor.stabilize

    def zero_first_input_ratio(*args):
        # the first pair's output ratio, 2/5, now exceeds its input ratio
        report = check_instance(*args)
        (x, y, _), *rest = report.pairs
        return replace(report, pairs=((x, y, Fraction(0)), *rest))

    def far_support_at_p25(flow, chain):
        support, steps = stabilize(flow, chain)
        if chain == late:
            support = {"p00": 1, **support}
        return support, steps

    monkeypatch.setattr("naivea.tailor.check_instance", zero_first_input_ratio)
    for patch, message in [
        (None, "output ratio for ('p00', 'p01') is 2/5, input was 0"),
        (far_support_at_p25, "stabilized support of 'p25' reaches past S(1 + ||a_x||_1)"),
    ]:
        if patch is not None:
            monkeypatch.setattr("naivea.tailor.stabilize", patch)
        capsys.readouterr()
        assert main(["run", str(inst), "--out", str(out)]) == 4
        assert capsys.readouterr().err == f"internal invariant violated: {message}\n"
