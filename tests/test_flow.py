"""Successor maps and the redistribution dynamics.

iterate() is compared against literal repeated application of the one-step
rule, stabilize() against the end of iterate(), and small cases are pinned to
hand-computed trajectories.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import split

from naivea.augment import augment
from naivea.chains import InstanceParams, l1_norm
from naivea.errors import InternalInvariantError
from naivea.flow import FlowMap, build_flow, iterate, stabilize, step
from naivea.generators import gen_instance
from naivea.space import rips_components
from naivea.tailor import classify

PATH = FlowMap(
    base_successor={**{f"c{i}": f"c{i+1}" for i in range(30)}, "c30": ("c30", 1)}, tail_cap=0
)


def build_line_flow(count, unbounded=False, S=2):
    params = {"count": count, "radii": ["2", "1"]}
    if unbounded:
        params["unbounded"] = True
    space, family, _ = gen_instance("line", params)
    ip = InstanceParams(R=Fraction(1), epsilon=Fraction(1), S=Fraction(S), L=9, N=83)
    decomp, _ = classify(space, rips_components(space, S), ip)
    return space, family, build_flow(augment(space, decomp, ip))


def test_split():
    assert split({"a": 3, "b": 1}) == ({"a": 1, "b": 1}, {"a": 2})
    assert split({}) == ({}, {})


def test_step_hand_case():
    a = {"c0": 2, "c1": 2}
    s1 = step(PATH, a)
    assert s1 == {"c0": 1, "c1": 2, "c2": 1}
    s2 = step(PATH, s1)
    assert s2 == {"c0": 1, "c1": 1, "c2": 2}
    s3 = step(PATH, s2)
    assert s3 == {"c0": 1, "c1": 1, "c2": 1, "c3": 1}


def test_stabilize_hand_case():
    final, firings = stabilize(PATH, {"c0": 2, "c1": 2})
    assert final == {f"c{i}": 1 for i in range(4)}
    assert firings == 3  # c0, then c1 with 3 units, then c2 with 2
    assert len(list(iterate(PATH, {"c0": 2, "c1": 2}))) == 3


def test_stabilize_fires_each_point_once():
    # synchronous stepping fires c1 in steps 1 and 2; settling fires c0 first,
    # so c1 fires once with all 3 units
    a = {"c0": 2, "c1": 2}
    fired = []
    for chain in [a, *iterate(PATH, a)]:
        fired.extend(p for p, v in chain.items() if v > 1)
    assert sorted(fired) == ["c0", "c1", "c1", "c2"]
    assert stabilize(PATH, a)[1] == len(set(fired)) == 3


def test_stabilize_indicator_is_fixed():
    a = {"c0": 1, "c5": 1}
    final, count = stabilize(PATH, a)
    assert final == a and count == 0
    assert list(iterate(PATH, a)) == []


def test_iterate_yields_every_step_in_order():
    replay = {"c0": 4}
    seen = list(iterate(PATH, replay))
    assert len(seen) == 3
    for chain in seen:
        replay = step(PATH, replay)
        assert replay == chain


# r anchors the tail; a and b share r as successor, and f hangs five levels deep
TREE = {"r": ("r", 1), "a": "r", "b": "r", "c": "a", "d": "c", "e": "d", "f": "e"}


def test_stabilize_walks_the_levels_once():
    """Level by level: f fires alone at depth 5 and pushes nothing past one
    unit, so the walk jumps the gap to c at depth 2; c tops up a, whose own
    excess waits at depth 1 beside b's; a and b merge onto r, whose mass
    runs down the tail. Seven firings, one per point, in that order."""
    fm = FlowMap(base_successor=TREE, tail_cap=3)
    assert fm.depth == {"r": 0, "a": 1, "b": 1, "c": 2, "d": 3, "e": 4, "f": 5}
    a = {"f": 2, "c": 2, "a": 3, "b": 2}
    final, firings = stabilize(fm, a)
    assert list(final.items()) == [
        ("f", 1), ("c", 1), ("a", 1), ("b", 1), ("e", 1),
        ("r", 1), (("r", 1), 1), (("r", 2), 1), (("r", 3), 1),
    ]
    assert firings == 7
    assert final == list(iterate(fm, a))[-1]
    # the same walk one tail point short: the cap stops the last firing
    with pytest.raises(InternalInvariantError, match="tail cap 2 at 'r'"):
        stabilize(FlowMap(base_successor=TREE, tail_cap=2), a)
    with pytest.raises(InternalInvariantError, match="no successor defined for 'z'"):
        stabilize(fm, {"z": 2})


chains_st = st.dictionaries(
    st.integers(min_value=0, max_value=8).map(lambda i: f"c{i}"),
    st.integers(min_value=1, max_value=4),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(chains_st)
def test_step_preserves_mass_and_stabilize_matches_iteration(a):
    assert l1_norm(step(PATH, a)) == l1_norm(a)
    steps = list(iterate(PATH, a))
    current = dict(a)
    for chain in steps:
        current = step(PATH, current)
        assert current == chain
    final, firings = stabilize(PATH, a)
    assert current == final
    assert set(final.values()) <= {1}
    assert len(final) == l1_norm(a)
    _, excess = split(a)
    assert len(steps) <= l1_norm(a) * l1_norm(excess)
    assert firings <= l1_norm(a)


def test_flow_map_rejects_loops_and_missing_successors():
    with pytest.raises(InternalInvariantError, match="loops"):
        FlowMap(base_successor={"a": "b", "b": "a"}, tail_cap=0)
    with pytest.raises(InternalInvariantError, match="loops"):
        FlowMap(base_successor={"c": "a", "a": "b", "b": "a"}, tail_cap=0)
    with pytest.raises(InternalInvariantError, match="no successor defined for 'b'"):
        FlowMap(base_successor={"a": "b"}, tail_cap=0)
    with pytest.raises(InternalInvariantError, match="no successor defined for 'a'"):
        FlowMap(base_successor={"a": None}, tail_cap=0)


def test_iterate_detects_cycles():
    flow = FlowMap(base_successor={"a": ("a", 1), "b": "a"}, tail_cap=5)
    flow.base_successor["a"] = "b"  # a loop the constructor would refuse
    with pytest.raises(InternalInvariantError, match="failed to stabilize"):
        list(iterate(flow, {"a": 2, "b": 1}))


def test_flow_depths_count_hops_to_the_tail():
    fm = FlowMap(base_successor={"a": ("a", 1), "b": "a", "c": "b", "d": "a"}, tail_cap=3)
    assert fm.depth == {"a": 0, "b": 1, "c": 2, "d": 1}


def test_stabilize_and_iterate_enforce_the_tail_cap():
    fm = FlowMap(base_successor={"a": ("a", 1)}, tail_cap=2)
    assert stabilize(fm, {"a": 3}) == ({"a": 1, ("a", 1): 1, ("a", 2): 1}, 2)
    for settle in (stabilize, lambda f, a: list(iterate(f, a))):
        with pytest.raises(InternalInvariantError, match="tail cap 2"):
            settle(fm, {"a": 4})


def test_flow_map_tail_arithmetic():
    fm = FlowMap(base_successor={"a": ("a", 1)}, tail_cap=3)
    assert fm.successor("a") == ("a", 1)
    assert fm.successor(("a", 1)) == ("a", 2)
    with pytest.raises(InternalInvariantError, match="cap"):
        fm.successor(("a", 3))
    with pytest.raises(InternalInvariantError, match="no successor"):
        fm.successor("b")


def test_bounded_tree_points_at_basepoint():
    space, _, flow = build_line_flow(10)
    succ = flow.base_successor
    assert succ["p0"] == ("p0", 1)
    assert succ["p1"] == "p0" and succ["p2"] == "p0"
    # BFS with S=2 discovers two points per wave, so parents sit two back
    for i in range(3, 10):
        assert succ[f"p{i}"] == f"p{i-2}"
    for child, par in succ.items():
        if isinstance(par, str):
            assert space.dist(child, par) <= 2


def test_unbounded_tree_follows_the_ray():
    _, _, flow = build_line_flow(6, unbounded=True)
    succ = flow.base_successor
    for i in range(5):
        assert succ[f"p{i}"] == f"p{i+1}"
    assert succ["p5"] == ("p5", 1)


def test_flow_on_component_stabilizes_within_window():
    space, family, flow = build_line_flow(10)
    final, firings = stabilize(flow, family.chains["p0"])
    # mass 5 chain at the basepoint: three units stay, two escape to the tail
    assert final == {"p0": 1, "p1": 1, "p2": 1, ("p0", 1): 1, ("p0", 2): 1}
    assert firings == 3  # p1, p0, then the first tail point


def test_missing_ray_is_internal_error(two, two_params):
    from dataclasses import replace

    decomp = rips_components(two, 2)
    broken = replace(decomp.components[0], cls="UNBOUNDED_EMULATED", ray=None)
    bad = type(decomp)(
        components=(broken, decomp.components[1]),
        owner=decomp.owner,
    )
    with pytest.raises(InternalInvariantError, match="without a ray"):
        build_flow(augment(two, bad, two_params))
