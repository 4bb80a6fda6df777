"""Successor maps and the redistribution dynamics.

stabilize() is compared against literal repeated application of the one-step
rule, and small cases are pinned to hand-computed trajectories.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naivea.augment import augment
from naivea.chains import InstanceParams, l1_norm
from naivea.errors import InternalInvariantError
from naivea.flow import FlowMap, build_flow, split, stabilize, step
from naivea.generators import gen_instance
from naivea.space import rips_components
from naivea.tailor import classify

PATH = FlowMap(base_successor={f"c{i}": f"c{i+1}" for i in range(30)}, tail_cap=0)


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
    final, count = stabilize(PATH, {"c0": 2, "c1": 2})
    assert final == {f"c{i}": 1 for i in range(4)}
    assert count == 3


def test_stabilize_indicator_is_fixed():
    a = {"c0": 1, "c5": 1}
    final, count = stabilize(PATH, a)
    assert final == a and count == 0


def test_stabilize_reports_iterations_in_order():
    seen = []
    stabilize(PATH, {"c0": 4}, on_iterate=lambda n, c: seen.append((n, dict(c))))
    assert [n for n, _ in seen] == list(range(1, len(seen) + 1))
    replay = {"c0": 4}
    for _, chain in seen:
        replay = step(PATH, replay)
        assert replay == chain


chains_st = st.dictionaries(
    st.integers(min_value=0, max_value=8).map(lambda i: f"c{i}"),
    st.integers(min_value=1, max_value=4),
    max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(chains_st)
def test_step_preserves_mass_and_stabilize_matches_iteration(a):
    assert l1_norm(step(PATH, a)) == l1_norm(a)
    final, count = stabilize(PATH, a)
    current = dict(a)
    for _ in range(count):
        current = step(PATH, current)
    assert current == final
    assert set(final.values()) <= {1}
    assert len(final) == l1_norm(a)
    _, excess = split(a)
    assert count <= l1_norm(a) * l1_norm(excess)


def test_stabilize_detects_cycles():
    with pytest.raises(InternalInvariantError, match="failed to stabilize"):
        stabilize(FlowMap(base_successor={"a": "b", "b": "a"}, tail_cap=0), {"a": 2, "b": 1})


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
    final, count = stabilize(flow, family.chains["p0"])
    # mass 5 chain at the basepoint: three units stay, two escape to the tail
    assert final == {"p0": 1, "p1": 1, "p2": 1, ("p0", 1): 1, ("p0", 2): 1}
    assert count == 3


def test_missing_ray_is_internal_error(two, two_params):
    from dataclasses import replace

    decomp = rips_components(two, 2)
    broken = replace(decomp.components[0], cls="UNBOUNDED_EMULATED", ray=None)
    bad = type(decomp)(
        scale=decomp.scale,
        components=(broken, decomp.components[1]),
        owner=decomp.owner,
    )
    with pytest.raises(InternalInvariantError, match="without a ray"):
        build_flow(augment(two, bad, two_params))
