"""The integer ratio path against an exact Fraction reference.

Admission (``check_instance``) and ``verify_naive`` decide each ratio as an
int pair by cross-multiplication and build one shared value per distinct
pair. Here both are compared with a reference that computes every ratio as a
Fraction from first principles (``meet``, ``diff_l1`` and set operators),
checks that ``variation_ratio`` and ``set_ratio`` agree with it, and
compares it with epsilon as a Fraction. The documents are the end-to-end
ones on all three backends; some chains are copied from a neighbour
(identical chains) or cut to their own point (often disjoint ones), some
subsets are one object shared by several points (``A is B``), and epsilon
is sometimes a ratio that occurs, which must violate.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import diff_l1, meet
from test_e2e import documents

from naivea.chains import (
    INFINITE,
    ChainFamily,
    check_instance,
    format_ratio,
    l1_norm,
    qualifying_pairs,
    set_ratio,
    variation_ratio,
)
from naivea.errors import PreconditionError
from naivea.rational import parse_rational
from naivea.space import build_space
from naivea.verify import verify_naive


def exact(num, den):
    if num == 0:
        return Fraction(0)
    if den == 0:
        return INFINITE
    return Fraction(num, den)


def chain_ratio(a, b):
    r = exact(diff_l1(a, b), l1_norm(meet(a, b)))
    assert_same(variation_ratio(a, b), r)
    return r


def subset_ratio(A, B):
    r = exact(len(A ^ B), len(A & B))
    assert_same(set_ratio(A, B), r)
    return r


def assert_same(got, want):
    assert type(got) is type(want) and got == want, (got, want)


def reference_admission(space, chains, R, epsilon, S):
    violations = [
        {"condition": "support_radius", "x": x, "point": z, "distance": str(space.dist(x, z))}
        for x in space.points
        for z in chains[x]
        if space.dist(x, z) > S
    ]
    pairs = [(x, y, chain_ratio(chains[x], chains[y])) for x, y in qualifying_pairs(space, R)]
    violations += [
        {"condition": "variation_ratio", "x": x, "y": y, "ratio": format_ratio(r)}
        for x, y, r in pairs
        if r >= epsilon
    ]
    return pairs, violations


def reference_naive(space, subsets, pairs, epsilon):
    ratios = [subset_ratio(subsets[x], subsets[y]) for x, y in pairs]
    violations = [
        {"condition": "set_ratio", "x": x, "y": y, "ratio": format_ratio(r)}
        for (x, y), r in zip(pairs, ratios)
        if r >= epsilon
    ]
    finite = [r for r in ratios if r != INFINITE]
    stats = {
        "pairs_checked": len(pairs),
        "worst_ratio": format_ratio(max(finite, default=Fraction(0))),
        "support_radius": str(
            max(space.dist(x, p) for x in space.points for p in subsets[x])
        ),
    }
    return ratios, violations, stats


def pick_epsilon(draw, ratios):
    """A ratio that occurs, when one is finite and positive, or a fixed one."""
    occurring = sorted({r for r in ratios if r != INFINITE and r > 0})
    if occurring and draw(st.booleans()):
        return draw(st.sampled_from(occurring))
    return draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]))


@st.composite
def witnesses(draw):
    doc = draw(documents())
    space = build_space(doc["space"]["points"], doc["space"]["metric"])
    points = list(space.points)
    chains = {x: dict(chain) for x, chain in doc["chains"].items()}
    for x in draw(st.lists(st.sampled_from(points), max_size=3)):
        if draw(st.booleans()):
            chains[x] = {x: draw(st.integers(1, 3))}
        else:
            chains[x] = dict(chains[draw(st.sampled_from(points))])
    R, S = (parse_rational(doc["params"][key]) for key in ("R", "S"))
    ratios = [chain_ratio(chains[x], chains[y]) for x, y in qualifying_pairs(space, R)]
    epsilon = pick_epsilon(draw, ratios)

    subsets, rest = {}, draw(st.permutations(points))
    while rest:
        cut = draw(st.integers(1, len(rest)))
        group, rest = rest[:cut], rest[cut:]
        source = frozenset(chains[group[0]])
        if draw(st.booleans()):
            subsets.update(dict.fromkeys(group, source))  # one shared object
        else:
            subsets.update((x, frozenset(chains[x])) for x in group)
        if draw(st.booleans()):
            subsets[group[0]] = frozenset([group[0]])
    pairs = qualifying_pairs(space, R)
    set_ratios = [subset_ratio(subsets[x], subsets[y]) for x, y in pairs]
    set_epsilon = pick_epsilon(draw, set_ratios)
    return space, chains, R, epsilon, S, subsets, set_epsilon


def check_against_reference(space, chains, R, epsilon, S, subsets, set_epsilon):
    try:
        report = check_instance(space, ChainFamily(chains=chains), R, epsilon, S)
    except PreconditionError:  # S <= R
        assert S <= R
    else:
        pairs, violations = reference_admission(space, chains, R, epsilon, S)
        assert [(x, y) for x, y, _ in report.pairs] == [(x, y) for x, y, _ in pairs]
        for (*_, got), (*_, want) in zip(report.pairs, pairs):
            assert_same(got, want)
        assert report.violations == tuple(violations)

    pairs = qualifying_pairs(space, R)
    naive = verify_naive(space, subsets, pairs, set_epsilon)
    ratios, violations, stats = reference_naive(space, subsets, pairs, set_epsilon)
    assert len(naive.ratios) == len(ratios)
    for got, want in zip(naive.ratios, ratios):
        assert_same(got, want)
    assert naive.violations == tuple(violations)
    assert naive.stats == stats


@settings(max_examples=200, deadline=None)
@given(witnesses())
def test_integer_ratios_match_the_fraction_reference(drawn):
    check_against_reference(*drawn)


def line(count):
    ids = [f"p{i}" for i in range(count)]
    return build_space(ids, {"type": "positions", "values": {p: i for i, p in enumerate(ids)}})


@pytest.mark.parametrize("epsilon", [Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3)])
def test_integer_ratios_hand_cases(epsilon):
    """A ratio equal to epsilon violates; disjoint chains and subsets are
    INF; identical chains and a subset shared by two points are 0."""
    space = line(6)
    chains = {
        "p0": {"p0": 1, "p1": 1},
        "p1": {"p0": 1, "p1": 1},  # identical to p0's: 0
        "p2": {"p1": 1, "p2": 1},  # against p1's: d = 2, m = 1
        "p3": {"p2": 1, "p3": 2},  # against p2's: d = 3, m = 1
        "p4": {"p4": 1},  # disjoint from p3's: INF
        "p5": {"p4": 1, "p5": 1},  # against p4's: d = 1, m = 1
    }
    shared = frozenset({"p0", "p1", "p2"})
    subsets = {
        "p0": shared,
        "p1": shared,  # A is B: 0
        "p2": frozenset({"p1", "p2"}),  # against shared: 1/2
        "p3": frozenset({"p1", "p3"}),  # against p2's: 2/1
        "p4": frozenset({"p4"}),  # disjoint: INF
        "p5": frozenset({"p4", "p5", "p3"}),  # against p4's: 2/1
    }
    report = check_instance(space, ChainFamily(chains=chains), 1, epsilon, 2)
    assert [r for *_, r in report.pairs] == [0, 2, 3, INFINITE, 1]
    assert report.pairs[3][2] is INFINITE
    check_against_reference(space, chains, Fraction(1), epsilon, Fraction(2), subsets, epsilon)
    naive = verify_naive(space, subsets, qualifying_pairs(space, 1), epsilon)
    assert list(naive.ratios) == [0, Fraction(1, 2), 2, INFINITE, 2]
    assert naive.ratios[3] is INFINITE
    # a ratio equal to epsilon violates
    for violations, ratios in (
        (report.violations, [r for *_, r in report.pairs]),
        (naive.violations, naive.ratios),
    ):
        equal = [v for v in violations if v["ratio"] == format_ratio(epsilon)]
        assert len(equal) == list(ratios).count(epsilon)
