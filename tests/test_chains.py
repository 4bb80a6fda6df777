"""Chain arithmetic, ratios, and the admission check.

The l1/meet identities are checked against brute-force recomputations over
randomly generated sparse chains.
"""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from naivea.chains import (
    INFINITE,
    ChainFamily,
    InstanceParams,
    SetFamily,
    check_instance,
    diff_l1,
    format_ratio,
    from_sets,
    l1_norm,
    make_chain,
    meet,
    qualifying_pairs,
    set_ratio,
    variation_ratio,
)
from naivea.errors import MalformedInputError, PreconditionError
from naivea.generators import gen_instance
from naivea.rational import format_rational, parse_rational
from naivea.space import build_space

chains_st = st.dictionaries(
    st.integers(min_value=0, max_value=6).map(lambda i: f"z{i}"),
    st.integers(min_value=1, max_value=5),
    max_size=5,
)


def test_parse_rational():
    assert parse_rational(3) == Fraction(3)
    assert parse_rational("7/2") == Fraction(7, 2)
    assert parse_rational(" -4 ") == Fraction(-4)
    assert format_rational(Fraction(6, 4)) == "3/2"
    assert format_rational(Fraction(5)) == "5"
    for bad in ("x", "1/0", 1.5, True, None):
        with pytest.raises(MalformedInputError):
            parse_rational(bad)


def test_make_chain_normalizes():
    assert make_chain({"a": 2, "b": 0, "c": 1}) == {"a": 2, "c": 1}
    with pytest.raises(MalformedInputError):
        make_chain({"a": -1})
    with pytest.raises(MalformedInputError):
        make_chain({"a": 1.0})
    with pytest.raises(MalformedInputError):
        make_chain({"a": True})


def test_chain_ops_hand_values():
    a = {"x": 2, "y": 1}
    b = {"y": 3, "z": 1}
    assert l1_norm(a) == 3
    assert meet(a, b) == {"y": 1}
    assert diff_l1(a, b) == 2 + 2 + 1
    assert variation_ratio(a, b) == Fraction(5, 1)
    assert variation_ratio(a, a) == 0
    assert variation_ratio({"x": 1}, {"z": 1}) == INFINITE


@settings(max_examples=200, deadline=None)
@given(chains_st, chains_st)
def test_l1_meet_identity(a, b):
    # ||a - b|| = ||a|| + ||b|| - 2||a ^ b||
    assert diff_l1(a, b) == l1_norm(a) + l1_norm(b) - 2 * l1_norm(meet(a, b))


@settings(max_examples=200, deadline=None)
@given(chains_st, chains_st)
def test_ratio_symmetry_and_sign(a, b):
    assert variation_ratio(a, b) == variation_ratio(b, a)
    r = variation_ratio(a, b)
    assert r == INFINITE or r >= 0
    assert (r == 0) == (a == b)
    # the one-walk ratio equals the two-walk one, with the same type
    d, m = diff_l1(a, b), l1_norm(meet(a, b))
    expected = Fraction(0) if d == 0 else INFINITE if m == 0 else Fraction(d, m)
    assert r == expected and type(r) is type(expected)


def test_set_ratio():
    assert set_ratio({"a", "b"}, {"b", "c"}) == Fraction(2, 1)
    assert set_ratio({"a"}, {"a"}) == 0
    assert set_ratio({"a"}, {"b"}) == INFINITE
    assert set_ratio(frozenset("ab"), frozenset("abc")) == Fraction(1, 2)


def test_format_ratio():
    assert format_ratio(INFINITE) == "INF"
    assert format_ratio(Fraction(4, 6)) == "2/3"


def test_from_sets_collapses_levels():
    fam = from_sets(
        SetFamily(sets={"x": [("a", 0), ("a", 2), ("b", 1)]}, multiplicity_bound=3)
    )
    assert fam.chains == {"x": {"a": 2, "b": 1}}
    with pytest.raises(MalformedInputError, match="outside range"):
        from_sets(SetFamily(sets={"x": [("a", 3)]}, multiplicity_bound=3))
    with pytest.raises(MalformedInputError, match="duplicate"):
        from_sets(SetFamily(sets={"x": [("a", 1), ("a", 1)]}, multiplicity_bound=3))
    for item in (5, ("a",), (["a"], 0)):
        with pytest.raises(MalformedInputError, match="set element"):
            from_sets(SetFamily(sets={"x": [item]}, multiplicity_bound=3))
    with pytest.raises(PreconditionError, match="empty"):
        from_sets(SetFamily(sets={"x": []}, multiplicity_bound=3))
    with pytest.raises(MalformedInputError, match="multiplicity bound"):
        from_sets(SetFamily(sets={"x": [("a", 0)]}, multiplicity_bound=True))  # bool is an int


def test_params_validation():
    with pytest.raises(PreconditionError, match="S must exceed R"):
        InstanceParams(R=Fraction(2), epsilon=Fraction(1), S=Fraction(2))
    with pytest.raises(MalformedInputError, match="R must be positive"):
        InstanceParams(R=Fraction(0), epsilon=Fraction(1), S=Fraction(1))
    with pytest.raises(MalformedInputError, match="epsilon"):
        InstanceParams(R=Fraction(1), epsilon=Fraction(0), S=Fraction(2))
    with pytest.raises(MalformedInputError, match="L\\^2\\+2"):
        InstanceParams(R=Fraction(1), epsilon=Fraction(1), S=Fraction(2), L=3, N=10)


def test_qualifying_pairs(l10):
    pairs = qualifying_pairs(l10, 1)
    assert pairs == [(f"p{i}", f"p{i+1}") for i in range(9)]
    assert qualifying_pairs(l10, Fraction(1, 2)) == []


def test_check_instance_derives_parameters(l10):
    # ball-sum chains of radii 2,1: interior mass 5+3=8, so L=9 and N=83
    _, family, _ = gen_instance("line", {"count": 10, "radii": ["2", "1"]})
    report = check_instance(l10, family, 1, 1, 2)
    assert report.ok
    assert report.params.L == 9
    assert report.params.N == 83
    # worst neighbors: a_p3 vs a_p4 share meet of mass 6, differ by 4
    assert max(
        variation_ratio(family.chains[x], family.chains[y])
        for x, y in qualifying_pairs(l10, 1)
    ) == Fraction(2, 3)


def test_check_instance_flags_violations(l10):
    chains = {x: {"p0": 1} for x in l10.points}
    report = check_instance(l10, ChainFamily(chains=chains), 1, 1, 2)
    assert not report.ok
    kinds = {v["condition"] for v in report.violations}
    assert kinds == {"support_radius"}  # identical chains never violate the ratio
    far = [v for v in report.violations if v["x"] == "p9"]
    assert far == [{"condition": "support_radius", "x": "p9", "point": "p0", "distance": "9"}]


def test_check_instance_ratio_violation(l10):
    chains = {x: {x: 1} for x in l10.points}  # indicator chains: disjoint neighbors
    report = check_instance(l10, ChainFamily(chains=chains), 1, "1/2", 2)
    assert not report.ok
    assert all(v["condition"] == "variation_ratio" for v in report.violations)
    assert report.violations[0]["ratio"] == "INF"


def test_check_instance_rejects_missing_and_unknown(l10):
    with pytest.raises(PreconditionError, match="no chain"):
        check_instance(l10, ChainFamily(chains={}), 1, 1, 2)
    with pytest.raises(PreconditionError, match="empty chain"):
        check_instance(l10, ChainFamily(chains={x: {} for x in l10.points}), 1, 1, 2)
    chains = {x: {"zz": 1} for x in l10.points}
    with pytest.raises(MalformedInputError, match="unknown point"):
        check_instance(l10, ChainFamily(chains=chains), 1, 1, 2)
    chains = {x: {x: 1} for x in l10.points}
    chains["ghost"] = {"p0": 1}
    with pytest.raises(MalformedInputError, match="not a point"):
        check_instance(l10, ChainFamily(chains=chains), 1, 1, 2)


def test_check_instance_report(l10):
    _, family, _ = gen_instance("line", {"count": 10, "radii": ["2", "1"]})
    report = check_instance(l10, family, 1, 1, 2)
    assert report.ok is True and report.violations == ()
    assert [(x, y) for x, y, _ in report.pairs] == qualifying_pairs(l10, 1)
    assert report.pairs[0][2] == variation_ratio(family.chains["p0"], family.chains["p1"])
    params = report.params
    assert (params.L, params.N, params.S) == (9, 83, Fraction(2))


def test_make_chain_keeps_the_first_bad_value():
    """A chain whose values are all positive ints is copied whole; any other
    goes through the loop, which names its first bad value and drops zeros."""
    entries = {"a": 2, "b": 1}
    chain = make_chain(entries)
    assert chain == entries and chain is not entries
    assert make_chain({"a": 1, "b": 0, "c": 3}) == {"a": 1, "c": 3}
    for entries, message in [
        ({"a": 1, "b": 2, "c": True}, "chain value for 'c' must be an int, got True"),
        ({"a": 1, "b": 1.0}, "chain value for 'b' must be an int, got 1.0"),
        ({"a": 1, "b": -1}, "chain value for 'b' is negative"),
        ({"a": 1, "b": 0, "c": -1, "d": 1.0}, "chain value for 'c' is negative"),
        ({"a": 1, "b": 1.0, "c": -1}, "chain value for 'b' must be an int, got 1.0"),
    ]:
        with pytest.raises(MalformedInputError) as exc:
            make_chain(entries)
        assert str(exc.value) == message


def test_check_instance_names_the_first_unknown_member(l10):
    chains = {x: {x: 1} for x in l10.points}
    chains["p3"] = {"p3": 1, "p4": 1, "zz": 1, "aa": 1}
    chains["p5"] = {"yy": 1}
    with pytest.raises(MalformedInputError) as exc:
        check_instance(l10, ChainFamily(chains=chains), 1, 1, 2)
    assert str(exc.value) == "chain for 'p3' names unknown point 'zz'"
    chains = {x: {x: 1} for x in l10.points}
    chains.update({"ghost": {"p0": 1}, "aghost": {"p0": 1}})
    with pytest.raises(MalformedInputError) as exc:
        check_instance(l10, ChainFamily(chains=chains), 1, 1, 2)
    assert str(exc.value) == "chain owner 'ghost' is not a point of the space"


# five points a..e at 0, 1, 2, 4, 7 on each backend: a graph path, its matrix
# and the positions
SUPPORT_IDS = ["a", "b", "c", "d", "e"]
SUPPORT_AT = [0, 1, 2, 4, 7]
SUPPORT_SOURCES = {
    "positions": {"type": "positions", "values": dict(zip(SUPPORT_IDS, SUPPORT_AT))},
    "graph": {
        "type": "graph",
        "edges": [[u, v, SUPPORT_AT[i + 1] - SUPPORT_AT[i]]
                  for i, (u, v) in enumerate(zip(SUPPORT_IDS, SUPPORT_IDS[1:]))],
    },
    "matrix": {"type": "matrix", "entries": [[abs(p - q) for q in SUPPORT_AT] for p in SUPPORT_AT]},
}


@pytest.mark.parametrize("kind", sorted(SUPPORT_SOURCES))
def test_support_violations_keep_their_order(kind):
    """Each chain's violations are listed in its own member order, chain by
    chain in point order, with the exact distance."""
    space = build_space(SUPPORT_IDS, SUPPORT_SOURCES[kind])
    chains = {
        "a": {"e": 1, "a": 1, "d": 1},  # 7 and 4 beyond S = 2
        "b": {"b": 1, "c": 1},
        "c": {"c": 1, "a": 1, "d": 1},  # both exactly at S
        "d": {"b": 1, "d": 2, "c": 1},  # 3 beyond, then 2 within
        "e": {"e": 1},
    }
    for x, chain in chains.items():
        expected = all(space.metric.dist(x, z) <= 2 for z in chain)
        assert space.metric.within(x, chain, 2) == expected
    report = check_instance(space, ChainFamily(chains=chains), 1, 10, 2)
    support = [v for v in report.violations if v["condition"] == "support_radius"]
    assert support == [
        {"condition": "support_radius", "x": "a", "point": "e", "distance": "7"},
        {"condition": "support_radius", "x": "a", "point": "d", "distance": "4"},
        {"condition": "support_radius", "x": "d", "point": "b", "distance": "3"},
    ]


def test_support_check_reads_distances_on_a_row_settled_past_s():
    """A graph row that an earlier query settled beyond S holds points
    beyond S; they must still be flagged."""
    space = build_space(SUPPORT_IDS, SUPPORT_SOURCES["graph"])
    space.metric.eccentricity("a", space.points)  # settles the row of a in full
    assert "e" in space.metric.row("a").settled
    chains = {x: {x: 1} for x in SUPPORT_IDS}
    chains["a"] = {"a": 1, "e": 1}
    report = check_instance(space, ChainFamily(chains=chains), 1, 10, 2)
    assert [v for v in report.violations if v["condition"] == "support_radius"] == [
        {"condition": "support_radius", "x": "a", "point": "e", "distance": "7"},
    ]
    # a row the check settles itself stops at S
    fresh = build_space(SUPPORT_IDS, SUPPORT_SOURCES["graph"])
    check_instance(fresh, ChainFamily(chains=chains), 1, 10, 2)
    assert "e" not in fresh.metric.row("c").settled
