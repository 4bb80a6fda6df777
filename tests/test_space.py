"""Metric backends, validation, and the S-Rips decomposition.

Graph distances are checked against a Floyd-Warshall oracle, also while rows
are only partly settled, and components on every backend against a union-find
oracle, both written independently of the package.
Each backend's ``eccentricity`` is checked against a maximum over ``dist``.
"""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_e2e import documents
from test_trees import S as TREE_S
from test_trees import clustered_spaces

from naivea.chains import InstanceParams
from naivea.errors import MalformedInputError
from naivea.space import (
    CLS_BOUNDED_SMALL,
    CLS_UNBOUNDED,
    TRIANGLE_CHECK_LIMIT,
    Component,
    build_space,
    rips_components,
)
from naivea.tailor import classify


def floyd_warshall(points, edges):
    inf = None
    dist = {(p, q): (Fraction(0) if p == q else inf) for p in points for q in points}
    for u, v, w in edges:
        w = Fraction(w)
        if dist[(u, v)] is inf or w < dist[(u, v)]:
            dist[(u, v)] = dist[(v, u)] = w
    for k in points:
        for i in points:
            dik = dist[(i, k)]
            if dik is inf:
                continue
            for j in points:
                dkj = dist[(k, j)]
                if dkj is inf:
                    continue
                if dist[(i, j)] is inf or dik + dkj < dist[(i, j)]:
                    dist[(i, j)] = dik + dkj
    return dist


def union_find_components(points, pairs):
    parent = {p: p for p in points}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for a, b in pairs:
        parent[find(a)] = find(b)
    groups = {}
    for p in points:
        groups.setdefault(find(p), []).append(p)
    return sorted(tuple(sorted(g)) for g in groups.values())


def test_positions_metric(l10):
    assert l10.dist("p0", "p9") == 9
    assert l10.dist("p4", "p4") == 0
    assert sorted(l10.metric.neighbors_within("p3", Fraction(2))) == ["p1", "p2", "p3", "p4", "p5"]


def test_matrix_metric_round_trip():
    pts = ["a", "b", "c"]
    entries = [[0, 1, 2], [1, 0, "3/2"], [2, "3/2", 0]]
    sp = build_space(pts, {"type": "matrix", "entries": entries})
    assert sp.dist("a", "c") == 2
    assert sp.dist("b", "c") == Fraction(3, 2)
    assert sp.dist("c", "b") == Fraction(3, 2)


def test_matrix_rejects_asymmetry_and_bad_diagonal():
    with pytest.raises(MalformedInputError, match="asymmetric"):
        build_space(["a", "b"], {"type": "matrix", "entries": [[0, 1], [2, 0]]})
    with pytest.raises(MalformedInputError, match="!= 0"):
        build_space(["a", "b"], {"type": "matrix", "entries": [[1, 1], [1, 0]]})
    with pytest.raises(MalformedInputError, match="non-positive"):
        build_space(["a", "b"], {"type": "matrix", "entries": [[0, 0], [0, 0]]})


def test_matrix_rejects_triangle_violation():
    entries = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]  # d(a,c)=5 > 1+1
    with pytest.raises(MalformedInputError, match="triangle"):
        build_space(["a", "b", "c"], {"type": "matrix", "entries": entries})


def test_matrix_records_a_skipped_triangle_check():
    small = build_space(["a", "b"], {"type": "matrix", "entries": [[0, 1], [1, 0]]})
    assert small.unchecked == ()
    # above the limit a violation goes undetected, but not unrecorded
    ids = [f"m{i:03d}" for i in range(TRIANGLE_CHECK_LIMIT + 1)]
    entries = [[abs(i - j) for j in range(len(ids))] for i in range(len(ids))]
    entries[0][-1] = entries[-1][0] = 10 * len(ids)
    big = build_space(ids, {"type": "matrix", "entries": entries})
    assert big.unchecked == (
        "triangle inequality not checked: the matrix has 201 points, more than 200",
    )


def test_matrix_entries_align_with_given_point_order():
    # points arrive unsorted; entries follow the given order, not sorted order
    sp = build_space(["b", "a"], {"type": "matrix", "entries": [[0, 7], [7, 0]]})
    assert sp.points == ("a", "b")
    assert sp.dist("a", "b") == 7


def test_graph_metric_matches_floyd_warshall():
    pts = ["a", "b", "c", "d", "e"]
    edges = [("a", "b", 1), ("b", "c", 2), ("a", "c", 5), ("c", "d", "1/2"), ("d", "e", 3)]
    sp = build_space(pts, {"type": "graph", "edges": [list(e) for e in edges]})
    oracle = floyd_warshall(pts, edges)
    for p, q in itertools.product(pts, repeat=2):
        assert sp.dist(p, q) == oracle[(p, q)]


def test_graph_rejects_disconnected_and_bad_edges():
    with pytest.raises(MalformedInputError, match="disconnected"):
        build_space(["a", "b", "c"], {"type": "graph", "edges": [["a", "b", 1]]})
    with pytest.raises(MalformedInputError, match="self-loop"):
        build_space(["a", "b"], {"type": "graph", "edges": [["a", "a", 1], ["a", "b", 1]]})
    with pytest.raises(MalformedInputError, match="non-positive"):
        build_space(["a", "b"], {"type": "graph", "edges": [["a", "b", 0]]})
    with pytest.raises(MalformedInputError, match="unknown point"):
        build_space(["a", "b"], {"type": "graph", "edges": [["a", "z", 1]]})


def test_point_id_validation():
    with pytest.raises(MalformedInputError, match="at least one point"):
        build_space([], {"type": "positions", "values": {}})
    with pytest.raises(MalformedInputError, match="duplicate"):
        build_space(["a", "a"], {"type": "positions", "values": {"a": 0}})
    with pytest.raises(MalformedInputError, match="'#'"):
        build_space(["a#1"], {"type": "positions", "values": {"a#1": 0}})
    with pytest.raises(MalformedInputError, match="distinct"):
        build_space(["a", "b"], {"type": "positions", "values": {"a": 1, "b": 1}})


def test_rips_two_components(two):
    decomp = rips_components(two, 2)
    assert [c.points for c in decomp.components] == [("q0", "q1", "q2"), ("r0", "r1", "r2")]
    assert [c.basepoint for c in decomp.components] == ["q0", "r0"]
    assert all(c.cls == CLS_BOUNDED_SMALL for c in decomp.components)


def test_hint_overrides_basepoint():
    ids = [f"p{i}" for i in range(5)]
    sp = build_space(
        ids,
        {"type": "positions", "values": {p: i for i, p in enumerate(ids)}},
        hints=[{"component_of": "p0", "ray": ["p3", "p4"]}],
    )
    decomp = rips_components(sp, 1)
    # the decomposition only groups points; classify alone reads the hints
    assert decomp.components[0].basepoint == "p0"
    assert decomp.components[0].ray is None
    params = InstanceParams(R=Fraction(1, 2), epsilon=Fraction(1), S=Fraction(1), L=2, N=6)
    comp = classify(sp, decomp, params)[0].components[0]
    assert comp.cls == CLS_UNBOUNDED
    assert comp.basepoint == "p3"
    assert comp.ray == ("p3", "p4")
    assert comp.anchor == "p4"


def test_hint_validation():
    values = {"a": 0, "b": 1}
    with pytest.raises(MalformedInputError, match="unknown point"):
        build_space(
            ["a", "b"],
            {"type": "positions", "values": values},
            hints=[{"component_of": "a", "ray": ["z"]}],
        )
    with pytest.raises(MalformedInputError, match="empty ray"):
        build_space(
            ["a", "b"],
            {"type": "positions", "values": values},
            hints=[{"component_of": "a", "ray": []}],
        )
    with pytest.raises(MalformedInputError, match="missing field"):
        build_space(
            ["a", "b"],
            {"type": "positions", "values": values},
            hints=[{"ray": ["a"]}],
        )


def test_multiple_hints_on_one_component_rejected(two, two_params):
    values = {p: two.metric.positions[p] for p in two.points}
    cases = [
        # two points of one component
        ("q0", [{"component_of": "q0", "ray": ["q0"]}, {"component_of": "q1", "ray": ["q1"]}]),
        # one point with two different rays: neither may silently win
        ("r0", [{"component_of": "r1", "ray": ["r0"]}, {"component_of": "r1", "ray": ["r0", "r1"]}]),
        # an exact duplicate
        ("q0", [{"component_of": "q2", "ray": ["q2", "q1"]}] * 2),
    ]
    for first, hints in cases:
        sp = build_space(two.points, {"type": "positions", "values": values}, hints=hints)
        decomp = rips_components(sp, 2)
        assert all(c.basepoint == c.points[0] and c.ray is None for c in decomp.components)
        with pytest.raises(
            MalformedInputError,
            match=f"multiple unbounded hints target the component of '{first}'",
        ):
            classify(sp, decomp, two_params)


def test_component_anchor_follows_class():
    comp = Component(index=0, points=("a", "b"), basepoint="a", cls="UNBOUNDED_EMULATED", ray=("a", "b"))
    assert comp.anchor == "b"


def test_rips_rejects_bad_scale(l10):
    with pytest.raises(MalformedInputError):
        rips_components(l10, 0)


def rationals(max_value=6):
    """Positive rationals with mixed denominators, so D is a non-trivial LCD."""
    return st.builds(
        Fraction,
        st.integers(min_value=1, max_value=max_value * 12),
        st.sampled_from([1, 2, 3, 4, 5, 6, 7, 12]),
    )


@st.composite
def metric_sources(draw):
    """(points, metric source, oracle distance table) on one of the three backends."""
    backend = draw(st.sampled_from(["positions", "graph", "matrix"]))
    n = draw(st.integers(min_value=2, max_value=7))
    pts = [f"x{i}" for i in range(n)]
    if backend == "positions":
        qs = draw(st.lists(rationals(), min_size=n, max_size=n, unique=True))
        qs = [q - 3 for q in qs]  # negative positions too
        source = {"type": "positions", "values": {p: str(q) for p, q in zip(pts, qs)}}
        oracle = {(p, q): abs(a - b) for p, a in zip(pts, qs) for q, b in zip(pts, qs)}
        return pts, source, oracle
    # a random spanning tree plus extra edges keeps the graph connected
    edges = [(pts[i], pts[draw(st.integers(0, i - 1))], draw(rationals())) for i in range(1, n)]
    for u, v in draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), max_size=6)):
        if u != v:
            edges.append((u, v, draw(rationals())))
    oracle = floyd_warshall(pts, edges)
    if backend == "graph":
        source = {"type": "graph", "edges": [[u, v, str(w)] for u, v, w in edges]}
    else:  # shortest-path distances always satisfy the matrix axioms
        source = {
            "type": "matrix",
            "entries": [[str(oracle[(p, q)]) for q in pts] for p in pts],
        }
    return pts, source, oracle


@settings(max_examples=150, deadline=None)
@given(metric_sources(), st.data())
def test_int_metric_matches_fraction_oracle(source, data):
    pts, metric_source, oracle = source
    sp = build_space(pts, metric_source)
    for p, q in itertools.product(pts, repeat=2):
        d = sp.dist(p, q)
        assert isinstance(d, Fraction) and d == oracle[(p, q)]
    # radii on a distance, a hair either side of one, and arbitrary ones
    near = st.builds(
        lambda d, s: max(d + s, Fraction(0)),
        st.sampled_from(sorted(set(oracle.values()))),
        st.sampled_from([0, Fraction(1, 1000003), Fraction(-1, 1000003)]),
    )
    r = data.draw(st.one_of(near, rationals(), st.integers(0, 20)))
    for x in pts:
        expected = sorted(y for y in pts if oracle[(x, y)] <= r)
        assert sorted(sp.metric.neighbors_within(x, r)) == expected


def integer_lines(coords):
    """(points, metric source, oracle distance table) of integer points on the line."""
    ids = {f"x{c:02d}": c for c in coords}
    oracle = {(p, q): Fraction(abs(ids[p] - ids[q])) for p in ids for q in ids}
    return sorted(ids), {"type": "positions", "values": ids}, oracle


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(0, 40), min_size=2, max_size=12, unique=True).map(integer_lines),
        metric_sources(),
    ),
    st.data(),
)
def test_rips_matches_union_find_oracle(source, data):
    points, metric_source, oracle = source
    sp = build_space(points, metric_source)
    # scales on a distance, so edges of length exactly S are common
    on_distance = st.sampled_from(sorted(set(oracle.values()) - {0}))
    S = data.draw(st.one_of(on_distance, rationals(), st.integers(1, 8)))
    pairs = [(p, q) for p, q in itertools.combinations(points, 2) if oracle[p, q] <= S]
    expected = union_find_components(points, pairs)
    decomp = rips_components(sp, S)
    assert sorted(c.points for c in decomp.components) == expected
    for comp in decomp.components:
        assert comp.basepoint == comp.points[0]
        for p in comp.points:
            assert decomp.components[decomp.owner[p]] is comp


# the clustered spaces of test_trees and the instance documents of test_e2e:
# positions with mixed denominators, graphs with rational weights, matrices
eccentricity_spaces = st.one_of(
    clustered_spaces().map(lambda drawn: drawn[0]),
    documents().map(lambda doc: build_space(doc["space"]["points"], doc["space"]["metric"])),
)


@settings(max_examples=150, deadline=None)
@given(eccentricity_spaces, st.data())
def test_eccentricity_matches_brute_force(space, data):
    metric = space.metric
    # components as the case-2 radius reads them, the whole space, then
    # fresh lists: the line caches extents per collection object, so a
    # reused object must not carry another collection's extents
    collections = [comp.points for comp in rips_components(space, TREE_S).components]
    collections.append(space.points)
    for _ in range(4):
        collections.append(data.draw(st.lists(st.sampled_from(space.points), min_size=1)))
    for points in collections:
        for x in space.points:
            expected = max(metric.dist(x, p) for p in points)
            assert metric.eccentricity(x, points) == expected
            assert type(metric.eccentricity(x, points)) is int


@st.composite
def graph_queries(draw):
    """A connected graph with rational weights, its Floyd-Warshall table, and
    a random interleaving of queries against one metric."""
    n = draw(st.integers(min_value=2, max_value=12))
    pts = [f"v{i}" for i in range(n)]
    weights = st.one_of(st.integers(1, 3), rationals(3))  # ties and exact radii are common
    edges = [(pts[i], pts[draw(st.integers(0, i - 1))], draw(weights)) for i in range(1, n)]
    for u, v in draw(st.lists(st.tuples(st.sampled_from(pts), st.sampled_from(pts)), max_size=12)):
        if u != v:
            edges.append((u, v, draw(weights)))
    oracle = floyd_warshall(pts, edges)
    point = st.sampled_from(pts)
    distance = st.sampled_from(sorted(set(oracle.values())))
    # radii on a distance, a hair either side of one, and arbitrary ones
    radius = st.one_of(
        distance,
        st.builds(lambda d, s: max(d + s, Fraction(0)), distance,
                  st.sampled_from([Fraction(1, 1000003), Fraction(-1, 1000003)])),
        rationals(10),
    )
    query = st.one_of(
        st.tuples(st.just("dist"), point, point),
        st.tuples(st.just("near"), point, radius),
        st.tuples(st.just("ecc"), point, st.lists(point, min_size=1)),
        st.tuples(st.just("row"), point),
    )
    queries = draw(st.lists(query, min_size=1, max_size=40))
    return pts, [[u, v, str(w)] for u, v, w in edges], oracle, queries


@settings(max_examples=300, deadline=None)
@given(graph_queries())
def test_lazy_graph_rows_match_full_oracle(drawn):
    """Rows settle only as far as each query reaches; every answer must still
    be the one a full all-pairs computation gives, in any query order."""
    pts, edges, oracle, queries = drawn
    metric = build_space(pts, {"type": "graph", "edges": edges}).metric
    D = metric.denominator
    for op, x, *args in queries:
        if op == "dist":
            d = metric.dist(x, args[0])
            assert type(d) is int and Fraction(d, D) == oracle[(x, args[0])]
        elif op == "near":
            r = args[0]
            ball = metric.neighbors_within(x, r)
            assert len(ball) == len(set(ball))
            assert set(ball) == {y for y in pts if oracle[(x, y)] <= r}
        elif op == "ecc":
            e = metric.eccentricity(x, args[0])
            assert type(e) is int and Fraction(e, D) == max(oracle[(x, p)] for p in args[0])
            # a complete row keeps its settled map and nothing else
            row = metric.row(x)
            assert row.tentative is None and row.heap is None
            assert len(row.settled) == len(pts)
        else:
            settled = metric.row(x).settled
            assert all(Fraction(d, D) == oracle[(x, y)] for y, d in settled.items())
            assert list(settled.values()) == sorted(settled.values())
