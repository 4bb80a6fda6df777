"""The S-Rips spanning trees, checked against searches written out here.

``rips_components`` grows each component's BFS tree once and ``classify``
re-seeds it from an accepted ray; ``build_flow`` and ``annulus_points`` only
read those trees. The oracles below search the graph themselves: one per
component and seed list for the successor map, and an explicit level map for
the annulus markers.
"""
from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from naivea.augment import augment
from naivea.chains import InstanceParams
from naivea.flow import build_flow
from naivea.space import CLS_BOUNDED_LARGE, CLS_UNBOUNDED, build_space, rips_components
from naivea.tailor import classify

S = Fraction(3, 2)
# L = 1, N = 3: a component is large once it reaches past 3S + 4SN = 15S
PARAMS = InstanceParams(R=Fraction(1), epsilon=Fraction(1), S=S, L=1, N=3)


def oracle_tree(space, points, seeds):
    """Parent map of a BFS over the S-Rips graph restricted to ``points``:
    seeds first in the order given, neighbors in lex order, the first
    discoverer wins."""
    parent = {}
    seen = set(seeds)
    queue = list(seeds)
    for u in queue:  # the list grows while it is read: a FIFO queue
        for v in sorted(space.metric.neighbors_within(u, S)):
            if v in points and v not in seen:
                seen.add(v)
                parent[v] = u
                queue.append(v)
    assert seen == set(points)
    return parent


def oracle_successors(space, decomp):
    succ = {}
    for comp in decomp.components:
        if comp.cls == CLS_UNBOUNDED:
            ray = comp.ray
            succ.update(oracle_tree(space, comp.point_set, list(ray)))
            for i in range(len(ray) - 1):
                succ[ray[i]] = ray[i + 1]
            succ[ray[-1]] = (comp.anchor, 1)
        else:
            succ.update(oracle_tree(space, comp.point_set, [comp.basepoint]))
            succ[comp.basepoint] = (comp.anchor, 1)
    return succ


def oracle_markers(space, comp):
    """The first N points strictly inside the annulus on the backward-pinned
    shortest S-path from the basepoint to the lex-smallest far point."""
    N = PARAMS.N
    inner, outer = 3 * S + 3 * S * N, 3 * S + 4 * S * N
    bp = comp.basepoint
    level = {bp: 0}
    frontier = [bp]
    while frontier:
        nxt = []
        for u in frontier:
            for v in comp.points:
                if v not in level and space.dist(u, v) <= S:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    current = min(p for p in comp.points if space.dist(bp, p) > outer)
    path = [current]
    while current != bp:
        cands = [
            v for v in comp.points
            if level[v] == level[current] - 1 and space.dist(current, v) <= S
        ]
        far = max(space.dist(bp, v) for v in cands)
        current = min(v for v in cands if space.dist(bp, v) == far)
        path.append(current)
    markers = [p for p in reversed(path) if inner < space.dist(bp, p) <= outer]
    assert len(markers) >= N
    return tuple(markers[:N])


# gaps and tree-edge weights inside a cluster are at most S; bridges exceed it
inside = st.integers(3, 6).map(lambda k: S * Fraction(k, 6))
bridge = st.integers(1, 6).map(lambda k: S + S * Fraction(k, 6))


@st.composite
def clustered_spaces(draw):
    """1-3 clusters of 1-40 points, S-connected inside and more than S apart,
    as positions, a weighted graph or the graph's distance matrix, with at
    most one valid ray hint per cluster. Ids are shuffled against the
    geometry, so lex-order tie breaks matter."""
    # short clusters stay small; long ones can reach past the outer radius
    size = st.one_of(st.integers(1, 8), st.integers(24, 40))
    sizes = draw(st.lists(size, min_size=1, max_size=3))
    total = sum(sizes)
    labels = draw(st.permutations(range(total)))
    ids = [f"x{i:02d}" for i in labels]
    clusters, at = [], 0
    for n in sizes:
        clusters.append(ids[at:at + n])
        at += n
    kind = draw(st.sampled_from(["positions", "graph", "matrix"]))
    if kind == "positions":
        values, x = {}, Fraction(0)
        for ci, members in enumerate(clusters):
            if ci:
                x += draw(bridge)
            for j, p in enumerate(members):
                if j:
                    x += draw(inside)
                values[p] = x
        source = {"type": "positions", "values": {p: str(q) for p, q in values.items()}}
    else:
        edges = []
        for ci, members in enumerate(clusters):
            if ci:
                u = draw(st.sampled_from(clusters[ci - 1]))
                edges.append([u, draw(st.sampled_from(members)), str(draw(bridge))])
            for j in range(1, len(members)):
                # attach to one of the last two points: long, branching trees
                u = members[draw(st.integers(max(0, j - 2), j - 1))]
                edges.append([u, members[j], str(draw(inside))])
            # chords between nearby points close cycles without shortcutting
            for _ in range(draw(st.integers(0, len(members) // 4))):
                j = draw(st.integers(0, len(members) - 1))
                k = min(len(members) - 1, j + draw(st.integers(2, 4)))
                if j != k:
                    edges.append([members[j], members[k], str(draw(st.integers(1, 12)) * S / 6)])
        source = {"type": "graph", "edges": edges}
        if kind == "matrix":
            metric = build_space(ids, source)
            source = {
                "type": "matrix",
                "entries": [[str(metric.dist(p, q)) for q in ids] for p in ids],
            }
    base = build_space(ids, source)
    hints = []
    for members in clusters:
        if not draw(st.booleans()):
            continue
        ray = [draw(st.sampled_from(members))]
        for _ in range(draw(st.integers(0, 4))):
            steps = sorted(
                v for v in members if v not in ray and base.dist(ray[-1], v) <= S
            )
            if not steps:
                break
            ray.append(draw(st.sampled_from(steps)))
        hints.append({"component_of": draw(st.sampled_from(members)), "ray": ray})
    return build_space(ids, source, hints=hints), len(clusters)


@settings(max_examples=120, deadline=None)
@given(clustered_spaces())
def test_stored_trees_match_fresh_searches(drawn):
    space, clusters = drawn
    decomp, plan = classify(space, rips_components(space, S), PARAMS)
    assert len(decomp.components) == clusters
    assert not plan.warnings  # every drawn ray is valid
    rays = {h.ray[0]: h.ray for h in space.hints}
    for comp in decomp.components:
        assert comp.cls == CLS_UNBOUNDED or comp.basepoint == comp.points[0]
        if comp.cls == CLS_UNBOUNDED:
            assert comp.ray == rays[comp.basepoint]
    flow = build_flow(augment(space, decomp, PARAMS))
    assert flow.base_successor == oracle_successors(space, decomp)
    large = [c for c in decomp.components if c.cls == CLS_BOUNDED_LARGE]
    assert set(plan.z_points) == {c.index for c in large}
    for comp in large:
        assert plan.z_points[comp.index] == oracle_markers(space, comp)
