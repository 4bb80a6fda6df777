"""End to end on random instance documents: `run` either rejects the
document (exit 2 or 3) or writes an output that `verify` accepts.

Documents are small: 2-12 points on the positions, graph (rational edge
weights) or matrix backend (a graph's shortest-path distances), with
denominators up to 6, ball-sum chains and 0-2 ray hints. A hint's ray is a
slice of the points, or one broken on purpose: it repeats a point, hops
beyond S, leaves its component, or is named on another component. Each document also
runs with its chains written as leveled ``sets`` (levels 0..m-1, or spaced
levels under an explicit bound when the point count is even), with the same
exit code and output bytes. Exit 4 (an internal invariant) and any traceback fail the test.
A 60-point unit line whose chains each put mass 2 on their own point is
pinned as an example: its components are large, so it reaches cases 3a and
3b, which random documents this small do not. Each output without tail
points is also run back as 0/1 chains, the paper's converse direction; a
pinned 4-point line checks that it stays well-formed when its raised S merges
two hinted components. `run` does not flow case-2 points; the same documents
check that their flows would stay in reach.
"""
from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from naivea.cli import main
from naivea.errors import MalformedInputError, PreconditionError
from naivea.flow import stabilize
from naivea.instance_io import instance_from_doc, write_canonical
from naivea.space import CLS_BOUNDED_SMALL, rips_components
from naivea.tailor import prepare

RATIONALS = sorted({Fraction(a, b) for a in range(1, 13) for b in range(1, 7)})
rationals = st.sampled_from(RATIONALS)

LONG_LINE = [f"p{i:02d}" for i in range(60)]
LONG_LINE_DOC = {
    "space": {
        "points": LONG_LINE,
        "metric": {"type": "positions", "values": {p: i for i, p in enumerate(LONG_LINE)}},
    },
    "params": {"R": "1/2", "epsilon": "1", "S": "1"},
    "chains": {p: {p: 2} for p in LONG_LINE},
}

# two hints, each ignored at S = 1; the converse raises S to 2, which merges
# both components, so it keeps one of the hints
MERGED_HINTS_DOC = {
    "space": {
        "points": ["x00", "x01", "x02", "x03"],
        "metric": {"type": "positions", "values": {"x00": "0", "x01": "1", "x02": "2", "x03": "7/2"}},
    },
    "params": {"R": "1/2", "epsilon": "1", "S": "1"},
    "chains": {
        "x00": {"x00": 1, "x01": 1},
        "x01": {"x00": 1, "x01": 1, "x02": 1},
        "x02": {"x01": 1, "x02": 1},
        "x03": {"x03": 1},
    },
    "unbounded_hints": [
        {"component_of": "x03", "ray": ["x00"]},
        {"component_of": "x00", "ray": ["x00", "x03"]},
    ],
}


def shortest_paths(ids, edges):
    dist = {(p, q): Fraction(0) if p == q else None for p in ids for q in ids}
    for u, v, w in edges:
        for a, b in ((u, v), (v, u)):
            if dist[a, b] is None or w < dist[a, b]:
                dist[a, b] = w
    for k in ids:
        for p in ids:
            for q in ids:
                if dist[p, k] is not None and dist[k, q] is not None:
                    through = dist[p, k] + dist[k, q]
                    if dist[p, q] is None or through < dist[p, q]:
                        dist[p, q] = through
    return dist


def s_components(ids, dist, S):
    """Each id's S-Rips component, as the smallest id in it."""
    owner = {}
    for start in sorted(ids):
        if start in owner:
            continue
        owner[start], todo = start, [start]
        while todo:
            p = todo.pop()
            for q in ids:
                if q not in owner and dist[p, q] <= S:
                    owner[q] = start
                    todo.append(q)
    return owner


def draw_hint(draw, ids, dist, S):
    """A ray hint: a slice of ``ids``, reversed or not, on a drawn point, or
    one broken on purpose. A broken ray repeats a point, skips to a point of
    its component beyond S, or leaves its component, and is named on a
    point of its first point's component; a ray named elsewhere is a slice
    named on a point of another component. A form with no such point stays
    a slice."""
    owner = s_components(ids, dist, S)
    i = draw(st.integers(0, len(ids) - 1))
    ray = ids[i:draw(st.integers(i + 1, len(ids)))]
    if draw(st.booleans()):
        ray.reverse()
    home = [q for q in ids if owner[q] == owner[ray[0]]]
    form = draw(st.sampled_from(["slice", "slice", "repeat", "skip", "leave", "elsewhere"]))
    if form == "slice":
        return {"component_of": draw(st.sampled_from(ids)), "ray": ray}
    if form == "elsewhere":
        away = [q for q in ids if owner[q] != owner[ray[0]]]
        return {"component_of": draw(st.sampled_from(away or ids)), "ray": ray}
    if form == "repeat":
        ray.append(draw(st.sampled_from(ray)))
    else:
        last = ray[-1]
        if form == "skip":
            ends = [q for q in ids if owner[q] == owner[last] and dist[last, q] > S]
        else:
            ends = [q for q in ids if owner[q] != owner[ray[0]]]
        if ends:
            ray.append(draw(st.sampled_from(ends)))
    return {"component_of": draw(st.sampled_from(home)), "ray": ray}


@st.composite
def documents(draw):
    n = draw(st.integers(2, 12))
    # ids are shuffled against the geometry, so lex-order tie breaks matter;
    # ``ids`` is in line order (positions) or tree-growth order (graphs)
    ids = [f"x{i:02d}" for i in draw(st.permutations(range(n)))]
    radii = sorted(draw(st.lists(rationals, min_size=1, max_size=2)), reverse=True)
    # most gaps and edge weights are at most the larger radius, so components
    # hold several points; the others can split them
    near = st.sampled_from([q for q in RATIONALS if q <= radii[0]])
    gaps = st.one_of(near, near, near, near, rationals)
    kind = draw(st.sampled_from(["positions", "graph", "matrix"]))
    if kind == "positions":
        values, at = {}, Fraction(0)
        for p in ids:
            values[p] = at
            at += draw(gaps)
        metric = {"type": "positions", "values": {p: str(v) for p, v in values.items()}}
        dist = {(p, q): abs(values[p] - values[q]) for p in ids for q in ids}
    else:
        edges = [(ids[draw(st.integers(0, j - 1))], ids[j], draw(gaps)) for j in range(1, n)]
        for _ in range(draw(st.integers(0, n // 2))):
            u, v = draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2, unique=True))
            edges.append((u, v, draw(gaps)))
        dist = shortest_paths(ids, edges)
        metric = {"type": "graph", "edges": [[u, v, str(w)] for u, v, w in edges]}
        if kind == "matrix":
            metric = {"type": "matrix", "entries": [[str(dist[p, q]) for q in ids] for p in ids]}
    chains = {
        x: {y: sum(dist[x, y] <= r for r in radii) for y in ids if dist[x, y] <= radii[0]}
        for x in ids
    }
    # mostly S >= radii[0] > R; S = radii[0]/2 and R = S are drawn too, which admission may reject
    S = radii[0] * draw(st.sampled_from([1, 1, 1, 2, Fraction(1, 2)]))
    R = S * draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(5, 6), 1]))
    hints = [draw_hint(draw, ids, dist, S) for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2])))]
    doc = {
        "space": {"points": ids, "metric": metric},
        "params": {"R": str(R), "epsilon": draw(st.sampled_from(["1/2", "1", "2"])), "S": str(S)},
        "chains": chains,
    }
    if hints:
        doc["unbounded_hints"] = hints
    return doc


def as_sets(doc):
    """``doc`` with its chains as leveled sets: multiplicity m at y is
    (y, 0..m-1), with no ``multiplicity_bound``. A document with an even
    number of points takes spaced levels (y, 0, 2, .., 2m-2) instead, under
    a bound above the largest level."""
    leveled = {key: value for key, value in doc.items() if key != "chains"}
    spacing = 2 if len(doc["space"]["points"]) % 2 == 0 else 1
    leveled["sets"] = {
        x: [[y, spacing * level] for y, m in chain.items() for level in range(m)]
        for x, chain in doc["chains"].items()
    }
    if spacing == 2:
        top = max(m for chain in doc["chains"].values() for m in chain.values())
        leveled["multiplicity_bound"] = 2 * top
    return leveled


def run_and_verify(directory, doc):
    """Run ``doc`` and verify its output, then the same witness as leveled
    sets, which must give the same exit code and the same output bytes."""
    results = []
    for name, form in (("chains", doc), ("sets", as_sets(doc))):
        inst, out = directory / f"{name}.json", directory / f"{name}_out.json"
        write_canonical(inst, form)
        code = main(["run", str(inst), "--out", str(out)])
        assert code in (0, 2, 3)
        if code == 0:
            assert main(["verify", str(inst), str(out)]) == 0
        results.append((code, out.read_bytes() if code == 0 else None))
    assert results[0] == results[1]
    code, output = results[0]
    if code == 0:
        output = json.loads(output)
        run_converse(directory, doc, output)
        return Counter(output["certificate"]["cases"].values())
    return None


def run_converse(directory, doc, output):
    """The paper's converse direction: a subset witness, read as 0/1 chains,
    is a weighted witness. On the same space, hints, R and epsilon, with S
    raised to the output's worst radius where that is larger, `run` must
    accept the output's subsets as chains and `verify` must accept its
    output. An output with tail points is skipped: they are not points of
    the space. A raised S can merge components, and two hints on one
    component are malformed input, so the converse keeps only the first
    hint on each component at the raised S."""
    points = set(doc["space"]["points"])
    subsets = output["subsets"]
    if not all(points.issuperset(members) for members in subsets.values()):
        return
    S = max(Fraction(output["certificate"]["worst_radius"]), Fraction(doc["params"]["S"]))
    converse = {key: value for key, value in doc.items() if key != "chains"}
    converse["params"] = dict(doc["params"], S=str(S))
    converse["chains"] = {x: dict.fromkeys(members, 1) for x, members in subsets.items()}
    if "unbounded_hints" in doc:
        owner = rips_components(instance_from_doc(converse).space, S).owner
        first = {}
        for hint in doc["unbounded_hints"]:
            first.setdefault(owner[hint["component_of"]], hint)
        converse["unbounded_hints"] = list(first.values())
    inst, out = directory / "converse.json", directory / "converse_out.json"
    write_canonical(inst, converse)
    assert main(["run", str(inst), "--out", str(out)]) == 0
    assert main(["verify", str(inst), str(out)]) == 0


@settings(max_examples=150, deadline=None)
@given(doc=documents())
@example(doc=LONG_LINE_DOC)
@example(doc=MERGED_HINTS_DOC)
def test_run_rejects_or_verifies(tmp_path_factory, doc):
    run_and_verify(tmp_path_factory.mktemp("e2e"), doc)


def test_long_line_reaches_case_3(tmp_path):
    assert run_and_verify(tmp_path, LONG_LINE_DOC) == {"3a": 59, "3b": 1}


@settings(max_examples=150, deadline=None)
@given(doc=documents())
def test_case_2_flows_stay_in_reach(doc):
    """The flow of a case-2 point stays inside its component, uses tail
    indices 1..N only, and reaches no farther than the case-1 bound. `run`
    takes a case-2 subset to be the component and never flows the point."""
    try:
        instance = instance_from_doc(doc)
        R, epsilon, S = (doc["params"][key] for key in ("R", "epsilon", "S"))
        prep = prepare(instance.space, instance.family, R, epsilon, S)
    except (MalformedInputError, PreconditionError):  # exit 2 or 3
        return
    if not prep.report.ok:
        return
    N, aug, decomp = prep.report.params.N, prep.aug, prep.decomposition
    bound = Fraction(prep.bounds["case1"], aug.unit)
    for comp in decomp.components:
        if comp.cls != CLS_BOUNDED_SMALL:
            continue
        for x in comp.points:
            support = stabilize(prep.flow_map, instance.family.chains[x])[0]
            for p in support:
                if isinstance(p, tuple):
                    assert p[0] == comp.anchor and 1 <= p[1] <= N, (x, p)
                else:
                    assert decomp.owner[p] == comp.index, (x, p)
                assert aug.dist(x, p) <= bound, (x, p)
