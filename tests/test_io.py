"""Canonical JSON files: instances in, outputs out."""
from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naivea.errors import MalformedInputError
from naivea.generators import gen_instance
from naivea.instance_io import (
    canonical_dumps,
    instance_from_doc,
    instance_to_doc,
    load_instance,
    load_output,
    parse_subsets,
    read_json,
    write_canonical,
)
from naivea.space import Space


def base_doc():
    return {
        "space": {
            "points": ["a", "b", "c"],
            "metric": {"type": "positions", "values": {"a": 0, "b": 1, "c": 2}},
        },
        "params": {"R": "1", "epsilon": "1", "S": "2"},
        "chains": {"a": {"a": 1, "b": 1}, "b": {"b": 2}, "c": {"c": 1}},
    }


def test_canonical_dumps_is_sorted_and_newline_terminated():
    text = canonical_dumps({"b": 1, "a": [2, 1]})
    assert text == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'


# quotes, backslashes, control characters, non-ASCII text and lone surrogates
TRICKY = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\u00e9", "\u2028", "\U0001f600",
          "\ud800", "\udfff", "#", "a", "A", "~"]
texts = st.text(
    st.one_of(st.sampled_from(TRICKY), st.characters(exclude_categories=())), max_size=6
)
leaves = st.one_of(
    texts,
    st.integers(),
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.none(),
    st.floats(),
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(texts, children, max_size=4),
    )


@st.composite
def json_trees(draw):
    """Random JSON trees in which one list object may recur at any depths."""
    shared = draw(st.lists(st.one_of(leaves, st.dictionaries(texts, leaves, max_size=2)),
                           min_size=1, max_size=3))
    return draw(st.recursive(st.one_of(leaves, st.just(shared)), containers, max_leaves=25))


SHARED = ["x", 1]


@settings(max_examples=200, deadline=None)
@given(json_trees())
@example({})
@example([])
@example({"b": SHARED, "a": [SHARED, {"c": SHARED}], "d": SHARED})
@example({"\u00e9": 1, "z": 2, "\x00": [True, False, None, -(10**40)]})
def test_canonical_dumps_matches_the_stdlib(tree):
    assert canonical_dumps(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


def test_canonical_dumps_rejects_non_json_values():
    # a non-str key too, which json.dumps would have turned into a string
    for bad in ({1: "a"}, {"a": {1, 2}}, [object()], {"a": [b"x"]}):
        with pytest.raises(TypeError):
            canonical_dumps(bad)


def test_instance_round_trip(tmp_path):
    doc = base_doc()
    inst = instance_from_doc(doc)
    assert inst.space.dist("a", "c") == 2
    assert inst.family.chains["b"] == {"b": 2}
    assert inst.params.S == 2

    path = tmp_path / "i.json"
    write_canonical(path, doc)
    again = load_instance(path)
    assert again.family.chains == inst.family.chains
    assert read_json(path) == doc


def test_instance_with_sets():
    doc = base_doc()
    del doc["chains"]
    doc["sets"] = {"a": [["a", 0], ["a", 1], ["b", 0]], "b": [["b", 0]], "c": [["c", 1]]}
    inst = instance_from_doc(doc)
    assert inst.family.chains["a"] == {"a": 2, "b": 1}
    # multiplicity bound defaults to one past the largest level seen
    doc["sets"]["a"].append(["a", 2])
    assert instance_from_doc(doc).family.chains["a"] == {"a": 3, "b": 1}
    doc["multiplicity_bound"] = 2
    with pytest.raises(MalformedInputError, match="outside range"):
        instance_from_doc(doc)
    # with no bound and only negative levels, the error names the level
    del doc["multiplicity_bound"]
    doc["sets"] = {"p0": [["p0", -1]]}
    with pytest.raises(MalformedInputError) as exc:
        instance_from_doc(doc)
    assert str(exc.value) == "level -1 for 'p0' outside range(0, 1)"


def test_instance_validation():
    doc = base_doc()
    doc["sets"] = {"a": []}
    with pytest.raises(MalformedInputError, match="both 'chains' and 'sets'"):
        instance_from_doc(doc)
    doc = base_doc()
    del doc["chains"]
    with pytest.raises(MalformedInputError, match="neither"):
        instance_from_doc(doc)
    doc = base_doc()
    del doc["params"]
    with pytest.raises(MalformedInputError, match="missing the 'params'"):
        instance_from_doc(doc)
    doc = base_doc()
    doc["chains"] = []
    with pytest.raises(MalformedInputError, match="must map"):
        instance_from_doc(doc)
    for bad in ({"a": 5}, {"a": [["a", 1]]}):
        doc = base_doc()
        doc["chains"] = bad
        with pytest.raises(MalformedInputError, match="must map"):
            instance_from_doc(doc)
    doc = base_doc()
    del doc["chains"]
    doc["sets"] = {"a": 5}
    with pytest.raises(MalformedInputError, match="must map"):
        instance_from_doc(doc)
    for bad in ([["a", "x"]], [5], [[["a"], 0]]):
        doc["sets"] = {"a": bad}
        with pytest.raises(MalformedInputError):
            instance_from_doc(doc)
    with pytest.raises(MalformedInputError, match="JSON object"):
        instance_from_doc([1, 2])


def test_generator_instances_regenerate_chains(tmp_path):
    space, family, params = gen_instance(
        "line", {"count": 8, "radii": ["2"], "R": "1", "epsilon": "1"}, seed=5
    )
    doc = instance_to_doc(space, family, params)
    assert doc["space"]["metric"]["type"] == "generator"
    # drop the chains: loading regenerates them from the metric spec
    thin = {k: v for k, v in doc.items() if k != "chains"}
    inst = instance_from_doc(thin)
    assert inst.family.chains == family.chains
    inst2 = instance_from_doc(doc)
    assert inst2.family.chains == family.chains


def test_thin_generator_instance_generates_once(monkeypatch):
    from naivea import generators

    space, family, params = gen_instance("line", {"count": 8, "radii": ["2"]}, seed=1)
    thin = instance_to_doc(space, family, params)
    del thin["chains"]
    calls = []

    def counting(*args):
        calls.append(args)
        return gen_instance(*args)

    monkeypatch.setattr(generators, "gen_instance", counting)
    inst = instance_from_doc(thin)
    assert len(calls) == 1
    assert inst.family.chains == family.chains


def test_generator_instance_with_chains_builds_no_chains(monkeypatch):
    from naivea import generators

    space, family, params = gen_instance("line", {"count": 8, "radii": ["2"]}, seed=1)
    doc = instance_to_doc(space, family, params)
    doc["chains"]["p0"] = {"p0": 3}  # the file's chains win over the generator's

    def refuse(*args):
        raise AssertionError("ball-sum chains built although the file carries chains")

    monkeypatch.setattr(generators, "_ball_sum_chains", refuse)
    inst = instance_from_doc(doc)
    assert inst.family.chains == doc["chains"]
    assert inst.space.points == space.points


def test_generator_instance_hint_rule():
    space, family, params = gen_instance(
        "line", {"count": 8, "radii": ["2"], "unbounded": True}, seed=0
    )
    doc = instance_to_doc(space, family, params)
    own = space.hints
    assert own and doc["unbounded_hints"]
    # absent or empty: the generator's hints stay
    for hints in (None, []):
        if hints is None:
            del doc["unbounded_hints"]
        else:
            doc["unbounded_hints"] = hints
        assert instance_from_doc(doc).space.hints == own
    # non-empty: the document's hints replace them
    doc["unbounded_hints"] = [{"component_of": "p3", "ray": ["p3", "p4"]}]
    hints = instance_from_doc(doc).space.hints
    assert [(h.component_of, h.ray) for h in hints] == [("p3", ("p3", "p4"))]


def test_instance_to_doc_needs_metric_spec(l10):
    _, family, params = gen_instance("line", {"count": 10, "radii": ["2"]})
    bare = Space(points=l10.points, metric=l10.metric)  # no metric_spec attached
    with pytest.raises(MalformedInputError, match="serializable"):
        instance_to_doc(bare, family, params)


def test_read_json_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(MalformedInputError, match="cannot read"):
        read_json(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(MalformedInputError, match="not valid JSON"):
        read_json(bad)
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    with pytest.raises(MalformedInputError, match="not valid UTF-8"):
        read_json(utf16)


def test_load_output_validation(tmp_path):
    path = tmp_path / "o.json"
    write_canonical(path, {"subsets": {}})
    with pytest.raises(MalformedInputError, match="missing the 'certificate'"):
        load_output(path)
    write_canonical(path, {"subsets": {}, "certificate": {"cases": {}}})
    with pytest.raises(MalformedInputError, match="worst_ratio"):
        load_output(path)


def test_parse_subsets():
    parsed = parse_subsets({"x": ["a", "b#2"]})
    assert parsed == {"x": {"a", ("b", 2)}}
    # equal member lists share one frozenset
    parsed = parse_subsets({"x": ["a", "b#2"], "y": ["a", "b#2"], "z": ["b#2", "a"]})
    assert parsed["x"] is parsed["y"]
    assert parsed["z"] == parsed["x"]
    for bad in (["a", ["b"]], [{"a": 1}], ["a", "b#0"], [5]):
        with pytest.raises(MalformedInputError, match="augmented point|tail index"):
            parse_subsets({"x": ["a"], "y": bad})
    with pytest.raises(MalformedInputError, match="duplicate"):
        parse_subsets({"x": ["a", "a"]})
    with pytest.raises(MalformedInputError, match="must be a list"):
        parse_subsets({"x": "a"})
