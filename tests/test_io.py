"""Canonical JSON files: instances in, outputs out."""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import canonical_dumps, tree_divergence
from test_golden import MATRIX_DOC

from naivea import instance_io
from naivea.chains import INFINITE, format_ratio
from naivea.cli import main
from naivea.errors import MalformedInputError
from naivea.generators import gen_instance
from naivea.instance_io import (
    decode_output,
    instance_from_doc,
    instance_to_doc,
    load_instance,
    load_output,
    output_to_jsonable,
    parse_subsets,
    read_json,
    write_canonical,
)
from naivea.space import Space
from naivea.tailor import prepare, run_pipeline


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


class Tag(str):
    """A str subclass: encoded as its text, never taken for an exact str."""


class Big(int):
    """An int subclass whose repr the encoder must not use."""

    def __repr__(self):
        return "Big()"


leaves = st.one_of(
    texts,
    texts.map(Tag),
    st.integers(),
    st.integers(-(10**30), 10**30),
    st.integers(2**64, 2**80),
    st.integers().map(Big),
    st.booleans(),
    st.none(),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e308, 5e-324, 1e16]),
)
# containers whose values are all scalars: the writer renders these in one call
flat_containers = st.one_of(
    st.lists(leaves, min_size=1, max_size=6),
    st.lists(leaves, min_size=1, max_size=4).map(tuple),
    st.dictionaries(st.one_of(texts, texts.map(Tag)), leaves, min_size=1, max_size=6),
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
    return draw(st.recursive(st.one_of(leaves, flat_containers, st.just(shared)), containers,
                             max_leaves=25))


SHARED = ["x", 1]
FLAT = ["\ud800", Tag("t"), 2**70, Big(3), -0.0, math.nan, math.inf, 1e308, True, None]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    return tmp_path_factory.mktemp("written") / "doc.json"


@settings(max_examples=200, deadline=None)
@given(tree=json_trees())
@example(tree={})
@example(tree=[])
@example(tree={"b": SHARED, "a": [SHARED, {"c": SHARED}], "d": SHARED})
@example(tree={"\u00e9": 1, "z": 2, "\x00": [True, False, None, -(10**40)]})
@example(tree={"f": FLAT, "g": [FLAT, {"h": FLAT}], "k": dict(zip("\x00\ud800\"é", FLAT))})
@example(tree={Tag("b"): FLAT[:3], "a": {Tag("\udfff"): -0.0, "\n": Big(-1)}})
def test_canonical_dumps_matches_the_stdlib(written, tree):
    text = canonical_dumps(tree)
    assert text == json.dumps(tree, sort_keys=True, indent=2) + "\n"
    write_canonical(written, tree)
    assert written.read_bytes() == text.encode("utf-8")


# a pair row's ratio: 0, whole, fractional or INF, each drawn afresh or taken
# from a shared pool, as run_pipeline shares one value per distinct ratio
fresh_ratios = st.one_of(
    st.just(Fraction(0)),
    st.integers(1, 10**6).map(Fraction),
    st.fractions(min_value=0, max_denominator=10**4),
    st.just(INFINITE),
)


@st.composite
def pair_row_trees(draw):
    """A tree holding one ``PairRows`` at a drawn place, the certificate's
    depth among them, and the same tree with the rows as dicts."""
    pool = draw(st.lists(fresh_ratios, min_size=1, max_size=3))
    ratios = st.one_of(fresh_ratios, st.sampled_from(pool))
    rows = draw(st.lists(st.tuples(texts, texts, ratios, ratios), max_size=6))
    # repeated past one writer batch
    rows *= draw(st.sampled_from([1, instance_io._BATCH + 1]))
    tree = instance_io.PairRows(tuple(rows))
    expected = [
        {"x": x, "y": y, "input_ratio": format_ratio(rin), "output_ratio": format_ratio(rout)}
        for x, y, rin, rout in rows
    ]
    # the output's certificate, with leaves around the rows, and then more
    # containers around it
    path = ["pairs", "certificate", *draw(st.lists(st.one_of(texts, st.none()), max_size=2))]
    for key in path:
        if key is None:
            tree, expected = [tree], [expected]
        else:
            siblings = draw(st.dictionaries(texts, leaves, max_size=3))
            tree, expected = {**siblings, key: tree}, {**siblings, key: expected}
    return tree, expected, len(rows)


@settings(max_examples=100, deadline=None)
@given(trees=pair_row_trees())
def test_pair_rows_render_as_their_dicts(written, trees):
    tree, expected, count = trees
    chunks = []
    instance_io._render(tree, chunks.append)
    # one piece per row, handed over each _BATCH pieces
    assert len(chunks) > count // instance_io._BATCH
    text, want = "".join(chunks), json.dumps(expected, sort_keys=True, indent=2) + "\n"
    # the first difference, not a diff of two texts of thousands of lines,
    # which pytest would take minutes to make
    at = len(os.path.commonprefix([text, want]))
    near = slice(max(at - 60, 0), at + 60)
    assert at == len(text) == len(want), (text[near], want[near])
    write_canonical(written, tree)
    assert written.read_bytes() == text.encode("utf-8")
    # the stdlib takes the rows for no JSON value, so it writes none
    with pytest.raises(TypeError, match="PairRows"):
        json.dumps(tree)


def test_the_output_tree_is_for_the_canonical_writer_alone():
    space, family, params = gen_instance("line", {"count": 12, "radii": ["2", "1"]}, seed=0)
    subsets, cert = run_pipeline(prepare(space, family, params.R, params.epsilon, params.S))
    assert cert.pairs
    doc = output_to_jsonable(subsets, cert)
    with pytest.raises(TypeError, match="PairRows"):
        json.dumps(doc)
    rows = json.loads(canonical_dumps(doc))["certificate"]["pairs"]
    assert rows == [
        {"x": x, "y": y, "input_ratio": format_ratio(rin), "output_ratio": format_ratio(rout)}
        for x, y, rin, rout in cert.pairs
    ]


def test_write_canonical_writes_past_one_batch(tmp_path):
    # nested lists and dicts, so the writer hands the text over in many
    # pieces, and one flat list that recurs across the batches
    shared = ["s", 2.5, None]
    doc = {f"k{i:05d}": [[i, "x"], {"v": [i]}, shared] for i in range(3000)}
    path = tmp_path / "big.json"
    write_canonical(path, doc)
    assert path.read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.fixture(scope="module")
def paths_16(tmp_path_factory):
    """An all-case-2 instance whose output is more than 8 MB."""
    inst = tmp_path_factory.mktemp("paths16") / "inst.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "disjoint_union_paths", "--paths", "16", "--min-len", "160",
                     "--max-len", "170", "--radii", "12,6", "--R", "2", "--epsilon", "1/2",
                     "--out", str(inst)]) == 0
    return inst


def test_write_canonical_streams_the_output(paths_16, tmp_path, monkeypatch):
    """`run` hands an output of more than 8 MB to the file in small writes,
    never as one whole-document string."""
    inst, out = paths_16, tmp_path / "out.json"
    writes = []
    opened = instance_io.open_output

    def spying(path):
        fh = opened(path)
        write = fh.write

        def record(text):
            writes.append(len(text))
            return write(text)

        fh.write = record
        return fh

    monkeypatch.setattr(instance_io, "open_output", spying)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(inst), "--out", str(out)]) == 0
    assert sum(writes) == out.stat().st_size >= 8_000_000
    assert max(writes) <= 1 << 20


def test_load_output_streams_the_output(paths_16, tmp_path, monkeypatch):
    """`verify` reads an output of more than 8 MB in windows, never as one
    whole-document string."""
    inst, out = paths_16, tmp_path / "out.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(inst), "--out", str(out)]) == 0
    reads = []

    def spying(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        if path == str(out):
            read = fh.read

            def record(*size):
                text = read(*size)
                reads.append((size, len(text)))
                return text

            fh.read = record
        return fh

    monkeypatch.setattr(instance_io, "open", spying, raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", str(inst), str(out)]) == 0
    size = out.stat().st_size
    assert sum(n for _, n in reads) == size >= 8_000_000
    assert all(len(args) == 1 and args[0] > 0 for args, _ in reads)
    assert max(n for _, n in reads) <= size // 4


def test_canonical_dumps_rejects_non_json_values():
    # non-str keys too, which json.dumps would have turned into strings
    for bad in ({1: "a"}, {None: 1}, {"a": 1, 2: "b"}, {"a": {1, 2}}, [object()], {"a": [b"x"]}):
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


# an integer past the int-string limit, nesting past the recursion limit,
# each at the top and below an object that load_output decodes itself
BIG, DEEP = "9" * 5000, "[" * 100_000 + "]" * 100_000
PAST_LIMITS = {
    "oversized": ('{"space": ' + BIG + "}", "Exceeds the limit"),
    "deep": (DEEP, "maximum recursion depth"),
    "oversized_member": ('{"subsets": {"a": [' + BIG + "]}}", "Exceeds the limit"),
    "deep_member": ('{"subsets": {"a": ' + DEEP + "}}", "maximum recursion depth"),
}


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
    for name, (text, reason) in PAST_LIMITS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        for reader in (read_json, lambda path: load_output(path, ())):
            with pytest.raises(MalformedInputError) as exc:
                reader(path)
            assert str(exc.value).startswith(f"{path} is not valid JSON: {reason}"), name


def test_load_output_validation(tmp_path):
    path = tmp_path / "o.json"
    write_canonical(path, {"subsets": {}})
    with pytest.raises(MalformedInputError, match="missing the 'certificate'"):
        load_output(path, ())
    write_canonical(path, {"subsets": {}, "certificate": {"cases": {}}})
    with pytest.raises(MalformedInputError, match="worst_ratio"):
        load_output(path, ())


def test_parse_subsets():
    parsed = parse_subsets({"x": ["a", "b#2"]})
    assert parsed == {"x": {"a", ("b", 2)}}
    parsed = parse_subsets({"x": ["a", "b#2"], "y": ["a", "b#2"], "z": ["b#2", "a"]})
    assert parsed["z"] == parsed["x"]
    for bad in (["a", ["b"]], [{"a": 1}], ["a", "b#0"], [5]):
        with pytest.raises(MalformedInputError, match="augmented point|tail index"):
            parse_subsets({"x": ["a"], "y": bad})
    with pytest.raises(MalformedInputError, match="duplicate"):
        parse_subsets({"x": ["a", "a"]})
    with pytest.raises(MalformedInputError, match="must be a list"):
        parse_subsets({"x": "a"})
    # a list object that recurs is parsed at each point; its duplicates raise
    shared = ["a", "b#2"]
    parsed = parse_subsets({"x": shared, "y": ["c"], "z": shared})
    assert parsed["x"] == parsed["z"] == {"a", ("b", 2)}
    with pytest.raises(MalformedInputError, match="'x' has duplicate"):
        parse_subsets({"x": ["a", "a"], "y": ["a", "a"]})
    # the first bad member in list order raises
    for bad, message in (
        (["a", ""], "bad augmented point ''"),
        (["a", "", "b#0"], "bad augmented point ''"),
        (["b#0", "a", ""], "tail index must be >= 1 in 'b#0'"),
        (["a", "#1", "c#1", ""], "bad augmented point '#1'"),
        (["a", "b#1", "b#01"], "bad augmented point 'b#01'"),
    ):
        with pytest.raises(MalformedInputError) as exc:
            parse_subsets({"x": bad})
        assert str(exc.value) == message, bad


def decoded(decode, source):
    """``decode(source)``, or the type and text of the error it raised."""
    try:
        return decode(source), None
    except (ValueError, RecursionError, MalformedInputError) as exc:
        return None, (type(exc), str(exc))


# window sizes of the output decoder: a member of any drawn text crosses
# an edge of the small ones
WINDOWS = (1, 2, 3, 7, instance_io._WINDOW)


def at_window(window, decode):
    """``decode`` run with the output decoder's window set to ``window``."""

    def run(source):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(instance_io, "_WINDOW", window)
            return decode(source)

    return run


def list_sharing(tree):
    """Each list of ``tree`` in walk order, as the walk index of its object's
    first visit, so two trees share lists alike when these are equal."""
    first, out = {}, []

    def walk(value):
        if isinstance(value, list):
            out.append(first.setdefault(id(value), len(out)))
            for item in value:
                walk(item)
        elif isinstance(value, dict):
            for item in value.values():
                walk(item)

    walk(tree)
    return out


def assert_decodes_alike(decode, source, reference):
    """``decode`` gives ``reference``'s tree or error at every window size,
    and shares lists alike at every window size."""
    theirs, their_error = decoded(reference, source)
    sharing = set()
    for window in WINDOWS:
        ours, our_error = decoded(at_window(window, decode), source)
        assert our_error == their_error, window
        assert tree_divergence(ours, theirs) is None, window
        assert tree_divergence(theirs, ours) is None, window
        sharing.add(tuple(list_sharing(ours)))
    assert len(sharing) == 1


class Windows(io.StringIO):
    """Text that can only be read a window at a time."""

    def read(self, size):
        return super().read(size)


def assert_decodes_like_the_stdlib(text):
    assert_decodes_alike(lambda t: decode_output(io.StringIO(t), ()), text, json.loads)
    doc, _ = decoded(json.loads, text)
    if isinstance(doc, dict):
        # a valid output-like text: decoded from its windows alone, with no
        # whole-text read to fall back on
        for window in WINDOWS:
            assert at_window(window, lambda t: decode_output(Windows(t), ()))(text) == doc


# whitespace, and characters that end, open or escape a JSON token
SPACING = st.text(st.sampled_from(" \t\n\r"), max_size=2)
MUTANTS = st.sampled_from('[]{},:"\\ \n0123456789-.eE+tfn#ab')
KEYS = st.sampled_from(["a", "b", "a]", 'q"', "\\", "subsets", "certificate"])
member_leaves = st.one_of(
    st.sampled_from(["a", "b#2", "]", "[", '"', '\\"]', "x]1", ""]),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
)


@st.composite
def spaced(draw, parts):
    """``parts`` joined with drawn whitespace between tokens."""
    return "".join(draw(SPACING) + p for p in parts) + draw(SPACING)


@st.composite
def array_texts(draw):
    items = draw(st.lists(member_leaves | st.lists(member_leaves, max_size=2), max_size=4))
    parts = [json.dumps(item, ensure_ascii=draw(st.booleans())) for item in items]
    return draw(spaced(["[", ",".join(parts) if parts else "", "]"]))


@st.composite
def near(draw, text):
    """``text`` with one character changed, dropped or added, or ``text``
    followed straight by a number."""
    i = draw(st.integers(0, len(text)))
    how = draw(st.sampled_from(["change", "drop", "add", "number"]))
    if how == "number":
        return text + draw(st.sampled_from(["2", "0", "-1", "1e3"]))
    if how == "drop":
        return text[:i] + text[i + 1:]
    c = draw(MUTANTS)
    return text[:i] + c + text[i + (how == "change"):]


@st.composite
def depth_one_objects(draw):
    """Object text whose values repeat or nearly repeat the previous array."""
    members, last = [], None
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["repeat", "repeat", "near", "near", "array", "leaf",
                                     "object"]))
        if last is not None and kind == "repeat":
            value = last
        elif last is not None and kind == "near":
            value = draw(near(last))
        elif kind == "leaf":
            value = json.dumps(draw(member_leaves))
        elif kind == "object":
            value = json.dumps({"x": draw(member_leaves), "y": [draw(member_leaves)]})
        else:
            value = last = draw(array_texts())
        members.append(json.dumps(draw(KEYS)) + draw(SPACING) + ":" + draw(SPACING) + value)
    return draw(spaced(["{", ",".join(members), "}"]))


@st.composite
def output_like_texts(draw):
    values = {"object": depth_one_objects(), "array": array_texts(),
              "leaf": member_leaves.map(json.dumps)}
    members = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["object", "object", "array", "leaf"]))
        members.append(json.dumps(draw(KEYS)) + ":" + draw(values[kind]))
    text = draw(spaced(["{", ",".join(members), "}"]))
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(text)))
        text = draw(st.sampled_from([text[:cut], text[:cut] + text[cut + 1:],
                                     text[:cut] + draw(MUTANTS) + text[cut + 1:]]))
    return text


@settings(max_examples=400, deadline=None)
@given(output_like_texts())
@example('{"a": [1], "b": [1]2}')
@example('{"o": {"a": [1], "b": [1]2}}')
@example('{"o": {"a": [1], "b": [1]}}')
@example('{"o": {"a": ["]"], "b": ["]"], "c": ["]", "\\""], "d": ["]", "\\""]}}')
@example('{"o": {"a": [1], "a": [1], "a": [2]}, "o": {"b": [1]}}')
@example(' \n{"o" :{"a":[ 1 ],\t"b":[ 1 ]  , "c":[1 ]}\r}\n ')
@example('{"o": {"a": [1], "b": [1]}} x')
@example('{"o": {"a": [1], "b": [1], "c": [1}}')
@example('{"o": {"a": [1], "b": [1}, "c": 2}}')
@example('\ufeff{"o": {}}')
@example('[1, [1]]')
def test_decode_output_matches_the_stdlib(text):
    assert_decodes_like_the_stdlib(text)


REPEATED = '["p1", "p2", "p3"]'
# texts whose tokens cross an edge of the small windows
EDGE_TEXTS = {
    "number": '{"o": {"n": 12345, "m": [67890, 1.5e-3], "i": -Infinity}, "t": -1e5}',
    "escape": '{"o": {"caf\\u00e9": "\\u00e9"}, "\\u00e9": ["\\u00e9"]}',
    "surrogate_pair": '{"o": {"\\ud83d\\ude00": "\\ud83d\\ude00x", "b": "\U0001f600"}}',
    "crlf": '{\r\n  "o": {\r\n    "a": [\r\n      1\r\n    ]\r\n  }\r\n}\r\n',
    "bom": '\ufeff{"o": {}}',
    "long_strings": '{"o": {"a": "%s"}, "%s": ["%s"]}' % ("x" * 40, "k" * 40, "y" * 40),
    "repeated_list": '{"subsets": {"a": %s, "b": %s, "c": %s}}' % ((REPEATED,) * 3),
    **{name: text for name, (text, _) in PAST_LIMITS.items()},
}


def read_output_text(path):
    return instance_io._read_document(path, lambda fh: decode_output(fh, ()))


@pytest.mark.parametrize("name", sorted(EDGE_TEXTS))
def test_decode_output_across_window_edges(name, tmp_path):
    text = EDGE_TEXTS[name]
    assert_decodes_like_the_stdlib(text)
    # from a file too, whose reader turns each CRLF into one newline
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode("utf-8"))
    assert_decodes_alike(read_output_text, path, read_json)


def test_a_repeated_list_across_a_refill_is_shared():
    text = EDGE_TEXTS["repeated_list"]
    for window in range(1, len(text) + 1):
        subsets = at_window(window, lambda t: decode_output(io.StringIO(t), ()))(text)["subsets"]
        assert subsets["a"] is subsets["b"] is subsets["c"] == ["p1", "p2", "p3"], window


LONG_IDS = tuple(f"q{i}" for i in range(20_000))


@pytest.mark.parametrize("long", ["x" * 100_000, list(LONG_IDS)], ids=["string", "subset"])
def test_a_long_member_is_decoded_a_logarithmic_number_of_times(long, monkeypatch):
    """Each refill takes in at least as much text again as the window held
    since the member began, so a member of L characters at a window of W is
    decoded again about log2(L / W) times, not L / W."""
    window = 64
    text = json.dumps({"certificate": {}, "subsets": {"p": long}}, indent=2)
    length = len(json.dumps(long, indent=2))
    assert length > 1000 * window
    calls, refill = [], instance_io._refill
    monkeypatch.setattr(instance_io, "_refill", lambda *args: calls.append(1) or refill(*args))
    monkeypatch.setattr(instance_io, "_WINDOW", window)
    subsets = decode_output(io.StringIO(text), LONG_IDS)["subsets"]
    assert subsets["p"] == (long if type(long) is str else LONG_IDS)
    assert 0 < len(calls) <= math.log2(length / window) + 4, len(calls)


def test_invalid_utf8_after_the_first_window(tmp_path):
    path = tmp_path / "bad.json"
    for size in (20, instance_io._WINDOW + 20):
        path.write_bytes(b'{"o": {"a": "' + b"x" * size + b'\xff"}}')
        assert_decodes_alike(read_output_text, path, read_json)
        with pytest.raises(MalformedInputError) as exc:
            load_output(path, ())
        # the position counts from the start of the file, not of a window
        assert str(exc.value) == (
            f"{path} is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position "
            f"{13 + size}: invalid start byte")


@pytest.fixture(scope="module")
def case_2_files(tmp_path_factory):
    """A small all-case-2 instance and its output: three paths of 4-5 points."""
    root = tmp_path_factory.mktemp("case2")
    inst, out = root / "inst.json", root / "out.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "disjoint_union_paths", "--paths", "3", "--min-len", "4",
                     "--max-len", "6", "--radii", "2,1", "--out", str(inst)]) == 0
        assert main(["run", str(inst), "--out", str(out)]) == 0
    return inst, out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_decode_output_matches_the_stdlib_on_run_output(case_2_files, data):
    text = case_2_files[1].read_text()
    assert_decodes_like_the_stdlib(text)
    i = data.draw(st.integers(0, len(text) - 1))
    how = data.draw(st.sampled_from(["truncate", "change", "drop", "add"]))
    if how == "truncate":
        text = text[:i]
    elif how == "drop":
        text = text[:i] + text[i + 1:]
    else:
        text = text[:i] + data.draw(MUTANTS) + text[i + (how == "change"):]
    assert_decodes_like_the_stdlib(text)


def test_shared_lists_cannot_hide_an_edit(case_2_files, tmp_path):
    inst, out = case_2_files
    subsets, _ = load_output(out, load_instance(inst).space.points)
    lists = list(subsets.values())
    # one object per distinct list, and one frozenset per component
    assert len({id(m) for m in lists}) == len({tuple(m) for m in lists}) == 3
    assert len({id(s) for s in parse_subsets(subsets).values()}) == 3
    first, second = sorted(subsets)[:2]
    assert subsets[first] is subsets[second]

    def drop(m):
        m.pop()

    def duplicate(m):
        m.insert(1, m[0])

    def replace_one(m):
        m[1] = "p5#01"

    expected = {
        drop: (1, "naive check: PASS {'pairs_checked': 11, 'worst_ratio': '1/4', "
                  "'support_radius': '4'}\ncertificate check: FAIL\n"
                  "  {'condition': 'certificate_mismatch', "
                  "'field': 'certificate.pairs[0].output_ratio'}\n", ""),
        duplicate: (2, "", f"error: subset for {second!r} has duplicate members\n"),
        replace_one: (2, "", "error: bad augmented point 'p5#01'\n"),
    }
    edited = tmp_path / "edited.json"
    for edit, want in expected.items():
        doc = read_json(out)
        edit(doc["subsets"][second])
        write_canonical(edited, doc)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["verify", str(inst), str(edited)])
        assert (code, stdout.getvalue(), stderr.getvalue()) == want, edit.__name__


def test_load_output_keeps_one_str_per_point(case_2_files, tmp_path):
    inst, out = case_2_files
    subsets, certificate = load_output(out, load_instance(inst).space.points)
    for field in ("cases", "radii"):
        assert list(certificate[field]) == list(subsets)
        assert all(a is b for a, b in zip(certificate[field], subsets)), field
    # a file that lists the cases in another order loads as written, and
    # verify fails on its edited radius as it always did
    doc = read_json(out)
    cert = doc["certificate"]
    cert["cases"] = dict(reversed(cert["cases"].items()))
    cert["radii"]["u0p0"] = "9"
    reordered = tmp_path / "reordered.json"
    reordered.write_text(json.dumps(doc, indent=2))
    # read with no instance, so the pair rows stay the dicts the file holds
    _, certificate = load_output(reordered, ())
    assert certificate == cert
    assert list(certificate["cases"]) == list(cert["cases"]) != list(subsets)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["verify", str(inst), str(reordered)])
    assert (code, stdout.getvalue(), stderr.getvalue()) == (
        1,
        "naive check: PASS {'pairs_checked': 11, 'worst_ratio': '0', 'support_radius': '4'}\n"
        "certificate check: FAIL\n"
        "  {'condition': 'certificate_mismatch', 'field': 'certificate.radii.u0p0'}\n",
        "",
    )


@pytest.fixture(scope="module")
def ray_files(tmp_path_factory):
    """A case-1 line and its output, with tail points at the ray's end p19."""
    root = tmp_path_factory.mktemp("ray")
    inst, out = root / "inst.json", root / "out.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "line", "--count", "20", "--radii", "2,1", "--unbounded",
                     "--out", str(inst)]) == 0
        assert main(["run", str(inst), "--out", str(out)]) == 0
    return inst, out


def test_verify_builds_subsets_from_the_instance_ids(ray_files, tmp_path, monkeypatch):
    """On a canonical output of each backend, `verify` hands parse_subsets
    only tuples, and every member it checks, base point or tail anchor,
    is the loaded instance's own id object, not a string decoded from the
    output."""
    from naivea import cli

    graph = tmp_path / "graph.json", tmp_path / "graph.out.json"
    matrix = tmp_path / "matrix.json", tmp_path / "matrix.out.json"
    write_canonical(matrix[0], MATRIX_DOC)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "cayley_cyclic", "--n", "24", "--k", "2",
                     "--out", str(graph[0])]) == 0
        for inst, out in (graph, matrix):
            assert main(["run", str(inst), "--out", str(out)]) == 0
    seen = {}

    def spy(name):
        original = getattr(cli, name)

        def call(arg):
            seen[name] = arg, original(arg)
            return seen[name][1]

        return call

    for name in ("load_instance", "parse_subsets"):
        monkeypatch.setattr(cli, name, spy(name))
    tails = {}
    for backend, (inst, out) in {"line": ray_files, "graph": graph, "matrix": matrix}.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", str(inst), str(out)]) == 0, backend
        raw, parsed = seen["parse_subsets"]
        assert set(map(type, raw.values())) == {tuple}, backend
        ids = {p: p for p in seen["load_instance"][1].space.points}
        tails[backend] = 0
        for subset in parsed.values():
            for p in subset:
                if isinstance(p, tuple):
                    tails[backend] += 1
                    p = p[0]
                assert ids[p] is p, (backend, p)
    assert tails["line"]


def test_subsets_that_stay_lists(ray_files):
    """A member list the decoder cannot take as it stands stays a list, for
    parse_subsets to decide as it always did."""
    points = load_instance(ray_files[0]).space.points
    for members in (["p00", "zz"], ["p00", "p00"], ["p00", "zz#1"], ["p00", "p19#01"],
                    ["p00", "p19#0"], ["p00", ""], ["p00", 5], ["p00", ["p01"]]):
        text = json.dumps({"subsets": {"p00": members}})
        assert decode_output(io.StringIO(text), points)["subsets"]["p00"] == members
    text = json.dumps({"subsets": {"p00": "p00", "p01": {"p00": 1}}})
    assert decode_output(io.StringIO(text), points) == json.loads(text)


def test_pair_rows_decode_as_tuples_of_the_instance_ids(ray_files):
    """Given the instance's points, each canonical pair row decodes, at every
    window size, as the tuple of its values in PAIR_KEYS order: x and y are
    the instance's own id objects, and equal ratio texts are one str."""
    inst, out = ray_files
    points = load_instance(inst).space.points
    ids = dict(zip(points, points))
    text = out.read_text()
    rows = json.loads(text)["certificate"]["pairs"]
    assert len({row["output_ratio"] for row in rows}) < len(rows)
    for window in WINDOWS:
        decode = at_window(window, lambda t: decode_output(Windows(t), points))
        pairs = decode(text)["certificate"]["pairs"]
        assert [dict(zip(instance_io.PAIR_KEYS, row)) for row in pairs] == rows, window
        texts = {}
        for row in pairs:
            assert type(row) is tuple and ids[row[2]] is row[2] and ids[row[3]] is row[3], window
            assert all(texts.setdefault(ratio, ratio) is ratio for ratio in row[:2]), window


ROW = '"input_ratio": "1/2", "output_ratio": "0", "x": "p00", "y": "p01"'
ROW_DICT = json.loads("{%s}" % ROW)
# pair rows that stay the stdlib's dicts: each is not in the layout `run`
# writes, or has an escape, or names no id of the instance
ROWS_KEPT = {
    "extra key": '{%s, "z": "1"}' % ROW,
    "missing key": '{"input_ratio": "1/2", "output_ratio": "0", "x": "p00"}',
    "non-str value": '{"input_ratio": 0.5, "output_ratio": "0", "x": "p00", "y": "p01"}',
    "nested object": '{"input_ratio": {%s}, "output_ratio": "0", "x": "p00", "y": "p01"}' % ROW,
    "duplicate key": '{"input_ratio": "1/2", "output_ratio": "0", "x": "p02", "x": "p00", '
                     '"y": "p01"}',
    "key order": '{"output_ratio": "0", "input_ratio": "1/2", "x": "p00", "y": "p01"}',
    "unknown id": '{"input_ratio": "1/2", "output_ratio": "0", "x": "zz", "y": "p01"}',
    "row in a list": '[{%s}]' % ROW,
    "not an object": '"p00"',
    "escaped value": '{"input_ratio": "1\\/2", "output_ratio": "0", "x": "p\\u0030\\u0030", '
                     '"y": "p01"}',
    "compact": '{"input_ratio":"1/2","output_ratio":"0","x":"p00","y":"p01"}',
    "re-indented": '{\n    %s\n  }' % ROW.replace(", ", ",\n    "),
}


@pytest.mark.parametrize("name", sorted(ROWS_KEPT))
def test_pair_rows_that_stay_dicts(ray_files, name):
    """A row the decoder does not take is what the stdlib makes of it, at
    every window size, and the rows around it, as `run` writes them, are
    tuples."""
    points = load_instance(ray_files[0]).space.points
    text = json.dumps({"certificate": {"pairs": [ROW_DICT, "KEPT", ROW_DICT]}, "subsets": {}},
                      sort_keys=True, indent=2).replace('"KEPT"', ROWS_KEPT[name])
    expected = json.loads(text)["certificate"]["pairs"]
    for window in WINDOWS:
        decode = at_window(window, lambda t: decode_output(io.StringIO(t), points))
        first, kept, last = decode(text)["certificate"]["pairs"]
        assert tree_divergence(kept, expected[1]) is None, window
        assert first == last == ("1/2", "0", "p00", "p01"), window


def test_a_row_cut_before_its_comma_or_the_closing_bracket_is_a_tuple(ray_files):
    """A window that ends just past a row's ``}``, before the ``,`` or the
    ``]`` after it, or inside the whitespace before that ``]``, leaves the
    row to be decoded again, and it comes back a tuple."""
    points = load_instance(ray_files[0]).space.points
    text = json.dumps({"certificate": {"pairs": [ROW_DICT] * 2}}, sort_keys=True, indent=2)
    close = text.index("]")
    first_end, last_end = text.index("}") + 1, text.rindex("}", 0, close) + 1
    assert text[first_end] == "," and text[last_end] == "\n"
    for cut in (first_end, last_end, last_end + 1, close):
        decode = at_window(cut, lambda t: decode_output(io.StringIO(t), points))
        assert decode(text)["certificate"]["pairs"] == [("1/2", "0", "p00", "p01")] * 2, cut


def test_a_row_after_the_closing_bracket_is_no_row_of_the_list(ray_files):
    """The run scanner stops at the ``]`` that closes the list: a row laid
    out as `run` writes it, right after that ``]``, is the stdlib's error."""
    points = load_instance(ray_files[0]).space.points
    text = json.dumps({"certificate": {"pairs": [ROW_DICT] * 2}}, sort_keys=True, indent=2)
    close = text.index("]") + 1
    text = text[:close] + text[text.index("{", text.index("[")):close] + text[close:]
    assert_decodes_alike(lambda t: decode_output(io.StringIO(t), points), text, json.loads)


def test_a_run_of_rows_stops_at_an_unknown_id(ray_files, tmp_path):
    """A row laid out as the writer lays it out, whose y is no id of the
    instance, is the stdlib's dict, at every window size, and the rows
    around it are tuples."""
    inst, out = ray_files
    points = load_instance(inst).space.points
    doc = read_json(out)
    doc["certificate"]["pairs"][3]["y"] = "zz"
    edited = tmp_path / "edited.json"
    write_canonical(edited, doc)
    text = edited.read_text()
    rows = doc["certificate"]["pairs"]
    kinds = [dict if i == 3 else tuple for i in range(len(rows))]
    for window in WINDOWS:
        decode = at_window(window, lambda t: decode_output(io.StringIO(t), points))
        pairs = decode(text)["certificate"]["pairs"]
        assert list(map(type, pairs)) == kinds, window
        assert as_stdlib(pairs) == rows, window


def as_stdlib(tree):
    """``tree`` with each tuple row read back as the dict the stdlib makes."""
    if isinstance(tree, tuple):
        return dict(zip(instance_io.PAIR_KEYS, tree))
    if isinstance(tree, dict):
        return {key: as_stdlib(value) for key, value in tree.items()}
    if isinstance(tree, list):
        return [as_stdlib(value) for value in tree]
    return tree


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pair_rows_decode_like_the_stdlib_on_run_output(ray_files, data):
    """Given the points, any edit of an output decodes, at every window size,
    to the stdlib's error or to its certificate once tuple rows are read as
    dicts."""
    inst, out = ray_files
    points = load_instance(inst).space.points
    text = out.read_text()
    i = data.draw(st.integers(text.index('"pairs"'), text.index('"params"')))
    how = data.draw(st.sampled_from(["truncate", "change", "drop", "add"]))
    if how == "truncate":
        text = text[:i]
    elif how == "drop":
        text = text[:i] + text[i + 1:]
    else:
        mutant = data.draw(MUTANTS | st.sampled_from(["\\u0030", "\\", "\f", "\x01"]))
        text = text[:i] + mutant + text[i + (how == "change"):]
    theirs, their_error = decoded(json.loads, text)
    for window in WINDOWS:
        decode = at_window(window, lambda t: decode_output(io.StringIO(t), points))
        ours, our_error = decoded(decode, text)
        assert our_error == their_error, window
        if their_error is None:
            certificate = as_stdlib(ours["certificate"])
            assert tree_divergence(certificate, theirs["certificate"]) is None, window


def test_pairs_that_are_not_a_list(ray_files, tmp_path, capsys):
    inst, out = ray_files
    doc = read_json(out)
    bad = tmp_path / "bad.json"
    for pairs in ({}, "rows", None):
        doc["certificate"]["pairs"] = pairs
        write_canonical(bad, doc)
        capsys.readouterr()
        assert main(["verify", str(inst), str(bad)]) == 2
        assert capsys.readouterr() == ("", "error: certificate field 'pairs' must be a list\n")
