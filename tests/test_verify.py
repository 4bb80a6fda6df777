"""Independent re-checking of outputs and the exhaustive flow monitor."""
from __future__ import annotations

import ast
import io
import json
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import FlowSuiteSpec, canonical_dumps, certificate_violations, flow_monitor
from test_e2e import LONG_LINE_DOC, documents
from test_trees import clustered_spaces

import naivea
from naivea.augment import aug_sort_key
from naivea.chains import INFINITE, format_ratio, qualifying_pairs, set_ratio
from naivea.cli import main
from naivea.errors import MalformedInputError, UnknownPointError
from naivea.generators import gen_instance
from naivea.instance_io import (
    PAIR_KEYS,
    load_instance,
    load_output,
    output_to_jsonable,
    parse_subsets,
    read_json,
    write_canonical,
)
from naivea.space import build_space, component_cases
from naivea.tailor import admit, prepare, run_pipeline
from naivea.verify import VerifyReport, first_divergence, verify_certificate, verify_naive


def test_verify_naive_pass_and_fail(l10):
    ids = list(l10.points)
    subsets = {
        x: {ids[j] for j in (i, i + 1) if j < len(ids)} for i, x in enumerate(ids)
    }
    pairs = qualifying_pairs(l10, 1)
    ok = verify_naive(l10, subsets, pairs, 3)
    assert ok.ok
    assert ok.stats == {"pairs_checked": 9, "worst_ratio": "2", "support_radius": "1"}
    bad = verify_naive(l10, subsets, pairs, 2)
    assert not bad.ok
    assert all(v["condition"] == "set_ratio" and v["ratio"] == "2" for v in bad.violations)
    assert bad.ok is False


def test_verify_naive_disjoint_pair_reports_infinite(l10):
    subsets = {x: {x} for x in l10.points}
    report = verify_naive(l10, subsets, qualifying_pairs(l10, 1), 100)
    assert not report.ok
    assert report.violations[0]["ratio"] == "INF"
    assert report.stats["worst_ratio"] == "0"  # finite worst among checked pairs


def test_verify_naive_tail_members(l10):
    subsets = {x: {x} for x in l10.points}
    subsets["p0"] = {"p0", ("p9", 2)}
    pairs = qualifying_pairs(l10, 1)
    report = verify_naive(
        l10, subsets, pairs, 100, tail_spacing=Fraction(2), hint_anchors={"p9"}
    )
    assert report.stats["support_radius"] == "13"  # d(p0, p9) + 2*2
    with pytest.raises(MalformedInputError, match="no tail spacing"):
        verify_naive(l10, subsets, pairs, 100)
    with pytest.raises(UnknownPointError, match="tail anchor"):
        verify_naive(l10, subsets, pairs, 100, tail_spacing=Fraction(2), hint_anchors={"p3"})
    # a bool is not a tail index, though True == 1
    subsets["p0"] = {"p0", ("p3", True)}
    with pytest.raises(MalformedInputError, match="bad tail index"):
        verify_naive(l10, subsets, pairs, 100, tail_spacing=Fraction(2), hint_anchors={"p3"})


def test_verify_naive_input_validation(l10):
    subsets = {x: {x} for x in l10.points}
    pairs = qualifying_pairs(l10, 1)
    with pytest.raises(MalformedInputError, match="epsilon must be positive"):
        verify_naive(l10, subsets, pairs, 0)
    with pytest.raises(MalformedInputError, match="no subset"):
        verify_naive(l10, {"p0": {"p0"}}, pairs, 1)
    empty = dict(subsets, p3=set())
    with pytest.raises(MalformedInputError, match="empty subset"):
        verify_naive(l10, empty, pairs, 1)
    unknown = dict(subsets, p3={"qq"})
    with pytest.raises(UnknownPointError, match="unknown point"):
        verify_naive(l10, unknown, pairs, 1)
    # a subset for a point the space does not have
    extra = dict(subsets, zzz={"p0"})
    with pytest.raises(UnknownPointError, match="subset for unknown point 'zzz'"):
        verify_naive(l10, extra, pairs, 1)


def test_verify_naive_names_incomparable_members_in_repr_order(l10):
    """Members whose sort keys cannot be compared (an int id beside a str
    one, an int tail index beside a str one) still raise the input errors,
    naming the first bad member in repr order, not a TypeError."""
    subsets = {x: {x} for x in l10.points}
    pairs = qualifying_pairs(l10, 1)
    mixed = dict(subsets, p3={"p3", 0, "zz"})
    with pytest.raises(UnknownPointError, match="unknown point 'zz'"):
        verify_naive(l10, mixed, pairs, 100)
    tails = dict(subsets, p3={"p3", ("p3", "x"), ("p3", 1)})
    with pytest.raises(MalformedInputError, match=r"bad tail index in subset member \('p3', 'x'\)"):
        verify_naive(l10, tails, pairs, 100, tail_spacing=Fraction(2))


def test_first_divergence():
    assert first_divergence({"a": 1}, {"b": 1}) == "a"
    assert first_divergence({"a": {"b": 1}}, {"a": {"b": 2}}) == "a.b"
    assert first_divergence({"a": {}}, {"a": {"b": 1}}) == "a.b"
    assert first_divergence(1, "1") == "<root>"
    assert first_divergence({"a": [1]}, {"a": "1"}) == "a"
    # equal dicts of str are equal; == alone would also take these type
    # mismatches, at any depth
    assert first_divergence({"p0": "1", "p1": "2"}, {"p0": "1", "p1": "2"}) is None
    assert first_divergence({"L": 39.0}, {"L": 39}) == "L"
    assert first_divergence({"a": "1"}, {"a": 1}) == "a"
    assert first_divergence({"a": True}, {"a": 1}) == "a"
    assert first_divergence({"c": {"L": 39.0}}, {"c": {"L": 39}}) == "c.L"

    class Tagged(str):
        pass

    assert first_divergence({"a": "p0"}, {"a": Tagged("p0")}) == "a"
    assert first_divergence({"a": {"b": Tagged("p0")}}, {"a": {"b": "p0"}}) == "a.b"
    # an expected value that is callable checks its place: it gets the
    # file's value and its path, and its answer is the walk's
    calls = []

    def check(value, path):
        calls.append((value, path))
        return None if value == [1, 2] else f"{path}[0]"

    assert first_divergence({"a": "1", "rows": [1, 2]}, {"a": "1", "rows": check}, "c") is None
    assert first_divergence({"rows": [3]}, {"rows": check}, "c") == "c.rows[0]"
    assert calls == [([1, 2], "c.rows"), ([3], "c.rows")]
    assert first_divergence({"a": "2", "rows": [3]}, {"a": "1", "rows": check}, "c") == "c.a"
    assert len(calls) == 2  # the walk stops at the first difference


def test_first_divergence_names_a_pair_field(ray_checked):
    """Pair rows the decoder keeps as dicts (str to str, as the stdlib
    decodes them) pass the pairs check; a ratio of any other type or text
    is named by its field."""
    text, _, facts = ray_checked
    assert verify_certificate(*facts, json.loads(text)["certificate"]).ok
    for bad in (1, True, "1.0", 1.0):
        certificate = json.loads(text)["certificate"]
        certificate["pairs"][4]["output_ratio"] = bad
        assert verify_certificate(*facts, certificate).violations == (
            {"condition": "certificate_mismatch", "field": "certificate.pairs[4].output_ratio"},
        ), bad


def pipeline_doc(space, family, params):
    subsets, cert = run_pipeline(prepare(space, family, params.R, params.epsilon, params.S))
    return json.loads(canonical_dumps(output_to_jsonable(subsets, cert)))


def check_certificate(space, family, params, doc):
    report, decomp = admit(space, family, params.R, params.epsilon, params.S)
    kinds, _, _ = component_cases(space, decomp, report.params.S, report.params.N)
    pairs = [(x, y) for x, y, _ in report.pairs]
    naive = verify_naive(
        space, parse_subsets(doc["subsets"]), pairs, params.epsilon, tail_spacing=params.S
    )
    cases = {x: kinds[i] for x, i in decomp.owner.items()}
    return verify_certificate(report, cases, naive, doc["certificate"])


def test_verify_certificate_round_trip():
    space, family, params = gen_instance("line", {"count": 12, "radii": ["2", "1"]})
    doc = pipeline_doc(space, family, params)
    assert check_certificate(space, family, params, doc).ok

    # the subsets are not compared; the claims they no longer support are
    tampered = json.loads(json.dumps(doc))
    tampered["subsets"]["p00"] = ["p00"]
    report = check_certificate(space, family, params, tampered)
    assert not report.ok
    assert report.violations[0]["field"] == "certificate.pairs[0].output_ratio"
    grew = {"condition": "output_ratio_above_input", "x": "p00", "y": "p01"}
    assert grew in report.violations

    tampered = json.loads(json.dumps(doc))
    tampered["certificate"]["worst_ratio"] = "1/999"
    report = check_certificate(space, family, params, tampered)
    assert not report.ok
    assert report.violations == (
        {"condition": "certificate_mismatch", "field": "certificate.worst_ratio"},
    )


@pytest.fixture(scope="module")
def ray_checked(tmp_path_factory):
    """A case-1 line with tails at its ray's end, its output's text, the
    instance's points, and the facts ``verify`` checks its certificate with."""
    root = tmp_path_factory.mktemp("ray")
    inst, out = root / "inst.json", root / "out.json"
    with redirect_stdout(io.StringIO()):
        assert main(["generate", "line", "--count", "20", "--radii", "2,1", "--unbounded",
                     "--out", str(inst)]) == 0
        assert main(["run", str(inst), "--out", str(out)]) == 0
    instance = load_instance(inst)
    space, params = instance.space, instance.params
    report, decomp = admit(space, instance.family, params.R, params.epsilon, params.S)
    kinds, rays, _ = component_cases(space, decomp, report.params.S, report.params.N)
    subsets, _ = load_output(out, space.points)
    naive = verify_naive(space, parse_subsets(subsets), [(x, y) for x, y, _ in report.pairs],
                         params.epsilon, tail_spacing=params.S,
                         hint_anchors={ray[-1] for ray in rays.values()})
    cases = {x: kinds[i] for x, i in decomp.owner.items()}
    return out.read_text(), space.points, (report, cases, naive)


TAMPERS = ("value", "type", "add key", "delete key", "drop row", "add row", "key order",
           "indentation")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_certificate_check_matches_the_whole_row_oracle(ray_checked, tmp_path_factory, data):
    """One tampered pair row, decoded as ``verify`` decodes it (tuples for
    rows in the layout `run` writes, the stdlib's dicts for any other), gets
    the violations of the oracle that builds every row and walks the whole
    certificate."""
    text, points, facts = ray_checked
    doc = json.loads(text)
    rows = doc["certificate"]["pairs"]
    kind = data.draw(st.sampled_from(TAMPERS))
    i = data.draw(st.integers(0, len(rows) - 1))
    key = data.draw(st.sampled_from(PAIR_KEYS))
    row = rows[i]
    indent = 2
    if kind == "value":
        row[key] = data.draw(st.sampled_from(["0", "1/2", "1/3", "2/3", "INF", "", *points[:3]]))
    elif kind == "type":
        row[key] = data.draw(st.sampled_from([0, 0.5, None, True, [row[key]], {key: row[key]}]))
    elif kind == "add key":
        row[data.draw(st.sampled_from(["z", "X", "x ", "ratio"]))] = data.draw(
            st.sampled_from(["1", 1, row[key]]))
    elif kind == "delete key":
        del row[key]
    elif kind == "drop row":
        del rows[i]
    elif kind == "add row":
        rows.insert(data.draw(st.integers(0, len(rows))), dict(row))
    elif kind == "key order":
        rows[i] = {k: row[k] for k in data.draw(st.permutations(PAIR_KEYS))}
    else:
        indent = data.draw(st.sampled_from([None, 0, 1, 4, "\t"]))
    path = tmp_path_factory.mktemp("tampered") / "out.json"
    path.write_text(json.dumps(doc, indent=indent))
    _, certificate = load_output(path, points)
    # tuples only at the writer's indent
    assert (tuple in set(map(type, certificate["pairs"]))) == (indent == 2), indent
    expected = certificate_violations(*facts, json.loads(path.read_text())["certificate"])
    assert verify_certificate(*facts, certificate).violations == expected, kind


def test_verify_certificate_recompute_failure():
    space, family, params = gen_instance("line", {"count": 12, "radii": ["2", "1"]})
    doc = pipeline_doc(space, family, params)
    strict = replace(params, epsilon=Fraction(1, 1000))
    report = check_certificate(space, family, strict, doc)
    assert not report.ok
    assert report.violations[0]["condition"] == "recompute_failed"


def package_imports(module) -> set:
    """The naivea modules that ``module``'s source imports, at any depth."""
    tree = ast.parse((Path(naivea.__file__).parent / module).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            names.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("naivea."):
            names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("naivea."))
    return names


def test_checker_shares_no_producer_stage():
    """The checker is smaller than what it checks: verify.py imports
    nothing of the flow, the tailoring or the tails, and instance_io, which
    holds the certificate, nothing of the tailoring."""
    assert package_imports("verify.py").isdisjoint({"flow", "tailor", "augment"})
    assert "tailor" not in package_imports("instance_io.py")
    assert {"chains", "instance_io"} <= package_imports("verify.py")  # the scan sees imports


def test_flow_monitor_small_suite():
    report = flow_monitor(FlowSuiteSpec(points=2, max_value=2))
    assert report.ok
    assert report.chains_checked == 9
    assert report.pairs_checked == 81
    assert report.failures == ()


def test_flow_monitor_validation():
    with pytest.raises(MalformedInputError):
        flow_monitor(FlowSuiteSpec(points=0, max_value=2))


def reference_naive(space, subsets, R, epsilon, tail_spacing=None, hint_anchors=None):
    """verify_naive with its radius pass as one check and one exact distance
    per (point, member), in each subset's sorted order (``aug_sort_key``),
    so an error names the first bad member there."""
    epsilon = Fraction(epsilon)
    pairs = qualifying_pairs(space, Fraction(R))
    ratios = [(x, y, set_ratio(subsets[x], subsets[y])) for x, y in pairs]
    violations = tuple(
        {"condition": "set_ratio", "x": x, "y": y, "ratio": format_ratio(r)}
        for x, y, r in ratios
        if r >= epsilon
    )
    worst = max((r for *_, r in ratios if r != INFINITE), default=Fraction(0))
    radius = Fraction(0)
    for x in space.points:
        for p in sorted(subsets[x], key=aug_sort_key):
            if isinstance(p, tuple):
                anchor, index = p
                if tail_spacing is None:
                    raise MalformedInputError(
                        f"subset contains tail point {anchor}#{index} "
                        "but no tail spacing was supplied"
                    )
                if not space.has(anchor) or (
                    hint_anchors is not None and anchor not in hint_anchors
                ):
                    raise UnknownPointError(f"subset contains unknown tail anchor {anchor!r}")
                if type(index) is not int or index < 1:
                    raise MalformedInputError(f"bad tail index in subset member {p!r}")
                d = space.dist(x, anchor) + index * Fraction(tail_spacing)
            elif not space.has(p):
                raise UnknownPointError(f"subset contains unknown point {p!r}")
            else:
                d = space.dist(x, p)
            radius = max(radius, d)
    stats = {
        "pairs_checked": len(pairs),
        "worst_ratio": format_ratio(worst),
        "support_radius": str(radius),
    }
    return violations, stats


FAULTS = (None, "unknown point", "unknown anchor", "non-hint anchor", "bad index", "no spacing")


@st.composite
def families(draw):
    """A space from the end-to-end or the tree documents, and a subset family
    on it: groups of points that share one subset object, or hold one each,
    with base and tail members, and at most one bad member placed in a
    subset that several points share or in one that a single point holds."""
    if draw(st.booleans()):
        doc = draw(documents())
        space = build_space(
            doc["space"]["points"], doc["space"]["metric"], doc.get("unbounded_hints", ())
        )
    else:
        space, _ = draw(clustered_spaces())
    points = list(space.points)
    anchors = draw(st.lists(st.sampled_from(points), max_size=3, unique=True))
    member = st.sampled_from(points)
    if anchors:
        member = st.one_of(member, st.tuples(st.sampled_from(anchors), st.integers(1, 4)))
    subset = st.lists(member, min_size=1, max_size=8).map(frozenset)
    subsets, rest = {}, draw(st.permutations(points))
    while rest:
        cut = draw(st.integers(1, len(rest)))
        group, rest = rest[:cut], rest[cut:]
        if draw(st.booleans()):
            subsets.update(dict.fromkeys(group, draw(subset)))
        else:
            subsets.update((x, draw(subset)) for x in group)
    hint_anchors = set(anchors) if draw(st.booleans()) else None
    tail_spacing = draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(3, 2)]))

    fault = draw(st.sampled_from(FAULTS))
    if fault is not None:
        anchor = anchors[0] if anchors else points[0]
        if fault == "unknown point":
            bad = "zz"
        elif fault == "unknown anchor":
            bad = ("zz", 1)
        elif fault == "non-hint anchor":
            outside = [p for p in points if p not in anchors]
            hint_anchors = set(anchors)
            bad = (outside[0], 1) if outside else ("zz", 1)
        elif fault == "bad index":
            bad = (anchor, draw(st.sampled_from([0, -1, True])))
            if hint_anchors is not None:
                hint_anchors.add(anchor)
        else:
            bad = (anchor, 1)
            tail_spacing = None
        holders = draw(st.lists(st.sampled_from(points), min_size=1, max_size=2, unique=True))
        faulty = subsets[holders[0]] | {bad}
        subsets.update(dict.fromkeys(holders, faulty))
    R = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]))
    epsilon = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]))
    return space, subsets, R, epsilon, tail_spacing, hint_anchors


def outcome(check, *args):
    try:
        return check(*args)
    except (MalformedInputError, UnknownPointError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(families())
def test_verify_naive_matches_per_member_reference(drawn):
    expected = outcome(reference_naive, *drawn)
    space, subsets, R, *rest = drawn
    report = outcome(verify_naive, space, subsets, qualifying_pairs(space, R), *rest)
    if isinstance(report, VerifyReport):
        assert (report.violations, report.stats) == expected
        assert report.ok == (not expected[0])
    else:
        assert report == expected


def leaves(tree, path=()):
    """(path, value) of every leaf of a JSON tree, in document order."""
    items = tree.items() if isinstance(tree, dict) else enumerate(tree)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from leaves(value, (*path, key))
        else:
            yield (*path, key), value


def replacements(value, points):
    """Other values for a certificate leaf: nearby ints, rationals, labels and
    point ids, and the same number as a JSON float (39 -> 39.0, "1/2" -> 0.5)."""
    if isinstance(value, int):
        return [value - 1, value + 1, float(value)]
    try:
        as_float = [float(Fraction(value))]
    except ValueError:  # a label like "3a", a point id, or "INF"
        as_float = []
    return ["0", "1", "1/2", "2", "7/3", "INF", "3", "3a", "3b", *points, *as_float]


def edit_certificate(data, cert, points):
    """Apply one drawn edit to one field of ``cert``: a new value for one of
    its leaves or, in ``pairs``, a row dropped, duplicated or swapped with
    another. Returns the edited leaf's path with its old and new values, or
    None for a row edit."""
    field = data.draw(st.sampled_from([key for key in sorted(cert) if cert[key] != []]))
    rows = cert["pairs"]
    kinds = ["leaf", "drop", "duplicate", "swap"] if field == "pairs" else ["leaf"]
    kind = data.draw(st.sampled_from(kinds))
    if kind == "leaf":
        in_field = [leaf for leaf in leaves(cert) if leaf[0][0] == field]
        path, old = data.draw(st.sampled_from(in_field))
        new = data.draw(st.sampled_from(replacements(old, points)))
        node = cert
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = new
        return path, old, new
    i = data.draw(st.integers(0, len(rows) - 1))
    if kind == "drop":
        del rows[i]
    elif kind == "duplicate":
        rows.insert(i, dict(rows[i]))
    else:
        j = data.draw(st.integers(0, len(rows) - 1))
        rows[i], rows[j] = rows[j], rows[i]
    return None


@settings(max_examples=150, deadline=None)
@given(doc=st.one_of(documents(), st.just(LONG_LINE_DOC)), data=st.data())
def test_verify_rejects_every_certificate_edit(tmp_path_factory, doc, data):
    """Any single edit of a certificate field makes `verify` fail, unless it
    leaves the file's bytes as they were; a label edit fails with exit 1 and
    names its field."""
    directory = tmp_path_factory.mktemp("tamper")
    inst, out, bad = (directory / name for name in ("inst.json", "out.json", "bad.json"))
    write_canonical(inst, doc)
    assume(main(["run", str(inst), "--out", str(out)]) == 0)  # else there is no certificate
    tampered = read_json(out)
    edit = edit_certificate(data, tampered["certificate"], doc["space"]["points"])
    write_canonical(bad, tampered)
    if bad.read_bytes() == out.read_bytes():
        return
    if edit is not None and edit[0][0] == "cases":
        with redirect_stdout(io.StringIO()) as printed:
            assert main(["verify", str(inst), str(bad)]) == 1, edit
        assert f"'field': 'certificate.cases.{edit[0][1]}'" in printed.getvalue(), edit
        return
    assert main(["verify", str(inst), str(bad)]) in (1, 2), edit


def test_verify_decides_3a_from_3b(tmp_path, capsys):
    """The radius decides a class-3 label: a 3a support stays within the
    case-1 bound, and a 3b subset's annulus marker lies beyond it."""
    inst, out, bad = (tmp_path / name for name in ("inst.json", "out.json", "bad.json"))
    write_canonical(inst, LONG_LINE_DOC)
    assert main(["run", str(inst), "--out", str(out)]) == 0
    doc = read_json(out)
    cases = doc["certificate"]["cases"]
    assert (cases["p10"], cases["p00"]) == ("3a", "3b")
    for x, label in (("p10", "3b"), ("p10", "3"), ("p10", "2"), ("p00", "3a")):
        edited = json.loads(json.dumps(doc))
        edited["certificate"]["cases"][x] = label
        write_canonical(bad, edited)
        capsys.readouterr()
        assert main(["verify", str(inst), str(bad)]) == 1, (x, label)
        assert f"'field': 'certificate.cases.{x}'" in capsys.readouterr().out, (x, label)
