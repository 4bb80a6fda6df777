"""The command-line interface: subcommands, exit codes, reproducibility."""
from __future__ import annotations

import json

import pytest

from naivea import cli
from naivea.cli import main
from naivea.instance_io import read_json, write_canonical


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def line_files(tmp_path):
    inst = tmp_path / "inst.json"
    out = tmp_path / "out.json"
    assert run_cli(
        "generate", "line", "--count", "12", "--radii", "2,1", "--out", str(inst)
    ) == 0
    assert run_cli("run", str(inst), "--out", str(out)) == 0
    return inst, out


def test_generate_run_verify_cycle(line_files, capsys):
    inst, out = line_files
    assert run_cli("verify", str(inst), str(out)) == 0
    stdout = capsys.readouterr().out
    assert "naive check: PASS" in stdout
    assert "certificate check: PASS" in stdout
    doc = read_json(out)
    assert set(doc) == {"certificate", "subsets"}
    assert doc["certificate"]["cases"]["p00"] == "2"


def test_rerun_is_byte_identical(line_files, tmp_path):
    inst, out = line_files
    inst2 = tmp_path / "inst2.json"
    out2 = tmp_path / "out2.json"
    assert run_cli(
        "generate", "line", "--count", "12", "--radii", "2,1", "--out", str(inst2)
    ) == 0
    assert run_cli("run", str(inst2), "--out", str(out2)) == 0
    assert inst.read_bytes() == inst2.read_bytes()
    assert out.read_bytes() == out2.read_bytes()


def test_verify_rejects_tampering(line_files, tmp_path, capsys):
    inst, out = line_files
    doc = read_json(out)
    doc["subsets"]["p00"] = ["p00"]
    bad = tmp_path / "bad.json"
    write_canonical(bad, doc)
    assert run_cli("verify", str(inst), str(bad)) == 1
    assert "FAIL" in capsys.readouterr().out


def test_trace_lists_iterations(line_files, capsys):
    inst, _ = line_files
    assert run_cli("trace", str(inst), "--point", "p00") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "0 p00:2 p01:2 p02:1"
    assert lines[-1] == "3 p00:1 p00#1:1 p00#2:1 p01:1 p02:1"
    assert run_cli("trace", str(inst), "--point", "nope") == 2


def test_run_trace_file_matches_command(line_files, tmp_path, capsys):
    inst, _ = line_files
    out = tmp_path / "o.json"
    trace = tmp_path / "t.txt"
    assert run_cli("run", str(inst), "--out", str(out), "--trace", str(trace)) == 0
    in_file = {}
    for line in trace.read_text().splitlines():
        x, rest = line.split(" ", 1)
        in_file.setdefault(x, []).append(rest)
    points = read_json(inst)["space"]["points"]
    assert list(in_file) == points  # every chain has excess, listed in point order
    assert len(in_file["p00"]) == 3
    capsys.readouterr()
    for x in points:
        assert run_cli("trace", str(inst), "--point", x) == 0
        assert capsys.readouterr().out.strip().splitlines()[1:] == in_file[x]
        counts = [int(line.split(" ", 1)[0]) for line in in_file[x]]
        assert counts == list(range(1, len(counts) + 1))


def test_verify_rejects_tail_at_a_rejected_hint(tmp_path, capsys):
    # in the golden hints_mixed document, the b-line's hint ['b00', 'b05']
    # falls back to the bounded path, so b05 carries no tail
    from test_golden import HINTS_DOC

    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    write_canonical(inst, HINTS_DOC)
    assert run_cli("run", str(inst), "--out", str(out)) == 0
    for anchor in ("b05", "b07"):
        doc = read_json(out)
        doc["subsets"]["b03"].append(f"{anchor}#1")
        bad = tmp_path / f"bad_{anchor}.json"
        write_canonical(bad, doc)
        capsys.readouterr()
        assert run_cli("verify", str(inst), str(bad)) == 2
        assert f"unknown tail anchor {anchor!r}" in capsys.readouterr().err


def test_inspect_summarizes(line_files, capsys):
    inst, _ = line_files
    assert run_cli("inspect", str(inst)) == 0
    out = capsys.readouterr().out
    assert "points: 12" in out
    assert "L=9 N=83" in out
    assert "admission: PASS" in out
    assert "class=BOUNDED_SMALL" in out


def test_generate_other_kinds(tmp_path):
    for argv in (
        ["generate", "grid", "--rows", "3", "--cols", "3", "--radii", "2"],
        ["generate", "cayley_cyclic", "--n", "12", "--k", "3"],
        [
            "generate", "disjoint_union_paths", "--paths", "3", "--min-len", "3",
            "--max-len", "6", "--radii", "2", "--seed", "4",
        ],
        [
            "generate", "weighted_ball", "--space-kind", "line", "--count", "9",
            "--radii", "2,1",
        ],
        ["generate", "line", "--count", "8", "--radii", "2", "--unbounded"],
    ):
        out = tmp_path / f"{argv[1]}_{argv[2][2:]}.json"
        assert run_cli(*argv, "--out", str(out)) == 0
        assert read_json(out)["space"]["points"]


def test_generate_weighted_ball_defaults_are_deterministic(tmp_path):
    # bare --paths picks the disjoint-paths inner space with default lengths
    files = []
    for i in range(2):
        out = tmp_path / f"wb{i}.json"
        assert run_cli(
            "generate", "weighted_ball", "--paths", "20", "--seed", "7", "--out", str(out)
        ) == 0
        files.append(out.read_bytes())
    assert files[0] == files[1]


def test_generate_cayley_point_count(tmp_path):
    out = tmp_path / "c24.json"
    assert run_cli("generate", "cayley_cyclic", "--n", "24", "--k", "4", "--out", str(out)) == 0
    assert len(read_json(out)["space"]["points"]) == 24


def test_round_trip_every_generator(tmp_path):
    specs = {
        "line": ["--count", "15"],
        "grid": ["--rows", "4", "--cols", "5", "--epsilon", "2"],  # edge pairs hit ratio 1
        "disjoint_union_paths": ["--paths", "3", "--min-len", "4", "--max-len", "9"],
        "cayley_cyclic": ["--n", "16", "--k", "2"],
        "weighted_ball": ["--paths", "3", "--min-len", "4", "--max-len", "9"],
    }
    for seed in (0, 7):
        for kind, flags in specs.items():
            inst = tmp_path / f"{kind}_{seed}_i.json"
            out = tmp_path / f"{kind}_{seed}_o.json"
            assert run_cli("generate", kind, *flags, "--seed", str(seed), "--out", str(inst)) == 0
            assert run_cli("run", str(inst), "--out", str(out)) == 0
            assert run_cli("verify", str(inst), str(out)) == 0


def test_generated_unbounded_instance_runs(tmp_path, capsys):
    inst = tmp_path / "u.json"
    out = tmp_path / "uo.json"
    assert run_cli(
        "generate", "line", "--count", "20", "--radii", "2,1", "--unbounded",
        "--out", str(inst),
    ) == 0
    assert run_cli("run", str(inst), "--out", str(out)) == 0
    assert run_cli("verify", str(inst), str(out)) == 0
    doc = read_json(out)
    assert set(doc["certificate"]["cases"].values()) == {"1"}
    # tail anchors come from classify, not from the labels: relabelling the
    # hinted point is a false claim (exit 1), not a bad subset (exit 2)
    doc["certificate"]["cases"]["p00"] = "2"
    bad = tmp_path / "bad.json"
    write_canonical(bad, doc)
    capsys.readouterr()
    assert run_cli("verify", str(inst), str(bad)) == 1
    captured = capsys.readouterr()
    assert "'field': 'certificate.cases.p00'" in captured.out
    assert captured.err == ""


def test_verify_rejects_malformed_certificate_fields(tmp_path, capsys):
    from test_golden import HINTS_DOC

    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    write_canonical(inst, HINTS_DOC)
    assert run_cli("run", str(inst), "--out", str(out)) == 0
    for field, value, shape in (
        ("cases", [1], "a JSON object"),
        ("cases", "1", "a JSON object"),
        ("pairs", {}, "a list"),
    ):
        doc = read_json(out)
        doc["certificate"][field] = value
        bad = tmp_path / f"bad_{field}.json"
        write_canonical(bad, doc)
        capsys.readouterr()
        assert run_cli("verify", str(inst), str(bad)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: certificate field {field!r} must be {shape}\n"


def test_large_matrix_warns_that_the_triangle_check_was_skipped(tmp_path, capsys):
    # the same 201-point unit line as a matrix and as positions: only stderr differs
    ids = [f"m{i:03d}" for i in range(201)]
    params = {"R": "1/2", "epsilon": "1", "S": "1"}
    chains = {x: {x: 1} for x in ids}
    sources = {
        "matrix": {
            "type": "matrix",
            "entries": [[abs(i - j) for j in range(201)] for i in range(201)],
        },
        "positions": {"type": "positions", "values": {x: i for i, x in enumerate(ids)}},
    }
    warning = "warning: triangle inequality not checked: the matrix has 201 points, more than 200\n"
    seen = {}
    for kind, source in sources.items():
        inst, out = tmp_path / f"{kind}.json", tmp_path / f"{kind}_out.json"
        write_canonical(inst, {"space": {"points": ids, "metric": source},
                               "params": params, "chains": chains})
        capsys.readouterr()
        streams = []
        for argv in (["run", str(inst), "--out", str(out)], ["verify", str(inst), str(out)],
                     ["inspect", str(inst)]):
            assert run_cli(*argv) == 0
            captured = capsys.readouterr()
            assert captured.err == (warning if kind == "matrix" else "")
            streams.append(captured.out.replace(str(out), "OUT"))
        seen[kind] = streams, out.read_bytes()
    assert seen["matrix"] == seen["positions"]


def test_exit_codes(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    out = tmp_path / "x.json"
    assert run_cli("run", str(bad), "--out", str(out)) == 2

    inst = tmp_path / "pre.json"
    assert run_cli(
        "generate", "line", "--count", "8", "--radii", "2", "--out", str(inst)
    ) == 0
    doc = read_json(inst)
    doc["params"]["S"] = "1/2"  # S <= R now
    write_canonical(inst, doc)
    assert run_cli("run", str(inst), "--out", str(out)) == 3

    # a failed admission: trace exits 3 with run's message and violations
    fails = tmp_path / "fails.json"
    assert run_cli(
        "generate", "line", "--count", "5", "--radii", "2,1", "--R", "1",
        "--epsilon", "1/100", "--out", str(fails),
    ) == 0
    for argv in (["run", str(fails), "--out", str(out)], ["trace", str(fails), "--point", "p0"]):
        capsys.readouterr()
        assert run_cli(*argv) == 3, argv
        assert capsys.readouterr().err == (
            "precondition failed: instance fails admission with 4 violation(s)\n"
            "  {'condition': 'variation_ratio', 'x': 'p0', 'y': 'p1', 'ratio': '2/5'}\n"
            "  {'condition': 'variation_ratio', 'x': 'p1', 'y': 'p2', 'ratio': '1/2'}\n"
            "  {'condition': 'variation_ratio', 'x': 'p2', 'y': 'p3', 'ratio': '1/2'}\n"
            "  {'condition': 'variation_ratio', 'x': 'p3', 'y': 'p4', 'ratio': '2/5'}\n"
        ), argv

    assert run_cli("nonsense") == 2  # argparse rejects unknown commands
    assert run_cli("generate", "weighted_ball", "--out", str(out)) == 2  # count missing

    good_inst = tmp_path / "ok.json"
    good_out = tmp_path / "ok_out.json"
    assert run_cli("generate", "line", "--count", "8", "--out", str(good_inst)) == 0
    assert run_cli("run", str(good_inst), "--out", str(good_out)) == 0
    # a subset for a point the space does not have
    extra = tmp_path / "extra.json"
    for key, members in (("zzz", ["p0"]), ("q#1", ["nonsense-point"])):
        doc = read_json(good_out)
        doc["subsets"][key] = members
        write_canonical(extra, doc)
        capsys.readouterr()
        assert run_cli("verify", str(good_inst), str(extra)) == 2, key
        assert capsys.readouterr().err == f"error: subset for unknown point {key!r}\n"
    # a tail index that format_aug never writes: a non-ASCII digit, a leading zero
    for member in ("p5#\u00b2", "p5#01"):
        doc = read_json(good_out)
        doc["subsets"]["p0"] = [*doc["subsets"]["p0"], member]
        write_canonical(extra, doc)
        capsys.readouterr()
        assert run_cli("verify", str(good_inst), str(extra)) == 2, member
        assert capsys.readouterr().err == f"error: bad augmented point {member!r}\n"
    # verify prepares the instance first, so it exits 3 where run does
    empty = tmp_path / "empty.json"
    doc = read_json(good_inst)
    doc["chains"]["p3"] = {}
    write_canonical(empty, doc)
    capsys.readouterr()
    assert run_cli("verify", str(empty), str(good_out)) == 3
    assert capsys.readouterr().err == "precondition failed: empty chain for point 'p3'\n"
    thin = read_json(good_out)
    del thin["certificate"]["worst_ratio"]
    write_canonical(good_out, thin)
    assert run_cli("verify", str(good_inst), str(good_out)) == 2

    leveled = tmp_path / "sets.json"
    doc = read_json(good_inst)
    del doc["chains"]
    doc["sets"] = {x: [[x, 0]] for x in doc["space"]["points"]}
    doc["sets"]["p0"] = [["p0", "a"], ["p1", 0]]  # non-int level
    write_canonical(leveled, doc)
    assert run_cli("run", str(leveled), "--out", str(out)) == 2

    assert run_cli(
        "generate", "cayley_cyclic", "--n", "6", "--k", "1", "--generators", "1,x",
        "--out", str(out),
    ) == 2

    # malformed shapes exit 2 with an error line, never a traceback
    shaped = tmp_path / "shaped.json"
    base = {
        "space": {
            "points": ["a", "b"],
            "metric": {"type": "positions", "values": {"a": 0, "b": 1}},
        },
        "params": {"R": "1", "epsilon": "1", "S": "2"},
        "chains": {"a": {"a": 1, "b": 1}, "b": {"a": 1, "b": 1}},
    }
    write_canonical(shaped, base)
    assert run_cli("run", str(shaped), "--out", str(out)) == 0
    breakages = [
        lambda d: d.update(unbounded_hints=5),
        lambda d: d["space"].update(points=5),
        lambda d: d["space"].update(points="ab"),  # not split into characters
        lambda d: d.update(params=5),
        lambda d: d.update(space=5),
        lambda d: d["space"]["metric"].update(values=5),
        lambda d: d["space"].update(metric={"type": "graph", "edges": 5}),
        lambda d: d["space"].update(metric={"type": "graph", "edges": [[["a"], "b", 1]]}),
        lambda d: d.update(unbounded_hints=[{"component_of": "a", "ray": 5}]),
        lambda d: d.update(unbounded_hints=[{"component_of": ["a"], "ray": ["a"]}]),
        lambda d: d.update(unbounded_hints=[{"component_of": "a", "ray": [["a"]]}]),
        lambda d: d["space"].update(metric={"type": "generator", "kind": ["line"]}),
        lambda d: d["space"].update(metric={"type": "generator", "kind": {"a": 1}}),
        lambda d: d["space"].update(metric={
            "type": "generator", "kind": "weighted_ball", "params": {"space": {"kind": ["line"]}},
        }),
        lambda d: d["space"].update(metric={
            "type": "generator", "kind": "weighted_ball",
            "params": {"space": {"kind": "line", "params": "1/2"}},
        }),
        # two hints on one point: counted per component, so neither silently wins
        lambda d: d.update(unbounded_hints=[
            {"component_of": "a", "ray": ["a"]}, {"component_of": "a", "ray": ["a", "b"]},
        ]),
        lambda d: d.update(unbounded_hints=[{"component_of": "a", "ray": ["a", "b"]}] * 2),
    ]
    for breakage in breakages:
        doc = json.loads(json.dumps(base))
        breakage(doc)
        write_canonical(shaped, doc)
        capsys.readouterr()
        assert run_cli("run", str(shaped), "--out", str(out)) == 2, doc
        assert capsys.readouterr().err.startswith("error: ")
        assert run_cli("inspect", str(shaped)) == 2, doc
        assert capsys.readouterr().err.startswith("error: ")

    # an output path that cannot be opened is malformed input, never a traceback;
    # the failed run leaves no file it created, and an earlier output keeps its bytes.
    # run rejects such a path before any pipeline work
    missing = tmp_path / "missing" / "x.json"
    fresh_out, fresh_trace = tmp_path / "fresh_out.json", tmp_path / "fresh_trace.txt"
    kept = good_out.read_bytes()
    pipelines = []
    monkeypatch.setattr(cli, "run_pipeline", lambda *args: pipelines.append(args))
    for argv in (
        ["generate", "line", "--count", "5", "--out", str(missing)],
        ["run", str(good_inst), "--out", str(missing)],
        ["run", str(good_inst), "--out", str(good_out), "--trace", str(missing)],
        ["run", str(good_inst), "--out", str(fresh_out), "--trace", str(missing)],
        ["run", str(good_inst), "--out", str(missing), "--trace", str(fresh_trace)],
    ):
        capsys.readouterr()
        assert run_cli(*argv) == 2, argv
        assert capsys.readouterr().err.startswith(f"error: cannot write {missing}: "), argv
    for argv in (
        ["run", str(good_inst), "--out", str(tmp_path)],
        ["run", str(good_inst), "--out", str(good_out), "--trace", str(tmp_path)],
    ):
        assert run_cli(*argv) == 2, argv
        assert capsys.readouterr().err == (
            f"error: cannot write {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"
        ), argv
    assert pipelines == []
    monkeypatch.undo()
    assert good_out.read_bytes() == kept
    assert not fresh_out.exists()
    assert not fresh_trace.exists()
    assert run_cli("run", str(good_inst), "--out", str(good_out), "--trace", str(good_out)) == 2
    assert capsys.readouterr().err.startswith("error: --trace and --out name the same file")
    assert good_out.read_bytes() == kept

    # bytes that are not UTF-8, as an instance or as an output to verify
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    capsys.readouterr()
    assert run_cli("run", str(utf16), "--out", str(out)) == 2
    assert capsys.readouterr().err.startswith(f"error: {utf16} is not valid UTF-8")
    assert run_cli("verify", str(good_inst), str(utf16)) == 2
    assert capsys.readouterr().err.startswith(f"error: {utf16} is not valid UTF-8")


def test_precondition_failure_prints_violations(tmp_path, capsys):
    inst = tmp_path / "v.json"
    assert run_cli(
        "generate", "line", "--count", "8", "--radii", "2", "--epsilon", "1/100",
        "--out", str(inst),
    ) == 0
    out = tmp_path / "x.json"
    assert run_cli("run", str(inst), "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert "precondition failed" in err
    assert "variation_ratio" in err


def test_run_prints_classify_warnings(tmp_path, capsys):
    plain = tmp_path / "plain.json"
    assert run_cli(
        "generate", "line", "--count", "20", "--radii", "2,1", "--out", str(plain)
    ) == 0
    hinted = tmp_path / "hinted.json"
    doc = read_json(plain)
    doc["unbounded_hints"] = [{"component_of": "p00", "ray": ["p00", "p05"]}]
    write_canonical(hinted, doc)
    warning = (
        "warning: ignoring unbounded hint for the component of 'p00': "
        "ray hop ('p00', 'p05') exceeds the scale"
    )

    plain_out = tmp_path / "plain_out.json"
    hinted_out = tmp_path / "hinted_out.json"
    assert run_cli("run", str(plain), "--out", str(plain_out)) == 0
    assert "warning" not in capsys.readouterr().err
    assert run_cli("run", str(hinted), "--out", str(hinted_out)) == 0
    assert capsys.readouterr().err.splitlines() == [warning]
    # the broken hint falls back to the bounded path; the output does not show it
    assert hinted_out.read_bytes() == plain_out.read_bytes()

    assert run_cli("inspect", str(hinted)) == 0
    assert warning in capsys.readouterr().out.splitlines()
