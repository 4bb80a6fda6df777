"""The command-line interface: subcommands, exit codes, reproducibility."""
from __future__ import annotations

import errno
import hashlib
import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import naivea
from naivea import cli, instance_io, tailor
from naivea.cli import main
from naivea.instance_io import read_json, write_canonical
from naivea.space import CLS_BOUNDED_SMALL, Space


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


def test_verify_reads_a_pipe(line_files, capsys):
    """A pipe cannot seek, so `verify` holds what it read of one for the
    error path; its stdout, stderr and exit code are those of a file."""
    inst, out = line_files
    assert run_cli("verify", str(inst), str(out)) == 0
    stdout = capsys.readouterr().out
    text = out.read_bytes()
    assert len(text) > 1000
    with pytest.raises(json.JSONDecodeError) as cut:
        json.loads(text[:1000])
    paths = (str(Path(naivea.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    command = [sys.executable, "-m", "naivea.cli", "verify", str(inst), "/dev/stdin"]
    for data, want in (
        (text, (0, stdout, "")),
        (text[:1000], (2, "", f"error: /dev/stdin is not valid JSON: {cut.value}\n")),
    ):
        done = subprocess.run(command, input=data, capture_output=True, env=env, timeout=120)
        assert (done.returncode, done.stdout.decode(), done.stderr.decode()) == want


@pytest.fixture(scope="module")
def ray_files(tmp_path_factory):
    """A 60-point line on the unbounded branch, all case 1 as crit5's ray is,
    and its output."""
    root = tmp_path_factory.mktemp("ray")
    inst, out = root / "inst.json", root / "out.json"
    assert run_cli("generate", "line", "--count", "60", "--radii", "2,1", "--unbounded",
                   "--out", str(inst)) == 0
    assert run_cli("run", str(inst), "--out", str(out)) == 0
    return inst, out


@pytest.mark.parametrize("indent", [None, 4, "\t"], ids=["compact", "4", "tab"])
def test_verify_reads_a_reindented_output_as_the_canonical_one(ray_files, tmp_path, capsys,
                                                               indent):
    """An output dumped in another layout, whose pair rows all decode as the
    stdlib's dicts, gets the canonical file's verdict: exit 0 and the same
    stdout, and, with one row's output ratio edited, exit 1 and the same
    mismatch as that edit in the canonical file."""
    inst, out = ray_files
    doc = read_json(out)
    dumped, edited = tmp_path / "dumped.json", tmp_path / "edited.json"
    dumped.write_text(json.dumps(doc, indent=indent))
    points = naivea.load_instance(inst).space.points
    pairs = naivea.load_output(dumped, points)[1]["pairs"]
    assert set(map(type, pairs)) == {dict}
    capsys.readouterr()
    verdicts = []
    for path in (out, dumped):
        verdicts.append((run_cli("verify", str(inst), str(path)), capsys.readouterr()))
    doc["certificate"]["pairs"][3]["output_ratio"] = "1/7"
    write_canonical(edited, doc)
    dumped.write_text(json.dumps(doc, indent=indent))
    for path in (edited, dumped):
        verdicts.append((run_cli("verify", str(inst), str(path)), capsys.readouterr()))
    canonical, ours, canonical_edited, ours_edited = verdicts
    assert canonical[0] == 0 and ours == canonical
    assert canonical_edited[0] == 1 and ours_edited == canonical_edited
    mismatch = "{'condition': 'certificate_mismatch', 'field': 'certificate.pairs[3].output_ratio'}"
    assert mismatch in ours_edited[1].out


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
    # tail anchors come from the space's own case decision, not from the
    # labels: relabelling the hinted point is a false claim (exit 1), not a
    # bad subset (exit 2)
    doc["certificate"]["cases"]["p00"] = "2"
    bad = tmp_path / "bad.json"
    write_canonical(bad, doc)
    capsys.readouterr()
    assert run_cli("verify", str(inst), str(bad)) == 1
    captured = capsys.readouterr()
    assert "'field': 'certificate.cases.p00'" in captured.out
    assert captured.err == ""


def test_verify_decides_cases_without_classify(tmp_path, monkeypatch, capsys):
    """verify decides each component's case from the space, never through
    run's classify: a classify that calls every component small makes run
    claim case 2 for a large one, and verify names the false label."""
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    assert run_cli(
        "generate", "line", "--count", "100", "--radii", "1", "--R", "1/2", "--epsilon", "1",
        "--out", str(inst),
    ) == 0

    def all_small(space, decomp, params):
        comps = tuple(replace(c, cls=CLS_BOUNDED_SMALL, markers=()) for c in decomp.components)
        return replace(decomp, components=comps), ()

    monkeypatch.setattr(tailor, "classify", all_small)
    assert run_cli("run", str(inst), "--out", str(out)) == 0
    assert "worst radius 99" in capsys.readouterr().out
    assert run_cli("verify", str(inst), str(out)) == 1
    assert "'field': 'certificate.cases.p00'" in capsys.readouterr().out


@pytest.fixture(scope="module")
def unbounded_line(tmp_path_factory):
    """A 20-point line on the unbounded branch, all case 1, and its output."""
    root = tmp_path_factory.mktemp("line20")
    inst, out = root / "inst.json", root / "out.json"
    assert run_cli("generate", "line", "--count", "20", "--radii", "2,1", "--unbounded",
                   "--out", str(inst)) == 0
    assert run_cli("run", str(inst), "--out", str(out)) == 0
    return inst, out


def _set(key, value):
    return lambda doc: doc.update({key: value})


_PASS = "naive check: PASS {'pairs_checked': 19, 'worst_ratio': '2/5', 'support_radius': '8'}\n"
_FAIL = "certificate check: FAIL\n"
# each forgery of the output (or, with "instance", of the instance), and what
# verify prints on stdout, with exit 1 and nothing on stderr
FORGED = {
    "set_ratio": ("subsets", _set("p03", ["p03"]), (
        "naive check: FAIL {'pairs_checked': 19, 'worst_ratio': '7', 'support_radius': '8'}\n"
        "  {'condition': 'set_ratio', 'x': 'p02', 'y': 'p03', 'ratio': '7'}\n"
        "  {'condition': 'set_ratio', 'x': 'p03', 'y': 'p04', 'ratio': '7'}\n" + _FAIL +
        "  {'condition': 'certificate_mismatch', 'field': 'certificate.pairs[2].output_ratio'}\n"
        "  {'condition': 'output_ratio_above_input', 'x': 'p02', 'y': 'p03'}\n"
        "  {'condition': 'output_ratio_above_input', 'x': 'p03', 'y': 'p04'}\n")),
    "output_ratio_above_input": ("subsets", lambda s: s.update(p03=s["p03"][:-2]), (
        "naive check: PASS {'pairs_checked': 19, 'worst_ratio': '4/5', 'support_radius': '8'}\n"
        + _FAIL +
        "  {'condition': 'certificate_mismatch', 'field': 'certificate.pairs[2].output_ratio'}\n"
        "  {'condition': 'output_ratio_above_input', 'x': 'p03', 'y': 'p04'}\n")),
    "radius_above_bound": ("subsets", lambda s: s["p03"].append("p19#500"), (
        "naive check: PASS {'pairs_checked': 19, 'worst_ratio': '3/7', 'support_radius': '1016'}\n"
        + _FAIL +
        "  {'condition': 'certificate_mismatch', 'field': 'certificate.pairs[2].output_ratio'}\n"
        "  {'condition': 'radius_above_bound', 'x': 'p03'}\n")),
    "certificate_mismatch, missing key": ("certificate", lambda c: c.pop("bounds"), (
        _PASS + _FAIL + "  {'condition': 'certificate_mismatch', 'field': 'certificate.bounds'}\n")),
    "certificate_mismatch, extra key": ("certificate", _set("zz", "1"), (
        _PASS + _FAIL + "  {'condition': 'certificate_mismatch', 'field': 'certificate.zz'}\n")),
    "recompute_failed": ("instance", lambda d: d["params"].update(epsilon="2/3"), (
        _PASS + _FAIL + "  {'condition': 'recompute_failed', "
        "'detail': 'instance fails admission with 15 violation(s)'}\n")),
}


@pytest.mark.parametrize("name", FORGED)
def test_verify_prints_each_condition(unbounded_line, tmp_path, capsys, name):
    """Every condition `verify` can print, each from one forged file."""
    inst, out = unbounded_line
    part, edit, expected = FORGED[name]
    doc = read_json(inst if part == "instance" else out)
    edit(doc if part == "instance" else doc[part])
    forged = tmp_path / "forged.json"
    write_canonical(forged, doc)
    argv = (forged, out) if part == "instance" else (inst, forged)
    capsys.readouterr()
    assert run_cli("verify", *map(str, argv)) == 1
    assert capsys.readouterr() == (expected, "")


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


def _append(member):
    return lambda members: members.append(member)


# each edit of one subset list, and the first line verify prints on stderr
MALFORMED_SUBSETS = {
    "unknown id": (_append("zz"), "subset contains unknown point 'zz'"),
    "duplicate": (lambda m: m.insert(1, m[0]), "subset for 'p03' has duplicate members"),
    "bad tail anchor": (_append("p05#1"), "subset contains unknown tail anchor 'p05'"),
    "unknown tail anchor": (_append("zz#1"), "subset contains unknown tail anchor 'zz'"),
    "bad tail index": (_append("p19#01"), "bad augmented point 'p19#01'"),
    "non-str member": (_append(5), "bad augmented point 5"),
    "list member": (_append(["p01"]), "bad augmented point ['p01']"),
    "non-list subset": (None, "subset for 'p03' must be a list"),
}


def test_verify_reports_malformed_subsets(tmp_path, capsys):
    """Each malformed subset exits 2 with its own error, and a missing
    certificate field is still reported before any subset: building the
    subsets while the output is decoded changes neither."""
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    assert run_cli(
        "generate", "line", "--count", "20", "--radii", "2,1", "--unbounded",
        "--out", str(inst),
    ) == 0
    assert run_cli("run", str(inst), "--out", str(out)) == 0
    bad = tmp_path / "bad.json"
    for name, (edit, message) in MALFORMED_SUBSETS.items():
        for missing in (None, "worst_ratio"):
            doc = read_json(out)
            if edit is None:
                doc["subsets"]["p03"] = "p03"
            else:
                edit(doc["subsets"]["p03"])
            if missing:
                del doc["certificate"][missing]
                message = f"certificate is missing the {missing!r} field"
            write_canonical(bad, doc)
            capsys.readouterr()
            assert run_cli("verify", str(inst), str(bad)) == 2, (name, missing)
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"error: {message}\n"), (name, missing)


def test_errors_do_not_depend_on_the_hash_seed(tmp_path):
    """An input with several bad members names the same one in every
    process: a subset with three tails at anchors that are not its ray's end
    (set order), and a positions source that misses three points."""
    inst, out, bad = tmp_path / "inst.json", tmp_path / "out.json", tmp_path / "bad.json"
    assert run_cli(
        "generate", "line", "--count", "20", "--radii", "2,1", "--unbounded",
        "--out", str(inst),
    ) == 0
    assert run_cli("run", str(inst), "--out", str(out)) == 0
    doc = read_json(out)
    doc["subsets"]["p03"] += ["p05#1", "p06#1", "p07#1"]
    write_canonical(bad, doc)
    ids = [f"x{i:02d}" for i in range(12)]
    gaps = tmp_path / "gaps.json"
    write_canonical(gaps, {
        "space": {"points": ids, "metric": {
            "type": "positions",
            "values": {p: i for i, p in enumerate(ids) if p not in ("x03", "x07", "x10")},
        }},
        "params": {"R": "1", "epsilon": "1", "S": "2"},
        "chains": {x: {x: 1} for x in ids},
    })
    paths = (str(Path(naivea.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    for argv, message in (
        (["verify", str(inst), str(bad)], "subset contains unknown tail anchor 'p05'"),
        (["inspect", str(gaps)], "no position for point 'x03'"),
    ):
        seen = set()
        for seed in ("0", "1", "5"):
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)),
                   "PYTHONHASHSEED": seed}
            done = subprocess.run([sys.executable, "-m", "naivea.cli", *argv],
                                  capture_output=True, env=env, timeout=120)
            seen.add((done.returncode, done.stderr.decode()))
        assert seen == {(2, f"error: {message}\n")}


# verify with every rational distance read 10^-9 high, so that the worst
# radius's re-derivation fails and names the member it took
SKEWED_VERIFY = """
import sys
from fractions import Fraction
from naivea.space import Space
dist = Space.dist
Space.dist = lambda self, x, y: dist(self, x, y) + Fraction(1, 10**9)
from naivea.cli import main
sys.exit(main(["verify", *sys.argv[1:]]))
"""


def test_verify_names_the_same_witness_under_every_hash_seed(tmp_path):
    """The worst point's ball in a Cayley graph of a cyclic group has two
    members at its radius, g02 and g10; the failed re-derivation names the
    first in sorted order in every process."""
    inst, out = str(tmp_path / "inst.json"), str(tmp_path / "out.json")
    assert run_cli("generate", "cayley_cyclic", "--n", "12", "--k", "2", "--out", inst) == 0
    assert run_cli("run", inst, "--out", out) == 0
    paths = (str(Path(naivea.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    seen = set()
    for seed in ("0", "1", "5"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)),
               "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, "-c", SKEWED_VERIFY, inst, out],
                              capture_output=True, env=env, timeout=120)
        seen.add((done.returncode, done.stderr.decode()))
    assert seen == {(4, "internal invariant violated: support radius at ('g00', 'g02') is "
                        "2000000001/1000000000, but 2/1 in units\n")}


def test_the_worst_radius_is_rederived_over_its_whole_subset(line_files, monkeypatch, capsys):
    """The worst point p00 of the line holds all twelve points, and p11 is
    its farthest. With only d(p00, p05) read far too long by the rational
    metric, the int radius 11 is still right at p11, so a re-derivation at
    the int argmax alone would pass; the exact maximum over the subset
    meets p05, and both commands stop."""
    inst, out = line_files
    dist = Space.dist

    def skewed(self, x, y):
        return Fraction(100) if {x, y} == {"p00", "p05"} else dist(self, x, y)

    monkeypatch.setattr(Space, "dist", skewed)
    capsys.readouterr()
    assert run_cli("run", str(inst), "--out", str(out.with_name("again.json"))) == 4
    assert capsys.readouterr().err == (
        "internal invariant violated: radius of 'p00' is 100, but 11/1 in units\n")
    assert run_cli("verify", str(inst), str(out)) == 4
    assert capsys.readouterr().err == (
        "internal invariant violated: support radius at ('p00', 'p05') is 100, "
        "but 11/1 in units\n")


def test_commands_free_the_chains_once_done(tmp_path, monkeypatch):
    """No chain is alive when `verify` decodes the output, nor when `run`
    writes it without --trace; with --trace the replay still writes the
    same trace."""
    inst, out = tmp_path / "inst.json", tmp_path / "out.json"
    assert run_cli("generate", "line", "--count", "20", "--radii", "2,1", "--unbounded",
                   "--out", str(inst)) == 0
    families, alive = [], {}
    load = cli._load

    def spy_load(path):
        instance = load(path)
        families.append(weakref.ref(instance.family))
        return instance

    def spy(name):
        original = getattr(cli, name)

        def call(*args):
            alive[name] = families[-1]() is not None
            return original(*args)

        return call

    monkeypatch.setattr(cli, "_load", spy_load)
    for name in ("load_output", "write_canonical"):
        monkeypatch.setattr(cli, name, spy(name))
    assert run_cli("run", str(inst), "--out", str(out)) == 0
    assert alive == {"write_canonical": False}
    assert run_cli("verify", str(inst), str(out)) == 0
    assert alive == {"write_canonical": False, "load_output": False}
    trace = tmp_path / "trace.txt"
    assert run_cli("run", str(inst), "--out", str(out), "--trace", str(trace)) == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == (
        "3578f7f7a0615a031fcae16aebfb2cbe34ae608fd0e0012e4ab136e4e21df950"
    )


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
    # an integer past the int-string limit and nesting past the recursion
    # limit are invalid JSON, as an instance and as an output
    oversized = tmp_path / "oversized.json"
    oversized.write_text('{"space": ' + "9" * 5000 + "}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for path in (oversized, deep):
        for argv in (["run", str(path), "--out", str(out)],
                     ["verify", str(good_inst), str(path)]):
            capsys.readouterr()
            assert run_cli(*argv) == 2, argv
            assert capsys.readouterr().err.startswith(f"error: {path} is not valid JSON: "), argv
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


def test_a_write_that_fails_once_its_file_is_open_exits_2(line_files, tmp_path, capsys,
                                                         monkeypatch):
    """A write that fails after its file is open (a full disk) exits 2 with
    the line an open error prints, never a traceback; the failed command
    removes the regular files it opened, and no other file."""
    inst = str(line_files[0])
    out, trace = str(tmp_path / "new.json"), str(tmp_path / "new.txt")
    removed, remove = [], os.remove

    def recorder(path):
        removed.append(path)
        if os.path.dirname(path) == str(tmp_path):  # never a device
            remove(path)

    monkeypatch.setattr(os, "remove", recorder)
    enospc = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def full_disk(*args):
        raise enospc

    def fails(argv, full, discarded):
        removed.clear()
        capsys.readouterr()
        assert run_cli(*argv) == 2, argv
        assert capsys.readouterr() == ("", f"error: cannot write {full}: {enospc}\n"), argv
        assert removed == discarded, argv
        assert not os.path.exists(out) and not os.path.exists(trace), argv

    if os.path.exists("/dev/full"):
        full = "/dev/full"
        fails(["generate", "line", "--count", "5", "--out", full], full, [])
        fails(["run", inst, "--out", full], full, [])
        fails(["run", inst, "--out", full, "--trace", trace], full, [trace])
        fails(["run", inst, "--out", out, "--trace", full], full, [])
        fails(["run", inst, "--out", full, "--trace", "/dev/null"], full, [])
    # a disk that fills up under a regular file
    with monkeypatch.context() as patch:
        patch.setattr(instance_io, "_render", full_disk)
        fails(["generate", "line", "--count", "5", "--out", out], out, [out])
        fails(["run", inst, "--out", out], out, [out])
        fails(["run", inst, "--out", out, "--trace", trace], out, [out, trace])
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_flow_lines", full_disk)
        fails(["run", inst, "--out", out, "--trace", trace], trace, [trace])


def test_run_never_writes_over_its_instance(tmp_path, capsys, monkeypatch):
    """--out or --trace naming the instance file, under any spelling of its
    path or through a symlink, exits 2 before any file is opened."""
    inst = tmp_path / "inst.json"
    assert run_cli("generate", "line", "--count", "12", "--radii", "2,1", "--out", str(inst)) == 0
    kept = inst.read_bytes()
    (tmp_path / "link.json").symlink_to(inst)
    monkeypatch.chdir(tmp_path)
    opened = []
    for name in ("load_instance", "open_output", "write_canonical"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: opened.append(name))
    spellings = ("inst.json", "./inst.json", str(inst), "link.json")
    for given in spellings:
        for same in spellings:
            for flag, argv in (("--out", ["--out", same]),
                               ("--out", ["--out", same, "--trace", "trace.txt"]),
                               ("--trace", ["--out", "out.json", "--trace", same])):
                capsys.readouterr()
                assert run_cli("run", given, *argv) == 2, (given, argv)
                assert capsys.readouterr().err == (
                    f"error: {flag} names the instance file {given}\n"), (given, argv)
    assert opened == []
    assert inst.read_bytes() == kept
    assert sorted(os.listdir(tmp_path)) == ["inst.json", "link.json"]


def test_generate_checks_its_output_path_first(tmp_path, capsys, monkeypatch):
    """An unwritable --out ends generate before any instance is built."""
    missing = tmp_path / "missing" / "x.json"
    built = []
    monkeypatch.setattr(cli, "gen_instance", lambda *args: built.append(args))
    capsys.readouterr()
    assert run_cli("generate", "line", "--count", "20000", "--out", str(missing)) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write {missing}: [Errno 2] No such file or directory: '{missing}'\n"
    )
    assert built == []
    assert not missing.parent.exists()


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
