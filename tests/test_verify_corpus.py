"""A standing byte-identity corpus for every command.

Three instances (a good one, one missing a chain, one whose chain names a
point the space lacks) against seven outputs of the good one (as written,
cut short, with an unknown subset member, with a pair row whose x is an
int, with a row that has an extra key, with a changed y, and with a row
dropped). The good instance also meets fourteen outputs with an edited
subset (a duplicate member, a malformed tail, a tail at index 0, a member
that is not a string, a subset that is a string, an empty subset, and
``p02`` given ``p00``'s list apart from it; the decoder builds no set for
the first six, so ``parse_subsets`` decides them), each as it stands and
with ``worst_ratio`` deleted, which pins that the certificate's shape is
checked first. Each of these 35 `verify` calls runs in its own process
under two hash seeds, from the corpus directory, so no message holds a
temporary path. Its exit code and the sha256 of its stdout and stderr are
pinned, so a change that moves any byte a command prints, or makes it
depend on the hash seed, fails here.

The other commands meet the three instances the same way: `run` with
``--out`` and ``--trace``, whose files' sha256 are pinned too (None when
there is no file), `trace --point p05` and `inspect`. So do the two inputs
that each hold several bad members: the good output with tails at three
anchors that are not its ray's end (`verify`), and a positions instance
that misses three points' positions (`inspect`). A 700-point line whose
one component is case 3, with 695 points in 3a, 5 in 3b and 699 pairs,
meets `run` with ``--out`` and ``--trace`` and `verify` of its output, so
the 3b pair check is pinned too. So does a 300-point case-1 line whose
point ids all need JSON escapes (a quote, a backslash, a control
character, non-ASCII text), so that `run` writes 299 escaped pair rows,
more than one writer batch, and `verify` reads each of them through the
decoder's one-row matcher rather than its run scanner.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import naivea
from naivea.cli import main
from naivea.instance_io import read_json, write_canonical


def _drop_chain(doc):
    del doc["chains"]["p05"]


def _unknown_point(doc):
    doc["chains"]["p05"]["zz"] = 1


INSTANCES = {"good": None, "missing_chain": _drop_chain, "unknown_point": _unknown_point}


def _pairs(doc):
    return doc["certificate"]["pairs"]


def _members(doc):
    return doc["subsets"]["p03"]


def _without_worst_ratio(edit):
    def both(doc):
        edit(doc)
        del doc["certificate"]["worst_ratio"]

    return both


OUTPUTS = {
    "good": lambda doc: None,
    "unknown_member": lambda doc: doc["subsets"]["p03"].append("zz"),
    "int_x": lambda doc: _pairs(doc)[4].update(x=4),
    "extra_key": lambda doc: _pairs(doc)[6].update(z="1"),
    "changed_y": lambda doc: _pairs(doc)[8].update(y="p11"),
    "dropped_row": lambda doc: _pairs(doc).pop(10),
    "foreign_tails": lambda doc: _members(doc).extend(["p05#1", "p06#1", "p07#1"]),
}
# edited subsets, run against the good instance alone
LISTS = {
    "duplicate_member": lambda doc: _members(doc).append(_members(doc)[0]),
    "malformed_tail": lambda doc: _members(doc).append("p19#01"),
    "zero_tail": lambda doc: _members(doc).append("p19#0"),
    "int_member": lambda doc: _members(doc).append(5),
    "str_subset": lambda doc: doc["subsets"].update(p03="p03"),
    "empty_subset": lambda doc: doc["subsets"].update(p03=[]),
    "equal_apart": lambda doc: doc["subsets"].update(p02=list(doc["subsets"]["p00"])),
}
OUTPUTS.update(LISTS)
OUTPUTS.update({f"{name}_no_worst_ratio": _without_worst_ratio(edit)
                for name, edit in LISTS.items()})
# a line whose one component is case 3, with 3b points at its basepoint
CASE_3 = ["line", "--count", "700", "--radii", "2,1", "--R", "1", "--epsilon", "1"]
# a positions instance with no position for three of its points
GAP_IDS = [f"x{i:02d}" for i in range(12)]
GAPS = {
    "space": {"points": GAP_IDS, "metric": {
        "type": "positions",
        "values": {p: i for i, p in enumerate(GAP_IDS) if p not in ("x03", "x07", "x10")},
    }},
    "params": {"R": "1", "epsilon": "1", "S": "2"},
    "chains": {x: {x: 1} for x in GAP_IDS},
}
# a line of 300 points on the unbounded branch, all case 1, whose ids need
# JSON escapes; their sorted order is not the line's order
MARKS = ['"', "\\", "\x01", "\t", "\u00e9", "\u2028", "\U0001f600", "/"]
ESCAPED_IDS = [f"e{MARKS[i % len(MARKS)]}{i:03d}" for i in range(300)]
ESCAPED = {
    "space": {"points": ESCAPED_IDS, "metric": {
        "type": "positions", "values": {p: i for i, p in enumerate(ESCAPED_IDS)},
    }},
    "params": {"R": "1", "epsilon": "1", "S": "2"},
    "chains": {p: {q: 2 if abs(i - j) < 2 else 1
                   for j, q in enumerate(ESCAPED_IDS) if abs(i - j) <= 2}
               for i, p in enumerate(ESCAPED_IDS)},
    "unbounded_hints": [{"component_of": ESCAPED_IDS[0], "ray": ESCAPED_IDS}],
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The directory holding every instance and output of the corpus."""
    root = tmp_path_factory.mktemp("corpus")
    inst, out = root / "good.inst.json", root / "good.out.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["generate", "line", "--count", "20", "--radii", "2,1", "--unbounded",
                     "--out", str(inst)]) == 0
        assert main(["run", str(inst), "--out", str(out)]) == 0
        assert main(["generate", *CASE_3, "--out", str(root / "case3.inst.json")]) == 0
        assert main(["run", str(root / "case3.inst.json"), "--out",
                     str(root / "case3.out.json")]) == 0
    for name, edit in INSTANCES.items():
        if edit is not None:
            doc = read_json(inst)
            edit(doc)
            write_canonical(root / f"{name}.inst.json", doc)
    for name, edit in OUTPUTS.items():
        if name != "good":
            doc = read_json(out)
            edit(doc)
            write_canonical(root / f"{name}.out.json", doc)
    write_canonical(root / "gaps.inst.json", GAPS)
    write_canonical(root / "escaped.inst.json", ESCAPED)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", str(root / "escaped.inst.json"), "--out",
                     str(root / "escaped.out.json")]) == 0
    text = out.read_bytes()
    (root / "truncated.out.json").write_bytes(text[:len(text) // 2])
    return root


EMPTY = hashlib.sha256(b"").hexdigest()
MISSING_WORST_RATIO = "35668ed6991e0ea12ba4d7628473c1c9b7b20b7369b4ab2d0fff4a9bf07e4a4c"
# (instance, output) -> (exit code, sha256 of stdout, sha256 of stderr)
PINNED = {
    ("good", "changed_y"):
        (1, "50830b27016495ff45a1df2cc0f10dc1f8e22b75966dcd56ed85122027952430", EMPTY),
    ("good", "dropped_row"):
        (1, "0e1c501a15988851215222471731ecb2ec300948ecea7398c538ee757a475416", EMPTY),
    ("good", "extra_key"):
        (1, "d3fed58094ef3ff811b4407a5ccea713c307e3c4b580127a53650132618dff68", EMPTY),
    ("good", "good"):
        (0, "1d4d7dda297d2511278446d85ee6d3004956e7da75547c26b9c1b532da2e32be", EMPTY),
    ("good", "int_x"):
        (1, "4c1ae2e20ee71e4889b0557cb411d0b278708f4b19dfc0bb46ba2c41d0ffb4ef", EMPTY),
    ("good", "truncated"):
        (2, EMPTY, "9a607149fc32d7079265f241379cddbb8dd9362e750cb9518c75c54977e89b3b"),
    ("good", "unknown_member"):
        (2, EMPTY, "29c09f94b181f0c8972ab8585ba9a68e663091e803e89e31870998e200aef90e"),
    ("missing_chain", "changed_y"):
        (3, EMPTY, "a38230210aadecd182619759b6b3637071139774e2988720410cee8f318d5935"),
    ("missing_chain", "dropped_row"):
        (3, EMPTY, "a38230210aadecd182619759b6b3637071139774e2988720410cee8f318d5935"),
    ("missing_chain", "extra_key"):
        (3, EMPTY, "a38230210aadecd182619759b6b3637071139774e2988720410cee8f318d5935"),
    ("missing_chain", "good"):
        (3, EMPTY, "a38230210aadecd182619759b6b3637071139774e2988720410cee8f318d5935"),
    ("missing_chain", "int_x"):
        (3, EMPTY, "a38230210aadecd182619759b6b3637071139774e2988720410cee8f318d5935"),
    ("missing_chain", "truncated"):
        (2, EMPTY, "9a607149fc32d7079265f241379cddbb8dd9362e750cb9518c75c54977e89b3b"),
    ("missing_chain", "unknown_member"):
        (3, EMPTY, "a38230210aadecd182619759b6b3637071139774e2988720410cee8f318d5935"),
    ("unknown_point", "changed_y"):
        (2, EMPTY, "6c819c65f57390c887b662ee8ae81315959e29781af32b65c74dc201422322d4"),
    ("unknown_point", "dropped_row"):
        (2, EMPTY, "6c819c65f57390c887b662ee8ae81315959e29781af32b65c74dc201422322d4"),
    ("unknown_point", "extra_key"):
        (2, EMPTY, "6c819c65f57390c887b662ee8ae81315959e29781af32b65c74dc201422322d4"),
    ("unknown_point", "good"):
        (2, EMPTY, "6c819c65f57390c887b662ee8ae81315959e29781af32b65c74dc201422322d4"),
    ("unknown_point", "int_x"):
        (2, EMPTY, "6c819c65f57390c887b662ee8ae81315959e29781af32b65c74dc201422322d4"),
    ("unknown_point", "truncated"):
        (2, EMPTY, "9a607149fc32d7079265f241379cddbb8dd9362e750cb9518c75c54977e89b3b"),
    ("unknown_point", "unknown_member"):
        (2, EMPTY, "6c819c65f57390c887b662ee8ae81315959e29781af32b65c74dc201422322d4"),
    ("good", "duplicate_member"):
        (2, EMPTY, "78ca5c0d84da0b570172c3bf31144961b60ff2c61c19260e881a10334f57ebe6"),
    ("good", "empty_subset"):
        (2, EMPTY, "c4c8e84380b116f565b91be3f05af3640cfcf97ccd22e38a02f7a424c092b6f5"),
    ("good", "equal_apart"):
        (1, "ccdd10267337654f584bd1351e575d4700db25b8b861e0339d351e24a473e4a0", EMPTY),
    ("good", "int_member"):
        (2, EMPTY, "398073b4d6a0cc19e3af16a1747f7047f6b045126054a1450cead3b2e1fa97f0"),
    ("good", "malformed_tail"):
        (2, EMPTY, "d8f73ab7918e82007bda50fe2c5e50dc974a8e0c2f3bddd1ead1ac8cd5606521"),
    ("good", "str_subset"):
        (2, EMPTY, "7261ecd1faff6191af870afcdc29da4662cec121e03e114b4d53d7c3ef6eccb7"),
    ("good", "zero_tail"):
        (2, EMPTY, "786dcedeae9407b9ae636d1655f200433a93d82cab212aab5f8e38dd1052a9e1"),
}
PINNED["good", "foreign_tails"] = (
    2, EMPTY, "7982779d3e1d2a0ab767de03e09afd984a80eceb611629dcb26d3a8c60594ee9")
PINNED["case3", "case3"] = (
    0, "a00a7afa0b1bdbf8633c7a6b70a3b6d196b07ef1207279a72595e50239371e95", EMPTY)
PINNED["escaped", "escaped"] = (
    0, "47d34ece04aeca5046c0c3350e8bcfff445b73987f37d88e2c17fe6d5f04a7c0", EMPTY)
# deleting worst_ratio makes each of those an output-shape error, which comes first
PINNED.update({("good", f"{name}_no_worst_ratio"): (2, EMPTY, MISSING_WORST_RATIO)
               for name in LISTS})


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def printed(corpus, argv):
    """For each hash seed, (exit code, sha256 of stdout, sha256 of stderr) of
    ``argv`` run in a process of its own, and the seed and the finished
    process, for a failure's message."""
    paths = (str(Path(naivea.__file__).parents[1]), os.environ.get("PYTHONPATH"))
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)),
               "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, "-m", "naivea.cli", *argv], cwd=corpus,
                              capture_output=True, env=env, timeout=120)
        yield (done.returncode, sha256(done.stdout), sha256(done.stderr)), (seed, done)


@pytest.mark.parametrize("instance, output", sorted(PINNED))
def test_verify_prints_the_pinned_bytes(corpus, instance, output):
    argv = ["verify", f"{instance}.inst.json", f"{output}.out.json"]
    for seen, (seed, done) in printed(corpus, argv):
        assert seen == PINNED[instance, output], (seed, done.stdout, done.stderr)


NO_CHAIN = "a38230210aadecd182619759b6b3637071139774e2988720410cee8f318d5935"
UNKNOWN_POINT = "6c819c65f57390c887b662ee8ae81315959e29781af32b65c74dc201422322d4"
# what run writes, in the corpus directory
RAN = ("ran.out.json", "ran.trace.txt")
# instance -> (exit code, sha256 of stdout, of stderr, of the output, of the trace)
RAN_PINNED = {
    "good": (0, "f6d14ffb9f95e54ffc2c36e4fd5b84f63d7057bcb8d58073d9027077f04899ed", EMPTY,
             "ffdc907ded40c94f8a497dc7f50263ba04307ca01569f6e60e92f121eeb47ac8",
             "3578f7f7a0615a031fcae16aebfb2cbe34ae608fd0e0012e4ab136e4e21df950"),
    "missing_chain": (3, EMPTY, NO_CHAIN, None, None),
    "unknown_point": (2, EMPTY, UNKNOWN_POINT, None, None),
    "case3": (0, "99c3318426ccd2b5636060ef8a91100fb0aeaf4cdcd881fe7cdfc322acece5c8", EMPTY,
              "eecc5c99f86da7ca951e736c7d4cdde191ea2c703de8a5375f407680cc7f3dea",
              "df89e71b2fb272fe7111bede8f4ee78e48ecfec19e0874395193c28b2fb79a8d"),
    "escaped": (0, "f6d14ffb9f95e54ffc2c36e4fd5b84f63d7057bcb8d58073d9027077f04899ed", EMPTY,
                "42a42baa531a70c1d20cffcfb1568cd0fc0184fb5c28725f8bb8951893374a9f",
                "62d22195552707283a729842b98694e037260f9e72173605e7f894f3edb683eb"),
}


def written(path):
    """The sha256 of the file at ``path``, or None when there is none; the
    file is removed, so the next process writes afresh."""
    if not path.exists():
        return None
    digest = sha256(path.read_bytes())
    path.unlink()
    return digest


@pytest.mark.parametrize("instance", sorted(RAN_PINNED))
def test_run_writes_the_pinned_bytes(corpus, instance):
    argv = ["run", f"{instance}.inst.json", "--out", RAN[0], "--trace", RAN[1]]
    for seen, (seed, done) in printed(corpus, argv):
        files = tuple(written(corpus / name) for name in RAN)
        assert (*seen, *files) == RAN_PINNED[instance], (seed, done.stdout, done.stderr)


# argv -> (exit code, sha256 of stdout, sha256 of stderr)
COMMANDS = {
    ("trace", "good.inst.json", "--point", "p05"):
        (0, "f9016267e6a850dbd6a12308ef51800acfc9562c8da615aa0eafae6f37b73f3b", EMPTY),
    ("trace", "missing_chain.inst.json", "--point", "p05"): (3, EMPTY, NO_CHAIN),
    ("trace", "unknown_point.inst.json", "--point", "p05"): (2, EMPTY, UNKNOWN_POINT),
    ("inspect", "good.inst.json"):
        (0, "7f785d1345677431fe24b2e984792284fd68c7b6280b6ded8a5735a387dbf6e2", EMPTY),
    ("inspect", "missing_chain.inst.json"): (3, EMPTY, NO_CHAIN),
    ("inspect", "unknown_point.inst.json"): (2, EMPTY, UNKNOWN_POINT),
    ("inspect", "gaps.inst.json"):
        (2, EMPTY, "1b36058e3795de42edb92d636f5966ccba5c445618507277bc7f0de6e5ac6e28"),
}


@pytest.mark.parametrize("argv", sorted(COMMANDS), ids=" ".join)
def test_commands_print_the_pinned_bytes(corpus, argv):
    for seen, (seed, done) in printed(corpus, list(argv)):
        assert seen == COMMANDS[argv], (seed, done.stdout, done.stderr)
