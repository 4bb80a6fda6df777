"""Golden bytes: `run`, `inspect` and `trace` output pinned across versions.

Criterion 7 only compares reruns of the same code. These sha256 values pin
the exact bytes, so a refactor that changes any output fails here. The
instances cover the positions and graph backends and cases 1, 2, 3a and 3b.
A deliberate format change must update the hashes in the same commit.
"""
from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from naivea.cli import main
from naivea.instance_io import read_json

# name, generate arguments, trace point, case counts,
# sha256 of the run output file, the inspect stdout and the trace stdout
GOLDEN = [
    (
        "line40",
        ["line", "--count", "40", "--radii", "2,1"],
        "p20",
        {"2": 40},
        "94b7337d5d40d0da50cc54b4ef3ae9841bd48943e40117ea97447ecfc208a7a9",
        "16edab0723800df9fb0666aa84fba9cd8b45e3128cc84f397b25db85e7c38f2b",
        "da40b6a115c0f17c0fd2403cb7fbfc7d6060fd18bc7ca54015262b1ed39ed2c0",
    ),
    (
        "line700",
        ["line", "--count", "700", "--radii", "2,1"],
        "p003",
        {"3a": 695, "3b": 5},
        "eecc5c99f86da7ca951e736c7d4cdde191ea2c703de8a5375f407680cc7f3dea",
        "c8d0bd107198b55d597e3e6565fff736d491cc7c1446abb35cc721dc7e29f8f6",
        "b8558f93f5c94001e5e90bce74f08a57b41ad0c2598a92aa16df953180539258",
    ),
    (
        "line20u",
        ["line", "--count", "20", "--radii", "2,1", "--unbounded"],
        "p10",
        {"1": 20},
        "ffdc907ded40c94f8a497dc7f50263ba04307ca01569f6e60e92f121eeb47ac8",
        "7f785d1345677431fe24b2e984792284fd68c7b6280b6ded8a5735a387dbf6e2",
        "f63bbb21e90ab27e6bd22273fbe69500d0791a07b935a4d28cdb7252d6d8b6e2",
    ),
    (
        "cayley24",
        ["cayley_cyclic", "--n", "24", "--k", "2", "--R", "1", "--epsilon", "1"],
        "g05",
        {"1": 24},
        "bb77b75a3e59a56f2d658e5ef0f2d45475cc531a3bf8f45114cc8c9a30a53f17",
        "12d85339fbf3a8225e71db28e7a5e14677219542e3042665156b6a9b27401fb8",
        "690232b73fa648b6bcc911be74c3ee803a111c622a5eb8e8c1b92ad912c09531",
    ),
]


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "name, gen, point, cases, out_sha, inspect_sha, trace_sha",
    GOLDEN,
    ids=[row[0] for row in GOLDEN],
)
def test_golden_bytes(tmp_path, capsys, name, gen, point, cases, out_sha, inspect_sha, trace_sha):
    inst = tmp_path / f"{name}.json"
    out = tmp_path / f"{name}_out.json"
    assert main(["generate", *gen, "--out", str(inst)]) == 0
    assert main(["run", str(inst), "--out", str(out)]) == 0
    capsys.readouterr()
    assert Counter(read_json(out)["certificate"]["cases"].values()) == cases
    assert sha256(out.read_bytes()) == out_sha

    assert main(["inspect", str(inst)]) == 0
    assert sha256(capsys.readouterr().out) == inspect_sha
    assert main(["trace", str(inst), "--point", point]) == 0
    assert sha256(capsys.readouterr().out) == trace_sha
