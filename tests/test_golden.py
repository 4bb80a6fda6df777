"""Golden bytes: instance files and `run`, `run --trace`, `verify`, `inspect`
and `trace` output pinned.

Criterion 7 only compares reruns of the same code. These sha256 values pin
the exact bytes, so a refactor that changes any output fails here. The
instances cover the positions, graph and matrix backends and cases 1, 2, 3a
and 3b (3a and 3b on a line and on a grid, whose BFS trees branch), with
integer distances and with non-integer rational ones: steps of 1/3 and 2/5,
edge weights with denominators 2 to 6, and a tail spacing S = 3/4 on a
1/2-step line, which is not a whole number of the line's units. Unbounded
hints cover a ray that starts mid-component and one that falls back to the
bounded path with a warning. A deliberate format change must update the
hashes in the same commit.
"""
from __future__ import annotations

import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from naivea.cli import main
from naivea.instance_io import read_json, write_canonical

# Two S-Rips components at S = 1, joined by a 7/2 edge: the a-group is case 2
# and the b-group follows its ray hint (case 1). Chains are the ball sums
# B(x, 1) + B(x, 1/2) of the graph metric.
GRAPH_DOC = {
    "space": {
        "points": ["a0", "a1", "a2", "a3", "a4", "a5", "b0", "b1", "b2", "b3", "b4"],
        "metric": {
            "type": "graph",
            "edges": [
                ["a0", "a1", "1/2"],
                ["a1", "a2", "1/3"],
                ["a2", "a3", "2/3"],
                ["a3", "a4", "1/2"],
                ["a4", "a5", "1/4"],
                ["a0", "a3", "5/4"],
                ["a5", "b0", "7/2"],
                ["b0", "b1", "3/4"],
                ["b1", "b2", "1/2"],
                ["b2", "b3", "5/6"],
                ["b3", "b4", "1/3"],
                ["b1", "b3", "6/5"],
            ],
        },
    },
    "params": {"R": "1/2", "epsilon": "1", "S": "1"},
    "chains": {
        "a0": {"a0": 2, "a1": 2, "a2": 1},
        "a1": {"a0": 2, "a1": 2, "a2": 2, "a3": 1},
        "a2": {"a0": 1, "a1": 2, "a2": 2, "a3": 1},
        "a3": {"a1": 1, "a2": 1, "a3": 2, "a4": 2, "a5": 1},
        "a4": {"a3": 2, "a4": 2, "a5": 2},
        "a5": {"a3": 1, "a4": 2, "a5": 2},
        "b0": {"b0": 2, "b1": 1},
        "b1": {"b0": 1, "b1": 2, "b2": 2},
        "b2": {"b1": 2, "b2": 2, "b3": 1},
        "b3": {"b2": 1, "b3": 2, "b4": 2},
        "b4": {"b3": 2, "b4": 2},
    },
    "unbounded_hints": [{"component_of": "b2", "ray": ["b0", "b1", "b2", "b3", "b4"]}],
}

# Two 20-point unit lines at S = 2 with ball-sum chains B(x, 2) + B(x, 1). The
# a-line's hint starts its ray mid-component, so a10 becomes the basepoint
# (case 1); the b-line's ray hops 5 > S, so that hint falls back with a
# warning (case 2).
LINES = {f"{c}{i:02d}": base + i for c, base in (("a", 0), ("b", 100)) for i in range(20)}
HINTS_DOC = {
    "space": {"points": sorted(LINES), "metric": {"type": "positions", "values": LINES}},
    "params": {"R": "1", "epsilon": "1", "S": "2"},
    "chains": {
        x: {
            y: (abs(LINES[x] - LINES[y]) <= 2) + (abs(LINES[x] - LINES[y]) <= 1)
            for y in LINES
            if abs(LINES[x] - LINES[y]) <= 2
        }
        for x in LINES
    },
    "unbounded_hints": [
        {"component_of": "a03", "ray": [f"a{i}" for i in range(10, 20)]},
        {"component_of": "b00", "ray": ["b00", "b05"]},
    ],
}

# The matrix backend, entries listed in a non-sorted point order: a 2x3 grid
# with L1 spacing 1/2 (its S-Rips tree at S = 1 branches) and a 1/3-step line
# whose ray hint starts at b1, so b0 hangs off the ray-seeded tree; the two
# groups sit 5 apart. Chains are the ball sums B(x, 1) + B(x, 1/2).
GRID6 = {f"a{r}_{c}": (r, c) for r in range(2) for c in range(3)}
LINE4 = {f"b{i}": i for i in range(4)}
MATRIX_POINTS = sorted(LINE4) + sorted(GRID6)


def matrix_dist(x, y):
    if x in GRID6 and y in GRID6:
        (r, c), (s, t) = GRID6[x], GRID6[y]
        return Fraction(abs(r - s) + abs(c - t), 2)
    if x in LINE4 and y in LINE4:
        return Fraction(abs(LINE4[x] - LINE4[y]), 3)
    return Fraction(5)


MATRIX_DOC = {
    "space": {
        "points": MATRIX_POINTS,
        "metric": {
            "type": "matrix",
            "entries": [[str(matrix_dist(x, y)) for y in MATRIX_POINTS] for x in MATRIX_POINTS],
        },
    },
    "params": {"R": "1/2", "epsilon": "1", "S": "1"},
    "chains": {
        x: {
            y: (matrix_dist(x, y) <= 1) + (matrix_dist(x, y) <= Fraction(1, 2))
            for y in MATRIX_POINTS
            if matrix_dist(x, y) <= 1
        }
        for x in MATRIX_POINTS
    },
    "unbounded_hints": [{"component_of": "b0", "ray": ["b1", "b2", "b3"]}],
}

# name, generate arguments (or an instance document), trace point, case counts,
# sha256 of the instance file (written by generate or write_canonical), of the
# run output file, of the run (output path as OUT), verify, inspect and trace
# stdout, and of the run --trace file
GOLDEN = [
    (
        "line40",
        ["line", "--count", "40", "--radii", "2,1"],
        "p20",
        {"2": 40},
        "eeccc6bbafcbdb813ded6f20a6c8fbeb1a7f640a7daf4ec0c3b42cca654bafb8",
        "94b7337d5d40d0da50cc54b4ef3ae9841bd48943e40117ea97447ecfc208a7a9",
        "a5fda7270c5d783172fdce851477683077b41c12fa0681b7957eeb3e638cdcce",
        "46e37325acc1a1e9cee15cc0b00df5b4199c50bba9527d6d393f1c0f567aae28",
        "16edab0723800df9fb0666aa84fba9cd8b45e3128cc84f397b25db85e7c38f2b",
        "da40b6a115c0f17c0fd2403cb7fbfc7d6060fd18bc7ca54015262b1ed39ed2c0",
        "bad0d69bca7f6642f90e7cc594ecc785a12ed78f59c1c23c8402217587d9e336",
    ),
    (
        "line700",
        ["line", "--count", "700", "--radii", "2,1"],
        "p003",
        {"3a": 695, "3b": 5},
        "e05751c77ecfe51014513eea69fddb414ace58aadcf7e7327d20e1f856839b48",
        "eecc5c99f86da7ca951e736c7d4cdde191ea2c703de8a5375f407680cc7f3dea",
        "f1bd1430a187856873018c25047bf56a108b88fe96f52446d29e18a7ac2f1cb0",
        "a00a7afa0b1bdbf8633c7a6b70a3b6d196b07ef1207279a72595e50239371e95",
        "c8d0bd107198b55d597e3e6565fff736d491cc7c1446abb35cc721dc7e29f8f6",
        "b8558f93f5c94001e5e90bce74f08a57b41ad0c2598a92aa16df953180539258",
        "df89e71b2fb272fe7111bede8f4ee78e48ecfec19e0874395193c28b2fb79a8d",
    ),
    (
        "line20u",
        ["line", "--count", "20", "--radii", "2,1", "--unbounded"],
        "p10",
        {"1": 20},
        "bfb442a31e7d826c76215a52840f826f3f9e18601f27bec2b545c678f5b915b7",
        "ffdc907ded40c94f8a497dc7f50263ba04307ca01569f6e60e92f121eeb47ac8",
        "75b6d72826628264b2997d54d05b4f87c1d2d7ea10ff6700951799bf1ea60361",
        "1d4d7dda297d2511278446d85ee6d3004956e7da75547c26b9c1b532da2e32be",
        "7f785d1345677431fe24b2e984792284fd68c7b6280b6ded8a5735a387dbf6e2",
        "f63bbb21e90ab27e6bd22273fbe69500d0791a07b935a4d28cdb7252d6d8b6e2",
        "3578f7f7a0615a031fcae16aebfb2cbe34ae608fd0e0012e4ab136e4e21df950",
    ),
    (
        "cayley24",
        ["cayley_cyclic", "--n", "24", "--k", "2", "--R", "1", "--epsilon", "1"],
        "g05",
        {"1": 24},
        "cc2c34c3777c4b776a05061cd728a64de97cb1d91e8657aba7d67dc78c0d6128",
        "bb77b75a3e59a56f2d658e5ef0f2d45475cc531a3bf8f45114cc8c9a30a53f17",
        "2bf1ffbb06ea396560a486a197a506dd9c6783b9773ce57e3f719e2c8708c701",
        "12fa13ecb5dc0939d5d53f8b4d217ce1031ce3c29fb3ed6770ae8e0242b7e772",
        "12d85339fbf3a8225e71db28e7a5e14677219542e3042665156b6a9b27401fb8",
        "690232b73fa648b6bcc911be74c3ee803a111c622a5eb8e8c1b92ad912c09531",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        "line60_third",
        ["line", "--count", "60", "--step", "1/3", "--radii", "4/3,2/3", "--R", "1/2",
         "--epsilon", "1"],
        "p30",
        {"2": 60},
        "136e14c1f9b6be75cb48d31f59caa6312eed0c3c5828782cb86513d3e7a6bdca",
        "f2392126ab59d4915a13cf052dbfab283f8f8f7be143cd285c1c44f5ea917895",
        "086b163fc64c0d90c9d146b276bafe0f90d365dae086a2b2e049c1e1c74deb8b",
        "2c3810ba16cd48b2c8b75937cfe22a5686aed23d1b79e49d71904ee088b0bfa1",
        "52f9681ebe348a81775af73787e2fd55636cc3acbbcfd6a48a1f4e55fa1622fd",
        "9331b95420c55404ec3508b91cf9ef02fb7c728ddba81a4e9ed24116ad968a6c",
        "9a2e350033016f17a48be8711e70e75702c4880557c8e9ab07249d3bb72dfc7c",
    ),
    (
        "line700_third",
        ["line", "--count", "700", "--step", "1/3", "--radii", "2/3,1/3", "--R", "1/3",
         "--epsilon", "1"],
        "p003",
        {"3a": 695, "3b": 5},
        "20020b355d7f5e3de2cd7a4b751d7a286609ad85b4c6c8d0a30662765030fb80",
        "41cb5161d5d337f063cacdf6cace533fe9d6ec0a745cc7e635e6f5a2fa4462e6",
        "72530e084ef56abdf300cb48eb0326997af3393ee29d336a797586ebe93f622e",
        "821e158ac7b8f45870ca4cd24aaf874d715f13936c39a0e78074c372da8a63f0",
        "c6fcbaa0240e89d26342eb4e3af87dd25788be92e21ca7a63fedc01d20e38cc5",
        "b8558f93f5c94001e5e90bce74f08a57b41ad0c2598a92aa16df953180539258",
        "df89e71b2fb272fe7111bede8f4ee78e48ecfec19e0874395193c28b2fb79a8d",
    ),
    (
        "line30_fifth_u",
        ["line", "--count", "30", "--step", "2/5", "--radii", "4/5,2/5", "--R", "1/2",
         "--epsilon", "1", "--unbounded"],
        "p15",
        {"1": 30},
        "f61db9bc222b895a51d66d48417cee8ca92dae46d16e9fdc39ab337614726915",
        "8d8d179162e15e18d9481969498520e147e2a13f8b14439af912a585078cde0e",
        "0a69419a30b5589230692278cc67d61517d3f4f19aefb08e312c31f7000aa6c4",
        "d3eb138cd3ab1972bd55a13a5d254d7adeddf36515674dec83a6923b3bf38981",
        "163bf799a04d7ca25d55adc91ce3c79e535ba527d93491bec93b10bc1ad4b879",
        "b900e528eed76169d65595270be3cb5a666410137c56b1ec4ed0d5382451e8a8",
        "3af962cd1919e2188853a6d90cceaa77bbc04a740b8785ffd3acc28762e900d5",
    ),
    (
        "line20_half_u",
        ["line", "--count", "20", "--step", "1/2", "--radii", "3/4,1/2", "--R", "1/2",
         "--epsilon", "2", "--unbounded"],
        "p10",
        {"1": 20},
        "54e9a062ee3576117be819fd00f3a2a3e89a10dc32fa86623b6e8a59f65b469b",
        "f605d2ffacf962b730bce6fc8396fdb9279fcff3884be18b411d7f15a650244b",
        "9887dffce81723dea77e07c79ff6520bb598769f39f8a51a1dc3be6bee566d49",
        "348450170b02dff29260f573698bdc127f6a252ec43051dcb568aa1a740f4322",
        "697def94751e043e8e492b3f0c613b79a413d1badd465921ab7db54f722fbe4c",
        "ac1a76b6374789794b7052ba57d396a9f0aa4e4372f3e30d150b98922bfef716",
        "15220b6a63bf855f7abce66acdc730670e445ca01e946fe8c1cb328cd853171f",
    ),
    (
        "graph11_weights",
        GRAPH_DOC,
        "b1",
        {"1": 5, "2": 6},
        "210072174385f0e304c340b90ca8d912cd2890e13614b3df772989adca1fdac5",
        "bab80397853bb76ec0d54baaf2aabbb22e28f5e877bcfa4a262ecf7b3e44da9f",
        "d8d7d269736a8506e351dfb19f7d17d71ccddf11101c2ed91485482a93ae272f",
        "edcead03f81f432907dc9281de2f0ce1f1f9deee2382590434df3a1c35e974d3",
        "466d7c13f4d0c82591facfe0155991051e65a4c761a2b9aa4070a823d39fc691",
        "11d4109067d9110b55cd46fae7acb176401718d869f1a32b42e8b0f99cfbd127",
        "d969eaa266db34eeb4a847936c549f888b42b84ef5fc1b6bb95b1c3274b012a6",
    ),
    (
        "hints_mixed",
        HINTS_DOC,
        "a12",
        {"1": 20, "2": 20},
        "ab5e4fcc9c423121b439a4e2ca933b84b380cc954e060c463f9487d264a84b95",
        "95c1dea07aa05d12a76cdcc4df77a23ce76da6919678ae9788d89556c91a8161",
        "d9dc458959f17cd181d179be7069540cdd31d1d7b8ebe2932d1714b9254f82a6",
        "5ca24a022a5b77da5f992e200e3ff3a6f83499df8e248194b9f453736a20037b",
        "8bce233b1d2b5b6b3f126d17ab3fa72d9ae8576b27e7c23f95066a93ed4277cb",
        "e76f283c3a7efd7ec4cb14f57c48cfe9157e3c63a3fc172f802536fe0ea986b3",
        "3e3f370689d65bd7ba204c0b6465caa7a113cafd9c92c89768b08b11d65cb377",
    ),
    (
        "matrix10",
        MATRIX_DOC,
        "a0_1",
        {"1": 4, "2": 6},
        "365534c61e26951d6c6cbd30642a67722aeb427cb86fd7f3caadf76dcfa33859",
        "a344eb5b31dba4e7f135fcf2813cd54076b437835a8ec15af778062f170c93ed",
        "e5aad335e39de92e0c421e7018232fc6446fbcf7af5d803d52024a0a5c7595fc",
        "a3469704996439c9e9e5bd94b49322932ceffc787e93b4e15badc80b8d9f8448",
        "c03a8d0bfcc0a35bce1eb27fba8e97d1b16c8322d6b809789f468472dc70d0ad",
        "9755fa9dd038ba5220a93235424191bced1e6f8c8ef58b946ff838cac0a74cfa",
        "f40602145cc00e8791c327bbc8658bf63dbf8ad56faa5bbae48a194b55167024",
    ),
    (
        "grid2x340",
        ["grid", "--rows", "2", "--cols", "340", "--radii", "1,1", "--R", "1/2",
         "--epsilon", "1"],
        "n0_005",
        {"3a": 672, "3b": 8},
        "065427d90b90fedc0a3278d43c77b36487bcf70be74eed2684b78f5055acc1db",
        "cb950b4fe847a75f3b5b61e61e9e19386bc4a576b2a465aa5289b1aa15f0aca8",
        "e4a01781e4bbe102cbe0bc64766eecd9f0de333a3fd6085664be33a86c91eb23",
        "cc884c5477bc8fb4203381a477e4b82f67e724f0ca65b4b401e697b446025349",
        "be202e9ef970baef4b45a12414488032b7755f564326b85008b04881cca17bc5",
        "1c059e7582a7805d4080749bbd7462b98b96826cfe71e1a89c30585620112a00",
        "bd00c04016f97948ea51057402cf0fa28a9b8e7fc53e700100f48e50aed2d791",
    ),
]


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "name, gen, point, cases, inst_sha, out_sha, run_sha, verify_sha, inspect_sha, trace_sha, "
    "trace_file_sha",
    GOLDEN,
    ids=[row[0] for row in GOLDEN],
)
def test_golden_bytes(
    tmp_path, capsys, name, gen, point, cases, inst_sha, out_sha, run_sha, verify_sha,
    inspect_sha, trace_sha, trace_file_sha,
):
    inst = tmp_path / f"{name}.json"
    out = tmp_path / f"{name}_out.json"
    trace_file = tmp_path / f"{name}_trace.txt"
    if isinstance(gen, dict):
        write_canonical(inst, gen)
    else:
        assert main(["generate", *gen, "--out", str(inst)]) == 0
    assert sha256(inst.read_bytes()) == inst_sha
    capsys.readouterr()
    # exit 0: admission passed
    assert main(["run", str(inst), "--out", str(out), "--trace", str(trace_file)]) == 0
    assert sha256(capsys.readouterr().out.replace(str(out), "OUT")) == run_sha
    assert Counter(read_json(out)["certificate"]["cases"].values()) == cases
    assert sha256(out.read_bytes()) == out_sha
    assert sha256(trace_file.read_bytes()) == trace_file_sha

    assert main(["verify", str(inst), str(out)]) == 0
    assert sha256(capsys.readouterr().out) == verify_sha
    assert main(["inspect", str(inst)]) == 0
    assert sha256(capsys.readouterr().out) == inspect_sha
    assert main(["trace", str(inst), "--point", point]) == 0
    assert sha256(capsys.readouterr().out) == trace_sha
