"""Seeded generators: shapes, metrics against oracles, determinism."""
from __future__ import annotations

from fractions import Fraction

import pytest
from oracles import canonical_dumps

from naivea.chains import l1_norm
from naivea.errors import MalformedInputError
from naivea.generators import KINDS, _ball_sum_chains, gen_instance, gen_space
from naivea.instance_io import instance_to_doc
from naivea.space import rips_components


def test_line_shape():
    space, family, params = gen_instance("line", {"count": 12, "radii": ["2"]})
    assert space.points[0] == "p00" and space.points[-1] == "p11"
    assert space.dist("p00", "p11") == 11
    assert params.S == 2
    assert family.chains["p05"] == {f"p{i:02d}": 1 for i in range(3, 8)}
    assert space.hints == ()


def test_line_step_and_unbounded():
    space, _, _ = gen_instance(
        "line", {"count": 3, "step": "1/2", "radii": ["1"], "R": "1/2", "unbounded": True}
    )
    assert space.dist("p0", "p2") == 1
    (hint,) = space.hints
    assert hint.ray == ("p0", "p1", "p2")


def test_grid_metric_is_manhattan():
    space, _, _ = gen_instance("grid", {"rows": 3, "cols": 4, "radii": ["2"]})
    assert len(space.points) == 12
    for r1, c1, r2, c2 in [(0, 0, 2, 3), (1, 2, 0, 0), (2, 1, 2, 1)]:
        a, b = f"n{r1}_{c1}", f"n{r2}_{c2}"
        assert space.dist(a, b) == abs(r1 - r2) + abs(c1 - c2)


def test_disjoint_union_paths_splits_and_is_seeded():
    params = {"count": 4, "min_len": 3, "max_len": 9, "radii": ["2"], "gap": 50}
    space1, fam1, _ = gen_instance("disjoint_union_paths", params, seed=7)
    space2, fam2, _ = gen_instance("disjoint_union_paths", params, seed=7)
    assert space1.points == space2.points
    assert fam1.chains == fam2.chains
    space3, _, _ = gen_instance("disjoint_union_paths", params, seed=8)
    assert space3.points != space1.points  # different draws with high probability
    decomp = rips_components(space1, 2)
    assert len(decomp.components) == 4
    # consecutive points in one path sit at distance 1; paths are 50 apart
    comp = decomp.components[0]
    assert all(space1.dist(comp.points[i], comp.points[i + 1]) == 1 for i in range(len(comp.points) - 1))


def test_cayley_cyclic_word_metric():
    space, family, params = gen_instance("cayley_cyclic", {"n": 12, "folner_radius": 3})
    # word metric oracle for generators [1]
    for i in range(12):
        for j in range(12):
            expected = min(abs(i - j), 12 - abs(i - j))
            assert space.dist(f"g{i:02d}", f"g{j:02d}") == expected
    # chains are radius-3 ball indicators: 7 points each, multiplicity 1
    assert all(l1_norm(c) == 7 for c in family.chains.values())
    assert all(set(c.values()) == {1} for c in family.chains.values())
    assert family.chains["g00"] == {f"g{i:02d}": 1 for i in [0, 1, 2, 3, 9, 10, 11]}
    assert params.S == 3
    (hint,) = space.hints
    assert len(hint.ray) == 12


def test_cayley_cyclic_hint_opt_out_and_validation():
    space, _, _ = gen_instance(
        "cayley_cyclic", {"n": 6, "folner_radius": 1, "R": "1/2", "emulate_unbounded": False}
    )
    assert space.hints == ()
    with pytest.raises(MalformedInputError, match="do not generate"):
        gen_instance("cayley_cyclic", {"n": 6, "folner_radius": 1, "R": "1/2", "generators": [2]})
    with pytest.raises(MalformedInputError, match="bad cyclic generator"):
        gen_instance("cayley_cyclic", {"n": 6, "folner_radius": 1, "R": "1/2", "generators": [6]})


def test_weighted_ball_masses():
    space, family, params = gen_instance(
        "weighted_ball",
        {"space": {"kind": "line", "params": {"count": 9}}, "radii": ["2", "1"], "R": "1", "epsilon": "1"},
    )
    assert params.S == 2
    # interior point: 5 points within 2, 3 within 1
    assert family.chains["p4"] == {"p2": 1, "p3": 2, "p4": 2, "p5": 2, "p6": 1}
    assert l1_norm(family.chains["p0"]) == 3 + 2
    assert set(space.metric.neighbors_within("p4", 2)) == set(family.chains["p4"])


# one small space of every generator kind
BALL_SPACES = {
    "line": {"count": 9, "step": "1/2"},
    "grid": {"rows": 3, "cols": 4},
    "disjoint_union_paths": {"count": 3, "min_len": 2, "max_len": 5, "gap": 2},
    "cayley_cyclic": {"n": 12, "generators": [1, 5], "folner_radius": 2},
    "weighted_ball": {"space": {"kind": "grid", "params": {"rows": 2, "cols": 5}}},
}


@pytest.mark.parametrize(
    "radii", [["2"], ["2", "2"], ["3", "1", "0"], ["0"], ["5/2", "3/2", "1/2"]]
)
def test_ball_sum_chains_count_the_balls(radii):
    """a_x(z) is the number of radii r with d(x, z) <= r, on every kind."""
    assert set(BALL_SPACES) == set(KINDS)
    parsed = [Fraction(r) for r in radii]
    for kind, params in BALL_SPACES.items():
        space = gen_space(kind, params, seed=1)[0]
        expected = {}
        for x in space.points:
            counts = {z: sum(space.dist(x, z) <= r for r in parsed) for z in space.points}
            expected[x] = {z: n for z, n in counts.items() if n}
        assert _ball_sum_chains(space, parsed).chains == expected, kind


def test_param_validation():
    with pytest.raises(MalformedInputError, match="missing 'count'"):
        gen_instance("line", {})
    with pytest.raises(MalformedInputError, match="must be >= 1"):
        gen_instance("line", {"count": 0})
    with pytest.raises(MalformedInputError, match="non-increasing"):
        gen_instance("line", {"count": 3, "radii": ["1", "2"]})
    with pytest.raises(MalformedInputError, match="unknown generator kind"):
        gen_instance("moebius", {})
    with pytest.raises(MalformedInputError, match="nested 'space'"):
        gen_instance("weighted_ball", {"radii": ["1"]})
    with pytest.raises(MalformedInputError, match="seed"):
        gen_instance("line", {"count": 3}, seed="zero")
    with pytest.raises(MalformedInputError, match="step must be positive"):
        gen_instance("line", {"count": 3, "step": "0"})
    with pytest.raises(MalformedInputError, match="'max_len' must be >= 5, got 3"):
        gen_instance("disjoint_union_paths", {"count": 2, "min_len": 5, "max_len": 3})
    # only a JSON bool switches a hint on or off: "no" is not false
    for value in ("no", 0, 1, None, "false"):
        with pytest.raises(MalformedInputError, match="'unbounded' must be a bool"):
            gen_instance("line", {"count": 3, "unbounded": value})
        with pytest.raises(MalformedInputError, match="'emulate_unbounded' must be a bool"):
            gen_instance("cayley_cyclic", {"n": 6, "folner_radius": 1, "emulate_unbounded": value})


def test_generator_serialization_is_deterministic():
    params = {"count": 3, "min_len": 2, "max_len": 5, "radii": ["1"], "R": "1/2", "gap": 10}
    docs = []
    for _ in range(2):
        space, family, ip = gen_instance("disjoint_union_paths", params, seed=3)
        docs.append(canonical_dumps(instance_to_doc(space, family, ip)))
    assert docs[0] == docs[1]
    assert docs[0].endswith("\n")
