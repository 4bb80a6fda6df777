"""The glued tail metric: hand values, metric axioms, windows, caps."""
from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from naivea.augment import (
    augment,
    aug_sort_key,
    format_aug,
    parse_aug,
)
from naivea.chains import InstanceParams
from naivea.errors import InternalInvariantError, MalformedInputError, UnknownPointError
from naivea.space import build_space, rips_components
from naivea.tailor import classify


def make_aug(space, params, S=2):
    return augment(space, rips_components(space, S), params)


def test_format_parse_round_trip():
    assert format_aug("p3") == "p3"
    assert format_aug(("p3", 7)) == "p3#7"
    assert parse_aug("p3") == "p3"
    assert parse_aug("p3#7") == ("p3", 7)
    assert parse_aug("a#b#12") == ("a#b", 12)  # anchors never contain '#', but parsing is total
    for bad in ("", "#3", "a#x", "a#", 5, None, "p5#\u00b2", "p5#\u0661", "p5#01", "a#00",
                "a#" + "1" * 5000):
        with pytest.raises(MalformedInputError, match="bad augmented point"):
            parse_aug(bad)
    with pytest.raises(MalformedInputError, match="tail index must be >= 1"):
        parse_aug("a#0")


def test_sort_key_orders_tails_after_their_anchor():
    pts = ["b", ("a", 2), "a", ("a", 1), ("b", 1)]
    assert sorted(pts, key=aug_sort_key) == ["a", ("a", 1), ("a", 2), "b", ("b", 1)]


def test_hand_distances(two, two_params):
    aug = make_aug(two, two_params)
    S = two_params.S
    assert aug.dist("q0", "q2") == 2
    assert aug.dist("q0", "r0") == 100
    assert aug.dist("q1", "r1") == 102
    # tail glued at the q-component basepoint q0 with spacing 2
    assert aug.dist("q0", ("q0", 1)) == S
    assert aug.dist("q2", ("q0", 3)) == 2 + 3 * S
    assert aug.dist(("q0", 1), ("q0", 3)) == 2 * S
    # tails of different components route anchor to anchor
    assert aug.dist(("q0", 1), ("r0", 2)) == S + 100 + 2 * S
    assert aug.dist(("q0", 2), "r1") == 2 * S + 101
    assert aug.dist(("q0", 2), ("q0", 2)) == 0


def test_metric_axioms_exhaustive(two, two_params):
    aug = make_aug(two, two_params)
    pts = aug.materialize(4)
    assert len(pts) == 6 + 2 * 4
    for u in pts:
        assert aug.dist(u, u) == 0
    for u, v in itertools.combinations(pts, 2):
        assert aug.dist(u, v) == aug.dist(v, u) > 0
    for u, v, w in itertools.permutations(pts, 3):
        assert aug.dist(u, v) <= aug.dist(u, w) + aug.dist(w, v)


@pytest.mark.parametrize(
    "source, S, unit",
    [
        # positions in halves and S = 3/4: S is not a whole number of 1/2-units
        ({"type": "positions", "values": {"a": "0", "b": "1/2", "c": "1", "d": "9"}}, "3/4", 4),
        (
            {"type": "graph", "edges": [["a", "b", "1/3"], ["b", "c", "1/2"], ["c", "d", "7"]]},
            "1",
            6,
        ),
    ],
)
def test_int_units_match_rational_reference(source, S, unit):
    sp = build_space(["a", "b", "c", "d"], source)
    params = InstanceParams(R=Fraction(1, 4), epsilon=Fraction(1), S=Fraction(S), L=2, N=6)
    aug = make_aug(sp, params, S=params.S)
    assert len(aug.decomposition.components) == 2 and aug.unit == unit
    pts = aug.materialize(6)
    for u, v in itertools.product(pts, repeat=2):
        d = aug.dist_units(u, v)
        assert isinstance(d, int) and Fraction(d, aug.unit) == aug.dist(u, v)


def test_truncate_unbounded_window_has_no_tail():
    ids = [f"p{i}" for i in range(5)]
    sp = build_space(
        ids,
        {"type": "positions", "values": {p: i for i, p in enumerate(ids)}},
        hints=[{"component_of": "p0", "ray": ids}],
    )
    params = InstanceParams(R=Fraction(1), epsilon=Fraction(1), S=Fraction(2), L=2, N=6)
    decomp, _ = classify(sp, rips_components(sp, 2), params)
    aug = augment(sp, decomp, params)
    comp = aug.decomposition.components[0]
    assert comp.cls == "UNBOUNDED_EMULATED"
    assert comp.anchor == "p4"  # the ray's far end carries the virtual continuation
    assert aug.dist("p4", ("p4", 3)) == 6
    assert aug.dist("p0", ("p4", 1)) == 4 + 2


def test_tail_validation(two, two_params):
    aug = make_aug(two, two_params)
    with pytest.raises(UnknownPointError, match="anchored"):
        aug.dist("q0", ("q1", 1))  # q1 is not an anchor
    with pytest.raises(UnknownPointError):
        aug.dist("zz", ("q0", 1))
    with pytest.raises(InternalInvariantError, match="cap"):
        aug.dist("q0", ("q0", 12))  # beyond N=11
    with pytest.raises(MalformedInputError, match="bad tail index"):
        aug.dist("q0", ("q0", 0))
    with pytest.raises(InternalInvariantError, match="cap"):
        aug.materialize(12)


def test_augment_needs_completed_params(two):
    params = InstanceParams(R=Fraction(1), epsilon=Fraction(1), S=Fraction(2))
    with pytest.raises(InternalInvariantError, match="N unset"):
        augment(two, rips_components(two, 2), params)
