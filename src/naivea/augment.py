"""Tail augmentation: glue a discrete ray onto each component.

An augmented point is either a base id (str) or a tail point, represented as
the tuple (anchor_id, index) with index >= 1 and serialized "anchor#index".
Bounded components hang their tail at the basepoint; components emulating an
unbounded one hang it at the far end of their ray, so the flow can always
escape. Tail points exist lazily up to the cap N.

Augmented distances are ints in units of 1/(D*k): D is the base metric's
denominator and k the denominator of S*D, so the tail spacing S is the int
``step`` and a base distance counts k times its base units.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .chains import InstanceParams
from .errors import InternalInvariantError, MalformedInputError, UnknownPointError
from .space import Decomposition, Space

AugPoint = "str | tuple[str, int]"


def format_aug(p) -> str:
    if isinstance(p, tuple):
        anchor, index = p
        return f"{anchor}#{index}"
    return p


def parse_aug(text):
    """Inverse of format_aug; base ids never contain '#', and a tail index is
    read only as format_aug writes it: ASCII digits with no leading zero."""
    if not isinstance(text, str) or not text:
        raise MalformedInputError(f"bad augmented point {text!r}")
    if "#" not in text:
        return text
    anchor, _, idx = text.rpartition("#")
    well_formed = idx.isascii() and idx.isdigit() and (idx == "0" or idx[0] != "0")
    if not anchor or not well_formed:
        raise MalformedInputError(f"bad augmented point {text!r}")
    try:
        index = int(idx)
    except ValueError:  # more digits than int() reads (sys.get_int_max_str_digits)
        raise MalformedInputError(f"bad augmented point {text!r}") from None
    if index < 1:
        raise MalformedInputError(f"tail index must be >= 1 in {text!r}")
    return (anchor, index)


def aug_sort_key(p):
    if isinstance(p, tuple):
        return (p[0], 1, p[1])
    return (p, 0, 0)


@dataclass(frozen=True)
class AugmentedSpace:
    space: Space
    decomposition: Decomposition
    params: InstanceParams  # params.N caps the tail index
    unit: int = field(init=False)  # distances are ints in units of 1/unit
    k: int = field(init=False, repr=False)  # augmented units per base unit
    step: int = field(init=False, repr=False)  # the tail spacing S, in units

    def __post_init__(self):
        anchors = {}
        for comp in self.decomposition.components:
            if comp.anchor in anchors:
                raise InternalInvariantError(f"duplicate tail anchor {comp.anchor!r}")
            anchors[comp.anchor] = comp
        object.__setattr__(self, "_by_anchor", anchors)
        spacing = self.params.S * self.space.metric.denominator
        object.__setattr__(self, "k", spacing.denominator)
        object.__setattr__(self, "step", spacing.numerator)
        object.__setattr__(self, "unit", self.space.metric.denominator * spacing.denominator)

    def _check_tail(self, p):
        anchor, index = p
        if anchor not in self._by_anchor:
            raise UnknownPointError(f"no component anchored at {anchor!r}")
        if not isinstance(index, int) or index < 1:
            raise MalformedInputError(f"bad tail index in {p!r}")
        if index > self.params.N:
            raise InternalInvariantError(
                f"tail index {index} exceeds the cap {self.params.N} at {anchor!r}"
            )

    def dist(self, u, v) -> Fraction:
        """Metric on the augmented space, as an exact rational.

        Tails are glued isometrically at their anchor with spacing S, so a
        tail point (a, j) sits at distance d(x, a) + j*S from any base point
        and tails of different components route anchor-to-anchor. This is the
        rational reference that dist_units is checked against.
        """
        S = self.params.S
        ut, vt = isinstance(u, tuple), isinstance(v, tuple)
        if not ut and not vt:
            self.space.require(u)
            self.space.require(v)
            return self.space.dist(u, v)
        if ut:
            self._check_tail(u)
        if vt:
            self._check_tail(v)
        if ut and vt:
            if u[0] == v[0]:
                return abs(u[1] - v[1]) * S
            return u[1] * S + self.space.dist(u[0], v[0]) + v[1] * S
        if ut:
            u, v = v, u  # now u is the base point, v the tail
        self.space.require(u)
        return self.space.dist(u, v[0]) + v[1] * S

    def dist_units(self, u, v) -> int:
        """dist(u, v) * unit, computed on ints; the pipeline compares these.

        Trusts its arguments: it checks neither that a base id is in the space
        nor a tail's anchor and index. ``dist`` validates both.
        """
        base = self.space.metric.dist
        ut, vt = isinstance(u, tuple), isinstance(v, tuple)
        if not ut and not vt:
            return self.k * base(u, v)
        if ut and vt:
            if u[0] == v[0]:
                return abs(u[1] - v[1]) * self.step
            return (u[1] + v[1]) * self.step + self.k * base(u[0], v[0])
        if ut:
            u, v = v, u  # now u is the base point, v the tail
        return self.k * base(u, v[0]) + v[1] * self.step

    def materialize(self, max_index: int) -> list:
        """Every base point plus tail points up to max_index (tests only)."""
        if max_index > self.params.N:
            raise InternalInvariantError(
                f"materialization depth {max_index} exceeds the cap {self.params.N}"
            )
        pts: list = list(self.space.points)
        for comp in self.decomposition.components:
            pts.extend((comp.anchor, j) for j in range(1, max_index + 1))
        return pts


def augment(space: Space, decomposition: Decomposition, params: InstanceParams) -> AugmentedSpace:
    if params.N is None:
        raise InternalInvariantError("augment needs completed params (N unset)")
    return AugmentedSpace(space=space, decomposition=decomposition, params=params)

