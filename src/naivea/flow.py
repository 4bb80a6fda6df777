"""Mass redistribution along a successor map.

Each point keeps one unit of whatever it holds; the excess moves one hop
along the successor map per step. Successors follow a breadth-first spanning
tree of the S-Rips graph toward the component's escape route (the tail for
bounded components, the ray and its continuation for unbounded ones), so
repeated steps spread any chain into a set indicator of the same mass. The
tree is not searched here: it is ``Component.parent``, grown from the
basepoint by ``space.rips_components`` or from the ray by ``tailor.classify``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .augment import AugmentedSpace
from .chains import l1_norm
from .errors import InternalInvariantError
from .rational import floor_units
from .space import CLS_UNBOUNDED


@dataclass(frozen=True)
class FlowMap:
    """Successor map: explicit for base points, arithmetic on tail indices."""

    base_successor: dict = field(repr=False)
    tail_cap: int

    def successor(self, p):
        if isinstance(p, tuple):
            anchor, index = p
            if index >= self.tail_cap:
                raise InternalInvariantError(
                    f"flow escaped past the tail cap {self.tail_cap} at {anchor!r}"
                )
            return (anchor, index + 1)
        nxt = self.base_successor.get(p)
        if nxt is None:
            raise InternalInvariantError(f"no successor defined for {p!r}")
        return nxt


def build_flow(aug: AugmentedSpace) -> FlowMap:
    """Successor map for every component of an augmented space: each point's
    parent in its component's tree, then the ray in order, and the escape
    edge from the tree's root (or the ray's end) onto the tail."""
    space = aug.space
    base_successor = {}
    for comp in aug.decomposition.components:
        base_successor.update(comp.parent)  # the roots map to None until set below
        if comp.cls == CLS_UNBOUNDED:
            ray = comp.ray
            if not ray:
                raise InternalInvariantError(
                    f"component at {comp.basepoint!r} marked unbounded without a ray"
                )
            for a, b in zip(ray, ray[1:]):
                base_successor[a] = b
            base_successor[ray[-1]] = (comp.anchor, 1)
        else:
            base_successor[comp.basepoint] = (comp.anchor, 1)
    hop = floor_units(aug.decomposition.scale, space.metric.denominator)
    for child, par in base_successor.items():
        if isinstance(par, str) and space.metric.dist(child, par) > hop:
            raise InternalInvariantError(
                f"successor edge ({child!r}, {par!r}) longer than the scale"
            )
    return FlowMap(base_successor=base_successor, tail_cap=aug.params.N)


def split(a) -> tuple[dict, dict]:
    """Decompose a chain into its support indicator and the excess."""
    base = {p: 1 for p in a}
    excess = {p: v - 1 for p, v in a.items() if v > 1}
    return base, excess


def step(flow: FlowMap, a) -> dict:
    """One redistribution step: keep one unit per occupied point, push the
    excess one hop along the successor map."""
    succ = flow.successor
    out = {p: 1 for p in a}
    for p, v in a.items():
        if v > 1:
            q = succ(p)
            out[q] = out.get(q, 0) + v - 1
    return out


def stabilize(flow: FlowMap, a, on_iterate=None) -> tuple[dict, int]:
    """Iterate step() until the chain is an indicator; returns (result, count).

    The iteration count is bounded by ||a|| * ||excess(a)||; exceeding it
    means the successor map loops or the window overflowed, which is a hard
    failure. The result always occupies exactly ||a|| points. ``on_iterate``,
    if given, is called with (count, chain) after every step; the CLI's flow
    replay for ``trace`` and ``run --trace`` is its only user.
    """
    mass = l1_norm(a)
    _, excess = split(a)
    bound = mass * l1_norm(excess)
    current = a
    count = 0
    while any(v > 1 for v in current.values()):
        if count >= bound:
            raise InternalInvariantError(
                f"flow failed to stabilize within {bound} steps (mass {mass})"
            )
        current = step(flow, current)
        count += 1
        if on_iterate is not None:
            on_iterate(count, current)
    if len(current) != mass:
        raise InternalInvariantError(
            f"stabilized support has {len(current)} points, expected {mass}"
        )
    return current, count
