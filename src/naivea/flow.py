"""Mass redistribution along a successor map.

Each point keeps one unit of whatever it holds; the excess moves one hop
along the successor map per step. Successors follow a breadth-first spanning
tree of the S-Rips graph toward the component's escape route (the tail for
bounded components, the ray and its continuation for unbounded ones), so
repeated steps spread any chain into a set indicator of the same mass.
"""
from __future__ import annotations

from collections import deque
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


def _bfs_tree(space, points, seeds, scale):
    """Parent pointers of a BFS forest over the S-Rips graph of one component.

    Seeds enter the queue in the order given; neighbors are explored in lex
    order, and a point's parent is whichever vertex discovered it first.
    """
    parent = {}
    seen = set(seeds)
    queue = deque(seeds)
    while queue:
        u = queue.popleft()
        for v in sorted(space.metric.neighbors_within(u, scale)):
            if v in points and v not in seen:
                seen.add(v)
                parent[v] = u
                queue.append(v)
    if len(seen) != len(points):
        missing = sorted(set(points) - seen)[0]
        raise InternalInvariantError(f"component not S-connected at {missing!r}")
    return parent


def build_flow(aug: AugmentedSpace) -> FlowMap:
    """Successor map for every component of an augmented space."""
    space = aug.space
    scale = aug.decomposition.scale
    base_successor = {}
    for comp in aug.decomposition.components:
        if comp.cls == CLS_UNBOUNDED:
            ray = comp.ray
            if not ray:
                raise InternalInvariantError(
                    f"component at {comp.basepoint!r} marked unbounded without a ray"
                )
            parent = _bfs_tree(space, comp.point_set, list(ray), scale)
            for child, par in parent.items():
                base_successor[child] = par
            for i in range(len(ray) - 1):
                base_successor[ray[i]] = ray[i + 1]
            base_successor[ray[-1]] = (comp.anchor, 1)
        else:
            parent = _bfs_tree(space, comp.point_set, [comp.basepoint], scale)
            for child, par in parent.items():
                base_successor[child] = par
            base_successor[comp.basepoint] = (comp.anchor, 1)
    hop = floor_units(scale, space.metric.denominator)
    for child, par in base_successor.items():
        if isinstance(par, str) and space.metric.dist(child, par) > hop:
            raise InternalInvariantError(
                f"successor edge ({child!r}, {par!r}) longer than the scale"
            )
    return FlowMap(base_successor=base_successor, tail_cap=aug.tail_cap)


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
    failure. The result always occupies exactly ||a|| points.
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
