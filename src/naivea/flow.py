"""Mass redistribution along a successor map.

A point fires by keeping one unit of whatever it holds and forwarding the
excess one hop along the successor map. Successors follow a breadth-first
spanning tree of the S-Rips graph toward the component's escape route (the
tail for bounded components, the ray and its continuation for unbounded
ones), so firing spreads any chain into a set indicator of the same mass.
The tree is not searched here: it is ``Component.parent``, grown from the
basepoint by ``space.rips_components`` or from the ray by ``tailor.classify``.

``stabilize`` settles a chain in one deepest-first pass, level by level with
no heap, firing each point at most once; the pipeline uses it. ``iterate``
fires every occupied point at once, step after step, and yields each step:
``trace`` and ``run --trace`` watch it, and it is the reference
``stabilize`` is tested against.
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
    """Successor map: explicit for base points, arithmetic on tail indices.

    ``depth`` holds each base point's hop depth: a tail point ``(anchor, i)``
    sits at depth ``-i`` and every successor edge lowers the depth by one.
    Computing it walks every successor path once, so a loop or a missing
    successor is caught when the map is built.
    """

    base_successor: dict = field(repr=False)
    tail_cap: int
    depth: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "depth", _depths(self.base_successor))

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


def _depths(successor: dict) -> dict:
    depth = {}
    for start in successor:
        path = []
        p = start
        while not isinstance(p, tuple) and p not in depth:
            if successor.get(p) is None:
                raise InternalInvariantError(f"no successor defined for {p!r}")
            depth[p] = None  # on the path being walked
            path.append(p)
            p = successor[p]
        d = -p[1] if isinstance(p, tuple) else depth[p]
        if d is None:
            raise InternalInvariantError(f"successor map loops through {p!r}")
        for q in reversed(path):
            d += 1
            depth[q] = d
    return depth


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
    hop = floor_units(aug.params.S, space.metric.denominator)
    for child, par in base_successor.items():
        if isinstance(par, str) and space.metric.dist(child, par) > hop:
            raise InternalInvariantError(
                f"successor edge ({child!r}, {par!r}) longer than the scale"
            )
    return FlowMap(base_successor=base_successor, tail_cap=aug.params.N)


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


def iterate(flow: FlowMap, a):
    """Apply step() until the chain is an indicator, yielding each new chain.

    The number of steps is bounded by ||a|| * ||excess(a)||; exceeding it
    means the successor map loops or the window overflowed, which is a hard
    failure. The last chain always occupies exactly ||a|| points.
    """
    mass = l1_norm(a)
    bound = mass * sum(v - 1 for v in a.values() if v > 1)
    current = a
    count = 0
    while any(v > 1 for v in current.values()):
        if count >= bound:
            raise InternalInvariantError(
                f"flow failed to stabilize within {bound} steps (mass {mass})"
            )
        current = step(flow, current)
        count += 1
        yield current
    if len(current) != mass:
        raise InternalInvariantError(
            f"stabilized support has {len(current)} points, expected {mass}"
        )


def stabilize(flow: FlowMap, a) -> tuple[dict, int]:
    """The indicator ``iterate`` ends at, in one pass; returns (result, firings).

    Keep-one/forward-the-rest is an abelian network (Dhar, PRL 64:1613, 1990;
    Bond & Levine, "Abelian networks I", SIAM J. Discrete Math. 2016): the
    stable indicator does not depend on the order in which points fire, so
    any order reaches the result of synchronous stepping. Points with excess
    fire level by level, deepest first, by ``FlowMap.depth``. A point
    receives mass only from points one level deeper, so once a level has
    fired, what the next level up holds is final: its points fire next, each
    once, with everything it will ever hold. That list is the level's own
    excess points of ``a`` followed by the points the firing pushed past one
    unit, in the order they were pushed; when it is empty, the walk jumps to
    the deepest level of ``a`` left. No heap is needed, since the levels are
    visited in falling order.

    Firing bound: no point fires twice, so the points of supp(a) fire at most
    |supp(a)| times. A point outside supp(a) that fires keeps one unit of the
    excess, a different unit for each point, so at most ||a|| - |supp(a)| of
    them fire. Hence firings <= ||a||_1, and more is a hard failure. Base
    successors are read from ``FlowMap.base_successor``; tail points, and any
    point without one, go through ``FlowMap.successor``, which enforces the
    tail cap. The result always occupies exactly ||a|| points.
    """
    mass = l1_norm(a)
    depth, base, succ = flow.depth, flow.base_successor, flow.successor
    held = dict(a)
    levels = {}  # depth -> the points of a there that hold more than one unit
    for p, v in a.items():
        if v > 1:
            d = -p[1] if isinstance(p, tuple) else depth.get(p)
            if d is None:
                raise InternalInvariantError(f"no successor defined for {p!r}")
            levels.setdefault(d, []).append(p)
    firings = 0
    d = max(levels, default=0)
    fire = levels.pop(d, None)
    while fire:
        firings += len(fire)
        d -= 1
        rising = levels.pop(d, [])  # the next level up, final once this one fired
        for p in fire:
            q = base.get(p)
            if q is None:
                q = succ(p)
            before = held.get(q, 0)
            after = held[q] = before + held[p] - 1
            held[p] = 1
            if before <= 1 < after:
                rising.append(q)
        if not rising and levels:
            d = max(levels)
            rising = levels.pop(d)
        fire = rising
    if firings > mass:
        raise InternalInvariantError(f"flow fired {firings} times, more than its mass {mass}")
    if len(held) != mass:
        raise InternalInvariantError(
            f"stabilized support has {len(held)} points, expected {mass}"
        )
    return held, firings
