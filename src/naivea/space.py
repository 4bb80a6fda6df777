"""Finite metric spaces with exact rational distances.

Three backends: an explicit symmetric matrix, the shortest-path metric of a
weighted undirected graph, and points embedded on the rational line. Each
backend stores its distances as ints in units of 1/D, where D (its
``denominator``) is a common denominator of the source's rationals: matrix
entries, edge weights or positions (the least one for a parsed source).
Every comparison inside the pipeline is between ints; a rational threshold q
enters as floor(q * D) (``rational.floor_units``). ``Space.dist`` turns a
distance back into the exact Fraction at the public boundary. Nothing here
ever touches a float.

``bfs_tree`` is the package's one breadth-first search of the S-Rips graph,
and it reads each point's S-ball once. ``rips_components`` runs it from each
component's basepoint and keeps the tree on the ``Component``;
``tailor.classify`` runs it again from a ray that ``component_cases``, the
one decision of each component's case, accepts. The flow's successor map and
the annulus markers read the stored tree and do not search the graph
themselves.

Each backend's ``eccentricity(x, points)`` is the int ``max(dist(x, p) for p
in points)`` without a ``dist`` call per point: one row maximum on a matrix
or graph, and on the line the farther of the two extreme positions, which are
found once per points collection. A case-2 radius is such an eccentricity
over the component. ``farthest(x, points)`` is the same int with no memo:
the line takes the two extreme positions of ``points`` afresh, and the graph
settles the row of ``x`` only until every member is settled, as far as a
``dist`` call per member would. Use ``eccentricity`` for one collection
measured from many points (a component), and ``farthest`` for one measured
from a single point (a flowed support, or a subset that one point holds),
where a kept extent would never be read again and a whole graph row would be
settled for nothing. ``within(x, points, t)`` is ``farthest(x, points) <=
t``, the support check of one chain (``chains.check_instance``); the
graph backend settles the row of ``x`` only as far as ``t`` for it.

The graph backend settles each source's Dijkstra only as far as the queries
on that source reach (``GraphMetric``). The pipeline's queries are local:
chain supports lie within S, pairs within R and Rips edges within S, so on a
space of bounded geometry most rows stay a small ball, and only an
eccentricity or the connectivity check settles a row in full.

``neighbors_within(x, r)`` returns the points within r of x in an order that
is unspecified on every backend (the graph backend returns them in settle
order). Every caller must sort them or not depend on their order:
``bfs_tree`` and ``chains.qualifying_pairs`` sort, ``tailor.annulus_points``
picks by max/min, and the key order of ``generators._ball_sum_chains``'s
chains reaches no output (chains are summed, looked up, and written with
sorted keys).
"""
from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections import defaultdict, deque
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import MalformedInputError, UnknownPointError
from .rational import floor_units, parse_rational

PointId = str

# Exhaustive triangle-inequality validation is cubic; beyond this many points
# a matrix source is accepted on symmetry/positivity alone, and the space
# records the skipped check in ``Space.unchecked``.
TRIANGLE_CHECK_LIMIT = 200


def _common_denominator(values) -> int:
    return math.lcm(1, *(q.denominator for q in values))


def _units(q, denominator: int) -> int:
    """q * denominator for a rational q whose denominator divides it."""
    return q.numerator * (denominator // q.denominator)


class MatrixMetric:
    """Distance lookup backed by a full symmetric matrix, in units of 1/denominator."""

    def __init__(self, rows: dict[str, dict[str, int]], denominator: int = 1):
        self.rows = rows
        self.denominator = denominator

    def dist(self, x, y) -> int:
        return self.rows[x][y]

    def farthest(self, x, points) -> int:
        row = self.rows[x]
        return max(map(row.__getitem__, points))

    eccentricity = farthest  # a matrix row is whole already: nothing to keep

    def within(self, x, points, t) -> bool:
        return self.farthest(x, points) <= t

    def neighbors_within(self, x, r):
        t = floor_units(r, self.denominator)
        return [y for y, d in self.rows[x].items() if d <= t]


class _Row:
    """One source's Dijkstra, resumable: it settles only as far as asked.

    ``settled`` maps each settled point to its distance from the source, in
    settle order, so its values never decrease and every ball around the
    source is a prefix of it. Every point nearer than the top of ``heap`` is
    settled. ``tentative`` holds the best distance found so far for each
    discovered point. Once the heap runs empty the row is complete, and only
    ``settled`` is kept.
    """

    __slots__ = ("adjacency", "settled", "tentative", "heap")

    def __init__(self, adjacency, source):
        self.adjacency = adjacency
        self.settled = {}
        self.tentative = {source: 0}
        self.heap = [(0, source)]

    def settle(self, limit=math.inf, target=None):
        """Settle every point within ``limit`` units of the source (all of
        them by default), or stop early once ``target`` is settled."""
        heap = self.heap
        if heap is None:
            return
        settled, tentative, adjacency = self.settled, self.tentative, self.adjacency
        pop, push = heapq.heappop, heapq.heappush
        while heap and heap[0][0] <= limit:
            d, u = pop(heap)
            if u in settled:
                continue
            settled[u] = d
            for v, w in adjacency[u]:
                nd = d + w
                if v not in tentative or nd < tentative[v]:
                    tentative[v] = nd
                    push(heap, (nd, v))
            if target is not None and u == target:
                break
        if not heap:
            self.tentative = self.heap = None


class GraphMetric:
    """Shortest-path metric of a connected positive-weight graph.

    Weights are ints in units of 1/denominator. Each source gets one
    resumable Dijkstra (``row``), which settles points only as far as the
    queries on it reach: a ball of radius r settles the points within r, a
    distance settles up to its target, a farthest settles until all its
    points are, and an eccentricity settles the whole row. On a space of
    bounded geometry most rows therefore stay a small ball.
    """

    def __init__(self, adjacency: dict[str, list[tuple[str, int]]], denominator: int = 1):
        self.adjacency = adjacency
        self.denominator = denominator
        self._rows: dict[str, _Row] = {}

    def row(self, x) -> _Row:
        """The Dijkstra state of source ``x``; every query goes through here."""
        state = self._rows.get(x)
        if state is None:
            state = self._rows[x] = _Row(self.adjacency, x)
        return state

    def dist(self, x, y) -> int:
        row = self.row(x)
        settled = row.settled
        if y not in settled:
            row.settle(target=y)
        return settled[y]

    def farthest(self, x, points) -> int:
        """Settles the row of ``x`` only until every one of ``points`` is,
        which is as far as a ``dist`` call per point would settle it."""
        row = self.row(x)
        settled = row.settled
        for p in points:
            if p not in settled:
                row.settle(target=p)
        return max(map(settled.__getitem__, points))

    def eccentricity(self, x, points) -> int:
        row = self.row(x)
        row.settle()
        return max(map(row.settled.__getitem__, points))

    def within(self, x, points, t) -> bool:
        """Settles the row of ``x`` only to ``t``. A point it leaves
        unsettled lies beyond ``t``, and an earlier query may have settled
        the row past ``t``, so the distances are compared, not membership."""
        row = self.row(x)
        row.settle(t)
        settled = row.settled
        for p in points:
            d = settled.get(p)
            if d is None or d > t:
                return False
        return True

    def neighbors_within(self, x, r):
        t = floor_units(r, self.denominator)
        row = self.row(x)
        row.settle(t)
        ball = []
        for y, d in row.settled.items():
            if d > t:
                break
            ball.append(y)
        return ball


class PositionMetric:
    """|p(x) - p(y)| for points on the rational line, in units of 1/denominator.

    neighbors_within is a bisect over the sorted embedding, which keeps the
    pair scans on long lines linear instead of quadratic.
    """

    def __init__(self, positions: dict[str, int], denominator: int = 1):
        self.positions = positions
        self.denominator = denominator
        order = sorted((q, pid) for pid, q in positions.items())
        self._keys = [q for q, _ in order]
        self._ids = [pid for _, pid in order]
        # id(points) -> (points, lowest, highest position); holding the
        # collection keeps its id from being reused
        self._extents: dict[int, tuple] = {}

    def dist(self, x, y) -> int:
        return abs(self.positions[x] - self.positions[y])

    def farthest(self, x, points) -> int:
        at = list(map(self.positions.__getitem__, points))
        q = self.positions[x]
        return max(q - min(at), max(at) - q)

    def eccentricity(self, x, points) -> int:
        extent = self._extents.get(id(points))
        if extent is None:
            at = [self.positions[p] for p in points]
            extent = self._extents[id(points)] = (points, min(at), max(at))
        q = self.positions[x]
        return max(q - extent[1], extent[2] - q)

    def within(self, x, points, t) -> bool:
        return self.farthest(x, points) <= t

    def neighbors_within(self, x, r):
        t = floor_units(r, self.denominator)
        q = self.positions[x]
        lo = bisect_left(self._keys, q - t)
        hi = bisect_right(self._keys, q + t)
        return self._ids[lo:hi]


@dataclass(frozen=True)
class UnboundedHint:
    """Marks one component as a finite window onto an unbounded space.

    ``ray`` is an ordered simple path (consecutive distances <= S) whose first
    vertex becomes the component's basepoint; the flow escapes along it.
    """

    component_of: PointId
    ray: tuple[PointId, ...]


@dataclass(frozen=True)
class Space:
    points: tuple[PointId, ...]
    metric: MatrixMetric | GraphMetric | PositionMetric
    hints: tuple[UnboundedHint, ...] = ()
    metric_spec: dict | None = None
    unchecked: tuple[str, ...] = ()  # checks of the source that were skipped
    point_set: frozenset = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "point_set", frozenset(self.points))

    def dist(self, x, y) -> Fraction:
        """The exact rational distance; the pipeline itself reads the int
        ``metric.dist`` (units of 1/``metric.denominator``)."""
        return Fraction(self.metric.dist(x, y), self.metric.denominator)

    def has(self, x) -> bool:
        return x in self.point_set

    def require(self, x):
        if x not in self.point_set:
            raise UnknownPointError(f"unknown point id {x!r}")


def check_points(points) -> tuple[str, ...]:
    if not isinstance(points, (list, tuple)):
        raise MalformedInputError(f"points must be a list of ids, got {type(points).__name__}")
    if not points:
        raise MalformedInputError("a space needs at least one point")
    seen = set()
    for p in points:
        if not isinstance(p, str) or not p:
            raise MalformedInputError(f"point ids must be non-empty strings, got {p!r}")
        if "#" in p:
            raise MalformedInputError(f"point id {p!r} may not contain '#'")
        if p in seen:
            raise MalformedInputError(f"duplicate point id {p!r}")
        seen.add(p)
    return tuple(sorted(points))


def parse_hints(raw, point_set) -> tuple[UnboundedHint, ...]:
    if not isinstance(raw, (list, tuple)):
        raise MalformedInputError(f"unbounded hints must be a list, got {type(raw).__name__}")
    hints = []
    for h in raw:
        if not isinstance(h, dict):
            raise MalformedInputError(f"bad unbounded hint {h!r}")
        try:
            anchor, ray = h["component_of"], h["ray"]
        except KeyError as exc:
            raise MalformedInputError(f"unbounded hint missing field {exc}") from None
        if not isinstance(ray, (list, tuple)):
            raise MalformedInputError(f"unbounded hint ray must be a list, got {ray!r}")
        ray = tuple(ray)
        if not ray:
            raise MalformedInputError("unbounded hint with empty ray")
        for p in (anchor, *ray):
            if not isinstance(p, str) or p not in point_set:
                raise MalformedInputError(f"unbounded hint names unknown point {p!r}")
        hints.append(UnboundedHint(component_of=anchor, ray=ray))
    return tuple(hints)


def _build_matrix(points_in_order, entries):
    """The metric and the checks skipped on it (empty, or the triangle check)."""
    n = len(points_in_order)
    if not isinstance(entries, list) or len(entries) != n or any(
        not isinstance(row, list) or len(row) != n for row in entries
    ):
        raise MalformedInputError(f"matrix must be {n}x{n} to match the point list")
    parsed = [[parse_rational(v) for v in row] for row in entries]
    denominator = _common_denominator(q for row in parsed for q in row)
    m = [[_units(q, denominator) for q in row] for row in parsed]
    for i in range(n):
        if m[i][i] != 0:
            raise MalformedInputError(
                f"metric axiom violation: d({points_in_order[i]}, {points_in_order[i]}) != 0"
            )
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise MalformedInputError(
                    "metric axiom violation: asymmetric pair "
                    f"({points_in_order[i]}, {points_in_order[j]})"
                )
            if m[i][j] <= 0:
                raise MalformedInputError(
                    "metric axiom violation: non-positive distance for pair "
                    f"({points_in_order[i]}, {points_in_order[j]})"
                )
    unchecked = ()
    if n > TRIANGLE_CHECK_LIMIT:
        unchecked = (
            f"triangle inequality not checked: the matrix has {n} points, "
            f"more than {TRIANGLE_CHECK_LIMIT}",
        )
    else:
        for k in range(n):
            row_k = m[k]
            for i in range(n):
                dik = m[i][k]
                row_i = m[i]
                for j in range(n):
                    if row_i[j] > dik + row_k[j]:
                        raise MalformedInputError(
                            "metric axiom violation: triangle inequality fails for "
                            f"({points_in_order[i]}, {points_in_order[j]}, {points_in_order[k]})"
                        )
    rows = {
        p: {q: m[i][j] for j, q in enumerate(points_in_order)}
        for i, p in enumerate(points_in_order)
    }
    return MatrixMetric(rows, denominator), unchecked


def _build_graph(point_set, edges):
    if not isinstance(edges, list):
        raise MalformedInputError(f"graph edges must be a list, got {type(edges).__name__}")
    parsed = []
    for e in edges:
        try:
            u, v, w = e
        except (TypeError, ValueError):
            raise MalformedInputError(f"graph edge must be [u, v, weight], got {e!r}") from None
        if not all(isinstance(p, str) and p in point_set for p in (u, v)):
            raise MalformedInputError(f"graph edge {e!r} names an unknown point")
        if u == v:
            raise MalformedInputError(f"graph edge {e!r} is a self-loop")
        weight = parse_rational(w)
        if weight <= 0:
            raise MalformedInputError(f"graph edge {e!r} has non-positive weight")
        parsed.append((u, v, weight))
    denominator = _common_denominator(w for _, _, w in parsed)
    adjacency = {p: [] for p in point_set}
    for u, v, w in parsed:
        w = _units(w, denominator)
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))
    metric = GraphMetric(adjacency, denominator)
    # all distances must be finite: reject disconnected graphs outright
    row = metric.row(min(point_set))
    row.settle()
    if len(row.settled) != len(point_set):
        missing = min(point_set - row.settled.keys())
        raise MalformedInputError(
            f"graph source is disconnected ({missing!r} unreachable); all distances must be finite"
        )
    return metric


def _build_positions(points, values):
    """Positions of ``points``, read in the order given, so an error names
    the first point (in sorted order, the smallest) without a valid one."""
    if not isinstance(values, dict):
        raise MalformedInputError(f"positions must map point ids to rationals, got {values!r}")
    parsed = {}
    for p in points:
        if p not in values:
            raise MalformedInputError(f"no position for point {p!r}")
        parsed[p] = parse_rational(values[p])
    if len(set(parsed.values())) != len(parsed):
        raise MalformedInputError("positions must be distinct (zero distance between points)")
    denominator = _common_denominator(parsed.values())
    return PositionMetric({p: _units(q, denominator) for p, q in parsed.items()}, denominator)


def build_space(points, metric_source, hints=()) -> Space:
    """Construct a validated Space from a matrix, graph, or positions source.

    Matrix entries are aligned with ``points`` in the order given; the Space
    itself keeps points sorted, which is the canonical order everywhere else.
    """
    if not isinstance(metric_source, dict) or "type" not in metric_source:
        raise MalformedInputError("metric source must be a dict with a 'type' field")
    sorted_points = check_points(points)
    kind = metric_source["type"]
    unchecked = ()
    if kind == "matrix":
        metric, unchecked = _build_matrix(list(points), metric_source.get("entries"))
    elif kind == "graph":
        metric = _build_graph(set(sorted_points), metric_source.get("edges", []))
    elif kind == "positions":
        metric = _build_positions(sorted_points, metric_source.get("values", {}))
    else:
        raise MalformedInputError(f"unknown metric type {kind!r}")
    parsed_hints = parse_hints(hints, set(sorted_points))
    return Space(
        points=sorted_points,
        metric=metric,
        hints=parsed_hints,
        metric_spec=dict(metric_source),
        unchecked=unchecked,
    )


CLS_BOUNDED_SMALL = "BOUNDED_SMALL"
CLS_BOUNDED_LARGE = "BOUNDED_LARGE"
CLS_UNBOUNDED = "UNBOUNDED_EMULATED"


@dataclass(frozen=True)
class Component:
    """One S-Rips component and its whole classification.

    ``rips_components`` groups the points; ``tailor.classify`` alone sets
    ``cls`` (by ``component_cases``) and the ray of an emulated-unbounded
    component or the markers of a large bounded one. ``run`` reads it here.
    """

    index: int
    points: tuple[PointId, ...]
    basepoint: PointId
    cls: str = CLS_BOUNDED_SMALL
    ray: tuple[PointId, ...] | None = None
    # the N annulus markers (``tailor.annulus_points``) of a large bounded
    # component, which stand in for its tail points; () otherwise
    markers: tuple[PointId, ...] = ()
    # BFS tree of the component's S-Rips graph (``bfs_tree``), child -> parent
    # and root -> None: rooted at the basepoint, or seeded with the whole ray
    # once component_cases accepts one
    parent: dict = field(default_factory=dict, repr=False, compare=False)
    point_set: frozenset = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "point_set", frozenset(self.points))

    @property
    def anchor(self) -> PointId:
        """Where this component's tail attaches: the ray's far end when the
        component emulates an unbounded one, else the basepoint."""
        if self.cls == CLS_UNBOUNDED and self.ray:
            return self.ray[-1]
        return self.basepoint


@dataclass(frozen=True)
class Decomposition:
    components: tuple[Component, ...]
    owner: dict = field(repr=False)  # point id -> index of its component


def bfs_tree(space: Space, seeds, scale) -> dict:
    """Parent pointers of the breadth-first forest of the scale-Rips graph
    grown from ``seeds``.

    Seeds enter the queue in the order given and map to None; neighbors are
    explored in lex order, and every other point's parent is whichever vertex
    discovered it first. The map lists points in discovery order, so a parent
    always comes before its children. Every point in the map is dequeued
    once, and its whole scale-ball enters the map then, so the map is closed
    under scale-neighbours.
    """
    parent = dict.fromkeys(seeds)
    queue = deque(parent)
    near = space.metric.neighbors_within
    while queue:
        u = queue.popleft()
        for v in sorted(near(u, scale)):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    return parent


def rips_components(space: Space, S) -> Decomposition:
    """Split the space into S-connected pieces (edges where d <= S).

    Components are indexed by their lexicographically smallest member, which
    is also their basepoint. Each component is the ``bfs_tree`` grown from its
    basepoint, and keeps that tree as ``parent``. The search reads each
    point's S-ball once and takes all of it into the component, so every
    S-ball (and so every R-ball, R < S) lies inside one component, whatever
    order the backend returns it in. This only groups points:
    every component comes out with no ray and the provisional class;
    ``component_cases`` reads the space's unbounded hints and decides the
    cases, and ``tailor.classify`` builds rays, basepoints, classes, annulus
    markers and, for a ray, the ray-seeded tree.
    """
    S = Fraction(S)
    if S <= 0:
        raise MalformedInputError(f"scale S must be positive, got {S}")
    components = []
    owner = {}
    for start in space.points:  # sorted, so components come out in lex order
        if start in owner:
            continue
        idx = len(components)
        parent = bfs_tree(space, [start], S)
        owner.update(dict.fromkeys(parent, idx))
        pts = tuple(sorted(parent))
        components.append(Component(index=idx, points=pts, basepoint=pts[0], parent=parent))
    return Decomposition(components=tuple(components), owner=owner)


def ray_problem(space: Space, comp: Component, ray, S):
    """Why ``ray`` cannot be the ray of ``comp``, or None when it can: it
    must visit no point twice, lie in the component and hop at most S."""
    if len(set(ray)) != len(ray):
        return "ray revisits a point"
    for p in ray:
        if p not in comp.point_set:
            return f"ray point {p!r} lies outside the component"
    hop = floor_units(S, space.metric.denominator)
    for a, b in zip(ray, ray[1:]):
        if space.metric.dist(a, b) > hop:
            return f"ray hop ({a!r}, {b!r}) exceeds the scale"
    return None


def annulus(space: Space, S, N) -> tuple:
    """(inner, outer) = floor((3S+3SN) * D), floor((3S+4SN) * D)."""
    D = space.metric.denominator
    return floor_units(3 * S + 3 * S * N, D), floor_units(3 * S + 4 * S * N, D)


def component_cases(space: Space, decomp: Decomposition, S, N) -> tuple:
    """(cases, rays, warnings) from facts of the space alone: ``cases[i]`` is
    "1" when component i carries exactly one hint and its ray passes
    ``ray_problem`` (``rays[i]`` is then that ray), else "3" when the
    basepoint's eccentricity over it exceeds the outer ``annulus`` radius,
    else "2". Two hints on one component, even on one point of it, are
    malformed input; a hint whose ray fails is ignored with a warning.
    """
    hints = defaultdict(list)  # component index -> the hints naming a point of it
    for hint in space.hints:  # parse_hints admitted only known points
        hints[decomp.owner[hint.component_of]].append(hint)
    outer = annulus(space, S, N)[1]
    within = space.metric.within
    cases, rays, warnings = [], {}, []
    for comp in decomp.components:
        mine = hints[comp.index]
        if len(mine) > 1:
            raise MalformedInputError(
                f"multiple unbounded hints target the component of {comp.points[0]!r}"
            )
        if mine:
            ray = mine[0].ray
            problem = ray_problem(space, comp, ray, S)
            if problem is None:
                cases.append("1")
                rays[comp.index] = ray
                continue
            warnings.append(
                f"ignoring unbounded hint for the component of {comp.points[0]!r}: {problem}"
            )
        cases.append("2" if within(comp.basepoint, comp.points, outer) else "3")
    return tuple(cases), rays, tuple(warnings)
