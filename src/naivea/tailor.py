"""Classification and tailoring: turn stabilized supports into subsets of X.

``space.component_cases`` decides each component's case, and ``classify``
builds what the case needs. Large bounded components get N marker points
chosen in the annulus between 3S+3SN and 3S+4SN, kept on the ``Component``
with its class; tail points of a stabilized support are swapped for those
markers, which keeps cardinalities of intersections and symmetric
differences exactly while pulling everything back into the space.

``prepare`` builds everything an instance decides before any point is
flowed, once per ``run``, ``trace`` or ``inspect`` (through ``cli._prepare``),
and ``run_pipeline`` takes the ``Prepared`` it returns. ``verify`` takes
only ``admit``, the admission and S-Rips stage that ``prepare`` starts with.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction

from .augment import AugmentedSpace, aug_sort_key, augment, format_aug
from .chains import (
    ChainFamily,
    InstanceParams,
    InstanceReport,
    Ratios,
    case_bounds,
    check_instance,
    l1_norm,
    set_terms,
)
# Not called here: perfbench/layers.py looks these names up in this module.
from .chains import qualifying_pairs, set_ratio, variation_ratio  # noqa: F401
from .errors import InternalInvariantError
from .flow import FlowMap, build_flow, stabilize
from .instance_io import Certificate
from .space import (
    CLS_BOUNDED_LARGE,
    CLS_BOUNDED_SMALL,
    CLS_UNBOUNDED,
    Component,
    Decomposition,
    Space,
    annulus,
    bfs_tree,
    component_cases,
    rips_components,
)


def classify(space: Space, decomp: Decomposition, params: InstanceParams):
    """Build what each case of ``space.component_cases`` needs; returns the
    classified decomposition and a warning per ignored unbounded hint.

    A case-1 component emulates an unbounded one, with its ray's first point
    as basepoint and the ``bfs_tree`` seeded with the whole ray as its tree,
    which is the whole component: the ray lies in it, and the tree is closed
    under S-neighbours. A case-3 (large) component gets its
    ``annulus_points``; a case-2 (small) one stays as it is.
    """
    if params.N is None:
        raise InternalInvariantError("classify needs completed params (N unset)")
    cases, rays, warnings = component_cases(space, decomp, params.S, params.N)
    comps = []
    for comp, case in zip(decomp.components, cases):
        if case == "1":
            ray = rays[comp.index]
            tree = bfs_tree(space, ray, params.S)
            comp = replace(comp, cls=CLS_UNBOUNDED, basepoint=ray[0], ray=ray, parent=tree)
        elif case == "3":
            markers = annulus_points(space, comp, params)
            comp = replace(comp, cls=CLS_BOUNDED_LARGE, markers=markers)
        comps.append(comp)
    decomp = Decomposition(components=tuple(comps), owner=decomp.owner)
    return decomp, warnings


def annulus_points(space: Space, comp: Component, params: InstanceParams) -> tuple:
    """N distinct markers with 3S+3SN < d(basepoint, .) <= 3S+4SN, or () when
    no point of the component lies beyond 3S+4SN (it is small).

    Taken along a shortest S-Rips path from the basepoint to the lex-smallest
    point beyond the outer radius; hop counts are depths in the component's
    BFS tree (``comp.parent``, rooted at the basepoint). The path is pinned
    down by walking backward from the target, always via the predecessor
    farthest from the basepoint (ties to the lex-smallest). Steps change the
    distance by at most S, so the path meets the annulus at least N times.
    """
    S, N = params.S, params.N
    inner, outer = annulus(space, S, N)
    dist = space.metric.dist
    bp = comp.basepoint
    # the points are sorted, so the first hit is the lex-smallest
    target = next((p for p in comp.points if dist(bp, p) > outer), None)
    if target is None:
        return ()
    level = {}
    for v, u in comp.parent.items():  # parents come before their children
        level[v] = 0 if u is None else level[u] + 1
    path = [target]
    current = target
    while current != bp:
        want = level[current] - 1
        cands = [
            v
            for v in space.metric.neighbors_within(current, S)
            if v in comp.point_set and level.get(v) == want
        ]
        if not cands:
            raise InternalInvariantError(f"broken shortest-path levels at {current!r}")
        far = max(dist(bp, v) for v in cands)
        current = min(v for v in cands if dist(bp, v) == far)
        path.append(current)
    path.reverse()
    markers = []
    for p in path:
        d = dist(bp, p)
        if inner < d <= outer:
            markers.append(p)
            if len(markers) == N:
                break
    if len(markers) < N:
        raise InternalInvariantError(
            f"only {len(markers)} annulus points available at {bp!r}, need {N}"
        )
    return tuple(markers)


def listed(subset) -> tuple:
    """A subset's members in the order the output lists them, that of their
    formatted text."""
    tails = tuple in set(map(type, subset))  # else the members sort as they stand
    return tuple(sorted(subset, key=format_aug if tails else None))


def tailor_subset(comp: Component, pts) -> frozenset:
    """Map one stabilized support into the output subset for its component.

    Cases 1 and 3 only: an unbounded component keeps the support, and a
    large bounded one swaps each tail point (anchor, i) for its i-th annulus
    marker. A pure mapping: ``run_pipeline`` has already checked that every
    support point lies in ``comp`` and every tail index in 1..N.
    """
    if comp.cls == CLS_UNBOUNDED:
        return frozenset(pts)
    return frozenset(comp.markers[p[1] - 1] if isinstance(p, tuple) else p for p in pts)


@dataclass(frozen=True)
class Prepared:
    """Everything built from an instance before any point is flowed."""

    family: ChainFamily  # the chains admission checked
    report: InstanceReport  # its pairs carry every qualifying pair's input ratio
    decomposition: Decomposition  # each component carries its classification
    warnings: tuple  # classify's, one per ignored unbounded hint
    aug: AugmentedSpace
    flow_map: FlowMap
    bounds: dict  # case radius bounds, ints in units of 1/aug.unit


def admit(space: Space, family: ChainFamily, R, epsilon, S) -> tuple:
    """Admission and the S-Rips components: (report, decomposition), the
    first stage of ``prepare`` and all that ``verify`` takes from here."""
    report = check_instance(space, family, R, epsilon, S)
    return report, rips_components(space, report.params.S)


def prepare(space: Space, family: ChainFamily, R, epsilon, S) -> Prepared:
    """Admission, S-Rips components, classification, tails and successor map."""
    report, decomp = admit(space, family, R, epsilon, S)
    decomp, warnings = classify(space, decomp, report.params)
    aug = augment(space, decomp, report.params)
    return Prepared(
        family=family,
        report=report,
        decomposition=decomp,
        warnings=warnings,
        aug=aug,
        flow_map=build_flow(aug),
        bounds=case_bounds(report.params, aug.unit),
    )


def run_pipeline(prep: Prepared):
    """Full conversion of a prepared instance: flow, tailoring, certificate.

    Returns (subsets, Certificate), where subsets maps each point id to the
    tuple of its augmented points in the order the output lists them.
    Raises PreconditionError when the instance failed admission and
    InternalInvariantError if any guaranteed bound fails to hold (which
    would mean the machinery is wrong, not the input). A case-2 point is not
    flowed: its subset is its component, which lies within 3S+4SN of the
    basepoint (``component_cases``), and every point of the component shares
    its ``points``. Every other point's flow is settled by one ``stabilize``
    call; ``trace`` and ``run --trace`` replay the synchronous steps of any
    point's flow from ``prep.flow_map``.
    Every qualifying pair lies in one component, since its R-ball lies in
    the S-ball that ``bfs_tree`` swept whole. The points are handled in
    sorted order, and each pair is checked, in list order, once its second
    point is handled. A flowed point's subset is a frozenset only while a
    pair left reads it, so in a space of bounded geometry only a short
    window of points holds one. The first pair error is raised once every
    point is handled, so an error of a point always comes first.
    """
    report = prep.report
    report.require_admitted()
    params = report.params
    N = params.N
    decomp, aug, bounds = prep.decomposition, prep.aug, prep.bounds
    space = aug.space
    # distances below are ints in units of 1/aug.unit; base ones count k times
    metric, k = space.metric, aug.k
    dist, eccentricity, farthest = metric.dist, metric.eccentricity, metric.farthest
    locality = aug.step + 2 * N * aug.step
    owner = decomp.owner
    chains = prep.family.chains
    # case 3 only, until the point is listed: the 3b pair check compares them
    # with their subsets
    supports = {}

    def handle(x):
        """Case, subset, radius and case bound of x: only cases 1 and 3 flow."""
        comp = decomp.components[owner[x]]
        if comp.cls == CLS_BOUNDED_SMALL:
            # the subset is the component, with no tail points
            return "2", comp.point_set, k * eccentricity(x, comp.points), bounds["case2"]
        support = frozenset(stabilize(prep.flow_map, chains[x])[0])
        base = support & comp.point_set
        top = 0  # the largest tail index in the support
        # tail points, or points of another component; sorted, so the first
        # bad one is named the same whatever the hash seed
        for p in sorted(support - base, key=aug_sort_key):
            if not isinstance(p, tuple) or p[0] != comp.anchor:
                raise InternalInvariantError(f"flow left the component at {x!r}")
            if not 1 <= p[1] <= N:
                raise InternalInvariantError(f"tail index beyond N in the support of {x!r}")
            top = max(top, p[1])
        # the largest distance from x to a support point
        reach = k * farthest(x, base) if base else 0
        if top:
            reach = max(reach, k * dist(x, comp.anchor) + top * aug.step)
        # each point fires at most once and each hop is at most S, so the
        # support lies within ||a_x||_1 hops of supp(a_x), itself within S of
        # x; with L = 1 + max ||a_x||_1 this also keeps it within S + S*L^2
        mass = l1_norm(chains[x])
        if top > mass:
            raise InternalInvariantError(f"tail index beyond ||a_x||_1 in the support of {x!r}")
        if reach > aug.step * (1 + mass):
            raise InternalInvariantError(
                f"stabilized support of {x!r} reaches past S(1 + ||a_x||_1)"
            )
        subset = tailor_subset(comp, support)
        # in cases 1 and 3a the subset is the support itself, so its reach is the radius
        if comp.cls == CLS_UNBOUNDED:
            return "1", subset, reach, bounds["case1"]
        supports[x] = support
        if not top:
            return "3a", subset, reach, bounds["case3"]
        if k * dist(x, comp.basepoint) > locality:
            raise InternalInvariantError(
                f"tail mass for {x!r} although it sits far from the basepoint"
            )
        z = set(comp.markers)
        if any(not isinstance(p, tuple) and p in z for p in support):
            raise InternalInvariantError(f"support of {x!r} collides with the annulus markers")
        # markers replaced the tail
        return "3b", subset, k * farthest(x, subset), bounds["case3"]

    cases, subsets, radii = {}, {}, {}
    # (s, i) against the input ratio, which admission left finite; i = 0 (INF) exceeds it
    values = Ratios()
    pair_rows = []
    worst_ratio = (0, 1)
    worst, worst_units = None, -1  # the first point of the largest radius, and its radius
    failure = None  # the first pair error, raised only once every point is handled
    unlisted = deque()  # the handled points whose subset is still a frozenset, in order
    pending = iter(report.pairs)
    pair = next(pending, None)  # the first pair not checked
    for x in space.points:
        case, subset, radius, limit = handle(x)
        if radius > limit:
            raise InternalInvariantError(
                f"output radius {Fraction(radius, aug.unit)} for {x!r} exceeds "
                f"the case bound {Fraction(limit, aug.unit)}"
            )
        cases[x], radii[x] = case, radius
        if radius > worst_units:
            worst, worst_units = x, radius
        if case == "2":
            # every pair of x lies in its component, and all its points share
            # this one tuple, which set_terms takes by identity
            subsets[x] = decomp.components[owner[x]].points
        else:
            subsets[x] = subset
            unlisted.append(x)
        # the pairs whose second point is handled, in list order, up to the
        # first that fails
        while failure is None and pair is not None and pair[1] in subsets:
            a, b, rin = pair
            pair = next(pending, None)
            s, i = set_terms(subsets[a], subsets[b])
            if s * rin.denominator > rin.numerator * i:
                failure = f"output ratio for ({a!r}, {b!r}) is {values[s, i]}, input was {rin}"
            elif "3b" in (cases[a], cases[b]) and (s, i) != set_terms(supports[a], supports[b]):
                failure = f"tailoring distorted the pair ({a!r}, {b!r})"
            if s * worst_ratio[1] > worst_ratio[0] * i:
                worst_ratio = (s, i)
            pair_rows.append((a, b, rin, values[s, i]))
        # pairs are sorted by (x, y) with x < y, so no pair left reads a
        # point before the x of the first one
        while unlisted and (pair is None or unlisted[0] < pair[0]):
            p = unlisted.popleft()
            subsets[p] = listed(subsets[p])
            supports.pop(p, None)
    if failure is not None:
        raise InternalInvariantError(failure)

    # the reported worst radius is re-derived as the exact maximum of the
    # rational reference metric over its subset, which checks the int scaling
    worst_radius = max(aug.dist(worst, p) for p in subsets[worst])
    if worst_radius * aug.unit != radii[worst]:
        raise InternalInvariantError(
            f"radius of {worst!r} is {worst_radius}, but {radii[worst]}/{aug.unit} in units"
        )

    certificate = Certificate(
        params=params,
        cases=cases,
        radii=radii,
        pairs=tuple(pair_rows),
        worst_ratio=values[worst_ratio],
        worst_radius=worst_radius,
        bounds=bounds,
        unit=aug.unit,
    )
    return subsets, certificate
