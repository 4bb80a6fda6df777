"""Classification and tailoring: turn stabilized supports into subsets of X.

Components are classified by whether they carry a validated unbounded hint
and, if not, by whether they outgrow the ball of radius 3S+4SN around the
basepoint. Large bounded components get N marker points chosen in the annulus
between 3S+3SN and 3S+4SN; tail points of a stabilized support are swapped
for those markers, which keeps cardinalities of intersections and symmetric
differences exactly while pulling everything back into the space.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction

from .augment import AugmentedSpace, augment
from .chains import (
    INFINITE,
    ChainFamily,
    InstanceParams,
    InstanceReport,
    check_instance,
    format_ratio,
    set_ratio,
)
# Not called here: perfbench/layers.py looks these names up in this module.
from .chains import qualifying_pairs, variation_ratio  # noqa: F401
from .errors import InternalInvariantError, MalformedInputError, PreconditionError
from .flow import FlowMap, build_flow, stabilize
from .rational import floor_units, format_rational
from .space import (
    CLS_BOUNDED_LARGE,
    CLS_BOUNDED_SMALL,
    CLS_UNBOUNDED,
    Component,
    Decomposition,
    Space,
    bfs_tree,
    rips_components,
)


@dataclass(frozen=True)
class TailorPlan:
    z_points: dict
    warnings: tuple


@dataclass(frozen=True)
class SubsetFamily:
    subsets: dict  # point id -> frozenset of augmented points


@dataclass(frozen=True)
class Certificate:
    """Radii and bounds are ints in units of 1/unit (the augmented space's);
    worst_radius is their maximum as an exact rational."""

    params: InstanceParams
    cases: dict
    radii: dict
    pairs: tuple  # (x, y, input_ratio, output_ratio)
    worst_ratio: Fraction
    worst_radius: Fraction
    bounds: dict
    unit: int
    warnings: tuple = ()  # classify fallbacks, for stderr; not serialized

    def to_jsonable(self) -> dict:
        def length(units):
            return format_rational(Fraction(units, self.unit))

        return {
            "params": {
                "R": format_rational(self.params.R),
                "epsilon": format_rational(self.params.epsilon),
                "S": format_rational(self.params.S),
                "L": self.params.L,
                "N": self.params.N,
            },
            "cases": dict(sorted(self.cases.items())),
            "radii": {x: length(r) for x, r in sorted(self.radii.items())},
            "pairs": [
                {
                    "x": x,
                    "y": y,
                    "input_ratio": format_ratio(rin),
                    "output_ratio": format_ratio(rout),
                }
                for x, y, rin, rout in self.pairs
            ],
            "worst_ratio": format_ratio(self.worst_ratio),
            "worst_radius": format_rational(self.worst_radius),
            "bound_radius": length(self.bounds["overall"]),
            "bounds": {k: length(v) for k, v in sorted(self.bounds.items())},
        }


def _ray_problem(space, comp, ray, S):
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


def _annulus(space, params):
    """(inner, outer) = floor((3S+3SN) * D), floor((3S+4SN) * D)."""
    S, N, D = params.S, params.N, space.metric.denominator
    return floor_units(3 * S + 3 * S * N, D), floor_units(3 * S + 4 * S * N, D)


def classify(space: Space, decomp: Decomposition, params: InstanceParams):
    """Finalize component classes; returns the updated decomposition and plan.

    Unbounded hints are read here and counted per component: two hints on
    one component, even on one point of it, are malformed input. A single
    hint with a valid ray makes its component emulate an unbounded one, with
    the ray's first point as basepoint and the ``bfs_tree`` seeded with the
    whole ray as its tree; an invalid one falls back to the bounded path with
    a recorded warning, keeping the basepoint tree of ``rips_components``.
    """
    if params.N is None:
        raise InternalInvariantError("classify needs completed params (N unset)")
    S = params.S
    _, outer = _annulus(space, params)
    dist = space.metric.dist
    hints = defaultdict(list)  # component index -> the hints naming a point of it
    for hint in space.hints:
        hints[decomp.component_of(hint.component_of).index].append(hint)
    warnings = []
    comps = []
    for comp in decomp.components:
        mine = hints[comp.index]
        if len(mine) > 1:
            raise MalformedInputError(
                f"multiple unbounded hints target the component of {comp.points[0]!r}"
            )
        if mine:
            ray = mine[0].ray
            problem = _ray_problem(space, comp, ray, S)
            if problem is None:
                tree = bfs_tree(space, ray, decomp.scale)
                missing = comp.point_set - tree.keys()
                if missing:
                    raise InternalInvariantError(
                        f"component not S-connected at {min(missing)!r}"
                    )
                comps.append(
                    replace(comp, cls=CLS_UNBOUNDED, basepoint=ray[0], ray=ray, parent=tree)
                )
                continue
            warnings.append(
                f"ignoring unbounded hint for the component of {comp.points[0]!r}: {problem}"
            )
        is_large = any(dist(comp.basepoint, p) > outer for p in comp.points)
        comps.append(replace(comp, cls=CLS_BOUNDED_LARGE if is_large else CLS_BOUNDED_SMALL))
    decomp = Decomposition(scale=decomp.scale, components=tuple(comps), owner=decomp.owner)
    z_points = {}
    for comp in decomp.components:
        if comp.cls == CLS_BOUNDED_LARGE:
            z_points[comp.index] = annulus_points(space, comp, params)
    return decomp, TailorPlan(z_points=z_points, warnings=tuple(warnings))


def annulus_points(space: Space, comp: Component, params: InstanceParams) -> tuple:
    """N distinct markers with 3S+3SN < d(basepoint, .) <= 3S+4SN.

    Taken along a shortest S-Rips path from the basepoint to the lex-smallest
    point beyond the outer radius; hop counts are depths in the component's
    BFS tree (``comp.parent``, rooted at the basepoint). The path is pinned
    down by walking backward from the target, always via the predecessor
    farthest from the basepoint (ties to the lex-smallest). Steps change the
    distance by at most S, so the path meets the annulus at least N times.
    """
    S, N = params.S, params.N
    inner, outer = _annulus(space, params)
    dist = space.metric.dist
    bp = comp.basepoint
    level = {}
    for v, u in comp.parent.items():  # parents come before their children
        level[v] = 0 if u is None else level[u] + 1
    target = None
    for p in comp.points:  # sorted, so the first hit is the lex-smallest
        if dist(bp, p) > outer:
            target = p
            break
    if target is None:
        raise InternalInvariantError(
            f"component of {bp!r} has no point beyond the outer radius"
        )
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


def tailor_subset(plan: TailorPlan, comp: Component, pts) -> frozenset:
    """Map one stabilized support into the output subset for its component.

    A BOUNDED_SMALL component's subset is the component itself: every point
    of it gets the same ``comp.point_set`` object.
    """
    if not pts:
        raise InternalInvariantError("cannot tailor an empty support")
    if comp.cls == CLS_UNBOUNDED:
        return frozenset(pts)
    if comp.cls == CLS_BOUNDED_SMALL:
        return comp.point_set
    z = plan.z_points[comp.index]
    out = set()
    for p in pts:
        if isinstance(p, tuple):
            anchor, index = p
            if anchor != comp.anchor:
                raise InternalInvariantError(f"tail point {p!r} from a different component")
            if not 1 <= index <= len(z):
                raise InternalInvariantError(f"tail index {index} outside the working window")
            out.add(z[index - 1])
        else:
            if p not in comp.point_set:
                raise InternalInvariantError(f"support point {p!r} outside the component")
            out.add(p)
    return frozenset(out)


@dataclass(frozen=True)
class Prepared:
    """Everything built from an instance before any point is flowed.

    A failed admission is recorded in ``report`` rather than raised, so each
    caller reports it in its own way.
    """

    report: InstanceReport  # its pairs carry every qualifying pair's input ratio
    decomposition: Decomposition
    plan: TailorPlan
    aug: AugmentedSpace
    flow_map: FlowMap
    bounds: dict  # case radius bounds, ints in units of 1/aug.unit


def prepare(space: Space, family: ChainFamily, R, epsilon, S) -> Prepared:
    """Admission, S-Rips components, classification, tails and successor map."""
    report = check_instance(space, family, R, epsilon, S)
    params = report.params
    L, N = params.L, params.N
    decomp, plan = classify(space, rips_components(space, params.S), params)
    aug = augment(space, decomp, params)
    S = aug.step  # every bound is a whole multiple of S, so exact in these units
    bounds = {
        "case1": S + S * L * L,
        "case2": 6 * S + 8 * S * N,
        "case3": 4 * S + 6 * N * S,
        "overall": 6 * S + 8 * S * N,
    }
    return Prepared(
        report=report,
        decomposition=decomp,
        plan=plan,
        aug=aug,
        flow_map=build_flow(aug),
        bounds=bounds,
    )


def run_pipeline(space: Space, family: ChainFamily, R, epsilon, S):
    """Full conversion: admission check, decomposition, flow, tailoring.

    Returns (SubsetFamily, Certificate). Raises PreconditionError when the
    instance fails admission and InternalInvariantError if any guaranteed
    bound fails to hold (which would mean the machinery is wrong, not the
    input). Each point's flow is settled by one ``stabilize`` call; ``trace``
    and ``run --trace`` replay its synchronous steps in the CLI.
    """
    prep = prepare(space, family, R, epsilon, S)
    report = prep.report
    if not report.ok:
        raise PreconditionError(
            f"instance fails admission with {len(report.violations)} violation(s)",
            report=report,
        )
    params = report.params
    N = params.N
    decomp, plan, aug, bounds = prep.decomposition, prep.plan, prep.aug, prep.bounds
    # distances below are ints in units of 1/aug.unit; base ones count k times
    dist, eccentricity, k = space.metric.dist, space.metric.eccentricity, aug.k
    locality = aug.step + 2 * N * aug.step
    chains = family.chains

    def handle(x):
        comp = decomp.component_of(x)
        support = set(stabilize(prep.flow_map, chains[x])[0])
        has_tail = False
        reach = 0  # the largest distance from x to a support point
        for p in support:
            if aug.component_of(p).index != comp.index:
                raise InternalInvariantError(f"flow left the component at {x!r}")
            if isinstance(p, tuple):
                has_tail = True
                if p[1] > N:
                    raise InternalInvariantError(f"tail index beyond N in the support of {x!r}")
            reach = max(reach, aug.dist_units(x, p))
        if reach > bounds["case1"]:
            raise InternalInvariantError(f"stabilized support of {x!r} escaped the radius bound")
        subset = tailor_subset(plan, comp, support)
        # in cases 1 and 3a the subset is the support itself, so its reach is the radius
        if comp.cls == CLS_UNBOUNDED:
            case, radius, limit = "1", reach, bounds["case1"]
        elif comp.cls == CLS_BOUNDED_SMALL:
            # the subset is the whole component (tailor_subset): no tail points
            case, limit = "2", bounds["case2"]
            radius = k * eccentricity(x, comp.points)
        elif not has_tail:
            case, radius, limit = "3a", reach, bounds["case3"]
        else:
            case, limit = "3b", bounds["case3"]
            if k * dist(x, comp.basepoint) > locality:
                raise InternalInvariantError(
                    f"tail mass for {x!r} although it sits far from the basepoint"
                )
            z = set(plan.z_points[comp.index])
            if any(not isinstance(p, tuple) and p in z for p in support):
                raise InternalInvariantError(
                    f"support of {x!r} collides with the annulus markers"
                )
            radius = max(aug.dist_units(x, p) for p in subset)
        if radius > limit:
            raise InternalInvariantError(
                f"output radius {Fraction(radius, aug.unit)} for {x!r} exceeds "
                f"the case bound {Fraction(limit, aug.unit)}"
            )
        return support, case, subset, radius

    supports = {}
    cases = {}
    subsets = {}
    radii = {}
    for x in space.points:
        supports[x], cases[x], subsets[x], radii[x] = handle(x)

    pair_rows = []
    worst_ratio = Fraction(0)
    for x, y, rin in report.pairs:
        comp = decomp.component_of(x)
        if decomp.component_of(y).index != comp.index:
            raise InternalInvariantError(
                f"qualifying pair ({x!r}, {y!r}) straddles two components"
            )
        rout = set_ratio(subsets[x], subsets[y])
        if rout == INFINITE or rout > rin:
            raise InternalInvariantError(
                f"output ratio for ({x!r}, {y!r}) is {rout}, input was {rin}"
            )
        if "3b" in (cases[x], cases[y]):
            A, B = supports[x], supports[y]
            FA, FB = subsets[x], subsets[y]
            if len(FA ^ FB) != len(A ^ B) or len(FA & FB) != len(A & B):
                raise InternalInvariantError(
                    f"tailoring distorted the pair ({x!r}, {y!r})"
                )
        if rout > worst_ratio:
            worst_ratio = rout
        pair_rows.append((x, y, rin, rout))

    # the reported worst radius is re-derived by the rational reference metric
    # at a pair that attains it, which checks the int scaling where it shows
    worst = max(space.points, key=radii.__getitem__)
    far = max(subsets[worst], key=lambda p: aug.dist_units(worst, p))
    worst_radius = aug.dist(worst, far)
    if worst_radius * aug.unit != radii[worst]:
        raise InternalInvariantError(
            f"radius of {worst!r} is {worst_radius}, but {radii[worst]}/{aug.unit} in units"
        )

    certificate = Certificate(
        params=params,
        cases=cases,
        radii=radii,
        pairs=tuple(pair_rows),
        worst_ratio=worst_ratio,
        worst_radius=worst_radius,
        bounds=bounds,
        unit=aug.unit,
        warnings=plan.warnings,
    )
    return SubsetFamily(subsets=subsets), certificate
