"""Classification and tailoring: turn stabilized supports into subsets of X.

Components are classified by whether they carry a validated unbounded hint
and, if not, by whether they outgrow the ball of radius 3S+4SN around the
basepoint. Large bounded components get N marker points chosen in the annulus
between 3S+3SN and 3S+4SN, kept on the ``Component`` with its class; tail
points of a stabilized support are swapped for those markers, which keeps
cardinalities of intersections and symmetric differences exactly while
pulling everything back into the space.

``prepare`` builds everything an instance decides before any point is flowed,
once per command (``cli._prepare`` is its one caller in the CLI), and
``run_pipeline`` takes the ``Prepared`` it returns.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction

from .augment import AugmentedSpace, augment
from .chains import (
    ChainFamily,
    InstanceParams,
    InstanceReport,
    Ratios,
    check_instance,
    format_ratio,
    set_terms,
)
# Not called here: perfbench/layers.py looks these names up in this module.
from .chains import qualifying_pairs, set_ratio, variation_ratio  # noqa: F401
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

    def to_jsonable(self) -> dict:
        lengths = {}  # each distinct radius or bound is formatted once

        def length(units):
            if units not in lengths:
                lengths[units] = format_rational(Fraction(units, self.unit))
            return lengths[units]

        texts = {}  # each distinct ratio is formatted once; INF is a float

        def ratio(q):
            key = q.as_integer_ratio() if isinstance(q, Fraction) else q
            if key not in texts:
                texts[key] = format_ratio(q)
            return texts[key]

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
                    "input_ratio": ratio(rin),
                    "output_ratio": ratio(rout),
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
    """Classify every component in one pass; returns the updated
    decomposition and a warning per ignored unbounded hint.

    Unbounded hints are read here and counted per component: two hints on
    one component, even on one point of it, are malformed input. A single
    hint with a valid ray makes its component emulate an unbounded one, with
    the ray's first point as basepoint and the ``bfs_tree`` seeded with the
    whole ray as its tree, which is the whole component: the ray lies in it,
    and the tree is closed under S-neighbours. An invalid hint falls back to
    the bounded path with a warning, keeping the basepoint tree of
    ``rips_components``. A bounded component is large exactly when
    ``annulus_points`` finds its markers.
    """
    if params.N is None:
        raise InternalInvariantError("classify needs completed params (N unset)")
    S = params.S
    hints = defaultdict(list)  # component index -> the hints naming a point of it
    for hint in space.hints:  # parse_hints admitted only known points
        hints[decomp.owner[hint.component_of]].append(hint)
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
                comps.append(
                    replace(comp, cls=CLS_UNBOUNDED, basepoint=ray[0], ray=ray, parent=tree)
                )
                continue
            warnings.append(
                f"ignoring unbounded hint for the component of {comp.points[0]!r}: {problem}"
            )
        markers = annulus_points(space, comp, params)
        cls = CLS_BOUNDED_LARGE if markers else CLS_BOUNDED_SMALL
        comps.append(replace(comp, cls=cls, markers=markers))
    decomp = Decomposition(scale=decomp.scale, components=tuple(comps), owner=decomp.owner)
    return decomp, tuple(warnings)


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
    inner, outer = _annulus(space, params)
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
    """Everything built from an instance before any point is flowed.

    A failed admission is recorded in ``report`` rather than raised, so each
    caller reports it in its own way; ``require_admitted`` raises the
    PreconditionError that ``run`` and ``trace`` exit 3 on and ``verify``
    reports.
    """

    family: ChainFamily  # the chains admission checked
    report: InstanceReport  # its pairs carry every qualifying pair's input ratio
    decomposition: Decomposition  # each component carries its classification
    warnings: tuple  # classify's, one per ignored unbounded hint
    aug: AugmentedSpace
    flow_map: FlowMap
    bounds: dict  # case radius bounds, ints in units of 1/aug.unit

    def require_admitted(self):
        if not self.report.ok:
            raise PreconditionError(
                f"instance fails admission with {len(self.report.violations)} violation(s)",
                report=self.report,
            )


def prepare(space: Space, family: ChainFamily, R, epsilon, S) -> Prepared:
    """Admission, S-Rips components, classification, tails and successor map."""
    report = check_instance(space, family, R, epsilon, S)
    params = report.params
    L, N = params.L, params.N
    decomp, warnings = classify(space, rips_components(space, params.S), params)
    aug = augment(space, decomp, params)
    S = aug.step  # every bound is a whole multiple of S, so exact in these units
    bounds = {
        "case1": S + S * L * L,
        "case2": 6 * S + 8 * S * N,
        "case3": 4 * S + 6 * N * S,
        "overall": 6 * S + 8 * S * N,
    }
    return Prepared(
        family=family,
        report=report,
        decomposition=decomp,
        warnings=warnings,
        aug=aug,
        flow_map=build_flow(aug),
        bounds=bounds,
    )


def run_pipeline(prep: Prepared):
    """Full conversion of a prepared instance: flow, tailoring, certificate.

    Returns (subsets, Certificate), where subsets maps each point id to a
    frozenset of augmented points. Raises PreconditionError when the
    instance failed admission and InternalInvariantError if any guaranteed
    bound fails to hold (which would mean the machinery is wrong, not the
    input). A case-2 point is not flowed: its subset is its component, which
    ``classify`` found within 3S+4SN of the basepoint. Every other point's
    flow is settled by one ``stabilize`` call; ``trace`` and ``run --trace``
    replay the synchronous steps of any point's flow from ``prep.flow_map``.
    Every qualifying pair lies in one component, since its R-ball lies in
    the S-ball that ``bfs_tree`` swept whole.
    """
    prep.require_admitted()
    report = prep.report
    params = report.params
    N = params.N
    decomp, aug, bounds = prep.decomposition, prep.aug, prep.bounds
    space = aug.space
    # distances below are ints in units of 1/aug.unit; base ones count k times
    dist, eccentricity, k = space.metric.dist, space.metric.eccentricity, aug.k
    locality = aug.step + 2 * N * aug.step
    owner = decomp.owner
    chains = prep.family.chains
    supports = {}  # case 3 only: the 3b pair check compares them with their subsets

    def handle(x):
        """Case, subset, radius and case bound of x: only cases 1 and 3 flow."""
        comp = decomp.components[owner[x]]
        if comp.cls == CLS_BOUNDED_SMALL:
            # the subset is the component, with no tail points
            return "2", comp.point_set, k * eccentricity(x, comp.points), bounds["case2"]
        support = set(stabilize(prep.flow_map, chains[x])[0])
        far = 0  # the largest base distance from x to a base point of the support
        top = 0  # the largest tail index in the support
        for p in support:
            if isinstance(p, tuple):
                if p[0] != comp.anchor:
                    raise InternalInvariantError(f"flow left the component at {x!r}")
                if not 1 <= p[1] <= N:
                    raise InternalInvariantError(f"tail index beyond N in the support of {x!r}")
                top = max(top, p[1])
            elif owner.get(p) != comp.index:
                raise InternalInvariantError(f"flow left the component at {x!r}")
            else:
                far = max(far, dist(x, p))
        reach = k * far  # the largest distance from x to a support point
        if top:
            reach = max(reach, k * dist(x, comp.anchor) + top * aug.step)
        if reach > bounds["case1"]:
            raise InternalInvariantError(f"stabilized support of {x!r} escaped the radius bound")
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
        return "3b", subset, k * max(dist(x, p) for p in subset), bounds["case3"]

    cases = {}
    subsets = {}
    radii = {}
    for x in space.points:
        case, subset, radius, limit = handle(x)
        if radius > limit:
            raise InternalInvariantError(
                f"output radius {Fraction(radius, aug.unit)} for {x!r} exceeds "
                f"the case bound {Fraction(limit, aug.unit)}"
            )
        cases[x], subsets[x], radii[x] = case, subset, radius

    # (s, i) against the input ratio, which admission left finite; i = 0 (INF) exceeds it
    values = Ratios()
    pair_rows = []
    worst_ratio = (0, 1)
    for x, y, rin in report.pairs:
        s, i = set_terms(subsets[x], subsets[y])
        if s * rin.denominator > rin.numerator * i:
            raise InternalInvariantError(
                f"output ratio for ({x!r}, {y!r}) is {values[s, i]}, input was {rin}"
            )
        if "3b" in (cases[x], cases[y]) and (s, i) != set_terms(supports[x], supports[y]):
            raise InternalInvariantError(f"tailoring distorted the pair ({x!r}, {y!r})")
        if s * worst_ratio[1] > worst_ratio[0] * i:
            worst_ratio = (s, i)
        pair_rows.append((x, y, rin, values[s, i]))

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
        worst_ratio=values[worst_ratio],
        worst_radius=worst_radius,
        bounds=bounds,
        unit=aug.unit,
    )
    return subsets, certificate
