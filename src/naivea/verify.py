"""Independent verification.

verify_naive re-derives the ratio of every qualifying pair it is given
(admission's, which come from the space alone) and the support radius from
the space and the proposed subsets alone. It checks each distinct subset
object once (points with equal member lists share one, see
``parse_subsets``); a shared subset's radius at a point is one
``metric.eccentricity`` over its base members, and a subset held by one
point is measured member by member.
As in ``chains``, a ratio is an int pair, (s, i) = (|A ^ B|, |A & B|) for
two subsets; every verdict (a ratio against epsilon, or an output ratio
against its input ratio) is a cross-multiplication of ints, and each call
builds one shared Fraction per distinct ratio for its report.
verify_certificate checks each claim of the certificate against those
facts and the instance's ``Prepared`` (admission, classes and bounds),
without flowing any point or reading a label from the file: the certificate
must equal the one the facts make, field by field and with the same JSON
types (so the file's whitespace does not matter). The flow monitor
brute-forces every small chain on a successor path and checks the
redistribution laws exhaustively, and the one-pass settler against
synchronous stepping.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .chains import Ratios, diff_l1, format_ratio, l1_norm, meet, ratio_terms, set_terms
# Not called here: perfbench/layers.py looks these names up in this module.
from .chains import qualifying_pairs, set_ratio  # noqa: F401
from .errors import (
    InternalInvariantError,
    MalformedInputError,
    PreconditionError,
    UnknownPointError,
)
from .flow import FlowMap, iterate, split, stabilize, step
from .space import CLS_BOUNDED_LARGE, CLS_BOUNDED_SMALL, CLS_UNBOUNDED, Space
from .tailor import Certificate


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    violations: tuple
    stats: dict
    # facts for verify_certificate, not printed: the set ratio of each
    # qualifying pair in order, each point's radius in units of 1/(D*k), and
    # the largest radius re-derived as an exact rational
    ratios: tuple = ()
    radii: dict = field(default_factory=dict)
    support_radius: Fraction = Fraction(0)


# the case label of each component class; a class-3 point is 3b exactly when its
# radius exceeds the case-1 bound, which a 3a support stays within and 3b markers pass
_LABELS = {CLS_UNBOUNDED: "1", CLS_BOUNDED_SMALL: "2", CLS_BOUNDED_LARGE: "3a"}


def _tail_member(space, hint_anchors, spacing, p):
    """The (anchor, index) of a tail member: it must hang at a known anchor,
    with a positive int index and a spacing supplied (None when not)."""
    anchor, index = p
    if spacing is None:
        raise MalformedInputError(
            f"subset contains tail point {anchor}#{index} but no tail spacing was supplied"
        )
    if not space.has(anchor) or (hint_anchors is not None and anchor not in hint_anchors):
        raise UnknownPointError(f"subset contains unknown tail anchor {anchor!r}")
    if type(index) is not int or index < 1:
        raise MalformedInputError(f"bad tail index in subset member {p!r}")
    return anchor, index


def _split(space, hint_anchors, spacing, subset):
    """Check every member of ``subset`` in its iteration order, so the first
    bad one raises; return its base members and, per tail anchor, the
    largest tail index."""
    base, tails = [], {}
    for p in subset:
        if isinstance(p, tuple):
            anchor, index = _tail_member(space, hint_anchors, spacing, p)
            if index > tails.get(anchor, 0):
                tails[anchor] = index
        elif space.has(p):
            base.append(p)
        else:
            raise UnknownPointError(f"subset contains unknown point {p!r}")
    return base, tails


def _units(metric, spacing, k, x, p) -> int:
    """Distance from a base point to a checked subset member in units of
    1/(D*k); a tail point (anchor, j) hangs j*spacing beyond its anchor."""
    if isinstance(p, tuple):
        return k * metric.dist(x, p[0]) + p[1] * spacing
    return k * metric.dist(x, p)


def verify_naive(
    space: Space,
    subsets,
    pairs,
    epsilon,
    tail_spacing=None,
    hint_anchors=None,
) -> VerifyReport:
    """Check a subset family directly against the two defining conditions.

    (a) every pair in ``pairs``, the (x, y) pairs at distance <= R in
    ``chains.qualifying_pairs`` order (admission's, in ``verify``), has
    symmetric-difference/intersection ratio strictly below epsilon; (b) the
    uniform support radius S' is reported. PASS means (a) holds; S' lands in
    stats, and the ratios (in the order of ``pairs``) and radii behind both
    on the report, for ``verify_certificate``.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise MalformedInputError("epsilon must be positive")
    for x in space.points:
        A = subsets.get(x)
        if A is None:
            raise MalformedInputError(f"no subset for point {x!r}")
        if not A:
            raise MalformedInputError(f"empty subset for point {x!r}")
    for x in subsets:
        if not space.has(x):
            raise UnknownPointError(f"subset for unknown point {x!r}")

    values = Ratios()
    p, q = epsilon.numerator, epsilon.denominator
    ratios, violations = [], []
    worst = (0, 1)  # the largest finite ratio
    for x, y in pairs:
        s, i = set_terms(subsets[x], subsets[y])
        ratio = values[s, i]
        ratios.append(ratio)
        if s and s * q >= p * i:  # s/i >= epsilon
            violations.append(
                {"condition": "set_ratio", "x": x, "y": y, "ratio": format_ratio(ratio)}
            )
        if i and s * worst[1] > worst[0] * i:
            worst = (s, i)

    # tail offsets j*S are whole in units of 1/(D*k), k the denominator of S*D
    D = space.metric.denominator
    spacing, k = None, 1
    if tail_spacing is not None:
        scaled = Fraction(tail_spacing) * D
        spacing, k = scaled.numerator, scaled.denominator
    # each distinct subset object is checked and split once; a subset that
    # several points share takes one eccentricity per point, while a subset
    # held once keeps a dist per member (an eccentricity settles a whole
    # graph row)
    metric = space.metric
    holders = Counter(id(subsets[x]) for x in space.points)
    parts = {}
    radii = {}
    radius, worst_x = 0, None
    for x in space.points:
        A = subsets[x]
        part = parts.get(id(A))
        if part is None:
            part = parts[id(A)] = _split(space, hint_anchors, spacing, A)
        base, tails = part
        if not base:
            d = 0
        elif holders[id(A)] > 1:
            d = k * metric.eccentricity(x, base)
        else:
            d = k * max(map(metric.dist, itertools.repeat(x), base))
        for anchor, index in tails.items():
            d = max(d, k * metric.dist(x, anchor) + index * spacing)
        radii[x] = d
        if d > radius:
            radius, worst_x = d, x
    # report the radius as the rational distance of the first pair that
    # attains it, which checks the int scaling against the exact metric
    support_radius = Fraction(0)
    if worst_x is not None:
        x = worst_x
        p = next(p for p in subsets[x] if _units(metric, spacing, k, x, p) == radius)
        if isinstance(p, tuple):
            support_radius = space.dist(x, p[0]) + p[1] * Fraction(tail_spacing)
        else:
            support_radius = space.dist(x, p)
        if support_radius * D * k != radius:
            raise InternalInvariantError(
                f"support radius at {(x, p)!r} is {support_radius}, "
                f"but {radius}/{D * k} in units"
            )

    stats = {
        "pairs_checked": len(pairs),
        "worst_ratio": format_ratio(values[worst]),
        "support_radius": str(support_radius),
    }
    return VerifyReport(
        ok=not violations,
        violations=tuple(violations),
        stats=stats,
        ratios=tuple(ratios),
        radii=radii,
        support_radius=support_radius,
    )


def _all_str(values) -> bool:
    return set(map(type, values)) <= {str}


def first_divergence(a, b, path=""):
    """First differing field between two JSON-like trees, depth-first in
    sorted key order; None when equal.

    Equal dicts whose values are exactly ``str`` on both sides (a
    certificate's cases, radii and bounds) return None without a walk.
    Anything else is walked, since ``==`` alone takes ``true`` for ``1`` and
    ``39.0`` for ``39``."""
    if type(a) is not type(b):
        return path or "<root>"
    if isinstance(a, dict):
        if a == b and _all_str(a.values()) and _all_str(b.values()):
            return None
        for key in sorted(set(a) | set(b)):
            here = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                return here
            sub = first_divergence(a[key], b[key], here)
            if sub is not None:
                return sub
        return None
    if isinstance(a, list):
        for i in range(min(len(a), len(b))):
            sub = first_divergence(a[i], b[i], f"{path}[{i}]")
            if sub is not None:
                return sub
        if len(a) != len(b):
            return f"{path}[{min(len(a), len(b))}]"
        return None
    return None if a == b else (path or "<root>")


def verify_certificate(prep, naive, certificate_jsonable) -> VerifyReport:
    """Check the certificate's claims against facts recomputed from the instance.

    ``naive`` is ``verify_naive``'s report on the output with tail spacing S
    and the pairs of ``prep.report``, whose set ratios and radii are facts of
    the output's subsets; ``prep``, the instance's ``Prepared``, gives L, N,
    the bounds, the input ratios and the classes. The certificate must equal
    the one these facts make; no output ratio may exceed its input ratio, and
    no radius its case bound.
    """
    try:
        prep.require_admitted()
    except PreconditionError as exc:
        detail = {"condition": "recompute_failed", "detail": str(exc)}
        return VerifyReport(ok=False, violations=(detail,), stats={})
    report, decomp, bounds = prep.report, prep.decomposition, prep.bounds
    cases, violations = {}, []
    for x, radius in naive.radii.items():
        case = _LABELS[decomp.components[decomp.owner[x]].cls]
        if case == "3a" and radius > bounds["case1"]:
            case = "3b"
        cases[x] = case
        if radius > bounds["case" + case[0]]:
            violations.append({"condition": "radius_above_bound", "x": x})
    # an input ratio is finite, since the instance was admitted
    rows = []
    worst = Fraction(0)
    worst_terms = (0, 1)
    for (x, y, rin), rout in zip(report.pairs, naive.ratios, strict=True):
        n, d = ratio_terms(rout)
        if n * rin.denominator > rin.numerator * d:
            violations.append({"condition": "output_ratio_above_input", "x": x, "y": y})
        if n * worst_terms[1] > worst_terms[0] * d:
            worst, worst_terms = rout, (n, d)
        rows.append((x, y, rin, rout))
    recomputed = Certificate(
        params=report.params,
        cases=cases,
        radii=naive.radii,
        pairs=tuple(rows),
        worst_ratio=worst,
        worst_radius=naive.support_radius,
        bounds=bounds,
        unit=prep.aug.unit,
    ).to_jsonable()
    divergence = first_divergence(certificate_jsonable, recomputed, "certificate")
    if divergence is not None:
        violations.insert(0, {"condition": "certificate_mismatch", "field": divergence})
    return VerifyReport(ok=not violations, violations=tuple(violations), stats={})


@dataclass(frozen=True)
class FlowSuiteSpec:
    """Exhaustive suite over every chain on a successor path.

    Chains live on the first ``points`` vertices with entries up to
    ``max_value``; the path itself, which ends on a tail, is long enough that
    no flow ever needs a successor beyond it.
    """

    points: int
    max_value: int

    def window(self) -> int:
        return self.points + self.points * self.max_value + 1


@dataclass(frozen=True)
class MonitorReport:
    ok: bool
    chains_checked: int
    pairs_checked: int
    failures: tuple


def _leq(a, b):
    return all(b.get(p, 0) >= v for p, v in a.items())


def flow_monitor(suite: FlowSuiteSpec) -> MonitorReport:
    """Brute-force oracle for the redistribution laws.

    Checks, for every chain: l1 preservation, the fixed-point
    characterization (one step is the identity exactly when there is no
    excess), the stabilization bound and final support size, support drift
    by at most one successor hop, and that ``stabilize`` ends where
    synchronous stepping ends, within ||a|| firings. For every ordered pair:
    meet growth, difference contraction, and monotonicity.
    """
    if suite.points < 1 or suite.max_value < 0:
        raise MalformedInputError("suite needs >= 1 point and a nonnegative max value")
    width = len(str(suite.window() - 1))
    ids = [f"w{i:0{width}d}" for i in range(suite.window())]
    successor = {ids[i]: ids[i + 1] for i in range(len(ids) - 1)}
    successor[ids[-1]] = (ids[-1], 1)
    flow = FlowMap(base_successor=successor, tail_cap=0)
    failures = []

    def fail(msg):
        if len(failures) < 10:
            failures.append(msg)

    all_chains = []
    for values in itertools.product(range(suite.max_value + 1), repeat=suite.points):
        chain = {ids[i]: v for i, v in enumerate(values) if v > 0}
        all_chains.append(chain)

    stepped = []
    for a in all_chains:
        s1 = step(flow, a)
        stepped.append(s1)
        mass = l1_norm(a)
        if l1_norm(s1) != mass:
            fail(f"l1 changed for {a}")
        base, excess = split(a)
        if (s1 == a) != (not excess):
            fail(f"fixed-point law broken for {a}")
        allowed = set(a) | {successor[p] for p in a}
        if not set(s1) <= allowed:
            fail(f"support drifted more than one hop for {a}")
        final, count = a, 0
        for final in iterate(flow, a):
            count += 1
        if count > mass * l1_norm(excess):
            fail(f"stabilization bound exceeded for {a}")
        if len(final) != mass or any(v != 1 for v in final.values()):
            fail(f"stabilized result is not an indicator of mass {mass} for {a}")
        settled, firings = stabilize(flow, a)
        if settled != final:
            fail(f"one-pass settling differs from synchronous stepping for {a}")
        if firings > mass:
            fail(f"{firings} firings exceed the mass {mass} for {a}")

    pairs = 0
    for i, a in enumerate(all_chains):
        sa = stepped[i]
        for j, b in enumerate(all_chains):
            sb = stepped[j]
            pairs += 1
            if l1_norm(meet(sa, sb)) < l1_norm(meet(a, b)):
                fail(f"meet shrank for {a} vs {b}")
            if diff_l1(sa, sb) > diff_l1(a, b):
                fail(f"difference grew for {a} vs {b}")
            if _leq(a, b) and not _leq(sa, sb):
                fail(f"monotonicity broken for {a} <= {b}")

    return MonitorReport(
        ok=not failures,
        chains_checked=len(all_chains),
        pairs_checked=pairs,
        failures=tuple(failures),
    )
