"""Independent verification.

verify_naive re-derives the ratio of every qualifying pair it is given
(admission's, which come from the space alone) and the support radius from
the space and the proposed subsets alone. It checks each distinct subset
object once (a point whose member list repeats the previous point's list
shares its subset, which ``load_output`` builds from the instance's ids as
it decodes the file), and keeps a subset's split only when two or more
points hold it. The split checks only the members outside the space, in
sorted order, so a bad member is named the same whatever the hash seed.
A shared subset's radius at a point is one ``metric.eccentricity`` over its
base members, and a subset held by one point takes one ``metric.farthest``
over them, not a distance per member.
A subset may be a tuple of distinct members, as ``load_output`` builds
it, or a set. The pairs come sorted by x, so each run of pairs whose x
holds one subset makes one frozenset of it and meets each y's subset as
it stands: a set is built only while the pairs of its point read it.
As in ``chains``, a ratio is an int pair, (s, i) = (|A ^ B|, |A & B|) for
two subsets; every verdict (a ratio against epsilon, or an output ratio
against its input ratio) is a cross-multiplication of ints, and each call
builds one shared Fraction per distinct ratio for its report.
verify_certificate checks each claim of the certificate against those
facts, admission's report, the case bounds and each point's case, as
``space.component_cases`` decides it from the space. It never classifies,
augments or flows anything, and reads no label from the file: the
certificate must equal the one the facts make, field by field and with the
same JSON types (so the file's whitespace does not matter), in one walk
of ``first_divergence``. The facts' pair rows are never built as a list:
the expected tree holds, at ``"pairs"``, the check that compares the file's
rows, which the decoder hands over as tuples in ``PAIR_KEYS`` order when
they are in the layout ``run`` writes and as the stdlib's dicts otherwise,
one at a time with the rows admission's pairs and the set ratios make.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .chains import InstanceReport, Ratios, case_bounds, format_ratio, ratio_terms
# Not called here: perfbench/layers.py looks these names up in this module.
from .chains import qualifying_pairs, set_ratio  # noqa: F401
from .errors import (
    InternalInvariantError,
    MalformedInputError,
    PreconditionError,
    UnknownPointError,
)
from .instance_io import PAIR_KEYS, Certificate, ratio_texts
from .space import Space


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    violations: tuple
    stats: dict
    # facts for verify_certificate, not printed: the set ratio of each
    # qualifying pair in order, each point's radius in units of 1/unit = 1/(D*k),
    # and the largest radius re-derived as the exact maximum over its subset
    ratios: tuple = ()
    radii: dict = field(default_factory=dict)
    support_radius: Fraction = Fraction(0)
    unit: int = 1


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


def _member_key(p):
    """``augment.aug_sort_key`` (kept apart, since the checker imports
    nothing of the tails): each base id, then the tail points at it by index."""
    if isinstance(p, tuple):
        return (p[0], 1, p[1])
    return (p, 0, 0)


def _split(space, hint_anchors, spacing, subset):
    """Return the base members of ``subset`` and, per tail anchor, the
    largest tail index. A member of the space is never bad, so only the
    others are checked, in ``_member_key`` order: the first bad one there
    raises, whatever the hash seed (members that key cannot compare, which
    ``parse_subsets`` never yields, go in ``repr`` order)."""
    if space.point_set.issuperset(subset):
        return subset, {}
    rest = set(subset) - space.point_set
    try:
        rest = sorted(rest, key=_member_key)
    except TypeError:
        rest = sorted(rest, key=repr)
    tails = {}
    for p in rest:
        if not isinstance(p, tuple):
            raise UnknownPointError(f"subset contains unknown point {p!r}")
        anchor, index = _tail_member(space, hint_anchors, spacing, p)
        if index > tails.get(anchor, 0):
            tails[anchor] = index
    return space.point_set.intersection(subset), tails


def verify_naive(
    space: Space,
    subsets,
    pairs,
    epsilon,
    tail_spacing=None,
    hint_anchors=None,
) -> VerifyReport:
    """Check a subset family directly against the two defining conditions.

    ``subsets`` maps each point to a tuple of distinct members or to a set.
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
    # the pairs of one x come one after another, and the points of a case-2
    # component share one subset, so each run of pairs whose x holds one
    # subset builds one frozenset of it, and meets y's subset as it stands
    held = A = None
    for x, y in pairs:
        B = subsets[y]
        if subsets[x] is not held:
            held = subsets[x]
            A = frozenset(held)
        i = len(B) if B is held else len(A.intersection(B))
        s = len(A) + len(B) - 2 * i
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
    # each distinct subset object is checked and split once. A subset that
    # several points share takes one eccentricity per point; one held once
    # takes one farthest, which settles a graph row no further than its members
    metric = space.metric
    holders = Counter(id(subsets[x]) for x in space.points)
    parts = {}
    radii = {}
    radius, worst_x = 0, None
    for x in space.points:
        A = subsets[x]
        part = parts.get(id(A))
        if part is None:
            part = _split(space, hint_anchors, spacing, A)
            if holders[id(A)] > 1:  # only a shared split is read again
                parts[id(A)] = part
        base, tails = part
        if not base:
            d = 0
        elif holders[id(A)] > 1:
            d = k * metric.eccentricity(x, base)
        else:
            d = k * metric.farthest(x, base)
        for anchor, index in tails.items():
            d = max(d, k * metric.dist(x, anchor) + index * spacing)
        radii[x] = d
        if d > radius:
            radius, worst_x = d, x
    # re-derive the radius as the exact maximum of the rational metric over
    # the worst point's subset, which checks the int scaling; a mismatch names
    # the first member at that maximum in _member_key order, whatever the hash seed
    support_radius = Fraction(0)
    if worst_x is not None:
        x, far = worst_x, None
        for p in sorted(subsets[x], key=_member_key):
            if isinstance(p, tuple):
                d = space.dist(x, p[0]) + p[1] * Fraction(tail_spacing)
            else:
                d = space.dist(x, p)
            if far is None or d > support_radius:
                support_radius, far = d, p
        if support_radius * D * k != radius:
            raise InternalInvariantError(
                f"support radius at {(x, far)!r} is {support_radius}, "
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
        unit=D * k,
    )


def _all_str(values) -> bool:
    return set(map(type, values)) <= {str}


def first_divergence(a, b, path=""):
    """First field where the file's tree ``a`` differs from the expected tree
    ``b``, depth-first in sorted key order; None when equal.

    An expected value that is callable checks its place itself: it is called
    with the file's value there and that path, and returns the same. Equal
    dicts whose values are exactly ``str`` on both sides (a certificate's
    cases, radii and bounds) return None without a walk. Any other dict is
    walked, since ``==`` alone takes ``true`` for ``1`` and ``39.0`` for
    ``39``; the expected tree holds no list."""
    if callable(b):
        return b(a, path)
    if type(a) is not type(b):
        return path or "<root>"
    if isinstance(a, dict):
        if _all_str(b.values()) and a == b and _all_str(a.values()):
            return None
        for key in sorted(set(a) | set(b)):
            here = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                return here
            sub = first_divergence(a[key], b[key], here)
            if sub is not None:
                return sub
        return None
    return None if a == b else (path or "<root>")


def _pairs_divergence(rows, report: InstanceReport, naive, path):
    """``first_divergence`` of the file's pair rows and the rows that
    admission's pairs and the output's set ratios make, one row at a time.
    A tuple row (the decoder's, in ``PAIR_KEYS`` order) is compared field by
    field, and any other row against the expected row's dict."""
    if type(rows) is not list:
        return path
    ratio = ratio_texts()
    for i, (row, (x, y, rin), rout) in enumerate(zip(rows, report.pairs, naive.ratios)):
        expected = (ratio(rin), ratio(rout), x, y)
        if type(row) is tuple:
            if row != expected:
                return next(f"{path}[{i}].{key}"
                            for key, a, b in zip(PAIR_KEYS, row, expected) if a != b)
        else:
            sub = first_divergence(row, dict(zip(PAIR_KEYS, expected)), f"{path}[{i}]")
            if sub is not None:
                return sub
    if len(rows) != len(report.pairs):
        return f"{path}[{min(len(rows), len(report.pairs))}]"
    return None


def verify_certificate(report: InstanceReport, cases, naive, certificate_jsonable) -> VerifyReport:
    """Check the certificate's claims against facts recomputed from the instance.

    ``report`` is admission's: L, N and the input ratios. ``cases`` maps each
    point to its component's case, "1", "2" or "3" (``space.component_cases``).
    ``naive`` is ``verify_naive``'s report on the output with tail spacing S
    and the pairs of ``report``: the output's set ratios and radii. A case-3
    point is 3b exactly when its radius exceeds the case-1 bound, which a 3a
    support stays within and 3b markers pass. The certificate must equal the
    one these facts make; no output ratio may exceed its input ratio, and no
    radius its case bound.
    """
    try:
        report.require_admitted()
    except PreconditionError as exc:
        detail = {"condition": "recompute_failed", "detail": str(exc)}
        return VerifyReport(ok=False, violations=(detail,), stats={})
    bounds = case_bounds(report.params, naive.unit)
    labels, violations = {}, []
    for x, radius in naive.radii.items():
        case = cases[x]
        if case == "3":
            case = "3b" if radius > bounds["case1"] else "3a"
        labels[x] = case
        if radius > bounds["case" + case[0]]:
            violations.append({"condition": "radius_above_bound", "x": x})
    # an input ratio is finite, since the instance was admitted
    worst = Fraction(0)
    worst_terms = (0, 1)
    for (x, y, rin), rout in zip(report.pairs, naive.ratios, strict=True):
        n, d = ratio_terms(rout)
        if n * rin.denominator > rin.numerator * d:
            violations.append({"condition": "output_ratio_above_input", "x": x, "y": y})
        if n * worst_terms[1] > worst_terms[0] * d:
            worst, worst_terms = rout, (n, d)
    recomputed = Certificate(
        params=report.params,
        cases=labels,
        radii=naive.radii,
        pairs=(),
        worst_ratio=worst,
        worst_radius=naive.support_radius,
        bounds=bounds,
        unit=naive.unit,
    ).to_jsonable()
    recomputed["pairs"] = lambda rows, path: _pairs_divergence(rows, report, naive, path)
    divergence = first_divergence(certificate_jsonable, recomputed, "certificate")
    if divergence is not None:
        violations.insert(0, {"condition": "certificate_mismatch", "field": divergence})
    return VerifyReport(ok=not violations, violations=tuple(violations), stats={})
