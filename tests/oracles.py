"""Brute-force oracles for the flow's redistribution laws and the
certificate check.

The package never calls these; they check it from outside. ``split``,
``meet`` and ``diff_l1`` compute a chain's support indicator and excess, a
meet and an l1 difference from first principles, and
``flow_monitor`` brute-forces every small chain on a successor path, checks
the redistribution laws exhaustively, and checks the one-pass settler
against synchronous stepping. ``certificate_violations`` checks a
certificate by building the whole recomputed one, every pair row included,
and walking both trees with ``tree_divergence``. ``canonical_dumps`` is the
canonical writer's text as one string, and ``materialize`` lists an
augmented space's points up to a tail depth.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from naivea.chains import case_bounds, l1_norm
from naivea.errors import MalformedInputError, PreconditionError
from naivea.flow import FlowMap, iterate, stabilize, step
from naivea.instance_io import Certificate, _render


def canonical_dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    as ``write_canonical`` writes it."""
    chunks = []
    _render(obj, chunks.append)
    return "".join(chunks)


def materialize(aug, max_index: int) -> list:
    """Every base point of ``aug``, then each component's tail points up to
    ``max_index``."""
    pts = list(aug.space.points)
    for comp in aug.decomposition.components:
        pts.extend((comp.anchor, j) for j in range(1, max_index + 1))
    return pts


def split(a) -> tuple[dict, dict]:
    """Decompose a chain into its support indicator and the excess."""
    base = {p: 1 for p in a}
    excess = {p: v - 1 for p, v in a.items() if v > 1}
    return base, excess


def meet(a, b) -> dict:
    """Pointwise minimum of two chains."""
    if len(b) < len(a):
        a, b = b, a
    return {p: min(v, b[p]) for p, v in a.items() if p in b}


def diff_l1(a, b) -> int:
    """l1 norm of the pointwise difference."""
    total = 0
    for p, v in a.items():
        total += abs(v - b.get(p, 0))
    for p, v in b.items():
        if p not in a:
            total += v
    return total


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


def tree_divergence(a, b, path=""):
    """The first differing field of two JSON-like trees, depth-first in
    sorted key order and with exact types (``1`` is not ``true``, nor
    ``39.0`` ``39``); None when equal."""
    if type(a) is not type(b):
        return path or "<root>"
    if isinstance(a, dict):
        for key in sorted(set(a) | set(b)):
            here = f"{path}.{key}" if path else str(key)
            if key not in a or key not in b:
                return here
            sub = tree_divergence(a[key], b[key], here)
            if sub is not None:
                return sub
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            sub = tree_divergence(x, y, f"{path}[{i}]")
            if sub is not None:
                return sub
        return None if len(a) == len(b) else f"{path}[{min(len(a), len(b))}]"
    return None if a == b else (path or "<root>")


def certificate_violations(report, cases, naive, certificate_jsonable) -> tuple:
    """The violations ``verify_certificate(report, cases, naive,
    certificate_jsonable)`` reports, found by recomputing the whole
    certificate, every pair row included, through ``Certificate.to_jsonable``
    and comparing it with ``tree_divergence``."""
    try:
        report.require_admitted()
    except PreconditionError as exc:
        return ({"condition": "recompute_failed", "detail": str(exc)},)
    bounds = case_bounds(report.params, naive.unit)
    labels, violations = {}, []
    for x, radius in naive.radii.items():
        case = cases[x]
        if case == "3":
            case = "3b" if radius > bounds["case1"] else "3a"
        labels[x] = case
        if radius > bounds["case" + case[0]]:
            violations.append({"condition": "radius_above_bound", "x": x})
    rows, worst = [], Fraction(0)
    for (x, y, rin), rout in zip(report.pairs, naive.ratios, strict=True):
        if rout > rin:  # the infinite ratio is a float, above every Fraction
            violations.append({"condition": "output_ratio_above_input", "x": x, "y": y})
        worst = max(worst, rout)
        rows.append((x, y, rin, rout))
    recomputed = Certificate(
        params=report.params,
        cases=labels,
        radii=naive.radii,
        pairs=tuple(rows),
        worst_ratio=worst,
        worst_radius=naive.support_radius,
        bounds=bounds,
        unit=naive.unit,
    ).to_jsonable()
    divergence = tree_divergence(certificate_jsonable, recomputed, "certificate")
    if divergence is not None:
        violations.insert(0, {"condition": "certificate_mismatch", "field": divergence})
    return tuple(violations)
