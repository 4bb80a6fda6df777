"""Brute-force oracles for the flow's redistribution laws.

The package never calls these; they check it from outside. ``meet`` and
``diff_l1`` compute a meet and an l1 difference from first principles, and
``flow_monitor`` brute-forces every small chain on a successor path, checks
the redistribution laws exhaustively, and checks the one-pass settler
against synchronous stepping.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from naivea.chains import l1_norm
from naivea.errors import MalformedInputError
from naivea.flow import FlowMap, iterate, split, stabilize, step


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
