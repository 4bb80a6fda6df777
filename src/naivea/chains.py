"""Sparse nonnegative-integer chains and the witness-family admission check.

A chain is a plain dict mapping points to positive integer multiplicities;
operations are free functions so the flow and verifier stay allocation-light.

Both of the paper's conditions are ratios of int masses, so every ratio
check runs on int pairs: (d, m) for two chains, with m the meet's mass and
d = ||a|| + ||b|| - 2m, and (s, i) = (|A ^ B|, |A & B|) for two subsets. A
verdict is a cross-multiplication (n/d >= p/q when n*q >= p*d, for n > 0).
A ratio becomes a value only for a report, through one ``Ratios`` table per
call, which no caller keeps beyond the call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import InternalInvariantError, MalformedInputError, PreconditionError
from .rational import floor_units, format_rational
from .space import Space

INFINITE = math.inf


def make_chain(entries) -> dict:
    """Validate and normalize a chain: positive int values, zeros dropped.
    A chain of positive ints is returned as it stands, since no caller
    mutates a chain; any other goes through the loop, which raises at its
    first bad value."""
    values = entries.values()
    if set(map(type, values)) <= {int} and min(values, default=1) > 0:
        return entries
    out = {}
    for p, v in entries.items():
        if not isinstance(v, int) or isinstance(v, bool):
            raise MalformedInputError(f"chain value for {p!r} must be an int, got {v!r}")
        if v < 0:
            raise MalformedInputError(f"chain value for {p!r} is negative")
        if v > 0:
            out[p] = v
    return out


def l1_norm(a) -> int:
    return sum(a.values())


def ratio(n, d):
    """The value of n/d for ints n, d >= 0: Fraction(0) when n is 0, else
    INFINITE when d is 0."""
    if n == 0:
        return Fraction(0)
    if d == 0:
        return INFINITE
    return Fraction(n, d)


class Ratios(dict):
    """One call's ratio values: ``table[n, d]`` is ``ratio(n, d)``, built
    once per distinct (n, d) and shared by every pair that has it."""

    def __missing__(self, key):
        value = self[key] = ratio(*key)
        return value


def ratio_terms(q) -> tuple:
    """(n, d) with q = n/d for a ratio value; INFINITE is (1, 0)."""
    if isinstance(q, float):
        return 1, 0
    return q.numerator, q.denominator


def meet_mass(a, b) -> int:
    """||a ^ b||_1, by one walk over the smaller chain."""
    if len(b) < len(a):
        a, b = b, a
    m = 0
    for p, v in a.items():
        w = b.get(p)
        if w is not None:
            m += v if v < w else w
    return m


def set_terms(A, B) -> tuple:
    """(|A ^ B|, |A & B|) for two sets or frozensets, from one intersection;
    one collection of distinct members given twice needs no intersection."""
    i = len(A) if A is B else len(A & B)
    return len(A) + len(B) - 2 * i, i


def variation_ratio(a, b):
    """||a - b||_1 / ||a ^ b||_1, exactly; 0 when equal, INFINITE when the
    meet is empty and the chains differ; ||a - b||_1 = ||a|| + ||b|| - 2m
    for the meet's mass m."""
    m = meet_mass(a, b)
    return ratio(l1_norm(a) + l1_norm(b) - 2 * m, m)


def set_ratio(A, B):
    """|A ^ B| / |A & B| for two sets or frozensets, with the same conventions."""
    return ratio(*set_terms(A, B))


def format_ratio(q) -> str:
    if q == INFINITE:
        return "INF"
    return format_rational(q)


@dataclass(frozen=True)
class ChainFamily:
    chains: dict  # point id -> chain


def from_sets(sets: dict, multiplicity_bound: int) -> ChainFamily:
    """Collapse the leveled subsets A_x of X x {0..M-1}, the raw witness
    form, to chains: a_x(z) = number of levels at which (z, level) sits in A_x."""
    M = multiplicity_bound
    if not isinstance(M, int) or isinstance(M, bool) or M < 1:
        raise MalformedInputError(f"multiplicity bound must be a positive int, got {M!r}")
    chains = {}
    for x, pairs in sets.items():
        chain: dict = {}
        seen = set()
        for item in pairs:
            try:
                z, level = item
            except (TypeError, ValueError):
                z = None
            if not isinstance(z, str):
                raise MalformedInputError(f"set element must be (point, level), got {item!r}")
            if not isinstance(level, int) or isinstance(level, bool) or not (0 <= level < M):
                raise MalformedInputError(
                    f"level {level!r} for {x!r} outside range(0, {M})"
                )
            if (z, level) in seen:
                raise MalformedInputError(f"duplicate element ({z!r}, {level}) in set for {x!r}")
            seen.add((z, level))
            chain[z] = chain.get(z, 0) + 1
        if not chain:
            raise PreconditionError(f"empty witness set for {x!r}")
        chains[x] = chain
    return ChainFamily(chains=chains)


@dataclass(frozen=True)
class InstanceParams:
    R: Fraction
    epsilon: Fraction
    S: Fraction
    L: int | None = None
    N: int | None = None

    def __post_init__(self):
        if self.R <= 0:
            raise MalformedInputError(f"R must be positive, got {self.R}")
        if self.epsilon <= 0:
            raise MalformedInputError(f"epsilon must be positive, got {self.epsilon}")
        if self.S <= self.R:
            raise PreconditionError(f"S must exceed R (got S={self.S}, R={self.R})")
        if self.L is not None:
            if self.L < 1:
                raise MalformedInputError(f"L must be >= 1, got {self.L}")
            if self.N != self.L * self.L + 2:
                raise MalformedInputError(f"N must equal L^2+2, got L={self.L}, N={self.N}")


def case_bounds(params: InstanceParams, unit: int) -> dict:
    """The radius bound of each case for completed params, as ints in units
    of 1/unit, in which S must be whole: S+SL^2 for case 1, 6S+8SN for case
    2 and overall, and 4S+6SN for case 3."""
    spacing = params.S * unit
    if spacing.denominator != 1:
        raise InternalInvariantError(f"S = {params.S} is not whole in units of 1/{unit}")
    S, L, N = spacing.numerator, params.L, params.N
    return {
        "case1": S + S * L * L,
        "case2": 6 * S + 8 * S * N,
        "case3": 4 * S + 6 * N * S,
        "overall": 6 * S + 8 * S * N,
    }


@dataclass(frozen=True)
class InstanceReport:
    ok: bool
    violations: tuple
    params: InstanceParams
    pairs: tuple = ()  # (x, y, variation ratio) per qualifying pair

    def require_admitted(self):
        """Admission records a failure rather than raise it: ``run`` and ``trace``
        exit 3 on this error, and ``verify`` reports it as ``recompute_failed``."""
        if not self.ok:
            raise PreconditionError(
                f"instance fails admission with {len(self.violations)} violation(s)",
                report=self,
            )


def qualifying_pairs(space: Space, R):
    """Ordered (x, y) pairs with x < y and d(x, y) <= R."""
    pairs = []
    for x in space.points:
        for y in space.metric.neighbors_within(x, R):
            if y > x:
                pairs.append((x, y))
    pairs.sort()
    return pairs


def check_instance(space: Space, family: ChainFamily, R, epsilon, S) -> InstanceReport:
    """Admission check for a chain family.

    Verifies every chain is supported within distance S of its owner and that
    neighboring chains (d <= R) have variation ratio below epsilon; derives
    L = 1 + max mass and N = L^2 + 2. Each chain is validated in bulk (its
    members against the point set, its support by one ``metric.within``);
    the member loops run only to raise the first error or to list a chain's
    violations in order. Each pair's verdict is (d, m) cross-multiplied with
    epsilon, and ``pairs`` holds one shared value per distinct (d, m).
    """
    params = InstanceParams(R=Fraction(R), epsilon=Fraction(epsilon), S=Fraction(S))
    chains = family.chains
    point_set = space.point_set
    for x in space.points:
        a = chains.get(x)
        if a is None:
            raise PreconditionError(f"no chain for point {x!r}")
        if not a:
            raise PreconditionError(f"empty chain for point {x!r}")
        if not a.keys() <= point_set:
            z = next(z for z in a if z not in point_set)
            raise MalformedInputError(f"chain for {x!r} names unknown point {z!r}")
    if not chains.keys() <= point_set:
        x = next(x for x in chains if x not in point_set)
        raise MalformedInputError(f"chain owner {x!r} is not a point of the space")

    violations = []
    metric = space.metric
    support_limit = floor_units(params.S, metric.denominator)
    for x in space.points:
        a = chains[x]
        if metric.within(x, a, support_limit):
            continue
        for z in a:  # list this chain's violations in its own order
            if metric.dist(x, z) > support_limit:
                violations.append(
                    {
                        "condition": "support_radius",
                        "x": x,
                        "point": z,
                        "distance": str(space.dist(x, z)),
                    }
                )
    mass = {x: l1_norm(chains[x]) for x in space.points}
    values = Ratios()
    p, q = params.epsilon.numerator, params.epsilon.denominator
    pairs = []
    for x, y in qualifying_pairs(space, params.R):
        m = meet_mass(chains[x], chains[y])
        d = mass[x] + mass[y] - 2 * m
        ratio_xy = values[d, m]
        pairs.append((x, y, ratio_xy))
        if d and d * q >= p * m:  # d/m >= epsilon
            violations.append(
                {"condition": "variation_ratio", "x": x, "y": y, "ratio": format_ratio(ratio_xy)}
            )

    L = 1 + max(mass.values())
    params = replace(params, L=L, N=L * L + 2)
    return InstanceReport(
        ok=not violations, violations=tuple(violations), params=params, pairs=tuple(pairs)
    )
