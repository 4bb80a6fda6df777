"""Seeded instance generators.

Every generator is a pure function of (kind, params, seed) and produces the
space, a chain family, and the instance parameters; identical inputs yield
byte-identical instances once serialized.
"""
from __future__ import annotations

import math
import random
from dataclasses import replace
from fractions import Fraction

from .chains import ChainFamily, InstanceParams
from .errors import MalformedInputError
from .rational import parse_rational
from .space import GraphMetric, PositionMetric, Space, UnboundedHint

SPACE_KINDS = ("line", "grid", "disjoint_union_paths", "cayley_cyclic")
KINDS = SPACE_KINDS + ("weighted_ball",)


def _int_param(params, key, default=None, minimum=1):
    value = params.get(key, default)
    if value is None:
        raise MalformedInputError(f"generator params missing {key!r}")
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedInputError(f"generator param {key!r} must be an int, got {value!r}")
    if value < minimum:
        raise MalformedInputError(f"generator param {key!r} must be >= {minimum}, got {value}")
    return value


def _bool_param(params, key, default):
    value = params.get(key, default)
    if not isinstance(value, bool):
        raise MalformedInputError(f"generator param {key!r} must be a bool, got {value!r}")
    return value


def _radii_param(params):
    # default keeps S=2 above the default R=1
    radii = params.get("radii", ["2"])
    if not isinstance(radii, list) or not radii:
        raise MalformedInputError("generator param 'radii' must be a non-empty list")
    parsed = [parse_rational(r) for r in radii]
    for r in parsed:
        if r < 0:
            raise MalformedInputError(f"ball radius must be nonnegative, got {r}")
    if any(parsed[i] < parsed[i + 1] for i in range(len(parsed) - 1)):
        raise MalformedInputError("radii must be non-increasing")
    return parsed


def _space_line(params, seed):
    count = _int_param(params, "count")
    step = parse_rational(params.get("step", "1"))
    if step <= 0:
        raise MalformedInputError(f"line step must be positive, got {step}")
    width = len(str(count - 1))
    ids = [f"p{i:0{width}d}" for i in range(count)]
    # positions i*step in units of 1/step.denominator
    positions = {pid: i * step.numerator for i, pid in enumerate(ids)}
    hints = ()
    if _bool_param(params, "unbounded", False):
        hints = (UnboundedHint(component_of=ids[0], ray=tuple(ids)),)
    return Space(
        points=tuple(ids), metric=PositionMetric(positions, step.denominator), hints=hints
    )


def _space_grid(params, seed):
    rows = _int_param(params, "rows")
    cols = _int_param(params, "cols")
    rw, cw = len(str(rows - 1)), len(str(cols - 1))
    ids = {(r, c): f"n{r:0{rw}d}_{c:0{cw}d}" for r in range(rows) for c in range(cols)}
    adjacency = {pid: [] for pid in ids.values()}
    for (r, c), pid in ids.items():
        if r + 1 < rows:
            other = ids[(r + 1, c)]
            adjacency[pid].append((other, 1))
            adjacency[other].append((pid, 1))
        if c + 1 < cols:
            other = ids[(r, c + 1)]
            adjacency[pid].append((other, 1))
            adjacency[other].append((pid, 1))
    return Space(points=tuple(sorted(ids.values())), metric=GraphMetric(adjacency))


def _space_disjoint_union_paths(params, seed):
    count = _int_param(params, "count")
    min_len = _int_param(params, "min_len", default=5)
    max_len = _int_param(params, "max_len", default=max(min_len, 300), minimum=min_len)
    gap = _int_param(params, "gap", default=1000)
    rng = random.Random(seed)
    lengths = [rng.randint(min_len, max_len) for _ in range(count)]
    pw = len(str(count - 1))
    iw = len(str(max_len - 1))
    positions = {}
    offset = 0
    for k, length in enumerate(lengths):
        for i in range(length):
            positions[f"u{k:0{pw}d}p{i:0{iw}d}"] = offset + i
        offset += length - 1 + gap
    return Space(points=tuple(sorted(positions)), metric=PositionMetric(positions))


def _space_cayley_cyclic(params, seed):
    n = _int_param(params, "n", minimum=2)
    gens = params.get("generators", [1])
    if not isinstance(gens, list) or not gens:
        raise MalformedInputError("generator param 'generators' must be a non-empty list")
    steps = set()
    for g in gens:
        if not isinstance(g, int) or isinstance(g, bool) or g % n == 0:
            raise MalformedInputError(f"bad cyclic generator {g!r} for n={n}")
        steps.add(g % n)
        steps.add((-g) % n)
    if math.gcd(n, *steps) != 1:
        raise MalformedInputError(
            f"generators {gens!r} do not generate the cyclic group of order {n}"
        )
    width = len(str(n - 1))
    ids = [f"g{i:0{width}d}" for i in range(n)]
    adjacency = {pid: [] for pid in ids}
    seen = set()
    for i in range(n):
        for s in sorted(steps):
            j = (i + s) % n
            key = (min(i, j), max(i, j))
            if i == j or key in seen:
                continue
            seen.add(key)
            adjacency[ids[i]].append((ids[j], 1))
            adjacency[ids[j]].append((ids[i], 1))
    hints = ()
    if _bool_param(params, "emulate_unbounded", True):
        hints = (UnboundedHint(component_of=ids[0], ray=tuple(ids)),)
    return Space(points=tuple(ids), metric=GraphMetric(adjacency), hints=hints)


_SPACE_BUILDERS = {
    "line": _space_line,
    "grid": _space_grid,
    "disjoint_union_paths": _space_disjoint_union_paths,
    "cayley_cyclic": _space_cayley_cyclic,
}


def _ball_sum_chains(space: Space, radii) -> ChainFamily:
    """a_x(z) = #{r in radii : d(x, z) <= r}. The radii do not increase, so
    each ball lies inside the one before it."""
    neighbors_within = space.metric.neighbors_within
    chains = {}
    for x in space.points:
        chain = dict.fromkeys(neighbors_within(x, radii[0]), 1)
        for count, r in enumerate(radii[1:], 2):
            chain.update(dict.fromkeys(neighbors_within(x, r), count))
        chains[x] = chain
    return ChainFamily(chains=chains)


def gen_space(kind, params, seed=0) -> tuple[Space, list, InstanceParams]:
    """Space, ball radii and instance parameters of a generator spec; every
    check on the spec is made here, so files that carry chains get them too."""
    if not isinstance(params, dict):
        raise MalformedInputError("generator params must be a dict")
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise MalformedInputError(f"seed must be an int, got {seed!r}")
    # kinds are looked up in the SPACE_KINDS tuple, not the builder dict, so a
    # kind that is not a string (a list, say) is unknown instead of unhashable
    if kind == "weighted_ball":
        inner = params.get("space")
        if not isinstance(inner, dict) or "kind" not in inner:
            raise MalformedInputError("weighted_ball needs a nested 'space' generator spec")
        inner_kind = inner["kind"]
        if inner_kind not in SPACE_KINDS:
            raise MalformedInputError(f"unknown space kind {inner_kind!r} inside weighted_ball")
        inner_params = inner.get("params", {})
        if not isinstance(inner_params, dict):
            raise MalformedInputError("generator params must be a dict")
        space = _SPACE_BUILDERS[inner_kind](inner_params, seed)
        radii = _radii_param(params)
    elif kind in SPACE_KINDS:
        if kind == "cayley_cyclic":
            k = _int_param(params, "folner_radius")
            radii = [Fraction(k)]
        else:
            radii = _radii_param(params)
        space = _SPACE_BUILDERS[kind](params, seed)
    else:
        raise MalformedInputError(f"unknown generator kind {kind!r}")

    instance_params = InstanceParams(
        R=parse_rational(params.get("R", "1")),
        epsilon=parse_rational(params.get("epsilon", "1")),
        S=max(radii),
    )
    spec = {"type": "generator", "kind": kind, "params": params, "seed": seed}
    return replace(space, metric_spec=spec), radii, instance_params


def gen_instance(kind, params, seed=0) -> tuple[Space, ChainFamily, InstanceParams]:
    """Build a full instance for one of the named generator kinds.

    Chains are sums of ball indicators (for cayley_cyclic, the translates of
    the radius-k ball in the word metric, which is the same thing); S is the
    largest radius used, so supports sit exactly within distance S.
    """
    space, radii, instance_params = gen_space(kind, params, seed)
    return space, _ball_sum_chains(space, radii), instance_params
