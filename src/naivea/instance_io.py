"""Instance and output files.

Everything is canonical JSON: sorted keys, two-space indent, a trailing
newline, rationals as strings. Rerunning any command with the same inputs
must reproduce files byte for byte.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .augment import format_aug, parse_aug
from .chains import ChainFamily, InstanceParams, SetFamily, from_sets, make_chain
from .errors import MalformedInputError
from .rational import format_rational, parse_rational
from .space import Space, build_space, check_points, parse_hints
from .tailor import Certificate, SubsetFamily


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_canonical(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(obj))


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"{path} is not valid JSON: {exc}") from None


@dataclass(frozen=True)
class Instance:
    space: Space
    family: ChainFamily
    params: InstanceParams


def _require(doc, key, where):
    if not isinstance(doc, dict):
        raise MalformedInputError(f"{where} must be a JSON object")
    if key not in doc:
        raise MalformedInputError(f"{where} is missing the {key!r} field")
    return doc[key]


def _generated(points, metric, hints):
    """Space and chains of a generator metric; non-empty ``hints`` replace its own."""
    # imported at call time, so a tracer that wraps generators.gen_instance
    # sees this call; do not hoist
    from .generators import gen_instance

    sorted_points = check_points(points)
    space, family, _ = gen_instance(
        metric.get("kind"), metric.get("params", {}), metric.get("seed", 0)
    )
    if space.points != sorted_points:
        raise MalformedInputError("generator metric does not reproduce the instance's point list")
    parsed_hints = parse_hints(hints, space.point_set)
    if parsed_hints:
        space = replace(space, hints=parsed_hints)
    return space, family


def instance_from_doc(doc) -> Instance:
    if not isinstance(doc, dict):
        raise MalformedInputError("instance document must be a JSON object")
    space_doc = _require(doc, "space", "instance")
    points = _require(space_doc, "points", "instance space")
    metric = _require(space_doc, "metric", "instance space")
    hints = doc.get("unbounded_hints", ())
    generated = None
    if isinstance(metric, dict) and metric.get("type") == "generator":
        space, generated = _generated(points, metric, hints)
    else:
        space = build_space(points, metric, hints=hints)

    params_doc = _require(doc, "params", "instance")
    params = InstanceParams(
        R=parse_rational(_require(params_doc, "R", "params")),
        epsilon=parse_rational(_require(params_doc, "epsilon", "params")),
        S=parse_rational(_require(params_doc, "S", "params")),
    )

    has_chains = "chains" in doc
    has_sets = "sets" in doc
    if has_chains and has_sets:
        raise MalformedInputError("instance has both 'chains' and 'sets'; provide one")
    if has_chains:
        raw = doc["chains"]
        if not isinstance(raw, dict) or not all(isinstance(v, dict) for v in raw.values()):
            raise MalformedInputError("'chains' must map point ids to chains")
        family = ChainFamily(chains={x: make_chain(entries) for x, entries in raw.items()})
    elif has_sets:
        raw = doc["sets"]
        if not isinstance(raw, dict) or not all(isinstance(v, list) for v in raw.values()):
            raise MalformedInputError("'sets' must map point ids to element lists")
        bound = doc.get("multiplicity_bound")
        if bound is None:
            # a malformed element counts as level 0 here; from_sets rejects it
            levels = [
                item[1] if isinstance(item, list) and len(item) == 2 and isinstance(item[1], int)
                else 0
                for pairs in raw.values()
                for item in pairs
            ]
            bound = (max(levels) + 1) if levels else 1
        family = from_sets(SetFamily(sets=raw, multiplicity_bound=bound))
    elif generated is not None:
        family = generated
    else:
        raise MalformedInputError("instance provides neither 'chains' nor 'sets'")
    return Instance(space=space, family=family, params=params)


def load_instance(path) -> Instance:
    return instance_from_doc(read_json(path))


def instance_to_doc(space: Space, family: ChainFamily, params: InstanceParams) -> dict:
    if space.metric_spec is None:
        raise MalformedInputError("space has no serializable metric source")
    doc = {
        "space": {"points": list(space.points), "metric": space.metric_spec},
        "params": {
            "R": format_rational(params.R),
            "epsilon": format_rational(params.epsilon),
            "S": format_rational(params.S),
        },
        "chains": {x: dict(sorted(chain.items())) for x, chain in family.chains.items()},
    }
    if space.hints:
        doc["unbounded_hints"] = [
            {"component_of": h.component_of, "ray": list(h.ray)} for h in space.hints
        ]
    return doc


def output_to_jsonable(subsets: SubsetFamily, certificate: Certificate) -> dict:
    return {
        "subsets": {
            x: sorted(format_aug(p) for p in pts)
            for x, pts in sorted(subsets.subsets.items())
        },
        "certificate": certificate.to_jsonable(),
    }


def load_output(path) -> tuple[dict, dict]:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise MalformedInputError("output document must be a JSON object")
    subsets = _require(doc, "subsets", "output")
    certificate = _require(doc, "certificate", "output")
    if not isinstance(subsets, dict) or not isinstance(certificate, dict):
        raise MalformedInputError("output fields have the wrong shape")
    for key in ("worst_ratio", "worst_radius", "bound_radius", "cases", "pairs"):
        if key not in certificate:
            raise MalformedInputError(f"certificate is missing the {key!r} field")
    if not isinstance(certificate["cases"], dict):
        raise MalformedInputError("certificate field 'cases' must be a JSON object")
    if not isinstance(certificate["pairs"], list):
        raise MalformedInputError("certificate field 'pairs' must be a list")
    return subsets, certificate


def parse_subsets(raw) -> dict:
    """Decode the serialized subsets into sets of augmented points."""
    out = {}
    for x, members in raw.items():
        if not isinstance(members, list):
            raise MalformedInputError(f"subset for {x!r} must be a list")
        out[x] = {parse_aug(m) for m in members}
        if len(out[x]) != len(members):
            raise MalformedInputError(f"subset for {x!r} has duplicate members")
    return out
