"""Instance and output files.

Everything is canonical JSON: sorted keys, two-space indent, a trailing
newline, rationals as strings. Rerunning any command with the same inputs
must reproduce files byte for byte.

``canonical_dumps`` writes the bytes of ``json.dumps(obj, sort_keys=True,
indent=2)`` plus the newline without the stdlib's pure-Python indenting
encoder. Strings go through the C ``encode_basestring_ascii``, and a list
object that occurs more than once at one depth is rendered once: every case-2
point of a component shares one subset list (``output_to_jsonable``), so that
subset is sorted, formatted and encoded once.
"""
from __future__ import annotations

import errno
import json
import os
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii

from .augment import format_aug, parse_aug
from .chains import ChainFamily, InstanceParams, SetFamily, from_sets, make_chain
from .errors import MalformedInputError
from .rational import format_rational, parse_rational
from .space import Space, build_space, check_points, parse_hints
from .tailor import Certificate


def canonical_dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``, byte for byte,
    for trees of str-keyed dicts, lists, tuples, str, int, float, bool and
    None; anything else raises TypeError."""
    parts = []
    _emit(obj, 0, parts, {})
    parts.append("\n")
    return "".join(parts)


def _emit(obj, depth, parts, seen):
    """Append the pieces of ``obj`` at indent level ``depth`` to ``parts``.

    ``seen`` maps (id(list), depth) to the (start, end) of the list's pieces
    after its first rendering, and to their joined text once it recurs;
    every list stays alive in the tree meanwhile, so no id is reused.
    """
    append = parts.append
    if isinstance(obj, str):
        append(encode_basestring_ascii(obj))
    elif isinstance(obj, dict):
        if not obj:
            append("{}")
            return
        inner = "\n" + "  " * (depth + 1)
        sep = "{" + inner
        # sorted by the raw key, not its escaped form; the encoder raises
        # TypeError on a key that is not a str
        for key in sorted(obj):
            value = obj[key]
            head = sep + encode_basestring_ascii(key) + ": "
            # int and str values and str items are the bulk: inline them
            if type(value) is int:
                append(head + int.__repr__(value))
            elif type(value) is str:
                append(head + encode_basestring_ascii(value))
            else:
                append(head)
                _emit(value, depth + 1, parts, seen)
            sep = "," + inner
        append("\n" + "  " * depth + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            append("[]")
            return
        slot = (id(obj), depth)
        done = seen.get(slot)
        if done is not None:
            if not isinstance(done, str):
                done = seen[slot] = "".join(parts[done[0]:done[1]])
            append(done)
            return
        start = len(parts)
        inner = "\n" + "  " * (depth + 1)
        sep = "[" + inner
        for item in obj:
            if type(item) is str:
                append(sep + encode_basestring_ascii(item))
            else:
                append(sep)
                _emit(item, depth + 1, parts, seen)
            sep = "," + inner
        append("\n" + "  " * depth + "]")
        seen[slot] = (start, len(parts))
    elif obj is None or isinstance(obj, (bool, float)):  # bool before int
        append(json.dumps(obj))
    elif isinstance(obj, int):
        append(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def open_output(path):
    """``path`` opened for writing text; failing to open it is malformed input."""
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise MalformedInputError(f"cannot write {path}: {exc}") from None


def check_writable(path):
    """Raise what ``open_output(path)`` would for a path that names a
    directory or sits in a missing or unwritable one, without creating or
    truncating a file."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise MalformedInputError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


def write_canonical(path, obj):
    with open_output(path) as fh:
        fh.write(canonical_dumps(obj))


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{path} is not valid UTF-8: {exc}") from None
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


def _generated(points, metric, hints, with_chains):
    """Space of a generator metric, and its ball-sum chains when
    ``with_chains`` (else None); non-empty ``hints`` replace its own."""
    # imported at call time, so a tracer that wraps generators.gen_instance
    # sees this call; do not hoist
    from . import generators

    sorted_points = check_points(points)
    spec = (metric.get("kind"), metric.get("params", {}), metric.get("seed", 0))
    if with_chains:
        space, family, _ = generators.gen_instance(*spec)
    else:
        space, family = generators.gen_space(*spec)[0], None
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
    has_chains = "chains" in doc
    has_sets = "sets" in doc
    generated = None
    if isinstance(metric, dict) and metric.get("type") == "generator":
        space, generated = _generated(points, metric, hints, not (has_chains or has_sets))
    else:
        space = build_space(points, metric, hints=hints)

    params_doc = _require(doc, "params", "instance")
    params = InstanceParams(
        R=parse_rational(_require(params_doc, "R", "params")),
        epsilon=parse_rational(_require(params_doc, "epsilon", "params")),
        S=parse_rational(_require(params_doc, "S", "params")),
    )

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
            bound = max([0, *levels]) + 1
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


def output_to_jsonable(subsets: dict, certificate: Certificate) -> dict:
    """The output document for ``run_pipeline``'s subsets (point id ->
    frozenset) and certificate; points that share one subset object share
    its member list, which ``canonical_dumps`` then renders once."""
    members = {}  # id(subset) -> its sorted member list; subsets stay alive meanwhile

    def listed(pts):
        out = members.get(id(pts))
        if out is None:
            out = members[id(pts)] = sorted(format_aug(p) for p in pts)
        return out

    return {
        "subsets": {x: listed(pts) for x, pts in sorted(subsets.items())},
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
    """Decode the serialized subsets into frozensets of augmented points.

    Points whose member lists are equal get one shared frozenset, so a pair
    of them is ``A is B`` in ``set_ratio``.
    """
    out = {}
    # hash of a member list -> (that list, its frozenset); keyed by the hash,
    # so no list is copied into a key that outlives its point
    shared = {}
    for x, members in raw.items():
        if not isinstance(members, list):
            raise MalformedInputError(f"subset for {x!r} must be a list")
        if not set(map(type, members)) <= {str}:
            for m in members:
                parse_aug(m)  # raises at the first bad member, before any hashing
        h = hash(tuple(members))
        earlier = shared.get(h)
        if earlier is not None and earlier[0] == members:
            parsed = earlier[1]
        else:
            parsed = frozenset(map(parse_aug, members))
            shared[h] = (members, parsed)
        if len(parsed) != len(members):
            raise MalformedInputError(f"subset for {x!r} has duplicate members")
        out[x] = parsed
    return out
