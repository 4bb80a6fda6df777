"""Instance and output files.

Everything is canonical JSON: sorted keys, two-space indent, a trailing
newline, rationals as strings. Rerunning any command with the same inputs
must reproduce files byte for byte.

``write_canonical`` streams to the file, in batches, the bytes of
``json.dumps(obj, sort_keys=True, indent=2)`` plus the newline; any change
here must keep every byte. A flat container (a dict with exact ``str``
keys, or a list or tuple, whose values all have exact type ``str``,
``int``, ``float``, ``bool`` or ``None``) is rendered in one call of the
stdlib's C encoder, with the indent in its item separator; every other
container, and every container where there is no C encoder, is walked here.
Within a batch a flat container that recurs at one depth is rendered once:
every case-2 point of a component shares one subset tuple, its component's
points (``output_to_jsonable``). The certificate's pair rows reach the
writer as the ``(x, y, input_ratio, output_ratio)`` tuples that
``run_pipeline`` builds, wrapped in ``PairRows``; each row is rendered
through one template, its keys in ``PAIR_KEYS`` order, the layout the
decoder's run scanner reads, with each distinct id and ratio text encoded
once. So the tree ``output_to_jsonable`` builds is for ``write_canonical``
alone: ``json.dumps`` raises TypeError on it.

``load_output`` reads that sharing back. Its decoder, ``decode_output``,
never holds the whole text of a file. It reads the file in windows of
``_WINDOW`` characters and decodes the top object, and each object one
level below it, member by member; each of their member values is decoded
whole by the stdlib's C scanner. A member counts only once the ``,`` or
``}`` after it is in the window. Until then the window drops the text
before the member, takes in more, and decodes the member again, so the
window outgrows ``_WINDOW`` only while one member does. One level below the
top, an array whose text is the previous array's text again, character for
character, is the previous array's value and is not decoded again.
Only arrays are compared, because an array is self-delimiting, and only
against the previous array. Any error that more text cannot mend makes the
decoder decode the whole text again with ``json.loads``, so every error
raised is the stdlib's own. A pipe cannot be read twice, so the decoder
holds a pipe's bytes for that.

``load_output`` takes the instance's points, and the decoder builds each
subset while it decodes it: a non-empty member list of ``"subsets"`` whose
members are distinct ids of the instance, or tail points at them, becomes at
once the tuple of the instance's own id objects, in list order, so the
decoded strings are freed and the subsets are never held twice; a tuple
costs a fraction of a set, and ``verify_naive`` makes a set of a subset only
while the pairs of its point read it. Any other list stays a list, for
``parse_subsets`` to decide. The certificate's ``"pairs"`` is then decoded
through the same window, and each row as the file writes it (keys
``input_ratio``, ``output_ratio``, ``x``, ``y`` with str values, ``x`` and
``y`` ids of the instance) becomes the tuple of its values in that order,
with the instance's own id objects and one shared str per distinct ratio
text; a run of rows laid out as the writer lays them out is read by one
regex scanner pass. Any other row stays the dict the stdlib makes, for
``verify_certificate`` to compare as it stands.
"""
from __future__ import annotations

import errno
import functools
import io
import itertools
import json
import os
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from json.decoder import WHITESPACE, WHITESPACE_STR, JSONDecodeError, scanstring
from json.encoder import c_make_encoder, encode_basestring_ascii

from . import generators
from .augment import format_aug, parse_aug
from .chains import ChainFamily, InstanceParams, format_ratio, from_sets, make_chain
from .errors import MalformedInputError
from .rational import format_rational, parse_rational
from .space import Space, build_space, check_points, parse_hints


# pieces a writer holds before it hands them to the file
_BATCH = 256
_STR = frozenset({str})
# the value types of a flat container; with no C encoder, none is flat
_FLAT = frozenset({str, int, float, bool, type(None)} if c_make_encoder else ())


def _not_serializable(obj):
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


@functools.cache
def _flat_encoder(depth):
    """The C encoder of a flat container at indent level ``depth``: the
    indent rides in its item separator."""
    return c_make_encoder(None, _not_serializable, encode_basestring_ascii, None,
                          ": ", ",\n" + "  " * (depth + 1), True, False, True)


def _flat_text(obj, depth) -> str:
    """The canonical text of a non-empty flat container at level ``depth``."""
    text = "".join(_flat_encoder(depth)(obj, 0))
    return "".join((text[0], "\n", "  " * (depth + 1), text[1:-1], "\n", "  " * depth, text[-1]))


class PairRows:
    """A certificate's pair rows as ``run_pipeline`` builds them, ``(x, y,
    input_ratio, output_ratio)`` tuples, for ``_render`` alone, which writes
    each as the text of the row dict with those keys and str values;
    ``json.dumps`` raises TypeError on it."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = rows


def _render(obj, write):
    """Hand the text of ``json.dumps(obj, sort_keys=True, indent=2)`` plus
    the newline to ``write``, joined in batches of ``_BATCH`` pieces, for
    trees of str-keyed dicts, lists, tuples, str, int, float, bool and None,
    and ``PairRows`` as the list of their row dicts; anything else raises
    TypeError. ``memo`` maps (id(container), depth) to a flat container's
    text until the batch goes out; every container stays alive in the tree
    meanwhile, so no id is reused."""
    parts, memo = [], {}
    append = parts.append

    def flush():
        write("".join(parts))
        parts.clear()
        memo.clear()

    def pair_rows(rows, depth):
        """Each row through one template, its keys in ``PAIR_KEYS`` order,
        with each distinct id and ratio text encoded once; ``texts`` maps
        id(ratio) to its encoded text, and every ratio stays alive in
        ``rows`` meanwhile."""
        if not rows:
            append("[]")
            return
        encoded, ratio, texts = functools.cache(encode_basestring_ascii), ratio_texts(), {}

        def text(q):
            value = texts[id(q)] = encoded(ratio(q))
            return value

        inner = "\n" + "  " * (depth + 2)
        row = "%s{" + ",".join(f'{inner}"{key}": %s' for key in PAIR_KEYS) + (
            "\n" + "  " * (depth + 1) + "}")
        sep, next_sep = "[\n" + "  " * (depth + 1), ",\n" + "  " * (depth + 1)
        for x, y, rin, rout in rows:
            append(row % (sep, texts.get(id(rin)) or text(rin),
                          texts.get(id(rout)) or text(rout), encoded(x), encoded(y)))
            sep = next_sep
            if len(parts) >= _BATCH:
                flush()
        append("\n" + "  " * depth + "]")

    def emit(obj, depth):
        if isinstance(obj, str):
            append(encode_basestring_ascii(obj))
        elif isinstance(obj, (dict, list, tuple)):
            is_dict = isinstance(obj, dict)
            if not obj:
                append("{}" if is_dict else "[]")
                return
            slot = (id(obj), depth)
            text = memo.get(slot)
            values = obj.values() if is_dict else obj
            if text is None and set(map(type, values)) <= _FLAT and (
                    not is_dict or set(map(type, obj)) <= _STR):
                text = memo[slot] = _flat_text(obj, depth)
            if text is not None:
                append(text)
                return
            if is_dict:
                # sorted by the raw key, not its escaped form; the encoder
                # raises TypeError on a key that is not a str
                keys = sorted(obj)
                heads = [encode_basestring_ascii(key) + ": " for key in keys]
                items = zip(heads, map(obj.__getitem__, keys))
            else:
                items = zip(itertools.repeat(""), obj)
            inner = "\n" + "  " * (depth + 1)
            sep = ("{" if is_dict else "[") + inner
            for head, value in items:
                append(sep + head)
                emit(value, depth + 1)
                sep = "," + inner
                if len(parts) >= _BATCH:
                    flush()
            append("\n" + "  " * depth + ("}" if is_dict else "]"))
        elif obj is None or isinstance(obj, (bool, float)):  # bool before int
            append(json.dumps(obj))
        elif isinstance(obj, int):
            append(int.__repr__(obj))
        elif type(obj) is PairRows:
            pair_rows(obj.rows, depth)
        else:
            _not_serializable(obj)

    emit(obj, 0)
    append("\n")
    write("".join(parts))


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
    """Write the canonical text of ``obj`` to ``path`` batch by batch, never
    as one whole-document string."""
    with open_output(path) as fh:
        _render(obj, fh.write)


def _read_document(path, decode):
    """``decode`` applied to ``path`` opened as text; every way the file can
    fail to be read or decoded is malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return decode(fh)
    except OSError as exc:
        raise MalformedInputError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{path} is not valid UTF-8: {exc}") from None
    # a JSONDecodeError, an integer past sys.get_int_max_str_digits(), or
    # nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise MalformedInputError(f"{path} is not valid JSON: {exc}") from None


def read_json(path):
    return _read_document(path, json.load)


# characters per read of the output decoder; a window grows past this only
# while one member is longer
_WINDOW = 1 << 16


def _skip(read, s, end):
    """The window and index of the first non-space character at or past
    ``s[end]``, refilling from ``end``; the index is ``len(s)`` at the end of
    the file."""
    end = WHITESPACE.match(s, end).end()
    while end == len(s):
        more = read(_WINDOW)
        if not more:
            break
        s, end = more, WHITESPACE.match(more).end()
    return s, end


def _refill(read, s, mark, end, exc):
    """The window to decode a member or element again from, once ``exc``
    stopped its decode at ``s[end]``: the text from ``mark``, where it
    starts, and at least as much again (so a long member is decoded a
    logarithmic number of times) and, for an array or object the window cut,
    more until a closing bracket comes in. A failure once the file has
    ended, or well inside the window, is raised."""
    # a cut string errs at its start, and a cut number, name or escape (at
    # most "-Infinity") within a few characters of the window's end; any
    # other error well before that end is in the text itself
    at = exc.value if type(exc) is StopIteration else getattr(exc, "pos", len(s))
    cut_string = getattr(exc, "msg", "").startswith("Unterminated string")
    if mark is None or (at < len(s) - 16 and not cut_string):
        raise exc
    # an array or object that the window cut (its scan failed at s[end])
    # cannot end before its closing bracket comes in
    closer = {"[": "]", "{": "}"}.get(s[end:end + 1])
    pieces = [s[mark:], read(max(_WINDOW, len(s) - mark))]
    while closer and pieces[-1] and closer not in pieces[-1]:
        pieces.append(read(_WINDOW))
    if not pieces[1]:
        raise exc
    return "".join(pieces)


def _array(read, s, end, scan, scan_run):
    """The array whose ``[`` is ``s[end - 1]``, decoded from the window ``s``
    and then ``read``, with the window that holds the text past its ``]``
    and the index there. ``scan_run`` takes at once the run of elements that
    it can from where an element starts, each with the ``,`` after it, and
    returns their values (none when it can take none) and the index after
    them; an element it does not take is decoded whole with ``scan``. An
    element counts only once its ``,`` or ``]`` is in the window; until then
    ``_refill`` gives the window it is decoded again from."""
    match = WHITESPACE.match
    out = []
    close = "]"  # ']' may follow '[' at once, but not ','
    while True:
        mark = end
        try:
            end = match(s, end).end()
            if s[end] == close:
                return out, s, end + 1
            run, end = scan_run(s, end)
            if run:
                out += run
                close = ""
                continue
            value, end = scan(s, end)
            c = s[end]
            if c in WHITESPACE_STR:
                end = match(s, end + 1).end()
                c = s[end]
            end += 1
            if c == ",":
                out.append(value)
                close = ""
            elif c == "]":
                out.append(value)
                return out, s, end
            else:
                raise JSONDecodeError("Expecting ',' delimiter", s, end - 1)
        except (ValueError, IndexError, StopIteration) as exc:
            s, end = _refill(read, s, mark, end, exc), 0


def _object(read, s, end, scan, top, make, rows):
    """The object whose ``{`` is ``s[end - 1]``, decoded member by member from
    the window ``s`` and then ``read``, with the window that holds the text
    past its ``}`` and the index there.

    Each member value is decoded whole with ``scan``, except that a value of
    the top object that is an object is decoded here too, and that below the
    top an array whose text repeats the previous array's text is that
    array's value again (exact, as an array is self-delimiting). The top
    object hands ``make`` to its ``"subsets"`` member and ``rows`` to its
    ``"certificate"`` member, and None to the others; below the top, each
    array decoded is replaced by ``make(array)`` when ``make`` is given, and
    a ``"pairs"`` array is decoded by ``_array`` with the two scanners of
    ``rows`` when that is given. A member counts only once its ``,`` or
    ``}`` is in the window, since a number at the window's end may go on.
    Until then ``_refill`` gives the window the member is decoded again from.
    """
    match = WHITESPACE.match
    obj = {}
    last_text = last = None
    close = "}"  # '}' may follow '{' at once, but not ','
    while True:
        mark = end
        try:
            end = match(s, end).end()
            c = s[end]
            if c != '"':
                if c == close:
                    return obj, s, end + 1
                raise JSONDecodeError("Expecting property name", s, end)
            key, end = scanstring(s, end + 1)
            if s[end] != ":":
                end = match(s, end).end()
                if s[end] != ":":
                    raise JSONDecodeError("Expecting ':' delimiter", s, end)
            end = match(s, end + 1).end()
            if top and s[end] == "{":
                mark = None  # the window moves on; nothing here is read again
                value, s, end = _object(
                    read, s, end + 1, scan, False, make if key == "subsets" else None,
                    rows if key == "certificate" else None)
                s, end = _skip(read, s, end)
            elif rows is not None and not top and key == "pairs" and s[end] == "[":
                mark = None
                value, s, end = _array(read, s, end + 1, *rows)
                s, end = _skip(read, s, end)
            elif last_text is not None and s.startswith(last_text, end):
                value, end = last, end + len(last_text)
            else:
                start = end
                value, end = scan(s, end)
                if type(value) is list and not top:
                    if make is not None:
                        value = make(value)
                    last_text, last = s[start:end], value
            c = s[end]
            if c in WHITESPACE_STR:
                end = match(s, end + 1).end()
                c = s[end]
            end += 1
            if c == ",":
                obj[key] = value
                close = ""
            elif c == "}":
                obj[key] = value
                return obj, s, end
            else:
                raise JSONDecodeError("Expecting ',' delimiter", s, end - 1)
        except (ValueError, IndexError, StopIteration) as exc:
            s, end = _refill(read, s, mark, end, exc), 0


# the keys of a certificate's pair row, in the order a canonical file lists them
PAIR_KEYS = ("input_ratio", "output_ratio", "x", "y")
# the text of a pair row with exactly those keys, in that order and each
# once, JSON whitespace around them, and a string for each value
_WS = WHITESPACE.pattern
_match_row = re.compile(r"\{%s\}" % ",".join(
    rf'{_WS}"{key}"{_WS}:{_WS}"([^"\\\x00-\x1f]*(?:\\.[^"\\\x00-\x1f]*)*)"{_WS}'
    for key in PAIR_KEYS)).match
# such a row laid out as the writer lays out a certificate's rows, with no
# escape in it, and the ',' and indent after it: one anchored scanner
# takes a run of them
_scan_run = re.compile(r"\{%s\n      \},\n      " % ",".join(
    rf'\n        "{key}": "([^"\\\x00-\x1f]*)"' for key in PAIR_KEYS)).scanner


def _makers(points, scan):
    """What ``decode_output`` applies against the instance's ``points``: a
    function to each member list of ``"subsets"``, and the two scanners of
    ``_array``, in place of ``scan``, to the rows of the certificate's
    ``"pairs"``. None of them ever raises where ``scan`` would not.

    A non-empty list of distinct members, each an id of ``points`` or a tail
    point ``parse_aug`` reads at one, becomes the tuple of the instance's own
    id objects, in list order, so the decoded strings are freed at once. Any
    other list, the empty one too, is returned as it stands.

    A pair row whose keys are exactly ``PAIR_KEYS``, in that order and each
    once, with string values and ``x`` and ``y`` ids of ``points``, becomes
    the tuple of its values in that order: ``x`` and ``y`` are the
    instance's own id objects, and equal ratio texts share one str. A run of
    such rows laid out as the writer lays them out, with no escape, is read
    by one pass of ``_scan_run``; any other such row by one match of
    ``_match_row``. Any other row is decoded with ``scan``, so it is the
    stdlib's own dict."""
    ids = dict(zip(points, points))

    def member(m):
        if "#" not in m:  # no point id holds a "#"
            return ids[m]
        anchor, index = parse_aug(m)
        return ids[anchor], index

    def make(members):
        if set(map(type, members)) != _STR:  # empty, or not all str
            return members
        try:
            subset = tuple(map(ids.__getitem__, members))
        except KeyError:  # a tail point, or an unknown or malformed member
            try:
                subset = tuple(map(member, members))
            except (KeyError, MalformedInputError):
                return members
        if len(frozenset(subset)) != len(subset):  # a duplicate
            return members
        return subset

    texts = {}
    share = texts.setdefault

    def scan_row(s, end):
        m = _match_row(s, end)
        if m is not None:
            rin, rout, x, y = m.groups()
            if "\\" in m.group():  # an escape: decode each value as the stdlib does
                rin, rout, x, y = (scanstring(s, m.start(i))[0] for i in range(1, 5))
            x, y = ids.get(x), ids.get(y)
            if x is not None and y is not None:
                return (share(rin, rin), share(rout, rout), x, y), m.end()
        return scan(s, end)

    def scan_run(s, end):
        rows = []
        for m in iter(_scan_run(s, end).match, None):
            rin, rout, x, y = m.groups()
            if x not in ids or y not in ids:
                break  # the run stops at a row with an unknown id, for scan_row
            rows.append((share(rin, rin), share(rout, rout), ids[x], ids[y]))
            end = m.end()
        return rows, end

    return make, (scan_row, scan_run)


def decode_output(fh, points):
    """``json.load(fh)``, except that the text is read in windows of
    ``_WINDOW`` characters and dropped once decoded, that in each object one
    level below the top an array that repeats the previous array's text
    shares its value (``_object``), and that, against the instance's
    ``points``, the member lists of ``"subsets"`` and the certificate's
    ``"pairs"`` rows are taken as ``_makers`` builds them. Any failure
    decodes the whole text again with ``json.loads``, so every error raised
    is the stdlib's own, positions included, and every list stays a list."""
    if not fh.seekable():
        # a pipe cannot be read again: hold its bytes for the failure path
        fh = io.TextIOWrapper(io.BytesIO(fh.buffer.read()), encoding="utf-8")
    read = fh.read
    try:
        s, end = _skip(read, "", 0)
        if s.startswith("{", end):
            scan = json.JSONDecoder().scan_once
            doc, s, end = _object(read, s, end + 1, scan, True, *_makers(points, scan))
            s, end = _skip(read, s, end)
            if end == len(s):
                return doc
    except (ValueError, IndexError, StopIteration, RecursionError):
        pass
    # decode again, past the handler, whose traceback would keep the window
    # alive, so that the error raised is the stdlib's own
    fh.seek(0)
    return json.loads(fh.read())


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
        family = from_sets(raw, bound)
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
        "chains": family.chains,  # the writer sorts every key
    }
    if space.hints:
        doc["unbounded_hints"] = [
            {"component_of": h.component_of, "ray": list(h.ray)} for h in space.hints
        ]
    return doc


def ratio_texts():
    """``format_ratio`` that formats each distinct ratio once, so equal
    ratios share one str; INF is a float."""
    texts = {}

    def ratio(q):
        key = q.as_integer_ratio() if isinstance(q, Fraction) else q
        if key not in texts:
            texts[key] = format_ratio(q)
        return texts[key]

    return ratio


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
        """The certificate's tree for ``write_canonical``: rationals as
        strings, and the pair rows as ``PairRows``."""
        lengths = {}  # each distinct radius or bound is formatted once

        def length(units):
            if units not in lengths:
                lengths[units] = format_rational(Fraction(units, self.unit))
            return lengths[units]

        return {
            "params": {
                "R": format_rational(self.params.R),
                "epsilon": format_rational(self.params.epsilon),
                "S": format_rational(self.params.S),
                "L": self.params.L,
                "N": self.params.N,
            },
            "cases": self.cases,  # the writer sorts every key
            "radii": {x: length(r) for x, r in self.radii.items()},
            "pairs": PairRows(self.pairs),
            "worst_ratio": format_ratio(self.worst_ratio),
            "worst_radius": format_rational(self.worst_radius),
            "bound_radius": length(self.bounds["overall"]),
            "bounds": {k: length(v) for k, v in self.bounds.items()},
        }


def output_to_jsonable(subsets: dict, certificate: Certificate) -> dict:
    """The output document for ``run_pipeline``'s subsets (point id -> tuple
    of its members, in the order the file lists them) and certificate; a
    tuple with no tail point is its own member list, so points that share
    one share its list, which the writer then renders once."""
    members = {}  # id(subset) -> its member list; subsets stay alive meanwhile

    def listed(pts):
        out = members.get(id(pts))
        if out is None:
            tailless = set(map(type, pts)) <= _STR
            out = members[id(pts)] = pts if tailless else list(map(format_aug, pts))
        return out

    return {
        "subsets": {x: listed(pts) for x, pts in subsets.items()},
        "certificate": certificate.to_jsonable(),
    }


def load_output(path, points) -> tuple[dict, dict]:
    """The output's subsets and certificate, checked for shape, decoded
    against the instance's ``points`` by ``decode_output``: each subset is
    the tuple of its members' own id objects, but a member list it could not
    take stays a list, for ``parse_subsets``; each pair row is a tuple, but
    a row it could not take stays a dict, for ``verify_certificate``."""
    doc = _read_document(path, functools.partial(decode_output, points=points))
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
    cases, radii = certificate["cases"], certificate.get("radii")
    # the maps were decoded apart, each with its own str per point id; when all
    # three list the same ids in one order, as a canonical file does, share them
    if isinstance(radii, dict) and list(cases) == list(subsets) == list(radii):
        keys = list(subsets)
        certificate["cases"] = dict(zip(keys, cases.values()))
        certificate["radii"] = dict(zip(keys, radii.values()))
    return subsets, certificate


def parse_subsets(raw) -> dict:
    """Decode the serialized subsets into collections of distinct augmented
    points.

    A tuple, which ``load_output`` builds while decoding, passes through as
    it stands. A list, which the decoder could not take, raises at its
    first bad member in list order, and then at a duplicate; one that names
    an unknown point or anchor becomes the frozenset of its members, for
    ``verify_naive`` to reject.
    """
    out = {}
    for x, members in raw.items():
        if type(members) is not tuple:
            if not isinstance(members, list):
                raise MalformedInputError(f"subset for {x!r} must be a list")
            parsed = frozenset(map(parse_aug, members))
            if len(parsed) != len(members):
                raise MalformedInputError(f"subset for {x!r} has duplicate members")
            members = parsed
        out[x] = members
    return out
