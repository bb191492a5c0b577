"""Versioned JSON documents for groupoids, systems, actions, and friends.

One text format for every object kind, built for bit-exact reproducibility:
keys sorted, lists canonically ordered, rationals as reduced "p/q" strings.
Parsing enforces referential integrity (every mentioned token must be
declared) but not the algebraic axioms; broken tables must stay parseable so
the validators can report them as violations rather than parse errors.

Both directions run at C speed on clean documents.  Every field of tokens
is read by one reader: _refs for token lists and maps, _rows for row tables
(compose, action tables, the group sugar).  Each checks the whole field with
C set algebra and falls back to its one ordered walk only when that check
fails; the walk alone writes SchemaError texts, so it names the same first
offender either way.  _load_json reads the JSON for parse and the CLI's map
file.  Encoding writes json.dumps's indent-2 bytes from C-encoded strings.
"""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from operator import itemgetter

from .actions import Action, Equivalence
from .convolution import GroupoidFunction
from .groupoids import (
    Groupoid,
    group_as_groupoid,
    make_groupoid,
    pair_groupoid,
    relation_groupoid,
)
from .systems import Cutoff, FiberSystem, Measure, fiber_system

__all__ = [
    "Document",
    "KINDS",
    "SCHEMA_VERSION",
    "SchemaError",
    "parse",
    "serialize",
]

SCHEMA_VERSION = 1

KINDS = ("groupoid", "system", "action", "equivalence", "cutoff", "function")

SUGAR_KINDS = ("pair", "group", "relation")

_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")

_SURROGATE = re.compile("[\ud800-\udfff]")  # a lone one is not text: it cannot be printed or written as UTF-8
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")

_STR, _LIST = {str}, {list}

_ELEMENT, _POINT = "references unknown element", "references unknown carrier point"

_HEAD = {"version", "kind", "meta"}

_leaf = json.encoder.encode_basestring_ascii


class SchemaError(ValueError):
    """A malformed document: bad JSON, bad shape, or an unknown token."""


@dataclass(frozen=True)
class Document:
    """A tagged payload: the live object, its kind, and free-form metadata."""

    kind: str
    payload: object
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# encoding


def _rat(value: Fraction) -> str:
    return str(value)


def _encode_groupoid(G: Groupoid) -> dict:
    return {
        "elements": G.sorted_elements(),
        "units": G.sorted_units(),
        "range": dict(G.range_map),
        "source": dict(G.source_map),
        "inverse": dict(G.inverse_map),
        "compose": [[x, y, z] for (x, y), z in G.compose_map.items()],
    }


def _encode_system(S: FiberSystem) -> dict:
    return {
        "base": dict(S.base_map),
        "measures": {u: {y: _rat(w) for y, w in m.items()} for u, m in S.measures.items()},
    }


def _encode_action(A: Action) -> dict:
    if A.side == "left":
        rows = [[g, z, w] for (g, z), w in A.act.items()]
    else:
        inv = A.groupoid.inverse_map
        for g, _ in A.act:
            if g not in inv:
                raise ValueError(f"cannot present right action: no inverse for {g}")
        rows = sorted([z, inv[g], w] for (g, z), w in A.act.items())
    return {
        "side": A.side,
        "groupoid": _encode_groupoid(A.groupoid),
        "carrier": A.sorted_carrier(),
        "moment": dict(A.moment),
        "table": rows,
    }


def _encode_equivalence(E: Equivalence) -> dict:
    return {"left": _encode_action(E.left), "right": _encode_action(E.right)}


def _encode_cutoff(phi: Cutoff) -> dict:
    return {
        "weights": {z: _rat(w) for z, w in phi.weights.items()},
        "quotient": dict(phi.quotient_map),
    }


def _encode_function(values: object) -> dict:
    if isinstance(values, GroupoidFunction):
        values = dict(values.items())
    return {"values": {x: _rat(v) for x, v in sorted(values.items())}}


_ENCODERS = {
    "groupoid": _encode_groupoid,
    "system": _encode_system,
    "action": _encode_action,
    "equivalence": _encode_equivalence,
    "cutoff": _encode_cutoff,
    "function": _encode_function,
}


def _emit(value: object, indent: str) -> str:
    """value as json.dumps(value, sort_keys=True, indent=2) writes it, nested at indent.

    Takes what the encoders build: strings, ints, lists, and dicts with
    string keys.  Every string goes through json's own C string encoder.  A
    list of strings, a list of non-empty string rows (compose, table) and a
    string-valued dict are each written in one join; anything else recurses.
    """
    kind = type(value)
    if kind is str:
        return _leaf(value)
    if kind is int:
        return repr(value)
    if kind is not dict and kind is not list:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    if not value:
        return "{}" if kind is dict else "[]"
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is dict:
        keys = sorted(value)
        vals = [value[k] for k in keys]
        if set(map(type, vals)) <= _STR:
            texts = map(_leaf, vals)
        else:
            texts = [_emit(v, inner) for v in vals]
        body = sep.join(map("{}: {}".format, map(_leaf, keys), texts))
        return "{\n" + inner + body + "\n" + indent + "}"
    kinds = set(map(type, value))
    if kinds <= _STR:
        body = sep.join(map(_leaf, value))
    elif kinds <= _LIST and all(value) and set(map(type, chain.from_iterable(value))) <= _STR:
        deep = ",\n" + inner + "  "
        open_, close = "[" + deep[1:], "\n" + inner + "]"
        rows = [deep.join(map(_leaf, row)) for row in value]
        body = open_ + (close + sep + open_).join(rows) + close
    else:
        body = sep.join([_emit(v, inner) for v in value])
    return "[\n" + inner + body + "\n" + indent + "]"


def serialize(doc: Document) -> str:
    """Render a document as canonical JSON text: sorted keys, "p/q" rationals.

    The text is byte for byte json.dumps(body, sort_keys=True, indent=2) plus
    a newline.  CPython runs its C encoder only when indent is None, so _emit
    lays out the indented text itself around leaves from json's C string
    encoder.  The cost is linear in the text, with one join per string list,
    list of string rows or string map: a pair(30) document (2.1 MiB) takes
    about 28 ms, against 62-126 ms through json.dumps (Python 3.11, 2-vCPU
    x86-64 VM).
    """
    if doc.kind not in _ENCODERS:
        raise SchemaError(f"unknown document kind: {doc.kind!r}")
    body = {"version": SCHEMA_VERSION, "kind": doc.kind}
    body.update(_ENCODERS[doc.kind](doc.payload))
    if doc.meta:
        for k, v in doc.meta.items():  # parse refuses the same meta, so the text round-trips
            if not isinstance(k, str):
                raise _fail("meta", f"non-string key: {k!r}")
            if not isinstance(v, str):
                raise _fail("meta", f"non-string value for {k!r}: {v!r}")
        body["meta"] = dict(sorted(doc.meta.items()))
    return _emit(body, "") + "\n"


# ---------------------------------------------------------------------------
# decoding


def _fail(where: str, problem: str) -> SchemaError:
    return SchemaError(f"field {where!r}: {problem}")


def _at(where: str, key: str) -> str:
    """The path of field key inside the object at where ("" for the top level)."""
    return f"{where}.{key}" if where else key


@contextmanager
def _schema(prefix: str):
    """Re-raise a constructor's ValueError as a SchemaError led by prefix."""
    try:
        yield
    except SchemaError:
        raise
    except ValueError as exc:
        raise SchemaError(f"{prefix}{exc}") from exc


def _load_json(text: str) -> object:
    """json.loads refusing a repeated object key or a lone surrogate, with a SchemaError for bad JSON."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}") from None
    except RecursionError:
        raise SchemaError("invalid JSON: nested too deeply") from None
    except SchemaError:
        raise
    except ValueError:  # the only other error json.loads raises: an integer past the digit limit
        raise SchemaError(f"invalid JSON: integer with over {sys.get_int_max_str_digits()} digits") from None
    if _SURROGATE_ESCAPE.search(text) or not text.isascii() and _SURROGATE.search(text):  # clean text: one C scan
        _refuse_surrogates(data)
    return data


def _refuse_surrogates(data: object) -> None:
    """Refuse the first string of data, in document order, that holds a lone surrogate, naming its field."""
    stack = [("", data)]
    while stack:
        where, value = stack.pop()
        if isinstance(value, dict):
            stack += [pair for k, v in reversed(value.items()) for pair in ((_at(where, k), v), (_at(where, k), k))]
        elif isinstance(value, list):
            stack += [(where, item) for item in reversed(value)]
        elif isinstance(value, str) and _SURROGATE.search(value):
            raise _fail(where, f"not Unicode text (lone surrogate): {value!r}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The object_pairs_hook of _load_json: a repeated key is refused, never overwritten."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"duplicate key: {key!r}")
            seen.add(key)
    return obj


def _need(data: dict, key: str, kind: type, where: str):
    if key not in data:
        raise _fail(_at(where, key), "missing")
    value = data[key]
    if not isinstance(value, kind):
        raise _fail(_at(where, key), f"expected {kind.__name__}")
    return value


def _known(known: type | set[str] | frozenset[str], tokens: Iterable[object]) -> bool:
    """True when every token is in known (a string, for known=str); an unhashable one is not."""
    if known is str:
        return set(map(type, tokens)) <= _STR
    try:
        return known.issuperset(tokens)
    except TypeError:
        return False


def _refs(where: str, columns: list[tuple[Iterable[object], Iterable[str], str]]) -> None:
    """Refuse the first token missing from its column's known set, as "text: token".

    columns holds (tokens, known, text), read side by side, so one item's
    tokens are checked in column order.  A clean field passes on one C
    superset test per column; only a failing field is walked.
    """
    if all(_known(known, tokens) for tokens, known, _ in columns):
        return
    for cells in zip(*[tokens for tokens, _, _ in columns]):
        for cell, (_, known, text) in zip(cells, columns):
            if not _known(known, (cell,)):
                raise _fail(where, f"{text}: {cell!r}")


def _rows(where: str, rows: list, shape: str, checks: list, build) -> dict:
    """The table build(rows), such as {(a, b): c}, of a field of three-item rows.

    checks holds (column, known, text) in check order; a failing check with
    text None reports a bad row.  A clean field passes on C checks alone:
    row shape, one superset test per column set (a str check is implied by
    a set on its column, as sets hold only strings), then no repeated key.
    Otherwise one ordered walk names the first offender: a row's shape,
    then its cells in check order, then a repeated key.
    """
    typed = {col for col, known, _ in checks if known is not str}
    if set(map(type, rows)) <= _LIST and set(map(len, rows)) <= {3}:
        if all(
            _known(known, map(itemgetter(col), rows))
            for col, known, _ in checks
            if known is not str or col not in typed
        ):
            table = build(rows)
            if len(table) == len(rows):
                return table
    table = {}
    for row in rows:
        if not isinstance(row, list) or len(row) != 3:
            raise _fail(where, f"{shape}, got {row!r}")
        for col, known, text in checks:
            if not _known(known, (row[col],)):
                raise _fail(where, f"{text}: {row[col]!r}" if text else f"{shape}, got {row!r}")
        ((key, value),) = build([row]).items()
        if key in table:
            raise _fail(where, f"duplicate pair: {row[:2]!r}")
        table[key] = value
    return table


def _pairs(rows: list) -> dict[tuple[str, str], str]:
    """The table {(a, b): c} of clean [a, b, c] rows."""
    return {(a, b): c for a, b, c in rows}


def _str_list(data: dict, key: str, where: str) -> list[str]:
    """A list of distinct string tokens: a repeat is refused, never merged."""
    value = _need(data, key, list, where)
    if _known(str, value) and len(set(value)) == len(value):
        return value
    seen: set[str] = set()
    for item in value:
        if not isinstance(item, str):
            raise _fail(_at(where, key), f"non-string token: {item!r}")
        if item in seen:
            raise _fail(_at(where, key), f"duplicate token: {item!r}")
        seen.add(item)
    return value


def _str_map(data: dict, key: str, where: str) -> dict[str, str]:
    value = _need(data, key, dict, where)
    if _known(str, value.values()):
        return value
    for k, v in value.items():
        if not isinstance(v, str):
            raise _fail(_at(where, key), f"non-string value for {k!r}: {v!r}")
    return value


def _rational(value: object, where: str) -> Fraction:
    if isinstance(value, bool):
        raise _fail(where, f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise _fail(where, "decimal numbers are not exact; write the rational as a \"p/q\" string")
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        p, _, q = value.partition("/")
        try:
            return Fraction(int(p), int(q or 1))
        except ValueError:
            raise _fail(where, f"integer with over {sys.get_int_max_str_digits()} digits") from None
    raise _fail(where, f"not a rational \"p/q\" string: {value!r}")


def _check_keys(data: dict, allowed: set[str], where: str) -> None:
    extra = sorted(set(data) - allowed - _HEAD)
    if extra:
        raise _fail(_at(where, extra[0]), "unexpected field")


def _decode_groupoid(data: dict, where: str = "") -> Groupoid:
    _check_keys(data, {"elements", "units", "range", "source", "inverse", "compose"}, where)
    elements = _str_list(data, "elements", where)
    known = set(elements)
    units = _str_list(data, "units", where)
    _refs(_at(where, "units"), [(units, known, _ELEMENT)])
    maps = {}
    for name in ("range", "source", "inverse"):
        raw = maps[name] = _str_map(data, name, where)
        _refs(_at(where, name), [(raw, known, _ELEMENT), (raw.values(), known, _ELEMENT)])
    rows = _need(data, "compose", list, where)
    cell = ((str, "non-string token"), (known, _ELEMENT))
    checks = [(c, k, text) for c in range(3) for k, text in cell]
    compose = _rows(_at(where, "compose"), rows, "expected [x, y, xy] triple", checks, _pairs)
    return make_groupoid(elements, units, maps["range"], maps["source"], maps["inverse"], compose)


def _decode_system(data: dict, where: str = "") -> FiberSystem:
    _check_keys(data, {"base", "measures"}, where)
    base = _str_map(data, "base", where)
    raw = _need(data, "measures", dict, where)
    measures: dict[str, Measure] = {}
    for u, entries in raw.items():
        ctx = _at(where, f"measures.{u}")
        if not isinstance(entries, dict):
            raise _fail(ctx, "expected an object of weights")
        with _schema(f"field {ctx!r}: "):
            measures[u] = Measure({y: _rational(v, f"{ctx}.{y}") for y, v in entries.items()})
    return fiber_system(base, measures)


def _decode_action(data: dict, where: str = "") -> Action:
    _check_keys(data, {"side", "groupoid", "carrier", "moment", "table"}, where)
    side = _need(data, "side", str, where)
    if side not in ("left", "right"):
        raise _fail(_at(where, "side"), f"expected left or right, got {side!r}")
    gdata = _need(data, "groupoid", dict, where)
    G = _decode_groupoid(gdata, _at(where, "groupoid"))
    carrier = _str_list(data, "carrier", where)
    points = set(carrier)
    moment = _str_map(data, "moment", where)
    _refs(_at(where, "moment"), [(moment, points, _POINT), (moment.values(), G.elements, _ELEMENT)])
    # a left row reads [g, z, g.z]; a right row [z, g, z.g], stored as g^-1 acting on z
    inv = G.inverse_map
    acting, moving = (0, 1) if side == "left" else (1, 0)
    checks = [(acting, G.elements, _ELEMENT), (moving, points, _POINT), (2, points, _POINT)]
    if side == "right":
        checks.append((acting, set(inv), "no inverse declared for acting element"))
    build = _pairs if side == "left" else lambda rows: {(inv[g], z): w for z, g, w in rows}
    rows = _need(data, "table", list, where)
    act = _rows(_at(where, "table"), rows, "expected a three-token row", checks, build)
    return Action(G, frozenset(carrier), moment, act, side)


def _decode_equivalence(data: dict, where: str = "") -> Equivalence:
    _check_keys(data, {"left", "right"}, where)
    left = _decode_action(_need(data, "left", dict, where), _at(where, "left"))
    right = _decode_action(_need(data, "right", dict, where), _at(where, "right"))
    with _schema("equivalence shape: "):
        return Equivalence(left, right)


def _decode_cutoff(data: dict, where: str = "") -> Cutoff:
    _check_keys(data, {"weights", "quotient"}, where)
    raw = _need(data, "weights", dict, where)
    ctx = _at(where, "weights")
    with _schema(f"field {ctx!r}: "):
        weights = Measure({z: _rational(v, f"{ctx}.{z}") for z, v in raw.items()})
        return Cutoff(weights, _str_map(data, "quotient", where))


def _decode_function(data: dict, where: str = "") -> dict[str, Fraction]:
    _check_keys(data, {"values"}, where)
    raw = _need(data, "values", dict, where)
    ctx = _at(where, "values")
    return {str(x): _rational(v, f"{ctx}.{x}") for x, v in sorted(raw.items())}


def _decode_pair(data: dict) -> Groupoid:
    _check_keys(data, {"points"}, "")
    points = _str_list(data, "points", "")
    with _schema("pair constructor: "):
        return pair_groupoid(points)


def _decode_group(data: dict) -> Groupoid:
    _check_keys(data, {"table"}, "")
    rows = _need(data, "table", list, "")
    checks = [(c, str, None) for c in range(3)]
    table = _rows("table", rows, "expected [a, b, ab] string triple", checks, _pairs)
    with _schema("group constructor: "):
        return group_as_groupoid(table)


def _decode_relation(data: dict) -> Groupoid:
    _check_keys(data, {"map", "codomain"}, "")
    codomain = _str_list(data, "codomain", "") if "codomain" in data else None
    quotient = _str_map(data, "map", "")
    with _schema("relation constructor: "):
        return relation_groupoid(quotient, codomain)


_DECODERS = {
    "groupoid": _decode_groupoid,
    "system": _decode_system,
    "action": _decode_action,
    "equivalence": _decode_equivalence,
    "cutoff": _decode_cutoff,
    "function": _decode_function,
}

_SUGAR = {
    "pair": _decode_pair,
    "group": _decode_group,
    "relation": _decode_relation,
}


def parse(text: str) -> Document:
    """Parse canonical JSON text into a Document holding the live object.

    Constructor shorthand kinds (pair, group, relation) expand to groupoid
    documents on load.  Tokens must be declared before use, and neither an
    object key nor a table row's pair may repeat; meta values must be
    strings.  Algebraic axioms are deliberately not enforced here.

    Cost: json.loads, then per field C set operations over its shape and
    each column of tokens, then the constructor.  A field that fails them
    falls back to its reader's ordered walk (_refs or _rows), which alone
    writes SchemaError texts, so the first offender does not depend on the
    fast check.  On a clean pair(30) document (2.1 MiB) decoding takes about
    19 ms after json.loads's 9 ms, against 36-68 ms when every token was
    walked (Python 3.11, 2-vCPU x86-64 VM).
    """
    data = _load_json(text)
    if not isinstance(data, dict):
        raise SchemaError("expected a top-level object")
    version = data.get("version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(f"unknown version: {version!r} (expected {SCHEMA_VERSION})")
    kind = data.get("kind")
    if not isinstance(data.get("meta", {}), dict):
        raise _fail("meta", "expected an object")
    meta = dict(sorted(_str_map(data, "meta", "").items())) if "meta" in data else {}
    if kind in _SUGAR:
        return Document("groupoid", _SUGAR[kind](data), meta)
    if kind in _DECODERS:
        return Document(kind, _DECODERS[kind](data), meta)
    raise SchemaError(f"unknown document kind: {kind!r}")
