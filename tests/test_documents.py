"""The JSON document layer: round trips, strict parsing, sugar kinds."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from generators import fixture_corpus
from haarsys import (
    Document,
    Measure,
    SchemaError,
    fiber_system,
    make_groupoid,
    parse,
    serialize,
    validate_groupoid,
)
from haarsys import cli
from haarsys.documents import SCHEMA_VERSION, _emit
from haarsys.fixtures import pair2, z2


def payload(doc_text):
    return json.loads(doc_text)


# ---------------------------------------------------------------------------
# round trips


def test_round_trip_on_the_whole_corpus():
    for name, doc in sorted(fixture_corpus().items()):
        text = serialize(doc)
        back = parse(text)
        assert back == doc, name
        assert serialize(back) == text, name


def dumps_oracle(text: str) -> str:
    """The canonical text as json.dumps writes it, independent of serialize's emitter."""
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def demo_documents(monkeypatch) -> list[Document]:
    """Every document the five demos serialize, recorded as they run."""
    seen: list[Document] = []

    def record(doc):
        seen.append(doc)
        return serialize(doc)

    monkeypatch.setattr(cli, "serialize", record)
    for run in cli.DEMOS.values():
        run()
    return seen


def test_serialized_form_is_sorted_and_newline_terminated(monkeypatch):
    # every corpus document and every document the demos print
    docs = list(fixture_corpus().values()) + demo_documents(monkeypatch)
    assert len(docs) > len(fixture_corpus()) + len(cli.DEMOS)
    for doc in docs:
        text = serialize(doc)
        assert text == dumps_oracle(text), doc.kind


def test_serialize_writes_empty_fields_as_empty_brackets():
    empty = Document("groupoid", make_groupoid([], [], {}, {}, {}, {}), {"note": ""})
    text = serialize(empty)
    assert text == dumps_oracle(text)
    assert '"compose": [],' in text and '"range": {},' in text
    assert parse(text) == empty
    for doc in (Document("function", {}), Document("system", fiber_system({}, {}))):
        assert serialize(doc) == dumps_oracle(serialize(doc))


def test_emitter_matches_json_dumps_on_mixed_nesting():
    value = {"b": [[], ["x"], [1, {"k": []}], "y"], "a": {"z": {}, "y": ["\u00e9"]}, "c": 0}
    assert _emit(value, "") == json.dumps(value, sort_keys=True, indent=2)


# quotes, backslashes, control characters, non-ASCII and astral characters
ODD = st.text(st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\U0001f600a,|:/'), max_size=4)
tokens = st.lists(ODD, unique=True, max_size=5)
weights = st.fractions(min_value=0, max_value=50, max_denominator=7)


@st.composite
def odd_documents(draw):
    toks = draw(tokens)
    meta = draw(st.dictionaries(ODD, ODD, max_size=3))
    kind = draw(st.sampled_from(["groupoid", "system", "function"]))
    if not toks:
        empty = {"groupoid": make_groupoid([], [], {}, {}, {}, {}), "system": fiber_system({}, {})}
        return Document(kind, empty.get(kind, {}), meta)
    tok = st.sampled_from(toks)
    if kind == "groupoid":
        maps = [draw(st.dictionaries(tok, tok)) for _ in range(3)]
        compose = draw(st.dictionaries(st.tuples(tok, tok), tok))
        units = draw(st.lists(tok, unique=True))
        return Document(kind, make_groupoid(toks, units, *maps, compose), meta)
    if kind == "system":
        base = draw(st.dictionaries(tok, tok))
        measures = {u: Measure(draw(st.dictionaries(tok, weights))) for u in set(base.values())}
        return Document(kind, fiber_system(base, measures), meta)
    return Document(kind, draw(st.dictionaries(tok, weights | st.integers(-9, 9))), meta)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(odd_documents())
def test_serialize_writes_the_json_dumps_bytes_on_odd_tokens(doc):
    text = serialize(doc)
    assert text == dumps_oracle(text)
    assert text.isascii()


def test_fractional_weights_round_trip_as_strings():
    doc = parse(
        json.dumps(
            {
                "version": 1,
                "kind": "function",
                "values": {"e": "1/3"},
            }
        )
    )
    assert doc.payload["e"] == Fraction(1, 3)
    assert '"1/3"' in serialize(doc)


def test_meta_survives_and_stays_sorted():
    doc = Document("groupoid", z2(), {"b": "two", "a": "one"})
    back = parse(serialize(doc))
    assert back.meta == {"a": "one", "b": "two"}


def test_meta_is_omitted_when_empty():
    assert '"meta"' not in serialize(Document("groupoid", z2()))


@pytest.mark.parametrize(
    "meta, message",
    [
        ({"n": 3, "x": None}, "field 'meta': non-string value for 'n': 3"),
        ({"a": "one", "x": None}, "field 'meta': non-string value for 'x': None"),
        (["a"], "field 'meta': expected an object"),
    ],
)
def test_meta_values_must_be_strings(meta, message):
    data = payload(serialize(Document("groupoid", z2())))
    data["meta"] = meta
    with pytest.raises(SchemaError) as err:
        parse(json.dumps(data))
    assert str(err.value) == message


@pytest.mark.parametrize(
    "meta, message",
    [
        ({"n": 3}, "field 'meta': non-string value for 'n': 3"),
        ({"a": "one", "x": None}, "field 'meta': non-string value for 'x': None"),
        ({3: "n"}, "field 'meta': non-string key: 3"),
    ],
)
def test_serialize_refuses_meta_that_parse_refuses(meta, message):
    with pytest.raises(SchemaError) as err:
        serialize(Document("groupoid", z2(), meta))
    assert str(err.value) == message


# ---------------------------------------------------------------------------
# strictness


def test_rejects_bad_json_with_position():
    with pytest.raises(SchemaError, match="line 1"):
        parse("not json")


def test_rejects_wrong_version():
    with pytest.raises(SchemaError, match="unknown version"):
        parse(json.dumps({"version": 2, "kind": "function", "values": {}}))
    assert SCHEMA_VERSION == 1


@pytest.mark.parametrize("version", [True, 1.0])
def test_rejects_a_version_equal_to_one_that_is_not_the_integer(version):
    with pytest.raises(SchemaError) as err:
        parse(json.dumps({"version": version, "kind": "function", "values": {}}))
    assert str(err.value) == f"unknown version: {version!r} (expected 1)"


def one_point_text(token: str) -> str:
    """A groupoid document whose second element is token, written into the JSON text as is."""
    return (
        '{"version": 1, "kind": "groupoid", "elements": ["e", "%s"], "units": ["e"], "range": {"e": "e"},'
        ' "source": {"e": "e"}, "inverse": {"e": "e"}, "compose": [["e", "e", "e"]]}' % token
    )


@pytest.mark.parametrize(
    "text, message",
    [
        (one_point_text("\\ud800"), "field 'elements': not Unicode text (lone surrogate): '\\ud800'"),
        (one_point_text("a\\uDFFF"), "field 'elements': not Unicode text (lone surrogate): 'a\\udfff'"),
        (one_point_text("\udc80"), "field 'elements': not Unicode text (lone surrogate): '\\udc80'"),
        (
            json.dumps({"version": 1, "kind": "function", "values": {}, "meta": {"\ud800": "x"}}),
            "field 'meta.\\ud800': not Unicode text (lone surrogate): '\\ud800'",
        ),
    ],
    ids=["escape", "escape-after-text", "raw", "key"],
)
def test_rejects_a_lone_surrogate_naming_its_field(text, message):
    with pytest.raises(SchemaError) as err:
        parse(text)
    assert str(err.value) == message


def test_accepts_an_escaped_surrogate_pair():
    doc = parse(one_point_text("\\ud83d\\ude00"))
    assert doc.payload.elements == {"e", "\U0001f600"}


def test_rejects_unknown_kind():
    with pytest.raises(SchemaError, match="unknown document kind"):
        parse(json.dumps({"version": 1, "kind": "spectrum"}))


def test_rejects_unknown_fields():
    with pytest.raises(SchemaError, match="unexpected field"):
        parse(json.dumps({"version": 1, "kind": "function", "values": {}, "extra": 1}))


def test_rejects_decimal_weights_with_guidance():
    text = json.dumps({"version": 1, "kind": "function", "values": {"e": 0.5}})
    with pytest.raises(SchemaError, match="p/q"):
        parse(text)


def test_rejects_boolean_weights():
    text = json.dumps({"version": 1, "kind": "function", "values": {"e": True}})
    with pytest.raises(SchemaError, match="not a rational"):
        parse(text)


@pytest.mark.parametrize("weight", ["1\n", "\u0663/2"])
def test_rejects_rational_strings_beyond_ascii_digits(weight):
    text = json.dumps({"version": 1, "kind": "function", "values": {"e": weight}})
    with pytest.raises(SchemaError) as err:
        parse(text)
    assert str(err.value) == f"field 'values.e': not a rational \"p/q\" string: {weight!r}"


def test_accepts_integer_weights():
    doc = parse(json.dumps({"version": 1, "kind": "function", "values": {"e": -2}}))
    assert doc.payload["e"] == -2


def test_compose_triple_naming_an_unknown_token_fails():
    base = payload(serialize(Document("groupoid", z2())))
    base["compose"].append(["g", "ghost", "e"])
    with pytest.raises(SchemaError, match="ghost"):
        parse(json.dumps(base))


def test_duplicate_compose_pair_fails():
    base = payload(serialize(Document("groupoid", z2())))
    base["compose"].append(["g", "g", "g"])
    with pytest.raises(SchemaError, match="duplicate pair"):
        parse(json.dumps(base))


def test_repeated_element_fails_naming_the_first_repeat():
    base = payload(serialize(Document("groupoid", z2())))
    base["elements"] = ["e", "g", "g"]
    with pytest.raises(SchemaError) as err:
        parse(json.dumps(base))
    assert str(err.value) == "field 'elements': duplicate token: 'g'"


def test_repeated_unit_fails_with_its_path():
    data = payload(serialize(fixture_corpus()["action-swap"]))
    data["groupoid"]["units"] = ["e", "e"]
    with pytest.raises(SchemaError) as err:
        parse(json.dumps(data))
    assert str(err.value) == "field 'groupoid.units': duplicate token: 'e'"


def test_repeated_carrier_point_fails_instead_of_merging():
    data = payload(serialize(fixture_corpus()["equivalence-rect32"]))
    carrier = data["left"]["carrier"]
    data["left"]["carrier"] = [carrier[1], carrier[0], carrier[1], carrier[0]] + carrier[2:]
    with pytest.raises(SchemaError) as err:
        parse(json.dumps(data))
    assert str(err.value) == f"field 'left.carrier': duplicate token: {carrier[1]!r}"


def test_repeated_object_key_fails_naming_it():
    text = serialize(Document("groupoid", z2())).replace('"range": {', '"range": {"g": "g", ', 1)
    with pytest.raises(SchemaError) as err:
        parse(text)
    assert str(err.value) == "duplicate key: 'g'"


def test_repeated_object_key_is_named_when_another_key_comes_first():
    text = '{"version": 1, "kind": "function", "values": {"e": "1", "g": "2", "g": "3"}}'
    with pytest.raises(SchemaError) as err:
        parse(text)
    assert str(err.value) == "duplicate key: 'g'"


def schema_error(data: dict) -> str:
    with pytest.raises(SchemaError) as err:
        parse(json.dumps(data))
    return str(err.value)


def edited(name: str, path: tuple, value) -> dict:
    """The corpus document name with the field at path set to value."""
    data = payload(serialize(fixture_corpus()[name]))
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return data


Z2_ROWS = [["e", "e", "e"], ["e", "g", "g"], ["g", "e", "g"], ["g", "g", "e"]]
SWAP_ROWS = [["e", "z1", "z1"], ["e", "z2", "z2"], ["g", "z1", "z2"], ["g", "z2", "z1"]]
RIGHT = payload(serialize(fixture_corpus()["action-rect32-right"]))["table"]
Z2, SWAP, RECT = "groupoid-z2", "action-swap", "action-rect32-right"


@pytest.mark.parametrize(
    "name, path, value, message",
    [
        (Z2, ("elements",), ["e", 5],
         "field 'elements': non-string token: 5"),
        (Z2, ("units",), ["ghost"],
         "field 'units': references unknown element: 'ghost'"),
        (Z2, ("range",), {"e": "e", "g": 5},
         "field 'range': non-string value for 'g': 5"),
        (Z2, ("range",), {"e": "e", "ghost": "e"},
         "field 'range': references unknown element: 'ghost'"),
        (Z2, ("inverse",), {"e": "e", "g": "ghost"},
         "field 'inverse': references unknown element: 'ghost'"),
        (Z2, ("compose",), Z2_ROWS + ["g"],
         "field 'compose': expected [x, y, xy] triple, got 'g'"),
        (Z2, ("compose",), Z2_ROWS + [["g", "g"]],
         "field 'compose': expected [x, y, xy] triple, got ['g', 'g']"),
        (Z2, ("compose",), Z2_ROWS + [["g", 5, "e"]],
         "field 'compose': non-string token: 5"),
        (Z2, ("compose",), Z2_ROWS + [["g", ["g"], "e"]],
         "field 'compose': non-string token: ['g']"),
        (Z2, ("compose",), Z2_ROWS + [["g", "g", "g"]],
         "field 'compose': duplicate pair: ['g', 'g']"),
        # the ordered walk names the first offender, not the first kind of fault
        (Z2, ("compose",), [["e", "e", "e"], ["g", "ghost", "e"], ["g"], ["e", "e", "g"]],
         "field 'compose': references unknown element: 'ghost'"),
        (SWAP, ("groupoid", "compose"), Z2_ROWS + [["g", "e", "ghost"]],
         "field 'groupoid.compose': references unknown element: 'ghost'"),
        (SWAP, ("table",), SWAP_ROWS + ["g"],
         "field 'table': expected a three-token row, got 'g'"),
        (SWAP, ("table",), SWAP_ROWS + [["g", "z1"]],
         "field 'table': expected a three-token row, got ['g', 'z1']"),
        (SWAP, ("table",), SWAP_ROWS + [[5, "z1", "z2"]],
         "field 'table': references unknown element: 5"),
        (SWAP, ("table",), SWAP_ROWS + [[["g"], "z1", "z2"]],
         "field 'table': references unknown element: ['g']"),
        (SWAP, ("table",), SWAP_ROWS + [["g", {}, "z2"]],
         "field 'table': references unknown carrier point: {}"),
        (SWAP, ("table",), SWAP_ROWS + [["g", "z1", ["z2"]]],
         "field 'table': references unknown carrier point: ['z2']"),
        (SWAP, ("table",), SWAP_ROWS + [["ghost", "z1", "z2"]],
         "field 'table': references unknown element: 'ghost'"),
        (SWAP, ("table",), SWAP_ROWS + [["g", "zz", "z2"]],
         "field 'table': references unknown carrier point: 'zz'"),
        (SWAP, ("table",), SWAP_ROWS + [["g", "z1", "zz"]],
         "field 'table': references unknown carrier point: 'zz'"),
        (SWAP, ("table",), SWAP_ROWS + [["g", "z1", "z1"]],
         "field 'table': duplicate pair: ['g', 'z1']"),
        (RECT, ("table",), RIGHT + [RIGHT[0]],
         f"field 'table': duplicate pair: {RIGHT[0][:2]!r}"),
        (RECT, ("groupoid", "inverse"), {"pair:a,a": "pair:a,a"},
         "field 'table': no inverse declared for acting element: 'pair:a,b'"),
    ],
)
def test_fast_checks_fall_back_to_the_ordered_walk_texts(name, path, value, message):
    assert schema_error(edited(name, path, value)) == message


def test_parse_keeps_axiom_checking_out_of_the_schema():
    # a wrong product is schema-legal; the validator is the place that flags it
    base = payload(serialize(Document("groupoid", z2())))
    rows = [row for row in base["compose"] if row[:2] != ["g", "g"]]
    rows.append(["g", "g", "g"])
    base["compose"] = rows
    doc = parse(json.dumps(base))
    assert doc.kind == "groupoid"
    assert not validate_groupoid(doc.payload).passed


# ---------------------------------------------------------------------------
# actions and equivalences


def test_right_action_rows_show_the_acting_element():
    corpus = fixture_corpus()
    text = serialize(corpus["action-rect32-right"])
    data = payload(text)
    assert data["side"] == "right"
    # rows read [point, acting element, moved point] in presentation order
    assert ["1|a", "pair:a,b", "1|b"] in data["table"]


def test_action_row_referencing_unknown_carrier_point_fails():
    data = payload(serialize(fixture_corpus()["action-swap"]))
    data["table"].append(["g", "zz", "z1"])
    with pytest.raises(SchemaError, match="zz"):
        parse(json.dumps(data))


def test_equivalence_with_mismatched_carriers_fails():
    data = payload(serialize(fixture_corpus()["equivalence-rect32"]))
    data["right"]["carrier"] = data["right"]["carrier"][:-1]
    with pytest.raises(SchemaError):
        parse(json.dumps(data))


def test_cutoff_missing_a_fiber_fails_at_parse():
    data = payload(serialize(fixture_corpus()["cutoff-swap"]))
    data["quotient"]["z9"] = "q9"
    with pytest.raises(SchemaError):
        parse(json.dumps(data))


# ---------------------------------------------------------------------------
# constructor sugar


def test_pair_sugar_expands_to_the_pair_groupoid():
    doc = parse(json.dumps({"version": 1, "kind": "pair", "points": ["1", "2"]}))
    assert doc.kind == "groupoid"
    assert doc.payload == pair2()


def test_group_sugar_expands_a_table():
    rows = [["e", "e", "e"], ["e", "g", "g"], ["g", "e", "g"], ["g", "g", "e"]]
    doc = parse(json.dumps({"version": 1, "kind": "group", "table": rows}))
    assert doc.payload == z2()


Z2_GOOD = [["e", "e", "e"], ["e", "g", "g"], ["g", "e", "g"], ["g", "g", "e"]]


@pytest.mark.parametrize(
    "rows, message",
    [
        # a repeat would let the last row hide the wrong product g*g = g
        (Z2_GOOD[:3] + [["g", "g", "g"], ["g", "g", "e"]],
         "field 'table': duplicate pair: ['g', 'g']"),
        (Z2_GOOD[:2] + ["g"] + Z2_GOOD[3:],
         "field 'table': expected [a, b, ab] string triple, got 'g'"),
        (Z2_GOOD[:2] + [["g", "g"]] + Z2_GOOD[3:],
         "field 'table': expected [a, b, ab] string triple, got ['g', 'g']"),
        (Z2_GOOD[:2] + [["g", 5, "e"]] + Z2_GOOD[3:],
         "field 'table': expected [a, b, ab] string triple, got ['g', 5, 'e']"),
        (Z2_GOOD[:2] + [["g", "g", ["e"]]] + Z2_GOOD[3:],
         "field 'table': expected [a, b, ab] string triple, got ['g', 'g', ['e']]"),
    ],
)
def test_group_sugar_names_the_first_bad_row(rows, message):
    with pytest.raises(SchemaError) as err:
        parse(json.dumps({"version": 1, "kind": "group", "table": rows}))
    assert str(err.value) == message


def test_group_sugar_rejects_broken_tables():
    rows = [["e", "e", "e"], ["e", "g", "g"], ["g", "e", "g"], ["g", "g", "g"]]
    with pytest.raises(SchemaError, match="group constructor"):
        parse(json.dumps({"version": 1, "kind": "group", "table": rows}))


def test_relation_sugar_expands_a_quotient_map():
    doc = parse(
        json.dumps({"version": 1, "kind": "relation", "map": {"1": "A", "2": "A"}})
    )
    assert doc.kind == "groupoid"
    assert len(doc.payload.elements) == 4


def test_pair_sugar_rejects_a_repeated_point():
    with pytest.raises(SchemaError) as err:
        parse(json.dumps({"version": 1, "kind": "pair", "points": ["1", "2", "1"]}))
    assert str(err.value) == "field 'points': duplicate token: '1'"


def test_relation_sugar_honors_codomain():
    with pytest.raises(SchemaError, match="relation constructor"):
        parse(
            json.dumps(
                {
                    "version": 1,
                    "kind": "relation",
                    "map": {"1": "A"},
                    "codomain": ["A", "B"],
                }
            )
        )
