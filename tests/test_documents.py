"""The JSON document layer: round trips, strict parsing, sugar kinds."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from haarsys import Document, SchemaError, parse, serialize, validate_groupoid
from haarsys.documents import SCHEMA_VERSION
from haarsys.fixtures import fixture_corpus, pair2, z2


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


def test_serialized_form_is_sorted_and_newline_terminated():
    text = serialize(Document("groupoid", pair2()))
    assert text.endswith("\n")
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


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


# ---------------------------------------------------------------------------
# strictness


def test_rejects_bad_json_with_position():
    with pytest.raises(SchemaError, match="line 1"):
        parse("not json")


def test_rejects_wrong_version():
    with pytest.raises(SchemaError, match="unknown version"):
        parse(json.dumps({"version": 2, "kind": "function", "values": {}}))
    assert SCHEMA_VERSION == 1


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
