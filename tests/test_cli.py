"""Command-line surface: exit codes, report output, demo determinism."""

from __future__ import annotations

import io
import json
import subprocess
import sys

import pytest

from generators import colliding_tokens_equivalence, fixture_corpus, off_unit_family
from haarsys import (
    Action,
    Document,
    Equivalence,
    Measure,
    counting_haar,
    fiber_system,
    full_fiber_system,
    make_groupoid,
    pair_groupoid,
    parse,
    relation_groupoid,
    serialize,
)
from haarsys.cli import main
from haarsys.fixtures import (
    pair2,
    pair3,
    trivial_group,
    weighted_pair3_haar,
    z2,
    z2_skew_system,
)

CORPUS = fixture_corpus()


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(serialize(doc))
    return str(path)


def corrupted_pair2():
    return self_inverse(pair2())


def self_inverse(G):
    """G with pair:1,2 declared its own inverse."""
    inv = dict(G.inverse_map)
    inv["pair:1,2"] = "pair:1,2"
    return make_groupoid(
        G.elements, G.units, G.range_map, G.source_map, inv, G.compose_map
    )


# ---------------------------------------------------------------------------
# validate


def test_validate_good_groupoid_exits_zero(tmp_path, capsys):
    path = write_doc(tmp_path, "g.json", Document("groupoid", pair2()))
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out.startswith("status: PASS")


def test_validate_broken_groupoid_exits_one_with_witness(tmp_path, capsys):
    path = write_doc(tmp_path, "bad.json", Document("groupoid", corrupted_pair2()))
    assert main(["validate", path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("status: FAIL")
    assert "violation" in out
    assert "pair:1,2" in out


def test_validate_malformed_document_exits_two(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"version": 1, "kind": "nonsense"}')
    assert main(["validate", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_repeated_carrier_point_exits_two(tmp_path, capsys):
    data = json.loads(serialize(CORPUS["action-swap"]))
    data["carrier"] = ["z1", "z1", "z2"]
    path = tmp_path / "a.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: field 'carrier': duplicate token: 'z1'\n"


def test_validate_relation_map_with_a_non_string_value_exits_two(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text('{"version": 1, "kind": "relation", "map": {"a": 3}}')
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: field 'map': non-string value for 'a': 3\n"


def test_validate_repeated_object_key_exits_two(tmp_path, capsys):
    text = serialize(CORPUS["system-z2-skew"])
    path = tmp_path / "s.json"
    path.write_text(text.replace('"base": {', '"base": {"g": "e", ', 1))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: duplicate key: 'g'\n"


def test_validate_repeated_group_row_exits_two(tmp_path, capsys):
    rows = [["e", "e", "e"], ["e", "g", "g"], ["g", "e", "g"], ["g", "g", "g"], ["g", "g", "e"]]
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"version": 1, "kind": "group", "table": rows}))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: field 'table': duplicate pair: ['g', 'g']\n"


def test_validate_non_string_meta_value_exits_two(tmp_path, capsys):
    data = json.loads(serialize(Document("groupoid", z2())))
    data["meta"] = {"n": 3, "x": None}
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(data))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: field 'meta': non-string value for 'n': 3\n"


def test_validate_missing_file_exits_two(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_validate_bytes_that_are_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "z2.json"
    path.write_bytes(b'{"version": 1, "kind": "gro\xffupoid"}')
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: not UTF-8: invalid byte at offset 27\n"


def test_validate_json_nested_100000_deep_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize(
    "value, problem",
    [("7" * 5000, "invalid JSON"), ('"1/' + "7" * 5000 + '"', "field 'values.a'")],
    ids=["json-integer", "rational-string"],
)
def test_validate_5000_digit_integer_exits_two(tmp_path, capsys, value, problem):
    path = tmp_path / "f.json"
    path.write_text('{"version": 1, "kind": "function", "values": {"a": %s}}' % value)
    assert main(["validate", str(path)]) == 2
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == f"error: {problem}: integer with over {limit} digits\n"


def test_validate_lone_surrogate_token_exits_two_from_a_real_stdout(tmp_path):
    # a subprocess, because its stdout refuses to encode a surrogate and capsys's StringIO does not
    path = tmp_path / "g.json"
    path.write_text(
        '{"version": 1, "kind": "groupoid", "elements": ["e", "\\ud800"], "units": ["e"], "range": {"e": "e"},'
        ' "source": {"e": "e"}, "inverse": {"e": "e"}, "compose": [["e", "e", "e"]]}'
    )
    proc = subprocess.run(
        [sys.executable, "-m", "haarsys.cli", "validate", str(path)],
        capture_output=True,
        text=True,
        check=False,
    )
    error = "error: field 'elements': not Unicode text (lone surrogate): '\\ud800'\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", error)


def test_validate_reads_stdin_dash(monkeypatch, capsys):
    monkeypatch.setattr(
        sys, "stdin", io.StringIO(serialize(Document("groupoid", z2())))
    )
    assert main(["validate", "-"]) == 0
    assert "status: PASS" in capsys.readouterr().out


def test_validate_every_corpus_document_exits_cleanly(tmp_path, capsys):
    # z2-skew is schema-clean even though it fails the haar check
    for name, doc in sorted(CORPUS.items()):
        path = write_doc(tmp_path, f"{name}.json", doc)
        assert main(["validate", path]) == 0, name
    capsys.readouterr()


@pytest.mark.parametrize(
    "name, notes",
    [
        (
            "cutoff-swap",
            ["compact support: vacuous (finite discrete)", "defining property verified at construction"],
        ),
        ("function-z2", ["signed rational values: nothing further to check"]),
    ],
    ids=["cutoff", "function"],
)
def test_validate_prints_the_notes_of_a_cutoff_or_function_document(name, notes, tmp_path, capsys):
    path = write_doc(tmp_path, f"{name}.json", CORPUS[name])
    assert main(["validate", path]) == 0
    assert capsys.readouterr().out == "status: PASS\n" + "".join(f"note: {n}\n" for n in notes)


def test_unknown_subcommand_exits_two(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# check-haar


def test_check_haar_counting_passes(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", pair3()))
    s = write_doc(
        tmp_path, "s.json", Document("system", counting_haar(pair3()).system)
    )
    assert main(["check-haar", "--groupoid", g, "--system", s]) == 0
    assert "status: PASS" in capsys.readouterr().out


def test_check_haar_skew_fails_with_invariance_witness(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", z2()))
    s = write_doc(tmp_path, "s.json", Document("system", z2_skew_system()))
    assert main(["check-haar", "--groupoid", g, "--system", s]) == 1
    out = capsys.readouterr().out
    assert "left invariance" in out
    assert "x=g" in out


def test_check_haar_fails_on_a_measure_keyed_off_the_units(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", pair3()))
    s = write_doc(tmp_path, "s.json", Document("system", off_unit_family()))
    assert main(["check-haar", "--groupoid", g, "--system", s]) == 1
    lines = capsys.readouterr().out.splitlines()
    witness = "violation support containment: unit=pair:1,2 arrow=pair:1,3"
    assert lines[:2] == ["status: FAIL", witness]


# ---------------------------------------------------------------------------
# transfer


def test_transfer_rect32_writes_a_passing_system(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", pair3()))
    lam = write_doc(tmp_path, "lam.json", Document("system", weighted_pair3_haar().system))
    e = write_doc(tmp_path, "e.json", CORPUS["equivalence-rect32"])
    out = tmp_path / "out.json"
    code = main(
        ["transfer", "--groupoid", g, "--haar", lam, "--equivalence", e, "--out", str(out)]
    )
    assert code == 0
    doc = parse(out.read_text())
    assert doc.kind == "system"
    assert doc.meta["beta"].startswith("counting system")
    assert doc.meta["phi"].startswith("indicator of canonical orbit representatives")
    capsys.readouterr()


def test_transfer_mismatched_equivalence_exits_one(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", z2()))
    lam = write_doc(tmp_path, "lam.json", Document("system", counting_haar(z2()).system))
    e = write_doc(tmp_path, "e.json", CORPUS["equivalence-rect32"])
    code = main(["transfer", "--groupoid", g, "--haar", lam, "--equivalence", e])
    assert code == 1
    assert "[stage: equivalence]" in capsys.readouterr().err


def test_internal_error_exits_one_with_one_line(monkeypatch, tmp_path, capsys):
    def broken(*args):
        raise RuntimeError("internal: averaged system not full")

    monkeypatch.setattr("haarsys.transfer._average", broken)
    g = write_doc(tmp_path, "g.json", Document("groupoid", pair3()))
    lam = write_doc(tmp_path, "lam.json", Document("system", weighted_pair3_haar().system))
    e = write_doc(tmp_path, "e.json", CORPUS["equivalence-rect32"])
    assert main(["transfer", "--groupoid", g, "--haar", lam, "--equivalence", e]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: internal: averaged system not full\n"


def test_transfer_across_colliding_class_tokens_exits_zero(tmp_path, capsys):
    # imprimitivity refuses this action's class tokens; the transfer names no class and succeeds
    E = colliding_tokens_equivalence()
    G = E.left.groupoid
    g = write_doc(tmp_path, "g.json", Document("groupoid", G))
    lam = write_doc(tmp_path, "lam.json", Document("system", counting_haar(G).system))
    e = write_doc(tmp_path, "e.json", Document("equivalence", E))
    out = tmp_path / "out.json"
    assert main(["transfer", "--groupoid", g, "--haar", lam, "--equivalence", e, "--out", str(out)]) == 0
    assert parse(out.read_text()).payload == counting_haar(E.right.groupoid).system
    capsys.readouterr()


def test_transfer_rejects_wrong_document_kind_exits_two(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", pair3()))
    e = write_doc(tmp_path, "e.json", CORPUS["equivalence-rect32"])
    code = main(["transfer", "--groupoid", g, "--haar", g, "--equivalence", e])
    assert code == 2
    assert "expected a system document" in capsys.readouterr().err


def doubled_pair3_haar():
    """The weighted pair(3) system with pair:1,1 doubled at pair:1,1: full, not invariant."""
    lam = weighted_pair3_haar().system
    unit = lam.measures["pair:1,1"]
    return fiber_system(
        lam.base_map,
        {**lam.measures, "pair:1,1": Measure({**unit.weights, "pair:1,1": 2 * unit.weight("pair:1,1")})},
    )


def test_transfer_reports_a_non_haar_input_with_the_library_text(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", pair3()))
    lam = write_doc(tmp_path, "lam.json", Document("system", doubled_pair3_haar()))
    e = write_doc(tmp_path, "e.json", CORPUS["equivalence-rect32"])
    assert main(["transfer", "--groupoid", g, "--haar", lam, "--equivalence", e]) == 1
    assert capsys.readouterr().err == (
        "error: [stage: haar] not a Haar system: violation left invariance:"
        " x=pair:1,2 z=pair:1,1 lhs=2 rhs=1\n"
    )


def test_transfer_reports_an_invalid_groupoid_before_the_haar_input(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", self_inverse(pair3())))
    lam = write_doc(tmp_path, "lam.json", Document("system", doubled_pair3_haar()))
    e = write_doc(tmp_path, "e.json", CORPUS["equivalence-rect32"])
    assert main(["transfer", "--groupoid", g, "--haar", lam, "--equivalence", e]) == 1
    assert capsys.readouterr().err == (
        "error: [stage: groupoid] invalid left groupoid: violation inverse range law:"
        " x=pair:1,2 inv(x)=pair:1,2\n"
    )


# ---------------------------------------------------------------------------
# blowup and imprimitivity


def test_blowup_groupoid_only(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", z2()))
    fm = tmp_path / "map.json"
    fm.write_text(json.dumps({"z1": "e", "z2": "e"}))
    beta = write_doc(tmp_path, "beta.json", _blow_beta())
    out = tmp_path / "out.json"
    code = main(
        ["blowup", "--groupoid", g, "--map", str(fm), "--fsystem", beta, "--out", str(out)]
    )
    assert code == 0
    doc = parse(out.read_text())
    assert doc.kind == "groupoid"
    assert len(doc.payload.elements) == 8
    capsys.readouterr()


def _blow_beta():
    from haarsys import full_fiber_system

    return Document(
        "system", full_fiber_system({"z1": "e", "z2": "e"}, {"z1": 1, "z2": 1})
    )


def test_blowup_with_haar_emits_checked_system(tmp_path, capsys):
    from haarsys import blowup_arrow, check_haar

    g = write_doc(tmp_path, "g.json", Document("groupoid", z2()))
    fm = tmp_path / "map.json"
    fm.write_text(json.dumps({"z1": "e", "z2": "e"}))
    beta = write_doc(tmp_path, "beta.json", _blow_beta())
    lam = write_doc(tmp_path, "lam.json", Document("system", counting_haar(z2()).system))
    out = tmp_path / "out.json"
    code = main(
        [
            "blowup",
            "--groupoid", g,
            "--map", str(fm),
            "--fsystem", beta,
            "--haar", lam,
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = parse(out.read_text())
    assert doc.kind == "system"
    from haarsys import blow_up

    big = blow_up(z2(), {"z1": "e", "z2": "e"})
    assert check_haar(big, doc.payload).passed
    assert doc.payload.weight(blowup_arrow("z1", "e", "z1"), blowup_arrow("z1", "g", "z2")) == 1
    capsys.readouterr()


def test_blowup_reports_a_non_haar_input_with_the_library_text(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", z2()))
    fm = tmp_path / "map.json"
    fm.write_text(json.dumps({"z1": "e", "z2": "e"}))
    beta = write_doc(tmp_path, "beta.json", _blow_beta())
    lam = write_doc(tmp_path, "lam.json", Document("system", z2_skew_system()))
    args = ["blowup", "--groupoid", g, "--map", str(fm), "--fsystem", beta, "--haar", lam]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: not a Haar system: violation left invariance: x=g z=e lhs=1 rhs=2\n"
    )


def test_blowup_reports_an_invalid_groupoid_before_the_haar_input(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", self_inverse(pair3())))
    fm = tmp_path / "map.json"
    fm.write_text(json.dumps({"z1": "pair:1,1", "z2": "pair:2,2"}))
    fiber = Document("system", full_fiber_system({"z1": "pair:1,1", "z2": "pair:2,2"}))
    beta = write_doc(tmp_path, "beta.json", fiber)
    lam = write_doc(tmp_path, "lam.json", Document("system", doubled_pair3_haar()))
    args = ["blowup", "--groupoid", g, "--map", str(fm), "--fsystem", beta, "--haar", lam]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: invalid groupoid: violation inverse range law: x=pair:1,2 inv(x)=pair:1,2\n"
    )


def test_blowup_rejects_mismatched_fiber_system(tmp_path, capsys):
    from haarsys import full_fiber_system

    g = write_doc(tmp_path, "g.json", Document("groupoid", z2()))
    fm = tmp_path / "map.json"
    fm.write_text(json.dumps({"z1": "e", "z2": "e"}))
    wrong = Document("system", full_fiber_system({"w": "e"}, {"w": 1}))
    beta = write_doc(tmp_path, "beta.json", wrong)
    code = main(["blowup", "--groupoid", g, "--map", str(fm), "--fsystem", beta])
    assert code == 1
    assert "does not match the blow-up map" in capsys.readouterr().err


def test_blowup_refuses_a_repeated_map_key(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", z2()))
    fm = tmp_path / "map.json"
    fm.write_text('{"z1": "e", "z1": "e", "z2": "e"}')
    beta = write_doc(tmp_path, "beta.json", _blow_beta())
    assert main(["blowup", "--groupoid", g, "--map", str(fm), "--fsystem", beta]) == 2
    assert capsys.readouterr().err == f"error: {fm}: duplicate key: 'z1'\n"


def test_blowup_map_file_keeps_its_path_on_bad_json(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", z2()))
    fm = tmp_path / "map.json"
    fm.write_text('{"z1": "e",')
    beta = write_doc(tmp_path, "beta.json", _blow_beta())
    assert main(["blowup", "--groupoid", g, "--map", str(fm), "--fsystem", beta]) == 2
    problem = "Expecting property name enclosed in double quotes at line 1 column 12"
    assert capsys.readouterr().err == f"error: {fm}: invalid JSON: {problem}\n"


@pytest.mark.parametrize("text", ['["z1", "z2"]', '{"z1": "e", "z2": 1}'], ids=["array", "non-string"])
def test_blowup_map_file_must_map_points_to_unit_tokens(text, tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", z2()))
    fm = tmp_path / "map.json"
    fm.write_text(text)
    beta = write_doc(tmp_path, "beta.json", _blow_beta())
    assert main(["blowup", "--groupoid", g, "--map", str(fm), "--fsystem", beta]) == 2
    assert capsys.readouterr().err == f"error: {fm}: expected an object mapping points to unit tokens\n"


def _trivial_point_action():
    """z2 acting trivially on one point: a valid action that is not free."""
    from haarsys import left_action

    return left_action(z2(), ["p"], {"p": "e"}, {("e", "p"): "p", ("g", "p"): "p"})


def test_imprimitivity_refuses_an_action_that_is_not_free(tmp_path, capsys):
    a = write_doc(tmp_path, "a.json", Document("action", _trivial_point_action()))
    assert main(["imprimitivity", "--action", a]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: imprimitivity groupoid needs a free action\n")


def test_imprimitivity_with_system_refuses_an_action_that_is_not_free(tmp_path, capsys):
    a = write_doc(tmp_path, "a.json", Document("action", _trivial_point_action()))
    nu = Document("system", full_fiber_system({"p": "e"}, {"p": 1}))
    s = write_doc(tmp_path, "s.json", nu)
    assert main(["imprimitivity", "--action", a, "--system", s]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: imprimitivity needs a free action\n")


def test_imprimitivity_refuses_colliding_class_tokens_with_one_line(tmp_path, capsys):
    a = write_doc(tmp_path, "a.json", Document("action", colliding_tokens_equivalence().left))
    assert main(["imprimitivity", "--action", a]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: tokens collide under imprimitivity naming\n")


def test_imprimitivity_groupoid_from_action(tmp_path, capsys):
    a = write_doc(tmp_path, "a.json", CORPUS["action-swap"])
    out = tmp_path / "out.json"
    assert main(["imprimitivity", "--action", a, "--out", str(out)]) == 0
    doc = parse(out.read_text())
    assert doc.kind == "groupoid"
    assert len(doc.payload.units) == 1
    capsys.readouterr()


def test_imprimitivity_with_system_emits_haar(tmp_path, capsys):
    from haarsys import full_fiber_system
    from haarsys.fixtures import swap_action

    A = swap_action()
    nu = full_fiber_system(A.moment, {"z1": 3, "z2": 3})
    a = write_doc(tmp_path, "a.json", CORPUS["action-swap"])
    s = write_doc(tmp_path, "s.json", Document("system", nu))
    out = tmp_path / "out.json"
    assert main(["imprimitivity", "--action", a, "--system", s, "--out", str(out)]) == 0
    assert parse(out.read_text()).kind == "system"
    capsys.readouterr()


# ---------------------------------------------------------------------------
# convolve and assoc-check


def test_convolve_matches_hand_product(tmp_path, capsys):
    from haarsys import pair_arrow

    G = pair2()
    g = write_doc(tmp_path, "g.json", Document("groupoid", G))
    s = write_doc(tmp_path, "s.json", Document("system", counting_haar(G).system))
    f = write_doc(
        tmp_path,
        "f.json",
        Document("function", {pair_arrow("1", "1"): 2, pair_arrow("1", "2"): 3}),
    )
    h = write_doc(
        tmp_path,
        "h.json",
        Document("function", {pair_arrow("1", "1"): 5, pair_arrow("2", "1"): 7}),
    )
    assert main(["convolve", "--groupoid", g, "--system", s, "--f", f, "--h", h]) == 0
    doc = parse(capsys.readouterr().out)
    assert doc.kind == "function"
    # (f*h)(1,1) = f(1,1)h(1,1) + f(1,2)h(2,1) = 10 + 21
    assert doc.payload[pair_arrow("1", "1")] == 31


def test_convolve_function_off_groupoid_exits_two(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", pair2()))
    s = write_doc(tmp_path, "s.json", Document("system", counting_haar(pair2()).system))
    f = write_doc(tmp_path, "f.json", Document("function", {"ghost": 1}))
    assert main(["convolve", "--groupoid", g, "--system", s, "--f", f, "--h", f]) == 2
    capsys.readouterr()


def test_assoc_check_passes_weighted_pair3(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", pair3()))
    s = write_doc(tmp_path, "s.json", Document("system", weighted_pair3_haar().system))
    assert main(["assoc-check", "--groupoid", g, "--system", s]) == 0
    out = capsys.readouterr().out
    assert "status: PASS" in out
    assert "mode: exhaustive" in out


def test_assoc_check_flags_the_skewed_system(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", z2()))
    s = write_doc(tmp_path, "s.json", Document("system", z2_skew_system()))
    assert main(["assoc-check", "--groupoid", g, "--system", s]) == 1
    out = capsys.readouterr().out
    assert "lhs=2" in out and "rhs=4" in out


def test_assoc_check_fails_on_a_measure_keyed_off_the_units(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", pair3()))
    s = write_doc(tmp_path, "s.json", Document("system", off_unit_family()))
    assert main(["assoc-check", "--groupoid", g, "--system", s]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    witness = "family supported off its range fiber: unit=pair:1,2 element=pair:1,3"
    assert captured.err == f"error: {witness}\n"


def test_assoc_check_accepts_a_single_trial(tmp_path, capsys):
    G = pair_groupoid(["1", "2", "3", "4"])
    g = write_doc(tmp_path, "g.json", Document("groupoid", G))
    s = write_doc(tmp_path, "s.json", Document("system", counting_haar(G).system))
    assert main(["assoc-check", "--groupoid", g, "--system", s, "--trials", "1"]) == 0
    assert capsys.readouterr().out == (
        "status: PASS\nnote: mode: randomized (1 signed-combination triples, seed 0)\n"
    )


@pytest.mark.parametrize("trials", ["0", "-3", "two"])
def test_assoc_check_refuses_a_trial_count_below_one(trials, tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", pair2()))
    s = write_doc(tmp_path, "s.json", Document("system", counting_haar(pair2()).system))
    assert main(["assoc-check", "--groupoid", g, "--system", s, "--trials", trials]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--trials: expected a positive integer, got {trials!r}" in captured.err


# ---------------------------------------------------------------------------
# inputs that parse but break the groupoid laws


def pair3_without(x, y):
    G = pair3()
    compose = {k: v for k, v in G.compose_map.items() if k != (x, y)}
    return make_groupoid(G.elements, G.units, G.range_map, G.source_map, G.inverse_map, compose)


@pytest.mark.parametrize("command", ["check-haar", "convolve", "assoc-check"])
def test_missing_composition_entry_exits_one(command, tmp_path, capsys):
    x, y = "pair:1,2", "pair:2,3"
    g = write_doc(tmp_path, "g.json", Document("groupoid", pair3_without(x, y)))
    s = write_doc(tmp_path, "s.json", Document("system", counting_haar(pair3()).system))
    argv = [command, "--groupoid", g, "--system", s]
    if command == "convolve":
        f = write_doc(tmp_path, "f.json", Document("function", {x: 1}))
        h = write_doc(tmp_path, "h.json", Document("function", {y: 1}))
        argv += ["--f", f, "--h", h]
    assert main(argv) == 1
    captured = capsys.readouterr()
    missing = f"compose missing on composable pair: x={x} y={y}"
    if command == "check-haar":
        assert f"violation {missing}" in captured.out.splitlines()
    else:
        assert captured.err == f"error: convolve: {missing}\n"


def pair2_without(table, x):
    G = pair2()
    maps = {"range": G.range_map, "source": G.source_map, "inverse": G.inverse_map}
    maps[table] = {k: v for k, v in maps[table].items() if k != x}
    return make_groupoid(
        G.elements, G.units, maps["range"], maps["source"], maps["inverse"], G.compose_map
    )


@pytest.mark.parametrize("table", ["range", "inverse"])
def test_check_haar_reports_a_missing_map_entry(table, tmp_path, capsys):
    G = pair2_without(table, "pair:1,2")
    g = write_doc(tmp_path, "g.json", Document("groupoid", G))
    s = write_doc(tmp_path, "s.json", Document("system", full_fiber_system(G.range_map)))
    assert main(["check-haar", "--groupoid", g, "--system", s]) == 1
    captured = capsys.readouterr()
    assert f"violation {table} undefined: x=pair:1,2" in captured.out.splitlines()
    assert captured.err == ""


def test_convolve_on_a_missing_range_entry_exits_one(tmp_path, capsys):
    G = pair2_without("range", "pair:1,2")
    g = write_doc(tmp_path, "g.json", Document("groupoid", G))
    s = write_doc(tmp_path, "s.json", Document("system", full_fiber_system(G.range_map)))
    f = write_doc(tmp_path, "f.json", Document("function", {"pair:1,2": 1}))
    h = write_doc(tmp_path, "h.json", Document("function", {"pair:2,2": 1}))
    assert main(["convolve", "--groupoid", g, "--system", s, "--f", f, "--h", h]) == 1
    assert capsys.readouterr().err == "error: convolve: range undefined: x=pair:1,2\n"


def test_blowup_on_a_groupoid_missing_an_inverse_exits_one(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", pair2_without("inverse", "pair:1,2")))
    lift = {"p": "pair:1,1", "q": "pair:2,2"}
    fm = tmp_path / "map.json"
    fm.write_text(json.dumps(lift))
    beta = write_doc(tmp_path, "beta.json", Document("system", full_fiber_system(lift)))
    assert main(["blowup", "--groupoid", g, "--map", str(fm), "--fsystem", beta]) == 1
    err = capsys.readouterr().err
    assert err == "error: invalid groupoid: violation inverse undefined: x=pair:1,2\n"


def test_imprimitivity_on_a_groupoid_missing_a_source_exits_one(tmp_path, capsys):
    # rel:c,c acts on no point, so the action table never mentions it
    G = relation_groupoid({"a": "x", "b": "x", "c": "y"})
    source = {k: v for k, v in G.source_map.items() if k != "rel:c,c"}
    broken = make_groupoid(G.elements, G.units, G.range_map, source, G.inverse_map, G.compose_map)
    table = {(f"rel:{u},{v}", v): u for u in "ab" for v in "ab"}
    A = Action(broken, frozenset("ab"), {p: f"rel:{p},{p}" for p in "ab"}, table)
    a = write_doc(tmp_path, "a.json", Document("action", A))
    assert main(["imprimitivity", "--action", a]) == 1
    err = capsys.readouterr().err
    assert err == "error: invalid groupoid: violation source undefined: x=rel:c,c\n"


def non_unit_range_equivalence():
    # the arrow h of H has range h, which is not a unit
    H = make_groupoid(
        ["a", "b", "h"],
        ["a", "b"],
        {"a": "a", "b": "b", "h": "h"},
        {"a": "a", "b": "b", "h": "b"},
        {"a": "a", "b": "b", "h": "h"},
        {("a", "a"): "a", ("b", "b"): "b"},
    )
    left = Action(trivial_group(), frozenset({"z"}), {"z": "e"}, {("e", "z"): "z"})
    right = Action(H, frozenset({"z"}), {"z": "a"}, {("a", "z"): "z"}, "right")
    return Equivalence(left, right)


def partial_moment_equivalence():
    # the left moment map misses the carrier point z2
    carrier = frozenset({"z1", "z2"})
    fixed = {("e", "z1"): "z1", ("e", "z2"): "z2"}
    left = Action(trivial_group(), carrier, {"z1": "e"}, fixed)
    right = Action(trivial_group(), carrier, {"z1": "e", "z2": "e"}, fixed, "right")
    return Equivalence(left, right)


@pytest.mark.parametrize(
    "make, expected",
    [
        (non_unit_range_equivalence, "violation right moment not surjective: unit=b"),
        (partial_moment_equivalence, "violation left action not free: g=e z=z2"),
    ],
    ids=["non-unit-range", "partial-moment"],
)
def test_validate_parseable_broken_equivalence_exits_one(make, expected, tmp_path, capsys):
    path = write_doc(tmp_path, "e.json", Document("equivalence", make()))
    assert main(["validate", path]) == 1
    assert expected in capsys.readouterr().out.splitlines()


# ---------------------------------------------------------------------------
# demos


DEMO_NAMES = ["blowup-z2", "pair3-weighted", "rect32-transfer", "swap-average", "z2-nonassoc"]


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_demo_output_is_deterministic(name, capsys):
    assert main(["demo", name]) == 0
    first = capsys.readouterr().out
    assert main(["demo", name]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith("== ")


def test_demo_unknown_name_exits_two(capsys):
    assert main(["demo", "no-such-demo"]) == 2
    capsys.readouterr()


def test_console_script_runs_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "haarsys.cli", "demo", "z2-nonassoc"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert "lhs=2" in proc.stdout
