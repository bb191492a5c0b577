"""Command-line surface: exit codes, report output, demo determinism."""

from __future__ import annotations

import io
import json
import subprocess
import sys

import pytest

from haarsys import (
    Action,
    Document,
    Equivalence,
    counting_haar,
    make_groupoid,
    parse,
    serialize,
)
from haarsys.cli import main
from haarsys.fixtures import (
    fixture_corpus,
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
    G = pair2()
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


def test_validate_missing_file_exits_two(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_transfer_rejects_wrong_document_kind_exits_two(tmp_path, capsys):
    g = write_doc(tmp_path, "g.json", Document("groupoid", pair3()))
    e = write_doc(tmp_path, "e.json", CORPUS["equivalence-rect32"])
    code = main(["transfer", "--groupoid", g, "--haar", g, "--equivalence", e])
    assert code == 2
    assert "expected a system document" in capsys.readouterr().err


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
