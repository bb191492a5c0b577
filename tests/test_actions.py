"""Actions, orbit spaces, equivalences and the imprimitivity quotient."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

import generators as gen
from isosearch import isomorphic
from generators import unit_carrier_equivalence
from haarsys import (
    Document,
    Equivalence,
    imprimitivity_groupoid,
    imprimitivity_iso,
    is_free,
    left_action,
    left_translation_action,
    make_groupoid,
    opposite,
    opposite_equivalence,
    orbit_space,
    pair_arrow,
    pair_groupoid,
    relation_arrow,
    relation_groupoid,
    right_action,
    right_translation_action,
    serialize,
    unit_translation_action,
    validate_action,
    validate_equivalence,
)
from haarsys.cli import main
from haarsys.fixtures import pair2, pair3, pair_rectangle, rect32, swap_action, trivial_group, z2


def trivial_point_action():
    return left_action(z2(), ["p"], {"p": "e"}, {("e", "p"): "p", ("g", "p"): "p"})


# ---------------------------------------------------------------------------
# construction and validation


def test_swap_action_is_valid_and_free():
    A = swap_action()
    assert validate_action(A).passed
    assert is_free(A)
    assert A.act[("g", "z1")] == "z2"


def test_trivial_action_is_valid_but_not_free():
    A = trivial_point_action()
    assert validate_action(A).passed
    assert not is_free(A)


def test_translation_actions_are_free():
    assert is_free(left_translation_action(pair2()))
    assert is_free(right_translation_action(pair2()))


def test_action_table_must_cover_exactly_the_matched_pairs():
    with pytest.raises(ValueError):
        left_action(z2(), ["p"], {"p": "e"}, {("e", "p"): "p"})
    with pytest.raises(ValueError):
        left_action(
            z2(),
            ["p"],
            {"p": "e"},
            {("e", "p"): "p", ("g", "p"): "p", ("g", "q"): "q"},
        )


def test_action_must_leave_the_carrier_alone():
    with pytest.raises(ValueError):
        left_action(z2(), ["p"], {"p": "e"}, {("e", "p"): "p", ("g", "p"): "w"})


def test_constructors_raise_the_first_table_violation():
    with pytest.raises(ValueError) as exc:
        left_action(z2(), ["p"], {"p": "e"}, {("e", "p"): "p"})
    assert str(exc.value) == "invalid action: violation domain: g=g z=p missing"
    with pytest.raises(ValueError) as exc:
        right_action(z2(), ["p"], {"p": "e"}, {("p", "e"): "p", ("p", "g"): "w"})
    assert str(exc.value) == "invalid action: violation carrier: g=g z=p value=w"
    with pytest.raises(ValueError) as exc:
        right_action(z2(), ["p"], {"p": "e"}, {("p", "e"): "p", ("p", "h"): "p"})
    assert str(exc.value) == "unknown acting element: h"


def test_left_action_names_a_dropped_entry_on_random_tables():
    rng = random.Random(31)
    for _ in range(30):
        G, _, A = gen.random_proper_space(rng)
        g, z = rng.choice(sorted(A.act))
        table = {key: w for key, w in A.act.items() if key != (g, z)}
        with pytest.raises(ValueError) as exc:
            left_action(G, A.carrier, A.moment, table)
        assert str(exc.value) == f"invalid action: violation domain: g={g} z={z} missing"
        assert validate_action(replace(A, act=table)).violations[0].render() in str(exc.value)


# ---------------------------------------------------------------------------
# sides and the opposite involution


def test_opposite_is_an_involution():
    A = swap_action()
    assert opposite(opposite(A)) == A


def test_right_action_application_reads_the_presented_table():
    A = right_action(
        z2(),
        ["x1", "x2"],
        {"x1": "e", "x2": "e"},
        {("x1", "e"): "x1", ("x2", "e"): "x2", ("x1", "g"): "x2", ("x2", "g"): "x1"},
    )
    assert A.side == "right"
    # stored as g^-1 acting on x1; g is its own inverse
    assert A.act[(A.groupoid.inverse_map["g"], "x1")] == "x2"
    assert validate_action(A).passed


def test_opposite_of_rectangle_right_side_keeps_the_column_moment():
    E = rect32()
    B = opposite(E.right)
    assert B.side == "left"
    assert B.moment == E.right.moment


def test_opposite_of_right_translation_acts_by_inverses():
    from generators import cyclic_table
    from haarsys import group_as_groupoid

    G = group_as_groupoid(cyclic_table(3))
    A = opposite(right_translation_action(G))
    for g in G.sorted_elements():
        for z in G.sorted_elements():
            assert A.act[(g, z)] == G.compose_map[(z, G.inverse_map[g])]


# ---------------------------------------------------------------------------
# orbits


def test_swap_action_has_one_orbit():
    reps, qmap = orbit_space(swap_action())
    assert len(reps) == 1
    assert set(qmap.values()) == {"z1"}


def test_trivial_action_on_two_points_has_two_orbits():
    A = left_action(
        z2(),
        ["p", "q"],
        {"p": "e", "q": "e"},
        {("e", "p"): "p", ("g", "p"): "p", ("e", "q"): "q", ("g", "q"): "q"},
    )
    reps, _ = orbit_space(A)
    assert reps == ("p", "q")


def test_rectangle_left_orbits_are_the_columns():
    E = rect32()
    reps, qmap = orbit_space(E.left)
    assert reps == ("1|a", "1|b")
    assert qmap["3|b"] == "1|b"
    assert qmap["2|a"] == "1|a"


# ---------------------------------------------------------------------------
# equivalences


def test_rectangle_is_an_equivalence():
    assert validate_equivalence(rect32()).passed


def test_unit_carrier_equivalence_for_relation_groupoid():
    _, _, E = unit_carrier_equivalence({"1": "A", "2": "A", "3": "B"})
    assert validate_equivalence(E).passed


def test_missing_right_transitivity_is_flagged():
    # a genuine G-space with a do-nothing right group is not an equivalence
    rows = pair2()
    carrier = ["1|a", "1|b", "2|a", "2|b"]
    moment = {z: pair_arrow(z[0], z[0]) for z in carrier}
    lact = {
        (pair_arrow(u, v), f"{v}|{t}"): f"{u}|{t}"
        for u in "12"
        for v in "12"
        for t in "ab"
    }
    left = left_action(rows, carrier, moment, lact)
    point = trivial_group()
    right = right_action(
        point,
        carrier,
        {z: "e" for z in carrier},
        {(z, "e"): z for z in carrier},
    )
    report = validate_equivalence(Equivalence(left, right))
    assert not report.passed


@pytest.mark.parametrize("inverse", ["pair:a,b", None], ids=["wrong", "missing"])
def test_broken_right_groupoid_is_reported_not_raised(inverse):
    # both actions pass their own laws; the commuting walk then reads the
    # inverse of pair:a,b in H, set to itself or dropped
    E = rect32()
    H = E.right.groupoid
    inv = {k: v for k, v in H.inverse_map.items() if k != "pair:a,b"}
    if inverse is not None:
        inv["pair:a,b"] = inverse
    right = replace(E.right, groupoid=replace(H, inverse_map=inv))
    report = validate_equivalence(Equivalence(E.left, right))
    expected = [f"violation commuting: g=pair:{i},{j} z={j}|a h=pair:a,b" for i in "123" for j in "123"]
    assert [v.render() for v in report.violations] == expected


def pair2_points_action():
    """pair(2) acting from the right on z1, z2 with z1.pair:1,2 = z2."""
    a12, a21, u1, u2 = (pair_arrow(*ij) for ij in ("12", "21", "11", "22"))
    table = {("z1", u1): "z1", ("z1", a12): "z2", ("z2", a21): "z1", ("z2", u2): "z2"}
    return right_action(pair2(), ["z1", "z2"], {"z1": u1, "z2": u2}, table)


def test_left_moment_invariance_names_the_acting_element():
    # the right table is stored keyed by the inverse; the witness is the element itself
    ident = {"a": "a", "b": "b"}
    units = make_groupoid(ident, ident, ident, ident, ident, {("a", "a"): "a", ("b", "b"): "b"})
    table = {("a", "z1"): "z1", ("b", "z2"): "z2"}
    still = left_action(units, ["z1", "z2"], {"z1": "a", "z2": "b"}, table)
    report = validate_equivalence(Equivalence(still, pair2_points_action()))
    assert [v.render() for v in report.violations] == [
        "violation left moment invariance: h=pair:2,1 z=z2",
        "violation left moment invariance: h=pair:1,2 z=z1",
    ]


def test_right_moment_invariance_is_reported():
    report = validate_equivalence(Equivalence(swap_action(), pair2_points_action()))
    assert [v.render() for v in report.violations] == [
        "violation right moment invariance: g=g z=z1",
        "violation right moment invariance: g=g z=z2",
    ]


@pytest.mark.parametrize(
    "change, first",
    [
        ({"moment": {"z1": "g", "z2": "e"}}, "violation moment not a unit: z=z1 value=g"),
        ({"moment": {"z1": "e", "z2": "e", "z3": "e"}}, "violation moment key off carrier: z=z3"),
        (
            {"act": {("e", "z1"): "z2", ("e", "z2"): "z2", ("g", "z1"): "z2", ("g", "z2"): "z1"}},
            "violation unit acts trivially: z=z1 u.z=z2",
        ),
    ],
)
def test_action_validator_reports_moment_and_unit_laws(change, first):
    report = validate_action(replace(swap_action(), **change))
    assert report.violations[0].render() == first


@pytest.mark.parametrize(
    "target, witnesses",
    [
        (
            "pair:2,2",  # moment pair:2,2 = r(pair:2,1): only compatibility breaks
            [
                "violation compatibility: g=pair:1,2 h=pair:2,1 z=pair:1,3",
                "violation compatibility: g=pair:2,1 h=pair:1,2 z=pair:2,3",
                "violation compatibility: g=pair:2,1 h=pair:1,3 z=pair:3,3",
                "violation compatibility: g=pair:2,3 h=pair:3,1 z=pair:1,3",
                "violation compatibility: g=pair:3,2 h=pair:2,1 z=pair:1,3",
            ],
        ),
        (
            "pair:1,3",  # the translate keeps z's moment pair:1,1, not r(pair:2,1)
            [
                "violation moment of translate: g=pair:2,1 z=pair:1,3 moment=pair:1,1",
                "violation compatibility: g=pair:2,1 h=pair:1,2 z=pair:2,3",
                "violation compatibility: g=pair:2,1 h=pair:1,3 z=pair:3,3",
                "violation compatibility: g=pair:2,3 h=pair:3,1 z=pair:1,3",
            ],
        ),
    ],
)
def test_action_validator_lists_compatibility_and_moment_of_translate_witnesses(
    target, witnesses, tmp_path, capsys
):
    A = left_translation_action(pair3())
    broken = replace(A, act={**A.act, ("pair:2,1", "pair:1,3"): target})
    report = validate_action(broken)
    assert [v.render() for v in report.violations] == witnesses
    path = tmp_path / "action.json"
    path.write_text(serialize(Document("action", broken)))
    assert main(["validate", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[: len(witnesses) + 1] == ["status: FAIL", *witnesses]
    assert [line.split(":")[0] for line in lines[len(witnesses) + 1 :]] == ["note", "note"]


def test_opposite_equivalence_swaps_sides_and_involutes():
    E = rect32()
    F = opposite_equivalence(E)
    assert F.left.groupoid == E.right.groupoid
    assert F.right.groupoid == E.left.groupoid
    assert opposite_equivalence(F) == E


@pytest.mark.parametrize("table", ["source", "range"])
def test_unit_translation_action_names_a_missing_entry(table):
    broken = replace(z2(), **{f"{table}_map": {"e": "e"}})
    with pytest.raises(ValueError) as exc:
        unit_translation_action(broken)
    assert str(exc.value) == f"unit_translation_action: {table} undefined: x=g"


def test_equivalence_shape_errors():
    A = swap_action()
    with pytest.raises(ValueError):
        Equivalence(A, A)
    with pytest.raises(ValueError, match="^left component must be a left action$"):
        Equivalence(opposite(A), opposite(A))
    with pytest.raises(ValueError, match="^both actions must share one carrier$"):
        Equivalence(A, rect32().right)


# ---------------------------------------------------------------------------
# imprimitivity quotients


def test_imprimitivity_of_right_swap_is_the_two_element_group():
    A = right_action(
        z2(),
        ["x1", "x2"],
        {"x1": "e", "x2": "e"},
        {("x1", "e"): "x1", ("x2", "e"): "x2", ("x1", "g"): "x2", ("x2", "g"): "x1"},
    )
    imp, labeling = imprimitivity_groupoid(A)
    assert len(labeling) == 4
    assert len(imp.elements) == 2
    assert len(imp.units) == 1
    assert labeling[("x1", "x1")] == labeling[("x2", "x2")]
    assert labeling[("x1", "x2")] == labeling[("x2", "x1")]
    assert isomorphic(imp, z2())


def test_imprimitivity_of_right_translation_recovers_the_groupoid():
    imp, _ = imprimitivity_groupoid(right_translation_action(pair2()))
    assert isomorphic(imp, pair2())


def test_imprimitivity_of_rectangle_left_side_is_the_column_pair_groupoid():
    imp, _ = imprimitivity_groupoid(rect32().left)
    assert isomorphic(imp, pair_groupoid(["a", "b"]))


def test_imprimitivity_needs_freeness():
    with pytest.raises(ValueError):
        imprimitivity_groupoid(trivial_point_action())


def test_imprimitivity_refuses_a_valid_action_that_is_not_free_with_one_line():
    from haarsys import full_fiber_system, imprimitivity_haar

    A = trivial_point_action()
    with pytest.raises(ValueError, match="^imprimitivity groupoid needs a free action$"):
        imprimitivity_groupoid(A)
    with pytest.raises(ValueError, match="^imprimitivity needs a free action$"):
        imprimitivity_haar(A, full_fiber_system({"p": "e"}, {"p": 1}))


def test_imprimitivity_groupoid_refuses_colliding_class_tokens():
    E = gen.colliding_tokens_equivalence()
    assert validate_equivalence(E).passed and is_free(E.left)
    with pytest.raises(ValueError, match="^tokens collide under imprimitivity naming$"):
        imprimitivity_groupoid(E.left)


def test_imprimitivity_groupoid_validates_the_groupoid():
    G = z2()
    source = {"e": "e"}  # g has lost its source
    broken = make_groupoid(G.elements, G.units, G.range_map, source, G.inverse_map, G.compose_map)
    A = replace(swap_action(), groupoid=broken)
    with pytest.raises(ValueError, match="^invalid groupoid: violation source undefined: x=g$"):
        imprimitivity_groupoid(A)


def test_imprimitivity_iso_validates_the_equivalence():
    # the right moment never reaches the unit rel:c,c of H
    E = pair_rectangle(["1", "2"], ["a", "b"])
    H = relation_groupoid({"a": "x", "b": "x", "c": "y"})
    right = right_action(
        H,
        E.carrier,
        {f"{i}|{t}": relation_arrow(t, t) for i in "12" for t in "ab"},
        {(f"{i}|{t}", relation_arrow(t, u)): f"{i}|{u}" for i in "12" for t in "ab" for u in "ab"},
    )
    with pytest.raises(ValueError) as err:
        imprimitivity_iso(Equivalence(E.left, right))
    expected = "invalid equivalence: violation right moment not surjective: unit=rel:c,c"
    assert str(err.value) == expected


def test_imprimitivity_iso_matches_the_right_groupoid():
    E = rect32()
    imp, labeling, iso = imprimitivity_iso(E)
    cols = pair_groupoid(["a", "b"])
    assert sorted(iso.values()) == cols.sorted_elements()
    # the translator of a diagonal class is the matching column unit
    assert iso[labeling[("1|a", "1|a")]] == pair_arrow("a", "a")
    assert iso[labeling[("1|a", "1|b")]] == pair_arrow("a", "b")
    for (c1, c2), c3 in imp.compose_map.items():
        assert cols.compose_map[(iso[c1], iso[c2])] == iso[c3]


def imprimitivity_from_definition(A):
    """Tables of the imprimitivity groupoid and its labeling, by orbit closure and scans."""
    G, mom, points = A.groupoid, A.moment, A.sorted_carrier()
    pairs = [(x, y) for x in points for y in points if mom[x] == mom[y]]
    # the diagonal orbit of (x, y) is its image under every arrow of the source fiber at moment(x)
    labeling = {}
    for x, y in pairs:
        orbit = [(A.act[(g, x)], A.act[(g, y)]) for g in G.elements if G.source_map[g] == mom[x]]
        labeling[(x, y)] = "imp:{}|{}".format(*min(orbit))
    rep = {c: min(p for p in pairs if labeling[p] == c) for c in labeling.values()}
    range_map = {c: labeling[(x, x)] for c, (x, y) in rep.items()}
    source_map = {c: labeling[(y, y)] for c, (x, y) in rep.items()}
    inverse_map = {c: labeling[(y, x)] for c, (x, y) in rep.items()}
    compose = {}
    for c1, (x, y) in rep.items():
        for c2, (w, z) in rep.items():
            if source_map[c1] == range_map[c2]:
                (g,) = [g for g in G.elements if A.act.get((g, w)) == y]
                compose[(c1, c2)] = labeling[(x, A.act[(g, z)])]
    units = {labeling[(x, x)] for x, _ in pairs}
    imp = make_groupoid(rep, units, range_map, source_map, inverse_map, compose)
    return imp, labeling, rep


def assert_imprimitivity_matches_definition(A):
    imp, labeling = imprimitivity_groupoid(A)
    expected_imp, expected_labeling, _ = imprimitivity_from_definition(A)
    assert imp == expected_imp
    assert labeling == expected_labeling
    assert list(labeling) == sorted(labeling)


def test_imprimitivity_groupoid_matches_its_definition_on_random_free_actions():
    rng = random.Random(41)
    free = 0
    for _ in range(60):
        _, _, A = gen.random_proper_space(rng)
        if is_free(A):
            assert_imprimitivity_matches_definition(A)
            free += 1
    assert free >= 20


def test_imprimitivity_iso_matches_its_definition_on_both_sides_of_random_equivalences():
    rng = random.Random(42)
    for _ in range(30):
        _, _, _, E0 = gen.random_equivalence(rng)
        for E in (E0, opposite_equivalence(E0)):
            assert_imprimitivity_matches_definition(E.left)
            _, labeling, iso = imprimitivity_iso(E)
            H, sigma = E.right.groupoid, E.right.moment
            # the class of (x, y) goes to the unique h of H with x.h == y
            _, _, rep = imprimitivity_from_definition(E.left)
            for c, (x, y) in rep.items():
                (h,) = [
                    h
                    for h in H.elements
                    if H.range_map[h] == sigma[x] and E.right.act[(H.inverse_map[h], x)] == y
                ]
                assert iso[c] == h
            assert set(iso) == set(labeling.values())
