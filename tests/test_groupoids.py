"""Tables, constructors and the exhaustive axiom checker."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import generators as gen
from isosearch import isomorphic
from haarsys import (
    CompositionError,
    Violation,
    blow_up,
    blowup_arrow,
    group_as_groupoid,
    is_principal,
    is_transitive,
    make_groupoid,
    pair_arrow,
    pair_groupoid,
    relation_arrow,
    relation_groupoid,
    stability_group,
    transformation_arrow,
    transformation_groupoid,
    unit_orbit_map,
    validate_groupoid,
)
from haarsys.fixtures import pair2, pair3, z2
from haarsys.groupoids import _associative_on_generators


def laws(report):
    return {v.law for v in report.violations}


def witnesses(report):
    return [v.render() for v in report.violations]


# ---------------------------------------------------------------------------
# pair groupoids


def test_pair_two_points():
    G = pair_groupoid(["1", "2"])
    assert len(G.elements) == 4
    assert len(G.units) == 2
    assert validate_groupoid(G).passed


def test_pair_single_point_is_one_unit():
    G = pair_groupoid(["1"])
    assert len(G.elements) == 1
    assert G.elements == G.units
    assert validate_groupoid(G).passed


def test_pair_three_points():
    G = pair_groupoid(["1", "2", "3"])
    assert len(G.elements) == 9
    assert validate_groupoid(G).passed


def test_pair_arrow_structure():
    G = pair3()
    x = pair_arrow("1", "2")
    y = pair_arrow("2", "3")
    assert G.mul(x, y) == pair_arrow("1", "3")
    assert G.inverse_map[x] == pair_arrow("2", "1")
    assert G.range_map[x] == pair_arrow("1", "1")
    assert G.source_map[x] == pair_arrow("2", "2")


def test_composition_off_domain_is_hard_error():
    G = pair3()
    with pytest.raises(CompositionError):
        G.mul(pair_arrow("1", "2"), pair_arrow("3", "1"))


# ---------------------------------------------------------------------------
# the validator


def test_validator_passes_fixtures():
    for G in (pair2(), pair3(), z2(), pair_groupoid(["u"])):
        assert validate_groupoid(G).passed


def test_validator_catches_corrupted_inverse_entry():
    G = z2()
    compose = dict(G.compose_map)
    compose[("g", "g")] = "g"
    bad = make_groupoid(G.elements, G.units, G.range_map, G.source_map, G.inverse_map, compose)
    report = validate_groupoid(bad)
    assert not report.passed
    inverse_hits = [v for v in report.violations if "inverse law" in v.law]
    assert inverse_hits
    assert any("x=g" in w for w in witnesses(report))


def test_validator_catches_missing_compose_entry():
    G = pair2()
    compose = dict(G.compose_map)
    del compose[(pair_arrow("1", "2"), pair_arrow("2", "1"))]
    bad = make_groupoid(G.elements, G.units, G.range_map, G.source_map, G.inverse_map, compose)
    assert "compose missing on composable pair" in laws(validate_groupoid(bad))


def test_validator_catches_nonunit_range():
    G = pair2()
    ranges = dict(G.range_map)
    ranges[pair_arrow("1", "2")] = pair_arrow("2", "1")
    bad = make_groupoid(G.elements, G.units, ranges, G.source_map, G.inverse_map, G.compose_map)
    assert "range not a unit" in laws(validate_groupoid(bad))


A12, A21, U1 = pair_arrow("1", "2"), pair_arrow("2", "1"), pair_arrow("1", "1")


@pytest.mark.parametrize(
    "table, entries, first",
    [
        ("range_map", {"zz": U1}, "violation range key unknown: x=zz"),
        ("source_map", {"zz": U1}, "violation source key unknown: x=zz"),
        ("inverse_map", {"zz": U1}, "violation inverse key unknown: x=zz"),
        ("range_map", {A12: "zz"}, f"violation range value unknown: x={A12} value=zz"),
        ("source_map", {A12: "zz"}, f"violation source value unknown: x={A12} value=zz"),
        ("inverse_map", {A12: "zz"}, f"violation inverse value unknown: x={A12} value=zz"),
        ("units", {"zz"}, "violation unit unknown: u=zz"),
        ("source_map", {A12: A21}, f"violation source not a unit: x={A12} s(x)={A21}"),
        ("compose_map", {("zz", U1): U1}, f"violation compose key unknown: x=zz y={U1}"),
        ("compose_map", {(U1, A12): "zz"}, f"violation compose value unknown: x={U1} y={A12} value=zz"),
    ],
)
def test_validator_names_unknown_tokens_and_stray_sources(table, entries, first):
    G = pair2()
    report = validate_groupoid(replace(G, **{table: getattr(G, table) | entries}))
    assert report.violations[0].render() == first


def test_random_groupoids_validate():
    rng = random.Random(11)
    for _ in range(40):
        name, G = gen.random_groupoid(rng)
        assert len(G.elements) <= 40
        report = validate_groupoid(G)
        assert report.passed, (name, witnesses(report)[0])


def test_single_entry_corruptions_are_caught():
    rng = random.Random(12)
    for _ in range(25):
        _, G = gen.random_groupoid(rng)
        kind, bad = gen.corrupt_groupoid(G, rng)
        assert not validate_groupoid(bad).passed, kind


def exhaustive_associativity(G):
    """Every associativity violation, from a scan over all triples in sorted order."""
    C = G.compose_map
    els = G.sorted_elements()
    return tuple(
        Violation("associativity", (f"x={x}", f"y={y}", f"z={z}"))
        for x in els
        for y in els
        if (x, y) in C
        for z in els
        if (y, z) in C and C[(C[(x, y)], z)] != C[(x, C[(y, z)])]
    )


class CountingTable(dict):
    """A compose table that counts its lookups."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("n", [5, 10])
def test_associativity_on_generators_tests_few_arrows(n):
    # pair(n) has n^2 arrows with n on each side of each: testing every arrow
    # costs 4 n^4 lookups, while the closure of the generators reaches the rest
    G = pair_groupoid(str(p) for p in range(n))
    C = CountingTable(G.compose_map)
    r, s = G.range_map.get, G.source_map.get
    assert _associative_on_generators(G.sorted_elements(), C, r, s, G._rfib, G._sfib)
    assert C.lookups < 2 * n**4


@pytest.mark.parametrize("family", sorted(gen.FAMILIES))
def test_associativity_violations_match_an_exhaustive_scan(family):
    rng = random.Random(family)
    corrupted = 0
    for _ in range(20):
        G = gen.FAMILIES[family](rng)
        bad = gen.corrupt_associativity(G, rng)
        for table in (G,) if bad is None else (G, bad):
            assert validate_groupoid(table).violations == exhaustive_associativity(table)
        corrupted += bad is not None
    # pair and relation groupoids have one arrow per range and source, so
    # no product can change on its own
    assert corrupted > 0 or family in ("pair", "relation")


def pullback_tables(G, f, name):
    """The triple rule, enumerated: arrows (z, g, w) with f(z) = r(g) and s(g) = f(w).

    (z, g, w)(w, g2, v) = (z, g g2, v), and (z, g, w) inverts to (w, inv g, z),
    named whether or not the base makes these triples arrows.
    """
    triples = [
        (z, g, w)
        for z in f
        for g in G.elements
        for w in f
        if G.range_map.get(g) == f[z] and G.source_map.get(g) == f[w]
    ]
    return make_groupoid(
        [name(*t) for t in triples],
        [name(z, f[z], z) for z in f],
        {name(*t): name(t[0], f[t[0]], t[0]) for t in triples},
        {name(*t): name(t[2], f[t[2]], t[2]) for t in triples},
        {name(z, g, w): name(w, G.inverse_map[g], z) for z, g, w in triples},
        {
            (name(z, g, w), name(w2, g2, v)): name(z, G.compose_map[(g, g2)], v)
            for z, g, w in triples
            for w2, g2, v in triples
            if w2 == w
        },
    )


def units_only(units):
    ids = {u: u for u in units}
    return make_groupoid(ids, ids, ids, ids, ids, {(u, u): u for u in ids})


def pair_name(u, _, v):
    return pair_arrow(u, v)


def relation_name(u, _, v):
    return relation_arrow(u, v)


def with_entry(G, table, key, value):
    """G with one inverse or compose entry set to value: not a groupoid any more."""
    inverse, compose = dict(G.inverse_map), dict(G.compose_map)
    {"inverse": inverse, "compose": compose}[table][key] = value
    return make_groupoid(G.elements, G.units, G.range_map, G.source_map, inverse, compose)


U1, U2 = pair_arrow("1", "1"), pair_arrow("2", "2")
BLOWUP_PQR = {"p": U1, "q": U1, "r": U2}
RELATION_Q = {"1": "A", "2": "A", "3": "B"}
Z2_CONST = {"z1": "e", "z2": "e"}
# the inverse (r, pair:1,2, p) and the product (p, pair:2,2, p) are not triples
WRONG_INVERSE = with_entry(pair2(), "inverse", pair_arrow("1", "2"), pair_arrow("1", "2"))
WRONG_PRODUCT = with_entry(pair2(), "compose", (pair_arrow("1", "2"), pair_arrow("2", "1")), U2)
# "a,b" and "c" name the same pair as "a" and "b,c"
CLASH = ["a", "a,b", "b,c", "c"]

# name -> (constructor call, (base, map, namer) of the reference tables or the error text)
PULLBACKS = {
    "pair": (lambda: pair_groupoid("123"), (units_only(["*"]), dict.fromkeys("123", "*"), pair_name)),
    "pair-collide": (lambda: pair_groupoid(CLASH), "point tokens collide under pair naming"),
    "relation": (lambda: relation_groupoid(RELATION_Q), (units_only("AB"), RELATION_Q, relation_name)),
    "relation-collide": (
        lambda: relation_groupoid(dict.fromkeys(CLASH, "x")),
        "point tokens collide under relation naming",
    ),
    "blow-up-group": (lambda: blow_up(z2(), Z2_CONST), (z2(), Z2_CONST, blowup_arrow)),
    "blow-up-pair": (lambda: blow_up(pair2(), BLOWUP_PQR), (pair2(), BLOWUP_PQR, blowup_arrow)),
    "blow-up-collide": (  # (p|e, e, q) and (p, e, e|q) are both blowup:p|e|e|q
        lambda: blow_up(z2(), dict.fromkeys(["p", "p|e", "q", "e|q"], "e")),
        "tokens collide under blow-up naming",
    ),
    "blow-up-wrong-inverse": (
        lambda: blow_up(WRONG_INVERSE, BLOWUP_PQR),
        (WRONG_INVERSE, BLOWUP_PQR, blowup_arrow),
    ),
    "blow-up-wrong-product": (
        lambda: blow_up(WRONG_PRODUCT, BLOWUP_PQR),
        (WRONG_PRODUCT, BLOWUP_PQR, blowup_arrow),
    ),
}


@pytest.mark.parametrize("case", list(PULLBACKS))
def test_pullback_constructors_follow_the_triple_rule(case):
    build, expected = PULLBACKS[case]
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == expected
    else:
        assert build() == pullback_tables(*expected)


@pytest.mark.parametrize(
    "table, message",
    [
        ("inverse", "blow_up: inverse undefined: x=pair:1,2"),
        ("compose", "blow_up: compose missing on composable pair: x=pair:1,2 y=pair:2,1"),
    ],
)
def test_blow_up_names_a_missing_entry(table, message):
    G = pair2()
    x, y = pair_arrow("1", "2"), pair_arrow("2", "1")
    inverse = {k: v for k, v in G.inverse_map.items() if table != "inverse" or k != x}
    compose = {k: v for k, v in G.compose_map.items() if table != "compose" or k != (x, y)}
    bad = make_groupoid(G.elements, G.units, G.range_map, G.source_map, inverse, compose)
    with pytest.raises(ValueError) as exc:
        blow_up(bad, {"p": pair_arrow("1", "1"), "q": pair_arrow("2", "2")})
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "table, message",
    [
        ("inverse", "stability_group: inverse undefined: x=g"),
        ("compose", "stability_group: compose missing on composable pair: x=g y=g"),
        # the product (e, g) comes before g's inverse in a walk of the arrows; every inverse is checked first
        ("both", "stability_group: inverse undefined: x=g"),
    ],
)
def test_stability_group_names_a_missing_entry(table, message):
    G = z2()
    dropped = {"inverse": None, "compose": ("g", "g"), "both": ("e", "g")}[table]
    inverse = {k: v for k, v in G.inverse_map.items() if table == "compose" or k != "g"}
    compose = {k: v for k, v in G.compose_map.items() if k != dropped}
    bad = make_groupoid(G.elements, G.units, G.range_map, G.source_map, inverse, compose)
    with pytest.raises(ValueError) as exc:
        stability_group(bad, "e")
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# groups as groupoids


def test_group_table_z2():
    G = group_as_groupoid(gen.cyclic_table(2, prefix=""))
    assert len(G.elements) == 2
    assert len(G.units) == 1
    assert validate_groupoid(G).passed


def test_group_table_z3():
    G = group_as_groupoid(gen.cyclic_table(3))
    assert len(G.elements) == 3
    assert validate_groupoid(G).passed


def test_group_table_rejects_nonassociative_magma():
    table = {
        ("e", "e"): "e", ("e", "a"): "a", ("e", "b"): "b",
        ("a", "e"): "a", ("a", "a"): "a", ("a", "b"): "e",
        ("b", "e"): "b", ("b", "a"): "e", ("b", "b"): "b",
    }
    with pytest.raises(ValueError):
        group_as_groupoid(table)


# in z2 every product of two non-identity elements is the identity
@pytest.mark.parametrize("name", sorted(set(gen.GROUP_TABLES) - {"z2"}))
def test_group_table_names_the_least_associativity_witness(name):
    table = dict(gen.GROUP_TABLES[name])
    rng = random.Random(name)
    els = sorted(set(table.values()))
    identity = next(e for e in els if all(table[(e, a)] == a for a in els))
    a, b = rng.choice(
        [(a, b) for a in els for b in els if identity not in (a, b, table[(a, b)])]
    )
    table[(a, b)] = rng.choice([c for c in els if c != table[(a, b)]])
    least = next(
        (x, y, z)
        for x in els
        for y in els
        for z in els
        if table[(table[(x, y)], z)] != table[(x, table[(y, z)])]
    )
    with pytest.raises(ValueError) as exc:
        group_as_groupoid(table)
    assert str(exc.value) == f"table not associative: witness ({', '.join(least)})"


# ---------------------------------------------------------------------------
# transformation groupoids


def swap_act():
    return {
        ("e", "z1"): "z1", ("e", "z2"): "z2",
        ("g", "z1"): "z2", ("g", "z2"): "z1",
    }


def test_transformation_swap():
    G = transformation_groupoid(z2(), swap_act(), ["z1", "z2"])
    assert len(G.elements) == 4
    assert len(G.units) == 2
    assert validate_groupoid(G).passed
    x = transformation_arrow("g", "z1")
    assert G.range_map[x] == transformation_arrow("e", "z2")
    assert G.source_map[x] == transformation_arrow("e", "z1")


def test_transformation_trivial_action_is_the_group_again():
    act = {("e", "p"): "p", ("g", "p"): "p"}
    G = transformation_groupoid(z2(), act, ["p"])
    assert isomorphic(G, z2())


def test_transformation_rotation_is_principal():
    z3 = group_as_groupoid(gen.cyclic_table(3))
    act = {(f"c{i}", str(j)): str((j + i) % 3) for i in range(3) for j in range(3)}
    G = transformation_groupoid(z3, act, ["0", "1", "2"])
    assert len(G.elements) == 9
    assert validate_groupoid(G).passed
    assert is_principal(G)


def test_transformation_rejects_incompatible_action():
    act = {("e", "p"): "p", ("g", "p"): "q", ("e", "q"): "q", ("g", "q"): "q"}
    with pytest.raises(ValueError):
        transformation_groupoid(z2(), act, ["p", "q"])


@pytest.mark.parametrize(
    "act, message",
    [
        ({("e", "p"): "p", ("e", "q"): "q", ("g", "p"): "q"}, "domain: g=g z=q missing"),
        ({("e", "p"): "p", ("e", "q"): "q", ("g", "p"): "r", ("g", "q"): "p"}, "carrier: g=g z=p value=r"),
        ({("e", "p"): "q", ("e", "q"): "p", ("g", "p"): "p", ("g", "q"): "q"}, "unit acts trivially: z=p u.z=q"),
        ({("e", "p"): "p", ("e", "q"): "q", ("g", "p"): "q", ("g", "q"): "q"}, "compatibility: g=g h=g z=p"),
        (
            {**{(g, x): x for g in ("e", "g") for x in ("p", "q")}, ("e", "r"): "r"},
            "domain: g=e z=r off the composable pairs",
        ),
    ],
    ids=["not-total", "leaves-space", "identity", "incompatible", "stray-entry"],
)
def test_transformation_names_the_first_action_violation(act, message):
    with pytest.raises(ValueError) as exc:
        transformation_groupoid(z2(), act, ["p", "q"])
    assert str(exc.value) == f"invalid action: violation {message}"


def test_transformation_names_a_missing_inverse():
    group = replace(z2(), inverse_map={"e": "e"})
    with pytest.raises(ValueError) as exc:
        transformation_groupoid(group, swap_act(), ["z1", "z2"])
    assert str(exc.value) == "transformation_groupoid: inverse undefined: x=g"


# ---------------------------------------------------------------------------
# relation groupoids


def test_relation_constant_map_is_the_pair_groupoid():
    G = relation_groupoid({"1": "A", "2": "A", "3": "A"})
    assert len(G.elements) == 9
    assert isomorphic(G, pair3())


def test_relation_identity_map_is_units_only():
    G = relation_groupoid({"1": "1", "2": "2"})
    assert G.elements == G.units
    assert len(G.elements) == 2


def test_relation_two_fibers():
    G = relation_groupoid({"1": "A", "2": "A", "3": "B"})
    assert len(G.elements) == 5
    assert validate_groupoid(G).passed
    assert not is_transitive(G)


def test_relation_codomain_must_be_reached():
    with pytest.raises(ValueError):
        relation_groupoid({"1": "A"}, codomain=["A", "B"])


# ---------------------------------------------------------------------------
# stability groups and orbits


def test_stability_group_of_pair_is_trivial():
    group, carrier = stability_group(pair3(), pair_arrow("1", "1"))
    assert len(group.elements) == 1
    assert carrier == tuple(sorted(pair_arrow(u, "1") for u in ["1", "2", "3"]))


def test_stability_group_of_a_group_is_itself():
    group, carrier = stability_group(z2(), "e")
    assert isomorphic(group, z2())
    assert set(carrier) == {"e", "g"}


def test_stability_group_of_trivial_transformation():
    act = {("e", "p"): "p", ("g", "p"): "p"}
    G = transformation_groupoid(z2(), act, ["p"])
    group, _ = stability_group(G, transformation_arrow("e", "p"))
    assert isomorphic(group, z2())


def test_orbit_maps_come_in_sorted_order_whatever_the_hash_seed():
    code = (
        "import json\n"
        "from haarsys import pair_groupoid, relation_groupoid, unit_orbit_map\n"
        "from haarsys.actions import left_translation_action\n"
        "maps = [unit_orbit_map(pair_groupoid('1234')),\n"
        "        unit_orbit_map(relation_groupoid({'a': 'X', 'b': 'Y', 'c': 'X', 'd': 'Y'})),\n"
        "        left_translation_action(pair_groupoid('123'))._orbits]\n"
        "print(json.dumps([list(m) for m in maps]))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED="1", PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    keys = json.loads(proc.stdout)
    assert [len(k) for k in keys] == [4, 4, 9]
    assert keys[0] == [pair_arrow(p, p) for p in "1234"]
    for k in keys:
        assert k == sorted(k)


def test_unit_orbit_map_splits_components():
    G = relation_groupoid({"1": "A", "2": "A", "3": "B"})
    component = unit_orbit_map(G)
    assert component[relation_arrow("1", "1")] == component[relation_arrow("2", "2")]
    assert component[relation_arrow("1", "1")] != component[relation_arrow("3", "3")]
    assert is_transitive(pair3())


def test_pair_groupoid_is_principal_and_group_is_not():
    assert is_principal(pair3())
    assert not is_principal(z2())


# ---------------------------------------------------------------------------
# blow-ups


def test_blow_up_of_group_along_constant_map():
    G = blow_up(z2(), {"z1": "e", "z2": "e"})
    assert len(G.elements) == 8
    assert len(G.units) == 2
    assert validate_groupoid(G).passed
    x = blowup_arrow("z1", "g", "z2")
    assert G.range_map[x] == blowup_arrow("z1", "e", "z1")
    assert G.source_map[x] == blowup_arrow("z2", "e", "z2")


def test_blow_up_along_identity_is_the_same_groupoid():
    for G in (z2(), pair2()):
        big = blow_up(G, {u: u for u in G.sorted_units()})
        assert isomorphic(big, G)


def test_blow_up_of_pair_collapses_to_larger_pair():
    G = blow_up(pair2(), {"z1": pair_arrow("1", "1"), "z2": pair_arrow("1", "1"), "z3": pair_arrow("2", "2")})
    assert len(G.elements) == 9
    assert isomorphic(G, pair3())


def test_blow_up_requires_surjection():
    with pytest.raises(ValueError):
        blow_up(pair2(), {"z1": pair_arrow("1", "1")})
