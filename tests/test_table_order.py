"""Canonical order lives in the table types.

Groupoid, Action and FiberSystem store every dict table sorted by key, however
they are built: directly, through a constructor function, or through
dataclasses.replace.  The validators, check_equivariant and the encoder walk
that stored order, so an object built from shuffled tables reports and
serializes exactly as its sorted twin does.  Derived indexes are cached on the
object they come from, so a replace copy builds its own and reports what a
freshly built twin reports.
"""

from __future__ import annotations

import random
from dataclasses import fields, replace

import pytest

import generators as gen
from haarsys import (
    Action,
    Document,
    Equivalence,
    FiberSystem,
    Groupoid,
    check_equivariant,
    fiber_system,
    group_as_groupoid,
    imprimitivity_iso,
    left_action,
    make_groupoid,
    right_action,
    serialize,
    validate_action,
    validate_equivalence,
    validate_groupoid,
)
from haarsys.fixtures import rect32, self_equivalence

SEEDS = range(12)

GROUPOID_TABLES = ("range_map", "source_map", "inverse_map", "compose_map")


def backwards(table: dict) -> dict:
    """The same table with its keys in descending order."""
    return dict(sorted(table.items(), reverse=True))


def assert_sorted(*tables: dict) -> None:
    for table in tables:
        assert list(table) == sorted(table)


def shuffled(table: dict, rng: random.Random) -> dict:
    items = list(table.items())
    rng.shuffle(items)
    return dict(items)


@pytest.mark.parametrize("seed", SEEDS)
def test_groupoid_tables_are_stored_sorted(seed):
    _, G = gen.random_groupoid(random.Random(seed))
    tables = {name: backwards(getattr(G, name)) for name in GROUPOID_TABLES}
    assert any(list(t) != sorted(t) for t in tables.values())
    built = [
        Groupoid(G.elements, G.units, *tables.values()),
        make_groupoid(G.elements, G.units, *tables.values()),
        replace(G, **tables),
    ]
    for H in built:
        assert H == G
        assert_sorted(*(getattr(H, name) for name in GROUPOID_TABLES))


@pytest.mark.parametrize("seed", SEEDS)
def test_action_tables_are_stored_sorted(seed):
    _, _, _, E = gen.random_equivalence(random.Random(seed))
    for A in (E.left, E.right):
        moment, act = backwards(A.moment), backwards(A.act)
        if A.side == "left":
            built = left_action(A.groupoid, A.carrier, moment, act)
        else:
            inv = A.groupoid.inverse_map
            built = right_action(A.groupoid, A.carrier, moment, {(z, inv[k]): w for (k, z), w in act.items()})
        direct = Action(A.groupoid, A.carrier, moment, act, A.side)
        for B in (built, direct, replace(A, moment=moment, act=act)):
            assert B == A
            assert_sorted(B.moment, B.act)


@pytest.mark.parametrize("seed", SEEDS)
def test_fiber_system_tables_are_stored_sorted(seed):
    rng = random.Random(seed)
    _, G = gen.random_groupoid(rng)
    S = gen.random_family(G, rng)
    base, measures = backwards(S.base_map), backwards(S.measures)
    built = [FiberSystem(base, measures), fiber_system(base, measures)]
    for T in built + [replace(S, base_map=base, measures=measures)]:
        assert T == S
        assert_sorted(T.base_map, T.measures)
        assert T.domain() == sorted(S.base_map)


def twins(A: Action, moment: dict, act: dict, rng: random.Random) -> tuple[Action, Action]:
    """A directly built action from shuffled tables, and the one from sorted tables."""
    return (
        Action(A.groupoid, A.carrier, shuffled(moment, rng), shuffled(act, rng), A.side),
        Action(A.groupoid, A.carrier, dict(sorted(moment.items())), dict(sorted(act.items())), A.side),
    )


def broken_tables(A: Action, rng: random.Random) -> tuple[dict, dict]:
    """A's tables with entries dropped, redirected and added off the domain, and a stray moment key."""
    points = sorted(A.carrier)
    act = dict(A.act)
    keys = sorted(act)
    for key in rng.sample(keys, min(4, len(keys))):
        if rng.random() < 0.5:
            del act[key]
        else:
            act[key] = rng.choice(points + ["nowhere"])
    act[(sorted(A.groupoid.elements)[-1], "stray")] = points[0]
    moment = dict(A.moment)
    moment["stray"] = sorted(A.groupoid.units)[0]
    return moment, act


def relabeled_twins(E: Equivalence, image: dict, rng: random.Random) -> tuple[Equivalence, Equivalence]:
    """Twins of E with its right action moved along image, a permutation of the carrier.

    Each action stays valid and free, so what fails are the linking laws.
    """
    R = E.right
    moment = {image[z]: u for z, u in R.moment.items()}
    act = {(k, image[z]): image[w] for (k, z), w in R.act.items()}
    shuffled_R, sorted_R = twins(R, moment, act, rng)
    shuffled_L, sorted_L = twins(E.left, dict(E.left.moment), dict(E.left.act), rng)
    return Equivalence(shuffled_L, shuffled_R), Equivalence(sorted_L, sorted_R)


@pytest.mark.parametrize("seed", SEEDS)
def test_shuffled_broken_objects_report_what_their_sorted_twins_report(seed):
    rng = random.Random(seed)
    _, G, _, E = gen.random_equivalence(rng)
    for A in (E.left, E.right):
        shuffled_A, sorted_A = twins(A, *broken_tables(A, rng), rng)
        assert validate_action(shuffled_A).render() == validate_action(sorted_A).render()
        assert not validate_action(sorted_A).passed

    points = sorted(E.carrier)
    shuffled_E, sorted_E = relabeled_twins(E, dict(zip(points, rng.sample(points, len(points)))), rng)
    assert validate_equivalence(shuffled_E).render() == validate_equivalence(sorted_E).render()
    assert serialize(Document("equivalence", shuffled_E)) == serialize(Document("equivalence", sorted_E))
    shuffled_L, sorted_L = shuffled_E.left, sorted_E.left

    # a random full system is rarely equivariant; its witnesses come in table order
    nu = gen.random_full_beta(E.left, rng)
    shuffled_nu = FiberSystem(shuffled(nu.base_map, rng), shuffled(nu.measures, rng))
    assert check_equivariant(shuffled_L, shuffled_nu).render() == check_equivariant(sorted_L, nu).render()

    corrupted = gen.corrupt_groupoid(G, rng)[1]
    shuffled_G = Groupoid(
        corrupted.elements, corrupted.units, *(shuffled(getattr(corrupted, n), rng) for n in GROUPOID_TABLES)
    )
    assert validate_groupoid(shuffled_G).render() == validate_groupoid(corrupted).render()
    assert serialize(Document("groupoid", shuffled_G)) == serialize(Document("groupoid", corrupted))


@pytest.mark.parametrize(
    "E, image, laws",
    [
        (
            rect32(),
            {"1|a": "2|b", "2|b": "1|a", "1|b": "1|b", "2|a": "2|a", "3|a": "3|a", "3|b": "3|b"},
            {"right moment invariance", "left moment invariance"},
        ),
        (
            self_equivalence(group_as_groupoid(gen.cyclic_table(4))),
            {"c0": "c1", "c1": "c0", "c2": "c2", "c3": "c3"},
            {"commuting"},
        ),
    ],
    ids=["invariance", "commuting"],
)
def test_shuffled_unlinked_equivalence_lists_its_witnesses_as_its_sorted_twin(E, image, laws):
    shuffled_E, sorted_E = relabeled_twins(E, image, random.Random(0))
    report = validate_equivalence(sorted_E)
    assert len(report.violations) > 1
    assert {v.law for v in report.violations} == laws
    assert validate_equivalence(shuffled_E).render() == report.render()


def fresh(obj):
    """A twin of a table object built from its fields, with nothing cached."""
    return type(obj)(**{f.name: getattr(obj, f.name) for f in fields(obj)})


def dropped(table: dict, rng: random.Random) -> dict:
    """The table without one of its entries."""
    gone = rng.choice(sorted(table))
    return {k: v for k, v in table.items() if k != gone}


@pytest.mark.parametrize("seed", SEEDS)
def test_replace_copies_of_validated_objects_report_what_fresh_twins_report(seed):
    rng = random.Random(seed)
    _, _, _, E = gen.random_equivalence(rng)
    groupoids = (E.left.groupoid, E.right.groupoid)
    assert all(validate_groupoid(K).passed for K in groupoids)
    assert validate_equivalence(E).passed
    imprimitivity_iso(E)  # builds the left action's classes and the right one's translators

    for K in groupoids:
        for name in GROUPOID_TABLES:
            copy = replace(K, **{name: dropped(getattr(K, name), rng)})
            twin = fresh(copy)
            assert validate_groupoid(copy) == validate_groupoid(twin) != validate_groupoid(K)
            assert (copy._rfib, copy._sfib) == (twin._rfib, twin._sfib)
            assert (copy._rfib != K._rfib) == (name == "range_map")
    for A in (E.left, E.right):
        copy = replace(A, **dict(zip(("moment", "act"), broken_tables(A, rng))))
        twin = fresh(copy)
        assert validate_action(copy) == validate_action(twin) != validate_action(A)
        assert copy._orbits == twin._orbits

    # a relabeled right action stays valid and free but need not link any more
    R = E.right
    points = sorted(E.carrier)
    image = dict(zip(points, rng.sample(points, len(points))))
    moment = {image[z]: u for z, u in R.moment.items()}
    moved = replace(R, moment=moment, act={(k, image[z]): image[w] for (k, z), w in R.act.items()})
    copy = replace(E, right=moved)
    twin = Equivalence(fresh(E.left), fresh(moved))
    assert validate_equivalence(copy) == validate_equivalence(twin)
    assert copy.right._orbits == twin.right._orbits
