"""Randomized invariants.  Each property is stated over seeded generator draws
so shrinking lands on a reproducible case."""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from haarsys import (
    Document,
    GroupoidFunction,
    Measure,
    check_haar,
    convolve,
    counting_haar,
    full_fiber_system,
    make_haar,
    opposite,
    orbit_space,
    pair_arrow,
    pair_groupoid,
    parse,
    serialize,
    transformation_groupoid,
    validate_groupoid,
)
from haarsys.fixtures import rect32

import generators


MODEST = settings(max_examples=40, deadline=None)
seeds = st.integers(min_value=0, max_value=10**9)
small_fractions = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=8
)


# ---------------------------------------------------------------------------
# groupoid shape identities


@MODEST
@given(st.integers(min_value=1, max_value=7))
def test_pair_groupoid_has_a_square_of_arrows(n):
    points = [str(i) for i in range(1, n + 1)]
    G = pair_groupoid(points)
    assert len(G.elements) == n * n
    assert len(G.units) == n
    assert validate_groupoid(G).passed


@MODEST
@given(seeds)
def test_transformation_groupoid_counts_arrows_by_pairs(seed):
    rng = random.Random(seed)
    G = generators.FAMILIES["transformation"](rng)
    # one arrow per (group element, point), so source fibers share one size
    sizes = {
        len([x for x in G.elements if G.source_map[x] == u]) for u in G.units
    }
    assert len(sizes) == 1
    assert len(G.elements) == sizes.pop() * len(G.units)


@MODEST
@given(seeds)
def test_random_groupoids_validate(seed):
    rng = random.Random(seed)
    _, G = generators.random_groupoid(rng)
    assert validate_groupoid(G).passed


@MODEST
@given(seeds)
def test_single_entry_corruption_is_always_caught(seed):
    rng = random.Random(seed)
    _, G = generators.random_groupoid(rng)
    kind, bad = generators.corrupt_groupoid(G, rng)
    report = validate_groupoid(bad)
    assert not report.passed, kind


# ---------------------------------------------------------------------------
# Haar behavior


@MODEST
@given(seeds, st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=4))
def test_haar_systems_survive_global_scaling(seed, num, den):
    rng = random.Random(seed)
    _, G = generators.random_groupoid(rng)
    lam = generators.random_haar_for(G, rng)
    c = Fraction(num, den)
    scaled = full_fiber_system(
        lam.system.base_map,
        {x: c * lam.system.weight(u, x) for x, u in lam.system.base_map.items()},
    )
    assert check_haar(G, scaled).passed


@MODEST
@given(seeds)
def test_pair_haar_means_column_constant_weights(seed):
    rng = random.Random(seed)
    points = [str(i) for i in range(1, rng.randint(2, 5) + 1)]
    G = pair_groupoid(points)
    col = {u: generators.positive(rng) for u in points}
    flat = full_fiber_system(
        G.range_map,
        {pair_arrow(i, j): col[j] for i in points for j in points},
    )
    assert check_haar(G, flat).passed
    if len(points) >= 2:
        bumped = dict(
            (pair_arrow(i, j), col[j]) for i in points for j in points
        )
        bumped[pair_arrow(points[0], points[1])] += 1
        assert not check_haar(G, full_fiber_system(G.range_map, bumped)).passed


@MODEST
@given(seeds)
def test_perturbing_one_weight_breaks_invariance(seed):
    rng = random.Random(seed)
    family = rng.choice(["pair", "group"])
    G = generators.FAMILIES[family](rng)
    if len(G.elements) < 2:
        return
    lam = generators.random_haar_for(G, rng)
    x = rng.choice(sorted(G.elements))
    weights = {y: lam.system.weight(u, y) for y, u in lam.system.base_map.items()}
    weights[x] += 1
    assert not check_haar(G, full_fiber_system(G.range_map, weights)).passed


# ---------------------------------------------------------------------------
# convolution


@MODEST
@given(seeds, small_fractions, small_fractions)
def test_convolution_is_bilinear(seed, a, b):
    rng = random.Random(seed)
    G = generators.FAMILIES[rng.choice(["pair", "group"])](rng)
    lam = counting_haar(G)
    elems = sorted(G.elements)

    def rand_fn():
        return GroupoidFunction(
            G, {x: Fraction(rng.randint(-4, 4)) for x in rng.sample(elems, k=min(3, len(elems)))}
        )

    f, g, h = rand_fn(), rand_fn(), rand_fn()
    left = convolve(generators.combine((a, f), (b, g)), h, lam)
    right = generators.combine((a, convolve(f, h, lam)), (b, convolve(g, h, lam)))
    assert left == right
    left2 = convolve(h, generators.combine((a, f), (b, g)), lam)
    right2 = generators.combine((a, convolve(h, f, lam)), (b, convolve(h, g, lam)))
    assert left2 == right2


@MODEST
@given(seeds)
def test_group_convolution_of_deltas_multiplies(seed):
    rng = random.Random(seed)
    from haarsys import group_as_groupoid

    name = rng.choice(sorted(generators.GROUP_TABLES))
    G = group_as_groupoid(generators.GROUP_TABLES[name])
    lam = counting_haar(G)
    elems = sorted(G.elements)
    x, y = rng.choice(elems), rng.choice(elems)
    prod = convolve(GroupoidFunction(G, {x: 1}), GroupoidFunction(G, {y: 1}), lam)
    assert prod == GroupoidFunction(G, {G.compose_map[(x, y)]: 1})


# ---------------------------------------------------------------------------
# actions and equivalences


@MODEST
@given(seeds)
def test_opposite_is_an_involution(seed):
    rng = random.Random(seed)
    _, _, A = generators.random_proper_space(rng)
    assert opposite(opposite(A)) == A


@MODEST
@given(seeds)
def test_equivalence_orbits_match_the_far_side_units(seed):
    rng = random.Random(seed)
    _, G, _, E = generators.random_equivalence(rng)
    right_reps, _ = orbit_space(opposite(E.right))
    assert len(right_reps) == len(G.units)
    left_reps, _ = orbit_space(E.left)
    assert len(left_reps) == len(E.right.groupoid.units)


def test_rect32_orbit_counts_pin_the_identity_down():
    E = rect32()
    assert len(orbit_space(E.left)[0]) == 2
    assert len(orbit_space(opposite(E.right))[0]) == 3


# ---------------------------------------------------------------------------
# measures and documents


@MODEST
@given(st.dictionaries(st.sampled_from(["a", "b", "c", "d"]), small_fractions, max_size=4))
def test_measure_drops_zeros_and_totals(values):
    kept = {k: v for k, v in values.items() if v > 0}
    if any(v < 0 for v in values.values()):
        try:
            Measure(values)
        except ValueError:
            return
        raise AssertionError("negative weight accepted")
    m = Measure(values)
    assert set(m.support) == set(kept)
    assert sum(m.weights.values()) == sum(kept.values(), Fraction(0))


@MODEST
@given(st.dictionaries(st.sampled_from(["e", "g"]), small_fractions, min_size=1))
def test_function_documents_round_trip(values):
    doc = Document("function", dict(values))
    assert parse(serialize(doc)) == doc
