"""Convolution products and the associativity oracle.

The independent checks here are plain matrix algebra: over a pair groupoid
with counting weights, convolution must agree entry by entry with the
product of the corresponding matrices; and a term-by-term Fraction sum on
every generator family, broken tables and non-invariant families included.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain

import pytest

import generators as gen
from haarsys import (
    EXHAUSTIVE_LIMIT,
    GroupoidFunction,
    associativity_oracle,
    convolve,
    counting_haar,
    delta,
    fiber_system,
    make_groupoid,
    Measure,
    pair_arrow,
    pair_groupoid,
)
from haarsys.fixtures import pair2, pair3, weighted_pair3_haar, z2, z2_skew_system


# ---------------------------------------------------------------------------
# functions on a groupoid


def test_function_drops_zeros_and_keeps_signs():
    f = GroupoidFunction(z2(), {"e": 0, "g": Fraction(-1, 2)})
    assert f.support == ("g",)
    assert f.value("e") == 0
    assert f.value("g") == Fraction(-1, 2)


def test_function_rejects_foreign_points():
    with pytest.raises(ValueError):
        GroupoidFunction(z2(), {"nope": 1})


def test_function_algebra():
    f = GroupoidFunction(z2(), {"e": 1})
    h = GroupoidFunction(z2(), {"e": 2, "g": 1})
    assert gen.combine((1, f), (1, h)).value("e") == 3
    assert gen.combine((-2, f)).value("e") == -2
    assert gen.combine((2, f), (-1, h)) == GroupoidFunction(z2(), {"g": -1})
    assert delta(z2(), "g") == GroupoidFunction(z2(), {"g": 1})


def test_functions_differing_in_a_value_a_key_or_the_groupoid_are_unequal():
    f = GroupoidFunction(pair2(), {"pair:1,1": 1, "pair:1,2": -2})
    assert f == GroupoidFunction(pair2(), {"pair:1,2": -2, "pair:1,1": 1, "pair:2,2": 0})
    assert f != GroupoidFunction(pair2(), {"pair:1,1": 1, "pair:1,2": 2})
    assert f != GroupoidFunction(pair2(), {"pair:1,1": 1, "pair:2,1": -2})
    assert f != GroupoidFunction(pair3(), {"pair:1,1": 1, "pair:1,2": -2})
    assert GroupoidFunction(pair2(), {}) != GroupoidFunction(z2(), {})
    assert f != {"pair:1,1": 1, "pair:1,2": -2}


# ---------------------------------------------------------------------------
# convolution against matrix algebra


def matmul(a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def to_matrix(f, points):
    return [[f.value(pair_arrow(u, v)) for v in points] for u in points]


def from_matrix(G, points, m):
    return GroupoidFunction(
        G, {pair_arrow(points[i], points[j]): m[i][j] for i in range(len(points)) for j in range(len(points))}
    )


def test_convolving_with_the_identity_matrix_is_identity():
    points = ["1", "2"]
    G = pair2()
    lam = counting_haar(G)
    f = from_matrix(G, points, [[1, 2], [3, 4]])
    h = from_matrix(G, points, [[1, 0], [0, 1]])
    assert convolve(f, h, lam) == f
    assert convolve(h, f, lam) == f


def test_convolution_matches_matrix_products_up_to_four_points():
    rng = random.Random(31)
    for n in (2, 3, 4):
        points = [str(i) for i in range(1, n + 1)]
        G = pair_groupoid(points)
        lam = counting_haar(G)
        for _ in range(5):
            a = [[Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in points] for _ in points]
            b = [[Fraction(rng.randint(-3, 3), rng.choice([1, 2])) for _ in points] for _ in points]
            fa = from_matrix(G, points, a)
            fb = from_matrix(G, points, b)
            assert to_matrix(convolve(fa, fb, lam), points) == matmul(a, b)


def test_group_deltas_convolve_by_multiplication():
    lam = counting_haar(z2())
    d = delta(z2(), "g")
    assert convolve(d, d, lam) == delta(z2(), "e")


def test_convolve_rejects_mismatched_groupoids():
    with pytest.raises(ValueError):
        convolve(delta(z2(), "e"), delta(pair2(), pair_arrow("1", "1")), counting_haar(z2()))


def reference_convolve(f, h, lam):
    """The convolution sum term by term in Fractions, h scanned in full for each y."""
    G = f.groupoid
    for x in chain(f.values, h.values):
        if x not in G.range_map:
            raise ValueError(f"convolve: range undefined: x={x}")
    for x in f.values:
        if x not in G.source_map:
            raise ValueError(f"convolve: source undefined: x={x}")
    out = {}
    for y, fy in f.items():
        wy = lam.weight(G.range_map[y], y)
        if wy == 0:
            continue
        for z, hz in h.items():
            if G.range_map[z] != G.source_map[y]:
                continue
            if (y, z) not in G.compose_map:
                raise ValueError(f"convolve: compose missing on composable pair: x={y} y={z}")
            x = G.compose_map[(y, z)]
            out[x] = out.get(x, Fraction(0)) + fy * hz * wy
    return GroupoidFunction(G, out)


def outcome(convolve_fn, f, h, lam):
    try:
        return convolve_fn(f, h, lam).items()
    except ValueError as exc:
        return str(exc)


PRIMES = [p for p in range(2, 400) if all(p % q for q in range(2, p))]


def random_values(G, rng):
    """A sparse signed function: empty, small denominators, or a distinct prime per point."""
    els = G.sorted_elements()
    support = rng.sample(els, rng.choice([0, 1, len(els) // 3, len(els)]))
    primes = rng.sample(PRIMES, len(support))
    if rng.random() < 0.5:
        return {x: Fraction(rng.choice([-3, -1, 1, 2]), p) for x, p in zip(support, primes)}
    return {x: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for x in support}


def drop_one_product(G, rng):
    compose = dict(G.compose_map)
    del compose[rng.choice(sorted(compose))]
    return make_groupoid(G.elements, G.units, G.range_map, G.source_map, G.inverse_map, compose)


@pytest.mark.parametrize("family", sorted(gen.FAMILIES))
def test_convolve_matches_a_term_by_term_fraction_sum(family):
    rng = random.Random(f"convolve {family}")
    errors = 0
    for _ in range(20):
        G = gen.FAMILIES[family](rng)
        _, broken = gen.corrupt_groupoid(G, rng)
        cases = [(G, gen.scaled_counting_haar(G, rng))]
        cases += [(table, gen.random_family(table, rng)) for table in (G, broken, drop_one_product(G, rng))]
        for table, lam in cases:
            for _ in range(3):
                f = GroupoidFunction(table, random_values(table, rng))
                h = GroupoidFunction(table, random_values(table, rng))
                expected = outcome(reference_convolve, f, h, lam)
                assert outcome(convolve, f, h, lam) == expected
                errors += isinstance(expected, str)
    assert errors > 0


def test_convolution_is_bilinear_on_samples():
    lam = counting_haar(pair2())
    rng = random.Random(32)
    els = pair2().sorted_elements()
    for _ in range(10):
        f = GroupoidFunction(pair2(), {rng.choice(els): Fraction(rng.randint(-2, 2))})
        h = GroupoidFunction(pair2(), {rng.choice(els): Fraction(rng.randint(-2, 2))})
        k = GroupoidFunction(pair2(), {rng.choice(els): Fraction(rng.randint(-2, 2))})
        lhs = convolve(gen.combine((1, f), (3, h)), k, lam)
        rhs = gen.combine((1, convolve(f, k, lam)), (3, convolve(h, k, lam)))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# the skewed family breaks associativity


def test_skewed_weights_make_bracketing_matter():
    G = z2()
    skew = z2_skew_system()
    d = delta(G, "g")
    dd = convolve(d, d, skew)
    left = convolve(dd, d, skew)
    right = convolve(d, dd, skew)
    assert left == GroupoidFunction(G, {"g": 2})
    assert right == GroupoidFunction(G, {"g": 4})


def test_oracle_reports_the_diagonal_witness_first():
    report = associativity_oracle(z2(), z2_skew_system())
    assert not report.passed
    first = report.violations[0]
    assert first.law == "associativity"
    assert first.witness == ("f=g", "h=g", "k=g", "x=g", "lhs=2", "rhs=4")


def test_oracle_passes_weighted_pair_haar():
    report = associativity_oracle(pair3(), weighted_pair3_haar())
    assert report.passed
    assert report.notes == ("mode: exhaustive (729 indicator triples, diagonal first)",)


def test_oracle_passes_scaled_haar():
    G = pair3()
    scaled = fiber_system(
        G.range_map,
        {
            u: Measure({x: 5 * w for x, w in weighted_pair3_haar().measure(u).items()})
            for u in G.sorted_units()
        },
    )
    assert associativity_oracle(G, scaled).passed


def test_oracle_randomizes_beyond_the_exhaustive_limit():
    G = pair_groupoid(["1", "2", "3", "4"])
    assert len(G.elements) > EXHAUSTIVE_LIMIT
    report = associativity_oracle(G, counting_haar(G), trials=16, seed=3)
    assert report.passed
    assert report.notes == ("mode: randomized (16 signed-combination triples, seed 3)",)


def test_oracle_runs_a_single_trial():
    G = pair_groupoid(["1", "2", "3", "4"])
    report = associativity_oracle(G, counting_haar(G), trials=1)
    assert report.passed
    assert report.notes == ("mode: randomized (1 signed-combination triples, seed 0)",)


@pytest.mark.parametrize("trials", [0, -3])
def test_oracle_refuses_a_trial_count_below_one(trials):
    G = pair_groupoid(["1", "2", "3", "4"])
    with pytest.raises(ValueError, match=f"trials must be at least 1, got {trials}$"):
        associativity_oracle(G, counting_haar(G), trials=trials)


def test_oracle_rejects_support_off_the_fiber():
    G = pair2()
    u1 = pair_arrow("1", "1")
    bad = fiber_system(
        G.range_map,
        {u1: Measure({pair_arrow("2", "1"): 1})},
    )
    with pytest.raises(ValueError, match="supported off its range fiber"):
        associativity_oracle(G, bad)


def test_oracle_rejects_a_measure_keyed_off_the_units():
    with pytest.raises(ValueError) as err:
        associativity_oracle(pair3(), gen.off_unit_family())
    assert str(err.value) == "family supported off its range fiber: unit=pair:1,2 element=pair:1,3"


def test_oracle_holds_on_random_haar_passing_systems():
    rng = random.Random(33)
    seen = 0
    while seen < 10:
        _, G = gen.random_groupoid(rng)
        if len(G.elements) > EXHAUSTIVE_LIMIT:
            continue
        lam = gen.scaled_counting_haar(G, rng)
        assert associativity_oracle(G, lam).passed
        seen += 1
