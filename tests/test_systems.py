"""Measures, fiber systems, the Haar checker and cut-off functions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import generators as gen
from haarsys import (
    Cutoff,
    Measure,
    ValidationReport,
    Violation,
    as_fraction,
    blow_up,
    check_haar,
    check_system,
    counting_haar,
    cutoff_function,
    fiber_system,
    full_fiber_system,
    make_groupoid,
    make_haar,
    orbit_space,
    pair_arrow,
    representative_cutoff,
    uniform_cutoff,
)
from haarsys.fixtures import (
    pair2,
    pair3,
    rect32,
    weighted_pair3_haar,
    z2,
    z2_skew_system,
)


def laws(report):
    return {v.law for v in report.violations}


# ---------------------------------------------------------------------------
# measures and rationals


def test_measure_drops_zero_weights_and_sorts():
    m = Measure({"b": 0, "a": Fraction(1, 2), "c": 3})
    assert m.support == ("a", "c")
    assert m.weight("b") == 0
    assert sum(m.weights.values()) == Fraction(7, 2)


def test_measures_differing_in_a_weight_or_a_key_are_unequal():
    m = Measure({"a": 1, "b": Fraction(1, 2)})
    assert m == Measure({"b": Fraction(1, 2), "a": 1, "c": 0})
    assert m != Measure({"a": 1, "b": Fraction(1, 3)})
    assert m != Measure({"a": 1, "c": Fraction(1, 2)})
    assert m != Measure({"a": 1})
    assert m != {"a": 1, "b": Fraction(1, 2)}


def test_measure_rejects_negative_weight():
    with pytest.raises(ValueError):
        Measure({"a": -1})


def test_as_fraction_accepts_ints_strings_and_fractions():
    assert as_fraction(3) == 3
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction(Fraction(2, 4)) == Fraction(1, 2)


def test_as_fraction_rejects_floats():
    with pytest.raises(ValueError):
        as_fraction(0.5)


# ---------------------------------------------------------------------------
# fiber systems


def test_full_system_defaults_to_counting():
    beta = full_fiber_system({"z1": "u", "z2": "u"})
    assert beta.measure("u") == Measure({"z1": 1, "z2": 1})


def test_full_system_passes_weights_through():
    beta = full_fiber_system({"z1": "u", "z2": "u"}, {"z1": 1, "z2": 2})
    assert beta.measure("u") == Measure({"z1": 1, "z2": 2})


def test_full_system_splits_fibers():
    beta = full_fiber_system({"a": "u", "b": "u", "c": "v"})
    assert beta.measure("u") == Measure({"a": 1, "b": 1})
    assert beta.measure("v") == Measure({"c": 1})
    assert check_system(beta).passed


def test_full_system_rejects_nonpositive_weights():
    with pytest.raises(ValueError):
        full_fiber_system({"z1": "u"}, {"z1": 0})


def test_full_system_codomain_checks():
    with pytest.raises(ValueError):
        full_fiber_system({"z1": "u"}, codomain=["u", "v"])
    with pytest.raises(ValueError):
        full_fiber_system({"z1": "u"}, codomain=["w"])


def test_check_system_flags_support_outside_fiber():
    system = fiber_system({"a": "u", "b": "v"}, {"u": Measure({"b": 1}), "v": Measure({"b": 1})})
    assert "support containment" in laws(check_system(system))


def test_check_system_flags_missing_fullness():
    system = fiber_system({"a": "u", "b": "u"}, {"u": Measure({"a": 1})})
    report = check_system(system)
    assert "fullness" in laws(report)
    assert any("point=b" in part for v in report.violations for part in v.witness)


# ---------------------------------------------------------------------------
# the Haar checker


def test_counting_haar_on_pair_groupoid():
    lam = counting_haar(pair2())
    for u in pair2().sorted_units():
        assert sum(lam.measure(u).weights.values()) == 2
        assert set(lam.measure(u).weights.values()) == {Fraction(1)}
    assert check_haar(pair2(), lam).passed


def test_counting_haar_on_group():
    lam = counting_haar(z2())
    assert lam.measure("e") == Measure({"e": 1, "g": 1})


def test_counting_haar_on_blow_up():
    big = blow_up(z2(), {"z1": "e", "z2": "e"})
    lam = counting_haar(big)
    assert len(big.units) == 2
    for u in big.sorted_units():
        m = lam.measure(u)
        assert len(m.support) == 4
        assert set(m.weights.values()) == {Fraction(1)}


def test_weighted_pair3_haar_passes():
    lam = weighted_pair3_haar()
    assert check_haar(pair3(), lam).passed
    assert lam.weight(pair_arrow("2", "2"), pair_arrow("2", "3")) == 3


def test_skewed_group_weights_fail_with_witness():
    report = check_haar(z2(), z2_skew_system())
    assert not report.passed
    first = report.violations[0]
    assert first.law == "left invariance"
    assert "x=g" in first.witness


def test_check_haar_requires_the_range_map():
    system = fiber_system({"e": "e", "g": "g"}, {"e": Measure({"e": 1})})
    with pytest.raises(ValueError):
        check_haar(z2(), system)


def test_make_haar_names_its_context_on_failure():
    with pytest.raises(ValueError) as err:
        make_haar(z2(), z2_skew_system(), "skew candidate")
    assert str(err.value).startswith("skew candidate:")


def test_check_haar_flags_a_measure_keyed_off_the_units():
    system = gen.off_unit_family()
    witness = Violation("support containment", ("unit=pair:1,2", "arrow=pair:1,3"))
    assert check_haar(pair3(), system).violations == (witness,)
    assert laws(check_system(system)) == {"support containment"}


def test_check_haar_files_an_arrow_without_range_under_no_unit():
    # the unit is named "", the token a fiber index could mistake for a missing range
    G = make_groupoid(["", "a"], [""], {"": ""}, {"": "", "a": ""}, {"": "", "a": "a"}, {("", ""): ""})
    system = fiber_system({"": ""}, {"": Measure({"": 1})})
    assert check_haar(G, system).violations == (Violation("range undefined", ("x=a",)),)
    # range_fibers() leaves that arrow out too, so counting_haar's first fault is the true one
    assert G.range_fibers() == {"": [""]}
    with pytest.raises(ValueError) as err:
        counting_haar(G)
    assert str(err.value) == "counting system: violation range undefined: x=a"


def reference_check_haar(G, system):
    """check_haar's report from a plain scan that compares the weights as Fractions."""
    els = G.sorted_elements()
    fiber = {u: [x for x in els if G.range_map.get(x) == u] for u in set(G.range_map.values())}
    bad = []
    for u in G.sorted_units():
        m = system.measure(u)
        bad += [
            Violation("support containment", (f"unit={u}", f"arrow={y}"))
            for y in m.support
            if y not in fiber.get(u, [])
        ]
        bad += [
            Violation("fullness", (f"unit={u}", f"arrow={y}"))
            for y in fiber.get(u, [])
            if m.weight(y) == Fraction(0)
        ]
    for x in els:
        ends = {"range": G.range_map, "source": G.source_map, "inverse": G.inverse_map}
        gaps = [name for name, table in ends.items() if x not in table]
        bad += [Violation(f"{name} undefined", (f"x={x}",)) for name in gaps]
        if gaps:
            continue
        rx, sx, xi = G.range_map[x], G.source_map[x], G.inverse_map[x]
        for z in fiber.get(rx, []):
            if (xi, z) not in G.compose_map:
                bad.append(Violation("compose missing on composable pair", (f"x={xi}", f"y={z}")))
                continue
            lhs = system.weight(rx, z)
            rhs = system.weight(sx, G.compose_map[(xi, z)])
            if lhs != rhs:
                bad.append(Violation("left invariance", (f"x={x}", f"z={z}", f"lhs={lhs}", f"rhs={rhs}")))
    return ValidationReport(tuple(bad), ("continuity: vacuous (finite discrete)",))


@pytest.mark.parametrize("family", sorted(gen.FAMILIES))
def test_check_haar_report_matches_a_fraction_scan(family):
    rng = random.Random(f"check_haar {family}")
    witnessed = 0
    for _ in range(20):
        G = gen.FAMILIES[family](rng)
        _, broken = gen.corrupt_groupoid(G, rng)
        for table in (G, broken):
            for system in (gen.random_family(table, rng), gen.random_family(table, rng)):
                report = check_haar(table, system)
                assert report.render() == reference_check_haar(table, system).render()
                witnessed += any(v.law == "left invariance" for v in report.violations)
        lam = gen.scaled_counting_haar(G, rng).system
        assert check_haar(G, lam).render() == reference_check_haar(G, lam).render()
    # the random families are mostly not invariant, so the lhs/rhs text is compared
    assert witnessed > 40


# ---------------------------------------------------------------------------
# cut-off functions


def test_cutoff_constructor_requires_full_quotient_reach():
    with pytest.raises(ValueError):
        Cutoff(Measure({"a": 1}), {"a": "u", "b": "v"})


def test_cutoff_rejects_support_off_domain():
    with pytest.raises(ValueError):
        Cutoff(Measure({"x": 1}), {"a": "u"})


def test_uniform_cutoff_is_constant_one():
    phi = uniform_cutoff({"z1": "q", "z2": "q"})
    assert phi.weight("z1") == 1
    assert phi.weight("z2") == 1


def test_representative_cutoff_picks_least_point():
    phi = representative_cutoff({"z2": "q", "z1": "q", "w": "p"})
    assert phi.weight("z1") == 1
    assert phi.weight("z2") == 0
    assert phi.weight("w") == 1


def test_cutoff_from_single_cover_set():
    q = {"1": "A", "2": "A", "3": "A"}
    phi = cutoff_function(q, [["A"]], [{"A": 1}], [{"1": 1}])
    assert phi.weight("1") == 1
    assert phi.weight("2") == 0
    assert {q[z] for z in phi.weights.support} == {"A"}


def test_cutoff_from_singleton_cover_is_constant_one():
    q = {"1": "1", "2": "2"}
    phi = cutoff_function(q, [["1"], ["2"]], [{"1": 1}, {"2": 1}], [{"1": 1}, {"2": 1}])
    assert phi.weight("1") == 1
    assert phi.weight("2") == 1


def test_cutoff_over_rectangle_orbits():
    E = rect32()
    _, qmap = orbit_space(E.left)
    phi = cutoff_function(
        qmap,
        [["1|a"], ["1|b"]],
        [{"1|a": 1}, {"1|b": 1}],
        [{"1|a": 1}, {"1|b": 1}],
    )
    assert phi.weights == Measure({"1|a": 1, "1|b": 1})


def test_cutoff_partition_must_sum_to_one():
    q = {"1": "A", "2": "A"}
    with pytest.raises(ValueError):
        cutoff_function(q, [["A"]], [{"A": Fraction(1, 2)}], [{"1": 1}])


def test_cutoff_cover_must_reach_base():
    q = {"1": "A", "2": "B"}
    with pytest.raises(ValueError):
        cutoff_function(q, [["A"]], [{"A": 1}], [{"1": 1}])


def test_cutoff_accepts_a_zero_partition_weight_outside_its_cover_set():
    q = {"1": "A", "2": "B"}
    phi = cutoff_function(
        q, [["A"], ["B"]], [{"A": 1, "B": 0}, {"B": 1}], [{"1": 1}, {"2": 1}]
    )
    assert phi.weights == Measure({"1": 1, "2": 1})


def test_cutoff_does_not_call_zero_weights_negative():
    q = {"1": "A", "2": "A"}
    phi = cutoff_function(q, [["A"], ["A"]], [{"A": 1}, {"A": 0}], [{"1": 1, "2": 0}, {"2": 1}])
    assert phi.weights == Measure({"1": 1})


def test_cutoff_local_section_zero_on_a_cover_point_misses_it():
    q = {"1": "A", "2": "B"}
    with pytest.raises(ValueError) as err:
        cutoff_function(q, [["A", "B"]], [{"A": 1, "B": 1}], [{"1": 1, "2": 0}])
    assert str(err.value) == "local section 0 misses its cover set at: B"


def test_cutoff_support_note_is_recorded():
    assert "vacuous" in Cutoff.support_note
