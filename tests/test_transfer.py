"""Averaging, induced systems, specializations and the transfer pipeline."""

from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import generators as gen
from isosearch import isomorphic
from haarsys import actions, groupoids, systems
from haarsys import (
    Measure,
    PipelineError,
    average_system,
    blow_up,
    blowup_arrow,
    blowup_haar,
    check_equivariant,
    check_haar,
    check_system,
    counting_haar,
    default_beta,
    default_phi,
    fiber_integrate,
    fiber_system,
    full_fiber_system,
    group_as_groupoid,
    imprimitivity_groupoid,
    imprimitivity_haar,
    invariant_measure,
    left_action,
    left_translation_action,
    orbit_space,
    pair_arrow,
    pair_groupoid,
    principal_haar,
    psi_phi,
    relation_arrow,
    relation_groupoid,
    transfer_haar,
    transformation_groupoid,
    transitive_haar,
    uniform_cutoff,
    unit_translation_action,
)
from haarsys.fixtures import (
    pair2,
    pair3,
    pair2_point_equivalence,
    rect32,
    self_equivalence,
    swap_action,
    swap_beta,
    swap_cutoff,
    trivial_group,
    weighted_pair3_haar,
    z2,
)


def uniform_orbit_cutoff(A):
    _, qmap = orbit_space(A)
    return uniform_cutoff(qmap)


# ---------------------------------------------------------------------------
# equivariance checking


def test_swap_beta_is_not_equivariant():
    report = check_equivariant(swap_action(), swap_beta())
    assert not report.passed
    assert report.violations[0].law == "equivariance"


def test_averaged_swap_system_is_equivariant():
    nu = average_system(counting_haar(z2()), swap_action(), swap_beta(), swap_cutoff())
    assert check_equivariant(swap_action(), nu).passed


def test_check_equivariant_requires_the_moment_base():
    beta = full_fiber_system({"z1": "z1", "z2": "z2"})
    with pytest.raises(ValueError):
        check_equivariant(swap_action(), beta)


# ---------------------------------------------------------------------------
# fiber integration and averaging kernels


def test_fiber_integrate_counting_fibers():
    beta = full_fiber_system({"a": "u", "b": "u", "c": "v", "d": "v"})
    F = {(g, z): 1 for g in ("x", "y") for z in ("a", "b", "c", "d")}
    out = fiber_integrate(F, beta)
    assert out == {(g, u): Fraction(2) for g in ("x", "y") for u in ("u", "v")}


def test_fiber_integrate_of_zero_is_zero():
    beta = full_fiber_system({"a": "u"})
    assert fiber_integrate({("x", "a"): 0}, beta) == {("x", "u"): Fraction(0)}


def test_fiber_integrate_weighted_single_fiber():
    beta = full_fiber_system({"z1": "u", "z2": "u"}, {"z1": 1, "z2": 2})
    F = {(g, f"z{i}"): i for g in ("e", "g") for i in (1, 2)}
    out = fiber_integrate(F, beta)
    assert out[("e", "u")] == 5
    assert out[("g", "u")] == 5


def test_psi_phi_of_zero_is_zero():
    A = swap_action()
    out = psi_phi({}, swap_cutoff(), swap_beta(), A)
    assert out == {"e": Fraction(0), "g": Fraction(0)}


def test_psi_phi_indicator_with_uniform_cutoff():
    A = swap_action()
    out = psi_phi({"z1": 1}, swap_cutoff(), swap_beta(), A)
    assert out["e"] == 1
    assert out["g"] == 2


def test_psi_phi_with_representative_cutoff():
    from haarsys import representative_cutoff

    A = swap_action()
    phi = representative_cutoff({"z1": "z1", "z2": "z1"})
    out = psi_phi({"z1": 1, "z2": 1}, phi, swap_beta(), A)
    assert out["e"] == 1
    assert out["g"] == 1


# ---------------------------------------------------------------------------
# averaging a fiber system into an equivariant one


def test_average_swap_system_gives_three_three():
    nu = average_system(counting_haar(z2()), swap_action(), swap_beta(), swap_cutoff())
    assert nu.measure("e") == Measure({"z1": 3, "z2": 3})


def test_average_over_unit_action_doubles_atoms():
    G = pair2()
    A = unit_translation_action(G)
    beta = full_fiber_system({u: u for u in G.sorted_units()})
    phi = uniform_orbit_cutoff(A)
    nu = average_system(counting_haar(G), A, beta, phi)
    for u in G.sorted_units():
        assert nu.measure(u) == Measure({u: 2})


def test_average_rectangle_gives_six_everywhere():
    E = rect32()
    A = E.left
    beta = full_fiber_system(A.moment)
    nu = average_system(weighted_pair3_haar(), A, beta, uniform_orbit_cutoff(A))
    for z in sorted(A.carrier):
        assert nu.weight(A.moment[z], z) == 6


def test_average_output_is_full_and_equivariant_on_random_instances():
    rng = random.Random(21)
    for _ in range(25):
        G, lam, A = gen.random_proper_space(rng)
        nu = average_system(lam, A, gen.random_full_beta(A, rng), gen.random_cutoff_for(A, rng))
        assert check_system(nu).passed
        assert check_equivariant(A, nu).passed


def test_average_rejects_foreign_cutoff():
    A = swap_action()
    phi = uniform_cutoff({"z1": "z1", "z2": "z2"})
    with pytest.raises(ValueError):
        average_system(counting_haar(z2()), A, swap_beta(), phi)


# ---------------------------------------------------------------------------
# invariant measures for one-unit actors


def test_invariant_measure_of_swap():
    out = invariant_measure(swap_action(), Measure({"z1": 1, "z2": 2}), swap_cutoff())
    assert out == Measure({"z1": 3, "z2": 3})


def test_invariant_measure_of_trivial_action_scales_by_group_order():
    A = left_action(
        z2(),
        ["p", "q"],
        {"p": "e", "q": "e"},
        {("e", "p"): "p", ("g", "p"): "p", ("e", "q"): "q", ("g", "q"): "q"},
    )
    out = invariant_measure(A, Measure({"p": 1, "q": 2}), uniform_orbit_cutoff(A))
    assert out == Measure({"p": 2, "q": 4})


def test_invariant_measure_of_rotation():
    z3 = group_as_groupoid(gen.cyclic_table(3))
    act = {(f"c{i}", str(j)): str((j + i) % 3) for i in range(3) for j in range(3)}
    A = left_action(z3, ["0", "1", "2"], {str(j): "c0" for j in range(3)}, act)
    out = invariant_measure(A, Measure({"0": 1, "1": 1, "2": 1}), uniform_orbit_cutoff(A))
    assert out == Measure({"0": 3, "1": 3, "2": 3})


def test_invariant_measure_needs_one_unit():
    E = rect32()
    with pytest.raises(ValueError):
        invariant_measure(E.left, Measure({z: 1 for z in E.carrier}), uniform_orbit_cutoff(E.left))


# ---------------------------------------------------------------------------
# principal groupoids


def test_principal_haar_recovers_the_weighted_pair_system():
    G = pair3()
    units = G.sorted_units()
    q = {u: units[0] for u in units}
    beta = full_fiber_system(
        q, {pair_arrow(s, s): w for s, w in {"1": 1, "2": 2, "3": 3}.items()}
    )
    lam = principal_haar(G, beta)
    assert lam.system == weighted_pair3_haar().system


def test_principal_haar_on_units_only_groupoid_gives_unit_atoms():
    G = relation_groupoid({"1": "1", "2": "2"})
    q = {u: u for u in G.sorted_units()}
    lam = principal_haar(G, full_fiber_system(q))
    for u in G.sorted_units():
        assert lam.measure(u) == Measure({u: 1})


def test_principal_haar_on_two_fiber_relation():
    q = {"1": "A", "2": "A", "3": "B"}
    G = relation_groupoid(q)
    beta = full_fiber_system({relation_arrow(i, i): q[i] for i in q})
    lam = principal_haar(G, beta)
    assert check_haar(G, lam).passed


def test_principal_haar_rejects_groups():
    q = {"e": "A"}
    with pytest.raises(ValueError):
        principal_haar(z2(), full_fiber_system(q, codomain=["A"]))


# ---------------------------------------------------------------------------
# transitive groupoids


def test_transitive_haar_on_pair_groupoid_is_constant_per_source():
    from haarsys import stability_group

    G = pair3()
    stab, _ = stability_group(G, pair_arrow("1", "1"))
    assert len(stab.elements) == 1
    lam = transitive_haar(G, pair_arrow("1", "1"), counting_haar(stab))
    assert check_haar(G, lam).passed
    for u in G.sorted_units():
        assert len(set(lam.measure(u).weights.values())) == 1


def test_transitive_haar_on_a_group_rescales_the_given_measure():
    mu = counting_haar(z2())
    lam = transitive_haar(z2(), "e", mu)
    assert check_haar(z2(), lam).passed
    m = lam.measure("e")
    assert m.weight("e") == m.weight("g") > 0


def test_transitive_haar_on_swap_transformation_groupoid():
    from haarsys import stability_group

    G = transformation_groupoid(
        z2(),
        {("e", "p"): "p", ("e", "q"): "q", ("g", "p"): "q", ("g", "q"): "p"},
        ["p", "q"],
    )
    assert isomorphic(G, pair2())
    v = G.sorted_units()[0]
    stab, _ = stability_group(G, v)
    assert len(stab.elements) == 1
    lam = transitive_haar(G, v, counting_haar(stab))
    assert check_haar(G, lam).passed


def test_transitive_haar_rejects_disconnected_groupoids():
    G = relation_groupoid({"1": "A", "2": "A", "3": "B"})
    with pytest.raises(ValueError, match="not transitive"):
        transitive_haar(G, relation_arrow("1", "1"), counting_haar(trivial_group()))


# ---------------------------------------------------------------------------
# blow-ups


def test_blowup_haar_of_counting_data_is_counting():
    G, f, beta = z2(), {"z1": "e", "z2": "e"}, full_fiber_system({"z1": "e", "z2": "e"})
    kappa = blowup_haar(G, counting_haar(G), f, beta)
    big = blow_up(G, f)
    assert kappa.system == counting_haar(big).system


def test_blowup_haar_along_identity_reproduces_the_weights():
    G = pair3()
    lam = weighted_pair3_haar()
    ident = {u: u for u in G.sorted_units()}
    kappa = blowup_haar(G, lam, ident, full_fiber_system(ident))
    for x in G.sorted_elements():
        u, v = G.range_map[x], G.source_map[x]
        assert kappa.weight(blowup_arrow(u, u, u), blowup_arrow(u, x, v)) == lam.weight(u, x)


def test_blowup_haar_with_uneven_fibers_passes():
    G = pair2()
    f = {"z1": pair_arrow("1", "1"), "z2": pair_arrow("1", "1"), "z3": pair_arrow("2", "2")}
    beta = full_fiber_system(f, {"z1": 1, "z2": 2, "z3": 1})
    kappa = blowup_haar(G, counting_haar(G), f, beta)
    assert len(kappa.groupoid.elements) == 9
    assert check_haar(kappa.groupoid, kappa).passed


def test_blowup_haar_random_instances_pass():
    rng = random.Random(22)
    for _ in range(20):
        G, lam, f, beta = gen.random_blowup_instance(rng)
        kappa = blowup_haar(G, lam, f, beta)
        assert check_haar(kappa.groupoid, kappa).passed


# ---------------------------------------------------------------------------
# imprimitivity systems


def test_imprimitivity_haar_of_right_swap_keeps_the_constant():
    from haarsys import right_action

    A = right_action(
        z2(),
        ["x1", "x2"],
        {"x1": "e", "x2": "e"},
        {("x1", "e"): "x1", ("x2", "e"): "x2", ("x1", "g"): "x2", ("x2", "g"): "x1"},
    )
    c = Fraction(5, 2)
    nu = fiber_system({"x1": "e", "x2": "e"}, {"e": Measure({"x1": c, "x2": c})})
    lam = imprimitivity_haar(A, nu)
    imp, _ = imprimitivity_groupoid(A)
    assert isomorphic(imp, z2())
    unit = imp.sorted_units()[0]
    assert set(lam.measure(unit).weights.values()) == {c}


def test_imprimitivity_haar_of_translation_recovers_counting():
    G = pair2()
    A = left_translation_action(G)
    nu = counting_haar(G).system
    lam = imprimitivity_haar(A, nu)
    imp, _ = imprimitivity_groupoid(A)
    assert isomorphic(imp, G)
    for u in imp.sorted_units():
        assert set(lam.measure(u).weights.values()) == {Fraction(1)}


def test_imprimitivity_haar_of_averaged_rectangle_system():
    E = rect32()
    A = E.left
    beta = full_fiber_system(A.moment)
    nu = average_system(weighted_pair3_haar(), A, beta, uniform_orbit_cutoff(A))
    lam = imprimitivity_haar(A, nu)
    imp, _ = imprimitivity_groupoid(A)
    assert isomorphic(imp, pair_groupoid(["a", "b"]))
    for u in imp.sorted_units():
        assert set(lam.measure(u).weights.values()) == {Fraction(6)}


def test_imprimitivity_haar_rejects_nonequivariant_input():
    A = swap_action()
    with pytest.raises(ValueError):
        imprimitivity_haar(A, swap_beta())


# ---------------------------------------------------------------------------
# the full transfer


def test_transfer_rectangle_with_uniform_cutoff_gives_six():
    E = rect32()
    out = transfer_haar(pair3(), weighted_pair3_haar(), E, phi=uniform_orbit_cutoff(E.left))
    H = out.groupoid
    assert isomorphic(H, pair_groupoid(["a", "b"]))
    for u in H.sorted_units():
        assert set(out.measure(u).weights.values()) == {Fraction(6)}


def test_transfer_rectangle_with_default_cutoff_still_passes():
    E = rect32()
    out = transfer_haar(pair3(), weighted_pair3_haar(), E)
    assert check_haar(out.groupoid, out).passed


def test_transfer_across_self_equivalence_passes():
    G = pair2()
    out = transfer_haar(G, counting_haar(G), self_equivalence(G))
    assert check_haar(out.groupoid, out).passed
    assert out.groupoid == G


def test_transfer_to_a_point_gives_a_single_mass():
    E = pair2_point_equivalence()
    out = transfer_haar(pair2(), counting_haar(pair2()), E)
    H = out.groupoid
    assert len(H.elements) == 1
    unit = H.sorted_units()[0]
    assert out.measure(unit).total() > 0


def test_transfer_random_equivalences_pass():
    rng = random.Random(23)
    for _ in range(20):
        family, G, lam, E = gen.random_equivalence(rng)
        out = transfer_haar(G, lam, E)
        assert check_haar(out.groupoid, out).passed, family


def test_transfer_defaults_are_well_formed():
    E = rect32()
    beta = default_beta(E)
    assert check_system(beta).passed
    phi = default_phi(E)
    assert set(phi.quotient_map) == set(E.carrier)


def test_transfer_stage_errors_name_their_stage():
    E = rect32()
    with pytest.raises(PipelineError) as err:
        transfer_haar(pair2(), counting_haar(pair2()), E)
    assert err.value.stage == "equivalence"
    assert str(err.value).startswith("[stage: equivalence]")

    with pytest.raises(PipelineError) as err:
        transfer_haar(pair3(), counting_haar(pair2()), E)
    assert err.value.stage == "haar"

    bad_phi = uniform_cutoff({z: z for z in sorted(E.carrier)})
    with pytest.raises(PipelineError) as err:
        transfer_haar(pair3(), weighted_pair3_haar(), E, phi=bad_phi)
    assert err.value.stage == "phi"

    bad_beta = fiber_system(E.left.moment, {u: Measure() for u in pair3().sorted_units()})
    with pytest.raises(PipelineError) as err:
        transfer_haar(pair3(), weighted_pair3_haar(), E, beta=bad_beta)
    assert err.value.stage == "beta"


# ---------------------------------------------------------------------------
# validator budget: each input is checked once, at the public boundary

TRANSFER_BUDGET = {
    (actions, "validate_action"): 2,  # once per side, inside validate_equivalence
    (groupoids, "validate_groupoid"): 2,  # the two groupoids
    (systems, "check_haar"): 3,  # lam, the imprimitivity system, the result
    (groupoids, "make_groupoid"): 1,  # the imprimitivity groupoid, built once
    (actions, "orbit_space"): 0,
}


def test_transfer_validates_each_input_once(monkeypatch):
    G, lam, E = pair3(), weighted_pair3_haar(), rect32()
    calls: Counter = Counter()
    for home, name in TRANSFER_BUDGET:
        original = getattr(home, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if modname == "haarsys" or modname.startswith("haarsys."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    transfer_haar(G, lam, E)
    assert {name: calls[name] for _, name in TRANSFER_BUDGET} == {
        name: n for (_, name), n in TRANSFER_BUDGET.items()
    }
