"""Averaging, induced systems, specializations and the transfer pipeline."""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import generators as gen
from isosearch import isomorphic
from haarsys import actions, groupoids, systems, transfer
from haarsys import (
    Measure,
    PipelineError,
    Violation,
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
    imprimitivity_iso,
    invariant_measure,
    left_action,
    left_translation_action,
    make_haar,
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
    unit_orbit_map,
    unit_translation_action,
)
from haarsys.fixtures import (
    pair2,
    pair3,
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


def test_check_equivariant_reports_a_missing_table_entry():
    A = swap_action()
    broken = replace(A, act={key: w for key, w in A.act.items() if key != ("g", "z2")})
    report = check_equivariant(broken, swap_beta())
    assert report.render() == "status: FAIL\nviolation equivariance: g=g z=z1 lhs=2 rhs=1"


@pytest.mark.parametrize("table", ["range", "source"])
def test_check_equivariant_reports_an_arrow_without_an_end(table):
    A = swap_action()
    broken = replace(A, groupoid=replace(z2(), **{f"{table}_map": {"e": "e"}}))
    report = check_equivariant(broken, swap_beta())
    assert report.render() == f"status: FAIL\nviolation {table} undefined: x=g"


def exhaustive_equivariance(A, system):
    """Every equivariance violation, by a scan of G x moment fibers."""
    G = A.groupoid
    bad = []
    for g in G.sorted_elements():
        r, s = G.range_map[g], G.source_map[g]
        for z in A.sorted_carrier():
            if A.moment[z] != s:
                continue
            lhs, rhs = system.weight(r, A.act[(g, z)]), system.weight(s, z)
            if lhs != rhs:
                bad.append(Violation("equivariance", (f"g={g}", f"z={z}", f"lhs={lhs}", f"rhs={rhs}")))
    return bad


def test_check_equivariant_lists_what_an_exhaustive_scan_finds():
    rng = random.Random(26)
    found = 0
    for _ in range(40):
        _, lam, A = gen.random_proper_space(rng)
        beta = gen.random_full_beta(A, rng)
        nu = average_system(lam, A, beta, gen.random_cutoff_for(A, rng))
        for system in (beta, nu):
            expected = exhaustive_equivariance(A, system)
            assert list(check_equivariant(A, system).violations) == expected
            found += len(expected)
    assert found > 0


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


def assert_fiber_formula(G, lam, A, beta, phi):
    """average_system against the Fraction sum over the range fiber, z = inv(g).w."""
    nu = average_system(lam, A, beta, phi)
    assert sorted(nu.measures) == G.sorted_units()
    for w in A.sorted_carrier():
        u = A.moment[w]
        expected = Fraction(0)
        for g in G.range_fibers()[u]:
            z = A.act[(G.inverse_map[g], w)]
            expected += lam.weight(u, g) * phi.weight(z) * beta.weight(G.source_map[g], z)
        assert nu.weight(u, w) == expected


def test_average_system_matches_the_fiber_formula():
    rng = random.Random(24)
    for _ in range(30):
        G, lam, A = gen.random_proper_space(rng)
        assert_fiber_formula(G, lam, A, gen.random_full_beta(A, rng), gen.random_cutoff_for(A, rng))


PRIMES = [p for p in range(3, 200) if all(p % d for d in range(2, p))]


def test_average_system_is_exact_on_prime_denominators():
    """lam, beta and phi weights all carry distinct prime denominators.

    lam^{r(y)}(y) = mu(s(y)) is Haar on any groupoid; mu takes one prime per
    unit, beta and phi one per carrier point.
    """
    rng = random.Random(26)
    orbit_counts = []
    for _ in range(40):
        G, _, A = gen.random_proper_space(rng)
        primes = iter(rng.sample(PRIMES, len(G.units) + 2 * len(A.carrier)))

        def weight(rng):
            return Fraction(rng.randint(1, 4), next(primes))

        mu = {u: weight(rng) for u in G.sorted_units()}
        measures = {
            u: Measure({y: mu[G.source_map[y]] for y in fiber})
            for u, fiber in G.range_fibers().items()
        }
        lam = make_haar(G, fiber_system(G.range_map, measures))
        beta, phi = gen.random_full_beta(A, rng, weight), gen.random_cutoff_for(A, rng, weight)
        assert_fiber_formula(G, lam, A, beta, phi)
        orbit_counts.append(len(set(unit_orbit_map(G).values())))
    assert sum(n >= 2 for n in orbit_counts) >= 10


def test_averaging_integrates_psi_phi_against_lam():
    rng = random.Random(25)
    for _ in range(30):
        G, lam, A = gen.random_proper_space(rng)
        beta, phi = gen.random_full_beta(A, rng), gen.random_cutoff_for(A, rng)
        f = {z: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for z in A.sorted_carrier()}
        nu = average_system(lam, A, beta, phi)
        psi = psi_phi(f, phi, beta, A)
        for u in G.sorted_units():
            lhs = sum((f[w] * weight for w, weight in nu.measure(u).items()), Fraction(0))
            rhs = sum((lam.weight(u, g) * psi[g] for g in G.range_fiber(u)), Fraction(0))
            assert lhs == rhs


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
    E = gen.pair2_point_equivalence()
    out = transfer_haar(pair2(), counting_haar(pair2()), E)
    H = out.groupoid
    assert len(H.elements) == 1
    unit = H.sorted_units()[0]
    assert sum(out.measure(unit).weights.values()) > 0


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


def test_transfer_succeeds_where_imprimitivity_class_tokens_collide():
    # imprimitivity_groupoid refuses this left action; the transfer names no class.  The closed
    # form of test_transfer_matches_its_closed_form gives 1: G is trivial, and each sigma-fiber
    # is one point, its own orbit, weighing 1 under the default beta and phi
    E = gen.colliding_tokens_equivalence()
    G, H = E.left.groupoid, E.right.groupoid
    out = transfer_haar(G, counting_haar(G), E)
    assert out.groupoid == H
    assert out.system == counting_haar(H).system


def test_transfer_equals_the_route_through_the_imprimitivity_groupoid():
    # reference: imprimitivity_haar induces nu on the imprimitivity groupoid; rename each class to H
    rng = random.Random(32)
    for i in range(150):
        _, G, lam, E = gen.random_equivalence(rng)
        if i % 2:
            beta, phi = gen.random_full_beta(E.left, rng), gen.random_cutoff_for(E.left, rng)
        else:
            beta, phi = default_beta(E), default_phi(E)
        nu = average_system(lam, E.left, beta, phi)
        via_classes = imprimitivity_haar(E.left, nu)
        _, _, iso = imprimitivity_iso(E)
        out = transfer_haar(G, lam, E, beta, phi)
        H = E.right.groupoid
        assert sorted(iso.values()) == H.sorted_elements()
        for c, h in iso.items():
            c_unit, h_unit = via_classes.groupoid.range_map[c], H.range_map[h]
            assert out.weight(h_unit, h) == via_classes.weight(c_unit, c), (c, h)


# ---------------------------------------------------------------------------
# validator budget: each input is checked once, at the public boundary

TRANSFER_BUDGET = {
    (actions, "validate_action"): 2,  # once per side, inside validate_equivalence
    (groupoids, "validate_groupoid"): 2,  # the two groupoids
    (systems, "check_haar"): 2,  # lam and the result
    (systems, "make_haar"): 1,  # the result, certified on the right groupoid only
    (groupoids, "make_groupoid"): 0,  # the induction reads H's action; no imprimitivity groupoid
    (actions, "orbit_space"): 0,
    (groupoids, "_pullback"): 0,  # no imprimitivity groupoid
    (groupoids.Groupoid, "range_fibers"): 1,  # _induce's walk of H; the checkers read the cached _rfib
}

# derived indexes built inside transfer_haar, on an equivalence built beforehand
INDEX_BUDGET = {
    (actions.Action, "_laws"): 0,  # walked when each action was built, read back by validate_action
    (actions.Action, "_orbits"): 2,  # once per side in validate_equivalence; the cut-off reuses the left
    (actions.Action, "_translators"): 0,  # the induction reads the right table at (inv(h), y)
    (actions.Action, "_classes"): 0,  # no imprimitivity groupoid
    (groupoids.Groupoid, "_rfib"): 3,  # G and H in validate_groupoid, the left action's copy of G
    (groupoids.Groupoid, "_sfib"): 1,  # G's, for associativity; H's was built with the right action
}


def test_transfer_validates_each_input_once(monkeypatch):
    G, lam, E = pair3(), weighted_pair3_haar(), rect32()
    calls: Counter = Counter()
    for home, name in TRANSFER_BUDGET:
        original = getattr(home, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        if isinstance(home, type):
            monkeypatch.setattr(home, name, counted)
            continue
        for modname, module in list(sys.modules.items()):
            if modname == "haarsys" or modname.startswith("haarsys."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
    for cls, name in INDEX_BUDGET:
        index = vars(cls)[name]

        def build(obj, _build=index.func, _name=name):
            calls[_name] += 1
            return _build(obj)

        monkeypatch.setattr(index, "func", build)
    transfer_haar(G, lam, E)
    budget = {**TRANSFER_BUDGET, **INDEX_BUDGET}
    assert {name: calls[name] for _, name in budget} == {name: n for (_, name), n in budget.items()}


def doubled_first_weight(system):
    """The system with the weight of the least point of its first measure doubled."""
    first = next(u for u, m in system.measures.items() if m.support)
    m = system.measure(first)
    top = m.support[0]
    doubled = Measure({**m.weights, top: 2 * m.weight(top)})
    return fiber_system(system.base_map, {**system.measures, first: doubled})


def test_transfer_certifies_the_induced_system_on_the_right_groupoid(monkeypatch):
    induce = transfer._induce
    monkeypatch.setattr(transfer, "_induce", lambda *args: doubled_first_weight(induce(*args)))
    with pytest.raises(PipelineError) as err:
        transfer_haar(pair3(), weighted_pair3_haar(), rect32())
    assert err.value.stage == "induction"
    assert str(err.value).startswith(
        "[stage: induction] transferred system: violation left invariance: "
    )


def test_invariant_measure_still_certifies_the_averaged_system(monkeypatch):
    build = transfer.fiber_system
    monkeypatch.setattr(transfer, "fiber_system", lambda *args: doubled_first_weight(build(*args)))
    with pytest.raises(RuntimeError) as err:
        invariant_measure(swap_action(), Measure({"z1": 1, "z2": 2}), swap_cutoff())
    assert str(err.value).startswith(
        "internal: averaged system not equivariant: violation equivariance: "
    )
