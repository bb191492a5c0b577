"""The acceptance gate: nine end-to-end checks, one summary line each.

Every check draws from seeded generators and compares with exact rational
arithmetic; a failure prints its criterion line as FAIL and the assertion
carries the detail.  The whole gate is budgeted to run in well under a
minute, with the axiom suite alone under five seconds.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from fractions import Fraction

from haarsys import (
    GroupoidFunction,
    Measure,
    associativity_oracle,
    average_system,
    blow_up,
    blowup_arrow,
    blowup_haar,
    check_haar,
    check_system,
    convolve,
    counting_haar,
    default_beta,
    default_phi,
    full_fiber_system,
    group_as_groupoid,
    imprimitivity_groupoid,
    imprimitivity_haar,
    invariant_measure,
    left_action,
    left_translation_action,
    make_haar,
    orbit_space,
    pair_arrow,
    pair_groupoid,
    parse,
    principal_haar,
    serialize,
    stability_group,
    transfer_haar,
    transformation_groupoid,
    transitive_haar,
    uniform_cutoff,
    unit_orbit_map,
    validate_groupoid,
)
from haarsys.cli import main
from haarsys.fixtures import (
    pair3,
    rect32,
    swap_action,
    swap_beta,
    swap_cutoff,
    weighted_pair3_haar,
    z2,
    z2_skew_system,
)

import generators
import isosearch

SUITE_SEED = 20260819
SUITE_SIZE = 500

_suite: list = []
_suite_seconds = 0.0


def suite1():
    """The shared randomized groupoid suite; built once, timed for criterion 1."""
    global _suite_seconds
    if not _suite:
        start = time.perf_counter()
        rng = random.Random(SUITE_SEED)
        _suite.extend(generators.random_groupoid(rng) for _ in range(SUITE_SIZE))
        _suite_seconds = time.perf_counter() - start
    return _suite


def verdict(record, number, ok, detail):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    record(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_criterion_1_axiom_suite(acceptance_report):
    start = time.perf_counter()
    suite = suite1()
    families = set()
    valid = 0
    for family, G in suite:
        families.add(family)
        assert len(G.elements) <= 40, family
        if validate_groupoid(G).passed:
            valid += 1

    rng = random.Random(SUITE_SEED + 1)
    caught = 0
    picks = rng.sample(range(len(suite)), 100)
    kinds = set()
    for i in picks:
        kind, bad = generators.corrupt_groupoid(suite[i][1], rng)
        kinds.add(kind)
        if not validate_groupoid(bad).passed:
            caught += 1
    elapsed = (time.perf_counter() - start) + _suite_seconds

    ok = (
        valid == SUITE_SIZE
        and caught == 100
        and families == set(generators.FAMILIES)
        and elapsed < 5.0
    )
    verdict(
        acceptance_report,
        1,
        ok,
        f"{valid}/{SUITE_SIZE} random groupoids valid, {caught}/100 corruptions "
        f"caught, {len(kinds)} corruption kinds, {elapsed:.2f}s",
    )


def test_criterion_2_haar_checker(acceptance_report):
    suite = suite1()
    passing = sum(
        1 for _, G in suite if check_haar(G, counting_haar(G).system).passed
    )
    weighted = check_haar(pair3(), weighted_pair3_haar().system).passed
    skew = check_haar(z2(), z2_skew_system())
    skew_caught = (
        not skew.passed
        and skew.violations[0].law == "left invariance"
        and "x=g" in skew.violations[0].witness
    )
    ok = passing == len(suite) and weighted and skew_caught
    verdict(
        acceptance_report,
        2,
        ok,
        f"counting system invariant on {passing}/{len(suite)} groupoids, "
        f"source-weighted pair system passes, skewed order-2 system rejected at x=g",
    )


def test_criterion_3_averaging(acceptance_report):
    rng = random.Random(SUITE_SEED + 3)
    checked = 0
    for _ in range(200):
        G, lam, A = generators.random_proper_space(rng)
        beta = generators.random_full_beta(A, rng)
        phi = generators.random_cutoff_for(A, rng)
        nu = average_system(lam, A, beta, phi)
        assert check_system(nu).passed
        fibers: dict[str, set[str]] = {u: set() for u in G.units}
        for z, u in A.moment.items():
            fibers[u].add(z)
        for u in G.units:
            assert set(nu.measure(u).support) == fibers[u]
        for (g, z), w in A.act.items():
            assert nu.weight(G.range_map[g], w) == nu.weight(G.source_map[g], z)
        checked += 1

    swap = average_system(counting_haar(z2()), swap_action(), swap_beta(), swap_cutoff())
    swap_ok = swap.measure("e") == Measure({"z1": 3, "z2": 3})
    ok = checked == 200 and swap_ok
    verdict(
        acceptance_report,
        3,
        ok,
        f"{checked}/200 averaged systems full and equivariant atom-by-atom, "
        f"swap fixture averages to (3, 3)",
    )


def test_criterion_4_transfer(acceptance_report):
    rng = random.Random(SUITE_SEED + 4)
    families = set()
    passed = 0
    for _ in range(100):
        family, G, lam, E = generators.random_equivalence(rng)
        families.add(family)
        out = transfer_haar(G, lam, E)
        H = E.right.groupoid
        assert out.groupoid == H
        if check_haar(H, out.system).passed:
            passed += 1

    E = rect32()
    phi = uniform_cutoff(orbit_space(E.left)[1])
    out = transfer_haar(pair3(), weighted_pair3_haar(), E, phi=phi)
    atoms = {out.system.weight(u, x) for x, u in out.system.base_map.items()}
    rect_ok = atoms == {Fraction(6)}
    ok = passed == 100 and len(families) == 4 and rect_ok
    verdict(
        acceptance_report,
        4,
        ok,
        f"{passed}/100 transferred systems invariant ({len(families)} equivalence "
        f"families), rectangle fixture lands on constant weight 6",
    )


def test_transfer_matches_its_closed_form():
    """The transferred weight of h is the sum over sigma(z) = s(h) of mu(rho(z)) phi(z) beta(z).

    rho and sigma are the left and right moments and mu(u) = lam^u(u).  Left
    invariance gives lam^{r(g)}(g) = mu(s(g)), and the points z with
    sigma(z) = s(h) are one left orbit, so averaging and induction collapse
    to this sum; nothing in it goes through the imprimitivity groupoid.
    """
    rng = random.Random(SUITE_SEED + 40)
    for _ in range(200):
        _, G, lam, E = generators.random_equivalence(rng)
        rho, sigma, H = E.left.moment, E.right.moment, E.right.groupoid
        seeded = generators.random_full_beta(E.left, rng), generators.random_cutoff_for(E.left, rng)
        for beta, phi in ((None, None), seeded):
            out = transfer_haar(G, lam, E, beta, phi)
            beta = default_beta(E) if beta is None else beta
            phi = default_phi(E) if phi is None else phi
            for h in H.sorted_elements():
                expected = sum(
                    (
                        lam.weight(rho[z], rho[z]) * phi.weight(z) * beta.weight(rho[z], z)
                        for z in E.left.sorted_carrier()
                        if sigma[z] == H.source_map[h]
                    ),
                    Fraction(0),
                )
                assert out.weight(H.range_map[h], h) == expected, (h, expected)


def test_criterion_5_blowup(acceptance_report):
    rng = random.Random(SUITE_SEED + 5)
    passed = 0
    for _ in range(100):
        G, lam, f, beta = generators.random_blowup_instance(rng)
        kappa = blowup_haar(G, lam, f, beta)
        big = blow_up(G, f)
        assert kappa.groupoid == big
        if check_haar(big, kappa.system).passed:
            passed += 1

    G = pair3()
    lam = weighted_pair3_haar()
    ident = {u: u for u in G.sorted_units()}
    kappa = blowup_haar(G, lam, ident, full_fiber_system(ident))
    reproduced = all(
        kappa.system.weight(
            blowup_arrow(G.range_map[x], G.range_map[x], G.range_map[x]),
            blowup_arrow(G.range_map[x], x, G.source_map[x]),
        )
        == lam.system.weight(G.range_map[x], x)
        for x in G.elements
    )
    ok = passed == 100 and reproduced
    verdict(
        acceptance_report,
        5,
        ok,
        f"{passed}/100 blow-up systems invariant, identity blow-up reproduces "
        f"the source weights arrow-for-arrow",
    )


def _free_rotation_action(rng):
    """Z/n acting freely on a few disjoint n-cycles, with a per-cycle system."""
    n = rng.choice([2, 3, 4])
    G = group_as_groupoid(generators.cyclic_table(n))
    elems = sorted(G.elements)
    copies = rng.randint(1, 3)
    carrier = [f"c{k}x{j}" for k in range(copies) for j in range(n)]
    unit = next(iter(G.units))
    act = {
        (elems[i], f"c{k}x{j}"): f"c{k}x{(i + j) % n}"
        for k in range(copies)
        for i in range(n)
        for j in range(n)
    }
    A = left_action(G, carrier, {z: unit for z in carrier}, act)
    scale = {k: generators.positive(rng) for k in range(copies)}
    nu = full_fiber_system(
        A.moment, {f"c{k}x{j}": scale[k] for k in range(copies) for j in range(n)}
    )
    return A, nu


def test_criterion_6_imprimitivity(acceptance_report):
    rng = random.Random(SUITE_SEED + 6)
    checked = 0
    for _ in range(40):
        if rng.random() < 0.5:
            small = {k: v for k, v in generators.FAMILIES.items() if k != "blowup"}
            while True:
                G = small[rng.choice(sorted(small))](rng)
                if len(G.elements) <= 12:
                    break
            A = left_translation_action(G)
            nu = generators.scaled_counting_haar(G, rng).system
        else:
            A, nu = _free_rotation_action(rng)
        imp, labeling = imprimitivity_groupoid(A)
        assert validate_groupoid(imp).passed
        haar = imprimitivity_haar(A, nu)
        assert check_haar(imp, haar.system).passed
        # exhaustive swap: every member pair of every class must recompute
        # the same weight the emitted system carries
        for (y, x), c in labeling.items():
            assert haar.system.weight(imp.range_map[c], c) == nu.weight(
                A.moment[y], x
            ), (y, x, c)
        checked += 1

    A = swap_action()
    c = Fraction(5, 2)
    nu = full_fiber_system(A.moment, {"z1": c, "z2": c})
    imp, _ = imprimitivity_groupoid(A)
    haar = imprimitivity_haar(A, nu)
    swap_ok = (
        isosearch.isomorphic(imp, z2())
        and {haar.system.weight(u, x) for x, u in haar.system.base_map.items()} == {c}
    )
    ok = checked == 40 and swap_ok
    verdict(
        acceptance_report,
        6,
        ok,
        f"{checked}/40 quotient groupoids valid with representative-independent "
        f"weights, swap quotient is the order-2 group with constant weight",
    )


def test_criterion_7_specializations(acceptance_report):
    rng = random.Random(SUITE_SEED + 7)

    principal_checked = 0
    for _ in range(40):
        kind = rng.choice(["pair", "relation", "units"])
        if kind == "pair":
            G = generators.random_pair(rng)
        elif kind == "relation":
            G = generators.random_relation(rng)
        else:
            G = generators.unit_groupoid([str(i) for i in range(1, rng.randint(1, 4) + 1)])
        q = unit_orbit_map(G)
        beta = full_fiber_system(q, {u: generators.positive(rng) for u in q})
        lam = principal_haar(G, beta)
        assert check_haar(G, lam.system).passed
        principal_checked += 1

    transitive_checked = 0
    for _ in range(40):
        kind = rng.choice(["pair", "group", "rotation"])
        if kind == "pair":
            G = generators.random_pair(rng)
        elif kind == "group":
            G = generators.random_group(rng)
        else:
            n = rng.choice([2, 3, 4])
            group = group_as_groupoid(generators.cyclic_table(n))
            pts = [f"x{j}" for j in range(n)]
            elems = sorted(group.elements)
            act = {
                (elems[i], f"x{j}"): f"x{(i + j) % n}"
                for i in range(n)
                for j in range(n)
            }
            G = transformation_groupoid(group, act, pts)
        v = sorted(G.units)[0]
        stab, _ = stability_group(G, v)
        c = generators.positive(rng)
        mu = make_haar(
            stab,
            full_fiber_system(stab.range_map, {x: c for x in stab.elements}),
            "isotropy system",
        )
        lam = transitive_haar(G, v, mu)
        assert check_haar(G, lam.system).passed
        transitive_checked += 1

    invariant_checked = 0
    for _ in range(30):
        A, _ = _free_rotation_action(rng)
        beta = Measure({z: generators.positive(rng) for z in A.carrier})
        phi = generators.random_cutoff_for(A, rng)
        m = invariant_measure(A, beta, phi)
        assert set(m.support) == set(A.carrier)
        for (g, z), w in A.act.items():
            assert m.weight(w) == m.weight(z)
        invariant_checked += 1

    swap_ok = invariant_measure(
        swap_action(), Measure({"z1": 1, "z2": 2}), swap_cutoff()
    ) == Measure({"z1": 3, "z2": 3})

    ok = (
        principal_checked == 40
        and transitive_checked == 40
        and invariant_checked == 30
        and swap_ok
    )
    verdict(
        acceptance_report,
        7,
        ok,
        f"{principal_checked}/40 principal and {transitive_checked}/40 transitive "
        f"constructions invariant, {invariant_checked}/30 invariant measures fully "
        f"supported, swap measure is (3, 3)",
    )


def _matmul(a, b):
    n = len(a)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def test_criterion_8_convolution(acceptance_report):
    seen: dict = {}
    for _, G in suite1():
        if len(G.elements) <= 12:
            key = (tuple(sorted(G.elements)), tuple(sorted(G.compose_map.items())))
            seen.setdefault(key, G)

    rng = random.Random(SUITE_SEED + 8)
    oracle_ok = 0
    for key in sorted(seen):
        G = seen[key]
        lam = counting_haar(G)
        report = associativity_oracle(G, lam.system)
        assert report.notes[0].startswith("mode: exhaustive"), report.notes
        if report.passed:
            oracle_ok += 1
    scaled_ok = 0
    for key in sorted(seen)[:15]:
        G = seen[key]
        lam = generators.scaled_counting_haar(G, rng)
        if associativity_oracle(G, lam.system).passed:
            scaled_ok += 1

    matrix_ok = True
    for n in range(1, 5):
        points = [str(i) for i in range(1, n + 1)]
        G = pair_groupoid(points)
        lam = counting_haar(G)
        for _ in range(3):
            a = [[Fraction(rng.randint(-5, 5)) for _ in points] for _ in points]
            b = [[Fraction(rng.randint(-5, 5)) for _ in points] for _ in points]
            fa = GroupoidFunction(
                G,
                {
                    pair_arrow(points[i], points[j]): a[i][j]
                    for i in range(n)
                    for j in range(n)
                },
            )
            fb = GroupoidFunction(
                G,
                {
                    pair_arrow(points[i], points[j]): b[i][j]
                    for i in range(n)
                    for j in range(n)
                },
            )
            prod = convolve(fa, fb, lam)
            ab = _matmul(a, b)
            matrix_ok = matrix_ok and all(
                prod.value(pair_arrow(points[i], points[j])) == ab[i][j]
                for i in range(n)
                for j in range(n)
            )

    G = z2()
    skew = z2_skew_system()
    delta = GroupoidFunction(G, {"g": 1})
    left = convolve(convolve(delta, delta, skew), delta, skew)
    right = convolve(delta, convolve(delta, delta, skew), skew)
    report = associativity_oracle(G, skew)
    counterexample_ok = (
        left == GroupoidFunction(G, {"g": 2})
        and right == GroupoidFunction(G, {"g": 4})
        and not report.passed
        and report.violations[0].witness == ("f=g", "h=g", "k=g", "x=g", "lhs=2", "rhs=4")
    )

    ok = (
        oracle_ok == len(seen)
        and scaled_ok == min(15, len(seen))
        and matrix_ok
        and counterexample_ok
    )
    verdict(
        acceptance_report,
        8,
        ok,
        f"associativity exhaustive on {oracle_ok}/{len(seen)} small invariant "
        f"systems (plus {scaled_ok} rescaled), pair convolution matches matrix "
        f"products up to n=4, skewed system reports 2 vs 4 at x=g",
    )


def test_criterion_9_cli(acceptance_report, tmp_path, capsys):
    demo_names = ["blowup-z2", "pair3-weighted", "rect32-transfer", "swap-average", "z2-nonassoc"]
    stable = 0
    for name in demo_names:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "haarsys.cli", "demo", name],
                capture_output=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        if runs[0] == runs[1] and runs[0]:
            stable += 1

    corpus = generators.fixture_corpus()
    round_trips = sum(
        1 for doc in corpus.values() if parse(serialize(doc)) == doc
    )

    good = tmp_path / "good.json"
    good.write_text(serialize(next(iter(sorted(corpus.items())))[1]))
    skew_g = tmp_path / "g.json"
    skew_g.write_text(serialize(parse(serialize(corpus["groupoid-z2"]))))
    skew_s = tmp_path / "s.json"
    skew_s.write_text(serialize(corpus["system-z2-skew"]))
    junk = tmp_path / "junk.json"
    junk.write_text("{")
    codes = (
        main(["validate", str(good)]),
        main(["check-haar", "--groupoid", str(skew_g), "--system", str(skew_s)]),
        main(["validate", str(junk)]),
        main(["validate", str(tmp_path / "missing.json")]),
    )
    capsys.readouterr()
    codes_ok = codes == (0, 1, 2, 2)

    ok = stable == len(demo_names) and round_trips == len(corpus) and codes_ok
    verdict(
        acceptance_report,
        9,
        ok,
        f"{stable}/{len(demo_names)} demos byte-stable twice, {round_trips}/"
        f"{len(corpus)} corpus documents round-trip, exit codes {codes} honored",
    )
