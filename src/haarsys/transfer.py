"""Constructions that carry Haar systems around: averaging, induction, transfer.

The central move: integrate a full fiber system against a Haar system,
weighted by a cut-off, to produce a full equivariant system over the moment
map of an action.  Such a system induces a Haar system on the imprimitivity
groupoid of a free action, and through an equivalence that groupoid is a copy
of the linked groupoid, so Haar systems travel across equivalences.

The final results are certified by check_haar before being returned.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .actions import (
    Action,
    Equivalence,
    _action_domain,
    _class_translation,
    is_free,
    left_action,
    opposite_equivalence,
    orbit_space,
    right_action,
    validate_action,
    validate_equivalence,
)
from .groupoids import (
    Groupoid,
    ValidationReport,
    Violation,
    _fibers,
    _blow_up,
    _isotropy_arrow,
    stability_group,
    unit_orbit_map,
    validate_groupoid,
)
from .systems import (
    NO_WEIGHT,
    Cutoff,
    FiberSystem,
    HaarSystem,
    Measure,
    Rational,
    _over_fibers,
    _partition_reps,
    as_fraction,
    check_haar,
    check_system,
    counting_haar,
    fiber_system,
    full_fiber_system,
    make_haar,
    representative_cutoff,
)

__all__ = [
    "PipelineError",
    "average_system",
    "blowup_haar",
    "check_equivariant",
    "default_beta",
    "default_phi",
    "fiber_integrate",
    "imprimitivity_haar",
    "invariant_measure",
    "principal_haar",
    "psi_phi",
    "transfer_haar",
    "transitive_haar",
]

ZERO = Fraction(0)


class PipelineError(ValueError):
    """A staged precondition failure; the message names the failing stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[stage: {stage}] {message}")
        self.stage = stage


def check_equivariant(A: Action, system: FiberSystem) -> ValidationReport:
    """Check that translating a fiber measure matches the measure at the translated base.

    Walks the action table in its stored order, which Action keeps sorted by
    (g, z), so it checks the pairs the table defines; that these are exactly
    the pairs with s(g) == moment(z) is validate_action's job.  For each
    entry the weight of g.z at r(g) must equal the weight of z at s(g).  An
    arrow with no range or no source is reported once, with check_haar's law
    name, and its entries are skipped.  Weights are compared as (numerator,
    denominator) pairs of ints, read once per measure, as check_haar does;
    the lhs/rhs witnesses still print the Fractions.  O(|measures| + |act|).
    """
    if system.base_map != A.moment:
        raise ValueError("base map mismatch: expected the moment map of the action")
    bad: list[Violation] = []
    G = A.groupoid
    # Fractions are kept in lowest terms, so equal weights have equal (numerator, denominator)
    pairs = {
        u: {z: (w.numerator, w.denominator) for z, w in m.weights.items()}
        for u, m in system.measures.items()
    }
    last = None
    for (g, z), w in A.act.items():
        if g != last:  # the entries of one arrow are adjacent in sorted order
            last = g
            r, s = G.range_map.get(g), G.source_map.get(g)
            gaps = [name for name, end in (("range", r), ("source", s)) if end is None]
            bad.extend(Violation(f"{name} undefined", (f"x={g}",)) for name in gaps)
            top, bottom = pairs.get(r, {}), pairs.get(s, {})
        if gaps:
            continue
        if top.get(w, NO_WEIGHT) != bottom.get(z, NO_WEIGHT):
            lhs, rhs = system.weight(r, w), system.weight(s, z)
            bad.append(Violation("equivariance", (f"g={g}", f"z={z}", f"lhs={lhs}", f"rhs={rhs}")))
    return ValidationReport(tuple(bad))


def fiber_integrate(
    F: Mapping[tuple[str, str], Rational], beta: FiberSystem
) -> dict[tuple[str, str], Fraction]:
    """Integrate the second argument of F over each fiber of beta's base map.

    F is a finite mapping on (element, point) pairs; the result maps
    (element, base point) to the beta-weighted fiber sum.
    """
    table = {(str(g), str(z)): as_fraction(v, f"F({g}, {z})") for (g, z), v in F.items()}
    gs = sorted({g for g, _ in table})
    fibers = _fibers(beta.domain(), beta.base_map.get)
    out: dict[tuple[str, str], Fraction] = {}
    for g in gs:
        for u in beta.codomain():
            m = beta.measure(u)
            out[(g, u)] = sum(
                (table.get((g, z), ZERO) * m.weight(z) for z in fibers.get(u, ())), ZERO
            )
    return out


def psi_phi(
    f: Mapping[str, Rational], phi: Cutoff, beta: FiberSystem, A: Action
) -> dict[str, Fraction]:
    """The cut-off-weighted average of f along translated fibers.

    For each arrow g the value is the sum over the moment fiber at s(g) of
    f(g.z) * phi(z) * beta-weight of z.  After the checks, one walk over the
    action table adds each entry (g, z) into the value at g: O(|act|).
    """
    if beta.base_map != A.moment:
        raise ValueError("base map mismatch: expected the moment map of the action")
    validate_action(A).require("invalid action")
    _require_cutoff_matches(phi, A, "averaging weight")
    values = {str(z): as_fraction(v, f"f({z})") for z, v in f.items()}
    G = A.groupoid
    out = {g: ZERO for g in G.sorted_elements()}
    for (g, z), w in A.act.items():
        out[g] += values.get(w, ZERO) * phi.weight(z) * beta.weight(G.source_map[g], z)
    return out


def _require_cutoff_matches(phi: Cutoff, A: Action, context: str) -> None:
    """Check phi's quotient against a valid action's orbit map, which is its own _partition_reps."""
    if set(phi.quotient_map) != set(A._orbits):
        raise ValueError(f"{context}: cut-off quotient domain differs from the carrier")
    if _partition_reps(phi.quotient_map) != A._orbits:
        raise ValueError(f"{context}: cut-off quotient does not induce the orbit partition")


def average_system(
    lam: HaarSystem, A: Action, beta: FiberSystem, phi: Cutoff
) -> FiberSystem:
    """Average a full system through a Haar system to get a full equivariant one.

    The weight of a carrier point w at the unit u is

        sum over g in the range fiber at u of
            lam-weight of g * phi(inv(g).w) * beta-weight of inv(g).w at s(g).

    After the checks, _average sums plain ints and stays exact: lam over one
    common denominator per range fiber, phi * beta over one per orbit of the
    action, one int product per action-table entry, and one Fraction per
    weight at the end: O(|lam| + |carrier| + |act|).  Fullness and
    equivariance of the result are re-verified before returning; a failure
    there is a bug, not an input error.
    """
    G = A.groupoid
    if lam.groupoid != G:
        raise ValueError("haar system and action disagree on the groupoid")
    validate_groupoid(G).require("invalid groupoid")
    check_haar(G, lam).require("not a Haar system")
    validate_action(A).require("invalid action")
    if beta.base_map != A.moment:
        raise ValueError("base map mismatch: expected the moment map of the action")
    check_system(beta).require("not a full system")
    _require_cutoff_matches(phi, A, "averaging weight")
    return _average(lam, A, beta, phi)


def _average(lam: HaarSystem, A: Action, beta: FiberSystem, phi: Cutoff) -> FiberSystem:
    """average_system on inputs already checked to fit together, as an exact int kernel.

    lam^u(g) = lnum[g] / lden[u], one denominator per range fiber; the column
    c(z) = phi(z) * beta^{moment(z)}(z) = cnum[z] / cden[k], one per orbit k,
    read off phi's quotient map (the callers checked that it induces the
    orbit partition).  The entry (g, z) with g.z = w adds lnum[g] * cnum[z] to
    (r(g), w); z lies in the orbit of w, so all terms of (u, w) share the
    denominator lden[u] * cden[orbit of w].  Points off phi's support add nothing.
    """
    G = A.groupoid
    r = G.range_map
    orbit = phi.quotient_map
    lnum, lden = _over_fibers(
        {g: w for m in lam.system.measures.values() for g, w in m.weights.items()}, r.__getitem__
    )
    column = {z: f * beta.weight(A.moment[z], z) for z, f in phi.weights.weights.items()}
    cnum, cden = _over_fibers(column, orbit.__getitem__)
    acc: dict[tuple[str, str], int] = {}
    for (g, z), w in A.act.items():
        c = cnum.get(z)
        if c:
            key = (r[g], w)
            acc[key] = acc.get(key, 0) + lnum[g] * c
    weights: dict[str, dict[str, Fraction]] = {u: {} for u in G.units}
    for (u, w), n in acc.items():
        weights[u][w] = Fraction(n, lden[u] * cden[orbit[w]])
    nu = fiber_system(A.moment, {u: Measure(ws) for u, ws in weights.items()})
    check_system(nu).require("internal: averaged system not full", RuntimeError)
    check_equivariant(A, nu).require("internal: averaged system not equivariant", RuntimeError)
    return nu


def invariant_measure(A: Action, beta: Measure, phi: Cutoff) -> Measure:
    """A strictly positive invariant measure for a group action.

    Averages beta (full support demanded) through the counting Haar system
    of the one-unit actor.  average_system certifies its result full and
    equivariant, which for a one-unit actor is exactly full support on the
    carrier and invariance, so the measure at the unit is returned as is.
    """
    G = A.groupoid
    if len(G.units) != 1:
        raise ValueError("invariant_measure needs a one-unit (group) actor")
    unit = next(iter(G.units))
    missing = sorted(set(A.carrier) - set(beta.support))
    if missing:
        raise ValueError(f"reference measure must have full support; zero at: {', '.join(missing)}")
    stray = sorted(set(beta.support) - set(A.carrier))
    if stray:
        raise ValueError(f"reference measure supported off the carrier: {', '.join(stray)}")

    nu = average_system(counting_haar(G), A, fiber_system(A.moment, {unit: beta}), phi)
    return nu.measure(unit)


def principal_haar(G: Groupoid, beta: FiberSystem) -> HaarSystem:
    """Haar system of a principal groupoid from a full system over its unit quotient.

    A principal groupoid is a copy of the relation groupoid of its unit
    orbit map q, so a Haar system is a product: the weight of an arrow x in
    the range fiber at u is the beta-weight of s(x) in the class of u.
    """
    validate_groupoid(G).require("invalid groupoid")
    witness = _isotropy_arrow(G)
    if witness is not None:
        raise ValueError(f"not principal: non-unit arrow with equal range and source: {witness}")
    orbit = unit_orbit_map(G)
    if list(beta.base_map) != G.sorted_units():
        raise ValueError("base map must be defined on exactly the units")
    if _partition_reps(beta.base_map) != orbit:
        raise ValueError("base map does not induce the unit orbit partition")
    check_system(beta).require("not a full system")

    q = beta.base_map
    measures = {
        u: Measure({x: beta.weight(q[u], G.source_map[x]) for x in fiber})
        for u, fiber in G.range_fibers().items()
    }
    return make_haar(G, fiber_system(G.range_map, measures), "principal system")


def blowup_haar(
    G: Groupoid, lam: HaarSystem, f: Mapping[str, str], beta: FiberSystem
) -> HaarSystem:
    """Haar system on the blow-up of G along f, from lam and a full system over f.

    The weight of a triple (z, g, w) in the range fiber at z is the
    lam-weight of g times the beta-weight of w over s(g).  The blow-up is a
    pullback of G, and the weights are read off its triple index:
    O(blow_up + triples) after the checks on G, lam and beta.
    """
    validate_groupoid(G).require("invalid groupoid")
    check_haar(G, lam).require("not a Haar system")
    fm = {str(z): str(u) for z, u in f.items()}
    if beta.base_map != fm:
        raise ValueError("base map mismatch: expected the blow-up map")
    check_system(beta).require("not a full system")

    big, triples = _blow_up(G, fm)
    rows = _fibers(triples.items(), lambda item: big.range_map[item[1]])
    measures = {
        u: Measure({a: lam.weight(fm[z], g) * beta.weight(fm[w], w) for (z, g, w), a in row})
        for u, row in rows.items()
    }
    return make_haar(big, fiber_system(big.range_map, measures), "blow-up system")


def imprimitivity_haar(A: Action, nu: FiberSystem) -> HaarSystem:
    """Haar system on the imprimitivity groupoid from a full equivariant system.

    The weight of the class of (y, x) in the range fiber of the class of
    (y, y) is the nu-weight of x at the shared moment.  It does not depend
    on the pair: a valid action has moment(g.y) = r(g), and an equivariant
    nu has nu^{r(g)}(g.x) = nu^{s(g)}(x), so every pair (g.y, g.x) of the
    class weighs the same; it is read off the class's least pair.
    """
    validate_groupoid(A.groupoid).require("invalid groupoid")
    validate_action(A).require("invalid action")
    if not is_free(A):
        raise ValueError("imprimitivity needs a free action")
    if nu.base_map != A.moment:
        raise ValueError("base map mismatch: expected the moment map of the action")
    check_system(nu).require("not a full system")
    check_equivariant(A, nu).require("not equivariant")
    imp, class_rep = A._classes
    return make_haar(imp, _induce(A, nu, imp, class_rep), "imprimitivity system")


def _induce(
    A: Action, nu: FiberSystem, K: Groupoid, rep: Mapping[str, tuple[str, str]]
) -> FiberSystem:
    """The system nu induces on K, the imprimitivity groupoid of A or a copy of it.

    rep[k] = (y, x) is the least pair of the class k stands for; equivariance
    makes every pair of a class weigh the same, so k weighs nu^{moment(y)}(x).
    Nothing is certified here: the caller's make_haar on K does that, once.
    """
    weight = {k: nu.weight(A.moment[y], x) for k, (y, x) in rep.items()}
    measures = {u: Measure({k: weight[k] for k in fiber}) for u, fiber in K.range_fibers().items()}
    return fiber_system(K.range_map, measures)


def default_beta(E: Equivalence) -> FiberSystem:
    """The counting system over the left moment map; the transfer default."""
    return full_fiber_system(E.left.moment)


def default_phi(E: Equivalence) -> Cutoff:
    """Indicator of the canonical orbit representatives; the transfer default."""
    _, q = orbit_space(E.left)
    return representative_cutoff(q)


def transfer_haar(
    G: Groupoid,
    lam: HaarSystem,
    E: Equivalence,
    beta: FiberSystem | None = None,
    phi: Cutoff | None = None,
) -> HaarSystem:
    """Carry a Haar system across an equivalence onto the linked groupoid.

    Stages: validate the two groupoids and the equivalence; certify lam;
    build (or take) the full system beta over the left moment and the
    cut-off phi over the left orbit map; average into nu, which _average
    certifies full and equivariant; build the imprimitivity groupoid and
    its identification with the right groupoid H, which _class_translation
    checks to be an isomorphism, so a system is Haar on one exactly when
    its copy is Haar on the other; induce nu straight onto H and certify it
    there, once.  Every failure names its stage.
    """
    stage = "groupoid"
    try:
        validate_groupoid(G).require("invalid left groupoid")
        validate_groupoid(E.right.groupoid).require("invalid right groupoid")
        stage = "equivalence"
        if E.left.groupoid != G:
            raise ValueError("left groupoid of the equivalence is not the given one")
        validate_equivalence(E).require("invalid equivalence")
        stage = "haar"
        check_haar(G, lam).require("not a Haar system")
        stage = "beta"
        beta = default_beta(E) if beta is None else beta
        if beta.base_map != E.left.moment:
            raise ValueError("base map mismatch: expected the left moment map")
        check_system(beta).require("not a full system")
        stage = "phi"
        phi = representative_cutoff(E.left._orbits) if phi is None else phi
        _require_cutoff_matches(phi, E.left, "cut-off")
        stage = "average"
        nu = _average(lam, E.left, beta, phi)
        stage = "imprimitivity"
        iso = _class_translation(E)
        stage = "induction"
        H = E.right.groupoid
        induced = _induce(E.left, nu, H, {iso[c]: pair for c, pair in E.left._classes[1].items()})
        return make_haar(H, induced, "transferred system")
    except ValueError as exc:
        raise PipelineError(stage, str(exc)) from exc


def transitive_haar(G: Groupoid, v: str, mu: HaarSystem) -> HaarSystem:
    """Haar system on a transitive groupoid from one on a stability group.

    The source fiber at v links G to its stability group at v: G translates
    the fiber from the left and the group from the right, by composition.
    Swapping the two sides of that equivalence and transferring mu through
    it lands a Haar system back on G.
    """
    validate_groupoid(G).require("invalid groupoid")
    if v not in G.units:
        raise ValueError(f"not a unit: {v}")
    orbit = unit_orbit_map(G)
    strays = sorted(u for u in G.units if orbit[u] != orbit[v])
    if strays:
        raise ValueError(f"not transitive: unit {strays[0]} is not reachable from {v}")
    group, carrier = stability_group(G, v)
    if mu.groupoid != group:
        raise ValueError("haar system must live on the stability group at v")

    moment_left = {x: G.range_map[x] for x in carrier}
    table_left = {key: G.compose_map[key] for key in _action_domain(G, carrier, moment_left)}
    translation = left_action(G, carrier, moment_left, table_left)

    unit = group.sorted_units()[0]
    moment_right = {x: unit for x in carrier}
    table_right = {
        (x, h): G.compose_map[(x, h)] for x in carrier for h in group.elements
    }
    stabilizing = right_action(group, carrier, moment_right, table_right)

    E = opposite_equivalence(Equivalence(translation, stabilizing))
    return transfer_haar(group, mu, E)
