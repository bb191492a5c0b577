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
    _class_translation,
    _imprimitivity,
    _orbit_reps,
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
    blow_up,
    blowup_arrow,
    is_principal,
    stability_group,
    unit_orbit_map,
    validate_groupoid,
)
from .systems import (
    Cutoff,
    FiberSystem,
    HaarSystem,
    Measure,
    Rational,
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

    Pointwise over every acting element g and every carrier point z in the
    moment fiber of s(g): the weight of g.z at r(g) must equal the weight of
    z at s(g).
    """
    if system.base_map != A.moment:
        raise ValueError("base map mismatch: expected the moment map of the action")
    bad: list[Violation] = []
    fibers = A.moment_fibers()
    G = A.groupoid
    for g in G.sorted_elements():
        top = system.measure(G.range_map[g])
        bottom = system.measure(G.source_map[g])
        for z in fibers.get(G.source_map[g], ()):
            lhs = top.weight(A.act[(g, z)])
            rhs = bottom.weight(z)
            if lhs != rhs:
                bad.append(
                    Violation("equivariance", (f"g={g}", f"z={z}", f"lhs={lhs}", f"rhs={rhs}"))
                )
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
    out: dict[tuple[str, str], Fraction] = {}
    for g in gs:
        for u in beta.codomain():
            m = beta.measure(u)
            out[(g, u)] = sum(
                (table.get((g, z), ZERO) * m.weight(z) for z in beta.fiber(u)), ZERO
            )
    return out


def psi_phi(
    f: Mapping[str, Rational], phi: Cutoff, beta: FiberSystem, A: Action
) -> dict[str, Fraction]:
    """The cut-off-weighted average of f along translated fibers.

    For each arrow g the value is the sum over the moment fiber at s(g) of
    f(g.z) * phi(z) * beta-weight of z.
    """
    if beta.base_map != A.moment:
        raise ValueError("base map mismatch: expected the moment map of the action")
    validate_action(A).require("invalid action")
    _require_cutoff_matches(phi, A, "averaging weight")
    values = {str(z): as_fraction(v, f"f({z})") for z, v in f.items()}
    fibers = A.moment_fibers()
    G = A.groupoid
    out: dict[str, Fraction] = {}
    for g in G.sorted_elements():
        sg = G.source_map[g]
        m = beta.measure(sg)
        out[g] = sum(
            (
                values.get(A.act[(g, z)], ZERO) * phi.weight(z) * m.weight(z)
                for z in fibers.get(sg, ())
            ),
            ZERO,
        )
    return out


def _require_cutoff_matches(phi: Cutoff, A: Action, context: str) -> None:
    """Check phi's quotient against the orbits of A, a valid action."""
    if set(phi.quotient_map) != set(A.carrier):
        raise ValueError(f"{context}: cut-off quotient domain differs from the carrier")
    if _partition_reps(phi.quotient_map) != _partition_reps(_orbit_reps(A)):
        raise ValueError(f"{context}: cut-off quotient does not induce the orbit partition")


def average_system(
    lam: HaarSystem, A: Action, beta: FiberSystem, phi: Cutoff
) -> FiberSystem:
    """Average a full system through a Haar system to get a full equivariant one.

    The weight of a carrier point w at the unit u is

        sum over g in the range fiber at u of
            lam-weight of g * phi(inv(g).w) * beta-weight of inv(g).w at s(g).

    Fullness and equivariance of the result are re-verified before returning;
    a failure there is a bug, not an input error.
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
    """average_system on inputs already checked to fit together."""
    G = A.groupoid
    fibers = A.moment_fibers()
    rfib = G.range_fibers()
    inv = G.inverse_map
    measures: dict[str, Measure] = {}
    for u in G.sorted_units():
        weights: dict[str, Fraction] = {}
        for w in fibers.get(u, ()):
            total = ZERO
            for g in rfib.get(u, ()):
                pulled = A.act[(inv[g], w)]
                total += (
                    lam.weight(u, g)
                    * phi.weight(pulled)
                    * beta.weight(G.source_map[g], pulled)
                )
            weights[w] = total
        measures[u] = Measure(weights)
    nu = fiber_system(A.moment, measures)
    check_system(nu).require("internal: averaged system not full", RuntimeError)
    check_equivariant(A, nu).require("internal: averaged system not equivariant", RuntimeError)
    return nu


def invariant_measure(A: Action, beta: Measure, phi: Cutoff) -> Measure:
    """A strictly positive invariant measure for a group action.

    Averages beta (full support demanded) through the counting Haar system
    of the one-unit actor; invariance and full support of the result are
    verified pointwise before returning.
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

    lam = counting_haar(G)
    beta_sys = fiber_system(A.moment, {unit: beta})
    nu = average_system(lam, A, beta_sys, phi)
    result = nu.measure(unit)
    for (g, z), w in sorted(A.act.items()):
        if result.weight(w) != result.weight(z):
            raise RuntimeError(f"internal: averaged measure not invariant at g={g} z={z}")
    if set(result.support) != set(A.carrier):
        raise RuntimeError("internal: averaged measure lost full support")
    return result


def principal_haar(G: Groupoid, beta: FiberSystem) -> HaarSystem:
    """Haar system of a principal groupoid from a full system over its unit quotient.

    A principal groupoid is a copy of the relation groupoid of its unit
    orbit map q, so a Haar system is a product: the weight of an arrow x in
    the range fiber at u is the beta-weight of s(x) in the class of u.
    """
    validate_groupoid(G).require("invalid groupoid")
    if not is_principal(G):
        witness = sorted(
            x
            for x in G.elements
            if x not in G.units and G.range_map.get(x) == G.source_map.get(x)
        )[0]
        raise ValueError(f"not principal: non-unit arrow with equal range and source: {witness}")
    orbit = unit_orbit_map(G)
    if sorted(beta.base_map) != G.sorted_units():
        raise ValueError("base map must be defined on exactly the units")
    if _partition_reps(beta.base_map) != _partition_reps(orbit):
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
    lam-weight of g times the beta-weight of w over s(g).
    """
    validate_groupoid(G).require("invalid groupoid")
    check_haar(G, lam).require("not a Haar system")
    fm = {str(z): str(u) for z, u in f.items()}
    if beta.base_map != fm:
        raise ValueError("base map mismatch: expected the blow-up map")
    check_system(beta).require("not a full system")

    big = blow_up(G, fm)
    zs = sorted(fm)
    measures: dict[str, Measure] = {}
    for z in zs:
        weights: dict[str, Fraction] = {}
        for g in G.range_fiber(fm[z]):
            sg = G.source_map[g]
            for w in zs:
                if fm[w] == sg:
                    weights[blowup_arrow(z, g, w)] = lam.weight(fm[z], g) * beta.weight(sg, w)
        measures[blowup_arrow(z, fm[z], z)] = Measure(weights)
    return make_haar(big, fiber_system(big.range_map, measures), "blow-up system")


def imprimitivity_haar(A: Action, nu: FiberSystem) -> HaarSystem:
    """Haar system on the imprimitivity groupoid from a full equivariant system.

    The weight of the class of (y, x) in the range fiber of the class of
    (y, y) is the nu-weight of x at the shared moment.  Well-definedness is
    not taken on faith: the candidate weight is recomputed from every
    representative pair and any disagreement is an error.
    """
    validate_groupoid(A.groupoid).require("invalid groupoid")
    validate_action(A).require("invalid action")
    if not is_free(A):
        raise ValueError("imprimitivity needs a free action")
    if nu.base_map != A.moment:
        raise ValueError("base map mismatch: expected the moment map of the action")
    check_system(nu).require("not a full system")
    check_equivariant(A, nu).require("not equivariant")
    return _induce(A, nu, *_imprimitivity(A))


def _induce(
    A: Action, nu: FiberSystem, imp: Groupoid, labeling: dict[tuple[str, str], str]
) -> HaarSystem:
    """imprimitivity_haar on checked inputs, given the imprimitivity groupoid of A."""
    candidate: dict[str, tuple[Fraction, tuple[str, str]]] = {}
    for (y, x), c in sorted(labeling.items()):
        value = nu.weight(A.moment[y], x)
        if c in candidate:
            seen, first = candidate[c]
            if seen != value:
                raise ValueError(
                    f"representative dependence: class {c} weighs {seen} from {first} "
                    f"but {value} from {(y, x)}"
                )
        else:
            candidate[c] = (value, (y, x))

    grouped: dict[str, dict[str, Fraction]] = {u: {} for u in imp.sorted_units()}
    for c in imp.sorted_elements():
        grouped[imp.range_map[c]][c] = candidate[c][0]
    measures = {u: Measure(w) for u, w in grouped.items()}
    return make_haar(imp, fiber_system(imp.range_map, measures), "imprimitivity system")


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
    cut-off phi over the left orbit map; average into a full equivariant
    system; induce a Haar system on the imprimitivity groupoid of the left
    action; read it off along the canonical identification with the right
    groupoid; certify the result.  Every failure names its stage.
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
        if lam.groupoid != G:
            raise ValueError("haar system bound to a different groupoid")
        check_haar(G, lam).require("not a Haar system")
        stage = "beta"
        beta = default_beta(E) if beta is None else beta
        if beta.base_map != E.left.moment:
            raise ValueError("base map mismatch: expected the left moment map")
        check_system(beta).require("not a full system")
        stage = "phi"
        phi = representative_cutoff(_orbit_reps(E.left)) if phi is None else phi
        _require_cutoff_matches(phi, E.left, "cut-off")
        stage = "average"
        nu = _average(lam, E.left, beta, phi)
        stage = "imprimitivity"
        imp, labeling = _imprimitivity(E.left)
        induced = _induce(E.left, nu, imp, labeling)
        iso = _class_translation(E, imp, labeling)
        stage = "induction"
        H = E.right.groupoid
        measures = {
            iso[u]: Measure({iso[c]: w for c, w in induced.measure(u).items()})
            for u in imp.sorted_units()
        }
        return make_haar(H, fiber_system(H.range_map, measures), "transferred system")
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
    table_left = {
        (g, x): G.compose_map[(g, x)]
        for x in carrier
        for g in G.elements
        if G.source_map[g] == G.range_map[x]
    }
    translation = left_action(G, carrier, moment_left, table_left)

    unit = group.sorted_units()[0]
    moment_right = {x: unit for x in carrier}
    table_right = {
        (x, h): G.compose_map[(x, h)] for x in carrier for h in group.elements
    }
    stabilizing = right_action(group, carrier, moment_right, table_right)

    E = opposite_equivalence(Equivalence(translation, stabilizing))
    return transfer_haar(group, mu, E)
