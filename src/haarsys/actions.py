"""Groupoid actions on finite carriers, orbit spaces, equivalences, imprimitivity.

Every action is stored in left form: a table (g, z) -> g.z defined on exactly
the pairs with source(g) == moment(z).  A right action keeps its meaning
through the side tag; its stored table is the translated left action
g.z := z.inv(g), so one code path serves both orientations and flipping the
tag is an involution.  Action stores its moment and table sorted by key
(groupoids._sort_tables), and the validators walk them in that order.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .groupoids import (
    Groupoid,
    ValidationReport,
    Violation,
    _edge_components,
    _fibers,
    _pullback,
    _sort_tables,
    validate_groupoid,
)

__all__ = [
    "Action",
    "Equivalence",
    "imprimitivity_groupoid",
    "imprimitivity_iso",
    "is_free",
    "left_action",
    "left_translation_action",
    "opposite",
    "opposite_equivalence",
    "orbit_space",
    "right_action",
    "right_translation_action",
    "unit_translation_action",
    "validate_action",
    "validate_equivalence",
]

PROPERNESS_NOTE = "proper: automatic (finite)"


@dataclass(frozen=True)
class Action:
    """A groupoid acting on a carrier, stored in left form.

    ``act`` maps (g, z) to the translated point; its domain must be exactly
    the pairs with source(g) == moment(z).  ``side`` records whether the
    action is meant as a left or a right one.  ``moment`` and ``act`` are
    stored sorted by key.
    """

    groupoid: Groupoid
    carrier: frozenset[str]
    moment: dict[str, str]
    act: dict[tuple[str, str], str]
    side: str = "left"

    def __post_init__(self) -> None:
        _sort_tables(self, "moment", "act")

    def sorted_carrier(self) -> list[str]:
        return sorted(self.carrier)


def _action_domain(G: Groupoid, carrier, moment: Mapping[str, str]) -> set[tuple[str, str]]:
    """The pairs (g, z) with source(g) == moment(z): where an action table must be defined."""
    sfib = _fibers(G.elements, G.source_map.get)
    return {(g, z) for z in carrier for g in sfib.get(moment.get(z), ())}


def left_action(
    groupoid: Groupoid,
    carrier,
    moment: Mapping[str, str],
    table: Mapping[tuple[str, str], str],
) -> Action:
    """Build a left action from a table (g, z) -> g.z.

    The Action stores the table sorted.  One walk over it checks its moment,
    domain and carrier laws, the walk validate_action starts with, and raises
    the first violation it reports: O(|Z| + |G| + |act| log |act|).
    """
    act = {(str(g), str(z)): str(w) for (g, z), w in table.items()}
    moment = {str(z): str(u) for z, u in moment.items()}
    A = Action(groupoid, frozenset(map(str, carrier)), moment, act)
    _table_laws(A).require("invalid action")
    return A


def right_action(
    groupoid: Groupoid,
    carrier,
    moment: Mapping[str, str],
    table: Mapping[tuple[str, str], str],
) -> Action:
    """Build a right action from a table (z, g) -> z.g.

    The table is stored internally as the left translate g.z := z.inv(g);
    the side tag keeps the right-handed meaning.  An acting element with no
    inverse is refused first; then the stored table gets left_action's walk:
    O(|Z| + |G| + |act| log |act|).
    """
    inv = groupoid.inverse_map
    act = {}
    for (z, g), w in table.items():
        z, g, w = str(z), str(g), str(w)
        if g not in inv:
            raise ValueError(f"unknown acting element: {g}")
        act[(inv[g], z)] = w
    moment = {str(z): str(u) for z, u in moment.items()}
    A = Action(groupoid, frozenset(map(str, carrier)), moment, act, "right")
    _table_laws(A).require("invalid action")
    return A


def opposite(A: Action) -> Action:
    """Swap the handedness of an action; applying twice is the identity.

    The stored left-form table of a right action is already the opposite
    left action, so only the tag changes.
    """
    side = "right" if A.side == "left" else "left"
    return Action(A.groupoid, A.carrier, A.moment, A.act, side)


def is_free(A: Action) -> bool:
    """True when only the moment unit fixes each point."""
    return _unfree_pair(A) is None


def _unfree_pair(A: Action) -> tuple[str, str] | None:
    """The least (g, z) where g fixes z but is not the moment unit of z, if there is one."""
    return min(((g, z) for (g, z), w in A.act.items() if w == z and g != A.moment.get(z)), default=None)


def _table_laws(A: Action) -> ValidationReport:
    """The moment, domain and carrier laws of an action table, in report order.

    Every carrier point has a unit as its moment and nothing else does; the
    table is defined on exactly the pairs with source(g) == moment(z); every
    value lies in the carrier.  The stored tables are walked in their sorted
    order; only the domain witnesses are sorted: O(|Z| + |G| + |act|).
    """
    bad: list[Violation] = []
    G = A.groupoid
    car = A.carrier
    for z in A.sorted_carrier():
        if z not in A.moment:
            bad.append(Violation("moment undefined", (f"z={z}",)))
        elif A.moment[z] not in G.units:
            bad.append(Violation("moment not a unit", (f"z={z}", f"value={A.moment[z]}")))
    for z in A.moment:
        if z not in car:
            bad.append(Violation("moment key off carrier", (f"z={z}",)))

    expected = _action_domain(G, car, A.moment)
    for key in sorted(set(A.act) - expected):
        bad.append(Violation("domain", (f"g={key[0]}", f"z={key[1]}", "off the composable pairs")))
    for key in sorted(expected - set(A.act)):
        bad.append(Violation("domain", (f"g={key[0]}", f"z={key[1]}", "missing")))
    for key, value in A.act.items():
        if value not in car:
            bad.append(Violation("carrier", (f"g={key[0]}", f"z={key[1]}", f"value={value}")))
    return ValidationReport(tuple(bad))


def validate_action(A: Action) -> ValidationReport:
    """Check the action laws; freeness is reported in the notes, not enforced.

    First comes the walk over the action table that the constructors raise
    on (moment, domain, carrier); the moment of each translate is a second
    walk over the table, and compatibility walks fibers, not G x G x Z:
    O(|Z| + |G| + |act| + composable pairs x moment-fiber size).
    """
    bad = list(_table_laws(A).violations)
    G = A.groupoid
    car = A.carrier
    mom = A.moment.get
    act = A.act.get
    for z in A.sorted_carrier():
        u = mom(z)
        if u is None:
            continue
        w = act((u, z))
        if w is not None and w != z:
            bad.append(Violation("unit acts trivially", (f"z={z}", f"u.z={w}")))
    for (g, z), w in A.act.items():
        if w in car and mom(w) != G.range_map.get(g):
            bad.append(Violation("moment of translate", (f"g={g}", f"z={z}", f"moment={mom(w)}")))

    # compatibility: (gh).z == g.(h.z) whenever source(g) == range(h)
    rfib = _fibers(G.sorted_elements(), G.range_map.get)
    mfib = _fibers(A.sorted_carrier(), mom)
    for g in G.sorted_elements():
        for h in rfib.get(G.source_map.get(g), ()):
            gh = G.compose_map.get((g, h))
            if gh is None:
                continue
            for z in mfib.get(G.source_map.get(h), ()):
                lhs = act((gh, z))
                hz = act((h, z))
                rhs = act((g, hz)) if hz is not None else None
                if lhs is not None and rhs is not None and lhs != rhs:
                    bad.append(Violation("compatibility", (f"g={g}", f"h={h}", f"z={z}")))

    free = "true" if _unfree_pair(A) is None else "false"
    return ValidationReport(tuple(bad), (f"free: {free}", PROPERNESS_NOTE))


def _orbit_reps(A: Action) -> dict[str, str]:
    """Least-token representative of each orbit of the carrier."""
    return _edge_components(A.sorted_carrier(), ((z, w) for (_, z), w in A.act.items()))


def orbit_space(A: Action) -> tuple[tuple[str, ...], dict[str, str]]:
    """Quotient of the carrier by the action: (representatives, quotient map)."""
    validate_action(A).require("invalid action")
    rep = _orbit_reps(A)
    return tuple(sorted(set(rep.values()))), rep


def left_translation_action(G: Groupoid) -> Action:
    """G acting on its own arrows by left multiplication; moment is the range."""
    table = {(g, z): w for (g, z), w in G.compose_map.items()}
    return left_action(G, G.elements, dict(G.range_map), table)


def right_translation_action(G: Groupoid) -> Action:
    """G acting on its own arrows by right multiplication; moment is the source."""
    table = {(z, g): w for (z, g), w in G.compose_map.items()}
    return right_action(G, G.elements, dict(G.source_map), table)


def unit_translation_action(G: Groupoid) -> Action:
    """The natural action of G on its unit space: x moves s(x) to r(x)."""
    table = {}
    for x in G.sorted_elements():
        for name, m in (("source", G.source_map), ("range", G.range_map)):
            if x not in m:
                raise ValueError(f"unit_translation_action: {name} undefined: x={x}")
        table[(x, G.source_map[x])] = G.range_map[x]
    moment = {u: u for u in G.units}
    return left_action(G, G.units, moment, table)


@dataclass(frozen=True)
class Equivalence:
    """A carrier with a left action and a commuting right action.

    Construction only checks the shape (side tags and shared carrier); the
    linking axioms live in validate_equivalence.
    """

    left: Action
    right: Action

    def __post_init__(self) -> None:
        if self.left.side != "left":
            raise ValueError("left component must be a left action")
        if self.right.side != "right":
            raise ValueError("right component must be a right action")
        if self.left.carrier != self.right.carrier:
            raise ValueError("both actions must share one carrier")

    @property
    def carrier(self) -> frozenset[str]:
        return self.left.carrier


def opposite_equivalence(E: Equivalence) -> Equivalence:
    """Swap the two sides of an equivalence; applying twice is the identity."""
    return Equivalence(left=opposite(E.right), right=opposite(E.left))


def validate_equivalence(E: Equivalence) -> ValidationReport:
    """Check the linking axioms of an equivalence bimodule.

    Both actions must be valid and free, the moments invariant under the
    opposite action, the two actions commuting, and each moment map must
    induce a bijection from the opposite orbit space onto the unit space,
    which at finite scale is the same as fiberwise transitivity.
    """
    bad: list[Violation] = []
    for A in (E.left, E.right):
        report = validate_action(A)
        for v in report.violations:
            bad.append(Violation(f"{A.side} action {v.law}", v.witness))
        if "free: false" in report.notes:
            g, z = _unfree_pair(A)
            bad.append(Violation(f"{A.side} action not free", (f"g={g}", f"z={z}")))
    if bad:
        return ValidationReport(tuple(bad), (PROPERNESS_NOTE,))

    rho = E.left.moment
    sigma = E.right.moment

    for (g, z), w in E.left.act.items():
        if sigma[w] != sigma[z]:
            bad.append(Violation("right moment invariance", (f"g={g}", f"z={z}")))
    # the right table is stored as (inv(h), z) -> z.h, so the witness inverts the stored key
    hinv = E.right.groupoid.inverse_map.get
    for (k, z), w in E.right.act.items():
        if rho[w] != rho[z]:
            bad.append(Violation("left moment invariance", (f"h={hinv(k, k)}", f"z={z}")))
    if bad:
        return ValidationReport(tuple(bad), (PROPERNESS_NOTE,))

    # H is not validated here: a side left undefined by a bad inverse does not commute
    hr = E.right.groupoid.range_fibers()
    left, right = E.left.act.get, E.right.act.get
    for (g, z), gz in E.left.act.items():
        for h in hr.get(sigma[z], ()):
            lhs = right((hinv(h), gz))
            rhs = left((g, right((hinv(h), z))))
            if lhs is None or lhs != rhs:
                bad.append(Violation("commuting", (f"g={g}", f"z={z}", f"h={h}")))

    # each moment map reaches every unit, and each of its fibers is one orbit of the other action
    for A, B in ((E.left, E.right), (E.right, E.left)):
        orbits = _orbit_reps(B)
        seen: dict[str, str] = {}
        for z in sorted(E.carrier):
            rep, value = orbits[z], A.moment[z]
            if value in seen and seen[value] != rep:
                bad.append(
                    Violation(
                        f"{B.side} action not transitive on {A.side}-moment fiber",
                        (f"unit={value}", f"orbit={seen[value]}", f"orbit={rep}"),
                    )
                )
                seen[value] = min(seen[value], rep)
            else:
                seen[value] = rep
        for u in sorted(set(A.groupoid.units) - set(seen)):
            bad.append(Violation(f"{A.side} moment not surjective", (f"unit={u}",)))

    return ValidationReport(tuple(bad), (PROPERNESS_NOTE,))


def _pair_token(x: str, y: str) -> str:
    return f"imp:{x}|{y}"


def imprimitivity_groupoid(A: Action) -> tuple[Groupoid, dict[tuple[str, str], str]]:
    """Quotient of the equal-moment pair space by the diagonal action.

    Elements are orbits of pairs (x, y) with moment(x) == moment(y); the
    class of (x, y) runs from the class of (x, x) to the class of (y, y),
    composes by splicing, and inverts by swapping the pair.  Returns the
    groupoid together with the map sending each pair to its class token;
    tokens name the least pair in each orbit.

    Freeness makes this the blow-up (groupoids._pullback) of G along the
    moment map on the orbit representatives: each class is [x0, g.y0] for one
    triple (x0, g, y0), and (x0, g.y0) is its least pair.  Colliding tokens
    raise ValueError.  O(|act| + composable pairs of classes + pairs log pairs).
    """
    validate_groupoid(A.groupoid).require("invalid groupoid")
    validate_action(A).require("invalid action")
    if not is_free(A):
        raise ValueError("imprimitivity groupoid needs a free action")
    imp, class_rep = _imprimitivity(A, _orbit_reps(A))
    return imp, _labeling(A, class_rep)


def _imprimitivity(A: Action, orbit: dict[str, str]) -> tuple[Groupoid, dict[str, tuple[str, str]]]:
    """imprimitivity_groupoid of a valid free action, given its orbit map, and class -> least pair.

    The pullback of G along the moment map on the representatives; the triple
    (x0, g, y0) is the class whose least pair is (x0, g.y0).
    """
    act = A.act
    imp, tok = _pullback(
        A.groupoid,
        {x0: A.moment[x0] for x0 in set(orbit.values())},
        lambda x, g, y: _pair_token(x, act[(g, y)]),
        "tokens collide under imprimitivity naming",
    )
    return imp, {c: (x, act[(g, y)]) for (x, g, y), c in tok.items()}


def _labeling(A: Action, class_rep: dict[str, tuple[str, str]]) -> dict[tuple[str, str], str]:
    """Each equal-moment pair, in order, with its class: [x0, z] holds (g.x0, g.z) for s(g) = moment(x0)."""
    act, sfib = A.act, _fibers(A.groupoid.sorted_elements(), A.groupoid.source_map.get)
    pairs = (((act[(g, x)], act[(g, z)]), c) for c, (x, z) in class_rep.items() for g in sfib[A.moment[x]])
    return dict(sorted(pairs))


def imprimitivity_iso(
    E: Equivalence,
) -> tuple[Groupoid, dict[tuple[str, str], str], dict[str, str]]:
    """Imprimitivity groupoid of the left action with its canonical match to the right groupoid.

    For a class [x, y] the image is the unique right-acting element moving x
    to y; freeness and fiberwise transitivity make it exist uniquely.  The
    returned map is checked to be a bijection preserving all structure.
    """
    validate_groupoid(E.left.groupoid).require("invalid left groupoid")
    validate_groupoid(E.right.groupoid).require("invalid right groupoid")
    report = validate_equivalence(E)
    if not report.passed:
        # an invalid left action keeps the message imprimitivity_groupoid gives it
        validate_action(E.left).require("invalid action")
        report.require("invalid equivalence")
    imp, class_rep = _imprimitivity(E.left, _orbit_reps(E.left))
    return imp, _labeling(E.left, class_rep), _class_translation(E, imp, class_rep)


def _translators(A: Action) -> dict[tuple[str, str], str]:
    """The map (z, g.z) -> g of a free action, where freeness makes g unique: O(|act|)."""
    return {(z, w): g for (g, z), w in A.act.items()}


def _class_translation(
    E: Equivalence, imp: Groupoid, class_rep: dict[str, tuple[str, str]]
) -> dict[str, str]:
    """The iso of imprimitivity_iso, for a checked equivalence and its imprimitivity groupoid.

    The class with least pair (x, y) goes to the unique h with x.h == y: the
    right table is stored as (inv(h), z) -> z.h, so h inverts the right
    action's translator of (x, y).  O(|act| + composable pairs of classes).
    """
    H = E.right.groupoid
    translator = _translators(E.right)
    iso = {c: H.inverse_map[translator[class_rep[c]]] for c in imp.sorted_elements()}

    if sorted(iso.values()) != H.sorted_elements():
        raise RuntimeError("internal: class translation is not a bijection")
    for c in imp.sorted_elements():
        if (c in imp.units) != (iso[c] in H.units):
            raise RuntimeError("internal: class translation does not preserve units")
        if iso[imp.inverse_map[c]] != H.inverse_map[iso[c]]:
            raise RuntimeError("internal: class translation does not preserve inverses")
    for (c1, c2), c3 in imp.compose_map.items():
        if H.compose_map.get((iso[c1], iso[c2])) != iso[c3]:
            raise RuntimeError("internal: class translation does not preserve composition")
    return iso
