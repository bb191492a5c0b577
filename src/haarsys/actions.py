"""Groupoid actions on finite carriers, orbit spaces, equivalences, imprimitivity.

Every action is stored in left form: a table (g, z) -> g.z defined on exactly
the pairs with source(g) == moment(z).  A right action keeps its meaning
through the side tag; its stored table is the translated left action
g.z := z.inv(g), so one code path serves both orientations and flipping the
tag is an involution.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .groupoids import Groupoid, ValidationReport, Violation, _least_components, make_groupoid

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
    action is meant as a left or a right one.
    """

    groupoid: Groupoid
    carrier: frozenset[str]
    moment: dict[str, str]
    act: dict[tuple[str, str], str]
    side: str = "left"

    def sorted_carrier(self) -> list[str]:
        return sorted(self.carrier)

    def apply(self, g: str, z: str) -> str:
        try:
            return self.act[(g, z)]
        except KeyError:
            raise ValueError(f"action undefined: g={g} z={z}") from None

    def apply_right(self, z: str, g: str) -> str:
        """The right-sided reading z.g of the stored table."""
        return self.apply(self.groupoid.inv(g), z)

    def moment_fibers(self) -> dict[str, list[str]]:
        fib: dict[str, list[str]] = {}
        for z in self.sorted_carrier():
            fib.setdefault(self.moment.get(z, ""), []).append(z)
        return fib


def _canon_action(groupoid: Groupoid, carrier, moment, act, side: str) -> Action:
    return Action(
        groupoid=groupoid,
        carrier=frozenset(str(z) for z in carrier),
        moment=dict(sorted((str(z), str(u)) for z, u in moment.items())),
        act=dict(sorted(act.items())),
        side=side,
    )


def _check_domain(groupoid: Groupoid, carrier: set[str], moment: dict[str, str], act) -> None:
    if set(moment) != carrier:
        extra = sorted(set(moment) ^ carrier)
        raise ValueError(f"moment map must be defined on exactly the carrier: {', '.join(extra)}")
    for z, u in sorted(moment.items()):
        if u not in groupoid.units:
            raise ValueError(f"moment value must be a unit: {z} -> {u}")
    expected = {
        (g, z)
        for g in groupoid.elements
        for z in carrier
        if groupoid.source_map[g] == moment[z]
    }
    got = set(act)
    for key in sorted(got - expected):
        raise ValueError(f"action defined off its domain: {key}")
    for key in sorted(expected - got):
        raise ValueError(f"action missing on its domain: {key}")
    for key, value in sorted(act.items()):
        if value not in carrier:
            raise ValueError(f"action leaves the carrier: {key} -> {value}")


def left_action(
    groupoid: Groupoid,
    carrier,
    moment: Mapping[str, str],
    table: Mapping[tuple[str, str], str],
) -> Action:
    """Build a left action from a table (g, z) -> g.z."""
    car = {str(z) for z in carrier}
    mom = {str(z): str(u) for z, u in moment.items()}
    act = {(str(g), str(z)): str(w) for (g, z), w in table.items()}
    _check_domain(groupoid, car, mom, act)
    return _canon_action(groupoid, car, mom, act, "left")


def right_action(
    groupoid: Groupoid,
    carrier,
    moment: Mapping[str, str],
    table: Mapping[tuple[str, str], str],
) -> Action:
    """Build a right action from a table (z, g) -> z.g.

    The table is stored internally as the left translate g.z := z.inv(g);
    the side tag keeps the right-handed meaning.
    """
    car = {str(z) for z in carrier}
    mom = {str(z): str(u) for z, u in moment.items()}
    inv = groupoid.inverse_map
    act = {}
    for (z, g), w in table.items():
        z, g, w = str(z), str(g), str(w)
        if g not in inv:
            raise ValueError(f"unknown acting element: {g}")
        act[(inv[g], z)] = w
    _check_domain(groupoid, car, mom, act)
    return _canon_action(groupoid, car, mom, act, "right")


def opposite(A: Action) -> Action:
    """Swap the handedness of an action; applying twice is the identity.

    The stored left-form table of a right action is already the opposite
    left action, so only the tag changes.
    """
    side = "right" if A.side == "left" else "left"
    return Action(A.groupoid, A.carrier, A.moment, A.act, side)


def is_free(A: Action) -> bool:
    """True when only the moment unit fixes each point."""
    return all(
        g == A.moment.get(z)
        for (g, z), w in A.act.items()
        if w == z
    )


def validate_action(A: Action) -> ValidationReport:
    """Check the action laws; freeness is reported in the notes, not enforced."""
    bad: list[Violation] = []
    G = A.groupoid
    car = A.carrier

    for z in A.sorted_carrier():
        if z not in A.moment:
            bad.append(Violation("moment undefined", (f"z={z}",)))
        elif A.moment[z] not in G.units:
            bad.append(Violation("moment not a unit", (f"z={z}", f"value={A.moment[z]}")))
    for z in sorted(A.moment):
        if z not in car:
            bad.append(Violation("moment key off carrier", (f"z={z}",)))

    mom = A.moment.get
    expected = {
        (g, z)
        for g in G.elements
        for z in car
        if G.source_map.get(g) == mom(z)
    }
    for key in sorted(set(A.act) - expected):
        bad.append(Violation("domain", (f"g={key[0]}", f"z={key[1]}", "off the composable pairs")))
    for key in sorted(expected - set(A.act)):
        bad.append(Violation("domain", (f"g={key[0]}", f"z={key[1]}", "missing")))
    for key, value in sorted(A.act.items()):
        if value not in car:
            bad.append(Violation("carrier", (f"g={key[0]}", f"z={key[1]}", f"value={value}")))

    act = A.act.get
    for z in A.sorted_carrier():
        u = mom(z)
        if u is None:
            continue
        w = act((u, z))
        if w is not None and w != z:
            bad.append(Violation("unit acts trivially", (f"z={z}", f"u.z={w}")))
    for (g, z), w in sorted(A.act.items()):
        if w in car and mom(w) != G.range_map.get(g):
            bad.append(Violation("moment of translate", (f"g={g}", f"z={z}", f"moment={mom(w)}")))

    # compatibility: (gh).z == g.(h.z) whenever source(g) == range(h)
    for g in G.sorted_elements():
        for h in G.sorted_elements():
            if G.source_map.get(g) != G.range_map.get(h):
                continue
            gh = G.compose_map.get((g, h))
            if gh is None:
                continue
            for z in A.sorted_carrier():
                if mom(z) != G.source_map.get(h):
                    continue
                lhs = act((gh, z))
                hz = act((h, z))
                rhs = act((g, hz)) if hz is not None else None
                if lhs is not None and rhs is not None and lhs != rhs:
                    bad.append(Violation("compatibility", (f"g={g}", f"h={h}", f"z={z}")))

    free = "true" if is_free(A) else "false"
    return ValidationReport(tuple(bad), (f"free: {free}", PROPERNESS_NOTE))


def _orbit_reps(A: Action) -> dict[str, str]:
    """Least-token representative of each orbit of the carrier."""
    adj: dict[str, set[str]] = {z: set() for z in A.carrier}
    for (_, z), w in A.act.items():
        if z in adj and w in adj:
            adj[z].add(w)
            adj[w].add(z)
    return _least_components(A.sorted_carrier(), adj.__getitem__)


def orbit_space(A: Action) -> tuple[tuple[str, ...], dict[str, str]]:
    """Quotient of the carrier by the action: (representatives, quotient map)."""
    validate_action(A).require("invalid action")
    rep = _orbit_reps(A)
    return tuple(sorted(set(rep.values()))), dict(sorted(rep.items()))


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
    table = {(x, G.source_map[x]): G.range_map[x] for x in G.elements}
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
        for v in validate_action(A).violations:
            bad.append(Violation(f"{A.side} action {v.law}", v.witness))
        if not is_free(A):
            witness = next(
                (g, z) for (g, z), w in sorted(A.act.items()) if w == z and g != A.moment.get(z)
            )
            bad.append(Violation(f"{A.side} action not free", (f"g={witness[0]}", f"z={witness[1]}")))
    if bad:
        return ValidationReport(tuple(bad), (PROPERNESS_NOTE,))

    rho = E.left.moment
    sigma = E.right.moment

    for (g, z), w in sorted(E.left.act.items()):
        if sigma[w] != sigma[z]:
            bad.append(Violation("right moment invariance", (f"g={g}", f"z={z}")))
    for (h, z), w in sorted(E.right.act.items()):
        if rho[w] != rho[z]:
            bad.append(Violation("left moment invariance", (f"h={h}", f"z={z}")))
    if bad:
        return ValidationReport(tuple(bad), (PROPERNESS_NOTE,))

    hr = E.right.groupoid.range_fibers()
    for (g, z), gz in sorted(E.left.act.items()):
        for h in hr.get(sigma[z], ()):
            lhs = E.right.apply_right(gz, h)
            rhs = E.left.apply(g, E.right.apply_right(z, h))
            if lhs != rhs:
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


def imprimitivity_groupoid(
    A: Action, orientation: str | None = None
) -> tuple[Groupoid, dict[tuple[str, str], str]]:
    """Quotient of the equal-moment pair space by the diagonal action.

    Elements are orbits of pairs (x, y) with moment(x) == moment(y); the
    class of (x, y) runs from the class of (x, x) to the class of (y, y),
    composes by splicing, and inverts by swapping the pair.  Composition of
    classes is computed through the unique translating element supplied by
    freeness.  Returns the groupoid together with the map sending each pair
    to its class token; tokens name the least pair in each orbit.
    """
    if orientation is not None and orientation != A.side:
        raise ValueError(f"orientation {orientation!r} does not match the action's side {A.side!r}")
    validate_action(A).require("invalid action")
    if not is_free(A):
        raise ValueError("imprimitivity groupoid needs a free action")
    return _imprimitivity(A)


def _imprimitivity(A: Action) -> tuple[Groupoid, dict[tuple[str, str], str]]:
    """imprimitivity_groupoid of an action already known to be valid and free."""
    G = A.groupoid
    mom = A.moment
    fibers = A.moment_fibers()
    pairs = [
        (x, y)
        for zs in fibers.values()
        for x in zs
        for y in zs
    ]
    pairs.sort()

    sfib: dict[str, list[str]] = {}
    for g in G.sorted_elements():
        sfib.setdefault(G.source_map[g], []).append(g)

    def diagonal(pair: tuple[str, str]):
        x, y = pair
        return ((A.act[(g, x)], A.act[(g, y)]) for g in sfib.get(mom[x], ()))

    rep = _least_components(pairs, diagonal)
    labeling = {p: _pair_token(*rep[p]) for p in pairs}
    classes = sorted({labeling[p] for p in pairs})
    class_rep = {labeling[p]: rep[p] for p in pairs}  # rep is the least pair of its orbit

    elements = classes
    units = {labeling[(x, x)] for x, _ in pairs}
    range_map = {}
    source_map = {}
    inverse_map = {}
    for c in classes:
        x, y = class_rep[c]
        range_map[c] = labeling[(x, x)]
        source_map[c] = labeling[(y, y)]
        inverse_map[c] = labeling[(y, x)]

    def translate(w: str, y: str) -> str | None:
        # unique g with g.w == y, when the pairs (w, w) and (y, y) share a class
        for g in sfib.get(mom[w], ()):
            if A.act[(g, w)] == y:
                return g
        return None

    compose = {}
    for c1 in classes:
        x, y = class_rep[c1]
        for c2 in classes:
            if source_map[c1] != range_map[c2]:
                continue
            w, z = class_rep[c2]
            g = translate(w, y)
            if g is None:
                raise ValueError(f"composable classes without a translator: {c1} {c2}")
            compose[(c1, c2)] = labeling[(x, A.act[(g, z)])]

    return (
        make_groupoid(elements, units, range_map, source_map, inverse_map, compose),
        labeling,
    )


def imprimitivity_iso(
    E: Equivalence,
) -> tuple[Groupoid, dict[tuple[str, str], str], dict[str, str]]:
    """Imprimitivity groupoid of the left action with its canonical match to the right groupoid.

    For a class [x, y] the image is the unique right-acting element moving x
    to y; freeness and fiberwise transitivity make it exist uniquely.  The
    returned map is checked to be a bijection preserving all structure.
    """
    imp, labeling = imprimitivity_groupoid(E.left)
    return imp, labeling, _class_translation(E, imp, labeling)


def _class_translation(
    E: Equivalence, imp: Groupoid, labeling: dict[tuple[str, str], str]
) -> dict[str, str]:
    """The iso of imprimitivity_iso, for a checked equivalence and its imprimitivity groupoid."""
    H = E.right.groupoid
    sigma = E.right.moment
    class_rep: dict[str, tuple[str, str]] = {}
    for p in sorted(labeling):
        class_rep.setdefault(labeling[p], p)

    hr = H.range_fibers()
    iso: dict[str, str] = {}
    for c in imp.sorted_elements():
        x, y = class_rep[c]
        matches = [h for h in hr.get(sigma[x], ()) if E.right.apply_right(x, h) == y]
        if len(matches) != 1:
            raise ValueError(f"no unique translator for class {c}; equivalence axioms must hold")
        iso[c] = matches[0]

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
