"""Finite groupoids as explicit tables: constructors and exhaustive axiom checking.

Elements are opaque string tokens.  Range, source, inverse and composition are
stored as finite dicts, so every axiom can be checked by enumeration.  Values
are treated as immutable after construction and all operations are pure:
checkers return reports, they never mutate.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

__all__ = [
    "CompositionError",
    "Groupoid",
    "ValidationReport",
    "Violation",
    "blow_up",
    "blowup_arrow",
    "group_as_groupoid",
    "is_principal",
    "is_transitive",
    "make_groupoid",
    "pair_arrow",
    "pair_groupoid",
    "relation_arrow",
    "relation_groupoid",
    "stability_group",
    "transformation_arrow",
    "transformation_groupoid",
    "unit_orbit_map",
    "validate_groupoid",
]


class CompositionError(ValueError):
    """Raised when a non-composable pair is composed."""


@dataclass(frozen=True)
class Violation:
    """A single failed check: which law broke and on which witnesses."""

    law: str
    witness: tuple[str, ...]

    def render(self) -> str:
        return f"violation {self.law}: {' '.join(self.witness)}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a checker.  Violations are data, not exceptions."""

    violations: tuple[Violation, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = ["status: PASS" if self.passed else "status: FAIL"]
        lines.extend(v.render() for v in self.violations)
        lines.extend(f"note: {n}" for n in self.notes)
        return "\n".join(lines)

    def require(self, context: str, error: type[Exception] = ValueError) -> None:
        """Raise error("context: first violation") unless the report passed."""
        if self.violations:
            raise error(f"{context}: {self.violations[0].render()}")


@dataclass(frozen=True)
class Groupoid:
    """A finite groupoid given by explicit tables.

    ``compose`` is a partial map: it must be defined on exactly the pairs
    (x, y) with source(x) == range(y).  Asking for any other product is a
    hard error, never a silent None.
    """

    elements: frozenset[str]
    units: frozenset[str]
    range_map: dict[str, str]
    source_map: dict[str, str]
    inverse_map: dict[str, str]
    compose_map: dict[tuple[str, str], str]

    def r(self, x: str) -> str:
        return self.range_map[x]

    def s(self, x: str) -> str:
        return self.source_map[x]

    def inv(self, x: str) -> str:
        return self.inverse_map[x]

    def is_composable(self, x: str, y: str) -> bool:
        return self.source_map[x] == self.range_map[y]

    def mul(self, x: str, y: str) -> str:
        try:
            return self.compose_map[(x, y)]
        except KeyError:
            raise CompositionError(f"not composable: x={x} y={y}") from None

    def sorted_elements(self) -> list[str]:
        return sorted(self.elements)

    def sorted_units(self) -> list[str]:
        return sorted(self.units)

    def range_fiber(self, u: str) -> list[str]:
        return sorted(x for x in self.elements if self.range_map.get(x) == u)

    def source_fiber(self, u: str) -> list[str]:
        return sorted(x for x in self.elements if self.source_map.get(x) == u)

    def range_fibers(self) -> dict[str, list[str]]:
        fib: dict[str, list[str]] = {u: [] for u in self.sorted_units()}
        for x in self.sorted_elements():
            fib.setdefault(self.range_map.get(x, ""), []).append(x)
        return fib


def make_groupoid(
    elements: Iterable[str],
    units: Iterable[str],
    range_map: Mapping[str, str],
    source_map: Mapping[str, str],
    inverse_map: Mapping[str, str],
    compose: Mapping[tuple[str, str], str],
) -> Groupoid:
    """Assemble a Groupoid with canonically sorted tables.

    No axioms are checked here; run validate_groupoid for that.  Keeping the
    factory permissive lets tests build deliberately broken tables.
    """
    return Groupoid(
        elements=frozenset(elements),
        units=frozenset(units),
        range_map=dict(sorted(range_map.items())),
        source_map=dict(sorted(source_map.items())),
        inverse_map=dict(sorted(inverse_map.items())),
        compose_map=dict(sorted(compose.items())),
    )


def validate_groupoid(G: Groupoid) -> ValidationReport:
    """Check every groupoid axiom by exhaustive enumeration.

    Returns a report whose violations each carry the law that failed and the
    witnessing tokens.  Never raises on bad data.
    """
    bad: list[Violation] = []
    E = G.elements
    els = G.sorted_elements()

    for name, m in (("range", G.range_map), ("source", G.source_map), ("inverse", G.inverse_map)):
        for x in els:
            if x not in m:
                bad.append(Violation(f"{name} undefined", (f"x={x}",)))
        for x in sorted(m):
            if x not in E:
                bad.append(Violation(f"{name} key unknown", (f"x={x}",)))
            elif m[x] not in E:
                bad.append(Violation(f"{name} value unknown", (f"x={x}", f"value={m[x]}")))
    for u in sorted(G.units):
        if u not in E:
            bad.append(Violation("unit unknown", (f"u={u}",)))

    r = G.range_map.get
    s = G.source_map.get
    inv = G.inverse_map.get
    C = G.compose_map

    for x in els:
        rx, sx = r(x), s(x)
        if rx in E and rx not in G.units:
            bad.append(Violation("range not a unit", (f"x={x}", f"r(x)={rx}")))
        if sx in E and sx not in G.units:
            bad.append(Violation("source not a unit", (f"x={x}", f"s(x)={sx}")))
    for u in sorted(G.units & E):
        if r(u) != u:
            bad.append(Violation("unit range law", (f"u={u}", f"r(u)={r(u)}")))
        if s(u) != u:
            bad.append(Violation("unit source law", (f"u={u}", f"s(u)={s(u)}")))

    # compose must live on exactly the composable pairs
    for x, y in sorted(C):
        if x not in E or y not in E:
            bad.append(Violation("compose key unknown", (f"x={x}", f"y={y}")))
            continue
        if s(x) != r(y):
            bad.append(Violation("compose off composable pairs", (f"x={x}", f"y={y}")))
        if C[(x, y)] not in E:
            bad.append(Violation("compose value unknown", (f"x={x}", f"y={y}", f"value={C[(x, y)]}")))

    rfib: dict[str, list[str]] = {}
    for x in els:
        rfib.setdefault(r(x), []).append(x)
    for x in els:
        for y in rfib.get(s(x), ()):
            if (x, y) not in C:
                bad.append(Violation("compose missing on composable pair", (f"x={x}", f"y={y}")))

    for x, y in sorted(C):
        xy = C[(x, y)]
        if xy not in E:
            continue
        if r(xy) != r(x):
            bad.append(Violation("range of product", (f"x={x}", f"y={y}", f"xy={xy}")))
        if s(xy) != s(y):
            bad.append(Violation("source of product", (f"x={x}", f"y={y}", f"xy={xy}")))

    for x in els:
        left = C.get((r(x), x))
        if left is not None and left != x:
            bad.append(Violation("left unit law", (f"x={x}", f"r(x)*x={left}")))
        right = C.get((x, s(x)))
        if right is not None and right != x:
            bad.append(Violation("right unit law", (f"x={x}", f"x*s(x)={right}")))

    for x in els:
        xi = inv(x)
        if xi is None or xi not in E:
            continue
        if r(xi) != s(x):
            bad.append(Violation("inverse range law", (f"x={x}", f"inv(x)={xi}")))
        v = C.get((x, xi))
        if v is not None and v != r(x):
            bad.append(Violation("right inverse law", (f"x={x}", f"x*inv(x)={v}")))
        w = C.get((xi, x))
        if w is not None and w != s(x):
            bad.append(Violation("left inverse law", (f"x={x}", f"inv(x)*x={w}")))
        if inv(xi) != x:
            bad.append(Violation("double inverse law", (f"x={x}", f"inv(inv(x))={inv(xi)}")))

    get = C.get
    for x in els:
        sx = s(x)
        for y in rfib.get(sx, ()):
            xy = get((x, y))
            if xy is None or xy not in E:
                continue
            for z in rfib.get(s(y), ()):
                yz = get((y, z))
                a = get((xy, z))
                b = get((x, yz)) if yz is not None else None
                if a is not None and b is not None and a != b:
                    bad.append(Violation("associativity", (f"x={x}", f"y={y}", f"z={z}")))

    return ValidationReport(tuple(bad))


def is_principal(G: Groupoid) -> bool:
    """True when only units have equal range and source."""
    return all(
        x in G.units
        for x in G.elements
        if G.range_map.get(x) == G.source_map.get(x)
    )


def unit_orbit_map(G: Groupoid) -> dict[str, str]:
    """Map each unit to the least unit reachable through arrows.

    Two units are in the same orbit when some arrow has one as range and
    the other as source.  Representatives are canonical: least token.
    """
    adj: dict[str, set[str]] = {u: set() for u in G.units}
    for x in G.sorted_elements():
        u, v = G.range_map.get(x), G.source_map.get(x)
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    return _least_components(sorted(G.units), adj.__getitem__)


def _least_components(nodes: Iterable, neighbours: Callable[..., Iterable]) -> dict:
    """Map every node reachable from nodes to the least node of its component.

    neighbours(n) yields the nodes one step from n.  Whatever n reaches must
    also reach n (an undirected graph, or the moves of a groupoid action), so
    each search finds a whole component.
    """
    rep: dict = {}
    for start in nodes:
        if start in rep:
            continue
        seen = {start}
        queue = [start]
        while queue:
            for nxt in neighbours(queue.pop()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        least = min(seen)
        for node in seen:
            rep[node] = least
    return rep


def is_transitive(G: Groupoid) -> bool:
    return len(set(unit_orbit_map(G).values())) <= 1


# ---------------------------------------------------------------------------
# constructors


def pair_arrow(u: str, v: str) -> str:
    return f"pair:{u},{v}"


def pair_groupoid(points: Iterable[str]) -> Groupoid:
    """Groupoid of all ordered pairs of points: (u,v)(v,w) = (u,w)."""
    pts = sorted({str(p) for p in points})
    if not pts:
        raise ValueError("pair groupoid needs at least one point")
    elements = [pair_arrow(u, v) for u in pts for v in pts]
    if len(set(elements)) != len(pts) ** 2:
        raise ValueError("point tokens collide under pair naming")
    units = {pair_arrow(u, u) for u in pts}
    range_map = {pair_arrow(u, v): pair_arrow(u, u) for u in pts for v in pts}
    source_map = {pair_arrow(u, v): pair_arrow(v, v) for u in pts for v in pts}
    inverse_map = {pair_arrow(u, v): pair_arrow(v, u) for u in pts for v in pts}
    compose = {
        (pair_arrow(u, v), pair_arrow(v, w)): pair_arrow(u, w)
        for u in pts
        for v in pts
        for w in pts
    }
    return make_groupoid(elements, units, range_map, source_map, inverse_map, compose)


def group_as_groupoid(table: Mapping[tuple[str, str], str]) -> Groupoid:
    """A finite group, presented by its multiplication table, as a one-unit groupoid.

    The table is checked to actually be a group: total, closed, associative,
    with identity and inverses.  Element tokens are kept verbatim.
    """
    t = {(str(a), str(b)): str(c) for (a, b), c in table.items()}
    els = sorted({a for a, _ in t} | {b for _, b in t} | set(t.values()))
    for a in els:
        for b in els:
            if (a, b) not in t:
                raise ValueError(f"multiplication table not total: missing ({a}, {b})")
    for a in els:
        for b in els:
            for c in els:
                if t[(t[(a, b)], c)] != t[(a, t[(b, c)])]:
                    raise ValueError(f"table not associative: witness ({a}, {b}, {c})")
    identity = None
    for e in els:
        if all(t[(e, a)] == a and t[(a, e)] == a for a in els):
            identity = e
            break
    if identity is None:
        raise ValueError("table has no identity element")
    inverse_map = {}
    for a in els:
        partners = [b for b in els if t[(a, b)] == identity and t[(b, a)] == identity]
        if not partners:
            raise ValueError(f"element without inverse: {a}")
        inverse_map[a] = partners[0]
    const = {a: identity for a in els}
    return make_groupoid(els, {identity}, const, dict(const), inverse_map, t)


def transformation_arrow(g: str, x: str) -> str:
    return f"tg:{g}|{x}"


def transformation_groupoid(
    group: Groupoid, action: Mapping[tuple[str, str], str], space: Iterable[str] | None = None
) -> Groupoid:
    """Groupoid of a group action: arrows (g, x) from x to g.x.

    Arrows compose as (g', g.x)(g, x) = (g'g, x).  The action map must be
    total on group x space and satisfy the identity and compatibility laws.
    """
    if len(group.units) != 1:
        raise ValueError("transformation groupoid needs a one-unit (group) actor")
    e = next(iter(group.units))
    act = {(str(g), str(x)): str(y) for (g, x), y in action.items()}
    if space is None:
        pts = sorted({x for _, x in act} | set(act.values()))
    else:
        pts = sorted({str(x) for x in space})
    gels = group.sorted_elements()
    for g in gels:
        for x in pts:
            if (g, x) not in act:
                raise ValueError(f"action not total: missing ({g}, {x})")
            if act[(g, x)] not in pts:
                raise ValueError(f"action leaves the space: ({g}, {x}) -> {act[(g, x)]}")
    for x in pts:
        if act[(e, x)] != x:
            raise ValueError(f"identity must act trivially: {e}.{x} = {act[(e, x)]}")
    for g in gels:
        for h in gels:
            gh = group.mul(g, h)
            for x in pts:
                if act[(gh, x)] != act[(g, act[(h, x)])]:
                    raise ValueError(f"action not compatible: witness ({g}, {h}, {x})")

    elements = [transformation_arrow(g, x) for g in gels for x in pts]
    if len(set(elements)) != len(gels) * len(pts):
        raise ValueError("tokens collide under transformation naming")
    units = {transformation_arrow(e, x) for x in pts}
    range_map = {transformation_arrow(g, x): transformation_arrow(e, act[(g, x)]) for g in gels for x in pts}
    source_map = {transformation_arrow(g, x): transformation_arrow(e, x) for g in gels for x in pts}
    inverse_map = {
        transformation_arrow(g, x): transformation_arrow(group.inv(g), act[(g, x)])
        for g in gels
        for x in pts
    }
    compose = {}
    for g in gels:
        for x in pts:
            for h in gels:
                # (h, g.x) after (g, x)
                compose[(transformation_arrow(h, act[(g, x)]), transformation_arrow(g, x))] = (
                    transformation_arrow(group.mul(h, g), x)
                )
    return make_groupoid(elements, units, range_map, source_map, inverse_map, compose)


def relation_arrow(u: str, v: str) -> str:
    return f"rel:{u},{v}"


def relation_groupoid(q: Mapping[str, str], codomain: Iterable[str] | None = None) -> Groupoid:
    """Groupoid of the equivalence relation induced by a quotient map q.

    Arrows are pairs (u, v) with q(u) == q(v), composing like pair arrows
    within each fiber.  When a codomain is given, q must reach all of it.
    """
    qm = {str(u): str(t) for u, t in q.items()}
    if not qm:
        raise ValueError("quotient map must have nonempty domain")
    image = set(qm.values())
    if codomain is not None:
        targets = {str(t) for t in codomain}
        stray = sorted(image - targets)
        if stray:
            raise ValueError(f"quotient map leaves the codomain: {', '.join(stray)}")
        unreached = sorted(targets - image)
        if unreached:
            raise ValueError(f"quotient map not surjective; unreached targets: {', '.join(unreached)}")
    fibers: dict[str, list[str]] = {}
    for u in sorted(qm):
        fibers.setdefault(qm[u], []).append(u)

    elements = []
    units = set()
    range_map = {}
    source_map = {}
    inverse_map = {}
    compose = {}
    for fiber in fibers.values():
        for u in fiber:
            units.add(relation_arrow(u, u))
            for v in fiber:
                a = relation_arrow(u, v)
                elements.append(a)
                range_map[a] = relation_arrow(u, u)
                source_map[a] = relation_arrow(v, v)
                inverse_map[a] = relation_arrow(v, u)
                for w in fiber:
                    compose[(a, relation_arrow(v, w))] = relation_arrow(u, w)
    if len(set(elements)) != sum(len(f) ** 2 for f in fibers.values()):
        raise ValueError("point tokens collide under relation naming")
    return make_groupoid(elements, units, range_map, source_map, inverse_map, compose)


def stability_group(G: Groupoid, v: str) -> tuple[Groupoid, tuple[str, ...]]:
    """Arrows from v to v as a one-unit groupoid, plus the full source fiber at v.

    The second component, all arrows whose source is v, is the natural
    carrier linking G to its stability group when G is transitive.
    """
    if v not in G.units:
        raise ValueError(f"not a unit: {v}")
    members = sorted(
        x for x in G.elements if G.range_map.get(x) == v and G.source_map.get(x) == v
    )
    compose = {
        (x, y): G.compose_map[(x, y)] for x in members for y in members
    }
    group = make_groupoid(
        members,
        {v},
        {x: v for x in members},
        {x: v for x in members},
        {x: G.inverse_map[x] for x in members},
        compose,
    )
    carrier = tuple(sorted(x for x in G.elements if G.source_map.get(x) == v))
    return group, carrier


def blowup_arrow(z: str, g: str, w: str) -> str:
    return f"blowup:{z}|{g}|{w}"


def blow_up(G: Groupoid, f: Mapping[str, str]) -> Groupoid:
    """Pull G back along a surjection f from a new unit space onto G's units.

    Arrows are triples (z, g, w) with f(z) = r(g) and s(g) = f(w), composing
    by (z, g, w)(w, g', v) = (z, gg', v).
    """
    fm = {str(z): str(u) for z, u in f.items()}
    if not fm:
        raise ValueError("blow-up map must have nonempty domain")
    for z, u in sorted(fm.items()):
        if u not in G.units:
            raise ValueError(f"blow-up map must land in units: f({z}) = {u}")
    missing = sorted(G.units - set(fm.values()))
    if missing:
        raise ValueError(f"blow-up map not surjective; missed units: {', '.join(missing)}")

    zs = sorted(fm)
    triples = [
        (z, g, w)
        for z in zs
        for g in G.sorted_elements()
        if G.range_map[g] == fm[z]
        for w in zs
        if G.source_map[g] == fm[w]
    ]
    elements = [blowup_arrow(*t) for t in triples]
    if len(set(elements)) != len(triples):
        raise ValueError("tokens collide under blow-up naming")
    units = {blowup_arrow(z, fm[z], z) for z in zs}
    range_map = {}
    source_map = {}
    inverse_map = {}
    compose = {}
    for z, g, w in triples:
        a = blowup_arrow(z, g, w)
        range_map[a] = blowup_arrow(z, fm[z], z)
        source_map[a] = blowup_arrow(w, fm[w], w)
        inverse_map[a] = blowup_arrow(w, G.inverse_map[g], z)
    for z, g, w in triples:
        a = blowup_arrow(z, g, w)
        for w2, g2, v in triples:
            if w2 == w:
                compose[(a, blowup_arrow(w2, g2, v))] = blowup_arrow(z, G.compose_map[(g, g2)], v)
    return make_groupoid(elements, units, range_map, source_map, inverse_map, compose)
