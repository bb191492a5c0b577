"""Finite groupoids as explicit tables: constructors and exact axiom checking.

Elements are opaque string tokens.  Range, source, inverse and composition are
stored as finite dicts, so every axiom can be checked by enumeration.  Values
are treated as immutable after construction and all operations are pure:
checkers return reports, they never mutate.

Canonical order lives in the table types: Groupoid, actions.Action and
systems.FiberSystem sort their dict tables by key once, in __post_init__
(_sort_tables), so every construction, dataclasses.replace included, stores
them in sorted key order.  Validators, checkers and the document encoder walk
that stored order and sort no table again.  Derived indexes (fibers, orbit
maps, an action's table laws) are cached_property attributes, built once per
object; a dataclasses.replace copy starts with none.  Tables are immutable:
editing one in place is unsupported and may leave it out of order or stale.
"""

from __future__ import annotations

from collections.abc import Callable, Container, Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property

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
    hard error, never a silent None.  The four maps are stored sorted by key.
    """

    elements: frozenset[str]
    units: frozenset[str]
    range_map: dict[str, str]
    source_map: dict[str, str]
    inverse_map: dict[str, str]
    compose_map: dict[tuple[str, str], str]

    def __post_init__(self) -> None:
        _sort_tables(self, "range_map", "source_map", "inverse_map", "compose_map")

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

    def range_fibers(self) -> dict[str, list[str]]:
        """_rfib with every unit present; an arrow with no range is in no fiber."""
        return {u: [] for u in self.sorted_units()} | {u: f for u, f in self._rfib.items() if u is not None}

    @cached_property
    def _rfib(self) -> dict:
        """Elements by range, in sorted order; an arrow with no range groups under None."""
        return _fibers(self.sorted_elements(), self.range_map.get)

    @cached_property
    def _sfib(self) -> dict:
        """Elements by source, in sorted order; an arrow with no source groups under None."""
        return _fibers(self.sorted_elements(), self.source_map.get)


def _sort_tables(obj: object, *names: str) -> None:
    """Store each named dict table of a frozen dataclass sorted by key; no reader sorts one again."""
    for name in names:
        object.__setattr__(obj, name, dict(sorted(getattr(obj, name).items())))


def make_groupoid(
    elements: Iterable[str],
    units: Iterable[str],
    range_map: Mapping[str, str],
    source_map: Mapping[str, str],
    inverse_map: Mapping[str, str],
    compose: Mapping[tuple[str, str], str],
) -> Groupoid:
    """Assemble a Groupoid; Groupoid itself stores the tables sorted.

    No axioms are checked here; run validate_groupoid for that.  Keeping the
    factory permissive lets tests build deliberately broken tables.
    """
    return Groupoid(frozenset(elements), frozenset(units), range_map, source_map, inverse_map, compose)


def validate_groupoid(G: Groupoid) -> ValidationReport:
    """Check every groupoid axiom exactly.

    Returns a report whose violations each carry the law that failed and the
    witnessing tokens.  Never raises on bad data.

    Every law but associativity is checked by enumeration.  When all of them
    hold, associativity is proved on generators (_associative_on_generators):
    the arrows g with (xg)y = x(gy) for every composable x and y are closed
    under composition, so testing a generating set decides the whole table.
    A passing table costs O(|G| + composable pairs + sum over generators g of
    |s^-1(r g)| * |r^-1(s g)|).  When any law fails, the associativity
    witnesses come from the exhaustive triple scan, O(composable triples).
    """
    bad: list[Violation] = []
    E = G.elements
    els = G.sorted_elements()

    for name, m in (("range", G.range_map), ("source", G.source_map), ("inverse", G.inverse_map)):
        for x in els:
            if x not in m:
                bad.append(Violation(f"{name} undefined", (f"x={x}",)))
        for x in m:
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
    for x, y in C:
        if x not in E or y not in E:
            bad.append(Violation("compose key unknown", (f"x={x}", f"y={y}")))
            continue
        if s(x) != r(y):
            bad.append(Violation("compose off composable pairs", (f"x={x}", f"y={y}")))
        if C[(x, y)] not in E:
            bad.append(Violation("compose value unknown", (f"x={x}", f"y={y}", f"value={C[(x, y)]}")))

    rfib = G._rfib
    for x in els:
        for y in rfib.get(s(x), ()):
            if (x, y) not in C:
                bad.append(Violation("compose missing on composable pair", (f"x={x}", f"y={y}")))

    for x, y in C:
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

    if not bad and _associative_on_generators(els, C, r, s, rfib, G._sfib):
        return ValidationReport()
    for x, y, z in _associativity_witnesses(els, E, C, s, rfib):
        bad.append(Violation("associativity", (f"x={x}", f"y={y}", f"z={z}")))
    return ValidationReport(tuple(bad))


def _associativity_witnesses(els: list, E: Container, C: Mapping, s: Callable, rfib: dict) -> Iterator[tuple]:
    """Exhaustive scan, O(composable triples): each (x, y, z) with (xy)z != x(yz), xy in E; rfib groups els by range."""
    get = C.get
    for x in els:
        for y in rfib.get(s(x), ()):
            xy = get((x, y))
            if xy is None or xy not in E:
                continue
            for z in rfib.get(s(y), ()):
                yz = get((y, z))
                a = get((xy, z))
                b = get((x, yz)) if yz is not None else None
                if a is not None and b is not None and a != b:
                    yield x, y, z


def is_principal(G: Groupoid) -> bool:
    """True when only units have equal range and source."""
    return _isotropy_arrow(G) is None


def _isotropy_arrow(G: Groupoid) -> str | None:
    """The least non-unit arrow with equal range and source, if there is one."""
    return min(
        (x for x in G.elements if x not in G.units and G.range_map.get(x) == G.source_map.get(x)),
        default=None,
    )


def unit_orbit_map(G: Groupoid) -> dict[str, str]:
    """Map each unit to the least unit reachable through arrows.

    Two units are in the same orbit when some arrow has one as range and
    the other as source.  Representatives are canonical: least token.
    """
    edges = ((G.range_map.get(x), G.source_map.get(x)) for x in G.elements)
    return _edge_components(G.sorted_units(), edges)


def _fibers(points: Iterable, key: Callable) -> dict:
    """Group points by key(point), keeping their order inside each group."""
    groups: dict = {}
    for p in points:
        groups.setdefault(key(p), []).append(p)
    return groups


def _associative_on_generators(
    els: list[str], C: Mapping[tuple[str, str], str], r: Callable, s: Callable, rfib: dict, sfib: dict
) -> bool:
    """Light's associativity test on a table that meets every other law.

    rfib and sfib group els by r and s.  C must be defined exactly on the
    pairs (x, y) with s(x) == r(y), with r(xy) == r(x) and s(xy) == s(y).
    Let S be the arrows g with (xg)y == x(gy) for every x with s(x) == r(g)
    and every y with r(y) == s(g).  S is closed under composition: for g, h
    in S, (x(gh))y = ((xg)h)y = (xg)(hy) = x(g(hy)) = x((gh)y).  So C is
    associative exactly when a set of arrows whose left-bracketed products
    reach every arrow lies in S.  Generators are picked greedily in els
    order: an arrow becomes one when the products so far miss it.
    """
    reached: set[str] = set()
    gens: dict[str, list[str]] = {}
    for g in els:
        if g in reached:
            continue
        left, right = sfib[r(g)], rfib[s(g)]
        if any(C[(C[(x, g)], y)] != C[(x, C[(g, y)])] for x in left for y in right):
            return False
        gens.setdefault(r(g), []).append(g)
        queue = [C[(x, g)] for x in left if x in reached]
        queue.append(g)
        while queue:
            a = queue.pop()
            if a not in reached:
                reached.add(a)
                queue.extend(C[(a, h)] for h in gens.get(s(a), ()))
    return True


def _edge_components(nodes: list, edges: Iterable[tuple]) -> dict:
    """Map each node to the least node of its component; edges leaving nodes are ignored.

    Keys come in sorted order, so the map does not depend on the hash seed.
    """
    adj: dict = {n: set() for n in nodes}
    for a, b in edges:
        if a in adj and b in adj:
            adj[a].add(b)
            adj[b].add(a)
    rep: dict = {}
    for start in nodes:
        if start in rep:
            continue
        seen = {start}
        queue = [start]
        while queue:
            for nxt in adj[queue.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        least = min(seen)
        for node in seen:
            rep[node] = least
    return dict(sorted(rep.items()))


def is_transitive(G: Groupoid) -> bool:
    return len(set(unit_orbit_map(G).values())) <= 1


# ---------------------------------------------------------------------------
# constructors


def pair_arrow(u: str, v: str) -> str:
    return f"pair:{u},{v}"


def pair_groupoid(points: Iterable[str]) -> Groupoid:
    """Groupoid of all ordered pairs of points: (u,v)(v,w) = (u,w).

    The pullback of the one-point groupoid along the constant map, with the
    triple (u, *, v) named pair:u,v.  O(n^3) for n points: one dict entry per
    product, and each token is formatted once.
    """
    pts = sorted({str(p) for p in points})
    if not pts:
        raise ValueError("pair groupoid needs at least one point")
    return _pullback(
        _units_only(["*"]),
        dict.fromkeys(pts, "*"),
        lambda u, _, v: pair_arrow(u, v),
        "point tokens collide under pair naming",
    )[0]


def _units_only(units: Iterable[str]) -> Groupoid:
    """The groupoid whose arrows are exactly the given units."""
    ids = {u: u for u in units}
    return make_groupoid(ids, ids, ids, ids, ids, {(u, u): u for u in ids})


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
    # a total table is a groupoid table with one unit, where every pair composes
    one, fib = dict.fromkeys(els, ""), {"": els}
    if not _associative_on_generators(els, t, one.get, one.get, fib, fib):
        a, b, c = next(_associativity_witnesses(els, one, t, one.get, fib))
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


def relation_arrow(u: str, v: str) -> str:
    return f"rel:{u},{v}"


def relation_groupoid(q: Mapping[str, str], codomain: Iterable[str] | None = None) -> Groupoid:
    """Groupoid of the equivalence relation induced by a quotient map q.

    Arrows are pairs (u, v) with q(u) == q(v), composing like pair arrows
    within each fiber.  When a codomain is given, q must reach all of it.
    This is the pullback of the units-only groupoid on q's image along q,
    with the triple (u, q(u), v) named rel:u,v: O(sum of fiber sizes cubed).
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
    return _pullback(
        _units_only(image),
        qm,
        lambda u, _, v: relation_arrow(u, v),
        "point tokens collide under relation naming",
    )[0]


def stability_group(G: Groupoid, v: str) -> tuple[Groupoid, tuple[str, ...]]:
    """Arrows from v to v as a one-unit groupoid, plus the full source fiber at v.

    The group is the pullback of G along the inclusion of v, each triple
    (v, g, v) keeping g's token.  The source fiber is the natural carrier
    linking G to its stability group when G is transitive.
    """
    if v not in G.units:
        raise ValueError(f"not a unit: {v}")
    group = _pullback(G, {v: v}, lambda _, g, __: g, "arrow tokens collide", "stability_group")[0]
    return group, tuple(G._sfib.get(v, ()))


def blowup_arrow(z: str, g: str, w: str) -> str:
    return f"blowup:{z}|{g}|{w}"


def blow_up(G: Groupoid, f: Mapping[str, str]) -> Groupoid:
    """Pull G back along a surjection f from a new unit space onto G's units.

    Arrows are triples (z, g, w) with f(z) = r(g) and s(g) = f(w), composing
    by (z, g, w)(w, g', v) = (z, gg', v), named blowup:z|g|w.  Built by
    _pullback, walking fibers: O(|G| + |Z| + composable pairs of triples).
    """
    return _blow_up(G, f)[0]


def _blow_up(G: Groupoid, f: Mapping[str, str]) -> tuple[Groupoid, dict[tuple[str, str, str], str]]:
    """blow_up, plus the token of every triple."""
    fm = {str(z): str(u) for z, u in f.items()}
    if not fm:
        raise ValueError("blow-up map must have nonempty domain")
    for z, u in sorted(fm.items()):
        if u not in G.units:
            raise ValueError(f"blow-up map must land in units: f({z}) = {u}")
    missing = sorted(G.units - set(fm.values()))
    if missing:
        raise ValueError(f"blow-up map not surjective; missed units: {', '.join(missing)}")
    return _pullback(G, fm, blowup_arrow, "tokens collide under blow-up naming")


def _pullback(
    G: Groupoid, f: Mapping[str, str], name: Callable[[str, str, str], str], collision: str, caller: str = "blow_up"
) -> tuple[Groupoid, dict[tuple[str, str, str], str]]:
    """The triples (z, g, w) with f(z) = r(g) and s(g) = f(w) as a groupoid, and their tokens.

    f maps a new unit space into G's units; (z, g, w)(w, g', v) = (z, gg', v).
    It builds pair_groupoid, relation_groupoid, blow_up, stability_group (the
    pullback along the inclusion of one unit) and the imprimitivity groupoid
    of a free action (actions.Action._classes).
    name(z, g, w) formats each triple's token once; tokens must not collide
    (else ValueError(collision)).  G is not validated: an inverse or product
    that is not a triple is still named, and a missing entry raises a one-line
    ValueError naming the caller (every inverse is checked before any product).
    """
    zs = sorted(f)
    over = _fibers(zs, f.get)
    tok = {
        (z, g, w): name(z, g, w)
        for z in zs
        for g in G._rfib.get(f[z], ())
        for w in over.get(G.source_map.get(g), ())
    }
    if len(set(tok.values())) != len(tok):
        raise ValueError(collision)
    known = tok.get
    unit = {z: known((z, f[z], z)) or name(z, f[z], z) for z in zs}
    inverse_map = {}
    for (z, g, w), a in tok.items():
        gi = G.inverse_map.get(g)
        if gi is None:
            raise ValueError(f"{caller}: inverse undefined: x={g}")
        inverse_map[a] = known((w, gi, z)) or name(w, gi, z)
    starting = _fibers(tok.items(), lambda item: item[0][0])
    product = G.compose_map.get
    compose = {}
    for (z, g, w), a in tok.items():
        for (_, g2, v), b in starting.get(w, ()):
            gg2 = product((g, g2))
            if gg2 is None:
                raise ValueError(f"{caller}: compose missing on composable pair: x={g} y={g2}")
            compose[(a, b)] = known((z, gg2, v)) or name(z, gg2, v)
    range_map = {a: unit[t[0]] for t, a in tok.items()}
    source_map = {a: unit[t[2]] for t, a in tok.items()}
    return make_groupoid(tok.values(), unit.values(), range_map, source_map, inverse_map, compose), tok
