"""Seeded random generators for groupoids, systems, actions and equivalences.

Everything draws from an explicit random.Random instance and iterates sorted
pools, so a fixed seed reproduces the same structures on every run.  Sizes
stay small by construction: no generated groupoid exceeds 40 arrows.
"""

from __future__ import annotations

import random
from fractions import Fraction

from haarsys import (
    Action,
    Cutoff,
    Document,
    Equivalence,
    FiberSystem,
    Groupoid,
    GroupoidFunction,
    HaarSystem,
    Measure,
    blow_up,
    counting_haar,
    fiber_system,
    full_fiber_system,
    group_as_groupoid,
    left_action,
    make_groupoid,
    make_haar,
    orbit_space,
    pair_arrow,
    pair_groupoid,
    relation_arrow,
    relation_groupoid,
    right_action,
    transformation_groupoid,
    unit_orbit_map,
)
from haarsys.fixtures import (
    blowup_z2_data,
    pair2,
    pair_rectangle,
    rect32,
    self_equivalence,
    swap_action,
    swap_cutoff,
    trivial_group,
    weighted_pair3_haar,
    z2,
    z2_skew_system,
)


# ---------------------------------------------------------------------------
# group tables


def cyclic_table(n: int, prefix: str = "c") -> dict[tuple[str, str], str]:
    toks = [f"{prefix}{i}" for i in range(n)]
    return {(toks[i], toks[j]): toks[(i + j) % n] for i in range(n) for j in range(n)}


def klein_table() -> dict[tuple[str, str], str]:
    # product of two involutions: every non-unit squares to the unit
    order = ["e", "a", "b", "c"]
    idx = {t: i for i, t in enumerate(order)}
    xor = lambda i, j: i ^ j
    return {(x, y): order[xor(idx[x], idx[y])] for x in order for y in order}


GROUP_TABLES = {
    "klein": klein_table(),
    "z2": cyclic_table(2),
    "z3": cyclic_table(3),
    "z4": cyclic_table(4),
    "z5": cyclic_table(5),
    "z6": cyclic_table(6),
}


def unit_groupoid(points: list[str]) -> Groupoid:
    """Only identity arrows: one unit per point, nothing else."""
    pts = sorted(str(p) for p in points)
    ident = {p: p for p in pts}
    return make_groupoid(pts, pts, ident, ident, ident, {(p, p): p for p in pts})


# ---------------------------------------------------------------------------
# random groupoids, one family per constructor


def random_pair(rng: random.Random) -> Groupoid:
    n = rng.randint(2, 6)
    return pair_groupoid([str(i) for i in range(1, n + 1)])


def random_group(rng: random.Random) -> Groupoid:
    name = rng.choice(sorted(GROUP_TABLES))
    return group_as_groupoid(GROUP_TABLES[name])


def random_transformation(rng: random.Random) -> Groupoid:
    n = rng.choice([2, 3, 4])
    group = group_as_groupoid(cyclic_table(n))
    # the space splits into cycles whose lengths divide the group order
    divisors = [d for d in (1, 2, 3, 4) if n % d == 0]
    budget = rng.randint(1, 5)
    lengths = []
    while budget > 0:
        d = rng.choice([d for d in divisors if d <= budget])
        lengths.append(d)
        budget -= d
    points: list[str] = []
    act: dict[tuple[str, str], str] = {}
    for ci, d in enumerate(lengths):
        cycle = [f"p{ci}x{j}" for j in range(d)]
        points.extend(cycle)
        for i in range(n):
            for j in range(d):
                act[(f"c{i}", cycle[j])] = cycle[(j + i) % d]
    return transformation_groupoid(group, act, points)


def random_relation_map(rng: random.Random) -> dict[str, str]:
    npts = rng.randint(2, 6)
    ntargets = rng.randint(1, min(3, npts))
    points = [str(i) for i in range(1, npts + 1)]
    targets = [chr(ord("A") + i) for i in range(ntargets)]
    q = {points[i]: targets[i] for i in range(ntargets)}
    for p in points[ntargets:]:
        q[p] = rng.choice(targets)
    return q


def random_relation(rng: random.Random) -> Groupoid:
    return relation_groupoid(random_relation_map(rng))


BLOWUP_BASES = {
    "pair2": (lambda: pair_groupoid(["1", "2"]), 4),
    "pair3": (lambda: pair_groupoid(["1", "2", "3"]), 4),
    "z2": (lambda: group_as_groupoid(cyclic_table(2)), 4),
    "z3": (lambda: group_as_groupoid(cyclic_table(3)), 3),
}


def random_blowup_map(rng: random.Random, G: Groupoid, max_points: int) -> dict[str, str]:
    units = G.sorted_units()
    k = rng.randint(len(units), max_points)
    zs = [f"z{i}" for i in range(1, k + 1)]
    f = {zs[i]: units[i] for i in range(len(units))}
    for z in zs[len(units):]:
        f[z] = rng.choice(units)
    return f


def random_blowup_groupoid(rng: random.Random) -> Groupoid:
    base, max_points = BLOWUP_BASES[rng.choice(sorted(BLOWUP_BASES))]
    G = base()
    return blow_up(G, random_blowup_map(rng, G, max_points))


FAMILIES = {
    "blowup": random_blowup_groupoid,
    "group": random_group,
    "pair": random_pair,
    "relation": random_relation,
    "transformation": random_transformation,
}


def random_groupoid(rng: random.Random) -> tuple[str, Groupoid]:
    family = rng.choice(sorted(FAMILIES))
    return family, FAMILIES[family](rng)


# ---------------------------------------------------------------------------
# single-entry corruption


def corrupt_groupoid(G: Groupoid, rng: random.Random) -> tuple[str, Groupoid]:
    """Tamper with exactly one table entry; the result is shape-legal."""
    els = G.sorted_elements()
    units = G.sorted_units()
    moves = []
    if len(units) >= 2:
        moves += ["range", "source"]
    if len(els) >= 2:
        moves += ["inverse", "product"]
    if G.compose_map:
        moves += ["drop"]
    kind = rng.choice(moves)
    rm = dict(G.range_map)
    sm = dict(G.source_map)
    im = dict(G.inverse_map)
    cm = dict(G.compose_map)
    if kind == "range":
        x = rng.choice(els)
        rm[x] = rng.choice([u for u in units if u != rm[x]])
    elif kind == "source":
        x = rng.choice(els)
        sm[x] = rng.choice([u for u in units if u != sm[x]])
    elif kind == "inverse":
        x = rng.choice(els)
        im[x] = rng.choice([y for y in els if y != im[x]])
    elif kind == "product":
        key = rng.choice(sorted(cm))
        cm[key] = rng.choice([z for z in els if z != cm[key]])
    else:
        del cm[rng.choice(sorted(cm))]
    return kind, make_groupoid(G.elements, G.units, rm, sm, im, cm)


def corrupt_associativity(G: Groupoid, rng: random.Random) -> Groupoid | None:
    """Change one product so that associativity is the only law that breaks.

    The product of a composable pair (x, y), with neither a unit and y not
    the inverse of x, becomes another arrow with the same range and source.
    The unit, inverse, range and source laws still hold, and cancellation
    shows that no valid groupoid differs from G in that one product.  None
    when no such pair has a second arrow to move to.
    """
    hom: dict[tuple[str, str], list[str]] = {}
    for a in G.sorted_elements():
        hom.setdefault((G.range_map[a], G.source_map[a]), []).append(a)
    pairs = [
        (x, y)
        for (x, y), xy in sorted(G.compose_map.items())
        if x not in G.units and y not in G.units and y != G.inverse_map[x]
        and len(hom[(G.range_map[xy], G.source_map[xy])]) > 1
    ]
    if not pairs:
        return None
    key = rng.choice(pairs)
    cm = dict(G.compose_map)
    cm[key] = rng.choice([z for z in hom[(G.range_map[cm[key]], G.source_map[cm[key]])] if z != cm[key]])
    return make_groupoid(G.elements, G.units, G.range_map, G.source_map, G.inverse_map, cm)


# ---------------------------------------------------------------------------
# random Haar systems


def positive(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.choice([1, 1, 2]))


def scaled_counting_haar(G: Groupoid, rng: random.Random) -> HaarSystem:
    """Counting weights scaled by one positive constant per transitivity class."""
    component = unit_orbit_map(G)
    scale = {rep: positive(rng) for rep in sorted(set(component.values()))}
    measures = {
        u: Measure({x: scale[component[u]] for x in fiber})
        for u, fiber in G.range_fibers().items()
    }
    return make_haar(G, fiber_system(G.range_map, measures), "scaled counting")


def relation_column_haar(q: dict[str, str], rng: random.Random) -> HaarSystem:
    """On the groupoid of q: weight of the arrow (i, j) depends only on j."""
    G = relation_groupoid(q)
    column = {p: positive(rng) for p in sorted(q)}
    fibers: dict[str, list[str]] = {}
    for p in sorted(q):
        fibers.setdefault(q[p], []).append(p)
    measures = {
        relation_arrow(i, i): Measure({relation_arrow(i, j): column[j] for j in fibers[q[i]]})
        for i in sorted(q)
    }
    return make_haar(G, fiber_system(G.range_map, measures), "column weights")


def combine(*terms: tuple[Fraction, GroupoidFunction]) -> GroupoidFunction:
    """The linear combination of (coefficient, function) terms on one groupoid, summed as dicts."""
    G = terms[0][1].groupoid
    acc: dict[str, Fraction] = {}
    for c, f in terms:
        assert f.groupoid == G, "combine: functions on different groupoids"
        for x, v in f.items():
            acc[x] = acc.get(x, 0) + c * v
    return GroupoidFunction(G, acc)


def random_haar_for(G: Groupoid, rng: random.Random) -> HaarSystem:
    return scaled_counting_haar(G, rng)


def random_family(G: Groupoid, rng: random.Random) -> FiberSystem:
    """A family over G's range map that is mostly neither full nor invariant.

    Fiber weights come from a pool that holds 0; about one unit in ten gets
    no measure and about one in ten also weighs an arrow from anywhere in G.
    """
    pool = [0, 1, 1, 2, Fraction(1, 2), Fraction(3, 2), Fraction(2, 3)]
    els = G.sorted_elements()
    measures = {}
    for u in G.sorted_units():
        roll = rng.random()
        if roll < 0.1:
            continue
        weights = {x: rng.choice(pool) for x in els if G.range_map.get(x) == u}
        if roll > 0.9:
            weights[rng.choice(els)] = positive(rng)
        measures[u] = Measure(weights)
    return fiber_system(G.range_map, measures)


def off_unit_family() -> FiberSystem:
    """The weighted pair(3) system plus a measure keyed by the non-unit pair:1,2."""
    lam = weighted_pair3_haar().system
    measures = {**lam.measures, pair_arrow("1", "2"): Measure({pair_arrow("1", "3"): 5})}
    return fiber_system(lam.base_map, measures)


# ---------------------------------------------------------------------------
# actions with full systems and cut-offs


def random_proper_space(rng: random.Random) -> tuple[Groupoid, HaarSystem, Action]:
    """A small groupoid acting on at most 12 points.

    The carrier mixes translation copies (free) and unit-space copies (not
    free when isotropy is nontrivial), so both shapes are exercised.
    """
    small = {k: v for k, v in FAMILIES.items() if k != "blowup"}
    while True:
        G = small[rng.choice(sorted(small))](rng)
        if len(G.elements) <= 12:
            break
    arrows = len(G.elements)
    nunits = len(G.units)
    m1 = rng.randint(0, 12 // arrows) if arrows <= 12 else 0
    room = 12 - m1 * arrows
    m2 = rng.randint(0 if m1 else 1, room // nunits) if room >= nunits else 0
    if m1 == 0 and m2 == 0:
        m2 = 1
    carrier: list[str] = []
    moment: dict[str, str] = {}
    act: dict[tuple[str, str], str] = {}
    for k in range(m1):
        for x in G.sorted_elements():
            carrier.append(f"t{k}:{x}")
            moment[f"t{k}:{x}"] = G.range_map[x]
        for (g, x), gx in G.compose_map.items():
            act[(g, f"t{k}:{x}")] = f"t{k}:{gx}"
    for k in range(m2):
        for u in G.sorted_units():
            carrier.append(f"u{k}:{u}")
            moment[f"u{k}:{u}"] = u
        for g in G.sorted_elements():
            act[(g, f"u{k}:{G.source_map[g]}")] = f"u{k}:{G.range_map[g]}"
    A = left_action(G, carrier, moment, act)
    return G, scaled_counting_haar(G, rng), A


def random_full_beta(A: Action, rng: random.Random, weight=positive) -> FiberSystem:
    return full_fiber_system(A.moment, {z: weight(rng) for z in sorted(A.carrier)})


def random_cutoff_for(A: Action, rng: random.Random, weight=positive) -> Cutoff:
    """Positive on a random nonempty slice of every orbit, zero elsewhere."""
    _, qmap = orbit_space(A)
    classes: dict[str, list[str]] = {}
    for z in sorted(qmap):
        classes.setdefault(qmap[z], []).append(z)
    weights: dict[str, Fraction] = {}
    for members in classes.values():
        chosen = rng.sample(members, rng.randint(1, len(members)))
        for z in chosen:
            weights[z] = weight(rng)
    return Cutoff(Measure(weights), qmap)


# ---------------------------------------------------------------------------
# equivalences


def blocked_rectangle(
    r: dict[str, str], c: dict[str, str]
) -> tuple[Groupoid, Groupoid, Equivalence]:
    """Grid equivalence between two relation groupoids over one class set.

    The carrier holds the pairs (i, t) with matching classes; the left side
    relabels the first coordinate inside its class, the right side the
    second.  With a single class this is the plain pair rectangle.
    """
    if sorted(set(r.values())) != sorted(set(c.values())):
        raise ValueError("row and column maps must share their class set")
    G = relation_groupoid(r)
    H = relation_groupoid(c)
    cells = [(i, t) for i in sorted(r) for t in sorted(c) if r[i] == c[t]]
    point = {cell: f"{cell[0]}|{cell[1]}" for cell in cells}
    carrier = sorted(point.values())
    lmoment = {point[(i, t)]: relation_arrow(i, i) for i, t in cells}
    rmoment = {point[(i, t)]: relation_arrow(t, t) for i, t in cells}
    lact = {
        (relation_arrow(i2, i), point[(i, t)]): point[(i2, t)]
        for i, t in cells
        for i2 in sorted(r)
        if r[i2] == r[i]
    }
    ract = {
        (point[(i, t)], relation_arrow(t, t2)): point[(i, t2)]
        for i, t in cells
        for t2 in sorted(c)
        if c[t2] == c[t]
    }
    E = Equivalence(
        left_action(G, carrier, lmoment, lact),
        right_action(H, carrier, rmoment, ract),
    )
    return G, H, E


def unit_carrier_equivalence(q: dict[str, str]) -> tuple[Groupoid, Groupoid, Equivalence]:
    """The unit space of a relation groupoid links it to the class set."""
    G = relation_groupoid(q)
    H = unit_groupoid(sorted(set(q.values())))
    carrier = [relation_arrow(i, i) for i in sorted(q)]
    lmoment = {z: z for z in carrier}
    rmoment = {relation_arrow(i, i): q[i] for i in sorted(q)}
    lact = {
        (relation_arrow(i2, i), relation_arrow(i, i)): relation_arrow(i2, i2)
        for i in sorted(q)
        for i2 in sorted(q)
        if q[i2] == q[i]
    }
    ract = {(z, rmoment[z]): z for z in carrier}
    E = Equivalence(
        left_action(G, carrier, lmoment, lact),
        right_action(H, carrier, rmoment, ract),
    )
    return G, H, E


def random_equivalence(
    rng: random.Random,
) -> tuple[str, Groupoid, HaarSystem, Equivalence]:
    family = rng.choice(["blocked", "pair", "self", "unit-carrier"])
    if family == "pair":
        rows = [str(i) for i in range(1, rng.randint(2, 4) + 1)]
        cols = [chr(ord("a") + i) for i in range(rng.randint(1, 3))]
        E = pair_rectangle(rows, cols)
        G = E.left.groupoid
        lam = scaled_counting_haar(G, rng)
    elif family == "blocked":
        classes = [chr(ord("A") + i) for i in range(rng.randint(1, 2))]
        r: dict[str, str] = {}
        c: dict[str, str] = {}
        for bi, b in enumerate(classes):
            for j in range(rng.randint(1, 3)):
                r[f"r{bi}{j}"] = b
            for j in range(rng.randint(1, 2)):
                c[f"c{bi}{j}"] = b
        G, _, E = blocked_rectangle(r, c)
        lam = relation_column_haar(r, rng)
    elif family == "unit-carrier":
        q = random_relation_map(rng)
        G, _, E = unit_carrier_equivalence(q)
        lam = relation_column_haar(q, rng)
    else:
        small = {k: v for k, v in FAMILIES.items() if k != "blowup"}
        while True:
            G = small[rng.choice(sorted(small))](rng)
            if len(G.elements) <= 12:
                break
        E = self_equivalence(G)
        lam = scaled_counting_haar(G, rng)
    return family, G, lam, E


def colliding_tokens_equivalence() -> Equivalence:
    """The trivial group linked to pair({a, a|b, b|c, c}) through the four points.

    A valid equivalence whose left action is free, yet the imprimitivity
    classes of (a, b|c) and (a|b, c) would both be named imp:a|b|c.
    """
    pts = ["a", "a|b", "b|c", "c"]
    trivial = group_as_groupoid({("e", "e"): "e"})
    left = left_action(trivial, pts, dict.fromkeys(pts, "e"), {("e", z): z for z in pts})
    ract = {(z, pair_arrow(z, w)): w for z in pts for w in pts}
    right = right_action(pair_groupoid(pts), pts, {z: pair_arrow(z, z) for z in pts}, ract)
    return Equivalence(left, right)


def pair2_point_equivalence() -> Equivalence:
    """The two points linking the pair groupoid of {1,2} to the trivial group."""
    G = pair2()
    H = trivial_group()
    carrier = ["1", "2"]
    left = left_action(
        G,
        carrier,
        {p: pair_arrow(p, p) for p in carrier},
        {(pair_arrow(u, v), v): u for u in carrier for v in carrier},
    )
    right = right_action(
        H, carrier, {p: "e" for p in carrier}, {(p, "e"): p for p in carrier}
    )
    return Equivalence(left, right)


# ---------------------------------------------------------------------------
# documents


def fixture_corpus() -> dict[str, Document]:
    """One parsed document per serializable kind, for round-trip checks."""
    E = rect32()
    return {
        "groupoid-pair2": Document("groupoid", pair2()),
        "groupoid-z2": Document("groupoid", z2()),
        "groupoid-blowup-z2": Document("groupoid", blow_up(*blowup_z2_data()[:2])),
        "system-weighted-pair3": Document("system", weighted_pair3_haar().system),
        "system-z2-skew": Document("system", z2_skew_system()),
        "action-swap": Document("action", swap_action()),
        "action-rect32-right": Document("action", E.right),
        "equivalence-rect32": Document("equivalence", E),
        "cutoff-swap": Document("cutoff", swap_cutoff()),
        "function-z2": Document("function", {"e": Fraction(1, 2), "g": Fraction(-2)}),
    }


# ---------------------------------------------------------------------------
# blow-up instances


def random_blowup_instance(
    rng: random.Random,
) -> tuple[Groupoid, HaarSystem, dict[str, str], FiberSystem]:
    base, max_points = BLOWUP_BASES[rng.choice(sorted(BLOWUP_BASES))]
    G = base()
    f = random_blowup_map(rng, G, max_points)
    lam = scaled_counting_haar(G, rng)
    beta = full_fiber_system(f, {z: positive(rng) for z in sorted(f)})
    return G, lam, f, beta
