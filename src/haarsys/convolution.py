"""Convolution algebra of a finite groupoid against a fiber measure family.

Functions are finitely supported with signed rational values.  Convolution
uses the range-fiber formula

    (f * h)(x) = sum over y in the range fiber at r(x) of
                     f(y) * h(inv(y) x) * weight of y at r(x)

computed sparsely over support pairs.  Results are exact Fractions, but the
inner loop multiplies and adds plain ints: the coefficients f(y) * weight
of y are written over one common denominator per range fiber, h over one
per source fiber, and each output value is divided out once at the end.
The associativity oracle certifies a measure family through the algebra it
generates, on a code path deliberately disjoint from the invariance checker:
the two validate each other.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain

from .groupoids import Groupoid, ValidationReport, Violation, _fibers
from .systems import FiberSystem, HaarSystem, Rational, _over_fibers, as_fraction

__all__ = [
    "EXHAUSTIVE_LIMIT",
    "GroupoidFunction",
    "associativity_oracle",
    "convolve",
    "delta",
]

ZERO = Fraction(0)

EXHAUSTIVE_LIMIT = 12


class GroupoidFunction:
    """A finitely supported signed rational function bound to a groupoid."""

    __slots__ = ("groupoid", "values")

    def __init__(self, groupoid: Groupoid, values: Mapping[str, Rational] = ()):
        items = values.items() if isinstance(values, Mapping) else values
        acc: dict[str, Fraction] = {}
        for key, value in sorted(items):
            key = str(key)
            if key not in groupoid.elements:
                raise ValueError(f"function supported off the groupoid: {key}")
            v = as_fraction(value, f"value at {key}")
            if v != 0:
                acc[key] = v
        self.groupoid = groupoid
        self.values = acc

    def value(self, x: str) -> Fraction:
        return self.values.get(x, ZERO)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(self.values)

    def items(self) -> list[tuple[str, Fraction]]:
        return list(self.values.items())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupoidFunction)
            and self.groupoid == other.groupoid
            and self.values == other.values
        )

    def __repr__(self) -> str:
        inside = ", ".join(f"{k}: {v}" for k, v in self.values.items())
        return f"GroupoidFunction({{{inside}}})"


def delta(G: Groupoid, x: str) -> GroupoidFunction:
    """The indicator function of a single element."""
    return GroupoidFunction(G, {x: 1})


def _bind(G: Groupoid, lam: FiberSystem | HaarSystem, context: str) -> FiberSystem:
    if isinstance(lam, HaarSystem):
        if lam.groupoid != G:
            raise ValueError(f"{context}: haar system bound to a different groupoid")
        return lam.system
    if lam.base_map != G.range_map:
        raise ValueError(f"{context}: base map mismatch: expected the range map of the groupoid")
    return lam


def convolve(
    f: GroupoidFunction, h: GroupoidFunction, lam: FiberSystem | HaarSystem
) -> GroupoidFunction:
    """Convolve two functions against a fiber family over the range map.

    The family does not have to be a Haar system; associativity of the
    resulting product is exactly what left invariance buys.

    The kernel adds plain ints and stays exact.  The coefficients
    f(y) * weight of y at r(y) are brought to integers over one common
    denominator per range fiber, and h over one per source fiber.  A product
    term for x = yz is then an integer over den(r(y)) * den(s(z)); terms are
    summed per (x, r(y), s(z)), which stays exact even on a table whose
    products leave their fibers, and each sum becomes one Fraction at the
    end.  Denominators are per fiber because one denominator for the whole
    function multiplies together the coprime denominators of unrelated
    fibers, and the integers grow with it.  With h indexed by range:
    O(|f| + |h| + composable support pairs).
    """
    if f.groupoid != h.groupoid:
        raise ValueError("groupoid mismatch")
    G = f.groupoid
    sys = _bind(G, lam, "convolve")
    ends = (("range", G.range_map, chain(f.values, h.values)), ("source", G.source_map, f.values))
    for name, table, points in ends:
        for x in points:
            if x not in table:
                raise ValueError(f"convolve: {name} undefined: x={x}")
    r, s = G.range_map, G.source_map
    coeffs = {}
    for y, fy in f.items():
        wy = sys.weight(r[y], y)
        if wy != 0:
            coeffs[y] = fy * wy
    cnum, cden = _over_fibers(coeffs, r.__getitem__)
    hnum, hden = _over_fibers(h.values, s.get)
    by_range = _fibers(((z, n, s.get(z)) for z, n in hnum.items()), lambda t: r[t[0]])
    compose = G.compose_map.get
    acc: dict[tuple, int] = {}
    for y, c in cnum.items():
        ry = r[y]
        for z, n, sz in by_range.get(s[y], ()):
            x = compose((y, z))
            if x is None:
                raise ValueError(f"convolve: compose missing on composable pair: x={y} y={z}")
            key = (x, ry, sz)
            acc[key] = acc.get(key, 0) + c * n
    out: dict[str, Fraction] = {}
    for (x, ry, sz), n in acc.items():
        term = Fraction(n, cden[ry] * hden[sz])
        out[x] = out[x] + term if x in out else term
    return GroupoidFunction(G, out)


def _fmt(f: GroupoidFunction) -> str:
    if not f.values:
        return "0"
    return " + ".join(f"{k}" if v == 1 else f"{v}*{k}" for k, v in f.items())


def _first_difference(
    lhs: GroupoidFunction, rhs: GroupoidFunction
) -> tuple[str, Fraction, Fraction] | None:
    for x in sorted(set(lhs.support) | set(rhs.support)):
        if lhs.value(x) != rhs.value(x):
            return x, lhs.value(x), rhs.value(x)
    return None


def _random_function(G: Groupoid, rng: random.Random) -> GroupoidFunction:
    els = G.sorted_elements()
    picked = rng.sample(els, rng.randint(1, min(3, len(els))))
    values = {
        x: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        for x in picked
    }
    return GroupoidFunction(G, values)


def associativity_oracle(
    G: Groupoid, lam: FiberSystem | HaarSystem, trials: int = 64, seed: int = 0
) -> ValidationReport:
    """Check that convolution against the family is associative.

    Small groupoids get the exhaustive indicator basis, which decides
    associativity exactly by bilinearity; larger ones get seeded random
    signed combinations.  The first violating triple is reported with the
    element where the two bracketings disagree.  trials must be at least 1.
    """
    if trials < 1:
        raise ValueError(f"associativity oracle: trials must be at least 1, got {trials}")
    sys = _bind(G, lam, "associativity oracle")
    rfib = G.range_fibers()
    for u in sorted(G.units | set(sys.measures)):  # a measure keyed off the units has an empty fiber
        fiber = set(rfib.get(u, ())) if u in G.units else set()
        for y in sys.measure(u).support:
            if y not in fiber:
                raise ValueError(f"family supported off its range fiber: unit={u} element={y}")

    if len(G.elements) <= EXHAUSTIVE_LIMIT:
        els = G.sorted_elements()
        # diagonal triples first: the cheapest certificates, and the natural witnesses
        indices = chain(((x, x, x) for x in els), ((a, b, c) for a in els for b in els for c in els))
        triples = ((delta(G, a), delta(G, b), delta(G, c)) for a, b, c in indices)
        note = f"mode: exhaustive ({len(els) ** 3} indicator triples, diagonal first)"
    else:
        rng = random.Random(seed)
        triples = (
            (_random_function(G, rng), _random_function(G, rng), _random_function(G, rng))
            for _ in range(trials)
        )
        note = f"mode: randomized ({trials} signed-combination triples, seed {seed})"

    for f, h, k in triples:
        lhs = convolve(convolve(f, h, sys), k, sys)
        rhs = convolve(f, convolve(h, k, sys), sys)
        diff = _first_difference(lhs, rhs)
        if diff is not None:
            x, lv, rv = diff
            witness = (
                f"f={_fmt(f)}",
                f"h={_fmt(h)}",
                f"k={_fmt(k)}",
                f"x={x}",
                f"lhs={lv}",
                f"rhs={rv}",
            )
            return ValidationReport((Violation("associativity", witness),), (note,))
    return ValidationReport((), (note,))
