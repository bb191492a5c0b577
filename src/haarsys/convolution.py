"""Convolution algebra of a finite groupoid against a fiber measure family.

Functions are finitely supported with signed rational values.  Convolution
uses the range-fiber formula

    (f * h)(x) = sum over y in the range fiber at r(x) of
                     f(y) * h(inv(y) x) * weight of y at r(x)

computed sparsely over support pairs.  The associativity oracle certifies a
measure family through the algebra it generates, on a code path deliberately
disjoint from the invariance checker: the two validate each other.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from fractions import Fraction
from itertools import chain

from .groupoids import Groupoid, ValidationReport, Violation
from .systems import FiberSystem, HaarSystem, Rational, as_fraction

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

    def plus(self, other: "GroupoidFunction") -> "GroupoidFunction":
        if self.groupoid != other.groupoid:
            raise ValueError("groupoid mismatch")
        keys = set(self.values) | set(other.values)
        return GroupoidFunction(self.groupoid, {k: self.value(k) + other.value(k) for k in keys})

    def scaled(self, c: Rational) -> "GroupoidFunction":
        factor = as_fraction(c, "scale factor")
        return GroupoidFunction(self.groupoid, {k: v * factor for k, v in self.values.items()})

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
    """
    if f.groupoid != h.groupoid:
        raise ValueError("groupoid mismatch")
    G = f.groupoid
    sys = _bind(G, lam, "convolve")
    out: dict[str, Fraction] = {}
    for y, fy in f.items():
        wy = sys.weight(G.range_map[y], y)
        if wy == 0:
            continue
        sy = G.source_map[y]
        for z, hz in h.items():
            if G.range_map[z] != sy:
                continue
            x = G.compose_map.get((y, z))
            if x is None:
                raise ValueError(f"convolve: compose missing on composable pair: x={y} y={z}")
            out[x] = out.get(x, ZERO) + fy * hz * wy
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
    element where the two bracketings disagree.
    """
    sys = _bind(G, lam, "associativity oracle")
    rfib = G.range_fibers()
    for u in G.sorted_units():
        fiber = set(rfib.get(u, ()))
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
