"""Fiber-indexed families of rational measures, Haar systems, and cut-off functions.

All weights are exact fractions.  Measures are sparse: an absent key weighs
zero, and zero entries are normalised away so equality is canonical.
Finiteness makes the usual continuity demands vacuous; checkers record that
in their notes instead of pretending to test it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import ClassVar, Union

from .groupoids import Groupoid, ValidationReport, Violation

__all__ = [
    "Cutoff",
    "FiberSystem",
    "HaarSystem",
    "Measure",
    "Rational",
    "as_fraction",
    "check_haar",
    "check_system",
    "counting_haar",
    "cutoff_function",
    "fiber_system",
    "full_fiber_system",
    "make_haar",
    "representative_cutoff",
    "uniform_cutoff",
]

Rational = Union[Fraction, int, str]

CONTINUITY_NOTE = "continuity: vacuous (finite discrete)"

ZERO = Fraction(0)


def as_fraction(value: Rational, where: str = "weight") -> Fraction:
    if isinstance(value, float):
        # floats round; exact work wants "p/q" strings or Fractions
        raise ValueError(f"{where}: refusing float {value!r}, write a p/q string instead")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ValueError(f"{where}: not a rational: {value!r}") from exc


class Measure:
    """A finitely supported measure with nonnegative rational weights."""

    __slots__ = ("weights",)

    def __init__(self, weights: Mapping[str, Rational] = ()):
        items = weights.items() if isinstance(weights, Mapping) else weights
        acc: dict[str, Fraction] = {}
        for key, value in sorted(items):
            w = as_fraction(value, f"weight of {key}")
            if w < 0:
                raise ValueError(f"measure weight must be nonnegative: {key} -> {w}")
            if w != 0:
                acc[str(key)] = w
        self.weights = acc

    def weight(self, x: str) -> Fraction:
        return self.weights.get(x, ZERO)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(self.weights)

    def items(self) -> list[tuple[str, Fraction]]:
        return list(self.weights.items())

    def total(self) -> Fraction:
        return sum(self.weights.values(), ZERO)

    def scaled(self, c: Rational) -> "Measure":
        factor = as_fraction(c, "scale factor")
        return Measure({k: v * factor for k, v in self.weights.items()})

    def plus(self, other: "Measure") -> "Measure":
        keys = set(self.weights) | set(other.weights)
        return Measure({k: self.weight(k) + other.weight(k) for k in keys})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Measure) and self.weights == other.weights

    def __repr__(self) -> str:
        inside = ", ".join(f"{k}: {v}" for k, v in self.weights.items())
        return f"Measure({{{inside}}})"


@dataclass(frozen=True)
class FiberSystem:
    """A family of measures indexed by the codomain of a base map.

    The base map sends each point of the total space to its base point; the
    measure at a base point is meant to live on that fiber (check_system
    verifies it does).
    """

    base_map: dict[str, str]
    measures: dict[str, Measure]

    def domain(self) -> list[str]:
        return sorted(self.base_map)

    def codomain(self) -> list[str]:
        return sorted(set(self.base_map.values()) | set(self.measures))

    def fiber(self, x: str) -> list[str]:
        return sorted(y for y, b in self.base_map.items() if b == x)

    def measure(self, x: str) -> Measure:
        return self.measures.get(x, Measure())

    def weight(self, x: str, y: str) -> Fraction:
        return self.measure(x).weight(y)


def fiber_system(base_map: Mapping[str, str], measures: Mapping[str, Measure]) -> FiberSystem:
    """Assemble a FiberSystem with canonically sorted tables."""
    return FiberSystem(
        base_map=dict(sorted((str(k), str(v)) for k, v in base_map.items())),
        measures=dict(sorted((str(k), m) for k, m in measures.items())),
    )


def full_fiber_system(
    pi: Mapping[str, str],
    weights: Mapping[str, Rational] | None = None,
    codomain: Iterable[str] | None = None,
) -> FiberSystem:
    """The full system over pi: each fiber carries the given per-point weights.

    Weights default to counting (1 on every point) and must be strictly
    positive, so the result is full by construction.  An explicitly given
    codomain must be entirely reached by pi.
    """
    base = {str(y): str(x) for y, x in pi.items()}
    targets = sorted(set(base.values()))
    if codomain is not None:
        wanted = sorted({str(x) for x in codomain})
        stray = sorted(set(targets) - set(wanted))
        if stray:
            raise ValueError(f"base map leaves the codomain: {', '.join(stray)}")
        empty = sorted(set(wanted) - set(targets))
        if empty:
            raise ValueError(f"base map not surjective; empty fibers at: {', '.join(empty)}")
    per_point: dict[str, Fraction] = {}
    for y in sorted(base):
        if weights is None:
            per_point[y] = Fraction(1)
        else:
            if y not in weights:
                raise ValueError(f"no weight given for point {y}")
            w = as_fraction(weights[y], f"weight of {y}")
            if w <= 0:
                raise ValueError(f"full system needs strictly positive weights: {y} -> {w}")
            per_point[y] = w
    measures = {
        x: Measure({y: per_point[y] for y in base if base[y] == x}) for x in targets
    }
    return fiber_system(base, measures)


def check_system(system: FiberSystem) -> ValidationReport:
    """Check support containment in fibers and fullness, with witnesses."""
    bad: list[Violation] = []
    fibers: dict[str, set[str]] = {x: set() for x in system.codomain()}
    for y in system.domain():
        fibers.setdefault(system.base_map[y], set()).add(y)
    for x in system.codomain():
        fiber = fibers.get(x, set())
        m = system.measure(x)
        for y in m.support:
            if y not in fiber:
                bad.append(Violation("support containment", (f"base={x}", f"point={y}")))
        for y in sorted(fiber):
            if m.weight(y) == 0:
                bad.append(Violation("fullness", (f"base={x}", f"point={y}")))
    return ValidationReport(tuple(bad), (CONTINUITY_NOTE,))


@dataclass(frozen=True)
class HaarSystem:
    """A fiber system over a groupoid's range map, packaged with its groupoid."""

    groupoid: Groupoid
    system: FiberSystem

    def measure(self, u: str) -> Measure:
        return self.system.measure(u)

    def weight(self, u: str, x: str) -> Fraction:
        return self.system.weight(u, x)


def _unwrap(system: FiberSystem | HaarSystem) -> FiberSystem:
    return system.system if isinstance(system, HaarSystem) else system


def check_haar(G: Groupoid, system: FiberSystem | HaarSystem) -> ValidationReport:
    """Check fullness and left invariance of a candidate Haar system.

    Left invariance is pointwise: the weight of z in the range fiber at r(x)
    must equal the weight of inv(x)z at s(x), for every arrow x.  The base
    map must be G's range map on the nose; anything else is a usage error.
    """
    if isinstance(system, HaarSystem) and system.groupoid != G:
        raise ValueError("haar system bound to a different groupoid")
    sys = _unwrap(system)
    if sys.base_map != G.range_map:
        raise ValueError("base map mismatch: expected the range map of the groupoid")
    bad: list[Violation] = []
    rfib = G.range_fibers()
    for u in G.sorted_units():
        m = sys.measure(u)
        fiber = set(rfib.get(u, ()))
        for y in m.support:
            if y not in fiber:
                bad.append(Violation("support containment", (f"unit={u}", f"arrow={y}")))
        for y in sorted(fiber):
            if m.weight(y) == 0:
                bad.append(Violation("fullness", (f"unit={u}", f"arrow={y}")))
    for x in G.sorted_elements():
        rx, sx = G.range_map[x], G.source_map[x]
        xi = G.inverse_map[x]
        left = sys.measure(rx)
        right = sys.measure(sx)
        for z in rfib.get(rx, ()):
            translated = G.compose_map.get((xi, z))
            if translated is None:
                bad.append(Violation("compose missing on composable pair", (f"x={xi}", f"y={z}")))
                continue
            lhs = left.weight(z)
            rhs = right.weight(translated)
            if lhs != rhs:
                bad.append(
                    Violation("left invariance", (f"x={x}", f"z={z}", f"lhs={lhs}", f"rhs={rhs}"))
                )
    return ValidationReport(tuple(bad), (CONTINUITY_NOTE,))


def make_haar(G: Groupoid, system: FiberSystem | HaarSystem, context: str = "haar system") -> HaarSystem:
    """Wrap a fiber system as a HaarSystem after check_haar passes."""
    check_haar(G, system).require(context)
    return HaarSystem(G, _unwrap(system))


def counting_haar(G: Groupoid) -> HaarSystem:
    """The counting Haar system: every arrow weighs 1 in its range fiber."""
    measures = {u: Measure({x: 1 for x in fiber}) for u, fiber in G.range_fibers().items()}
    return make_haar(G, fiber_system(G.range_map, measures), "counting system")


@dataclass(frozen=True)
class Cutoff:
    """A nonnegative weight function whose support meets every quotient fiber.

    The quotient map tells which points must be reached: the image of the
    support under the quotient map has to be the whole image of the map.
    Support compactness is automatic at finite scale and recorded as such.
    """

    weights: Measure
    quotient_map: dict[str, str]

    support_note: ClassVar[str] = "compact support: vacuous (finite discrete)"

    def __post_init__(self) -> None:
        if not isinstance(self.weights, Measure):
            object.__setattr__(self, "weights", Measure(self.weights))
        object.__setattr__(
            self, "quotient_map", dict(sorted((str(k), str(v)) for k, v in self.quotient_map.items()))
        )
        domain = set(self.quotient_map)
        for z in self.weights.support:
            if z not in domain:
                raise ValueError(f"cut-off supported off the quotient domain: {z}")
        reached = {self.quotient_map[z] for z in self.weights.support}
        missing = sorted(set(self.quotient_map.values()) - reached)
        if missing:
            raise ValueError(f"cut-off misses quotient fibers at: {', '.join(missing)}")

    def weight(self, z: str) -> Fraction:
        return self.weights.weight(z)


def cutoff_function(
    q: Mapping[str, str],
    cover: Iterable[Iterable[str]],
    partition: Iterable[Mapping[str, Rational]],
    local_sections: Iterable[Mapping[str, Rational]],
) -> Cutoff:
    """Assemble a cut-off from a cover, a partition of unity, and local sections.

    Each cover set V_i comes with a partition weight alpha_i supported in V_i
    (summing to 1 over the base) and a local section phi_i whose support maps
    onto V_i.  The result is z -> sum_i phi_i(z) * alpha_i(q(z)), and the
    defining property, that the support meets every fiber of q, is verified
    before returning.
    """
    qm = {str(z): str(x) for z, x in q.items()}
    base = sorted(set(qm.values()))
    sets = [sorted({str(x) for x in V}) for V in cover]
    alphas = [
        {str(x): as_fraction(v, f"partition weight of {x}") for x, v in a.items()} for a in partition
    ]
    phis = [
        {str(z): as_fraction(v, f"section weight of {z}") for z, v in p.items()} for p in local_sections
    ]
    if not (len(sets) == len(alphas) == len(phis)):
        raise ValueError("cover, partition and local sections must have equal length")

    covered = set().union(*sets) if sets else set()
    missing = sorted(set(base) - covered)
    if missing:
        raise ValueError(f"cover misses base points: {', '.join(missing)}")
    for i, (V, alpha) in enumerate(zip(sets, alphas)):
        for x, v in sorted(alpha.items()):
            if v < 0:
                raise ValueError(f"partition weight negative: set {i}, {x} -> {v}")
            if v > 0 and x not in V:
                raise ValueError(f"partition weight outside its cover set: set {i}, {x}")
    for x in base:
        total = sum((alpha.get(x, ZERO) for alpha in alphas), ZERO)
        if total != 1:
            raise ValueError(f"partition does not sum to 1 at {x}: {total}")
    for i, (V, phi) in enumerate(zip(sets, phis)):
        for z, v in sorted(phi.items()):
            if v < 0:
                raise ValueError(f"local section negative: set {i}, {z} -> {v}")
        reached = {qm[z] for z, v in phi.items() if v > 0 and z in qm}
        uncovered = sorted(set(V) - reached)
        if uncovered:
            raise ValueError(f"local section {i} misses its cover set at: {', '.join(uncovered)}")

    weights = {}
    for z in sorted(qm):
        value = sum((phi.get(z, ZERO) * alpha.get(qm[z], ZERO) for phi, alpha in zip(phis, alphas)), ZERO)
        weights[z] = value
    return Cutoff(Measure(weights), qm)


def uniform_cutoff(q: Mapping[str, str]) -> Cutoff:
    """The constant-1 cut-off over a quotient map."""
    qm = {str(z): str(x) for z, x in q.items()}
    return Cutoff(Measure({z: 1 for z in qm}), qm)


def _partition_reps(q: Mapping[str, str]) -> dict[str, str]:
    """Map each point to the least point of its quotient fiber."""
    least: dict[str, str] = {}
    for z in sorted(q, reverse=True):
        least[q[z]] = z
    return {z: least[q[z]] for z in q}


def representative_cutoff(q: Mapping[str, str]) -> Cutoff:
    """Indicator of the least point of each quotient fiber."""
    qm = {str(z): str(x) for z, x in q.items()}
    return Cutoff(Measure({z: 1 for z in _partition_reps(qm).values()}), qm)
