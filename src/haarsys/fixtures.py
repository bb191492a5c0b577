"""Named desk-scale objects shared by the demos and the test suite.

Everything is rebuilt on each call so callers can never corrupt a shared
instance.  Tokens follow the constructor conventions; rectangle carrier
points are "row|column".
"""

from __future__ import annotations

from fractions import Fraction

from .actions import (
    Action,
    Equivalence,
    left_action,
    left_translation_action,
    right_action,
    right_translation_action,
)
from .groupoids import Groupoid, group_as_groupoid, pair_arrow, pair_groupoid
from .systems import (
    Cutoff,
    FiberSystem,
    HaarSystem,
    Measure,
    fiber_system,
    full_fiber_system,
    make_haar,
    uniform_cutoff,
)

__all__ = [
    "blowup_z2_data",
    "pair2",
    "pair3",
    "pair_rectangle",
    "rect32",
    "rect_point",
    "self_equivalence",
    "swap_action",
    "swap_beta",
    "swap_cutoff",
    "trivial_group",
    "weighted_pair3_haar",
    "z2",
    "z2_skew_system",
]


def pair2() -> Groupoid:
    return pair_groupoid(["1", "2"])


def pair3() -> Groupoid:
    return pair_groupoid(["1", "2", "3"])


def z2() -> Groupoid:
    """The order-2 group {e, g} as a one-unit groupoid."""
    return group_as_groupoid(
        {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
    )


def trivial_group() -> Groupoid:
    return group_as_groupoid({("e", "e"): "e"})


def swap_action() -> Action:
    """The order-2 group swapping the two points z1, z2."""
    table = {
        ("e", "z1"): "z1",
        ("e", "z2"): "z2",
        ("g", "z1"): "z2",
        ("g", "z2"): "z1",
    }
    return left_action(z2(), ["z1", "z2"], {"z1": "e", "z2": "e"}, table)


def swap_beta() -> FiberSystem:
    """Reference weights (1, 2) on the swap carrier."""
    return full_fiber_system({"z1": "e", "z2": "e"}, {"z1": 1, "z2": 2})


def swap_cutoff() -> Cutoff:
    """Constant 1 over the single swap orbit."""
    return uniform_cutoff({"z1": "z1", "z2": "z1"})


def weighted_pair3_haar() -> HaarSystem:
    """Haar on the pair groupoid of {1,2,3} weighting arrows by source: 1, 2, 3."""
    pts = ["1", "2", "3"]
    m = {"1": Fraction(1), "2": Fraction(2), "3": Fraction(3)}
    G = pair3()
    measures = {
        pair_arrow(u, u): Measure({pair_arrow(u, v): m[v] for v in pts}) for u in pts
    }
    return make_haar(G, fiber_system(G.range_map, measures), "weighted pair system")


def z2_skew_system() -> FiberSystem:
    """Weights (e: 1, g: 2) over the range map of the order-2 group; not invariant."""
    return fiber_system({"e": "e", "g": "e"}, {"e": Measure({"e": 1, "g": 2})})


def rect_point(i: str, t: str) -> str:
    return f"{i}|{t}"


def pair_rectangle(rows, cols) -> Equivalence:
    """The rectangle rows x cols linking the two pair groupoids coordinatewise.

    The row pair groupoid translates the first coordinate from the left, the
    column pair groupoid the second from the right.
    """
    rows = [str(r) for r in rows]
    cols = [str(c) for c in cols]
    G = pair_groupoid(rows)
    H = pair_groupoid(cols)
    carrier = [rect_point(i, t) for i in rows for t in cols]

    left_moment = {rect_point(i, t): pair_arrow(i, i) for i in rows for t in cols}
    left_table = {
        (pair_arrow(u, v), rect_point(v, t)): rect_point(u, t)
        for u in rows
        for v in rows
        for t in cols
    }
    left = left_action(G, carrier, left_moment, left_table)

    right_moment = {rect_point(i, t): pair_arrow(t, t) for i in rows for t in cols}
    right_table = {
        (rect_point(i, t), pair_arrow(t, t2)): rect_point(i, t2)
        for i in rows
        for t in cols
        for t2 in cols
    }
    right = right_action(H, carrier, right_moment, right_table)
    return Equivalence(left, right)


def rect32() -> Equivalence:
    """The 3x2 rectangle as a (pair-of-3, pair-of-2) equivalence."""
    return pair_rectangle(["1", "2", "3"], ["a", "b"])


def self_equivalence(G: Groupoid) -> Equivalence:
    """G linking itself to itself through translation on both sides."""
    return Equivalence(left_translation_action(G), right_translation_action(G))


def blowup_z2_data() -> tuple[Groupoid, dict[str, str], FiberSystem]:
    """The order-2 group, the constant map off {z1, z2}, and counting weights."""
    f = {"z1": "e", "z2": "e"}
    return z2(), f, full_fiber_system(f)
