"""Pinned public behaviour: exact failure messages and demo bytes.

These fix what a refactor of the validation flow must leave alone: the text
of every public failure path, and the sha256 of every demo.
"""

from __future__ import annotations

import hashlib

import pytest

from haarsys import (
    Action,
    Equivalence,
    HaarSystem,
    Measure,
    average_system,
    blowup_haar,
    counting_haar,
    fiber_system,
    full_fiber_system,
    imprimitivity_groupoid,
    imprimitivity_haar,
    imprimitivity_iso,
    left_action,
    make_groupoid,
    make_haar,
    orbit_space,
    pair_arrow,
    principal_haar,
    psi_phi,
    relation_arrow,
    relation_groupoid,
    right_action,
    transfer_haar,
    transitive_haar,
    uniform_cutoff,
)
from haarsys.cli import main
from haarsys.fixtures import (
    blowup_z2_data,
    pair2,
    pair3,
    rect32,
    swap_action,
    swap_beta,
    swap_cutoff,
    trivial_group,
    weighted_pair3_haar,
    z2,
    z2_skew_system,
)


def broken_inverse(G, x):
    """G with inv(x) set to x itself: parses, fails validate_groupoid."""
    inv = dict(G.inverse_map)
    inv[x] = x
    return make_groupoid(G.elements, G.units, G.range_map, G.source_map, inv, G.compose_map)


def range_weighted_pair3():
    """Weights by range index over pair(3): full, but not left invariant."""
    G = pair3()
    measures = {
        pair_arrow(u, u): Measure({pair_arrow(u, v): int(u) for v in "123"}) for u in "123"
    }
    return HaarSystem(G, fiber_system(G.range_map, measures))


def right_groupoid_broken():
    E = rect32()
    R = E.right
    bad = broken_inverse(R.groupoid, "pair:a,b")
    return Equivalence(E.left, Action(bad, R.carrier, R.moment, R.act, "right"))


def untransitive_equivalence():
    carrier = ["1|a", "1|b", "2|a", "2|b"]
    lact = {
        (pair_arrow(u, v), f"{v}|{t}"): f"{u}|{t}" for u in "12" for v in "12" for t in "ab"
    }
    left = left_action(pair2(), carrier, {z: pair_arrow(z[0], z[0]) for z in carrier}, lact)
    right = right_action(
        trivial_group(), carrier, {z: "e" for z in carrier}, {(z, "e"): z for z in carrier}
    )
    return Equivalence(left, right)


def without_entry(A, key):
    """A with one action-table entry dropped: fails validate_action."""
    act = {k: v for k, v in A.act.items() if k != key}
    return Action(A.groupoid, A.carrier, A.moment, act, A.side)


def swap_missing_entry():
    return without_entry(swap_action(), ("g", "z2"))


BLOWUP_MAP = blowup_z2_data()[1]


def two_classes():
    return relation_groupoid({"a": "x", "b": "x", "c": "y"})


def transfer_with(**overrides):
    E = rect32()
    args = {"G": pair3(), "lam": weighted_pair3_haar(), "E": E}
    args.update({k: v(E) if callable(v) else v for k, v in overrides.items()})
    return lambda: transfer_haar(**args)


FAILURES = {
    "transfer-groupoid-left": (
        transfer_with(G=broken_inverse(pair3(), "pair:1,2")),
        "PipelineError: [stage: groupoid] invalid left groupoid: violation inverse range law: x=pair:1,2 inv(x)=pair:1,2",
    ),
    "transfer-groupoid-right": (
        transfer_with(E=lambda _: right_groupoid_broken()),
        "PipelineError: [stage: groupoid] invalid right groupoid: violation inverse range law: x=pair:a,b inv(x)=pair:a,b",
    ),
    "transfer-equivalence-foreign": (
        transfer_with(G=pair2(), lam=counting_haar(pair2())),
        "PipelineError: [stage: equivalence] left groupoid of the equivalence is not the given one",
    ),
    "transfer-equivalence-invalid": (
        transfer_with(G=pair2(), lam=counting_haar(pair2()), E=lambda _: untransitive_equivalence()),
        "PipelineError: [stage: equivalence] invalid equivalence: violation right action not transitive on left-moment fiber: unit=pair:1,1 orbit=1|a orbit=1|b",
    ),
    "transfer-haar-foreign": (
        transfer_with(lam=counting_haar(pair2())),
        "PipelineError: [stage: haar] haar system bound to a different groupoid",
    ),
    "transfer-haar-invalid": (
        transfer_with(lam=range_weighted_pair3()),
        "PipelineError: [stage: haar] not a Haar system: violation left invariance: x=pair:1,2 z=pair:1,1 lhs=1 rhs=2",
    ),
    "transfer-phi-partition": (
        transfer_with(phi=lambda E: uniform_cutoff({z: z for z in E.carrier})),
        "PipelineError: [stage: phi] cut-off: cut-off quotient does not induce the orbit partition",
    ),
    "transfer-phi-domain": (
        transfer_with(phi=lambda E: uniform_cutoff({z: "q" for z in sorted(E.carrier)[1:]})),
        "PipelineError: [stage: phi] cut-off: cut-off quotient domain differs from the carrier",
    ),
    "transfer-beta-fullness": (
        transfer_with(beta=lambda E: fiber_system(E.left.moment, {})),
        "PipelineError: [stage: beta] not a full system: violation fullness: base=pair:1,1 point=1|a",
    ),
    "transfer-beta-base-map": (
        transfer_with(beta=lambda E: full_fiber_system(E.right.moment)),
        "PipelineError: [stage: beta] base map mismatch: expected the left moment map",
    ),
    "average-lambda": (
        lambda: average_system(HaarSystem(z2(), z2_skew_system()), swap_action(), swap_beta(), swap_cutoff()),
        "ValueError: not a Haar system: violation left invariance: x=g z=e lhs=1 rhs=2",
    ),
    "average-phi": (
        lambda: average_system(
            counting_haar(z2()), swap_action(), swap_beta(), uniform_cutoff({"z1": "z1", "z2": "z2"})
        ),
        "ValueError: averaging weight: cut-off quotient does not induce the orbit partition",
    ),
    "imprimitivity-haar-equivariance": (
        lambda: imprimitivity_haar(swap_action(), swap_beta()),
        "ValueError: not equivariant: violation equivariance: g=g z=z1 lhs=2 rhs=1",
    ),
    "imprimitivity-groupoid-action": (
        lambda: imprimitivity_groupoid(swap_missing_entry()),
        "ValueError: invalid action: violation domain: g=g z=z2 missing",
    ),
    "imprimitivity-iso-action": (
        lambda: imprimitivity_iso(
            Equivalence(without_entry(rect32().left, ("pair:1,2", "2|a")), rect32().right)
        ),
        "ValueError: invalid action: violation domain: g=pair:1,2 z=2|a missing",
    ),
    "psi-phi": (
        lambda: psi_phi({}, uniform_cutoff({"z1": "z1", "z2": "z2"}), swap_beta(), swap_action()),
        "ValueError: averaging weight: cut-off quotient does not induce the orbit partition",
    ),
    "blowup-haar": (
        lambda: blowup_haar(z2(), counting_haar(z2()), BLOWUP_MAP, fiber_system(BLOWUP_MAP, {})),
        "ValueError: not a full system: violation fullness: base=e point=z1",
    ),
    "principal-haar": (
        lambda: principal_haar(z2(), full_fiber_system({"e": "e"})),
        "ValueError: not principal: non-unit arrow with equal range and source: g",
    ),
    "transitive-haar": (
        lambda: transitive_haar(two_classes(), relation_arrow("a", "a"), counting_haar(trivial_group())),
        "ValueError: not transitive: unit rel:c,c is not reachable from rel:a,a",
    ),
    "make-haar": (
        lambda: make_haar(z2(), z2_skew_system(), "skew family"),
        "ValueError: skew family: violation left invariance: x=g z=e lhs=1 rhs=2",
    ),
    "orbit-space": (
        lambda: orbit_space(swap_missing_entry()),
        "ValueError: invalid action: violation domain: g=g z=z2 missing",
    ),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_public_failure_message_is_pinned(case):
    call, expected = FAILURES[case]
    with pytest.raises(ValueError) as err:
        call()
    assert f"{type(err.value).__name__}: {err.value}" == expected


DEMO_SHA256 = {
    "blowup-z2": "9044365c06cb0c7120537ed8c02166e2391d6a616380027a8e3c166d2cf15673",
    "pair3-weighted": "8bd1ce743387158d90eed69f3303f4969cacdf215aa59738b789c0b67194893f",
    "rect32-transfer": "8841ad3f32b92b033784f2d8649db155dec7c1d4cbeba513298b1b714cbbf83b",
    "swap-average": "413abfba2719bc61fc66d73629bf0713f4ebf5ffbfa4bf0706cb14b56560f72b",
    "z2-nonassoc": "65cb3a6a725b2fdaf1269027acfa30dc4d8782cb0af5b24eea3bd319e8e79e3f",
}


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_bytes_are_pinned(name, capsys):
    assert main(["demo", name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEMO_SHA256[name]
