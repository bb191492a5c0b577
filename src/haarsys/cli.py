"""Command line surface: validators, constructions, convolution, and demos.

Exit codes are a stable contract: 0 on success, 1 when a validator or a
construction stage rejects the mathematics, 2 when the input itself is
unusable (unreadable file, malformed document, wrong document kind).  A
broken internal invariant (a RuntimeError "internal: ...") also exits 1,
with the one line "error: internal: ..." on stderr and no traceback.
Output documents and demo texts are byte-stable across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import fixtures
from .actions import (
    imprimitivity_groupoid,
    orbit_space,
    validate_action,
    validate_equivalence,
)
from .convolution import GroupoidFunction, associativity_oracle, convolve, delta
from .documents import Document, SchemaError, _load_json, _schema, parse, serialize
from .groupoids import ValidationReport, blow_up, validate_groupoid
from .systems import (
    Cutoff,
    check_haar,
    check_system,
    counting_haar,
    make_haar,
    uniform_cutoff,
)
from .transfer import (
    average_system,
    blowup_haar,
    check_equivariant,
    imprimitivity_haar,
    transfer_haar,
)

__all__ = ["console_main", "main"]

BETA_DEFAULT_NOTE = "counting system over the left moment map (default)"
PHI_DEFAULT_NOTE = "indicator of canonical orbit representatives (default)"


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load(path: str, *kinds: str) -> Document:
    doc = parse(_read_text(path))
    if doc.kind not in kinds:
        raise SchemaError(f"{path}: expected a {' or '.join(kinds)} document, got {doc.kind}")
    return doc


def _load_map(path: str) -> dict[str, str]:
    try:
        data = _load_json(_read_text(path))
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    if not isinstance(data, dict) or not all(isinstance(v, str) for v in data.values()):
        raise SchemaError(f"{path}: expected an object mapping points to unit tokens")
    return data


def _report_outcome(report: ValidationReport) -> int:
    print(report.render())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args: argparse.Namespace) -> int:
    doc = parse(_read_text(args.file))
    if doc.kind == "groupoid":
        report = validate_groupoid(doc.payload)
    elif doc.kind == "system":
        report = check_system(doc.payload)
    elif doc.kind == "action":
        report = validate_action(doc.payload)
    elif doc.kind == "equivalence":
        report = validate_equivalence(doc.payload)
    elif doc.kind == "cutoff":
        report = ValidationReport(
            (), (Cutoff.support_note, "defining property verified at construction")
        )
    else:
        report = ValidationReport((), ("signed rational values: nothing further to check",))
    return _report_outcome(report)


def cmd_check_haar(args: argparse.Namespace) -> int:
    G = _load(args.groupoid, "groupoid").payload
    S = _load(args.system, "system").payload
    return _report_outcome(check_haar(G, S))


def cmd_transfer(args: argparse.Namespace) -> int:
    G = _load(args.groupoid, "groupoid").payload
    lam = make_haar(G, _load(args.haar, "system").payload, "input haar")
    E = _load(args.equivalence, "equivalence").payload
    beta = _load(args.beta, "system").payload if args.beta else None
    phi = _load(args.phi, "cutoff").payload if args.phi else None
    result = transfer_haar(G, lam, E, beta=beta, phi=phi)
    meta = {
        "construction": "transferred across equivalence",
        "beta": "user-supplied document" if args.beta else BETA_DEFAULT_NOTE,
        "phi": "user-supplied document" if args.phi else PHI_DEFAULT_NOTE,
    }
    _write_text(args.out, serialize(Document("system", result.system, meta)))
    return 0


def cmd_blowup(args: argparse.Namespace) -> int:
    G = _load(args.groupoid, "groupoid").payload
    fm = _load_map(args.map)
    beta = _load(args.fsystem, "system").payload
    if beta.base_map != fm:
        raise ValueError("fiber system base map does not match the blow-up map")
    check_system(beta).require("not a full system")
    if args.haar:
        lam = make_haar(G, _load(args.haar, "system").payload, "input haar")
        kappa = blowup_haar(G, lam, fm, beta)
        meta = {"construction": "blow-up haar"}
        _write_text(args.out, serialize(Document("system", kappa.system, meta)))
    else:
        validate_groupoid(G).require("invalid groupoid")
        big = blow_up(G, fm)
        _write_text(args.out, serialize(Document("groupoid", big, {"construction": "blow-up"})))
    return 0


def cmd_imprimitivity(args: argparse.Namespace) -> int:
    A = _load(args.action, "action").payload
    if args.system:
        nu = _load(args.system, "system").payload
        haar = imprimitivity_haar(A, nu)
        meta = {"construction": "imprimitivity haar"}
        _write_text(args.out, serialize(Document("system", haar.system, meta)))
    else:
        imp, _ = imprimitivity_groupoid(A)
        _write_text(args.out, serialize(Document("groupoid", imp, {"construction": "imprimitivity"})))
    return 0


def cmd_convolve(args: argparse.Namespace) -> int:
    G = _load(args.groupoid, "groupoid").payload
    lam = _load(args.system, "system").payload
    with _schema(""):
        f = GroupoidFunction(G, _load(args.f, "function").payload)
        h = GroupoidFunction(G, _load(args.h, "function").payload)
    result = convolve(f, h, lam)
    _write_text(None, serialize(Document("function", dict(result.items()))))
    return 0


def cmd_assoc_check(args: argparse.Namespace) -> int:
    G = _load(args.groupoid, "groupoid").payload
    lam = _load(args.system, "system").payload
    return _report_outcome(associativity_oracle(G, lam, trials=args.trials))


def cmd_demo(args: argparse.Namespace) -> int:
    sys.stdout.write(DEMOS[args.name]())
    return 0


# ---------------------------------------------------------------------------
# demos


def _sections(title: str, parts: list[tuple[str, str]]) -> str:
    lines = [f"== {title} ==", ""]
    for name, body in parts:
        lines.append(f"-- {name} --")
        lines.append(body.rstrip("\n"))
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _show_function(f: GroupoidFunction) -> str:
    if not f.values:
        return "0"
    return " + ".join(f"{v}*{k}" for k, v in f.items())


def demo_pair3_weighted() -> str:
    lam = fixtures.weighted_pair3_haar()
    G = lam.groupoid
    return _sections(
        "pair groupoid of three points, arrows weighted 1, 2, 3 by source",
        [
            ("groupoid", serialize(Document("groupoid", G))),
            ("haar system", serialize(Document("system", lam.system))),
            ("check-haar", check_haar(G, lam).render()),
        ],
    )


def demo_swap_average() -> str:
    A = fixtures.swap_action()
    beta = fixtures.swap_beta()
    phi = fixtures.swap_cutoff()
    lam = counting_haar(A.groupoid)
    nu = average_system(lam, A, beta, phi)
    return _sections(
        "averaging the (1, 2) weights over the two-point swap",
        [
            ("action", serialize(Document("action", A))),
            ("reference weights", serialize(Document("system", beta))),
            ("cut-off", serialize(Document("cutoff", phi))),
            ("averaged system", serialize(Document("system", nu))),
            ("fullness", check_system(nu).render()),
            ("equivariance", check_equivariant(A, nu).render()),
        ],
    )


def demo_rect32_transfer() -> str:
    E = fixtures.rect32()
    lam = fixtures.weighted_pair3_haar()
    _, q = orbit_space(E.left)
    phi = uniform_cutoff(q)
    result = transfer_haar(lam.groupoid, lam, E, phi=phi)
    meta = {
        "construction": "transferred across equivalence",
        "beta": BETA_DEFAULT_NOTE,
        "phi": "constant 1 over the left orbit map (user choice)",
    }
    return _sections(
        "carrying the weighted Haar system across the 3x2 rectangle",
        [
            ("haar on the row groupoid", serialize(Document("system", lam.system))),
            ("equivalence", serialize(Document("equivalence", E))),
            (
                "transferred haar on the column groupoid",
                serialize(Document("system", result.system, meta)),
            ),
            ("check-haar", check_haar(result.groupoid, result).render()),
        ],
    )


def demo_z2_nonassoc() -> str:
    G = fixtures.z2()
    lam = fixtures.z2_skew_system()
    d = delta(G, "g")
    lhs = convolve(convolve(d, d, lam), d, lam)
    rhs = convolve(d, convolve(d, d, lam), lam)
    return _sections(
        "a non-invariant family breaks convolution associativity",
        [
            ("measure family", serialize(Document("system", lam))),
            ("check-haar", check_haar(G, lam).render()),
            (
                "bracketings of the g indicator",
                f"(f*f)*f = {_show_function(lhs)}\nf*(f*f) = {_show_function(rhs)}",
            ),
            ("associativity oracle", associativity_oracle(G, lam).render()),
        ],
    )


def demo_blowup_z2() -> str:
    G, fm, beta = fixtures.blowup_z2_data()
    lam = counting_haar(G)
    big = blow_up(G, fm)
    kappa = blowup_haar(G, lam, fm, beta)
    return _sections(
        "blowing up the order-2 group along a two-point fiber",
        [
            ("base groupoid", serialize(Document("groupoid", G))),
            ("blow-up map", json.dumps(fm, sort_keys=True, indent=2)),
            ("blown-up groupoid", serialize(Document("groupoid", big))),
            ("haar from counting inputs", serialize(Document("system", kappa.system))),
            ("check-haar", check_haar(big, kappa).render()),
        ],
    )


DEMOS = {
    "pair3-weighted": demo_pair3_weighted,
    "swap-average": demo_swap_average,
    "rect32-transfer": demo_rect32_transfer,
    "z2-nonassoc": demo_z2_nonassoc,
    "blowup-z2": demo_blowup_z2,
}


# ---------------------------------------------------------------------------
# wiring


def _positive_int(text: str) -> int:
    """argparse type for a count of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haarsys",
        description="Exact finite-groupoid toolkit: validators, Haar constructions, convolution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run the matching validator on a document")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check-haar", help="check fullness and left invariance")
    p.add_argument("--groupoid", required=True)
    p.add_argument("--system", required=True)
    p.set_defaults(func=cmd_check_haar)

    p = sub.add_parser("transfer", help="carry a Haar system across an equivalence")
    p.add_argument("--groupoid", required=True)
    p.add_argument("--haar", required=True)
    p.add_argument("--equivalence", required=True)
    p.add_argument("--beta", help="full system over the left moment map (default: counting)")
    p.add_argument("--phi", help="cut-off over the left orbit map (default: representatives)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("blowup", help="blow up a groupoid, optionally with a Haar system")
    p.add_argument("--groupoid", required=True)
    p.add_argument("--map", required=True, help="bare JSON object: new unit -> old unit")
    p.add_argument("--fsystem", required=True)
    p.add_argument("--haar")
    p.add_argument("--out")
    p.set_defaults(func=cmd_blowup)

    p = sub.add_parser("imprimitivity", help="quotient the pair space of a free action")
    p.add_argument("--action", required=True)
    p.add_argument("--system")
    p.add_argument("--out")
    p.set_defaults(func=cmd_imprimitivity)

    p = sub.add_parser("convolve", help="convolve two functions against a family")
    p.add_argument("--groupoid", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--h", required=True)
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("assoc-check", help="test convolution associativity")
    p.add_argument("--groupoid", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--trials", type=_positive_int, default=64)
    p.set_defaults(func=cmd_assoc_check)

    p = sub.add_parser("demo", help="emit a named worked example")
    p.add_argument("name", choices=sorted(DEMOS))
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
