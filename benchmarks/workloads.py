"""The three workloads: seeded job cycles, the calls a job makes, and its oracle check.

A workload builds one cycle of jobs from the seed; the timed loop runs the
cycle over and over.  Each job builds its inputs fresh, with every token
prefixed by a salt unique to that run of the job, so no object and no token
carries over from one job to the next.  ``cli-files`` jobs read documents
that set-up wrote; only there do jobs share inputs, as files on disk.

Rung counts per cycle are chosen so that p50 and p90 of job time sit inside
a rung, away from the jump to the next one (see README.md).
"""

from __future__ import annotations

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from oracles import (
    blowup,
    document_weights,
    flat_weights,
    invariance_violations,
    mismatch,
    pair,
    pair_product,
    transfer_closed_form,
)


@dataclass
class Job:
    """One closed-loop request: ``run(salt)`` is timed, ``check(salt, result)`` is not.

    ``check`` returns None when the result agrees with the oracle and a
    one-line problem otherwise.
    """

    rung: str
    run: Callable[[str], object]
    check: Callable[[str, object], "str | None"]


def _weight(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 4))


def _dense(rng: random.Random, n: int) -> list[list[Fraction]]:
    return [
        [Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 3)) for _ in range(n)]
        for _ in range(n)
    ]


def _names(salt: str, tag: str, n: int) -> list[str]:
    return [f"{salt}{tag}{i:02d}" for i in range(n)]


def _keyed(pts: list[str], table: list[list[Fraction]]) -> dict[tuple[str, str], Fraction]:
    return {(u, v): table[i][j] for i, u in enumerate(pts) for j, v in enumerate(pts)}


def _pair_arrows(pts: list[str]) -> dict[tuple[str, str], str]:
    return {(u, v): pair(u, v) for u in pts for v in pts}


def _system(hs, G, arrow: dict, pts: list[str], mu: list[Fraction]):
    """lambda^u(y) = mu(s(y)) on a copy of pair(pts) whose arrow from v to u is arrow[(u, v)]."""
    measures = {
        arrow[(u, u)]: hs.Measure({arrow[(u, v)]: mu[j] for j, v in enumerate(pts)}) for u in pts
    }
    return hs.fiber_system(G.range_map, measures)


def _convolve_dense(hs, G, arrow: dict, pts: list[str], mu, f, h):
    """make_haar with the seeded mu, then convolve the dense tables f and h against it."""
    lam = hs.make_haar(G, _system(hs, G, arrow, pts, mu), "seeded haar")
    F = hs.GroupoidFunction(G, {arrow[k]: w for k, w in _keyed(pts, f).items()})
    H = hs.GroupoidFunction(G, {arrow[k]: w for k, w in _keyed(pts, h).items()})
    return hs.convolve(F, H, lam)


def _dense_oracle(mu, f, h) -> Callable[[dict, list[str]], dict[str, Fraction]]:
    """The matrix product of one job's seeded tables, keyed by the arrows of one run.

    The tables are the same on every run of a job and only the salted names
    change, so the product is computed by position on first use and kept:
    not in set-up, and not again on every check.
    """
    by_position: dict[tuple[int, int], Fraction] = {}

    def expected(arrow: dict, pts: list[str]) -> dict[str, Fraction]:
        if not by_position:
            idx = list(range(len(pts)))
            by_position.update(pair_product(idx, _keyed(idx, f), _keyed(idx, h), dict(zip(idx, mu))))
        return {arrow[(pts[i], pts[k])]: x for (i, k), x in by_position.items()}

    return expected


def _cycle(counts: list[tuple[int, Callable[[], Job]]]) -> list[Job]:
    """Spread each rung evenly over the cycle, so any stretch of the loop has the cycle's mix."""
    slots = [((j + 0.5) / n, k) for k, (n, _) in enumerate(counts) for j in range(n)]
    return [counts[k][1]() for _, k in sorted(slots)]


# ---------------------------------------------------------------------------
# transfer: the paper's pipeline end to end


@dataclass
class TransferSpec:
    """Seeded weights for one transfer job, indexed by row/column position.

    A rectangle links pair(rows) to pair(cols); a self-equivalence (cols == 0)
    links pair(rows) to itself through translation.  ``phi`` is None for
    the default beta and cut-off, otherwise a cut-off as position -> weight.
    """

    rows: int
    cols: int
    mu: list[Fraction]
    beta: "dict[tuple[int, int], Fraction] | None" = None
    phi: "dict[tuple[int, int], Fraction] | None" = None

    @property
    def rung(self) -> str:
        shape = f"rect{self.rows}x{self.cols}" if self.cols else f"self{self.rows}"
        return f"{shape}/{'default' if self.phi is None else 'seeded'}"


def transfer_spec(rng: random.Random, rows: int, cols: int, seeded: bool) -> TransferSpec:
    spec = TransferSpec(rows, cols, [_weight(rng) for _ in range(rows)])
    if seeded:
        width = cols or rows
        spec.beta = {(i, t): _weight(rng) for i in range(rows) for t in range(width)}
        spec.phi = {}
        # the left orbits are the columns; the cut-off must touch each one
        for t in range(width):
            chosen = [i for i in range(rows) if rng.random() < 0.5] or [rng.randrange(rows)]
            spec.phi.update({(i, t): _weight(rng) for i in chosen})
    return spec


def _layout(spec: TransferSpec, salt: str):
    """Rows of G, points of H, and the carrier point at each (row, column) position."""
    rows = _names(salt, "r", spec.rows)
    if spec.cols:
        cols = _names(salt, "c", spec.cols)
        point = {(i, t): f"{r}|{c}" for i, r in enumerate(rows) for t, c in enumerate(cols)}
        return rows, cols, point
    return rows, rows, {(i, t): pair(r, c) for i, r in enumerate(rows) for t, c in enumerate(rows)}


def _transfer_inputs(hs, spec: TransferSpec, salt: str):
    """The equivalence, the seeded system on G, and beta and the cut-off (None for the defaults)."""
    rows, cols, point = _layout(spec, salt)
    if spec.cols:
        E = hs.fixtures.pair_rectangle(rows, cols)
    else:
        E = hs.fixtures.self_equivalence(hs.pair_groupoid(rows))
    system = _system(hs, E.left.groupoid, _pair_arrows(rows), rows, spec.mu)
    if spec.phi is None:
        return E, system, None, None
    beta = hs.full_fiber_system(E.left.moment, {point[k]: w for k, w in spec.beta.items()})
    quotient = {z: cols[t] for (_, t), z in point.items()}
    phi = hs.Cutoff(hs.Measure({point[k]: w for k, w in spec.phi.items()}), quotient)
    return E, system, beta, phi


def transfer_expected(spec: TransferSpec, salt: str) -> dict:
    rows, cols, point = _layout(spec, salt)
    points = [(z, rows[i], cols[t]) for (i, t), z in point.items()]
    if spec.phi is None:
        # default cut-off: the least point of each column; default beta: counting
        phi = {point[(0, t)]: 1 for t in range(len(cols))}
        beta = dict.fromkeys(point.values(), 1)
    else:
        phi = {point[k]: w for k, w in spec.phi.items()}
        beta = {point[k]: w for k, w in spec.beta.items()}
    h_arrows = [(pair(a, b), pair(a, a), b) for a in cols for b in cols]
    return transfer_closed_form(points, dict(zip(rows, spec.mu)), phi, beta, h_arrows)


def transfer_job(hs, spec: TransferSpec) -> Job:
    def run(salt: str):
        E, system, beta, phi = _transfer_inputs(hs, spec, salt)
        G = E.left.groupoid
        return hs.transfer_haar(G, hs.make_haar(G, system, "seeded haar"), E, beta=beta, phi=phi)

    def check(salt: str, result) -> "str | None":
        return mismatch(transfer_expected(spec, salt), flat_weights(result.system))

    return Job(spec.rung, run, check)


TRANSFER_LADDER = (  # (rows, cols, jobs per 80-job cycle); cols 0 = self-equivalence
    (6, 4, 16),
    (6, 0, 10),
    (8, 6, 24),
    (9, 0, 4),
    (10, 8, 24),
    (12, 9, 2),
)


def transfer_workload(hs, rng: random.Random, workdir: Path) -> tuple[list[Job], Job]:
    counts = [
        (n // 2, lambda r=rows, c=cols, s=seeded: transfer_job(hs, transfer_spec(rng, r, c, s)))
        for rows, cols, n in TRANSFER_LADDER
        for seeded in (False, True)
    ]
    return _cycle(counts), transfer_job(hs, transfer_spec(rng, 8, 6, False))


# ---------------------------------------------------------------------------
# tables: one groupoid table at 400 to 900 arrows


def pair_table_job(hs, rng: random.Random, n: int) -> Job:
    mu = [_weight(rng) for _ in range(n)]
    f, h = _dense(rng, n), _dense(rng, n)
    expected = _dense_oracle(mu, f, h)

    def run(salt: str):
        pts = _names(salt, "p", n)
        G = hs.pair_groupoid(pts)
        report = hs.validate_groupoid(G)
        return report, _convolve_dense(hs, G, _pair_arrows(pts), pts, mu, f, h)

    def check(salt: str, result) -> "str | None":
        report, product = result
        if not report.passed:
            return f"validate_groupoid rejected pair({n})"
        pts = _names(salt, "p", n)
        return mismatch(expected(_pair_arrows(pts), pts), product.values)

    return Job(f"pair{n}", run, check)


BLOWUP_BASE, BLOWUP_POINTS = 4, 24


def blowup_table_job(hs, rng: random.Random) -> Job:
    """pair(4) blown up along 24 points: a copy of pair(24) with 576 arrows."""
    onto = list(range(BLOWUP_BASE)) + [rng.randrange(BLOWUP_BASE) for _ in range(BLOWUP_POINTS - BLOWUP_BASE)]
    rng.shuffle(onto)
    mu_big = [_weight(rng) for _ in range(BLOWUP_POINTS)]
    mu_base = [_weight(rng) for _ in range(BLOWUP_BASE)]
    beta = [_weight(rng) for _ in range(BLOWUP_POINTS)]
    f, h = _dense(rng, BLOWUP_POINTS), _dense(rng, BLOWUP_POINTS)
    expected = _dense_oracle(mu_big, f, h)

    def layout(salt: str):
        base = _names(salt, "b", BLOWUP_BASE)
        zs = _names(salt, "z", BLOWUP_POINTS)
        over = {z: base[onto[i]] for i, z in enumerate(zs)}
        arrow = {(z, w): blowup(z, pair(over[z], over[w]), w) for z in zs for w in zs}
        return base, zs, over, arrow

    def run(salt: str):
        base, zs, over, arrow = layout(salt)
        G = hs.pair_groupoid(base)
        fm = {z: pair(over[z], over[z]) for z in zs}
        B = hs.blow_up(G, fm)
        report = hs.validate_groupoid(B)
        product = _convolve_dense(hs, B, arrow, zs, mu_big, f, h)
        lam = hs.make_haar(G, _system(hs, G, _pair_arrows(base), base, mu_base), "seeded haar")
        kappa = hs.blowup_haar(G, lam, fm, hs.full_fiber_system(fm, dict(zip(zs, beta))))
        return report, product, kappa

    def check(salt: str, result) -> "str | None":
        report, product, kappa = result
        if not report.passed:
            return "validate_groupoid rejected the blow-up"
        base, zs, over, arrow = layout(salt)
        problem = mismatch(expected(arrow, zs), product.values)
        if problem is not None:
            return f"convolve {problem}"
        mu_of = dict(zip(base, mu_base))
        weights = {
            (arrow[(z, z)], arrow[(z, w)]): mu_of[over[w]] * beta[j]
            for z in zs
            for j, w in enumerate(zs)
        }
        problem = mismatch(weights, flat_weights(kappa.system))
        return None if problem is None else f"blowup_haar {problem}"

    return Job("blowup4x24", run, check)


def tables_workload(hs, rng: random.Random, workdir: Path) -> tuple[list[Job], Job]:
    counts = [  # per 80-job cycle
        (66, lambda: pair_table_job(hs, rng, 20)),
        (12, lambda: blowup_table_job(hs, rng)),
        (2, lambda: pair_table_job(hs, rng, 30)),
    ]
    return _cycle(counts), pair_table_job(hs, rng, 20)


# ---------------------------------------------------------------------------
# cli-files: the command line on document files, accepted and rejected


def cli_call(hs, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = hs.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class DocWriter:
    """Writes documents into the run's directory under short sequential names."""

    def __init__(self, hs, workdir: Path):
        self.hs = hs
        self.dir = workdir
        self.count = 0

    def text(self, text: str) -> str:
        self.count += 1
        path = self.dir / f"doc{self.count:03d}.json"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def doc(self, kind: str, payload) -> str:
        return self.text(self.hs.serialize(self.hs.Document(kind, payload)))


@dataclass
class SharedPair:
    """A pair groupoid whose document several jobs read."""

    pts: list[str]
    groupoid: object
    path: str


def _shared_pair(hs, docs: DocWriter, tag: str, n: int) -> SharedPair:
    pts = _names(tag, "p", n)
    G = hs.pair_groupoid(pts)
    return SharedPair(pts, G, docs.doc("groupoid", G))


def _expect_exit(code: int, want: int, err: str) -> "str | None":
    if code != want:
        return f"exit {code}, expected {want}: {err.strip()[:120]}"
    return None


def _cli_job(hs, rung: str, argv: list[str], check) -> Job:
    return Job(rung, lambda _: cli_call(hs, argv), check)


def cli_transfer_job(hs, rng: random.Random, docs: DocWriter, seeded: bool) -> Job:
    spec = transfer_spec(rng, 10, 8, seeded)
    salt = f"t{docs.count:03d}"
    E, system, beta, phi = _transfer_inputs(hs, spec, salt)
    argv = [
        "transfer",
        "--groupoid", docs.doc("groupoid", E.left.groupoid),
        "--haar", docs.doc("system", system),
        "--equivalence", docs.doc("equivalence", E),
    ]
    if seeded:
        argv += ["--beta", docs.doc("system", beta), "--phi", docs.doc("cutoff", phi)]
    expected = transfer_expected(spec, salt)

    def check(_, result) -> "str | None":
        code, out, err = result
        return _expect_exit(code, 0, err) or mismatch(expected, document_weights(json.loads(out)))

    return _cli_job(hs, f"transfer10x8/{'seeded' if seeded else 'default'}", argv, check)


def cli_convolve_job(hs, rng: random.Random, docs: DocWriter, shared: SharedPair) -> Job:
    pts, arrow = shared.pts, _pair_arrows(shared.pts)
    mu = [_weight(rng) for _ in pts]
    f, h = _dense(rng, len(pts)), _dense(rng, len(pts))
    argv = [
        "convolve",
        "--groupoid", shared.path,
        "--system", docs.doc("system", _system(hs, shared.groupoid, arrow, pts, mu)),
        "--f", docs.doc("function", {arrow[k]: w for k, w in _keyed(pts, f).items()}),
        "--h", docs.doc("function", {arrow[k]: w for k, w in _keyed(pts, h).items()}),
    ]
    expected = _dense_oracle(mu, f, h)

    def check(_, result) -> "str | None":
        code, out, err = result
        if code != 0:
            return _expect_exit(code, 0, err)
        got = {x: Fraction(v) for x, v in json.loads(out)["values"].items()}
        return mismatch(expected(arrow, pts), got)

    return _cli_job(hs, f"convolve{len(pts)}", argv, check)


def cli_validate_equivalence_job(hs, docs: DocWriter) -> Job:
    E = hs.fixtures.pair_rectangle(_names("e", "r", 8), _names("e", "c", 6))

    def check(_, result) -> "str | None":
        code, out, err = result
        return _expect_exit(code, 0, err) or (None if out.startswith("status: PASS\n") else "no PASS")

    return _cli_job(hs, "validate-equiv8x6", ["validate", docs.doc("equivalence", E)], check)


def _without(hs, G, dropped: set) -> object:
    compose = {k: v for k, v in G.compose_map.items() if k not in dropped}
    return hs.make_groupoid(G.elements, G.units, G.range_map, G.source_map, G.inverse_map, compose)


def cli_validate_dropped_job(hs, rng: random.Random, docs: DocWriter) -> Job:
    """pair(20) with k composition entries dropped: exit 1 and exactly those k violations."""
    G = hs.pair_groupoid(_names(f"d{docs.count:03d}", "p", 20))
    dropped = rng.sample(sorted(G.compose_map), rng.randint(1, 6))
    expected = sorted(f"violation compose missing on composable pair: x={x} y={y}" for x, y in dropped)

    def check(_, result) -> "str | None":
        code, out, err = result
        if code != 1:
            return _expect_exit(code, 1, err)
        got = sorted(line for line in out.splitlines() if line.startswith("violation "))
        return None if got == expected else f"{len(got)} violations, expected the {len(expected)} planted"

    argv = ["validate", docs.doc("groupoid", _without(hs, G, set(dropped)))]
    return _cli_job(hs, "validate-dropped20", argv, check)


def cli_check_haar_job(hs, rng: random.Random, docs: DocWriter, shared: SharedPair) -> Job:
    """A non-invariant family on pair(30): exit 1 and a predicted number of violations."""
    pts = shared.pts
    weight = {(a, c): Fraction(rng.randint(1, 3)) for a in pts for c in pts}
    system = hs.fiber_system(
        shared.groupoid.range_map,
        {pair(a, a): hs.Measure({pair(a, c): weight[(a, c)] for c in pts}) for a in pts},
    )
    expected = invariance_violations(pts, weight)

    def check(_, result) -> "str | None":
        code, out, err = result
        if code != 1:
            return _expect_exit(code, 1, err)
        got = sum(1 for line in out.splitlines() if line.startswith("violation "))
        return None if got == expected else f"{got} violations, expected {expected}"

    argv = ["check-haar", "--groupoid", shared.path, "--system", docs.doc("system", system)]
    return _cli_job(hs, f"check-haar{len(pts)}", argv, check)


def cli_malformed_job(hs, rng: random.Random, docs: DocWriter) -> Job:
    """A document that cannot be used: exit 2 with a one-line error."""
    good = hs.serialize(hs.Document("system", hs.full_fiber_system({"a": "x", "b": "x"})))
    body = json.loads(good)
    fault = rng.choice(["truncated", "decimal", "field", "version"])
    if fault == "truncated":
        text = good[: len(good) // 2]
    else:
        if fault == "decimal":
            body["measures"]["x"]["a"] = 1.5
        elif fault == "field":
            body["weights"] = {}
        else:
            body["version"] = 2
        text = json.dumps(body)

    def check(_, result) -> "str | None":
        code, out, err = result
        if code != 2:
            return _expect_exit(code, 2, err)
        return None if err.startswith("error:") and not out else "exit 2 without a one-line error"

    return _cli_job(hs, "malformed", ["validate", docs.text(text)], check)


def cli_missing_compose_job(hs, rng: random.Random, docs: DocWriter) -> Job:
    """check-haar on pair(20) missing one composition entry: the input parses, so exit 1 or 2.

    Today a ``KeyError`` escapes ``main`` on this input, so the job is a
    known-defect probe, run once after the timed loop, not part of a cycle.
    """
    pts = _names(f"m{docs.count:03d}", "p", 20)
    G = hs.pair_groupoid(pts)
    argv = [
        "check-haar",
        "--groupoid", docs.doc("groupoid", _without(hs, G, {rng.choice(sorted(G.compose_map))})),
        "--system", docs.doc("system", _system(hs, G, _pair_arrows(pts), pts, [Fraction(1)] * 20)),
    ]

    def check(_, result) -> "str | None":
        code, out, err = result
        return None if code in (1, 2) else f"exit {code}, expected 1 or 2"

    return _cli_job(hs, "missing-compose20", argv, check)


def _pool(size: int, make: Callable[[], Job]) -> Callable[[], Job]:
    """Make `size` jobs now; the returned factory hands them out in turn."""
    jobs = itertools.cycle([make() for _ in range(size)])
    return lambda: next(jobs)


def cli_workload(hs, rng: random.Random, workdir: Path) -> tuple[list[Job], Job]:
    docs = DocWriter(hs, workdir)
    pair20 = _shared_pair(hs, docs, "v", 20)
    pair30 = _shared_pair(hs, docs, "w", 30)
    counts = [  # per 80-job cycle; the jobs of a rung take turns over a pool of document sets
        (8, _pool(4, lambda: cli_malformed_job(hs, rng, docs))),
        (16, _pool(1, lambda: cli_validate_equivalence_job(hs, docs))),
        (28, _pool(8, lambda: cli_convolve_job(hs, rng, docs, pair20))),
        (14, _pool(4, lambda: cli_validate_dropped_job(hs, rng, docs))),
        (12, _pool(4, lambda: cli_check_haar_job(hs, rng, docs, pair30))),
        (1, lambda: cli_transfer_job(hs, rng, docs, False)),
        (1, lambda: cli_transfer_job(hs, rng, docs, True)),
    ]
    return _cycle(counts), cli_convolve_job(hs, rng, docs, pair20)


WORKLOADS = {
    "transfer": transfer_workload,
    "tables": tables_workload,
    "cli-files": cli_workload,
}


def cli_probes(hs, rng: random.Random, workdir: Path) -> list[Job]:
    workdir.mkdir(parents=True, exist_ok=True)
    return [cli_missing_compose_job(hs, rng, DocWriter(hs, workdir))]


# Jobs that fail on the current code for a known reason.  The timed loop
# must run only jobs that pass, so these run once, untimed and untallied,
# and only their outcome is printed.
PROBES = {"cli-files": cli_probes}


def self_check_cases(hs) -> tuple[tuple[dict, dict], tuple[dict, dict]]:
    """(expected, computed) for one real transfer and one real convolution."""
    rng = random.Random(0)
    spec = transfer_spec(rng, 4, 3, True)
    transfer = (transfer_expected(spec, "sc-"), flat_weights(transfer_job(hs, spec).run("sc-").system))
    pts = _names("sc-", "p", 4)
    mu, f, h = [_weight(rng) for _ in pts], _dense(rng, 4), _dense(rng, 4)
    arrow = _pair_arrows(pts)
    product = _convolve_dense(hs, hs.pair_groupoid(pts), arrow, pts, mu, f, h)
    return transfer, (_dense_oracle(mu, f, h)(arrow, pts), product.values)
