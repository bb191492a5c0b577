"""haarsys benchmark: one closed-loop caller runs a workload and prints its metrics.

    python3 benchmarks/run.py --workload transfer --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics, and the spans go to ``.bench_out/`` as JSON lines.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracles
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5

# The CPU this runs on changes speed by up to 2x from one second to the next
# (a shared virtual machine), so every timing is scaled by a reference loop
# timed right before and right after it: reported times are those of a CPU
# on which reference_work() takes REFERENCE_S.
REFERENCE_S = 0.002


def reference_work() -> int:
    """Fixed pure-Python work of the kind haarsys does: rationals, dicts, strings, sorting."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 600):
        acc += Fraction(i % 7 + 1, i % 5 + 1)
        table[f"k{i % 97}|{i}"] = acc
    return len(sorted(table))


def reference_time() -> float:
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    return seconds * 2 * REFERENCE_S / (before + after)


def fresh_import():
    """Import haarsys from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "haarsys" or m.startswith("haarsys.")]:
        del sys.modules[name]
    hs = importlib.import_module("haarsys")
    importlib.import_module("haarsys.cli")
    importlib.import_module("haarsys.fixtures")
    return hs


def run_job(job, salt: str):
    """Time one job, started on a collected heap; returns (seconds, result, escaped exception or None)."""
    gc.collect()
    start = perf_counter()
    try:
        result, escaped = job.run(salt), None
    except Exception as exc:  # the caller's boundary: an escaped exception is a failed job
        result, escaped = None, exc
    return perf_counter() - start, result, escaped


class Tally:
    """Outcomes of the jobs run so far."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.escaped: dict[str, int] = {}

    def record(self, job, salt: str, result, escaped) -> None:
        self.attempted += 1
        if escaped is not None:
            self.failed += 1
            key = f"{job.rung}: {type(escaped).__name__}"
            self.escaped[key] = self.escaped.get(key, 0) + 1
            return
        problem = job.check(salt, result)
        if problem is not None:
            self.failed += 1
            self.wrong.append(f"{job.rung}: {problem}")

    def report(self) -> None:
        for key, count in sorted(self.escaped.items()):
            print(f"failed (escaped): {key} x{count}")
        for line in self.wrong[:20]:
            print(f"failed (wrong output): {line}")


def setup(workload: str, seed: int, workdir: Path, tally: Tally):
    """Set up SETUP_REPEATS times: import, generate the seeded jobs, write documents, run a warm-up job.

    Returns the last set-up's package and jobs, and each set-up's time with
    the reference times around it.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        before = reference_time()
        start = perf_counter()
        hs = fresh_import()
        jobs, warm = workloads.WORKLOADS[workload](hs, random.Random(seed), workdir)
        _, result, escaped = run_job(warm, "warm-")
        times.append((perf_counter() - start, before, reference_time()))
    tally.record(warm, "warm-", result, escaped)
    return hs, jobs, times


def timed_loop(jobs, seconds: float, tally: Tally) -> tuple[list[float], list[float]]:
    """Closed loop: each job starts when the previous one has ended, until `seconds` of job time.

    Returns the job times scaled to the reference CPU speed, and as measured.
    """
    raw: list[float] = []
    refs = [reference_time()]
    i = 0
    while sum(raw) < seconds:
        job = jobs[i % len(jobs)]
        salt = f"j{i:05d}-"
        dt, result, escaped = run_job(job, salt)
        refs.append(reference_time())
        raw.append(dt)
        tally.record(job, salt, result, escaped)
        i += 1
    return [scaled(dt, refs[k], refs[k + 1]) for k, dt in enumerate(raw)], raw


def traced_loop(jobs, seconds: float, tally: Tally, tracer) -> tuple[float, dict[int, str]]:
    """Whole cycles; each job runs untraced and traced, the order alternating from job to job.

    Whole cycles make calls per job repeat exactly; running both ways side by
    side keeps warm-up and drift out of the overhead ratio.  Returns that
    ratio and the rung of each traced job.
    """
    walls = {False: 0.0, True: 0.0}
    rung_of_job: dict[int, str] = {}
    i = 0
    cycles = 0
    start = perf_counter()
    while True:
        for job in jobs:
            for traced in (False, True) if i % 2 == 0 else (True, False):
                salt = f"j{i:05d}-"
                if traced:
                    tracer.job = i
                    rung_of_job[i] = job.rung
                    tracer.install()
                try:
                    dt, result, escaped = run_job(job, salt)
                finally:
                    tracer.uninstall()
                walls[traced] += dt
                tally.record(job, salt, result, escaped)
                i += 1
        cycles += 1
        elapsed = perf_counter() - start
        if elapsed * (cycles + 1) / cycles > seconds:
            return walls[True] / walls[False], rung_of_job


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(jobs, setup_times, seconds: float, tally: Tally) -> dict:
    times, raw = timed_loop(jobs, seconds, tally)
    n = len(times)
    rows = [  # name, value, value as measured, unit, samples
        ("jobs_per_s", n / sum(times), n / sum(raw), "1/s", n),
        ("job_p50_ms", 1e3 * percentile(times, 50), 1e3 * percentile(raw, 50), "ms", n),
        ("job_p90_ms", 1e3 * percentile(times, 90), 1e3 * percentile(raw, 90), "ms", n),
        (
            "setup_s",
            statistics.median(scaled(*t) for t in setup_times),
            statistics.median(t[0] for t in setup_times),
            "s",
            SETUP_REPEATS,
        ),
        ("peak_rss_mib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, None, "MiB", 1),
        ("fail_ratio", tally.failed / tally.attempted, None, "ratio", tally.attempted),
    ]
    by_rung: dict[str, list[float]] = {}
    for k, t in enumerate(times):
        by_rung.setdefault(jobs[k % len(jobs)].rung, []).append(t)
    for rung, mine in sorted(by_rung.items()):
        print(f"rung {rung:<22} {len(mine):4d} jobs, median {1e3 * statistics.median(mine):9.2f} ms")
    print(f"{'metric':<14} {'value':>12} {'as measured':>12} unit   samples")
    for name, value, measured, unit, samples in rows:
        shown = f"{measured:12.4f}" if measured is not None else " " * 12
        print(f"{name:<14} {value:12.4f} {shown} {unit:<6} {samples}")
    # the fail ratio is shown, not reported: it is 0 on every workload, a bounded metric may not be 0,
    # and `failed` in the result already carries it
    return {name: metric(value, unit) for name, value, _, unit, _ in rows if name != "fail_ratio"}


def per_layer(jobs, seconds: float, tally: Tally, trace_path: Path) -> dict:
    tracer = tracing.Tracer()
    overhead, rung_of_job = traced_loop(jobs, seconds, tally, tracer)
    layer = tracing.per_layer(tracer.spans, len(rung_of_job))
    layer["trace_overhead_ratio"] = (overhead, "ratio")
    for line in tracing.rung_table(tracer.spans, rung_of_job):
        print(line)
    tracer.write(trace_path)
    print(f"{len(tracer.spans)} spans over {len(rung_of_job)} traced jobs written to {trace_path}")
    return {name: metric(value, unit) for name, (value, unit) in layer.items()}


def probe_known_defects(workload: str, hs, seed: int, workdir: Path) -> None:
    """Run the workload's known-defect probes once, untimed and outside the tally; print each outcome."""
    make = workloads.PROBES.get(workload)
    if make is None:
        return
    for job in make(hs, random.Random(seed), workdir / "probes"):
        _, result, escaped = run_job(job, "probe-")
        problem = f"{type(escaped).__name__} escaped" if escaped else job.check("probe-", result)
        print(f"known-defect probe {job.rung}: {problem or 'passes'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "haarsys" / "__init__.py").is_file():
        print(f"error: no haarsys sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"docs-{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tally = Tally()
    try:
        hs, jobs, setup_times = setup(args.workload, args.seed, workdir, tally)
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
            metrics = per_layer(jobs, args.seconds, tally, trace_path)
        else:
            metrics = end_to_end(jobs, setup_times, args.seconds, tally)
        probe_known_defects(args.workload, hs, args.seed, workdir)
        problems = oracles.self_check(*workloads.self_check_cases(hs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally.report()
    if problems:
        for line in problems:
            print(f"error: planted-fault self-check: {line}", file=sys.stderr)
        return 3
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
