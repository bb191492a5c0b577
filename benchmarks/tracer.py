"""Spans around calls into haarsys, recorded from outside the package.

The tracer rebinds each public function of the layer modules in every
``haarsys`` module namespace that holds it (so the ``from .actions import``
copies in ``transfer`` and ``cli`` are wrapped too), wraps three methods on
their classes, and puts every original back on ``uninstall``.  Spans stay in
memory until the run writes them out as JSON lines.

A span's self time is its duration minus the outer durations of its
children; a child's outer duration includes the tracer's own bookkeeping for
it, so that bookkeeping counts as nobody's self time.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter
from types import FunctionType

LAYERS = ("groupoids", "systems", "actions", "transfer", "convolution", "documents", "cli")

# per-token and per-weight helpers: called thousands of times per job, and
# wrapping them would make the trace measure itself
UNWRAPPED = frozenset(
    {"as_fraction", "pair_arrow", "blowup_arrow", "relation_arrow", "transformation_arrow", "delta"}
)

METHODS = (
    ("groupoids", "Groupoid", "range_fiber"),
    ("groupoids", "Groupoid", "range_fibers"),
    ("groupoids", "ValidationReport", "render"),
)

GROUPS = {
    "groupoids.constructors": frozenset(
        {
            "groupoids.make_groupoid",
            "groupoids.pair_groupoid",
            "groupoids.group_as_groupoid",
            "groupoids.transformation_groupoid",
            "groupoids.relation_groupoid",
            "groupoids.blow_up",
            "groupoids.stability_group",
        }
    ),
    "actions.constructors": frozenset(
        {
            "actions.left_action",
            "actions.right_action",
            "actions.left_translation_action",
            "actions.right_translation_action",
            "actions.unit_translation_action",
            "actions.opposite",
            "actions.opposite_equivalence",
        }
    ),
}

SIZE_FIELDS = ("arrows", "pairs", "carrier", "action_pairs")


class Span:
    __slots__ = ("id", "name", "job", "parent", "start", "end", "children", "sizes", "extra", "outcome")

    def __init__(self, id_, name, job, parent, sizes, extra):
        self.id = id_
        self.name = name
        self.job = job
        self.parent = parent
        self.sizes = sizes
        self.extra = extra
        self.children = 0.0
        self.start = self.end = 0.0
        self.outcome = "ok"

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.children

    def as_json(self) -> str:
        row = {
            "id": self.id,
            "name": self.name,
            "job": self.job,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
            "outcome": self.outcome,
        }
        row.update(self.sizes)
        row.update(self.extra)
        return json.dumps(row, sort_keys=True)


def _sizes(values) -> dict[str, int]:
    """Largest groupoid, carrier and action among the values, one level into tuples."""
    best = dict.fromkeys(SIZE_FIELDS, 0)

    def groupoid(G) -> None:
        best["arrows"] = max(best["arrows"], len(G.elements))
        best["pairs"] = max(best["pairs"], len(G.compose_map))

    def action(A) -> None:
        groupoid(A.groupoid)
        best["carrier"] = max(best["carrier"], len(A.carrier))
        best["action_pairs"] = max(best["action_pairs"], len(A.act))

    for value in values:
        for item in value if isinstance(value, tuple) else (value,):
            kind = type(item).__name__
            if kind == "Groupoid":
                groupoid(item)
            elif kind in ("HaarSystem", "GroupoidFunction"):
                groupoid(item.groupoid)
            elif kind == "FiberSystem":
                best["carrier"] = max(best["carrier"], len(item.base_map))
            elif kind == "Action":
                action(item)
            elif kind == "Equivalence":
                action(item.left)
                action(item.right)
    return {k: v for k, v in best.items() if v}


def _convolve_scan(f, h, *_, **__) -> dict[str, int]:
    """Pairs convolve scans and the composable ones among them."""
    G = f.groupoid
    by_range = Counter(G.range_map[z] for z in h.values)
    useful = sum(by_range[G.source_map[y]] for y in f.values)
    return {"scanned": len(f.values) * len(h.values), "useful": useful}


def _parse_bytes(text, *_, **__) -> dict[str, int]:
    return {"bytes": len(text)}


BEFORE = {"convolution.convolve": _convolve_scan, "documents.parse": _parse_bytes}


class Tracer:
    """Collects spans while installed; ``job`` tags the spans of the current job."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.job = None
        self._open: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {short: sys.modules[f"haarsys.{short}"] for short in LAYERS}
        wrappers: dict[int, tuple[object, object]] = {}
        for short, mod in modules.items():
            for name in mod.__all__:
                fn = getattr(mod, name)
                if isinstance(fn, FunctionType) and fn.__module__ == mod.__name__ and name not in UNWRAPPED:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "haarsys" and not modname.startswith("haarsys."):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(f"{short}.{meth}", original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        spans = self.spans
        open_ = self._open
        before = BEFORE.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = perf_counter()
            parent = open_[-1] if open_ else None
            span = Span(
                len(spans),
                name,
                tracer.job,
                parent.id if parent is not None else None,
                _sizes((*args, *kwargs.values())),
                before(*args, **kwargs) if before is not None else {},
            )
            spans.append(span)
            open_.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = perf_counter()
                span.outcome = type(exc).__name__
                raise
            else:
                span.end = perf_counter()
                if not span.sizes:  # a constructor: size it by what it built
                    span.sizes = _sizes((result,))
                if name == "cli.main":
                    span.outcome = f"exit {result}"
                elif name == "documents.serialize":
                    span.extra = {"bytes": len(result)}
                return result
            finally:
                open_.pop()
                if parent is not None:
                    parent.children += perf_counter() - outer

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(span.as_json())
                fh.write("\n")


def per_layer(spans: list[Span], jobs: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of BENCHMARK.json, per traced job."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    extra: Counter = Counter()
    exits: Counter = Counter()
    for span in spans:
        calls[span.name] += 1
        self_s[span.name] += span.self_s
        for key, value in span.extra.items():
            extra[f"{span.name}.{key}"] += value
        if span.name == "cli.main":
            exits[span.outcome] += 1
    for group, members in GROUPS.items():
        self_s[group] = sum(self_s[m] for m in members)

    def per_job(counter: Counter, key: str) -> float:
        return counter[key] / jobs

    out: dict[str, tuple[float, str]] = {}
    for name in (
        "actions.validate_action",
        "actions.orbit_space",
        "actions.imprimitivity_groupoid",
        "groupoids.validate_groupoid",
        "groupoids.range_fibers",
        "groupoids.unit_orbit_map",
        "systems.check_haar",
        "systems.check_system",
        "systems.make_haar",
        "transfer.check_equivariant",
        "convolution.convolve",
    ):
        out[f"{name}.calls"] = (per_job(calls, name), "1/job")
    for name in (
        "actions.validate_action",
        "actions.validate_equivalence",
        "actions.imprimitivity_groupoid",
        "actions.imprimitivity_iso",
        "actions.constructors",
        "groupoids.validate_groupoid",
        "groupoids.constructors",
        "groupoids.render",
        "cli.main",
        "systems.check_haar",
        "systems.check_system",
        "transfer.transfer_haar",
        "transfer.average_system",
        "transfer.imprimitivity_haar",
        "transfer.blowup_haar",
        "convolution.convolve",
        "documents.parse",
        "documents.serialize",
    ):
        out[f"{name}.self_s"] = (per_job(self_s, name), "s/job")
    scanned = extra["convolution.convolve.scanned"]
    out["convolution.convolve.useful_ratio"] = (
        extra["convolution.convolve.useful"] / scanned if scanned else 0.0,
        "ratio",
    )
    out["documents.parse.bytes"] = (per_job(extra, "documents.parse.bytes"), "B/job")
    out["documents.serialize.bytes"] = (per_job(extra, "documents.serialize.bytes"), "B/job")
    for code in (0, 1, 2):
        out[f"cli.exit.{code}"] = (per_job(exits, f"exit {code}"), "1/job")
    out["cli.escaped"] = (
        sum(n for outcome, n in exits.items() if not outcome.startswith("exit ")) / jobs,
        "1/job",
    )
    return out


def rung_table(spans: list[Span], rung_of_job: dict[int, str]) -> list[str]:
    """Per ladder rung and layer: calls and self time per job, and self time per unit of work.

    The unit of work is the largest input the layer saw (or, for a
    constructor, the largest thing it built): action pairs where there is an
    action, else composable pairs, else points of a fiber system; pairs
    scanned for convolve, bytes for the document codec.
    """
    jobs_per_rung = Counter(rung_of_job.values())
    rows: dict[tuple[str, str], list] = {}
    for span in spans:
        rung = rung_of_job.get(span.job)
        if rung is None:
            continue
        row = rows.setdefault((rung, span.name), [0, 0.0, 0, ""])
        row[0] += 1
        row[1] += span.self_s
        if "scanned" in span.extra:
            work, unit = span.extra["scanned"], "scan"
        elif "bytes" in span.extra:
            work, unit = span.extra["bytes"], "B"
        elif span.sizes.get("action_pairs"):
            work, unit = span.sizes["action_pairs"], "act"
        elif span.sizes.get("pairs"):
            work, unit = span.sizes["pairs"], "pair"
        elif span.sizes.get("carrier"):
            work, unit = span.sizes["carrier"], "pt"
        else:
            work, unit = 0, ""
        row[2] += work
        row[3] = row[3] or unit
    lines = [f"{'rung':<22} {'layer':<36} {'calls/job':>9} {'self ms/job':>11} {'ns/unit':>9} unit"]
    for (rung, name), (n, self_total, work, unit) in sorted(rows.items()):
        jobs = jobs_per_rung[rung]
        per_unit = f"{1e9 * self_total / work:9.1f}" if work else f"{'-':>9}"
        lines.append(
            f"{rung:<22} {name:<36} {n / jobs:9.2f} {1e3 * self_total / jobs:11.3f} {per_unit} {unit}"
        )
    return lines
