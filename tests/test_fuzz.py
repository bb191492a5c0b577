"""Mutated corpus documents through the CLI: every run ends in exit 0, 1 or 2.

Each example takes one groupoid, action or equivalence document of the
fixture corpus, drops, duplicates or renames one entry of a range, source,
inverse, compose, moment or table field (nested fields included), and feeds
the result to every subcommand that reads that kind.  Companion documents are
built from the mutated one, so a broken table reaches the code past the
base-map checks instead of stopping at them.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from haarsys import serialize
from haarsys.cli import main
from haarsys.fixtures import fixture_corpus

FIELDS = ("range", "source", "inverse", "compose", "moment", "table")
CORPUS = {name: json.loads(serialize(doc)) for name, doc in fixture_corpus().items()}
TARGETS = sorted(
    name for name, body in CORPUS.items() if body["kind"] in ("groupoid", "action", "equivalence")
)


def field_paths(body: dict, path: tuple = ()):
    """Key paths to every mutable field, including those of nested groupoids and actions."""
    for key, value in sorted(body.items()):
        if key in FIELDS:
            yield path + (key,)
        elif isinstance(value, dict):
            yield from field_paths(value, path + (key,))


def mutate(body: dict, path: tuple, op: str, entry: int, slot: int, token: int) -> dict:
    """One edit of the field at path.

    drop removes an entry; duplicate repeats a row of a list field, or gives
    a second key of a map field the value of the first; rename replaces one
    token of an entry by another token of the same field.
    """
    body = copy.deepcopy(body)
    *outer, name = path
    holder = body
    for key in outer:
        holder = holder[key]
    field = holder[name]
    entries = [list(e) for e in (field.items() if isinstance(field, dict) else field)]
    if entries:
        i = entry % len(entries)
        if op == "drop":
            del entries[i]
        elif op == "duplicate" and isinstance(field, dict):
            entries[slot % len(entries)][1] = entries[i][1]
        elif op == "duplicate":
            entries.insert(slot % (len(entries) + 1), list(entries[i]))
        else:
            tokens = sorted({t for e in entries for t in e})
            entries[i][slot % len(entries[i])] = tokens[token % len(tokens)]
    holder[name] = dict(entries) if isinstance(field, dict) else entries
    return body


@st.composite
def mutated_documents(draw):
    name = draw(st.sampled_from(TARGETS))
    path = draw(st.sampled_from(list(field_paths(CORPUS[name]))))
    op = draw(st.sampled_from(["drop", "duplicate", "rename"]))
    picks = [draw(st.integers(min_value=0, max_value=1000)) for _ in range(3)]
    return mutate(CORPUS[name], path, op, *picks)


def counting_over(base: dict) -> dict:
    """A system document weighing every point 1 over the given base map."""
    measures: dict = {}
    for point, unit in base.items():
        measures.setdefault(unit, {})[point] = "1"
    return {"version": 1, "kind": "system", "base": base, "measures": measures}


def runs(body: dict, write) -> list[list[str]]:
    """The subcommand lines that read a document of this kind, with companions written."""
    doc = write("doc", body)
    if body["kind"] == "groupoid":
        system = write("system", counting_over(body["range"]))
        ones = {"version": 1, "kind": "function", "values": {x: "1" for x in body["elements"]}}
        f = write("f", ones)
        lift = {f"{u}'": u for u in body["units"]}
        fm, beta = write("map", lift), write("beta", counting_over(lift))
        return [
            ["validate", doc],
            ["check-haar", "--groupoid", doc, "--system", system],
            ["convolve", "--groupoid", doc, "--system", system, "--f", f, "--h", f],
            ["assoc-check", "--groupoid", doc, "--system", system, "--trials", "4"],
            ["blowup", "--groupoid", doc, "--map", fm, "--fsystem", beta],
        ]
    if body["kind"] == "action":
        system = write("system", counting_over(body["moment"]))
        return [
            ["validate", doc],
            ["imprimitivity", "--action", doc],
            ["imprimitivity", "--action", doc, "--system", system],
        ]
    groupoid = dict(body["left"]["groupoid"], version=1, kind="groupoid")
    g = write("groupoid", groupoid)
    haar = write("haar", counting_over(groupoid["range"]))
    return [
        ["validate", doc],
        ["transfer", "--groupoid", g, "--haar", haar, "--equivalence", doc],
    ]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_documents())
def test_mutated_documents_exit_zero_one_or_two(body):
    with tempfile.TemporaryDirectory() as tmp:

        def write(stem: str, data: dict) -> str:
            path = Path(tmp) / f"{stem}.json"
            path.write_text(json.dumps(data))
            return str(path)

        for argv in runs(body, write):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2), (argv[0], code)
            assert "Traceback" not in err.getvalue()
