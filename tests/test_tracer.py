"""The benchmark tracer still finds what it wraps: a rename or a property breaks this test."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import haarsys.cli  # noqa: F401  (the tracer wraps every layer module, cli included)
from haarsys import ValidationReport, transfer
from haarsys.fixtures import pair3, rect32, weighted_pair3_haar

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_fiber_and_validator_spans():
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        transfer.transfer_haar(pair3(), weighted_pair3_haar(), rect32())
        # the other two wrapped methods, called as plain methods
        pair3().range_fiber("pair:1,1")
        ValidationReport().render()
    finally:
        tracer.uninstall()
    names = {span.name for span in tracer.spans}
    assert {"groupoids.range_fibers", "actions.validate_action"} <= names
    assert {"groupoids.range_fiber", "groupoids.render"} <= names
