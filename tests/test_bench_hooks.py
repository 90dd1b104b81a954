"""The benchmark in perfbench/ reaches into the solver from outside: it
wraps functions by their module attribute names and imports the oracle.
A rename in src/ has to fail here, not in a benchmark run."""

import importlib.util
from pathlib import Path

from ringpack.cli import PROFILES, format_report
from ringpack.oracle import MAX_RING_COUNT, brute_force_opt
from ringpack.solver import solve

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_desk_solve_records_the_stage_spans(tiny3):
    spans = _load_spans()
    # instrument() looks up every name it wraps, so entering it checks them all
    with spans.instrument(spans.Tracer()) as tracer:
        report = solve(tiny3, PROFILES["desk"])
    names = {span.name for span in tracer.spans}
    assert {"solver.solve_restricted_ip", "pricing.price_rectangular"} <= names
    assert format_report(report).startswith("ringpack-report 1\n")
    # the reference figures of perfbench/make_reference.py
    assert tiny3.ring_count <= MAX_RING_COUNT
    assert brute_force_opt(tiny3) == report.primal_bound == 2
