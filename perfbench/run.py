"""ringpack benchmark: solve a workload's instances in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the solver is imported from `src/`.  One
client, one process, no threads: each solve starts when the previous one
returned.  A request is exactly what `ringpack solve` does minus file I/O:
`solve(instance, config)` then `cli.format_report(report)`.

--trace 0 repeats rounds (one pass over the workload's instances) for
about S seconds and prints the end-to-end metrics.  --trace 1 runs one
untraced round and one traced round and prints the per-layer metrics.
Either way every solve passes the correctness gate, and the last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
All times are calibrated seconds (see clock.py).  See
perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock
import workloads
from spans import Tracer, instrument, layer_metrics

# One BLAS thread, so the benchmark runs single-threaded.  Starting
# OpenBLAS's thread pool took about 80 ms of numpy's import on the build
# machine, and how long varied from run to run, so it made most of the
# spread of set-up time.  Set before the solver imports numpy;
# the set-up interpreters inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"

# a solve running longer than this (wall time) is stopped and counted as
# failed; four times the slowest solve at the commit that added the cap
SOLVE_CAP_S = 60.0
SETUP_REPEATS = 9


class SolveCapped(BaseException):
    """Raised by the alarm handler; BaseException so no solver handler
    swallows it."""


def _on_alarm(signum, frame):
    raise SolveCapped()


def _import_solver():
    if not (SRC / "ringpack" / "__init__.py").is_file():
        raise SystemExit(f"no ringpack sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ringpack

    if Path(ringpack.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"imported ringpack from {ringpack.__file__}, not {SRC}")
    return ringpack


def probe_setup(workload: str, seed: int) -> float:
    """Wall seconds to import the solver and build the workload's
    instances, in a fresh interpreter."""
    started = time.perf_counter()
    _import_solver()
    import ringpack.cli  # noqa: F401  (format_report lives here)

    for case in workloads.cases(workload, seed):
        workloads.build(case)
    workloads.config(workload)
    return time.perf_counter() - started


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """(calibrated, raw) set-up seconds over fresh interpreters.  Each
    set-up start follows a start of the reference imports in clock.py,
    and set-up is reported as REF_IMPORT_S times the median ratio of the
    two: on the machine the benchmark was built on, set-up wall time
    drifted by 11-17% between runs and the ratio by 3%.  The pure-Python
    speed probe does not track set-up, which is mostly loading modules.
    The raw figure is the median set-up wall time."""
    ratios, raw = [], []
    for _ in range(SETUP_REPEATS):
        baseline = clock.import_baseline_s()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds = float(done.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        ratios.append(seconds / baseline)
    return clock.REF_IMPORT_S * statistics.median(ratios), statistics.median(raw)


class Runner:
    """Solves cases, times each request and gates its output."""

    def __init__(self, workload: str, reference: dict):
        from ringpack import cli, model, solver

        self.cli, self.model, self.solver = cli, model, solver
        self.config = workloads.config(workload)
        self.reference = reference
        self.records: list[dict] = []
        self.digests: dict[str, str] = {}

    def request(self, instance, tracer=None):
        """One solve plus report; (start, end, report, text), with report
        and text None when the solve was capped."""
        report = text = None
        signal.setitimer(signal.ITIMER_REAL, SOLVE_CAP_S)
        start = time.perf_counter()
        try:
            if tracer is None:
                report = self.solver.solve(instance, self.config)
                text = self.cli.format_report(report)
            else:
                with tracer.span("bench.request"):
                    with tracer.span("solver.solve"):
                        report = self.solver.solve(instance, self.config)
                    with tracer.span("cli.format_report"):
                        text = self.cli.format_report(report)
        except SolveCapped:
            report = text = None
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        return start, end, report, text

    def check(self, case, instance, report, digest) -> list[str]:
        """Correctness gate for one solve; the list of problems found."""
        problems = []
        inc = report.incumbent
        if inc is None or not self.model.validate_solution(instance, inc).feasible:
            problems.append("incumbent is not validator-clean")
        elif inc.rectangle_count != report.primal_bound:
            problems.append("primal differs from the incumbent's rectangles")
        vol = self.model.volume_lower_bound(instance)
        if not vol <= report.dual_bound <= report.primal_bound:
            problems.append(
                f"volume {vol} <= dual {report.dual_bound} <= primal "
                f"{report.primal_bound} breaks")
        if case.args is None and not (
                report.primal_bound == report.dual_bound == workloads.TINY3_OPT):
            problems.append("tiny3 is not primal = dual = 2")
        opt = self.reference.get(case.name, {}).get("opt")
        if opt is not None:
            if report.dual_valid and report.dual_bound > opt:
                problems.append(f"valid dual {report.dual_bound} above optimum {opt}")
            if report.primal_bound < opt:
                problems.append(f"primal {report.primal_bound} below optimum {opt}")
        if self.digests.setdefault(case.name, digest) != digest:
            problems.append("report differs from an earlier solve in this run")
        return problems

    def solve_round(self, cases, instances, tracer=None) -> list[dict]:
        """One pass over the cases; one record per solve."""
        records = []
        for case, instance in zip(cases, instances):
            if tracer is not None:
                tracer.solve_id += 1
            start, end, report, text = self.request(instance, tracer)
            record = {"case": case.name, "start": start, "end": end,
                      "capped": report is None, "problems": []}
            if report is not None:
                digest = hashlib.sha256(text.encode()).hexdigest()
                record.update(
                    primal=report.primal_bound, dual=report.dual_bound,
                    optimal=report.gap <= 0, digest=digest,
                    problems=self.check(case, instance, report, digest),
                )
            records.append(record)
        self.records.extend(records)
        return records


def _quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(100 * q) - 1]


def _quality(records) -> tuple[int, int, int]:
    done = [r for r in records if not r["capped"]]
    return (sum(r["primal"] for r in done), sum(r["dual"] for r in done),
            sum(r["optimal"] for r in done))


def _round_seconds(records, key) -> float:
    return sum(r[key] for r in records)


def end_to_end(runner, rounds, setup_s, rss_kb) -> dict:
    """End-to-end metrics of an untraced run, as {name: (value, unit)}."""
    times = [r["ms"] for r in runner.records]
    primal, dual, optimal = _quality(rounds[0])
    failed = sum(bool(r["problems"]) or r["capped"] for r in runner.records)
    return {
        "wall_s": (statistics.median(_round_seconds(r, "ms") for r in rounds) / 1000, "s"),
        "solves_per_s": (1000 * len(times) / sum(times), "1/s"),
        "solve_ms_p50": (statistics.median(times), "ms"),
        "solve_ms_p90": (_quantile(times, 0.9), "ms"),
        "primal_sum": (primal, "count"),
        "dual_sum": (dual, "count"),
        "proven_optimal": (optimal, "count"),
        "solved_frac": (1.0 - failed / len(times), "ratio"),
        "setup_s": (setup_s, "s"),
        "max_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def _reference_drift(runner) -> tuple[int, int]:
    """(cases whose report digest differs from reference.json, cases
    compared); informational, not a gate."""
    compared = differ = 0
    for name, digest in runner.digests.items():
        ref = runner.reference.get(name, {}).get("digest")
        if ref is not None:
            compared += 1
            differ += ref != digest
    return differ, compared


def run_rounds(runner, cases, instances, seconds: float, trace: bool):
    """Untraced rounds for about `seconds`, or one untraced round and one
    traced round; (rounds, calibrator, tracer or None, peak RSS in KiB
    after the first round).  Every record gets its raw and calibrated
    milliseconds."""
    tracer = None
    with clock.Calibrator() as calibrator:
        started = time.perf_counter()
        rounds = [runner.solve_round(cases, instances)]
        # later rounds raise the peak by reusing a fragmented heap, and
        # how many of them fit depends on the machine's speed
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if trace:
            tracer = Tracer()
            with instrument(tracer):
                rounds.append(runner.solve_round(cases, instances, tracer))
        else:
            while True:
                elapsed = time.perf_counter() - started
                typical = statistics.median(
                    r[-1]["end"] - r[0]["start"] for r in rounds)
                if elapsed + typical > seconds:
                    break
                rounds.append(runner.solve_round(cases, instances))
    for r in runner.records:
        r["raw_ms"] = 1000 * (r["end"] - r["start"])
        r["ms"] = 1000 * calibrator.seconds(r["start"], r["end"])
    return rounds, calibrator, tracer, rss_kb


def print_summary(args, cases, runner, rounds, calibrator, table) -> str:
    """Readable lines before the JSON result; returns the run's digest."""
    records = runner.records
    failed = [r for r in records if r["problems"] or r["capped"]]
    run_digest = hashlib.sha256(
        "".join(runner.digests.get(c.name, "") for c in cases).encode()).hexdigest()
    differ, compared = _reference_drift(runner)
    primal, dual, optimal = _quality(rounds[0])
    raw_wall = [_round_seconds(r, "raw_ms") / 1000 for r in rounds]
    speed = calibrator.speed(records[0]["start"], records[-1]["end"])
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of "
          f"{len(cases)} instances, profile {workloads.PROFILES[args.workload]}")
    print("raw wall seconds per round: " + " ".join(f"{w:.4f}" for w in raw_wall)
          + f"; mean speed {speed:.4f} of reference over "
          f"{len(calibrator.durations)} probes")
    print(f"quality per round: primal_sum {primal} dual_sum {dual} "
          f"proven_optimal {optimal}")
    print(f"failed_frac {len(failed) / len(records):.6g} "
          f"({len(failed)} of {len(records)}; "
          f"{sum(r['capped'] for r in records)} capped at {SOLVE_CAP_S:g} s)")
    for r in failed:
        print(f"  FAILED {r['case']}: {'; '.join(r['problems']) or 'capped'}")
    print(f"report digest {run_digest}")
    solved = collections.Counter(r["case"] for r in records)
    print(f"instances solved more than once, digests compared: "
          f"{sum(n > 1 for n in solved.values())} of {len(solved)}")
    print(f"reports differing from reference.json: {differ} of {compared}")
    if table is not None:
        print("kernel nodes per calibrated second of verify_exact self time:")
        for container, bands in table.items():
            print("  " + container + "  " + "  ".join(
                f"{band} {n / s if s else 0.0:.0f} ({n} nodes)"
                for band, (n, s) in bands.items()))
    return run_digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        print(f"{probe_setup(args.workload, args.seed):.9f}")
        return 0

    _import_solver()
    setup_s = raw_setup_s = None
    if not args.trace:
        setup_s, raw_setup_s = measure_setup(args.workload, args.seed)
    cases = workloads.cases(args.workload, args.seed)
    instances = [workloads.build(case) for case in cases]
    reference = json.loads(REFERENCE.read_text())["workloads"][args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    runner = Runner(args.workload, reference)

    # warm-up outside the measurement: the first solve in a process pays
    # for lazy imports and numpy start-up that later solves do not
    runner.request(workloads.build(workloads.Case(None)))

    rounds, calibrator, tracer, rss_kb = run_rounds(
        runner, cases, instances, args.seconds, args.trace)
    table = None
    if tracer is None:
        metrics = end_to_end(runner, rounds, setup_s, rss_kb)
    else:
        metrics, table = layer_metrics(
            tracer, calibrator,
            _round_seconds(rounds[1], "ms") / 1000,
            _round_seconds(rounds[0], "ms") / 1000)

    run_digest = print_summary(args, cases, runner, rounds, calibrator, table)
    if raw_setup_s is not None:
        print(f"raw set-up seconds, median of {SETUP_REPEATS}: {raw_setup_s:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    dump = {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
            "digest": run_digest, "probes": calibrator.durations,
            "records": runner.records, "kernel_table": table,
            "metrics": {k: v for k, (v, _) in metrics.items()}}
    stem.with_suffix(".json").write_text(json.dumps(dump, indent=1) + "\n")
    if tracer is not None:
        tracer.write_jsonl(stem.with_suffix(".spans.jsonl"))

    records = runner.records
    print(json.dumps({
        "correct": not any(r["problems"] for r in records),
        "attempted": len(records),
        "failed": sum(bool(r["problems"]) or r["capped"] for r in records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
