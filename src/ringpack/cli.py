"""Command-line driver.

Subcommands: generate, enumerate, solve, validate, render.

Exit codes for `solve`: 0 proven optimal, 2 feasible but gap open,
3 bounds only.  `validate` exits 0 on a clean solution and 1 otherwise.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import time
from pathlib import Path

from .model import (
    CONTAINMENT_BREACH,
    Instance,
    InvariantViolation,
    MalformedInput,
    generate_instance,
    parse_instance,
    parse_solution,
    report_block,
    validate_solution,
    write_instance,
    write_solution,
)
from .patterns import check_effort, dump_patterns, enumerate_patterns
from .render import render_svg
from .solver import DESK_CONFIG, SolveConfig, SolveReport, solve

EXIT_OPTIMAL = 0
EXIT_INVALID = 1
EXIT_FEASIBLE = 2
EXIT_BOUNDS_ONLY = 3

PROFILES = {"desk": DESK_CONFIG, "paper": SolveConfig()}


def _parse(parse, text: str, path: str, **kwargs):
    """parse(text), with a malformed document ending the run in one line."""
    try:
        return parse(text, **kwargs)
    except (MalformedInput, InvariantViolation) as exc:
        raise SystemExit(f"{path}: {exc}") from None


def _load_instance(path: str) -> Instance:
    return _parse(parse_instance, Path(path).read_text(), path, name=Path(path).stem)


def _config_from(args) -> SolveConfig:
    types = {f.name: f.type for f in dataclasses.fields(SolveConfig)}
    overrides: dict = {}
    for pair in args.set or []:
        if "=" not in pair:
            raise SystemExit(f"bad override {pair!r}: expected key=value")
        key, value = pair.split("=", 1)
        if key not in types:
            raise SystemExit(f"unknown config key {key!r} (known: {', '.join(types)})")
        try:
            overrides[key] = (int if types[key] == "int" else float)(value)
        except ValueError:
            raise SystemExit(f"bad value for {key}: {value!r}") from None
    try:
        return dataclasses.replace(PROFILES[args.profile], **overrides)
    except ValueError as exc:
        raise SystemExit(f"bad config: {exc}") from None


def _seconds(text: str) -> float:
    try:
        return check_effort("seconds", float(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def format_report(report: SolveReport) -> str:
    """Machine-readable solve report; embeds instance and solution blocks."""
    lines = [
        "ringpack-report 1",
        f"instance-name {report.instance.name or '-'}",
        f"primal {report.primal_bound}",
        f"dual {report.dual_bound}",
        f"gap {report.gap:.12g}",
        f"dual-valid {int(report.dual_valid)}",
        f"ip-proven {int(report.ip_proven)}",
    ]
    for key in sorted(report.statistics):
        value = report.statistics[key]
        if isinstance(value, list):
            text = " ".join(str(v) for v in value) or "-"
        elif isinstance(value, float):
            text = f"{value:.12g}"
        else:
            text = str(value)
        lines.append(f"stat {key} {text}")
    lines.append("instance")
    lines.append(write_instance(report.instance).rstrip("\n"))
    lines.append("end")
    if report.incumbent is not None:
        lines.append("solution")
        lines.append(write_solution(report.incumbent).rstrip("\n"))
        lines.append("end")
    return "\n".join(lines) + "\n"


def _cmd_generate(args) -> int:
    try:
        inst = generate_instance(args.T, args.alpha, args.beta, args.gamma, args.seed)
    except ValueError as exc:  # InfeasibleParameters included
        raise SystemExit(f"generate: {exc}") from None
    out = args.out or f"{inst.name}_{args.seed}.rpa"
    Path(out).write_text(write_instance(inst))
    print(f"wrote {out}: {inst.type_count} types, {inst.ring_count} rings")
    return 0


def _cmd_enumerate(args) -> int:
    inst = _load_instance(args.instance)
    started = time.perf_counter()
    config = SolveConfig(enumeration_limit=args.limit, enumeration_budget=args.budget)
    sets = enumerate_patterns(inst, config)
    elapsed = time.perf_counter() - started
    print(
        f"feasible={len(sets.feasible)} unknown={len(sets.unknown)} "
        f"time={elapsed:.2f}s"
    )
    if args.dump:
        Path(args.dump).write_text(dump_patterns(inst, sets))
    return 0


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    config = _config_from(args)
    report = solve(inst, config)
    out = args.out or f"{Path(args.instance).stem}.report"
    Path(out).write_text(format_report(report))
    print(
        f"primal={report.primal_bound} dual={report.dual_bound} "
        f"gap={100.0 * report.gap:.1f}%"
    )
    if report.gap <= 0:
        return EXIT_OPTIMAL
    if report.incumbent is not None:
        return EXIT_FEASIBLE
    return EXIT_BOUNDS_ONLY


def _cmd_validate(args) -> int:
    inst = _load_instance(args.instance)
    solution = _parse(parse_solution, Path(args.solution).read_text(), args.solution)
    result = validate_solution(inst, solution)
    if result.feasible:
        print("feasible")
        return 0
    for v in result.violations:
        rings = ",".join(str(i) for i in v.rings)
        print(f"{v.kind} rings={rings} magnitude={v.magnitude:.6g}")
    return EXIT_INVALID


def _cmd_render(args) -> int:
    text = Path(args.solution).read_text()
    if args.instance:
        inst = _load_instance(args.instance)
    else:
        block = report_block(text, "instance")
        if block is None:
            raise SystemExit(
                "solution file has no embedded instance; pass --instance"
            )
        inst = _parse(parse_instance, block, args.solution, name=Path(args.solution).stem)
    solution = _parse(parse_solution, text, args.solution)
    # a bad index, a parent cycle or a non-finite center leaves no sound picture
    broken = [v.rings[0] for v in validate_solution(inst, solution).violations
              if v.kind == CONTAINMENT_BREACH and v.magnitude == math.inf]
    if broken:
        raise SystemExit(
            f"{args.solution}: ring {broken[0]} has a bad type, rectangle, "
            "parent or center"
        )
    Path(args.out).write_text(render_svg(inst, solution))
    print(f"wrote {args.out}")
    return 0


def _add_solveish_flags(sub) -> None:
    sub.add_argument("--profile", choices=sorted(PROFILES), default="paper",
                     help="budget profile (default: paper)")
    sub.add_argument("--set", action="append", metavar="KEY=VALUE",
                     help="override one SolveConfig field; repeatable")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]

    parser = argparse.ArgumentParser(
        prog="ringpack",
        description="Exact ring packing by pattern-based column generation.",
    )
    subs = parser.add_subparsers(dest="command")

    gen = subs.add_parser("generate", help="write a seeded random instance")
    gen.add_argument("T", type=int, help="number of ring types")
    gen.add_argument("alpha", type=float, help="max inner over min outer radius")
    gen.add_argument("beta", type=float, help="rectangle side over max outer radius")
    gen.add_argument("gamma", type=float, help="demand density factor")
    gen.add_argument("seed", type=int)
    gen.add_argument("-o", "--out", help="output path (default: derived name)")
    gen.set_defaults(func=_cmd_generate)

    enum = subs.add_parser("enumerate", help="classify circular patterns")
    enum.add_argument("instance")
    enum.add_argument("--limit", type=_seconds, default=SolveConfig.enumeration_limit,
                      help="per-candidate verification limit, seconds")
    enum.add_argument("--budget", type=_seconds, default=SolveConfig.enumeration_budget,
                      help="total enumeration budget, seconds")
    enum.add_argument("--dump", help="write the classified pattern list here")
    enum.set_defaults(func=_cmd_enumerate)

    slv = subs.add_parser("solve", help="run the full solver")
    slv.add_argument("instance")
    slv.add_argument("-o", "--out", help="report path (default: <instance>.report)")
    _add_solveish_flags(slv)
    slv.set_defaults(func=_cmd_solve)

    val = subs.add_parser("validate", help="check a solution geometrically")
    val.add_argument("instance")
    val.add_argument("solution", help="solution file or solve report")
    val.set_defaults(func=_cmd_validate)

    ren = subs.add_parser("render", help="draw a solution as SVG")
    ren.add_argument("solution", help="solution file or solve report")
    ren.add_argument("-o", "--out", required=True, help="SVG output path")
    ren.add_argument("--instance", help="instance file (needed unless the "
                     "solution is a report with an embedded instance)")
    ren.set_defaults(func=_cmd_render)

    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
