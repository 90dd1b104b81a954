"""Span recording around ringpack's public functions, from outside.

`instrument(tracer)` replaces each traced function at the module attribute
its caller looks it up by (for example `solver.price_rectangular`, the name
`solve` calls, or `patterns.verify_exact`, the name `classify_counts`
calls) and restores the originals on exit.  Each call becomes a span
(name, start, end, parent, solve id, attributes) held in memory; nothing
under `src/` changes.  Two hot predicates are only counted, not spanned.

`layer_metrics` derives the per-layer numbers from the spans: self time
(a span's duration minus its children's), call counts, exact-search nodes
by container and circle count, and which solver stage each node was
spent under.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

# a span whose nearest enclosing stage is one of these charges its
# exact-search nodes to that stage
STAGES = {
    "pricing.price_rectangular": "pricing",
    "patterns.enumerate_patterns": "enumerate",
    "solver.price_and_verify_root": "verify",
}

K_BANDS = (("k_le4", 0, 4), ("k5_6", 5, 6), ("k_ge7", 7, 10**9))
# kernel table cells reported as metrics; disk k5_6 and rect k_ge7 get no
# nodes on any workload, so they appear only in the printed table
RATE_CELLS = (("disk", "k_le4"), ("disk", "k_ge7"), ("rect", "k_le4"),
              ("rect", "k5_6"))

LAYERS = ("geometry", "patterns", "pricing", "master", "simplex", "solver",
          "model", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve", "attrs")

    def __init__(self, name, start, parent, solve):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.solve = solve
        self.attrs = None


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.solve_id = 0

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), parent, self.solve_id))
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self.stack.pop()
        if popped != index:
            raise RuntimeError("span closed out of order")

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def enclosing(self, names) -> str | None:
        """Name of the innermost open span among `names`."""
        for index in reversed(self.stack):
            if self.spans[index].name in names:
                return self.spans[index].name
        return None

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "solve": s.solve, "attrs": s.attrs,
                }) + "\n")


def _container_kind(container) -> str:
    from ringpack.geometry import Disk

    return "disk" if isinstance(container, Disk) else "rect"


def _spanned(tracer: Tracer, fn, name: str, before=None, after=None):
    """`fn` recorded as span `name`.  `before(span, args, kwargs)` runs with
    the span open and the parent on the stack; `after(span, args, kwargs,
    result)` runs once the call returned."""

    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        span = tracer.spans[index]
        try:
            if before is not None:
                before(span, args, kwargs)
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(span, args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _counted(tracer: Tracer, fn, key: str):
    def wrapper(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _counted_items(tracer: Tracer, fn, key: str):
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            tracer.counts[key] += 1
            yield item

    wrapper.__wrapped__ = fn
    return wrapper


def _hooks(tracer: Tracer):
    """before/after callbacks that put attributes on the spans."""
    from ringpack.geometry import FEASIBLE, INFEASIBLE
    from ringpack.pricing import BoundOnly, ImprovingColumn

    # classify_counts span index -> the multiset it gave greedy_pack
    greedy_on: dict[int, tuple] = {}

    def classify_before(span, args, kwargs):
        cache, key = kwargs.get("cache"), kwargs.get("cache_key")
        span.attrs = {"hit": cache is not None and key is not None and key in cache}

    def prefilter_after(span, args, kwargs, result):
        span.attrs = {"decided": result is not None}

    def greedy_before(span, args, kwargs):
        # the duplicate greedy: verify_exact re-running greedy on the
        # multiset its classify_counts caller already gave greedy
        key = (args[0], tuple(args[1]))
        attrs = {"dup": False}
        parent = tracer.spans[span.parent] if span.parent is not None else None
        if parent is not None and parent.name == "patterns.classify_counts":
            greedy_on[span.parent] = key
        elif parent is not None and parent.name == "geometry.verify_exact":
            attrs["dup"] = greedy_on.get(parent.parent) == key
        span.attrs = attrs

    def greedy_after(span, args, kwargs, result):
        span.attrs["ok"] = result.status == FEASIBLE

    def verify_before(span, args, kwargs):
        span.attrs = {
            "container": _container_kind(args[0]),
            "k": sum(int(c) for _, c in args[1]),
            "stage": STAGES.get(tracer.enclosing(STAGES)),
        }

    def verify_after(span, args, kwargs, result):
        span.attrs["nodes"] = result.nodes
        span.attrs["resolved"] = result.status in (FEASIBLE, INFEASIBLE)

    def price_after(span, args, kwargs, result):
        if isinstance(result, ImprovingColumn):
            outcome = "improving"
        elif isinstance(result, BoundOnly):
            outcome = "bound_only"
        else:
            outcome = "proof" if result.proof else "no_proof"
        span.attrs = {"outcome": outcome}

    def ip_after(span, args, kwargs, result):
        span.attrs = {"nodes": result[2]}

    return {
        "classify": (classify_before, None),
        "prefilter": (None, prefilter_after),
        "greedy": (greedy_before, greedy_after),
        "verify": (verify_before, verify_after),
        "price": (None, price_after),
        "ip": (None, ip_after),
    }


@contextmanager
def instrument(tracer: Tracer):
    """Wrap ringpack's layer functions where their callers look them up."""
    from ringpack import geometry, master, patterns, pricing, simplex, solver

    hooks = _hooks(tracer)
    spanned = [
        # (module, attribute the caller looks up, span name, hooks)
        (solver, "enumerate_patterns", "patterns.enumerate_patterns", None),
        (solver, "price_and_verify_root", "solver.price_and_verify_root", None),
        (solver, "build_master", "master.build_master", None),
        (solver, "price_rectangular", "pricing.price_rectangular", "price"),
        (solver, "classify_counts", "patterns.classify_counts", "classify"),
        (pricing, "classify_counts", "patterns.classify_counts", "classify"),
        (patterns, "classify_counts", "patterns.classify_counts", "classify"),
        (patterns, "analytic_prefilter", "geometry.analytic_prefilter", "prefilter"),
        (patterns, "greedy_pack", "geometry.greedy_pack", "greedy"),
        # verify_exact's own greedy call and pricing's greedy phase
        (geometry, "greedy_pack", "geometry.greedy_pack", "greedy"),
        (patterns, "verify_exact", "geometry.verify_exact", "verify"),
        (master, "lp_relax_value", "master.lp_relax_value", None),
        (master, "solve_lp", "simplex.solve_lp", None),
        # LinearProgram.solve, which the restricted IP calls per node
        (simplex, "solve_lp", "simplex.solve_lp", None),
        (solver, "solve_restricted_ip", "solver.solve_restricted_ip", "ip"),
        (solver, "reconstruct_placements", "solver.reconstruct_placements", None),
        (solver, "fallback_solution", "solver.fallback_solution", None),
        (solver, "validate_solution", "model.validate_solution", None),
    ]
    saved = []
    try:
        for module, attr, name, hook in spanned:
            fn = getattr(module, attr)
            before, after = hooks[hook] if hook else (None, None)
            saved.append((module, attr, fn))
            setattr(module, attr, _spanned(tracer, fn, name, before, after))
        for attr, wrap in (("dominates", _counted), ("candidate_space", _counted_items)):
            fn = getattr(patterns, attr)
            saved.append((patterns, attr, fn))
            setattr(patterns, attr, wrap(tracer, fn, f"patterns.{attr}"))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def durations(tracer: Tracer, calibrator) -> list[float]:
    """Calibrated duration of every span: its wall time without the speed
    probes run inside it, at the speed measured around its request."""
    speed = {s.solve: calibrator.speed(s.start, s.end)
             for s in tracer.spans if s.name == "bench.request"}
    return [(s.end - s.start - calibrator.probe_time(s.start, s.end)) * speed[s.solve]
            for s in tracer.spans]


def self_times(tracer: Tracer, duration: list[float]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    self_s = list(duration)
    for s, d in zip(tracer.spans, duration):
        if s.parent is not None:
            self_s[s.parent] -= d
    return self_s


def _frac(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, calibrator, traced_wall: float,
                  untraced_wall: float):
    """Per-layer metrics of one traced round, as {name: (value, unit)}, and
    the kernel throughput table {container: {band: [nodes, seconds]}}.
    Times are calibrated seconds; the two walls are the calibrated request
    seconds of the traced round and of the untraced one before it."""
    from ringpack.geometry import NODES_PER_SECOND

    spans = tracer.spans
    duration = durations(tracer, calibrator)
    self_s = self_times(tracer, duration)
    total = Counter()
    own = Counter()
    calls = Counter()
    for s, d, own_s in zip(spans, duration, self_s):
        total[s.name] += d
        own[s.name] += own_s
        calls[s.name] += 1
    layer_self = Counter()
    for name, value in own.items():
        layer_self[name.split(".", 1)[0]] += value

    nodes = 0
    verify_self = 0.0
    resolved = unknown = 0
    stage_nodes = Counter()
    table = {c: {band: [0, 0.0] for band, _, _ in K_BANDS} for c in ("disk", "rect")}
    greedy_ok = greedy_dup = 0
    prefilter_decided = classify_hits = 0
    outcomes = Counter()
    ip_nodes = ip_lp_calls = 0
    ip_spans = set()
    for i, s in enumerate(spans):
        if s.name == "geometry.verify_exact":
            a = s.attrs
            nodes += a["nodes"]
            verify_self += self_s[i]
            resolved += a["resolved"]
            unknown += not a["resolved"]
            stage_nodes[a["stage"]] += a["nodes"]
            for band, lo, hi in K_BANDS:
                if lo <= a["k"] <= hi:
                    cell = table[a["container"]][band]
                    cell[0] += a["nodes"]
                    cell[1] += self_s[i]
        elif s.name == "geometry.greedy_pack":
            greedy_ok += s.attrs["ok"]
            greedy_dup += s.attrs["dup"]
        elif s.name == "geometry.analytic_prefilter":
            prefilter_decided += s.attrs["decided"]
        elif s.name == "patterns.classify_counts":
            classify_hits += s.attrs["hit"]
        elif s.name == "pricing.price_rectangular":
            outcomes[s.attrs["outcome"]] += 1
        elif s.name == "solver.solve_restricted_ip":
            ip_nodes += s.attrs["nodes"]
            ip_spans.add(i)
        elif s.name == "simplex.solve_lp" and s.parent in ip_spans:
            ip_lp_calls += 1

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    verify_calls = calls["geometry.verify_exact"]
    put("geometry.verify_exact.calls", verify_calls, "count")
    put("geometry.verify_exact.s", total["geometry.verify_exact"], "s")
    put("geometry.verify_exact.nodes", nodes, "count")
    put("geometry.verify_exact.nodes_per_s", _frac(nodes, verify_self), "1/s")
    put("geometry.verify_exact.resolved_frac", _frac(resolved, verify_calls), "ratio")
    put("geometry.verify_exact.unknown", unknown, "count")
    for container, band in RATE_CELLS:
        n, secs = table[container][band]
        put(f"geometry.nodes_per_s.{container}.{band}", _frac(n, secs), "1/s")
    put("geometry.wall_per_virtual", _frac(verify_self, nodes / NODES_PER_SECOND), "s/s")
    greedy_calls = calls["geometry.greedy_pack"]
    put("geometry.greedy_pack.calls", greedy_calls, "count")
    put("geometry.greedy_pack.s", total["geometry.greedy_pack"], "s")
    put("geometry.greedy_pack.success_frac", _frac(greedy_ok, greedy_calls), "ratio")
    put("geometry.greedy_pack.calls.in_verify_exact", greedy_dup, "count")
    prefilter_calls = calls["geometry.analytic_prefilter"]
    put("geometry.analytic_prefilter.calls", prefilter_calls, "count")
    put("geometry.analytic_prefilter.decided_frac",
        _frac(prefilter_decided, prefilter_calls), "ratio")
    for stage in ("enumerate", "pricing", "verify"):
        put(f"geometry.nodes.{stage}", stage_nodes[stage], "count")

    put("patterns.enumerate_patterns.s", total["patterns.enumerate_patterns"], "s")
    put("patterns.enumerate_patterns.self_s", own["patterns.enumerate_patterns"], "s")
    put("patterns.candidates", tracer.counts["patterns.candidate_space"], "count")
    put("patterns.dominates.calls", tracer.counts["patterns.dominates"], "count")
    classify_calls = calls["patterns.classify_counts"]
    put("patterns.classify_counts.calls", classify_calls, "count")
    put("patterns.classify_counts.s", total["patterns.classify_counts"], "s")
    put("patterns.classify_counts.cache_hit_frac",
        _frac(classify_hits, classify_calls), "ratio")

    put("pricing.price_rectangular.calls", calls["pricing.price_rectangular"], "count")
    put("pricing.price_rectangular.s", total["pricing.price_rectangular"], "s")
    put("pricing.price_rectangular.self_s", own["pricing.price_rectangular"], "s")
    for outcome in ("improving", "proof", "bound_only"):
        put(f"pricing.outcome.{outcome}", outcomes[outcome], "count")

    put("master.lp.calls", calls["master.lp_relax_value"], "count")
    put("master.lp.s", total["master.lp_relax_value"], "s")
    put("simplex.solve_lp.calls", calls["simplex.solve_lp"], "count")
    put("simplex.solve_lp.s", total["simplex.solve_lp"], "s")

    put("solver.root.s", total["solver.price_and_verify_root"], "s")
    put("solver.ip.s", total["solver.solve_restricted_ip"], "s")
    put("solver.ip.nodes", ip_nodes, "count")
    put("solver.ip.lp_calls", ip_lp_calls, "count")
    put("solver.reconstruct.s", total["solver.reconstruct_placements"], "s")
    put("model.validate_solution.s", total["model.validate_solution"], "s")
    put("cli.format_report.s", total["cli.format_report"], "s")

    for layer in LAYERS:
        put(f"{layer}.self_s", layer_self[layer], "s")
    attributed = sum(layer_self[layer] for layer in LAYERS)
    put("trace.wall_s", traced_wall, "s")
    put("trace.attributed_frac", _frac(attributed, traced_wall), "ratio")
    put("trace.overhead_frac", _frac(traced_wall, untraced_wall) - 1.0, "ratio")
    return m, table
