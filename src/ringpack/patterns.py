"""Circular and rectangular packing patterns and their enumeration.

A circular pattern (t, P) is a ring type t together with a count vector P
saying how many rings of each type sit directly inside t's hole.  A
rectangular pattern is a count vector of rings placed directly into one
rectangle.  Feasibility of a pattern is a pure circle-packing question about
its container, answered by the geometry engine; nesting deeper than one
level is composed from several patterns, never encoded in one.

Enumeration walks each type's count vectors in graded lexicographic order
(total count ascending, then lexicographic).  Because packability is
downward closed, a proven-infeasible pattern certifies every
componentwise-larger vector infeasible, so the walk never visits those: it
climbs level by level through the down-set the proofs leave open.
Verification effort is metered by a Budget of exact-search nodes
(virtual seconds times NODES_PER_SECOND), so identical runs spend
identical budgets regardless of machine speed.

Type indices are 0-based throughout, here and in every serialized form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from ringpack.geometry import (
    FEASIBLE,
    INFEASIBLE,
    UNKNOWN,
    NODES_PER_SECOND,
    Disk,
    Rect,
    Verdict,
    analytic_prefilter,
    greedy_pack,
    verify_exact,
)
from ringpack.model import Instance


@dataclass(frozen=True, order=True)
class CircularPattern:
    """Counts of rings nested directly inside one ring of `outer_type`."""

    outer_type: int
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True, order=True)
class RectangularPattern:
    """Counts of rings placed directly into one rectangle."""

    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)


Witness = tuple[tuple[float, float], ...]


@dataclass
class PatternSets:
    """Tri-partition of circular-pattern candidates by verification outcome.

    feasible maps each pattern to a packing witness for its hole.
    infeasible holds the patterns proven unpackable; each certifies every
    componentwise-larger pattern unpackable too, and those are not stored.
    unknown holds the patterns no search settled.
    """

    feasible: dict[CircularPattern, Witness] = field(default_factory=dict)
    infeasible: set[CircularPattern] = field(default_factory=set)
    unknown: set[CircularPattern] = field(default_factory=set)


def dominates(p: CircularPattern, q: CircularPattern) -> bool:
    """p dominates q: same outer type, q's counts within p's, not equal."""
    if p.outer_type != q.outer_type or p.counts == q.counts:
        return False
    return all(qc <= pc for qc, pc in zip(q.counts, p.counts))


def filter_dominated(patterns) -> set[CircularPattern]:
    """Maximal elements of the componentwise order; an antichain."""
    pats = set(patterns)
    return {p for p in pats if not any(dominates(q, p) for q in pats)}


def circular_caps(instance: Instance, t: int) -> tuple[int, ...]:
    """Per-type count ceilings for candidates nested in type t's hole."""
    hole = instance.types[t].inner_radius
    caps = []
    for s, ring in enumerate(instance.types):
        if ring.outer_radius > hole or ring.outer_radius <= 0:
            caps.append(0)
            continue
        by_area = int(hole * hole / (ring.outer_radius * ring.outer_radius))
        caps.append(min(ring.demand, by_area))
    return tuple(caps)


def rect_caps(instance: Instance) -> tuple[int, ...]:
    """Per-type count ceilings for rings placed directly in one rectangle."""
    area = instance.width * instance.height
    caps = []
    for ring in instance.types:
        by_area = int(area / (math.pi * ring.outer_radius**2))
        caps.append(min(ring.demand, by_area))
    return tuple(caps)


def candidate_space(instance: Instance, t: int, infeasible=frozenset()):
    """Yield type t's count vectors within caps, in graded-lex order, that
    lie strictly above no vector of `infeasible`, which the caller may fill
    while iterating.  Each vector is built once, from its parent one lower in
    its last nonzero count, and needs every other parent live in its level;
    that parent is monotone in lex order, so each level comes out sorted."""
    caps = circular_caps(instance, t)
    level = [(0,) * len(caps)]
    while level:
        yield from level
        live = [v for v in level if v not in infeasible]
        alive, level = set(live), []
        for v in live:
            for i in reversed(range(len(v))):
                if v[i] < caps[i]:
                    w = v[:i] + (v[i] + 1,) + v[i + 1 :]
                    if all(w[:j] + (w[j] - 1,) + w[j + 1 :] in alive
                           for j in range(i) if w[j]):
                        level.append(w)
                if v[i]:
                    break  # a lower index is not this vector's last count


def hole_container(instance: Instance, t: int) -> Disk:
    return Disk(instance.types[t].inner_radius)


def rect_container(instance: Instance) -> Rect:
    return Rect(instance.width, instance.height)


def counts_multiset(instance: Instance, counts) -> list[tuple[float, int]]:
    """(radius, count) pairs for the nonzero entries of a count vector."""
    return [
        (instance.types[s].outer_radius, c) for s, c in enumerate(counts) if c > 0
    ]


def witness_slots(instance: Instance, counts) -> list[int]:
    """Type index for each witness position, matching expand_multiset order."""
    items = [
        (instance.types[s].outer_radius, s, c)
        for s, c in enumerate(counts)
        if c > 0
    ]
    items.sort(key=lambda it: -it[0])
    slots: list[int] = []
    for _, s, c in items:
        slots.extend([s] * c)
    return slots


def check_effort(name: str, value: float) -> float:
    """Return `value` if it is a valid effort setting (>= 0, or +inf)."""
    if not value >= 0:  # also rejects NaN and -inf
        raise ValueError(f"{name} must be >= 0 or inf, got {value}")
    return value


@dataclass(frozen=True)
class SolveConfig:
    """Effort settings in virtual seconds (see Budget): a `_limit` caps one
    exact search, a `_budget` one stage.  pricing_limit is the budget of
    each pricing call, whose exact searches are capped by
    enumeration_limit.  The defaults are the paper profile."""

    enumeration_limit: float = 10.0
    enumeration_budget: float = 1200.0
    verification_limit: float = 10.0
    verification_budget: float = 2400.0
    pricing_limit: float = 300.0
    ip_node_limit: int = 200_000

    def __post_init__(self) -> None:
        for f in fields(self):
            check_effort(f.name, getattr(self, f.name))


DESK_CONFIG = SolveConfig(
    enumeration_limit=1.0,
    enumeration_budget=60.0,
    verification_limit=5.0,
    verification_budget=120.0,
    pricing_limit=30.0,
)


def _nodes(seconds: float) -> float:
    """The most whole nodes whose virtual time stays within `seconds`;
    infinity stays infinite.  Rounding the product to nearest and stepping
    back once handles both float slips: 3e-4 s gives 29.999999999999996
    (30 nodes fit) and 4.9999999999999996e-05 s gives 5.0 (only 4 fit)."""
    if seconds == math.inf:
        return seconds
    nodes = round(seconds * NODES_PER_SECOND)
    return nodes - 1 if nodes / NODES_PER_SECOND > seconds else nodes


class Budget:
    """One stage's allowance of exact-search nodes.

    Built from the stage total and the cap on any single exact search, both
    in virtual seconds and converted once at NODES_PER_SECOND.  Only search
    nodes are charged (exact-search nodes, and pricing's own branch and
    bound nodes); prefilter and greedy calls are free.  This keeps budget
    exhaustion a pure function of the input rather than of machine speed.
    """

    def __init__(self, stage_seconds: float, call_seconds: float):
        self.stage_nodes = _nodes(stage_seconds)
        self.call_limit = _nodes(call_seconds)
        self.spent_nodes = 0

    @property
    def exhausted(self) -> bool:
        return self.spent_nodes >= self.stage_nodes

    def charge(self, nodes: int) -> None:
        self.spent_nodes += nodes

    def call_nodes(self) -> float:
        """Node limit for the next exact search: the per-call cap or what
        is left of the stage, whichever is smaller."""
        return min(self.call_limit, self.stage_nodes - self.spent_nodes)


def classify_counts(
    instance: Instance,
    container,
    counts,
    budget: Budget,
    cache: dict | None = None,
    cache_key=None,
) -> Verdict:
    """Prefilter, then greedy, then exact search charged to `budget`, all
    within the fixed band geometry.TOLERANCE.

    `cache` (pricing's, the one caller that meets a count vector twice)
    holds only settled facts (Feasible with witness, Infeasible) under
    `cache_key`, so a later call with more budget can still upgrade an
    Unknown.
    """
    if cache is not None and cache_key in cache:
        return cache[cache_key]
    ms = counts_multiset(instance, counts)
    verdict = analytic_prefilter(container, ms)
    if verdict is None:
        g = greedy_pack(container, ms)
        if g.status == FEASIBLE:
            verdict = g
    if verdict is None:
        node_limit = budget.call_nodes()
        if node_limit <= 0:
            verdict = Verdict(UNKNOWN, reason="budget exhausted")
        else:
            verdict = verify_exact(container, ms, node_limit)
            budget.charge(verdict.nodes)

    if cache is not None and verdict.status in (FEASIBLE, INFEASIBLE):
        cache[cache_key] = verdict
    return verdict


def enumerate_patterns(
    instance: Instance,
    config: SolveConfig = SolveConfig(),
    filter_result: bool = True,
) -> PatternSets:
    """Classify every circular-pattern candidate of the instance.

    `config.enumeration_limit` caps each exact search and
    `config.enumeration_budget` the whole enumeration.

    Each type's candidate_space is fed the proven-infeasible vectors, so a
    vector above a proof is neither visited nor stored.  Each candidate runs
    prefilter, greedy, then exact search while budget remains.  On return
    the feasible set is reduced to its maximal elements and unknown patterns
    dominated by a verified-feasible pattern are dropped (they could never
    be maximal); unknown patterns are never used to discard each other, so
    every truly-maximal feasible pattern survives in feasible or unknown.
    filter_result=False skips that reduction and returns every candidate the
    walk visited.
    """
    sets = PatternSets()
    stage = Budget(config.enumeration_budget, config.enumeration_limit)
    for t in range(instance.type_count):
        container = hole_container(instance, t)
        proven: set[tuple[int, ...]] = set()
        for counts in candidate_space(instance, t, proven):
            pat = CircularPattern(t, counts)
            verdict = classify_counts(instance, container, counts, stage)
            if verdict.status == FEASIBLE:
                sets.feasible[pat] = verdict.witness
            elif verdict.status == INFEASIBLE:
                sets.infeasible.add(pat)
                proven.add(counts)
            else:
                sets.unknown.add(pat)
    if filter_result:
        keep = filter_dominated(sets.feasible)
        sets.feasible = {p: w for p, w in sets.feasible.items() if p in keep}
        sets.unknown = {
            p for p in sets.unknown if not any(dominates(q, p) for q in keep)
        }
    return sets


def dump_patterns(instance: Instance, sets: PatternSets) -> str:
    """One line per pattern: `C t P_1 … P_T status`, feasible lines carrying
    their witness coordinates; sorted for byte-stable output."""
    lines = []
    entries: list[tuple[CircularPattern, str, Witness | None]] = []
    entries.extend((p, "Feasible", w) for p, w in sets.feasible.items())
    entries.extend((p, "Infeasible", None) for p in sets.infeasible)
    entries.extend((p, "Unknown", None) for p in sets.unknown)
    entries.sort(key=lambda e: (e[0].outer_type, e[0].counts))
    for pat, status, witness in entries:
        parts = ["C", str(pat.outer_type)]
        parts.extend(str(c) for c in pat.counts)
        parts.append(status)
        if witness:
            for x, y in witness:
                parts.append(f"{x:.12g}")
                parts.append(f"{y:.12g}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")
