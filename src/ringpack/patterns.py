"""Circular and rectangular packing patterns and their enumeration.

A circular pattern (t, P) is a ring type t together with a count vector P
saying how many rings of each type sit directly inside t's hole.  A
rectangular pattern is a count vector of rings placed directly into one
rectangle.  Feasibility of a pattern is a pure circle-packing question about
its container, answered by the geometry engine; nesting deeper than one
level is composed from several patterns, never encoded in one.

Enumeration walks each type's candidate count vectors in graded
lexicographic order (total count ascending, then lexicographic).  Because
packability is downward closed, a proven-infeasible pattern certifies every
componentwise-larger candidate infeasible without another geometry call, and
the ascending order means those certificates are available exactly when they
help.  Verification effort is metered by a Budget of exact-search nodes
(virtual seconds times NODES_PER_SECOND), so identical runs spend
identical budgets regardless of machine speed.

Type indices are 0-based throughout, here and in every serialized form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ringpack.geometry import (
    FEASIBLE,
    INFEASIBLE,
    UNKNOWN,
    NODES_PER_SECOND,
    Disk,
    Rect,
    Verdict,
    analytic_prefilter,
    check_placements,
    expand_multiset,
    greedy_pack,
    verify_exact,
)
from ringpack.model import Instance, InvariantViolation, MalformedInput


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

    feasible maps each pattern to a packing witness for its hole; unknown
    maps each pattern to its tested flag (0 = not yet re-examined by the
    verification loop of the solve driver).
    """

    feasible: dict[CircularPattern, Witness] = field(default_factory=dict)
    infeasible: set[CircularPattern] = field(default_factory=set)
    unknown: dict[CircularPattern, int] = field(default_factory=dict)

    def status_of(self, pattern: CircularPattern) -> str | None:
        if pattern in self.feasible:
            return FEASIBLE
        if pattern in self.infeasible:
            return INFEASIBLE
        if pattern in self.unknown:
            return UNKNOWN
        return None


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


def _fixed_sum(caps, idx, remaining, suffix_room, prefix, out):
    if idx == len(caps):
        if remaining == 0:
            out.append(tuple(prefix))
        return
    room_after = suffix_room[idx + 1]
    lo = max(0, remaining - room_after)
    hi = min(caps[idx], remaining)
    for c in range(lo, hi + 1):
        prefix.append(c)
        _fixed_sum(caps, idx + 1, remaining - c, suffix_room, prefix, out)
        prefix.pop()


def candidate_space(instance: Instance, t: int):
    """Yield candidate count vectors for type t's hole in graded-lex order."""
    caps = circular_caps(instance, t)
    suffix_room = [0] * (len(caps) + 1)
    for i in range(len(caps) - 1, -1, -1):
        suffix_room[i] = suffix_room[i + 1] + caps[i]
    for total in range(sum(caps) + 1):
        batch: list[tuple[int, ...]] = []
        _fixed_sum(caps, 0, total, suffix_room, [], batch)
        yield from batch


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
    tolerance: float,
    cache: dict | None = None,
    cache_key=None,
) -> Verdict:
    """Prefilter, then greedy, then exact search charged to `budget`.

    Cache holds only settled facts (Feasible with witness, Infeasible), so a
    later run with more budget can still upgrade an Unknown.
    """
    if cache is not None and cache_key is not None and cache_key in cache:
        return cache[cache_key]
    ms = counts_multiset(instance, counts)
    verdict = analytic_prefilter(container, ms, tolerance)
    if verdict is None:
        g = greedy_pack(container, ms, tolerance)
        if g.status == FEASIBLE:
            verdict = g
    if verdict is None:
        node_limit = budget.call_nodes()
        if node_limit <= 0:
            verdict = Verdict(UNKNOWN, reason="budget exhausted")
        else:
            verdict = verify_exact(container, ms, node_limit, tolerance)
            budget.charge(verdict.nodes)

    if (
        cache is not None
        and cache_key is not None
        and verdict.status in (FEASIBLE, INFEASIBLE)
    ):
        cache[cache_key] = verdict
    return verdict


def enumerate_patterns(
    instance: Instance,
    limit: float = 10.0,
    budget: float = 1200.0,
    cache: dict | None = None,
    filter_result: bool = True,
    tolerance: float = 1e-9,
) -> PatternSets:
    """Classify every circular-pattern candidate of the instance.

    `limit` caps each exact search and `budget` the whole enumeration, both
    in virtual seconds; the defaults are the paper profile's.

    Walks candidates per type in graded-lex order.  A candidate dominated by
    a proven-infeasible pattern is recorded infeasible without a geometry
    call; a candidate dominated by an already-classified feasible pattern
    would be skipped outright, though the ascending order makes that case
    unreachable.  Everything else runs prefilter, greedy, then exact search
    while budget remains.  On return the feasible set is reduced to its
    maximal elements and unknown patterns dominated by a verified-feasible
    pattern are dropped (they could never be maximal); unknown patterns are
    never used to discard each other, so every truly-maximal feasible
    pattern survives in feasible or unknown.  filter_result=False returns
    the raw classification of every candidate, skipping the final reduction.
    """
    sets = PatternSets()
    stage = Budget(budget, limit)
    for t in range(instance.type_count):
        container = hole_container(instance, t)
        proven_infeasible: list[CircularPattern] = []
        classified_feasible: list[CircularPattern] = []
        for counts in candidate_space(instance, t):
            pat = CircularPattern(t, counts)
            if any(dominates(pat, q) for q in proven_infeasible):
                sets.infeasible.add(pat)
                continue
            if any(dominates(q, pat) for q in classified_feasible):
                continue  # implied feasible, never maximal
            verdict = classify_counts(
                instance, container, counts, stage, tolerance,
                cache=cache, cache_key=(t, tuple(counts)),
            )
            if verdict.status == FEASIBLE:
                sets.feasible[pat] = verdict.witness
                classified_feasible.append(pat)
            elif verdict.status == INFEASIBLE:
                sets.infeasible.add(pat)
                proven_infeasible.append(pat)
            else:
                sets.unknown[pat] = 0
    if filter_result:
        keep = filter_dominated(sets.feasible)
        sets.feasible = {p: w for p, w in sets.feasible.items() if p in keep}
        sets.unknown = {
            p: flag
            for p, flag in sets.unknown.items()
            if not any(dominates(q, p) for q in keep)
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


def load_patterns(text: str, instance: Instance) -> PatternSets:
    """Inverse of dump_patterns; feasible witnesses are re-checked.

    A feasible line without a valid witness is demoted to unknown rather
    than trusted, keeping the witnessed-feasible invariant.
    """
    sets = PatternSets()
    T = instance.type_count
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] != "C" or len(tokens) < T + 3:
            raise MalformedInput(f"line {lineno}: expected `C t P_1 .. P_{T} status`")
        try:
            t = int(tokens[1])
            counts = tuple(int(x) for x in tokens[2 : 2 + T])
            status = tokens[2 + T]
            rest = [float(x) for x in tokens[3 + T :]]
        except ValueError:
            raise MalformedInput(f"line {lineno}: bad token") from None
        if not (0 <= t < T):
            raise InvariantViolation(f"line {lineno}: type {t} out of range")
        pat = CircularPattern(t, counts)
        if status == "Infeasible":
            sets.infeasible.add(pat)
            continue
        if status == "Unknown":
            sets.unknown[pat] = 0
            continue
        if status != "Feasible":
            raise MalformedInput(f"line {lineno}: unknown status {status!r}")
        if len(rest) % 2:
            raise MalformedInput(f"line {lineno}: odd witness coordinate count")
        witness = tuple((rest[i], rest[i + 1]) for i in range(0, len(rest), 2))
        ms = counts_multiset(instance, counts)
        radii = expand_multiset(ms) if ms else ()
        if len(witness) == len(radii) and check_placements(
            hole_container(instance, t), radii, witness
        ):
            sets.feasible[pat] = witness
        else:
            sets.unknown[pat] = 0
    return sets
