"""Brute-force ground truth at desk scale.

Everything here exists to cross-check the column-generation solver on
instances small enough to exhaust.  The module enumerates every count
vector a single rectangle can host (including rings supplied through
nesting), solves the covering LP over those vectors, and searches the
integer cover for the true optimum.

Enumeration composes containers bottom-up: for each ring type the set of
totals its subtree can contribute is built from the feasible contents of
its hole, then rectangle contents are expanded the same way.  Per-hole
and per-rectangle content multisets respect the same caps the pattern
module uses, so the covering LP here and the pattern-based root LP
bound the same polyhedron.

This is a test fixture, not a solver: hard size guards raise Intractable
rather than grind.
"""

from __future__ import annotations

import itertools

from .geometry import (
    FEASIBLE,
    INFEASIBLE,
    analytic_prefilter,
    greedy_pack,
    verify_exact,
)
from .model import Instance
from .patterns import (
    circular_caps,
    counts_multiset,
    hole_container,
    rect_caps,
    rect_container,
)
from .simplex import OPTIMAL, LinearProgram, solve_lp

MAX_RING_COUNT = 12
MAX_CANDIDATES = 10_000

# exact-search node limit per geometry question
_ORACLE_NODE_LIMIT = 2_000_000


class Intractable(RuntimeError):
    """Instance exceeds the oracle's hard size guard."""


def _decide(container, multiset) -> bool:
    # Full pipeline; an Unknown verdict would poison the ground truth,
    # so it escalates instead of being recorded.
    if not multiset:
        return True
    early = analytic_prefilter(container, multiset)
    if early is not None:
        return early.status == FEASIBLE
    if greedy_pack(container, multiset).status == FEASIBLE:
        return True
    verdict = verify_exact(container, multiset, _ORACLE_NODE_LIMIT)
    if verdict.status == INFEASIBLE:
        return False
    if verdict.status == FEASIBLE:
        return True
    raise Intractable("geometry undecided within oracle limits")


def _feasible_contents(instance, container, caps):
    """Count vectors <= caps whose direct placement in container works."""
    span = 1
    for c in caps:
        span *= c + 1
    if span > MAX_CANDIDATES:
        raise Intractable("content grid larger than the size guard")
    out = []
    for counts in itertools.product(*(range(c + 1) for c in caps)):
        if _decide(container, counts_multiset(instance, counts)):
            out.append(counts)
    return out


def _compose(counts, child_vectors, base):
    """All subtree totals for a container holding `counts` direct circles."""
    totals = {base}
    for s, k in enumerate(counts):
        if k == 0:
            continue
        grown = set()
        for combo in itertools.combinations_with_replacement(
            sorted(child_vectors[s]), k
        ):
            add = tuple(sum(vals) for vals in zip(*combo))
            for tot in totals:
                grown.add(tuple(a + b for a, b in zip(tot, add)))
        totals = grown
        if len(totals) > MAX_CANDIDATES:
            raise Intractable("composition exceeded the size guard")
    return totals


def _type_vectors(instance):
    # Types are sorted by outer radius, so hole contents only reference
    # earlier types and one ascending pass suffices.
    n = instance.type_count
    vectors: list[set[tuple[int, ...]]] = []
    for t in range(n):
        unit = tuple(1 if s == t else 0 for s in range(n))
        acc: set[tuple[int, ...]] = set()
        for counts in _feasible_contents(
            instance, hole_container(instance, t), circular_caps(instance, t)
        ):
            acc |= _compose(counts, vectors, unit)
        vectors.append(acc)
    return vectors


def enumerate_packable_rectangles(instance: Instance) -> frozenset[tuple[int, ...]]:
    """Every count-over-type vector one rectangle can realize.

    A vector is included when some nesting forest over individual rings
    achieves it with every container's direct-children multiset both
    geometrically packable and within the pattern caps.  Counts may
    exceed the demand of a type: nesting can over-supply, and the
    covering model treats the surplus as waste.
    """
    if instance.ring_count > MAX_RING_COUNT:
        raise Intractable(
            f"{instance.ring_count} rings demanded; oracle cap is {MAX_RING_COUNT}"
        )
    if any(t.inner_radius >= t.outer_radius for t in instance.types):
        # zero wall thickness lets a type nest inside itself, so chains of
        # unbounded depth exist and no finite family is exhaustive
        raise Intractable("zero-wall ring type permits unbounded nesting")
    vectors = _type_vectors(instance)
    out: set[tuple[int, ...]] = set()
    for counts in _feasible_contents(
        instance, rect_container(instance), rect_caps(instance)
    ):
        out |= _compose(counts, vectors, tuple([0] * instance.type_count))
        if len(out) > MAX_CANDIDATES:
            raise Intractable("rectangle family exceeded the size guard")
    return frozenset(out)


def solve_dw_lp(instance: Instance, vectors=None) -> float:
    """LP value of the covering formulation over enumerated rectangles.

    min sum z_F  s.t.  sum_F F_t z_F >= D_t for every type t, z >= 0.
    """
    if vectors is None:
        vectors = enumerate_packable_rectangles(instance)
    lp = LinearProgram()
    cols = [(vec, lp.add_column(1.0)) for vec in sorted(vectors) if any(vec)]
    for t in range(instance.type_count):
        coefs = {col: float(vec[t]) for vec, col in cols if vec[t]}
        lp.add_row(coefs, float(instance.demands[t]))
    result = solve_lp(lp)
    if result.status != OPTIMAL:
        raise Intractable(f"covering LP came back {result.status}")
    return result.objective


def _maximal(vectors):
    vecs = sorted((v for v in vectors if any(v)), reverse=True)
    keep = []
    for v in vecs:
        if not any(all(k >= c for k, c in zip(kept, v)) for kept in keep):
            keep.append(v)
    return keep


def brute_force_opt(instance: Instance, vectors=None) -> int:
    """Exact minimum rectangle count by exhaustive cover search."""
    if vectors is None:
        vectors = enumerate_packable_rectangles(instance)
    frontier = _maximal(vectors)
    if not frontier:
        raise Intractable("no nonempty rectangle can be packed")
    memo: dict[tuple[int, ...], int] = {}

    def go(residual: tuple[int, ...]) -> int:
        if not any(residual):
            return 0
        hit = memo.get(residual)
        if hit is not None:
            return hit
        t = next(i for i, c in enumerate(residual) if c)
        best = instance.ring_count + 1
        for vec in frontier:
            if vec[t] == 0:
                continue
            nxt = tuple(max(0, c - k) for c, k in zip(residual, vec))
            best = min(best, 1 + go(nxt))
        memo[residual] = best
        return best

    return go(instance.demands)
