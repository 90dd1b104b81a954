"""Pricing problem: find a rectangle pattern with negative reduced cost.

A rectangle column costs one rectangle and supplies hole slots, so its
reduced cost against recursion-row prices lam is 1 - sum(lam_t * P_t).  The
search maximizes the lam-weighted count over geometrically packable count
vectors: a cheap density-greedy phase first, then branch and bound over
count vectors with a fractional area bound, classifying partial vectors
through the shared prefilter/greedy/exact pipeline.

Outcomes are deliberately three-valued.  A found column with reduced cost
below -ZERO_TOL is returned even when the optimality search was truncated; a
completed search with bound above -ZERO_TOL is a proof of LP optimality; and a
truncated or unverifiable search yields only a safe lower bound z on the
minimum reduced cost, which still turns into a Farley-style dual bound
ceil(nu / (1 - z)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import FEASIBLE, INFEASIBLE
from .model import Instance
from .patterns import (
    Budget,
    RectangularPattern,
    SolveConfig,
    classify_counts,
    counts_multiset,
    rect_caps,
    rect_container,
)
from .simplex import ZERO_TOL


class DegenerateDenominator(ZeroDivisionError):
    pass


@dataclass(frozen=True)
class ImprovingColumn:
    pattern: RectangularPattern
    reduced_cost: float
    witness: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class NoImprovement:
    proof: bool


@dataclass(frozen=True)
class BoundOnly:
    z_pricing: float


PricingResult = ImprovingColumn | NoImprovement | BoundOnly


def reduced_cost(pattern: RectangularPattern, lam) -> float:
    return 1.0 - sum(l * c for l, c in zip(lam, pattern.counts))


def farley_bound(nu: float, z_pricing: float) -> int:
    """ceil(nu / (1 - z)); a valid rectangle count floor whenever z is a
    valid lower bound on the minimum pricing reduced cost."""
    denom = 1.0 - z_pricing
    if denom <= 0.0:
        raise DegenerateDenominator(f"1 - z = {denom}")
    return math.ceil(nu / denom - 1e-9)


def _density_order(lam, caps, areas):
    order = []
    for t, area in enumerate(areas):
        if lam[t] > 0.0 and caps[t] > 0:
            order.append((-(lam[t] / area), t))
    order.sort()
    return [t for _, t in order]


def _greedy_phase(instance, lam, caps, order):
    """Grow a pattern one circle at a time in density order."""
    from .geometry import greedy_pack

    box = rect_container(instance)
    counts = [0] * instance.type_count
    witness: tuple | None = None
    for t in order:
        while counts[t] < caps[t]:
            counts[t] += 1
            verdict = greedy_pack(box, counts_multiset(instance, counts))
            if verdict.status == FEASIBLE:
                witness = verdict.witness
            else:
                counts[t] -= 1
                break
    if witness is None:
        return None
    return RectangularPattern(tuple(counts)), witness


def price_rectangular(
    instance: Instance,
    lam,
    config: SolveConfig = SolveConfig(),
    cache: dict | None = None,
) -> PricingResult:
    """Best rectangle pattern under prices `lam`.  `config.pricing_limit`
    (virtual seconds) covers this call's branch and bound nodes plus its
    exact searches; `config.enumeration_limit` caps each exact search.
    `cache` memoizes settled verdicts across calls (see classify_counts)."""
    caps = rect_caps(instance)
    areas = [math.pi * ring.outer_radius ** 2 for ring in instance.types]
    order = _density_order(lam, caps, areas)
    if not order:
        # every price is nonpositive: the empty pattern is optimal, rc = 1
        return NoImprovement(proof=True)

    box = rect_container(instance)
    total_area = instance.width * instance.height
    # best lam per unit area among types from position i of the order onward
    tail_density = [0.0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        t = order[i]
        tail_density[i] = max(tail_density[i + 1], lam[t] / areas[t])

    def upper_bound(value, used_area, pos):
        return value + max(0.0, total_area - used_area) * tail_density[pos]

    stage = Budget(config.pricing_limit, config.enumeration_limit)

    best = _greedy_phase(instance, lam, caps, order)
    if best is not None:
        rc = reduced_cost(best[0], lam)
        if rc < -ZERO_TOL:
            return ImprovingColumn(best[0], rc, best[1])

    best_value = 0.0
    best_pattern: RectangularPattern | None = None
    best_witness = None
    if best is not None:
        best_pattern, best_witness = best
        best_value = sum(lam[t] * c for t, c in enumerate(best_pattern.counts))

    # nodes: (pos, counts, value, used_area, fresh) with fresh marking that
    # counts gained a circle and still needs a geometry verdict
    root = (0, tuple([0] * instance.type_count), 0.0, 0.0, False)
    stack = [root]
    uncovered = 0.0  # best optimistic value lost to unverifiable nodes
    out_of_budget = False
    while stack:
        if stage.exhausted:
            out_of_budget = True
            break
        pos, counts, value, used_area, fresh = stack.pop()
        if upper_bound(value, used_area, pos) <= best_value + 1e-12:
            continue
        stage.charge(1)
        if fresh:
            verdict = classify_counts(
                instance, box, counts, stage, cache=cache, cache_key=counts
            )
            if verdict.status == INFEASIBLE:
                continue
            if verdict.status != FEASIBLE:
                uncovered = max(uncovered, upper_bound(value, used_area, pos))
                continue
            if value > best_value + 1e-12:
                best_value = value
                best_pattern = RectangularPattern(counts)
                best_witness = verdict.witness
        if pos == len(order):
            continue
        t = order[pos]
        # explore "one more circle of type t" before "done with type t"
        stack.append((pos + 1, counts, value, used_area, False))
        if counts[t] < caps[t]:
            grown = list(counts)
            grown[t] += 1
            stack.append(
                (pos, tuple(grown), value + lam[t], used_area + areas[t], True)
            )

    frontier = 0.0
    if out_of_budget:
        for pos, counts, value, used_area, fresh in stack:
            frontier = max(frontier, upper_bound(value, used_area, pos))

    if best_pattern is not None:
        rc = 1.0 - best_value
        if rc < -ZERO_TOL:
            return ImprovingColumn(best_pattern, rc, best_witness)

    # valid upper bound on the best lam-weighted packable pattern: explored
    # optima, optimistic value of unverifiable subtrees, unexplored frontier
    attained = max(best_value, uncovered, frontier)
    if attained <= 1.0 + ZERO_TOL:
        return NoImprovement(proof=True)
    return BoundOnly(1.0 - attained)
