"""End-to-end exact solver: enumerate, price and verify, bound, round.

The run is staged.  Pattern enumeration produces feasible and unknown
circular patterns; the root stage alternates pricing (new rectangle
columns) with on-demand verification of unknown patterns the LP actually
leans on; the restricted IP rounds the surviving columns to an integer
incumbent; reconstruction turns pattern counts plus stored witnesses into
ring placements.  Every budget counts exact-search nodes, written as
virtual seconds at a fixed node rate, so reruns are bit-identical.

Dual bookkeeping is deliberately conservative.  LP-based bounds count only
while no unverified pattern has been forced out: the rounded-up root LP
value once pricing has proven it optimal, and the Farley-style bound of
each truncated pricing pass.  The material volume bound counts always.
The primal side always holds a validator-clean incumbent because
single-chain nesting (one ring chain per rectangle) packs any instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import master as master_mod
from .geometry import FEASIBLE, INFEASIBLE, NODES_PER_SECOND
from .master import MasterModel, build_master
from .model import (
    Instance,
    PlacedRing,
    PlacedSolution,
    validate_solution,
    volume_lower_bound,
)
# DESK_CONFIG and SolveConfig are also read from here (ringpack.solver)
from .patterns import (
    DESK_CONFIG,
    Budget,
    CircularPattern,
    PatternSets,
    RectangularPattern,
    SolveConfig,
    classify_counts,
    enumerate_patterns,
    hole_container,
    witness_slots,
)
from .pricing import (
    BoundOnly,
    ImprovingColumn,
    NoImprovement,
    farley_bound,
    price_rectangular,
)
from .simplex import INFEASIBLE as LP_INFEASIBLE
from .simplex import OPTIMAL as LP_OPTIMAL
from .simplex import ZERO_TOL


class InconsistentMultiset(ValueError):
    """Pattern counts that no slot assignment can realize."""


@dataclass
class RootResult:
    master: MasterModel
    sets: PatternSets
    rect_witnesses: dict[RectangularPattern, tuple]
    root_value: float
    dual_valid: bool
    best_dual: int
    farley_bounds: list[int]
    columns_priced: int
    patterns_verified: int
    fixed_unverified: int
    pricing_calls: int
    verification_spent: float


@dataclass(frozen=True)
class SolveReport:
    instance: Instance
    primal_bound: int
    dual_bound: int
    gap: float
    dual_valid: bool
    incumbent: PlacedSolution | None
    ip_proven: bool
    statistics: dict


def _ceil_value(v: float) -> int:
    return math.ceil(v - 1e-6)


def price_and_verify_root(
    instance: Instance,
    sets: PatternSets,
    config: SolveConfig = SolveConfig(),
) -> RootResult:
    """Column generation at the root with verification woven in.

    Pricing runs until proven optimal, out of improvements, out of budget,
    or back at a column the LP already holds; a truncated pricing pass
    leaves a Farley bound behind unless patterns have been forced out, and
    a pass that ends without a proof is never re-entered.  Whenever the LP leans on an unknown pattern, that
    pattern is verified: packable ones are promoted, impossible ones are
    fixed to zero and pricing resumes, undecidable ones are flagged.  If
    flagged patterns still carry value once everything else settles, they
    are all forced out, which keeps the column pool honest but invalidates
    LP-based dual bounds from that point on.
    """
    sets = PatternSets(dict(sets.feasible), set(sets.infeasible), set(sets.unknown))
    unknown = sets.unknown
    model = build_master(instance, sorted(set(sets.feasible) | unknown))

    verify_budget = Budget(config.verification_budget, config.verification_limit)
    pricing_cache: dict = {}  # settled rectangle verdicts, kept across pricing calls

    tested: set[CircularPattern] = set()  # verified without a verdict
    rect_witnesses: dict[RectangularPattern, tuple] = {}

    farleys: list[int] = []
    best_dual = 0
    dual_valid = True
    pricing_dead = False
    lp_converged = False  # pricing has proven optimality for the current LP
    columns_priced = 0
    patterns_verified = 0
    pricing_calls = 0
    mass_fixed = 0

    value = master_mod.lp_relax_value(model)

    while True:
        # (a) pricing until proven optimal for this LP or budget-truncated
        while not pricing_dead and not lp_converged:
            pricing_calls += 1
            outcome = price_rectangular(
                instance, master_mod.duals(model), config, cache=pricing_cache
            )
            if (isinstance(outcome, ImprovingColumn)
                    and outcome.pattern not in model.rect_cols):
                columns_priced += 1
                master_mod.add_rect_column(model, outcome.pattern)
                rect_witnesses[outcome.pattern] = outcome.witness
                value = master_mod.lp_relax_value(model)
                continue
            if isinstance(outcome, BoundOnly) and dual_valid:
                # after a force-out the LP is a restriction, not a relaxation
                farleys.append(farley_bound(value, outcome.z_pricing))
            # only a completed search proves this LP optimal; a column the LP
            # already holds may come from pricing's greedy phase alone, so
            # like a truncated search it ends pricing without a proof
            lp_converged = isinstance(outcome, NoImprovement) and outcome.proof
            pricing_dead = not lp_converged
        if lp_converged and dual_valid:
            best_dual = max(best_dual, _ceil_value(value))

        # (b) verify the unknown pattern the LP relies on most
        values = master_mod.pattern_values(model)
        pending = [p for p in unknown - tested if values[p] > ZERO_TOL]
        if not pending:
            if any(values[p] > ZERO_TOL for p in unknown):
                # (c) undecidable patterns still carry value: force them out
                for p in sorted(unknown):
                    master_mod.fix_circular_zero(model, p)
                    mass_fixed += 1
                unknown.clear()
                dual_valid = False
                lp_converged = False
                value = master_mod.lp_relax_value(model)
                continue
            break
        pattern = min(pending, key=lambda p: (-values[p], p))
        patterns_verified += 1
        verdict = classify_counts(
            instance,
            hole_container(instance, pattern.outer_type),
            pattern.counts,
            verify_budget,
        )
        if verdict.status == FEASIBLE:
            sets.feasible[pattern] = verdict.witness
            unknown.remove(pattern)
        elif verdict.status == INFEASIBLE:
            sets.infeasible.add(pattern)
            unknown.remove(pattern)
            master_mod.fix_circular_zero(model, pattern)
            lp_converged = False  # the LP changed: pricing gets another say
            value = master_mod.lp_relax_value(model)
        else:
            tested.add(pattern)

    return RootResult(
        master=model,
        sets=sets,
        rect_witnesses=rect_witnesses,
        root_value=value,
        dual_valid=dual_valid,
        best_dual=best_dual,
        farley_bounds=farleys,
        columns_priced=columns_priced,
        patterns_verified=patterns_verified,
        fixed_unverified=mass_fixed,
        pricing_calls=pricing_calls,
        verification_spent=verify_budget.spent_nodes / NODES_PER_SECOND,
    )


def solve_restricted_ip(model: MasterModel, config: SolveConfig = SolveConfig()):
    """Branch and bound to integrality over the current column pool.

    Branches on the most fractional column (ties: higher objective
    coefficient, then lower column id), explores the nearer side first,
    and prunes with rounded-up LP values.  Returns the best integer column
    assignment, a flag telling whether it is proven optimal over the pool,
    and the node count.
    """
    base = model.lp
    best_obj = float("inf")
    best_assign: dict[int, int] | None = None
    nodes = 0
    proven = True
    int_tol = 1e-6

    obj = base.obj
    stack: list[tuple] = [()]  # tuples of (coefs, rhs) branch rows
    while stack:
        if nodes >= config.ip_node_limit:
            proven = False
            break
        branch_rows = stack.pop()
        nodes += 1
        lp = base.copy()
        for coefs, rhs in branch_rows:
            lp.add_row(coefs, rhs)
        res = lp.solve()
        if res.status == LP_INFEASIBLE:
            continue
        if res.status != LP_OPTIMAL:
            proven = False
            continue
        if _ceil_value(res.objective) >= best_obj:
            continue
        fractional = []
        for col, x in res.primal.items():
            frac = abs(x - round(x))
            if frac > int_tol:
                fractional.append((-frac, -obj[col], col, x))
        if not fractional:
            rounded = {c: int(round(x)) for c, x in res.primal.items() if round(x)}
            objective = sum(obj[c] * k for c, k in rounded.items())
            if objective < best_obj - 1e-9:
                best_obj = objective
                best_assign = rounded
            continue
        fractional.sort()
        _, _, col, x = fractional[0]
        down = branch_rows + (({col: -1.0}, -float(math.floor(x))),)  # x <= floor
        up = branch_rows + (({col: 1.0}, float(math.ceil(x))),)
        if x - math.floor(x) > 0.5:
            stack.append(down)
            stack.append(up)  # popped first
        else:
            stack.append(up)
            stack.append(down)
    return best_assign, proven, nodes


def _ip_multisets(model: MasterModel, assign: dict[int, int] | None):
    """Split an integer column assignment into pattern multisets; None when
    there is no assignment or it leans on artificial columns."""
    if assign is None:
        return None
    art = set(model.artificial_cols)
    if any(col in art and count for col, count in assign.items()):
        return None
    col_to_circ = {c: p for p, c in model.circular_cols.items()}
    col_to_rect = {c: p for p, c in model.rect_cols.items()}
    circ: dict[CircularPattern, int] = {}
    rect: dict[RectangularPattern, int] = {}
    for col, count in assign.items():
        if count <= 0:
            continue
        if col in col_to_circ:
            circ[col_to_circ[col]] = count
        elif col in col_to_rect:
            rect[col_to_rect[col]] = count
    return circ, rect


def reconstruct_placements(
    instance: Instance,
    rect_patterns: dict[RectangularPattern, int],
    circ_patterns: dict[CircularPattern, int],
    rect_witnesses: dict[RectangularPattern, tuple],
    circ_witnesses: dict[CircularPattern, tuple],
) -> PlacedSolution:
    """Compose witnesses into a placed solution.

    Rectangle patterns open typed slots at their witness coordinates;
    circular pattern uses claim slots of their outer type, largest type
    first, each claimed ring re-opening slots for its own hole content.
    Surplus slots stay empty.  A covering assignment may carry more uses
    than demand, so after placing everything the emptiest surplus rings
    of each type are deleted again, their children re-homed one container
    up (still valid: a child sits inside the deleted ring's outer disk,
    which sat inside that container, clear of everything else).  Rects
    left empty are dropped.  Impossible bookkeeping raises
    InconsistentMultiset.
    """
    tc = instance.type_count
    slots: dict[int, list] = {t: [] for t in range(tc)}  # (rect, parent, x, y)
    rect_index = 0
    for pattern in sorted(rect_patterns):
        count = rect_patterns[pattern]
        witness = rect_witnesses.get(pattern)
        if witness is None or len(witness) != pattern.total:
            raise InconsistentMultiset(f"missing witness for {pattern}")
        ordered_types = witness_slots(instance, pattern.counts)
        for _ in range(count):
            for slot_type, (x, y) in zip(ordered_types, witness):
                slots[slot_type].append((rect_index, None, x, y))
            rect_index += 1

    uses: dict[int, list[CircularPattern]] = {t: [] for t in range(tc)}
    for pattern in sorted(circ_patterns):
        uses[pattern.outer_type].extend([pattern] * circ_patterns[pattern])

    # a hole of type s holds type t only if R_t <= r_s <= R_s, so visiting
    # types by (R, r) descending places every parent before the slots it
    # opens get claimed; that includes a zero-wall parent (r_s = R_s) and
    # content of equal R.  Two identical zero-wall types can hold each
    # other, and no order serves both; that case is left out.
    def size(t):
        return instance.types[t].outer_radius, instance.types[t].inner_radius, t

    placed: list[list] = []  # [type, rect, parent, x, y]
    for t in sorted(range(tc), key=size, reverse=True):
        if len(uses[t]) < instance.types[t].demand:
            raise InconsistentMultiset(
                f"type {t}: {len(uses[t])} uses for demand "
                f"{instance.types[t].demand}"
            )
        if len(slots[t]) < len(uses[t]):
            raise InconsistentMultiset(
                f"type {t}: {len(uses[t])} uses for {len(slots[t])} slots"
            )
        uses[t].sort(key=lambda p: (p.total, p.counts))
        for pattern, (rect, parent, x, y) in zip(uses[t], slots[t]):
            ring_id = len(placed)
            placed.append([t, rect, parent, x, y])
            if pattern.total == 0:
                continue
            witness = circ_witnesses.get(pattern)
            if witness is None or len(witness) != pattern.total:
                raise InconsistentMultiset(f"missing witness for {pattern}")
            for slot_type, (wx, wy) in zip(
                witness_slots(instance, pattern.counts), witness
            ):
                slots[slot_type].append((rect, ring_id, x + wx, y + wy))

    children = [0] * len(placed)
    for ring in placed:
        if ring[2] is not None:
            children[ring[2]] += 1
    dropped: set[int] = set()
    for t in range(tc):
        surplus = len(uses[t]) - instance.types[t].demand
        if surplus > 0:
            victims = sorted(
                (i for i, ring in enumerate(placed) if ring[0] == t),
                key=lambda i: (children[i], i),
            )
            dropped.update(victims[:surplus])

    kept_rects = sorted({ring[1] for i, ring in enumerate(placed) if i not in dropped})
    rect_map = {old: new for new, old in enumerate(kept_rects)}
    renumber: dict[int, int] = {}
    rings: list[PlacedRing] = []
    for i, (t, rect, parent, x, y) in enumerate(placed):
        if i in dropped:
            continue
        while parent is not None and parent in dropped:
            parent = placed[parent][2]
        renumber[i] = len(rings)
        rings.append(
            PlacedRing(
                t, rect_map[rect], None if parent is None else renumber[parent], x, y
            )
        )
    return PlacedSolution(len(kept_rects), tuple(rings))


def fallback_solution(instance: Instance) -> PlacedSolution:
    """One nested chain per rectangle: always packable, at most n rectangles."""
    remaining = [instance.types[t].demand for t in range(instance.type_count)]
    rings: list[PlacedRing] = []
    rect = 0
    cx, cy = instance.width / 2.0, instance.height / 2.0
    while any(remaining):
        t = max(i for i in range(instance.type_count) if remaining[i])
        remaining[t] -= 1
        rings.append(PlacedRing(t, rect, None, cx, cy))
        parent = len(rings) - 1
        room = instance.types[t].inner_radius
        while True:
            fit = [
                i
                for i in range(instance.type_count)
                if remaining[i] and instance.types[i].outer_radius <= room + 1e-12
            ]
            if not fit:
                break
            s = max(fit)
            remaining[s] -= 1
            rings.append(PlacedRing(s, rect, parent, cx, cy))
            parent = len(rings) - 1
            room = instance.types[s].inner_radius
        rect += 1
    return PlacedSolution(rect, tuple(rings))


def solve(instance: Instance, config: SolveConfig = SolveConfig()) -> SolveReport:
    sets = enumerate_patterns(instance, config)
    root = price_and_verify_root(instance, sets, config)

    assign, ip_proven, ip_nodes = solve_restricted_ip(root.master, config)
    split = _ip_multisets(root.master, assign)

    incumbent: PlacedSolution | None = None
    if split is not None:
        circ, rect = split
        try:
            candidate = reconstruct_placements(
                instance, rect, circ, root.rect_witnesses, root.sets.feasible
            )
            if validate_solution(instance, candidate).feasible:
                incumbent = candidate
        except InconsistentMultiset:
            incumbent = None

    fallback = fallback_solution(instance)
    if validate_solution(instance, fallback).feasible:
        if incumbent is None or fallback.rectangle_count < incumbent.rectangle_count:
            incumbent = fallback
    if incumbent is None:
        raise RuntimeError("no validator-clean incumbent produced")

    primal = incumbent.rectangle_count
    vol = volume_lower_bound(instance)
    dual = max([vol, root.best_dual] + root.farley_bounds)
    gap = (primal - dual) / dual if dual else float("inf")

    stats = {
        "columns_priced": root.columns_priced,
        "pricing_calls": root.pricing_calls,
        "patterns_verified": root.patterns_verified,
        "unverified_fixed": root.fixed_unverified,
        "ip_nodes": ip_nodes,
        "root_lp": root.root_value,
        "farley_bounds": list(root.farley_bounds),
        "volume_bound": vol,
        "feasible_patterns": len(root.sets.feasible),
        "unknown_patterns": len(root.sets.unknown),
        "verification_spent": root.verification_spent,
    }
    return SolveReport(
        instance=instance,
        primal_bound=primal,
        dual_bound=dual,
        gap=gap,
        dual_valid=root.dual_valid,
        incumbent=incumbent,
        ip_proven=ip_proven,
        statistics=stats,
    )
