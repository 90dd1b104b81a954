"""Restricted master LP for the pattern-based rectangle-count relaxation.

One demand row per ring type keeps enough circular pattern uses alive to
serve the order book; one recursion row per type forces every hole slot a
pattern promises to be backed by some placed pattern of that type.  Circular
columns are free, rectangular columns cost one rectangle each, and a heavily
priced artificial column per demand row keeps the LP feasible before any
rectangular column exists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Instance
from .patterns import CircularPattern, RectangularPattern
from .simplex import LinearProgram, LpResult, UnknownColumn, solve_lp


class DuplicatePattern(ValueError):
    pass


@dataclass
class MasterModel:
    instance: Instance
    lp: LinearProgram
    circular_cols: dict[CircularPattern, int]
    rect_cols: dict[RectangularPattern, int]
    artificial_cols: tuple[int, ...]
    demand_rows: tuple[int, ...]
    recursion_rows: tuple[int, ...]
    last_result: LpResult | None = None


def build_master(
    instance: Instance,
    circular_patterns,
    rectangular_patterns=(),
) -> MasterModel:
    lp = LinearProgram()
    tc = instance.type_count
    total_demand = instance.ring_count

    circular_cols: dict[CircularPattern, int] = {}
    for pattern in circular_patterns:
        if pattern in circular_cols:
            raise DuplicatePattern(pattern)
        circular_cols[pattern] = lp.add_column(0.0)
    rect_cols: dict[RectangularPattern, int] = {}
    for pattern in rectangular_patterns:
        if pattern in rect_cols:
            raise DuplicatePattern(pattern)
        rect_cols[pattern] = lp.add_column(1.0)
    artificial_cols = tuple(lp.add_column(float(total_demand + 1)) for _ in range(tc))

    demand_rows = []
    for t in range(tc):
        coefs = {col: 1.0 for pat, col in circular_cols.items() if pat.outer_type == t}
        coefs[artificial_cols[t]] = 1.0
        demand_rows.append(lp.add_row(coefs, float(instance.types[t].demand)))
    recursion_rows = []
    for s in range(tc):
        coefs: dict[int, float] = {}
        for pat, col in circular_cols.items():
            a = pat.counts[s] - (1.0 if pat.outer_type == s else 0.0)
            if a:
                coefs[col] = a
        for pat, col in rect_cols.items():
            if pat.counts[s]:
                coefs[col] = float(pat.counts[s])
        recursion_rows.append(lp.add_row(coefs, 0.0))

    return MasterModel(
        instance=instance,
        lp=lp,
        circular_cols=circular_cols,
        rect_cols=rect_cols,
        artificial_cols=artificial_cols,
        demand_rows=tuple(demand_rows),
        recursion_rows=tuple(recursion_rows),
    )


def lp_relax_value(model: MasterModel) -> float:
    model.last_result = solve_lp(model.lp)
    return model.last_result.objective


def duals(model: MasterModel) -> tuple[float, ...]:
    """Recursion-row prices at the last solve: the pricing vector."""
    if model.last_result is None:
        lp_relax_value(model)
    res = model.last_result
    return tuple(res.duals.get(r, 0.0) for r in model.recursion_rows)


def add_rect_column(model: MasterModel, pattern: RectangularPattern) -> int:
    """New rectangle-pattern column; the stored basis survives for warm starts."""
    if pattern in model.rect_cols:
        raise DuplicatePattern(pattern)
    coefs = {
        model.recursion_rows[s]: float(pattern.counts[s])
        for s in range(model.instance.type_count)
        if pattern.counts[s]
    }
    col = model.lp.add_column(1.0, coefs)
    model.rect_cols[pattern] = col
    model.last_result = None
    return col


def fix_circular_zero(model: MasterModel, pattern: CircularPattern) -> None:
    """Permanently remove a circular column from the relaxation."""
    if pattern not in model.circular_cols:
        raise UnknownColumn(pattern)
    model.lp.fix_column_zero(model.circular_cols[pattern])
    model.last_result = None


def pattern_values(model: MasterModel) -> dict[CircularPattern, float]:
    """Primal values of the circular columns at the last solve."""
    if model.last_result is None:
        lp_relax_value(model)
    primal = model.last_result.primal
    return {pat: primal[col] for pat, col in model.circular_cols.items()}
