"""Coefficient audits of the master LP, read from its column store.

`coefficient_table` keys every coefficient by row and pattern, so a model
grown column by column and one `rebuild` from scratch must give equal tables.
"""

from ringpack.master import build_master, fix_circular_zero


def fixed_patterns(model):
    """Circular patterns whose columns are fixed to zero."""
    return {p for p, col in model.circular_cols.items() if col in model.lp.fixed}


def rebuild(model):
    """Fresh model with the same columns and the same fixed patterns."""
    fresh = build_master(model.instance, model.circular_cols, model.rect_cols)
    for pattern in fixed_patterns(model):
        fix_circular_zero(fresh, pattern)
    return fresh


def coefficient_table(model):
    """{(row kind, type): {column key: coefficient}}, column keys being
    ("circ", pattern), ("rect", pattern) or ("art", type)."""
    col_key = {col: ("circ", p) for p, col in model.circular_cols.items()}
    col_key.update({col: ("rect", p) for p, col in model.rect_cols.items()})
    col_key.update({col: ("art", t) for t, col in enumerate(model.artificial_cols)})
    row_key = {row: ("demand", t) for t, row in enumerate(model.demand_rows)}
    row_key.update({row: ("recursion", s) for s, row in enumerate(model.recursion_rows)})
    table = {key: {} for key in row_key.values()}
    for col, key in col_key.items():
        for row, a in model.lp.col_rows[col].items():
            table[row_key[row]][key] = a
    return table
