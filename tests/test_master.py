import pytest

from ringpack.master import (
    DuplicatePattern,
    add_rect_column,
    build_master,
    duals,
    fix_circular_zero,
    lp_relax_value,
    pattern_values,
)
from ringpack.patterns import CircularPattern, RectangularPattern
from ringpack.simplex import LinearProgram, UnknownColumn, solve_lp

from conftest import make_instance
from master_audit import coefficient_table, fixed_patterns, rebuild

# the worked three-type example: 7x5 sheet, demands (9, 5, 2)
EX1 = [(0.5, 0.7, 9), (1.0, 1.2, 5), (1.4, 1.8, 2)]

C = [
    CircularPattern(0, (0, 0, 0)),
    CircularPattern(1, (0, 0, 0)),
    CircularPattern(1, (1, 0, 0)),
    CircularPattern(2, (0, 0, 0)),
    CircularPattern(2, (1, 0, 0)),
    CircularPattern(2, (2, 0, 0)),
    CircularPattern(2, (0, 1, 0)),
]
P = [
    RectangularPattern((9, 0, 1)),
    RectangularPattern((4, 0, 2)),
    RectangularPattern((2, 5, 0)),
]


def _ex1_master(demands=(9, 5, 2)):
    triples = [(r, R, d) for (r, R, _), d in zip(EX1, demands)]
    inst = make_instance(7, 5, triples)
    return inst, build_master(inst, C, P)


def test_example1_golden_coefficients():
    _, model = _ex1_master()
    table = coefficient_table(model)

    for t in range(3):
        row = table[("demand", t)]
        expected = {("circ", p): 1.0 for p in C if p.outer_type == t}
        expected[("art", t)] = 1.0
        assert row == expected

    rec0 = table[("recursion", 0)]
    assert rec0 == {
        ("circ", C[0]): -1.0,
        ("circ", C[2]): 1.0,
        ("circ", C[4]): 1.0,
        ("circ", C[5]): 2.0,
        ("rect", P[0]): 9.0,
        ("rect", P[1]): 4.0,
        ("rect", P[2]): 2.0,
    }
    rec1 = table[("recursion", 1)]
    assert rec1 == {
        ("circ", C[1]): -1.0,
        ("circ", C[2]): -1.0,
        ("circ", C[6]): 1.0,
        ("rect", P[2]): 5.0,
    }
    rec2 = table[("recursion", 2)]
    assert rec2 == {
        ("circ", C[3]): -1.0,
        ("circ", C[4]): -1.0,
        ("circ", C[5]): -1.0,
        ("circ", C[6]): -1.0,
        ("rect", P[0]): 1.0,
        ("rect", P[1]): 2.0,
    }


def test_example1_row_rhs():
    inst, model = _ex1_master()
    for t, row in enumerate(model.demand_rows):
        assert model.lp.rhs[row] == float(inst.demands[t])
    for row in model.recursion_rows:
        assert model.lp.rhs[row] == 0.0


def test_example1_lp_value():
    _, model = _ex1_master()
    assert lp_relax_value(model) == pytest.approx(1.6, abs=1e-9)
    primal = model.last_result.primal
    assert sum(primal[c] for c in model.artificial_cols) <= 1e-9


def test_example1_unit_demand_matches_hand_built_lp():
    _, model = _ex1_master(demands=(1, 1, 1))
    value = lp_relax_value(model)

    # the same system written out longhand, no master machinery involved
    lp = LinearProgram()
    c_cols = [lp.add_column(0.0) for _ in C]
    p_cols = [lp.add_column(1.0) for _ in P]
    for t in range(3):
        coefs = {c_cols[i]: 1.0 for i, pat in enumerate(C) if pat.outer_type == t}
        lp.add_row(coefs, 1.0)
    for s in range(3):
        coefs = {}
        for i, pat in enumerate(C):
            a = pat.counts[s] - (1 if pat.outer_type == s else 0)
            if a:
                coefs[c_cols[i]] = float(a)
        for i, pat in enumerate(P):
            if pat.counts[s]:
                coefs[p_cols[i]] = float(pat.counts[s])
        lp.add_row(coefs, 0.0)
    ref = solve_lp(lp)
    assert value == pytest.approx(ref.objective, abs=1e-7)


def test_single_type_master_value_is_demand():
    inst = make_instance(4, 4, [(0.4, 1.1, 3)])
    model = build_master(
        inst, [CircularPattern(0, (0,))], [RectangularPattern((1,))]
    )
    assert lp_relax_value(model) == pytest.approx(3.0, abs=1e-9)


def test_empty_rectangular_set_needs_safeguard():
    inst = make_instance(4, 4, [(0.4, 1.1, 3)])
    model = build_master(inst, [CircularPattern(0, (0,))])
    value = lp_relax_value(model)
    # no rectangular column can host the ring: only the artificial column
    # keeps the LP feasible, at its punitive price
    artificial = sum(model.last_result.primal[c] for c in model.artificial_cols)
    assert artificial == pytest.approx(3.0, abs=1e-7)
    assert value == pytest.approx(3.0 * (inst.ring_count + 1), abs=1e-6)


def test_duplicate_patterns_rejected():
    inst = make_instance(4, 4, [(0.4, 1.1, 3)])
    with pytest.raises(DuplicatePattern):
        build_master(inst, [CircularPattern(0, (0,)), CircularPattern(0, (0,))])
    model = build_master(
        inst, [CircularPattern(0, (0,))], [RectangularPattern((1,))]
    )
    with pytest.raises(DuplicatePattern):
        add_rect_column(model, RectangularPattern((1,)))


def test_add_rect_column_with_negative_reduced_cost_improves():
    _, model = _ex1_master()
    before = lp_relax_value(model)
    lam = duals(model)
    # doubling a basic rectangular column always prices at 1 - 2 = -1
    tight = next(
        p for p in P if sum(l * c for l, c in zip(lam, p.counts)) > 1.0 - 1e-7
    )
    new = RectangularPattern(tuple(2 * c for c in tight.counts))
    assert 1.0 - sum(l * c for l, c in zip(lam, new.counts)) < -1e-7
    add_rect_column(model, new)
    after = lp_relax_value(model)
    assert after < before - 1e-9  # this particular column genuinely helps


def test_fix_zero_value_column_keeps_objective():
    _, model = _ex1_master()
    before = lp_relax_value(model)
    values = pattern_values(model)
    idle = next(p for p in C if values[p] <= 1e-12)
    fix_circular_zero(model, idle)
    assert lp_relax_value(model) == pytest.approx(before, abs=1e-7)


def test_fix_unknown_pattern_rejected():
    _, model = _ex1_master()
    with pytest.raises(UnknownColumn):
        fix_circular_zero(model, CircularPattern(2, (9, 9, 9)))


def test_duals_shapes_and_sign(tiny3):
    _, model = _ex1_master()
    lp_relax_value(model)
    lam = duals(model)
    demand = [model.last_result.duals[r] for r in model.demand_rows]
    assert len(demand) == 3 and len(lam) == 3
    assert all(l >= -1e-9 for l in lam)
    assert all(y >= -1e-9 for y in demand)


def test_more_columns_never_raise_value():
    # relaxation sandwich: adding unverified circular columns can only help
    inst = make_instance(7, 5, [(r, R, d) for (r, R, _), d in zip(EX1, (9, 5, 2))])
    small = build_master(inst, C[:5], P)
    wide = build_master(inst, C, P)
    assert lp_relax_value(wide) <= lp_relax_value(small) + 1e-9


def test_incremental_matches_rebuilt():
    _, model = _ex1_master()
    lp_relax_value(model)
    add_rect_column(model, RectangularPattern((9, 1, 1)))
    fix_circular_zero(model, C[1])
    lp_relax_value(model)
    fresh = rebuild(model)
    assert coefficient_table(fresh) == coefficient_table(model)
    assert lp_relax_value(fresh) == pytest.approx(lp_relax_value(model), abs=1e-7)
    assert fixed_patterns(fresh) == fixed_patterns(model) == {C[1]}


def test_pattern_and_rect_values_cover_all_columns():
    _, model = _ex1_master()
    lp_relax_value(model)
    assert set(pattern_values(model)) == set(C)
    primal = model.last_result.primal
    assert set({p: primal[col] for p, col in model.rect_cols.items()}) == set(P)
    assert all(v >= -1e-9 for v in pattern_values(model).values())
