import random

import pytest

from ringpack.simplex import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    NumericalFailure,
    UnknownColumn,
    solve_lp,
)


def test_single_bound_row():
    lp = LinearProgram()
    z = lp.add_column(1.0)
    row = lp.add_row({z: 1.0}, 3.0)
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(3.0, abs=1e-9)
    assert res.primal[z] == pytest.approx(3.0, abs=1e-9)
    assert res.duals[row] == pytest.approx(1.0, abs=1e-7)


def test_degenerate_symmetric_split():
    lp = LinearProgram()
    a = lp.add_column(1.0)
    b = lp.add_column(1.0)
    row = lp.add_row({a: 1.0, b: 1.0}, 2.0)
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(2.0, abs=1e-9)
    assert res.primal.get(a, 0.0) + res.primal.get(b, 0.0) == pytest.approx(2.0, abs=1e-9)
    assert res.duals[row] == pytest.approx(1.0, abs=1e-7)


def test_zero_row_infeasible():
    lp = LinearProgram()
    z = lp.add_column(1.0)
    lp.add_row({}, 1.0)
    assert solve_lp(lp).status == INFEASIBLE


def test_unbounded_objective():
    lp = LinearProgram()
    z = lp.add_column(-1.0)
    lp.add_row({z: 1.0}, 0.0)
    assert solve_lp(lp).status == UNBOUNDED


def test_no_rows_trivial_optimum():
    lp = LinearProgram()
    lp.add_column(5.0)
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.objective == 0.0


def test_add_column_never_hurts():
    lp = LinearProgram()
    x = lp.add_column(3.0)
    row = lp.add_row({x: 1.0}, 4.0)
    first = solve_lp(lp).objective
    y = lp.add_column(1.0, {row: 2.0})
    second = solve_lp(lp).objective
    assert second <= first + 1e-9
    assert second == pytest.approx(2.0, abs=1e-9)


def test_fix_basic_column_reopt():
    lp = LinearProgram()
    x = lp.add_column(1.0)
    y = lp.add_column(2.0)
    lp.add_row({x: 1.0, y: 1.0}, 3.0)
    first = solve_lp(lp)
    assert first.primal.get(x, 0.0) == pytest.approx(3.0, abs=1e-9)
    lp.fix_column_zero(x)
    second = solve_lp(lp)
    assert second.status == OPTIMAL
    assert second.objective >= first.objective - 1e-9
    assert second.objective == pytest.approx(6.0, abs=1e-9)
    assert second.primal.get(x, 0.0) == 0.0


def test_unknown_column_rejected():
    lp = LinearProgram()
    lp.add_column(1.0)
    with pytest.raises(UnknownColumn):
        lp.fix_column_zero(17)


def test_duals_nonnegative_for_ge_rows():
    lp = LinearProgram()
    cols = [lp.add_column(c) for c in (1.0, 2.0, 1.5)]
    r1 = lp.add_row({cols[0]: 1.0, cols[1]: 2.0}, 4.0)
    r2 = lp.add_row({cols[1]: 1.0, cols[2]: 1.0}, 1.0)
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert all(d >= -1e-9 for d in res.duals.values())
    # strong duality on this pair
    dual_obj = 4.0 * res.duals[r1] + 1.0 * res.duals[r2]
    assert dual_obj == pytest.approx(res.objective, abs=1e-7)


def _random_lp(rng, rows=4, cols=6):
    lp = LinearProgram()
    ids = [lp.add_column(rng.uniform(0.5, 3.0)) for _ in range(cols)]
    data = []
    for _ in range(rows):
        coefs = {
            c: rng.uniform(0.2, 2.0) for c in ids if rng.random() < 0.7
        }
        rhs = rng.uniform(0.5, 4.0)
        lp.add_row(coefs, rhs)
        data.append((coefs, rhs))
    return lp, ids, data


def test_randomized_against_scipy():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(7)
    for trial in range(60):
        lp, ids, data = _random_lp(rng)
        res = solve_lp(lp)
        c = [lp.obj[i] for i in ids]
        a_ub = [[-coefs.get(i, 0.0) for i in ids] for coefs, _ in data]
        b_ub = [-rhs for _, rhs in data]
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
        if ref.status == 2:
            assert res.status == INFEASIBLE, f"trial {trial}"
        else:
            assert ref.status == 0
            assert res.status == OPTIMAL, f"trial {trial}"
            assert res.objective == pytest.approx(ref.fun, abs=1e-6), f"trial {trial}"


def test_warm_start_matches_cold():
    rng = random.Random(21)
    for trial in range(40):
        lp, ids, data = _random_lp(rng)
        first = solve_lp(lp)
        assert first.status == OPTIMAL
        # structural edit that keeps the basis tags valid, then re-solve warm
        extra = lp.add_column(rng.uniform(0.5, 2.0),
                              {r: rng.uniform(0.1, 1.0) for r in range(len(data))
                               if rng.random() < 0.5})
        warm = solve_lp(lp)
        cold = solve_lp(lp.copy())
        assert warm.status == cold.status == OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, abs=1e-7), f"trial {trial}"


def test_primal_residuals_within_tolerance():
    rng = random.Random(3)
    for _ in range(25):
        lp, ids, data = _random_lp(rng, rows=5, cols=7)
        res = solve_lp(lp)
        if res.status != OPTIMAL:
            continue
        for coefs, rhs in data:
            lhs = sum(a * res.primal.get(c, 0.0) for c, a in coefs.items())
            assert lhs >= rhs - 1e-7 * (1.0 + abs(rhs))
        assert all(x >= -1e-9 for x in res.primal.values())


def test_copy_is_independent():
    lp = LinearProgram()
    x = lp.add_column(1.0)
    lp.add_row({x: 1.0}, 2.0)
    clone = lp.copy()
    clone.add_row({x: 1.0}, 5.0)
    assert solve_lp(lp).objective == pytest.approx(2.0, abs=1e-9)
    assert solve_lp(clone).objective == pytest.approx(5.0, abs=1e-9)
