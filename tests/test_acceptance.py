"""Acceptance suite: one test per criterion, timed where the bar demands it.

Each test name carries its criterion number; a conftest hook prints a
`[criterion N] PASS` or `[criterion N] FAIL` line as the verdict comes in.
"""

import dataclasses
import math
import time

import pytest

from ringpack.cli import main
from ringpack.geometry import Disk, verify_exact
from ringpack.master import build_master
from ringpack.model import generate_instance, validate_solution, volume_lower_bound
from ringpack.oracle import brute_force_opt, solve_dw_lp
from ringpack.patterns import CircularPattern, enumerate_patterns
from ringpack.pricing import farley_bound
from ringpack.solver import SolveConfig, price_and_verify_root, solve

from conftest import TINY3_TEXT, make_instance
from master_audit import coefficient_table
from test_master import C, EX1, P
from test_solver import BAD, GOOD, PLANT, plant_unknown

SMALL_COMBOS = [(2, 1.5, 2.0, 1.0), (2, 2.0, 2.0, 1.0), (2, 1.2, 2.0, 1.0)]


def test_criterion_1_worked_example_master():
    started = time.perf_counter()
    inst = make_instance(7, 5, EX1)
    table = coefficient_table(build_master(inst, C, P))

    for t in range(3):
        expected = {("circ", p): 1.0 for p in C if p.outer_type == t}
        expected[("art", t)] = 1.0
        assert table[("demand", t)] == expected
    assert table[("recursion", 0)] == {
        ("circ", C[0]): -1.0,
        ("circ", C[2]): 1.0,
        ("circ", C[4]): 1.0,
        ("circ", C[5]): 2.0,
        ("rect", P[0]): 9.0,
        ("rect", P[1]): 4.0,
        ("rect", P[2]): 2.0,
    }
    assert table[("recursion", 1)] == {
        ("circ", C[1]): -1.0,
        ("circ", C[2]): -1.0,
        ("circ", C[6]): 1.0,
        ("rect", P[2]): 5.0,
    }
    assert table[("recursion", 2)] == {
        ("circ", C[3]): -1.0,
        ("circ", C[4]): -1.0,
        ("circ", C[5]): -1.0,
        ("circ", C[6]): -1.0,
        ("rect", P[0]): 1.0,
        ("rect", P[1]): 2.0,
    }
    assert time.perf_counter() - started < 1.0


def test_criterion_2_pattern_family(tiny3):
    started = time.perf_counter()
    raw = enumerate_patterns(tiny3, filter_result=False)
    family = {
        CircularPattern(0, (0, 0, 0)),
        CircularPattern(1, (0, 0, 0)),
        CircularPattern(1, (1, 0, 0)),
        CircularPattern(2, (0, 0, 0)),
        CircularPattern(2, (1, 0, 0)),
        CircularPattern(2, (2, 0, 0)),
        CircularPattern(2, (0, 1, 0)),
    }
    assert set(raw.feasible) == family
    assert not raw.unknown

    filtered = enumerate_patterns(tiny3)
    maximal = {
        CircularPattern(0, (0, 0, 0)),
        CircularPattern(1, (1, 0, 0)),
        CircularPattern(2, (2, 0, 0)),
        CircularPattern(2, (0, 1, 0)),
    }
    assert set(filtered.feasible) == maximal
    assert time.perf_counter() - started < 5.0


def test_criterion_3_root_lp_equals_reference_lp():
    checked = 0
    for combo in SMALL_COMBOS:
        for seed in range(8):
            inst = generate_instance(*combo, seed)
            if inst.ring_count > 8:
                continue
            started = time.perf_counter()
            root = price_and_verify_root(inst, enumerate_patterns(inst), SolveConfig())
            reference = solve_dw_lp(inst)
            assert abs(root.root_value - reference) <= 1e-6, (combo, seed)
            assert time.perf_counter() - started < 60.0
            checked += 1
    assert checked >= 20


def test_criterion_4_scaled_dual_bound():
    assert farley_bound(10.0, -1.0) == 5
    assert farley_bound(10.0, 0.0) == 10
    assert farley_bound(7.2, -0.5) == 5

    starved = dataclasses.replace(SolveConfig(), pricing_limit=1e-7)
    produced = 0
    for seed in range(6):
        inst = generate_instance(2, 1.5, 2.0, 1.0, seed)
        bounds = solve(inst, starved).statistics["farley_bounds"]
        produced += bool(bounds)
        reference = brute_force_opt(inst)
        for bound in bounds:
            assert isinstance(bound, int)
            assert bound <= reference, (seed, bound, reference)
    assert produced > 0


def test_criterion_5_end_to_end_exactness(tiny3):
    started = time.perf_counter()
    report = solve(tiny3)
    assert report.primal_bound == 2
    assert report.dual_bound == 2
    assert report.gap == 0.0
    check = validate_solution(tiny3, report.incumbent)
    assert check.feasible, check.violations
    assert time.perf_counter() - started < 30.0


def test_criterion_6_disk_thresholds():
    started = time.perf_counter()
    rho = 1.0
    thresholds = {1: rho, 2: rho / 2.0, 3: rho * (2.0 * math.sqrt(3.0) - 3.0)}
    for k, threshold in thresholds.items():
        for i in range(50):
            offset = 10.0 ** (-6.0 + 4.0 * i / 49.0)
            feasible = verify_exact(Disk(rho), [(threshold - offset, k)])
            assert feasible.status == "Feasible", (k, offset)
            infeasible = verify_exact(Disk(rho), [(threshold + offset, k)])
            assert infeasible.status == "Infeasible", (k, offset)
    assert time.perf_counter() - started < 60.0


def test_criterion_7_bound_sandwich():
    for combo in [(2, 1.5, 2.0, 1.0), (2, 1.2, 2.0, 1.0)]:
        for seed in range(25):
            inst = generate_instance(*combo, seed)
            report = solve(inst)
            assert volume_lower_bound(inst) <= report.dual_bound
            assert report.dual_bound <= report.primal_bound
            assert validate_solution(inst, report.incumbent).feasible
            if report.dual_valid:
                assert report.dual_bound <= brute_force_opt(inst), (combo, seed)


def test_criterion_8_verification_branches():
    # unpackable: proven infeasible, fixed, and the LP repriced upward
    fixed = price_and_verify_root(PLANT, plant_unknown(BAD), SolveConfig())
    assert BAD in fixed.sets.infeasible
    assert fixed.patterns_verified == 1
    assert fixed.root_value == pytest.approx(4 / 3)
    assert fixed.dual_valid and fixed.best_dual == 2

    # packable: promoted into the feasible set with a packing witness
    promoted = price_and_verify_root(PLANT, plant_unknown(GOOD), SolveConfig())
    assert GOOD in promoted.sets.feasible
    assert len(promoted.sets.feasible[GOOD]) == GOOD.total
    assert promoted.patterns_verified == 1
    assert promoted.dual_valid

    # unverifiable: budget runs out, mass-fixed, dual marked untrusted
    starved = dataclasses.replace(
        SolveConfig(), verification_limit=1e-7, verification_budget=1e-6
    )
    invalidated = price_and_verify_root(PLANT, plant_unknown(BAD), starved)
    assert not invalidated.dual_valid
    assert invalidated.fixed_unverified == 1
    assert invalidated.best_dual == 1


def test_criterion_9_deterministic_reports(tmp_path):
    instance = tmp_path / "tiny3.rpa"
    instance.write_text(TINY3_TEXT)
    first = tmp_path / "first.report"
    second = tmp_path / "second.report"
    assert main(["solve", str(instance), "-o", str(first)]) == 0
    assert main(["solve", str(instance), "-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
