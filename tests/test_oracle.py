import math
import random

import pytest

from ringpack import geometry, oracle
from ringpack.model import generate_instance, volume_lower_bound
from ringpack.oracle import (
    MAX_RING_COUNT,
    Intractable,
    brute_force_opt,
    enumerate_packable_rectangles,
    solve_dw_lp,
)
from ringpack.patterns import enumerate_patterns
from ringpack.solver import SolveConfig, price_and_verify_root

from conftest import make_instance

TINY3_FAMILY = {
    (0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0),
    (3, 1, 0), (0, 0, 1), (1, 0, 1), (2, 0, 1), (0, 1, 1), (1, 1, 1),
}


def test_tiny3_rectangle_family_frozen(tiny3):
    assert set(enumerate_packable_rectangles(tiny3)) == TINY3_FAMILY


def test_tiny3_membership_facts(tiny3):
    family = enumerate_packable_rectangles(tiny3)
    assert (1, 0, 0) in family
    assert (2, 0, 0) in family
    # no direct co-placement exists for these, yet nesting supplies them
    assert (1, 0, 1) in family
    assert (0, 1, 1) in family
    assert (1, 1, 1) in family
    # one extra small ring rides along inside the middle ring's hole even
    # though the total then exceeds the demand of its type
    assert (3, 1, 0) in family
    assert (2, 1, 1) not in family


def test_zero_vector_always_packable(tiny3):
    assert (0, 0, 0) in enumerate_packable_rectangles(tiny3)
    inst = make_instance(4, 4, [(0.4, 1.1, 2)])
    assert (0,) in enumerate_packable_rectangles(inst)


def test_tiny3_dw_value_and_optimum(tiny3):
    family = enumerate_packable_rectangles(tiny3)
    assert solve_dw_lp(tiny3, vectors=family) == pytest.approx(1.25, abs=1e-9)
    assert brute_force_opt(tiny3, vectors=family) == 2


def test_tiny3_matches_root_lp(tiny3):
    sets = enumerate_patterns(tiny3)
    root = price_and_verify_root(tiny3, sets, SolveConfig())
    assert abs(root.root_value - solve_dw_lp(tiny3)) <= 1e-6


def test_single_type_ratio_bound():
    inst = make_instance(4, 4, [(0.4, 1.1, 5)])
    family = enumerate_packable_rectangles(inst)
    assert sorted(family) == [(0,), (1,), (2,)]
    assert solve_dw_lp(inst, vectors=family) == pytest.approx(2.5, abs=1e-9)
    assert brute_force_opt(inst, vectors=family) == 3


def test_chain_instance_needs_one_rectangle():
    inst = make_instance(
        4, 4, [(0.5, 0.7, 1), (1.0, 1.2, 1), (1.4, 1.8, 1)]
    )
    assert brute_force_opt(inst) == 1


def test_ring_count_guard():
    inst = make_instance(4, 4, [(0.4, 1.1, 13)])
    with pytest.raises(Intractable):
        enumerate_packable_rectangles(inst)


def test_zero_wall_guard():
    inst = make_instance(4, 4, [(1.1, 1.1, 2)])
    with pytest.raises(Intractable):
        enumerate_packable_rectangles(inst)


def test_results_independent_of_vector_order(tiny3):
    family = sorted(enumerate_packable_rectangles(tiny3))
    rng = random.Random(5)
    for _ in range(3):
        shuffled = family[:]
        rng.shuffle(shuffled)
        assert solve_dw_lp(tiny3, vectors=shuffled) == pytest.approx(1.25, abs=1e-9)
        assert brute_force_opt(tiny3, vectors=shuffled) == 2
    again = enumerate_packable_rectangles(tiny3)
    assert set(again) == set(family)


def test_consistency_chain_on_seeds():
    for seed in range(6):
        inst = generate_instance(2, 1.5, 2.0, 1.0, seed)
        family = enumerate_packable_rectangles(inst)
        lp = solve_dw_lp(inst, vectors=family)
        opt = brute_force_opt(inst, vectors=family)
        vol = volume_lower_bound(inst)
        assert opt >= lp - 1e-9
        assert lp >= vol - 1.0 + 1e-9 or lp >= vol - 1.0
        assert opt >= vol


def test_decomposition_lp_equality_on_seeds():
    for seed in range(4):
        inst = generate_instance(2, 2.0, 2.0, 1.0, seed)
        dw = solve_dw_lp(inst)
        sets = enumerate_patterns(inst)
        root = price_and_verify_root(inst, sets, SolveConfig())
        assert abs(root.root_value - dw) <= 1e-6, seed


def test_optima_do_not_rest_on_the_count_bound(tiny3, monkeypatch):
    # the oracle's _decide shares analytic_prefilter with the solver; with
    # the count bound switched off it rests on the exact search alone and
    # must reach the same optima
    instances = [
        tiny3,
        make_instance(4, 4, [(0.4, 1.1, 5)]),
        make_instance(4, 4, [(0.5, 0.7, 1), (1.0, 1.2, 1), (1.4, 1.8, 1)]),
        *(generate_instance(2, 1.5, 2.0, 1.0, seed) for seed in range(6)),
        *(generate_instance(2, 2.0, 2.0, 1.0, seed) for seed in range(4)),
    ]
    rng = random.Random(15)
    while len(instances) < 60:
        T, alpha = rng.choice([(2, 1.2), (2, 1.5), (3, 1.5), (4, 1.5), (6, 1.5)])
        inst = generate_instance(T, alpha, 2.0, 1.0, rng.randint(1, 100))
        if inst.ring_count <= MAX_RING_COUNT:
            instances.append(inst)

    reasons = []

    def recording(container, multiset):
        verdict = geometry.analytic_prefilter(container, multiset)
        reasons.append(verdict and verdict.reason)
        return verdict

    monkeypatch.setattr(oracle, "analytic_prefilter", recording)
    with_bound = [brute_force_opt(inst) for inst in instances]
    assert "count bound" in reasons
    monkeypatch.setattr(geometry, "_count_bound", lambda container, r: math.inf)
    reasons.clear()
    without = [brute_force_opt(inst) for inst in instances]
    assert "count bound" not in reasons
    assert without == with_bound
