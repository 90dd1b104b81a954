"""End-to-end solve driver, verification branches, and reconstruction."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringpack import master, solver
from ringpack.cli import format_report
from ringpack.geometry import UNKNOWN, verify_exact
from ringpack.model import (
    generate_instance,
    parse_instance,
    validate_solution,
    write_solution,
)
from ringpack.patterns import (
    CircularPattern,
    PatternSets,
    RectangularPattern,
    counts_multiset,
    enumerate_patterns,
    hole_container,
    rect_container,
)
from ringpack.oracle import brute_force_opt
from ringpack.pricing import BoundOnly, ImprovingColumn
from ringpack.solver import (
    InconsistentMultiset,
    SolveConfig,
    fallback_solution,
    price_and_verify_root,
    reconstruct_placements,
    solve,
    solve_restricted_ip,
    volume_lower_bound,
)
from conftest import TINY3_TEXT, make_instance


# two ring types sized so that three smalls overfill the big hole while a
# pairwise check cannot tell, and the big never shares a rectangle with a
# directly-placed small
PLANT = make_instance(4.5, 4.5, [(0.2, 0.95, 3), (2.0, 2.2, 1)], name="PLANT")
BAD = CircularPattern(1, (3, 0))
GOOD = CircularPattern(1, (2, 0))


TINY3 = parse_instance(TINY3_TEXT, name="TINY3")

# stage budgets of 0 to 100 exact-search nodes, in virtual seconds
SECONDS = st.floats(min_value=0.0, max_value=1e-3)


def plant_unknown(pattern):
    """Pattern sets for PLANT with one classified pattern demoted to unknown."""
    base = enumerate_patterns(PLANT)
    return PatternSets(
        feasible={p: w for p, w in base.feasible.items() if p != pattern},
        infeasible=set(base.infeasible) - {pattern},
        unknown={pattern},
    )


class TestSolveEndToEnd:
    def test_tiny3_closed(self, tiny3):
        report = solve(tiny3)
        assert report.primal_bound == 2
        assert report.dual_bound == 2
        assert report.gap == 0.0
        assert report.ip_proven and report.dual_valid
        assert report.statistics["root_lp"] == pytest.approx(1.25)
        assert validate_solution(tiny3, report.incumbent).feasible

    def test_tiny3_statistics(self, tiny3):
        stats = solve(tiny3).statistics
        assert stats["columns_priced"] == 2
        assert stats["pricing_calls"] == 3
        assert stats["ip_nodes"] == 9
        assert stats["feasible_patterns"] == 4
        assert stats["unknown_patterns"] == 0
        assert stats["unverified_fixed"] == 0
        assert stats["volume_bound"] == 1

    def test_solid_disks_two_per_rectangle(self):
        # inner radius zero: plain circle packing, exactly two fit
        flat = make_instance(8.1, 4.0, [(0.0, 1.95, 4)], name="FLAT")
        report = solve(flat)
        assert report.primal_bound == 2
        assert report.dual_bound == 2
        assert report.statistics["root_lp"] == pytest.approx(2.0)
        assert validate_solution(flat, report.incumbent).feasible

    def test_five_rings_round_up(self):
        # LP packs two and a half rectangles; the integer answer is three
        single = make_instance(4.0, 4.0, [(0.4, 1.1, 5)], name="SINGLE5")
        report = solve(single)
        assert report.statistics["root_lp"] == pytest.approx(2.5)
        assert report.primal_bound == 3
        assert report.dual_bound == 3
        assert report.ip_proven
        assert validate_solution(single, report.incumbent).feasible

    def test_overcovering_ip_still_reaches_optimum(self):
        # the restricted IP may answer demands (3,1) with 4+2 pattern uses;
        # reconstruction has to shed the surplus instead of giving up
        report = solve(PLANT)
        assert report.primal_bound == 2
        assert report.dual_bound == 2
        assert report.gap == 0.0
        check = validate_solution(PLANT, report.incumbent)
        assert check.feasible, check.violations
        assert report.incumbent.rectangle_count == 2
        assert len(report.incumbent.rings) == 4

    def test_seeded_instances_bounds_chain(self):
        for seed in range(3):
            inst = generate_instance(2, 1.5, 2.0, 1.0, seed)
            report = solve(inst)
            vol = volume_lower_bound(inst)
            assert vol <= report.dual_bound <= report.primal_bound
            assert report.gap >= 0.0
            assert validate_solution(inst, report.incumbent).feasible
            if report.dual_valid:
                assert report.dual_bound <= brute_force_opt(inst)

    def test_equal_outer_radii_reconstruct(self):
        # type 0 has a zero wall (r = R = 1.2) and holds a solid type 1 of
        # the same outer radius: reconstruction must place it first
        tie = parse_instance("4 4\n1.2 1.2 1\n0.0 1.2 2\n", name="TIE")
        report = solve(tie)
        assert (report.primal_bound, report.dual_bound, report.gap) == (2, 2, 0.0)
        check = validate_solution(tie, report.incumbent)
        assert check.feasible, check.violations

    def test_deterministic_resolve(self, tiny3):
        first = solve(tiny3)
        second = solve(tiny3)
        assert first.primal_bound == second.primal_bound
        assert first.dual_bound == second.dual_bound
        assert first.statistics == second.statistics
        assert first.incumbent == second.incumbent
        assert write_solution(first.incumbent) == write_solution(second.incumbent)


class TestVerificationBranches:
    def test_planted_unpackable_is_fixed_and_repriced(self):
        root = price_and_verify_root(PLANT, plant_unknown(BAD), SolveConfig())
        assert root.patterns_verified == 1
        assert BAD in root.sets.infeasible
        assert not root.sets.unknown
        # leaning on the planted pattern the LP sat at 1; fixing lifts it
        assert root.root_value == pytest.approx(4 / 3)
        assert root.pricing_calls >= 2
        assert root.dual_valid
        assert root.best_dual == 2
        assert root.fixed_unverified == 0

    def test_planted_packable_is_promoted_with_witness(self):
        root = price_and_verify_root(PLANT, plant_unknown(GOOD), SolveConfig())
        assert root.patterns_verified == 1
        assert GOOD in root.sets.feasible
        assert len(root.sets.feasible[GOOD]) == 2
        assert not root.sets.unknown
        assert root.root_value == pytest.approx(4 / 3)
        assert root.dual_valid

    def test_starved_verification_invalidates_dual(self):
        config = dataclasses.replace(
            SolveConfig(), verification_limit=1e-7, verification_budget=1e-6
        )
        root = price_and_verify_root(PLANT, plant_unknown(BAD), config)
        assert not root.dual_valid
        assert root.fixed_unverified == 1
        # bound frozen at the last trustworthy proof point
        assert root.best_dual == 1
        assert root.root_value == pytest.approx(4 / 3)
        assert volume_lower_bound(PLANT) <= root.best_dual <= brute_force_opt(PLANT)

    def test_no_farley_bound_after_force_out(self, monkeypatch):
        # once an unknown pattern is forced out the LP is a restriction, so
        # a bound from truncated pricing over it need not hold
        real_fix, real_price = master.fix_circular_zero, solver.price_rectangular
        forced = []

        def fix(model, pattern):
            forced.append(pattern)
            real_fix(model, pattern)

        def price(*args, **kwargs):
            return BoundOnly(-1.0) if forced else real_price(*args, **kwargs)

        monkeypatch.setattr(master, "fix_circular_zero", fix)
        monkeypatch.setattr(solver, "price_rectangular", price)
        config = dataclasses.replace(
            SolveConfig(), verification_limit=1e-7, verification_budget=1e-6
        )
        root = price_and_verify_root(PLANT, plant_unknown(BAD), config)
        assert forced == [BAD] and not root.dual_valid
        assert root.pricing_calls >= 2
        assert root.farley_bounds == []

    def test_repriced_known_column_proves_nothing(self, monkeypatch):
        # pricing may return a column from its greedy phase without any
        # search, so seeing one the LP already holds says nothing about the
        # other columns: pricing stops and that LP gives no bound
        real, outcomes = solver.price_rectangular, []

        def price_once(*args, **kwargs):
            if not outcomes:
                outcomes.append(real(*args, **kwargs))
            return outcomes[0]

        monkeypatch.setattr(solver, "price_rectangular", price_once)
        root = price_and_verify_root(TINY3, enumerate_patterns(TINY3), SolveConfig())
        assert isinstance(outcomes[0], ImprovingColumn)
        assert root.pricing_calls == 2 and root.columns_priced == 1
        assert root.root_value > 0
        assert root.best_dual == 0 and root.farley_bounds == []


class TestBudgetEnforcement:
    @given(
        inst=st.sampled_from([TINY3, PLANT]),
        enumeration_limit=SECONDS,
        enumeration_budget=SECONDS,
        verification_limit=SECONDS,
        verification_budget=SECONDS,
        pricing_limit=SECONDS,
    )
    @settings(max_examples=40, deadline=None)
    def test_stage_budgets_hold(self, inst, **seconds):
        config = SolveConfig(**seconds)
        sets = enumerate_patterns(inst, config)
        root = price_and_verify_root(inst, sets, config)
        assert root.verification_spent <= config.verification_budget
        report = solve(inst, config)
        assert volume_lower_bound(inst) <= report.dual_bound <= report.primal_bound
        assert validate_solution(inst, report.incumbent).feasible

    @given(node_limit=st.integers(min_value=0, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_exact_search_stops_at_node_limit(self, node_limit):
        # proven infeasible at the root; found by repair at node 17 (twice)
        cases = [
            (hole_container(PLANT, 1), counts_multiset(PLANT, BAD.counts)),
            (rect_container(PLANT), counts_multiset(PLANT, (3, 0))),
            (rect_container(TINY3), counts_multiset(TINY3, (2, 1, 0))),
        ]
        for container, multiset in cases:
            verdict = verify_exact(container, multiset, node_limit=node_limit)
            assert verdict.nodes <= node_limit
            if verdict.status == UNKNOWN:
                assert verdict.nodes == node_limit


class TestRestrictedIP:
    def test_integral_root_needs_one_node(self):
        single = make_instance(4.0, 4.0, [(0.4, 1.1, 2)], name="SINGLE2")
        root = price_and_verify_root(single, enumerate_patterns(single), SolveConfig())
        assert root.root_value == pytest.approx(1.0)
        assign, proven, nodes = solve_restricted_ip(root.master, SolveConfig())
        assert proven
        assert nodes == 1
        assert assign is not None

    def test_tiny3_ip_value(self, tiny3):
        root = price_and_verify_root(tiny3, enumerate_patterns(tiny3), SolveConfig())
        assign, proven, nodes = solve_restricted_ip(root.master, SolveConfig())
        assert proven
        rect_ids = set(root.master.rect_cols.values())
        assert sum(v for c, v in assign.items() if c in rect_ids) == 2

    @pytest.mark.parametrize("limit, proven", [(0, False), (1, True)])
    def test_node_cap(self, limit, proven):
        # `generate 4 1.5 2 1 9`: one IP node proves the optimum; with none,
        # the incumbent is the single-chain fallback, optimal here too
        inst = generate_instance(4, 1.5, 2.0, 1.0, 9)
        report = solve(inst, SolveConfig(ip_node_limit=limit))
        assert (report.primal_bound, report.dual_bound) == (6, 6)
        assert report.ip_proven is proven
        assert report.statistics["ip_nodes"] == limit
        assert validate_solution(inst, report.incumbent).feasible
        assert volume_lower_bound(inst) <= report.dual_bound <= report.primal_bound
        assert f"ip-proven {int(proven)}\n" in format_report(report)


class TestReconstruction:
    def test_missing_slots_raise(self):
        single = make_instance(4.0, 4.0, [(0.4, 1.1, 1)], name="S")
        with pytest.raises(InconsistentMultiset):
            reconstruct_placements(
                single, {}, {CircularPattern(0, (0,)): 1}, {}, {CircularPattern(0, (0,)): ()}
            )

    def test_missing_witness_raises(self):
        single = make_instance(4.0, 4.0, [(0.4, 1.1, 1)], name="S")
        with pytest.raises(InconsistentMultiset):
            reconstruct_placements(
                single, {RectangularPattern((1,)): 1}, {}, {}, {}
            )

    def test_surplus_slots_stay_empty(self):
        single = make_instance(4.0, 4.0, [(0.4, 1.1, 1)], name="S")
        solution = reconstruct_placements(
            single,
            {RectangularPattern((2,)): 1},
            {CircularPattern(0, (0,)): 1},
            {RectangularPattern((2,)): ((1.1, 1.1), (2.9, 2.9))},
            {CircularPattern(0, (0,)): ()},
        )
        assert solution.rectangle_count == 1
        assert len(solution.rings) == 1
        assert validate_solution(single, solution).feasible

    def test_overcover_rehomes_children(self):
        rect = RectangularPattern((0, 1))
        twin = CircularPattern(1, (2, 0))
        empty = CircularPattern(0, (0, 0))
        solution = reconstruct_placements(
            PLANT,
            {rect: 2},
            {twin: 2, empty: 4},
            {rect: ((2.25, 2.25),)},
            {twin: ((-1.05, 0.0), (1.05, 0.0)), empty: ()},
        )
        check = validate_solution(PLANT, solution)
        assert check.feasible, check.violations
        assert solution.rectangle_count == 2
        by_type = [0, 0]
        for ring in solution.rings:
            by_type[ring.type_index] += 1
        assert by_type == [3, 1]
        # the surplus big was deleted, its content now direct in the rect
        rehomed = [
            r for r in solution.rings if r.type_index == 0 and r.parent is None
        ]
        assert len(rehomed) == 1


class TestFallback:
    def test_tiny3_chain(self, tiny3):
        solution = fallback_solution(tiny3)
        assert solution.rectangle_count == 2
        assert validate_solution(tiny3, solution).feasible

    def test_seeded_chains_always_valid(self):
        for seed in range(4):
            inst = generate_instance(3, 1.8, 2.0, 1.0, seed)
            solution = fallback_solution(inst)
            assert solution.rectangle_count <= inst.ring_count
            assert validate_solution(inst, solution).feasible
