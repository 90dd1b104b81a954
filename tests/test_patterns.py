import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_instance
from ringpack.geometry import (
    FEASIBLE,
    NODES_PER_SECOND,
    check_placements,
    expand_multiset,
)
from ringpack.model import InvariantViolation, MalformedInput
from ringpack.patterns import (
    Budget,
    CircularPattern,
    PatternSets,
    RectangularPattern,
    candidate_space,
    circular_caps,
    counts_multiset,
    dominates,
    dump_patterns,
    enumerate_patterns,
    filter_dominated,
    hole_container,
    load_patterns,
    rect_caps,
    witness_slots,
)

# the classification of every TINY3 candidate, spelled out (0-based types)
TINY3_FEASIBLE = {
    CircularPattern(0, (0, 0, 0)),
    CircularPattern(1, (0, 0, 0)),
    CircularPattern(1, (1, 0, 0)),
    CircularPattern(2, (0, 0, 0)),
    CircularPattern(2, (1, 0, 0)),
    CircularPattern(2, (2, 0, 0)),
    CircularPattern(2, (0, 1, 0)),
}
TINY3_MAXIMAL = {
    CircularPattern(0, (0, 0, 0)),
    CircularPattern(1, (1, 0, 0)),
    CircularPattern(2, (2, 0, 0)),
    CircularPattern(2, (0, 1, 0)),
}
TINY3_INFEASIBLE = {
    CircularPattern(1, (2, 0, 0)),
    CircularPattern(2, (1, 1, 0)),
    CircularPattern(2, (2, 1, 0)),
}


class TestDominates:
    def test_strictly_smaller_counts(self):
        assert dominates(CircularPattern(1, (1, 0, 0)), CircularPattern(1, (0, 0, 0)))

    def test_incomparable(self):
        p, q = CircularPattern(2, (2, 0, 0)), CircularPattern(2, (0, 1, 0))
        assert not dominates(p, q) and not dominates(q, p)

    def test_irreflexive(self):
        p = CircularPattern(2, (1, 1, 0))
        assert not dominates(p, p)

    def test_different_outer_types_never_compare(self):
        assert not dominates(
            CircularPattern(2, (1, 0, 0)), CircularPattern(1, (0, 0, 0))
        )


class TestFilterDominated:
    def test_fig_family_reduces_to_four(self):
        assert filter_dominated(TINY3_FEASIBLE) == TINY3_MAXIMAL

    def test_empty(self):
        assert filter_dominated(set()) == set()

    def test_chain_keeps_top(self):
        chain = {
            CircularPattern(0, (2, 2)),
            CircularPattern(0, (1, 1)),
            CircularPattern(0, (0, 0)),
        }
        assert filter_dominated(chain) == {CircularPattern(0, (2, 2))}

    @given(
        st.sets(
            st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
            max_size=15,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_antichain_and_idempotent(self, vectors):
        pats = {CircularPattern(0, v) for v in vectors}
        kept = filter_dominated(pats)
        assert filter_dominated(kept) == kept
        for p in kept:
            for q in kept:
                assert not dominates(p, q)
        # nothing dropped without a dominating survivor
        for p in pats - kept:
            assert any(dominates(q, p) for q in kept)


class TestCandidateSpace:
    def test_tiny3_caps(self, tiny3):
        assert circular_caps(tiny3, 0) == (0, 0, 0)
        assert circular_caps(tiny3, 1) == (2, 0, 0)
        assert circular_caps(tiny3, 2) == (2, 1, 0)

    def test_smallest_hole_admits_nothing(self, tiny3):
        assert list(candidate_space(tiny3, 0)) == [(0, 0, 0)]

    def test_largest_hole_graded_lex(self, tiny3):
        assert list(candidate_space(tiny3, 2)) == [
            (0, 0, 0),
            (0, 1, 0),
            (1, 0, 0),
            (1, 1, 0),
            (2, 0, 0),
            (2, 1, 0),
        ]

    def test_zero_vector_first(self, tiny3):
        for t in range(tiny3.type_count):
            assert next(iter(candidate_space(tiny3, t))) == (0,) * 3

    def test_demand_caps_respected(self):
        inst = make_instance(10, 10, [(0.0, 0.5, 1), (3.0, 3.2, 2)])
        caps = circular_caps(inst, 1)
        assert caps == (1, 0)
        assert list(candidate_space(inst, 1)) == [(0, 0), (1, 0)]

    def test_rect_caps(self, tiny3):
        assert rect_caps(tiny3) == (2, 1, 1)


class TestEnumerateTiny3:
    def test_prefilter_family_is_the_seven(self, tiny3):
        sets = enumerate_patterns(tiny3, filter_result=False)
        assert set(sets.feasible) == TINY3_FEASIBLE
        assert sets.infeasible == TINY3_INFEASIBLE
        assert sets.unknown == {}

    def test_filtered_family_is_the_four(self, tiny3):
        sets = enumerate_patterns(tiny3)
        assert set(sets.feasible) == TINY3_MAXIMAL
        assert sets.unknown == {}

    def test_witnesses_verified(self, tiny3):
        sets = enumerate_patterns(tiny3)
        for pat, witness in sets.feasible.items():
            ms = counts_multiset(tiny3, pat.counts)
            radii = expand_multiset(ms) if ms else ()
            assert check_placements(hole_container(tiny3, pat.outer_type), radii, witness)

    def test_dominance_infeasible_has_verified_certificate(self, tiny3):
        sets = enumerate_patterns(tiny3, filter_result=False)
        derived = CircularPattern(2, (2, 1, 0))
        assert derived in sets.infeasible
        assert any(
            dominates(derived, q) for q in sets.infeasible - {derived}
        )

    def test_partition_covers_all_candidates(self, tiny3):
        sets = enumerate_patterns(tiny3, filter_result=False)
        everything = set(sets.feasible) | sets.infeasible | set(sets.unknown)
        for t in range(tiny3.type_count):
            for counts in candidate_space(tiny3, t):
                assert CircularPattern(t, counts) in everything
        assert not (set(sets.feasible) & sets.infeasible)
        assert not (set(sets.feasible) & set(sets.unknown))
        assert not (sets.infeasible & set(sets.unknown))


class TestBudgets:
    def test_zero_budget_still_classifies_cheap_candidates(self, tiny3):
        sets = enumerate_patterns(tiny3, budget=0.0, filter_result=False)
        assert set(sets.feasible) == TINY3_FEASIBLE
        assert sets.unknown == {CircularPattern(2, (1, 1, 0)): 0}
        assert CircularPattern(2, (2, 1, 0)) in sets.infeasible

    def test_budget_monotonicity(self, tiny3):
        lean = enumerate_patterns(tiny3, budget=0.0, filter_result=False)
        rich = enumerate_patterns(tiny3, filter_result=False)
        assert set(lean.feasible) <= set(rich.feasible)
        assert set(rich.unknown) <= set(lean.unknown)

    def test_warm_cache_resolves_without_budget(self, tiny3):
        cache = {}
        first = enumerate_patterns(tiny3, cache=cache, filter_result=False)
        assert first.unknown == {}
        warm = enumerate_patterns(tiny3, budget=0.0, cache=cache, filter_result=False)
        assert warm.unknown == {}
        assert set(warm.feasible) == set(first.feasible)
        assert warm.infeasible == first.infeasible

    # the seconds-to-nodes product rounds up to 5.0 one ulp below 5 nodes
    # and down to 29.999999999999996 at exactly 30
    @given(st.floats(min_value=0.0, max_value=1e-3))
    @example(4.9999999999999996e-05)
    @example(3e-4)
    @settings(max_examples=200, deadline=None)
    def test_budget_buys_the_most_nodes_within_its_seconds(self, seconds):
        for budget in (Budget(seconds, math.inf), Budget(math.inf, seconds)):
            nodes = budget.call_nodes()
            assert nodes / NODES_PER_SECOND <= seconds
            assert (nodes + 1) / NODES_PER_SECOND > seconds

    def test_call_nodes_is_the_smaller_of_cap_and_rest(self):
        budget = Budget(1e-3, 3e-4)
        assert budget.call_nodes() == 30
        budget.charge(80)
        assert budget.call_nodes() == 20 and not budget.exhausted
        budget.charge(20)
        assert budget.call_nodes() == 0 and budget.exhausted
        assert Budget(math.inf, math.inf).call_nodes() == math.inf


class TestDumpLoad:
    def test_round_trip(self, tiny3):
        sets = enumerate_patterns(tiny3, filter_result=False)
        text = dump_patterns(tiny3, sets)
        again = load_patterns(text, tiny3)
        assert set(again.feasible) == set(sets.feasible)
        assert again.infeasible == sets.infeasible
        assert set(again.unknown) == set(sets.unknown)

    def test_dump_is_sorted_and_stable(self, tiny3):
        sets = enumerate_patterns(tiny3, filter_result=False)
        a = dump_patterns(tiny3, sets)
        b = dump_patterns(tiny3, enumerate_patterns(tiny3, filter_result=False))
        assert a == b
        rows = [line.split()[:5] for line in a.strip().splitlines()]
        assert rows == sorted(rows, key=lambda r: (int(r[1]), [int(x) for x in r[2:5]]))

    def test_feasible_line_without_witness_demoted(self, tiny3):
        line = "C 2 2 0 0 Feasible\n"
        sets = load_patterns(line, tiny3)
        assert sets.feasible == {}
        assert CircularPattern(2, (2, 0, 0)) in sets.unknown

    def test_tampered_witness_demoted(self, tiny3):
        line = "C 2 2 0 0 Feasible 0 0 0.1 0\n"
        sets = load_patterns(line, tiny3)
        assert sets.feasible == {}

    def test_bad_line_raises(self, tiny3):
        with pytest.raises(MalformedInput):
            load_patterns("C 2 xx 0 0 Feasible\n", tiny3)
        with pytest.raises(MalformedInput):
            load_patterns("C 2 0 0 0 Sideways\n", tiny3)
        with pytest.raises(InvariantViolation):
            load_patterns("C 9 0 0 0 Infeasible\n", tiny3)


class TestWitnessSlots:
    def test_slots_follow_expansion_order(self, tiny3):
        counts = (2, 1, 0)
        slots = witness_slots(tiny3, counts)
        assert slots == [1, 0, 0]
        ms = counts_multiset(tiny3, counts)
        radii = expand_multiset(ms)
        assert [tiny3.types[s].outer_radius for s in slots] == list(radii)

    @given(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)))
    @settings(max_examples=30, deadline=None)
    def test_slots_match_radii_generally(self, counts):
        inst = make_instance(
            4, 4, [(0.5, 0.7, 2), (1.0, 1.2, 1), (1.4, 1.8, 1)]
        )
        ms = counts_multiset(inst, counts)
        radii = expand_multiset(ms) if ms else ()
        slots = witness_slots(inst, counts)
        assert [inst.types[s].outer_radius for s in slots] == list(radii)


class TestGradedOrderProperty:
    @given(
        st.lists(st.floats(0.3, 1.8), min_size=1, max_size=3),
        st.integers(1, 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_candidates_sorted_and_capped(self, outers, demand):
        outers = sorted(set(round(r, 3) for r in outers))
        if not outers:
            return
        triples = [(0.8 * R, R, demand) for R in outers]
        inst = make_instance(5, 5, triples)
        for t in range(inst.type_count):
            caps = circular_caps(inst, t)
            seen = list(candidate_space(inst, t))
            keys = [(sum(v), v) for v in seen]
            assert keys == sorted(keys)
            assert len(seen) == len(set(seen))
            for v in seen:
                assert all(c <= cap for c, cap in zip(v, caps))
            import math
            expected = math.prod(c + 1 for c in caps)
            assert len(seen) == expected


class TestPatternTypes:
    def test_total(self):
        assert CircularPattern(1, (2, 1, 0)).total == 3
        assert RectangularPattern((2, 1, 0)).total == 3

    def test_status_of(self, tiny3):
        sets = enumerate_patterns(tiny3)
        assert sets.status_of(CircularPattern(0, (0, 0, 0))) == FEASIBLE
        assert sets.status_of(CircularPattern(9, (0, 0, 0))) is None
