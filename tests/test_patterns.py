import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_instance
from ringpack.geometry import (
    INFEASIBLE,
    NODES_PER_SECOND,
    UNKNOWN,
    check_placements,
    expand_multiset,
)
from ringpack.model import generate_instance
from ringpack.patterns import (
    Budget,
    CircularPattern,
    PatternSets,
    RectangularPattern,
    candidate_space,
    circular_caps,
    classify_counts,
    counts_multiset,
    dominates,
    dump_patterns,
    enumerate_patterns,
    filter_dominated,
    hole_container,
    rect_caps,
    rect_container,
    witness_slots,
)
from ringpack.solver import DESK_CONFIG, SolveConfig

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
# the proven certificates; (2, 1, 0) in type 2's hole lies above (1, 1, 0)
# and is never a candidate
TINY3_INFEASIBLE = {
    CircularPattern(1, (2, 0, 0)),
    CircularPattern(2, (1, 1, 0)),
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
        assert sets.unknown == set()

    def test_filtered_family_is_the_four(self, tiny3):
        sets = enumerate_patterns(tiny3)
        assert set(sets.feasible) == TINY3_MAXIMAL
        assert sets.unknown == set()

    def test_witnesses_verified(self, tiny3):
        sets = enumerate_patterns(tiny3)
        for pat, witness in sets.feasible.items():
            ms = counts_multiset(tiny3, pat.counts)
            radii = expand_multiset(ms) if ms else ()
            assert check_placements(hole_container(tiny3, pat.outer_type), radii, witness)

    def test_dominance_infeasible_has_verified_certificate(self, tiny3):
        sets = enumerate_patterns(tiny3, filter_result=False)
        derived = CircularPattern(2, (2, 1, 0))
        # skipped, not stored
        assert derived not in {*sets.feasible, *sets.infeasible, *sets.unknown}
        assert any(dominates(derived, q) for q in sets.infeasible)
        # so no stored certificate lies above another
        assert filter_dominated(sets.infeasible) == sets.infeasible

    def test_partition_covers_all_candidates(self, tiny3):
        sets = enumerate_patterns(tiny3, filter_result=False)
        everything = set(sets.feasible) | sets.infeasible | sets.unknown
        for t in range(tiny3.type_count):
            for counts in candidate_space(tiny3, t):
                pat = CircularPattern(t, counts)
                assert pat in everything or any(
                    dominates(pat, q) for q in sets.infeasible
                )
        assert not (set(sets.feasible) & sets.infeasible)
        assert not (set(sets.feasible) & set(sets.unknown))
        assert not (sets.infeasible & set(sets.unknown))


def test_count_bound_settles_the_unit_circles_in_radius_three():
    # type 2's hole has radius 3 and type 0 is a unit circle: seven fit,
    # and the count bound refutes eight before any search, so the walk
    # never reaches nine
    inst = generate_instance(3, 3.0, 3.0, 1.0, 2)
    sets = enumerate_patterns(inst, DESK_CONFIG, filter_result=False)
    eight = CircularPattern(2, (8, 0, 0))
    assert sets.unknown == set()
    assert eight in sets.infeasible
    visited = {*sets.feasible, *sets.infeasible}
    assert not any(dominates(p, eight) for p in visited)


class TestBudgets:
    def test_zero_budget_still_classifies_cheap_candidates(self, tiny3):
        starved = SolveConfig(enumeration_budget=0.0)
        sets = enumerate_patterns(tiny3, starved, filter_result=False)
        assert set(sets.feasible) == TINY3_FEASIBLE
        assert sets.unknown == {CircularPattern(2, (1, 1, 0))}
        assert CircularPattern(2, (2, 1, 0)) in sets.infeasible

    def test_budget_monotonicity(self, tiny3):
        starved = SolveConfig(enumeration_budget=0.0)
        lean = enumerate_patterns(tiny3, starved, filter_result=False)
        rich = enumerate_patterns(tiny3, filter_result=False)
        assert set(lean.feasible) <= set(rich.feasible)
        assert set(rich.unknown) <= set(lean.unknown)

    def test_warm_cache_answers_without_budget(self, tiny3):
        # (0, 1, 1) in the rectangle needs an exact search: with no budget
        # and no cache it stays Unknown
        box, counts, cache = rect_container(tiny3), (0, 1, 1), {}
        starved = classify_counts(tiny3, box, counts, Budget(0.0, 0.0))
        assert starved.status == UNKNOWN
        first = classify_counts(tiny3, box, counts, Budget(math.inf, math.inf),
                                cache=cache, cache_key=counts)
        assert first.status == INFEASIBLE and first.nodes > 0
        warm = classify_counts(tiny3, box, counts, Budget(0.0, 0.0),
                               cache=cache, cache_key=counts)
        assert warm is first

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
        # every pattern appears once with its status, feasible ones with
        # their witness to 12 significant digits
        sets = enumerate_patterns(tiny3, filter_result=False)
        status, witness = {}, {}
        for line in dump_patterns(tiny3, sets).splitlines():
            tokens = line.split()
            pat = CircularPattern(int(tokens[1]), tuple(map(int, tokens[2:5])))
            status[pat] = tokens[5]
            witness[pat] = [float(x) for x in tokens[6:]]
        assert status == {
            **{p: "Feasible" for p in sets.feasible},
            **{p: "Infeasible" for p in sets.infeasible},
            **{p: "Unknown" for p in sets.unknown},
        }
        for pat, placed in sets.feasible.items():
            flat = [c for xy in placed for c in xy]
            assert witness[pat] == pytest.approx(flat, rel=1e-11, abs=1e-11)

    def test_dump_is_sorted_and_stable(self, tiny3):
        sets = enumerate_patterns(tiny3, filter_result=False)
        a = dump_patterns(tiny3, sets)
        b = dump_patterns(tiny3, enumerate_patterns(tiny3, filter_result=False))
        assert a == b
        rows = [line.split()[:5] for line in a.strip().splitlines()]
        assert rows == sorted(rows, key=lambda r: (int(r[1]), [int(x) for x in r[2:5]]))


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
            expected = math.prod(c + 1 for c in caps)
            assert len(seen) == expected

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_walk_skips_exactly_what_proofs_rule_out(self, data):
        caps = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
        # small rings with demand = cap, nested in one big hole
        triples = [(0.0, 0.1 * (s + 1), c) for s, c in enumerate(caps)]
        inst = make_instance(25, 25, triples + [(10.0, 10.5, 1)])
        t = len(caps)
        caps = circular_caps(inst, t)
        grid = list(itertools.product(*(range(c + 1) for c in caps)))
        # packable vectors form a down-set: those below some random maximal ones
        tops = data.draw(st.lists(st.sampled_from(grid), max_size=4))
        packable = {v for v in grid if any(_below(v, top) for top in tops)}

        proven = set()
        seen = []
        for counts in candidate_space(inst, t, proven):
            seen.append(counts)
            if counts not in packable:
                proven.add(counts)

        # a proof rules out every vector strictly above it
        open_ = [
            v for v in grid
            if not any(_below(q, v) and q != v for q in grid if q not in packable)
        ]
        assert seen == sorted(open_, key=lambda v: (sum(v), v))


def _below(p, q):
    return all(a <= b for a, b in zip(p, q))


class TestPatternTypes:
    def test_total(self):
        assert CircularPattern(1, (2, 1, 0)).total == 3
        assert RectangularPattern((2, 1, 0)).total == 3
