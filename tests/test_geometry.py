import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringpack.geometry import (
    BOX_FLOOR,
    FEASIBLE,
    INFEASIBLE,
    THREE_IN_DISK,
    TOLERANCE,
    UNKNOWN,
    Disk,
    Rect,
    Verdict,
    _count_bound,
    _inradius,
    analytic_prefilter,
    check_placements,
    expand_multiset,
    greedy_pack,
    verify_exact,
)


class TestExpandMultiset:
    def test_descending_expansion(self):
        assert expand_multiset([(0.5, 2), (1.0, 1)]) == (1.0, 0.5, 0.5)

    def test_input_order_irrelevant(self):
        assert expand_multiset([(1.0, 1), (0.5, 2)]) == (1.0, 0.5, 0.5)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            expand_multiset([(0.0, 1)])

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            expand_multiset([(0.5, 0)])


class TestNonFiniteSizes:
    """A NaN or infinite size used to pass every constraint (a NaN term
    breaches nothing) and came back Feasible with a non-finite witness."""

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_radius_refused(self, r):
        with pytest.raises(ValueError, match="positive and finite"):
            expand_multiset([(r, 1)])
        with pytest.raises(ValueError, match="positive and finite"):
            verify_exact(Disk(1.0), [(r, 2)], node_limit=50)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0])
    def test_disk_refused(self, radius):
        with pytest.raises(ValueError, match="disk radius"):
            verify_exact(Disk(radius), [(0.3, 2)], node_limit=50)

    def test_zero_disk_allowed(self):
        # the hole of a ring with r = 0 holds nothing
        assert verify_exact(Disk(0.0), [(0.3, 1)]).status == INFEASIBLE

    @pytest.mark.parametrize("sides", [(math.inf, 1.0), (1.0, math.nan), (0.0, 1.0)])
    def test_rect_refused(self, sides):
        with pytest.raises(ValueError, match="rectangle sides"):
            verify_exact(Rect(*sides), [(0.3, 3)], node_limit=50)


def test_box_floor_below_tolerance():
    # verify_exact abandons a node once every box is thinner than
    # BOX_FLOOR; its Infeasible stays a proof because the midpoint of boxes
    # that thin is within the band of any exact placement they contain
    assert 0.0 < BOX_FLOOR < TOLERANCE


class TestCheckPlacements:
    def test_tight_pair_in_disk(self):
        assert check_placements(Disk(1.4), [0.7, 0.7], [(-0.7, 0.0), (0.7, 0.0)])

    def test_overlapping_pair_in_disk(self):
        assert not check_placements(Disk(1.4), [0.7, 0.7], [(-0.6, 0.0), (0.6, 0.0)])

    def test_corner_in_rectangle(self):
        assert check_placements(Rect(4, 4), [0.7], [(0.7, 0.7)])

    def test_boundary_breach_in_rectangle(self):
        assert not check_placements(Rect(4, 4), [0.7], [(0.6, 0.7)])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_placements(Rect(4, 4), [0.7], [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_centers_rejected(self, bad):
        assert not check_placements(Disk(1), [0.5] * 3, [(bad, bad)] * 3)
        assert not check_placements(Rect(4, 4), [0.7, 0.7], [(0.7, 0.7), (bad, 2.0)])


class TestGreedyPack:
    def test_corner_first(self):
        v = greedy_pack(Rect(4, 4), [(0.7, 1)])
        assert v.status == FEASIBLE
        assert v.witness == ((0.7, 0.7),)

    def test_two_in_disk_tangent(self):
        v = greedy_pack(Disk(1.4), [(0.7, 2)])
        assert v.status == FEASIBLE
        assert check_placements(Disk(1.4), [0.7, 0.7], v.witness)
        xs = sorted(p[0] for p in v.witness)
        assert xs[0] == pytest.approx(-0.7) and xs[1] == pytest.approx(0.7)

    def test_too_big_pair_fails(self):
        v = greedy_pack(Disk(1.0), [(0.7, 2)])
        assert v.status == INFEASIBLE

    def test_never_unknown_and_witness_checked(self):
        for ms in ([(0.5, 3)], [(0.9, 2), (0.4, 1)], [(1.2, 1)]):
            v = greedy_pack(Disk(1.5), ms)
            assert v.status in (FEASIBLE, INFEASIBLE)
            if v.status == FEASIBLE:
                assert check_placements(Disk(1.5), expand_multiset(ms), v.witness)

    def test_left_most_then_lowest_in_rect(self):
        v = greedy_pack(Rect(6, 4), [(1.0, 3)])
        assert v.status == FEASIBLE
        assert v.witness[0] == (1.0, 1.0)
        assert v.witness[1][0] <= v.witness[2][0] + 1e-9


class TestAnalyticPrefilter:
    def test_two_equal_over_half_radius(self):
        v = analytic_prefilter(Disk(1.4), [(0.8, 2)])
        assert v is not None and v.status == INFEASIBLE

    def test_two_equal_at_half_radius(self):
        v = analytic_prefilter(Disk(1.4), [(0.7, 2)])
        assert v is not None and v.status == FEASIBLE
        assert check_placements(Disk(1.4), [0.7, 0.7], v.witness)

    def test_area_bound_in_rectangle(self):
        # 2*pi*1.8^2 > 16: the area test fires, which the contract allows
        v = analytic_prefilter(Rect(4, 4), [(1.8, 2)])
        assert v is None or v.status == INFEASIBLE

    def test_single_circle_fits(self):
        v = analytic_prefilter(Rect(4, 4), [(1.9, 1)])
        assert v is not None and v.status == FEASIBLE

    def test_single_circle_too_big(self):
        v = analytic_prefilter(Rect(4, 10), [(2.1, 1)])
        assert v is not None and v.status == INFEASIBLE

    def test_three_equal_below_threshold(self):
        rho = 2.0
        v = analytic_prefilter(Disk(rho), [(THREE_IN_DISK * rho * 0.99, 3)])
        assert v is not None and v.status == FEASIBLE

    def test_no_rule_gives_none(self):
        assert analytic_prefilter(Disk(2.0), [(0.9, 1), (0.5, 2)]) is None

    def test_empty_multiset_feasible(self):
        v = analytic_prefilter(Disk(1.0), [])
        assert v is not None and v.status == FEASIBLE and v.witness == ()


class TestCountBound:
    def test_hexagonal_seven_in_disk_is_tight(self):
        # one unit circle at the center and six around it fill Disk(3)
        assert analytic_prefilter(Disk(3.0), [(1.0, 7)]) is None
        v = analytic_prefilter(Disk(3.0), [(1.0, 8)])
        assert v == Verdict(INFEASIBLE, reason="count bound")

    def test_row_in_strip_is_tight(self):
        # the centers lie on a segment of length 8: at most 8/2 + 1 of them
        assert analytic_prefilter(Rect(2.0, 10.0), [(1.0, 5)]) is None
        assert greedy_pack(Rect(2.0, 10.0), [(1.0, 5)]).status == FEASIBLE
        v = analytic_prefilter(Rect(2.0, 10.0), [(1.0, 6)])
        assert v == Verdict(INFEASIBLE, reason="count bound")

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_never_refutes_a_packable_set(self, data):
        # up to two slightly larger radii, then as many of the smallest as
        # push the total one past the bound there, so that every draw sits
        # just beyond the rule's threshold; smallest radii at most about
        # half the inradius leave the area bound silent on many draws
        if data.draw(st.booleans()):
            container = Disk(data.draw(st.floats(1.0, 4.0)))
        else:
            container = Rect(data.draw(st.floats(1.0, 8.0)), data.draw(st.floats(1.0, 8.0)))
        r_min = data.draw(st.floats(0.3, 0.55)) * _inradius(container)
        larger = data.draw(st.lists(st.floats(1.0, 1.3), max_size=2))
        multiset = [(r_min * f, data.draw(st.integers(1, 3))) for f in larger]
        others = sum(c for _, c in multiset)
        multiset.append((r_min, max(1, math.floor(_count_bound(container, r_min)) + 1 - others)))
        assume(sum(c for _, c in multiset) <= 9)
        v = analytic_prefilter(container, multiset)
        assert v is not None and v.status == INFEASIBLE
        if v.reason == "count bound":
            assert greedy_pack(container, multiset).status != FEASIBLE
            assert verify_exact(container, multiset, node_limit=5000).status != FEASIBLE


class TestVerifyExactSpecCases:
    def test_three_sevenths_in_disk(self):
        v = verify_exact(Disk(1.4), [(0.7, 3)])
        assert v.status == INFEASIBLE

    def test_big_plus_small_in_disk(self):
        v = verify_exact(Disk(1.4), [(1.2, 1), (0.7, 1)])
        assert v.status == INFEASIBLE

    def test_grid_of_four_in_square(self):
        v = verify_exact(Rect(4, 4), [(0.7, 4)])
        assert v.status == FEASIBLE
        assert check_placements(Rect(4, 4), [0.7] * 4, v.witness)

    def test_empty_multiset(self):
        v = verify_exact(Disk(1.0), [])
        assert v.status == FEASIBLE and v.witness == ()


class TestClosedFormAgreement:
    @pytest.mark.parametrize("k,thr", [(1, 1.0), (2, 0.5), (3, THREE_IN_DISK)])
    def test_both_sides_of_threshold(self, k, thr):
        rho = 2.0
        for margin in (1e-8, 1e-6, 1e-3, 0.05):
            below = verify_exact(Disk(rho), [(thr * rho * (1 - margin), k)])
            above = verify_exact(Disk(rho), [(thr * rho * (1 + margin), k)])
            assert below.status == FEASIBLE, (k, margin)
            assert above.status == INFEASIBLE, (k, margin)

    def test_four_in_disk_threshold(self):
        # one size beyond the closed forms: rho/(1+sqrt(2))
        rho = 2.0
        thr = rho / (1 + math.sqrt(2))
        assert verify_exact(Disk(rho), [(thr * 0.99, 4)]).status == FEASIBLE
        assert verify_exact(Disk(rho), [(thr * 1.02, 4)]).status == INFEASIBLE


class TestVerifyExactBehavior:
    def test_feasible_witness_always_checks(self):
        cases = [
            (Disk(2.0), [(0.9, 2), (0.4, 1)]),
            (Rect(5, 3), [(1.0, 2), (0.5, 2)]),
            (Disk(1.4), [(0.7, 2)]),
        ]
        for container, ms in cases:
            v = verify_exact(container, ms)
            if v.status == FEASIBLE:
                assert check_placements(container, expand_multiset(ms), v.witness)

    def test_never_contradicts_cheap_routes(self):
        containers = [Disk(1.4), Disk(2.0), Rect(4, 4)]
        multisets = [[(0.7, 2)], [(0.7, 1)], [(0.5, 3)], [(1.9, 1)]]
        for container, ms in itertools.product(containers, multisets):
            pre = analytic_prefilter(container, ms)
            greedy = greedy_pack(container, ms)
            exact = verify_exact(container, ms)
            if pre is not None and pre.status == FEASIBLE:
                assert exact.status == FEASIBLE
            if pre is not None and pre.status == INFEASIBLE:
                assert exact.status != FEASIBLE
            if greedy.status == FEASIBLE:
                assert exact.status == FEASIBLE

    def test_monotone_under_removal(self):
        container = Rect(5, 4)
        full = [(0.9, 2), (0.6, 2)]
        assert verify_exact(container, full).status == FEASIBLE
        for sub in ([(0.9, 2)], [(0.9, 1), (0.6, 2)], [(0.6, 1)]):
            assert verify_exact(container, sub).status == FEASIBLE

    def test_order_constraint_neutrality(self):
        cases = [
            (Disk(2.0), [(0.92, 3)]),
            (Disk(2.0), [(0.93, 3)]),
            (Disk(1.8), [(0.9, 2)]),
            (Rect(4, 4), [(1.0, 4)]),
            (Rect(4, 4), [(1.05, 4)]),
        ]
        for container, ms in cases:
            with_order = verify_exact(container, ms, order_constraints=True)
            without = verify_exact(container, ms, order_constraints=False)
            assert with_order.status == without.status, (container, ms)

    def test_deterministic(self):
        container = Disk(2.0)
        ms = [(0.84, 4)]
        a = verify_exact(container, ms)
        b = verify_exact(container, ms)
        assert a == b

    def test_node_limit_yields_unknown(self):
        v = verify_exact(Disk(2.0), [(0.84, 4)], node_limit=3)
        assert v.status == UNKNOWN and v.reason == "NodeLimit"

    def test_zero_node_limit_yields_unknown(self):
        v = verify_exact(Disk(2.0), [(0.84, 4)], node_limit=0)
        assert v.status == UNKNOWN and v.reason == "NodeLimit" and v.nodes == 0

    def test_budget_reported_in_nodes(self):
        v = verify_exact(Disk(2.0), [(0.84, 4)], node_limit=50)
        assert v.status == UNKNOWN and v.nodes == 50

    def test_circle_larger_than_container(self):
        assert verify_exact(Disk(1.0), [(1.2, 1)]).status == INFEASIBLE
        assert verify_exact(Rect(4, 2), [(1.5, 1)]).status == INFEASIBLE

    def test_arguments_validated(self):
        with pytest.raises(ValueError):
            verify_exact(Disk(2.0), [(0.84, 4)], node_limit=-1)
        with pytest.raises(ValueError):
            verify_exact(Disk(1.0), [(0.6, 2)], node_limit=math.nan)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.4, 0.5, 0.7, 0.9, 1.1]), st.integers(1, 2)
            ),
            min_size=1,
            max_size=2,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_random_small_cases_consistent(self, pairs):
        ms = {}
        for r, c in pairs:
            ms[r] = ms.get(r, 0) + c
        multiset = sorted(ms.items())
        container = Disk(1.6)
        v = verify_exact(container, multiset, node_limit=20000)
        if v.status == FEASIBLE:
            assert check_placements(container, expand_multiset(multiset), v.witness)
        elif v.status == INFEASIBLE:
            g = greedy_pack(container, multiset)
            assert g.status != FEASIBLE


class TestVerdictShape:
    def test_verdict_is_value_object(self):
        a = Verdict(FEASIBLE, witness=((0.0, 0.0),), reason="x", nodes=1)
        b = Verdict(FEASIBLE, witness=((0.0, 0.0),), reason="x", nodes=1)
        assert a == b


# Kernel equivalence gate.  Each case of kernel_cases.json was recorded from
# the search as of commit 0d3e182, which re-tested every box and every pair
# at every node: verify_exact(container, multiset, node_limit,
# order_constraints=...) and greedy_pack(container, multiset) in the 1e-9
# band (TOLERANCE), with repr() of each witness coordinate.  The cases cover disk
# and rectangle containers, k = 1 to 9, radii at and just past the two-,
# three- and four-in-disk and 2 x 2 grid thresholds, order constraints off,
# node limit 0, and node-limited Unknowns long enough to run the repair at
# nodes 1, 17, 33, ...  The kernel must reproduce every field exactly.
KERNEL_CASES = json.loads((Path(__file__).parent / "kernel_cases.json").read_text())


def _kernel_case_id(case):
    kind, *dims = case["container"]
    k = sum(n for _, n in case["multiset"])
    return f"{kind}{dims}-k{k}-{case['node_limit']}"


@pytest.mark.parametrize("case", KERNEL_CASES, ids=_kernel_case_id)
def test_kernel_matches_recorded_search(case):
    kind, *dims = case["container"]
    container = Disk(*dims) if kind == "disk" else Rect(*dims)
    ms = [tuple(p) for p in case["multiset"]]

    def witness(v):
        return None if v.witness is None else [[repr(x), repr(y)] for x, y in v.witness]

    v = verify_exact(container, ms, case["node_limit"],
                     order_constraints=case["order_constraints"])
    got = {"status": v.status, "reason": v.reason, "nodes": v.nodes, "witness": witness(v)}
    assert got == case["verify"]
    g = greedy_pack(container, ms)
    assert {"status": g.status, "reason": g.reason, "witness": witness(g)} == case["greedy"]
