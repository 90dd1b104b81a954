import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TINY3_TEXT, make_instance
from ringpack.model import (
    InfeasibleParameters,
    Instance,
    InvariantViolation,
    MalformedInput,
    PlacedRing,
    PlacedSolution,
    RingType,
    generate_instance,
    parse_instance,
    parse_solution,
    validate_solution,
    volume_lower_bound,
    write_instance,
    write_solution,
)


class TestRingType:
    def test_rejects_inverted_radii(self):
        with pytest.raises(InvariantViolation):
            RingType(0.9, 0.7, 1)

    def test_rejects_negative_demand(self):
        with pytest.raises(InvariantViolation):
            RingType(0.5, 0.7, -1)

    def test_material_area(self):
        t = RingType(0.5, 0.7, 2)
        assert t.material_area == pytest.approx(math.pi * (0.49 - 0.25))


class TestInstanceInvariants:
    def test_needs_positive_sides(self):
        with pytest.raises(InvariantViolation):
            Instance(0.0, 4.0, (RingType(0.5, 0.7, 1),))
        for side in ("nan", "inf", "-inf"):
            with pytest.raises(InvariantViolation):
                Instance(float(side), 4.0, (RingType(0.5, 0.7, 1),))
            with pytest.raises(InvariantViolation):
                Instance(4.0, float(side), (RingType(0.5, 0.7, 1),))
            with pytest.raises(InvariantViolation):
                parse_instance(f"{side} 4\n0.5 0.7 1\n")

    def test_needs_types(self):
        with pytest.raises(InvariantViolation):
            Instance(4.0, 4.0, ())

    def test_needs_sorted_types(self):
        with pytest.raises(InvariantViolation):
            make_instance(4, 4, [(1.0, 1.2, 1), (0.5, 0.7, 1)])

    def test_outer_radius_within_min_side(self):
        with pytest.raises(InvariantViolation):
            make_instance(4, 10, [(1.0, 4.5, 1)])
        # R = 3 is below min(W, H) = 4 but a ring of diameter 6 fits nowhere
        with pytest.raises(InvariantViolation, match="outer diameter 6.0"):
            make_instance(4, 4, [(0.0, 3.0, 1)])
        assert make_instance(4, 4, [(0.0, 2.0, 1)]).types[0].outer_radius == 2.0

    def test_needs_at_least_one_ring(self):
        with pytest.raises(InvariantViolation):
            make_instance(4, 4, [(0.5, 0.7, 0)])


class TestParseInstance:
    def test_basic(self):
        inst = parse_instance("10 10\n0.5 0.7 2\n1.0 1.2 1\n1.4 1.8 1\n")
        assert inst.width == 10 and inst.height == 10
        assert inst.type_count == 3
        assert inst.demands == (2, 1, 1)

    def test_unsorted_input_is_reordered(self):
        inst = parse_instance("4 4\n1.4 1.8 1\n0.5 0.7 2\n1.0 1.2 1\n")
        assert [t.outer_radius for t in inst.types] == [0.7, 1.2, 1.8]
        assert inst.source_order == (1, 2, 0)

    def test_inverted_radii_reports_type_index(self):
        with pytest.raises(InvariantViolation, match="type 1"):
            parse_instance("4 4\n0.9 0.7 1\n")

    def test_comments_and_blank_lines_ignored(self):
        inst = parse_instance("# hi\n\n4 4\n# mid\n0.5 0.7 2\n")
        assert inst.type_count == 1

    def test_bad_token_reports_line_and_column(self):
        with pytest.raises(MalformedInput, match="line 2, column 2"):
            parse_instance("4 4\n0.5 abc 2\n")

    def test_bad_header(self):
        with pytest.raises(MalformedInput, match="line 1"):
            parse_instance("4 4 9\n0.5 0.7 1\n")

    def test_empty_input(self):
        with pytest.raises(MalformedInput):
            parse_instance("  \n# only comments\n")

    def test_no_type_lines(self):
        with pytest.raises(MalformedInput):
            parse_instance("4 4\n")


class TestWriteInstance:
    def test_tiny3_exact_text(self, tiny3):
        assert write_instance(tiny3) == TINY3_TEXT

    def test_round_trip_identity(self, tiny3):
        assert parse_instance(write_instance(tiny3)) == tiny3

    def test_demand_zero_type_retained(self):
        inst = make_instance(4, 4, [(0.5, 0.7, 0), (1.0, 1.2, 1)])
        again = parse_instance(write_instance(inst))
        assert again.demands == (0, 1)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_on_generated(self, seed):
        inst = generate_instance(3, 2.0, 4.0, 2.0, seed)
        assert parse_instance(write_instance(inst)) == inst


class TestGenerateInstance:
    def test_ratio_identities(self):
        inst = generate_instance(3, 2.0, 4.0, 5.0, seed=1)
        outer = [t.outer_radius for t in inst.types]
        inner = [t.inner_radius for t in inst.types]
        assert max(outer) == pytest.approx(2.5, abs=1e-12)
        assert max(inner) / min(outer) == pytest.approx(2.0, abs=1e-9)
        assert max(inst.width, inst.height) / max(outer) == pytest.approx(4.0, abs=1e-9)

    def test_single_type_alpha_one(self):
        inst = generate_instance(1, 1.0, 2.0, 1.0, seed=0)
        (t,) = inst.types
        assert t.outer_radius == pytest.approx(5.0)
        assert t.inner_radius == pytest.approx(5.0)
        # interval [ceil(1.019), floor(1.528)] = [2,1] is empty: clamp to 1
        assert t.demand == 1

    def test_single_type_alpha_above_one_impossible(self):
        with pytest.raises(InfeasibleParameters):
            generate_instance(1, 2.0, 2.0, 1.0, seed=0)

    def test_deterministic(self):
        a = generate_instance(4, 3.0, 5.0, 2.0, seed=42)
        b = generate_instance(4, 3.0, 5.0, 2.0, seed=42)
        assert a == b and a.demands == b.demands

    def test_seed_changes_output(self):
        a = generate_instance(4, 3.0, 5.0, 2.0, seed=1)
        b = generate_instance(4, 3.0, 5.0, 2.0, seed=2)
        assert a != b

    @given(
        st.integers(2, 6),
        st.floats(1.0, 8.0),
        st.floats(2.0, 10.0),
        st.floats(1.0, 6.0),
        st.integers(0, 10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_identities_hold_generally(self, T, alpha, beta, gamma, seed):
        inst = generate_instance(T, alpha, beta, gamma, seed)
        outer = [t.outer_radius for t in inst.types]
        inner = [t.inner_radius for t in inst.types]
        assert max(inner) / min(outer) == pytest.approx(alpha, rel=1e-9)
        assert 10.0 / max(outer) == pytest.approx(beta, rel=1e-9)
        assert all(d >= 1 for d in inst.demands)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_instance(0, 2.0, 4.0, 1.0, 0)
        with pytest.raises(ValueError):
            generate_instance(3, 0.5, 4.0, 1.0, 0)
        with pytest.raises(ValueError):
            generate_instance(3, 2.0, 1.5, 1.0, 0)
        with pytest.raises(ValueError):
            generate_instance(3, 2.0, 4.0, 0.5, 0)


def _ring(t, rect, parent, x, y):
    return PlacedRing(t, rect, parent, x, y)


class TestValidateSolution:
    def test_single_ring_tight_corner(self):
        inst = make_instance(4, 4, [(0.5, 1.0, 1)])
        sol = PlacedSolution(1, (_ring(0, 0, None, 1.0, 1.0),))
        report = validate_solution(inst, sol)
        assert report.feasible and not report.violations

    def test_overlap_magnitude(self):
        inst = make_instance(4, 4, [(0.5, 1.0, 2)])
        sol = PlacedSolution(
            1, (_ring(0, 0, None, 1.0, 1.0), _ring(0, 0, None, 2.5, 1.0))
        )
        report = validate_solution(inst, sol)
        assert not report.feasible
        (v,) = report.violations
        assert v.kind == "Overlap" and v.magnitude == pytest.approx(0.5)

    def test_tight_nesting_feasible(self):
        inst = make_instance(4, 4, [(0.0, 0.7, 1), (0.7, 1.2, 1)])
        sol = PlacedSolution(
            1, (_ring(1, 0, None, 2.0, 2.0), _ring(0, 0, 0, 2.0, 2.0))
        )
        assert validate_solution(inst, sol).feasible

    def test_nesting_breach(self):
        inst = make_instance(4, 4, [(0.0, 0.7, 1), (0.7, 1.2, 1)])
        sol = PlacedSolution(
            1, (_ring(1, 0, None, 2.0, 2.0), _ring(0, 0, 0, 2.5, 2.0))
        )
        report = validate_solution(inst, sol)
        kinds = {v.kind for v in report.violations}
        assert kinds == {"ContainmentBreach"}

    def test_boundary_kinds(self):
        inst = make_instance(4, 4, [(0.5, 1.0, 1)])
        sol = PlacedSolution(1, (_ring(0, 0, None, 0.5, 2.0),))
        report = validate_solution(inst, sol)
        assert [v.kind for v in report.violations] == ["BoundaryX"]
        sol = PlacedSolution(1, (_ring(0, 0, None, 2.0, 3.8),))
        report = validate_solution(inst, sol)
        assert [v.kind for v in report.violations] == ["BoundaryY"]

    def test_demand_shortfall(self):
        inst = make_instance(4, 4, [(0.5, 1.0, 2)])
        sol = PlacedSolution(1, (_ring(0, 0, None, 1.0, 1.0),))
        report = validate_solution(inst, sol)
        assert any(
            v.kind == "DemandShortfall" and v.rings == (0,) and v.magnitude == 1
            for v in report.violations
        )

    def test_structural_bad_parent(self):
        inst = make_instance(4, 4, [(0.5, 1.0, 1)])
        sol = PlacedSolution(1, (_ring(0, 0, 5, 1.0, 1.0),))
        report = validate_solution(inst, sol)
        assert any(
            v.kind == "ContainmentBreach" and math.isinf(v.magnitude)
            for v in report.violations
        )

    def test_structural_parent_cycle(self):
        inst = make_instance(4, 4, [(0.5, 1.0, 2)])
        sol = PlacedSolution(
            1, (_ring(0, 0, 1, 1.0, 1.0), _ring(0, 0, 0, 3.0, 3.0))
        )
        report = validate_solution(inst, sol)
        assert not report.feasible
        assert all(v.kind == "ContainmentBreach" for v in report.violations)

    def test_parent_in_other_rectangle_is_structural(self):
        inst = make_instance(4, 4, [(0.0, 0.7, 1), (0.7, 1.2, 1)])
        sol = PlacedSolution(
            2, (_ring(1, 0, None, 2.0, 2.0), _ring(0, 1, 0, 2.0, 2.0))
        )
        report = validate_solution(inst, sol)
        assert any(math.isinf(v.magnitude) for v in report.violations)

    def test_rotation_and_reflection_invariance(self):
        inst = make_instance(5, 4, [(0.5, 1.0, 2), (1.1, 1.5, 1)])
        base = PlacedSolution(
            1,
            (
                _ring(1, 0, None, 1.5, 2.0),
                _ring(0, 0, None, 4.0, 1.0),
                _ring(0, 0, None, 4.0, 3.0),
            ),
        )
        assert validate_solution(inst, base).feasible
        w, h = inst.width, inst.height
        rotated = PlacedSolution(
            1,
            tuple(
                PlacedRing(r.type_index, r.rectangle, r.parent, w - r.center_x, h - r.center_y)
                for r in base.rings
            ),
        )
        mirrored = PlacedSolution(
            1,
            tuple(
                PlacedRing(r.type_index, r.rectangle, r.parent, w - r.center_x, r.center_y)
                for r in base.rings
            ),
        )
        assert validate_solution(inst, rotated).feasible
        assert validate_solution(inst, mirrored).feasible

    def test_different_rectangles_never_interact(self):
        inst = make_instance(4, 4, [(0.5, 1.0, 2)])
        sol = PlacedSolution(
            2, (_ring(0, 0, None, 1.0, 1.0), _ring(0, 1, None, 1.0, 1.0))
        )
        assert validate_solution(inst, sol).feasible


class TestVolumeLowerBound:
    def test_tiny3(self, tiny3):
        assert volume_lower_bound(tiny3) == 1

    def test_zero_material_clamps_to_one(self):
        inst = make_instance(4, 4, [(0.7, 0.7, 3)])
        assert volume_lower_bound(inst) == 1

    def test_exact_area_is_one(self):
        inst = make_instance(3.5 * math.pi, 2.0, [(0.0, 1.0, 7)])
        assert volume_lower_bound(inst) == 1

    def test_scales_with_demand(self):
        inst = make_instance(4, 4, [(0.0, 1.0, 40)])
        assert volume_lower_bound(inst) == math.ceil(40 * math.pi / 16 - 1e-9)


class TestSolutionRoundTrip:
    def test_write_then_parse(self):
        sol = PlacedSolution(
            2,
            (
                _ring(2, 0, None, 1.8, 1.8),
                _ring(0, 0, 0, 1.8, 1.8),
                _ring(1, 1, None, 1.2, 1.2),
            ),
        )
        text = write_solution(sol)
        assert text.startswith("rectangles 2\nrings 3\n")
        assert parse_solution(text) == sol

    def test_parse_from_report_block(self):
        text = (
            "status Optimal\nsolution\nrectangles 1\nrings 1\n0 0 -1 1 1\nend\ntrailer\n"
        )
        sol = parse_solution(text)
        assert sol.rectangle_count == 1 and len(sol.rings) == 1
        assert sol.rings[0].parent is None

    def test_declared_count_mismatch(self):
        with pytest.raises(MalformedInput):
            parse_solution("rectangles 1\nrings 2\n0 0 -1 1 1\n")

    def test_twelve_significant_digits(self):
        sol = PlacedSolution(1, (_ring(0, 0, None, 1.23456789012345, 2.0),))
        assert "1.23456789012" in write_solution(sol)
