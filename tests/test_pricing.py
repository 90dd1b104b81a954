import itertools
import math

import pytest

from ringpack.geometry import (
    FEASIBLE,
    check_placements,
    expand_multiset,
    verify_exact,
)
from ringpack.patterns import counts_multiset, rect_caps, rect_container
from ringpack.pricing import (
    BoundOnly,
    DegenerateDenominator,
    ImprovingColumn,
    NoImprovement,
    farley_bound,
    price_rectangular,
    reduced_cost,
)
from ringpack.patterns import RectangularPattern, SolveConfig

from conftest import make_instance


def test_reduced_cost_worked_example():
    p = RectangularPattern((9, 0, 1))
    assert reduced_cost(p, (0.1, 0.0, 0.2)) == pytest.approx(-0.1, abs=1e-12)


def test_reduced_cost_zero_pattern():
    assert reduced_cost(RectangularPattern((0, 0, 0)), (0.4, 0.4, 0.4)) == 1.0


def test_reduced_cost_zero_duals():
    for counts in [(1, 0, 0), (5, 2, 1), (0, 0, 0)]:
        assert reduced_cost(RectangularPattern(counts), (0.0, 0.0, 0.0)) == 1.0


def test_farley_unit_cases():
    assert farley_bound(10.0, -1.0) == 5
    assert farley_bound(10.0, 0.0) == 10
    assert farley_bound(7.2, -0.5) == 5


def test_farley_degenerate_denominator():
    with pytest.raises(DegenerateDenominator):
        farley_bound(10.0, 1.0)
    with pytest.raises(DegenerateDenominator):
        farley_bound(10.0, 2.0)


def test_farley_monotone_in_z():
    zs = [-3.0, -2.0, -1.5, -1.0, -0.5, -0.25, 0.0]
    for nu in (0.0, 1.0, 4.2, 10.0):
        bounds = [farley_bound(nu, z) for z in zs]
        assert bounds == sorted(bounds)


def _direct_rect_vectors(instance):
    """Exhaustive feasible direct-placement count vectors within the caps."""
    caps = rect_caps(instance)
    container = rect_container(instance)
    out = []
    for counts in itertools.product(*(range(c + 1) for c in caps)):
        if not any(counts):
            out.append(counts)
            continue
        if verify_exact(container, counts_multiset(instance, counts)).status == FEASIBLE:
            out.append(counts)
    return out


def test_tiny3_direct_vectors_frozen(tiny3):
    assert sorted(_direct_rect_vectors(tiny3)) == [
        (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0),
        (1, 1, 0), (2, 0, 0), (2, 1, 0),
    ]


def test_exact_phase_matches_exhaustive_maximum(tiny3):
    vectors = _direct_rect_vectors(tiny3)
    lams = [
        (1.0, 1.0, 1.0),
        (0.6, 0.3, 0.9),
        (0.25, 0.5, 1.0),
        (0.0, 0.0, 1.2),
        (0.5, 0.0, 0.0),
        (0.1, 0.0, 0.2),
    ]
    for lam in lams:
        best = max(sum(l * c for l, c in zip(lam, v)) for v in vectors)
        result = price_rectangular(tiny3, lam)
        if best > 1.0 + 1e-9:
            assert isinstance(result, ImprovingColumn), lam
            got = sum(l * c for l, c in zip(lam, result.pattern.counts))
            assert got == pytest.approx(best, abs=1e-9)
            assert result.reduced_cost == pytest.approx(1.0 - best, abs=1e-9)
        else:
            assert isinstance(result, NoImprovement), lam
            assert result.proof


def test_improving_column_witness_is_sound(tiny3):
    result = price_rectangular(tiny3, (1.0, 1.0, 1.0))
    assert isinstance(result, ImprovingColumn)
    assert result.pattern.counts == (2, 1, 0)
    radii = expand_multiset(counts_multiset(tiny3, result.pattern.counts))
    assert check_placements(rect_container(tiny3), radii, result.witness)


def test_pool_respects_demand_caps(tiny3):
    # type-0 demand is 2; even an extreme dual must not price a third copy
    result = price_rectangular(tiny3, (5.0, 0.0, 0.0))
    assert isinstance(result, ImprovingColumn)
    assert result.pattern.counts[0] <= 2


def test_zero_duals_prove_no_improvement(tiny3):
    result = price_rectangular(tiny3, (0.0, 0.0, 0.0))
    assert isinstance(result, NoImprovement)
    assert result.proof


def test_zero_budget_returns_root_area_bound(tiny3):
    lam = (0.2, 0.2, 0.2)
    result = price_rectangular(tiny3, lam, SolveConfig(pricing_limit=0.0))
    assert isinstance(result, BoundOnly)
    density = max(
        l / (math.pi * t.outer_radius**2) for l, t in zip(lam, tiny3.types)
    )
    root_bound = tiny3.width * tiny3.height * density
    assert result.z_pricing == pytest.approx(1.0 - root_bound, abs=1e-9)


def test_small_duals_zero_budget_still_proves(tiny3):
    # with tiny duals even the root area bound is below 1: proof for free
    starved = SolveConfig(pricing_limit=0.0)
    result = price_rectangular(tiny3, (0.05, 0.05, 0.05), starved)
    assert isinstance(result, NoImprovement)
    assert result.proof


def test_bound_only_is_valid_lower_bound(tiny3):
    # z_pricing must never exceed 1 - (true pricing maximum); duals low
    # enough that the greedy phase cannot hand back a column early
    vectors = _direct_rect_vectors(tiny3)
    lam = (0.2, 0.2, 0.2)
    best = max(sum(l * c for l, c in zip(lam, v)) for v in vectors)
    result = price_rectangular(tiny3, lam, SolveConfig(pricing_limit=0.0))
    assert isinstance(result, BoundOnly)
    assert result.z_pricing <= 1.0 - best + 1e-9


def test_single_type_instance_pricing():
    inst = make_instance(4, 4, [(0.4, 1.1, 5)])
    result = price_rectangular(inst, (0.6,))
    assert isinstance(result, ImprovingColumn)
    assert result.pattern.counts == (2,)
    assert result.reduced_cost == pytest.approx(1.0 - 1.2, abs=1e-9)
    assert isinstance(price_rectangular(inst, (0.4,)), NoImprovement)
