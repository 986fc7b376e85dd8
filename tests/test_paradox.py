import math

import numpy as np
import pytest

from casimir_kit.errors import DomainError
from casimir_kit.paradox import (
    ScenarioClassification,
    ScenarioResult,
    cosmological_crossover,
    crossover_by_bisection,
    pressure_difference,
    situation_one,
    situation_two,
)
from casimir_kit.units import codata_constants, natural_units

FORCE_1UM = -1.3001257724477536e-3  # same frozen anchor as in test_core
RHO_COSMOLOGICAL = 5.26e-10  # J/m^3, free-space vacuum energy upper estimate
CROSSOVER_1UM = 3.012795070841671e-5  # closed-form fourth root, desk-checked


class TestPressureDifference:
    def test_si_micron(self):
        assert pressure_difference(1e-6) == pytest.approx(FORCE_1UM, rel=1e-15)

    def test_natural_unit_gap(self):
        assert pressure_difference(1.0, natural_units()) == pytest.approx(
            -math.pi ** 2 / 240.0, rel=1e-15)

    def test_halving_multiplies_by_sixteen(self):
        full = pressure_difference(1e-6)
        half = pressure_difference(5e-7)
        assert half / full == pytest.approx(16.0, rel=1e-12)

    def test_nonpositive_gap_rejected(self):
        with pytest.raises(DomainError):
            pressure_difference(0.0)
        with pytest.raises(DomainError):
            pressure_difference(-1e-6)


class TestSituationOne:
    def test_zero_inside_pressure(self):
        result = situation_one(1e-6, 0.0)
        assert result.P_i == 0.0
        assert result.P_o == pytest.approx(-FORCE_1UM, rel=1e-15)
        assert result.P_o == pytest.approx(1.3002e-3, rel=1e-3)
        assert result.classification is ScenarioClassification.DIVERGING_OUTSIDE
        assert "without bound" in result.note

    def test_outside_exceeds_inside(self):
        for L in (1e-6, 3e-7, 1e-8):
            for P_i in (0.0, 1e-9, 1.0):
                result = situation_one(L, P_i)
                assert result.P_o > result.P_i

    def test_halving_gap_at_zero_pressure(self):
        full = situation_one(1e-6, 0.0).P_o
        half = situation_one(5e-7, 0.0).P_o
        assert half / full == pytest.approx(16.0, rel=1e-12)

    def test_difference_matches_closed_form(self):
        for P_i in (0.0, 1e-6, 6.5e-4):
            result = situation_one(1e-6, P_i)
            assert result.difference == pressure_difference(1e-6)
            assert result.P_i - result.P_o == pytest.approx(result.difference, rel=1e-12)

    def test_negative_inside_pressure_rejected(self):
        with pytest.raises(DomainError, match="Pi must be finite and nonnegative"):
            situation_one(1e-6, -1.0)

    @pytest.mark.parametrize("P_i", [math.nan, math.inf, -math.inf])
    def test_non_finite_inside_pressure_rejected(self, P_i):
        with pytest.raises(DomainError, match="Pi must be finite and nonnegative"):
            situation_one(1e-6, P_i)


class TestSituationTwo:
    def test_outside_pressure_exactly_zero(self):
        rng = np.random.default_rng(1234)
        for L in 10.0 ** rng.uniform(-9.0, -3.0, size=50):
            result = situation_two(float(L))
            assert result.P_o == 0.0
            assert result.P_i < 0.0

    def test_si_micron(self):
        result = situation_two(1e-6)
        assert result.P_i == pytest.approx(FORCE_1UM, rel=1e-15)
        assert result.classification is ScenarioClassification.BALANCED_ZERO_OUTSIDE

    def test_difference_matches_closed_form(self):
        result = situation_two(1e-6)
        assert result.difference == pressure_difference(1e-6)
        assert result.P_i - result.P_o == pytest.approx(result.difference, rel=1e-15)

    def test_nonpositive_gap_rejected(self):
        with pytest.raises(DomainError):
            situation_two(0.0)

    def test_result_contract_enforced(self):
        with pytest.raises(DomainError):
            ScenarioResult(P_i=-1.0, P_o=1e-20, difference=-1.0,
                           classification=ScenarioClassification.BALANCED_ZERO_OUTSIDE,
                           note="")
        with pytest.raises(DomainError):
            ScenarioResult(P_i=1.0, P_o=0.0, difference=1.0,
                           classification=ScenarioClassification.BALANCED_ZERO_OUTSIDE,
                           note="")


class TestCosmologicalCrossover:
    def test_reference_density(self):
        gap = cosmological_crossover(RHO_COSMOLOGICAL)
        assert gap == pytest.approx(CROSSOVER_1UM, rel=1e-12)
        assert gap == pytest.approx(3.0e-5, rel=5e-3)

    def test_bisection_route_agrees(self):
        closed = cosmological_crossover(RHO_COSMOLOGICAL)
        bisected = crossover_by_bisection(RHO_COSMOLOGICAL)
        assert abs(closed - bisected) / closed <= 1e-10

    def test_fourth_root_scaling(self):
        base = cosmological_crossover(RHO_COSMOLOGICAL)
        quadrupled = cosmological_crossover(4.0 * RHO_COSMOLOGICAL)
        assert quadrupled / base == pytest.approx(4.0 ** -0.25, rel=1e-12)

    @pytest.mark.parametrize("rho", [0.0, -1e-10])
    def test_nonpositive_density_rejected(self, rho):
        with pytest.raises(DomainError):
            cosmological_crossover(rho)
        with pytest.raises(DomainError):
            crossover_by_bisection(rho)

    def test_bisection_far_scales(self):
        # The expanding bracket must cope with densities far from the
        # cosmological estimate on both sides.
        for rho in (1e-20, 1e5):
            closed = cosmological_crossover(rho)
            assert crossover_by_bisection(rho) == pytest.approx(closed, rel=1e-10)

    @pytest.mark.parametrize("constants", [codata_constants(), natural_units()],
                             ids=["si", "natural"])
    @pytest.mark.parametrize("rho", [1e-300, 1e250])
    def test_density_range_ends_accepted(self, rho, constants):
        closed = cosmological_crossover(rho, constants)
        bisected = crossover_by_bisection(rho, constants)
        assert math.isfinite(closed) and closed > 0.0
        assert abs(closed - bisected) / closed <= 5e-13

    @pytest.mark.parametrize("constants", [codata_constants(), natural_units()],
                             ids=["si", "natural"])
    @pytest.mark.parametrize("rho", [9.9e-301, 1.01e250, 1e-310, 1e-320, 1e300,
                                     1e306, math.inf, math.nan])
    def test_density_outside_range_rejected(self, rho, constants):
        with pytest.raises(DomainError):
            cosmological_crossover(rho, constants)
        with pytest.raises(DomainError):
            crossover_by_bisection(rho, constants)
