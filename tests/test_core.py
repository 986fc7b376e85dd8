import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from casimir_kit import core
from casimir_kit.core import (
    DEFAULT_SERIES_TERMS,
    MAX_ROWS,
    EnergyDensityResult,
    PlateGap,
    SignConvention,
    convergence_report,
    energy_per_area_closed,
    energy_per_area_series,
    force_per_area,
    mode_state,
    per_state_energy_flux,
    traversal_time,
)
from casimir_kit.errors import DomainError, ImplausibleGapWarning
from casimir_kit.series import MAX_TERMS, tail_bound
from casimir_kit.units import codata_constants, natural_units

NATURAL = natural_units()
CODATA = codata_constants()

# Frozen SI anchors, recomputed from hbar = 1.054571817e-34 J s and
# c = 299792458 m/s by independent desk evaluation.
FORCE_1UM = -1.3001257724477536e-3
ENERGY_1UM = -4.333752574825845e-10
FLUX_1UM = 1.580763385779781e-20
TRAVERSAL_1UM = 3.3356409519815205e-15


def natural_gap(a=1.0):
    return PlateGap(a, NATURAL)


def si_gap(a=1e-6):
    return PlateGap(a, CODATA)


class TestPlateGap:
    @pytest.mark.parametrize("a", [0.0, -1e-6])
    def test_nonpositive_gap_rejected(self, a):
        with pytest.raises(DomainError):
            PlateGap(a, NATURAL)

    @pytest.mark.parametrize("a", [1e-13, 2.0])
    def test_si_hard_range(self, a):
        with pytest.raises(DomainError):
            PlateGap(a, CODATA)

    @pytest.mark.parametrize("a", [1e-10, 0.5])
    def test_si_implausible_gap_warns(self, a):
        with pytest.warns(ImplausibleGapWarning):
            PlateGap(a, CODATA)

    @pytest.mark.parametrize("a", [1e-9, 1e-6, 1e-3])
    def test_si_plausible_gap_is_silent(self, a):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PlateGap(a, CODATA)

    def test_natural_units_skip_range_policy(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            PlateGap(2.0 * math.pi, NATURAL)
            PlateGap(1e5, NATURAL)

    @pytest.mark.parametrize("a", [math.inf, math.nan])
    @pytest.mark.parametrize("constants", [CODATA, NATURAL],
                             ids=["codata", "natural"])
    def test_non_finite_gap_rejected(self, a, constants):
        with pytest.raises(DomainError):
            PlateGap(a, constants)

    @pytest.mark.parametrize("a", [9.9e-31, 1.01e30, 1e-200, 1e200])
    def test_natural_hard_range(self, a):
        with pytest.raises(DomainError):
            PlateGap(a, NATURAL)

    @pytest.mark.parametrize("a", [1e-30, 1e30])
    def test_natural_range_ends_give_finite_nonzero_values(self, a):
        gap = natural_gap(a)
        values = [per_state_energy_flux(gap), force_per_area(gap),
                  traversal_time(gap),
                  energy_per_area_closed(gap),
                  energy_per_area_closed(gap) * tail_bound(4, MAX_TERMS).upper]
        for n in (1, MAX_ROWS):
            state = mode_state(n, gap)
            values += [state.k_n, state.p_n, state.delta_x_xy, state.n_z,
                       state.area_n]
        result = energy_per_area_series(gap, 10)
        values += [result.series_value, result.closed_form_value,
                   result.truncation_bound]
        assert all(math.isfinite(v) and v != 0.0 for v in values)


class TestTraversalTime:
    def test_natural_unit_gap(self):
        assert traversal_time(natural_gap(1.0)) == 1.0

    def test_si_micron(self):
        assert traversal_time(si_gap()) == pytest.approx(TRAVERSAL_1UM, rel=1e-15)

    def test_linear_in_gap(self):
        assert traversal_time(natural_gap(2.0)) == 2.0 * traversal_time(natural_gap(1.0))


class TestModeState:
    def test_first_mode_unit_gap(self):
        gap = natural_gap(1.0)
        state = mode_state(1, gap)
        assert state.k_n == pytest.approx(math.pi, rel=1e-15)
        assert state.p_n == pytest.approx(math.pi, rel=1e-15)
        assert state.delta_x_xy == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
        assert state.n_z == 1.0
        assert state.area_n == pytest.approx(4.0 * math.pi ** 2, rel=1e-15)
        assert traversal_time(gap) == 1.0

    def test_second_mode_area(self):
        state = mode_state(2, natural_gap(1.0))
        assert state.area_n == pytest.approx(64.0 * math.pi ** 2, rel=1e-15)
        assert state.n_z == 0.5

    def test_gap_two_pi_makes_unit_spread(self):
        state = mode_state(1, natural_gap(2.0 * math.pi))
        assert state.delta_x_xy == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("n", [0, -1, 1.5, True])
    def test_bad_mode_index_rejected(self, n):
        with pytest.raises(DomainError):
            mode_state(n, natural_gap(1.0))

    @pytest.mark.parametrize("n", [MAX_ROWS + 1, 10 ** 80, 10 ** 400, 10 ** 5000],
                             ids=["max_rows+1", "1e80", "1e400", "1e5000"])
    def test_mode_index_above_max_rows_rejected(self, n):
        # Unbounded, float(n) ** 4 overflows past n ~ 1e77 and int * float
        # past 1e308; 10**5000 has too many digits for str().
        with pytest.raises(DomainError, match="at most"):
            mode_state(n, PlateGap(1e-6, CODATA))

    def test_huge_negative_mode_index_rejected(self):
        with pytest.raises(DomainError, match="must be a positive integer"):
            mode_state(-10 ** 5000, PlateGap(1e-6, CODATA))

    @pytest.mark.parametrize("constants, ends", [
        (CODATA, core._GAP_HARD_RANGE), (NATURAL, core._NATURAL_GAP_RANGE),
    ], ids=["codata", "natural"])
    def test_max_rows_finite_nonzero_at_range_ends(self, constants, ends):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ImplausibleGapWarning)
            states = [mode_state(MAX_ROWS, PlateGap(a, constants)) for a in ends]
        for state in states:
            assert state.n == MAX_ROWS
            assert all(math.isfinite(v) and v != 0.0 for v in state[1:])

    @given(st.integers(min_value=1, max_value=10 ** 6),
           st.floats(min_value=1e-9, max_value=1e-3))
    @settings(max_examples=300)
    def test_uncertainty_product_saturates(self, n, a):
        # delta_x * p = hbar/2 to 1e-14 relative across the full mode and
        # gap ranges.
        state = mode_state(n, PlateGap(a, CODATA))
        product = state.delta_x_xy * state.p_n
        assert product == pytest.approx(CODATA.hbar / 2.0, rel=1e-14)

    @given(st.integers(min_value=1, max_value=10 ** 6),
           st.floats(min_value=1e-9, max_value=1e-3))
    @settings(max_examples=300)
    def test_area_chain_equivalence(self, n, a):
        # ((a / (delta_x * n_z)) * a)^2 recovers the 4 n^4 pi^2 a^2 closed
        # form to 1e-12 relative.
        state = mode_state(n, PlateGap(a, CODATA))
        chained = ((a / (state.delta_x_xy * state.n_z)) * a) ** 2
        assert chained == pytest.approx(state.area_n, rel=1e-12)


class TestPerStateEnergyFlux:
    def test_natural_values(self):
        assert per_state_energy_flux(natural_gap(1.0)) == 0.5
        assert per_state_energy_flux(natural_gap(2.0)) == 0.25

    def test_si_micron(self):
        assert per_state_energy_flux(si_gap()) == pytest.approx(FLUX_1UM, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 7, 100, 10 ** 4])
    def test_termwise_identity(self, n):
        # flux / area_n equals the series coefficient times n^-4.
        gap = si_gap()
        state = mode_state(n, gap)
        termwise = per_state_energy_flux(gap) / state.area_n
        coefficient = CODATA.hbar * CODATA.c / (8.0 * math.pi ** 2 * gap.a ** 3)
        assert termwise == pytest.approx(coefficient * float(n) ** -4, rel=1e-13)


class TestEnergyPerArea:
    def test_first_term_natural(self):
        result = energy_per_area_series(natural_gap(1.0), 1, SignConvention.MAGNITUDE)
        assert result.series_value == pytest.approx(1.0 / (8.0 * math.pi ** 2), rel=1e-15)
        assert result.series_value == pytest.approx(0.0126651, abs=1e-7)

    def test_closed_form_natural(self):
        value = energy_per_area_closed(natural_gap(1.0), SignConvention.MAGNITUDE)
        assert value == pytest.approx(math.pi ** 2 / 720.0, rel=1e-15)
        assert value == pytest.approx(0.01370778, abs=1e-8)

    def test_hundred_terms_bracketed(self):
        gap = natural_gap(1.0)
        result = energy_per_area_series(gap, 100, SignConvention.MAGNITUDE)
        coefficient = 1.0 / (8.0 * math.pi ** 2)
        gap_to_closed = result.closed_form_value - result.series_value
        assert coefficient * tail_bound(4, 100).lower <= gap_to_closed
        assert gap_to_closed <= coefficient * tail_bound(4, 100).upper
        assert gap_to_closed <= result.truncation_bound

    def test_si_micron_attractive(self):
        result = energy_per_area_series(si_gap(), 1000, SignConvention.ATTRACTIVE_NEGATIVE)
        assert result.closed_form_value == pytest.approx(ENERGY_1UM, rel=1e-12)
        assert result.series_value == pytest.approx(ENERGY_1UM, abs=result.truncation_bound)
        assert result.series_value < 0.0

    def test_closed_form_si_micron(self):
        value = energy_per_area_closed(si_gap(), SignConvention.ATTRACTIVE_NEGATIVE)
        assert value == pytest.approx(ENERGY_1UM, rel=1e-15)

    def test_series_closed_routes_agree(self):
        # closed_form_value goes through the series coefficient; it must
        # match the stand-alone closed form to a few ulps.
        result = energy_per_area_series(si_gap(), 10, SignConvention.MAGNITUDE)
        standalone = energy_per_area_closed(si_gap(), SignConvention.MAGNITUDE)
        assert result.closed_form_value == pytest.approx(standalone, rel=1e-14)

    @pytest.mark.parametrize("scale", [2.0, 10.0])
    def test_inverse_cube_scaling(self, scale):
        base = energy_per_area_closed(natural_gap(1.0))
        scaled = energy_per_area_closed(natural_gap(scale))
        assert scaled / base == pytest.approx(scale ** -3, rel=1e-12)

    def test_sign_conventions_share_magnitude(self):
        gap = si_gap()
        negative = energy_per_area_series(gap, 50, SignConvention.ATTRACTIVE_NEGATIVE)
        magnitude = energy_per_area_series(gap, 50, SignConvention.MAGNITUDE)
        assert -negative.series_value == magnitude.series_value
        assert -negative.closed_form_value == magnitude.closed_form_value
        assert negative.series_value <= 0.0
        assert magnitude.series_value >= 0.0

    def test_default_truncation(self):
        result = energy_per_area_series(natural_gap(1.0))
        assert result.terms_used == DEFAULT_SERIES_TERMS == 1000

    def test_zero_terms_rejected(self):
        with pytest.raises(DomainError):
            energy_per_area_series(natural_gap(1.0), 0)

    def test_result_invariants_enforced(self):
        with pytest.raises(DomainError):
            EnergyDensityResult(series_value=0.014, closed_form_value=0.0137,
                                terms_used=10, truncation_bound=1e-3,
                                sign_convention=SignConvention.MAGNITUDE)
        with pytest.raises(DomainError):
            EnergyDensityResult(series_value=-0.0137, closed_form_value=-0.0137,
                                terms_used=10, truncation_bound=1e-3,
                                sign_convention=SignConvention.MAGNITUDE)
        with pytest.raises(DomainError):
            EnergyDensityResult(series_value=0.012, closed_form_value=0.0137,
                                terms_used=10, truncation_bound=1e-6,
                                sign_convention=SignConvention.MAGNITUDE)


class TestForcePerArea:
    def test_si_micron(self):
        value = force_per_area(si_gap())
        assert value == pytest.approx(FORCE_1UM, rel=1e-15)
        assert value == pytest.approx(-1.300e-3, rel=5e-3)

    def test_natural_unit_gap(self):
        assert force_per_area(natural_gap(1.0)) == pytest.approx(
            -math.pi ** 2 / 240.0, rel=1e-15)
        assert force_per_area(natural_gap(1.0)) == pytest.approx(-0.0411234, abs=1e-7)

    def test_three_energy_over_gap_identity(self):
        gap = si_gap()
        force = force_per_area(gap)
        assert force == pytest.approx(
            -3.0 * abs(energy_per_area_closed(gap)) / gap.a, rel=1e-12)

    @pytest.mark.parametrize("scale", [2.0, 10.0])
    def test_inverse_fourth_scaling(self, scale):
        base = force_per_area(natural_gap(1.0))
        scaled = force_per_area(natural_gap(scale))
        assert scaled / base == pytest.approx(scale ** -4, rel=1e-12)

    @pytest.mark.parametrize("gap", [si_gap(), natural_gap(2.5)])
    def test_sign_conventions_share_magnitude(self, gap):
        magnitude = force_per_area(gap, SignConvention.MAGNITUDE)
        assert magnitude > 0.0
        assert force_per_area(gap) == -magnitude
        assert force_per_area(gap, SignConvention.ATTRACTIVE_NEGATIVE) == -magnitude

    def test_matches_energy_derivative(self):
        # Central finite difference of the closed-form energy per area;
        # force = -dE/da with the attractive sign convention.
        a = 1e-6
        h = 1e-4 * a
        e_plus = energy_per_area_closed(si_gap(a + h))
        e_minus = energy_per_area_closed(si_gap(a - h))
        derivative = (e_plus - e_minus) / (2.0 * h)
        assert force_per_area(si_gap(a)) == pytest.approx(-derivative, rel=1e-6)


class TestConvergenceReport:
    def test_single_row_matches_series(self):
        gap = natural_gap(1.0)
        row = convergence_report(gap, [1], SignConvention.MAGNITUDE)[0]
        single = energy_per_area_series(gap, 1, SignConvention.MAGNITUDE)
        assert row.N == 1
        assert row.series_value == single.series_value
        assert row.truncation_bound == single.truncation_bound
        assert row.closed_form_value == single.closed_form_value

    def test_bounds_shrink_by_cube_per_decade(self):
        rows = convergence_report(si_gap(), [1, 10, 100, 1000])
        for near, far in zip(rows, rows[1:]):
            assert near.truncation_bound / far.truncation_bound == pytest.approx(
                1000.0, rel=1e-12)
            assert abs(far.series_value) > abs(near.series_value)
        for row in rows:
            assert abs(row.closed_form_value - row.series_value) <= row.truncation_bound

    def test_nonmonotone_rejected(self):
        with pytest.raises(DomainError):
            convergence_report(si_gap(), [10, 5])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            convergence_report(si_gap(), [])

    def test_term_budget_at_cap_accepted(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_TERMS", 1000)
        rows = convergence_report(si_gap(), [10, 990])
        assert [row.N for row in rows] == [10, 990]

    @pytest.mark.parametrize("cap, Ns", [
        (1000, [10, 991]),
        (MAX_TERMS, [1, MAX_TERMS]),
        (MAX_TERMS, [10 ** k for k in range(8)]),  # a decade ladder to 1e7
    ])
    def test_term_budget_past_cap_rejected_before_any_sum(self, monkeypatch,
                                                          cap, Ns):
        monkeypatch.setattr(core, "MAX_TERMS", cap)

        def no_sum(*args):
            raise AssertionError("a partial sum was taken")

        monkeypatch.setattr(core, "energy_per_area_series", no_sum)
        with pytest.raises(DomainError, match="sum to at most"):
            convergence_report(si_gap(), Ns)


class TestDivergentTermViews:
    """The terms of the two divergent totals, which are never summed."""

    def test_energy_terms_are_constant(self):
        # The raw flux sum adds hbar c / 2a once per mode.
        assert per_state_energy_flux(natural_gap(1.0)) == 0.5

    def test_area_terms_match_mode_states(self):
        # The raw area sum adds 4 n^4 pi^2 a^2 per mode.
        gap = si_gap()
        scale = 4.0 * math.pi ** 2 * gap.a * gap.a
        terms = [mode_state(n, gap).area_n for n in range(1, 7)]
        assert terms == pytest.approx([scale * n ** 4 for n in range(1, 7)],
                                      rel=1e-15)
