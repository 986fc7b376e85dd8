import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import zeta as scipy_zeta

from casimir_kit.errors import DomainError, UnsupportedArgumentError
from casimir_kit.series import (
    MAX_CUTOFF_POINTS,
    MAX_TERMS,
    CutoffTrace,
    SeriesEstimate,
    SummationMethod,
    cutoff_regularized_value,
    direct_sum_estimate,
    euler_maclaurin_sum,
    exponential_cutoff_finite_part,
    partial_sum_inverse_powers,
    positive_int,
    tail_bound,
    zeta_even_closed_form,
    _neville,
)

DEFAULT_CUTOFF_GRID = [0.2, 0.1, 0.05, 0.025]


def _naive_ascending_sum(s, N):
    # Independent oracle: plain left-to-right accumulation.
    total = 0.0
    for n in range(1, N + 1):
        total += float(n) ** (-s)
    return total


def cutoff_sum_direct(epsilon):
    """Independent oracle for ``g(eps) = sum n e^(-n eps)``, term by term.

    Terms are accumulated until the next one falls below 1e-18 of the
    running total, then compensated-summed.
    """
    terms = []
    running = 0.0
    n = 1
    while True:
        term = n * math.exp(-n * epsilon)
        terms.append(term)
        running += term
        if term < 1e-18 * running:
            break
        n += 1
    return math.fsum(terms)


class TestPartialSums:
    def test_single_term(self):
        assert partial_sum_inverse_powers(4, 1) == 1.0

    def test_two_terms_exact(self):
        assert partial_sum_inverse_powers(4, 2) == 1.0625  # 1 + 1/16

    def test_ten_terms_against_direct_oracle(self):
        oracle = _naive_ascending_sum(4.0, 10)
        value = partial_sum_inverse_powers(4, 10)
        assert value == pytest.approx(oracle, rel=1e-15)
        assert value == pytest.approx(1.0820366, abs=5e-8)

    def test_monotone_in_truncation(self):
        sums = [partial_sum_inverse_powers(4, N) for N in (1, 2, 5, 10, 50, 100)]
        assert all(b > a for a, b in zip(sums, sums[1:]))

    @pytest.mark.parametrize("s", [1.0, 0.5, -2.0])
    def test_divergent_exponent_rejected(self, s):
        with pytest.raises(DomainError):
            partial_sum_inverse_powers(s, 10)

    @pytest.mark.parametrize("N", [0, -1])
    def test_empty_sum_rejected(self, N):
        with pytest.raises(DomainError):
            partial_sum_inverse_powers(4, N)

    @pytest.mark.parametrize("call", [
        lambda N: partial_sum_inverse_powers(4, N),
        lambda N: tail_bound(4, N),
        lambda N: euler_maclaurin_sum(4, N, 2),
    ], ids=["partial_sum", "tail_bound", "euler_maclaurin"])
    def test_term_count_above_cap_rejected(self, call):
        # Rejected before any term is allocated; the cap itself is not run.
        with pytest.raises(DomainError, match="term count"):
            call(MAX_TERMS + 1)

    def test_compensated_matches_naive_and_sorted_orders(self):
        # At s = 4, N = 1e6 all reasonable accumulation orders agree: the
        # compensated result equals a sorted-ascending summation to 1e-15
        # relative and differs from naive accumulation by under 1e-12.
        N = 10 ** 6
        compensated = partial_sum_inverse_powers(4, N)
        terms = (np.arange(N, 0, -1, dtype=np.float64) ** -4.0)
        naive = float(np.add.reduce(terms[::-1]))  # ascending left-to-right
        sorted_ascending = math.fsum(np.sort(terms).tolist())
        assert abs(naive - compensated) / compensated < 1e-12
        assert abs(sorted_ascending - compensated) / compensated < 1e-15

    @pytest.mark.parametrize("N", [1, 10, 1000, 10 ** 5, 10 ** 6])
    @pytest.mark.parametrize("s", [1.5, 2, 4, 6])
    def test_within_one_ulp_of_hurwitz_oracle(self, s, N):
        # zeta(s) - zeta(s, N + 1) is the exact N-term sum.
        with mpmath.workdps(40):
            exact = mpmath.zeta(s) - mpmath.zeta(s, N + 1)
            error = abs(mpmath.mpf(partial_sum_inverse_powers(s, N)) - exact)
        assert error <= math.ulp(float(exact))

    def test_memo_keys_on_validated_arguments(self):
        reference = partial_sum_inverse_powers(4, 1000)
        for s, N in [(4.0, 1000), (4, np.int64(1000)), (np.float64(4), 1000)]:
            value = partial_sum_inverse_powers(s, N)
            assert type(value) is float and value.hex() == reference.hex()
        # Equal-valued invalid arguments must not reach the cached (4, 1).
        assert partial_sum_inverse_powers(4, 1) == 1.0
        for N in [True, 1.0, MAX_TERMS + 1]:
            with pytest.raises(DomainError, match="term count"):
                partial_sum_inverse_powers(4, N)


class TestPositiveInt:
    @pytest.mark.parametrize("value", [1, 7, 10 ** 30, np.int64(3), np.uint8(1)])
    def test_accepted(self, value):
        result = positive_int(value, "count")
        assert type(result) is int and result == value

    @pytest.mark.parametrize("value", [0, -1, True, False, 1.0, np.float64(2.0),
                                       "1", None, np.int32(0), np.bool_(True)])
    def test_rejected(self, value):
        with pytest.raises(DomainError, match="count must be a positive integer"):
            positive_int(value, "count")
        with pytest.raises(UnsupportedArgumentError):
            positive_int(value, "count", UnsupportedArgumentError)

    def test_huge_negative_rejected(self):
        # repr() of an int past 4300 digits raises ValueError.
        with pytest.raises(DomainError, match="count must be a positive integer"):
            positive_int(-10 ** 5000, "count")
        with pytest.raises(DomainError, match="term count"):
            partial_sum_inverse_powers(4, -10 ** 5000)
        with pytest.raises(UnsupportedArgumentError):
            zeta_even_closed_form(-10 ** 5000)

    @pytest.mark.parametrize("value", [5, np.int64(5)])
    def test_upper_bound_inclusive(self, value):
        assert positive_int(value, "count", upper=5) == 5
        with pytest.raises(UnsupportedArgumentError, match="count must be at most 4"):
            positive_int(value, "count", UnsupportedArgumentError, upper=4)

    def test_numpy_integers_accepted_by_callers(self):
        assert partial_sum_inverse_powers(4, np.int64(2)) == 1.0625
        assert zeta_even_closed_form(np.int64(4)) == zeta_even_closed_form(4)

    def test_bools_rejected_by_callers(self):
        with pytest.raises(DomainError, match="term count"):
            partial_sum_inverse_powers(4, True)
        with pytest.raises(UnsupportedArgumentError):
            zeta_even_closed_form(True)


class TestTailBound:
    def test_closed_forms(self):
        bracket = tail_bound(4, 10)
        assert bracket.upper == pytest.approx(1.0 / 3000.0, rel=1e-15)
        assert bracket.lower == pytest.approx(1.0 / (3.0 * 11 ** 3), rel=1e-15)
        assert tail_bound(4, 1).upper == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_true_tail_inside_bracket(self):
        # zeta(4) - S_10 = 2.866502...e-4, from the closed form and the
        # high-precision oracle independently.
        s10 = partial_sum_inverse_powers(4, 10)
        true_tail = zeta_even_closed_form(4) - s10
        oracle_tail = float(mpmath.zeta(4)) - s10
        bracket = tail_bound(4, 10)
        assert bracket.lower <= true_tail <= bracket.upper
        assert bracket.lower <= oracle_tail <= bracket.upper
        assert true_tail == pytest.approx(2.8665021738e-4, rel=1e-9)

    def test_divergent_exponent_rejected(self):
        with pytest.raises(DomainError):
            tail_bound(1.0, 10)

    @given(st.integers(min_value=1, max_value=3000))
    @settings(max_examples=120)
    def test_bracket_property(self, N):
        # Monotone bracketing: S_N plus the tail bracket always contains
        # the closed-form zeta(4).
        z4 = zeta_even_closed_form(4)
        s_n = partial_sum_inverse_powers(4, N)
        bracket = tail_bound(4, N)
        assert s_n + bracket.lower <= z4 <= s_n + bracket.upper


class TestZetaClosedForm:
    @pytest.mark.parametrize("s,pi_form", [
        (2, math.pi ** 2 / 6),
        (4, math.pi ** 4 / 90),
        (6, math.pi ** 6 / 945),
    ])
    def test_matches_pi_forms(self, s, pi_form):
        assert zeta_even_closed_form(s) == pytest.approx(pi_form, rel=1e-15)

    def test_reference_digits(self):
        assert zeta_even_closed_form(2) == pytest.approx(1.6449340668, abs=1e-10)
        assert zeta_even_closed_form(4) == pytest.approx(1.0823232337, abs=1e-10)

    @pytest.mark.parametrize("s", [2, 4, 6, 8, 10, 12])
    def test_correctly_rounded_against_mpmath(self, s):
        # Exact rational evaluation rounds once, so the result must be the
        # double nearest the true value.
        mpmath.mp.dps = 50
        assert zeta_even_closed_form(s) == float(mpmath.zeta(s))

    @pytest.mark.parametrize("s", [2, 4, 6, 8, 10, 12])
    def test_against_scipy(self, s):
        assert zeta_even_closed_form(s) == pytest.approx(
            float(scipy_zeta(s, 1)), rel=1e-14)

    @pytest.mark.parametrize("s", [3, 5, 1, 0, -2, 14, 4.0])
    def test_unsupported_arguments(self, s):
        with pytest.raises(UnsupportedArgumentError):
            zeta_even_closed_form(s)


class TestEulerMaclaurin:
    def test_order_zero_at_one_term(self):
        estimate = euler_maclaurin_sum(4, 1, 0)
        assert estimate.estimate == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert estimate.error_bound == 0.5
        assert estimate.method is SummationMethod.EULER_MACLAURIN
        assert estimate.terms_used == 1

    def test_order_two_reaches_1e10_at_ten_terms(self):
        estimate = euler_maclaurin_sum(4, 10, 2)
        assert abs(estimate.estimate - zeta_even_closed_form(4)) < 1e-10

    def test_order_zero_within_tail_upper(self):
        estimate = euler_maclaurin_sum(4, 100, 0)
        error = abs(estimate.estimate - zeta_even_closed_form(4))
        assert error <= tail_bound(4, 100).upper

    @pytest.mark.parametrize("s", [2.0, 3.5, 4.0, 6.0])
    @pytest.mark.parametrize("N", [5, 10, 50])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_error_bound_is_rigorous(self, s, N, order):
        # The integrand is completely monotone, so the remainder is bounded
        # by the first omitted correction.  The bound speaks about the
        # method's truncation error; once it sinks below one ulp the
        # comparison needs a few ulps of evaluation-rounding slack.
        mpmath.mp.dps = 40
        reference = float(mpmath.zeta(s))
        estimate = euler_maclaurin_sum(s, N, order)
        slack = 4.0 * math.ulp(abs(estimate.estimate))
        assert abs(estimate.estimate - reference) <= estimate.error_bound + slack

    def test_bad_order_rejected(self):
        with pytest.raises(DomainError):
            euler_maclaurin_sum(4, 10, 3)

    def test_divergent_exponent_rejected(self):
        with pytest.raises(DomainError):
            euler_maclaurin_sum(0.9, 10, 1)

    def test_infinite_exponent_rejected(self):
        # The B_4 correction is -inf after the B_2 one is +inf: a nan estimate.
        with pytest.raises(DomainError, match="estimate must be finite"):
            euler_maclaurin_sum(math.inf, 1, 2)


class TestRichardson:
    """Richardson extrapolation by the private one-pass Neville scheme."""

    def test_exact_on_pure_square_error(self):
        limit = 0.7
        hs = (0.2, 0.1)
        estimate, _, _ = _neville([h * h for h in hs],
                                  [limit + 3.3 * h * h for h in hs])
        assert estimate == pytest.approx(limit, rel=1e-14)

    def test_exact_on_pure_cubic_error_many_rows(self):
        limit = -2.5
        hs = (0.4, 0.2, 0.1, 0.05, 0.02)
        estimate, _, _ = _neville([h ** 3 for h in hs],
                                  [limit + 0.8 * h ** 3 for h in hs])
        assert estimate == pytest.approx(limit, rel=1e-14)

    @pytest.mark.parametrize("power", [2, 3])
    @pytest.mark.parametrize("points", [2, 3, 4, 5])
    def test_exact_on_polynomials_below_point_count(self, power, points):
        # A polynomial in x = h^power of degree points - 1 is reproduced
        # exactly, so its value at x = 0 is the constant term.
        coefficients = (0.7, -1.3, 2.1, 0.4, -0.9)[:points]
        xs = [h ** power for h in (0.4, 0.3, 0.2, 0.1, 0.05)[:points]]
        values = [sum(c * x ** j for j, c in enumerate(coefficients)) for x in xs]
        assert _neville(xs, values)[0] == pytest.approx(0.7, rel=1e-12)

    def test_cutoff_rows_reach_minus_one_twelfth(self):
        estimate, _, _ = _neville([e ** 2 for e in DEFAULT_CUTOFF_GRID],
                                  [cutoff_regularized_value(e)
                                   for e in DEFAULT_CUTOFF_GRID])
        assert estimate == pytest.approx(-1.0 / 12.0, abs=1e-5)

    def test_two_points_leave_one_out_is_the_other_point(self):
        assert _neville([0.04, 0.01], [1.0, 1.1]) == (
            pytest.approx(1.1 + 0.1 / 3.0), 1.0, 1.1)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_leave_one_out_matches_separate_passes(self, data):
        # Steps k / 1000 are spaced widely enough that the scheme stays
        # finite on values in [-1, 1].
        ks = data.draw(st.lists(st.integers(1, 500), min_size=2, max_size=8,
                                unique=True))
        hs = [k / 1000.0 for k in sorted(ks, reverse=True)]
        xs = [h ** 2 for h in hs]
        values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(hs),
                                    max_size=len(hs)))
        _, without_last, without_first = _neville(xs, values)
        if len(xs) == 2:
            assert (without_last, without_first) == (values[0], values[1])
        else:
            assert without_last == _neville(xs[:-1], values[:-1])[0]
            assert without_first == _neville(xs[1:], values[1:])[0]


class TestExponentialCutoff:
    def test_closed_form_value_at_tenth(self):
        # e^-0.1 / (1 - e^-0.1)^2 - 100, frozen from independent evaluation.
        value = cutoff_regularized_value(0.1)
        assert value == pytest.approx(-0.0832916831954, abs=1e-12)

    def test_closed_form_agrees_with_direct_sum(self):
        # Dual route: the truncated direct sum is an independent oracle for
        # the closed form of g(eps).
        for eps in (0.2, 0.1, 0.05):
            direct = cutoff_sum_direct(eps) - 1.0 / eps ** 2
            assert cutoff_regularized_value(eps) == pytest.approx(direct, abs=1e-10)

    def test_finite_part_on_default_grid(self):
        trace, finite_part = exponential_cutoff_finite_part(DEFAULT_CUTOFF_GRID)
        assert finite_part.estimate == pytest.approx(-1.0 / 12.0, abs=1e-5)
        assert finite_part.method is SummationMethod.CUTOFF_EXTRAPOLATION
        assert finite_part.terms_used == 4
        assert abs(finite_part.estimate + 1.0 / 12.0) <= finite_part.error_bound
        assert [e for e, _ in trace.rows] == DEFAULT_CUTOFF_GRID

    def test_single_epsilon_skips_extrapolation(self):
        trace, finite_part = exponential_cutoff_finite_part([0.1])
        assert finite_part.estimate == cutoff_regularized_value(0.1)
        assert finite_part.terms_used == 1
        assert finite_part.error_bound == pytest.approx(0.1 ** 2 / 240.0)
        assert abs(finite_part.estimate + 1.0 / 12.0) <= finite_part.error_bound

    def test_deviation_shrinks_fourfold_when_halving(self):
        # Leading eps^2 behavior: the offset from -1/12 shrinks ~4x per
        # halving for eps <= 0.2.
        for eps in (0.2, 0.1, 0.05):
            big = cutoff_regularized_value(eps) + 1.0 / 12.0
            small = cutoff_regularized_value(eps / 2.0) + 1.0 / 12.0
            assert big > 0.0 and small > 0.0
            assert 3.5 <= big / small <= 4.5

    @pytest.mark.parametrize("eps", [1e-200, 5e-324, 1e-310, 1e-300])
    def test_underflowing_cutoff_rejected(self, eps):
        # (1 - e^-eps)^2 underflows below eps ~ 1.5e-154.
        with pytest.raises(DomainError, match="underflows"):
            cutoff_regularized_value(eps)
        with pytest.raises(DomainError, match="underflows"):
            exponential_cutoff_finite_part([0.2, eps])

    @given(st.floats(min_value=0.0, max_value=0.5, exclude_min=True))
    def test_closed_form_finite_or_rejected(self, eps):
        try:
            value = cutoff_regularized_value(eps)
        except DomainError:
            return
        assert math.isfinite(value)

    @pytest.mark.parametrize("grid", [[], [0.0], [-0.1], [0.6], [0.1, 0.2]])
    def test_bad_grids_rejected(self, grid):
        with pytest.raises(DomainError):
            exponential_cutoff_finite_part(grid)

    @staticmethod
    def _log_grid(points):
        return [0.5 * 0.02 ** (i / (points - 1)) for i in range(points)]

    def test_grid_at_cap_accepted(self):
        trace, finite_part = exponential_cutoff_finite_part(
            self._log_grid(MAX_CUTOFF_POINTS))
        assert finite_part.terms_used == len(trace.rows) == MAX_CUTOFF_POINTS
        assert finite_part.estimate == pytest.approx(-1.0 / 12.0, abs=1e-6)

    def test_grid_past_cap_rejected_before_any_row(self):
        grid = self._log_grid(MAX_CUTOFF_POINTS + 1)
        with pytest.raises(DomainError, match=f"at most {MAX_CUTOFF_POINTS}"):
            exponential_cutoff_finite_part(grid)
        # An underflowing epsilon is not reached: the size comes first.
        with pytest.raises(DomainError, match=f"at most {MAX_CUTOFF_POINTS}"):
            exponential_cutoff_finite_part(grid[:-1] + [1e-300])


class TestTraces:
    def test_cutoff_trace_window_validation(self):
        CutoffTrace(rows=((0.1, cutoff_regularized_value(0.1)),))
        with pytest.raises(DomainError):
            CutoffTrace(rows=((0.1, -0.2),))  # below -1/12
        with pytest.raises(DomainError):
            CutoffTrace(rows=((0.1, 0.0),))  # far above the window
        with pytest.raises(DomainError):
            CutoffTrace(rows=((0.05, 0.1), (0.1, 0.1)))  # not decreasing


class TestSeriesEstimate:
    def test_direct_estimate_carries_tail_bound(self):
        estimate = direct_sum_estimate(4.0, 10)
        assert estimate.method is SummationMethod.DIRECT
        assert estimate.estimate == partial_sum_inverse_powers(4, 10)
        assert estimate.error_bound == tail_bound(4, 10).upper
        assert abs(estimate.estimate - zeta_even_closed_form(4)) <= estimate.error_bound

    def test_estimate_invariants(self):
        good = SeriesEstimate(1.0, 0.0, SummationMethod.DIRECT, 1)
        assert good.terms_used == 1
        with pytest.raises(DomainError):
            SeriesEstimate(1.0, 1e-3, SummationMethod.DIRECT, 0)
        with pytest.raises(DomainError):
            SeriesEstimate(1.0, -1e-3, SummationMethod.DIRECT, 5)
        with pytest.raises(DomainError):
            SeriesEstimate(1.0, math.nan, SummationMethod.EULER_MACLAURIN, 5)
        for estimate, error_bound in [(math.nan, 0.0), (math.inf, 0.0),
                                      (-math.inf, 1.0), (1.0, math.inf)]:
            with pytest.raises(DomainError, match="finite"):
                SeriesEstimate(estimate, error_bound, SummationMethod.DIRECT, 1)
