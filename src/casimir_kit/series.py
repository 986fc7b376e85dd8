"""Summation machinery for inverse-power series and divergent-sum finite parts.

Four routes to the same limits live here and cross-check one another:

* direct partial sums with compensated accumulation and a rigorous
  integral-test bracket on the truncated tail,
* closed-form even zeta values from the Bernoulli formula
  ``zeta(2k) = (-1)^(k+1) B_2k (2 pi)^2k / (2 (2k)!)``,
* Euler-Maclaurin acceleration of the tail,
* an exponential cutoff that extracts the finite part of the divergent
  sum ``1 + 2 + 3 + ...`` numerically (target: -1/12) by one Neville pass,
  which also gives the leave-one-out estimates behind its error estimate.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import repeat
from typing import Iterable, NamedTuple

from .errors import DomainError, UnsupportedArgumentError

__all__ = [
    "SummationMethod",
    "SeriesEstimate",
    "TailBracket",
    "CutoffTrace",
    "partial_sum_inverse_powers",
    "direct_sum_estimate",
    "tail_bound",
    "zeta_even_closed_form",
    "euler_maclaurin_sum",
    "cutoff_regularized_value",
    "exponential_cutoff_finite_part",
]

# Even Bernoulli numbers B_2 .. B_12, kept exact.  A fixed table beats a
# general recurrence for auditability.
BERNOULLI_EVEN: dict[int, Fraction] = {
    2: Fraction(1, 6),
    4: Fraction(-1, 30),
    6: Fraction(1, 42),
    8: Fraction(-1, 30),
    10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}

# pi to 63 decimal digits as an exact rational.  Evaluating the Bernoulli
# formula in rational arithmetic and rounding once keeps the closed-form
# zeta values correctly rounded, which the partial-sum bracket needs once
# the tail shrinks below one ulp.
_PI_RATIONAL = Fraction(
    3141592653589793238462643383279502884197169399375105820974944592,
    10 ** 63)

# Largest term count N accepted here.  Terms stream into fsum, so the cap
# bounds time, not memory: a cold 10**7-term sum takes ~1.4 s on a Xeon vCPU.
MAX_TERMS = 10 ** 7

# Most epsilons in one cutoff grid: past about 100 log-spaced points the
# extrapolated estimate is off by 0.2, and a few thousand give nan.
MAX_CUTOFF_POINTS = 32


class SummationMethod(str, Enum):
    DIRECT = "direct"
    EULER_MACLAURIN = "euler_maclaurin"
    CUTOFF_EXTRAPOLATION = "cutoff_extrapolation"


@dataclass(frozen=True)
class SeriesEstimate:
    """A summation result together with how it was obtained.

    ``error_bound`` bounds (or, for cutoff extrapolation, estimates)
    ``|estimate - limit|``; ``terms_used`` counts the terms or grid points
    the estimate rests on.  Both floats must be finite, the bound nonnegative.
    """

    estimate: float
    error_bound: float
    method: SummationMethod
    terms_used: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.estimate):
            raise DomainError(f"estimate must be finite, got {self.estimate!r}")
        if not 0.0 <= self.error_bound < math.inf:
            raise DomainError(
                f"error_bound must be finite and nonnegative, got {self.error_bound!r}")
        if self.terms_used < 1:
            raise DomainError("terms_used must be at least 1")


class TailBracket(NamedTuple):
    lower: float
    upper: float


@dataclass(frozen=True)
class CutoffTrace:
    """Rows ``(epsilon, g(eps) - 1/eps^2)`` with ``g(eps) = sum n e^(-n eps)``.

    The regularized values approach -1/12 from above; for eps <= 0.3 each
    row must lie in ``(-1/12, -1/12 + eps^2/200)``, which follows from the
    small-eps expansion ``-1/12 + eps^2/240 - eps^4/6048 + ...``.
    """

    rows: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise DomainError("cutoff trace requires at least one row")
        eps = [e for e, _ in self.rows]
        if any(e <= 0.0 for e in eps):
            raise DomainError("cutoff parameters must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise DomainError("cutoff parameters must be strictly decreasing")
        for e, value in self.rows:
            if e <= 0.3 and not (-1.0 / 12.0 < value < -1.0 / 12.0 + e * e / 200.0):
                raise DomainError(
                    f"regularized value {value!r} at eps={e!r} is outside "
                    "the expected expansion window")


def _require_convergent_exponent(s: float) -> float:
    s = float(s)
    if not s > 1.0:
        raise DomainError(f"exponent must exceed 1, got {s!r}: the series diverges")
    return s


def positive_int(value, name: str, error: type[DomainError] = DomainError,
                 upper: float = math.inf) -> int:
    """``value`` as an int if it is a non-bool ``numbers.Integral`` in [1, upper]."""
    if type(value) is int and 1 <= value <= upper:  # skips the ABC check
        return value
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or value < 1):
        # No value in the texts: past 4300 digits repr() raises ValueError.
        raise error(f"{name} must be a positive integer")
    if value > upper:
        raise error(f"{name} must be at most {upper}")
    return int(value)


def _require_term_count(N: int) -> int:
    return positive_int(N, "term count", upper=MAX_TERMS)


def partial_sum_inverse_powers(s: float, N: int) -> float:
    """Partial sum ``S_N = sum_{n=1}^{N} n^-s`` for s > 1, memoized per ``(s, N)``.

    The result is the correctly rounded sum of the libm terms ``n ** -s``
    (:func:`math.fsum`), so it is monotone nondecreasing in N.  Arguments
    are validated on every call, before the memo is read.  Here and in every
    other function of this module, N must lie in ``[1, MAX_TERMS]``.
    """
    return _partial_sum(_require_convergent_exponent(s), _require_term_count(N))


@functools.lru_cache
def _partial_sum(s: float, N: int) -> float:
    return math.fsum(map(pow, map(float, range(N, 0, -1)), repeat(-s, N)))


def tail_bound(s: float, N: int) -> TailBracket:
    """Integral-test bracket for the truncated tail ``zeta(s) - S_N``.

    Comparing the tail with integrals of ``x^-s`` gives the rigorous
    two-sided bound ``1/((s-1)(N+1)^(s-1)) <= zeta(s) - S_N <= 1/((s-1)N^(s-1))``.
    """
    s = _require_convergent_exponent(s)
    N = _require_term_count(N)
    lower = 1.0 / ((s - 1.0) * float(N + 1) ** (s - 1.0))
    upper = 1.0 / ((s - 1.0) * float(N) ** (s - 1.0))
    return TailBracket(lower=lower, upper=upper)


def direct_sum_estimate(s: float, N: int) -> SeriesEstimate:
    """Partial sum packaged with its rigorous tail upper bound."""
    return SeriesEstimate(
        estimate=partial_sum_inverse_powers(s, N),
        error_bound=tail_bound(s, N).upper,
        method=SummationMethod.DIRECT,
        terms_used=int(N),
    )


def zeta_even_closed_form(s: int) -> float:
    """zeta(s) for even s in 2..12 via the Bernoulli formula.

    The formula is evaluated in exact rational arithmetic (with pi as a
    63-digit rational) and rounded to float once, so the returned double is
    the correctly rounded zeta value.
    """
    s = positive_int(s, "s", UnsupportedArgumentError)
    if s not in BERNOULLI_EVEN:
        raise UnsupportedArgumentError(
            f"unsupported argument s={s!r}: expected an even integer in "
            f"{sorted(BERNOULLI_EVEN)}")
    k = s // 2
    exact = (Fraction((-1) ** (k + 1)) * BERNOULLI_EVEN[s]
             * (2 * _PI_RATIONAL) ** s / (2 * math.factorial(s)))
    return float(exact)


def _bernoulli_tail_term(s: float, N: int, k: int) -> float:
    """k-th Euler-Maclaurin correction ``B_2k/(2k)! * prod(s..s+2k-2) * N^(1-s-2k)``."""
    rising = 1.0
    for j in range(2 * k - 1):
        rising *= s + j
    coefficient = float(BERNOULLI_EVEN[2 * k]) / math.factorial(2 * k)
    return coefficient * rising * float(N) ** (1.0 - s - 2.0 * k)


def euler_maclaurin_sum(s: float, N: int, order: int) -> SeriesEstimate:
    """Euler-Maclaurin estimate of ``zeta(s)`` from the N-term partial sum.

    Correction depth by ``order``:

    * 0: integral of the tail only, ``S_N + N^(1-s)/(s-1)``;
    * 1: plus the boundary term ``-N^-s/2``;
    * 2: plus the derivative corrections through B_6, which reaches
      ~1e-11 absolute error already at s = 4, N = 10.

    Because ``x^-s`` is completely monotone, the remainder is bounded by
    the first omitted correction, which is returned as ``error_bound``.
    """
    s = _require_convergent_exponent(s)
    N = _require_term_count(N)
    if order not in (0, 1, 2):
        raise DomainError(f"order must be 0, 1, or 2, got {order!r}")

    estimate = partial_sum_inverse_powers(s, N) + float(N) ** (1.0 - s) / (s - 1.0)
    if order == 0:
        error_bound = 0.5 * float(N) ** (-s)
    else:
        estimate -= 0.5 * float(N) ** (-s)
        if order == 1:
            error_bound = abs(_bernoulli_tail_term(s, N, 1))
        else:
            for k in (1, 2, 3):
                estimate += _bernoulli_tail_term(s, N, k)
            error_bound = abs(_bernoulli_tail_term(s, N, 4))
    return SeriesEstimate(
        estimate=estimate,
        error_bound=error_bound,
        method=SummationMethod.EULER_MACLAURIN,
        terms_used=N,
    )


def _neville(xs: list[float], values: list[float]) -> tuple[float, float, float]:
    """Extrapolate two or more ``(x, value)`` points to x = 0 by Neville's scheme.

    One pass gives the estimates from all points, from all but the last and
    from all but the first, bit for bit what separate passes would give.
    """
    table = list(values)
    for stage in range(1, len(table)):
        without_first = table[-1]
        for i in range(len(table) - 1, stage - 1, -1):
            x_hi, x_lo = xs[i - stage], xs[i]
            table[i] = (x_hi * table[i] - x_lo * table[i - 1]) / (x_hi - x_lo)
    return table[-1], table[-2], without_first


def cutoff_regularized_value(epsilon: float) -> float:
    """``g(eps) - 1/eps^2`` with ``g(eps) = e^-eps / (1 - e^-eps)^2`` in closed form.

    The closed form avoids summing ~40/eps exponentially damped terms; the
    subtraction of 1/eps^2 is the one unavoidable cancellation and limits
    accuracy to roughly ``2e-16/eps^2`` absolute.
    """
    epsilon = float(epsilon)
    if not 0.0 < epsilon <= 0.5:
        raise DomainError(f"cutoff must lie in (0, 0.5], got {epsilon!r}")
    one_minus = -math.expm1(-epsilon)  # 1 - e^-eps without cancellation
    square = one_minus * one_minus
    if square < sys.float_info.min:
        raise DomainError(
            f"cutoff {epsilon!r} is too small: (1 - e^-eps)^2 underflows")
    return math.exp(-epsilon) / square - 1.0 / (epsilon * epsilon)


def exponential_cutoff_finite_part(
        epsilons: Iterable[float]) -> tuple[CutoffTrace, SeriesEstimate]:
    """Finite part of the divergent sum ``1 + 2 + 3 + ...`` by cutoff removal.

    Each grid point contributes ``g(eps) - 1/eps^2``; the eps -> 0 limit is
    then extrapolated by one pass of Neville's polynomial scheme in eps^2
    (the expansion of the regularized value is even in eps).  The limit is
    -1/12, the value zeta regularization assigns to the divergent sum.  At
    most ``MAX_CUTOFF_POINTS`` epsilons, counted before any row is computed;
    :class:`CutoffTrace` checks the rest of the grid.

    With a single grid point no extrapolation is performed: the estimate is
    that row's value and the error bound is the leading deviation eps^2/240.
    For two or more points the error bound is the larger change from
    dropping either the finest or the coarsest grid point: a conservative
    extrapolation-difference estimate, read off the same Neville pass.
    """
    grid = [float(e) for e in epsilons]
    if len(grid) > MAX_CUTOFF_POINTS:
        raise DomainError(f"cutoff grid must hold at most {MAX_CUTOFF_POINTS} "
                          f"epsilons, got {len(grid)}")
    rows = tuple((e, cutoff_regularized_value(e)) for e in grid)
    trace = CutoffTrace(rows=rows)

    if len(rows) == 1:
        [(eps, estimate)] = rows
        error_bound = eps * eps / 240.0
    else:
        estimate, without_finest, without_coarsest = _neville(
            [eps ** 2 for eps, _ in rows], [value for _, value in rows])
        error_bound = max(abs(estimate - without_finest),
                          abs(estimate - without_coarsest))
    finite_part = SeriesEstimate(
        estimate=estimate,
        error_bound=error_bound,
        method=SummationMethod.CUTOFF_EXTRAPOLATION,
        terms_used=len(rows),
    )
    return trace, finite_part
