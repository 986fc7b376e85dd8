"""Per-state vacuum energy between two parallel plates.

For a gap ``a`` the n-th standing-wave state carries

* wavenumber ``k_n = n pi / a`` and momentum ``p_n = hbar k_n``,
* transverse position spread ``delta_x = a / (2 n pi)`` (saturating
  ``delta_x * p_n = hbar / 2``),
* axial ratio ``n_z = 1/n`` and state area ``A_n = 4 n^4 pi^2 a^2``,
* an n-independent energy flux ``hbar c / (2 a)`` over the light-crossing
  time ``t = a / c``.

The energy-per-area series sums the termwise ratio flux / A_n, which is
``hbar c / (8 pi^2 a^3) * n^-4`` and converges to
``hbar c pi^2 / (720 a^3)``.  The two divergent intermediate totals
(the raw flux sum and the raw area sum) are never evaluated; their terms
are :func:`per_state_energy_flux` and ``mode_state(n, gap).area_n``.

The closed-form magnitude is positive; the attractive sign is a stated
convention, selectable per call and defaulting to ``attractive_negative``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .errors import DomainError, ImplausibleGapWarning
from .series import (
    MAX_TERMS,
    partial_sum_inverse_powers,
    positive_int,
    tail_bound,
    zeta_even_closed_form,
)
from .units import UnitSystem

__all__ = [
    "SignConvention",
    "PlateGap",
    "ModeState",
    "EnergyDensityResult",
    "ConvergenceRow",
    "DEFAULT_SERIES_TERMS",
    "MAX_ROWS",
    "traversal_time",
    "mode_state",
    "per_state_energy_flux",
    "energy_per_area_series",
    "energy_per_area_closed",
    "force_per_area",
    "convergence_report",
]

# Default truncation: tail bound ~3.3e-10 of the mode sum, far below the
# 10-digit display precision, at negligible cost.
DEFAULT_SERIES_TERMS = 1000

# Most modes or gaps one table may hold; a million `modes` rows are about
# 230 MB of JSON.
MAX_ROWS = 10 ** 6

_GAP_HARD_RANGE = (1e-12, 1.0)
_GAP_PLAUSIBLE_RANGE = (1e-9, 1e-3)
# Every printed quantity (k_n, p_n, delta_x, A_n up to n = MAX_ROWS, energies,
# forces, truncation bounds) stays finite and nonzero across this range.
_NATURAL_GAP_RANGE = (1e-30, 1e30)


class SignConvention(str, Enum):
    MAGNITUDE = "magnitude"
    ATTRACTIVE_NEGATIVE = "attractive_negative"


# Per-row paths compare with these module globals: a read through an Enum
# class costs several times a global's.
_SI = UnitSystem.SI
_ATTRACTIVE_NEGATIVE = SignConvention.ATTRACTIVE_NEGATIVE


@dataclass(frozen=True)
class PlateGap:
    """Separation between the plates plus the constants to evaluate with.

    The gap must be positive and finite.  With CODATA constants it must lie
    in [1e-12, 1] m, and values outside [1e-9, 1e-3] m trigger
    :class:`ImplausibleGapWarning` (the formulas are scale-free; the warning
    flags implausible regimes without blocking desk experiments).  In
    natural units it must lie in [1e-30, 1e30].
    """

    a: float
    constants: UnitSystem = UnitSystem.SI

    def __post_init__(self) -> None:
        if self.constants is _SI:
            lo, hi = _GAP_HARD_RANGE
            if not lo <= self.a <= hi:
                raise DomainError(
                    f"plate gap {self.a!r} m is outside the supported SI "
                    f"range [{lo}, {hi}] m")
            plo, phi = _GAP_PLAUSIBLE_RANGE
            if not plo <= self.a <= phi:
                warnings.warn(
                    f"plate gap {self.a} m is outside the plausible range "
                    f"[{plo}, {phi}] m",
                    ImplausibleGapWarning, stacklevel=3)
        else:
            lo, hi = _NATURAL_GAP_RANGE
            if not lo <= self.a <= hi:
                raise DomainError(
                    f"plate gap {self.a!r} is outside the supported "
                    f"natural-unit range [{lo}, {hi}]")


class ModeState(NamedTuple):
    """All per-state quantities of the n-th standing wave at a given gap.

    The fields are the columns of the ``modes`` table; the light-crossing
    time is the same for every mode (:func:`traversal_time`).
    """

    n: int
    k_n: float
    p_n: float
    delta_x_xy: float
    n_z: float
    area_n: float


def traversal_time(gap: PlateGap) -> float:
    """Light-crossing time of the gap, ``t = a / c``."""
    return gap.a / gap.constants.c


def mode_state(n: int, gap: PlateGap) -> ModeState:
    """Populate every per-state quantity for mode index n in [1, ``MAX_ROWS``].

    Over that range every field is finite and nonzero at any accepted gap;
    any other n raises :class:`DomainError`.
    """
    n = positive_int(n, "mode index", upper=MAX_ROWS)
    a = gap.a
    hbar = gap.constants.hbar
    k_n = n * math.pi / a
    p_n = hbar * k_n
    delta_x_xy = a / (2.0 * n * math.pi)
    n_z = 1.0 / n
    area_n = 4.0 * float(n) ** 4 * math.pi ** 2 * a * a
    return ModeState(n, k_n, p_n, delta_x_xy, n_z, area_n)


def per_state_energy_flux(gap: PlateGap) -> float:
    """Energy delivered per state over the crossing time, ``hbar c / (2 a)``.

    The state index cancels between the energy spread and its lifetime
    fraction, so this contribution is the same for every mode; only the
    area weighting below distinguishes the states.
    """
    return gap.constants.hbar * gap.constants.c / (2.0 * gap.a)


def _series_coefficient(gap: PlateGap) -> float:
    """Prefactor of the mode sum, ``hbar c / (8 pi^2 a^3)``."""
    return gap.constants.hbar * gap.constants.c / (8.0 * math.pi ** 2 * gap.a ** 3)


def _signed(magnitude: float, sign: SignConvention) -> float:
    if sign is _ATTRACTIVE_NEGATIVE:
        return -magnitude
    return magnitude


@dataclass(frozen=True)
class EnergyDensityResult:
    """Energy per plate area from the mode series, with its closed form.

    All series terms are positive, so the partial sums approach the closed
    form from below in magnitude and the truncation bound is rigorous.
    """

    series_value: float
    closed_form_value: float
    terms_used: int
    truncation_bound: float
    sign_convention: SignConvention

    def __post_init__(self) -> None:
        if self.terms_used < 1:
            raise DomainError("terms_used must be at least 1")
        if not self.truncation_bound >= 0.0:
            raise DomainError("truncation_bound must be nonnegative")
        if self.sign_convention is SignConvention.ATTRACTIVE_NEGATIVE:
            if self.series_value > 0.0 or self.closed_form_value > 0.0:
                raise DomainError("attractive_negative values must be <= 0")
        else:
            if self.series_value < 0.0 or self.closed_form_value < 0.0:
                raise DomainError("magnitude values must be >= 0")
        if abs(self.series_value) > abs(self.closed_form_value):
            raise DomainError("partial sums cannot exceed the closed form")
        # The bracket holds exactly in real arithmetic; allow a few ulps for
        # the two float evaluation routes.
        slack = 4.0 * math.ulp(abs(self.closed_form_value))
        if abs(self.closed_form_value - self.series_value) > self.truncation_bound + slack:
            raise DomainError("series value violates its truncation bound")


def energy_per_area_series(
        gap: PlateGap,
        N: int = DEFAULT_SERIES_TERMS,
        sign: SignConvention = SignConvention.ATTRACTIVE_NEGATIVE,
) -> EnergyDensityResult:
    """Truncated mode sum ``hbar c / (8 pi^2 a^3) * sum n^-4`` with its bound.

    ``closed_form_value`` is the same coefficient times the closed-form
    zeta value, so the magnitude ordering against the partial sum survives
    rounding for any N (multiplying both by one positive prefactor is
    monotone); it agrees with :func:`energy_per_area_closed` to a couple
    of ulps.
    """
    coefficient = _series_coefficient(gap)
    partial = partial_sum_inverse_powers(4.0, N)
    bound = coefficient * tail_bound(4.0, N).upper
    return EnergyDensityResult(
        series_value=_signed(coefficient * partial, sign),
        closed_form_value=_signed(coefficient * zeta_even_closed_form(4), sign),
        terms_used=int(N),
        truncation_bound=bound,
        sign_convention=sign,
    )


def energy_per_area_closed(
        gap: PlateGap,
        sign: SignConvention = SignConvention.ATTRACTIVE_NEGATIVE,
) -> float:
    """Closed-form energy per area, ``hbar c pi^2 / (720 a^3)``, signed."""
    magnitude = (gap.constants.hbar * gap.constants.c * math.pi ** 2
                 / (720.0 * gap.a ** 3))
    return _signed(magnitude, sign)


def force_per_area(gap: PlateGap,
                   sign: SignConvention = _ATTRACTIVE_NEGATIVE) -> float:
    """Pressure between the plates, ``hbar c pi^2 / (240 a^4)``, signed.

    Under the default convention this is the attractive inside-minus-outside
    pressure difference; it equals ``-3 |E/A| / a``, the (negative of the)
    gap derivative of the closed-form energy per area.
    """
    magnitude = (gap.constants.hbar * gap.constants.c * math.pi ** 2
                 / (240.0 * gap.a ** 4))
    return _signed(magnitude, sign)


class ConvergenceRow(NamedTuple):
    N: int
    series_value: float
    truncation_bound: float
    closed_form_value: float


def convergence_report(
        gap: PlateGap,
        Ns: Sequence[int],
        sign: SignConvention = SignConvention.ATTRACTIVE_NEGATIVE,
) -> tuple[ConvergenceRow, ...]:
    """Series value and truncation bound at each requested truncation point.

    The truncations must sum to at most ``MAX_TERMS``, checked before any sum.
    """
    Ns = [positive_int(N, "term count") for N in Ns]
    if not Ns:
        raise DomainError("convergence report requires at least one N")
    if any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise DomainError("truncation points must be strictly increasing")
    if sum(Ns) > MAX_TERMS:
        raise DomainError(f"truncation points must sum to at most {MAX_TERMS}")
    results = [energy_per_area_series(gap, N, sign) for N in Ns]
    return tuple(ConvergenceRow(N, result.series_value, result.truncation_bound,
                                result.closed_form_value)
                 for N, result in zip(Ns, results))
