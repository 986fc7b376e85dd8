"""Pressure-balance scenarios for the region outside the plates.

With the outside region taken unbounded, the inside-minus-outside pressure
difference at gap ``L_i`` is ``-hbar c pi^2 / (240 L_i^4)``.  Two readings
of that relation are implemented:

* Situation one: the inside pressure is a free nonnegative parameter, so
  the outside pressure ``P_o = P_i + hbar c pi^2 / (240 L_i^4)`` grows
  without bound as the gap shrinks.
* Situation two: the inside pressure itself equals the (negative)
  attractive pressure, and the outside pressure cancels to exactly zero.

Divergence is always reported as a classification, never as an evaluated
infinity; the CLI writes the unbounded outside distance as the string
"infinity", not as ``float("inf")``.

The crossover gap compares the magnitude of the volumetric energy density,
defined here as |energy per area| / gap (the only volume available in this
geometry is plate area times gap), against a reference vacuum energy
density such as the cosmological upper estimate 5.26e-10 J/m^3.  Densities
must lie in [1e-300, 1e250]: across that range the closed form and the
bisection agree to within 5e-13 in SI and natural units alike, while beyond
it the crossover gap's fourth power leaves the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import PlateGap, force_per_area
from .errors import DomainError
from .units import UnitSystem

__all__ = [
    "ScenarioClassification",
    "ScenarioResult",
    "pressure_difference",
    "situation_one",
    "situation_two",
    "cosmological_crossover",
    "crossover_by_bisection",
]

# Vacuum energy densities the crossover routes accept (see the module notes).
_DENSITY_RANGE = (1e-300, 1e250)


class ScenarioClassification(str, Enum):
    DIVERGING_OUTSIDE = "diverging_outside"
    BALANCED_ZERO_OUTSIDE = "balanced_zero_outside"


@dataclass(frozen=True)
class ScenarioResult:
    P_i: float
    P_o: float
    difference: float
    classification: ScenarioClassification
    note: str

    def __post_init__(self) -> None:
        if (self.classification is ScenarioClassification.BALANCED_ZERO_OUTSIDE
                and (self.P_o != 0.0 or not self.P_i < 0.0)):
            raise DomainError(
                "balanced scenarios require P_o = 0 exactly and P_i < 0")


def pressure_difference(L_i: float, constants: UnitSystem = UnitSystem.SI) -> float:
    """Inside-minus-outside pressure, ``-hbar c pi^2 / (240 L_i^4)``."""
    return force_per_area(PlateGap(L_i, constants))


def situation_one(
        L_i: float,
        P_i: float = 0.0,
        constants: UnitSystem = UnitSystem.SI,
) -> ScenarioResult:
    """Finite, nonnegative inside pressure; the outside one diverges as L_i -> 0.

    ``difference`` is evaluated from the closed form rather than as
    ``P_i - P_o``, so it stays exact even when ``P_i`` dwarfs the
    attraction magnitude.
    """
    if not 0.0 <= P_i < math.inf:
        raise DomainError(f"inside pressure Pi must be finite and nonnegative "
                          f"in situation one, got {P_i!r}")
    difference = pressure_difference(L_i, constants)
    magnitude = -difference
    return ScenarioResult(
        P_i=P_i,
        P_o=P_i + magnitude,
        difference=difference,
        classification=ScenarioClassification.DIVERGING_OUTSIDE,
        note=("outside pressure P_o = P_i + hbar*c*pi^2/(240*L_i^4) grows "
              "without bound as L_i -> 0 for any fixed P_i >= 0"),
    )


def situation_two(L_i: float, constants: UnitSystem = UnitSystem.SI) -> ScenarioResult:
    """Inside pressure equals the attraction; the outside contribution cancels.

    The cancellation is algebraic, so ``P_o`` is returned as exact zero
    rather than as a floating-point subtraction.
    """
    difference = pressure_difference(L_i, constants)
    return ScenarioResult(
        P_i=difference,
        P_o=0.0,
        difference=difference,
        classification=ScenarioClassification.BALANCED_ZERO_OUTSIDE,
        note=("inside pressure -hbar*c*pi^2/(240*L_i^4) is negative "
              "(interpretable as negative energy density); the outside "
              "pressure cancels exactly to zero"),
    )


def _require_density(rho_vac: float) -> None:
    lo, hi = _DENSITY_RANGE
    if not lo <= rho_vac <= hi:
        raise DomainError(
            f"vacuum energy density rho must be finite and lie in "
            f"[{lo}, {hi}], got {rho_vac!r}")


def _density_magnitude(a: float, constants: UnitSystem) -> float:
    """|energy per area| / gap, the volumetric density used for the crossover."""
    return constants.hbar * constants.c * math.pi ** 2 / (720.0 * a ** 4)


def cosmological_crossover(
        rho_vac: float, constants: UnitSystem = UnitSystem.SI) -> float:
    """Gap at which |E/A|/a matches a reference vacuum energy density.

    Solves ``hbar c pi^2 / (720 a^4) = rho_vac`` in closed form,
    ``a = (hbar c pi^2 / (720 rho_vac))^(1/4)``.
    """
    _require_density(rho_vac)
    return (constants.hbar * constants.c * math.pi ** 2
            / (720.0 * rho_vac)) ** 0.25


def crossover_by_bisection(
        rho_vac: float,
        constants: UnitSystem = UnitSystem.SI,
        rel_tol: float = 1e-12,
) -> float:
    """Independent bracketing root search for the crossover gap.

    The density magnitude is strictly decreasing in the gap, so an
    expanding bracket followed by plain bisection converges; used to
    cross-check the closed form.
    """
    _require_density(rho_vac)
    lo, hi = 1e-9, 1.0
    while _density_magnitude(lo, constants) < rho_vac:
        lo /= 16.0
    while _density_magnitude(hi, constants) > rho_vac:
        hi *= 16.0
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if hi - lo <= rel_tol * mid:
            break
        if _density_magnitude(mid, constants) > rho_vac:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
