"""Vacuum energy between parallel plates, derived state by state.

The package computes the energy per plate area as a convergent sum of
per-state contributions (each the uncertainty-limited energy flux divided
by the state's area), checks it against the closed form
``hbar c pi^2 / (720 a^3)`` and a numerically regularized divergent mode
sum, and analyzes the inside/outside pressure-balance scenarios.
"""

from .core import (
    DEFAULT_SERIES_TERMS,
    EnergyDensityResult,
    ModeState,
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
from .errors import (
    CasimirKitError,
    DomainError,
    ImplausibleGapWarning,
    ParseError,
    UnsupportedArgumentError,
)
from .output import TOOL_VERSION as __version__
from .paradox import (
    ScenarioClassification,
    ScenarioResult,
    cosmological_crossover,
    crossover_by_bisection,
    pressure_difference,
    situation_one,
    situation_two,
)
from .series import (
    CutoffTrace,
    SeriesEstimate,
    SummationMethod,
    TailBracket,
    cutoff_regularized_value,
    direct_sum_estimate,
    euler_maclaurin_sum,
    exponential_cutoff_finite_part,
    partial_sum_inverse_powers,
    tail_bound,
    zeta_even_closed_form,
)
from .units import (
    UnitSystem,
    codata_constants,
    natural_units,
    parse_length,
)
