"""Physical constants and length parsing.

Everything downstream consumes hbar and c through :class:`PhysicalConstants`,
so SI (CODATA 2018) and natural units (hbar = c = 1) share one code path.
Internal computation is always in SI base units: meters, seconds, joules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, ParseError

__all__ = [
    "ConstantsSource",
    "PhysicalConstants",
    "codata_constants",
    "natural_units",
    "parse_length",
    "HBAR_SI",
    "C_SI",
]

# CODATA 2018 recommended values.  hbar is the published rounded table entry
# (h / 2 pi with h exact by the 2019 SI redefinition); c is exact.
HBAR_SI = 1.054571817e-34  # J s
C_SI = 299792458.0  # m / s


class ConstantsSource(str, Enum):
    CODATA = "codata"
    NATURAL = "natural"


@dataclass(frozen=True)
class PhysicalConstants:
    """hbar and c with a provenance tag.

    The natural variant has hbar = c = 1 exactly; values are hard-coded,
    never fetched, so identical runs produce identical numbers.
    """

    hbar: float
    c: float
    source_tag: ConstantsSource

    def __post_init__(self) -> None:
        if not (self.hbar > 0.0 and self.c > 0.0):
            raise DomainError("hbar and c must both be positive")
        if self.source_tag is ConstantsSource.NATURAL and (
                self.hbar != 1.0 or self.c != 1.0):
            raise DomainError("natural units require hbar = c = 1 exactly")


def codata_constants() -> PhysicalConstants:
    """CODATA 2018 values of hbar and c in SI units."""
    return PhysicalConstants(HBAR_SI, C_SI, ConstantsSource.CODATA)


def natural_units() -> PhysicalConstants:
    """hbar = c = 1, so lengths and times share one unit."""
    return PhysicalConstants(1.0, 1.0, ConstantsSource.NATURAL)


_METERS_PER_SUFFIX = {
    "m": 1.0,
    "mm": 1e-3,
    "um": 1e-6,
    "nm": 1e-9,
    "pm": 1e-12,
}

# Longer suffixes listed first so "mm" is not read as "m" + trailing junk.
_LENGTH_RE = re.compile(
    r"^\s*([+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)\s*(mm|um|nm|pm|m)\s*$")


def parse_length(text: str) -> float:
    """Parse a length like ``"1um"`` or ``"2.5e-7m"`` into meters.

    The suffix set is closed (m, mm, um, nm, pm) and parsing is
    locale-independent.  Nonpositive lengths are rejected.

    Raises:
        ParseError: malformed text; the message names the offending token.
        DomainError: syntactically valid but nonpositive length.
    """
    match = _LENGTH_RE.match(text)
    if match is None:
        raise ParseError(
            f"cannot parse length '{text}': expected <number><suffix> "
            f"with suffix one of {sorted(_METERS_PER_SUFFIX)}")
    number_text, suffix = match.groups()
    value = float(number_text) * _METERS_PER_SUFFIX[suffix]
    if value <= 0.0:
        raise DomainError(f"length must be positive, got '{text}'")
    return value
