"""Physical constants and length parsing.

Everything downstream reads hbar and c from a :class:`UnitSystem` member, so
SI (CODATA 2018) and natural units (hbar = c = 1) share one code path.
Internal computation is always in SI base units: meters, seconds, joules.
"""

from __future__ import annotations

import re
from enum import Enum

from .errors import DomainError, ParseError

__all__ = [
    "UnitSystem",
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


_CONSTANTS = {  # spelling -> (hbar, c, source)
    "si": (HBAR_SI, C_SI, "codata"),
    "natural": (1.0, 1.0, "natural"),
}


class UnitSystem(Enum):
    """The two unit systems, each carrying its own hbar, c and source tag.

    The values are hard-coded, never fetched, so identical runs produce
    identical numbers.  ``hbar``, ``c`` and ``source`` are plain read-only
    attributes, and no other constant set can be built.  A member's value is
    its CLI and config spelling, so ``UnitSystem("si")`` and
    ``UnitSystem("natural")`` look it up; ``source`` is the
    ``constants_source`` every output reports.
    """

    SI = "si"
    NATURAL = "natural"

    def __init__(self, spelling: str) -> None:
        hbar, c, source = _CONSTANTS[spelling]
        # One attribute at a time: filling vars(self) wholesale would make
        # every later read take the slower dictionary path.
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "source", source)

    def __setattr__(self, name: str, value) -> None:
        if name in ("hbar", "c", "source"):
            raise AttributeError(f"{self.name}.{name} is read-only")
        super().__setattr__(name, value)


def codata_constants() -> UnitSystem:
    """CODATA 2018 values of hbar and c in SI units."""
    return UnitSystem.SI


def natural_units() -> UnitSystem:
    """hbar = c = 1, so lengths and times share one unit."""
    return UnitSystem.NATURAL


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
