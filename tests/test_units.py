import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from casimir_kit.core import PlateGap
from casimir_kit.errors import DomainError, ParseError
from casimir_kit.output import resolve_config
from casimir_kit.units import (
    UnitSystem,
    codata_constants,
    natural_units,
    parse_length,
)

# Exact 2019 SI definition: h = 6.62607015e-34 J s, so hbar = h / (2 pi).
_HBAR_FROM_H = 6.62607015e-34 / (2.0 * math.pi)


class TestPhysicalConstants:
    """hbar and c as the two members of :class:`UnitSystem` carry them."""

    def test_exactly_two_members(self):
        assert list(UnitSystem) == [UnitSystem.SI, UnitSystem.NATURAL]
        assert codata_constants() is UnitSystem.SI
        assert natural_units() is UnitSystem.NATURAL

    def test_codata_values(self):
        constants = codata_constants()
        assert constants.hbar == 1.054571817e-34
        assert constants.c == 299792458.0
        assert constants.source == "codata"

    def test_codata_hbar_consistent_with_exact_h(self):
        # The table entry is the rounded value of h / 2 pi.
        assert codata_constants().hbar == pytest.approx(_HBAR_FROM_H, rel=1e-9)

    def test_natural_units_are_exactly_one(self):
        constants = natural_units()
        assert constants.hbar == 1.0
        assert constants.c == 1.0
        assert constants.hbar * constants.c == 1.0
        assert constants.source == "natural"

    @pytest.mark.parametrize("hbar,c", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_nonpositive_constants_rejected(self, hbar, c):
        # No constant set outside the two members can be built.
        with pytest.raises(ValueError):
            UnitSystem((hbar, c, "codata"))

    def test_natural_tag_requires_unit_values(self):
        with pytest.raises(ValueError):
            UnitSystem((1.1, 1.0, "natural"))

    def test_immutable(self):
        for member in UnitSystem:
            for field in ("hbar", "c", "source"):
                with pytest.raises(AttributeError):
                    setattr(member, field, 1.0)

    def test_members_survive_dataclass_copies(self):
        # asdict deep-copies every field; a member must come back as itself.
        copied = dataclasses.asdict(PlateGap(1e-6, UnitSystem.SI))
        assert copied == {"a": 1e-6, "constants": UnitSystem.SI}
        assert copied["constants"] is UnitSystem.SI

    def test_looked_up_by_cli_spelling(self):
        assert UnitSystem("si") is UnitSystem.SI
        assert UnitSystem("natural") is UnitSystem.NATURAL

    @pytest.mark.parametrize("text", ["SI", "Si", "NATURAL", "codata", "",
                                      (1.0, 1.0, "natural")])
    def test_other_spellings_rejected(self, text):
        with pytest.raises(ParseError):
            resolve_config({"units": text})


class TestParseLength:
    @pytest.mark.parametrize("text,meters", [
        ("1um", 1e-6),
        ("250nm", 2.5e-7),
        ("1m", 1.0),
        ("2mm", 2e-3),
        ("7pm", 7e-12),
        ("2.5e-7m", 2.5e-7),
        ("2.5 nm", 2.5e-9),
        ("  1um  ", 1e-6),
    ])
    def test_unit_table(self, text, meters):
        value = parse_length(text)
        assert type(value) is float
        assert value == pytest.approx(meters, rel=1e-15)

    @pytest.mark.parametrize("text", ["-3um", "0m", "-0.1nm"])
    def test_nonpositive_rejected(self, text):
        with pytest.raises(DomainError):
            parse_length(text)

    @pytest.mark.parametrize("text", [
        "", "um", "1", "1 km", "3xm", "1.2.3m", "1e m", "one um", "1umm",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(ParseError):
            parse_length(text)

    def test_error_names_offending_token(self):
        with pytest.raises(ParseError, match="1 km"):
            parse_length("1 km")

    @given(st.floats(min_value=1e-3, max_value=1e3,
                     allow_nan=False, allow_infinity=False),
           st.sampled_from(["m", "mm", "um", "nm", "pm"]),
           st.sampled_from(["m", "mm", "um", "nm", "pm"]))
    def test_suffix_representations_agree(self, value, suffix_a, suffix_b):
        # The same physical length expressed through two suffixes parses to
        # meter values agreeing to 1e-15 relative.
        scale = {"m": 1.0, "mm": 1e-3, "um": 1e-6, "nm": 1e-9, "pm": 1e-12}
        base_meters = value * scale[suffix_a]
        rewritten = base_meters / scale[suffix_b]
        if not 1e-300 < rewritten < 1e300:
            return
        parsed_a = parse_length(f"{value!r}{suffix_a}")
        parsed_b = parse_length(f"{rewritten!r}{suffix_b}")
        assert parsed_b == pytest.approx(parsed_a, rel=1e-15)
