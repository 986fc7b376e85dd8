import csv
import io
import json
import math
import tracemalloc
from enum import Enum, IntEnum

import pytest
from hypothesis import example, given, settings, strategies as st

import casimir_kit
from casimir_kit.cli import _HANDLERS, _build_envelope, build_parser
from casimir_kit.errors import DomainError, ParseError
from casimir_kit.output import (
    TOOL_VERSION,
    OutputEnvelope,
    OutputFormat,
    RunConfig,
    Table,
    UnitSystem,
    _MARKER,
    _format_cell,
    format_significant,
    load_config_file,
    make_metadata,
    render_csv,
    render_envelope,
    render_text,
    resolve_config,
)
from casimir_kit.paradox import ScenarioClassification
from json_oracle import envelope_data, expected_json


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig()
        assert config.unit_system is UnitSystem.SI
        assert config.precision == 10
        assert config.output_format is OutputFormat.JSON
        assert config.default_N == 1000

    @pytest.mark.parametrize("precision", [3, 18, 0])
    def test_precision_range(self, precision):
        with pytest.raises(DomainError):
            RunConfig(precision=precision)

    def test_default_N_positive(self):
        with pytest.raises(DomainError):
            RunConfig(default_N=0)

    @pytest.mark.parametrize("kwargs", [{"precision": 10 ** 5000},
                                        {"default_N": -10 ** 5000}])
    def test_huge_ints_rejected(self, kwargs):
        # repr() of an int past 4300 digits raises ValueError.
        with pytest.raises(DomainError):
            RunConfig(**kwargs)


class TestConfigFile:
    def test_parse_and_merge(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# batch defaults\n"
            "units = natural\n"
            "precision = 6   # trailing comment\n"
            "\n"
            "format = csv\n"
            "default_n = 50\n")
        values = load_config_file(path)
        config = resolve_config(values)
        assert config.unit_system is UnitSystem.NATURAL
        assert config.precision == 6
        assert config.output_format is OutputFormat.CSV
        assert config.default_N == 50

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("units = natural\nprecision = 6\n")
        config = resolve_config(load_config_file(path), units="si", precision=12)
        assert config.unit_system is UnitSystem.SI
        assert config.precision == 12

    def test_later_key_wins(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("precision = 6\nprecision = 8\n")
        assert resolve_config(load_config_file(path)).precision == 8

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("color = blue\n")
        with pytest.raises(ParseError, match="color"):
            load_config_file(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("precision 6\n")
        with pytest.raises(ParseError):
            load_config_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("precision = many\n")
        with pytest.raises(ParseError):
            resolve_config(load_config_file(path))


class TestFormatting:
    def test_exact_significant_digits(self):
        assert format_significant(-1.3001257724477536e-3, 10) == "-1.300125772e-03"
        assert format_significant(1.0, 4) == "1.000e+00"
        assert format_significant(0.0, 5) == "0.0000e+00"
        assert format_significant(3.141592653589793, 17) == "3.1415926535897931e+00"


class TestEnvelope:
    def _sample(self):
        return OutputEnvelope(
            command="paradox",
            inputs={"Li": "1um", "Li_value": 1e-6, "L_o": "infinity", "Pi": None},
            results={"P_o": 0.0, "rows": Table(("n", "value"), [(1, 2.5)])},
            metadata=make_metadata("codata", "attractive_negative"),
        )

    def test_json_round_trip(self):
        envelope = self._sample()
        parsed = json.loads(envelope.to_json())
        assert parsed == envelope_data(envelope)
        assert json.dumps(parsed, indent=2) + "\n" == envelope.to_json()

    def test_unbounded_serializes_as_infinity_string(self):
        parsed = json.loads(self._sample().to_json())
        assert parsed["inputs"]["L_o"] == "infinity"
        assert parsed["inputs"]["Pi"] is None

    def test_metadata_always_carries_conventions(self):
        metadata = self._sample().metadata
        assert metadata["sign_convention"] == "attractive_negative"
        assert "energy_per_area" in metadata["volumetric_density_definition"]
        assert metadata["constants_source"] == "codata"
        assert metadata["tool_version"]

    def test_csv_uses_rows_table(self):
        text = render_csv(self._sample(), precision=6)
        assert text == "n,value\n1,2.50000e+00\n"

    def test_csv_falls_back_to_scalar_results(self):
        envelope = OutputEnvelope(command="force", inputs={},
                                  results={"force_per_area": -1.25e-3})
        assert render_csv(envelope, precision=5) == \
            "force_per_area\n-1.2500e-03\n"

    def test_text_sections(self):
        text = render_text(self._sample(), precision=6)
        assert text.startswith("command: paradox\n")
        assert "  L_o = infinity\n" in text
        assert "  Pi = none\n" in text
        assert "rows:\n  n,value\n  1,2.50000e+00" in text

    def test_render_dispatch(self):
        envelope = self._sample()
        assert render_envelope(envelope, RunConfig()) == envelope.to_json()
        assert render_envelope(
            envelope, RunConfig(output_format=OutputFormat.CSV)).startswith("n,value")
        assert render_envelope(
            envelope, RunConfig(output_format=OutputFormat.TEXT)).startswith("command:")


class _Level(IntEnum):
    LOW = 1
    HIGH = 2


class _Scale(Enum):
    MILLI = 1e-3
    UNIT = 1.0


_KEYS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "%", "%s", "%%", "\x00\x1f\x7f", "\u00e9",
                     "\u2028", "\U0001f600", "n"]),
)
# Finite only: a nan or infinite float makes the emitter raise (see
# test_non_finite_float_raises), where json.dumps would write NaN/Infinity.
_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1e308,
                     1.7976931348623157e308]),
)
_INTS = st.one_of(st.integers(), st.integers(min_value=-10**300, max_value=10**300))
_SCALARS = st.one_of(
    _FLOATS, _INTS, st.booleans(), st.none(), _KEYS,
    st.sampled_from([UnitSystem.NATURAL, OutputFormat.CSV,
                     ScenarioClassification.DIVERGING_OUTSIDE, _Level.HIGH,
                     _Scale.MILLI, "infinity"]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=12,
)
_COLUMN_KINDS = st.sampled_from([
    _FLOATS,
    _INTS,
    st.one_of(st.integers(), _FLOATS),
    st.one_of(st.booleans(), st.integers()),
    st.one_of(_FLOATS, st.none()),
    _VALUES,
])

# Tables of these kinds print every row through one %-template per table,
# except that a column of two or more 1e308 sums to inf, which sends its
# table down the per-cell path.
_NUMERIC_KINDS = st.sampled_from([_FLOATS, _INTS, st.just(1e308)])
# Pinned examples: -0.0 and 5e-324 next to an int column, and the 1e308 pair.
_NUMERIC_TABLE = Table(("n", "x"), [(1, -0.0), (-2, 5e-324)])
_OVERFLOWING_TABLE = Table(("x", "n"), [(1e308, 1), (1e308, 2)])
# A numeric table two levels deep, an empty table, and containers in cells.
_NESTED_TABLES = {"deep": [[_NUMERIC_TABLE]], "empty": Table(("n",)),
                  "cells": Table(("d", "l"), [({"k": [1.5, {}]}, [None, _Level.HIGH])])}


@st.composite
def _row_tables(draw):
    keys = draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True))
    count = draw(st.integers(min_value=1, max_value=6))
    columns = [draw(st.lists(draw(_COLUMN_KINDS), min_size=count, max_size=count))
               for _ in keys]
    rows = [dict(zip(keys, values)) for values in zip(*columns)]
    if draw(st.booleans()):
        orders = draw(st.lists(st.permutations(keys), min_size=count, max_size=count))
        rows = [{key: row[key] for key in order} for row, order in zip(rows, orders)]
    return rows


@st.composite
def _tables(draw, kinds):
    """``Table``s of unique awkward fields, each column of a kind from ``kinds``."""
    fields = draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True))
    count = draw(st.integers(min_value=0, max_value=6))
    columns = [draw(st.lists(draw(kinds), min_size=count, max_size=count))
               for _ in fields]
    return Table(fields, zip(*columns))


@st.composite
def _envelopes(draw):
    results = draw(st.dictionaries(_KEYS, _VALUES, max_size=4))
    if draw(st.booleans()):
        results["rows"] = draw(st.one_of(_tables(_COLUMN_KINDS), _row_tables(),
                                         _tables(_NUMERIC_KINDS)))
    if draw(st.booleans()):  # tables nested one and two levels deeper
        results["tables"] = [draw(_row_tables()), [], {}, [draw(_row_tables())],
                             draw(_tables(_COLUMN_KINDS)),
                             [draw(_tables(_COLUMN_KINDS))]]
    return OutputEnvelope(
        command=draw(_KEYS),
        inputs=draw(st.dictionaries(_KEYS, _VALUES, max_size=4)),
        results=results,
        metadata=draw(st.dictionaries(_KEYS, _VALUES, max_size=3)),
    )


class TestJsonEmitter:
    @settings(max_examples=200, deadline=None)
    @given(_envelopes())
    @example(OutputEnvelope(command="x", inputs={}, results={
        "rows": _NUMERIC_TABLE, "tables": [_OVERFLOWING_TABLE]}))
    @example(OutputEnvelope(command="x", inputs={}, results=_NESTED_TABLES))
    def test_matches_stdlib_indent_2(self, envelope):
        assert envelope.to_json() == expected_json(envelope)

    @pytest.mark.parametrize("text", [_MARKER % 0, '"' + _MARKER % 0],
                             ids=["marker", "quote-marker"])
    def test_marker_text_in_envelope(self, text):
        # Splicing at a string of the envelope's own would corrupt it.
        envelope = OutputEnvelope(command="x", inputs={"s": text, text: [text]},
                                  results={"rows": _NUMERIC_TABLE,
                                           "more": [_OVERFLOWING_TABLE, _NUMERIC_TABLE]})
        assert envelope.to_json() == expected_json(envelope)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises(self, value):
        for results in ({"x": value}, {"rows": [{"x": 1.0}, {"x": value}]},
                        {"rows": Table(("x",), [(1.0,), (value,)])}):
            envelope = OutputEnvelope(command="x", inputs={}, results=results)
            with pytest.raises(ValueError, match="not JSON compliant"):
                envelope.to_json()

    def test_table_without_fields_rejected(self):
        # Rows of no cells would vanish from every format.
        with pytest.raises(ValueError, match="at least one field"):
            Table((), [()])

    def test_duplicate_fields_rejected(self):
        # JSON would keep one of the two cells, CSV and text both.
        with pytest.raises(ValueError, match="unique"):
            Table(("a", "b", "a"), [(1, 2, 3)])

    def test_non_str_keys_rejected(self):
        with pytest.raises(TypeError):
            OutputEnvelope(command="x", inputs={1: 2}, results={}).to_json()

    @pytest.mark.parametrize("results", [
        {"rows": Table(("a", "b"), [(1, {"k": {2: 3}})])},
        {"rows": [{"a": 1}, {None: 3}]},
        {"rows": Table((1,), [(1.0,)])},
        {"rows": Table((1.5,), [("a",)])},
        {"x": [{1, 2}]},
        {"x": {"y": object()}},
        {"rows": Table(("a",), [(b"bytes",)])},
    ])
    def test_refused_at_any_depth(self, results):
        with pytest.raises(TypeError):
            OutputEnvelope(command="x", inputs={}, results=results).to_json()


# Columns for CSV and text: the JSON scalars plus nan/inf and delimiter
# texts, mixed per cell, or columns of one kind for the one-pass paths.
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_DELIMITED_KINDS = st.sampled_from([
    st.one_of(_SCALARS, _NON_FINITE, st.sampled_from([",", '"', 'a,"b"', "\n"])),
    _FLOATS,
    st.one_of(_FLOATS, _NON_FINITE),
    _INTS,
    st.one_of(st.booleans(), st.integers()),
])


class TestDelimitedTables:
    """CSV and text rows match formatting each cell with ``_format_cell``."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_tables(_DELIMITED_KINDS), _tables(_NUMERIC_KINDS)),
           st.integers(min_value=4, max_value=17))
    @example(_NUMERIC_TABLE, 17)
    @example(_OVERFLOWING_TABLE, 4)
    def test_match_cell_by_cell_oracle(self, table, precision):
        cells = [[_format_cell(value, precision) for value in row] for row in table]
        envelope = OutputEnvelope(command="x", inputs={}, results={"rows": table})
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(table.fields)
        writer.writerows(cells)
        assert render_csv(envelope, precision) == buffer.getvalue()
        rows = ["rows:", "  " + ",".join(table.fields),
                *("  " + ",".join(row) for row in cells)] if table else []
        assert render_text(envelope, precision) == "\n".join(
            ["command: x", "inputs:", "results:", *rows, "metadata:"]) + "\n"

    @pytest.mark.parametrize("value, text", [
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf")])
    def test_non_finite_floats_print_but_fail_json(self, value, text):
        envelope = OutputEnvelope(command="x", inputs={}, results={
            "rows": Table(("n", "x"), [(1, 1.0), (2, value)])})
        assert render_csv(envelope, 4) == f"n,x\n1,1.000e+00\n2,{text}\n"
        assert render_text(envelope, 4).endswith(
            f"rows:\n  n,x\n  1,1.000e+00\n  2,{text}\nmetadata:\n")
        with pytest.raises(ValueError, match="not JSON compliant"):
            envelope.to_json()

    def test_enum_cell_with_int_value(self):
        envelope = OutputEnvelope(command="x", inputs={}, results={
            "rows": Table(("level", "scale"), [(_Level.HIGH, _Scale.MILLI)])})
        assert render_text(envelope, 6).endswith("rows:\n  level,scale\n  2,0.001\n"
                                                 "metadata:\n")
        assert render_csv(envelope, 6) == "level,scale\n2,0.001\n"

    def test_unit_system_cell_prints_its_spelling(self):
        envelope = OutputEnvelope(command="x", inputs={}, results={
            "rows": Table(("units",), [(UnitSystem.NATURAL,)])})
        assert json.loads(envelope.to_json())["results"]["rows"] == [
            {"units": "natural"}]
        assert render_csv(envelope, 6) == "units\nnatural\n"
        assert render_text(envelope, 6).endswith(
            "rows:\n  units\n  natural\nmetadata:\n")


@pytest.mark.parametrize("argv", [
    ["modes", "--gap", "1um", "--n-max", "10000"],
    ["sweep", "--quantity", "force", "--min", "10nm", "--max", "100um",
     "--count", "10000"],
], ids=["modes", "sweep-log"])
def test_json_render_peak_memory(argv):
    # Byte-identity cannot see an extra copy of the document; the peak can.
    # One row string per row plus the joined document read about 2.2-2.6x.
    args = build_parser().parse_args(argv)
    inputs, results = _HANDLERS[argv[0]](args, RunConfig())
    envelope = _build_envelope(args, RunConfig(), inputs, results)
    tracemalloc.start()
    try:
        text = render_envelope(envelope, RunConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * len(text)


def test_version_has_one_source():
    assert casimir_kit.__version__ == TOOL_VERSION
