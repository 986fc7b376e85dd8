"""Run configuration, output envelopes, and deterministic serialization.

Every command emits one :class:`OutputEnvelope`.  JSON output keeps full
``repr`` precision so payloads round-trip bit-exactly; text and CSV output
format every float with exactly ``precision`` significant digits, with a
``.`` decimal separator regardless of locale.  Nothing time- or
environment-dependent is ever written, so identical invocations produce
byte-identical output.

JSON is ``json.dumps(<envelope as plain data>, indent=2) + "\\n"``, the plain
data having enums as their values and each :class:`Table` as row objects
keyed by its fields.  Dict keys must be strings, and a nan or infinite float
raises ``ValueError``, so stdout never carries ``NaN`` or ``Infinity``.  The
stdlib writes all but the numeric tables (tuple rows, each column only finite
floats or only ints): each enters as a marker string, which is then replaced
by its rows, each printed through one ``%``-template built once per table
(``%r`` for floats, ``%d`` for ints).  Should a marker's text occur twice,
every table goes through the stdlib.  CSV and text print numeric tables
through the same templates, with ``%.{p-1}e`` for floats; any other table is
printed cell by cell, and its CSV rows go through :mod:`csv` for quoting.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import DomainError, ParseError
from .units import UnitSystem

__all__ = [
    "UnitSystem",
    "OutputFormat",
    "RunConfig",
    "OutputEnvelope",
    "Table",
    "CONFIG_ENV_VAR",
    "TOOL_VERSION",
    "VOLUMETRIC_DENSITY_DEFINITION",
    "format_significant",
    "load_config_file",
    "resolve_config",
    "render_envelope",
]

TOOL_VERSION = "0.1.0"

CONFIG_ENV_VAR = "CASIMIR_KIT_CONFIG"

# The geometry's only volume is plate area times gap; this definition is
# stamped into every output's metadata so the convention is never implicit.
VOLUMETRIC_DENSITY_DEFINITION = "volumetric_energy_density = |energy_per_area| / gap"


class OutputFormat(str, Enum):
    JSON = "json"
    CSV = "csv"
    TEXT = "text"


@dataclass(frozen=True)
class RunConfig:
    unit_system: UnitSystem = UnitSystem.SI
    precision: int = 10
    output_format: OutputFormat = OutputFormat.JSON
    default_N: int = 1000

    def __post_init__(self) -> None:
        # No values in the texts: past 4300 digits repr() raises ValueError.
        if not 4 <= self.precision <= 17:
            raise DomainError("precision must lie in [4, 17]")
        if self.default_N < 1:
            raise DomainError("default_N must be at least 1")


_CONFIG_KEYS = ("units", "precision", "format", "default_n")


def load_config_file(path: str | Path) -> dict[str, str]:
    """Read ``key = value`` lines; ``#`` starts a comment, later keys win."""
    values: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key = value', got '{raw.strip()}'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"{path}:{lineno}: unknown config key '{key}'")
        values[key] = value
    return values


def resolve_config(
        file_values: dict[str, str] | None = None,
        units: str | None = None,
        precision: int | None = None,
        output_format: str | None = None,
) -> RunConfig:
    """Merge defaults, config-file values, and explicit flags (flags win)."""
    file_values = file_values or {}
    kwargs = {}
    for name, flag, key, cast in (
            ("unit_system", units, "units", UnitSystem),
            ("precision", precision, "precision", int),
            ("output_format", output_format, "format", OutputFormat),
            ("default_N", None, "default_n", int)):
        if flag is not None:
            kwargs[name] = cast(flag)
        elif key in file_values:
            try:
                kwargs[name] = cast(file_values[key])
            except ValueError as exc:
                raise ParseError(
                    f"bad config value for '{key}': {file_values[key]!r}") from exc
    return RunConfig(**kwargs)


def default_config_file() -> dict[str, str]:
    """Config values from the file named by CASIMIR_KIT_CONFIG, if set."""
    path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    return load_config_file(path)


def format_significant(value: float, digits: int) -> str:
    """Exactly ``digits`` significant digits in scientific notation."""
    return f"{value:.{digits - 1}e}"


class Table(list):
    """Rows as tuples, plus ``fields``: the JSON keys and the CSV/text header."""

    def __init__(self, fields, rows=()) -> None:
        super().__init__(rows)
        self.fields = tuple(fields)
        if not self.fields:
            raise ValueError("a table needs at least one field")
        if len(set(self.fields)) < len(self.fields):  # a JSON object keeps one
            raise ValueError("table fields must be unique")


@dataclass(frozen=True)
class OutputEnvelope:
    """One command's inputs, results, and provenance metadata."""

    command: str
    inputs: dict
    results: dict
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """``json.dumps(<envelope as plain data>, indent=2) + "\\n"``, byte for byte."""
        envelope = {"command": self.command, "inputs": self.inputs,
                    "results": self.results, "metadata": self.metadata}
        tables = []
        text = _dumps(_skeleton(envelope, tables))
        markers = [_dumps(_MARKER % index) for index in range(len(tables))]
        # A string of the envelope's own may hold a marker's JSON text.
        if any(text.count(marker) != 1 for marker in markers):
            return _dumps(_skeleton(envelope, None)) + "\n"
        parts = []
        start = 0
        for marker, (table, conversions) in zip(markers, tables):
            at = text.index(marker, start)
            line = text[text.rfind("\n", 0, at) + 1:at]
            indent = line[:len(line) - len(line.lstrip(" "))]
            inner = indent + "  "
            template = "{\n" + ",\n".join(
                inner + "  " + encode_basestring_ascii(key).replace("%", "%%")
                + ": " + conversion
                for key, conversion in zip(table.fields, conversions)
            ) + "\n" + inner + "}"
            parts += text[start:at], "[\n", inner, template % table[0]
            parts += map((",\n" + inner + template).__mod__, islice(table, 1, None))
            parts.append("\n" + indent + "]")
            start = at + len(marker)
        parts += text[start:], "\n"
        return "".join(parts)


def _enum_value(obj):
    if isinstance(obj, Enum):
        return obj.value
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


_dumps = partial(json.dumps, indent=2, allow_nan=False, default=_enum_value)

_MARKER = "\0casimir_kit.table.%d"


def _skeleton(obj, tables):
    """A copy of ``obj`` for :func:`json.dumps`, each ``Table`` as row dicts.

    Unless ``tables`` is None, a numeric table (:func:`_numeric_conversions`)
    is appended to it with its conversions, and copied as its ``_MARKER``.
    """
    if isinstance(obj, Table):
        conversions = None if tables is None else _numeric_conversions(obj, "%r")
        if conversions is not None:
            tables.append((obj, conversions))
            return _MARKER % (len(tables) - 1)
        obj = [dict(zip(obj.fields, row)) for row in obj]
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):  # json.dumps casts them
            raise TypeError("JSON keys must be str")
        return {key: _skeleton(value, tables) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_skeleton(item, tables) for item in obj]
    return obj


def _numeric_conversions(table: Table, float_conversion: str):
    """A ``%`` conversion per field that prints a row of ``table``, or None.

    They exist if every row is a tuple and every column holds only finite
    floats (``float_conversion``) or only ints (``%d``); a template made of
    them, filled with one row tuple, prints that row.
    """
    if not all(issubclass(kind, tuple) for kind in set(map(type, table))):
        return None
    conversions = []
    for column in zip(*table, strict=True):
        kinds = set(map(type, column))
        # A sum of floats is finite only if every term is.
        if kinds == {float} and math.isfinite(sum(column)):
            conversions.append(float_conversion)
        elif kinds == {int}:
            conversions.append("%d")
        else:
            return None
    return conversions if len(conversions) == len(table.fields) else None


def make_metadata(constants_source: str, sign_convention: str) -> dict:
    """Metadata block carried by every envelope.

    Always records the sign convention and the volumetric-density
    definition: the two conventions this tool fixes explicitly.
    """
    return {
        "constants_source": constants_source,
        "sign_convention": sign_convention,
        "volumetric_density_definition": VOLUMETRIC_DENSITY_DEFINITION,
        "tool_version": TOOL_VERSION,
    }


def _format_cell(value, precision: int) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return format_significant(value, precision)
    if isinstance(value, Enum):
        return str(value.value)
    return str(value)


def _delimited_cells(table: Table, precision: int):
    """``(conversions, rows)``: numeric rows as they are, else each cell's text."""
    conversions = _numeric_conversions(table, f"%.{precision - 1}e")
    if conversions is not None:
        return conversions, table
    return (["%s"] * len(table.fields),
            [tuple(_format_cell(value, precision) for value in row) for row in table])


def render_csv(envelope: OutputEnvelope, precision: int) -> str:
    """The ``rows`` table, else the results as one row, under a header row."""
    results = envelope.results
    table = results.get("rows")
    if table is None:
        table = Table(results, [tuple(results.values())])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(table.fields)
    conversions, rows = _delimited_cells(table, precision)
    if rows is table:  # numbers only: nothing to quote
        buffer.writelines(map((",".join(conversions) + "\n").__mod__, rows))
    else:
        writer.writerows(rows)
    return buffer.getvalue()


def render_text(envelope: OutputEnvelope, precision: int) -> str:
    lines = [f"command: {envelope.command}"]

    def _section(title: str, mapping: dict) -> None:
        lines.append(f"{title}:")
        for key, value in mapping.items():
            if key == "rows":
                continue
            lines.append(f"  {key} = {_format_cell(value, precision)}")

    _section("inputs", envelope.inputs)
    _section("results", envelope.results)
    table = envelope.results.get("rows")
    if table:
        lines.append("rows:")
        lines.append("  " + ",".join(table.fields))
        conversions, rows = _delimited_cells(table, precision)
        lines.extend(map(("  " + ",".join(conversions)).__mod__, rows))
    _section("metadata", envelope.metadata)
    return "\n".join(lines) + "\n"


def render_envelope(envelope: OutputEnvelope, config: RunConfig) -> str:
    if config.output_format is OutputFormat.JSON:
        return envelope.to_json()
    if config.output_format is OutputFormat.CSV:
        return render_csv(envelope, config.precision)
    return render_text(envelope, config.precision)
