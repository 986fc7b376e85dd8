"""Run configuration, output envelopes, and deterministic serialization.

Every command emits one :class:`OutputEnvelope`.  JSON output keeps full
``repr`` precision so payloads round-trip bit-exactly; text and CSV output
format every float with exactly ``precision`` significant digits, with a
``.`` decimal separator regardless of locale.  Nothing time- or
environment-dependent is ever written, so identical invocations produce
byte-identical output.

JSON is written by a small emitter of its own whose output is byte-identical
to ``json.dumps(envelope.to_dict(), indent=2) + "\n"``: floats through
``float.__repr__``, ints through ``int.__repr__``, strings through the
stdlib's ``encode_basestring_ascii`` and enums as their values; dict keys
must be strings.  A nan or infinite float raises ``ValueError`` (as
``allow_nan=False`` does), so stdout never carries ``NaN`` or ``Infinity``.
It reads the envelope's fields in place rather than copying them through
:meth:`OutputEnvelope.to_dict`.  The stdlib encoder cannot be used
directly for speed, because with ``indent`` set it always falls back to its
pure-Python path.

A table travels as a :class:`Table` of row tuples, and all three formats
print each row through one ``%``-template built once per table
(:func:`_row_cells`); JSON writes each row as an object keyed by the table's
fields.  When every column holds only finite floats or only ints, each row
tuple fills its template in one ``%`` operation (``%r``, or ``%.{p-1}e`` in
CSV and text, for floats; ``%d`` for ints).  Any other table is printed cell
by cell, and its CSV rows go through :mod:`csv` for quoting.  Any other list
is encoded item by item.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field
from enum import Enum
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
        if not 4 <= self.precision <= 17:
            raise DomainError(
                f"precision must lie in [4, 17], got {self.precision!r}")
        if self.default_N < 1:
            raise DomainError(f"default_N must be at least 1, got {self.default_N!r}")


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


def _jsonable(obj):
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, Table):
        return [{key: _jsonable(val) for key, val in zip(obj.fields, row)}
                for row in obj]
    if isinstance(obj, dict):
        return {key: _jsonable(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(item) for item in obj]
    return obj


@dataclass(frozen=True)
class OutputEnvelope:
    """One command's inputs, results, and provenance metadata."""

    command: str
    inputs: dict
    results: dict
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "inputs": _jsonable(self.inputs),
            "results": _jsonable(self.results),
            "metadata": _jsonable(self.metadata),
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2) + "\\n"``, byte for byte."""
        return _encode({
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "metadata": self.metadata,
        }, "") + "\n"


_INDENT = "  "


def _key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"JSON keys must be str, not {type(key).__name__}")
    return encode_basestring_ascii(key)


def _encode(obj, indent: str) -> str:
    """JSON text of ``obj`` as ``json.dumps(_jsonable(obj), indent=2)`` writes it.

    ``indent`` is the indentation of the line on which ``obj`` starts.
    """
    if isinstance(obj, Enum):
        obj = obj.value
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"float {obj!r} is not JSON compliant")
        return float.__repr__(obj)
    inner = indent + _INDENT
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (_table_rows(obj, inner) if isinstance(obj, Table)
                 else [_encode(item, inner) for item in obj])
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{\n" + ",\n".join(
            inner + _key(key) + ": " + _encode(value, inner)
            for key, value in obj.items()) + "\n" + indent + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _table_rows(table: Table, indent: str):
    """Each row of ``table`` as a JSON object; ``indent`` is each row's own."""
    inner = indent + _INDENT
    conversions, rows = _row_cells(table, "%r", lambda value: _encode(value, inner))
    template = "{\n" + ",\n".join(
        inner + _key(key).replace("%", "%%") + ": " + conversion
        for key, conversion in zip(table.fields, conversions)
    ) + "\n" + indent + "}"
    return map(template.__mod__, rows)


def _row_cells(table: Table, float_conversion: str, cell_text):
    """``(conversions, rows)``: a ``%`` conversion per field, and row tuples.

    A template made of the conversions, filled with one of the rows, prints
    that row.  If every row is a tuple and every column holds only finite
    floats or only ints, the conversions are ``float_conversion`` or ``%d``
    and the rows are the table's own.  Otherwise every conversion is ``%s``
    and each row is a tuple of ``cell_text`` of its cells.
    """
    if all(issubclass(kind, tuple) for kind in set(map(type, table))):
        conversions = []
        for column in zip(*table, strict=True):
            kinds = set(map(type, column))
            # A sum of floats is finite only if every term is.
            if kinds == {float} and math.isfinite(sum(column)):
                conversions.append(float_conversion)
            elif kinds == {int}:
                conversions.append("%d")
            else:
                break
        else:
            if len(conversions) == len(table.fields):
                return conversions, table
    return (["%s"] * len(table.fields),
            [tuple(map(cell_text, row)) for row in table])


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
    """:func:`_row_cells` of ``table`` for CSV and text output."""
    return _row_cells(table, f"%.{precision - 1}e",
                      lambda value: _format_cell(value, precision))


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
