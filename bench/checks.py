"""Correctness checks for benchmark outputs, against an mpmath oracle.

Every check returns a list of problems; an empty list means the output is
correct.  Values are compared with formulas evaluated at 40 digits, never
with the package's own closed forms.

Tolerances:

* JSON keeps full ``repr`` precision, so a JSON value must be bit-close:
  within ``VALUE_ULPS`` ulps of the exact value at the printed input.  The
  per-state and pressure formulas take up to six rounded float operations.
* Geometric sweep grids come from ``numpy.geomspace``, which goes through
  ``10**x``; the error of ``x`` is amplified by ``ln 10 * |x|``, so interior
  grid points are allowed ``GRID_ULPS``.
* CSV and text print ``precision`` significant digits, so a value must lie
  within half a unit of its last printed digit (plus ``VALUE_ULPS``).
* Library results must lie within their own error bound of the exact value,
  plus ``VALUE_ULPS`` ulps of rounding: none of the bounds the package
  reports include rounding.
"""

from __future__ import annotations

import csv
import io
import json
import math

import mpmath

VALUE_ULPS = 8
GRID_ULPS = 64
SAMPLE_ROWS = 24

# CODATA 2018 values the package documents for SI runs.
_DPS = 40
with mpmath.workdps(_DPS):
    HBAR = mpmath.mpf("1.054571817e-34")
    C = mpmath.mpf(299792458)


def _mp(x) -> mpmath.mpf:
    return mpmath.mpf(x)


def _ulp_close(value: float, exact, ulps: int = VALUE_ULPS) -> bool:
    return abs(_mp(value) - exact) <= ulps * _mp(math.ulp(float(exact)))


def _reject_constant(name):
    raise ValueError(f"non-finite JSON token {name}")


def strict_json(text: str):
    """Parse JSON, refusing the ``NaN``/``Infinity`` tokens."""
    return json.loads(text, parse_constant=_reject_constant)


def check_golden(out: bytes, golden: bytes) -> list[str]:
    if out != golden:
        return [f"stdout differs from the golden file ({len(out)} vs "
                f"{len(golden)} bytes)"]
    return []


# --- tables -----------------------------------------------------------------

def _modes_exact(n: int, a: float) -> dict:
    A = _mp(a)
    return {
        "n": _mp(n),
        "k_n": n * mpmath.pi / A,
        "p_n": HBAR * n * mpmath.pi / A,
        "delta_x_xy": A / (2 * n * mpmath.pi),
        "n_z": _mp(1) / n,
        "area_n": 4 * _mp(n) ** 4 * mpmath.pi ** 2 * A ** 2,
    }


def _grid_exact(op: dict, i: int):
    lo, hi, count = _mp(op["min"]), _mp(op["max"]), op["count"]
    if count == 1:
        return lo
    t = _mp(i) / (count - 1)
    if op["scale"] == "log":
        return lo * (hi / lo) ** t
    return lo + (hi - lo) * t


def _sweep_exact(quantity: str, gap) -> mpmath.mpf:
    if quantity == "force":
        return -HBAR * C * mpmath.pi ** 2 / (240 * gap ** 4)
    return -HBAR * C * mpmath.pi ** 2 / (720 * gap ** 3)


def _printed_close(text: str, exact, precision: int) -> bool:
    """``text`` is ``exact`` rounded to ``precision`` significant digits."""
    value = float(text)
    if value == 0.0:
        return exact == 0
    half_unit = _mp(10) ** (mpmath.floor(mpmath.log10(abs(_mp(value))))
                            - precision + 1) / 2
    slack = VALUE_ULPS * _mp(math.ulp(value))
    return abs(_mp(value) - exact) <= half_unit + slack


def _read_rows(out: str, fmt: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV or text table, as strings."""
    if fmt == "csv":
        table = list(csv.reader(io.StringIO(out)))
        return table[0], table[1:]
    lines = out.split("\n")
    start = lines.index("rows:") + 1
    header = lines[start].strip().split(",")
    rows = []
    for line in lines[start + 1:]:
        if not line.startswith("  "):
            break
        rows.append(line.strip().split(","))
    return header, rows


def check_table(out: bytes, op: dict, rng) -> list[str]:
    """A ``modes`` or ``sweep`` table: row count and sampled rows.

    The first and last rows are always checked; ``SAMPLE_ROWS`` more are
    drawn with ``rng``.
    """
    fmt, command = op["format"], op["command"]
    text = out.decode("utf-8")
    expected_rows = op["n_max"] if command == "modes" else op["count"]
    if fmt == "json":
        rows = strict_json(text)["results"]["rows"]
    else:
        header, cells = _read_rows(text, fmt)
        rows = [dict(zip(header, row)) for row in cells]
    if len(rows) != expected_rows:
        return [f"{len(rows)} rows, expected {expected_rows}"]
    picks = {0, len(rows) - 1}
    picks.update(rng.sample(range(len(rows)), min(SAMPLE_ROWS, len(rows))))
    problems = []
    with mpmath.workdps(_DPS):
        for i in sorted(picks):
            row = rows[i]
            if command == "modes":
                expected = _modes_exact(i + 1, op["gap_value"])
            else:
                exact_gap = _grid_exact(op, i)
                if fmt == "json":
                    # The value is checked at the gap actually printed.
                    if not _ulp_close(row["gap_value"], exact_gap, GRID_ULPS):
                        problems.append(f"row {i}: gap_value {row['gap_value']!r}")
                    at = _mp(row["gap_value"])
                else:
                    at = exact_gap
                expected = {"gap_value": exact_gap,
                            "value": _sweep_exact(op["quantity"], at)}
            for key, exact in expected.items():
                if command == "sweep" and key == "gap_value" and fmt == "json":
                    continue
                got = row[key]
                if key == "n":
                    ok = int(got) == i + 1
                elif fmt == "json":
                    ok = isinstance(got, float) and _ulp_close(got, exact)
                else:
                    ok = _printed_close(got, exact, op["precision"])
                if not ok:
                    problems.append(f"row {i}: {key} = {got!r}")
    return problems


# --- library ------------------------------------------------------------------

def _within(value: float, exact, bound: float) -> bool:
    return abs(_mp(value) - exact) <= _mp(bound) + VALUE_ULPS * _mp(
        math.ulp(float(exact)))


def check_library(result: dict, op: dict) -> list[str]:
    """One library operation's results against mpmath ``zeta(4)``."""
    problems = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    with mpmath.workdps(_DPS):
        zeta4 = mpmath.zeta(4)

        def energy_exact(gap: float):
            return -HBAR * C / (8 * mpmath.pi ** 2 * _mp(gap) ** 3) * zeta4

        def check_energy(item: dict, gap: float, label: str) -> None:
            exact = energy_exact(gap)
            expect(_within(item["series_value"], exact, item["truncation_bound"]),
                   f"{label}: series_value {item['series_value']!r}")
            expect(_ulp_close(item["closed_form_value"], exact),
                   f"{label}: closed_form_value {item['closed_form_value']!r}")

        gap = op["gap"]
        check_energy(result["energy"], gap, "energy")
        expect(result["energy"]["terms_used"] == op["N"], "energy: terms_used")
        expect([row["N"] for row in result["convergence"]] == op["Ns"],
               "convergence: truncation points")
        for row in result["convergence"]:
            check_energy(row, gap, f"convergence N={row['N']}")

        zeta = result["zeta"]
        tail = zeta4 - _mp(zeta["partial_sum"])
        slack = VALUE_ULPS * _mp(math.ulp(float(zeta4)))
        expect(zeta["tail_lower"] - slack <= tail <= zeta["tail_upper"] + slack,
               f"zeta: tail {float(tail)!r} outside its bracket")
        expect(_within(zeta["partial_sum"], zeta4, zeta["direct_error_bound"]),
               "zeta: direct sum outside its bound")
        expect(_within(zeta["euler_maclaurin"], zeta4,
                       zeta["euler_maclaurin_error_bound"]),
               "zeta: Euler-Maclaurin estimate outside its bound")
        expect(zeta["closed_form"] == float(zeta4),
               "zeta: closed form is not the correctly rounded zeta(4)")

        cutoff = result["cutoff"]
        expect(_within(cutoff["finite_part"], _mp(-1) / 12, cutoff["error_bound"]),
               f"cutoff: finite part {cutoff['finite_part']!r}")

        rho = _mp(op["rho"])
        crossing = (HBAR * C * mpmath.pi ** 2 / (720 * rho)) ** (_mp(1) / 4)
        expect(_ulp_close(result["crossover"]["closed"], crossing),
               "crossover: closed form")
        expect(abs(_mp(result["crossover"]["bisection"]) - crossing)
               <= crossing * _mp(op["bisection_rel_tol"]),
               "crossover: bisection")

        attraction = -HBAR * C * mpmath.pi ** 2 / (240 * _mp(gap) ** 4)
        one, two = result["situation_one"], result["situation_two"]
        expect(_ulp_close(one["difference"], attraction), "situation one: difference")
        expect(_ulp_close(one["P_o"], _mp(op["P_i"]) - attraction),
               "situation one: P_o")
        expect(_ulp_close(two["P_i"], attraction) and two["P_o"] == 0.0,
               "situation two: pressures")

        expect(len(result["default_n"]) == len(op["gaps"]), "default N: count")
        for small_gap, item in zip(op["gaps"], result["default_n"]):
            check_energy(item, small_gap, f"default N at {small_gap!r}")
    return problems
