import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from casimir_kit import core
from casimir_kit.cli import _HANDLERS, _build_envelope, build_parser, main
from casimir_kit.core import ModeState
from casimir_kit.errors import ImplausibleGapWarning
from casimir_kit.output import (
    RunConfig,
    _format_cell,
    make_metadata,
    resolve_config,
)
from casimir_kit.series import MAX_CUTOFF_POINTS, MAX_TERMS
from json_oracle import envelope_data

GOLDEN_DIR = Path(__file__).parent / "golden"

# One representative invocation per subcommand; the acceptance suite reuses
# this list for the determinism criterion.
GOLDEN_CASES = {
    "energy.json": ["energy", "--gap", "1um"],
    "energy_natural.txt": ["energy", "--gap", "1", "--units", "natural",
                           "--sign", "magnitude", "--format", "text"],
    "force.json": ["force", "--gap", "1um"],
    "modes.csv": ["modes", "--gap", "1", "--units", "natural",
                  "--n-max", "3", "--format", "csv"],
    "converge.json": ["converge", "--gap", "1um", "--Ns", "1,10,100,1000"],
    "zeta.json": ["zeta", "--s", "4"],
    "cutoff.json": ["cutoff"],
    "paradox_one.json": ["paradox", "--Li", "1um", "--situation", "one",
                         "--Pi", "0"],
    "paradox_two.json": ["paradox", "--Li", "1um", "--situation", "two"],
    "crossover.json": ["crossover", "--rho", "5.26e-10"],
    "sweep.csv": ["sweep", "--quantity", "force", "--min", "0.1um",
                  "--max", "10um", "--count", "10", "--format", "csv"],
}


# A minimal valid invocation of every subcommand; "{L}" stands for a length
# in the unit system under test.
SUBCOMMAND_ARGV = {
    "energy": ["--gap", "{L}"],
    "force": ["--gap", "{L}"],
    "modes": ["--gap", "{L}", "--n-max", "2"],
    "converge": ["--gap", "{L}", "--Ns", "1,10"],
    "zeta": ["--s", "4"],
    "cutoff": [],
    "paradox": ["--Li", "{L}", "--situation", "two"],
    "crossover": ["--rho", "5.26e-10"],
    "sweep": ["--quantity", "force", "--min", "{L}", "--max", "{L}",
              "--count", "2"],
}
SIGNED_COMMANDS = {"energy", "converge", "sweep"}


def subcommand_argv(command, units):
    length = "1um" if units == "si" else "1"
    return ([command] + [arg.replace("{L}", length)
                         for arg in SUBCOMMAND_ARGV[command]]
            + ["--units", units])


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    return json.loads(out)


def _bit_equal(a, b) -> bool:
    """Equal JSON values, floats compared bit for bit, key order included."""
    if isinstance(b, float):
        return isinstance(a, float) and a.hex() == b.hex()
    if isinstance(b, dict):
        return (isinstance(a, dict) and list(a) == list(b)
                and all(_bit_equal(a[key], b[key]) for key in b))
    if isinstance(b, list):
        return (isinstance(a, list) and len(a) == len(b)
                and all(map(_bit_equal, a, b)))
    return type(a) is type(b) and a == b


class TestEnergyCommand:
    def test_si_micron_negative(self, capsys):
        payload = run_json(["energy", "--gap", "1um", "--sign", "negative"], capsys)
        results = payload["results"]
        assert results["closed_form_value"] == pytest.approx(-4.3337e-10, rel=1e-4)
        assert abs(results["closed_form_value"] - results["series_value"]) <= \
            results["truncation_bound"]
        assert results["terms_used"] == 1000
        assert payload["metadata"]["sign_convention"] == "attractive_negative"

    def test_natural_magnitude(self, capsys):
        payload = run_json(["energy", "--gap", "1", "--units", "natural",
                            "--sign", "magnitude"], capsys)
        assert payload["results"]["closed_form_value"] == pytest.approx(
            0.01370778, abs=1e-8)
        assert payload["metadata"]["constants_source"] == "natural"

    def test_negative_gap_rejected(self, capsys):
        code, out, err = run_cli(["energy", "--gap=-1um"], capsys)
        assert code == 2
        assert out == ""
        assert "gap must be positive" in err
        assert err.strip().count("\n") == 0  # single-line diagnostic

    def test_custom_truncation(self, capsys):
        payload = run_json(["energy", "--gap", "1um", "--N", "10"], capsys)
        assert payload["results"]["terms_used"] == 10


class TestForceCommand:
    def test_si_micron(self, capsys):
        payload = run_json(["force", "--gap", "1um"], capsys)
        assert payload["results"]["force_per_area"] == pytest.approx(
            -1.3002e-3, rel=1e-3)

    def test_doubling_gap_divides_by_sixteen(self, capsys):
        one = run_json(["force", "--gap", "1um"], capsys)
        two = run_json(["force", "--gap", "2um"], capsys)
        ratio = one["results"]["force_per_area"] / two["results"]["force_per_area"]
        assert ratio == pytest.approx(16.0, rel=1e-12)

    def test_zero_gap_rejected(self, capsys):
        code, _, err = run_cli(["force", "--gap", "0m"], capsys)
        assert code == 2
        assert "must be positive" in err

    def test_missing_suffix_rejected_in_si(self, capsys):
        code, _, err = run_cli(["force", "--gap", "0"], capsys)
        assert code == 2


class TestModesCommand:
    def test_area_ratios(self, capsys):
        payload = run_json(["modes", "--gap", "1", "--units", "natural",
                            "--n-max", "3"], capsys)
        rows = payload["results"]["rows"]
        areas = [row["area_n"] for row in rows]
        assert areas[0] == pytest.approx(4.0 * math.pi ** 2, rel=1e-12)
        assert areas[1] / areas[0] == pytest.approx(16.0, rel=1e-12)
        assert areas[2] / areas[0] == pytest.approx(81.0, rel=1e-12)

    def test_uncertainty_identity_per_row(self, capsys):
        payload = run_json(["modes", "--gap", "1um", "--n-max", "5"], capsys)
        for row in payload["results"]["rows"]:
            assert row["delta_x_xy"] * row["p_n"] == pytest.approx(
                1.054571817e-34 / 2.0, rel=1e-14)

    def test_csv_column_order(self, capsys):
        code, out, _ = run_cli(["modes", "--gap", "1", "--units", "natural",
                                "--n-max", "2", "--format", "csv"], capsys)
        assert code == 0
        header = out.splitlines()[0]
        assert header == "n,k_n,p_n,delta_x_xy,n_z,area_n"

    def test_rows_are_mode_state_records(self, capsys):
        # The row record and the printed columns are one and the same.
        assert ModeState._fields == ("n", "k_n", "p_n", "delta_x_xy", "n_z",
                                     "area_n")
        code, out, _ = run_cli(["modes", "--gap", "1um", "--n-max", "2",
                                "--format", "csv"], capsys)
        assert code == 0
        assert out.splitlines()[0] == ",".join(ModeState._fields)

    def test_zero_modes_rejected(self, capsys):
        code, _, err = run_cli(["modes", "--gap", "1um", "--n-max", "0"], capsys)
        assert code == 2


class TestEnvelopeMetadata:
    """Metadata that `_build_envelope` derives for every subcommand."""

    @pytest.mark.parametrize("units,source", [("si", "codata"),
                                              ("natural", "natural")])
    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
    def test_constants_source_follows_units(self, command, units, source, capsys):
        payload = run_json(subcommand_argv(command, units), capsys)
        assert payload["command"] == command
        assert payload["metadata"] == make_metadata(source, "attractive_negative")

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
    def test_sign_convention_follows_sign_flag(self, command, capsys):
        argv = subcommand_argv(command, "si") + ["--sign", "magnitude"]
        if command in SIGNED_COMMANDS:
            payload = run_json(argv, capsys)
            assert payload["metadata"]["sign_convention"] == "magnitude"
        else:
            # No --sign to override attractive_negative with.
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGV))
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: casimir-kit {command}")


class TestInputLimits:
    @pytest.mark.parametrize("argv", [
        ["energy", "--gap", "inf"],
        ["energy", "--gap", "1e-200"],
        ["force", "--gap", "1e200"],
        ["modes", "--gap", "1e-300"],
    ], ids=["energy-inf", "energy-1e-200", "force-1e200", "modes-1e-300"])
    def test_natural_gap_outside_range(self, argv, capsys):
        code, out, err = run_cli(argv + ["--units", "natural"], capsys)
        assert code == 2
        assert out == ""
        assert "plate gap" in err

    # One above each cap: 10**7 series terms, 10**6 table rows.
    @pytest.mark.parametrize("argv", [
        ["energy", "--gap", "1um", "--N", "10000001"],
        ["zeta", "--s", "4", "--N", "10000001"],
        ["converge", "--gap", "1um", "--Ns", "1,10000001"],
        ["modes", "--gap", "1um", "--n-max", "1000001"],
        ["sweep", "--quantity", "force", "--min", "1um", "--max", "2um",
         "--count", "1000001"],
    ], ids=["energy-N", "zeta-N", "converge-Ns", "modes-n-max", "sweep-count"])
    def test_size_above_cap_rejected(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert "1000000" in err  # the cap, 10**6 or 10**7, is named


class TestConvergeCommand:
    def test_four_rows_bounds_shrink(self, capsys):
        payload = run_json(["converge", "--gap", "1um",
                            "--Ns", "1,10,100,1000"], capsys)
        rows = payload["results"]["rows"]
        assert len(rows) == 4
        for near, far in zip(rows, rows[1:]):
            assert near["truncation_bound"] / far["truncation_bound"] == \
                pytest.approx(1000.0, rel=1e-12)

    def test_single_row_matches_energy(self, capsys):
        converge = run_json(["converge", "--gap", "1um", "--Ns", "1000"], capsys)
        energy = run_json(["energy", "--gap", "1um", "--N", "1000"], capsys)
        row = converge["results"]["rows"][0]
        assert row["series_value"] == energy["results"]["series_value"]
        assert row["truncation_bound"] == energy["results"]["truncation_bound"]
        assert row["closed_form_value"] == energy["results"]["closed_form_value"]

    def test_unsorted_rejected(self, capsys):
        code, _, err = run_cli(["converge", "--gap", "1um", "--Ns", "10,5"], capsys)
        assert code == 2

    def test_term_budget_at_cap_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr(core, "MAX_TERMS", 1000)
        payload = run_json(["converge", "--gap", "1um", "--Ns", "10,990"], capsys)
        assert [row["N"] for row in payload["results"]["rows"]] == [10, 990]

    @pytest.mark.parametrize("cap, Ns", [
        (1000, "10,991"),
        (MAX_TERMS, f"1,{MAX_TERMS}"),
        (MAX_TERMS, ",".join(str(10 ** k) for k in range(8))),
    ])
    def test_term_budget_past_cap_rejected(self, capsys, monkeypatch, cap, Ns):
        monkeypatch.setattr(core, "MAX_TERMS", cap)
        code, out, err = run_cli(["converge", "--gap", "1um", "--Ns", Ns], capsys)
        assert code == 2
        assert out == ""
        assert "sum to at most" in err


class TestZetaCommand:
    def test_four(self, capsys):
        payload = run_json(["zeta", "--s", "4"], capsys)
        results = payload["results"]
        assert results["closed_form"] == pytest.approx(1.0823232337, abs=1e-10)
        assert results["bracket_lower"] <= results["closed_form"] <= \
            results["bracket_upper"]
        assert results["euler_maclaurin"] == pytest.approx(
            results["closed_form"], abs=1e-9)

    def test_two(self, capsys):
        payload = run_json(["zeta", "--s", "2"], capsys)
        assert payload["results"]["closed_form"] == pytest.approx(
            1.6449340668, abs=1e-10)

    def test_odd_rejected(self, capsys):
        code, _, err = run_cli(["zeta", "--s", "3"], capsys)
        assert code == 2
        assert "unsupported argument" in err


class TestCutoffCommand:
    def test_default_grid(self, capsys):
        payload = run_json(["cutoff"], capsys)
        results = payload["results"]
        assert results["finite_part"] == pytest.approx(-0.0833333, abs=1e-5)
        assert results["terms_used"] == 4
        assert len(results["rows"]) == 4

    def test_single_epsilon(self, capsys):
        payload = run_json(["cutoff", "--epsilons", "0.1"], capsys)
        results = payload["results"]
        assert results["finite_part"] == pytest.approx(-0.0832917, abs=1e-7)
        assert results["terms_used"] == 1

    def test_zero_epsilon_rejected(self, capsys):
        code, _, err = run_cli(["cutoff", "--epsilons", "0.1,0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("epsilons", ["1e-200", "5e-324", "1e-310", "0.2,1e-300"])
    def test_underflowing_epsilon_rejected(self, epsilons, capsys):
        code, out, err = run_cli(["cutoff", "--epsilons", epsilons], capsys)
        assert code == 2
        assert out == ""
        assert "underflows" in err

    @staticmethod
    def _grid(points):
        return ",".join(repr(0.5 * 0.02 ** (i / (points - 1)))
                        for i in range(points))

    def test_grid_at_cap_accepted(self, capsys):
        payload = run_json(["cutoff", "--epsilons",
                            self._grid(MAX_CUTOFF_POINTS)], capsys)
        assert payload["results"]["terms_used"] == MAX_CUTOFF_POINTS

    def test_grid_past_cap_rejected(self, capsys):
        code, out, err = run_cli(["cutoff", "--epsilons",
                                  self._grid(MAX_CUTOFF_POINTS + 1)], capsys)
        assert code == 2
        assert out == ""
        assert f"at most {MAX_CUTOFF_POINTS}" in err


class TestParadoxCommand:
    def test_situation_two_zero_outside(self, capsys):
        payload = run_json(["paradox", "--Li", "1um", "--situation", "two"], capsys)
        results = payload["results"]
        assert results["P_o"] == 0.0
        assert results["classification"] == "balanced_zero_outside"
        assert payload["inputs"]["L_o"] == "infinity"

    def test_situation_one_outside_pressure(self, capsys):
        payload = run_json(["paradox", "--Li", "1um", "--situation", "one",
                            "--Pi", "0"], capsys)
        results = payload["results"]
        assert results["P_o"] == pytest.approx(1.3002e-3, rel=1e-3)
        assert results["classification"] == "diverging_outside"

    def test_negative_inside_pressure_rejected(self, capsys):
        code, _, err = run_cli(["paradox", "--Li", "1um", "--situation", "one",
                                "--Pi", "-1"], capsys)
        assert code == 2
        assert "nonnegative" in err

    def test_pi_rejected_for_situation_two(self, capsys):
        code, _, err = run_cli(["paradox", "--Li", "1um", "--situation", "two",
                                "--Pi", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("pressure", ["inf", "nan"])
    def test_non_finite_inside_pressure_rejected(self, pressure, capsys):
        code, out, err = run_cli(["paradox", "--Li", "1um", "--situation", "one",
                                  "--Pi", pressure], capsys)
        assert code == 2
        assert out == ""
        assert "Pi must be finite" in err


class TestCrossoverCommand:
    def test_reference_density(self, capsys):
        payload = run_json(["crossover", "--rho", "5.26e-10"], capsys)
        results = payload["results"]
        assert results["crossover_gap"] == pytest.approx(3.0e-5, rel=5e-3)
        assert results["routes_relative_difference"] <= 1e-10

    def test_quadrupled_density(self, capsys):
        base = run_json(["crossover", "--rho", "5.26e-10"], capsys)
        quad = run_json(["crossover", "--rho", "2.104e-09"], capsys)
        ratio = quad["results"]["crossover_gap"] / base["results"]["crossover_gap"]
        assert ratio == pytest.approx(4.0 ** -0.25, rel=1e-12)

    def test_zero_density_rejected(self, capsys):
        code, _, err = run_cli(["crossover", "--rho", "0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("rho", ["inf", "nan"])
    def test_non_finite_density_rejected(self, rho, capsys):
        code, out, err = run_cli(["crossover", "--rho", rho], capsys)
        assert code == 2
        assert out == ""
        assert "rho must be finite" in err

    @pytest.mark.parametrize("argv", [
        ["--rho", "1e300"],
        ["--rho", "1e-320"],
        ["--rho", "9.9e-301"],
        ["--rho", "1.01e250"],
        ["--rho", "1e-310", "--units", "natural"],
        ["--rho", "1e306", "--units", "natural"],
    ])
    def test_density_outside_range_rejected(self, argv, capsys):
        code, out, err = run_cli(["crossover", *argv], capsys)
        assert code == 2, err
        assert out == ""

    @pytest.mark.parametrize("units", ["si", "natural"])
    @pytest.mark.parametrize("rho", ["1e-300", "1e250"])
    def test_density_range_ends_accepted(self, rho, units, capsys):
        payload = run_json(["crossover", "--rho", rho, "--units", units], capsys)
        assert payload["results"]["routes_relative_difference"] <= 5e-13


class TestSweepCommand:
    def test_log_force_endpoint_ratio(self, capsys):
        code, out, _ = run_cli(["sweep", "--quantity", "force", "--min", "0.1um",
                                "--max", "10um", "--count", "10",
                                "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "gap_value,value"
        assert len(lines) == 11
        first = float(lines[1].split(",")[1])
        last = float(lines[-1].split(",")[1])
        assert last / first == pytest.approx(1e-8, rel=1e-6)

    def test_count_one_reduces_to_force(self, capsys):
        sweep = run_json(["sweep", "--quantity", "force", "--min", "1um",
                          "--max", "2um", "--count", "1"], capsys)
        force = run_json(["force", "--gap", "1um"], capsys)
        assert sweep["results"]["rows"][0]["value"] == \
            force["results"]["force_per_area"]

    @pytest.mark.parametrize("units, lo, hi", [("si", "0.1um", "10um"),
                                               ("natural", "0.5", "20")])
    @pytest.mark.parametrize("quantity", ["energy", "force"])
    def test_sign_applies_to_both_quantities(self, capsys, units, lo, hi,
                                             quantity):
        values = {}
        for sign in ("magnitude", "negative"):
            payload = run_json(["sweep", "--quantity", quantity, "--min", lo,
                                "--max", hi, "--count", "5", "--units", units,
                                "--sign", sign], capsys)
            values[sign] = [row["value"] for row in payload["results"]["rows"]]
        assert all(value >= 0.0 for value in values["magnitude"])
        assert all(value <= 0.0 for value in values["negative"])
        assert values["negative"] == [-value for value in values["magnitude"]]

    def test_reversed_range_rejected(self, capsys):
        code, _, err = run_cli(["sweep", "--quantity", "force", "--min", "10um",
                                "--max", "1um"], capsys)
        assert code == 2
        assert "reversed" in err

    def test_energy_sweep_linear(self, capsys):
        payload = run_json(["sweep", "--quantity", "energy", "--min", "1um",
                            "--max", "2um", "--count", "3",
                            "--scale", "linear"], capsys)
        rows = payload["results"]["rows"]
        assert [row["gap_value"] for row in rows] == \
            pytest.approx([1e-6, 1.5e-6, 2e-6], rel=1e-12)

    def test_implausible_sweep_warns_at_most_twice(self, capsys):
        # Every grid point is implausible; only the two endpoints may warn.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(["sweep", "--quantity", "force",
                                      "--min", "0.1mm", "--max", "10mm",
                                      "--count", "1000", "--format", "csv"],
                                     capsys)
        assert code == 0, err
        assert len(out.splitlines()) == 1001
        assert sum(issubclass(w.category, ImplausibleGapWarning)
                   for w in caught) <= 2

    @staticmethod
    def _grid(argv):
        args = build_parser().parse_args(["sweep", "--quantity", "force", *argv])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ImplausibleGapWarning)
            inputs, results = _HANDLERS["sweep"](
                args, resolve_config(units=args.units))
        return (inputs["min_value"], inputs["max_value"],
                [gap_value for gap_value, _ in results["rows"]])

    @pytest.mark.parametrize("argv", [
        ["--min", "10nm", "--max", "100um", "--count", "10000"],
        ["--min", "1um", "--max", "2um", "--count", "3"],
        ["--min", "0.1mm", "--max", "10mm", "--count", "1000"],
        ["--min", "1e-20", "--max", "1e20", "--count", "999", "--units", "natural"],
        ["--min", "1um", "--max", "1um", "--count", "5"],
        ["--min", "1um", "--max", "2um", "--count", "2"],
        ["--min", "1um", "--max", "2um", "--count", "1"],
    ], ids=["wide", "three", "implausible", "natural", "lo-eq-hi", "two", "one"])
    def test_linear_grid_is_numpy_linspace(self, argv):
        lo, hi, grid = self._grid(argv + ["--scale", "linear"])
        expected = np.linspace(lo, hi, len(grid)).tolist()
        assert [x.hex() for x in grid] == [x.hex() for x in expected]

    @pytest.mark.parametrize("argv", [
        ["--min", "10nm", "--max", "100um", "--count", "10000"],
        ["--min", "0.1um", "--max", "10um", "--count", "10"],
        ["--min", "1pm", "--max", "1m", "--count", "3"],
        ["--min", "1e-20", "--max", "1e20", "--count", "999", "--units", "natural"],
        ["--min", "1um", "--max", "2um", "--count", "2"],
    ], ids=["wide", "golden", "full-range", "natural", "two"])
    def test_log_grid_within_one_ulp_of_oracle(self, argv):
        lo, hi, grid = self._grid(argv)
        assert grid[0] == lo and grid[-1] == hi
        assert all(a < b for a, b in zip(grid, grid[1:]))
        exponents = np.linspace(math.log10(lo), math.log10(hi), len(grid)).tolist()
        with mpmath.workdps(40):
            for x, y in zip(grid[1:-1], exponents[1:-1]):
                assert abs(mpmath.mpf(x) - mpmath.power(10, y)) <= math.ulp(x)

    @pytest.mark.parametrize("argv", [
        ["--min", "3um", "--max", "3um", "--count", "4"],
        ["--min", "0.7um", "--max", "0.7um", "--count", "50"],
        ["--min", "3e-7", "--max", "3e-7", "--count", "7", "--units", "natural"],
        ["--min", "3um", "--max", "3.0000000000000004um", "--count", "6"],
    ], ids=["one-gap", "one-gap-long", "one-gap-natural", "two-floats"])
    def test_log_grid_stays_in_range(self, argv):
        lo, hi, grid = self._grid(argv)
        assert all(lo <= x <= hi for x in grid)
        if lo == hi:
            assert grid == [lo] * len(grid)


class TestConfigHandling:
    def test_config_file_flag(self, tmp_path, capsys):
        path = tmp_path / "run.conf"
        path.write_text("units = natural\nformat = text\nprecision = 6\n")
        code, out, _ = run_cli(["energy", "--gap", "1", "--sign", "magnitude",
                                "--config", str(path)], capsys)
        assert code == 0
        assert out.startswith("command: energy")
        assert "1.37078e-02" in out  # pi^2/720 at 6 significant digits

    def test_env_var_config(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "run.conf"
        path.write_text("units = natural\n")
        monkeypatch.setenv("CASIMIR_KIT_CONFIG", str(path))
        payload = run_json(["energy", "--gap", "1"], capsys)
        assert payload["metadata"]["constants_source"] == "natural"

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        path = tmp_path / "run.conf"
        path.write_text("units = natural\n")
        payload = run_json(["energy", "--gap", "1um", "--units", "si",
                            "--config", str(path)], capsys)
        assert payload["metadata"]["constants_source"] == "codata"

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(["energy", "--gap", "1um", "--config",
                                str(tmp_path / "absent.conf")], capsys)
        assert code == 2

    def test_config_default_n_honored(self, tmp_path, capsys):
        path = tmp_path / "run.conf"
        path.write_text("default_n = 50\n")
        payload = run_json(["energy", "--gap", "1um", "--config", str(path)],
                           capsys)
        assert payload["results"]["terms_used"] == 50

    def test_suffixed_gap_rejected_in_natural_units(self, capsys):
        code, _, err = run_cli(["energy", "--gap", "1um", "--units", "natural"],
                               capsys)
        assert code == 2
        assert "plain number" in err

    def test_bad_precision_flag(self, capsys):
        code, _, err = run_cli(["energy", "--gap", "1um", "--precision", "3"],
                               capsys)
        assert code == 2

    def test_precision_controls_text_digits(self, capsys):
        code, out, _ = run_cli(["force", "--gap", "1um", "--format", "text",
                                "--precision", "4"], capsys)
        assert code == 0
        assert "-1.300e-03" in out


class TestDiagnosticsAndExitCodes:
    def test_argparse_errors_exit_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["energy"])  # missing --gap
        assert excinfo.value.code == 2

    def test_internal_errors_exit_one(self, capsys, monkeypatch):
        import casimir_kit.cli as cli_module

        def boom(gap):
            raise RuntimeError("synthetic fault")

        monkeypatch.setattr(cli_module.core, "force_per_area", boom)
        code, out, err = run_cli(["force", "--gap", "1um"], capsys)
        assert code == 1
        assert out == ""
        assert "internal error" in err

    def test_non_finite_result_exits_one(self, capsys, monkeypatch):
        # stdout is strict JSON: a nan that reaches the emitter is a bug.
        monkeypatch.setitem(_HANDLERS, "force", lambda args, config: (
            {}, {"force_per_area": math.nan}))
        code, out, err = run_cli(["force", "--gap", "1um"], capsys)
        assert code == 1
        assert out == ""
        assert "not JSON compliant" in err

    def test_diagnostics_never_on_stdout(self, capsys):
        code, out, err = run_cli(["zeta", "--s", "7"], capsys)
        assert code == 2
        assert out == ""
        assert err != ""


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_byte_identical_across_runs(self, name, capsys):
        argv = GOLDEN_CASES[name]
        code_a, out_a, _ = run_cli(list(argv), capsys)
        code_b, out_b, _ = run_cli(list(argv), capsys)
        assert code_a == code_b == 0
        assert out_a == out_b

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_files(self, name, capsys, regen_golden):
        argv = GOLDEN_CASES[name]
        code, out, err = run_cli(list(argv), capsys)
        assert code == 0, err
        path = GOLDEN_DIR / name
        if regen_golden:
            path.write_text(out, encoding="utf-8")
            pytest.skip("golden file regenerated")
        assert out == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize("name", sorted(n for n in GOLDEN_CASES
                                            if n.endswith(".json")))
    def test_json_round_trip(self, name, capsys):
        code, out, _ = run_cli(list(GOLDEN_CASES[name]), capsys)
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2) + "\n" == out
        assert set(parsed) == {"command", "inputs", "results", "metadata"}

    @pytest.mark.parametrize("argv", [
        ["modes", "--gap", "1um", "--n-max", "10000"],
        ["sweep", "--quantity", "force", "--min", "10nm", "--max", "100um",
         "--count", "10000"],
        ["sweep", "--quantity", "energy", "--min", "10nm", "--max", "100um",
         "--count", "10000", "--scale", "linear"],
    ], ids=["modes", "sweep-log", "sweep-linear"])
    def test_large_json_tables(self, argv, capsys):
        # The goldens' row tables are tiny; this covers the column-wise path.
        code, out, err = run_cli(argv, capsys)
        assert code == 0, err
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2) + "\n" == out
        args = build_parser().parse_args(argv)
        inputs, results = _HANDLERS[argv[0]](args, RunConfig())
        expected = envelope_data(_build_envelope(args, RunConfig(), inputs, results))
        assert len(parsed["results"]["rows"]) == 10000
        assert _bit_equal(parsed, expected)

    @pytest.mark.parametrize("output_format", ["csv", "text"])
    @pytest.mark.parametrize("argv", [
        ["modes", "--gap", "1um", "--n-max", "10000"],
        ["sweep", "--quantity", "force", "--min", "10nm", "--max", "100um",
         "--count", "10000"],
        ["sweep", "--quantity", "energy", "--min", "10nm", "--max", "100um",
         "--count", "10000", "--scale", "linear"],
    ], ids=["modes", "sweep-log", "sweep-linear"])
    def test_large_delimited_tables(self, argv, output_format, capsys):
        # Numeric rows print through one template each; the oracle formats
        # every cell on its own.
        code, out, err = run_cli(argv + ["--format", output_format], capsys)
        assert code == 0, err
        _, results = _HANDLERS[argv[0]](build_parser().parse_args(argv),
                                        RunConfig())
        table = results["rows"]
        assert len(table) == 10000
        lines = [",".join(table.fields)] + [
            ",".join(_format_cell(value, 10) for value in row) for row in table]
        if output_format == "csv":
            assert out == "".join(line + "\n" for line in lines)
        else:
            block = out.split("\nrows:\n")[1].split("metadata:\n")[0]
            assert block == "".join("  " + line + "\n" for line in lines)

    def test_console_entry_point(self):
        # The module entry point must behave like the in-process call.
        # Run from src/ so that the source tree is importable without an
        # install or PYTHONPATH.
        proc = subprocess.run(
            [sys.executable, "-m", "casimir_kit", "force", "--gap", "1um"],
            capture_output=True, text=True, cwd=Path(__file__).parents[1] / "src")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["command"] == "force"

    def test_cli_import_leaves_numpy_out(self):
        # numpy is a test dependency only; the package must not load it.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, casimir_kit.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, cwd=Path(__file__).parents[1] / "src")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestBenchmarkContract:
    """What the benchmark harness relies on: one library call per table row,
    made through the ``core`` attribute, and each document rendered as one
    ``str``."""

    def test_one_library_call_per_row(self, capsys, monkeypatch):
        calls = dict.fromkeys(
            ["mode_state", "force_per_area", "energy_per_area_closed"], 0)
        for name in calls:
            def counted(*args, _name=name, _original=getattr(core, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(core, name, counted)
        run_json(["modes", "--gap", "1um", "--n-max", "50"], capsys)
        for quantity in ("force", "energy"):
            run_json(["sweep", "--quantity", quantity, "--min", "10nm",
                      "--max", "100um", "--count", "30"], capsys)
        assert calls == {"mode_state": 50, "force_per_area": 30,
                         "energy_per_area_closed": 30}

    def test_render_returns_one_str(self, capsys, monkeypatch):
        import casimir_kit.cli as cli_module
        render = cli_module.render_envelope
        rendered = []

        def recorded(envelope, config):
            rendered.append(render(envelope, config))
            return rendered[-1]

        monkeypatch.setattr(cli_module, "render_envelope", recorded)
        for output_format in ("json", "csv", "text"):
            code, out, err = run_cli(["modes", "--gap", "1um", "--n-max", "5",
                                      "--format", output_format], capsys)
            assert code == 0, err
        assert [type(text) for text in rendered] == [str] * 3
        assert rendered[-1] == out
