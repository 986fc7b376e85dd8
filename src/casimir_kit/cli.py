"""Command-line interface: one subcommand per library capability.

Exit codes: 0 on success, 2 for input or domain errors, 1 for internal
errors.  Diagnostics go to stderr only; stdout carries exactly one JSON
envelope, one CSV table, or one text report per run.

Each ``cmd_*`` handler returns only its ``(inputs, results)``; ``main``
dispatches through ``_HANDLERS`` and wraps every answer with
:func:`_build_envelope`.  ``_COMMANDS`` is the one table of subcommands:
handler, help line and argument specs.  A table result is one ``Table``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
import warnings

from . import core, paradox, series
from .errors import CasimirKitError, DomainError, ImplausibleGapWarning, ParseError
from .output import (
    OutputEnvelope,
    RunConfig,
    Table,
    default_config_file,
    load_config_file,
    make_metadata,
    render_envelope,
    resolve_config,
)
from .units import UnitSystem, parse_length

__all__ = ["build_parser", "main"]

_SIGN_CHOICES = {
    "negative": core.SignConvention.ATTRACTIVE_NEGATIVE,
    "magnitude": core.SignConvention.MAGNITUDE,
}

def _parse_gap(text: str, config: RunConfig, flag: str = "gap") -> float:
    if config.unit_system is UnitSystem.NATURAL:
        try:
            value = float(text)
        except ValueError:
            raise ParseError(
                f"{flag} must be a plain number in natural units, got '{text}'")
        if value <= 0.0:
            raise DomainError(f"{flag} must be positive, got '{text}'")
        return value
    try:
        return parse_length(text)
    except DomainError:
        raise DomainError(f"{flag} must be positive, got '{text}'")


def _require_rows(count: int, flag: str) -> int:
    if not 1 <= count <= core.MAX_ROWS:
        raise DomainError(f"{flag} must lie in [1, {core.MAX_ROWS}], got {count}")
    return count


def _parse_list(text: str, flag: str, cast, kind: str) -> list:
    try:
        return [cast(item.strip()) for item in text.split(",") if item.strip()]
    except ValueError:
        raise ParseError(f"{flag} must be a comma-separated {kind} list, got '{text}'")


def _gap_object(args, config: RunConfig) -> tuple[core.PlateGap, dict]:
    gap_value = _parse_gap(args.gap, config)
    inputs = {"gap": args.gap, "gap_value": gap_value}
    return core.PlateGap(gap_value, config.unit_system), inputs


def cmd_energy(args, config: RunConfig) -> tuple[dict, dict]:
    gap, inputs = _gap_object(args, config)
    N = args.N if args.N is not None else config.default_N
    sign = _SIGN_CHOICES[args.sign]
    result = core.energy_per_area_series(gap, N, sign)
    inputs.update({"N": result.terms_used, "sign": sign.value})
    return inputs, {
        "series_value": result.series_value,
        "closed_form_value": result.closed_form_value,
        "truncation_bound": result.truncation_bound,
        "terms_used": result.terms_used,
    }


def cmd_force(args, config: RunConfig) -> tuple[dict, dict]:
    gap, inputs = _gap_object(args, config)
    return inputs, {"force_per_area": core.force_per_area(gap)}


def cmd_modes(args, config: RunConfig) -> tuple[dict, dict]:
    gap, inputs = _gap_object(args, config)
    inputs["n_max"] = _require_rows(args.n_max, "n-max")
    rows = Table(core.ModeState._fields,
                 [core.mode_state(n, gap) for n in range(1, args.n_max + 1)])
    return inputs, {"traversal_time": core.traversal_time(gap), "rows": rows}


def cmd_converge(args, config: RunConfig) -> tuple[dict, dict]:
    gap, inputs = _gap_object(args, config)
    Ns = _parse_list(args.Ns, "--Ns", int, "integer")
    sign = _SIGN_CHOICES[args.sign]
    report = core.convergence_report(gap, Ns, sign)
    inputs.update({"Ns": Ns, "sign": sign.value})
    return inputs, {"rows": Table(core.ConvergenceRow._fields, report)}


def cmd_zeta(args, config: RunConfig) -> tuple[dict, dict]:
    N = args.N if args.N is not None else config.default_N
    closed = series.zeta_even_closed_form(args.s)
    s = float(args.s)
    direct = series.direct_sum_estimate(s, N)
    bracket = series.tail_bound(s, N)
    accelerated = series.euler_maclaurin_sum(s, N, order=2)
    return {"s": args.s, "N": N}, {
        "closed_form": closed,
        "partial_sum": direct.estimate,
        "terms_used": direct.terms_used,
        "tail_lower": bracket.lower,
        "tail_upper": bracket.upper,
        "bracket_lower": direct.estimate + bracket.lower,
        "bracket_upper": direct.estimate + bracket.upper,
        "euler_maclaurin": accelerated.estimate,
        "euler_maclaurin_error_bound": accelerated.error_bound,
    }


def cmd_cutoff(args, config: RunConfig) -> tuple[dict, dict]:
    grid = _parse_list(args.epsilons, "--epsilons", float, "number")
    trace, finite_part = series.exponential_cutoff_finite_part(grid)
    return {"epsilons": grid}, {
        "finite_part": finite_part.estimate,
        "finite_part_error_bound": finite_part.error_bound,
        "method": finite_part.method.value,
        "terms_used": finite_part.terms_used,
        "rows": Table(("epsilon", "regularized_value"), trace.rows),
    }


def cmd_paradox(args, config: RunConfig) -> tuple[dict, dict]:
    L_i = _parse_gap(args.Li, config, flag="Li")
    if args.situation == "one":
        P_i = args.Pi if args.Pi is not None else 0.0
        result = paradox.situation_one(L_i, P_i, config.unit_system)
    else:
        if args.Pi is not None:
            raise DomainError("--Pi applies only to situation one")
        result = paradox.situation_two(L_i, config.unit_system)
    return {
        "Li": args.Li,
        "Li_value": L_i,
        "L_o": "infinity",
        "situation": args.situation,
        "Pi": args.Pi,
    }, dataclasses.asdict(result)


def cmd_crossover(args, config: RunConfig) -> tuple[dict, dict]:
    closed = paradox.cosmological_crossover(args.rho, config.unit_system)
    bisected = paradox.crossover_by_bisection(args.rho, config.unit_system)
    return {"rho_vac": args.rho}, {
        "crossover_gap": closed,
        "crossover_gap_bisection": bisected,
        "routes_relative_difference": abs(closed - bisected) / closed,
    }


def cmd_sweep(args, config: RunConfig) -> tuple[dict, dict]:
    constants = config.unit_system
    lo = _parse_gap(args.min, config, flag="min")
    hi = _parse_gap(args.max, config, flag="max")
    if hi < lo:
        raise DomainError("sweep range is reversed: max must be >= min")
    count = _require_rows(args.count, "count")
    sign = _SIGN_CHOICES[args.sign]

    # The grids are built as numpy's linspace and geomspace build them, except
    # that 10 ** log10(lo) need not round-trip: interior log points are
    # clamped into [lo, hi], and a point already inside keeps its bits.
    if count == 1:
        grid = [lo]
    elif args.scale == "log":
        start = math.log10(lo)
        step = (math.log10(hi) - start) / (count - 1)
        points = (10.0 ** (i * step + start) for i in range(1, count - 1))
        grid = [lo, *(min(max(x, lo), hi) for x in points), hi]
    else:
        step = (hi - lo) / (count - 1)
        grid = [i * step + lo for i in range(count - 1)] + [hi]

    # Grid points lie in [lo, hi] up to rounding, so only the endpoints warn.
    core.PlateGap(lo, constants)
    core.PlateGap(hi, constants)
    quantity = (core.force_per_area if args.quantity == "force"
                else core.energy_per_area_closed)
    rows = Table(("gap_value", "value"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ImplausibleGapWarning)
        for gap_value in grid:
            rows.append((gap_value,
                         quantity(core.PlateGap(gap_value, constants), sign)))
    return {
        "quantity": args.quantity,
        "min": args.min,
        "min_value": lo,
        "max": args.max,
        "max_value": hi,
        "count": count,
        "scale": args.scale,
        "sign": sign.value,
    }, {"rows": rows}


def _build_envelope(args, config: RunConfig, inputs: dict,
                    results: dict) -> OutputEnvelope:
    """One subcommand's answer with the metadata of its run.

    The constants source is the unit system's; the sign convention
    follows ``--sign`` where the subcommand has it, and is
    ``attractive_negative`` otherwise.
    """
    sign = _SIGN_CHOICES[getattr(args, "sign", "negative")]
    return OutputEnvelope(
        command=args.command,
        inputs=inputs,
        results=results,
        metadata=make_metadata(config.unit_system.source, sign.value),
    )


_GAP = ("--gap", {"required": True,
                  "help": "plate gap, e.g. 1um (SI) or 1 (natural)"})
_SIGN = ("--sign", {"choices": sorted(_SIGN_CHOICES), "default": "negative"})
_N = ("--N", {"type": int, "default": None,
              "help": f"series truncation (at most {series.MAX_TERMS})"})

# Subcommand -> (handler, help line, (flag, add_argument keywords) pairs).
_COMMANDS = {
    "energy": (cmd_energy, "energy per plate area from the mode series",
               (_GAP, _N, _SIGN)),
    "force": (cmd_force, "attractive pressure between the plates", (_GAP,)),
    "modes": (cmd_modes, "per-state quantities for the first modes", (
        _GAP,
        ("--n-max", {"type": int, "default": 10,
                     "help": f"number of modes (at most {core.MAX_ROWS})"}),
    )),
    "converge": (cmd_converge, "series value and bound at several truncations", (
        _GAP,
        ("--Ns", {"required": True,
                  "help": "comma-separated increasing truncations "
                          f"(summing to at most {series.MAX_TERMS})"}),
        _SIGN,
    )),
    "zeta": (cmd_zeta, "even zeta value: closed form, partial sum, bracket", (
        ("--s", {"type": int, "required": True}),
        _N,
    )),
    "cutoff": (cmd_cutoff, "finite part of 1+2+3+... by exponential cutoff", (
        ("--epsilons", {"default": "0.2,0.1,0.05,0.025",
                        "help": "comma-separated decreasing cutoffs, at most "
                                f"{series.MAX_CUTOFF_POINTS} "
                                "(default %(default)s)"}),
    )),
    "paradox": (cmd_paradox, "inside/outside pressure scenarios", (
        ("--Li", {"required": True, "help": "gap between the plates"}),
        ("--situation", {"choices": ["one", "two"], "required": True}),
        ("--Pi", {"type": float, "default": None,
                  "help": "fixed inside pressure (situation one only, default 0)"}),
    )),
    "crossover": (cmd_crossover,
                  "gap at which |E/A|/a matches a vacuum energy density", (
        ("--rho", {"type": float, "required": True, "help": "density in J/m^3"}),
    )),
    "sweep": (cmd_sweep, "energy or force over a gap range (for plotting)", (
        ("--quantity", {"choices": ["energy", "force"], "required": True}),
        ("--min", {"required": True}),
        ("--max", {"required": True}),
        ("--count", {"type": int, "default": 10,
                     "help": f"number of gaps (at most {core.MAX_ROWS})"}),
        ("--scale", {"choices": ["log", "linear"], "default": "log"}),
        _SIGN,
    )),
}

# main dispatches through this dict, which holds the handlers themselves, so
# that a caller may swap one entry for a wrapper around it.
_HANDLERS = {name: spec[0] for name, spec in _COMMANDS.items()}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--units", choices=["si", "natural"], default=None,
                        help="unit system (default: si)")
    common.add_argument("--precision", type=int, default=None,
                        help="significant digits in text/CSV output (4..17)")
    common.add_argument("--format", choices=["json", "csv", "text"], default=None,
                        help="output format (default: json)")
    common.add_argument("--config", default=None,
                        help="config file path (overrides $CASIMIR_KIT_CONFIG)")

    parser = argparse.ArgumentParser(
        prog="casimir-kit",
        description="Vacuum energy between parallel plates: series, closed "
                    "forms, cutoff regularization, and pressure scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_line)
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(
            load_config_file(args.config) if args.config is not None
            else default_config_file(),
            units=args.units,
            precision=args.precision,
            output_format=args.format,
        )
        inputs, results = _HANDLERS[args.command](args, config)
        envelope = _build_envelope(args, config, inputs, results)
        sys.stdout.write(render_envelope(envelope, config))
        return 0
    except (CasimirKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
