"""Command-line interface: one subcommand per library capability.

Exit codes: 0 on success, 2 for input or domain errors, 1 for internal
errors.  Diagnostics go to stderr only; stdout carries exactly one JSON
envelope, one CSV table, or one text report per run.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import core, paradox, series
from .errors import CasimirKitError, DomainError, ParseError
from .output import (
    OutputEnvelope,
    RunConfig,
    UnitSystem,
    default_config_file,
    load_config_file,
    make_metadata,
    render_envelope,
    resolve_config,
)
from .units import PhysicalConstants, codata_constants, natural_units, parse_length

__all__ = ["build_parser", "main"]

_SIGN_CHOICES = {
    "negative": core.SignConvention.ATTRACTIVE_NEGATIVE,
    "magnitude": core.SignConvention.MAGNITUDE,
}

DEFAULT_CUTOFF_GRID = (0.2, 0.1, 0.05, 0.025)


def _constants_for(config: RunConfig) -> PhysicalConstants:
    if config.unit_system is UnitSystem.NATURAL:
        return natural_units()
    return codata_constants()


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
        return parse_length(text).value
    except DomainError:
        raise DomainError(f"{flag} must be positive, got '{text}'")


def _require_finite(value: float | None, flag: str) -> None:
    if value is not None and not math.isfinite(value):
        raise DomainError(f"{flag} must be finite, got {value!r}")


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(item.strip()) for item in text.split(",") if item.strip()]
    except ValueError:
        raise ParseError(f"{flag} must be a comma-separated integer list, got '{text}'")


def _parse_float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(item.strip()) for item in text.split(",") if item.strip()]
    except ValueError:
        raise ParseError(f"{flag} must be a comma-separated number list, got '{text}'")


def _gap_object(args, config: RunConfig) -> tuple[core.PlateGap, dict]:
    constants = _constants_for(config)
    gap_value = _parse_gap(args.gap, config)
    inputs = {"gap": args.gap, "gap_value": gap_value}
    return core.PlateGap(gap_value, constants), inputs


def cmd_energy(args, config: RunConfig) -> OutputEnvelope:
    gap, inputs = _gap_object(args, config)
    N = args.N if args.N is not None else config.default_N
    sign = _SIGN_CHOICES[args.sign]
    result = core.energy_per_area_series(gap, N, sign)
    inputs.update({"N": result.terms_used, "sign": sign.value})
    return OutputEnvelope(
        command="energy",
        inputs=inputs,
        results={
            "series_value": result.series_value,
            "closed_form_value": result.closed_form_value,
            "truncation_bound": result.truncation_bound,
            "terms_used": result.terms_used,
        },
        metadata=make_metadata(gap.constants.source_tag.value, sign.value),
    )


def cmd_force(args, config: RunConfig) -> OutputEnvelope:
    gap, inputs = _gap_object(args, config)
    return OutputEnvelope(
        command="force",
        inputs=inputs,
        results={"force_per_area": core.force_per_area(gap)},
        metadata=make_metadata(
            gap.constants.source_tag.value,
            core.SignConvention.ATTRACTIVE_NEGATIVE.value),
    )


def cmd_modes(args, config: RunConfig) -> OutputEnvelope:
    gap, inputs = _gap_object(args, config)
    if args.n_max < 1:
        raise DomainError(f"n-max must be at least 1, got {args.n_max}")
    inputs["n_max"] = args.n_max
    rows = []
    for n in range(1, args.n_max + 1):
        state = core.mode_state(n, gap)
        rows.append({
            "n": state.n,
            "k_n": state.k_n,
            "p_n": state.p_n,
            "delta_x_xy": state.delta_x_xy,
            "n_z": state.n_z,
            "area_n": state.area_n,
        })
    return OutputEnvelope(
        command="modes",
        inputs=inputs,
        results={"traversal_time": core.traversal_time(gap), "rows": rows},
        metadata=make_metadata(
            gap.constants.source_tag.value,
            core.SignConvention.ATTRACTIVE_NEGATIVE.value),
    )


def cmd_converge(args, config: RunConfig) -> OutputEnvelope:
    gap, inputs = _gap_object(args, config)
    Ns = _parse_int_list(args.Ns, "--Ns")
    sign = _SIGN_CHOICES[args.sign]
    report = core.convergence_report(gap, Ns, sign)
    inputs.update({"Ns": Ns, "sign": sign.value})
    rows = [{
        "N": row.N,
        "series_value": row.series_value,
        "truncation_bound": row.truncation_bound,
        "closed_form_value": row.closed_form_value,
    } for row in report]
    return OutputEnvelope(
        command="converge",
        inputs=inputs,
        results={"rows": rows},
        metadata=make_metadata(gap.constants.source_tag.value, sign.value),
    )


def cmd_zeta(args, config: RunConfig) -> OutputEnvelope:
    N = args.N if args.N is not None else config.default_N
    closed = series.zeta_even_closed_form(args.s)
    direct = series.direct_sum_estimate(float(args.s), N)
    bracket = series.tail_bound(float(args.s), N)
    accelerated = series.euler_maclaurin_sum(float(args.s), N, order=2)
    constants = _constants_for(config)
    return OutputEnvelope(
        command="zeta",
        inputs={"s": args.s, "N": N},
        results={
            "closed_form": closed,
            "partial_sum": direct.estimate,
            "terms_used": direct.terms_used,
            "tail_lower": bracket.lower,
            "tail_upper": bracket.upper,
            "bracket_lower": direct.estimate + bracket.lower,
            "bracket_upper": direct.estimate + bracket.upper,
            "euler_maclaurin": accelerated.estimate,
            "euler_maclaurin_error_bound": accelerated.error_bound,
        },
        metadata=make_metadata(
            constants.source_tag.value,
            core.SignConvention.ATTRACTIVE_NEGATIVE.value),
    )


def cmd_cutoff(args, config: RunConfig) -> OutputEnvelope:
    if args.epsilons is None:
        grid = list(DEFAULT_CUTOFF_GRID)
    else:
        grid = _parse_float_list(args.epsilons, "--epsilons")
    trace, finite_part = series.exponential_cutoff_finite_part(grid)
    constants = _constants_for(config)
    rows = [{"epsilon": eps, "regularized_value": value}
            for eps, value in trace.rows]
    return OutputEnvelope(
        command="cutoff",
        inputs={"epsilons": grid},
        results={
            "finite_part": finite_part.estimate,
            "finite_part_error_bound": finite_part.error_bound,
            "method": finite_part.method.value,
            "terms_used": finite_part.terms_used,
            "rows": rows,
        },
        metadata=make_metadata(
            constants.source_tag.value,
            core.SignConvention.ATTRACTIVE_NEGATIVE.value),
    )


def cmd_paradox(args, config: RunConfig) -> OutputEnvelope:
    constants = _constants_for(config)
    L_i = _parse_gap(args.Li, config, flag="Li")
    _require_finite(args.Pi, "Pi")
    if args.situation == "one":
        P_i = args.Pi if args.Pi is not None else 0.0
        result = paradox.situation_one(L_i, P_i, constants)
    else:
        if args.Pi is not None:
            raise DomainError("--Pi applies only to situation one")
        result = paradox.situation_two(L_i, constants)
    return OutputEnvelope(
        command="paradox",
        inputs={
            "Li": args.Li,
            "Li_value": L_i,
            "L_o": paradox.UNBOUNDED,
            "situation": args.situation,
            "Pi": args.Pi,
        },
        results={
            "P_i": result.P_i,
            "P_o": result.P_o,
            "difference": result.difference,
            "classification": result.classification.value,
            "note": result.note,
        },
        metadata=make_metadata(
            constants.source_tag.value,
            core.SignConvention.ATTRACTIVE_NEGATIVE.value),
    )


def cmd_crossover(args, config: RunConfig) -> OutputEnvelope:
    constants = _constants_for(config)
    _require_finite(args.rho, "rho")
    closed = paradox.cosmological_crossover(args.rho, constants)
    bisected = paradox.crossover_by_bisection(args.rho, constants)
    return OutputEnvelope(
        command="crossover",
        inputs={"rho_vac": args.rho},
        results={
            "crossover_gap": closed,
            "crossover_gap_bisection": bisected,
            "routes_relative_difference": abs(closed - bisected) / closed,
        },
        metadata=make_metadata(
            constants.source_tag.value,
            core.SignConvention.ATTRACTIVE_NEGATIVE.value),
    )


def cmd_sweep(args, config: RunConfig) -> OutputEnvelope:
    constants = _constants_for(config)
    lo = _parse_gap(args.min, config, flag="min")
    hi = _parse_gap(args.max, config, flag="max")
    if hi < lo:
        raise DomainError("sweep range is reversed: max must be >= min")
    if args.count < 1:
        raise DomainError(f"count must be at least 1, got {args.count}")
    sign = _SIGN_CHOICES[args.sign]

    if args.count == 1:
        grid = [lo]
    elif args.scale == "log":
        grid = np.geomspace(lo, hi, args.count).tolist()
    else:
        grid = np.linspace(lo, hi, args.count).tolist()

    rows = []
    for gap_value in grid:
        gap = core.PlateGap(gap_value, constants)
        if args.quantity == "force":
            value = core.force_per_area(gap)
        else:
            value = core.energy_per_area_closed(gap, sign)
        rows.append({"gap_value": gap_value, "value": value})
    return OutputEnvelope(
        command="sweep",
        inputs={
            "quantity": args.quantity,
            "min": args.min,
            "min_value": lo,
            "max": args.max,
            "max_value": hi,
            "count": args.count,
            "scale": args.scale,
            "sign": sign.value,
        },
        results={"rows": rows},
        metadata=make_metadata(constants.source_tag.value, sign.value),
    )


_HANDLERS = {
    "energy": cmd_energy,
    "force": cmd_force,
    "modes": cmd_modes,
    "converge": cmd_converge,
    "zeta": cmd_zeta,
    "cutoff": cmd_cutoff,
    "paradox": cmd_paradox,
    "crossover": cmd_crossover,
    "sweep": cmd_sweep,
}


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

    p = sub.add_parser("energy", parents=[common],
                       help="energy per plate area from the mode series")
    p.add_argument("--gap", required=True, help="plate gap, e.g. 1um (SI) or 1 (natural)")
    p.add_argument("--N", type=int, default=None, help="series truncation")
    p.add_argument("--sign", choices=sorted(_SIGN_CHOICES), default="negative")

    p = sub.add_parser("force", parents=[common],
                       help="attractive pressure between the plates")
    p.add_argument("--gap", required=True)

    p = sub.add_parser("modes", parents=[common],
                       help="per-state quantities for the first modes")
    p.add_argument("--gap", required=True)
    p.add_argument("--n-max", dest="n_max", type=int, default=10)

    p = sub.add_parser("converge", parents=[common],
                       help="series value and bound at several truncations")
    p.add_argument("--gap", required=True)
    p.add_argument("--Ns", required=True, help="comma-separated increasing truncations")
    p.add_argument("--sign", choices=sorted(_SIGN_CHOICES), default="negative")

    p = sub.add_parser("zeta", parents=[common],
                       help="even zeta value: closed form, partial sum, bracket")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--N", type=int, default=None)

    p = sub.add_parser("cutoff", parents=[common],
                       help="finite part of 1+2+3+... by exponential cutoff")
    p.add_argument("--epsilons", default=None,
                   help="comma-separated decreasing cutoffs (default 0.2,0.1,0.05,0.025)")

    p = sub.add_parser("paradox", parents=[common],
                       help="inside/outside pressure scenarios")
    p.add_argument("--Li", required=True, help="gap between the plates")
    p.add_argument("--situation", choices=["one", "two"], required=True)
    p.add_argument("--Pi", type=float, default=None,
                   help="fixed inside pressure (situation one only, default 0)")

    p = sub.add_parser("crossover", parents=[common],
                       help="gap at which |E/A|/a matches a vacuum energy density")
    p.add_argument("--rho", type=float, required=True, help="density in J/m^3")

    p = sub.add_parser("sweep", parents=[common],
                       help="energy or force over a gap range (for plotting)")
    p.add_argument("--quantity", choices=["energy", "force"], required=True)
    p.add_argument("--min", required=True)
    p.add_argument("--max", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--scale", choices=["log", "linear"], default="log")
    p.add_argument("--sign", choices=sorted(_SIGN_CHOICES), default="negative")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            file_values = load_config_file(args.config)
        else:
            file_values = default_config_file()
        config = resolve_config(
            file_values,
            units=args.units,
            precision=args.precision,
            output_format=args.format,
        )
        envelope = _HANDLERS[args.command](args, config)
        sys.stdout.write(render_envelope(envelope, config))
        return 0
    except CasimirKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
