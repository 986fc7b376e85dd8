"""Warm library child: evaluates operations sent as JSON lines on stdin.

    python [-X importtime] bench/child_lib.py plain|traced

The child imports casimir_kit between two marker lines on stderr and writes
one ``ready`` line.  Then, for each operation line it reads, it writes two
lines: the in-process time with the CPU time used so far, and the results.
In ``traced`` mode each operation runs twice, first untraced and then
traced, so the two in-process times compare the same work; an operation
marked ``warmup`` is not traced.  The span dump is the last line written,
after stdin closes.
"""

from __future__ import annotations

import gc
import sys
import time

BEGIN, END = "BENCH_IMPORT_BEGIN", "BENCH_IMPORT_END"


def _cpu_s(resource) -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def evaluate(op: dict, core, series, paradox) -> dict:
    """One operation: every public route, evaluated for one gap."""
    gap = core.PlateGap(op["gap"])
    N = op["N"]

    def energy(result) -> dict:
        return {"series_value": result.series_value,
                "closed_form_value": result.closed_form_value,
                "truncation_bound": result.truncation_bound,
                "terms_used": result.terms_used}

    direct = series.direct_sum_estimate(4.0, N)
    bracket = series.tail_bound(4.0, N)
    accelerated = series.euler_maclaurin_sum(4.0, N, order=2)
    _, finite_part = series.exponential_cutoff_finite_part(op["grid"])
    one = paradox.situation_one(op["gap"], op["P_i"])
    two = paradox.situation_two(op["gap"])
    return {
        "energy": energy(core.energy_per_area_series(gap, N)),
        "convergence": [row._asdict() for row in
                        core.convergence_report(gap, op["Ns"])],
        "zeta": {"closed_form": series.zeta_even_closed_form(4),
                 "partial_sum": direct.estimate,
                 "direct_error_bound": direct.error_bound,
                 "tail_lower": bracket.lower,
                 "tail_upper": bracket.upper,
                 "euler_maclaurin": accelerated.estimate,
                 "euler_maclaurin_error_bound": accelerated.error_bound},
        "cutoff": {"finite_part": finite_part.estimate,
                   "error_bound": finite_part.error_bound},
        "crossover": {
            "closed": paradox.cosmological_crossover(op["rho"]),
            "bisection": paradox.crossover_by_bisection(
                op["rho"], rel_tol=op["bisection_rel_tol"])},
        "situation_one": {"P_i": one.P_i, "P_o": one.P_o,
                          "difference": one.difference},
        "situation_two": {"P_i": two.P_i, "P_o": two.P_o,
                          "difference": two.difference},
        "default_n": [energy(core.energy_per_area_series(core.PlateGap(g)))
                      for g in op["gaps"]],
    }


def main() -> int:
    traced = sys.argv[1] == "traced"
    sys.stderr.write(BEGIN + "\n")
    sys.stderr.flush()
    from casimir_kit import core, paradox, series
    sys.stderr.write(END + "\n")
    sys.stderr.flush()
    import json
    import resource

    from tracer import Tracer

    tracer = Tracer()
    clock = time.perf_counter_ns
    out = sys.stdout
    out.write(json.dumps({"ready": True, "cpu_s": _cpu_s(resource)}) + "\n")
    out.flush()
    for index, line in enumerate(sys.stdin):
        op = json.loads(line)
        reply = {}
        traced_op = traced and not op.get("warmup")
        if traced_op:
            gc.collect()
            t0 = clock()
            plain = evaluate(op, core, series, paradox)
            reply["plain_ns"] = clock() - t0
            tracer.op = index
            tracer.install()
            gc.collect()
        t0 = clock()
        result = evaluate(op, core, series, paradox)
        reply["ns"] = clock() - t0
        if traced_op:
            tracer.uninstall()
            reply["same"] = plain == result
        reply["cpu_s"] = _cpu_s(resource)
        out.write(json.dumps(reply) + "\n" + json.dumps(result) + "\n")
        out.flush()
    if traced:
        out.write(json.dumps({"trace": tracer.dump()}) + "\n")
        out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
