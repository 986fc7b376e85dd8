"""Child process for the traced run of one CLI invocation.

    python [-X importtime] bench/child_cli.py plain|traced <casimir-kit argv>

The child imports ``casimir_kit.cli`` between two marker lines on stderr
and calls ``cli.main(argv)``, so stdout is exactly the CLI's.  ``plain``
times ``main`` with no wrappers; ``traced`` wraps the public functions first
(see tracer.py) and then measures the render's tracemalloc peak.  The
figures go to stderr as one line after ``BENCH_RESULT``.
"""

from __future__ import annotations

import gc
import sys
import time

BEGIN, END, RESULT = "BENCH_IMPORT_BEGIN", "BENCH_IMPORT_END", "BENCH_RESULT "


def main() -> int:
    traced, argv = sys.argv[1] == "traced", sys.argv[2:]
    sys.stderr.write(BEGIN + "\n")
    sys.stderr.flush()
    import casimir_kit.cli
    sys.stderr.write(END + "\n")
    sys.stderr.flush()
    import json

    from tracer import Tracer

    cli = casimir_kit.cli
    tracer = Tracer()
    if traced:
        tracer.install()
    # Start both modes from an empty collector, so that a collection due
    # after the import lands in neither timing.
    gc.collect()
    t0 = time.perf_counter_ns()
    code = cli.main(argv)
    main_ns = time.perf_counter_ns() - t0
    sys.stdout.flush()
    report = {"code": code, "main_ns": main_ns}
    if traced:
        tracer.uninstall()
        report["render_peak_bytes"] = tracer.render_peak_bytes()
        report["trace"] = tracer.dump()
    sys.stderr.write(RESULT + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
