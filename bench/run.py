"""casimir-kit benchmark: cold CLI calls, large tables and library series.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run it from anywhere inside a source tree of casimir-kit; it runs the
package from ``src/`` and builds nothing.  Every workload is a closed loop:
one client (this process) and one child process at a time.  A run makes
whole passes over a seed-shuffled operation list, as many as fit
``--seconds`` at the pace of the first pass.

Workloads and why each was chosen:

* ``cli-small``: the 11 golden invocations of ``tests/test_cli.py``, each a
  cold ``python -m casimir_kit`` process.  Every CLI user pays process start
  and import on each call; compute and render take under 2 ms.
* ``tables-json``: cold ``modes --n-max 100000`` and ``sweep --count
  200000`` (log, linear) processes with JSON output and seed-drawn gaps in
  [10 nm, 100 um].  The ``output`` layer dominates.
* ``tables-delimited``: the same invocations in CSV and text.  It shares the
  ``output`` layer through ``format_significant`` instead of ``repr``/JSON,
  so a JSON-only change should not move it.
* ``library-series``: one warm child evaluates one seed-drawn gap per
  operation, four per pass, through the public API (10**6-term series, a
  convergence report, the zeta route, the cutoff, both crossover routes,
  both paradox situations, 200 default-N series).  ``series`` does most of
  the work and no process starts or renders.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
operations in traced children (see ``tracer.py``) and reports per-layer
metrics.  Outputs are checked outside the timed region (see ``checks.py``),
and a failed check counts the operation as failed.  The next-to-last line of
stdout is a JSON record of the run; the last line is the result object.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from typing import Callable, NamedTuple

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "casimir_kit"
GOLDEN = ROOT / "tests" / "golden"
CLI_TESTS = ROOT / "tests" / "test_cli.py"
# Metric names and units come from the benchmark's definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

WORKLOADS = ("cli-small", "tables-json", "tables-delimited", "library-series")

# Repetitions inside one run; each figure is their median.
SETUP_SAMPLES = 9
BARE_START_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0

GAP_RANGE_M = (1e-8, 1e-4)  # 10 nm .. 100 um, drawn log-uniformly
HBAR_SI, C_SI = 1.054571817e-34, 299792458.0
DEFAULT_CUTOFF_GRID = [0.2, 0.1, 0.05, 0.025]
DEFAULT_PRECISION = 10
LIBRARY_OPS_PER_PASS = 4

Mutate = Callable[[int, bytes], bytes]


class Child(NamedTuple):
    out: bytes
    err: bytes
    code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int


def child_env() -> dict:
    """The whole environment children get: no CASIMIR_KIT_CONFIG.

    casimir-kit calls no BLAS routine, yet importing numpy starts OpenBLAS
    worker threads.  On a 2-core machine their start-up cost (about 70 ms)
    depends on whether the second core is free at that moment, and it made
    the medians of whole runs flip between two modes.  One BLAS thread makes
    the cold start steady; the rest of numpy's import is still measured, and
    traced runs report what the pinning takes off as
    ``import.blas_threads_ms``.
    """
    return {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(SRC),
            "OPENBLAS_NUM_THREADS": "1"}


def run_child(cmd: list[str], env: dict) -> Child:
    """Run ``cmd`` to completion; wall time spans spawn to reaping."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(out, err[0], proc.returncode, wall,
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


# --- operations -------------------------------------------------------------

def golden_cases() -> dict[str, list[str]]:
    """``GOLDEN_CASES`` from the CLI tests, read without importing them."""
    tree = ast.parse(CLI_TESTS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "GOLDEN_CASES"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no GOLDEN_CASES in {CLI_TESTS}")


def _gap(rng: random.Random) -> float:
    lo, hi = GAP_RANGE_M
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def cli_pass(rng: random.Random, cases: dict) -> list[dict]:
    ops = [{"label": name, "argv": list(argv), "golden": name}
           for name, argv in cases.items()]
    rng.shuffle(ops)
    return ops


def table_pass(rng: random.Random, formats: tuple[str, ...], smoke: bool) -> list[dict]:
    n_max = 200 if smoke else 100_000
    count = 300 if smoke else 200_000
    ops = []
    for fmt in formats:
        gap = _gap(rng)
        ops.append({"command": "modes", "format": fmt, "n_max": n_max,
                    "gap_value": gap,
                    "argv": ["modes", "--gap", f"{gap!r}m", "--n-max", str(n_max)]})
        for scale, quantity in (("log", "force"), ("linear", "energy")):
            lo, hi = sorted((_gap(rng), _gap(rng)))
            ops.append({"command": "sweep", "format": fmt, "count": count,
                        "min": lo, "max": hi, "scale": scale, "quantity": quantity,
                        "argv": ["sweep", "--quantity", quantity,
                                 "--min", f"{lo!r}m", "--max", f"{hi!r}m",
                                 "--count", str(count), "--scale", scale]})
    for op in ops:
        op["argv"] += ["--format", op["format"]]
        op["precision"] = DEFAULT_PRECISION
        op["label"] = " ".join(op["argv"])
    rng.shuffle(ops)
    return ops


def library_op(rng: random.Random, smoke: bool) -> dict:
    gap = _gap(rng)
    return {
        "gap": gap,
        # The density at which the crossover gap is ``gap`` itself.
        "rho": HBAR_SI * C_SI * math.pi ** 2 / (720.0 * gap ** 4),
        "P_i": rng.uniform(0.0, 1e5),
        "N": 10 ** 3 if smoke else 10 ** 6,
        "Ns": [10, 100, 1000] if smoke else [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6],
        "grid": DEFAULT_CUTOFF_GRID,
        "bisection_rel_tol": 1e-12,
        "gaps": [_gap(rng) for _ in range(5 if smoke else 200)],
    }


def make_pass(workload: str, rng: random.Random, smoke: bool, cases: dict) -> list[dict]:
    if workload == "cli-small":
        return cli_pass(rng, cases)
    if workload == "tables-json":
        return table_pass(rng, ("json",), smoke)
    if workload == "tables-delimited":
        return table_pass(rng, ("csv", "text"), smoke)
    ops = [library_op(rng, smoke) for _ in range(LIBRARY_OPS_PER_PASS)]
    for op in ops:
        op["label"] = f"gap={op['gap']!r}"
    return ops


def check_cli_output(op: dict, child_code: int, out: bytes, check_rng) -> list[str]:
    if child_code != 0:
        return [f"exit code {child_code}"]
    if "golden" in op:
        return checks.check_golden(out, (GOLDEN / op["golden"]).read_bytes())
    return checks.check_table(out, op, check_rng)


def _guarded(check: Callable[[], list[str]]) -> list[str]:
    """Run a check; an output it cannot even parse is a failure too."""
    try:
        return check()
    except Exception as exc:  # noqa: BLE001 - any parse error fails the op
        return [f"unreadable output: {exc!r}"]


# --- the loop ---------------------------------------------------------------

class Tally:
    """Per-op records of one run."""

    def __init__(self) -> None:
        self.op_s: list[float] = []
        self.pass_s: dict[int, list[float]] = {}
        self.failed = 0
        self.problems: list[str] = []
        self.sha256: dict[str, list[str]] = {}

    def timed(self, op: dict, seconds: float) -> None:
        self.op_s.append(seconds)
        self.pass_s.setdefault(op["pass"], []).append(seconds)

    def ops_per_s(self) -> float:
        """Median over passes of the ops completed per second."""
        return statistics.median(len(s) / sum(s) for s in self.pass_s.values())

    def record(self, op: dict, out: bytes, problems: list[str]) -> None:
        digest = hashlib.sha256(out).hexdigest()
        seen = self.sha256.setdefault(op["label"], [])
        if digest not in seen:
            seen.append(digest)
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{op['label']}: {'; '.join(problems[:3])}")


def passes(workload: str, rng, seconds: float, smoke: bool, cases: dict,
           spent: Callable[[], float]):
    """Yield the ops of whole passes.

    The first pass sets the count: as many passes as fit ``seconds`` at its
    pace, rounded to the nearest whole number and at least one.
    """
    count = 1
    number = 0
    while number < count:
        for op in make_pass(workload, rng, smoke, cases):
            op["pass"] = number
            yield op
        if number == 0 and not smoke:
            count = max(1, round(seconds / spent()))
        number += 1


def run_cli_untraced(workload, seed, seconds, smoke, cases, env, mutate) -> dict:
    rng, check_rng = random.Random(seed), random.Random(f"check-{seed}")
    tally = Tally()
    cpu_s, maxrss = [], 0
    for index, op in enumerate(passes(workload, rng, seconds, smoke, cases,
                                      lambda: sum(tally.op_s))):
        child = run_child([sys.executable, "-m", "casimir_kit", *op["argv"]], env)
        tally.timed(op, child.wall_s)
        cpu_s.append(child.cpu_s)
        maxrss = max(maxrss, child.maxrss_kb)
        out = mutate(index, child.out) if mutate else child.out
        tally.record(op, out, _guarded(
            lambda: check_cli_output(op, child.code, out, check_rng)))
    return {"tally": tally, "cpu_s": sum(cpu_s), "maxrss_kb": maxrss}


def run_cli_traced(workload, seed, seconds, smoke, cases, env, mutate) -> dict:
    rng, check_rng = random.Random(seed), random.Random(f"check-{seed}")
    tally = Tally()
    plain_ns = traced_ns = 0
    dumps, imports, peaks = [], [], []
    child_script = str(BENCH / "child_cli.py")
    for index, op in enumerate(passes(workload, rng, seconds, smoke, cases,
                                      lambda: sum(tally.op_s))):
        plain = run_child([sys.executable, child_script, "plain", *op["argv"]], env)
        traced = run_child([sys.executable, "-X", "importtime", child_script,
                            "traced", *op["argv"]], env)
        tally.timed(op, plain.wall_s + traced.wall_s)
        out = mutate(index, traced.out) if mutate else traced.out

        def check() -> list[str]:
            plain_report = _child_report(plain.err)
            report = _child_report(traced.err)
            problems = check_cli_output(op, traced.code, out, check_rng)
            if plain.out != traced.out:
                problems.append("tracing changed stdout")
            nonlocal plain_ns, traced_ns
            plain_ns += plain_report["main_ns"]
            traced_ns += report["main_ns"]
            dumps.append(report["trace"])
            peaks.append(report["render_peak_bytes"])
            imports.append(tracer.parse_importtime(
                traced.err.decode("utf-8", "replace"),
                "BENCH_IMPORT_BEGIN", "BENCH_IMPORT_END"))
            return problems

        tally.record(op, out, _guarded(check))
    return {"tally": tally, "dumps": dumps, "imports": imports, "peaks": peaks,
            "plain_ns": plain_ns, "traced_ns": traced_ns}


def _child_report(stderr: bytes) -> dict:
    marker = b"BENCH_RESULT "
    start = stderr.rfind(marker)
    if start < 0:
        raise ValueError("child wrote no BENCH_RESULT line")
    return json.loads(stderr[start + len(marker):])


def run_library(seed, seconds, smoke, env, mutate, traced: bool) -> dict:
    """One warm child; the first operation warms it up and is not timed."""
    rng, tally = random.Random(seed), Tally()
    cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + [
        str(BENCH / "child_lib.py"), "traced" if traced else "plain"]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    watchdog = threading.Timer(seconds + CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    plain_ns = traced_ns = 0
    cpu_start = cpu_end = 0.0
    dump = None
    try:
        json.loads(proc.stdout.readline())  # ready
        warmup = dict(library_op(random.Random(f"warmup-{seed}"), smoke), warmup=True)
        proc.stdin.write((json.dumps(warmup) + "\n").encode())
        proc.stdin.flush()
        cpu_start = cpu_end = json.loads(proc.stdout.readline())["cpu_s"]
        proc.stdout.readline()
        for index, op in enumerate(passes("library-series", rng, seconds, smoke,
                                          {}, lambda: sum(tally.op_s))):
            line = (json.dumps(op) + "\n").encode()
            start = time.perf_counter()
            proc.stdin.write(line)
            proc.stdin.flush()
            meta_line = proc.stdout.readline()
            result_line = proc.stdout.readline()
            tally.timed(op, time.perf_counter() - start)
            if not result_line:
                tally.record(op, b"", ["the child exited"])
                break
            out = mutate(index, result_line) if mutate else result_line

            def check() -> list[str]:
                nonlocal plain_ns, traced_ns, cpu_end
                meta = json.loads(meta_line)
                cpu_end = meta["cpu_s"]
                problems = checks.check_library(
                    checks.strict_json(out.decode("utf-8")), op)
                if traced:
                    plain_ns += meta["plain_ns"]
                    traced_ns += meta["ns"]
                    if not meta["same"]:
                        problems.append("tracing changed the results")
                return problems

            tally.record(op, out, _guarded(check))
        proc.stdin.close()
        last = proc.stdout.read()
        if traced and last:
            dump = json.loads(last)["trace"]
    except BaseException:
        proc.kill()
        raise
    finally:
        if not proc.stdin.closed:
            proc.stdin.close()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    imports = tracer.parse_importtime(err[0].decode("utf-8", "replace"),
                                      "BENCH_IMPORT_BEGIN", "BENCH_IMPORT_END")
    return {"tally": tally, "cpu_s": cpu_end - cpu_start, "maxrss_kb": usage.ru_maxrss,
            "dumps": [dump] if dump else [], "imports": [imports], "peaks": [0],
            "plain_ns": plain_ns, "traced_ns": traced_ns}


# --- figures ----------------------------------------------------------------

def timed_starts(cmd: list[str], env: dict, samples: int) -> list[float]:
    walls = []
    for _ in range(samples):
        child = run_child(cmd, env)
        if child.code != 0:
            raise RuntimeError(f"{cmd} exited {child.code}: "
                               f"{child.err.decode('utf-8', 'replace')[-400:]}")
        walls.append(child.wall_s)
    return walls


def op_ms_tail(op_ms: list[float]) -> dict | None:
    """The highest percentile with at least 10 samples beyond it."""
    n = len(op_ms)
    if n < 11:
        return None
    k = n - 11
    return {"value": sorted(op_ms)[k], "percentile": 100.0 * (k + 1) / n,
            "samples": n}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def stamp(env: dict) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
        "child_env": env,
        "loop": "closed, 1 client, 1 child process at a time",
        "warmup": "one untimed 'python -m casimir_kit --help' (fills the .pyc "
                  "cache); library-series also sends one untimed operation",
        "isolation": "no CPU pinning, cgroup change or cache drop was used",
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        smoke: bool = False, mutate: Mutate | None = None) -> tuple[dict, dict]:
    """One run; returns (record of the run, result object)."""
    env = child_env()
    cases = golden_cases() if workload == "cli-small" else {}
    timed_starts([sys.executable, "-m", "casimir_kit", "--help"], env, 1)
    if trace:
        timed_starts([sys.executable, str(BENCH / "child_cli.py"), "plain",
                      "--help"], env, 1)
    setup_cmd = [sys.executable, "-c", "import casimir_kit.cli"]
    # Half the set-up samples before the ops and half after, so a slow
    # spell of the machine at either end does not set the median.
    setup_before = 1 if smoke else (SETUP_SAMPLES + 1) // 2
    setup = [] if trace else timed_starts(setup_cmd, env, setup_before)
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "smoke": smoke, "stamp": stamp(env)}

    if workload == "library-series":
        data = run_library(seed, seconds, smoke, env, mutate, trace)
    elif trace:
        data = run_cli_traced(workload, seed, seconds, smoke, cases, env, mutate)
    else:
        data = run_cli_untraced(workload, seed, seconds, smoke, cases, env, mutate)
    tally: Tally = data["tally"]
    if not (trace or smoke):
        setup += timed_starts(setup_cmd, env, SETUP_SAMPLES - setup_before)
    attempted = len(tally.op_s)
    op_ms = [s * 1e3 for s in tally.op_s]
    record.update({
        "attempted": attempted,
        "failed_op_ratio": tally.failed / attempted,
        "problems": tally.problems,
        "stdout_sha256": tally.sha256,
    })

    if trace:
        samples = 1 if smoke else BARE_START_SAMPLES
        bare = timed_starts([sys.executable, "-c", "pass"], env, samples)
        # What pinning OpenBLAS to one thread takes off the import (see
        # child_env): set-up with the default thread pool minus without.
        pool_env = {k: v for k, v in env.items() if k != "OPENBLAS_NUM_THREADS"}
        pooled, pinned = [], []
        for _ in range(samples):
            pooled += timed_starts(setup_cmd, pool_env, 1)
            pinned += timed_starts(setup_cmd, env, 1)
        layers, self_ms = tracer.layer_metrics(data["dumps"], attempted)
        # Ops whose child failed left no figures; the rest are averaged.
        figures = data["imports"] or [tracer.parse_importtime("", "", "")]
        imports = {key: statistics.fmean(fig[key] for fig in figures)
                   for key in figures[0]}
        values = {"process.bare_start_ms": statistics.median(bare) * 1e3,
                  "import.blas_threads_ms": (statistics.median(pooled)
                                             - statistics.median(pinned)) * 1e3,
                  **imports, **layers,
                  "output.render_peak_mb": max(data["peaks"], default=0) / 2 ** 20,
                  "trace.overhead_ratio": (data["traced_ns"] / data["plain_ns"]
                                           if data["plain_ns"] else 0.0)}
        record["self_ms"] = self_ms
    else:
        record["op_ms_tail"] = op_ms_tail(op_ms)
        values = {
            "setup_s": statistics.median(setup),
            "op_ms_p50": statistics.median(op_ms),
            "ops_per_s": tally.ops_per_s(),
            "cpu_ms_per_op": data["cpu_s"] * 1e3 / attempted,
            "peak_rss_mb": data["maxrss_kb"] / 1024.0,
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in SPEC["per_layer" if trace else "end_to_end"]}
    result = {"correct": tally.failed == 0, "attempted": attempted,
              "failed": tally.failed, "metrics": metrics}
    return record, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one pass, for the benchmark's tests")
    args = parser.parse_args(argv)
    missing = [str(p.relative_to(ROOT)) for p in
               (PACKAGE / "__init__.py", GOLDEN, CLI_TESTS) if not p.exists()]
    if missing:
        print(f"error: not a casimir-kit source tree, missing {missing}",
              file=sys.stderr)
        return 2
    record, result = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
