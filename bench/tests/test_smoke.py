"""Smoke tests of the benchmark harness at tiny sizes; nothing here is timed.

    python -m pytest bench/tests
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_checks_every_op_and_reports_every_metric(workload, trace):
    record, result = run.run(workload, seed=1, seconds=1, trace=trace, smoke=True)
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert all(sha for shas in record["stdout_sha256"].values() for sha in shas)


def test_traced_library_counts_match_the_op_list():
    _, result = run.run("library-series", seed=3, seconds=1, trace=True, smoke=True)
    op = run.library_op(random.Random(0), smoke=True)
    terms = op["N"] + sum(op["Ns"]) + 2 * op["N"] + 1000 * len(op["gaps"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["series.terms_summed"] == terms
    assert metrics["series.unique_term_ratio"] == op["N"] / terms
    assert metrics["series.partial_sum_calls"] == 1 + len(op["Ns"]) + 2 + len(op["gaps"])


def test_traced_tables_count_one_call_per_row():
    _, result = run.run("tables-json", seed=3, seconds=1, trace=True, smoke=True)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    ops = run.table_pass(random.Random(0), ("json",), smoke=True)
    modes = [op for op in ops if op["command"] == "modes"]
    sweeps = [op for op in ops if op["command"] == "sweep"]
    assert metrics["core.mode_state_calls"] == sum(op["n_max"] for op in modes) / len(ops)
    assert metrics["core.closed_form_calls"] == sum(op["count"] for op in sweeps) / len(ops)
    assert metrics["output.rows"] == pytest.approx(
        metrics["core.mode_state_calls"] + metrics["core.closed_form_calls"])


def _bump_last_byte(out: bytes) -> bytes:
    return out[:-2] + bytes([out[-2] ^ 1]) + out[-1:]


def _bump_json_row(out: bytes) -> bytes:
    payload = json.loads(out)
    row = payload["results"]["rows"][0]
    key = list(row)[-1]
    row[key] *= 1.0 + 1e-9
    return (json.dumps(payload, indent=2) + "\n").encode()


def _bump_delimited_row(out: bytes) -> bytes:
    lines = out.decode().split("\n")
    first = lines.index("rows:") + 2 if "rows:" in lines else 1
    fields = lines[first].split(",")
    fields[-1] = f"{float(fields[-1]) * 1.001:.9e}"
    lines[first] = ",".join(fields)
    return "\n".join(lines).encode()


def _bump_library_value(out: bytes) -> bytes:
    result = json.loads(out)
    result["energy"]["series_value"] *= 1.001
    return (json.dumps(result) + "\n").encode()


@pytest.mark.parametrize("workload, corrupt", [
    ("cli-small", _bump_last_byte),
    ("tables-json", _bump_json_row),
    ("tables-delimited", _bump_delimited_row),
    ("library-series", _bump_library_value),
])
def test_a_corrupted_output_counts_as_failed(workload, corrupt):
    def mutate(index, out):
        return corrupt(out) if index == 0 else out

    record, result = run.run(workload, seed=1, seconds=1, trace=False,
                             smoke=True, mutate=mutate)
    assert result["failed"] == 1, record["problems"]
    assert not result["correct"]
    assert record["failed_op_ratio"] == 1 / result["attempted"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.op_ms_tail([1.0] * 10) is None
    tail = run.op_ms_tail([float(v) for v in range(1, 101)])
    assert tail == {"value": 90.0, "percentile": 90.0, "samples": 100}
