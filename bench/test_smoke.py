"""Smoke passes of every workload: reduced sizes, every correctness check.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "B")


def _run(workload, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_match_the_spec(workload):
    metrics = _result(_run(workload, 0))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == expected
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat_across_runs(workload):
    first = _result(_run(workload, 1))["metrics"]
    second = _result(_run(workload, 1))["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first.items()} == expected
    counts = [k for k, v in first.items() if v["unit"] in COUNT_UNITS]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("run_lx", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
