"""Smoke test of the benchmark: each workload at tiny sizes, untraced and traced.

Run with: python -m pytest -q perfbench/test_perfbench_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, workload: str, trace: int, *extra: str):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "5", "--seconds", "0.2", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_present_finite_with_unit(workload, trace):
    done = bench(ROOT, workload, trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for spec in declared:
        metric = result["metrics"][spec["name"]]
        assert isinstance(metric["value"], (int, float)), spec["name"]
        assert math.isfinite(metric["value"]), spec["name"]
        assert metric["unit"] == spec["unit"] != ""


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "closed_loop", 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
