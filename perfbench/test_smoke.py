"""Smoke check of the benchmark harness at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload's code path, untraced and traced, and asserts that the
result line carries exactly the metrics ``BENCHMARK.json`` declares.  The
tiny sizes are below what detection needs on the cross workload, so the
oracle gates may fail there; this checks the harness, not the model.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    record = json.loads((HERE / "out" / (
        f"smoke-{workload}-seed3-trace{trace}.json")).read_text())
    assert record["machine"]["backend"] in ("numpy", "numba")
    assert record["failed_frac"]["attempted"] == result["attempted"]
    assert record["problems"] == []  # trace consistency and model digests


def test_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "scattered-grid", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
