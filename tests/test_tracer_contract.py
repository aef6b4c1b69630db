"""The layer bindings that ``perfbench/tracer.py`` wraps still fire as it
expects, on every benchmark workload.

The tracer wraps layer functions by their names in the package's module
namespaces, so moving a call makes a traced benchmark run report a problem.
This runs one traced smoke-size worker per workload (about a second each)
and asserts that it reports none.  The worker writes no files.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_worker_reports_no_tracer_problem(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--scale", "smoke", "--trace", "1",
         "--seed", "3", "--seconds", "0.1", "--budget", "60",
         "--t0", repr(time.monotonic())],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["trace_problems"] == []
