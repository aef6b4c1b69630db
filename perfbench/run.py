"""Benchmark of the two-stage detect/approximate pipeline.

    python3 perfbench/run.py --workload scattered-grid --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each run starts fresh worker processes (``worker.py``) with the
BLAS thread count set in their environment:

* ``--trace 0``: several set-up-only workers and one worker that runs the
  pipeline in a closed loop for ``--seconds``; prints the end-to-end metrics.
* ``--trace 1``: one untraced and one traced worker; prints the per-layer
  metrics of the traced one and the tracing overhead.

Every pipeline result is checked against the closed-form oracle of
``anovafourier.bench``, and a model must be byte-identical across runs of
one seed in this checkout.  The last line of output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record, machine description included, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUPS = 11           # set-up measurements per untraced run (median reported)
RUN_LIMIT_S = 170.0   # a run must end well within 180 s

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def thread_env() -> dict:
    # One BLAS thread: never more than nproc, and on a 2-CPU machine the
    # other CPU absorbs the harness and system noise (steadier timings).
    return {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def spawn(args, deadline, extra, trace=0) -> dict:
    env = dict(os.environ, **thread_env())
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--scale", args.scale,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--budget", str(max(0.0, deadline - t0)), "--t0", repr(t0),
           "--trace", str(trace)] + extra
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:  # run() has killed and reaped it
        raise SystemExit(f"worker did not finish within {RUN_LIMIT_S:.0f} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values) -> dict:
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "percentile": None}
    for p in (99.9, 99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            out["percentile"] = {"p": p, "value": q[int(p * 10) - 1]}
            break
    return out


def model_key(args, wl) -> str:
    """Runs with equal keys must give byte-identical models: same scale,
    workload, sizes, seed and package source."""
    h = hashlib.sha256(repr(wl).encode())
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return f"{args.scale}/{args.workload}/{args.seed}/{h.hexdigest()[:16]}"


def digest_problems(key, digests) -> list:
    """Every model of one key must be byte-identical (see ``model_key``)."""
    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    want = store.get(key, digests[0])
    bad = [d for d in digests if d != want]
    store[key] = want
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(store_path)
    return [f"model digest {d[:16]} differs from {want[:16]} for {key}"
            for d in bad]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS["full"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="'smoke' runs tiny sizes for the smoke test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "anovafourier" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.scale][args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S

    if args.trace:
        # the untraced run shares the traced run's remaining time
        half = time.monotonic() + RUN_LIMIT_S / 2
        plain = spawn(args, half, [])
        traced = spawn(args, deadline, [], trace=1)
        workers, setups = [plain, traced], []
    else:
        setups = [spawn(args, deadline, ["--setup-only"])["setup_s"]
                  for _ in range(SETUPS - 1)]
        plain = spawn(args, deadline, [])
        workers, traced = [plain], None
    setups.append(plain["setup_s"])

    pipelines = [p for w in workers for p in w["pipelines"]]
    completed = [[p for p in w["pipelines"] if "digest" in p] for w in workers]
    done = [p for c in completed for p in c]
    src = str(ROOT / "src")
    problems = [f"package imported from {w['package']}, not {src}"
                for w in workers if not w["package"].startswith(src)]
    if not all(completed):
        problems.append("a worker completed no pipeline")
    if done:
        problems += digest_problems(model_key(args, wl),
                                    [p["digest"] for p in done])
    if traced is not None:
        problems += traced["trace_problems"]
    failed = sum(1 for p in pipelines if p["problems"])
    if problems and failed == 0:
        failed = len(pipelines)  # a run-level fault fails every pipeline
    for p in pipelines:
        for msg in p["problems"]:
            print(f"FAIL {p['run']}: {msg}", file=sys.stderr)
    for msg in problems:
        print(f"FAIL: {msg}", file=sys.stderr)
    if not all(completed):
        return 1

    stats = {}
    if traced is None:
        for name in ("total_s", "detect_s", "approximate_s", "target_evals",
                     "eps_L2", "eps_l2"):
            stats[name] = summary([p[name] for p in done])
        stats["setup_s"] = summary(setups)
        stats["peak_rss_mb"] = summary([plain["peak_rss_mb"]])
    else:
        layers = traced["layers"]
        for name in layers[0]:
            stats[name] = summary([m[name] for m in layers])
        untraced, traced_t = ([p["total_s"] for p in c] for c in completed)
        stats["trace.overhead_s"] = {
            "median": statistics.median(traced_t) - statistics.median(untraced),
            "n": len(traced_t), "percentile": None}

    record = {
        "args": vars(args),
        "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                    "affinity": len(os.sched_getaffinity(0)),
                    "python": sys.version, "platform": platform.platform(),
                    "thread_env": thread_env(), **plain["machine"]},
        "failed_frac": {"value": failed / len(pipelines), "failed": failed,
                        "attempted": len(pipelines)},
        "problems": problems,
        "metrics": {k: {**v, "unit": units[k]} for k, v in stats.items()},
        "setups_s": setups,
        "workers": workers,
    }
    name = f"{args.scale}-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(pipelines), "failed": failed,
        "metrics": {k: {"value": v["median"], "unit": units[k]}
                    for k, v in stats.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
