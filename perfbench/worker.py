"""One benchmark process: set up the inputs, then run the pipeline in a
closed loop (one client, one pipeline at a time) and check every result.

Started by ``run.py`` as a fresh interpreter; prints one JSON object as its
last line of output.  ``--t0`` is the parent's ``time.monotonic()`` just
before the process was spawned, so ``setup_s`` covers interpreter start,
imports and input generation.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
import warnings
from contextlib import nullcontext

from workloads import D, D_S, WORKLOADS, CountingTarget, make_inputs, \
    oracle_errors, torus_shift


def _nospan(_name):
    return nullcontext()


def run_pipeline(wl, inputs, sampling, span):
    """detect + approximate, timed; returns (timings, detection, model)."""
    from anovafourier import method
    cfg = method.DetectionConfig(d=D, d_s=D_S, search=wl.detect_search,
                                 thresholds=wl.thresholds, sampling=sampling)
    t0 = time.perf_counter()
    with span("method.detect"):
        result = method.detect(cfg, inputs)
    t1 = time.perf_counter()
    with span("method.approximate"):
        sets = method.build_search_sets(D, D_S, wl.final_search,
                                        family=result.active)
        model = method.approximate(result.active, sets, inputs, sampling)
    t2 = time.perf_counter()
    return {"detect_s": t1 - t0, "approximate_s": t2 - t1,
            "total_s": t2 - t0}, result, model


def check(wl, result, model, shift) -> tuple[dict, list]:
    """Oracle check of one pipeline result, outside the timed window."""
    import numpy as np
    from anovafourier import bench
    problems = []
    if result.active != bench.u_star():
        problems.append("detected family is not U*: " + str(
            sorted(result.active.terms, key=lambda u: (len(u), u))))
    for label, m in (("pilot", result.pilot), ("final", model)):
        if not np.all(np.isfinite(m.coefficients.values)):
            problems.append(f"{label} model has non-finite coefficients")
    eps_l2, eps_L2 = oracle_errors(model, shift)
    if not eps_L2 <= wl.eps_L2_max:
        problems.append(f"eps_L2 {eps_L2:.6g} exceeds {wl.eps_L2_max:.6g}")
    return {"eps_l2": eps_l2, "eps_L2": eps_L2}, problems


def machine() -> dict:
    import numpy as np
    from anovafourier import _kernels
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    keep = ("name", "version", "openblas configuration")
    return {"numpy": np.__version__, "backend": _kernels.BACKEND,
            **{lib: {k: v for k, v in (deps.get(lib) or {}).items() if k in keep}
               for lib in ("blas", "lapack")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--budget", type=float, required=True,
                    help="seconds after which no further pipeline may start")
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = expect = None
    if args.trace:
        import tracer as tr
        tracer = tr.Tracer()
        expect = tr.install(tracer)
    from anovafourier import bench
    wl = WORKLOADS[args.scale][args.workload]
    shift = torus_shift(wl, args.seed)
    target = CountingTarget(bench.testfun_value, shift)
    if tracer is not None:
        target.hook = tracer.hook("target.eval")
    inputs, sampling = make_inputs(wl, args.seed, target)
    setup_points = target.points
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    span = tracer.span if tracer is not None else _nospan
    pipelines, peak_rss_mb = [], None
    start = time.monotonic()
    while True:
        run_id = f"{args.workload}/{args.seed}/{len(pipelines)}"
        if tracer is not None:
            tracer.run = run_id
        rec = {"run": run_id}
        before = target.points
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                timing, result, model = run_pipeline(wl, inputs, sampling, span)
        except Exception:  # a crashing pipeline is a failed attempt
            rec["problems"] = [traceback.format_exc()]
            pipelines.append(rec)
            break
        if peak_rss_mb is None:  # before the oracle check allocates
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rec.update(timing)
        rec["target_evals"] = setup_points + target.points - before
        rec["warnings"] = [str(w.message) for w in caught]
        rec["iterations"] = {
            "detect": result.pilot.provenance["solver_report"]["iterations"],
            "approximate": model.provenance["solver_report"]["iterations"]}
        rec["sizes"] = {"pilot": len(result.pilot.index_set),
                        "final": len(model.index_set),
                        "samples_pilot": result.pilot.provenance["sample_count"],
                        "samples_final": model.provenance["sample_count"]}
        if tracer is not None:
            tracer.paused = True
        try:
            errs, rec["problems"] = check(wl, result, model, shift)
            rec["digest"] = model.digest()
        finally:
            if tracer is not None:
                tracer.paused = False
        rec.update(errs)
        pipelines.append(rec)
        elapsed = time.monotonic() - start
        if elapsed + 1.3 * rec["total_s"] > args.budget or (
                elapsed >= args.seconds and len(pipelines) >= wl.repeats):
            break

    out = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
           "pipelines": pipelines, "machine": machine(),
           "package": sys.modules["anovafourier"].__file__}
    if tracer is not None:
        import tracer as tr
        reports = {p["run"]: p["iterations"] for p in pipelines
                   if "iterations" in p}
        out["trace_problems"] = tr.check(tracer.spans, tracer.calls, expect,
                                         wl, reports)
        out["layers"] = [tr.layer_metrics(tracer.spans, p["run"])
                         for p in pipelines if "digest" in p]
        out["calls"] = tracer.calls
        out["spans"] = tracer.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
