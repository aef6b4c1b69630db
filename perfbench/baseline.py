"""Summarise finished benchmark runs into ``perfbench/baseline.json``.

    python3 perfbench/baseline.py [--seeds 1-10]

Reads the records that ``run.py`` left in ``perfbench/out/``: the untraced
full-size run of every workload for each seed, and the traced run of the
first seed.  For each end-to-end metric it writes the median and quartiles
of the per-run values (``statistics.quantiles(n=4)``) and their spread
(third minus first quartile, over the median); for the traced run it
writes every per-layer metric and the shares of ``total_s`` that the
operator layer and the CBC search take.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load(workload, seed, trace) -> dict:
    path = HERE / "out" / f"full-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def workload_summary(workload, seeds) -> dict:
    runs = [load(workload, s, 0) for s in seeds]
    e2e = {}
    for m in SPEC["end_to_end"]:
        v = [r["metrics"][m["name"]]["median"] for r in runs]
        q1, _, q3 = statistics.quantiles(v, n=4)
        e2e[m["name"]] = {"median": statistics.median(v), "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / statistics.median(v),
                          "bound": m["bound"], "unit": m["unit"]}
    failed = sum(r["failed_frac"]["failed"] for r in runs)
    attempted = sum(r["failed_frac"]["attempted"] for r in runs)
    traced = load(workload, seeds[0], 1)
    layers = {k: v["median"] for k, v in traced["metrics"].items()}
    total = traced["workers"][1]["pipelines"][0]["total_s"]
    op = sum(layers[k] for k in ("operator.forward_s", "operator.adjoint_s",
                                 "operator.setup_s", "operator.lsqr_self_s"))
    return {"end_to_end": e2e,
            "failed_frac": {"value": failed / attempted, "failed": failed,
                            "attempted": attempted},
            "traced_seed": seeds[0], "traced_total_s": total,
            "operator_share": op / total,
            "cbc_share": layers["lattice.cbc_s"] / total,
            "per_layer": layers}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args(argv)
    seeds = seed_range(args.seeds)
    names = [w["name"] for w in SPEC["workloads"]]
    out = {"seeds": seeds,
           "machine": load(names[0], seeds[0], 0)["machine"],
           "workloads": {w: workload_summary(w, seeds) for w in names}}
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    for w, d in out["workloads"].items():
        for k, v in d["end_to_end"].items():
            print(f"{w:17s} {k:14s} median {v['median']:<12.6g} "
                  f"spread {v['spread']:.4f} (bound {v['bound']})")
        print(f"{w:17s} operator share {d['operator_share']:.3f}, "
              f"cbc share {d['cbc_share']:.3f}, failed {d['failed_frac']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
