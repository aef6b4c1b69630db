"""Command-line interface.

Subcommands: ``detect``, ``approximate``, ``bench``, ``lattice``, ``bound``,
``eval``.  Every run writes a manifest JSON next to its outputs; reruns with
identical configuration and seed produce byte-identical artifacts apart from
the timing fields.

Exit codes: 0 success, 1 pipeline failure, 2 configuration/schema error or
an LSQR stopped at its iteration limit (after the artifacts are written).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .index_sets import GroupedIndexSet
from .lattice import cbc_construct, save_lattice
from .method import (_SAMPLING_KINDS, ApproxModel, ConfigError, _check_sampling,
                     _digest, _number, approximate, build_search_sets, detect,
                     gap_intervals, read_run_config)
from .weights import BOUNDS, WeightParams, bound_curve, parse_weight_sequence


def _load_json(path, what="config"):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {path}:{exc.lineno}: {exc.msg}")


def _load_doc(path, flag, parse):
    """``parse`` of the JSON document at ``path``; a document it cannot
    take raises ConfigError naming ``flag`` and the file."""
    doc = _load_json(path, flag)
    try:
        return parse(doc)
    except KeyError as exc:
        raise ConfigError(f"{flag} {path}: missing field {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{flag} {path}: {exc}") from None


class _Output:
    """A command's output directory, its artifacts and its manifest.

    Made once the command's stage has run, so a failed stage leaves no
    directory.  Every artifact path comes from :meth:`path`, which lists it
    in the manifest that :meth:`manifest` writes.
    """

    def __init__(self, out, command: str, t0: float):
        self.dir = Path(out)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.command, self.t0, self.artifacts = command, t0, []

    def path(self, name: str) -> Path:
        p = self.dir / name
        self.artifacts.append(p)
        return p

    def text(self, name: str, text: str) -> None:
        self.path(name).write_text(text)

    def json(self, name: str, doc, sort_keys: bool = False) -> None:
        self.text(name, json.dumps(doc, indent=2, sort_keys=sort_keys))

    def manifest(self, cfg, seeds, **extra) -> None:
        doc = {"command": self.command,
               "config_digest": _digest(cfg),
               "seeds": seeds,
               "artifacts": sorted(str(a) for a in self.artifacts),
               "tool_version": __version__,
               "wall_time_seconds": time.time() - self.t0,
               **extra}
        (self.dir / f"{self.command}-manifest.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True))


def _check_table(table, where: str, n: int, unit: str):
    """``table`` if it has ``n`` columns and only finite rows; otherwise a
    ConfigError naming ``where`` and the column count or the first bad row."""
    if table.shape[1] != n:
        raise ConfigError(f"{where}: expected {n} {unit}, got {table.shape[1]}")
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise ConfigError(f"{where}: non-finite value in row {bad[0] + 1}")
    return table


def _exit_code(stage: str, stop: str) -> int:
    """2, with the stop reason on stderr, if the stage's LSQR hit its limit."""
    if stop.startswith("iteration limit"):
        print(f"error: {stage}: LSQR {stop}", file=sys.stderr)
        return 2
    return 0


def _target_from_config(cfg, d):
    target = cfg.get("target", {"builtin": "bench"})
    if "builtin" in target:
        from .bench import D, testfun_value
        if target["builtin"] != "bench":
            raise ConfigError(f"unknown builtin target {target['builtin']!r}")
        if d != D:
            raise ConfigError(f"target.builtin 'bench' needs d = {D}, got d = {d}")
        return testfun_value
    if "csv" in target:
        try:
            data = np.loadtxt(target["csv"], delimiter=";", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"target.csv: cannot read {target['csv']!r}: {exc}")
        _check_table(data, "target.csv", d + 1, "columns")
        X = data[:, :d]
        wrapped = int(np.sum((X < 0) | (X >= 1)))
        if wrapped:
            print(f"warning: {wrapped} coordinates reduced mod 1", file=sys.stderr)
            X = X - np.floor(X)
        return X, data[:, d]
    raise ConfigError("target must specify 'builtin' or 'csv'")


def _overridden(cfg, args):
    """The config with --scenario as ``sampling.kind`` and --seed as
    ``sampling.seed``, in a fresh dict that leaves the bench registries as
    they are; a config without a sampling object is left to the checker."""
    sampling = cfg.get("sampling") if isinstance(cfg, dict) else None
    if not isinstance(sampling, dict):
        return cfg
    given = {k: v for k, v in (("kind", args.scenario), ("seed", args.seed))
             if v is not None}
    return {**cfg, "sampling": {**sampling, **given}}


def cmd_detect(args) -> int:
    t0 = time.time()
    cfg = _overridden(_load_json(args.config), args)
    dc, _ = read_run_config(cfg)
    target = _target_from_config(cfg, dc.d)
    result = detect(dc, target)
    out = _Output(args.out, "detect", t0)
    out.json("sensitivity.json", result.report.to_json_dict(), sort_keys=True)
    out.text("sensitivity.csv", result.report.to_csv())
    out.json("active_set.json",
             {"d": dc.d, "terms": [list(u) for u in result.active.sorted_terms()]})
    if cfg.get("truth") == "bench-ustar":
        from .bench import u_star
        gaps = gap_intervals(result.report, u_star(), dc.d_s)
        out.json("gaps.json", {"gaps": [list(g) if g else None for g in gaps]})
    result.pilot.save(out.path("pilot-model.json"))
    extra = {}
    if "lattice" in result.pilot.provenance:
        out.json("pilot-lattice.json", result.pilot.provenance["lattice"],
                 sort_keys=True)
        extra["lattice_M"] = result.pilot.provenance["lattice"]["M"]
    out.manifest(cfg, dc.sampling.get("seed"), **extra)
    return _exit_code("detect", result.pilot.provenance["solver_report"]["stop_reason"])


def cmd_approximate(args) -> int:
    t0 = time.time()
    cfg = _overridden(_load_json(args.config), args)
    dc, family = read_run_config(cfg)
    if family is None:
        raise ConfigError("config: missing required field 'active_set'")
    target = _target_from_config(cfg, dc.d)
    _check_sampling(dc.sampling, target)
    sets = build_search_sets(dc.d, dc.d_s, dc.search, family=family)
    model = approximate(family, sets, target, dc.sampling, dc.solver)
    model.provenance["config"] = {k: v for k, v in cfg.items() if k != "target"}
    out = _Output(args.out, "approximate", t0)
    model.save(out.path("model.json"))
    out.manifest(cfg, dc.sampling.get("seed"))
    return _exit_code("approximate", model.provenance["solver_report"]["stop_reason"])


def cmd_bench(args) -> int:
    from .bench import DESK_CONFIGS, TABLE_CONFIGS, ExperimentRow, run_experiment
    t0 = time.time()
    if args.config:
        cfg = _load_json(args.config)
    elif args.table is not None:
        key = (args.table, args.row or 1)
        if key not in TABLE_CONFIGS:
            raise ConfigError(f"no registered config for table {key[0]} row {key[1]}")
        cfg = dict(TABLE_CONFIGS[key])
        cfg["id"] = f"table{key[0]}-row{key[1]}"
    elif args.desk:
        if args.desk not in DESK_CONFIGS:
            raise ConfigError(f"unknown desk scenario {args.desk!r}; "
                              f"choose from {sorted(DESK_CONFIGS)}")
        cfg = dict(DESK_CONFIGS[args.desk])
        cfg["id"] = f"desk-{args.desk}"
    else:
        raise ConfigError("bench needs --config, --table or --desk")
    cfg = _overridden(cfg, args)
    row = run_experiment(cfg)
    out = _Output(args.out, "bench", t0)
    csv_path = out.path("experiments.csv")
    new = not csv_path.exists()
    with open(csv_path, "a") as fh:
        if new:
            fh.write(ExperimentRow.csv_header() + "\n")
        fh.write(row.csv_line() + "\n")
    out.json(f"{row.id}.json", {
        "id": row.id, "scenario": row.scenario, "d_s": row.d_s,
        "N": list(row.N), "set_size": row.set_size, "samples": row.samples,
        "eps_l2": row.eps_l2, "eps_L2": row.eps_L2,
        "gaps": [list(g) if g else None for g in row.gaps] if row.gaps else None,
        "seconds": row.seconds, "extra": row.extra,
        "scale": "config" if args.config else "desk" if args.desk else "full"})
    print(row.csv_line())
    out.manifest(cfg, cfg.get("sampling", {}).get("seed"))
    return _exit_code("bench", row.stop_reason)


def cmd_lattice(args) -> int:
    t0 = time.time()
    _number(args.seed, "--seed", 0, integer=True)
    idx = _load_doc(args.index_set, "--index-set", GroupedIndexSet.from_json_dict)
    lat = cbc_construct(idx, seed=args.seed)
    out = _Output(args.out, "lattice", t0)
    save_lattice(out.path("lattice.json"), lat, idx.digest())
    print(f"M = {lat.M}, z = {lat.z.tolist()}")
    out.manifest({"index_set": args.index_set}, args.seed)
    return 0


def _weight_sequence(flag, expr, d):
    try:
        return parse_weight_sequence(expr, d)
    except ValueError as exc:
        raise ConfigError(f"{flag} {expr!r}: {exc}")


def cmd_bound(args) -> int:
    t0 = time.time()
    d = args.d
    if not 1 <= args.ds < d:
        raise ConfigError(f"--ds must satisfy 1 <= ds < d = {d}, got {args.ds}")
    gamma = _weight_sequence("--gammas", args.gammas, d)
    Gamma = _weight_sequence("--Gammas", args.Gammas, d)
    try:
        p = WeightParams(args.alpha, args.beta, gamma, Gamma)
    except ValueError as exc:
        raise ConfigError(str(exc))
    lines = ["param;value;bound"]
    if args.sweep:
        lo, hi, num = args.sweep
        try:
            grid = np.linspace(lo, hi, int(num))
            values = bound_curve(p, args.ds, args.sweep_param, grid, args.kind)
        except ValueError as exc:
            raise ConfigError(f"--kind {args.kind} with --sweep-param "
                              f"{args.sweep_param} over --sweep {lo:g} {hi:g} "
                              f"{int(num)}: no point allowed: {exc}")
        for t, v in zip(grid, values):
            lines.append(f"{args.sweep_param};{float(t)!r};{float(v)!r}")
    else:
        try:
            value = BOUNDS[args.kind](p, args.ds)
        except ValueError as exc:
            raise ConfigError(f"--kind {args.kind}: {exc}")
        lines.append(f"point;{args.ds};{float(value)!r}")
        print(f"bound = {value:.6e}")
    out = _Output(args.out, "bound", t0)
    out.text("bound.csv", "\n".join(lines) + "\n")
    out.json("weight-params.json", {"alpha": args.alpha, "beta": args.beta,
                                    "gamma": gamma.tolist(), "Gamma": Gamma.tolist(),
                                    "d": d, "d_s": args.ds}, sort_keys=True)
    out.manifest(vars(args) | {"func": None}, None)
    return 0


def cmd_eval(args) -> int:
    t0 = time.time()
    model = _load_doc(args.model, "--model", ApproxModel.from_json_dict)
    if not (args.x or args.points):
        raise ConfigError("eval needs --x or --points")
    flag = f"--x {args.x}" if args.x else f"--points {args.points}"
    try:
        if args.x:
            pts = np.asarray([[float(t) for t in args.x.split(",")]])
        else:
            pts = np.loadtxt(args.points, delimiter=";", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{flag}: {exc}")
    vals = model.evaluate(_check_table(pts, flag, model.index_set.d, "coordinates"))
    out = _Output(args.out, "eval", t0)
    out.text("evaluations.csv", "index;re;im\n" + "".join(
        f"{i};{float(v.real)!r};{float(v.imag)!r}\n" for i, v in enumerate(vals)))
    if args.x:
        print(f"value = {float(vals[0].real)!r} + {float(vals[0].imag)!r}i")
    out.manifest({"model": args.model}, None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="anovafourier",
                                 description="Sparse ANOVA Fourier approximation")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=".")
        p.add_argument("--scenario", choices=tuple(_SAMPLING_KINDS), default=None)

    p = sub.add_parser("detect", help="pilot fit + sensitivity thresholding")
    common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("approximate", help="refined fit on an active set")
    common(p)
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("bench", help="benchmark-function experiment rows")
    common(p, config_required=False)
    p.add_argument("--table", type=int, default=None)
    p.add_argument("--row", type=int, default=None)
    p.add_argument("--desk", default=None,
                   help="named reduced-size scenario")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("lattice", help="build a reconstructing rank-1 lattice")
    p.add_argument("--index-set", required=True, dest="index_set")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("bound", help="truncation-bound evaluation/sweeps")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--ds", type=int, required=True)
    p.add_argument("--d", type=int, default=9)
    p.add_argument("--gammas", default="1/s")
    p.add_argument("--Gammas", default="1")
    p.add_argument("--kind", choices=tuple(BOUNDS), default="l2_linf_pod")
    p.add_argument("--sweep", nargs=3, type=float, metavar=("LO", "HI", "NUM"))
    p.add_argument("--sweep-param", choices=("alpha", "beta"), default="alpha")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("eval", help="evaluate a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--x", default=None, help="comma-separated coordinates")
    p.add_argument("--points", default=None, help="CSV of points (';'-separated)")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_eval)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pipeline failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
