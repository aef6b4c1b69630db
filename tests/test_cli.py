import copy
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from anovafourier.cli import main


def run_cli(args):
    return main(args)


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


TINY_DETECT = {
    "d": 3, "d_s": 2,
    "search": {"type": "full_grid", "N": [4, 4]},
    "thresholds": [0.01, 0.01],
    "sampling": {"kind": "scattered", "count": 2000, "seed": 3},
    "solver": {"max_iter": 60},
    "target": {"csv": None},  # replaced below
}


def _csv_target(tmp_path, m=2000, seed=3):
    rng = np.random.Generator(np.random.Philox(seed))
    X = rng.random((m, 3))
    y = (1.0 + np.cos(2 * np.pi * X[:, 0])
         + 0.5 * np.sin(2 * np.pi * X[:, 1])
         + 0.25 * np.cos(2 * np.pi * (X[:, 0] + X[:, 1])))
    path = tmp_path / "data.csv"
    np.savetxt(path, np.column_stack([X, y]), delimiter=";")
    return str(path)


def test_detect_schema_error_exit_2(tmp_path, capsys):
    cfg = dict(TINY_DETECT)
    cfg["d_s"] = 7  # > d
    cfg["target"] = {"builtin": "bench"}
    code = run_cli(["detect", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_detect_missing_config_exit_2(tmp_path):
    assert run_cli(["detect", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path)]) == 2


def test_detect_invalid_search_type_exit_2(tmp_path):
    cfg = dict(TINY_DETECT)
    cfg["search"] = {"type": "sparse_grid", "N": [4, 4]}
    cfg["target"] = {"builtin": "bench"}
    assert run_cli(["detect", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path)]) == 2


def test_detect_csv_pipeline(tmp_path):
    cfg = dict(TINY_DETECT)
    cfg["target"] = {"csv": _csv_target(tmp_path)}
    code = run_cli(["detect", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "out")])
    assert code == 0
    sens = json.loads((tmp_path / "out" / "sensitivity.json").read_text())
    assert sens["total_variance"] > 0
    active = json.loads((tmp_path / "out" / "active_set.json").read_text())
    assert [1, 2] in active["terms"]
    manifest = json.loads((tmp_path / "out" / "detect-manifest.json").read_text())
    assert manifest["command"] == "detect"
    csv = (tmp_path / "out" / "sensitivity.csv").read_text()
    assert csv.startswith("u;order;variance;gsi")


def test_approximate_eval_round_trip(tmp_path):
    cfg = dict(TINY_DETECT)
    cfg["target"] = {"csv": _csv_target(tmp_path)}
    cfg["active_set"] = [[1], [2], [1, 2]]
    code = run_cli(["approximate", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "fit")])
    assert code == 0
    model_path = tmp_path / "fit" / "model.json"
    code = run_cli(["eval", "--model", str(model_path), "--x", "0,0,0",
                    "--out", str(tmp_path / "ev")])
    assert code == 0
    rows = (tmp_path / "ev" / "evaluations.csv").read_text().splitlines()
    assert rows[0] == "index;re;im"
    # value at x = 0 equals the coefficient sum
    from anovafourier.method import ApproxModel
    m = ApproxModel.load(model_path)
    got = complex(float(rows[1].split(";")[1]), float(rows[1].split(";")[2]))
    assert got == pytest.approx(complex(np.sum(m.coefficients.values)), abs=1e-10)


def test_model_determinism_byte_identical(tmp_path):
    cfg = dict(TINY_DETECT)
    cfg["target"] = {"csv": _csv_target(tmp_path)}
    cfg["active_set"] = [[1], [2]]
    for sub in ("a", "b"):
        assert run_cli(["approximate", "--config", write_config(tmp_path, cfg),
                        "--out", str(tmp_path / sub)]) == 0
    m1 = (tmp_path / "a" / "model.json").read_bytes()
    m2 = (tmp_path / "b" / "model.json").read_bytes()
    assert m1 == m2


def test_model_identical_across_blas_threads(tmp_path):
    """The fitted model does not depend on the number of BLAS threads.

    The products are large enough for two BLAS threads to split them, and
    the odd node count puts that split inside a kernel block.
    """
    cfg = {"d": 3, "d_s": 2, "search": {"type": "full_grid", "N": [32, 16]},
           "sampling": {"kind": "scattered"}, "solver": {"max_iter": 15},
           "active_set": [[1, 2], [1, 3], [2, 3]],
           "target": {"csv": _csv_target(tmp_path, m=17001)}}
    path = write_config(tmp_path, cfg)
    models = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "anovafourier.cli", "approximate",
                        "--config", path, "--out", str(out)],
                       env=env, capture_output=True, check=True)
        models.append((out / "model.json").read_bytes())
    assert models[0] == models[1]


@pytest.mark.parametrize("row,col,value", [(5, 3, "nan"), (7, 0, "inf")])
def test_csv_non_finite_exit_2(tmp_path, capsys, row, col, value):
    path = tmp_path / "data.csv"
    assert _csv_target(tmp_path, m=50) == str(path)
    lines = path.read_text().splitlines()
    cells = lines[row].split(";")
    cells[col] = value
    lines[row] = ";".join(cells)
    path.write_text("\n".join(lines) + "\n")
    cfg = dict(TINY_DETECT)
    cfg["target"] = {"csv": str(path)}
    code = run_cli(["detect", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"non-finite value in row {row + 1}" in capsys.readouterr().err


def test_lattice_subcommand(tmp_path):
    from anovafourier.anova import term_family_ds
    from anovafourier.index_sets import grouped
    from anovafourier.method import build_search_sets
    fam = term_family_ds(2, 1)
    sets = build_search_sets(2, 1, {"type": "full_grid", "N": [4]})
    g = grouped(fam, sets)
    idx = tmp_path / "index.json"
    idx.write_text(json.dumps(g.to_json_dict()))
    code = run_cli(["lattice", "--index-set", str(idx), "--seed", "7",
                    "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "lattice.json").read_text())
    assert doc["M"] >= len(g)
    assert doc["index_set_digest"] == g.digest()


def test_bound_subcommand_point(tmp_path, capsys):
    code = run_cli(["bound", "--alpha", "0", "--beta", "1", "--ds", "3",
                    "--gammas", "1/s", "--Gammas", "(sqrt3/pi)^s",
                    "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "bound = 2.406" in out
    csv = (tmp_path / "bound.csv").read_text()
    assert csv.splitlines()[0] == "param;value;bound"
    echo = json.loads((tmp_path / "weight-params.json").read_text())
    assert echo["alpha"] == 0.0 and echo["d_s"] == 3


def test_bound_subcommand_sweep(tmp_path):
    code = run_cli(["bound", "--alpha", "0", "--beta", "1", "--ds", "3",
                    "--sweep", "0", "10", "11", "--sweep-param", "alpha",
                    "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "bound.csv").read_text().splitlines()
    assert len(lines) == 12
    vals = [float(l.split(";")[2]) for l in lines[1:]]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_bound_sweep_marks_invalid_points_inf(tmp_path):
    """A sweep with some allowed points writes +inf at the others."""
    code = run_cli(["bound", "--alpha", "1", "--beta", "1", "--ds", "2",
                    "--kind", "linf_zeta", "--sweep", "-1", "1", "3",
                    "--sweep-param", "alpha", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "bound.csv").read_text().splitlines()
    vals = [float(line.split(";")[2]) for line in lines[1:]]
    assert vals[0] == vals[2] == np.inf and np.isfinite(vals[1])


def test_approximate_checks_sampling_before_building_sets(tmp_path, capsys,
                                                         monkeypatch):
    """A lattice refit of fixed data exits 2 before any search set is built."""
    from anovafourier import cli

    def boom(*_args, **_kwargs):
        raise AssertionError("search sets built")
    monkeypatch.setattr(cli, "build_search_sets", boom)
    cfg = {**TINY_DETECT, "target": {"csv": _csv_target(tmp_path)},
           "sampling": {"kind": "lattice", "seed": 2}, "active_set": [[1, 2]]}
    code = run_cli(["approximate", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "out")])
    assert code == 2
    assert "'lattice' needs a callable target" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bound_invalid_params_exit_2(tmp_path):
    assert run_cli(["bound", "--alpha", "-2", "--beta", "1", "--ds", "3",
                    "--out", str(tmp_path)]) == 2


def test_bench_tiny_config(tmp_path):
    cfg = {"id": "cli-tiny", "d": 9, "d_s": 2,
           "search": {"type": "full_grid", "N": [8, 4]},
           "sampling": {"kind": "scattered", "count": 5000, "seed": 1},
           "solver": {"max_iter": 40}}
    code = run_cli(["bench", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "experiments.csv").read_text().splitlines()
    assert lines[0].startswith("id;scenario")
    assert lines[1].startswith("cli-tiny;scattered;2;")
    row = json.loads((tmp_path / "cli-tiny.json").read_text())
    assert row["set_size"] == 1 + 9 * 7 + 36 * 9
    assert row["scale"] == "config"


_NOT_CONVERGING = {"d": 9, "d_s": 2, "search": {"type": "full_grid", "N": [6, 2]},
                   "sampling": {"kind": "scattered", "count": 3000, "seed": 1},
                   "solver": {"max_iter": 1}, "target": {"builtin": "bench"}}


@pytest.mark.parametrize("command,cfg,artifact", [
    ("detect", _NOT_CONVERGING, "pilot-model.json"),
    ("approximate", {**_NOT_CONVERGING, "active_set": [[1, 2], [3]]}, "model.json"),
    ("bench", {**_NOT_CONVERGING, "id": "stopped"}, "stopped.json"),
])
def test_lsqr_at_its_iteration_limit_exits_2(tmp_path, capsys, command, cfg,
                                             artifact):
    """A stage whose LSQR stopped at its iteration limit writes its
    artifacts, then exits 2 with the stage and the stop reason on stderr."""
    stop = "iteration limit 1 reached without convergence"
    with pytest.warns(RuntimeWarning, match=stop):
        code = run_cli([command, "--config", write_config(tmp_path, cfg),
                        "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"{command}: LSQR {stop}" in capsys.readouterr().err
    assert (tmp_path / "out" / artifact).exists()
    assert (tmp_path / "out" / f"{command}-manifest.json").exists()


def test_bench_unknown_table_exit_2(tmp_path):
    assert run_cli(["bench", "--table", "9", "--row", "1",
                    "--out", str(tmp_path)]) == 2


def test_bench_seed_leaves_registries_unchanged(tmp_path, monkeypatch):
    # tables 5 and 6 share one config dict, so a --seed written into it
    # would reseed the other table for every later run in the process
    from anovafourier import bench
    tables = copy.deepcopy(bench.TABLE_CONFIGS)
    desks = copy.deepcopy(bench.DESK_CONFIGS)
    seen = []

    def fake_run(cfg):
        seen.append(copy.deepcopy(cfg))
        return bench.ExperimentRow(cfg["id"], cfg["sampling"]["kind"], cfg["d_s"],
                                   tuple(cfg["search"]["N"]), 1, 1, 0.0, 0.0,
                                   None, 0.0)

    monkeypatch.setattr(bench, "run_experiment", fake_run)
    assert run_cli(["bench", "--table", "5", "--seed", "7",
                    "--out", str(tmp_path)]) == 0
    assert run_cli(["bench", "--desk", "lattice-ds3", "--seed", "7",
                    "--out", str(tmp_path)]) == 0
    assert run_cli(["bench", "--table", "6", "--out", str(tmp_path)]) == 0
    assert [cfg["sampling"]["seed"] for cfg in seen] == [7, 7, 1]
    assert bench.TABLE_CONFIGS == tables
    assert bench.DESK_CONFIGS == desks


def test_cli_entry_point_subprocess(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "anovafourier.cli",
                           "bound", "--alpha", "0", "--beta", "1", "--ds", "2",
                           "--out", str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "bound =" in proc.stdout


def test_detect_lattice_scenario_records_M(tmp_path):
    cfg = {"d": 3, "d_s": 2,
           "search": {"type": "full_grid", "N": [4, 4]},
           "thresholds": [0.01, 0.01],
           "sampling": {"kind": "lattice", "seed": 2},
           "target": {"builtin": "bench"}}
    # the builtin bench target is 9-dimensional; use a csv target instead
    cfg["target"] = {"csv": _csv_target(tmp_path)}
    code = run_cli(["detect", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "lat")])
    # lattice sampling requires a callable target -> configuration error exit 2
    assert code == 2


def test_detect_lattice_scenario_with_builtin(tmp_path):
    cfg = {"d": 9, "d_s": 1,
           "search": {"type": "full_grid", "N": [8]},
           "thresholds": [0.01],
           "sampling": {"kind": "lattice", "seed": 2},
           "target": {"builtin": "bench"}}
    code = run_cli(["detect", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "lat")])
    assert code == 0
    manifest = json.loads((tmp_path / "lat" / "detect-manifest.json").read_text())
    assert manifest["lattice_M"] >= 1 + 9 * 7
    lat = json.loads((tmp_path / "lat" / "pilot-lattice.json").read_text())
    assert lat["M"] == manifest["lattice_M"]


def test_oversized_lattice_exit_2(tmp_path, capsys, monkeypatch):
    from anovafourier import method
    monkeypatch.setattr(method, "_physical_memory", lambda: 1000)
    cfg = {"d": 9, "d_s": 1,
           "search": {"type": "full_grid", "N": [8]},
           "thresholds": [0.01],
           "sampling": {"kind": "lattice", "seed": 2},
           "target": {"builtin": "bench"}}
    code = run_cli(["detect", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "lat")])
    assert code == 2
    err = capsys.readouterr().err
    assert "samples needs about" in err and "physical memory" in err


def test_oversized_scattered_fit_exit_2(tmp_path, capsys, monkeypatch):
    from anovafourier import method
    monkeypatch.setattr(method, "_physical_memory", lambda: 1000)
    cfg = dict(TINY_DETECT)
    cfg["target"] = {"builtin": "bench"}
    cfg["d"] = 9
    code = run_cli(["detect", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "scat")])
    assert code == 2
    err = capsys.readouterr().err
    assert "m = 2000 nodes needs about" in err and "physical memory" in err


def test_complex128_re_solve_that_does_not_fit_exits_2(tmp_path, capsys,
                                                        monkeypatch):
    """With physical memory between the refit's complex64 and complex128
    estimates, a refit of noisy data runs in complex64, while one of exact
    data, whose complex128 re-solve does not fit, exits 2 before that
    re-solve builds its operator."""
    from anovafourier import method, operator
    from anovafourier.index_sets import TermFamily, grouped
    family = TermFamily.downward_closure(3, [(1, 2)])
    g = grouped(family, method.build_search_sets(3, 2, TINY_DETECT["search"],
                                                 family=family))
    single, double = (operator.scattered_fit_bytes(g, 2000, dtype)
                      for dtype in (np.complex64, np.complex128))
    monkeypatch.setattr(method, "_physical_memory", lambda: (single + double) // 2)
    built = []

    def operator_at(nodes, index_set, dtype=np.complex128):
        built.append(np.dtype(dtype).name)
        return operator.BlockFourierOperator(nodes, index_set, dtype)
    monkeypatch.setattr(method, "BlockFourierOperator", operator_at)
    exact = _csv_target(tmp_path)
    data = np.loadtxt(exact, delimiter=";")
    data[:, 3] += 0.1 * np.random.default_rng(1).standard_normal(len(data))
    noisy = tmp_path / "noisy.csv"
    np.savetxt(noisy, data, delimiter=";")
    for name, path, want in (("noisy", noisy, 0), ("exact", exact, 2)):
        built.clear()
        cfg = {**TINY_DETECT, "target": {"csv": str(path)}, "active_set": [[1, 2]]}
        code = run_cli(["approximate", "--config", write_config(tmp_path, cfg),
                        "--out", str(tmp_path / name)])
        assert code == want, name
        assert built[0] == "complex64"
    doc = json.loads((tmp_path / "noisy" / "model.json").read_text())
    assert doc["provenance"]["solver_report"]["provenance"]["products"] == "complex64"
    assert built == ["complex64"]
    err = capsys.readouterr().err
    assert f"complex128 re-solve of the scattered fit on m = 2000 nodes needs " \
        f"about {double} bytes" in err


def test_bench_table4_row1_cli(tmp_path):
    code = run_cli(["bench", "--table", "4", "--row", "1",
                    "--out", str(tmp_path)])
    assert code == 0
    row = json.loads((tmp_path / "table4-row1.json").read_text())
    assert row["set_size"] == 13273  # spec formula value; tables quote 3481
    assert row["extra"]["M"] >= row["set_size"]
    assert all(g is not None for g in row["gaps"])


def test_weighted_search_type_via_config(tmp_path):
    cfg = {"d": 2, "d_s": 2,
           "search": {"type": "weighted", "N": [6, 6],
                      "weight": {"alpha": 0.0, "beta": 1.0,
                                 "gamma": [1.0, 1.0], "Gamma": [1.0, 1.0]}},
           "thresholds": [0.0, 0.0],
           "sampling": {"count": 600, "seed": 5},
           "target": {"csv": None}}
    rng = np.random.Generator(np.random.Philox(5))
    X = rng.random((600, 2))
    y = 1.0 + np.cos(2 * np.pi * X[:, 0])
    path = tmp_path / "d2.csv"
    np.savetxt(path, np.column_stack([X, y]), delimiter=";")
    cfg["target"] = {"csv": str(path)}
    code = run_cli(["detect", "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "w")])
    assert code == 0
    sens = json.loads((tmp_path / "w" / "sensitivity.json").read_text())
    # weighted sets with w = prod (1+|k|) <= 6: singles {(-5..5)\0}, pairs small
    orders = {tuple(t["u"]): t for t in sens["terms"]}
    assert (1,) in orders and (1, 2) in orders


BUILTIN_DETECT = {"d": 9, "d_s": 2,
                  "search": {"type": "full_grid", "N": [4, 4]},
                  "thresholds": [0.01, 0.01],
                  "sampling": {"kind": "scattered", "count": 500, "seed": 1},
                  "target": {"builtin": "bench"}}
BUILTIN_APPROXIMATE = {**BUILTIN_DETECT, "active_set": [[1], [2], [1, 2]]}
_WEIGHT_NO_GAMMA = {"alpha": 0.0, "beta": 1.0, "gamma": [1.0] * 9}


@pytest.mark.parametrize("command,change,key", [
    ("detect", {"search": {"type": "weighted", "N": [4, 4]}}, "search.weight"),
    ("detect", {"search": {"type": "weighted", "N": [4, 4],
                           "weight": _WEIGHT_NO_GAMMA}}, "Gamma"),
    ("detect", {"sampling": {"kind": "grid", "count": 500}}, "sampling.kind"),
    ("detect", {"sampling": {"kind": "scattered"}}, "sampling.count"),
    ("detect", {"sampling": {"count": 0}}, "sampling.count"),
    ("detect", {"search": {"type": "full_grid", "N": [5, 4]}}, "search.N[0]"),
    ("detect", {"search": {"type": "full_grid", "N": [4, "x"]}}, "search.N[1]"),
    ("detect", {"solver": {"max_iter": "abc"}}, "solver.max_iter"),
    ("detect", {"solver": {"atol": -1}}, "solver.atol"),
    ("detect", {"solver": {"max_iters": 5}}, "max_iters"),
    ("detect", {"d": 3}, "target.builtin"),
    ("detect", {"target": {"csv": "no-such-file.csv"}}, "target.csv"),
    ("approximate", {"active_set": [[1, 2, 3]]}, "search.N"),
    ("approximate", {"d_s": 12, "search": {"type": "full_grid", "N": [4] * 12}},
     "d_s"),
    ("approximate", {"active_set": [[10]]}, "active_set"),
    ("approximate", {"sampling": {"kind": "grid", "count": 500}}, "sampling.kind"),
    ("approximate", {"d_s": 1, "search": {"type": "full_grid", "N": [4]}},
     "search.N"),
    ("approximate", {"solver": {"max_iters": 5}}, "max_iters"),
    ("detect", {"tiering": True}, "config.tiering"),
    ("approximate", {"tiering": True}, "config.tiering"),
    ("approximate", {"solvr": {"max_iter": 1}}, "config.solvr"),
    ("approximate", {"threshold": [0.5]}, "config.threshold"),
    ("bench", {"solvr": {"max_iter": 1}}, "config.solvr"),
    ("bench", {"scenario": "scattered"}, "config.scenario"),
    ("bench", {"mode": "detect"}, "config.mode"),
    ("bench", {"sets": {"type": "full_grid", "N": [4, 4]}}, "config.sets"),
    ("bench", {"family": "ustar"}, "config.family"),
    ("bench", {"target": {"csv": "data.csv"}}, "target"),
    ("bench", {"d": 3}, "d = 9"),
    ("detect", {"target": "builtin"}, "target must be an object, got str"),
    ("detect", {"target": 5}, "target must be an object, got int"),
    ("detect", {"target": ["csv"]}, "target must be an object, got list"),
    ("detect", {"target": {"builtin": "bench", "csv": "x.csv"}},
     "target must specify exactly one of"),
    ("approximate", {"active_set": [[True], [2]]},
     "active_set: term (True,) has a coordinate that is not an integer"),
    ("approximate", {"active_set": [[1.0], [2]]},
     "active_set: term (1.0,) has a coordinate that is not an integer"),
    ("approximate", {"active_set": [1, [2]]}, "active_set: 'int' object is not iterable"),
    ("detect", {"target": {"csv": ["a"]}}, "target.csv must be a file name"),
    ("detect", {"target": {"csv": 5}}, "target.csv must be a file name"),
    ("detect", {"target": {"csv": None}}, "target.csv must be a file name"),
])
def test_malformed_config_exit_2(tmp_path, capsys, command, change, key):
    base = BUILTIN_APPROXIMATE if command == "approximate" else BUILTIN_DETECT
    cfg = {**base, **change}
    code = run_cli([command, "--config", write_config(tmp_path, cfg),
                    "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert key in err
    assert not (tmp_path / "out").exists()


def test_scenario_option_overrides_sampling_kind(tmp_path):
    # BUILTIN_DETECT names the kind "scattered"
    code = run_cli(["detect", "--config", write_config(tmp_path, BUILTIN_DETECT),
                    "--scenario", "lattice", "--out", str(tmp_path / "lat")])
    assert code == 0
    lat = json.loads((tmp_path / "lat" / "pilot-lattice.json").read_text())
    model = json.loads((tmp_path / "lat" / "pilot-model.json").read_text())
    assert model["provenance"]["sampling"]["kind"] == "lattice"
    assert model["provenance"]["sample_count"] == lat["M"]
    # a refit records the config it ran, overrides included
    code = run_cli(["approximate", "--config",
                    write_config(tmp_path, BUILTIN_APPROXIMATE), "--scenario",
                    "lattice", "--seed", "5", "--out", str(tmp_path / "fit")])
    assert code == 0
    prov = json.loads((tmp_path / "fit" / "model.json").read_text())["provenance"]
    assert prov["config"]["sampling"] == {"kind": "lattice", "count": 500, "seed": 5}
    assert prov["sampling"] == prov["config"]["sampling"]


def test_bench_row_names_the_kind_it_ran(tmp_path):
    cfg = {**BUILTIN_DETECT, "id": "kind"}
    code = run_cli(["bench", "--config", write_config(tmp_path, cfg),
                    "--scenario", "lattice", "--out", str(tmp_path)])
    assert code == 0
    row = json.loads((tmp_path / "kind.json").read_text())
    assert row["scenario"] == "lattice"
    assert row["samples"] == row["extra"]["M"]


@pytest.fixture
def model_file(tmp_path):
    from anovafourier.anova import CoefficientMap, term_family_ds
    from anovafourier.index_sets import grouped
    from anovafourier.method import ApproxModel, build_search_sets
    fam = term_family_ds(3, 1)
    g = grouped(fam, build_search_sets(3, 1, {"type": "full_grid", "N": [4]}))
    path = tmp_path / "model.json"
    ApproxModel(CoefficientMap(g, np.ones(len(g), complex))).save(path)
    return str(path)


#: bad input files by the placeholder that stands for them in an argv
_BAD_FILES = {
    "NAN_POINTS": "0.1;0.2;0.3\n0.4;nan;0.6\n",
    "INF_POINTS": "0.1;inf;0.3\n",
    "NO_BLOCKS": json.dumps({"d": 2}),
    "ZERO_FREQ": json.dumps({"d": 2, "blocks": [{"u": [], "freqs": [[]]},
                                                {"u": [1], "freqs": [[0], [1]]}]}),
    "NOT_CLOSED": json.dumps({"d": 2, "blocks": [{"u": [], "freqs": [[]]},
                                                 {"u": [1, 2], "freqs": [[1, 1]]}]}),
    "TERM_OUTSIDE": json.dumps({"d": 2, "blocks": [{"u": [], "freqs": [[]]},
                                                   {"u": [3], "freqs": [[1]]}]}),
    "TERM_UNSORTED": json.dumps({"d": 2, "blocks": [
        {"u": [], "freqs": [[]]}, {"u": [1], "freqs": [[1]]},
        {"u": [2], "freqs": [[1]]}, {"u": [2, 1], "freqs": [[1, 1]]}]}),
    "EMPTY_TERM_FREQS": json.dumps({"d": 2, "blocks": [
        {"u": [], "freqs": [[1, 2], [3, 4]]}, {"u": [1], "freqs": [[1]]}]}),
    "TERM_NOT_INTEGER": json.dumps({"d": 2, "blocks": [{"u": [], "freqs": [[]]},
                                                       {"u": [True], "freqs": [[1]]}]}),
}


@pytest.fixture
def input_files(tmp_path, model_file):
    """A good model and index set and the bad input files, by placeholder."""
    files = {"MODEL": model_file}
    doc = json.loads(Path(model_file).read_text())
    relabelled, short, non_finite = (copy.deepcopy(doc) for _ in range(3))
    relabelled["coefficients"]["blocks"][1]["u"] = [7]
    short["coefficients"]["blocks"][1]["data"] = \
        doc["coefficients"]["blocks"][1]["data"][:-32]
    non_finite["coefficients"]["blocks"][1]["data"] = \
        np.array([math.nan, math.inf, -math.inf], "<c16").tobytes().hex()
    index_set = doc.pop("index_set")
    texts = {**_BAD_FILES, "NO_INDEX_SET": json.dumps(doc),
             "INDEX_SET": json.dumps(index_set),
             "RELABELLED_MODEL": json.dumps(relabelled),
             "SHORT_MODEL": json.dumps(short),
             "NON_FINITE_MODEL": json.dumps(non_finite)}
    for name, text in texts.items():
        path = tmp_path / f"{name.lower()}.txt"
        path.write_text(text)
        files[name] = str(path)
    return files


@pytest.mark.parametrize("argv,key", [
    (["eval", "--model", "no-such-model.json", "--x", "0,0,0"], "--model"),
    (["eval", "--model", "MODEL"], "--x or --points"),
    (["eval", "--model", "MODEL", "--x", "0.1,abc"], "--x"),
    (["eval", "--model", "MODEL", "--x", "0.1,0.2"], "expected 3 coordinates"),
    (["lattice", "--index-set", "no-such-set.json"], "--index-set"),
    (["bound", "--alpha", "0", "--beta", "1", "--ds", "3", "--gammas", "abc"],
     "--gammas"),
    (["bound", "--alpha", "0", "--beta", "1", "--ds", "9", "--d", "9"], "--ds"),
    (["eval", "--model", "MODEL", "--x", "0.1,nan,0.3"], "--x 0.1,nan,0.3"),
    (["eval", "--model", "MODEL", "--x", "0.1,0.2,inf"], "--x 0.1,0.2,inf"),
    (["eval", "--model", "MODEL", "--points", "NAN_POINTS"],
     "non-finite value in row 2"),
    (["eval", "--model", "MODEL", "--points", "INF_POINTS"],
     "non-finite value in row 1"),
    (["eval", "--model", "NO_INDEX_SET", "--x", "0,0,0"],
     "missing field 'index_set'"),
    (["lattice", "--index-set", "NO_BLOCKS"], "missing field 'blocks'"),
    (["lattice", "--index-set", "ZERO_FREQ"], "zero entry"),
    (["lattice", "--index-set", "NOT_CLOSED"], "not downward-closed"),
    (["bound", "--alpha", "1", "--beta", "1", "--ds", "3", "--kind", "linf_zeta"],
     "--kind linf_zeta: this bound requires alpha = 0"),
    (["bound", "--alpha", "1", "--beta", "1", "--ds", "2", "--kind", "linf_zeta",
      "--sweep", "0", "3", "4", "--sweep-param", "beta"],
     "--sweep 0 3 4: no point allowed: this bound requires alpha = 0"),
    (["bound", "--alpha", "0", "--beta", "1", "--ds", "2",
      "--sweep", "-3", "-1", "3", "--sweep-param", "beta"],
     "--sweep -3 -1 3: no point allowed: beta must be >= 0"),
    (["lattice", "--index-set", "TERM_OUTSIDE"],
     "term (3,) has coordinates outside 1..2"),
    (["lattice", "--index-set", "TERM_UNSORTED"],
     "term (2, 1) is not strictly increasing"),
    (["lattice", "--index-set", "EMPTY_TERM_FREQS"],
     "empty term must carry exactly the empty vector"),
    (["lattice", "--index-set", "INDEX_SET", "--seed", "-1"],
     "--seed must be an integer >= 0, got -1"),
    (["bound", "--alpha", "0", "--beta", "1", "--ds", "3", "--gammas", "1/0"],
     "--gammas '1/0': zero denominator"),
    (["bound", "--alpha", "0", "--beta", "1", "--ds", "3", "--Gammas", "(1/0)^s"],
     "--Gammas '(1/0)^s': zero denominator"),
    (["eval", "--model", "RELABELLED_MODEL", "--x", "0,0,0"],
     "coefficient block of term (7,): repeated or not a term"),
    (["eval", "--model", "SHORT_MODEL", "--x", "0,0,0"],
     "coefficient block of term (1,): need 3 values, got 2"),
    (["eval", "--model", "NON_FINITE_MODEL", "--x", "0,0,0"],
     "coefficient block of term (1,): non-finite value"),
    (["lattice", "--index-set", "TERM_NOT_INTEGER"],
     "term (True,) has a coordinate that is not an integer"),
])
def test_bad_arguments_exit_2(tmp_path, capsys, input_files, argv, key):
    """Exit 2 with the fault and its flag on stderr, a bad file named after
    its flag, before any warning (a warning here fails the run with exit 1)."""
    argv = [input_files.get(a, a) for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert key in err
    for flag, value in zip(argv, argv[1:]):
        if value in input_files.values() and value not in (
                input_files["MODEL"], input_files["INDEX_SET"]):
            assert f"{flag} {value}" in err


def test_eval_x_prints_plain_floats(tmp_path, capsys, model_file):
    """The --x line carries the floats that evaluations.csv holds."""
    from anovafourier.method import ApproxModel
    assert run_cli(["eval", "--model", model_file, "--x", "0.1,0.2,0.3",
                    "--out", str(tmp_path / "ev")]) == 0
    v = ApproxModel.load(model_file).evaluate(np.array([[0.1, 0.2, 0.3]]))[0]
    assert capsys.readouterr().out.splitlines() == [
        f"value = {float(v.real)!r} + {float(v.imag)!r}i"]


def test_eval_reads_coefficient_blocks_by_term(tmp_path):
    """A model document with its coefficient blocks in another order
    evaluates like the one this tool writes."""
    from anovafourier.anova import CoefficientMap, term_family_ds
    from anovafourier.index_sets import grouped
    from anovafourier.method import ApproxModel, build_search_sets
    g = grouped(term_family_ds(3, 2),
                build_search_sets(3, 2, {"type": "full_grid", "N": [4, 4]}))
    doc = ApproxModel(CoefficientMap(g, np.arange(len(g)) * (1 + 0.5j))).to_json_dict()
    written = write_config(tmp_path, doc, "model.json")
    doc["coefficients"]["blocks"].reverse()
    reordered = write_config(tmp_path, doc, "reordered.json")
    csv = []
    for path in (written, reordered):
        out = tmp_path / Path(path).stem
        assert run_cli(["eval", "--model", path, "--x", "0.1,0.7,0.3",
                        "--out", str(out)]) == 0
        csv.append((out / "evaluations.csv").read_text())
    assert csv[0] == csv[1]


_CROSS = {"type": "hyperbolic_cross", "N": [4, 4]}
_WEIGHTED = {"type": "weighted", "N": [4, 4],
             "weight": {"alpha": 0.0, "beta": 1.0, "gamma": [1.0] * 9,
                        "Gamma": [1.0] * 9}}
_BOUND = ["bound", "--alpha", "0", "--beta", "1", "--ds", "3"]


def _non_finite_cases():
    """(config or argv, the key its error names): every numeric field of a
    detection config at NaN, +inf and -inf, one at a time, and the weight
    parameters of ``bound``."""
    fields = [(BUILTIN_DETECT, ("d",), "d"), (BUILTIN_DETECT, ("d_s",), "d_s"),
              (BUILTIN_DETECT, ("sampling", "count"), "sampling.count"),
              (BUILTIN_DETECT, ("sampling", "seed"), "sampling.seed")]
    fields += [(BUILTIN_DETECT, ("solver", key), f"solver.{key}")
               for key in ("atol", "btol", "max_iter")]
    for j in range(2):
        fields.append((BUILTIN_DETECT, ("thresholds", j), f"thresholds[{j}]"))
        fields += [({**BUILTIN_DETECT, "search": search}, ("search", "N", j),
                    f"search.N[{j}]")
                   for search in (BUILTIN_DETECT["search"], _CROSS, _WEIGHTED)]
    fields += [({**BUILTIN_DETECT, "search": _WEIGHTED}, ("search", "weight") + path,
                f"search.weight: {path[0]}")
               for path in (("alpha",), ("beta",), ("gamma", 0), ("Gamma", 0))]
    cases = []
    for base, path, key in fields:
        for value in (math.nan, math.inf, -math.inf):
            cfg = copy.deepcopy(base)
            parent = cfg
            for step in path[:-1]:
                parent = parent.setdefault(step, {})
            parent[path[-1]] = value
            where = ".".join(map(str, path))
            cases.append(pytest.param(cfg, key,
                                      id=f"{base['search']['type']}:{where}={value}"))
    cases.append(pytest.param({**BUILTIN_DETECT, "search": {"type": "hyperbolic_cross",
                                                            "N": [10 ** 400, 4]}},
                              "search.N[0]", id="hyperbolic_cross:search.N.0=10**400"))
    for flag, value, key in [("--alpha", "nan", "alpha"), ("--alpha", "inf", "alpha"),
                             ("--beta", "nan", "beta"), ("--beta", "inf", "beta"),
                             ("--gammas", "nan", "gamma"), ("--gammas", "1/0", "--gammas"),
                             ("--Gammas", "nan", "Gamma"), ("--Gammas", "1/0", "--Gammas")]:
        cases.append(pytest.param(_BOUND + [flag, value], key, id=f"bound{flag}={value}"))
    return cases


@pytest.mark.parametrize("case,key", _non_finite_cases())
def test_non_finite_number_exits_2(tmp_path, capsys, monkeypatch, case, key):
    """A NaN or infinite number exits 2 naming its key, before the target is
    sampled and before any output is written."""
    from anovafourier import bench

    def never(_X):
        raise AssertionError("target sampled")
    monkeypatch.setattr(bench, "testfun_value", never)
    argv = case if isinstance(case, list) else \
        ["detect", "--config", write_config(tmp_path, case)]
    code = run_cli(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"config error: {key} " in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["detect", "approximate"])
def test_run_commands_require_config(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_bench_row_identical_across_blas_threads(tmp_path):
    """The row's errors do not depend on the number of BLAS threads.

    A BLAS dot product splits a vector this long across two threads, which
    changes the rounding of a norm taken with it.
    """
    cfg = {"id": "threads", "d": 9, "d_s": 1,
           "search": {"type": "full_grid", "N": [8]},
           "sampling": {"kind": "scattered", "count": 20001, "seed": 1},
           "solver": {"max_iter": 10}}
    path = write_config(tmp_path, cfg)
    rows = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}"
        subprocess.run([sys.executable, "-m", "anovafourier.cli", "bench",
                        "--config", path, "--out", str(out)],
                       env=env, capture_output=True, check=True)
        rows.append(json.loads((out / "threads.json").read_text()))
    assert rows[0]["eps_l2"] == rows[1]["eps_l2"]
    assert rows[0]["eps_L2"] == rows[1]["eps_L2"]
