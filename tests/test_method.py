import tracemalloc
import warnings

import numpy as np
import pytest

from anovafourier import bench, method
from anovafourier.anova import sensitivity, term_family_ds
from anovafourier.bench import u_star
from anovafourier.index_sets import TermFamily, grouped
from anovafourier.lattice import (BLOCK_ROWS, Rank1Lattice, cbc_construct,
                                  lattice_evaluate, lattice_reconstruct)
from anovafourier.method import (ApproxModel, ConfigError, DetectionConfig,
                                 approximate, build_search_sets, detect,
                                 gap_intervals)
from anovafourier.operator import uniform_nodes


def tiny_target(X):
    # three-dimensional target with terms {}, {1}, {2}, {1,2}
    return (1.0 + np.cos(2 * np.pi * X[:, 0])
            + 0.5 * np.sin(2 * np.pi * X[:, 1])
            + 0.25 * np.cos(2 * np.pi * (X[:, 0] + X[:, 1])))


def tiny_config(thresholds=(0.01, 0.01), count=3000, kind="scattered"):
    return DetectionConfig(d=3, d_s=2,
                           search={"type": "full_grid", "N": [4, 4]},
                           thresholds=list(thresholds),
                           sampling={"kind": kind, "count": count, "seed": 3},
                           solver={"max_iter": 120})


def test_detect_recovers_structure():
    res = detect(tiny_config(), tiny_target)
    assert (1, 2) in res.active
    assert (3,) not in res.active
    assert res.active.terms >= {(), (1,), (2,), (1, 2)}


def test_detect_threshold_one_gives_mean_only():
    res = detect(tiny_config(thresholds=(1.0, 1.0)), tiny_target)
    assert res.active.terms == {()}


def test_detect_threshold_zero_keeps_everything():
    res = detect(tiny_config(thresholds=(0.0, 0.0)), tiny_target)
    assert res.active.terms == term_family_ds(3, 2).terms


def test_detect_threshold_monotone():
    sizes = []
    for eps in (0.0, 1e-4, 1e-2, 0.2, 1.0):
        res = detect(tiny_config(thresholds=(eps, eps)), tiny_target)
        sizes.append(len(res.active))
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))


def test_detect_active_set_always_downward_closed():
    from anovafourier.index_sets import is_downward_closed
    for eps in (0.0, 0.001, 0.05, 0.5):
        res = detect(tiny_config(thresholds=(eps, eps)), tiny_target)
        assert is_downward_closed(res.active.terms)


def test_detect_lattice_scenario():
    cfg = DetectionConfig(d=3, d_s=2,
                          search={"type": "full_grid", "N": [4, 4]},
                          thresholds=[0.01, 0.01],
                          sampling={"kind": "lattice", "seed": 1})
    res = detect(cfg, tiny_target)
    assert (1, 2) in res.active
    assert "lattice" in res.pilot.provenance


def test_detect_rejects_data_for_lattice():
    cfg = DetectionConfig(d=3, d_s=2, search={"type": "full_grid", "N": [4, 4]},
                          thresholds=[0.0, 0.0], sampling={"kind": "lattice"})
    X = uniform_nodes(3, 10, seed=0)
    with pytest.raises(ValueError):
        detect(cfg, (X, np.zeros(10)))


def test_detect_rejects_non_finite_target(monkeypatch):
    def holey(X):
        y = tiny_target(X)
        y[17] = np.nan
        return y
    with pytest.raises(ValueError, match="non-finite target values, first at sample 17"):
        detect(tiny_config(), holey)
    X = uniform_nodes(3, 3000, seed=3)
    y = tiny_target(X.points)
    y[-1] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        detect(tiny_config(), (X, y))
    lattice = tiny_config(kind="lattice")
    with pytest.raises(ValueError, match="non-finite"):
        detect(lattice, lambda X: np.full(X.shape[0], np.nan))
    # the lattice (M = 72) sampled 8 rows at a time, a NaN in the fourth block
    monkeypatch.setattr(method, "BLOCK_ROWS", 8)
    k = 3 * 8 + 5
    calls = []

    def late_nan(X):
        start = sum(calls)
        calls.append(len(X))
        y = tiny_target(X)
        if start <= k < start + len(X):
            y[k - start] = np.nan
        return y
    with pytest.raises(ValueError, match=f"1 non-finite target values, first at sample {k}$"):
        detect(lattice, late_nan)
    assert sum(calls) == 72 and max(calls) == 8 and len(calls) == 9


def test_lattice_sampling_keeps_no_node_array(monkeypatch):
    """Traced peak of sampling the 9-d test function on 300007 lattice nodes.

    Nodes and values are made one block at a time, so the peak is the value
    vector plus a block's work; it must stay below the M x d node array plus
    the value vector (26.4 MB here), which the whole-array path exceeds.
    """
    M, d = 300_007, 9
    lat = Rank1Lattice(np.array([1, 5, 25, 125, 625, 3125, 15625, 78125, 90619]), M)
    monkeypatch.setattr(method, "cbc_construct", lambda index_set, seed: lat)
    g = grouped(term_family_ds(d, 1),
                build_search_sets(d, 1, {"type": "full_grid", "N": [2]}))
    rows = []

    def target(X):
        rows.append(len(X))
        return bench.testfun_value(X)
    tracemalloc.start()
    try:
        nodes, y, _, _ = method._acquire_data(g, target, {"kind": "lattice", "seed": 0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < M * d * 8 + M * 16, f"traced peak {peak} bytes"
    assert sum(rows) == M and max(rows) <= BLOCK_ROWS and len(rows) > 1
    assert nodes.lattice is lat and len(nodes) == M and y.shape == (M,)


def test_lattice_stage_keeps_real_samples_real():
    """A real target's lattice samples stay float64, and the model agrees
    with the one fitted on the same samples as complex128."""
    res = detect(tiny_config(kind="lattice"), tiny_target)
    nodes, y = res.pilot.fit_data()
    assert y.dtype == np.float64 and nodes.lattice.M % 2 == 0
    ref = lattice_reconstruct(y.astype(np.complex128), res.pilot.index_set,
                              nodes.lattice)
    got = res.pilot.coefficients.values
    assert np.abs(got - ref.values).max() <= 1e-14 * np.abs(ref.values).max()


@pytest.mark.parametrize("first_block_real", [False, True])
def test_lattice_stage_keeps_a_complex_target_complex(monkeypatch, first_block_real):
    """A target block of complex values switches the stage to complex
    samples, also after real blocks: no imaginary part is dropped, no
    ComplexWarning is raised, and the model is the complex transform's of
    exactly the target's values."""
    monkeypatch.setattr(method, "BLOCK_ROWS", 8)
    calls = []

    def target(X):
        calls.append(len(X))
        y = tiny_target(X)
        if first_block_real and len(calls) == 1:
            return y
        return y + 0.5j * np.cos(2 * np.pi * X[:, 2])
    cfg = tiny_config(kind="lattice")
    fam = TermFamily.downward_closure(3, [(1, 2), (3,)])
    sets = build_search_sets(3, 2, cfg.search, family=fam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = approximate(fam, sets, target, cfg.sampling)
    nodes, y = model.fit_data()
    X = nodes.points
    expect = tiny_target(X) + 0.5j * np.cos(2 * np.pi * X[:, 2])
    if first_block_real:
        expect[:8] = tiny_target(X[:8])
    assert len(calls) > 1 and y.dtype == np.complex128
    assert np.array_equal(y, expect)
    ref = lattice_reconstruct(expect, model.index_set, nodes.lattice)
    assert np.array_equal(model.coefficients.values, ref.values)
    # the imaginary part is fitted: 0.5i cos(2 pi x_3) gives Im c = 0.25 at
    # k_3 = -1 and 1 (entries 1 and 2 of the block's frequencies -2, -1, 1),
    # less where the first block's values are real
    k3 = model.index_set.block_slices()[(3,)]
    imag = model.coefficients.values[k3][[1, 2]].imag
    assert np.all(imag > 0.1)
    if not first_block_real:
        assert np.allclose(imag, 0.25, atol=1e-12)


def test_lsqr_warns_at_its_iteration_limit():
    """LSQR stopped by its iteration limit raises a RuntimeWarning with its
    stop reason; a converged one raises none."""
    cfg = DetectionConfig(d=9, d_s=2, search={"type": "full_grid", "N": [6, 2]},
                          thresholds=[0.01, 0.01],
                          sampling={"kind": "scattered", "count": 3000, "seed": 1},
                          solver={"max_iter": 1})
    stop = "iteration limit 1 reached without convergence"
    with pytest.warns(RuntimeWarning, match=stop):
        res = detect(cfg, bench.testfun_value)
    assert res.pilot.provenance["solver_report"]["stop_reason"] == stop
    converging = DetectionConfig(d=9, d_s=2, search=cfg.search, thresholds=[0.01, 0.01],
                                 sampling=cfg.sampling)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = detect(converging, bench.testfun_value)
    assert "iteration limit" not in res.pilot.provenance["solver_report"]["stop_reason"]


def test_oversized_lattice_fails_before_sampling(monkeypatch):
    monkeypatch.setattr(method, "_physical_memory", lambda: 1_000)

    def never(X):
        raise AssertionError("target called")
    cfg = tiny_config(kind="lattice")
    g = grouped(term_family_ds(3, 2), build_search_sets(3, 2, cfg.search))
    M = cbc_construct(g, seed=cfg.sampling["seed"]).M
    need = M * method._LATTICE_BYTES_PER_SAMPLE
    with pytest.raises(ConfigError, match=f"M = {M} samples needs about {need} bytes"):
        detect(cfg, never)


def test_oversized_scattered_fit_fails_before_allocating(monkeypatch):
    """Nodes, unit phases, one chunk's phase table and the LSQR vectors are
    estimated before the nodes are drawn or the operator is built, for a
    callable target and for fixed data alike."""
    monkeypatch.setattr(method, "_physical_memory", lambda: 10_000)

    def never(*_args):
        raise AssertionError("allocated before the memory check")
    X = uniform_nodes(3, 3000, seed=1).points
    monkeypatch.setattr(method, "uniform_nodes", never)
    monkeypatch.setattr(method, "BlockFourierOperator", never)
    cfg = tiny_config()
    g = grouped(term_family_ds(3, 2), build_search_sets(3, 2, cfg.search))
    vmax = np.abs(g.embedded()).max(axis=0)
    need = (3000 * (8 * 3 + 16 * 3 + method._SCATTERED_BYTES_PER_NODE)
            + 16 * 2 * int(vmax.sum()) * 2048 + 4 * 16 * len(g))
    for target in (never, (X, tiny_target(X))):
        with pytest.raises(ConfigError,
                           match=f"m = 3000 nodes needs about {need} bytes"):
            detect(cfg, target)


def test_detect_underdetermined_warns():
    cfg = DetectionConfig(d=3, d_s=2, search={"type": "full_grid", "N": [8, 8]},
                          thresholds=[0.0, 0.0],
                          sampling={"kind": "scattered", "count": 50, "seed": 0},
                          solver={"max_iter": 5})
    with pytest.warns(UserWarning):
        detect(cfg, tiny_target)


def test_config_validation():
    with pytest.raises(ValueError):
        DetectionConfig(d=3, d_s=4, search={"type": "full_grid", "N": [4] * 4},
                        thresholds=[0] * 4, sampling={})
    with pytest.raises(ValueError):
        DetectionConfig(d=3, d_s=2, search={"type": "full_grid", "N": [4, 4]},
                        thresholds=[0.5], sampling={})
    with pytest.raises(ValueError):
        DetectionConfig(d=3, d_s=2, search={"type": "full_grid", "N": [4, 4]},
                        thresholds=[0.5, 1.5], sampling={})
    with pytest.raises(ValueError):
        DetectionConfig(d=3, d_s=2, search={"type": "full_grid", "N": [4]},
                        thresholds=[0.0, 0.0], sampling={})


_WEIGHT = {"alpha": 0.0, "beta": 1.0, "gamma": [1.0] * 3, "Gamma": [1.0] * 3}


@pytest.mark.parametrize("field,value", [
    ("search", {"type": "weighted", "N": [4, 4]}),
    ("search", {"type": "weighted", "N": [4, 4],
                "weight": {k: v for k, v in _WEIGHT.items() if k != "Gamma"}}),
    ("search", {"type": "weighted", "N": [4, 4], "weight": {**_WEIGHT, "beta": -1}}),
    ("search", {"type": "full_grid", "N": [4, "x"]}),
    ("search", {"type": "full_grid", "N": [4, 4, 4]}),
    ("search", {"type": "full_grid", "N": [4, 4], "cutoff": 3}),
    ("sampling", {"kind": "grid"}),
    ("sampling", {"kind": "scattered", "count": 0}),
    ("sampling", {"kind": "scattered", "count": 10.5}),
    ("sampling", {"kind": "lattice", "seed": -1}),
    ("sampling", {"kind": "scattered", "samples": 100}),
    ("solver", {"max_iter": "abc"}),
    ("solver", {"max_iter": 0}),
    ("solver", {"atol": -1}),
    ("solver", {"btol": float("nan")}),
    ("solver", {"max_iters": 5}),
])
def test_config_rejects_bad_keys(field, value):
    kwargs = dict(d=3, d_s=2, search={"type": "full_grid", "N": [4, 4]},
                  thresholds=[0.0, 0.0], sampling={"count": 100})
    kwargs[field] = value
    with pytest.raises(ConfigError, match=field):
        DetectionConfig(**kwargs)


def test_detect_checks_sampling_before_the_target():
    def boom(X):
        raise AssertionError("target called")

    cfg = tiny_config()
    object.__setattr__(cfg, "sampling", {"kind": "grid", "count": 10})
    with pytest.raises(ConfigError, match="sampling.kind"):
        detect(cfg, boom)
    cfg = DetectionConfig(d=3, d_s=2, search={"type": "full_grid", "N": [4, 4]},
                          thresholds=[0.0, 0.0], sampling={"kind": "scattered"})
    with pytest.raises(ConfigError, match="sampling.count"):
        detect(cfg, boom)
    cfg = DetectionConfig(d=3, d_s=2, search={"type": "full_grid", "N": [5, 4]},
                          thresholds=[0.0, 0.0], sampling={"count": 10})
    with pytest.raises(ConfigError, match=r"search\.N\[0\]"):
        detect(cfg, boom)


def test_approximate_checks_sampling_and_solver():
    fam = TermFamily.downward_closure(3, [(1,)])
    sets = build_search_sets(3, 1, {"type": "full_grid", "N": [4]}, family=fam)
    with pytest.raises(ConfigError, match="sampling.kind"):
        approximate(fam, sets, tiny_target, {"kind": "grid", "count": 10})
    with pytest.raises(ConfigError, match="solver.max_iters"):
        approximate(fam, sets, tiny_target, {"count": 10}, {"max_iters": 5})
    with pytest.raises(ConfigError, match="search.N"):
        build_search_sets(3, 1, {"type": "full_grid", "N": [4]},
                          family=TermFamily.downward_closure(3, [(1, 2)]))


def test_gap_intervals_perfect_and_shuffled():
    from bench_oracles import exact_sensitivity_report
    rep = exact_sensitivity_report(3)
    gaps = gap_intervals(rep, u_star(), 3)
    assert all(g is not None for g in gaps)
    assert all(a == 0.0 for a, b in gaps)  # no spurious mass in the exact model
    # deliberately wrong truth: gap at order 1 must close
    wrong = TermFamily.downward_closure(9, [(1, 2, 3)])
    gaps_wrong = gap_intervals(rep, wrong, 3)
    assert gaps_wrong[1] is None and gaps_wrong[2] is None


def test_approximate_and_idempotent_refit():
    cfg = tiny_config(thresholds=(0.001, 0.001))
    res = detect(cfg, tiny_target)
    sets = build_search_sets(3, 2, cfg.search, family=res.active)
    model = approximate(res.active, sets, tiny_target, cfg.sampling,
                        {"atol": 1e-12, "btol": 1e-12, "max_iter": 400})
    # same data, same family, same sets: coefficients reproduce the pilot
    pilot_vals = {}
    slices = res.pilot.index_set.block_slices()
    for b in res.pilot.index_set.blocks:
        pilot_vals[b.term] = res.pilot.coefficients.values[slices[b.term]]
    s2 = model.index_set.block_slices()
    for b in model.index_set.blocks:
        got = model.coefficients.values[s2[b.term]]
        assert np.linalg.norm(got - pilot_vals[b.term]) < 1e-6


def test_imag_residual_is_that_of_the_fitted_values():
    """On scattered data ``approximate`` records max |Im| of the fitted
    values from LSQR's check pass; it equals a fresh evaluation's."""
    cfg = tiny_config()
    fam = TermFamily.downward_closure(3, [(1, 2)])
    sets = build_search_sets(3, 2, cfg.search, family=fam)
    model = approximate(fam, sets, tiny_target, cfg.sampling, {"max_iter": 5})
    fitted = model.evaluate_on(model.fit_data()[0])
    imag = float(np.max(np.abs(fitted.imag)))
    assert imag > 0 and model.provenance["imag_residual"] == imag


def test_model_json_round_trip_exact(tmp_path):
    res = detect(tiny_config(), tiny_target)
    path = tmp_path / "model.json"
    res.pilot.save(path)
    loaded = ApproxModel.load(path)
    # hex binary64 encoding round-trips bit-exactly
    assert np.array_equal(loaded.coefficients.values, res.pilot.coefficients.values)
    assert np.array_equal(loaded.index_set.embedded(), res.pilot.index_set.embedded())
    x = np.array([0.3, 0.4, 0.9])
    assert loaded.evaluate(x) == res.pilot.evaluate(x)


def test_evaluate_model_mean_only():
    fam = TermFamily.from_terms(2, [()])
    sets = build_search_sets(2, 1, {"type": "full_grid", "N": [4]}, family=fam)
    g = grouped(fam, sets)
    from anovafourier.anova import CoefficientMap
    model = ApproxModel(CoefficientMap(g, np.array([2.0 + 1.0j])))
    assert model.evaluate(np.array([0.7, 0.1])) == pytest.approx(2.0 + 1.0j)


def test_evaluate_matches_dense_sum():
    rng = np.random.default_rng(0)
    res = detect(tiny_config(), tiny_target)
    model = res.pilot
    pts = rng.random((20, 3))
    emb = model.index_set.embedded()
    dense = np.exp(2j * np.pi * (pts @ emb.T)) @ model.coefficients.values
    assert np.linalg.norm(model.evaluate(pts) - dense) < 1e-12 * np.linalg.norm(dense)


def test_evaluate_reduces_mod_one():
    res = detect(tiny_config(), tiny_target)
    x = np.array([0.25, 0.5, 0.75])
    assert res.pilot.evaluate(x + 1.0) == pytest.approx(res.pilot.evaluate(x))


def test_evaluate_at_lattice_nodes_matches_fft_path():
    cfg = DetectionConfig(d=3, d_s=2, search={"type": "full_grid", "N": [4, 4]},
                          thresholds=[0.0, 0.0], sampling={"kind": "lattice", "seed": 2})
    res = detect(cfg, tiny_target)
    prov = res.pilot.provenance["lattice"]
    lat = Rank1Lattice(np.asarray(prov["z"]), prov["M"])
    direct = res.pilot.evaluate(lat.nodes())
    fft = lattice_evaluate(res.pilot.coefficients, lat)
    assert np.linalg.norm(direct - fft) < 1e-10 * np.linalg.norm(fft)


def test_detect_zero_variance_errors():
    cfg = tiny_config()
    with pytest.raises(ValueError):
        detect(cfg, lambda X: np.zeros(X.shape[0]))
