import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from anovafourier import bench, method, operator
from anovafourier.anova import CoefficientMap, sensitivity, term_family_ds
from anovafourier.bench import u_star
from anovafourier.index_sets import TermFamily, grouped, weighted_index_set
from anovafourier.lattice import (BLOCK_ROWS, Rank1Lattice, cbc_construct,
                                  lattice_nodes, lattice_reconstruct)
from anovafourier.method import (ApproxModel, ConfigError, DetectionConfig,
                                 approximate, build_search_sets, detect,
                                 gap_intervals)
from anovafourier.operator import BlockFourierOperator, NodeSet, lsqr, uniform_nodes
from anovafourier.weights import WeightParams, pod_weight


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
    for eps in (0.0, 0.001, 0.05, 0.5):
        res = detect(tiny_config(thresholds=(eps, eps)), tiny_target)
        terms = res.active.terms
        assert () in terms
        assert all(set(itertools.combinations(u, len(u) - 1)) <= terms
                   for u in terms if u)


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


@pytest.mark.parametrize("shape", [(50,), (60, 1), (60, 2)])
def test_fixed_data_checks_the_shape_of_y(shape):
    """Values that are not one per node fail before the operator is built,
    naming both shapes."""
    X = uniform_nodes(3, 60, seed=0)

    def boom(*_args):
        raise AssertionError("operator built")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(method, "BlockFourierOperator", boom)
        with pytest.raises(ValueError, match=re.escape(
                f"y of shape {shape} does not match X of shape (60, 3)")):
            detect(tiny_config(), (X, np.zeros(shape)))


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
        design, y, _ = method._acquire_data(g, target, {"kind": "lattice", "seed": 0})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < M * d * 8 + M * 16, f"traced peak {peak} bytes"
    assert sum(rows) == M and max(rows) <= BLOCK_ROWS and len(rows) > 1
    assert design.lattice is lat and y.shape == (M,)


def test_lattice_stage_keeps_real_samples_real():
    """A real target's lattice samples stay float64, and the model agrees
    with the one fitted on the same samples as complex128."""
    res = detect(tiny_config(kind="lattice"), tiny_target)
    design, y = res.pilot.fit_data()
    assert y.dtype == np.float64 and design.lattice.M % 2 == 0
    ref = lattice_reconstruct(y.astype(np.complex128), res.pilot.index_set,
                              design.lattice)
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
    design, y = model.fit_data()
    X = lattice_nodes(design.lattice)
    expect = tiny_target(X) + 0.5j * np.cos(2 * np.pi * X[:, 2])
    if first_block_real:
        expect[:8] = tiny_target(X[:8])
    assert len(calls) > 1 and y.dtype == np.complex128
    assert np.array_equal(y, expect)
    ref = lattice_reconstruct(expect, model.index_set, design.lattice)
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


def _table_rows(g):
    """Rows of a product's phase table, sum_s (V_s + R_s): V_s is the largest
    |k_s| and R_s the largest over the terms of order >= 2."""
    K = np.abs(g.embedded())
    return int(K.max(axis=0).sum() + K[(K > 0).sum(axis=1) >= 2].max(axis=0).sum())


def test_oversized_scattered_fit_fails_before_allocating(monkeypatch):
    """Nodes, unit phases, one chunk's phase table and the LSQR vectors are
    estimated before the nodes are drawn or the operator is built, for a
    callable target and for fixed data alike."""
    monkeypatch.setattr(method, "_physical_memory", lambda: 10_000)
    monkeypatch.setattr(operator, "_helper_runs", lambda m: False)

    def never(*_args):
        raise AssertionError("allocated before the memory check")
    X = uniform_nodes(3, 3000, seed=1).points
    monkeypatch.setattr(method, "uniform_nodes", never)
    monkeypatch.setattr(method, "BlockFourierOperator", never)
    cfg = tiny_config()
    g = grouped(term_family_ds(3, 2), build_search_sets(3, 2, cfg.search))
    need = (3000 * (8 * 3 + 16 * 3 + operator._SCATTERED_BYTES_PER_NODE)
            + 16 * _table_rows(g) * 2048 + 4 * 16 * len(g))
    for target in (never, (X, tiny_target(X))):
        with pytest.raises(ConfigError,
                           match=f"m = 3000 nodes needs about {need} bytes"):
            detect(cfg, target)


def test_scattered_memory_estimate_counts_the_product_helper(monkeypatch):
    """With a product helper, the estimate adds its chunk table and the
    shared vectors: two of length |I| and one of m/2."""
    cfg = tiny_config()
    g = grouped(term_family_ds(3, 2), build_search_sets(3, 2, cfg.search))

    def need(helper):
        monkeypatch.setattr(operator, "_helper_runs", lambda m: helper)
        return operator.scattered_fit_bytes(g, 5001)
    extra = 16 * _table_rows(g) * 2048 + 16 * (2 * len(g) + 2500)
    assert need(True) == need(False) + extra


def test_detect_underdetermined_warns():
    cfg = DetectionConfig(d=3, d_s=2, search={"type": "full_grid", "N": [8, 8]},
                          thresholds=[0.0, 0.0],
                          sampling={"kind": "scattered", "count": 50, "seed": 0},
                          solver={"max_iter": 5})
    with pytest.warns(UserWarning):
        detect(cfg, tiny_target)


def test_pilot_with_few_samples_per_unknown_warns():
    """m/10 < |I| <= m: a scattered pilot warns that it has fewer than 10
    samples per unknown; a lattice pilot and a scattered refit do not."""
    few = "fewer than 10 samples per unknown"

    def messages(run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = run()
        return model, [str(w.message) for w in caught]
    cfg = tiny_config(thresholds=(0.0, 0.0), count=100)
    pilot, seen = messages(lambda: detect(cfg, tiny_target).pilot)
    n, m = len(pilot.index_set), pilot.provenance["sample_count"]
    assert m / 10 < n <= m and any(few in w for w in seen)
    lattice = tiny_config(thresholds=(0.0, 0.0), kind="lattice")
    pilot, seen = messages(lambda: detect(lattice, tiny_target).pilot)
    n, M = len(pilot.index_set), pilot.provenance["sample_count"]
    assert M / 10 < n <= M and not any(few in w for w in seen)
    fam = term_family_ds(3, 2)
    sets = build_search_sets(3, 2, cfg.search, family=fam)
    refit, seen = messages(lambda: approximate(fam, sets, tiny_target, cfg.sampling))
    n, m = len(refit.index_set), refit.provenance["sample_count"]
    assert m / 10 < n <= m and not any(few in w for w in seen)


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


def test_weighted_search_sets_are_built_on_each_terms_axes():
    """A POD weight reads the gamma entries of a term's own axes: at
    gamma = (1, 0.5, 0.1) the singletons keep 38, 18 and 2 frequencies, and
    the pairs with axis 3 none.  A callable weight sees vectors in Z^d."""
    weight = {"alpha": 0.0, "beta": 1.0, "gamma": [1.0, 0.5, 0.1],
              "Gamma": [1.0] * 3}
    sets = build_search_sets(3, 2, {"type": "weighted", "N": [20, 20],
                                    "weight": weight})
    p = WeightParams(**weight)
    for u in term_family_ds(3, 2).sorted_terms():
        want = weighted_index_set(u, lambda k: pod_weight(k, p), 20.0, d=3)
        assert np.array_equal(sets[u].freqs, want.freqs), u
    assert [len(sets[u]) for u in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]] \
        == [38, 18, 2, 32, 0, 0]
    seen = set()

    def weight_fn(k):
        seen.add(k.shape[1])
        return pod_weight(k, p)
    build_search_sets(3, 2, {"type": "weighted", "N": [20, 20], "weight": weight_fn})
    assert seen == {3}


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
    ("thresholds", ["0.5", 0.0]),
    ("thresholds", [True, 0.0]),
    ("thresholds", [0.0, 1.5]),
    ("thresholds", 0.5),
    ("search", {"type": "hyperbolic_cross", "N": [float("nan"), 10]}),
])
def test_config_rejects_bad_keys(field, value):
    kwargs = dict(d=3, d_s=2, search={"type": "full_grid", "N": [4, 4]},
                  thresholds=[0.0, 0.0], sampling={"count": 100})
    kwargs[field] = value
    with pytest.raises(ConfigError, match=field):
        DetectionConfig(**kwargs)


def test_detect_checks_sampling_before_the_target(monkeypatch):
    def boom(*_args):
        raise AssertionError("target called or set built")

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
    X = uniform_nodes(3, 10, seed=1).points
    monkeypatch.setattr(method, "build_search_sets", boom)
    with pytest.raises(ConfigError, match="'lattice' needs a callable target"):
        detect(tiny_config(kind="lattice"), (X, tiny_target(X)))


def test_approximate_checks_sampling_and_solver():
    fam = TermFamily.downward_closure(3, [(1,)])
    sets = build_search_sets(3, 1, {"type": "full_grid", "N": [4]}, family=fam)
    with pytest.raises(ConfigError, match="sampling.kind"):
        approximate(fam, sets, tiny_target, {"kind": "grid", "count": 10})
    with pytest.raises(ConfigError, match="solver.max_iters"):
        approximate(fam, sets, tiny_target, {"count": 10}, {"max_iters": 5})
    X = uniform_nodes(3, 10, seed=1).points
    with pytest.raises(ConfigError, match="'lattice' needs a callable target"):
        approximate(fam, sets, (X, tiny_target(X)), {"kind": "lattice"})
    with pytest.raises(ConfigError, match="search.N"):
        build_search_sets(3, 1, {"type": "full_grid", "N": [4]},
                          family=TermFamily.downward_closure(3, [(1, 2)]))


def _exact_polynomial():
    """A random trigonometric polynomial on U_2 of d = 5 (full grid (16, 6),
    |I| = 326) as a callable target, with its grouped set and coefficients."""
    fam = term_family_ds(5, 2)
    sets = build_search_sets(5, 2, {"type": "full_grid", "N": [16, 6]}, family=fam)
    g = grouped(fam, sets)
    rng = np.random.default_rng(7)
    c = rng.standard_normal(len(g)) + 1j * rng.standard_normal(len(g))

    def polynomial(X):
        return BlockFourierOperator(NodeSet(X), g).forward(CoefficientMap(g, c))
    return fam, sets, g, c, polynomial


def _tight_fit(g, polynomial, count, max_iter):
    nodes = uniform_nodes(5, count, 3)
    return lsqr(BlockFourierOperator(nodes, g), polynomial(nodes.points),
                max_iter=max_iter, ntol=1e-8)


@pytest.mark.parametrize("per_unknown,bound", [(20, 1e-7), (2, 1e-6)])
def test_exact_polynomial_recovered_at_the_default_tolerances(per_unknown, bound):
    """On data that the index set reproduces exactly, the normal-equations
    ratio stays well above 1e-4 while F is well conditioned (here down to 2
    samples per unknown), so the loose default cannot end the fit before the
    residual test at atol = btol = 1e-8 does: the fit is the one of the
    tight stop, bit for bit.  (Loosening atol itself to 1e-4 leaves a
    coefficient error of about 1e-4 here.)"""
    fam, sets, g, c, polynomial = _exact_polynomial()
    sampling = {"count": per_unknown * len(g), "seed": 3}
    model = approximate(fam, sets, polynomial, sampling)
    report = model.provenance["solver_report"]
    assert report["stop_reason"] == "residual tolerance reached"
    err = np.linalg.norm(model.coefficients.values - c) / np.linalg.norm(c)
    assert err < bound, err
    tight = _tight_fit(g, polynomial, sampling["count"], 200)
    assert tight.iterations == report["iterations"]
    assert tight.coefficients.values.tobytes() == model.coefficients.values.tobytes()


@pytest.mark.parametrize("per_unknown", [20, 2])
def test_exact_polynomial_pilot_stops_on_the_residual_test(per_unknown):
    """The pilot's normal-equations tolerance, 1e-2, is still below the
    ratio of a well-conditioned exact fit, so ``detect`` stops on the
    residual test at the iterate of the tight stop.  (At 1.2 samples per
    unknown the pilot's cap of 50 iterations ends the fit first.)"""
    fam, sets, g, c, polynomial = _exact_polynomial()
    count = per_unknown * len(g)
    cfg = DetectionConfig(d=5, d_s=2, search={"type": "full_grid", "N": [16, 6]},
                          thresholds=[0.0, 0.0], sampling={"count": count, "seed": 3})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fewer than 10 samples per unknown
        res = detect(cfg, polynomial)
    assert res.pilot.index_set.digest() == g.digest()
    report = res.pilot.provenance["solver_report"]
    assert report["provenance"]["ntol"] == 1e-2
    assert report["stop_reason"] == "residual tolerance reached"
    tight = _tight_fit(g, polynomial, count, 50)
    assert tight.iterations == report["iterations"]
    assert tight.coefficients.values.tobytes() == res.pilot.coefficients.values.tobytes()


def test_solver_report_records_ntol():
    """The normal-equations tolerance is 1e-2 for the pilot and 1e-4 for the
    refit unless the solver config sets atol, which then serves both tests
    in both stages, as in ``lsqr``."""
    cfg = tiny_config()
    res = detect(cfg, tiny_target)
    prov = res.pilot.provenance["solver_report"]["provenance"]
    assert (prov["atol"], prov["btol"], prov["ntol"]) == (1e-8, 1e-8, 1e-2)
    fam = res.active
    sets = build_search_sets(3, 2, cfg.search, family=fam)
    model = approximate(fam, sets, tiny_target, cfg.sampling)
    prov = model.provenance["solver_report"]["provenance"]
    assert (prov["atol"], prov["btol"], prov["ntol"]) == (1e-8, 1e-8, 1e-4)
    res = detect(DetectionConfig(d=3, d_s=2, search=cfg.search,
                                 thresholds=list(cfg.thresholds),
                                 sampling=cfg.sampling,
                                 solver={"atol": 1e-6, "max_iter": 120}),
                 tiny_target)
    prov = res.pilot.provenance["solver_report"]["provenance"]
    assert (prov["atol"], prov["ntol"]) == (1e-6, 1e-6)
    model = approximate(fam, sets, tiny_target, cfg.sampling, {"atol": 1e-6})
    prov = model.provenance["solver_report"]["provenance"]
    assert (prov["atol"], prov["ntol"]) == (1e-6, 1e-6)


def test_pilot_tolerance_keeps_the_ranking(monkeypatch):
    """On the test function's data, the pilot at its default 1e-2 detects
    the family that it detects at 1e-4, in fewer iterations, and moves no
    end of a threshold gap by more than 1e-4 (about 2e-5 here, at 6
    samples per unknown)."""
    X = uniform_nodes(9, 8000, seed=1).points
    data = (X, bench.testfun_value(X))
    cfg = DetectionConfig(d=9, d_s=3, search={"type": "full_grid", "N": [8, 4, 2]},
                          thresholds=[0.005, 0.005, 0.001],
                          sampling={"kind": "scattered"})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # fewer than 10 samples per unknown
        loose = detect(cfg, data)
        monkeypatch.setitem(method.SOLVER_DEFAULTS["detect"], "ntol", 1e-4)
        tight = detect(cfg, data)
    iters = [r.pilot.provenance["solver_report"]["iterations"] for r in (loose, tight)]
    assert iters[0] < iters[1]
    assert loose.active.terms == tight.active.terms == u_star().terms
    gaps = [gap_intervals(r.report, u_star(), 3) for r in (loose, tight)]
    assert all(gap is not None for gap in gaps[0] + gaps[1])
    assert np.allclose(gaps[0], gaps[1], rtol=0, atol=1e-4), gaps


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
    # so do zeros of either sign, in either part, and the digest with them
    from anovafourier.anova import CoefficientMap
    values = res.pilot.coefficients.values.copy()
    values[:4] = [complex(-0.0, 2.0), complex(3.0, -0.0), complex(-0.0, -0.0), 0j]
    signed = ApproxModel(CoefficientMap(res.pilot.index_set, values))
    signed.save(path)
    loaded = ApproxModel.load(path)
    assert np.array_equal(loaded.coefficients.values.view(np.uint64),
                          values.view(np.uint64))
    assert loaded.digest() == signed.digest()


def test_model_document_blocks_are_taken_by_term():
    """Coefficient blocks load by their term, in any order; a block of a
    term outside the index set, a repeated or missing one, or one of the
    wrong length is refused."""
    g = grouped(term_family_ds(2, 1), build_search_sets(2, 1, {"type": "full_grid",
                                                               "N": [4]}))
    model = ApproxModel(CoefficientMap(g, np.arange(len(g)) + 1j))
    doc = model.to_json_dict()
    blocks = doc["coefficients"]["blocks"]
    assert [b["u"] for b in blocks] == [[], [1], [2]]

    def load(new_blocks):
        return ApproxModel.from_json_dict(
            {**doc, "coefficients": {**doc["coefficients"], "blocks": new_blocks}})
    assert np.array_equal(load(blocks[::-1]).coefficients.values,
                          model.coefficients.values)
    for bad, match in [
            ([blocks[0], {**blocks[1], "u": [3]}, blocks[2]], r"term \(3,\)"),
            ([blocks[0], blocks[1], blocks[1], blocks[2]], r"term \(1,\): repeated"),
            (blocks[:2], r"no coefficient block of term \(2,\)"),
            ([blocks[0], blocks[1], {**blocks[2], "data": blocks[2]["data"][:64]}],
             r"term \(2,\): need 3 values, got 2")]:
        with pytest.raises(ValueError, match=match):
            load(bad)


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


@pytest.mark.parametrize("kind", method._SAMPLING_KINDS)
def test_evaluate_at_lattice_nodes_matches_fft_path(kind):
    """``evaluate_on`` at the design a model was fitted on, by the design's
    own transform, agrees with the dense sum at the design's nodes."""
    res = detect(tiny_config(thresholds=(0.0, 0.0), kind=kind), tiny_target)
    design = res.pilot.fit_data()[0]
    pts = design.nodes.points if kind == "scattered" else lattice_nodes(design.lattice)
    emb = res.pilot.index_set.embedded()
    dense = np.exp(2j * np.pi * (pts @ emb.T)) @ res.pilot.coefficients.values
    got = res.pilot.evaluate_on(design)
    assert np.linalg.norm(got - dense) < 1e-10 * np.linalg.norm(dense)


def test_detect_zero_variance_errors():
    cfg = tiny_config()
    with pytest.raises(ValueError):
        detect(cfg, lambda X: np.zeros(X.shape[0]))
