import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anovafourier import bench
from anovafourier.anova import CoefficientMap, term_family_ds
from anovafourier.index_sets import grouped
from anovafourier.method import ApproxModel, build_search_sets, read_run_config
from anovafourier.operator import uniform_nodes
import bench_oracles as oracles
from paper_oracles import support, u_plus


def test_bspline_coeff_examples():
    assert oracles.bspline_coeff(2, 0) == pytest.approx(math.sqrt(3 / 4))
    assert oracles.bspline_coeff(2, 2) == pytest.approx(0.0, abs=1e-15)
    assert oracles.bspline_coeff(2, 4) == pytest.approx(0.0, abs=1e-15)
    # c_2 * sinc^2(pi/2) * cos(pi) = -c_2 (2/pi)^2
    assert oracles.bspline_coeff(2, 1) == pytest.approx(
        -math.sqrt(0.75) * (2 / math.pi) ** 2, rel=1e-12)
    with pytest.raises(ValueError):
        oracles.bspline_coeff(3, 0)


def test_bspline_value_published_points():
    assert oracles.bspline_value(2, 0.5)[()] == pytest.approx(1.7320508075688772)
    assert oracles.bspline_value(4, 0.5)[()] == pytest.approx(1.9257749794623442)
    assert oracles.bspline_value(2, 0.0)[()] == pytest.approx(0.0, abs=1e-15)
    assert oracles.bspline_value(4, 0.25)[()] == pytest.approx(0.4814437448655848)
    assert oracles.bspline_value(6, 0.3)[()] == pytest.approx(0.550597192760102)
    assert oracles.bspline_value(2, 0.17)[()] == pytest.approx(0.5888972745734183)


def test_bspline_value_matches_series_oracle():
    # Fourier-series partial sum with analytically bounded tail:
    # |c_k| <= c_j (j/pi)^j |k|^-j, so the L_inf tail beyond K is below
    # 2 c_j (j/pi)^j K^(1-j)/(j-1).
    rng = np.random.default_rng(0)
    x = rng.random(1000)
    for j, K in ((2, 4096), (4, 64), (6, 32)):
        ks = np.arange(-K, K + 1)
        coeffs = bench.bspline_coeff_arr(j, ks)
        series = (np.exp(2j * np.pi * np.outer(x, ks)) @ coeffs).real
        tail = 2 * bench.BSPLINE_NORM[j] * (j / math.pi) ** j * K ** (1 - j) / (j - 1)
        for values in (oracles.bspline_value, bench.bspline_values):
            assert np.max(np.abs(values(j, x) - series)) <= tail + 1e-12


def _edge_points(j):
    """The knots i/j over two periods each side of 0, their float
    neighbours, and points whose x - floor(x) rounds to 1.0 (the piece
    index must be clamped to j - 1 there)."""
    knots = np.arange(-2 * j, 2 * j + 1) / j
    return np.concatenate([knots, np.nextafter(knots, -np.inf),
                           np.nextafter(knots, np.inf),
                           [-0.0, -1e-20, -1e-300, -5e-324]])


@settings(max_examples=200, deadline=None)
@given(j=st.sampled_from([2, 4, 6]),
       x=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=64))
def test_bspline_values_match_truncated_power_oracle(j, x):
    x = np.concatenate([np.asarray(x, dtype=np.float64), _edge_points(j)])
    got = bench.bspline_values(j, x)
    want = oracles.bspline_value(j, x)
    assert got.shape == x.shape
    assert np.max(np.abs(got - want)) <= 1e-12


def test_bspline_values_rejects_unknown_order_and_propagates_nan():
    with pytest.raises(ValueError, match="2, 4, 6"):
        bench.bspline_values(3, 0.5)
    with np.errstate(invalid="ignore"):  # inf - floor(inf)
        for j in (2, 4, 6):
            assert np.isnan(bench.bspline_values(j, [np.nan, np.inf])).all()


def test_bspline_norm_certified():
    for j, K in ((2, 200000), (4, 2000), (6, 500)):
        ks = np.arange(-K, K + 1)
        total = float(np.sum(bench.bspline_coeff_arr(j, ks) ** 2))
        tail = 2 * (bench.BSPLINE_NORM[j] * (j / math.pi) ** j) ** 2 \
            * K ** (1 - 2 * j) / (2 * j - 1)
        assert abs(total - 1.0) <= tail + 1e-12


BSPLINE_NORM = bench.BSPLINE_NORM


def test_testfun_values():
    assert bench.testfun_value(np.zeros(9)) == 0.0
    mid = bench.testfun_value(np.full(9, 0.5))
    b2, b4, b6 = (oracles.bspline_value(j, 0.5)[()] for j in (2, 4, 6))
    assert mid == pytest.approx(3 * b2 * b4 + b2 * b4 * b6, rel=1e-12)
    # periodicity
    x = np.random.default_rng(1).random(9)
    assert bench.testfun_value(x + 1.0) == pytest.approx(bench.testfun_value(x), rel=1e-12)


def test_testfun_value_matches_truncated_power_products():
    X = np.random.default_rng(4).random((100_000, 9))
    b = {(c, j): oracles.bspline_value(j, X[:, c - 1])
         for prod in bench.PRODUCTS for c, j in prod}
    want = sum(math.prod(b[f] for f in prod) for prod in bench.PRODUCTS)
    assert np.max(np.abs(bench.testfun_value(X) - want)) <= 1e-12


@pytest.mark.parametrize("shape", [(5, 10), (5, 8), (8,), (2, 3, 9), ()])
def test_testfun_value_rejects_wrong_shape(shape):
    with pytest.raises(ValueError, match=r"\(m, 9\)"):
        bench.testfun_value(np.full(shape, 0.5))


def test_testfun_value_block_memory():
    # lattice sampling charges nothing per sample for its blocks
    # (method._LATTICE_BYTES_PER_SAMPLE): one block's temporaries stay
    # within a few copies of the block
    X = np.random.default_rng(3).random((8192, 9))
    bench.testfun_value(X)
    tracemalloc.start()
    try:
        bench.testfun_value(X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * X.nbytes


def test_testfun_mean_and_norm():
    assert bench.exact_mean() == pytest.approx(3 * BSPLINE_NORM[2] * BSPLINE_NORM[4]
                                               + BSPLINE_NORM[2] * BSPLINE_NORM[4] * BSPLINE_NORM[6])
    assert oracles.testfun_coeff(np.zeros(9, int)) == pytest.approx(bench.exact_mean())
    # variance from closed form vs quadrature on one product (spot check)
    assert bench.exact_variance() == pytest.approx(2.6611, abs=2e-4)
    assert bench.exact_norm_sq() == pytest.approx(7.8734, abs=2e-4)


def test_testfun_coeff_examples():
    k = np.zeros(9, int)
    k[0] = 1
    expect = oracles.bspline_coeff(2, 1) * oracles.bspline_coeff(4, 0)
    assert oracles.testfun_coeff(k) == pytest.approx(expect, rel=1e-12)
    k2 = np.zeros(9, int)
    k2[0] = 1
    k2[1] = 1  # support {1,2} is contained in no product
    assert oracles.testfun_coeff(k2) == 0.0


def test_testfun_zero_structure():
    rng = np.random.default_rng(2)
    star = bench.u_star().terms
    for _ in range(200):
        k = rng.integers(-3, 4, size=9)
        if support(k) not in star:
            assert oracles.testfun_coeff(k) == 0.0


def test_testfun_coeffs_match_quadrature_slice():
    # 3-d slice (coords 4, 8, 9 pattern): quadrature oracle agrees to 1e-10
    from quadrature_oracles import quadrature_projection

    def f(X):
        return (oracles.bspline_value(2, X[:, 0]) * oracles.bspline_value(4, X[:, 1])
                * oracles.bspline_value(6, X[:, 2]))

    proj = quadrature_projection(f, (1, 2, 3), 3, grid=64)
    import math
    alias = 2 * bench.BSPLINE_NORM[2] * (2 / math.pi) ** 2 / 62  # B2 tail
    for l in ((0, 0, 0), (1, 1, 1), (-2, 1, 3), (5, -3, 2)):
        expect = (oracles.bspline_coeff(2, l[0]) * oracles.bspline_coeff(4, l[1])
                  * oracles.bspline_coeff(6, l[2]))
        assert proj[l] == pytest.approx(expect, abs=alias)


def test_exact_gsi_published_points():
    gsi = oracles.exact_gsi()
    for u, published in oracles.PUBLISHED_GSI.items():
        assert gsi[u] == pytest.approx(published, abs=1e-3)


def test_errors_formula_collapse():
    # exact coefficients on the index set: eps_L2 reduces to the tail formula
    fam = bench.u_star()
    sets = build_search_sets(9, 3, {"type": "full_grid", "N": [16, 8, 4]},
                             family=fam)
    g = grouped(fam, sets)
    exact = bench.testfun_coeffs(g.embedded())
    model = ApproxModel(CoefficientMap(g, exact.astype(complex)))
    X = uniform_nodes(9, 2000, seed=0)
    y = bench.testfun_value(X.points)
    eps_L2 = bench.l2_error(model)
    eps_l2 = np.linalg.norm(y - model.evaluate(X.points)) / np.linalg.norm(y)
    expect = math.sqrt(1 - np.sum(exact ** 2) / bench.exact_norm_sq())
    assert eps_L2 == pytest.approx(expect, rel=1e-10)
    assert eps_l2 > 0


def test_uplus_floor():
    # any model over U+ pays at least the third-order term's variance
    fam = u_plus()
    sets = build_search_sets(9, 2, {"type": "full_grid", "N": [64, 16]},
                             family=fam)
    g = grouped(fam, sets)
    exact = bench.testfun_coeffs(g.embedded())
    model = ApproxModel(CoefficientMap(g, exact.astype(complex)))
    eps_L2 = bench.l2_error(model)
    floor = math.sqrt(bench.exact_term_variances()[(4, 8, 9)] / bench.exact_norm_sq())
    assert eps_L2 >= floor - 1e-12
    assert floor == pytest.approx(0.09362, abs=2e-5)


def test_run_experiment_tiny_scattered():
    row = bench.run_experiment({
        "id": "tiny", "d": 9, "d_s": 2,
        "search": {"type": "full_grid", "N": (8, 4)},
        "sampling": {"kind": "scattered", "count": 8000, "seed": 1},
        "solver": {"max_iter": 40}})
    assert row.set_size == 1 + 9 * 7 + 36 * 9
    assert row.samples == 8000
    assert 0 < row.eps_l2 < 1
    assert row.gaps is not None and len(row.gaps) == 2
    line = row.csv_line()
    assert line.startswith("tiny;scattered;2;")
    assert bench.ExperimentRow.csv_header().count(";") == line.count(";")


@pytest.mark.parametrize("cfg,rel", [
    pytest.param({"d": 9, "d_s": 2, "search": {"type": "full_grid", "N": (8, 4)},
                  "sampling": {"kind": "scattered", "count": 8000, "seed": 1}},
                 0.0, id="scattered-detection"),
    pytest.param({"d": 9, "d_s": 3,
                  "search": {"type": "hyperbolic_cross", "N": (10, 10, 10)},
                  "sampling": {"kind": "lattice", "seed": 1},
                  "active_set": [[1, 5], [2, 6], [3, 7], [4, 8, 9]]},
                 1e-12, id="lattice-refit")])
def test_row_eps_l2_matches_a_direct_evaluation(cfg, rel, monkeypatch):
    """A row's eps_l2, read from its solve's residual, is the training error
    of its model evaluated again on its own samples: to the bit on scattered
    nodes, where LSQR's last forward runs the same node halves as a fresh
    operator, and to roundoff on a lattice, whose solve evaluates Re and
    Im F h apart."""
    from anovafourier.operator import _norm
    fitted = []
    for name in ("detect", "approximate"):
        def fit(*args, _fit=getattr(bench, name)):
            out = _fit(*args)
            fitted.append(getattr(out, "pilot", out))
            return out
        monkeypatch.setattr(bench, name, fit)
    row = bench.run_experiment(cfg)
    (model,) = fitted
    design, y = model.fit_data()
    direct = _norm(y - model.evaluate_on(design)) / _norm(y)
    assert 0 < row.eps_l2 < 1
    assert row.eps_l2 == pytest.approx(direct, rel=rel, abs=0)


_SCORING_PEAK = """
import json
import sys
from anovafourier import bench
from anovafourier.method import detect, read_run_config

cfg = bench.TABLE_CONFIGS[(4, 1)]
if sys.argv[1] == "detect":
    M = detect(read_run_config(cfg)[0], bench.testfun_value).pilot.provenance["sample_count"]
else:
    M = bench.run_experiment(cfg).samples
with open("/proc/self/status") as fh:
    peak = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
print(json.dumps({"M": M, "peak": peak * 1024}))
"""


def _scoring_peak(stage):
    """(samples, peak RSS in bytes) of table 4 row 1 in a fresh interpreter,
    after ``detect`` alone or after the whole row, scoring included."""
    proc = subprocess.run([sys.executable, "-c", _SCORING_PEAK, stage],
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["M"], out["peak"]


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmHWM from /proc")
def test_scoring_a_row_adds_no_memory():
    """Scoring table 4 row 1 (M = 729000 lattice samples) raises the peak RSS
    of its detection by at most 1 byte per sample: eps_l2 comes from the
    solve's residual and eps_L2 from the coefficients, so no length-M vector
    is made.  Evaluating the model again at every sample in complex128 rose
    by 48 bytes per sample."""
    M, fit_peak = _scoring_peak("detect")
    M_row, row_peak = _scoring_peak("row")
    assert M_row == M
    rise = (row_peak - fit_peak) / M
    assert rise <= 1, f"scoring raised the peak by {rise:.1f} bytes per sample"


def test_table_registry_contents():
    assert bench.TABLE_CONFIGS[(1, 1)]["search"]["N"] == (256, 32, 8)
    assert bench.TABLE_CONFIGS[(4, 1)]["search"]["N"] == (100, 100, 100)
    assert bench.TABLE_CONFIGS[(5, 1)]["search"]["N"] == (10 ** 4,) * 3
    assert bench.TABLE_CONFIGS[(5, 2)] is bench.TABLE_CONFIGS[(6, 2)]


#: (sampling kind, refit family) of each table's rows and each desk row
_ROW_KINDS = {1: ("scattered", None), 2: ("scattered", bench.u_star),
              3: ("scattered", None), 4: ("lattice", None),
              5: ("lattice", bench.u_star), 6: ("lattice", bench.u_star),
              "scattered-ds3": ("scattered", None),
              "scattered-ds2": ("scattered", None),
              "scattered-ustar": ("scattered", bench.u_star),
              "scattered-uplus": ("scattered", u_plus),
              "lattice-ds3": ("lattice", None)}


@pytest.mark.parametrize("cfg,expect", [
    *(pytest.param(cfg, _ROW_KINDS[key[0]], id=f"table{key[0]}-row{key[1]}")
      for key, cfg in bench.TABLE_CONFIGS.items()),
    *(pytest.param(cfg, _ROW_KINDS[key], id=key)
      for key, cfg in bench.DESK_CONFIGS.items())])
def test_registered_rows_are_run_configs(cfg, expect):
    """Every published and desk row passes the run-config checker, which
    neither samples nor builds an index set."""
    kind, family = expect
    dc, got = read_run_config(cfg)
    assert dc.d == bench.D and dc.sampling["kind"] == kind
    assert got == (family and family())


def test_oversampling_regime_residual_bounds_l2_error():
    # with |I(U)| well below |X| / (7 log |X|) and uniform nodes, the
    # training residual tracks the exact L2 error within a small factor;
    # statistical check at a fixed seed, not a theorem test
    import warnings
    from anovafourier.method import approximate as _approximate
    fam = bench.u_star()
    sets = build_search_sets(9, 3, {"type": "full_grid", "N": [8, 4, 2]},
                             family=fam)
    g = grouped(fam, sets)
    m = 20000
    assert len(g) <= m / (7 * math.log(m))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = _approximate(fam, sets, bench.testfun_value,
                             {"kind": "scattered", "count": m, "seed": 11},
                             {"max_iter": 200})
    eps_l2, eps_L2 = bench.training_error(model), bench.l2_error(model)
    assert eps_L2 <= 3 * eps_l2
    assert eps_l2 <= 3 * eps_L2
