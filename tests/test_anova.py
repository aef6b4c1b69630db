import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anovafourier.anova import (CoefficientMap, sensitivity, term_family_ds,
                                variance)
from anovafourier.index_sets import (LowDimIndexSet, TermFamily, full_grid,
                                     grouped)
from quadrature_oracles import direct_formula_check, quadrature_projection
from anovafourier import bench
import bench_oracles as oracles
from bench_oracles import truncate
from paper_oracles import support


def _grouped(d, d_s, N):
    fam = term_family_ds(d, d_s)
    sets = {(): LowDimIndexSet((), np.zeros((1, 0), np.int64))}
    for u in fam.sorted_terms():
        if u:
            sets[u] = full_grid(u, N)
    return grouped(fam, sets)


def _random_map(g, seed=0):
    rng = np.random.default_rng(seed)
    return CoefficientMap(g, rng.normal(size=len(g)) + 1j * rng.normal(size=len(g)))


def test_support_examples():
    assert support((2, 0, -1)) == (1, 3)
    assert support((0, 0, 0)) == ()
    assert support((0, 5)) == (2,)


def test_term_family_ds():
    assert term_family_ds(2, 1).terms == {(), (1,), (2,)}
    assert len(term_family_ds(9, 3)) == 130
    assert len(term_family_ds(3, 3)) == 8


def test_truncate_identity_and_mean():
    g = _grouped(3, 2, 4)
    c = _random_map(g)
    full = truncate(c, g.family)
    assert np.array_equal(full.values, c.values)
    only_mean = truncate(c, TermFamily.from_terms(3, [()]))
    assert len(only_mean.values) == 1
    assert only_mean.mean() == c.mean()


def test_truncate_requires_subfamily():
    g = _grouped(2, 1, 4)
    with pytest.raises(ValueError):
        truncate(_random_map(g), TermFamily.from_terms(2, [(), (1,), (2,), (1, 2)]))


def test_truncate_idempotent():
    g = _grouped(3, 2, 4)
    c = _random_map(g, 5)
    U = TermFamily.from_terms(3, [(), (1,), (2,)])
    once = truncate(c, U)
    twice = truncate(once, U)
    assert np.array_equal(once.values, twice.values)


@given(st.integers(0, 10 ** 6))
@settings(max_examples=20, deadline=None)
def test_truncation_nesting(seed):
    g = _grouped(3, 2, 4)
    c = _random_map(g, seed)
    U = TermFamily.from_terms(3, [(), (1,)])
    V = TermFamily.from_terms(3, [(), (1,), (2,), (1, 2)])
    assert variance(truncate(c, U)) <= variance(truncate(c, V)) + 1e-12


def test_variance_constant_is_zero():
    g = _grouped(2, 1, 4)
    vals = np.zeros(len(g), dtype=complex)
    vals[g.block_slices()[()]] = 3.5
    assert variance(CoefficientMap(g, vals)) == 0.0


def test_variance_requires_zero_block():
    from anovafourier.index_sets import GroupedIndexSet
    blocks = (LowDimIndexSet((1,), np.array([[-1], [1]])),)
    with pytest.raises(ValueError):
        g = GroupedIndexSet(1, blocks)
        variance(CoefficientMap(g, np.ones(2, dtype=complex)))


def test_variance_b2_alone():
    # univariate B2 alone: variance = 1 - 3/4
    K = 4096
    ks = np.arange(-K, K + 1)
    coeffs = bench.bspline_coeff_arr(2, ks)
    var = float(np.sum(coeffs ** 2) - coeffs[K] ** 2)
    assert var == pytest.approx(0.25, abs=1e-8)


def test_variance_bench_exact():
    assert bench.exact_variance() == pytest.approx(2.6611, abs=2e-4)


def test_decomposition_identity_and_orthogonality():
    g = _grouped(3, 3, 4)
    c = _random_map(g, 11)
    slices = g.block_slices()
    total = np.zeros(len(g), dtype=complex)
    for b in g.blocks:
        part = np.zeros(len(g), dtype=complex)
        part[slices[b.term]] = c.values[slices[b.term]]
        total += part
    assert np.array_equal(total, c.values)
    # distinct blocks occupy disjoint slices: inner products vanish exactly
    for b1 in g.blocks:
        for b2 in g.blocks:
            if b1.term >= b2.term:
                continue
            v1 = np.zeros(len(g), dtype=complex)
            v2 = np.zeros(len(g), dtype=complex)
            v1[slices[b1.term]] = c.values[slices[b1.term]]
            v2[slices[b2.term]] = c.values[slices[b2.term]]
            assert np.vdot(v1, v2) == 0


def test_variance_additivity():
    g = _grouped(3, 3, 4)
    c = _random_map(g, 13)
    rep = sensitivity(c)
    assert variance(c) == pytest.approx(float(np.sum(rep.variances)), rel=1e-12)
    assert sum(rep.gsis) == pytest.approx(1.0, abs=1e-12)


def test_sensitivity_zero_variance_tagged():
    g = _grouped(2, 1, 4)
    vals = np.zeros(len(g), dtype=complex)
    vals[g.block_slices()[()]] = 1.0
    rep = sensitivity(CoefficientMap(g, vals))
    assert not rep.defined
    assert all(gsi is None for gsi in rep.gsis)


def test_sensitivity_bench_exact_values():
    gsi = oracles.exact_gsi()
    assert gsi[(5,)] == pytest.approx(0.13485590547067322, abs=1e-3)
    assert gsi[(1, 5)] == pytest.approx(0.04495099140872069, abs=1e-3)
    assert gsi[(4, 8, 9)] == pytest.approx(0.025923436849895076, abs=1e-3)


def test_report_serialization():
    g = _grouped(2, 2, 4)
    rep = sensitivity(_random_map(g, 2))
    doc = rep.to_json_dict()
    assert doc["total_variance"] == pytest.approx(rep.total_variance)
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "u;order;variance;gsi"
    assert len(csv.splitlines()) == 1 + len(rep.terms)


def test_truncation_loss_u_plus():
    # dropping the third-order bench term loses exactly its variance share
    var489 = bench.exact_term_variances()[(4, 8, 9)]
    loss = np.sqrt(var489 / bench.exact_norm_sq())
    assert loss == pytest.approx(0.09362, abs=2e-5)


def test_quadrature_projection_single_mode():
    f = lambda X: np.exp(2j * np.pi * (2 * X[:, 0]))
    proj = quadrature_projection(f, (1,), 2, grid=16)
    assert proj[(2,)] == pytest.approx(1.0, abs=1e-12)
    others = [v for l, v in proj.items() if l != (2,)]
    assert max(abs(v) for v in others) < 1e-12


def test_quadrature_projection_kills_off_support():
    f = lambda X: np.exp(2j * np.pi * (X[:, 0] + X[:, 1]))
    proj = quadrature_projection(f, (1,), 2, grid=16)
    assert max(abs(v) for v in proj.values()) < 1e-12


def test_quadrature_projection_bench_slice():
    # 3-d slice B2(x1) B4(x2) B6(x3): projected coefficients match the
    # closed-form univariate products up to the rectangle-rule aliasing
    # tail, here dominated by the k^-2 decay of the B2 series beyond the
    # grid bandwidth: |alias| <= 2 c2 (2/pi)^2 sum_{k >= 63} k^-2 ~ 9e-4.
    def f(X):
        return (oracles.bspline_value(2, X[:, 0]) * oracles.bspline_value(4, X[:, 1])
                * oracles.bspline_value(6, X[:, 2]))
    proj = quadrature_projection(f, (1,), 3, grid=64)
    import math
    alias = 2 * bench.BSPLINE_NORM[2] * (2 / math.pi) ** 2 / 62
    for l in (-2, -1, 0, 1, 2):
        expect = oracles.bspline_coeff(2, l) * oracles.bspline_coeff(4, 0) \
            * oracles.bspline_coeff(6, 0)
        assert proj[(l,)] == pytest.approx(expect, abs=alias)
    # the faster-decaying axes reach near-roundoff agreement at grid 64
    proj2 = quadrature_projection(f, (3,), 3, grid=64)
    for l in (-2, 0, 3):
        expect = oracles.bspline_coeff(2, 0) * oracles.bspline_coeff(4, 0) \
            * oracles.bspline_coeff(6, l)
        assert proj2[(l,)] == pytest.approx(expect, abs=1e-9)


def test_direct_formula_check_empty_term():
    f = lambda X: np.cos(2 * np.pi * X[:, 0]) + 2.0
    assert direct_formula_check(f, (), 2, grid=16) < 1e-12


def test_direct_formula_check_full_support_mode():
    f = lambda X: np.exp(2j * np.pi * (X[:, 0] + X[:, 1]))
    assert direct_formula_check(f, (1, 2), 2, grid=16) < 1e-12


def test_direct_formula_check_bench_slice():
    def f(X):
        return (oracles.bspline_value(2, X[:, 0]) * oracles.bspline_value(4, X[:, 1])
                * oracles.bspline_value(6, X[:, 2]))
    assert direct_formula_check(f, (1, 3), 3, grid=64) < 1e-8


def test_quadrature_grid_validation():
    f = lambda X: X[:, 0]
    with pytest.raises(ValueError):
        quadrature_projection(f, (1,), 2, grid=48)
    with pytest.raises(ValueError):
        quadrature_projection(f, (1,), 5, grid=8)
