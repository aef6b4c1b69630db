import itertools
import math

import numpy as np
import pytest

from anovafourier.index_sets import TermFamily
from anovafourier.anova import term_family_ds
from anovafourier.weights import (WeightParams, bound_curve,
                                  parse_weight_sequence, pod_weight,
                                  sobolev_trunc_bound_l2,
                                  sobolev_trunc_bound_linf, wiener_trunc_bound,
                                  zeta)
from paper_oracles import (min_excluded_weight,
                           sobolev_trunc_bound_linf_closed,
                           superposition_threshold)


def fig3_params(alpha=0.0, beta=1.0):
    s = np.arange(1, 10, dtype=float)
    return WeightParams(alpha, beta, 1.0 / s, (math.sqrt(3.0) / math.pi) ** s)


def test_zeta_known_values():
    assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6, abs=1e-14)
    assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90, abs=1e-14)
    assert zeta(3.0) == pytest.approx(1.2020569031595943, abs=1e-13)
    assert zeta(1.0) == math.inf


def test_pod_weight_examples():
    p = WeightParams(0.0, 1.0, np.ones(2), np.ones(2))
    assert pod_weight(np.zeros(2, int), p) == 1.0
    assert pod_weight(np.array([1, 0]), p) == 2.0
    p2 = WeightParams(1.0, 1.0, np.array([1.0, 0.5]), np.ones(2))
    assert pod_weight(np.array([1, 1]), p2) == pytest.approx(24.0)


def test_param_validation():
    with pytest.raises(ValueError):
        WeightParams(0.0, -1.0, np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        WeightParams(-1.0, 0.5, np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        WeightParams(0.0, 1.0, np.ones(2), np.array([0.5, 0.9]))  # increasing
    with pytest.raises(ValueError):
        WeightParams(0.0, 1.0, np.array([1.0, 1.5]), np.ones(2))  # gamma > 1


_ONES = np.ones(2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name,make", [
    ("alpha", lambda v: WeightParams(v, 1.0, _ONES, _ONES)),
    ("beta", lambda v: WeightParams(0.0, v, _ONES, _ONES)),
    ("gamma", lambda v: WeightParams(0.0, 1.0, np.array([1.0, v]), _ONES)),
    ("Gamma", lambda v: WeightParams(0.0, 1.0, _ONES, np.array([v, 1.0]))),
])
def test_param_validation_rejects_non_finite(name, make, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        make(bad)


def test_wiener_bound_trivial_params():
    p = WeightParams(0.0, 0.0, np.ones(4), np.ones(4))
    for d_s in (1, 2, 3):
        assert wiener_trunc_bound(p, d_s) == 1.0


def test_wiener_bound_fig3_value():
    # Faithful evaluation of the closed form at the published parameters.
    # The originating text quotes ~8e-4 for this point; the formula itself
    # gives Gamma_4 * 2^-4 / 24 = 2.406e-4 (the quoted number corresponds to
    # Gamma_2 in place of Gamma_4).  Criterion 7 of the acceptance suite
    # checks the same value against an enumeration of sup 1/w(k); here we
    # pin it against the closed form.
    val = wiener_trunc_bound(fig3_params(), 3)
    expect = (math.sqrt(3.0) / math.pi) ** 4 * 2.0 ** -4 / 24.0
    assert val == pytest.approx(expect, rel=1e-12)
    assert val == pytest.approx(2.4060895909416415e-4, rel=1e-9)


def test_bounds_shared_expression():
    p = fig3_params(0.7, 1.3)
    for d_s in (1, 2, 3, 4):
        assert wiener_trunc_bound(p, d_s) == sobolev_trunc_bound_l2(p, d_s)


def test_bound_rejects_full_order():
    with pytest.raises(ValueError):
        wiener_trunc_bound(fig3_params(), 9)


def test_bound_beta_doubling():
    p1 = fig3_params(0.0, 1.0)
    p2 = fig3_params(0.0, 2.0)
    d_s = 3
    ratio = wiener_trunc_bound(p2, d_s) / wiener_trunc_bound(p1, d_s)
    assert ratio == pytest.approx(2.0 ** (-(d_s + 1)), rel=1e-12)


def test_bound_alpha_ratio():
    d_s = 3
    r = sobolev_trunc_bound_l2(fig3_params(1.0, 1.0), d_s) / \
        sobolev_trunc_bound_l2(fig3_params(0.0, 1.0), d_s)
    assert r == pytest.approx((2.0 + d_s) ** -1, rel=1e-12)


def test_bound_monotone_in_ds_beta_alpha():
    for beta in (0.5, 1.0, 2.0):
        vals = [wiener_trunc_bound(fig3_params(0.0, beta), ds) for ds in range(1, 9)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
    for alpha in (0.0, 1.0):
        vals = [wiener_trunc_bound(fig3_params(alpha, b), 3)
                for b in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
    vals = [wiener_trunc_bound(fig3_params(a, 1.0), 3) for a in (0.0, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_rearrangement_invariance():
    rng = np.random.default_rng(1)
    g = rng.uniform(0.1, 1.0, size=6)
    G = np.sort(rng.uniform(0.1, 1.0, size=6))[::-1]
    p1 = WeightParams(0.5, 1.0, g, G)
    p2 = WeightParams(0.5, 1.0, g[rng.permutation(6)], G)
    assert wiener_trunc_bound(p1, 2) == pytest.approx(wiener_trunc_bound(p2, 2), rel=1e-13)


def test_linf_zeta_bound_and_closed_form():
    c = math.sqrt(3.0) / math.pi
    p = fig3_params(0.0, 2.0)
    finite = sobolev_trunc_bound_linf(p, 3)
    closed = sobolev_trunc_bound_linf_closed(p, 3, c)
    assert finite == pytest.approx(closed, rel=1e-12)
    assert sobolev_trunc_bound_linf(p, 9) == 0.0  # empty sum at d_s = d
    assert sobolev_trunc_bound_linf(fig3_params(0.0, 0.4), 3) == math.inf


def test_linf_closed_form_condition_violated():
    # gamma too large for the geometric condition
    p = WeightParams(0.0, 0.6, np.ones(4), (0.9 ** np.arange(1, 5)))
    with pytest.raises(ValueError):
        sobolev_trunc_bound_linf_closed(p, 2, 0.9)


def test_superposition_threshold():
    p = fig3_params()
    assert superposition_threshold(p, 1 - (8e-4) ** 2) <= 3
    # delta -> 0+: the first threshold qualifies whenever bound(1)^2 <= 1
    assert superposition_threshold(p, 1e-12) == 1
    with pytest.raises(ValueError):
        superposition_threshold(p, 1.5)


def test_min_excluded_weight_pod():
    p = fig3_params()
    U = term_family_ds(9, 3)
    got = min_excluded_weight(p, U)
    # minimizer: entries +-1 on the four largest gammas, order d_s + 1
    expect = 24.0 * 2.0 ** 4 / (math.sqrt(3.0) / math.pi) ** 4
    assert got == pytest.approx(expect, rel=1e-12)
    assert got == pytest.approx(1.0 / wiener_trunc_bound(p, 3), rel=1e-12)


def test_min_excluded_weight_l1_example():
    U = TermFamily.from_terms(2, [()])
    w = lambda k: 1.0 + float(np.abs(k).sum())
    assert min_excluded_weight(w, U, d=2) == 2.0


def test_min_excluded_weight_brute_force():
    p = WeightParams(0.5, 1.0, np.array([1.0, 0.7, 0.4]),
                     np.array([1.0, 0.8, 0.6]))
    U = TermFamily.from_terms(3, [(), (1,), (3,)])
    got = min_excluded_weight(p, U)
    best = math.inf
    for k in itertools.product(range(-5, 6), repeat=3):
        k = np.asarray(k)
        supp = tuple(int(i + 1) for i in np.flatnonzero(k))
        if supp in U.terms:
            continue
        best = min(best, pod_weight(k, p))
    assert got == pytest.approx(best, rel=1e-12)


def test_min_excluded_weight_full_family_rejected():
    p = WeightParams(0.0, 1.0, np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        min_excluded_weight(p, term_family_ds(2, 2))


def test_bound_curve_fig3_shapes():
    p = fig3_params()
    solid = bound_curve(p, 3, "alpha", np.linspace(0, 10, 21))
    assert np.all(np.isfinite(solid)) and np.all(solid > 0)
    assert np.all(np.diff(solid) <= 1e-15)
    dashed = bound_curve(fig3_params(1.0, 0.0), 3, "beta", np.linspace(0, 10, 21))
    assert np.all(np.isfinite(dashed)) and np.all(np.diff(dashed) <= 1e-15)
    zcurve = bound_curve(p, 3, "beta", np.linspace(1.7287, 10, 15), kind="linf_zeta")
    assert np.all(np.isfinite(zcurve)) and np.all(np.diff(zcurve) <= 1e-15)


def test_parse_weight_sequence():
    assert np.allclose(parse_weight_sequence("1/s", 4), [1, 0.5, 1 / 3, 0.25])
    assert np.allclose(parse_weight_sequence("1", 3), [1, 1, 1])
    assert np.allclose(parse_weight_sequence("(sqrt3/pi)^s", 2),
                       [math.sqrt(3) / math.pi, 3 / math.pi ** 2])
    assert np.allclose(parse_weight_sequence("0.5^s", 3), [0.5, 0.25, 0.125])
    assert np.allclose(parse_weight_sequence("1/s^2", 3), [1, 0.25, 1 / 9])


@pytest.mark.parametrize("expr", ["1/0", "(1/0)^s", "2/0.0", "(pi/0)^s"])
def test_parse_weight_sequence_rejects_zero_denominator(expr):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_weight_sequence(expr, 3)
