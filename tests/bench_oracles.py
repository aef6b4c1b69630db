"""Oracles for the test-function and ANOVA tests.

Scalar forms of the closed-form coefficients of ``anovafourier.bench``,
the truncated-power formula of its spline values (the independent
reference for its piecewise-Horner evaluation), the exact sensitivity
indices of the test function with the published values they are checked
against, and block truncation of a coefficient map.
"""

import math

import numpy as np

from anovafourier import bench
from anovafourier.anova import (CoefficientMap, SensitivityReport,
                                term_family_ds)
from anovafourier.index_sets import GroupedIndexSet, term_sort_key


def _check_order(j):
    if j not in (2, 4, 6):
        raise ValueError("spline order must be 2, 4 or 6")


def _cardinal_bspline(j, t):
    """Cardinal B-spline M_j on its support [0, j], vectorized."""
    acc = np.zeros_like(t)
    sign = 1.0
    binom = 1.0
    for i in range(j + 1):
        acc += sign * binom * np.clip(t - i, 0.0, None) ** (j - 1)
        sign = -sign
        binom = binom * (j - i) / (i + 1)
    return acc / math.factorial(j - 1)


def bspline_value(j: int, x):
    """B_j on the torus from the truncated-power sum
    (1/(j-1)!) sum_l (-1)^l C(j, l) (t - l)_+^(j-1) at t = j (x - floor x)."""
    _check_order(j)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    t = x - np.floor(x)
    return bench.BSPLINE_NORM[j] * j * _cardinal_bspline(j, j * t)


def bspline_coeff(j: int, k) -> float:
    """Univariate coefficient c_j sinc^j(pi k / j) cos(pi k); sinc(0) = 1."""
    _check_order(j)
    k = int(k)
    if k == 0:
        return bench.BSPLINE_NORM[j]
    t = math.pi * k / j
    return bench.BSPLINE_NORM[j] * (math.sin(t) / t) ** j * (-1.0) ** (k & 1)


def testfun_coeff(k) -> float:
    """Exact Fourier coefficient of f at a single 9-dimensional frequency."""
    return float(bench.testfun_coeffs(np.asarray(k, dtype=np.int64)[None, :])[0])


def exact_gsi() -> dict:
    total = bench.exact_variance()
    return {u: v / total for u, v in bench.exact_term_variances().items()}


def exact_sensitivity_report(d_s: int = 3) -> SensitivityReport:
    """Exact sensitivities arranged like a pilot report over U_{d_s}."""
    fam = term_family_ds(bench.D, d_s)
    tv = bench.exact_term_variances()
    terms = [u for u in fam.sorted_terms() if u]
    variances = np.array([tv.get(u, 0.0) for u in terms])
    total = bench.exact_variance()
    gsis = tuple(float(v / total) for v in variances)
    return SensitivityReport(total, complex(bench.exact_mean()), tuple(terms),
                             variances, gsis)


#: exact sensitivity indices listed for the ten published coordinates
#: (matched by the acceptance suite within 1e-3)
PUBLISHED_GSI = {
    (5,): 0.13485590547067322,
    (1,): 0.048995887099158836,
    (9,): 0.08479925199524384,
    (8,): 0.05705736651807279,
    (4,): 0.020729792280798152,
    (1, 5): 0.04495099140872069,
    (8, 9): 0.07780131659625403,
    (4, 9): 0.028265903218229544,
    (4, 8): 0.019018986643685766,
    (4, 8, 9): 0.025923436849895076,
}


def truncate(coeffs: CoefficientMap, U) -> CoefficientMap:
    """Keep exactly the blocks whose term lies in U (a new, smaller map)."""
    fam = coeffs.index_set.family
    if not U.terms <= fam.terms:
        extra = sorted(U.terms - fam.terms, key=term_sort_key)
        raise ValueError(f"family contains terms without blocks: {extra[:3]}")
    slices = coeffs.index_set.block_slices()
    blocks = tuple(b for b in coeffs.index_set.blocks if b.term in U)
    sub = GroupedIndexSet(coeffs.index_set.d, blocks)
    vals = np.concatenate([coeffs.values[slices[b.term]] for b in sub.blocks]) \
        if sub.blocks else np.zeros(0, dtype=np.complex128)
    return CoefficientMap(sub, vals)
