"""Nine-dimensional B-spline test function with exact Fourier oracles.

The target is a sum of four products of univariate 1-periodic splines

    f(x) = B2(x1) B4(x5) + B2(x2) B4(x6) + B2(x3) B4(x7) + B2(x4) B4(x8) B6(x9),

where B_j is the j-dilated cardinal B-spline wrapped once around the torus
and normalized to unit L2 norm.  Its Fourier coefficients factor into the
univariate ones, c_k(B_j) = c_j sinc^j(pi k / j) cos(pi k), so coefficients,
norms, term variances and sensitivity indices all have closed forms.  The
four products have disjoint coordinate supports, which makes the nonzero
term family exactly

    U* = P({1,5}) u P({2,6}) u P({3,7}) u P({4,8,9}).

B_j is evaluated piecewise: on the torus t = j (x - floor x) falls in
piece i = min(floor t, j - 1) of the cardinal B-spline, where B_j is a
polynomial of degree j - 1 in u = t - i.  Its coefficients are tabulated
once per order from exact integer sums, and one Horner pass evaluates them
(de Boor, A Practical Guide to Splines, 1978); B2 is the hat
2 C2 (1 - |t - 1|).  The tests check these values against the
truncated-power sum and the truncated Fourier series (whose tail is
analytically bounded).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .index_sets import TermFamily
from .method import (ApproxModel, ConfigError, approximate, build_search_sets,
                     detect, gap_intervals, read_run_config)
from .operator import _norm

D = 9

#: the four product factors as (coordinate, spline order) tuples
PRODUCTS = (((1, 2), (5, 4)),
            ((2, 2), (6, 4)),
            ((3, 2), (7, 4)),
            ((4, 2), (8, 4), (9, 6)))

# B-spline normalization constants; chosen so the L2 norm over [0,1) is 1.
BSPLINE_NORM = {2: math.sqrt(3.0 / 4.0),
                4: math.sqrt(315.0 / 604.0),
                6: math.sqrt(277200.0 / 655177.0)}
C2 = BSPLINE_NORM[2]
C4 = BSPLINE_NORM[4]
C6 = BSPLINE_NORM[6]


#: maximal terms of U* and U+; the refit rows' ``active_set``
_USTAR_MAXIMAL = ((1, 5), (2, 6), (3, 7), (4, 8, 9))
_UPLUS_MAXIMAL = ((1, 5), (2, 6), (3, 7), (4, 8), (4, 9), (8, 9))


def u_star() -> TermFamily:
    """Exact nonzero term family of the test function."""
    return TermFamily.downward_closure(D, _USTAR_MAXIMAL)


def _piece_table(j: int) -> np.ndarray:
    """(j, j) table of B_j's pieces: entry [p, i] multiplies u^p on piece i.

    On piece i, t = i + u with u in [0, 1], the cardinal B-spline is the
    truncated-power sum (1/(j-1)!) sum_{l <= i} (-1)^l C(j, l) (u + i - l)^(j-1);
    its binomial expansion in u is summed in integers and divided by
    (j-1)! with one rounding (int / int is correctly rounded), then scaled
    by BSPLINE_NORM[j] * j.
    """
    table = np.empty((j, j))
    for i in range(j):
        for p in range(j):
            s = sum((-1) ** l * math.comb(j, l) * math.comb(j - 1, p)
                    * (i - l) ** (j - 1 - p) for l in range(i + 1))
            table[p, i] = s / math.factorial(j - 1)
    return table * (BSPLINE_NORM[j] * j)


_PIECES = {j: _piece_table(j) for j in (4, 6)}


def bspline_values(j: int, x) -> np.ndarray:
    """B_j at every entry of x, for the orders j in BSPLINE_NORM (2, 4, 6).

    Piecewise Horner: t = j (x - floor x), piece i = min(floor t, j - 1)
    (x - floor x rounds to 1.0 for tiny negative x), one gather of the
    piece's coefficient per power and one Horner pass in u = t - i.  B2 is
    the closed-form hat.  NaN or infinite x gives NaN.
    """
    if j not in BSPLINE_NORM:
        raise ValueError(f"spline order must be one of "
                         f"{', '.join(map(str, BSPLINE_NORM))}, got {j!r}")
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    t = np.floor(x)
    np.subtract(x, t, out=t)
    if j == 2:
        t *= 2.0
        t -= 1.0
        np.abs(t, out=t)
        np.subtract(1.0, t, out=t)
        t *= 2.0 * C2
        return t
    t *= j
    with np.errstate(invalid="ignore"):  # NaN t: any piece, NaN result
        i = t.astype(np.intp)
    np.minimum(i, j - 1, out=i)
    t -= i
    table = _PIECES[j]
    acc = table[j - 1].take(i, mode="clip")
    coef = np.empty_like(t)
    for p in range(j - 2, -1, -1):
        acc *= t
        acc += table[p].take(i, out=coef, mode="clip")
    return acc


def bspline_coeff_arr(j: int, k) -> np.ndarray:
    """Univariate coefficients c_j sinc^j(pi k / j) cos(pi k); sinc(0) = 1."""
    k = np.asarray(k, dtype=np.int64)
    t = np.pi * k / j
    with np.errstate(invalid="ignore", divide="ignore"):
        sinc = np.where(k == 0, 1.0, np.sin(t) / np.where(t == 0, 1.0, t))
    return BSPLINE_NORM[j] * sinc ** j * np.where(k & 1, -1.0, 1.0)


def testfun_value(x) -> np.ndarray:
    """Evaluate f at one point or at rows of an (m, 9) array; any other
    shape raises ValueError."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != D:
        raise ValueError(f"testfun_value needs one point of {D} coordinates "
                         f"or an (m, {D}) array, got shape {x.shape}")
    X = np.atleast_2d(x)
    f = bspline_values(2, X[:, 0:4])
    f *= bspline_values(4, X[:, 4:8])
    f[:, 3] *= bspline_values(6, X[:, 8])
    f = f.sum(axis=1)
    return f[0] if x.ndim == 1 else f


def testfun_coeffs(freqs) -> np.ndarray:
    """Exact coefficients for all rows of an (n, 9) frequency array.

    A product contributes iff the frequency is supported inside its
    coordinate set; the contribution is the product of univariate
    coefficients (mean factors where the entry is zero).
    """
    freqs = np.asarray(freqs, dtype=np.int64)
    if freqs.ndim == 1:
        freqs = freqs[None, :]
    out = np.zeros(freqs.shape[0])
    for prod in PRODUCTS:
        coords = [c for c, _ in prod]
        others = [c for c in range(1, D + 1) if c not in coords]
        mask = np.all(freqs[:, [c - 1 for c in others]] == 0, axis=1)
        vals = np.ones(freqs.shape[0])
        for c, j in prod:
            vals *= bspline_coeff_arr(j, freqs[:, c - 1])
        out += np.where(mask, vals, 0.0)
    return out


def exact_mean() -> float:
    return 3.0 * C2 * C4 + C2 * C4 * C6


def exact_term_variances() -> dict:
    """Closed-form variances of every nonzero ANOVA term of f.

    For a product of univariate unit-norm factors with disjoint coordinates,
    the term over a subset of its coordinates has variance equal to the
    product of (1 - mean^2) over included factors and mean^2 over the rest.
    """
    means = {2: C2, 4: C4, 6: C6}
    out = {}
    for prod in PRODUCTS:
        coords = tuple(c for c, _ in prod)
        for mask in range(1, 1 << len(prod)):
            sub = tuple(coords[i] for i in range(len(prod)) if mask >> i & 1)
            v = 1.0
            for i, (c, j) in enumerate(prod):
                m2 = means[j] ** 2
                v *= (1.0 - m2) if (mask >> i & 1) else m2
            out[sub] = out.get(sub, 0.0) + v
    return out


def exact_variance() -> float:
    return sum(exact_term_variances().values())


def exact_norm_sq() -> float:
    return exact_variance() + exact_mean() ** 2


def training_error(model: ApproxModel) -> float:
    """eps_l2 = ||y - F h|| / ||y|| on the model's own samples, where both
    solvers record ||y - F h|| of their fitted values as ``residual_check``."""
    _, y = model.fit_data()
    return model.provenance["solver_report"]["residual_check"] / _norm(y)


def l2_error(model: ApproxModel) -> float:
    """eps_L2 by Parseval with the exact coefficients on the model's index
    set:  ||f - S f||^2 = ||f||^2 + sum_I |c - h|^2 - sum_I |c|^2."""
    exact = testfun_coeffs(model.index_set.embedded())
    diff = float(np.sum(np.abs(exact - model.coefficients.values) ** 2))
    kept = float(np.sum(exact ** 2))
    nsq = exact_norm_sq()
    return math.sqrt(max(nsq + diff - kept, 0.0) / nsq)


@dataclass(frozen=True, eq=False)
class ExperimentRow:
    id: str
    scenario: str
    d_s: int
    N: tuple
    set_size: int
    samples: int
    eps_l2: float
    eps_L2: float
    gaps: tuple | None
    seconds: float
    extra: dict = field(default_factory=dict)
    stop_reason: str = ""  # the solver's; not part of the row's CSV line

    def csv_line(self) -> str:
        def gap_str(g):
            if g is None:
                return "empty"
            return f"({g[0]:.3g},{g[1]:.3g})"
        gaps = "|".join(gap_str(g) for g in self.gaps) if self.gaps else ""
        N = ",".join(str(n) for n in self.N)
        return (f"{self.id};{self.scenario};{self.d_s};[{N}];{self.set_size};"
                f"{self.samples};{self.eps_l2:.6e};{self.eps_L2:.6e};{gaps};"
                f"{self.seconds:.2f}")

    @staticmethod
    def csv_header() -> str:
        return "id;scenario;d_s;N;set_size;samples;eps_l2;eps_L2;gaps;seconds"


#: the only target a bench row runs
_BUILTIN_TARGET = {"builtin": "bench"}


def run_experiment(cfg: dict) -> ExperimentRow:
    """Run one row on the built-in test function and score it.

    ``cfg`` is a run config (:func:`method.read_run_config`) whose target
    is the built-in one: without ``active_set`` the row is a detection,
    scored with its pilot's errors and its threshold gaps against U*; with
    it, a refit on that family.  A bad key raises :class:`ConfigError`.
    """
    t0 = time.time()
    dc, family = read_run_config(cfg)
    if cfg.get("target", _BUILTIN_TARGET) != _BUILTIN_TARGET or dc.d != D:
        raise ConfigError(f"bench runs only target {_BUILTIN_TARGET}, with d = {D}")
    if family is None:
        result = detect(dc, testfun_value)
        model = result.pilot
        gaps = gap_intervals(result.report, u_star(), dc.d_s)
    else:
        sets = build_search_sets(D, dc.d_s, dc.search, family=family)
        model = approximate(family, sets, testfun_value, dc.sampling, dc.solver)
        gaps = None
    extra = {}
    if "lattice" in model.provenance:
        extra["M"] = model.provenance["lattice"]["M"]
    return ExperimentRow(str(cfg.get("id", "run")),
                         model.provenance["sampling"]["kind"], dc.d_s,
                         tuple(dc.search["N"]), len(model.index_set),
                         model.provenance["sample_count"], training_error(model),
                         l2_error(model), gaps, time.time() - t0, extra,
                         model.provenance["solver_report"]["stop_reason"])


_SCATTERED = {"kind": "scattered", "count": 2_500_000, "seed": 1}
_LATTICE = {"kind": "lattice", "seed": 1}


def _row(d_s: int, search_type: str, N: tuple, sampling: dict,
         active_set=None) -> dict:
    """A registry row: a detection, or with ``active_set`` (maximal terms)
    a refit on its downward closure."""
    cfg = {"d": D, "d_s": d_s, "search": {"type": search_type, "N": N},
           "sampling": dict(sampling)}
    if active_set is not None:
        cfg["active_set"] = [list(u) for u in active_set]
    return cfg


#: published experiment configurations, keyed by (table, row), as run
#: configs.  Tables 1-3 are the scattered runs (detection d_s = 3,
#: refinement on U*, detection d_s = 2); table 4 is black-box detection on
#: mixed-smoothness crosses, table 5 (= 6) black-box refinement on U*.
TABLE_CONFIGS = {}


def _register_tables():
    for i, N in enumerate([(256, 32, 8), (256, 32, 16), (256, 32, 32),
                           (256, 64, 8), (256, 64, 16), (256, 64, 32),
                           (512, 64, 8), (512, 64, 16), (512, 64, 32)], 1):
        TABLE_CONFIGS[(1, i)] = _row(3, "full_grid", N, _SCATTERED)
    for i, N in enumerate([(1024, 64, 64), (1024, 128, 32),
                           (1024, 128, 64), (1024, 256, 64)], 1):
        TABLE_CONFIGS[(2, i)] = _row(3, "full_grid", N, _SCATTERED, _USTAR_MAXIMAL)
    for i, N in enumerate([(256, 16), (256, 32), (256, 64), (256, 128)], 1):
        TABLE_CONFIGS[(3, i)] = _row(2, "full_grid", N, _SCATTERED)
    for i, N in enumerate([(100, 100, 100), (1000, 1000, 1000),
                           (10**4, 10**4, 10**3), (10**5, 10**4, 10**3)], 1):
        TABLE_CONFIGS[(4, i)] = _row(3, "hyperbolic_cross", N, _LATTICE)
    for i, N in enumerate([(10**4,) * 3, (10**5,) * 3,
                           (10**6, 10**5, 10**5), (10**6, 10**6, 10**5)], 1):
        cfg = _row(3, "hyperbolic_cross", N, _LATTICE, _USTAR_MAXIMAL)
        TABLE_CONFIGS[(5, i)] = cfg
        TABLE_CONFIGS[(6, i)] = cfg


_register_tables()

_DESK = {**_SCATTERED, "count": 100_000}

#: reduced-size counterparts used by default on a desk machine
DESK_CONFIGS = {
    "scattered-ds3": _row(3, "full_grid", (32, 8, 4), _DESK),
    "scattered-ds2": _row(2, "full_grid", (32, 8), _DESK),
    "scattered-ustar": _row(3, "full_grid", (32, 8, 4), _DESK, _USTAR_MAXIMAL),
    "scattered-uplus": _row(2, "full_grid", (32, 8), _DESK, _UPLUS_MAXIMAL),
    "lattice-ds3": _row(3, "hyperbolic_cross", (30, 30, 30), _LATTICE),
}
