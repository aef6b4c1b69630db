"""Product-and-order-dependent weights and closed-form truncation bounds.

The weight

    w(k) = gamma_{supp k}^{-1} (1 + ||k||_1)^alpha  prod_{s in supp k} (1+|k_s|)^beta

with gamma_u = Gamma_{|u|} prod_{s in u} gamma_s combines isotropic (alpha)
and dominating-mixed (beta) smoothness with per-dimension weights gamma and
per-order weights Gamma.  Conventions: Gamma_0 = 1 and the empty product is
1, so w(0) = 1.

The bound evaluators return +inf as a marker (instead of raising) when a
summability precondition fails, which keeps parameter sweeps plottable; they
raise ``ValueError`` for parameters the bound does not allow, which
:func:`bound_curve` marks +inf too unless no point of its grid is allowed.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class WeightParams:
    alpha: float
    beta: float
    gamma: np.ndarray   # per-dimension weights, entries in (0, 1]
    Gamma: np.ndarray   # per-order weights Gamma_1..Gamma_d, nonincreasing

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        G = np.asarray(self.Gamma, dtype=float)
        if g.ndim != 1 or G.ndim != 1 or g.shape != G.shape:
            raise ValueError("gamma and Gamma must be 1-d arrays of equal length")
        for name, v in (("alpha", self.alpha), ("beta", self.beta),
                        ("gamma", g), ("Gamma", G)):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be finite")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.alpha < -self.beta:
            raise ValueError("need alpha >= -beta")
        if np.any(g <= 0) or np.any(g > 1) or np.any(G <= 0) or np.any(G > 1):
            raise ValueError("gamma and Gamma entries must lie in (0, 1]")
        if np.any(np.diff(G) > 1e-15):
            raise ValueError("Gamma must be nonincreasing")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "Gamma", G)

    @property
    def d(self) -> int:
        return self.gamma.shape[0]

    def gamma_of_order(self, n: int) -> float:
        return 1.0 if n == 0 else float(self.Gamma[n - 1])


def pod_weight(k, p: WeightParams):
    """The POD weight at frequencies k: rows (..., d) in Z^d, weights (...)."""
    a = np.abs(np.asarray(k, dtype=np.int64))
    supp = a != 0
    gamma_u = (np.concatenate(([1.0], p.Gamma))[supp.sum(axis=-1)]
               * np.prod(np.where(supp, p.gamma, 1.0), axis=-1))
    iso = (1.0 + a.sum(axis=-1)) ** p.alpha
    return iso * np.prod((1.0 + a) ** p.beta, axis=-1) / gamma_u


_BERNOULLI = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0)


def zeta(s: float) -> float:
    """Riemann zeta for s > 1 by direct series with Euler-Maclaurin tail.

    Accurate to ~1e-14 for s >= 1.05 with the series cut at K = 64.
    """
    if s <= 1.0:
        return math.inf
    K = 64
    head = sum(n ** -s for n in range(1, K))
    tail = K ** (1.0 - s) / (s - 1.0) + 0.5 * K ** -s
    corr = 0.0
    rising = s
    kpow = K ** (-s - 1.0)
    fact = 2.0
    for j, b in enumerate(_BERNOULLI, start=1):
        corr += b / fact * rising * kpow
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        kpow /= K * K
        fact *= (2 * j + 1) * (2 * j + 2)
    return head + tail + corr


def wiener_trunc_bound(p: WeightParams, d_s: int) -> float:
    """Sup-norm truncation bound for superposition threshold d_s.

    Gamma_{d_s+1} (2+d_s)^(-alpha) 2^(-beta (d_s+1)) prod of the d_s+1
    largest gamma entries.  Invariant under permutations of gamma.
    """
    if not 1 <= d_s < p.d:
        raise ValueError("need 1 <= d_s < d (no excluded terms otherwise)")
    g_sorted = np.sort(p.gamma)[::-1]
    return (p.gamma_of_order(d_s + 1)
            * (2.0 + d_s) ** (-p.alpha)
            * 2.0 ** (-p.beta * (d_s + 1))
            * float(np.prod(g_sorted[:d_s + 1])))


def sobolev_trunc_bound_l2(p: WeightParams, d_s: int) -> float:
    """L2 truncation bound; shares the closed form of the sup-norm bound."""
    return wiener_trunc_bound(p, d_s)


def sobolev_trunc_bound_linf(p: WeightParams, d_s: int) -> float:
    """Sup-norm bound via the zeta-function tail sum (alpha = 0, beta > 1/2).

    sqrt( sum_{n=d_s+1}^{d} 2^n Gamma_n^2 (zeta(2 beta) - 1)^n ||gamma||_2^(2n) );
    returns +inf when beta <= 1/2 (the coefficient tail is not summable).
    """
    if p.alpha != 0:
        raise ValueError("this bound requires alpha = 0")
    if not 1 <= d_s <= p.d:
        raise ValueError("need 1 <= d_s <= d")
    if p.beta <= 0.5:
        return math.inf
    z1 = zeta(2.0 * p.beta) - 1.0
    g2 = float(np.sum(p.gamma ** 2))
    total = 0.0
    for n in range(d_s + 1, p.d + 1):
        total += 2.0 ** n * p.gamma_of_order(n) ** 2 * z1 ** n * g2 ** n
    return math.sqrt(total)


#: truncation bound by the name ``bound --kind`` gives it
BOUNDS = {"l2_linf_pod": sobolev_trunc_bound_l2,
          "linf_zeta": sobolev_trunc_bound_linf}


def bound_curve(p: WeightParams, d_s: int, parameter: str, grid,
                kind: str = "l2_linf_pod") -> np.ndarray:
    """The bound ``BOUNDS[kind]`` at each point of an alpha or beta grid.

    A grid point whose parameters the bound does not allow reads +inf; a
    grid with no allowed point raises the first point's ``ValueError``.
    """
    grid = np.asarray(grid, dtype=float)
    vals = np.empty_like(grid)
    errors = []
    for i, t in enumerate(grid):
        alpha = t if parameter == "alpha" else p.alpha
        beta = t if parameter == "beta" else p.beta
        try:
            vals[i] = BOUNDS[kind](WeightParams(alpha, beta, p.gamma, p.Gamma), d_s)
        except ValueError as exc:
            errors.append(exc)
            vals[i] = math.inf
    if errors and len(errors) == len(grid):
        raise errors[0]
    return vals


_SQRT_TOKENS = {"pi": math.pi, "sqrt2": math.sqrt(2.0), "sqrt3": math.sqrt(3.0)}


def parse_weight_sequence(expr: str, d: int) -> np.ndarray:
    """Parse a per-dimension/per-order weight expression into a length-d array.

    Supported forms: a number; ``1/s``; ``1/s^p``; ``c^s`` where c is a
    number or a token expression like ``(sqrt3/pi)``.
    """
    e = expr.strip().replace(" ", "")

    def token_value(text):
        text = text.strip("()")
        if "/" in text:
            num, den = text.split("/")
            den = token_value(den)
            if den == 0:
                raise ValueError(f"zero denominator in {text!r}")
            return token_value(num) / den
        if text in _SQRT_TOKENS:
            return _SQRT_TOKENS[text]
        return float(text)

    s = np.arange(1, d + 1, dtype=float)
    if e == "1/s":
        return 1.0 / s
    m = re.fullmatch(r"1/s\^([0-9.]+)", e)
    if m:
        return 1.0 / s ** float(m.group(1))
    m = re.fullmatch(r"(.+)\^s", e)
    if m:
        return token_value(m.group(1)) ** s
    return np.full(d, token_value(e))
