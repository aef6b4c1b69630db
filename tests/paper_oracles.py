"""Oracles for the paper's lemmas, which the tests check and no run executes.

The support of a frequency, the difference set D(I) and the bounds on
|U_{d_s}| and |D(I(U))|, the windowed dual-lattice aliasing sum, the
geometric closed form of the zeta-tail truncation bound, the superposition
threshold, the minimal excluded weight, and the family U+ of the test
function (U* without its third-order term).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from anovafourier.bench import D, _UPLUS_MAXIMAL
from anovafourier.index_sets import TermFamily
from anovafourier.lattice import Rank1Lattice
from anovafourier.weights import (WeightParams, pod_weight,
                                  sobolev_trunc_bound_l2, zeta)


def difference_set(freqs) -> np.ndarray:
    """D(I) = {k - h : k, h in I} as unique rows (contains 0, negation-closed)."""
    f = np.asarray(freqs, dtype=np.int64)
    if f.ndim == 1:
        f = f[:, None]
    if f.shape[0] == 0:
        return f
    diffs = (f[:, None, :] - f[None, :, :]).reshape(-1, f.shape[1])
    return np.unique(diffs, axis=0)


def family_cardinality(d, d_s):
    """|U_{d_s}| = sum_{n<=d_s} C(d,n) and the growth bound (e*d/d_s)^d_s."""
    if not 1 <= d_s <= d:
        raise ValueError("need 1 <= d_s <= d")
    exact = sum(math.comb(d, n) for n in range(d_s + 1))
    bound = (math.e * d / d_s) ** d_s
    return exact, bound


def diff_cardinality_bound(U: TermFamily, sets):
    """Upper bounds on |D(I(U))|: the per-pair sum and the coarse product form.

    Fine bound: sum over u in U, v subset of u (inclusive) of |I_u| |I_v|.
    Coarse bound: 2^(max|u|) |U| max|I_u|^2.
    """
    sizes = {u: len(sets[u]) for u in U.sorted_terms()}
    fine = 0
    for u in U.sorted_terms():
        for r in range(len(u) + 1):
            for v in combinations(u, r):
                fine += sizes[u] * sizes[v]
    mx = max(sizes.values(), default=0)
    coarse = (2 ** U.max_order()) * len(U) * mx * mx
    return fine, coarse


def support(k) -> tuple:
    """Coordinates (1-based, ascending) of the nonzero entries of k."""
    k = np.asarray(k)
    return tuple(int(i + 1) for i in np.flatnonzero(k))


@dataclass(frozen=True, eq=False)
class DualLatticeWindow:
    """Members of the integer dual lattice inside the cube [-K, K]^d."""

    lattice: Rank1Lattice
    K: int

    def members(self) -> np.ndarray:
        d = self.lattice.d
        axis = np.arange(-self.K, self.K + 1, dtype=np.int64)
        grids = np.meshgrid(*([axis] * d), indexing="ij")
        cube = np.stack([g.ravel() for g in grids], axis=1)
        res = self.lattice.residues(cube)
        return cube[res == 0]


def aliasing_sum(exact_coeff, k, window: DualLatticeWindow,
                 boundary_tol: float = 1e-14) -> complex:
    """Windowed dual-lattice sum sum_{h in dual, h != 0} c(k + h).

    ``exact_coeff`` maps a d-dimensional integer vector to the true Fourier
    coefficient.  Raises when dual members on the window boundary still carry
    coefficient mass above ``boundary_tol`` (window too small).
    """
    k = np.asarray(k, dtype=np.int64)
    total = 0j
    for h in window.members():
        if not np.any(h):
            continue
        c = complex(exact_coeff(k + h))
        if np.max(np.abs(h)) == window.K and abs(c) > boundary_tol:
            raise ValueError("aliasing window too small: boundary member "
                             f"{h.tolist()} carries coefficient {c!r}")
        total += c
    return total


def sobolev_trunc_bound_linf_closed(p: WeightParams, d_s: int, c: float) -> float:
    """Geometric closed form of the zeta-tail bound when Gamma_s = c^s.

    Valid under ||gamma||_2 < 1 / (c sqrt(2 zeta(2 beta) - 2)); agrees with
    the finite sum to roundoff.
    """
    if p.alpha != 0:
        raise ValueError("this bound requires alpha = 0")
    if p.beta <= 0.5:
        return math.inf
    if not np.allclose(p.Gamma, c ** np.arange(1, p.d + 1), rtol=1e-12, atol=0):
        raise ValueError("Gamma is not geometric with the given base")
    z1 = zeta(2.0 * p.beta) - 1.0
    g2 = float(np.sum(p.gamma ** 2))
    if math.sqrt(g2) >= 1.0 / (c * math.sqrt(2.0 * z1)):
        raise ValueError("geometric closed form requires ||gamma||_2 < 1/(c sqrt(2 zeta(2b)-2))")
    q = 2.0 * c * c * z1 * g2
    if d_s >= p.d:
        return 0.0
    return math.sqrt(q ** (d_s + 1) / (1.0 - q) * (1.0 - q ** (p.d - d_s)))


def superposition_threshold(p: WeightParams, delta: float) -> int:
    """Smallest d_s whose squared L2 truncation bound is <= 1 - delta.

    Returns d when no threshold qualifies.  The bound is nonincreasing in
    d_s, so a linear scan returns the true minimum.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    for d_s in range(1, p.d):
        if sobolev_trunc_bound_l2(p, d_s) ** 2 <= 1.0 - delta:
            return d_s
    return p.d


def min_excluded_weight(w, U: TermFamily, d: int | None = None) -> float:
    """Exact min of w over the frequencies whose support falls outside U.

    ``w`` is a WeightParams or a callable on Z^d, coordinate-wise monotone in
    each |k_s|; the minimum is then attained at entries of modulus one on a
    minimal excluded support, so only sign patterns need scanning.
    """
    if isinstance(w, WeightParams):
        p = w
        d = p.d
        w_fn = lambda k: pod_weight(k, p)
    else:
        if d is None:
            raise ValueError("d is required for a callable weight")
        w_fn = w
    mo = U.max_order()
    if mo >= d and len(U) == 2 ** d:
        raise ValueError("U is the full family; no excluded terms")
    best = math.inf
    for order in range(1, min(mo + 1, d) + 1):
        for v in combinations(range(1, d + 1), order):
            if v in U:
                continue
            if any(tuple(c for c in v if c != drop) not in U for drop in v):
                continue  # not minimal: some proper subset already excluded
            for signs in product((1, -1), repeat=order):
                k = np.zeros(d, dtype=np.int64)
                for c, s in zip(v, signs):
                    k[c - 1] = s
                best = min(best, float(w_fn(k)))
    if not math.isfinite(best):
        raise ValueError("no excluded support found below order max|u|+1")
    return best


def u_plus() -> TermFamily:
    """U* without its single third-order term (the d_s = 2 optimum)."""
    return TermFamily.downward_closure(D, _UPLUS_MAXIMAL)

