"""Coefficient-level ANOVA machinery.

Works on :class:`CoefficientMap` objects: complex Fourier coefficients laid
out in the canonical block order of a :class:`GroupedIndexSet`.  Because the
embedded blocks have disjoint supports, every term's contribution is exactly
one contiguous slice; variance and sensitivity indices follow by slicing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .index_sets import GroupedIndexSet, TermFamily


@dataclass(frozen=True, eq=False)
class CoefficientMap:
    """Complex coefficients aligned with the canonical layout of an index set."""

    index_set: GroupedIndexSet
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128).reshape(-1)
        if v.shape[0] != len(self.index_set):
            raise ValueError(
                f"coefficient vector length {v.shape[0]} != |I(U)| = {len(self.index_set)}")
        object.__setattr__(self, "values", v)

    def block(self, term) -> np.ndarray:
        term = tuple(term)
        sl = self.index_set.block_slices().get(term)
        if sl is None:
            raise KeyError(f"no block for term {term}")
        return self.values[sl]

    def mean(self) -> complex:
        return complex(self.block(())[0])


def term_family_ds(d, d_s) -> TermFamily:
    """All coordinate subsets of order at most d_s."""
    if not 1 <= d_s <= d:
        raise ValueError("need 1 <= d_s <= d")
    terms = [()]
    for n in range(1, d_s + 1):
        terms.extend(combinations(range(1, d + 1), n))
    return TermFamily(d, frozenset(terms))


def variance(coeffs: CoefficientMap) -> float:
    """sigma^2 = sum_{k != 0} |c_k|^2; requires the zero-frequency block."""
    slices = coeffs.index_set.block_slices()
    if () not in slices:
        raise ValueError("index set is missing the zero-frequency block")
    sl = slices[()]
    total = float(np.sum(np.abs(coeffs.values) ** 2))
    return total - float(np.sum(np.abs(coeffs.values[sl]) ** 2))


@dataclass(frozen=True, eq=False)
class SensitivityReport:
    """Per-term variances and global sensitivity indices of a coefficient map.

    ``gsi`` entries are None when the total variance is zero (the ranking is
    then undefined and must not be silently divided out).
    """

    total_variance: float
    mean: complex
    terms: tuple          # of Term, canonical order, empty term excluded
    variances: np.ndarray
    gsis: tuple           # floats, or None markers when undefined

    @property
    def defined(self) -> bool:
        return self.total_variance > 0.0

    def gsi(self, term) -> float | None:
        return self.gsis[self.terms.index(tuple(term))]

    def to_json_dict(self) -> dict:
        return {"total_variance": self.total_variance,
                "mean": [self.mean.real, self.mean.imag],
                "terms": [{"u": list(u), "variance": float(v),
                           "gsi": (None if g is None else float(g))}
                          for u, v, g in zip(self.terms, self.variances, self.gsis)]}

    def to_csv(self) -> str:
        lines = ["u;order;variance;gsi"]
        for u, v, g in zip(self.terms, self.variances, self.gsis):
            us = ",".join(str(c) for c in u)
            gs = "" if g is None else repr(float(g))
            lines.append(f"{us};{len(u)};{float(v)!r};{gs}")
        return "\n".join(lines) + "\n"


def sensitivity(coeffs: CoefficientMap) -> SensitivityReport:
    """Global sensitivity indices rho(u) = Var(f_u)/Var(f) from block slices."""
    slices = coeffs.index_set.block_slices()
    total = variance(coeffs)
    terms = []
    variances = []
    for b in coeffs.index_set.blocks:
        if b.term == ():
            continue
        terms.append(b.term)
        variances.append(float(np.sum(np.abs(coeffs.values[slices[b.term]]) ** 2)))
    variances = np.asarray(variances)
    if total > 0.0:
        gsis = tuple(float(v / total) for v in variances)
    else:
        gsis = tuple(None for _ in terms)
    return SensitivityReport(total, coeffs.mean() if () in slices else 0j,
                             tuple(terms), variances, gsis)
