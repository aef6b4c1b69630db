"""Frequency index sets grouped by coordinate subsets.

A *term* is a subset u of the coordinate axes {1, ..., d} (1-based, stored as
a strictly increasing tuple).  Each term carries a low-dimensional frequency
set I_u of |u|-dimensional integer vectors with no zero entry; embedding I_u
into Z^d on the axes of u produces blocks that are pairwise disjoint across
terms, because the support of an embedded frequency is exactly u.

Canonical ordering everywhere: terms sorted by (order, lexicographic coords),
frequencies inside a block sorted lexicographically.  This fixes the layout
of coefficient vectors across the whole package.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

Term = tuple[int, ...]

#: enumeration guard for weighted_index_set (entries per axis)
DEFAULT_AXIS_CAP = 2_000_000


def validate_term(term, d) -> Term:
    """Normalize and check a coordinate subset (1-based, strictly increasing)."""
    t = tuple(int(c) for c in term)
    if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
        raise ValueError(f"term {t} is not strictly increasing")
    if t and (t[0] < 1 or t[-1] > d):
        raise ValueError(f"term {t} has coordinates outside 1..{d}")
    return t


def term_sort_key(term: Term):
    return (len(term), term)


@dataclass(frozen=True)
class TermFamily:
    """Downward-closed collection of coordinate subsets of {1, .., d}."""

    d: int
    terms: frozenset

    def __post_init__(self):
        for u in self.terms:
            validate_term(u, self.d)
        if self.terms and () not in self.terms:
            raise ValueError("nonempty family must contain the empty term")
        missing = [(u, v) for u in self.terms
                   for v in _proper_subsets(u) if v not in self.terms]
        if missing:
            u, v = missing[0]
            raise ValueError(f"family not downward-closed: {u} present, {v} missing")

    @staticmethod
    def from_terms(d, terms) -> "TermFamily":
        return TermFamily(d, frozenset(validate_term(u, d) for u in terms))

    @staticmethod
    def downward_closure(d, terms) -> "TermFamily":
        closed = set()
        for u in terms:
            u = validate_term(u, d)
            for r in range(len(u) + 1):
                closed.update(combinations(u, r))
        return TermFamily(d, frozenset(closed))

    def sorted_terms(self) -> list[Term]:
        return sorted(self.terms, key=term_sort_key)

    def max_order(self) -> int:
        return max((len(u) for u in self.terms), default=0)

    def __contains__(self, u):
        return tuple(u) in self.terms

    def __len__(self):
        return len(self.terms)


def _proper_subsets(u: Term):
    for r in range(len(u)):
        yield from combinations(u, r)


def is_downward_closed(terms) -> bool:
    s = set(tuple(u) for u in terms)
    return all(v in s for u in s for v in _proper_subsets(u))


@dataclass(frozen=True, eq=False)
class LowDimIndexSet:
    """Frequency set I_u of |u|-dimensional integer vectors, no zero entries.

    The empty term carries exactly the zero-dimensional empty vector, which
    embeds to the zero frequency.
    """

    term: Term
    freqs: np.ndarray = field(compare=False)

    def __post_init__(self):
        f = np.asarray(self.freqs, dtype=np.int64)
        if len(self.term) == 0:
            if f.size != 0 or (f.ndim == 2 and f.shape[0] != 1):
                raise ValueError("empty term must carry exactly the empty vector")
            f = np.zeros((1, 0), dtype=np.int64)
        else:
            f = f.reshape(-1, len(self.term))
            if f.size and not np.all(f != 0):
                raise ValueError(f"zero entry in frequency set for term {self.term}")
            f = np.unique(f, axis=0) if f.size else f  # unique rows, lex order
        object.__setattr__(self, "freqs", f)

    def __len__(self):
        return self.freqs.shape[0]


def empty_term_set() -> LowDimIndexSet:
    return LowDimIndexSet((), np.zeros((1, 0), dtype=np.int64))


def embed(term, freq, d) -> np.ndarray:
    """Embed a |u|-dimensional frequency into Z^d on the axes of u.

    The result k has k_u = freq and zeros elsewhere, so supp(k) = u whenever
    freq has no zero entry.
    """
    term = validate_term(term, d)
    freq = np.asarray(freq, dtype=np.int64).reshape(-1)
    if freq.shape[0] != len(term):
        raise ValueError("frequency length does not match term order")
    k = np.zeros(d, dtype=np.int64)
    for c, v in zip(term, freq):
        k[c - 1] = v
    return k


def embed_block(term, freqs, d) -> np.ndarray:
    freqs = np.asarray(freqs, dtype=np.int64)
    if len(term) == 0:
        return np.zeros((1 if freqs.size == 0 else freqs.shape[0], d), dtype=np.int64)
    freqs = freqs.reshape(-1, len(term))
    out = np.zeros((freqs.shape[0], d), dtype=np.int64)
    for i, c in enumerate(term):
        out[:, c - 1] = freqs[:, i]
    return out


def full_grid(term, N) -> LowDimIndexSet:
    """All |u|-vectors over {-N/2, ..., N/2-1} with no zero entry; N even.

    Cardinality (N-1)^|u|.
    """
    if N % 2 or N < 2:
        raise ValueError(f"full grid bandwidth must be even and >= 2, got {N}")
    term = tuple(term)
    if not term:
        return empty_term_set()
    axis = np.array([k for k in range(-N // 2, N // 2) if k != 0], dtype=np.int64)
    grids = np.meshgrid(*([axis] * len(term)), indexing="ij")
    freqs = np.stack([g.ravel() for g in grids], axis=1)
    return LowDimIndexSet(term, freqs)


def hyperbolic_cross(term, N) -> LowDimIndexSet:
    """Mixed-smoothness cross: prod_s (1+|l_s|)^(3/2) <= N, entries nonzero."""
    if N < 1:
        raise ValueError("cutoff must be >= 1")
    term = tuple(term)
    if not term:
        return empty_term_set()
    bound = float(N) ** (2.0 / 3.0)  # on prod (1+|l_s|)
    rows = []

    def rec(depth, prod_so_far, prefix):
        a = 1
        while prod_so_far * (1 + a) <= bound * (1 + 1e-12):
            if depth + 1 == len(term):
                rows.append(prefix + (a,))
            else:
                rec(depth + 1, prod_so_far * (1 + a), prefix + (a,))
            a += 1

    rec(0, 1.0, ())
    if not rows:
        return LowDimIndexSet(term, np.zeros((0, len(term)), dtype=np.int64))
    mags = np.asarray(rows, dtype=np.int64)
    signs = np.array(list(product((1, -1), repeat=len(term))), dtype=np.int64)
    freqs = (mags[:, None, :] * signs[None, :, :]).reshape(-1, len(term))
    return LowDimIndexSet(term, freqs)


def weighted_index_set(term, w, N_u, d=None, axis_cap=DEFAULT_AXIS_CAP) -> LowDimIndexSet:
    """Term-dependent set {l : w(embed(u, l)) <= N_u} for a weight w on Z^d.

    Requires w >= 1, coordinate-wise monotone in |k_s| and unbounded along
    each axis (otherwise enumeration would not terminate); the per-axis
    search stops at ``axis_cap`` and raises if the weight has not yet
    exceeded the cutoff there.
    """
    term = tuple(term)
    if d is None:
        d = max(term, default=1)
    if not term:
        return empty_term_set()
    su = len(term)

    def w_at(vec):
        return float(w(embed(term, vec, d)))

    rows = []
    # For a fixed sign pattern the weight is monotone in each magnitude, so a
    # depth-first scan with the all-ones completion as lower probe is exact.
    for signs in product((1, -1), repeat=su):

        def rec(depth, prefix):
            a = 1
            while True:
                if a > axis_cap:
                    raise ValueError(
                        "axis search bound exceeded; weight grows too slowly")
                vec = prefix + (signs[depth] * a,)
                tail = tuple(signs[i] for i in range(depth + 1, su))
                if w_at(np.array(vec + tail, dtype=np.int64)) > N_u:
                    break
                if depth + 1 == su:
                    rows.append(vec)
                else:
                    rec(depth + 1, vec)
                a += 1

        rec(0, ())
    freqs = (np.asarray(rows, dtype=np.int64).reshape(-1, su)
             if rows else np.zeros((0, su), dtype=np.int64))
    return LowDimIndexSet(term, freqs)


@dataclass(frozen=True, eq=False)
class GroupedIndexSet:
    """Disjoint union over a term family of embedded frequency blocks I(U)."""

    d: int
    blocks: tuple  # of LowDimIndexSet, canonical order

    def __post_init__(self):
        terms = [b.term for b in self.blocks]
        if len(set(terms)) != len(terms):
            raise ValueError("duplicate term blocks")
        if not is_downward_closed(terms):
            raise ValueError("block family is not downward-closed")
        ordered = tuple(sorted(self.blocks, key=lambda b: term_sort_key(b.term)))
        object.__setattr__(self, "blocks", ordered)

    @property
    def family(self) -> TermFamily:
        return TermFamily(self.d, frozenset(b.term for b in self.blocks))

    def __len__(self):
        return sum(len(b) for b in self.blocks)

    def block_slices(self) -> dict:
        out = {}
        off = 0
        for b in self.blocks:
            out[b.term] = slice(off, off + len(b))
            off += len(b)
        return out

    def embedded(self) -> np.ndarray:
        """All frequencies as rows of an (|I(U)|, d) int array, block order."""
        if not self.blocks:
            return np.zeros((0, self.d), dtype=np.int64)
        return np.concatenate([embed_block(b.term, b.freqs, self.d) for b in self.blocks])

    def to_json_dict(self) -> dict:
        return {"d": self.d,
                "blocks": [{"u": list(b.term), "freqs": b.freqs.tolist()}
                           for b in self.blocks]}

    @staticmethod
    def from_json_dict(doc) -> "GroupedIndexSet":
        blocks = []
        for b in doc["blocks"]:
            term = tuple(b["u"])
            if term:
                freqs = np.asarray(b["freqs"], dtype=np.int64).reshape(-1, len(term))
            else:
                freqs = np.zeros((1, 0), dtype=np.int64)
            blocks.append(LowDimIndexSet(term, freqs))
        return GroupedIndexSet(int(doc["d"]), tuple(blocks))

    def digest(self) -> str:
        doc = json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()


def grouped(U: TermFamily, sets) -> GroupedIndexSet:
    """Assemble I(U) from per-term sets; every term of U must be present."""
    missing = [u for u in U.sorted_terms() if u not in sets]
    if missing:
        raise ValueError(f"missing index set for term {missing[0]}")
    blocks = []
    for u in U.sorted_terms():
        s = sets[u]
        if s.term != u:
            raise ValueError(f"set labeled {s.term} supplied for term {u}")
        blocks.append(s)
    return GroupedIndexSet(U.d, tuple(blocks))


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
