"""Frequency index sets grouped by coordinate subsets.

A *term* is a subset u of the coordinate axes {1, ..., d} (1-based, stored as
a strictly increasing tuple).  Each term carries a low-dimensional frequency
set I_u of |u|-dimensional integer vectors with no zero entry; embedding I_u
into Z^d on the axes of u produces blocks that are pairwise disjoint across
terms, because the support of an embedded frequency is exactly u.

Crosses and weighted sets keep the frequencies whose weight, a function of
the |l_s| that grows with each of them, is at most a cutoff; one scan,
:func:`_signed_set`, enumerates both.

Canonical ordering everywhere: terms sorted by (order, lexicographic coords),
frequencies inside a block sorted lexicographically.  This fixes the layout
of coefficient vectors across the whole package.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

Term = tuple[int, ...]

#: entries per axis at which a set stops growing and raises
_AXIS_CAP = 2_000_000


def validate_term(term, d) -> Term:
    """Normalize and check a coordinate subset (1-based, strictly increasing
    integers; a bool or a float is not one)."""
    if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in term):
        raise ValueError(f"term {tuple(term)} has a coordinate that is not an integer")
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


def _strictly_increasing(f: np.ndarray) -> bool:
    """Whether the rows of ``f`` strictly increase in lexicographic order:
    at the first column where two neighbours differ, the later is larger."""
    first = (f[1:] != f[:-1]).argmax(axis=1)[:, None]
    return bool(np.all(np.take_along_axis(f[1:] > f[:-1], first, axis=1)))


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
            if not _strictly_increasing(f):
                f = np.unique(f, axis=0)  # unique rows, lex order
        object.__setattr__(self, "freqs", f)

    def __len__(self):
        return self.freqs.shape[0]


def empty_term_set() -> LowDimIndexSet:
    return LowDimIndexSet((), np.zeros((1, 0), dtype=np.int64))


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
    """All |u|-vectors over {-N/2, ..., N/2-1} with no zero entry; N an
    even integer (4.0 is one, 4.5 is not).

    Cardinality (N-1)^|u|.
    """
    if not float(N).is_integer() or N % 2 or N < 2:
        raise ValueError(f"full grid bandwidth must be an even integer >= 2, got {N}")
    N, term = int(N), tuple(term)
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
    bound = float(N) ** (2.0 / 3.0) * (1 + 1e-12)  # on prod (1+|l_s|)
    return _signed_set(tuple(term), lambda m: np.prod(1.0 + m, axis=1) <= bound)


def weighted_index_set(term, w, N_u, d) -> LowDimIndexSet:
    """Term-dependent set {l : w(k) <= N_u}, k = |l| on the axes of u in Z^d.

    ``w`` maps an (n, d) array of rows k to n weights.  It must depend on
    |k_s| only, be monotone in each |k_s| and grow without bound along each
    axis, as the POD weights do; a weight that keeps 2*10^6 entries or more
    on one axis raises ``ValueError``.
    """
    term = validate_term(term, d)
    return _signed_set(term, lambda m: w(embed_block(term, m, d)) <= N_u)


def _signed_set(term, inside) -> LowDimIndexSet:
    """The frequencies with no zero entry whose magnitude rows are inside.

    ``inside`` maps an (n, |u|) array of magnitude rows to n booleans and is
    monotone: a row outside stays outside when an entry grows.  The rows grow
    one axis at a time.  A prefix takes as next entry each a >= 1 for which
    (prefix, a, 1, ..., 1) is inside; for a monotone test that holds exactly
    when some row starting with (prefix, a) is inside.  The largest such a is
    found for all prefixes at once, by doubling and then bisection.  The
    signs are expanded last.
    """
    su = len(term)
    rows = np.zeros((1, 0), dtype=np.int64)
    for j in range(su):
        n = len(rows)
        lo = np.zeros(n, dtype=np.int64)  # largest a known inside, 0 if none
        hi = np.full(n, _AXIS_CAP + 1, dtype=np.int64)  # smallest a known outside
        probe = np.ones((n, su), dtype=np.int64)
        probe[:, :j] = rows
        todo = np.arange(n)
        while len(todo):
            a = np.minimum(np.maximum(2 * lo[todo], 1), (lo[todo] + hi[todo]) // 2)
            probe[todo, j] = a
            ok = inside(probe[todo])
            lo[todo[ok]] = a[ok]
            hi[todo[~ok]] = a[~ok]
            todo = todo[hi[todo] - lo[todo] > 1]
        if np.any(lo >= _AXIS_CAP):
            raise ValueError(f"an axis holds {_AXIS_CAP} entries or more; "
                             "the weight grows too slowly")
        start = np.repeat(np.cumsum(lo) - lo, lo)
        rows = np.column_stack([np.repeat(rows, lo, axis=0),
                                np.arange(len(start)) - start + 1])
    signs = np.array(list(product((1, -1), repeat=su)), dtype=np.int64)
    freqs = rows[:, None, :] * signs[None]
    return LowDimIndexSet(term, freqs.reshape(len(rows) * len(signs), su))


@dataclass(frozen=True, eq=False)
class GroupedIndexSet:
    """Disjoint union over a term family of embedded frequency blocks I(U)."""

    d: int
    blocks: tuple  # of LowDimIndexSet, canonical order

    def __post_init__(self):
        terms = [b.term for b in self.blocks]
        if len(set(terms)) != len(terms):
            raise ValueError("duplicate term blocks")
        TermFamily(self.d, frozenset(terms))  # checks the terms and closure
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
        d = doc["d"]
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise ValueError(f"d must be an integer >= 1, got {d!r}")
        blocks = tuple(LowDimIndexSet(tuple(b["u"]), b["freqs"]) for b in doc["blocks"])
        return GroupedIndexSet(d, blocks)

    def digest(self) -> str:
        """SHA-256 of d and, per block, its term, the shape of its
        frequency array and that array's little-endian int64 bytes."""
        h = hashlib.sha256(f"{self.d};".encode())
        for b in self.blocks:
            h.update(f"{b.term}{b.freqs.shape};".encode())
            h.update(b.freqs.astype("<i8", copy=False).tobytes())
        return h.hexdigest()


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
