"""Numerical kernels, vectorized with numpy.

The grouped Fourier products F c and F* y are per-term tensor contractions
on per-axis phase powers (``fourier_layout``, ``fourier_forward``,
``fourier_adjoint``): for each chunk of nodes one table of
exp(2 pi i v x_s), v = -V_s..V_s, is built per axis from one cosine and
sine per node, and each term's block becomes one matrix product on its
first axis followed by products of table rows on its remaining axes.  The
same path serves every block, box-shaped (full grid) or not (hyperbolic
cross, weighted).  Nothing node-dependent is kept between calls.

Determinism: chunk sizes depend only on the inputs, every reduction runs in
a fixed order, and every BLAS call is a matrix product with a short inner
dimension (``_matmul``), so results do not depend on the number of BLAS
threads.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

#: the only backend; kept as a constant for tools that record it
BACKEND = "numpy"

# B-spline normalization constants; chosen so the L2 norm over [0,1) is 1.
BSPLINE_NORM = {2: math.sqrt(3.0 / 4.0),
                4: math.sqrt(315.0 / 604.0),
                6: math.sqrt(277200.0 / 655177.0)}

_CHUNK = 1 << 22  # bound temporary phase arrays to ~32 MB
_KB = 128  # inner length of one BLAS matrix product


class _TermLayout(NamedTuple):
    """One term's block as a dense (P, n_a) matrix over phase-table rows.

    Frequency i of the block sits at row ``pos_r[i]`` (its tuple on the
    remaining axes) and column ``pos_a[i]`` (its value on the first axis).
    ``rows_a`` and ``rows_rest`` are the table rows of those values; the
    ``_adj`` variants hold the rows of the negated values (the conjugates).
    """

    block: slice           # coefficient positions in the grouped vector
    rows_a: np.ndarray     # (n_a,)
    rows_rest: tuple       # of (P,) arrays, one per remaining axis
    rows_a_adj: np.ndarray
    rows_rest_adj: tuple
    pos_r: np.ndarray
    pos_a: np.ndarray


class FourierLayout(NamedTuple):
    """Node-independent description of a grouped index set for the products."""

    n: int             # number of frequencies
    vmax: np.ndarray   # (d,) largest |k_s| per axis
    const: tuple       # slices of zero-order blocks (the constant term)
    terms: tuple       # of _TermLayout
    p_max: int         # largest P over the terms


def _table_offsets(vmax) -> np.ndarray:
    """Row of frequency 0 of each axis in the stacked phase table."""
    return np.cumsum(2 * vmax + 1) - vmax - 1


def fourier_layout(d: int, blocks) -> FourierLayout:
    """Layout of ``(term, freqs)`` blocks in canonical coefficient order.

    ``term`` holds 1-based axes and ``freqs`` its (n_u, |u|) frequencies;
    the empty term's block is the constant term.
    """
    blocks = [(tuple(c - 1 for c in term), np.asarray(freqs, dtype=np.int64))
              for term, freqs in blocks]
    vmax = np.zeros(d, dtype=np.int64)
    for axes, freqs in blocks:
        if axes and freqs.shape[0]:
            vmax[list(axes)] = np.maximum(vmax[list(axes)], np.abs(freqs).max(axis=0))
    zero = _table_offsets(vmax)
    const, terms = [], []
    off, p_max = 0, 1
    for axes, freqs in blocks:
        block = slice(off, off + freqs.shape[0])
        off += freqs.shape[0]
        if not axes:
            const.append(block)
            continue
        if freqs.shape[0] == 0:
            continue
        a_vals, pos_a = np.unique(freqs[:, 0], return_inverse=True)
        rest, pos_r = np.unique(freqs[:, 1:], axis=0, return_inverse=True)
        p_max = max(p_max, rest.shape[0])
        terms.append(_TermLayout(
            block, zero[axes[0]] + a_vals,
            tuple(zero[s] + rest[:, j] for j, s in enumerate(axes[1:])),
            zero[axes[0]] - a_vals,
            tuple(zero[s] - rest[:, j] for j, s in enumerate(axes[1:])),
            pos_r.reshape(-1), pos_a.reshape(-1)))
    return FourierLayout(off, vmax, tuple(const), tuple(terms), p_max)


def _matmul(A, B):
    """A @ B with every BLAS call of inner length <= _KB and at least 2 x 2.

    With more threads, BLAS re-blocks a long inner dimension and splits
    matrix-vector products at other rows, which changes the rounding.  Fixed
    inner blocks summed in a fixed order, and a zero row or column that turns
    a matrix-vector product into a matrix product, keep the result the same
    for every thread count.
    """
    m, k = A.shape
    n = B.shape[1]
    if m == 1:
        return _matmul(np.concatenate([A, np.zeros_like(A)]), B)[:1]
    if n == 1:
        return _matmul(A, np.concatenate([B, np.zeros_like(B)], axis=1))[:, :1]
    if k <= _KB:
        return A @ B
    kb = k - k % _KB
    if m * n <= _KB * _KB:  # small result: one stacked product over the blocks
        out = np.matmul(A[:, :kb].reshape(m, -1, _KB).transpose(1, 0, 2),
                        B[:kb].reshape(-1, _KB, n)).sum(axis=0)
    else:
        out = A[:, :_KB] @ B[:_KB]
        for lo in range(_KB, kb, _KB):
            out += A[:, lo:lo + _KB] @ B[lo:lo + _KB]
    if kb < k:
        out += A[:, kb:] @ B[kb:]
    return out


def _chunk_rows(layout: FourierLayout) -> int:
    return max(1, _CHUNK // (int(np.sum(2 * layout.vmax + 1)) + layout.p_max))


def _phase_table(X: np.ndarray, vmax) -> np.ndarray:
    """Stacked per-axis tables exp(2 pi i v x_s), v = -V_s..V_s, (rows, m).

    Axis s occupies 2 V_s + 1 rows in order of v, with v = 0 at row
    ``_table_offsets(vmax)[s]``.  One cosine and sine per node and axis give
    v = 1; higher powers are binary products E[v] = E[v//2] E[v - v//2], and
    negative v are conjugates.
    """
    zero = _table_offsets(vmax)
    E = np.empty((int(np.sum(2 * vmax + 1)), X.shape[0]), dtype=np.complex128)
    for s, V in enumerate(int(v) for v in vmax):
        Es = E[zero[s] - V:zero[s] + V + 1]
        Es[V] = 1.0
        if V == 0:
            continue
        phase = 2.0 * np.pi * X[:, s]  # in place: np.exp's temporaries raise peak RSS
        np.cos(phase, out=Es[V + 1].real)
        np.sin(phase, out=Es[V + 1].imag)
        for v in range(2, V + 1):
            np.multiply(Es[V + v // 2], Es[V + v - v // 2], out=Es[V + v])
        np.conjugate(Es[:V:-1], out=Es[:V])
    return E


def fourier_forward(X, layout: FourierLayout, coeffs) -> np.ndarray:
    """F c at nodes X (m, d): per term, T = C @ E_a[A], then rows of the rest.

    C is the term's coefficient block zero-filled to (P, n_a); T (P, m) is
    multiplied by the gathered table rows E_j[rest_j] and summed over P.
    """
    X = np.asarray(X, dtype=np.float64)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    const = sum(complex(coeffs[b].sum()) for b in layout.const)
    mats = []
    for t in layout.terms:
        C = np.zeros((t.rows_rest[0].size if t.rows_rest else 1, t.rows_a.size),
                     dtype=np.complex128)
        C[t.pos_r, t.pos_a] = coeffs[t.block]
        mats.append(C)
    m = X.shape[0]
    out = np.full(m, const, dtype=np.complex128)
    rows = _chunk_rows(layout)
    for lo in range(0, m, rows):
        hi = min(m, lo + rows)
        E = _phase_table(X[lo:hi], layout.vmax)
        acc = out[lo:hi]
        for t, C in zip(layout.terms, mats):
            T = _matmul(C, E[t.rows_a])
            for r in t.rows_rest:
                T *= E[r]
            acc += T.sum(axis=0)
    return out


def fourier_adjoint(X, layout: FourierLayout, y) -> np.ndarray:
    """F* y: the forward contraction mirrored on conjugated table rows.

    Conjugation is a row lookup, E[-v] = conj(E[v]).  Per term,
    W = y * prod_j conj(E_j[rest_j]) (P, m) and G = conj(E_a[A]) @ W^T
    (n_a, P); the block reads G at its (first value, rest) positions.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.complex128)
    out = np.zeros(layout.n, dtype=np.complex128)
    m = X.shape[0]
    rows = _chunk_rows(layout)
    for lo in range(0, m, rows):
        hi = min(m, lo + rows)
        yc = y[lo:hi]
        for b in layout.const:
            out[b] += yc.sum()
        E = _phase_table(X[lo:hi], layout.vmax)
        for t in layout.terms:
            W = yc[None, :]
            for r in t.rows_rest_adj:
                W = W * E[r]
            G = _matmul(E[t.rows_a_adj], W.T)
            out[t.block] += G[t.pos_a, t.pos_r]
    return out


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


def bspline_values(j, x):
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    t = x - np.floor(x)
    return BSPLINE_NORM[j] * j * _cardinal_bspline(j, j * t)


def testfun_values(X):
    X = np.asarray(X, dtype=np.float64)
    b2 = bspline_values(2, X[:, 0:4])
    b4 = bspline_values(4, X[:, 4:8])
    b6 = bspline_values(6, X[:, 8])
    return (b2[:, 0] * b4[:, 0] + b2[:, 1] * b4[:, 1]
            + b2[:, 2] * b4[:, 2] + b2[:, 3] * b4[:, 3] * b6)


def residues(freqs, z, M):
    freqs = np.asarray(freqs, dtype=np.int64)
    zm = np.mod(np.asarray(z, dtype=np.int64), M).astype(np.int64)
    r = np.zeros(freqs.shape[0], dtype=np.int64)
    for s in range(freqs.shape[1]):
        r = (r + np.mod(freqs[:, s], M) * zm[s]) % M
    return r


def bucket_accumulate(res, coeffs, M):
    out = np.zeros(M, dtype=np.complex128)
    np.add.at(out, res, np.asarray(coeffs, dtype=np.complex128))
    return out


def first_injective(base, kcol, cands, M):
    for i, zs in enumerate(cands):
        r = (base + np.mod(kcol * (zs % M), M)) % M
        if np.unique(r).size == r.size:
            return i
    return -1


def residues_injective(res, M):
    return np.unique(res).size == res.size
