"""Numerical kernels, vectorized with numpy: the grouped Fourier products
and the residue arithmetic of rank-1 lattices.

The grouped Fourier products F c and F* y are per-term tensor contractions
on per-axis phase powers (``fourier_layout``, ``fourier_forward``,
``fourier_adjoint``): the unit phases exp(2 pi i x_s) are computed once per
operator (``unit_phases``), the nodes are taken in chunks of ``_NODES``,
and for each chunk one table of exp(2 pi i v x_s) is filled per axis from
the chunk's unit phases: v = 1..V_s, V_s the largest |k_s|, and
v = -R_s..-1, R_s the largest |k_s| of the terms of order >= 2.  Terms with
the same remaining axes and the same tuples on them form a group (37 groups
of 129 terms on U_3, d = 9).  Per group and chunk, the forward sums its
terms' first-axis matrix products, multiplies by the table rows of the
remaining axes and sums over the tuples once; the adjoint multiplies the
values by the conjugate rows once and gives each term one first-axis
matrix product.  The order-1 terms, the group with no remaining axes, read
only positive powers: their negative values enter as conjugates through a
second row of coefficients in the forward and a second column, conj y, in
the adjoint.  The same path serves every block, box-shaped (full grid) or
not (hyperbolic cross, weighted).

Memory: the unit phases take 16 bytes per node and used axis (V_s > 0) and
are kept by the operator.  A product allocates one table of R x ``_NODES``
complex entries, R = sum_s (V_s + R_s) (``bandwidths``; 99 to 198 rows on
the sets of ``perfbench``), and refills it for every chunk; per group
it adds work arrays of at most (P, ``_NODES``) entries, freed before the
next group, and once a flat buffer of the terms' zero-filled (P, n_a)
matrices (1 to 7.2 |I| entries on the sets of ``perfbench``).  Besides its
result (length m for F c, |I| for F* y) nothing in a product grows with the
number of nodes.  At 2048 nodes a table row takes 32 KB.

Determinism: chunk sizes depend only on the inputs, every reduction runs in
a fixed order, and every BLAS call is a matrix product with a short inner
dimension (``_matmul``), so results do not depend on the number of BLAS
threads.

Lattices: ``residues`` computes k.z mod M for a frequency array, and
``first_injective`` is the CBC search's test of candidates z_s.  Entries
with k_s = 0 do not move with z_s: their residues are checked and marked
once per call, and each candidate is tested on the moving entries only,
after a vectorized screen of all candidates against the marks and on
prefixes of 1024, 2048, 4096, .. entries, so that most collisions stop it
early.
``lattice_fft`` is the length-M DFT of a lattice solve, done in place as
short FFTs along both axes of an M1 x M2 view (the four-step FFT), so it
needs O(sqrt M) work memory where one length-M ``np.fft.fft`` needs about
two more M-vectors; it leaves the spectrum in transposed order, and
``spectrum_slots`` says where each residue sits.  For real samples of even
length M, ``real_spectrum`` and ``real_synthesis`` run that transform at
length M/2 on the float64 vector viewed as M/2 complex values, so the work
vector takes 8 bytes per sample instead of 16.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

#: the only backend; kept as a constant for tools that record it
BACKEND = "numpy"

#: nodes per chunk, a multiple of _KB; 1024 and 8192 timed slower, 4096 as
#: fast with twice the table
_NODES = 2048
_KB = 128  # inner length of one BLAS matrix product
_TWIDDLE_BLOCK = 1 << 16  # entries per block of rows that one twiddle step scales
_PREFIX = 1024  # moving representatives in a CBC candidate's first test
_SCREEN = 128  # moving residues per candidate in the CBC screen


class _TermLayout(NamedTuple):
    """One term of a group: ``mat`` is its place in the flat buffer, which
    holds its (P, n_a) coefficient matrix over (rest tuple, first-axis
    value) in the forward and its (n_a, P) result in the adjoint.
    ``rows_a`` are the table rows of the n_a first-axis values,
    ``rows_a_adj`` those of the negated values (the conjugates), ascending.
    Rows that form an arithmetic run are a slice, read as a view.

    An order-1 term reads only positive powers: its n_a values are the
    distinct |v|, ``rows_a_adj`` is ``rows_a``, its forward matrix is
    (2, n_a) with rows for v > 0 and v < 0, and its adjoint result is
    (n_a, 2) with columns for v < 0 and v > 0 (see ``fourier_forward`` and
    ``fourier_adjoint``).
    """

    mat: slice
    n_a: int
    rows_a: slice | np.ndarray
    rows_a_adj: slice | np.ndarray


class _Group(NamedTuple):
    """Terms with the same remaining axes and the same P tuples on them.

    The order-1 terms, with no remaining axes (``rows_rest`` empty), form
    one group."""

    rows_rest: tuple      # table rows of the P tuples, one per axis
    rows_rest_adj: tuple  # of their negations
    terms: list           # of _TermLayout


class FourierLayout(NamedTuple):
    """Node-independent description of a grouped index set for the products."""

    n: int             # number of frequencies
    vmax: np.ndarray   # (d,) largest |k_s| per axis
    rmax: np.ndarray   # (d,) largest |k_s| per axis over the terms of order >= 2
    rows: int          # rows of the phase table (``bandwidths``)
    const: tuple       # slices of zero-order blocks (the constant term)
    groups: tuple      # of _Group
    size: int          # length of the flat buffer of all terms' matrices
    coef: np.ndarray   # positions of the terms' coefficients in the vector,
    fwd: np.ndarray    # their places in the buffer's (P, n_a) matrices
    adj: np.ndarray    # and in its (n_a, P) adjoint results


def _table_offsets(vmax, rmax) -> np.ndarray:
    """Per axis, the row that frequency 0 would take in the stacked table.

    Axis s holds v = -R_s..-1, 1..V_s; value v != 0 sits at row
    ``offset + v - (v > 0)``.
    """
    return np.cumsum(rmax + vmax) - vmax


def _run(rows):
    """``rows`` as a slice when they form an arithmetic run, else as is."""
    step = int(rows[1] - rows[0]) if rows.size > 1 else 1
    if step and np.all(np.diff(rows) == step):
        stop = int(rows[-1]) + step
        return slice(int(rows[0]), stop if stop >= 0 else None, step)
    return rows


def bandwidths(d: int, blocks) -> tuple:
    """(V, R, rows) of the phase table for ``(term, freqs)`` blocks.

    V_s is the largest |k_s| per axis, R_s the largest over the terms of
    order >= 2, and the table has rows = sum_s (V_s + R_s).  ``term`` holds
    1-based axes and ``freqs`` its (n_u, |u|) frequencies.
    """
    vmax = np.zeros(d, dtype=np.int64)
    rmax = np.zeros(d, dtype=np.int64)
    for term, freqs in blocks:
        freqs = np.asarray(freqs, dtype=np.int64)
        if term and freqs.shape[0]:
            axes = [c - 1 for c in term]
            top = np.abs(freqs).max(axis=0)
            vmax[axes] = np.maximum(vmax[axes], top)
            if len(axes) > 1:
                rmax[axes] = np.maximum(rmax[axes], top)
    return vmax, rmax, int(np.sum(vmax + rmax))


def _split_pattern(freqs):
    """(a_vals, rest, rest bytes, fwd, adj) of one block's frequencies.

    None of these depends on the term's axes, so ``fourier_layout`` splits
    each distinct pattern once (the terms of one order share one in
    ``method.build_search_sets``).  ``fwd`` and ``adj`` are each
    frequency's place in the term's forward matrix and adjoint result,
    counted from the matrix's start.  An order-1 block has ``rest`` None
    and its distinct |v| as a_vals."""
    if freqs.shape[1] == 1:
        mags, pos = np.unique(np.abs(freqs[:, 0]), return_inverse=True)
        pos, neg = pos.reshape(-1), freqs[:, 0] < 0
        return mags, None, None, neg * mags.size + pos, 2 * pos + ~neg
    a_vals, pos_a = np.unique(freqs[:, 0], return_inverse=True)
    rest, pos_r = np.unique(freqs[:, 1:], axis=0, return_inverse=True)
    pos_a, pos_r = pos_a.reshape(-1), pos_r.reshape(-1)
    P, n_a = rest.shape[0], a_vals.size
    return (a_vals, rest, rest.tobytes(), pos_r * n_a + pos_a,
            (n_a - 1 - pos_a) * P + pos_r)


def fourier_layout(d: int, blocks) -> FourierLayout:
    """Layout of ``(term, freqs)`` blocks in canonical coefficient order.

    ``term`` holds 1-based axes and ``freqs`` its (n_u, |u|) frequencies,
    none of them zero; the empty term's block is the constant term.  The
    phase table keeps v = 1..V_s on every axis, V_s the largest |k_s|, and
    v = -R_s..-1 only as far as the terms of order >= 2 read them: the
    order-1 terms take their negative values as conjugates of positive
    powers.
    """
    blocks = [(tuple(term), np.asarray(freqs, dtype=np.int64))
              for term, freqs in blocks]
    if any(term and not np.all(freqs) for term, freqs in blocks):
        raise ValueError("frequency with a zero entry on its term's axes")
    vmax, rmax, table_rows = bandwidths(d, blocks)
    zero = _table_offsets(vmax, rmax)

    def rows(s, vals):
        return _run(zero[s] + vals - (vals > 0))

    const, groups, splits = [], {}, {}
    coef, fwd, adj = ([np.zeros(0, dtype=np.int64)] for _ in range(3))
    off = size = 0
    for term, freqs in blocks:
        block = slice(off, off + freqs.shape[0])
        off += freqs.shape[0]
        axes = [c - 1 for c in term]
        if not axes:
            const.append(block)
            continue
        if freqs.shape[0] == 0:
            continue
        coef.append(np.arange(block.start, block.stop))
        key = (freqs.shape, freqs.tobytes())
        if key not in splits:
            splits[key] = _split_pattern(freqs)
        a_vals, rest, rest_key, fwd_at, adj_at = splits[key]
        n_a = a_vals.size
        fwd.append(size + fwd_at)
        adj.append(size + adj_at)
        if rest is None:  # order 1: rows v > 0 and v < 0 over the distinct |v|
            group = groups.setdefault((), _Group((), (), []))
            rows_a = rows(axes[0], a_vals)
            group.terms.append(_TermLayout(slice(size, size + 2 * n_a), n_a,
                                           rows_a, rows_a))
            size += 2 * n_a
            continue
        P = rest.shape[0]
        key = (tuple(axes[1:]), rest_key)
        if key not in groups:
            groups[key] = _Group(
                tuple(rows(s, rest[:, j]) for j, s in enumerate(axes[1:])),
                tuple(rows(s, -rest[:, j]) for j, s in enumerate(axes[1:])), [])
        group = groups[key]
        group.terms.append(_TermLayout(
            slice(size, size + P * n_a), n_a, rows(axes[0], a_vals),
            rows(axes[0], -a_vals[::-1])))
        size += P * n_a
    return FourierLayout(off, vmax, rmax, table_rows, tuple(const),
                         tuple(groups.values()), size,
                         *map(np.concatenate, (coef, fwd, adj)))


def _matmul(A, B):
    """A @ B with every BLAS call of inner length <= _KB and at least 2 x 2.

    With more threads, BLAS re-blocks a long inner dimension and splits
    matrix-vector products at other rows, which changes the rounding.  Fixed
    inner blocks summed in a fixed order, and a zero row or column that turns
    a matrix-vector product into a matrix product, keep the result the same
    for every thread count.  An outer product (inner length 1) and a dot
    product (a 1 x 1 result) need no BLAS call: a broadcast product and a
    fixed-order ``einsum`` sum.
    """
    m, k = A.shape
    n = B.shape[1]
    if k == 1:
        return A * B
    if m == 1 and n == 1:
        return np.einsum("ij,jk->ik", A, B)
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


def unit_phases(X, vmax) -> np.ndarray:
    """exp(2 pi i x_s) for every node, one row per used axis (V_s > 0).

    One cosine and sine per node and used axis, (n_used, m) complex, with
    no temporary beyond the result; the products copy a chunk of it into
    their table's v = 1 rows.
    """
    X = np.asarray(X, dtype=np.float64)
    axes = np.flatnonzero(vmax)
    U = np.empty((axes.size, X.shape[0]), dtype=np.complex128)
    for j, s in enumerate(axes):
        phase = U[j].real  # 2 pi x_s, overwritten by its cosine
        np.multiply(X[:, s], 2.0 * np.pi, out=phase)
        np.sin(phase, out=U[j].imag)
        np.cos(phase, out=phase)
    return U


def _phase_table(U: np.ndarray, layout: FourierLayout, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` (``layout.rows``, m) with the stacked tables exp(2 pi i v x_s).

    Axis s occupies R_s + V_s rows, v = -R_s..-1 then 1..V_s, around row
    ``_table_offsets(vmax, rmax)[s]``.  v = 1 is the axis' row of the unit
    phases ``U`` (``unit_phases``); higher powers are binary products
    E[v] = E[v//2] E[v - v//2], and negative v are conjugates.  Everything
    is written in place.
    """
    zero = _table_offsets(layout.vmax, layout.rmax)
    j = 0
    for s, (V, R) in enumerate(zip(layout.vmax.tolist(), layout.rmax.tolist())):
        if V == 0:
            continue
        pos = out[zero[s]:zero[s] + V]  # v = 1..V
        pos[0] = U[j]
        j += 1
        for v in range(2, V + 1):
            np.multiply(pos[v // 2 - 1], pos[v - v // 2 - 1], out=pos[v - 1])
        np.conjugate(pos[:R][::-1], out=out[zero[s] - R:zero[s]])
    return out


def _chunks(U, layout: FourierLayout):
    """Yield (lo, hi, table) per chunk of _NODES nodes, one table refilled."""
    m = U.shape[1]
    E = np.empty((layout.rows, min(m, _NODES)), dtype=np.complex128)
    for lo in range(0, m, _NODES):
        hi = min(m, lo + _NODES)
        yield lo, hi, _phase_table(U[:, lo:hi], layout, E[:, :hi - lo])


def fourier_forward(U, layout: FourierLayout, coeffs, out=None) -> np.ndarray:
    """F c at the nodes whose unit phases (``unit_phases``) are U, written
    into ``out`` (complex, one entry per node) when given.

    Per group and chunk, T = sum over its terms of C @ E_a[A] (P, chunk),
    C the term's (P, n_a) coefficient matrix; T is multiplied by the
    group's table rows E_j[rest_j] and summed over P.  The order-1 terms'
    C is (2, n_a) over |v|: c_v for v > 0 and conj c_-v for v < 0; their
    T's second row is conjugated before the sum.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    const = sum(complex(coeffs[b].sum()) for b in layout.const)
    buf = np.zeros(layout.size, dtype=np.complex128)
    buf[layout.fwd] = coeffs[layout.coef]
    mats = [[buf[t.mat].reshape(-1, t.n_a) for t in g.terms]
            for g in layout.groups]
    for g, Cs in zip(layout.groups, mats):
        if not g.rows_rest:
            for C in Cs:
                np.conjugate(C[1], out=C[1])
    if out is None:
        out = np.empty(U.shape[1], dtype=np.complex128)
    out[:] = const
    for lo, hi, E in _chunks(U, layout):
        acc = out[lo:hi]
        for g, Cs in zip(layout.groups, mats):
            T = _matmul(Cs[0], E[g.terms[0].rows_a])
            for t, C in zip(g.terms[1:], Cs[1:]):
                T += _matmul(C, E[t.rows_a])
            for r in g.rows_rest:
                T *= E[r]
            if not g.rows_rest:
                np.conjugate(T[1], out=T[1])
            acc += T.sum(axis=0)
    return out


def fourier_adjoint(U, layout: FourierLayout, y, out=None) -> np.ndarray:
    """F* y, written into ``out`` (complex, length |I|) when given: the
    forward contraction mirrored on conjugated table rows.

    Conjugation is a row lookup, E[-v] = conj(E[v]).  Per group and chunk,
    W = y * prod_j conj(E_j[rest_j]) (P, chunk); each of its terms adds
    G = conj(E_a[A]) @ W^T (n_a, P), rows in reverse first-axis order, to
    its place in the buffer, and after the last chunk every block reads its
    (first value, rest) positions there.  The order-1 terms take
    W = [y; conj y] on the rows of their |v| instead: G's first column is
    F* y at -v, and its second the conjugate of F* y at v, conjugated before
    the read-out.
    """
    y = np.asarray(y, dtype=np.complex128)
    if out is None:
        out = np.empty(layout.n, dtype=np.complex128)
    out[:] = 0
    buf = np.zeros(layout.size, dtype=np.complex128)
    mats = [[buf[t.mat].reshape(t.n_a, -1) for t in g.terms]
            for g in layout.groups]
    for lo, hi, E in _chunks(U, layout):
        yc = y[lo:hi]
        for b in layout.const:
            out[b] += yc.sum()
        for g, Gs in zip(layout.groups, mats):
            W = yc[None, :] if g.rows_rest else np.stack((yc, yc.conj()))
            for r in g.rows_rest_adj:
                W = W * E[r]
            for t, G in zip(g.terms, Gs):
                G += _matmul(E[t.rows_a_adj], W.T)
    for g, Gs in zip(layout.groups, mats):
        if not g.rows_rest:
            for G in Gs:
                np.conjugate(G[:, 1], out=G[:, 1])
    out[layout.coef] = buf[layout.adj]
    return out


def residues(freqs, z, M):
    freqs = np.asarray(freqs, dtype=np.int64)
    zm = np.mod(np.asarray(z, dtype=np.int64), M).astype(np.int64)
    r = np.zeros(freqs.shape[0], dtype=np.int64)
    for s in range(freqs.shape[1]):
        r = (r + np.mod(freqs[:, s], M) * zm[s]) % M
    return r


def first_injective(base, kcol, cands, M, slot, mark):
    """Index of the first z in ``cands`` with base + kcol z injective mod M.

    Returns -1 when no candidate qualifies.  ``base`` and ``kcol`` lie in
    [0, M).  Entries with kcol = 0 are fixed at their base for every z, so
    they are tested for distinctness once, and -1 is returned if they are
    not; their residues are then marked True in ``mark`` (bool, length
    >= M, all False on entry and again on return).  Each candidate is
    tested on the moving entries (kcol != 0) only: one collides with a
    fixed entry when its residue is marked, and with another moving entry
    when the two share a slot.  The latter test scatters each index j into
    ``slot[r_j]`` and gathers it back: two equal residues share a slot that
    keeps only one of their indices, so the other reads back wrong.  Every
    slot read was written in the same call, so ``slot`` (length >= M, of an
    integer type that holds n - 1) may hold anything on entry and is reused
    across candidates and calls.  O(n) per call and O(moving entries) per
    candidate.

    A candidate is tested on the first ``_PREFIX`` moving entries, then on
    twice as many, and so on up to all of them; each stage computes, checks
    against the marks and scatters only its new entries and gathers the
    whole prefix.  Once candidate 0 has failed, the others are screened in
    one vectorized pass: those whose first ``_SCREEN`` moving residues hit
    a mark are dropped, and the rest take the staged test in order.  A
    collision in any subset is a collision in the whole set, so the pick is
    the same as with one test of all n entries in any order, and most
    rejected candidates cost O(``_SCREEN``).
    """
    fixed = kcol == 0
    still = base[fixed]
    pos = np.arange(still.size, dtype=slot.dtype)
    slot[still] = pos
    if (slot[still] != pos).any():
        return -1
    mark[still] = True
    try:
        return _first_clear(base[~fixed], kcol[~fixed], cands, M, slot, mark)
    finally:
        mark[still] = False


def _first_clear(base, kcol, cands, M, slot, mark):
    """``first_injective`` on the moving entries, the fixed ones marked."""
    n = base.shape[0]
    stops = [min(_PREFIX, n)]
    while stops[-1] < n:
        stops.append(min(2 * stops[-1], n))
    idx = np.arange(n, dtype=slot.dtype)
    r = np.empty(n, dtype=np.int64)
    back = np.empty(n, dtype=slot.dtype)

    def clear(zs):
        zs = zs % M
        lo = 0
        for hi in stops:
            new = r[lo:hi]
            np.multiply(kcol[lo:hi], zs, out=new)
            new += base[lo:hi]
            np.remainder(new, M, out=new)
            if mark[new].any():
                return False
            slot[new] = idx[lo:hi]
            slot.take(r[:hi], out=back[:hi])
            if (back[:hi] != idx[:hi]).any():
                return False
            lo = hi
        return True

    if len(cands) == 0:
        return -1
    if clear(cands[0]):
        return 0
    w = min(_SCREEN, n)
    head = np.multiply.outer(np.asarray(cands[1:], dtype=np.int64) % M, kcol[:w])
    head += base[:w]
    head %= M
    for i in 1 + np.flatnonzero(~mark[head].any(axis=1)):
        if clear(cands[i]):
            return int(i)
    return -1


def _split(n: int) -> tuple:
    """(n1, n2) with n = n1 n2 and n1 the largest divisor of n <= sqrt(n)."""
    n1 = math.isqrt(n)
    while n % n1:
        n1 -= 1
    return n1, n // n1


def spectrum_slots(r, M: int) -> np.ndarray:
    """Positions of residues r in the spectrum that ``lattice_fft`` leaves.

    Residue r sits at (r mod M1, r div M1) of the M1 x M2 view, M1 x M2 =
    ``_split(M)``; for prime M (M1 = 1) that is r itself.
    """
    M1, M2 = _split(M)
    q, k1 = np.divmod(r, M1)
    return k1 * M2 + q


def _twiddle(A, M: int, sign: int) -> None:
    """A[k1, j2] *= exp(sign 2 pi i k1 j2 / M), in place, block of rows by block.

    With j2 = s jh + jl, (s, t) = ``_split(M2)``, each block multiplies by
    two short tables, exp(sign 2 pi i k1 s jh / M) (rows x t) and
    exp(sign 2 pi i k1 jl / M) (rows x s), so only O(rows sqrt M2) values
    take a cosine and a sine.  The integer exponents are below M (k1 < M1,
    j2 < M2), so each angle is one rounding from exact.
    """
    M1, M2 = A.shape
    s, t = _split(M2)
    low = np.arange(s)
    high = s * np.arange(t)
    step = sign * 2j * np.pi / M
    rows = max(1, _TWIDDLE_BLOCK // M2)
    for lo in range(1, M1, rows):  # row k1 = 0 has all factors 1
        hi = min(M1, lo + rows)
        k1 = np.arange(lo, hi)[:, None]
        block = A[lo:hi].reshape(hi - lo, t, s)
        block *= np.exp(k1 * high * step)[:, :, None]
        block *= np.exp(k1 * low * step)[:, None, :]


def lattice_fft(a: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Unnormalized length-M DFT of the contiguous complex vector ``a``, in place.

    The forward transform reads ``a`` in natural order and leaves
    X_r = sum_j a_j exp(-2 pi i j r / M) at ``spectrum_slots(r, M)``; the
    inverse reads that order and leaves sum_r X_r exp(2 pi i j r / M) at j.
    With j = M2 j1 + j2 and r = k1 + M1 k2 on the M1 x M2 view (``_split``),
    the forward runs length-M1 FFTs down the columns, multiplies by the
    twiddles exp(-2 pi i k1 j2 / M) and runs length-M2 FFTs along the rows;
    the inverse runs those steps backwards with conjugate factors.  numpy
    transforms each line of a view through a buffer of the line's length,
    so the work memory is O(M1 + M2) besides one block of twiddles.  A
    prime M gives M1 = 1: one ordinary FFT, still written in place.
    """
    if a.dtype != np.complex128 or a.ndim != 1 or not a.flags.c_contiguous:
        raise ValueError("lattice_fft needs a contiguous complex128 vector")
    M = a.shape[0]
    M1, M2 = _split(M)
    A = a.reshape(M1, M2)
    if inverse:
        np.fft.ifft(A, axis=1, norm="forward", out=A)
        _twiddle(A, M, 1)
        if M1 > 1:
            np.fft.ifft(A, axis=0, norm="forward", out=A)
    else:
        if M1 > 1:
            np.fft.fft(A, axis=0, out=A)
        _twiddle(A, M, -1)
        np.fft.fft(A, axis=1, out=A)
    return a


def real_spectrum(y: np.ndarray, r) -> np.ndarray:
    """Y_r = sum_j y_j exp(-2 pi i j r / M) at residues r (0 <= r < M) of a
    real y of even length M, overwriting ``y``.

    ``y`` (contiguous float64) is transformed in place by ``lattice_fft`` as
    the H = M/2 complex values z_j = y_2j + i y_2j+1.  With a = r mod H and
    b = -r mod H, the even and odd samples' spectra are (Z_a + conj Z_b)/2
    and (Z_a - conj Z_b)/2i, and Y_r is the first plus exp(-2 pi i r/M)
    times the second (Sorensen, Jones, Heideman and Burrus, IEEE Trans.
    ASSP 1987).  Only the requested residues are formed.
    """
    M = y.shape[0]
    H = M // 2
    Z = lattice_fft(y.view(np.complex128))
    za = Z[spectrum_slots(r % H, H)]
    zb = Z[spectrum_slots(-r % H, H)].conj()
    w = np.exp(r * (-2j * np.pi / M))
    return 0.5 * (za + zb) - 0.5j * w * (za - zb)


def real_synthesis(r, X, M: int) -> np.ndarray:
    """g_j = Re sum X_r exp(2 pi i j r / M), j = 0..M-1, for even M, as a new
    float64 vector; entries of X at equal residues r add up.

    Re of the sum is the sum over the Hermitian spectrum
    G_r = (X_r + conj X_-r)/2.  The H = M/2 complex values g_2j + i g_2j+1
    are the length-H inverse transform of Z_k = sum over r = k mod H of
    G_r (1 + i exp(2 pi i r/M)), so each X_r adds X_r (1 + i t)/2 at
    r mod H and conj(X_r (1 - i t))/2 at -r mod H, t = exp(2 pi i r/M).
    ``lattice_fft`` inverts Z in place in the output's buffer, the only
    length-M array.
    """
    H = M // 2
    out = np.zeros(M)
    Z = out.view(np.complex128)
    half = 0.5 * X
    it = np.exp(r * (2j * np.pi / M)) * 1j
    np.add.at(Z, spectrum_slots(r % H, H), half * (1 + it))
    np.add.at(Z, spectrum_slots(-r % H, H), np.conj(half * (1 - it)))
    lattice_fft(Z, inverse=True)
    return out
