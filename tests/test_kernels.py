"""Kernel checks: the grouped Fourier contraction against a dense matrix,
its adjoint identity, and the lattice residue kernels."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anovafourier import _kernels
from anovafourier.anova import term_family_ds
from anovafourier.bench import u_star
from anovafourier.index_sets import (GroupedIndexSet, LowDimIndexSet,
                                     TermFamily, grouped)
from anovafourier.method import build_search_sets
from anovafourier.operator import BlockFourierOperator, NodeSet, uniform_nodes


def test_backend_flag_reported():
    assert _kernels.BACKEND == "numpy"


def _weight(k):
    k = np.abs(np.asarray(k))
    return (1.0 + k.sum(axis=1)) ** 0.5 * np.prod(1.0 + k, axis=1)


SEARCHES = [
    ("full_grid", {"type": "full_grid", "N": [10, 6, 4]}),
    ("hyperbolic_cross", {"type": "hyperbolic_cross", "N": [20, 20, 30]}),
    ("weighted", {"type": "weighted", "N": [8, 8, 20], "weight": _weight}),
    # order 1 (v = -8..7) reaches past orders 2 and 3, so R_s < V_s
    ("full_grid_wide_order1", {"type": "full_grid", "N": [16, 4, 2]}),
]
#: only order-1 blocks (d_s = 1), so R_s = 0 on every axis
ORDER1_ONLY = ("order1_only", {"type": "full_grid", "N": [16]})


def _dense_check(g, X, seed):
    """Forward and adjoint against exp(2 pi i X K^T), rel 1e-12."""
    rng = np.random.default_rng(seed)
    op = BlockFourierOperator(X, g)
    dense = np.exp(2j * np.pi * (X.points @ g.embedded().T))
    c = rng.normal(size=len(g)) + 1j * rng.normal(size=len(g))
    y = rng.normal(size=len(X)) + 1j * rng.normal(size=len(X))
    ref = dense @ c
    assert np.linalg.norm(op.forward(c) - ref) <= 1e-12 * np.linalg.norm(ref)
    ref = dense.conj().T @ y
    assert np.linalg.norm(op.adjoint(y) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("name,search", SEARCHES, ids=[s[0] for s in SEARCHES])
def test_contraction_matches_dense(name, search):
    """Orders 0..3 with negative frequencies on every set type."""
    g = grouped(term_family_ds(5, 3), build_search_sets(5, 3, search))
    assert {len(b.term) for b in g.blocks if len(b)} == {0, 1, 2, 3}
    assert g.embedded().min() < 0
    _dense_check(g, uniform_nodes(5, 700, seed=2), seed=0)


@pytest.mark.parametrize("name,search", SEARCHES + [ORDER1_ONLY],
                         ids=[s[0] for s in SEARCHES + [ORDER1_ONLY]])
def test_contraction_partial_last_chunk(name, search):
    """Three node chunks with a short last one, and fewer nodes than a chunk."""
    d_s = len(search["N"])
    g = grouped(term_family_ds(4, d_s), build_search_sets(4, d_s, search))
    V, R, _ = _kernels.bandwidths(4, [(b.term, b.freqs) for b in g.blocks])
    if name == "full_grid_wide_order1":
        assert np.all(R < V)
    if name == "order1_only":
        assert not R.any() and V.all()
    for m in (2 * _kernels._NODES + 77, _kernels._NODES // 3):
        _dense_check(g, uniform_nodes(4, m, seed=4), seed=1)


@pytest.mark.parametrize("name,search", SEARCHES + [ORDER1_ONLY],
                         ids=[s[0] for s in SEARCHES + [ORDER1_ONLY]])
def test_single_precision_products_match_double(name, search):
    """At complex64 the phases, the table and the work arrays are single
    precision, inputs and results double; forward and adjoint agree with
    complex128 to rel 1e-5 on orders 1..3, a short last chunk included, and
    on the order-1 terms' conjugate path."""
    d_s = len(search["N"])
    g = grouped(term_family_ds(4, d_s), build_search_sets(4, d_s, search))
    X = uniform_nodes(4, 2 * _kernels._NODES + 77, seed=4)
    rng = np.random.default_rng(8)
    c = rng.normal(size=len(g)) + 1j * rng.normal(size=len(g))
    y = rng.normal(size=len(X)) + 1j * rng.normal(size=len(X))
    double = BlockFourierOperator(X, g)
    single = BlockFourierOperator(X, g, np.complex64)
    assert (single.dtype, double.dtype) == (np.complex64, np.complex128)
    assert single._phases.nbytes * 2 == double._phases.nbytes
    for got, ref in ((single.forward(c), double.forward(c)),
                     (single.adjoint(y), double.adjoint(y))):
        assert got.dtype == np.complex128
        err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
        assert 0 < err <= 1e-5, err


def _table_from_nodes(X, layout, out):
    """Reference: the phase table filled from the chunk's nodes themselves,
    one cosine and sine per node and used axis; axis s holds
    v = -R_s..-1, 1..V_s."""
    zero = _kernels._table_offsets(layout.vmax, layout.rmax)
    for s, (V, R) in enumerate(zip(layout.vmax.tolist(), layout.rmax.tolist())):
        if V == 0:
            continue
        pos = out[zero[s]:zero[s] + V]
        phase = 2.0 * np.pi * X[:, s]
        np.cos(phase, out=pos[0].real)
        np.sin(phase, out=pos[0].imag)
        for v in range(2, V + 1):
            np.multiply(pos[v // 2 - 1], pos[v - v // 2 - 1], out=pos[v - 1])
        for v in range(1, R + 1):
            np.conjugate(pos[v - 1], out=out[zero[s] - v])
    return out


@pytest.mark.parametrize("m", [1, _kernels._NODES - 1, 2 * _kernels._NODES + 77])
def test_cached_phases_match_per_chunk_tables_bitwise(m, monkeypatch):
    """Products from the operator's unit phases equal, bit for bit, products
    whose tables are filled per chunk from the nodes themselves; axis 3 is
    unused, so the phases skip it.  The kernels run on all nodes at once
    (the operator's adjoint runs them on two halves)."""
    fam = TermFamily.downward_closure(5, [(), (1, 2), (2, 4, 5)])
    g = grouped(fam, build_search_sets(
        5, 3, {"type": "hyperbolic_cross", "N": [20, 20, 30]}))
    X = uniform_nodes(5, m, seed=6)
    op = BlockFourierOperator(X, g)
    assert op._phases.shape == (4, m)
    rng = np.random.default_rng(m)
    c = rng.normal(size=len(g)) + 1j * rng.normal(size=len(g))
    y = rng.normal(size=m) + 1j * rng.normal(size=m)
    U, layout = op._phases, op._layout
    got = _kernels.fourier_forward(U, layout, c), _kernels.fourier_adjoint(U, layout, y)

    def chunks(_U, layout):
        E = np.empty((layout.rows, min(m, _kernels._NODES)), dtype=np.complex128)
        for lo in range(0, m, _kernels._NODES):
            hi = min(m, lo + _kernels._NODES)
            yield lo, hi, _table_from_nodes(X.points[lo:hi], layout,
                                            E[:, :hi - lo])

    monkeypatch.setattr(_kernels, "_chunks", chunks)
    assert np.array_equal(got[0], _kernels.fourier_forward(U, layout, c))
    assert np.array_equal(got[1], _kernels.fourier_adjoint(U, layout, y))


def test_product_memory_does_not_grow_by_a_table_per_node():
    """Traced peaks from 20k to 80k nodes, of building the operator and of
    one forward and one adjoint.

    The operator keeps 16 bytes per node and used axis (the unit phases),
    plus the nodes X.  The phase table has chunk width, so a product's peak
    may grow by a few length-m vectors (the result), not by a table of
    (rows, m): 30 rows here, which over 60k more nodes would be 29 MB.
    """
    g = grouped(term_family_ds(5, 2),
                build_search_sets(5, 2, {"type": "full_grid", "N": [8, 4]}))

    def traced(fn):
        tracemalloc.start()
        try:
            out = fn()
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def peaks(m):
        op, built = traced(lambda: BlockFourierOperator(
            uniform_nodes(5, m, seed=5), g))
        c = np.ones(len(g), dtype=np.complex128)
        y = np.ones(m, dtype=np.complex128)
        _, product = traced(lambda: (op.forward(c), op.adjoint(y)))
        return built, product

    (built20, product20), (built80, product80) = peaks(20000), peaks(80000)
    grown = product80 - product20
    assert grown <= 3 * 60000 * 16, f"traced peak grew by {grown} bytes"
    grown = built80 - built20
    assert grown <= 60000 * (5 * 16 + 5 * 8), \
        f"building the operator grew by {grown} bytes"


def test_contraction_on_box_edges_and_empty_blocks():
    """Nodes at 0, a term with no frequencies, and a constant-only set."""
    blocks = (LowDimIndexSet((), np.zeros((1, 0))),
              LowDimIndexSet((1,), [[-3], [2]]),
              LowDimIndexSet((2,), np.zeros((0, 1))),
              LowDimIndexSet((1, 2), np.zeros((0, 2))))
    g = GroupedIndexSet(2, blocks)
    pts = np.vstack([np.zeros((1, 2)), uniform_nodes(2, 9, seed=1).points])
    _dense_check(g, NodeSet(pts), seed=3)
    only = GroupedIndexSet(2, (LowDimIndexSet((), np.zeros((1, 0))),))
    _dense_check(only, NodeSet(pts), seed=4)


def test_layout_rejects_zero_frequency_entry():
    """The table has no row for v = 0, so a zero entry cannot be laid out."""
    with pytest.raises(ValueError, match="zero entry"):
        _kernels.fourier_layout(2, [((1, 2), [[1, 0]])])


def _pin_system(m=100):
    """The two products of a small operator on m nodes, each with its
    arguments."""
    g = grouped(term_family_ds(3, 2), build_search_sets(3, 2, {"type": "full_grid",
                                                                "N": [4, 4]}))
    op = BlockFourierOperator(uniform_nodes(3, m, seed=1), g)
    return [(_kernels.fourier_forward, (op._phases, op._layout, np.ones(len(g), complex))),
            (_kernels.fourier_adjoint, (op._phases, op._layout, np.ones(m, complex)))]


def _openblas():
    if _kernels._OPENBLAS is None:
        pytest.skip("numpy runs a BLAS other than its bundled OpenBLAS")
    return _kernels._OPENBLAS


def test_products_run_at_one_blas_thread_and_restore_the_count(monkeypatch):
    """Both products fill their tables at one BLAS thread and leave the
    process's thread count as they found it, whether they return or raise."""
    get, put = _openblas()
    seen, table = [], _kernels._phase_table

    def counted(*a):
        seen.append(get())
        return table(*a)

    def failing(*a):
        seen.append(get())
        raise KeyError("table failed")

    before = get()
    put(2)
    try:
        monkeypatch.setattr(_kernels, "_phase_table", counted)
        for product, args in _pin_system():
            product(*args)
            assert get() == 2
        monkeypatch.setattr(_kernels, "_phase_table", failing)
        for product, args in _pin_system():
            with pytest.raises(KeyError, match="table failed"):
                product(*args)
            assert get() == 2
    finally:
        put(before)
    assert seen == [1, 1, 1, 1]


def test_products_of_several_threads_each_run_at_one_blas_thread(monkeypatch):
    """Products of three node chunks started from more threads than CPUs,
    switching often, fill every table at one BLAS thread and give the bytes
    of a product run alone, and the thread count is restored after the last
    one."""
    get, put = _openblas()
    seen, table = [], _kernels._phase_table

    def counted(*a):
        seen.append(get())
        return table(*a)

    system = _pin_system(3 * _kernels._NODES)
    alone = [product(*args).tobytes() for product, args in system]
    monkeypatch.setattr(_kernels, "_phase_table", counted)
    results = []

    def work():
        for _ in range(5):
            results.append([product(*args).tobytes() for product, args in system])

    before, interval = get(), sys.getswitchinterval()
    put(2)
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)
        put(before)
    assert results == [alone] * 40
    assert seen == [1] * 240


def test_pin_found_where_numpy_ships_openblas():
    """Where numpy names its bundled OpenBLAS, the products find the library
    to pin, so a failed lookup cannot pass for a BLAS that needs no pin."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if not blas["name"].startswith("scipy-openblas"):
        pytest.skip(f"numpy runs {blas['name']}")
    assert _kernels._OPENBLAS is not None


@st.composite
def grouped_sets(draw):
    d = draw(st.integers(1, 4))
    axes = st.lists(st.integers(1, d), min_size=1, max_size=3, unique=True)
    terms = draw(st.lists(axes.map(lambda a: tuple(sorted(a))), max_size=4))
    fam = TermFamily.downward_closure(d, [()] + terms)
    blocks = []
    for u in fam.sorted_terms():
        if not u:
            blocks.append(LowDimIndexSet((), np.zeros((1, 0))))
            continue
        value = st.integers(1, 9).flatmap(
            lambda a: st.sampled_from([a, -a]))
        rows = draw(st.lists(st.tuples(*[value] * len(u)), max_size=12))
        blocks.append(LowDimIndexSet(u, np.array(rows, dtype=np.int64)))
    return GroupedIndexSet(d, tuple(blocks))


@settings(max_examples=60, deadline=None)
@given(grouped_sets(), st.integers(1, 400), st.integers(0, 2 ** 32 - 1))
def test_adjoint_identity_random_sets(g, m, seed):
    """<F c, y> = <c, F* y> on random grouped sets and node counts."""
    rng = np.random.default_rng(seed)
    op = BlockFourierOperator(NodeSet(rng.random((m, g.d))), g)
    c = rng.normal(size=len(g)) + 1j * rng.normal(size=len(g))
    y = rng.normal(size=m) + 1j * rng.normal(size=m)
    Fc, Fy = op.forward(c), op.adjoint(y)
    lhs, rhs = np.vdot(y, Fc), np.vdot(Fy, c)
    scale = np.linalg.norm(Fc) * np.linalg.norm(y) + np.linalg.norm(Fy) * np.linalg.norm(c)
    assert abs(lhs - rhs) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(grouped_sets(), st.integers(1, 400), st.integers(0, 2 ** 32 - 1))
def test_adjoint_identity_in_single_precision(g, m, seed):
    """<F c, y> = <c, F* y> when the products run in complex64, to rel 1e-5."""
    rng = np.random.default_rng(seed)
    op = BlockFourierOperator(NodeSet(rng.random((m, g.d))), g, np.complex64)
    c = rng.normal(size=len(g)) + 1j * rng.normal(size=len(g))
    y = rng.normal(size=m) + 1j * rng.normal(size=m)
    Fc, Fy = op.forward(c), op.adjoint(y)
    lhs, rhs = np.vdot(y, Fc), np.vdot(Fy, c)
    scale = np.linalg.norm(Fc) * np.linalg.norm(y) + np.linalg.norm(Fy) * np.linalg.norm(c)
    assert abs(lhs - rhs) <= 1e-5 * scale


@st.composite
def shared_rest_blocks(draw):
    """(d, blocks) whose terms share remaining axes: per set of remaining
    axes, some terms take one shared list of rest tuples and others their
    own, and a block may lose some of its (first value, rest) pairs.  Draws
    reach P = 1 (and no remaining axis), n_a = 1 and single frequencies."""
    d = draw(st.integers(2, 5))
    value = st.integers(1, 4).flatmap(lambda a: st.sampled_from([a, -a]))

    def tuples(r):
        return draw(st.lists(st.tuples(*[value] * r), min_size=1, max_size=4,
                             unique=True))

    blocks = {(): np.zeros((1, 0), dtype=np.int64)}
    for _ in range(draw(st.integers(1, 3))):
        rest_axes = tuple(sorted(draw(st.sets(st.integers(2, d), max_size=3))))
        firsts = range(1, rest_axes[0] if rest_axes else d + 1)
        shared = tuples(len(rest_axes))
        for a in draw(st.sets(st.sampled_from(firsts), min_size=1, max_size=3)):
            rest = tuples(len(rest_axes)) if draw(st.booleans()) else shared
            a_vals = draw(st.lists(value, min_size=1, max_size=3, unique=True))
            freqs = [(v,) + t for v in a_vals for t in rest]
            keep = draw(st.lists(st.booleans(), min_size=len(freqs),
                                 max_size=len(freqs)))
            freqs = [f for f, k in zip(freqs, keep) if k] or freqs[:1]
            blocks[(a,) + rest_axes] = np.array(freqs, dtype=np.int64)
    return d, list(blocks.items())


@settings(max_examples=60, deadline=None)
@given(shared_rest_blocks(), st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
def test_grouped_products_match_dense(case, m, seed):
    """One group per (remaining axes, rest tuples); the grouped forward and
    adjoint match exp(2 pi i X K^T) to rel 1e-12 and satisfy the adjoint
    identity."""
    d, blocks = case
    layout = _kernels.fourier_layout(d, blocks)
    keys = {(u[1:], frozenset(map(tuple, f[:, 1:]))) for u, f in blocks if u}
    assert len(layout.groups) == len(keys)
    assert sum(len(g.terms) for g in layout.groups) == len(blocks) - 1
    K = np.zeros((layout.n, d), dtype=np.int64)
    off = 0
    for u, f in blocks:
        K[off:off + len(f), [s - 1 for s in u]] = f
        off += len(f)
    rng = np.random.default_rng(seed)
    X = rng.random((m, d))
    dense = np.exp(2j * np.pi * (X @ K.T))
    U = _kernels.unit_phases(X, layout.vmax)
    c = rng.normal(size=layout.n) + 1j * rng.normal(size=layout.n)
    y = rng.normal(size=m) + 1j * rng.normal(size=m)
    Fc = _kernels.fourier_forward(U, layout, c)
    Fy = _kernels.fourier_adjoint(U, layout, y)
    for got, ref in ((Fc, dense @ c), (Fy, dense.conj().T @ y)):
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    scale = np.linalg.norm(Fc) * np.linalg.norm(y) + np.linalg.norm(Fy) * np.linalg.norm(c)
    assert abs(np.vdot(y, Fc) - np.vdot(Fy, c)) <= 1e-12 * scale


@pytest.mark.parametrize("search", [{"type": "hyperbolic_cross", "N": [30] * 3},
                                    {"type": "full_grid", "N": [16, 6, 2]}])
def test_pilot_layout_groups_terms_by_remaining_axes(search):
    """U_3 on d = 9: 129 terms in 37 groups, one per set of remaining axes
    (28 pairs, 8 single axes and none for the order-1 terms)."""
    g = grouped(term_family_ds(9, 3), build_search_sets(9, 3, search))
    layout = _kernels.fourier_layout(9, [(b.term, b.freqs) for b in g.blocks])
    assert sum(len(grp.terms) for grp in layout.groups) == 129
    assert len(layout.groups) == 37


@pytest.mark.parametrize("family,search,rows", [
    ("U_3", {"type": "full_grid", "N": [16, 6, 2]}, 99),
    ("U_3", {"type": "hyperbolic_cross", "N": [30, 30, 30]}, 99),
    ("U*", {"type": "full_grid", "N": [32, 8, 4]}, 180),
    ("U*", {"type": "hyperbolic_cross", "N": [64, 64, 64]}, 198),
])
def test_phase_table_rows(family, search, rows):
    """The table keeps v = 1..V_s and v = -R_s..-1: 99 rows for the pilot
    sets on U_3 (d = 9) and 180 and 198 for the refit sets on U*, against
    sum_s 2 V_s = 144, 144, 288 and 270."""
    fam = term_family_ds(9, 3) if family == "U_3" else u_star()
    g = grouped(fam, build_search_sets(9, 3, search, family=fam))
    blocks = [(b.term, b.freqs) for b in g.blocks]
    layout = _kernels.fourier_layout(9, blocks)
    assert layout.rows == rows == _kernels.bandwidths(9, blocks)[2]
    E = next(_kernels._chunks(_kernels.unit_phases(np.zeros((5, 9)), layout.vmax),
                              layout))[2]
    assert E.shape == (rows, 5)


def test_residues_match_python_mod():
    rng = np.random.default_rng(0)
    freqs = rng.integers(-10 ** 6, 10 ** 6, size=(200, 9))
    z = rng.integers(0, 10 ** 6, size=9)
    M = 104729
    got = _kernels.residues(freqs, z, M)
    expect = np.array([sum(int(k) * int(v) for k, v in zip(row, z)) % M
                       for row in freqs])
    assert np.array_equal(got, expect)


def test_first_injective():
    base = np.array([0, 1, 2], dtype=np.int64)
    kcol = np.array([1, 2, 3], dtype=np.int64)
    # z = 1: residues (1, 3, 5) mod 7 distinct
    slot = np.empty(7, dtype=np.int32)
    mark = np.zeros(7, dtype=bool)
    pick = _kernels.first_injective(base, kcol, np.array([1], dtype=np.int64),
                                    7, slot, mark)
    assert pick == 0
    # z = 0 would clash nothing here, but duplicates must be detected:
    base2 = np.array([0, 0], dtype=np.int64)
    kcol2 = np.array([1, 3], dtype=np.int64)
    # z = 7: residues (7, 21) = (0, 0) mod 7 -> collision, then z = 1 works
    picks = _kernels.first_injective(base2, kcol2,
                                     np.array([7, 1], dtype=np.int64), 7, slot,
                                     mark)
    assert picks == 1


def _first_injective_unique(base, kcol, cands, M):
    """Reference: the np.unique candidate test the scatter/gather replaced."""
    for i, zs in enumerate(cands):
        r = (base + np.mod(kcol * (zs % M), M)) % M
        if np.unique(r).size == r.size:
            return i
    return -1


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), M=st.integers(2, 100_000),
       doomed=st.booleans())
def test_first_injective_matches_unique(seed, M, doomed):
    """Same pick as the reference on three problems run back to back on one
    slot buffer that starts with stale indices.  Candidates reach 3M and
    include multiples of M; ``doomed`` problems repeat a (base, kcol) pair,
    so every candidate collides and the pick is -1."""
    rng = np.random.default_rng(seed)
    slot = rng.integers(-1, 400, size=M).astype(np.int32)
    mark = np.zeros(M, dtype=bool)
    for _ in range(3):
        n = int(rng.integers(1, min(M + 2, 400) + 1))  # n > M: all fail
        width = int(rng.choice([M, max(2, int(np.sqrt(M))), 2]))
        base = rng.integers(0, min(width, M), size=n)
        kcol = rng.integers(0, M, size=n)
        cands = rng.integers(0, 3 * M, size=int(rng.integers(1, 40)))
        cands[rng.random(cands.size) < 0.2] = M * rng.integers(0, 3)
        clash = doomed and n >= 2
        if clash:
            base[1], kcol[1] = base[0], kcol[0]
        expect = _first_injective_unique(base, kcol, cands, M)
        assert _kernels.first_injective(base, kcol, cands, M, slot,
                                        mark) == expect
        assert expect == -1 or not clash


def _smooth(a, b, c):
    return 2 ** a * 3 ** b * 5 ** c


_FFT_LENGTHS = st.one_of(
    st.just(1),
    st.sampled_from([2, 3, 5, 7, 97, 7919, 104729]),            # primes
    st.builds(_smooth, st.integers(0, 7), st.integers(0, 4), st.integers(0, 3)),
    st.sampled_from([2 * 7919, 11 * 13 * 17, 49 * 121, 3 * 104729]),
    st.integers(2, 5000))


@settings(max_examples=80, deadline=None)
@given(M=_FFT_LENGTHS, seed=st.integers(0, 2 ** 32 - 1))
def test_lattice_fft_matches_numpy(M, seed):
    """Forward, inverse and round trip against np.fft at relative error
    1e-12 of the largest entry; the spectrum is read through
    ``spectrum_slots``, which must be a permutation of 0..M-1."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    slots = _kernels.spectrum_slots(np.arange(M), M)
    assert np.array_equal(np.sort(slots), np.arange(M))

    def rel(got, ref):
        return np.abs(got - ref).max() / np.abs(ref).max()

    spectrum = _kernels.lattice_fft(x.copy())
    assert rel(spectrum[slots], np.fft.fft(x)) <= 1e-12
    scattered = np.empty(M, dtype=np.complex128)
    scattered[slots] = x
    assert rel(_kernels.lattice_fft(scattered, inverse=True),
               M * np.fft.ifft(x)) <= 1e-12
    assert rel(_kernels.lattice_fft(spectrum, inverse=True) / M, x) <= 1e-12


def test_lattice_fft_rejects_views_it_cannot_write_in_place():
    x = np.zeros(8, dtype=np.complex128)
    for bad in (x[::2], x.real, x.reshape(2, 4)):
        with pytest.raises(ValueError, match="contiguous complex128"):
            _kernels.lattice_fft(bad)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 20000),
       planted=st.integers(0, 4), dense=st.booleans())
def test_first_injective_prefix_stages_match_unique(seed, n, planted, dense):
    """Sets beyond the first prefix stages (1024, 2048, 4096, 8192 and
    16384 entries).

    ``dense`` problems draw every kcol, so nearly every candidate collides
    within the first stage.  The others keep base distinct and kcol zero
    except at ``planted`` random positions, so a candidate collides only
    where a planted residue meets another, often in a late stage; with
    n <= M <= 3n + 1 each planted residue lands on an occupied one with
    probability n / M, at least about a third."""
    rng = np.random.default_rng(seed)
    M = int(rng.integers(max(n, 2), 3 * n + 2))
    slot = rng.integers(-1, n, size=M).astype(np.int32)
    base = rng.choice(M, size=n, replace=False).astype(np.int64)
    kcol = np.zeros(n, dtype=np.int64)
    where = rng.integers(0, n, size=n if dense else planted)
    kcol[where] = rng.integers(1, M, size=where.size)
    cands = rng.integers(0, 3 * M, size=int(rng.integers(1, 30)))
    expect = _first_injective_unique(base, kcol, cands, M)
    assert _kernels.first_injective(base, kcol, cands, M, slot,
                                    np.zeros(M, dtype=bool)) == expect


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(_kernels._PREFIX + 1, 9000),
       planted=st.integers(1, 6))
def test_first_injective_pick_ignores_entry_order(seed, n, planted):
    """The same pick as the reference after any permutation of the
    (base, kcol) pairs, the premise of the CBC search's shuffled
    representatives.  The sets span two to five prefix stages; base is
    distinct and kcol zero except at ``planted`` positions, so a collision
    falls in a late stage in one order and in the first in another.  The
    slot is uint16 with stale entries, as the search uses for n <= 65536."""
    rng = np.random.default_rng(seed)
    M = int(rng.integers(n, 3 * n + 2))
    slot = rng.integers(0, n, size=M).astype(np.min_scalar_type(n - 1))
    base = rng.choice(M, size=n, replace=False).astype(np.int64)
    kcol = np.zeros(n, dtype=np.int64)
    kcol[rng.choice(n, size=planted, replace=False)] = rng.integers(1, M, size=planted)
    cands = rng.integers(0, 3 * M, size=int(rng.integers(1, 30)))
    expect = _first_injective_unique(base, kcol, cands, M)
    mark = np.zeros(M, dtype=bool)
    for _ in range(3):
        perm = rng.permutation(n)
        assert _kernels.first_injective(base[perm], kcol[perm], cands, M,
                                        slot, mark) == expect


def _cbc_level(rng, parents, spread, load, M_max):
    """(base, kcol, M) of one CBC coordinate.

    Each of ``parents`` distinct residues has one to three children with
    distinct entries k in [-spread, spread], in shuffled order: a child
    with k = 0 stays fixed at its parent's residue, the others move.  M is
    near moving x (fixed + moving / 2) / load, the expected number of
    collisions of a random candidate being about ``load``, and at most
    ``M_max``."""
    counts = rng.integers(1, 4, size=parents)
    k = np.concatenate([rng.choice(2 * spread + 1, size=c, replace=False) - spread
                        for c in counts])
    moving = np.count_nonzero(k)
    M = int(min(M_max, max(k.size + 1, moving * (k.size - moving / 2) / load)))
    base = np.repeat(rng.choice(M, size=parents, replace=False), counts)
    perm = rng.permutation(k.size)
    return base[perm], k[perm] % M, M


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), parents=st.integers(1, 2500),
       spread=st.integers(1, 20), load=st.floats(0.05, 4.0))
def test_first_injective_matches_unique_on_cbc_levels(seed, parents, spread, load):
    """CBC-shaped problems: the fixed entries (kcol = 0) have distinct
    bases, and the moving ones, up to 7500, span one to four prefix
    stages; with M set by ``load``, some candidates pass and others collide
    with a fixed or a moving entry.  Three problems run back to back on one
    slot with stale entries and one mark array, which must be all False
    after every return."""
    rng = np.random.default_rng(seed)
    M_max = 1 << 22
    slot = rng.integers(0, 4 * parents, size=M_max).astype(np.int32)
    mark = np.zeros(M_max, dtype=bool)
    for _ in range(3):
        base, kcol, M = _cbc_level(rng, parents, spread, load, M_max)
        cands = rng.integers(0, 3 * M, size=int(rng.integers(1, 40)))
        cands[rng.random(cands.size) < 0.05] = M
        expect = _first_injective_unique(base, kcol, cands, M)
        assert _kernels.first_injective(base, kcol, cands, M, slot, mark) == expect
        assert not mark.any()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), parents=st.integers(1, 1500))
def test_first_injective_fixed_clash_fails_every_candidate(seed, parents):
    """Two fixed entries (kcol = 0) with one base collide for every z, so
    the pick is -1 as in the reference, and the marks stay all False."""
    rng = np.random.default_rng(seed)
    base, kcol, M = _cbc_level(rng, parents, 3, 0.05, 1 << 22)
    clash = np.array([base[0], base[0]])
    base = np.concatenate([base, clash])
    kcol = np.concatenate([kcol, [0, 0]])
    cands = rng.integers(0, 3 * M, size=int(rng.integers(1, 20)))
    slot = rng.integers(0, base.size, size=M).astype(np.int32)
    mark = np.zeros(M, dtype=bool)
    assert _first_injective_unique(base, kcol, cands, M) == -1
    assert _kernels.first_injective(base, kcol, cands, M, slot, mark) == -1
    assert not mark.any()
