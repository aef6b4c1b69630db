import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anovafourier import _kernels
from anovafourier.anova import CoefficientMap, term_family_ds
from anovafourier.index_sets import (GroupedIndexSet, LowDimIndexSet,
                                     TermFamily, empty_term_set, grouped)
from anovafourier.lattice import cbc_construct, lattice_nodes
from anovafourier.method import build_search_sets
from anovafourier.operator import (BlockFourierOperator, NodeSet,
                                   lattice_solve, lsqr, uniform_nodes)


def make_system(d=3, d_s=2, N=(4, 4), m=50, seed=5):
    fam = term_family_ds(d, d_s)
    sets = build_search_sets(d, d_s, {"type": "full_grid", "N": list(N)})
    g = grouped(fam, sets)
    X = uniform_nodes(d, m, seed=seed)
    op = BlockFourierOperator(X, g)
    dense = np.exp(2j * np.pi * (X.points @ g.embedded().T))
    return g, X, op, dense


def test_forward_constant_coefficient():
    g, X, op, dense = make_system()
    c = np.zeros(len(g), dtype=complex)
    c[g.block_slices()[()]] = 1.0
    assert np.allclose(op.forward(c), 1.0, atol=1e-13)


def test_forward_at_origin_sums_coefficients():
    fam = term_family_ds(2, 2)
    sets = build_search_sets(2, 2, {"type": "full_grid", "N": [4, 4]})
    g = grouped(fam, sets)
    X = NodeSet(np.zeros((1, 2)))
    op = BlockFourierOperator(X, g)
    rng = np.random.default_rng(0)
    c = rng.normal(size=len(g)) + 1j * rng.normal(size=len(g))
    assert op.forward(c)[0] == pytest.approx(np.sum(c), abs=1e-10)


def test_forward_adjoint_match_dense():
    rng = np.random.default_rng(1)
    g, X, op, dense = make_system()
    c = rng.normal(size=len(g)) + 1j * rng.normal(size=len(g))
    y = rng.normal(size=50) + 1j * rng.normal(size=50)
    assert np.linalg.norm(op.forward(c) - dense @ c) < 1e-12 * np.linalg.norm(dense @ c)
    ref = dense.conj().T @ y
    assert np.linalg.norm(op.adjoint(y) - ref) < 1e-12 * np.linalg.norm(ref)


def test_adjoint_single_sample_at_origin():
    fam = term_family_ds(2, 1)
    sets = build_search_sets(2, 1, {"type": "full_grid", "N": [4]})
    g = grouped(fam, sets)
    op = BlockFourierOperator(NodeSet(np.zeros((1, 2))), g)
    a = op.adjoint(np.array([1.0 + 0j]))
    assert np.allclose(a, 1.0, atol=1e-13)


def test_adjoint_all_ones_on_reconstructing_lattice():
    fam = term_family_ds(2, 1)
    sets = build_search_sets(2, 1, {"type": "full_grid", "N": [4]})
    g = grouped(fam, sets)
    lat = cbc_construct(g, seed=0)
    op = BlockFourierOperator(NodeSet(lattice_nodes(lat)), g)
    a = op.adjoint(np.ones(lat.M, dtype=complex)) / lat.M
    sl = g.block_slices()[()]
    assert a[sl][0] == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(np.delete(a, sl))) < 1e-12


def test_adjoint_consistency_probes():
    rng = np.random.default_rng(7)
    g, X, op, dense = make_system(m=40)
    for _ in range(100):
        a = rng.normal(size=len(g)) + 1j * rng.normal(size=len(g))
        y = rng.normal(size=40) + 1j * rng.normal(size=40)
        lhs = np.vdot(y, op.forward(a))
        rhs = np.vdot(op.adjoint(y), a)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_block_additivity():
    rng = np.random.default_rng(9)
    g, X, op, dense = make_system()
    c = rng.normal(size=len(g)) + 1j * rng.normal(size=len(g))
    total = np.zeros(len(X), dtype=complex)
    slices = g.block_slices()
    for b in g.blocks:
        masked = np.zeros_like(c)
        masked[slices[b.term]] = c[slices[b.term]]
        total += op.forward(masked)
    assert np.linalg.norm(total - op.forward(c)) < 1e-10 * np.linalg.norm(total)


def test_lsqr_plant_and_recover():
    rng = np.random.default_rng(3)
    g, X, op, dense = make_system(m=80)
    target = rng.normal(size=len(g)) + 1j * rng.normal(size=len(g))
    y = op.forward(target)
    rep = lsqr(op, y, atol=1e-12, btol=1e-12, max_iter=200)
    assert np.linalg.norm(rep.coefficients.values - target) < 1e-8 * np.linalg.norm(target)


def test_lsqr_orthogonal_rhs():
    g, X, op, dense = make_system(m=60)
    rng = np.random.default_rng(4)
    y = rng.normal(size=60) + 1j * rng.normal(size=60)
    # project y onto the orthogonal complement of range(F)
    q, _ = np.linalg.qr(dense)
    y_perp = y - q @ (q.conj().T @ y)
    rep = lsqr(op, y_perp, atol=1e-10, btol=1e-10, max_iter=300)
    assert np.linalg.norm(rep.coefficients.values) < 1e-6
    assert rep.residual_check == pytest.approx(np.linalg.norm(y_perp), rel=1e-6)
    # a zero y, and one that F* maps to exactly zero (here the constant term
    # alone against values summing to 0), stop before the first iteration
    # with h = 0 and the report of every other stop
    const = BlockFourierOperator(uniform_nodes(2, 6, seed=1),
                                 GroupedIndexSet(2, (empty_term_set(),)))
    for early_op, early_y, stop in [
            (op, np.zeros(60), "zero right-hand side"),
            (const, np.array([1.0, -1.0, 1.0, -1.0, 2.0, -2.0]),
             "right-hand side orthogonal to range")]:
        early = lsqr(early_op, early_y, atol=1e-10, btol=1e-10, max_iter=300)
        assert (early.stop_reason, early.iterations) == (stop, 0)
        assert not early.coefficients.values.any()
        assert early.residual_check == pytest.approx(np.linalg.norm(early_y))
        assert early.imag_residual == 0.0
        assert early.provenance.keys() == rep.provenance.keys()


def test_lsqr_vs_dense_normal_equations():
    rng = np.random.default_rng(5)
    g, X, op, dense = make_system(m=50)  # 50 x 37 here; full rank tall
    y = rng.normal(size=50) + 1j * rng.normal(size=50)
    rep = lsqr(op, y, atol=1e-12, btol=1e-12, max_iter=500)
    ne = np.linalg.solve(dense.conj().T @ dense, dense.conj().T @ y)
    assert np.linalg.norm(rep.coefficients.values - ne) < 1e-8 * np.linalg.norm(ne)


def test_lsqr_residual_monotone():
    rng = np.random.default_rng(6)
    g, X, op, dense = make_system(m=70)
    y = rng.normal(size=70) + 1j * rng.normal(size=70)
    norms = []
    for it in range(1, 12):
        rep = lsqr(op, y, atol=0.0, btol=0.0, max_iter=it)
        norms.append(rep.residual_check)
    assert all(a >= b - 1e-10 for a, b in zip(norms, norms[1:]))


def test_lsqr_iteration_limit_warning_points_at_its_caller():
    rng = np.random.default_rng(6)
    g, X, op, dense = make_system(m=70)
    y = rng.normal(size=70) + 1j * rng.normal(size=70)
    with pytest.warns(RuntimeWarning, match="iteration limit 2") as caught:
        lsqr(op, y, atol=0.0, btol=0.0, max_iter=2)
    assert caught[0].filename == __file__


def test_lsqr_report_residual_consistency():
    rng = np.random.default_rng(8)
    g, X, op, dense = make_system(m=64)
    y = rng.normal(size=64) + 1j * rng.normal(size=64)
    rep = lsqr(op, y, atol=1e-10, btol=1e-10, max_iter=300)
    assert rep.residual_norm == pytest.approx(rep.residual_check, rel=1e-6)
    doc = rep.to_json_dict()
    assert doc["stop_reason"] == rep.stop_reason


@pytest.mark.parametrize("consistent", [False, True])
@pytest.mark.parametrize("ntol", [1e-2, 1e-4, None])
def test_lsqr_records_its_stop_and_condition_estimate(consistent, ntol):
    """The recorded normal-equations ratio is within ntol when that test
    stopped the fit, and acond lies between 1 and sqrt(|I| k) cond_2(F), k
    the iterations: ||F||_F <= sqrt(|I|) ||F||_2, and ||D_k||_F <=
    sqrt(k) / sigma_min(F) (Paige and Saunders 1982)."""
    rng = np.random.default_rng(9)
    g, X, op, dense = make_system(m=400)
    c = rng.normal(size=len(g)) + 1j * rng.normal(size=len(g))
    y = dense @ c if consistent else rng.normal(size=400) + 1j * rng.normal(size=400)
    rep = lsqr(op, y, max_iter=300, ntol=ntol)
    prov = rep.provenance
    assert prov["ntol"] == (prov["atol"] if ntol is None else ntol)
    if rep.stop_reason == "normal-equations tolerance reached":
        assert prov["ne_ratio"] <= prov["ntol"]
    else:
        assert rep.stop_reason == "residual tolerance reached"
        assert consistent or ntol is None
    sigma = np.linalg.svd(dense, compute_uv=False)
    assert 1.0 <= prov["acond"] <= np.sqrt(len(g) * rep.iterations) * sigma[0] / sigma[-1]
    assert prov["anorm"] <= np.linalg.norm(dense) * (1 + 1e-12)


def test_lattice_solve_matches_lsqr():
    rng = np.random.default_rng(10)
    fam = term_family_ds(3, 2)
    sets = build_search_sets(3, 2, {"type": "full_grid", "N": [4, 2]})
    g = grouped(fam, sets)
    lat = cbc_construct(g, seed=1)
    target = rng.normal(size=len(g)) + 1j * rng.normal(size=len(g))
    op = BlockFourierOperator(NodeSet(lattice_nodes(lat)), g)
    y = op.forward(target)
    direct = lattice_solve(lat, g, y)
    iterative = lsqr(op, y, atol=1e-12, btol=1e-12, max_iter=400)
    assert direct.iterations == 1
    assert np.linalg.norm(direct.coefficients.values - iterative.coefficients.values) < 1e-8
    assert np.linalg.norm(direct.coefficients.values - target) < 1e-10


@st.composite
def grouped_sets(draw):
    """Random downward-closed families of up to order 3 in 1..4 dimensions,
    each term with up to 8 distinct frequencies of entries +-1..+-9."""
    d = draw(st.integers(1, 4))
    axes = st.lists(st.integers(1, d), min_size=1, max_size=3, unique=True)
    terms = draw(st.lists(axes.map(lambda a: tuple(sorted(a))), max_size=4))
    fam = TermFamily.downward_closure(d, [()] + terms)
    value = st.integers(1, 9).flatmap(lambda a: st.sampled_from([a, -a]))
    blocks = []
    for u in fam.sorted_terms():
        if not u:
            blocks.append(LowDimIndexSet((), np.zeros((1, 0))))
            continue
        rows = draw(st.lists(st.tuples(*[value] * len(u)), max_size=8, unique=True))
        blocks.append(LowDimIndexSet(u, np.array(rows, dtype=np.int64)))
    return GroupedIndexSet(d, tuple(blocks))


@settings(max_examples=60, deadline=None)
@given(grouped_sets(), st.integers(1, 300), st.integers(0, 2 ** 32 - 1))
def test_forward_blockwise_linear_random_sets(g, m, seed):
    """F(a c1 + b c2) = a F c1 + b F c2, and F c is the sum of its per-term
    block products, on random grouped sets and node counts."""
    rng = np.random.default_rng(seed)
    op = BlockFourierOperator(NodeSet(rng.random((m, g.d))), g)
    c1, c2 = (rng.normal(size=len(g)) + 1j * rng.normal(size=len(g)) for _ in "12")
    a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    tol = 1e-12 * np.sqrt(m) * (np.sum(np.abs(a * c1)) + np.sum(np.abs(b * c2)) + 1)
    combo = op.forward(a * c1 + b * c2)
    assert np.linalg.norm(combo - (a * op.forward(c1) + b * op.forward(c2))) <= tol
    total = np.zeros(m, dtype=complex)
    for sl in g.block_slices().values():
        part = np.zeros_like(c1)
        part[sl] = c1[sl]
        total += op.forward(part)
    assert np.linalg.norm(total - op.forward(c1)) <= tol


@settings(max_examples=40, deadline=None)
@given(grouped_sets(), st.integers(0, 2 ** 32 - 1))
def test_lattice_solve_matches_lsqr_random_sets(g, seed):
    """On a CBC lattice for a random grouped set, the one-FFT solve is the
    least-squares solution LSQR finds, for data inside and outside the range."""
    rng = np.random.default_rng(seed)
    # an explicit cap: the default |I|^2 can lie below every prime that
    # divides none of the set's differences (I = {0, 6} in d = 1 needs M = 5)
    lat = cbc_construct(g, seed=seed % 1000, M_cap=10 ** 6)
    op = BlockFourierOperator(NodeSet(lattice_nodes(lat)), g)
    y = rng.normal(size=lat.M) + 1j * rng.normal(size=lat.M)
    direct = lattice_solve(lat, g, y)
    iterative = lsqr(op, y, atol=1e-12, btol=1e-12, max_iter=50)
    ref = np.linalg.norm(direct.coefficients.values) + 1e-300
    assert np.linalg.norm(direct.coefficients.values
                          - iterative.coefficients.values) <= 1e-9 * ref
    assert direct.residual_norm == pytest.approx(iterative.residual_check, rel=1e-9,
                                                 abs=1e-12 * np.linalg.norm(y))


def _odd_reconstructing(g, M, rng):
    from anovafourier.lattice import Rank1Lattice, is_reconstructing
    while True:
        lat = Rank1Lattice(rng.integers(1, M, size=g.d), M)
        if is_reconstructing(lat, g):
            return lat


@pytest.mark.parametrize("odd", [False, True])
def test_lattice_solve_real_samples_keep_the_exact_residual(odd):
    """Real samples and the same samples as complex128 give the same
    residual norm and max |Im F h|, at even M (half-length transforms) and
    odd M.  The full grid {-4..3} is not closed under negation, so Im F h
    of real data is far from zero and enters the residual."""
    from anovafourier.lattice import lattice_evaluate
    g = grouped(term_family_ds(3, 2),
                build_search_sets(3, 2, {"type": "full_grid", "N": [8, 4]}))
    rng = np.random.default_rng(4)
    lat = _odd_reconstructing(g, 3 ** 5 * 5 ** 2, rng) if odd else cbc_construct(g, seed=3)
    assert lat.M % 2 == odd
    y = rng.standard_normal(lat.M)
    real = lattice_solve(lat, g, y)
    cplx = lattice_solve(lat, g, y.astype(np.complex128))
    imag = np.abs(lattice_evaluate(cplx.coefficients, lat).imag).max()
    assert imag > 0.01
    assert cplx.imag_residual == imag
    assert real.imag_residual == pytest.approx(imag, rel=1e-12)
    assert real.residual_norm == pytest.approx(cplx.residual_norm, rel=1e-12)
    assert real.residual_norm == real.residual_check
    ref = cplx.coefficients.values
    assert np.abs(real.coefficients.values - ref).max() <= 1e-14 * np.abs(ref).max()


def test_lattice_solve_rejects_uncertified():
    from anovafourier.lattice import Rank1Lattice
    fam = term_family_ds(2, 2)
    sets = build_search_sets(2, 2, {"type": "full_grid", "N": [4, 4]})
    g = grouped(fam, sets)
    bad = Rank1Lattice(np.array([1, 1]), 11)
    with pytest.raises(ValueError):
        lattice_solve(bad, g, np.zeros(11, dtype=complex))


def test_uniform_nodes_reproducible():
    a = uniform_nodes(4, 1000, seed=42)
    b = uniform_nodes(4, 1000, seed=42)
    c = uniform_nodes(4, 1000, seed=43)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_uniform_nodes_statistics():
    m = 40000
    X = uniform_nodes(3, m, seed=7).points
    assert abs(X.mean() - 0.5) < 5 / np.sqrt(m)
    assert X.min() >= 0.0 and X.max() < 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nodeset_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        NodeSet(np.array([[bad, 0.5]]))


def test_uniform_nodes_rejects_zero():
    with pytest.raises(ValueError):
        uniform_nodes(2, 0, seed=0)


@pytest.mark.parametrize("m,half", [(2048, 2048), (2049, 1025), (12000, 6000),
                                    (17000, 8500)])
def test_products_split_nodes_into_balanced_halves(m, half, monkeypatch):
    """Beyond one chunk of nodes, half A is the first ceil(m/2) nodes and
    half B the rest, and without a helper the forward also runs the two
    halves."""
    g, _, op, _ = make_system(m=m)
    assert op._half == half
    widths, kernel = [], _kernels.fourier_forward

    def forward(U, *args, **kwargs):
        widths.append(U.shape[1])
        return kernel(U, *args, **kwargs)
    monkeypatch.setattr(_kernels, "fourier_forward", forward)
    op.forward(np.ones(len(g)))
    assert widths == ([half, m - half] if half < m else [m])


def test_operator_dimension_mismatch():
    fam = term_family_ds(3, 1)
    sets = build_search_sets(3, 1, {"type": "full_grid", "N": [4]})
    g = grouped(fam, sets)
    with pytest.raises(ValueError):
        BlockFourierOperator(uniform_nodes(2, 5, seed=0), g)
    op = BlockFourierOperator(uniform_nodes(3, 5, seed=0), g)
    with pytest.raises(ValueError):
        op.forward(np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        op.adjoint(np.zeros(4, dtype=complex))



_SOLVE_PEAK = """
import json
import sys
import numpy as np
from anovafourier.anova import term_family_ds
from anovafourier.index_sets import grouped
from anovafourier.lattice import Rank1Lattice
from anovafourier.method import build_search_sets
from anovafourier.operator import lattice_solve

def status_kb(key):
    with open("/proc/self/status") as fh:
        return next(int(ln.split()[1]) for ln in fh if ln.startswith(key))

M = int(sys.argv[2])
g = grouped(term_family_ds(2, 1),
            build_search_sets(2, 1, {"type": "full_grid", "N": [8]}))
lat = Rank1Lattice(np.array([1, 17]), M)
y = np.full(M, 1.0 + 0.5j if sys.argv[1] == "complex" else 1.0)
y[::3] = 2.0
start = status_kb("VmRSS:")
report = lattice_solve(lat, g, y)
print(json.dumps({"M": M, "rise": (status_kb("VmHWM:") - start) * 1024,
                  "residual": report.residual_norm}))
"""


def _solve_peak(samples, M=10 ** 6):
    """Run ``_SOLVE_PEAK`` on M "complex" or "real" samples in a fresh
    interpreter: it keeps earlier tests' allocations out of the peak, read as
    VmHWM (``ru_maxrss`` would carry the forking process's peak across
    ``exec``).  Returns (peak rise per sample in bytes, residual norm)."""
    proc = subprocess.run([sys.executable, "-c", _SOLVE_PEAK, samples, str(M)],
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["rise"] / out["M"], out["residual"]


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmRSS from /proc")
def test_lattice_solve_peak_memory_per_sample():
    """At the 5-smooth M = 10^6, one lattice solve (certification, the
    transform, the evaluation and the residual) raises the peak RSS over the
    RSS it starts from by at most ``method._LATTICE_BYTES_PER_SAMPLE`` per
    sample, the figure the memory check charges a whole lattice stage.

    The solve holds one length-M vector besides the samples (16 bytes per
    sample, 16.7 measured); the check allows two.  A solve through one
    out-of-place ``np.fft.fft`` and a scaled copy of its result rose by
    49 bytes per sample.  The samples exist before the solve starts."""
    from anovafourier.method import _LATTICE_BYTES_PER_SAMPLE
    per_sample, residual = _solve_peak("complex")
    assert np.isfinite(residual)
    assert per_sample <= _LATTICE_BYTES_PER_SAMPLE, \
        f"peak rose {per_sample:.1f} bytes per sample"
    assert per_sample <= 2 * 16, f"peak rose {per_sample:.1f} bytes per sample"


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmRSS from /proc")
def test_lattice_solve_peak_memory_per_real_sample():
    """The same solve on float64 samples holds one float64 length-M vector
    at a time (8 bytes per sample, 9.0 measured): the half-length transform's
    work vector, then Re F h, then Im F h.  At most 12 bytes per sample."""
    per_sample, residual = _solve_peak("real")
    assert np.isfinite(residual)
    assert per_sample <= 12, f"peak rose {per_sample:.1f} bytes per sample"


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmRSS from /proc")
def test_lattice_solve_peak_memory_per_real_sample_at_odd_M():
    """At odd M (here 5^9) there is no half-length transform, so real
    samples take one complex evaluation: one complex128 length-M vector,
    16 bytes per sample (16.8 measured).  Evaluating Re F h and Im F h as
    two full transforms, each with a float64 copy, rose by 24.7.  At most
    20 bytes per sample."""
    per_sample, residual = _solve_peak("real", 5 ** 9)
    assert np.isfinite(residual)
    assert per_sample <= 20, f"peak rose {per_sample:.1f} bytes per sample"
