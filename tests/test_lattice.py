import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anovafourier.anova import CoefficientMap, term_family_ds
from anovafourier.bench import u_star
from anovafourier.index_sets import (LowDimIndexSet, difference_set, full_grid,
                                     grouped)
from anovafourier.lattice import (BLOCK_ROWS, DualLatticeWindow, Rank1Lattice,
                                  aliasing_sum, cbc_construct,
                                  is_reconstructing, lattice_evaluate,
                                  lattice_nodes, lattice_reconstruct, next_smooth,
                                  save_lattice)
from anovafourier.method import build_search_sets


def cube(K, d=2):
    return np.array(list(itertools.product(range(-K, K + 1), repeat=d)))


def test_nodes_examples():
    lat = Rank1Lattice(np.array([1]), 4)
    assert np.allclose(lattice_nodes(lat).ravel(), [0, 0.25, 0.5, 0.75])
    lat2 = Rank1Lattice(np.array([1, 3]), 9)
    assert np.allclose(lattice_nodes(lat2)[2], [2 / 9, 6 / 9])
    assert np.allclose(lattice_nodes(lat2)[0], 0.0)
    # coordinates are rationals with denominator M
    scaled = lattice_nodes(lat2) * 9
    assert np.max(np.abs(scaled - np.round(scaled))) < 1e-12


def _nodes_whole_array(lat):
    """Reference: the one-shot formula, frac(j * (z/M)) on all M rows."""
    j = np.arange(lat.M, dtype=np.float64)[:, None]
    x = j * (lat.z[None, :] / lat.M)
    return x - np.floor(x)


@st.composite
def lattice_ranges(draw):
    M = draw(st.integers(1, 3 * BLOCK_ROWS + 100))
    z = draw(st.lists(st.integers(0, 10 ** 12), min_size=1, max_size=4))
    lo = draw(st.integers(0, M))
    hi = draw(st.integers(lo, M))
    return Rank1Lattice(np.array(z), M), lo, hi


@settings(max_examples=60, deadline=None)
@given(lattice_ranges())
@example((Rank1Lattice(np.array([1, 3]), 9), 4, 4))  # empty range
@example((Rank1Lattice(np.array([7, 11, 13]), 2 * BLOCK_ROWS + 5),
          BLOCK_ROWS - 3, 2 * BLOCK_ROWS + 5))  # crosses blocks, short last one
@example((Rank1Lattice(np.array([730020, 2]), 730021), 730021 - 3 * BLOCK_ROWS, 730021))
def test_nodes_range_matches_whole_array(case):
    """lattice_nodes(lat, lo, hi) is rows lo..hi-1 of lattice_nodes(lat),
    bit for bit, and both are the one-shot formula's bits."""
    lat, lo, hi = case
    whole = _nodes_whole_array(lat)
    assert np.array_equal(lattice_nodes(lat), whole)
    part = lattice_nodes(lat, lo, hi)
    assert part.shape == (hi - lo, lat.d)
    assert np.array_equal(part, whole[lo:hi])


@pytest.mark.parametrize("lo,hi", [(-1, 3), (4, 3), (0, 10)])
def test_nodes_range_rejects_bad_bounds(lo, hi):
    with pytest.raises(ValueError, match="lo <= hi <= M"):
        lattice_nodes(Rank1Lattice(np.array([1, 3]), 9), lo, hi)


def test_is_reconstructing_examples():
    I = cube(1)
    assert is_reconstructing(Rank1Lattice(np.array([1, 3]), 9), I)
    assert not is_reconstructing(Rank1Lattice(np.array([1, 1]), 9), I)
    # pigeonhole: |I| > M
    assert not is_reconstructing(Rank1Lattice(np.array([1, 3]), 8), I)


def test_reconstruction_condition_equivalence():
    # residue injectivity on I <=> difference-set condition, exhaustively
    I = cube(1)
    D = difference_set(I)
    for M in (5, 7, 9, 11, 13):
        for z1 in range(M):
            for z2 in range(M):
                lat = Rank1Lattice(np.array([z1, z2]), M)
                res_inj = is_reconstructing(lat, I)
                diff_ok = all((m @ lat.z) % M != 0
                              for m in D if np.any(m))
                assert res_inj == diff_ok


def _is_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(-5, 10 ** 6))
@example(1)
@example(7)
@example(2 ** 20 + 1)
@example(730021)
def test_next_smooth_matches_brute_force(n):
    """next_smooth(n) is 5-smooth, >= n, and no 5-smooth integer lies in
    [n, next_smooth(n))."""
    m = next_smooth(n)
    assert _is_smooth(m) and m >= n
    assert not any(_is_smooth(k) for k in range(max(n, 1), m))


def test_cbc_trivial_zero_set():
    lat = cbc_construct(np.zeros((1, 3), dtype=np.int64))
    assert lat.M == 1
    assert np.all(lat.z == 0)


def test_cbc_single_axis_set():
    freqs = np.array([[-1, 0], [0, 0], [1, 0]])
    lat = cbc_construct(freqs, seed=0)
    assert lat.M >= 3
    assert is_reconstructing(lat, freqs)


def test_cbc_random_grouped_roundtrip():
    rng = np.random.default_rng(2)
    fam = term_family_ds(9, 3)
    sets = build_search_sets(9, 3, {"type": "full_grid", "N": [8, 4, 2]})
    g = grouped(fam, sets)
    assert len(g) <= 2000
    lat = cbc_construct(g, seed=5)
    assert _is_smooth(lat.M) and len(g) <= lat.M
    assert is_reconstructing(lat, g)
    c = CoefficientMap(g, rng.normal(size=len(g)) + 1j * rng.normal(size=len(g)))
    rec = lattice_reconstruct(lattice_evaluate(c, lat), g, lat)
    err = np.linalg.norm(rec.values - c.values) / np.linalg.norm(c.values)
    assert err < 1e-10


def test_cbc_pins_blackbox_lattices():
    """Seed-1 CBC picks on table 4 row 1's cross and on the N = 1000 refit
    set of U*, as used by the black-box benchmark: any change to the search
    or its candidate test that moves a pick fails here."""
    cross = lambda N: {"type": "hyperbolic_cross", "N": [N, N, N]}
    pilot = grouped(term_family_ds(9, 3), build_search_sets(9, 3, cross(100)))
    refit = grouped(u_star(), build_search_sets(9, 3, cross(1000), u_star()))
    assert (len(pilot), len(refit)) == (13273, 11167)
    lat = cbc_construct(pilot, seed=1)
    assert lat.M == 729000
    assert lat.z.tolist() == [271779, 97994, 59988, 550496, 81699,
                              670062, 682861, 315983, 716046]
    lat = cbc_construct(refit, seed=1)
    assert lat.M == 2400000
    assert lat.z.tolist() == [1175016, 1873752, 273513, 648944, 2216931,
                              2342464, 1570403, 694029, 642722]


def test_cbc_default_cap_reaches_past_the_spread():
    """Every M <= |I|^2 = 4 divides 60 - 0, so a cap of |I|^2 alone
    exhausts on {0, 60}; the default cap reaches past the spread.  On
    {0, 6} the composite M = 4 reconstructs (z = 1)."""
    freqs = np.array([[0], [6]])
    lat = cbc_construct(freqs)
    assert lat.M == 4 and is_reconstructing(lat, freqs)
    freqs = np.array([[0], [60]])
    with pytest.raises(RuntimeError, match="M <= 4$"):
        cbc_construct(freqs, M_cap=4)
    lat = cbc_construct(freqs)
    assert lat.M == 8 and is_reconstructing(lat, freqs)


def test_cbc_duplicate_frequencies_rejected():
    """Adjacent and non-adjacent duplicate rows, and a one-column set."""
    for freqs in ([[1, 0], [1, 0]],
                  [[2, -1, 3], [0, 0, 0], [5, 1, -3], [2, -1, 3], [2, -1, 4]],
                  [[4], [-1], [0], [-1]]):
        with pytest.raises(ValueError, match="duplicates"):
            cbc_construct(np.array(freqs))


def test_lattice_evaluate_constant():
    fam = term_family_ds(2, 1)
    sets = build_search_sets(2, 1, {"type": "full_grid", "N": [4]})
    g = grouped(fam, sets)
    vals = np.zeros(len(g), dtype=complex)
    vals[g.block_slices()[()]] = 1.0
    lat = cbc_construct(g, seed=0)
    out = lattice_evaluate(CoefficientMap(g, vals), lat)
    assert np.allclose(out, 1.0, atol=1e-12)


def test_lattice_evaluate_single_residue_mode():
    lat = Rank1Lattice(np.array([1, 3]), 9)
    # a single coefficient at k with k.z = 1 mod M gives e^(2 pi i j / M)
    freqs = np.array([[1, 0]])
    out = lattice_evaluate((freqs, np.array([1.0 + 0j])), lat)
    j = np.arange(9)
    assert np.allclose(out, np.exp(2j * np.pi * j / 9), atol=1e-12)


def test_lattice_evaluate_matches_naive():
    rng = np.random.default_rng(3)
    freqs = np.unique(rng.integers(-6, 7, size=(30, 3)), axis=0)
    coeffs = rng.normal(size=len(freqs)) + 1j * rng.normal(size=len(freqs))
    lat = Rank1Lattice(np.array([1, 5, 7]), 17)
    fast = lattice_evaluate((freqs, coeffs), lat)
    naive = np.exp(2j * np.pi * (lattice_nodes(lat) @ freqs.T)) @ coeffs
    assert np.linalg.norm(fast - naive) / np.linalg.norm(naive) < 1e-11


def test_lattice_evaluate_sums_colliding_residues():
    # k.z mod 5 = 0, 2, 2, 4: the two middle coefficients share a class
    lat = Rank1Lattice(np.array([1, 2]), 5)
    freqs = np.array([[0, 0], [2, 0], [0, 1], [2, 1]])
    coeffs = np.array([1 + 1j, 2, 3, -1j])
    assert np.array_equal(lat.residues(freqs), [0, 2, 2, 4])
    out = lattice_evaluate((freqs, coeffs), lat)
    dense = np.exp(2j * np.pi * (lattice_nodes(lat) @ freqs.T)) @ coeffs
    assert np.max(np.abs(out - dense)) < 1e-12
    classes = np.fft.fft(out) / lat.M
    assert np.allclose(classes, [1 + 1j, 0, 5, 0, -1j], rtol=0, atol=1e-12)


def test_lattice_reconstruct_constant_samples():
    fam = term_family_ds(2, 1)
    sets = build_search_sets(2, 1, {"type": "full_grid", "N": [4]})
    g = grouped(fam, sets)
    lat = cbc_construct(g, seed=1)
    rec = lattice_reconstruct(np.full(lat.M, 2.5, dtype=complex), g, lat)
    mean_slice = g.block_slices()[()]
    assert rec.values[mean_slice][0] == pytest.approx(2.5)
    others = np.delete(rec.values, mean_slice)
    assert np.max(np.abs(others)) < 1e-12


def test_exact_reconstruction_many_random_polynomials():
    rng = np.random.default_rng(11)
    fam = term_family_ds(9, 3)
    sets = build_search_sets(9, 3, {"type": "full_grid", "N": [6, 4, 2]})
    g = grouped(fam, sets)
    lat = cbc_construct(g, seed=0)
    assert is_reconstructing(lat, g)
    for _ in range(5):
        c = CoefficientMap(g, rng.normal(size=len(g)) + 1j * rng.normal(size=len(g)))
        rec = lattice_reconstruct(lattice_evaluate(c, lat), g, lat)
        assert np.linalg.norm(rec.values - c.values) < 1e-10 * np.linalg.norm(c.values)


@settings(max_examples=60, deadline=None)
@given(a=st.integers(0, 6), b=st.integers(0, 3), c=st.integers(0, 3),
       d=st.integers(1, 4), n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
@example(a=1, b=0, c=0, d=1, n=1, seed=0)  # M = 2: transforms of length 1
def test_real_samples_match_the_complex_path(a, b, c, d, n, seed):
    """On random lattices of even and odd 5-smooth M, reconstruction from
    real samples agrees with reconstruction from the same samples as
    complex128, and ``real=True`` evaluation with the real part of the
    complex evaluation, to 1e-14 of the largest value.  Even M takes the
    half-length transforms."""
    M = 2 ** a * 3 ** b * 5 ** c
    rng = np.random.default_rng(seed)
    lat = Rank1Lattice(rng.integers(0, M, size=d), M)
    freqs = rng.integers(-20, 21, size=(n, d))
    y = rng.standard_normal(M)
    got = lattice_reconstruct(y, freqs, lat)
    ref = lattice_reconstruct(y.astype(np.complex128), freqs, lat)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
    coeffs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    got = lattice_evaluate((freqs, coeffs), lat, real=True)
    ref = lattice_evaluate((freqs, coeffs), lat).real
    assert got.dtype == np.float64
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_dual_window_members():
    lat = Rank1Lattice(np.array([1, 3]), 9)
    members = DualLatticeWindow(lat, 4).members()
    assert all((m @ lat.z) % 9 == 0 for m in members)
    assert any(np.array_equal(m, [0, 3]) for m in members)  # 3*3 = 9 = 0 mod 9


def test_aliasing_identity_planted():
    # planted coefficient at (0,3) shifts the reconstructed mean exactly
    lat = Rank1Lattice(np.array([1, 3]), 9)
    I = cube(1)
    coeff = {(0, 0): 1.0, (0, 3): 0.25}

    def exact(k):
        return coeff.get(tuple(int(v) for v in k), 0.0)

    all_freqs = np.array(list(coeff.keys()))
    all_vals = np.array(list(coeff.values()), dtype=complex)
    samples = lattice_evaluate((all_freqs, all_vals), lat)
    rec = lattice_reconstruct(samples, I, lat)
    k0 = [i for i, k in enumerate(I) if tuple(k) == (0, 0)][0]
    window = DualLatticeWindow(lat, 4)
    alias = aliasing_sum(exact, np.array([0, 0]), window)
    assert rec[k0] == pytest.approx(1.0 + 0.25, abs=1e-12)
    assert alias == pytest.approx(0.25, abs=1e-14)
    assert rec[k0] == pytest.approx(exact((0, 0)) + alias, abs=1e-12)


def test_aliasing_zero_for_in_set_polynomials():
    fam = term_family_ds(2, 2)
    sets = build_search_sets(2, 2, {"type": "full_grid", "N": [4, 4]})
    g = grouped(fam, sets)
    lat = cbc_construct(g, seed=2)
    emb = {tuple(k): i for i, k in enumerate(g.embedded())}

    rng = np.random.default_rng(0)
    vals = rng.normal(size=len(g)) + 1j * rng.normal(size=len(g))

    def exact(k):
        idx = emb.get(tuple(int(v) for v in k))
        return 0.0 if idx is None else vals[idx]

    window = DualLatticeWindow(lat, 6)
    assert abs(aliasing_sum(exact, np.array([0, 0]), window)) < 1e-12


def test_aliasing_window_too_small_flagged():
    lat = Rank1Lattice(np.array([1, 3]), 9)
    window = DualLatticeWindow(lat, 3)

    def exact(k):  # boundary dual member (3, 0)? has |k|_inf = 3 -> mass on edge
        return 1.0

    with pytest.raises(ValueError):
        aliasing_sum(exact, np.array([0, 0]), window)


def test_lattice_json_round_trip(tmp_path):
    lat = Rank1Lattice(np.array([3, 14, 15]), 97)
    p = tmp_path / "lat.json"
    save_lattice(p, lat, "digest123")
    with open(p) as fh:
        doc = json.load(fh)
    assert doc == {"d": 3, "M": 97, "z": [3, 14, 15],
                   "index_set_digest": "digest123"}
