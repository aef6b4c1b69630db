import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anovafourier.index_sets import (DEFAULT_AXIS_CAP, GroupedIndexSet,
                                     LowDimIndexSet, TermFamily,
                                     diff_cardinality_bound, difference_set,
                                     embed, family_cardinality, full_grid,
                                     grouped, hyperbolic_cross,
                                     is_downward_closed, weighted_index_set)
from anovafourier.anova import term_family_ds


def test_embed_examples():
    assert embed((1, 3), (2, -1), 3).tolist() == [2, 0, -1]
    assert embed((), (), 4).tolist() == [0, 0, 0, 0]
    assert embed((2,), (5,), 2).tolist() == [0, 5]


def test_embed_rejects_out_of_range():
    with pytest.raises(ValueError):
        embed((0,), (1,), 3)
    with pytest.raises(ValueError):
        embed((4,), (1,), 3)
    with pytest.raises(ValueError):
        embed((2, 1), (1, 1), 3)


def test_full_grid_examples():
    s = full_grid((1,), 4)
    assert sorted(s.freqs.ravel().tolist()) == [-2, -1, 1]
    assert len(full_grid((1, 2), 4)) == 9
    assert len(full_grid((1, 2, 3), 16)) == 15 ** 3


def test_full_grid_rejects_odd():
    with pytest.raises(ValueError):
        full_grid((1,), 5)


def test_hyperbolic_cross_1d():
    s = hyperbolic_cross((1,), 100)
    vals = sorted(s.freqs.ravel().tolist())
    assert vals == [v for v in range(-20, 21) if v != 0]


def test_hyperbolic_cross_empty_at_small_cutoff():
    assert len(hyperbolic_cross((1, 2), 1)) == 0


def test_hyperbolic_cross_symmetric():
    s = hyperbolic_cross((1, 2), 50)
    f = set(map(tuple, s.freqs.tolist()))
    assert f == {tuple(-np.array(v)) for v in f}


def test_hyperbolic_cross_grouped_count():
    # With the product-form cutoff prod (1+|l_s|)^(3/2) <= 100 on all three
    # orders the grouped set over U_{3} in d = 9 has 13273 frequencies
    # (1 + 9*40 + 36*116 + 84*104).  The originating experiment reports 3481
    # for this configuration, which no cutoff of this family reproduces; the
    # acceptance suite records that discrepancy.
    fam = term_family_ds(9, 3)
    sets = {u: (hyperbolic_cross(u, 100) if u else
                LowDimIndexSet((), np.zeros((1, 0), np.int64)))
            for u in fam.sorted_terms()}
    g = grouped(fam, sets)
    assert len(g) == 1 + 9 * 40 + 36 * 116 + 84 * 104 == 13273


def test_weighted_index_set_matches_hyperbolic():
    w = lambda k: float(np.prod((1.0 + np.abs(k[k != 0])) ** 1.5)) if np.any(k) else 1.0
    s = weighted_index_set((1,), w, 100.0, d=1)
    ref = hyperbolic_cross((1,), 100)
    assert np.array_equal(s.freqs, ref.freqs)


def test_weighted_index_set_l1_examples():
    w = lambda k: 1.0 + float(np.abs(k).sum())
    s = weighted_index_set((1,), w, 3.0, d=1)
    assert sorted(s.freqs.ravel().tolist()) == [-2, -1, 1, 2]
    s2 = weighted_index_set((1, 2), w, 3.0, d=2)
    assert sorted(map(tuple, s2.freqs.tolist())) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def test_weighted_index_set_cap_errors():
    w = lambda k: 1.0  # never grows: enumeration would not terminate
    with pytest.raises(ValueError):
        weighted_index_set((1,), w, 2.0, d=1, axis_cap=100)


def test_grouped_small_example():
    fam = TermFamily.from_terms(2, [(), (1,), (2,)])
    s1 = LowDimIndexSet((1,), np.array([[-1], [1]]))
    s2 = LowDimIndexSet((2,), np.array([[-1], [1]]))
    g = grouped(fam, {(): LowDimIndexSet((), np.zeros((1, 0), np.int64)),
                      (1,): s1, (2,): s2})
    assert len(g) == 5
    emb = g.embedded()
    assert len(np.unique(emb, axis=0)) == 5  # disjoint blocks


def test_grouped_paper_full_grid_counts():
    fam = term_family_ds(9, 3)
    for N, expect in (((256, 32, 8), 65704), ((512, 64, 16), 430984)):
        sets = {(): LowDimIndexSet((), np.zeros((1, 0), np.int64))}
        for u in fam.sorted_terms():
            if u:
                sets[u] = full_grid(u, N[len(u) - 1])
        assert len(grouped(fam, sets)) == expect


def test_grouped_missing_block():
    fam = TermFamily.from_terms(2, [(), (1,)])
    with pytest.raises(ValueError):
        grouped(fam, {(): LowDimIndexSet((), np.zeros((1, 0), np.int64))})


def test_family_not_downward_closed_rejected():
    with pytest.raises(ValueError):
        TermFamily.from_terms(3, [(), (1, 2)])


def test_difference_set_examples():
    assert difference_set(np.array([[0, 0]])).tolist() == [[0, 0]]
    I = np.array(list(itertools.product((-1, 0, 1), repeat=2)))
    D = difference_set(I)
    assert len(D) == 25
    assert set(map(tuple, D.tolist())) == set(
        itertools.product(range(-2, 3), repeat=2))


def test_family_cardinality():
    exact, bound = family_cardinality(9, 3)
    assert exact == 130
    assert bound == pytest.approx((3 * np.e) ** 3)
    assert bound > exact
    assert family_cardinality(9, 2)[0] == 46


def test_family_cardinality_brute_force():
    for d in (2, 5, 8, 12):
        for d_s in range(1, d + 1):
            count = sum(1 for r in range(d_s + 1)
                        for _ in itertools.combinations(range(d), r))
            assert family_cardinality(d, d_s)[0] == count


def test_diff_cardinality_bound_example():
    fam = TermFamily.from_terms(1, [(), (1,)])
    sets = {(): LowDimIndexSet((), np.zeros((1, 0), np.int64)),
            (1,): LowDimIndexSet((1,), np.array([[-1], [1]]))}
    fine, coarse = diff_cardinality_bound(fam, sets)
    assert fine == 7          # 1*1 + (2*1 + 2*2)
    assert coarse == 16       # 2^1 * 2 * 4
    g = grouped(fam, sets)
    actual = len(difference_set(g.embedded()))
    assert actual == 5
    assert actual <= fine <= coarse


@given(st.integers(2, 3), st.sampled_from([2, 4, 6]))
@settings(max_examples=12, deadline=None)
def test_bound_ordering_union_closed_product_sets(d, N):
    # The per-pair union covers a cross difference k - h only when a family
    # member contains supp(k) u supp(v) together with the product of the two
    # blocks, so the ordering is exercised where it genuinely holds: the
    # full power set with equal-bandwidth full grids.
    fam = term_family_ds(d, d)
    sets = {(): LowDimIndexSet((), np.zeros((1, 0), np.int64))}
    for u in fam.sorted_terms():
        if u:
            sets[u] = full_grid(u, N)
    g = grouped(fam, sets)
    fine, coarse = diff_cardinality_bound(fam, sets)
    actual = len(difference_set(g.embedded()))
    assert actual <= fine <= coarse


def test_fine_bound_misses_incomparable_cross_differences():
    # Documented boundary: differences between blocks with incomparable
    # supports can escape the per-pair union (no family member contains
    # both), so the summed bound is not universal.  Three singleton blocks
    # of +-{1..5} produce 3 * 100 distinct cross differences while the
    # summed bound only counts 3 * 10 * 11 same-support products.
    fam = TermFamily.from_terms(3, [(), (1,), (2,), (3,)])
    axis = np.array([[v] for v in (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)])
    sets = {(): LowDimIndexSet((), np.zeros((1, 0), np.int64)),
            (1,): LowDimIndexSet((1,), axis),
            (2,): LowDimIndexSet((2,), axis),
            (3,): LowDimIndexSet((3,), axis)}
    g = grouped(fam, sets)
    fine, coarse = diff_cardinality_bound(fam, sets)
    actual = len(difference_set(g.embedded()))
    assert actual > fine


def test_partition_of_cube_by_support():
    # mapping k -> supp(k) partitions [-K,K]^3 into the per-term classes
    from anovafourier.anova import support
    K = 8
    counts = {}
    for k in itertools.product(range(-K, K + 1), repeat=3):
        counts[support(k)] = counts.get(support(k), 0) + 1
    assert sum(counts.values()) == (2 * K + 1) ** 3
    assert counts[()] == 1
    for u, c in counts.items():
        assert c == (2 * K) ** len(u) * 1  # (2K)^{|u|} choices of nonzero entries


def test_blocks_disjoint_randomized():
    rng = np.random.default_rng(3)
    for _ in range(10):
        d = int(rng.integers(2, 6))
        fam = term_family_ds(d, min(3, d))
        sets = {(): LowDimIndexSet((), np.zeros((1, 0), np.int64))}
        for u in fam.sorted_terms():
            if u:
                n = int(rng.integers(1, 5))
                f = rng.integers(1, 5, size=(n, len(u))) * rng.choice((-1, 1), size=(n, len(u)))
                sets[u] = LowDimIndexSet(u, f)
        g = grouped(fam, sets)
        emb = g.embedded()
        assert len(np.unique(emb, axis=0)) == len(emb)


def test_difference_set_symmetry_property():
    rng = np.random.default_rng(9)
    for _ in range(10):
        I = np.unique(rng.integers(-6, 7, size=(12, 2)), axis=0)
        D = difference_set(I)
        s = set(map(tuple, D.tolist()))
        assert (0, 0) in s
        assert all((-a, -b) in s for a, b in s)


def test_canonical_block_order_and_json_round_trip():
    fam = term_family_ds(3, 2)
    sets = {(): LowDimIndexSet((), np.zeros((1, 0), np.int64))}
    for u in fam.sorted_terms():
        if u:
            sets[u] = full_grid(u, 4)
    g = grouped(fam, sets)
    terms = [b.term for b in g.blocks]
    assert terms == sorted(terms, key=lambda t: (len(t), t))
    for b in g.blocks:
        f = b.freqs
        assert all(tuple(f[i]) <= tuple(f[i + 1]) for i in range(len(f) - 1))
    doc = g.to_json_dict()
    g2 = GroupedIndexSet.from_json_dict(doc)
    assert np.array_equal(g.embedded(), g2.embedded())
    assert g.digest() == g2.digest()


def test_zero_entry_rejected():
    with pytest.raises(ValueError):
        LowDimIndexSet((1, 2), np.array([[1, 0]]))


def test_is_downward_closed_helper():
    assert is_downward_closed([(), (1,), (2,), (1, 2)])
    assert not is_downward_closed([(1, 2)])
