"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Each test implements its criterion exactly at the stated tolerances and
runtime limits.  Criteria 3 and 4 still fail here and report their failure
rather than loosening the assertion: they pin the index-set cardinalities
of the paper's black-box tables (3481, 2243), which the repository's
hyperbolic cross does not produce.  Their docstrings record the cause.
Criterion 7 checks the truncation-bound evaluator against the bound's own
definition, sup 1/w(k) over the excluded frequencies, enumerated in the
test; the quoted value 8e-4 is printed beside it but not asserted, since it
is the same expression with Gamma_2 in place of Gamma_4.
"""

import math
import time
import warnings

import numpy as np
import pytest

from anovafourier import bench
from anovafourier.anova import CoefficientMap, sensitivity, term_family_ds
from anovafourier.index_sets import grouped
from anovafourier.lattice import (Rank1Lattice, cbc_construct,
                                  is_reconstructing, lattice_evaluate,
                                  lattice_nodes, lattice_reconstruct)
from anovafourier.method import (DetectionConfig, approximate,
                                 build_search_sets, detect, gap_intervals)
from anovafourier.operator import (BlockFourierOperator, NodeSet,
                                   lattice_solve, lsqr, uniform_nodes)
from anovafourier.weights import WeightParams, sobolev_trunc_bound_l2, \
    wiener_trunc_bound
from quadrature_oracles import direct_formula_check
import bench_oracles as oracles
from paper_oracles import DualLatticeWindow, aliasing_sum, support, u_plus


def report(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


# -- shared desk-scale scattered sample (criteria 5 and 6) -------------------

_SCATTER = {}


def scatter_data():
    if not _SCATTER:
        X = uniform_nodes(9, 100_000, seed=1)
        _SCATTER["X"] = X
        _SCATTER["y"] = bench.testfun_value(X.points).astype(complex)
    return _SCATTER["X"], _SCATTER["y"]


def test_criterion_01_exact_lattice_reconstruction():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(2024))
    fam = term_family_ds(9, 3)
    worst = 0.0
    count = 0
    for seed, N in enumerate([(8, 4, 2), (16, 4, 2), (32, 6, 2), (16, 6, 2)]):
        sets = build_search_sets(9, 3, {"type": "full_grid", "N": list(N)})
        g = grouped(fam, sets)
        assert len(g) <= 2000
        lat = cbc_construct(g, seed=seed)
        assert is_reconstructing(lat, g), "lattice failed certification"
        for _ in range(5):
            c = CoefficientMap(g, rng.normal(size=len(g))
                               + 1j * rng.normal(size=len(g)))
            rec = lattice_reconstruct(lattice_evaluate(c, lat), g, lat)
            err = np.linalg.norm(rec.values - c.values) / np.linalg.norm(c.values)
            worst = max(worst, err)
            count += 1
    elapsed = time.time() - t0
    ok = worst < 1e-10 and count == 20 and elapsed < 60
    report(1, ok, f"20 random polynomials recovered, worst rel l2 error "
                  f"{worst:.2e} (< 1e-10), {elapsed:.1f}s (< 60s)")
    assert worst < 1e-10
    assert elapsed < 60


def test_criterion_02_gsi_oracle_match():
    t0 = time.time()
    gsi = oracles.exact_gsi()
    worst = max(abs(gsi[u] - v) for u, v in oracles.PUBLISHED_GSI.items())
    elapsed = time.time() - t0
    ok = worst < 1e-3 and elapsed < 60
    report(2, ok, f"ten published sensitivity indices matched to "
                  f"{worst:.1e} (< 1e-3), {elapsed:.2f}s (< 60s)")
    for u, v in oracles.PUBLISHED_GSI.items():
        assert gsi[u] == pytest.approx(v, abs=1e-3)
    assert elapsed < 60


def test_criterion_03_blackbox_detection_full_scale():
    """Black-box detection on table 4 row 1 (hyperbolic cross, N = 100).

    Fails here on the pinned size and the eps band only.  The table's
    |I(U_3)| = 3481 and the band [1.4e-2, 6e-2] go together, but
    ``index_sets.hyperbolic_cross`` implements its docstring,
    prod (1+|l_s|)^(3/2) <= N, and builds 13273 frequencies (pinned by
    ``test_index_sets.py::test_hyperbolic_cross_grouped_count`` and
    ``test_cli.py::test_bench_table4_row1_cli``).  On that 3.8 times larger
    set eps_l2 = 7.71e-3 and eps_L2 = 7.72e-3, below the band; certification,
    the M range and all three gaps pass.  No cutoff of prod g(|l_s|) <= B,
    with g in {1+|l|, max(1,|l|), 2+|l|}, gives 3481 (or 2243 on U*) for
    any B, hence for no N and exponent t in prod g^t <= N.  The paper's
    definition of its black-box index sets is not in the repository, so the
    test stays as stated until it is.
    """
    t0 = time.time()
    failures = []
    fam = term_family_ds(9, 3)
    sets = build_search_sets(9, 3, {"type": "hyperbolic_cross",
                                    "N": [100, 100, 100]})
    g = grouped(fam, sets)
    size = len(g)
    if size != 3481:
        failures.append(f"|I(U_ds)| = {size} != 3481 (the cross formula "
                        f"cannot produce 3481 for any cutoff)")
    lat = cbc_construct(g, seed=1)
    certified = is_reconstructing(lat, g)
    if not certified:
        failures.append("lattice failed certification")
    if not (3481 <= lat.M):
        failures.append(f"M = {lat.M} below 3481")
    if not (size <= lat.M <= size * size):
        failures.append(f"M = {lat.M} outside [|I|, |I|^2 >= |D(I)|]")
    y = bench.testfun_value(lattice_nodes(lat)).astype(complex)
    solve = lattice_solve(lat, g, y, certified=True)
    rep = sensitivity(solve.coefficients)
    from anovafourier.method import ApproxModel
    model = ApproxModel(solve.coefficients)
    eps_l2 = float(np.linalg.norm(y - lattice_evaluate(solve.coefficients, lat))
                   / np.linalg.norm(y))
    exact = bench.testfun_coeffs(g.embedded())
    diff = float(np.sum(np.abs(exact - solve.coefficients.values) ** 2))
    nsq = bench.exact_norm_sq()
    eps_L2 = math.sqrt((nsq + diff - float(np.sum(exact ** 2))) / nsq)
    for name, eps in (("eps_l2", eps_l2), ("eps_L2", eps_L2)):
        if not 1.4e-2 <= eps <= 6.0e-2:
            failures.append(f"{name} = {eps:.2e} outside [1.4e-2, 6.0e-2]")
    gaps = gap_intervals(rep, bench.u_star(), 3)
    for j, gap in enumerate(gaps, start=1):
        if gap is None:
            failures.append(f"gap at order {j} empty")
            continue
        a, b = gap
        if not (b >= 0.019 and a <= 1e-3):
            failures.append(f"gap at order {j} = ({a:.2e}, {b:.4f}) misses "
                            f"b >= 0.019, a <= 1e-3")
    elapsed = time.time() - t0
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.0f}s >= 300s")
    detail = (f"|I| = {size}, M = {lat.M} certified, eps_l2 = {eps_l2:.2e}, "
              f"eps_L2 = {eps_L2:.2e}, gaps "
              + ", ".join("empty" if gp is None else f"({gp[0]:.1e},{gp[1]:.3f})"
                          for gp in gaps)
              + f", {elapsed:.0f}s")
    report(3, not failures, detail + ("" if not failures else
                                      f" -- {'; '.join(failures)}"))
    assert not failures, "; ".join(failures)


def test_criterion_04_blackbox_active_refinement():
    """Black-box refit on U* (hyperbolic cross, N = 10^4).

    Fails here for the cause recorded on criterion 3: the table pins
    |I(U*)| = 2243 and the band [1.2e-3, 5e-3], while the repository's
    cross builds 85927 frequencies, and the CBC search, capped at 60 |I|,
    finds no reconstructing lattice with M <= 5,155,620.  It stays as
    stated until the paper's definition of the index sets is available.
    """
    t0 = time.time()
    failures = []
    fam = bench.u_star()
    sets = build_search_sets(9, 3, {"type": "hyperbolic_cross",
                                    "N": [10 ** 4] * 3}, family=fam)
    g = grouped(fam, sets)
    size = len(g)
    if size != 2243:
        failures.append(f"|I(U*)| = {size} != 2243 (the cross formula "
                        f"cannot produce 2243 for any cutoff)")
    # A certified lattice for this 86k-frequency set needs M in the 1e9
    # range (the final CBC coordinate must separate |I|^2/2 ~ 3.7e9 residue
    # pairs); cap the search so the attempt terminates and report honestly.
    eps_l2 = None
    try:
        lat = cbc_construct(g, seed=1, M_cap=60 * size)
        y = bench.testfun_value(lattice_nodes(lat)).astype(complex)
        solve = lattice_solve(lat, g, y, certified=True)
        eps_l2 = float(np.linalg.norm(y - lattice_evaluate(solve.coefficients, lat))
                       / np.linalg.norm(y))
        if not 1.2e-3 <= eps_l2 <= 5e-3:
            failures.append(f"eps_l2 = {eps_l2:.2e} outside [1.2e-3, 5e-3]")
    except RuntimeError as exc:
        failures.append(f"no certified lattice within capped search ({exc})")
    elapsed = time.time() - t0
    if elapsed >= 600:
        failures.append(f"runtime {elapsed:.0f}s >= 600s")
    detail = (f"|I(U*)| = {size}"
              + (f", eps_l2 = {eps_l2:.2e}" if eps_l2 is not None else "")
              + f", {elapsed:.0f}s")
    report(4, not failures, detail + ("" if not failures else
                                      f" -- {'; '.join(failures)}"))
    assert not failures, "; ".join(failures)


def test_criterion_05_scattered_desk_scale():
    t0 = time.time()
    X, y = scatter_data()
    cfg = DetectionConfig(d=9, d_s=3,
                          search={"type": "full_grid", "N": [32, 8, 4]},
                          thresholds=[0.0, 0.0, 0.0],
                          sampling={"kind": "scattered"},
                          solver={"max_iter": 50})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = detect(cfg, (X, y))
    gaps = gap_intervals(res.report, bench.u_star(), 3)
    assert all(gp is not None for gp in gaps), f"empty gap among {gaps}"
    # any threshold inside the gaps recovers U* exactly; test both ends' means
    star = bench.u_star().terms
    recovered = []
    for pick in (lambda a, b: (a + b) / 2, lambda a, b: a + (b - a) * 0.05,
                 lambda a, b: a + (b - a) * 0.95):
        eps = [pick(*gp) for gp in gaps]
        active = {u for u in res.report.terms
                  if res.report.gsi(u) > eps[len(u) - 1]}
        from anovafourier.index_sets import TermFamily
        fam = TermFamily.downward_closure(9, [()] + sorted(active))
        recovered.append(fam.terms == star)
    assert all(recovered), "threshold inside gaps failed to recover U*"
    # refined fit on U*
    sets = build_search_sets(9, 3, {"type": "full_grid", "N": [32, 8, 4]},
                             family=bench.u_star())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = approximate(bench.u_star(), sets, (X, y),
                            {"kind": "scattered"}, {"max_iter": 200})
    eps_l2, eps_L2 = bench.training_error(model), bench.l2_error(model)
    elapsed = time.time() - t0
    ok = eps_L2 < 0.1 and elapsed < 900
    report(5, ok, f"gaps nonempty at all orders, U* recovered for thresholds "
                  f"inside gaps, final eps_L2 = {eps_L2:.3e} (< 0.1), "
                  f"{elapsed:.0f}s (< 900s)")
    assert eps_L2 < 0.1
    assert elapsed < 900


def test_criterion_06_truncation_floor_ds2():
    t0 = time.time()
    floor = math.sqrt(bench.exact_term_variances()[(4, 8, 9)]
                      / bench.exact_norm_sq())
    assert floor == pytest.approx(0.09362, abs=2e-5)
    X, y = scatter_data()
    # any model over U+: even exact coefficients on a huge set sit at the floor
    fam = u_plus()
    big = build_search_sets(9, 2, {"type": "full_grid", "N": [256, 64]},
                            family=fam)
    gbig = grouped(fam, big)
    from anovafourier.method import ApproxModel
    ideal = ApproxModel(CoefficientMap(
        gbig, bench.testfun_coeffs(gbig.embedded()).astype(complex)))
    ideal_L2 = bench.l2_error(ideal)
    assert ideal_L2 >= 0.0936 - 1e-3
    # desk-scale d_s = 2 run
    sets = build_search_sets(9, 2, {"type": "full_grid", "N": [32, 8]},
                             family=fam)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = approximate(fam, sets, (X, y), {"kind": "scattered"},
                            {"max_iter": 200})
    eps_l2, eps_L2 = bench.training_error(model), bench.l2_error(model)
    elapsed = time.time() - t0
    ok = (eps_L2 >= 0.0936 - 1e-3) and (0.093 <= eps_L2 <= 0.13) and elapsed < 600
    report(6, ok, f"floor = {floor:.5f}, ideal-coefficient model eps_L2 = "
                  f"{ideal_L2:.4f}, desk run eps_L2 = {eps_L2:.4f} in "
                  f"[0.093, 0.13], {elapsed:.0f}s (< 600s)")
    assert eps_L2 >= 0.0936 - 1e-3
    assert 0.093 <= eps_L2 <= 0.13
    assert elapsed < 600


def _enumerated_bound(p, d_s):
    """sup of 1/w(k) over k in {-2..2}^d with |supp k| >= d_s + 1.

    Enumerates the weight of the ``weights`` module docstring directly,
    w(k) = gamma_{supp k}^-1 (1 + ||k||_1)^alpha prod_{s in supp k}
    (1 + |k_s|)^beta.  For alpha >= 0 and beta >= 0, 1/w does not grow
    with |k_s|, so the box, which holds every k with entries in
    {-1, 0, 1}, contains the supremum over all excluded frequencies.
    """
    d = p.d
    K = np.indices((5,) * d, dtype=np.int8).reshape(d, -1) - 2
    order = np.count_nonzero(K, axis=0)
    Gamma = np.concatenate(([1.0], p.Gamma))
    inv_w = Gamma[order] * (1.0 + np.abs(K).sum(axis=0)) ** -p.alpha
    for s in range(d):
        a = np.abs(K[s]).astype(float)
        inv_w *= np.where(a > 0, p.gamma[s] * (1.0 + a) ** -p.beta, 1.0)
    return float(inv_w[order >= d_s + 1].max())


def test_criterion_07_bound_evaluator():
    s = np.arange(1, 10, dtype=float)
    p = WeightParams(0.0, 1.0, 1.0 / s, (math.sqrt(3.0) / math.pi) ** s)
    t0 = time.time()
    w = wiener_trunc_bound(p, 3)
    l2 = sobolev_trunc_bound_l2(p, 3)
    elapsed = time.time() - t0
    enumerated = _enumerated_bound(p, 3)
    hand = p.Gamma[3] * 2.0 ** -4 / 24.0   # Gamma_4 * 2^-4 * (1*1/2*1/3*1/4)
    ok = (w == l2 and w == pytest.approx(enumerated, rel=1e-12)
          and w == pytest.approx(hand, rel=1e-12))
    report(7, ok and elapsed < 1.0,
           f"bound(alpha=0, beta=1, d_s=3) = {w:.4e}, enumerated sup 1/w = "
           f"{enumerated:.4e}; quoted value 8e-4 corresponds to Gamma_2 in "
           f"place of Gamma_4 (the closed form gives Gamma_4 * 2^-4 / 24 = "
           f"2.406e-4), {elapsed:.2f}s (< 1s)")
    assert w == l2
    assert w == pytest.approx(enumerated, rel=1e-12)
    assert w == pytest.approx(hand, rel=1e-12)
    assert elapsed < 1.0


def test_criterion_08_anova_lemma_oracles():
    t0 = time.time()

    def slice_fun(X):
        return (oracles.bspline_value(2, X[:, 0]) * oracles.bspline_value(4, X[:, 1])
                * oracles.bspline_value(6, X[:, 2]))

    worst = 0.0
    from itertools import combinations
    for r in range(4):
        for u in combinations((1, 2, 3), r):
            worst = max(worst, direct_formula_check(slice_fun, u, 3, grid=64))
    # coefficient-partition property on [-8, 8]^3
    from itertools import product
    counts = {}
    for k in product(range(-8, 9), repeat=3):
        counts[support(k)] = counts.get(support(k), 0) + 1
    total = sum(counts.values())
    partition_ok = total == 17 ** 3 and counts[()] == 1 and \
        all(counts[u] == 16 ** len(u) for u in counts)
    elapsed = time.time() - t0
    ok = worst < 1e-8 and partition_ok and elapsed < 120
    report(8, ok, f"direct-formula residual {worst:.1e} (< 1e-8) over all "
                  f"u in P({{1,2,3}}), cube partition verified, "
                  f"{elapsed:.0f}s (< 120s)")
    assert worst < 1e-8
    assert partition_ok
    assert elapsed < 120


def test_criterion_09_aliasing_identity():
    t0 = time.time()
    lat = Rank1Lattice(np.array([1, 3]), 9)
    planted = {(0, 0): 1.0 + 0.5j, (0, 3): 0.25 - 0.125j, (1, 1): 0.75}

    def exact(k):
        return planted.get(tuple(int(v) for v in k), 0.0)

    freqs = np.array(list(planted))
    vals = np.array([planted[tuple(k)] for k in freqs])
    samples = lattice_evaluate((freqs, vals), lat)
    I = np.array([[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)])
    rec = lattice_reconstruct(samples, I, lat)
    window = DualLatticeWindow(lat, 4)
    worst = 0.0
    for i, k in enumerate(I):
        expect = exact(k) + aliasing_sum(exact, k, window)
        worst = max(worst, abs(rec[i] - expect))
    elapsed = time.time() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    report(9, ok, f"planted-coefficient aliasing identity holds to "
                  f"{worst:.1e} (< 1e-12), {elapsed:.2f}s (< 1s)")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_10_solver_cross_validation():
    t0 = time.time()
    rng = np.random.Generator(np.random.Philox(99))
    fam = term_family_ds(3, 2)
    sets = build_search_sets(3, 2, {"type": "full_grid", "N": [4, 4]})
    g = grouped(fam, sets)  # 37 unknowns; pad nodes to a 50 x 40-scale system
    worst_dense = 0.0
    for trial in range(3):
        X = uniform_nodes(3, 50, seed=trial)
        op = BlockFourierOperator(X, g)
        dense = np.exp(2j * np.pi * (X.points @ g.embedded().T))
        y = rng.normal(size=50) + 1j * rng.normal(size=50)
        it = lsqr(op, y, atol=1e-12, btol=1e-12, max_iter=500)
        ne = np.linalg.solve(dense.conj().T @ dense, dense.conj().T @ y)
        worst_dense = max(worst_dense,
                          float(np.linalg.norm(it.coefficients.values - ne)
                                / np.linalg.norm(ne)))
    lat = cbc_construct(g, seed=0)
    op = BlockFourierOperator(NodeSet(lattice_nodes(lat)), g)
    target = rng.normal(size=len(g)) + 1j * rng.normal(size=len(g))
    y = op.forward(target)
    direct = lattice_solve(lat, g, y)
    iterative = lsqr(op, y, atol=1e-12, btol=1e-12, max_iter=500)
    gap = float(np.linalg.norm(direct.coefficients.values
                               - iterative.coefficients.values))
    elapsed = time.time() - t0
    ok = worst_dense < 1e-8 and gap < 1e-8 and elapsed < 60
    report(10, ok, f"LSQR vs dense normal equations {worst_dense:.1e} "
                   f"(< 1e-8), LSQR vs direct lattice solve {gap:.1e} "
                   f"(< 1e-8), {elapsed:.0f}s (< 60s)")
    assert worst_dense < 1e-8
    assert gap < 1e-8
    assert elapsed < 60
