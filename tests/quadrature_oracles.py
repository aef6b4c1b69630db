"""Quadrature oracles for the ANOVA tests (dyadic tensor grids, d <= 4).

They validate the projection and term identities independently of the
coefficient path of ``anovafourier.anova``.
"""

from itertools import combinations, product

import numpy as np

from anovafourier.index_sets import validate_term


def _grid_samples(sampler, d, grid):
    if grid & (grid - 1):
        raise ValueError("grid resolution must be a power of two")
    if d > 4:
        raise ValueError("quadrature oracle is limited to d <= 4")
    axes = [np.arange(grid) / grid] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return np.asarray(sampler(pts), dtype=np.complex128).reshape((grid,) * d)


def _fft_coeffs(samples):
    # rectangle rule: c_hat[l] = mean over grid of f(x) e^{-2 pi i l.x}
    return np.fft.fftn(samples) / samples.size


def quadrature_projection(sampler, u, d, grid=64) -> dict:
    """Rectangle-rule Fourier coefficients of the projection P_u f.

    Returns a dict mapping |u|-dimensional integer tuples l (within the grid
    window in each axis) to the approximate coefficient of P_u f.  Exact to
    roundoff for trigonometric polynomials within the grid bandwidth.
    """
    u = validate_term(u, d)
    c = _fft_coeffs(_grid_samples(sampler, d, grid))
    half = grid // 2
    out = {}
    rng = range(-half, half)
    for l in product(rng, repeat=len(u)):
        idx = [0] * d
        for coord, v in zip(u, l):
            idx[coord - 1] = v % grid
        out[tuple(l)] = complex(c[tuple(idx)])
    return out


def direct_formula_check(sampler, u, d, grid=64) -> float:
    """Max pointwise gap between two constructions of the ANOVA term f_u.

    Route (a): alternating sum over v subset u of (-1)^(|u|-|v|) P_v f with the
    projections realized as grid means over the complementary axes.
    Route (b): keep exactly the sampled coefficients whose support equals u
    and evaluate back on the grid.  Both routes operate on the same samples,
    so the discrepancy isolates the combinatorial identities.
    """
    u = validate_term(u, d)
    samples = _grid_samples(sampler, d, grid)

    # route (a): alternating sum of projections, broadcast over the x_u grid
    acc = np.zeros_like(samples)
    for r in range(len(u) + 1):
        for v in combinations(u, r):
            comp = tuple(i for i in range(d) if (i + 1) not in v)
            proj = samples.mean(axis=comp, keepdims=True)
            acc += ((-1) ** (len(u) - len(v))) * proj
    # route (b): coefficient rule of the term series
    c = np.fft.fftn(samples) / samples.size
    half = grid // 2
    freq_axis = np.fft.fftfreq(grid, d=1.0 / grid).astype(int)
    keep = np.ones_like(c, dtype=bool)
    for axis in range(d):
        shape = [1] * d
        shape[axis] = grid
        nz = (freq_axis != 0).reshape(shape)
        if (axis + 1) in u:
            keep &= nz
        else:
            keep &= ~nz
    term_vals = np.fft.ifftn(np.where(keep, c, 0)) * samples.size
    return float(np.max(np.abs(acc - term_vals)))
