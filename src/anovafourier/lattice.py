"""Rank-1 lattices: node generation, reconstruction property, CBC search,
and FFT-based evaluation/reconstruction.

A rank-1 lattice is the node set {(j/M) z mod 1 : j = 0..M-1}.  It is
*reconstructing* for a frequency set I when the residues k.z mod M are
pairwise distinct over I; this is equivalent to the difference-set condition
m.z != 0 mod M for all nonzero m in D(I), and makes the normal-equations
matrix F*F equal M times the identity, so least squares reduces to one
adjoint multiplication, a length-M DFT.  ``_kernels.lattice_fft`` computes
it in place as two passes of short FFTs over an M1 x M2 view of one
buffer, with O(sqrt M) work memory where one length-M ``np.fft.fft`` took
about two more M-vectors.  The spectrum stays in the transform's
transposed order: reconstruction reads only the |I| residues it needs, and
evaluation scatters into that order.  Real samples at even M stay float64
and take transforms of length M/2 on the float64 vector viewed as M/2
complex values (``_kernels.real_spectrum``, ``_kernels.real_synthesis``).
A lattice solve so holds the samples and one work vector, 38 MB of real
samples at the black-box refit's M = 2400000 (77 MB as complex ones), and
the black-box pipeline peaks at about 88 MB, where complex samples took
130 MB and one ``np.fft.fft`` per transform 240 MB.
The CBC search returns 5-smooth M only, so M splits into two factors near
sqrt M and no short FFT falls back to Bluestein's algorithm, which at
prime M took about 9 times as long.  It tests each candidate z_s on the
distinct coordinate prefixes of I in a fixed shuffled order, on prefixes
of 1024, 2048, 4096, .. of them, so most failing candidates cost O(1024).

All residue arithmetic reduces k and z modulo M before multiplying, which
keeps intermediates below 2^63 for any M < 2^31.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .anova import CoefficientMap
from .index_sets import GroupedIndexSet


def next_smooth(n: int) -> int:
    """The smallest 5-smooth integer 2^a 3^b 5^c that is >= n (1 for n <= 1).

    numpy's FFT factors such lengths into its own radix kernels; a length
    with a large prime factor takes Bluestein's algorithm instead.
    """
    if n <= 1:
        return 1
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two reaching n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


#: rows per block: ``lattice_nodes`` fills its output, and
#: ``method`` samples a target, this many rows at a time (144 KB of nodes
#: at d = 9).  Sampling the torus-shifted 9-d test function on the 2400000
#: nodes of a refit lattice took 0.82 s with blocks of 2048 rows, 0.97 s
#: with 4096, 1.14 s with 8192, 1.21 s with 16384 and 1.13-1.16 s with
#: 32768 to 65536 (medians of 9 to 24 timings), and the process peaked at
#: 72.4, 73.3, 74.7, 77.6, 83.3 and 94.4 MB (one BLAS thread, 2-CPU VM).
BLOCK_ROWS = 2048


@dataclass(frozen=True, eq=False)
class Rank1Lattice:
    z: np.ndarray
    M: int

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("lattice size must be >= 1")
        z = np.mod(np.asarray(self.z, dtype=np.int64), self.M)
        object.__setattr__(self, "z", z)

    @property
    def d(self) -> int:
        return self.z.shape[0]

    def residues(self, freqs) -> np.ndarray:
        return _kernels.residues(np.asarray(freqs, dtype=np.int64), self.z, self.M)

    def to_json_dict(self, index_set_digest: str = "") -> dict:
        return {"d": int(self.d), "M": int(self.M),
                "z": [int(v) for v in self.z],
                "index_set_digest": index_set_digest}


def lattice_nodes(lat: Rank1Lattice, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """Nodes x_j = (j/M) z mod 1 of ``lat`` for rows j = lo..hi-1 (default all M).

    Each row is frac(j * (z/M)) with float j, the same bits whichever range
    it is asked for in.  The output is filled ``BLOCK_ROWS`` rows at a time,
    so no temporary outgrows a block.
    """
    hi = lat.M if hi is None else hi
    if not 0 <= lo <= hi <= lat.M:
        raise ValueError(f"need 0 <= lo <= hi <= M = {lat.M}, got {lo}, {hi}")
    step = lat.z / lat.M
    out = np.empty((hi - lo, lat.d))
    for a in range(lo, hi, BLOCK_ROWS):
        b = min(a + BLOCK_ROWS, hi)
        x = out[a - lo:b - lo]
        np.multiply(np.arange(a, b, dtype=np.float64)[:, None], step, out=x)
        x -= np.floor(x)
    return out


def _embedded(freqs) -> np.ndarray:
    if isinstance(freqs, GroupedIndexSet):
        return freqs.embedded()
    f = np.asarray(freqs, dtype=np.int64)
    return f[None, :] if f.ndim == 1 else f


def is_reconstructing(lat: Rank1Lattice, freqs) -> bool:
    """Distinctness of k.z mod M over I (the difference-set condition)."""
    f = _embedded(freqs)
    if f.shape[0] > lat.M:
        return False  # pigeonhole
    return np.unique(lat.residues(f)).size == f.shape[0]


#: each lattice size tried is the first 5-smooth integer >= this ratio
#: times the previous one
_CBC_RATIO = 1.1
#: the search tries no lattice size above this multiple of |I|
_CBC_MAX_SCALE = 1000
#: random candidates for z_s tried per coordinate before the next lattice size
_CBC_CANDIDATES = 96
#: seed of the fixed order in which candidate tests visit the representatives
_CBC_SHUFFLE_SEED = 0


def cbc_construct(freqs, seed: int = 0, M_cap: int | None = None) -> Rank1Lattice:
    """Component-by-component search for a reconstructing rank-1 lattice.

    Candidate sizes are 5-smooth (2^a 3^b 5^c), so every lattice FFT runs
    on numpy's radix kernels rather than Bluestein's algorithm.  The first
    is the smallest 5-smooth integer >= |I|, each next one the smallest
    5-smooth integer >= ceil(``_CBC_RATIO`` x the previous), up to
    min(M_cap, ``_CBC_MAX_SCALE`` |I|).  For each M the generating vector is
    grown one coordinate at a time, drawing z_s from a seeded random
    permutation of {1, .., M-1} (capped at ``_CBC_CANDIDATES``) and keeping
    the residues injective on the distinct coordinate prefixes of I;
    exhausting a coordinate's budget advances to the next size.  The result
    is certified with :func:`is_reconstructing` before it is returned.

    A reconstructing z exists for every M > S |I|(|I| - 1)/2 + 1, S the
    largest coordinate spread of I (max_s of max k_s - min k_s): two
    distinct prefixes whose s-th entries differ by m != 0 (|m| <= S < M)
    collide for the z_s solving one congruence m z_s = c mod M, which has
    at most gcd(m, M) <= S solutions, and prefixes with equal s-th entries
    never collide.  M_cap defaults to the larger of |I|^2 and the first
    5-smooth integer above that bound.  The search tries only the scheduled
    sizes and a sample of candidates, so it may still exhaust below the
    cap; then a hard error is raised.

    Cost: testing one candidate is O(n), n the number of prefix
    representatives (<= |I|): one scatter of their indices into a slot
    array of length M and one gather back, on 1024 representatives first
    and then on prefixes twice as long, so most rejected candidates cost
    O(1024) (:func:`_kernels.first_injective`).  Each coordinate visits its
    representatives in a fixed shuffled order from a generator of its own
    (``_CBC_SHUFFLE_SEED``), not the candidates' stream.  The order cannot
    change the pick, since a collision in any subset is one in the whole
    set, but a random 1024 holds more distinct differences than the
    lexicographically first: on the black-box benchmark's two sets (seed 1)
    the tests gather 9.1M and 16.3M entries, against 15.6M and 19.7M in
    lexicographic order with prefixes growing 4 times.  Representatives
    and all-zero columns are found once, and each size keeps one residue
    per prefix group.  The slot array is allocated per lattice size, of the
    narrowest unsigned type that holds |I| - 1 (2 M bytes for
    |I| <= 65536, 4 M at most); one array kept across sizes faulted in
    fewer pages but raised the black-box pipeline's peak RSS (ROADMAP).
    """
    f = _embedded(freqs)
    n, d = f.shape
    if n == 0:
        raise ValueError("empty frequency set")
    # Rows of I with equal prefixes (k_1, .., k_s) form one group.  Per
    # coordinate s, computed once: one representative row per group, in a
    # fixed shuffled order, as its entry k_s and the place of its group of
    # (k_1, .., k_{s-1}) in coordinate s-1's order, where the search of a
    # lattice size keeps that prefix's residue.
    shuffle = np.random.Generator(np.random.Philox(_CBC_SHUFFLE_SEED))
    levels = []
    gid = np.zeros(n, dtype=np.int64)  # prefix group of each row
    place = np.zeros(1, dtype=np.int64)  # place of each group in the order
    for s in range(d):
        col = f[:, s]
        pairs = gid * (2 * np.abs(col).max() + 2) + (col - col.min())
        _, new = np.unique(pairs, return_inverse=True)
        order = shuffle.permutation(new.max() + 1)
        reps = np.unique(new, return_index=True)[1][order]
        levels.append((place[gid[reps]], f[reps, s]))
        gid, place = new, np.argsort(order)
    if gid.max() + 1 < n:  # fewer distinct full prefixes than rows
        raise ValueError("frequency set contains duplicates")
    if n == 1:
        return Rank1Lattice(np.zeros(d, dtype=np.int64), 1)
    if M_cap is None:
        spread = int(np.ptp(f, axis=0).max())
        M_cap = max(n * n, next_smooth(spread * n * (n - 1) // 2 + 2))
    M_last = min(M_cap, _CBC_MAX_SCALE * n)
    rng = np.random.Generator(np.random.Philox(seed))

    def size_schedule():
        M = next_smooth(n)
        while M <= M_last:
            yield M
            # a rounding error in 1.1 M moves ceil only where 1.1 M is an
            # integer, a multiple of 11 and so never 5-smooth: same next M
            M = next_smooth(math.ceil(_CBC_RATIO * M))

    free = [not col.any() for _, col in levels]  # z_s free; left at 0
    for M in size_schedule():
        z = np.zeros(d, dtype=np.int64)
        slot = np.empty(M, dtype=np.min_scalar_type(n - 1))  # scratch, reused
        res = np.zeros(1, dtype=np.int64)  # of the empty prefix
        for s, (parent, col) in enumerate(levels):
            base = res[parent]
            if free[s]:
                res = base
                continue
            ncand = min(_CBC_CANDIDATES, M - 1)
            if ncand == M - 1:
                cands = 1 + rng.permutation(M - 1)
            else:
                # sampling with replacement; duplicates only waste a try
                cands = rng.integers(1, M, size=ncand)
            kcol = np.mod(col, M)
            pick = _kernels.first_injective(base, kcol, cands, M, slot)
            if pick < 0:
                break
            z[s] = cands[pick]
            res = (base + kcol * z[s]) % M
        else:
            lat = Rank1Lattice(z, M)
            if is_reconstructing(lat, f):
                return lat
    raise RuntimeError(
        f"CBC search exhausted: no reconstructing lattice found with M <= {M_last}")


def lattice_evaluate(coeffs, lat: Rank1Lattice, real: bool = False) -> np.ndarray:
    """Evaluate the trigonometric polynomial at all lattice nodes via one FFT.

    ``coeffs`` is a CoefficientMap or a pair (freqs, values).  Works for any
    lattice; coefficients landing in the same residue class add up, exactly
    as the aliasing formula predicts.  The coefficients are scattered into
    the transposed order of ``_kernels.lattice_fft``, which inverts them in
    place: the result is the only length-M array.

    ``real=True`` returns the real part as float64; for even M it comes
    from one inverse transform of length M/2 in a buffer of M floats
    (``_kernels.real_synthesis``).  The imaginary part is the real part of
    the polynomial with coefficients -i c.
    """
    freqs, values = _coeff_pair(coeffs)
    r = lat.residues(freqs)
    if real and lat.M % 2 == 0:
        return _kernels.real_synthesis(r, values, lat.M)
    out = np.zeros(lat.M, dtype=np.complex128)
    np.add.at(out, _kernels.spectrum_slots(r, lat.M), values)
    _kernels.lattice_fft(out, inverse=True)
    return out.real.copy() if real else out


def lattice_reconstruct(values, index_set, lat: Rank1Lattice):
    """Approximate coefficients (1/M) sum_j p(x_j) e^(-2 pi i j (k.z)/M).

    For a polynomial supported on the index set of a reconstructing lattice
    this recovers the coefficients exactly up to roundoff (the Moore-Penrose
    solve, since F*F = M Id).  Non-reconstructing lattices are permitted;
    exactness is then void.  ``values`` is copied once into the work vector
    of the transform, and only the |I| residues read from its spectrum are
    divided by M.  Real values at even M take a float64 work vector and a
    transform of length M/2 (``_kernels.real_spectrum``); complex values or
    odd M take a complex128 one and ``_kernels.lattice_fft`` at length M.
    """
    values = np.asarray(values)
    if values.shape != (lat.M,):
        raise ValueError("need exactly M sample values")
    res = lat.residues(_embedded(index_set))
    if np.iscomplexobj(values) or lat.M % 2:
        work = _kernels.lattice_fft(np.array(values, dtype=np.complex128))
        spectrum = work[_kernels.spectrum_slots(res, lat.M)]
    else:
        spectrum = _kernels.real_spectrum(np.array(values, dtype=np.float64), res)
    coeffs = spectrum / lat.M
    if isinstance(index_set, GroupedIndexSet):
        return CoefficientMap(index_set, coeffs)
    return coeffs


def _coeff_pair(coeffs):
    if isinstance(coeffs, CoefficientMap):
        return coeffs.index_set.embedded(), coeffs.values
    freqs, values = coeffs
    return _embedded(freqs), np.asarray(values, dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class DualLatticeWindow:
    """Members of the integer dual lattice inside the cube [-K, K]^d."""

    lattice: Rank1Lattice
    K: int

    def members(self) -> np.ndarray:
        d = self.lattice.d
        axis = np.arange(-self.K, self.K + 1, dtype=np.int64)
        grids = np.meshgrid(*([axis] * d), indexing="ij")
        cube = np.stack([g.ravel() for g in grids], axis=1)
        res = self.lattice.residues(cube)
        return cube[res == 0]


def aliasing_sum(exact_coeff, k, window: DualLatticeWindow,
                 boundary_tol: float = 1e-14) -> complex:
    """Windowed dual-lattice sum sum_{h in dual, h != 0} c(k + h).

    ``exact_coeff`` maps a d-dimensional integer vector to the true Fourier
    coefficient.  Raises when dual members on the window boundary still carry
    coefficient mass above ``boundary_tol`` (window too small).
    """
    k = np.asarray(k, dtype=np.int64)
    total = 0j
    for h in window.members():
        if not np.any(h):
            continue
        c = complex(exact_coeff(k + h))
        if np.max(np.abs(h)) == window.K and abs(c) > boundary_tol:
            raise ValueError("aliasing window too small: boundary member "
                             f"{h.tolist()} carries coefficient {c!r}")
        total += c
    return total


def save_lattice(path, lat: Rank1Lattice, index_set_digest: str = "") -> None:
    with open(path, "w") as fh:
        json.dump(lat.to_json_dict(index_set_digest), fh, indent=2, sort_keys=True)
