"""Block-structured nonequispaced Fourier operator and least-squares solvers.

The system matrix F = (e^(2 pi i k.x)) over a grouped index set splits into
per-term blocks F_u that read only the coordinates x_u of each node, so the
matrix is never formed: ``forward`` accumulates block products, ``adjoint``
concatenates block adjoints.  Each block product is a tensor contraction on
per-axis tables of phase powers (``_kernels.fourier_forward`` and
``_kernels.fourier_adjoint``), the same for every kind of frequency set.
LSQR runs on top of this operator contract; for reconstructing-lattice
nodes the Moore-Penrose solve collapses to one adjoint multiplication and is
handled by :func:`lattice_solve`.

Replacing the contraction by a fast transform (a grouped NFFT) only
requires another object with the same ``forward``/``adjoint``/``shape``
surface.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .anova import CoefficientMap
from .index_sets import GroupedIndexSet
from .lattice import Rank1Lattice, is_reconstructing, lattice_evaluate, lattice_reconstruct


class NodeSet:
    """Sampling nodes in [0,1)^d.

    ``points`` is an (m, d) array, checked and kept, or a
    :class:`Rank1Lattice`, kept in its place: its M nodes are generated on
    demand, by :meth:`rows` one block at a time, or all at once by
    ``points`` (a fresh M x d array on each access).
    """

    def __init__(self, points):
        if isinstance(points, Rank1Lattice):
            self.lattice, self._points = points, None
            return
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("node coordinates must be finite")
        if pts.size and (pts.min() < 0.0 or pts.max() >= 1.0):
            raise ValueError("node coordinates must lie in [0, 1)")
        self.lattice, self._points = None, pts

    @property
    def points(self) -> np.ndarray:
        return self._points if self.lattice is None else self.lattice.nodes()

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Nodes lo..hi-1 as an (hi - lo, d) array."""
        if self.lattice is None:
            return self._points[lo:hi]
        return self.lattice.nodes(lo, hi)

    @property
    def d(self) -> int:
        return self._points.shape[1] if self.lattice is None else self.lattice.d

    def __len__(self):
        return self._points.shape[0] if self.lattice is None else self.lattice.M


def uniform_nodes(d: int, m: int, seed: int) -> NodeSet:
    """m i.i.d. uniform nodes from a counter-based generator (reproducible)."""
    if m < 1:
        raise ValueError("need at least one node")
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.random((m, d))
    return NodeSet(pts)


def lattice_nodes(lat: Rank1Lattice) -> NodeSet:
    """The M nodes of ``lat``, kept as the lattice, not as an array."""
    return NodeSet(lat)


class BlockFourierOperator:
    """Matrix-free F and F* for a node set and grouped index set.

    Each term's block only reads the coordinates x_u.  The operator computes
    the unit phases exp(2 pi i x_s) once, one cosine and sine per node and
    used axis (V_s > 0), and keeps them: 16 bytes per node and used axis.
    Per chunk of 2048 nodes, a product fills one table of phase powers
    exp(2 pi i v x_s) per axis from those phases.  A block's product is a
    matrix product on its first axis and elementwise products of table rows
    on its other axes, done once per group of terms that share those axes
    and their tuples.  A product allocates that table once (sum_s 2 V_s rows
    of 2048 complex entries, 32 KB a row), per group work arrays of the same
    width, the terms' zero-filled coefficient matrices and its result, so
    beyond the result its memory does not grow with the node count.
    """

    def __init__(self, nodes: NodeSet, index_set: GroupedIndexSet):
        if nodes.d != index_set.d:
            raise ValueError(
                f"node dimension {nodes.d} != index set dimension {index_set.d}")
        self.nodes = nodes
        self.index_set = index_set
        self._layout = _kernels.fourier_layout(
            index_set.d, [(b.term, b.freqs) for b in index_set.blocks])
        self._phases = _kernels.unit_phases(nodes.points, self._layout.vmax)

    @property
    def shape(self):
        return (len(self.nodes), len(self.index_set))

    def forward(self, coeffs) -> np.ndarray:
        """F c, accumulated over per-term blocks."""
        c = coeffs.values if isinstance(coeffs, CoefficientMap) else \
            np.asarray(coeffs, dtype=np.complex128)
        if c.shape[0] != self.shape[1]:
            raise ValueError("coefficient length mismatch")
        return _kernels.fourier_forward(self._phases, self._layout, c)

    def adjoint(self, y) -> np.ndarray:
        """F* y in canonical block order."""
        y = np.asarray(y, dtype=np.complex128)
        if y.shape[0] != self.shape[0]:
            raise ValueError("value length mismatch")
        return _kernels.fourier_adjoint(self._phases, self._layout, y)


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Least-squares solution plus convergence record.

    ``residual_norm`` is the solver's internal estimate; ``residual_check``
    recomputes ||y - F h|| from the fitted values F h, and ``imag_residual``
    is max |Im F h| of those values (both solvers record it).
    """

    coefficients: CoefficientMap
    iterations: int
    residual_norm: float
    residual_check: float
    stop_reason: str
    provenance: dict = field(default_factory=dict)
    imag_residual: float | None = None

    def to_json_dict(self) -> dict:
        return {"iterations": int(self.iterations),
                "residual_norm": float(self.residual_norm),
                "residual_check": float(self.residual_check),
                "stop_reason": self.stop_reason,
                "provenance": self.provenance}


def _sumsq(v) -> float:
    """Squared Euclidean norm by numpy's own single-threaded loop.

    BLAS dot products split long vectors across threads, which makes their
    rounding, and so every LSQR iterate, depend on the thread count.
    """
    w = np.ascontiguousarray(v).view(np.float64)
    return float(np.einsum("i,i->", w, w))


def _norm(v) -> float:
    return math.sqrt(_sumsq(v))


def _max_abs(v) -> float:
    """max |v| of a real vector, with no temporary."""
    return float(max(v.max(), -v.min()))


def lsqr(op, y, atol: float = 1e-8, btol: float = 1e-8,
         max_iter: int = 200) -> SolveReport:
    """Matrix-free LSQR (Golub-Kahan bidiagonalization) for min ||y - F h||.

    Works natively on complex operators; the bidiagonalization scalars are
    the real norms of the Lanczos vectors, so the plane rotations stay real.
    Stopping follows the standard criteria driven by (atol, btol); running
    out of iterations raises a ``RuntimeWarning`` with the stop reason, which
    ``stop_reason`` also records, and the current iterate is still returned.
    """
    y = np.asarray(y, dtype=np.complex128)
    m, n = op.shape
    x = np.zeros(n, dtype=np.complex128)

    u = y.copy()
    bnorm = beta = _norm(u)
    if beta == 0.0:
        coeffs = CoefficientMap(op.index_set, x)
        return SolveReport(coeffs, 0, 0.0, 0.0, "zero right-hand side",
                           imag_residual=0.0)
    u /= beta
    v = op.adjoint(u)
    alpha = _norm(v)
    if alpha == 0.0:
        coeffs = CoefficientMap(op.index_set, x)
        return SolveReport(coeffs, 0, beta, beta,
                           "right-hand side orthogonal to range",
                           imag_residual=0.0)
    v /= alpha
    w = v.copy()
    phibar = beta
    rhobar = alpha
    anorm2 = alpha * alpha
    stop = f"iteration limit {max_iter} reached without convergence"
    it = 0
    for it in range(1, max_iter + 1):
        u = op.forward(v) - alpha * u
        beta = _norm(u)
        if beta > 0.0:
            u /= beta
            v = op.adjoint(u) - beta * v
            alpha = _norm(v)
            if alpha > 0.0:
                v /= alpha
        anorm2 += alpha * alpha + beta * beta
        rho = math.hypot(rhobar, beta)
        c = rhobar / rho
        s = beta / rho
        theta = s * alpha
        rhobar = -c * alpha
        phi = c * phibar
        phibar = s * phibar
        x += (phi / rho) * w
        w = v - (theta / rho) * w
        rnorm = phibar
        arnorm = alpha * abs(c * phibar)
        anorm = math.sqrt(anorm2)
        xnorm = _norm(x)
        if rnorm <= btol * bnorm + atol * anorm * xnorm:
            stop = "residual tolerance reached"
            break
        if anorm * rnorm > 0 and arnorm / (anorm * rnorm) <= atol:
            stop = "normal-equations tolerance reached"
            break
    else:
        warnings.warn(f"LSQR: {stop}", RuntimeWarning, stacklevel=2)
    coeffs = CoefficientMap(op.index_set, x)
    fitted = op.forward(x)
    return SolveReport(coeffs, it, float(phibar), _norm(y - fitted), stop,
                       {"solver": "lsqr", "atol": atol, "btol": btol,
                        "max_iter": max_iter},
                       _max_abs(fitted.imag))


def lattice_solve(lat: Rank1Lattice, index_set: GroupedIndexSet, y,
                  certified: bool = False) -> SolveReport:
    """Exact least squares on reconstructing-lattice samples: h = (1/M) F* y.

    Refuses lattices that fail certification (pass ``certified=True`` to
    skip the re-check when the lattice was just certified by construction).
    Besides the samples it holds one length-M vector at a time: the
    transform's work vector, then fitted values, which become the residual
    in place.  Real samples stay float64, and every such vector is real:
    ||y - F h||^2 = ||y - Re F h||^2 + ||Im F h||^2, one part after the
    other, so at even M the solve holds 8 bytes per sample beyond them
    (16 for complex samples).
    """
    if not certified and not is_reconstructing(lat, index_set):
        raise ValueError("lattice is not reconstructing for this index set")
    y = np.asarray(y)
    y = y.astype(np.complex128 if np.iscomplexobj(y) else np.float64, copy=False)
    coeffs = lattice_reconstruct(y, index_set, lat)
    if np.iscomplexobj(y):
        fitted = lattice_evaluate(coeffs, lat)
        imag = _max_abs(fitted.imag)
        fitted -= y
        res = _norm(fitted)
    else:
        fitted = lattice_evaluate(coeffs, lat, real=True)
        fitted -= y
        sq = _sumsq(fitted)
        del fitted
        imag_part = lattice_evaluate((index_set, -1j * coeffs.values), lat, real=True)
        imag = _max_abs(imag_part)
        res = math.sqrt(sq + _sumsq(imag_part))
    return SolveReport(coeffs, 1, res, res, "direct adjoint solve",
                       {"solver": "lattice", "M": int(lat.M),
                        "z": [int(v) for v in lat.z]}, imag)
