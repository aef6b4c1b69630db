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

Replacing the contraction by a fast transform (a grouped NFFT) requires
another object with the surface that :func:`lsqr` uses: ``forward``,
``adjoint``, ``shape``, ``dtype`` (the precision of the products, which the
report records), ``index_set`` (the solution's ``CoefficientMap`` is built
on it) and ``helped()``, a context manager that LSQR's iterations run in
and that may do nothing.
"""

from __future__ import annotations

import ctypes
import math
import os
import sys
import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .anova import CoefficientMap
from .index_sets import GroupedIndexSet
from .lattice import Rank1Lattice, is_reconstructing, lattice_evaluate, lattice_reconstruct


class NodeSet:
    """Sampling nodes in [0,1)^d: an (m, d) array, checked and kept."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("node coordinates must be finite")
        if pts.size and (pts.min() < 0.0 or pts.max() >= 1.0):
            raise ValueError("node coordinates must lie in [0, 1)")
        self.points = pts

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def __len__(self):
        return self.points.shape[0]


def uniform_nodes(d: int, m: int, seed: int) -> NodeSet:
    """m i.i.d. uniform nodes from a counter-based generator (reproducible)."""
    if m < 1:
        raise ValueError("need at least one node")
    rng = np.random.Generator(np.random.Philox(seed))
    pts = rng.random((m, d))
    return NodeSet(pts)


class BlockFourierOperator:
    """Matrix-free F and F* for a node set and grouped index set.

    Each term's block only reads the coordinates x_u.  The operator computes
    the unit phases exp(2 pi i x_s) once, one cosine and sine per node and
    used axis (V_s > 0), and keeps them at ``dtype``: 16 bytes per node and
    used axis at complex128, 8 at complex64.  Per chunk of 2048 nodes, a
    product fills one table of phase powers exp(2 pi i v x_s) per axis from
    those phases: v = 1..V_s, V_s the largest |k_s|, and v = -R_s..-1, R_s
    the largest |k_s| of the terms of order >= 2 (the order-1 terms read
    their negative values as conjugates).  A block's product is a matrix
    product on its first axis and elementwise products of table rows on its
    other axes, done once per group of terms that share those axes and
    their tuples.  A product allocates that table once (sum_s (V_s + R_s)
    rows of 2048 entries, 32 KB a row at complex128), per group work arrays
    of the same width, the terms' zero-filled coefficient matrices and its
    result, so beyond the result its memory does not grow with the node
    count.

    The products run at the precision of the phases: the table, the
    coefficient matrices and the work arrays take ``dtype``, which halves
    their bytes at complex64, while inputs and results stay complex128.  A
    complex64 product agrees with complex128 to a few 1e-7 relative;
    ``method._products`` decides which dtype a fit's products take.

    On more than 2048 nodes, the first ceil(m/2) nodes are half A and the
    rest half B, each taken in chunks from its own start; the split depends
    only on the node count.  Both products always run the two halves, and
    the adjoint is F_A* y_A + F_B* y_B, in that order, so a product has the
    same bits whether one process computes both halves or ``helped`` lets a
    second one compute half B.
    """

    def __init__(self, nodes: NodeSet, index_set: GroupedIndexSet,
                 dtype=np.complex128):
        if nodes.d != index_set.d:
            raise ValueError(
                f"node dimension {nodes.d} != index set dimension {index_set.d}")
        self.nodes = nodes
        self.index_set = index_set
        self._layout = _kernels.fourier_layout(
            index_set.d, [(b.term, b.freqs) for b in index_set.blocks])
        self._phases = _kernels.unit_phases(nodes.points, self._layout.vmax, dtype)
        m = len(nodes)
        self._half = (m + 1) // 2 if m > _kernels._NODES else m
        self._helper = None

    @property
    def shape(self):
        return (len(self.nodes), self._layout.n)

    @property
    def dtype(self) -> np.dtype:
        """The precision the products run at: that of the unit phases."""
        return self._phases.dtype

    @contextmanager
    def helped(self):
        """Within the block, a forked helper process computes half B of
        every product while this process computes half A, both at one BLAS
        thread, when ``_helper_runs`` allows it and a process can be
        started; otherwise the products run as always, with the same bits."""
        helper = None
        if self._helper is None and _helper_runs(len(self.nodes)):
            try:
                helper = self._helper = _Helper(self._phases[:, self._half:],
                                                self._layout)
            except OSError:  # no process or shared memory to spare
                pass
        try:
            yield
        finally:
            if helper is not None:
                self._helper = None
                helper.close()

    def forward(self, coeffs) -> np.ndarray:
        """F c, accumulated over per-term blocks."""
        c = coeffs.values if isinstance(coeffs, CoefficientMap) else \
            np.asarray(coeffs, dtype=np.complex128)
        if c.shape[0] != self.shape[1]:
            raise ValueError("coefficient length mismatch")
        U, layout, h = self._phases, self._layout, self._half
        if h == self.shape[0]:
            return _kernels.fourier_forward(U, layout, c)
        out = np.empty(self.shape[0], dtype=np.complex128)
        if self._helper is not None:
            self._helper.coeffs[:] = c
            self._helper.request(b"f")
        _kernels.fourier_forward(U[:, :h], layout, c, out=out[:h])
        if self._helper is None:
            _kernels.fourier_forward(U[:, h:], layout, c, out=out[h:])
        else:
            self._helper.wait()
            out[h:] = self._helper.values
        return out

    def adjoint(self, y) -> np.ndarray:
        """F* y in canonical block order: half A's part plus half B's."""
        y = np.asarray(y, dtype=np.complex128)
        if y.shape[0] != self.shape[0]:
            raise ValueError("value length mismatch")
        U, layout, h = self._phases, self._layout, self._half
        if h == y.shape[0]:
            return _kernels.fourier_adjoint(U, layout, y)
        if self._helper is None:
            out = _kernels.fourier_adjoint(U[:, :h], layout, y[:h])
            out += _kernels.fourier_adjoint(U[:, h:], layout, y[h:])
            return out
        self._helper.values[:] = y[h:]
        self._helper.request(b"a")
        out = _kernels.fourier_adjoint(U[:, :h], layout, y[:h])
        self._helper.wait()
        out += self._helper.adjoint
        return out


def _helper_runs(m: int) -> bool:
    """Whether the products on m nodes get a helper inside ``lsqr``: fork
    exists, there are two chunks or more, this process may run on two CPUs
    or more, and the products can pin numpy's OpenBLAS to one thread
    (``_kernels._OPENBLAS``; two BLAS thread pools spinning on two CPUs
    made a fit more than twice as slow).  A process with a second
    thread, where a fork is unsafe, and a daemonic ``multiprocessing``
    worker, which may not start a process, get none."""
    if not hasattr(os, "fork") or m <= _kernels._NODES \
            or threading.active_count() > 1:
        return False
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.current_process().daemon:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return cpus >= 2 and _kernels._OPENBLAS is not None


#: bytes per node that a scattered stage holds at its peak besides the nodes
#: and the operator's unit phases: the values, LSQR's vector u, a product's
#: result and the residual.  From 20k to 80k nodes (d = 9), traced peaks of
#: `detect` and `approximate` grew by 35 to 63.8 bytes per node beyond
#: 8 d + 16 d_used on five index sets; rounded up to 4 complex values.
_SCATTERED_BYTES_PER_NODE = 64


def scattered_fit_bytes(index_set: GroupedIndexSet, m: int,
                        dtype=np.complex128) -> int:
    """Bytes that an LSQR fit on m nodes, its products at ``dtype``, holds
    at its peak, estimated.

    Per node the coordinates (8 d bytes), the operator's unit phases (one
    entry per used axis) and ``_SCATTERED_BYTES_PER_NODE``; the phase table
    of one node chunk; four length-|I| LSQR vectors.  When LSQR's products
    get a helper process, also its own chunk table and the shared vectors:
    two of length |I| and half B's floor(m/2) values.  Phases and tables
    take 16 bytes an entry at complex128 and 8 at complex64; the vectors
    are complex128 at either.
    """
    vmax, _, rows = _kernels.bandwidths(
        index_set.d, [(b.term, b.freqs) for b in index_set.blocks])
    entry = np.dtype(dtype).itemsize
    per_node = 8 * index_set.d + entry * int(np.count_nonzero(vmax)) \
        + _SCATTERED_BYTES_PER_NODE
    table = entry * rows * min(m, _kernels._NODES)
    n = len(index_set)
    need = m * per_node + table + 4 * 16 * n
    if _helper_runs(m):
        need += table + 16 * (2 * n + m // 2)
    return need


#: seconds that closing a helper waits for it to exit before terminating it
_JOIN_S = 10.0


class _Helper:
    """A forked process that computes one half of an operator's products.

    It inherits the half's unit phases ``U`` and the layout from the fork,
    and so computes at their dtype.  ``coeffs`` (a forward's input),
    ``values`` (half B of a forward's output or of an adjoint's input) and
    ``adjoint`` (half B's adjoint) are complex128 views of one shared
    anonymous ``mmap``, like the products' inputs and results; a request
    names the product, and the reply says that its output is written.
    """

    def __init__(self, U, layout):
        import mmap
        import multiprocessing
        ctx = multiprocessing.get_context("fork")
        n, mb = layout.n, U.shape[1]
        buf = np.frombuffer(mmap.mmap(-1, 16 * (2 * n + mb)), dtype=np.complex128)
        self.coeffs, self.values, self.adjoint = buf[:n], buf[n:n + mb], buf[n + mb:]
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_serve, daemon=True, args=(
            child, self._conn, U, layout, self.coeffs, self.values, self.adjoint))
        self._proc.start()
        child.close()

    def request(self, product: bytes) -> None:
        self._conn.send_bytes(product)

    def wait(self) -> None:
        try:
            self._conn.recv_bytes()
        except EOFError:
            raise RuntimeError(f"Fourier product helper (pid {self._proc.pid}) "
                               "exited") from None

    def close(self) -> None:
        """End the helper: it exits on the end of its pipe."""
        self._conn.close()
        self._proc.join(_JOIN_S)
        if self._proc.is_alive():
            self._proc.terminate()
            self._proc.join()


def _serve(conn, parent_end, U, layout, coeffs, values, adjoint) -> None:
    """The helper's loop: one half-B product per request until the pipe
    ends.  It leaves through ``os._exit``, so it never flushes the stdio
    buffers or runs the exit handlers it inherited."""
    code = 1
    try:
        parent_end.close()
        while True:
            try:
                product = conn.recv_bytes()
            except EOFError:
                break
            if product == b"f":
                _kernels.fourier_forward(U, layout, coeffs, out=values)
            else:
                _kernels.fourier_adjoint(U, layout, values, out=adjoint)
            conn.send_bytes(b"")
        code = 0
    finally:
        os._exit(code)


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
         max_iter: int = 200, ntol: float | None = None) -> SolveReport:
    """Matrix-free LSQR (Golub-Kahan bidiagonalization) for min ||y - F h||.

    Works natively on complex operators; the bidiagonalization scalars are
    the real norms of the Lanczos vectors, so the plane rotations stay real.
    It stops on the first of two tests (Paige and Saunders 1982, section 6):

    * residual: ||r|| <= btol ||y|| + atol ||F|| ||h||, which ends a fit of
      (nearly) consistent data;
    * normal equations: ||F* r|| / (||F|| ||r||) <= ntol (``None`` means
      ``atol``), which ends a least-squares fit once h has stopped moving
      the residual.

    The report's provenance records, beside the tolerances, the dtype of
    the operator's products (``products``: ``residual_check`` and
    ``imag_residual`` come from its last forward, so at complex64 they hold
    to single precision), the last normal-equations ratio (``ne_ratio``),
    LSQR's running estimate of ||F||, sqrt of the sum of the squared
    bidiagonal entries (``anorm``), and its condition estimate ``acond`` =
    ||F|| ||D_k||, where D_k = V_k R_k^-1 and ||D_k||^2 sums
    ||w_j / rho_j||^2 (Paige and Saunders, section 5).  On
    consistent data the ratio bottoms out near 1/cond(F), so a
    normal-equations stop far above 1/acond could not have ended an exact
    fit.

    Running out of iterations raises a ``RuntimeWarning`` with the stop
    reason, which ``stop_reason`` also records, and the current iterate is
    still returned.  A ``y`` that is zero, or that F* maps to zero, stops
    before the first iteration with h = 0 and the same report.  The
    products run inside the operator's ``helped`` block.
    """
    ntol = atol if ntol is None else ntol
    with op.helped():
        return _lsqr(op, y, atol, btol, ntol, max_iter)


def _lsqr(op, y, atol, btol, ntol, max_iter) -> SolveReport:
    y = np.asarray(y, dtype=np.complex128)
    m, n = op.shape
    x = np.zeros(n, dtype=np.complex128)

    u = y.copy()
    bnorm = beta = phibar = _norm(u)
    alpha = anorm2 = ddnorm = ratio = 0.0  # F* r = 0 on both early stops
    it = 0
    if beta > 0.0:
        u /= beta
        v = op.adjoint(u)
        alpha = _norm(v)
    if beta == 0.0:
        stop = "zero right-hand side"
    elif alpha == 0.0:
        stop = "right-hand side orthogonal to range"
    else:
        v /= alpha
        w = v.copy()
        rhobar = alpha
        anorm2 = alpha * alpha
        ratio = 1.0  # ||F* r_0|| / (||F|| ||r_0||) = alpha beta / (alpha beta)
        stop = f"iteration limit {max_iter} reached without convergence"
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
            ddnorm += _sumsq(w) / (rho * rho)
            w = v - (theta / rho) * w
            rnorm = phibar
            arnorm = alpha * abs(c * phibar)
            anorm = math.sqrt(anorm2)
            xnorm = _norm(x)
            ratio = arnorm / (anorm * rnorm) if rnorm > 0 else 0.0
            if rnorm <= btol * bnorm + atol * anorm * xnorm:  # also when rnorm = 0
                stop = "residual tolerance reached"
                break
            if ratio <= ntol:
                stop = "normal-equations tolerance reached"
                break
        else:
            warnings.warn(f"LSQR: {stop}", RuntimeWarning, stacklevel=3)
    coeffs = CoefficientMap(op.index_set, x)
    fitted = op.forward(x)
    return SolveReport(coeffs, it, float(phibar), _norm(y - fitted), stop,
                       {"solver": "lsqr", "atol": atol, "btol": btol,
                        "ntol": ntol, "max_iter": max_iter,
                        "products": op.dtype.name, "ne_ratio": ratio,
                        "anorm": math.sqrt(anorm2),
                        "acond": math.sqrt(anorm2 * ddnorm)},
                       _max_abs(fitted.imag))


def _find_malloc_trim():
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_MALLOC_TRIM = _find_malloc_trim()


def _release_free_heap() -> None:
    """Give the C heap's free pages back to the system (glibc malloc_trim).

    glibc raises its mmap threshold to each large block it frees, so later
    blocks below it come from the heap, whose free pages stay resident
    unless they lie at its top.  How much freed memory an earlier stage
    leaves resident so depends on the order of its allocations: perfbench's
    black-box pipeline peaked at 85 or 94 MB from one environment to the
    next (the size of the environment variables alone flipped it), and at
    84.4 to 84.9 MB with this call before the solve (glibc 2.36, 2-CPU
    Xeon).  A no-op without glibc.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def lattice_solve(lat: Rank1Lattice, index_set: GroupedIndexSet, y,
                  certified: bool = False) -> SolveReport:
    """Exact least squares on reconstructing-lattice samples: h = (1/M) F* y.

    Refuses lattices that fail certification (pass ``certified=True`` to
    skip the re-check when the lattice was just certified by construction).
    Besides the samples it holds one length-M vector at a time: the
    transform's work vector, then fitted values, which become the residual
    in place.  Real samples at even M stay float64, and every such vector
    is real: ||y - F h||^2 = ||y - Re F h||^2 + ||Im F h||^2, one part
    after the other, so the solve holds 8 bytes per sample beyond them.
    Complex samples, and real ones at odd M, which have no half-length
    transform, take one complex evaluation (16 bytes per sample).  Freed heap memory is returned to the system
    first (:func:`_release_free_heap`), so the solve's peak RSS is the
    arrays alive and not what earlier frees left resident.
    """
    if not certified and not is_reconstructing(lat, index_set):
        raise ValueError("lattice is not reconstructing for this index set")
    _release_free_heap()
    y = np.asarray(y)
    y = y.astype(np.complex128 if np.iscomplexobj(y) else np.float64, copy=False)
    coeffs = lattice_reconstruct(y, index_set, lat)
    if np.iscomplexobj(y) or lat.M % 2:
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
