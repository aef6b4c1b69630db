"""Two-stage approximation: sensitivity-driven detection, then refinement.

Stage one fits a pilot Fourier partial sum on the full order-limited term
family U_{d_s} with order-dependent search sets, computes global sensitivity
indices of the pilot, and keeps the downward closure of the terms whose
index exceeds the order-dependent threshold (strict inequality; ties are
excluded).  Stage two refits on the active family with fresh (usually
larger) per-term sets; in the black-box scenario a new reconstructing
lattice is built for the refined index set.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .anova import CoefficientMap, SensitivityReport, sensitivity, term_family_ds
from .index_sets import (GroupedIndexSet, LowDimIndexSet, TermFamily,
                         empty_term_set, full_grid, grouped, hyperbolic_cross,
                         weighted_index_set)
from .lattice import (BLOCK_ROWS, Rank1Lattice, cbc_construct, lattice_evaluate,
                      lattice_nodes)
from .operator import (BlockFourierOperator, NodeSet, SolveReport, _helper_runs,
                       _max_abs, lattice_solve, lsqr, uniform_nodes)
from .weights import WeightParams, pod_weight

_SEARCH_TYPES = ("full_grid", "hyperbolic_cross", "weighted")
SOLVER_DEFAULTS = {"atol": 1e-8, "btol": 1e-8, "max_iter_detect": 50,
                   "max_iter_final": 200}
#: LSQR's normal-equations tolerance per stage when the solver config sets no
#: atol: the pilot only ranks terms, and its truncation error (5e-2 to 1e-1 on
#: the benchmark's data) is far above what iterations past 1e-2 change
_NTOL = {"detect": 1e-2, "final": 1e-4}
_WEIGHT_KEYS = ("alpha", "beta", "gamma", "Gamma")


class ConfigError(ValueError):
    """A run-configuration value is missing, unknown or out of range.

    The CLI exits with code 2 on it.  Every rule on the keys of a run
    config (see :func:`read_run_config`) except ``target`` is checked in
    this module, once per key.
    """


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _check_keys(spec, where: str, allowed) -> None:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object, got {type(spec).__name__}")
    unknown = [k for k in spec if k not in allowed]
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: unknown key "
                          f"(allowed: {', '.join(allowed)})")


def _check_at_least(value, where: str, low: int) -> None:
    if not (_is_int(value) and value >= low):
        raise ConfigError(f"{where} must be an integer >= {low}, got {value!r}")


def _check_seed(seed, where: str) -> None:
    """A seed of nodes or of a CBC search is an integer >= 0, as numpy's
    generators need; ``where`` names it in the error."""
    _check_at_least(seed, where, 0)


def _check_dims(d, d_s) -> None:
    if not (_is_int(d) and _is_int(d_s) and 1 <= d_s <= d):
        raise ConfigError(f"need integers 1 <= d_s <= d, got d_s={d_s!r}, d={d!r}")


def _check_search(search, max_order: int, exact: bool = False) -> None:
    """One cutoff per term order 1..max_order (exactly that many if
    ``exact``); a weight spec with every field when one is given or the
    type is "weighted".  Whether a cutoff suits its set type is left to
    the set constructor (see ``_term_set``)."""
    _check_keys(search, "search", ("type", "N", "weight"))
    if search.get("type") not in _SEARCH_TYPES:
        raise ConfigError(f"search.type must be one of {', '.join(_SEARCH_TYPES)}, "
                          f"got {search.get('type')!r}")
    N = search.get("N")
    if not isinstance(N, (list, tuple)) or len(N) < max_order or \
            (exact and len(N) != max_order):
        raise ConfigError(f"search.N must list one cutoff per term order "
                          f"1..{max_order}, got {N!r}")
    for j, n in enumerate(N):
        if not _is_real(n):
            raise ConfigError(f"search.N[{j}] must be a number, got {n!r}")
    spec = search.get("weight")
    if spec is None:
        if search["type"] == "weighted":
            raise ConfigError("search.type 'weighted' needs search.weight")
        return
    if callable(spec):
        return
    _check_keys(spec, "search.weight", _WEIGHT_KEYS)
    missing = [k for k in _WEIGHT_KEYS if k not in spec]
    if missing:
        raise ConfigError(f"search.weight: missing field {missing[0]!r}")
    try:
        _weight_fn(search)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"search.weight: {exc}") from exc


def _check_sampling(sampling, target=None) -> dict:
    """The sampling spec with its kind filled in.

    ``target``, when given, is what will be sampled: a callable target
    sampled at scattered nodes needs ``count``, and fixed data (X, y)
    cannot be sampled on a lattice.
    """
    _check_keys(sampling, "sampling", ("kind", "count", "seed"))
    sampling = {"kind": next(iter(_SAMPLING_KINDS)), **sampling}
    if sampling["kind"] not in _SAMPLING_KINDS:
        raise ConfigError(f"sampling.kind must be one of {', '.join(_SAMPLING_KINDS)}, "
                          f"got {sampling['kind']!r}")
    if "seed" in sampling:
        _check_seed(sampling["seed"], "sampling.seed")
    if "count" in sampling:
        _check_at_least(sampling["count"], "sampling.count", 1)
    if callable(target) and sampling["kind"] == "scattered" and "count" not in sampling:
        raise ConfigError("sampling.count is needed to sample a callable target "
                          "at scattered nodes")
    if isinstance(target, tuple) and sampling["kind"] == "lattice":
        raise ConfigError("sampling.kind 'lattice' needs a callable target, "
                          "not fixed data")
    return sampling


def _check_solver(solver) -> None:
    _check_keys(solver, "solver", ("atol", "btol", "max_iter"))
    for key in ("atol", "btol"):
        if key in solver and not (_is_real(solver[key]) and math.isfinite(solver[key])
                                  and solver[key] >= 0):
            raise ConfigError(f"solver.{key} must be a finite number >= 0, "
                              f"got {solver[key]!r}")
    if "max_iter" in solver and not (_is_int(solver["max_iter"])
                                     and solver["max_iter"] >= 1):
        raise ConfigError(f"solver.max_iter must be an integer >= 1, "
                          f"got {solver['max_iter']!r}")


@dataclass(frozen=True, eq=False)
class DetectionConfig:
    """Inputs of the detection stage, checked at construction.

    ``search`` is {"type": "full_grid" | "hyperbolic_cross" | "weighted",
    "N": [N_1, .., N_ds]} with one cutoff per term order; "weighted"
    additionally takes under "weight" POD parameters or a callable from an
    (n, d) array of rows |k| to n weights, and builds each term's set on
    its own axes (see :func:`build_search_sets`).
    ``thresholds`` is the order-dependent epsilon vector.  ``sampling`` is
    {"kind": "scattered" | "lattice", "count", "seed"} and ``solver``
    {"atol", "btol", "max_iter"}: a missing key takes its value from
    ``SOLVER_DEFAULTS``.  LSQR's residual test reads atol and btol; its
    normal-equations test reads the stage's ``_NTOL``, 1e-2 for this pilot
    fit, which only ranks terms, and 1e-4 for ``approximate``'s refit, or
    atol in both stages when the config sets atol (see
    :func:`~anovafourier.operator.lsqr`).  A bad value raises
    :class:`ConfigError`.
    """

    d: int
    d_s: int
    search: dict
    thresholds: tuple
    sampling: dict
    solver: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_dims(self.d, self.d_s)
        try:
            eps = tuple(float(e) for e in self.thresholds)
        except (TypeError, ValueError):
            raise ConfigError(f"thresholds must be a list of numbers, "
                              f"got {self.thresholds!r}") from None
        if len(eps) != self.d_s:
            raise ConfigError("thresholds: need one threshold per term order 1..d_s")
        if any(not 0.0 <= e <= 1.0 for e in eps):
            raise ConfigError("thresholds must lie in [0, 1]")
        _check_search(self.search, self.d_s, exact=True)
        _check_solver(self.solver)
        object.__setattr__(self, "thresholds", eps)
        object.__setattr__(self, "sampling", _check_sampling(self.sampling))


#: top-level keys of a run config; ``id`` names a bench row, and ``target``
#: and ``truth`` are read by the command that runs it
_RUN_KEYS = ("id", "d", "d_s", "search", "thresholds", "sampling", "solver",
             "target", "truth", "active_set")


def _require(cfg: dict, key: str, typ=object):
    if key not in cfg:
        raise ConfigError(f"config: missing required field {key!r}")
    val = cfg[key]
    if not isinstance(val, typ):
        raise ConfigError(f"config.{key}: expected {typ.__name__}, got {type(val).__name__}")
    return val


def read_run_config(cfg) -> tuple[DetectionConfig, TermFamily | None]:
    """The detection config of a run config and, when it has ``active_set``,
    the refit family: the downward closure of those terms and the empty one.

    ``detect`` and a bench row without ``active_set`` run the detection;
    ``approximate`` and a bench row with it refit on the family.  Every key
    present is checked, whichever stage uses it; ``thresholds`` defaults to
    all zeros.  A bad key raises :class:`ConfigError` before any sampling.
    """
    _check_keys(cfg, "config", _RUN_KEYS)
    d, d_s = _require(cfg, "d"), _require(cfg, "d_s")
    _check_dims(d, d_s)
    search = _require(cfg, "search")
    family = None
    if "active_set" in cfg:
        terms = _require(cfg, "active_set", list)
        try:
            family = TermFamily.downward_closure(d, [tuple(u) for u in terms] + [()])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"active_set: {exc}") from None
        _check_search(search, family.max_order())
    return DetectionConfig(d=d, d_s=d_s, search=search,
                           thresholds=cfg.get("thresholds", [0.0] * d_s),
                           sampling=_require(cfg, "sampling"),
                           solver=cfg.get("solver", {})), family


def _term_set(kind: str, term, N, weight, d: int) -> LowDimIndexSet:
    try:
        if kind == "full_grid":
            return full_grid(term, int(N))
        if kind == "hyperbolic_cross":
            return hyperbolic_cross(term, float(N))
        return weighted_index_set(term, weight, float(N), d)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"search.N[{len(term) - 1}] = {N!r}: {exc}") from exc


def _weight_fn(search: dict):
    spec = search.get("weight")
    if spec is None:
        return None
    if callable(spec):
        return spec
    p = WeightParams(spec["alpha"], spec["beta"],
                     np.asarray(spec["gamma"], dtype=float),
                     np.asarray(spec["Gamma"], dtype=float))
    return lambda k: pod_weight(k, p)


def build_search_sets(d: int, d_s: int, search: dict,
                      family: TermFamily | None = None) -> dict:
    """Per-term index sets over a family (default U_{d_s}), order-dependent.

    Grids and crosses do not depend on a term's axes, so terms of equal
    order share one frequency pattern, constructed once.  A weighted set is
    built per term, on the term's own axes in Z^d.  ``search`` needs a
    cutoff for every order in the family.
    """
    _check_dims(d, d_s)
    fam = family if family is not None else term_family_ds(d, d_s)
    _check_search(search, fam.max_order())
    kind, N = search["type"], search["N"]
    weight = _weight_fn(search)
    patterns = {}
    sets = {(): empty_term_set()}
    for u in fam.sorted_terms():
        if not u:
            continue
        if kind == "weighted":
            sets[u] = _term_set(kind, u, N[len(u) - 1], weight, d)
            continue
        if len(u) not in patterns:
            patterns[len(u)] = _term_set(kind, u, N[len(u) - 1], weight, d).freqs
        sets[u] = LowDimIndexSet(u, patterns[len(u)])
    return sets


@dataclass(frozen=True, eq=False)
class ApproxModel:
    """Recovered Fourier partial sum: index set, coefficients, provenance."""

    coefficients: CoefficientMap
    provenance: dict = field(default_factory=dict)
    _design: ScatteredDesign | LatticeDesign | None = None
    _values: np.ndarray | None = None

    @property
    def index_set(self) -> GroupedIndexSet:
        return self.coefficients.index_set

    def fit_data(self):
        """The sampling design and target values the model was fitted on."""
        return self._design, self._values

    def evaluate(self, x) -> np.ndarray:
        """Blockwise partial-sum evaluation at points (coordinates mod 1)."""
        x = np.asarray(x, dtype=np.float64)
        pts = np.atleast_2d(x)
        out = ScatteredDesign(NodeSet(pts - np.floor(pts))).evaluate(self.coefficients)
        return out[0] if x.ndim == 1 else out

    def evaluate_on(self, nodes) -> np.ndarray:
        """Evaluate at points, a NodeSet, or a design's nodes by its transform."""
        if isinstance(nodes, tuple(_SAMPLING_KINDS.values())):
            return nodes.evaluate(self.coefficients)
        return self.evaluate(nodes.points if isinstance(nodes, NodeSet) else nodes)

    def to_json_dict(self) -> dict:
        slices = self.index_set.block_slices()
        values = self.coefficients.values.astype("<c16")
        blocks = [{"u": list(b.term), "data": values[slices[b.term]].tobytes().hex()}
                  for b in self.index_set.blocks]
        return {"format": "anovafourier-model-v1",
                "index_set": self.index_set.to_json_dict(),
                "coefficients": {"encoding": "hex-binary64-pairs",
                                 "blocks": blocks},
                "provenance": self.provenance}

    @staticmethod
    def from_json_dict(doc) -> "ApproxModel":
        idx = GroupedIndexSet.from_json_dict(doc["index_set"])
        parts = [np.frombuffer(bytes.fromhex(blk["data"]), "<c16")
                 for blk in doc["coefficients"]["blocks"]]
        values = np.concatenate(parts) if parts else np.zeros(0, complex)
        return ApproxModel(CoefficientMap(idx, values),
                           dict(doc.get("provenance", {})))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)

    @staticmethod
    def load(path) -> "ApproxModel":
        with open(path) as fh:
            return ApproxModel.from_json_dict(json.load(fh))

    def digest(self) -> str:
        doc = json.dumps(self.to_json_dict(), separators=(",", ":"),
                         sort_keys=True)
        return hashlib.sha256(doc.encode()).hexdigest()


@dataclass(frozen=True, eq=False)
class ActiveSetResult:
    """Output of the detection stage."""

    report: SensitivityReport
    active: TermFamily
    pilot: ApproxModel


#: bytes per sample that a lattice stage holds at its peak: the value
#: vector and one work vector (the in-place transform's, then the fitted
#: values), plus the stage's index sets and sampling blocks, which do not
#: grow with M.  The values take 8 bytes per sample when real and 16 when
#: complex; the work vector 8 for real values at even M and 16 otherwise.
#: Peak RSS over the RSS before the stage, test function, CBC seeds 1, 2, 5
#: and 10: at even M 19.4-22.5 on the black-box refit sets (M = 1440000 to
#: 2949120) and 30.7-34.2 on the pilot sets (589824 to 729000); at odd M
#: 35.3 (refit, 5^9, where ``approximate``'s second evaluation, a complex
#: vector and its real part, sets the peak) and 38.7 (pilot, 3^12), as
#: complex values read at every M (35.4-51.6).  The check runs before the
#: target is sampled, so it cannot know the values' type: rounded up to 4
#: complex values.
_LATTICE_BYTES_PER_SAMPLE = 64


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_memory(need: int, what: str) -> None:
    have = _physical_memory()
    if need > have:
        raise ConfigError(f"{what} needs about {need} bytes, more than the "
                          f"{have} bytes of physical memory")


#: bytes per node that a scattered stage holds at its peak besides the nodes
#: and the operator's unit phases: the values, LSQR's vector u, a product's
#: result and the residual.  From 20k to 80k nodes (d = 9), traced peaks of
#: `detect` and `approximate` grew by 35 to 63.8 bytes per node beyond
#: 8 d + 16 d_used on five index sets; rounded up to 4 complex values.
_SCATTERED_BYTES_PER_NODE = 64


def _check_scattered_memory(index_set: GroupedIndexSet, m: int) -> None:
    """Raise ConfigError when a scattered stage on m nodes cannot fit.

    The estimate: per node the coordinates (8 d bytes), the unit phases
    (16 bytes per used axis) and ``_SCATTERED_BYTES_PER_NODE``; the phase
    table of one node chunk; four length-|I| LSQR vectors.  When LSQR's
    products get a helper process, also its own chunk table and the shared
    vectors: two of length |I| and half B's floor(m/2) values.
    """
    vmax, _, rows = _kernels.bandwidths(
        index_set.d, [(b.term, b.freqs) for b in index_set.blocks])
    per_node = 8 * index_set.d + 16 * int(np.count_nonzero(vmax)) \
        + _SCATTERED_BYTES_PER_NODE
    table = 16 * rows * min(m, _kernels._NODES)
    n = len(index_set)
    need = m * per_node + table + 4 * 16 * n
    if _helper_runs(m):
        need += table + 16 * (2 * n + m // 2)
    _check_memory(need, f"scattered fit on m = {m} nodes")


def _sample(target, n: int, rows, dtype) -> np.ndarray:
    """The target's values at n nodes, ``rows(lo, hi)`` giving nodes lo..hi-1,
    evaluated ``BLOCK_ROWS`` nodes at a time straight into the value vector.
    A float64 vector switches to complex128 at the first complex block."""
    y = np.empty(n, dtype=dtype)
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        block = target(rows(lo, hi))
        if np.iscomplexobj(block) and not np.iscomplexobj(y):
            y = y.astype(np.complex128)
        y[lo:hi] = block
    return y


@dataclass(frozen=True, eq=False)
class ScatteredDesign:
    """Scattered nodes, fitted by LSQR on the matrix-free Fourier operator."""

    nodes: NodeSet

    @classmethod
    def acquire(cls, index_set: GroupedIndexSet, target, sampling: dict):
        """Fixed data (X, y), or the target at ``count`` nodes from ``seed``."""
        if isinstance(target, tuple):
            X, y = target
            nodes = X if isinstance(X, NodeSet) else NodeSet(np.asarray(X))
            y = np.asarray(y, dtype=np.complex128)
            if y.shape != (len(nodes),):
                raise ValueError(f"fixed data: y of shape {y.shape} does not "
                                 f"match X of shape {nodes.points.shape}")
            _check_scattered_memory(index_set, len(nodes))
            return cls(nodes), y, {}
        m = int(sampling["count"])
        _check_scattered_memory(index_set, m)
        nodes = uniform_nodes(index_set.d, m, int(sampling.get("seed", 0)))
        y = _sample(target, m, lambda lo, hi: nodes.points[lo:hi], np.complex128)
        return cls(nodes), y, {}

    def solve(self, index_set, y, solver: dict, stage: str) -> SolveReport:
        m = len(self.nodes)
        if stage == "detect" and m / 10 < len(index_set) <= m:
            warnings.warn("pilot system has fewer than 10 samples per unknown; "
                          "overfitting may distort the ranking")
        opts = {**SOLVER_DEFAULTS, "max_iter": SOLVER_DEFAULTS[f"max_iter_{stage}"],
                **solver}
        return lsqr(BlockFourierOperator(self.nodes, index_set), y,
                    atol=float(opts["atol"]), btol=float(opts["btol"]),
                    max_iter=int(opts["max_iter"]),
                    ntol=None if "atol" in solver else _NTOL[stage])

    def evaluate(self, coeffs: CoefficientMap) -> np.ndarray:
        return BlockFourierOperator(self.nodes, coeffs.index_set).forward(coeffs)


@dataclass(frozen=True, eq=False)
class LatticeDesign:
    """A reconstructing rank-1 lattice, fitted by one FFT."""

    lattice: Rank1Lattice

    @classmethod
    def acquire(cls, index_set: GroupedIndexSet, target, sampling: dict):
        """A CBC lattice for the index set from ``seed``, and the target's
        values at its nodes, made one block at a time; real ones stay float64."""
        lat = cbc_construct(index_set, seed=int(sampling.get("seed", 0)))
        _check_memory(lat.M * _LATTICE_BYTES_PER_SAMPLE,
                      f"lattice with M = {lat.M} samples")
        y = _sample(target, lat.M, lambda lo, hi: lattice_nodes(lat, lo, hi),
                    np.float64)
        return cls(lat), y, {"lattice": lat.to_json_dict(index_set.digest())}

    def solve(self, index_set, y, solver: dict, stage: str) -> SolveReport:
        return lattice_solve(self.lattice, index_set, y, certified=True)

    def evaluate(self, coeffs: CoefficientMap) -> np.ndarray:
        return lattice_evaluate(coeffs, self.lattice)


#: sampling kind -> design class; the first is the default
_SAMPLING_KINDS = {"scattered": ScatteredDesign, "lattice": LatticeDesign}


def _acquire_data(index_set: GroupedIndexSet, target, sampling: dict):
    """Design, values and provenance of a stage; ``sampling`` is checked."""
    design, y, prov = _SAMPLING_KINDS[sampling["kind"]].acquire(
        index_set, target, sampling)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValueError(f"{bad.size} non-finite target values, first at sample {bad[0]}")
    if len(index_set) > len(y):
        warnings.warn(f"underdetermined fit: |I(U)| = {len(index_set)} "
                      f"exceeds |X| = {len(y)}")
    return design, y, {"sampling": dict(sampling), "sample_count": len(y), **prov}


def detect(cfg: DetectionConfig, target) -> ActiveSetResult:
    """Stage one: pilot fit on U_{d_s}, sensitivity ranking, thresholding.

    ``target`` is a callable mapping an (m, d) point array to values, or a
    tuple (X, y) of fixed scattered data.  The active family is the downward
    closure of the terms whose pilot sensitivity index strictly exceeds the
    threshold for their order.
    """
    sampling = _check_sampling(cfg.sampling, target)
    fam = term_family_ds(cfg.d, cfg.d_s)
    sets = build_search_sets(cfg.d, cfg.d_s, cfg.search)
    index_set = grouped(fam, sets)
    design, y, prov = _acquire_data(index_set, target, sampling)
    report_solve = design.solve(index_set, y, cfg.solver, "detect")
    pilot_report = sensitivity(report_solve.coefficients)
    if not pilot_report.defined:
        raise ValueError("pilot fit has zero variance; ranking undefined")
    keep = [u for u in fam.sorted_terms()
            if u and pilot_report.gsi(u) > cfg.thresholds[len(u) - 1]]
    active = TermFamily.downward_closure(cfg.d, [()] + keep)
    prov.update({"stage": "detect", "d_s": cfg.d_s, "search": cfg.search,
                 "thresholds": list(cfg.thresholds),
                 "solver_report": report_solve.to_json_dict()})
    pilot = ApproxModel(report_solve.coefficients, prov, design, y)
    return ActiveSetResult(pilot_report, active, pilot)


def gap_intervals(report: SensitivityReport, truth: TermFamily, d_s: int):
    """Per-order threshold gaps separating true from spurious terms.

    For order j the interval is (max spurious GSI, min true GSI); it is None
    when the ranking assumption fails at that order (no gap) and (0, b) when
    no spurious order-j terms exist in the report.
    """
    out = []
    for j in range(1, d_s + 1):
        inside = [g for u, g in zip(report.terms, report.gsis)
                  if len(u) == j and u in truth]
        outside = [g for u, g in zip(report.terms, report.gsis)
                   if len(u) == j and u not in truth]
        if not inside or any(g is None for g in inside + outside):
            out.append(None)
            continue
        a = max(outside) if outside else 0.0
        b = min(inside)
        out.append((float(a), float(b)) if a < b else None)
    return tuple(out)


def approximate(active: TermFamily, sets: dict, target, sampling: dict,
                solver: dict | None = None) -> ApproxModel:
    """Stage two: least-squares fit restricted to the active family.

    ``sets`` maps every term of the family to its refinement index set.  In
    the lattice scenario a fresh reconstructing lattice is constructed for
    the refined grouped set.  ``sampling`` and ``solver`` are checked as
    in :class:`DetectionConfig`.
    """
    sampling = _check_sampling(sampling, target)
    solver = solver or {}
    _check_solver(solver)
    index_set = grouped(active, sets)
    design, y, prov = _acquire_data(index_set, target, sampling)
    report = design.solve(index_set, y, solver, "final")
    imag = report.imag_residual
    if isinstance(design, LatticeDesign):
        # report.imag_residual holds the same value (to roundoff for complex
        # samples); this second evaluation stays while perfbench's tracer
        # requires it (ROADMAP item 7)
        imag = _max_abs(lattice_evaluate(
            (index_set, -1j * report.coefficients.values), design.lattice, real=True))
    prov.update({"stage": "approximate",
                 "solver_report": report.to_json_dict(),
                 "imag_residual": imag})
    return ApproxModel(report.coefficients, prov, design, y)
