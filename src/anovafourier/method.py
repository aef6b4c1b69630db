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

import binascii
import hashlib
import json
import math
import numbers
import os
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .anova import CoefficientMap, SensitivityReport, sensitivity, term_family_ds
from .index_sets import (GroupedIndexSet, LowDimIndexSet, TermFamily,
                         empty_term_set, full_grid, grouped, hyperbolic_cross,
                         weighted_index_set)
from .lattice import BLOCK_ROWS, Rank1Lattice, cbc_construct, lattice_evaluate
from .operator import (BlockFourierOperator, NodeSet, SolveReport,
                       lattice_nodes, lattice_solve, lsqr, uniform_nodes)
from .weights import WeightParams, pod_weight

_SEARCH_TYPES = ("full_grid", "hyperbolic_cross", "weighted")
_SAMPLING_KINDS = ("scattered", "lattice")  # the first is the default
SOLVER_DEFAULTS = {"atol": 1e-8, "btol": 1e-8, "max_iter_detect": 50,
                   "max_iter_final": 200}
_WEIGHT_KEYS = ("alpha", "beta", "gamma", "Gamma")


class ConfigError(ValueError):
    """A run-configuration value is missing, unknown or out of range.

    The CLI exits with code 2 on it.  Every rule on ``d``, ``d_s``,
    ``thresholds``, ``search``, ``sampling`` and ``solver`` is checked in
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


def _check_dims(d, d_s) -> None:
    if not (_is_int(d) and _is_int(d_s) and 1 <= d_s <= d):
        raise ConfigError(f"need integers 1 <= d_s <= d, got d_s={d_s!r}, d={d!r}")


def _check_search(search, max_order: int, exact: bool = False) -> None:
    """One cutoff per term order 1..max_order (exactly that many if
    ``exact``); a weight spec with every field when one is given or the
    type is "weighted".  Whether a cutoff suits its set type is left to
    the set constructor (see ``_order_set``)."""
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
    sampled at scattered nodes needs ``count``.
    """
    _check_keys(sampling, "sampling", ("kind", "count", "seed"))
    sampling = {"kind": _SAMPLING_KINDS[0], **sampling}
    if sampling["kind"] not in _SAMPLING_KINDS:
        raise ConfigError(f"sampling.kind must be one of {', '.join(_SAMPLING_KINDS)}, "
                          f"got {sampling['kind']!r}")
    for key, low in (("seed", 0), ("count", 1)):
        if key in sampling and not (_is_int(sampling[key]) and sampling[key] >= low):
            raise ConfigError(f"sampling.{key} must be an integer >= {low}, "
                              f"got {sampling[key]!r}")
    if callable(target) and sampling["kind"] == "scattered" and "count" not in sampling:
        raise ConfigError("sampling.count is needed to sample a callable target "
                          "at scattered nodes")
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
    "N": [N_1, .., N_ds]} with one cutoff per term order (terms of equal
    order share their set); "weighted" additionally takes weight parameters
    under "weight".  ``thresholds`` is the order-dependent epsilon vector.
    ``sampling`` is {"kind": "scattered" | "lattice", "count", "seed"} and
    ``solver`` {"atol", "btol", "max_iter"}.  A bad value raises
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


def _order_set(kind: str, order: int, N, weight=None) -> np.ndarray:
    template = tuple(range(1, order + 1))
    try:
        if kind == "full_grid":
            return full_grid(template, int(N)).freqs
        if kind == "hyperbolic_cross":
            return hyperbolic_cross(template, float(N)).freqs
        return weighted_index_set(template, weight, float(N), d=order).freqs
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"search.N[{order - 1}] = {N!r}: {exc}") from exc


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

    Terms of equal order share one frequency pattern, constructed once.
    ``search`` needs a cutoff for every order in the family.
    """
    _check_dims(d, d_s)
    fam = family if family is not None else term_family_ds(d, d_s)
    _check_search(search, fam.max_order())
    N = search["N"]
    weight = _weight_fn(search)
    patterns = {}
    sets = {(): empty_term_set()}
    for u in fam.sorted_terms():
        if not u:
            continue
        order = len(u)
        if order not in patterns:
            patterns[order] = _order_set(search["type"], order,
                                         N[order - 1], weight)
        sets[u] = LowDimIndexSet(u, patterns[order])
    return sets


@dataclass(frozen=True, eq=False)
class ApproxModel:
    """Recovered Fourier partial sum: index set, coefficients, provenance."""

    coefficients: CoefficientMap
    provenance: dict = field(default_factory=dict)
    _nodes: NodeSet | None = None
    _values: np.ndarray | None = None

    @property
    def index_set(self) -> GroupedIndexSet:
        return self.coefficients.index_set

    def fit_data(self):
        """The node set and target values the model was fitted on."""
        return self._nodes, self._values

    def evaluate(self, x) -> np.ndarray:
        """Blockwise partial-sum evaluation at points (coordinates mod 1)."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        pts = pts - np.floor(pts)
        op = BlockFourierOperator(NodeSet(pts), self.index_set)
        out = op.forward(self.coefficients)
        return out[0] if single else out

    def evaluate_on(self, nodes) -> np.ndarray:
        """Evaluate at a NodeSet, using the lattice FFT path when possible."""
        if isinstance(nodes, NodeSet) and nodes.lattice is not None:
            return lattice_evaluate(self.coefficients, nodes.lattice)
        pts = nodes.points if isinstance(nodes, NodeSet) else np.asarray(nodes)
        return self.evaluate(pts)

    def to_json_dict(self) -> dict:
        blocks = []
        slices = self.index_set.block_slices()
        for b in self.index_set.blocks:
            vals = self.coefficients.values[slices[b.term]]
            raw = b"".join(struct.pack("<dd", v.real, v.imag) for v in vals)
            blocks.append({"u": list(b.term),
                           "data": binascii.hexlify(raw).decode()})
        return {"format": "anovafourier-model-v1",
                "index_set": self.index_set.to_json_dict(),
                "coefficients": {"encoding": "hex-binary64-pairs",
                                 "blocks": blocks},
                "provenance": self.provenance}

    @staticmethod
    def from_json_dict(doc) -> "ApproxModel":
        idx = GroupedIndexSet.from_json_dict(doc["index_set"])
        parts = []
        for blk in doc["coefficients"]["blocks"]:
            raw = binascii.unhexlify(blk["data"])
            flat = np.frombuffer(raw, dtype="<f8")
            parts.append(flat[0::2] + 1j * flat[1::2])
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


def _require_finite(y):
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise ValueError(f"{bad.size} non-finite target values, first at sample {bad[0]}")


#: bytes per sample that a lattice stage holds at its peak: the value
#: vector and one work vector (the in-place transform's, then the fitted
#: values), plus the stage's index sets and sampling blocks, which do not
#: grow with M.  Both vectors take 8 bytes per sample for real values at
#: even M and 16 otherwise.  Peak RSS over the RSS before the stage, test
#: function, CBC seeds 1, 2, 5 and 10: at even M 19.4-22.5 on the black-box
#: refit sets (M = 1440000 to 2949120) and 30.7-34.2 on the pilot sets
#: (589824 to 729000); at odd M 36.5 (refit, 5^9) and 51.2 (pilot, 3^12),
#: as complex values read at every M (35.4-51.6).  The check runs before
#: the target is sampled, so it cannot know the values' type: rounded up
#: to 4 complex values.
_LATTICE_BYTES_PER_SAMPLE = 64


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _check_lattice_memory(lat: Rank1Lattice) -> None:
    need = lat.M * _LATTICE_BYTES_PER_SAMPLE
    have = _physical_memory()
    if need > have:
        raise ConfigError(f"lattice with M = {lat.M} samples needs about {need} "
                          f"bytes, more than the {have} bytes of physical memory")


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
    table of one node chunk; four length-|I| LSQR vectors.
    """
    vmax = _kernels.bandwidths(index_set.d,
                               [(b.term, b.freqs) for b in index_set.blocks])
    per_node = 8 * index_set.d + 16 * int(np.count_nonzero(vmax)) \
        + _SCATTERED_BYTES_PER_NODE
    table = 16 * 2 * int(vmax.sum()) * min(m, _kernels._NODES)
    need = m * per_node + table + 4 * 16 * len(index_set)
    have = _physical_memory()
    if need > have:
        raise ConfigError(f"scattered fit on m = {m} nodes needs about {need} "
                          f"bytes, more than the {have} bytes of physical memory")


def _acquire_data(index_set: GroupedIndexSet, target, sampling: dict):
    """Node set, values and provenance for either sampling scenario.

    ``sampling`` has passed ``_check_sampling``.  A callable target is
    evaluated ``BLOCK_ROWS`` nodes at a time, straight into the value
    vector; lattice nodes are generated block by block, never all at once.
    A lattice stage keeps real values as float64 and switches to complex128
    at the first block that returns complex values.
    """
    prov = {"sampling": {k: v for k, v in sampling.items()}}
    lat = None
    if isinstance(target, tuple):
        if sampling["kind"] == "lattice":
            raise ValueError("black-box sampling needs a callable target")
        X, y = target
        nodes = X if isinstance(X, NodeSet) else NodeSet(np.asarray(X))
        _check_scattered_memory(index_set, len(nodes))
        y = np.asarray(y, dtype=np.complex128)
    else:
        if sampling["kind"] == "scattered":
            _check_scattered_memory(index_set, int(sampling["count"]))
            nodes = uniform_nodes(index_set.d, int(sampling["count"]),
                                  int(sampling.get("seed", 0)))
        else:
            lat = cbc_construct(index_set, seed=int(sampling.get("seed", 0)))
            _check_lattice_memory(lat)
            nodes = lattice_nodes(lat)
        y = np.empty(len(nodes), dtype=np.complex128 if lat is None else np.float64)
        for lo in range(0, len(nodes), BLOCK_ROWS):
            hi = min(lo + BLOCK_ROWS, len(nodes))
            block = target(nodes.rows(lo, hi))
            if np.iscomplexobj(block) and not np.iscomplexobj(y):
                y = y.astype(np.complex128)
            y[lo:hi] = block
    _require_finite(y)
    prov["sample_count"] = len(nodes)
    if lat is not None:
        prov["lattice"] = lat.to_json_dict(index_set.digest())
    return nodes, y, prov, lat


def _solve(index_set, nodes, y, lat, solver: dict, stage: str) -> SolveReport:
    if lat is not None:
        return lattice_solve(lat, index_set, y, certified=True)
    op = BlockFourierOperator(nodes, index_set)
    key = "max_iter_detect" if stage == "detect" else "max_iter_final"
    return lsqr(op, y,
                atol=float(solver.get("atol", SOLVER_DEFAULTS["atol"])),
                btol=float(solver.get("btol", SOLVER_DEFAULTS["btol"])),
                max_iter=int(solver.get("max_iter", SOLVER_DEFAULTS[key])))


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
    nodes, y, prov, lat = _acquire_data(index_set, target, sampling)
    if len(index_set) > len(nodes):
        warnings.warn(f"underdetermined pilot: |I(U)| = {len(index_set)} "
                      f"exceeds |X| = {len(nodes)}")
    elif sampling["kind"] == "scattered" and \
            len(index_set) > len(nodes) / 10:
        warnings.warn("pilot system has fewer than 10 samples per unknown; "
                      "overfitting may distort the ranking")
    report_solve = _solve(index_set, nodes, y, lat, cfg.solver, "detect")
    pilot_report = sensitivity(report_solve.coefficients)
    if not pilot_report.defined:
        raise ValueError("pilot fit has zero variance; ranking undefined")
    keep = [u for u in fam.sorted_terms()
            if u and pilot_report.gsi(u) > cfg.thresholds[len(u) - 1]]
    active = TermFamily.downward_closure(cfg.d, [()] + keep)
    prov.update({"stage": "detect", "d_s": cfg.d_s, "search": cfg.search,
                 "thresholds": list(cfg.thresholds),
                 "solver_report": report_solve.to_json_dict()})
    pilot = ApproxModel(report_solve.coefficients, prov, nodes, y)
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
    nodes, y, prov, lat = _acquire_data(index_set, target, sampling)
    if len(index_set) > len(nodes):
        warnings.warn(f"underdetermined refit: |I(U)| = {len(index_set)} "
                      f"exceeds |X| = {len(nodes)}")
    report = _solve(index_set, nodes, y, lat, solver, "final")
    if lat is None:
        imag = report.imag_residual
    else:
        # report.imag_residual holds the same value (to roundoff for complex
        # samples); this second evaluation stays while perfbench's tracer
        # requires it (ROADMAP item 7)
        fitted_imag = lattice_evaluate(
            (index_set, -1j * report.coefficients.values), lat, real=True)
        imag = float(max(fitted_imag.max(), -fitted_imag.min()))
    prov.update({"stage": "approximate",
                 "solver_report": report.to_json_dict(),
                 "imag_residual": imag})
    return ApproxModel(report.coefficients, prov, nodes, y)
