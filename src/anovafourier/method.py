"""Two-stage approximation: sensitivity-driven detection, then refinement.

Stage one fits a pilot Fourier partial sum on the full order-limited term
family U_{d_s} with order-dependent search sets, computes global sensitivity
indices of the pilot, and keeps the downward closure of the terms whose
index exceeds the order-dependent threshold (strict inequality; ties are
excluded).  Stage two refits on the active family with fresh (usually
larger) per-term sets; in the black-box scenario a new reconstructing
lattice is built for the refined index set.  Both stages run one fit
routine, which checks the sampling and solver specs before any set is
built or any sample is drawn; every rule on the keys of a run config
(except ``target``) is stated here once, and a bad value raises
:class:`ConfigError`.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .anova import CoefficientMap, SensitivityReport, sensitivity, term_family_ds
from .index_sets import (GroupedIndexSet, LowDimIndexSet, TermFamily,
                         empty_term_set, full_grid, grouped, hyperbolic_cross,
                         weighted_index_set)
from .lattice import (BLOCK_ROWS, Rank1Lattice, cbc_construct, lattice_evaluate,
                      lattice_nodes)
from .operator import (BlockFourierOperator, NodeSet, SolveReport, _max_abs,
                       lattice_solve, lsqr, scattered_fit_bytes, uniform_nodes)
from .weights import WeightParams, pod_weight

_SEARCH_TYPES = ("full_grid", "hyperbolic_cross", "weighted")
#: LSQR's settings per stage.  atol and btol are shared; ntol, the
#: normal-equations tolerance, applies when the solver config sets no atol:
#: the pilot only ranks terms, and its truncation error (5e-2 to 1e-1 on the
#: benchmark's data) is far above what iterations past 1e-2 change
SOLVER_DEFAULTS = {stage: {"atol": 1e-8, "btol": 1e-8, "max_iter": it, "ntol": ntol}
                   for stage, it, ntol in (("detect", 50, 1e-2),
                                           ("approximate", 200, 1e-4))}
_WEIGHT_KEYS = tuple(f.name for f in fields(WeightParams))


class ConfigError(ValueError):
    """A run-configuration value is missing, unknown or out of range.

    The CLI exits with code 2 on it.  Every rule on the keys of a run
    config (see :func:`read_run_config`) except ``target`` is checked in
    this module, once per key.
    """


def _number(value, where: str, low=None, high=None, integer: bool = False):
    """Raise ConfigError naming ``where`` unless ``value`` is a finite real
    number in [low, high] (either end may be None), and an integer if
    ``integer``.  A bool is not a number."""
    if not (isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool)
            and (isinstance(value, numbers.Integral) or math.isfinite(value))
            and (low is None or value >= low) and (high is None or value <= high)):
        bounds = f" in [{low}, {high}]" if high is not None else \
            f" >= {low}" if low is not None else ""
        raise ConfigError(f"{where} must be {'an integer' if integer else 'a finite number'}"
                          f"{bounds}, got {value!r}")


def _per_order(values, where: str, n: int, exact: bool = True, low=None, high=None):
    """Raise ConfigError unless ``values`` is a list or tuple of one number
    per term order 1..n (at least that many unless ``exact``), each passing
    :func:`_number` with the bounds."""
    if not isinstance(values, (list, tuple)) or len(values) < n or \
            (exact and len(values) != n):
        raise ConfigError(f"{where} must list one number per term order 1..{n}, "
                          f"got {values!r}")
    for j, v in enumerate(values):
        _number(v, f"{where}[{j}]", low, high)


def _check_keys(spec, where: str, allowed) -> None:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object, got {type(spec).__name__}")
    unknown = [k for k in spec if k not in allowed]
    if unknown:
        raise ConfigError(f"{where}.{unknown[0]}: unknown key "
                          f"(allowed: {', '.join(allowed)})")


def _check_dims(d, d_s) -> None:
    _number(d, "d", 1, integer=True)
    _number(d_s, "d_s", 1, d, integer=True)


def _check_search(search, max_order: int, exact: bool = False) -> None:
    """One cutoff per term order 1..max_order (exactly that many if
    ``exact``); a weight spec with every field when one is given or the
    type is "weighted".  Whether a cutoff suits its set type is left to
    the set constructor (see ``_term_set``)."""
    _check_keys(search, "search", ("type", "N", "weight"))
    if search.get("type") not in _SEARCH_TYPES:
        raise ConfigError(f"search.type must be one of {', '.join(_SEARCH_TYPES)}, "
                          f"got {search.get('type')!r}")
    _per_order(search.get("N"), "search.N", max_order, exact)
    spec = search.get("weight")
    if spec is None and search["type"] == "weighted":
        raise ConfigError("search.type 'weighted' needs search.weight")
    if spec is None or callable(spec):
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
    # a seed of nodes or of a CBC search is an integer >= 0, as numpy's
    # generators need
    for key, low in (("seed", 0), ("count", 1)):
        if key in sampling:
            _number(sampling[key], f"sampling.{key}", low, integer=True)
    if callable(target) and sampling["kind"] == "scattered" and "count" not in sampling:
        raise ConfigError("sampling.count is needed to sample a callable target "
                          "at scattered nodes")
    if isinstance(target, tuple) and sampling["kind"] == "lattice":
        raise ConfigError("sampling.kind 'lattice' needs a callable target, "
                          "not fixed data")
    return sampling


def _check_solver(solver) -> None:
    _check_keys(solver, "solver", ("atol", "btol", "max_iter"))
    for key, value in solver.items():
        if key == "max_iter":
            _number(value, "solver.max_iter", 1, integer=True)
        else:
            _number(value, f"solver.{key}", 0)


@dataclass(frozen=True, eq=False)
class DetectionConfig:
    """Inputs of the detection stage, checked at construction.

    ``search`` is {"type": "full_grid" | "hyperbolic_cross" | "weighted",
    "N": [N_1, .., N_ds]} with one cutoff per term order; "weighted"
    additionally takes under "weight" POD parameters or a callable from an
    (n, d) array of rows |k| to n weights, and builds each term's set on
    its own axes (see :func:`build_search_sets`).
    ``thresholds`` is the order-dependent epsilon vector, a list or tuple
    of one number in [0, 1] per term order.  ``sampling`` is
    {"kind": "scattered" | "lattice", "count", "seed"} and ``solver``
    {"atol", "btol", "max_iter"}: a missing key takes its value from the
    stage's ``SOLVER_DEFAULTS``.  LSQR's residual test reads atol and btol;
    its normal-equations test reads the stage's ntol, 1e-2 for this pilot
    fit, which only ranks terms, and 1e-4 for ``approximate``'s refit, or
    atol in both stages when the config sets atol (see
    :func:`~anovafourier.operator.lsqr`).  Every number must be finite, and
    a bool is not a number; a bad value raises :class:`ConfigError`.
    """

    d: int
    d_s: int
    search: dict
    thresholds: tuple
    sampling: dict
    solver: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_dims(self.d, self.d_s)
        _per_order(self.thresholds, "thresholds", self.d_s, low=0, high=1)
        _check_search(self.search, self.d_s, exact=True)
        _check_solver(self.solver)
        object.__setattr__(self, "thresholds", tuple(float(e) for e in self.thresholds))
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
    """The weight of a checked search spec: its callable, or the POD weight
    of its parameters (one per field of ``WeightParams``); None if none."""
    spec = search.get("weight")
    if spec is None or callable(spec):
        return spec
    p = WeightParams(**spec)
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

    def evaluate_on(self, design) -> np.ndarray:
        """The model at a design's nodes, by the design's own transform."""
        return design.evaluate(self.coefficients)

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
        """The model of a document; each coefficient block is taken by its
        term ``u``, and a missing, extra or repeated term or a block of the
        wrong length raises ValueError."""
        idx = GroupedIndexSet.from_json_dict(doc["index_set"])
        slices = idx.block_slices()
        values = np.empty(len(idx), np.complex128)
        for blk in doc["coefficients"]["blocks"]:
            u, part = tuple(blk["u"]), np.frombuffer(bytes.fromhex(blk["data"]), "<c16")
            sl = slices.pop(u, None)
            if sl is None or len(part) != sl.stop - sl.start:
                raise ValueError(f"coefficient block of term {u}: " + (
                    "repeated or not a term of the index set" if sl is None
                    else f"need {sl.stop - sl.start} values, got {len(part)}"))
            values[sl] = part
        if slices:
            raise ValueError(f"no coefficient block of term {next(iter(slices))}")
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
        return _digest(self.to_json_dict())


def _digest(doc) -> str:
    """SHA-256 of a JSON document in canonical form: sorted keys, no spaces."""
    return hashlib.sha256(json.dumps(doc, sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()


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
        """Fixed data (X, y), or the target at ``count`` nodes from ``seed``;
        the fit's memory is checked before any node is drawn."""
        fixed = isinstance(target, tuple)
        if fixed:
            X, y = target
            nodes = X if isinstance(X, NodeSet) else NodeSet(np.asarray(X))
            y = np.asarray(y, dtype=np.complex128)
            if y.shape != (len(nodes),):
                raise ValueError(f"fixed data: y of shape {y.shape} does not "
                                 f"match X of shape {nodes.points.shape}")
        m = len(nodes) if fixed else int(sampling["count"])
        _check_memory(scattered_fit_bytes(index_set, m),
                      f"scattered fit on m = {m} nodes")
        if not fixed:
            nodes = uniform_nodes(index_set.d, m, int(sampling.get("seed", 0)))
            y = _sample(target, m, lambda lo, hi: nodes.points[lo:hi], np.complex128)
        return cls(nodes), y, {}

    def solve(self, index_set, y, solver: dict, stage: str) -> SolveReport:
        m = len(self.nodes)
        if stage == "detect" and m / 10 < len(index_set) <= m:
            warnings.warn("pilot system has fewer than 10 samples per unknown; "
                          "overfitting may distort the ranking")
        opts = {**SOLVER_DEFAULTS[stage], **solver}
        return lsqr(BlockFourierOperator(self.nodes, index_set), y,
                    atol=float(opts["atol"]), btol=float(opts["btol"]),
                    max_iter=int(opts["max_iter"]),
                    ntol=None if "atol" in solver else opts["ntol"])

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


def _fit(family: TermFamily, build_sets, target, sampling: dict, solver: dict,
         stage: str, **prov):
    """One stage's least-squares fit on ``family``, and its SolveReport.

    The sampling and solver specs are checked before ``build_sets()`` makes
    the per-term index sets; the model's provenance holds the sampling, the
    stage, ``prov`` and the solve's report.
    """
    sampling = _check_sampling(sampling, target)
    _check_solver(solver)
    index_set = grouped(family, build_sets())
    design, y, data = _acquire_data(index_set, target, sampling)
    report = design.solve(index_set, y, solver, stage)
    data.update({"stage": stage, **prov, "solver_report": report.to_json_dict()})
    return ApproxModel(report.coefficients, data, design, y), report


def detect(cfg: DetectionConfig, target) -> ActiveSetResult:
    """Stage one: pilot fit on U_{d_s}, sensitivity ranking, thresholding.

    ``target`` is a callable mapping an (m, d) point array to values, or a
    tuple (X, y) of fixed scattered data.  The active family is the downward
    closure of the terms whose pilot sensitivity index strictly exceeds the
    threshold for their order.
    """
    fam = term_family_ds(cfg.d, cfg.d_s)
    pilot, _ = _fit(fam, lambda: build_search_sets(cfg.d, cfg.d_s, cfg.search),
                    target, cfg.sampling, cfg.solver, "detect", d_s=cfg.d_s,
                    search=cfg.search, thresholds=list(cfg.thresholds))
    report = sensitivity(pilot.coefficients)
    if not report.defined:
        raise ValueError("pilot fit has zero variance; ranking undefined")
    keep = [u for u in fam.sorted_terms()
            if u and report.gsi(u) > cfg.thresholds[len(u) - 1]]
    return ActiveSetResult(report, TermFamily.downward_closure(cfg.d, [()] + keep),
                           pilot)


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
    model, report = _fit(active, lambda: sets, target, sampling, solver or {},
                         "approximate")
    design, _ = model.fit_data()
    imag = report.imag_residual
    if isinstance(design, LatticeDesign):
        # report.imag_residual holds the same value (to roundoff for complex
        # samples); this second evaluation stays while perfbench's tracer
        # requires it (ROADMAP item 7)
        imag = _max_abs(lattice_evaluate(
            (model.index_set, -1j * report.coefficients.values), design.lattice,
            real=True))
    model.provenance["imag_residual"] = imag
    return model
