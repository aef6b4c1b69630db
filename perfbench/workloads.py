"""Workload definitions, input generation and the closed-form oracle check.

Every workload is the two-stage pipeline a user of the package runs:
``method.detect`` fits a pilot on U_3 and ranks terms by sensitivity index,
then ``method.approximate`` refits on the detected family.  The target is
the nine-dimensional B-spline test function of ``anovafourier.bench``,
whose Fourier coefficients are known in closed form.

The ``full`` sizes are the benchmark; the ``smoke`` sizes run the same code
paths in a few seconds and exist only for ``test_smoke.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

D = 9
D_S = 3

#: CBC seed of the black-box workload.  Table 4 of the paper and acceptance
#: criterion 3 use seed 1 (M = 730021 for the pilot cross).  The CBC search
#: draws its lattice size from a geometric schedule, so across seeds M jumps
#: between schedule steps (32x to 70x |I| for the pilot, 160x to 300x for the
#: refit); a seed-driven CBC spreads ``target_evals`` by ~27% between runs,
#: more than any bound the benchmark may set.  The run seed shifts the
#: target on the torus instead.
LATTICE_CBC_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "scattered" or "lattice"
    nodes: int                # scattered dataset size (0 for lattice)
    detect_search: dict
    thresholds: tuple
    final_search: dict
    eps_L2_max: float         # correctness gate on the final model
    # Pipelines a run measures at the least.  The black box's pipeline is the
    # shortest and its timings the most spread, so it measures two and
    # reports their median; more would not fit the time a check may take.
    repeats: int = 1

    def search_types(self) -> set:
        return {self.detect_search["type"], self.final_search["type"]}


def _grid(*N):
    return {"type": "full_grid", "N": list(N)}


def _cross(*N):
    return {"type": "hyperbolic_cross", "N": list(N)}


# eps_L2 gates are 1.25x the seed-1 values at the full sizes (0.0357, 0.0126,
# 5.26e-4); the smoke gates only reject a broken fit.
WORKLOADS = {
    "full": {
        "scattered-grid": Workload(
            "scattered-grid", "scattered", 12000, _grid(16, 6, 2),
            (0.005, 0.005, 0.001), _grid(32, 8, 4), 0.0357 * 1.25),
        "scattered-cross": Workload(
            "scattered-cross", "scattered", 17000, _cross(30, 30, 30),
            (0.005, 0.005, 0.005), _cross(64, 64, 64), 0.0126 * 1.25),
        "blackbox-lattice": Workload(
            "blackbox-lattice", "lattice", 0, _cross(100, 100, 100),
            (0.005, 0.005, 0.005), _cross(1000, 1000, 1000), 5.26e-4 * 1.25,
            repeats=2),
    },
    "smoke": {
        "scattered-grid": Workload(
            "scattered-grid", "scattered", 5000, _grid(8, 4, 2),
            (0.005, 0.005, 0.001), _grid(16, 4, 2), 0.5),
        "scattered-cross": Workload(
            "scattered-cross", "scattered", 2000, _cross(10, 10, 10),
            (0.005, 0.005, 0.005), _cross(20, 20, 20), 0.5),
        "blackbox-lattice": Workload(
            "blackbox-lattice", "lattice", 0, _cross(30, 30, 30),
            (0.005, 0.005, 0.005), _cross(40, 40, 40), 0.5, repeats=2),
    },
}


class CountingTarget:
    """The oracle target f(x + shift mod 1), counting evaluated points.

    ``hook`` (set by the tracer) wraps each evaluation in a span.
    """

    def __init__(self, testfun, shift):
        self._f = testfun
        self.shift = shift
        self.points = 0
        self.hook = None

    def __call__(self, x):
        if self.hook is not None:
            return self.hook(self._eval, x)
        return self._eval(x)

    def _eval(self, x):
        x = np.asarray(x, dtype=np.float64)
        self.points += x.shape[0] if x.ndim == 2 else 1
        if self.shift is None:
            return self._f(x)
        s = x + self.shift
        return self._f(s - np.floor(s))


def make_inputs(wl: Workload, seed: int, target: CountingTarget):
    """Pipeline target and sampling dict for one seed.

    Scattered: a fixed dataset (X, y) of uniform nodes drawn from the seed.
    Black box: the callable target, shifted on the torus by a seed-drawn
    vector; CBC runs with ``LATTICE_CBC_SEED``.
    """
    from anovafourier.operator import uniform_nodes
    if wl.kind == "scattered":
        X = uniform_nodes(D, wl.nodes, seed).points
        return (X, target(X)), {"kind": "scattered"}
    return target, {"kind": "lattice", "seed": LATTICE_CBC_SEED}


def torus_shift(wl: Workload, seed: int):
    if wl.kind == "scattered":
        return None
    return np.random.Generator(np.random.Philox(seed)).random(D)


def oracle_errors(model, shift):
    """(eps_l2, eps_L2) of a fitted model against the exact target.

    The formula of ``bench.errors``, with the exact coefficients of the
    shifted target, c_k exp(2 pi i k.shift):
    ||f - S f||^2 = ||f||^2 + sum_I |c - h|^2 - sum_I |c|^2.
    """
    from anovafourier import bench
    X, y = model.fit_data()
    y = np.asarray(y)
    fitted = model.evaluate_on(X)
    eps_l2 = float(np.linalg.norm(y - fitted) / np.linalg.norm(y))
    K = model.index_set.embedded()
    exact = bench.testfun_coeffs(K).astype(np.complex128)
    if shift is not None:
        exact *= np.exp(2j * np.pi * (K @ shift))
    diff = float(np.sum(np.abs(exact - model.coefficients.values) ** 2))
    kept = float(np.sum(np.abs(exact) ** 2))
    nsq = bench.exact_norm_sq()
    return eps_l2, math.sqrt(max(nsq + diff - kept, 0.0) / nsq)
