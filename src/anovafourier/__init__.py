"""Sparse ANOVA-structured Fourier approximation of periodic functions.

Core pipeline: grouped frequency index sets over downward-closed term
families, matrix-free least squares (LSQR for scattered data, one-FFT
adjoint solves on reconstructing rank-1 lattices), global sensitivity
indices for active-set detection, and closed-form truncation bounds for
product-and-order-dependent weights.
"""

__version__ = "0.1.0"

from ._kernels import BACKEND
from .anova import (CoefficientMap, SensitivityReport, sensitivity,
                    term_family_ds, variance)
from .index_sets import (GroupedIndexSet, LowDimIndexSet, TermFamily,
                         full_grid, grouped, hyperbolic_cross,
                         weighted_index_set)
from .lattice import (Rank1Lattice, cbc_construct, is_reconstructing,
                      lattice_evaluate, lattice_nodes, lattice_reconstruct)
from .method import (ActiveSetResult, ApproxModel, ConfigError,
                     DetectionConfig, approximate, build_search_sets, detect,
                     gap_intervals)
from .operator import (BlockFourierOperator, NodeSet, SolveReport,
                       lattice_solve, lsqr, uniform_nodes)
from .weights import (WeightParams, pod_weight, sobolev_trunc_bound_l2,
                      sobolev_trunc_bound_linf, wiener_trunc_bound, zeta)
