"""Probabilistic geometry of random ±1-polytopes.

Edge oracles backed by exact rational feasibility, long-edge and edge
probability estimators, chamber counts of central hyperplane arrangements,
and seeded threshold experiments around the square-root-of-2 density
transition.

Importing polydense before numpy keeps OpenBLAS at one thread: the package
sets OPENBLAS_NUM_THREADS=1 unless the variable is already set.  polydense
makes no BLAS call (every verdict is exact, in Python ints and int64
arrays), yet numpy's bundled OpenBLAS starts an idle worker thread when it
loads, and that thread busy-waits through start-up, about 65 ms of CPU per
command-line run.  Forked pool workers inherit the setting.  To run
OpenBLAS threaded, set OPENBLAS_NUM_THREADS in the environment, or import
numpy before polydense.
"""

import os

# First, before any module imports numpy: OpenBLAS reads this when it loads.
# polydense makes no BLAS call, and OpenBLAS's idle worker thread would spin
# through start-up; a value the caller has set stands.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .arrangements import (BRUTE_FORCE, DELETION_RESTRICTION, ChamberCount,
                           VectorConfig, build_config_plus, chamber_count,
                           chamber_count_bruteforce, harding_bound,
                           moivre_laplace_ratio, normal_cdf, partial_binomial_sum,
                           phi_project)
from .cube import (CubeVertex, VertexSet, cut_polytope_vertices, full_cube,
                   sample_vertex_bits)
from .errors import (BudgetExceeded, DegenerateInput, DimensionMismatch,
                     PolydenseError)
from .estimators import (DensitySweepRow, MonotonicityReport, PiDecomposition,
                         TauSweepRow, TauTable, alpha_exact, alpha_mc,
                         alpha_via_chambers, alpha_via_chambers_exact,
                         build_tau_table, decompose_pi, density_threshold_sweep,
                         monotonicity_check, pi_exact, pi_from_pk, pi_k_exact,
                         pi_k_mc, pi_k_semianalytic, pi_mc, tau_cell, tau_exact,
                         tau_from_alpha, tau_mc, tau_threshold_sweep,
                         tau_upper_bound, xi_exact)
from .exactlp import (FEASIBLE, INFEASIBLE, FeasibilityResult,
                      check_convex_combination, check_strict_witness,
                      origin_in_conv, origin_in_conv_batch,
                      segment_hull_intersect, strict_separation)
from .graph import (DensityReport, edge_kernel, graph_density_exact, is_edge,
                    long_edge_survives, long_edges_survive)
from .mc import Estimate, bernoulli_estimate, exact_estimate, wilson_interval
from .rng import stream

__version__ = "0.1.0"
