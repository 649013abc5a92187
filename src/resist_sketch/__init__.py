"""Leverage-score edge sampling for Laplacian least-squares problems.

Computes exact statistical leverage scores and effective resistances of
weighted undirected graphs, sparsifies the graph Laplacian by seeded
randomized edge sampling, solves the exact and sparsified systems through
the pseudoinverse, and verifies the accuracy and concentration guarantees
by Monte Carlo at desk scale.
"""

from .errors import FactorizationError, GraphParseError, ParameterError
from .families import complete, cycle, path, random_connected, random_tree
from .graphs import (
    IncidenceFactors,
    WeightedGraph,
    component_count,
    incidence_factors,
    laplacian_of,
)
from .harness import (
    RunConfig,
    VerifyReport,
    cmd_leverage,
    cmd_resistance,
    cmd_solve,
    cmd_sparsify,
    cmd_verify,
    default_rhs,
    run_report,
    trial_seed,
)
from .io import load_graph, load_vector, save_graph, save_vector
from .sampling import (
    SamplingPlan,
    SparsifiedSystem,
    build_sparsifier,
    concentration_check,
    draw_counts,
    sample_count,
)
from .solve import SolveReport, energy_norm, error_report, solve_exact, solve_sparsified
from .spectral import (
    SpectralProfile,
    effective_resistances,
    leverage_probabilities,
    spectral_profile,
)
from .version import VERSION

__version__ = VERSION

__all__ = [
    "FactorizationError",
    "GraphParseError",
    "IncidenceFactors",
    "ParameterError",
    "RunConfig",
    "SamplingPlan",
    "SolveReport",
    "SparsifiedSystem",
    "SpectralProfile",
    "VerifyReport",
    "WeightedGraph",
    "build_sparsifier",
    "cmd_leverage",
    "cmd_resistance",
    "cmd_solve",
    "cmd_sparsify",
    "cmd_verify",
    "complete",
    "component_count",
    "concentration_check",
    "cycle",
    "default_rhs",
    "draw_counts",
    "effective_resistances",
    "energy_norm",
    "error_report",
    "incidence_factors",
    "laplacian_of",
    "leverage_probabilities",
    "load_graph",
    "load_vector",
    "path",
    "random_connected",
    "random_tree",
    "run_report",
    "sample_count",
    "save_graph",
    "save_vector",
    "solve_exact",
    "solve_sparsified",
    "spectral_profile",
    "trial_seed",
    "VERSION",
]
