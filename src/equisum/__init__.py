"""Equilibrium node placement for sums of translated concave kernels.

The core objects: a :class:`Problem` bundles one kernel per node; the
evaluator computes arc maxima and their differences for a given node
ordering; the solver drives those differences to zero (equioscillation)
and certifies minimax / maximin configurations; the oracle module
re-derives the same quantities by brute force for cross-checking; and
the extremal module maps the torus machinery onto weighted Chebyshev
problems on an interval.
"""

__version__ = "0.1.0"

from .torus import (
    TWO_PI,
    ValidationError,
    NodeSystem,
    Permutation,
    arcs,
    as_permutation,
    locate,
    min_gap,
    node_dist,
    reduce_angle,
    torus_dist,
)
from .kernels import (
    CapabilityError,
    Kernel,
    KernelClass,
    approximant,
    from_config,
    kernel_sum,
    kernel_weight,
    log_sine,
    parabola,
    riesz,
    table,
    tent,
    weighted,
)
from .evaluator import (
    ArcProfile,
    JacobianUnavailableError,
    Problem,
    delta,
    jacobian_delta,
    jacobian_m,
    profile,
    sum_translates,
    sum_translates_full,
)
from .solver import (
    BOUNDARY_SUSPECTED,
    CONVERGED,
    JACOBIAN_SINGULAR,
    MAX_ITER,
    GlobalReport,
    SolveOptions,
    SolveReport,
    equidistant_nodes,
    maximin,
    minimax,
    minimax_global,
    solve_equioscillation,
)
from .oracle import (
    GridMinimax,
    MMatrixReport,
    ProbeTable,
    SandwichReport,
    check_majorization,
    check_mmatrix,
    check_sandwich,
    convergence_probe,
    grid_minimax,
    grid_profile,
    grid_sup,
    interval_gap_minimax,
)
from .extremal import (
    BojanovProblem,
    DoubledResult,
    ExtremalPolynomial,
    GtpProblem,
    GtpResult,
    eval_gap,
    gtp_value,
    solve_bojanov,
    solve_doubled_symmetric,
    solve_gtp,
    transfer_to_interval,
    transference_identity_check,
)

__all__ = [
    "__version__",
    # torus
    "TWO_PI", "ValidationError", "NodeSystem", "Permutation",
    "arcs", "as_permutation", "locate", "min_gap",
    "node_dist", "reduce_angle", "torus_dist",
    # kernels
    "CapabilityError", "Kernel", "KernelClass", "approximant", "from_config",
    "kernel_sum", "kernel_weight", "log_sine", "parabola", "riesz", "table",
    "tent", "weighted",
    # evaluator
    "ArcProfile", "JacobianUnavailableError", "Problem", "delta",
    "jacobian_delta", "jacobian_m", "profile", "sum_translates",
    "sum_translates_full",
    # solver
    "BOUNDARY_SUSPECTED", "CONVERGED", "JACOBIAN_SINGULAR", "MAX_ITER",
    "GlobalReport", "SolveOptions", "SolveReport", "equidistant_nodes",
    "maximin", "minimax", "minimax_global", "solve_equioscillation",
    # oracle
    "GridMinimax", "MMatrixReport", "ProbeTable", "SandwichReport",
    "check_majorization", "check_mmatrix", "check_sandwich",
    "convergence_probe", "grid_minimax", "grid_profile", "grid_sup",
    "interval_gap_minimax",
    # extremal
    "BojanovProblem", "DoubledResult", "ExtremalPolynomial", "GtpProblem",
    "GtpResult", "eval_gap", "gtp_value", "solve_bojanov",
    "solve_doubled_symmetric", "solve_gtp", "transfer_to_interval",
    "transference_identity_check",
]
