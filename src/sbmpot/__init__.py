"""Potential theory for subordinate Brownian motion killed at the origin.

Numerics for the scale kernels (psi, j, u^q, h), free and interval Green
functions, exit statistics, Poisson kernels and harmonic extensions, plus
a certification suite that re-measures every comparability constant the
toolkit relies on.
"""

from .errors import ConfigError, DomainError, QuadratureError, SolverError
from .bernstein import (
    PhiSpec,
    ScalingReport,
    phi_eval,
    scaling_exponents,
)
from .kernels import KernelSet
from .interval_solver import (
    BhpReport,
    ExitAliveReport,
    GeneratorMatrix,
    GreenMatrix,
    Grid,
    HarnackReport,
    PoissonTable,
    ZGrid,
    bhp_sup_ratio,
    build_generator,
    default_boundary_fset,
    default_zgrid,
    exit_alive_prob,
    exit_time,
    gauge_ratios,
    green_drift,
    green_matrix,
    harmonic_extend,
    harnack_sup_ratio,
    poisson_kernel,
    small_interval_lower,
    three_g_sup,
)
from .montecarlo import (
    ExitStats,
    PathConfig,
    sample_increment,
    simulate_exit,
)
from .verify import (
    CHECK_NAMES,
    CheckReport,
    CheckResult,
    RunConfig,
    emit_report,
    load_report,
    run_verify,
)

__version__ = "0.1.0"

__all__ = [
    "BhpReport",
    "CHECK_NAMES",
    "CheckReport",
    "CheckResult",
    "ConfigError",
    "DomainError",
    "ExitAliveReport",
    "ExitStats",
    "GeneratorMatrix",
    "GreenMatrix",
    "Grid",
    "HarnackReport",
    "KernelSet",
    "PathConfig",
    "PhiSpec",
    "PoissonTable",
    "QuadratureError",
    "RunConfig",
    "ScalingReport",
    "SolverError",
    "ZGrid",
    "bhp_sup_ratio",
    "build_generator",
    "default_boundary_fset",
    "default_zgrid",
    "emit_report",
    "exit_alive_prob",
    "exit_time",
    "gauge_ratios",
    "green_drift",
    "green_matrix",
    "harmonic_extend",
    "harnack_sup_ratio",
    "load_report",
    "phi_eval",
    "poisson_kernel",
    "run_verify",
    "scaling_exponents",
    "sample_increment",
    "simulate_exit",
    "small_interval_lower",
    "three_g_sup",
    "__version__",
]
