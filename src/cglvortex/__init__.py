"""Numerical toolkit for bifurcating vortex branches of the complex
Ginzburg-Landau equation on the line: Green-kernel linear solves on the
half-period, a certified contraction reduction, independent shooting and
finite-difference cross-checks, physical parameter maps, and parameter
sweeps with machine-readable output."""

from .errors import (
    ExtensionError,
    InvalidArgument,
    InvalidState,
    SolvabilityError,
    ToolkitError,
)
from .quadrature import Grid, GridFunction, integrate, make_grid
from .greens import (
    enforce_solvability,
    envelope_residual,
    green_kernel,
    jump_increment,
    solvability_residual,
    solve_linear_inhomogeneous,
)
from .reduction import (
    Branch,
    CoreParams,
    apply_green_op,
    asymptotic_U,
    asymptotic_r,
    compute_r,
    contraction_radius,
    cubic_forcing,
    fixed_point_solve,
    ode_forcing,
    project_mean,
)
from .direct import (
    compare_branches,
    fd_solve,
    shoot_solve,
)
from .physics import (
    PhysParams,
    VortexSolution,
    asymptotic_R,
    asymptotic_omega,
    cgl_residual,
    extend_solution,
    mu_nu_from_rho,
    physical_from_r,
    r_from_physical,
    rho_from_physical,
)
from .sweep import (
    SweepRecord,
    SweepSpec,
    count_zeros,
    detect_asymmetric,
    emit_results,
    load_records,
    mirror_conjugate,
    record_from_branch,
    run_sweep,
    solve,
    symmetry_defect,
)

__all__ = [
    "Branch",
    "CoreParams",
    "ExtensionError",
    "Grid",
    "GridFunction",
    "InvalidArgument",
    "InvalidState",
    "PhysParams",
    "SolvabilityError",
    "SweepRecord",
    "SweepSpec",
    "ToolkitError",
    "VortexSolution",
    "apply_green_op",
    "asymptotic_R",
    "asymptotic_U",
    "asymptotic_omega",
    "asymptotic_r",
    "cgl_residual",
    "compare_branches",
    "compute_r",
    "contraction_radius",
    "count_zeros",
    "cubic_forcing",
    "detect_asymmetric",
    "emit_results",
    "enforce_solvability",
    "envelope_residual",
    "extend_solution",
    "fd_solve",
    "fixed_point_solve",
    "green_kernel",
    "integrate",
    "jump_increment",
    "load_records",
    "make_grid",
    "mirror_conjugate",
    "mu_nu_from_rho",
    "ode_forcing",
    "physical_from_r",
    "project_mean",
    "r_from_physical",
    "record_from_branch",
    "rho_from_physical",
    "run_sweep",
    "shoot_solve",
    "solvability_residual",
    "solve",
    "solve_linear_inhomogeneous",
    "symmetry_defect",
]

__version__ = "0.1.0"
