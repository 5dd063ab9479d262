"""Projection splitting and the contraction solve for the reduced problem.

The steady equation -U'' - U = rho (r - |U|^2) U is reduced, through
U = v cos x and the splitting v = eps (1 + w) with w free of the
cos^2-weighted mean, to a fixed-point problem for the correction w:

    w  =  |eps|^2 * G( N(w, rho) ),

where N is the amplitude-scaled cubic forcing and G inverts the
linearized operator and removes the mean mode.  For |eps|^2 below an
explicit radius the map is a contraction and plain iteration from w = 0
converges geometrically; far outside that certificate the iteration is
still attempted (optionally with averaging, which preserves the fixed
point but tames period-two oscillations seen near the convergence edge;
``cglvortex.sweep.solve`` restarts with it when plain iteration stalls).

Each operator (mean projection, Green inverse, cubic forcing) has one
implementation on sample arrays that reads the Grid's tables; the public
functions on GridFunctions validate their input and call it, and the
fixed-point loop calls it directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument, InvalidState
from .quadrature import Grid, GridFunction, make_grid
from .greens import _check_admissible, _remove_cos_mode, _solve_envelope, envelope_residual

DEFAULT_NODES = 257

# precondition tolerance: corrections fed to the forcing map must be mean-free
MEAN_FREE_TOL = 1e-10


@dataclass(frozen=True)
class CoreParams:
    """Inputs of one reduced solve."""

    rho: complex
    eps: complex
    sigma: float = 1.0
    max_iter: int = 200
    tol_fp: float = 1e-12

    def __post_init__(self):
        if self.sigma <= 0:
            raise InvalidArgument("sigma must be positive")
        if self.tol_fp <= 0:
            raise InvalidArgument("tol_fp must be positive")
        if self.max_iter < 1:
            raise InvalidArgument("max_iter must be >= 1")

    @property
    def contraction_certified(self) -> bool:
        """True when |eps|^2 lies inside the certified contraction ball."""
        if self.rho == 0:
            return True
        return abs(self.eps) ** 2 < contraction_radius(self.sigma, abs(self.rho))


@dataclass(frozen=True, eq=False)
class Branch:
    """One converged (or attempted) solution of the reduced problem."""

    params: CoreParams
    r: complex
    w: GridFunction
    v: GridFunction
    U: GridFunction
    iterations: int
    fp_residual: float
    ode_residual: float
    converged: bool
    diverged: bool = False
    method: str = "fixed_point"
    increments: tuple = field(default_factory=tuple)
    iterate_sups: tuple = field(default_factory=tuple)

    @property
    def grid(self) -> Grid:
        return self.U.grid


def _project_mean(values: np.ndarray, grid: Grid) -> complex:
    w = grid.weights
    return complex(np.dot(w, values * grid.cos2) / np.dot(w, grid.cos2))


def project_mean(u: GridFunction) -> complex:
    """cos^2-weighted mean of u over J: (int u cos^2) / (int cos^2).

    This is the discrete projection onto the constant mode; the
    normalization by the quadrature value of int cos^2 (= pi/2) makes the
    projector exactly idempotent on the grid, so project_mean(1) == 1 to
    roundoff."""
    return _project_mean(u.values, u.grid)


def _apply_green(f_values: np.ndarray, grid: Grid) -> np.ndarray:
    v = _solve_envelope(f_values, grid, 0.0)
    return v - _project_mean(v, grid)


def apply_green_op(f: GridFunction) -> GridFunction:
    """Mean-free envelope response to an admissible forcing.

    Solves the linearized problem with zero left value and removes the
    cos^2-weighted mean, so the output lies in the complement range; its
    sup norm is bounded by 3 pi times the sup norm of the forcing.
    """
    _check_admissible(f)
    return GridFunction(f.grid, _apply_green(f.values, f.grid))


def _cubic_forcing(w_values: np.ndarray, rho: complex, grid: Grid) -> np.ndarray:
    one = 1.0 + w_values
    absq = (one * one.conjugate()).real
    bulk = (2.0 / np.pi) * grid.integrate(absq * one * grid.cos4)
    f = rho * (bulk - absq * grid.cos2) * one * grid.cos
    # absorb quadrature drift so the output is exactly admissible
    return _remove_cos_mode(f, grid)


def cubic_forcing(w: GridFunction, rho: complex) -> GridFunction:
    """Amplitude-scaled cubic forcing generated by a mean-free correction w.

    N(w)(x) = rho [ (2/pi) int |1+w|^2 (1+w) cos^4 y dy
                    - |1+w(x)|^2 cos^2 x ] (1+w(x)) cos x,

    followed by removal of the residual cosine-mode content (quadrature
    drift), so the result always satisfies the solvability condition.
    """
    if abs(project_mean(w)) > MEAN_FREE_TOL * max(1.0, w.sup_norm):
        raise InvalidArgument("correction w must be mean-free")
    return GridFunction(w.grid, _cubic_forcing(w.values, rho, w.grid))


def compute_r(v: GridFunction, eps: complex) -> complex:
    """Response coefficient r = (2 / (eps pi)) int |v|^2 v cos^4 y dy."""
    if eps == 0:
        raise InvalidArgument("eps must be nonzero")
    vals = v.values
    absq = (vals * vals.conjugate()).real
    return (2.0 / (eps * np.pi)) * v.grid.integrate(absq * vals * v.grid.cos4)


def _ode_residual(v_vals, u_vals, rho, r, grid: Grid) -> float:
    """Envelope collocation residual of -U'' - U = rho (r - |U|^2) U."""
    absq = (u_vals * u_vals.conjugate()).real
    return envelope_residual(v_vals, rho * (r - absq) * u_vals, grid)


def contraction_radius(sigma: float, rho_abs: float) -> float:
    """Certified bound on |eps|^2 for contraction on the ball of radius sigma.

    delta(sigma) = min(sigma/(1+sigma), 1/3) / (3 pi |rho| (2+sigma) (1+sigma)^2).
    """
    if sigma <= 0 or rho_abs <= 0:
        raise InvalidArgument("sigma and rho_abs must be positive")
    return (
        min(sigma / (1.0 + sigma), 1.0 / 3.0)
        / (3.0 * np.pi * rho_abs * (2.0 + sigma) * (1.0 + sigma) ** 2)
    )


def fixed_point_solve(
    params: CoreParams,
    grid: Grid | None = None,
    w0: GridFunction | None = None,
    relaxation: float = 1.0,
) -> Branch:
    """Iterate the reduced fixed-point map from w0 (default 0).

    Plain iteration (relaxation 1) reproduces the contraction argument and
    is geometric inside the certified ball.  relaxation theta in (0, 1]
    replaces the update by (1-theta) w + theta T(w); the fixed point is
    unchanged.  Non-convergence is reported in the returned Branch, not
    raised; NaN or overflow during iteration sets the diverged flag.
    """
    if not (0.0 < relaxation <= 1.0):
        raise InvalidArgument("relaxation must lie in (0, 1]")
    if grid is None:
        grid = make_grid(DEFAULT_NODES)
    rho, eps = params.rho, params.eps
    s = abs(eps) ** 2

    def fp_map(w):
        return s * _apply_green(_cubic_forcing(w, rho, grid), grid)

    w = np.zeros(grid.n_nodes, dtype=complex) if w0 is None else w0.values.astype(complex)
    increments: list[float] = []
    sups: list[float] = []
    converged = False
    diverged = False
    iterations = 0

    # overflow on the way to divergence is expected: the isfinite test
    # below catches it and the Branch reports it as diverged
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(params.max_iter):
            t_w = fp_map(w)
            if not np.all(np.isfinite(t_w)):
                diverged = True
                iterations += 1
                break
            w_new = t_w if relaxation == 1.0 else (1.0 - relaxation) * w + relaxation * t_w
            inc = float(np.max(np.abs(w_new - w)))
            increments.append(inc)
            sups.append(float(np.max(np.abs(w_new))))
            w = w_new
            iterations += 1
            if inc <= params.tol_fp:
                converged = True
                break

        if diverged:
            w = np.where(np.isfinite(w), w, 0.0)
            fp_residual = float("inf")
        else:
            fp_residual = float(np.max(np.abs(fp_map(w) - w)))

        v_vals = eps * (1.0 + w)
        u_vals = v_vals * grid.cos
        w_gf = GridFunction(grid, w)
        v_gf = GridFunction(grid, v_vals)
        u_gf = GridFunction(grid, u_vals)
        r = compute_r(v_gf, eps) if eps != 0 else 0.0 + 0.0j
        ode_res = _ode_residual(v_vals, u_vals, rho, r, grid)

    return Branch(
        params=params,
        r=r,
        w=w_gf,
        v=v_gf,
        U=u_gf,
        iterations=iterations,
        fp_residual=fp_residual,
        ode_residual=ode_res,
        converged=converged,
        diverged=diverged,
        method="fixed_point",
        increments=tuple(increments),
        iterate_sups=tuple(sups),
    )


def asymptotic_r(rho: complex, eps: complex, order: int) -> complex:
    """Small-amplitude series for r.

    order 0: (3/4)|eps|^2
    order 1: (3/4)|eps|^2 (1 - rho |eps|^2 / 32)

    The first-order coefficient is exact on the real rho axis; off it the
    computed branches carry a conjugate-coupled coefficient instead, so
    order-1 comparisons should be made at real rho.
    """
    if order not in (0, 1):
        raise InvalidArgument(f"unsupported order {order}")
    s = abs(eps) ** 2
    r = 0.75 * s
    if order >= 1:
        r *= 1.0 - rho * s / 32.0
    return complex(r)


def asymptotic_U(rho: complex, eps: complex, x, order: int):
    """Small-amplitude series for the profile U at position(s) x.

    U = eps cos x [ 1 - z q(x) + z^2 p(x) + ... ],  z = rho |eps|^2 / 32,
    with q = 2 cos 2x - 1 and p = 4 cos 2x + 2 cos 4x - 2, the
    polynomial-in-cosine forms of cos 3x / cos x and
    (3 cos 3x + cos 5x) / cos x.  Finite at the zeros of cos x.
    """
    if order not in (0, 1, 2):
        raise InvalidArgument(f"unsupported order {order}")
    x = np.asarray(x, dtype=float)
    z = rho * abs(eps) ** 2 / 32.0
    bracket = np.ones_like(x, dtype=complex)
    if order >= 1:
        bracket = bracket - z * (2.0 * np.cos(2 * x) - 1.0)
    if order >= 2:
        bracket = bracket + z * z * (4.0 * np.cos(2 * x) + 2.0 * np.cos(4 * x) - 2.0)
    out = eps * np.cos(x) * bracket
    if out.ndim == 0:
        return complex(out)
    return out


def r_correction_factor(branch: Branch) -> complex:
    """Relative correction phi with r = (3/4)|eps|^2 (1 + |eps|^2 phi)."""
    if not branch.converged:
        raise InvalidState("branch did not converge")
    eps = branch.params.eps
    if eps == 0:
        raise InvalidArgument("eps must be nonzero")
    s = abs(eps) ** 2
    return (branch.r / (0.75 * s) - 1.0) / s


def profile_correction(branch: Branch) -> GridFunction:
    """Scaled profile correction: U = eps (1 + |eps|^2 Phi) cos x.

    Phi = w / |eps|^2 inherits mean-freeness from w (the projection is
    taken per half-period on J)."""
    if not branch.converged:
        raise InvalidState("branch did not converge")
    eps = branch.params.eps
    if eps == 0:
        raise InvalidArgument("eps must be nonzero")
    return GridFunction(branch.grid, branch.w.values / abs(eps) ** 2)
