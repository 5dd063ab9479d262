"""Projection splitting and the contraction solve for the reduced problem.

The steady equation -U'' - U = rho (r - |U|^2) U is reduced, through
U = v cos x and the splitting v = eps (1 + w) with w free of the
cos^2-weighted mean, to a fixed-point problem for the correction w:

    w  =  |eps|^2 * G( N(w, rho) ),

where N is the amplitude-scaled cubic forcing and G inverts the
linearized operator and removes the mean mode.  For |eps|^2 below an
explicit radius the map is a contraction and plain iteration from w = 0
converges geometrically; far outside that certificate the iteration is
still attempted.  Near the convergence edge plain iteration settles into
a period-two oscillation; once its increments neither shrink nor grow
the same solve switches to Anderson mixing, which has the same fixed point.

Each operator (mean projection, Green inverse, cubic forcing) has one
implementation on sample arrays that reads the Grid's tables; the public
functions on GridFunctions validate their input and call it, and the
fixed-point loop calls it directly.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgument
from .quadrature import Grid, GridFunction, make_grid
from .greens import _check_admissible, _remove_cos_mode, _solve_envelope, envelope_residual

DEFAULT_NODES = 257

# precondition tolerance: corrections fed to the forcing map must be mean-free
MEAN_FREE_TOL = 1e-10

# plain iteration has stalled at iteration k >= STALL_MIN_ITER when
# STALL_BAND[0] |dw_{k-2}| < |dw_k| <= STALL_BAND[1] |dw_{k-2}|
STALL_MIN_ITER = 10
STALL_BAND = (0.95, 1.05)
# Anderson mixing depth, and the growth of sup|T(w) - w| over its value at
# the switch that ends the accelerated phase as diverged
ANDERSON_DEPTH = 6
ANDERSON_DIVERGENCE = 100.0


@dataclass(frozen=True)
class CoreParams:
    """Inputs of one solve, shared by the fixed-point, shooting and
    finite-difference solvers: rho, eps, the iteration cap max_iter and the
    stopping tolerance tol_fp.  No solve reads the certificate: see
    contraction_radius."""

    rho: complex
    eps: complex
    max_iter: int = 200
    tol_fp: float = 1e-12

    def __post_init__(self):
        if not (np.isfinite(self.rho) and np.isfinite(self.eps)):
            raise InvalidArgument("rho and eps must be finite")
        if self.eps == 0:
            raise InvalidArgument("eps must be nonzero")
        if self.tol_fp <= 0:
            raise InvalidArgument("tol_fp must be positive")
        if self.max_iter < 1:
            raise InvalidArgument("max_iter must be >= 1")


@dataclass(frozen=True, eq=False)
class Branch:
    """One converged (or attempted) solution of the reduced problem.

    Every solver builds it with _branch or, when the solve blew up,
    _diverged_branch: a diverged branch holds no profile (w, v and U are
    zero, r is nan+nanj, ode_residual is inf) and keeps the rest of what
    the solve did before it stopped.

    accelerated_at is the number of plain map applications after which a
    fixed-point solve switched to Anderson mixing, or None when it did not;
    increments and iterate_sups then continue with the accelerated
    iterates."""

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
    accelerated_at: int | None = None

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


def _ode_forcing(u_vals: np.ndarray, rho: complex, r: complex) -> np.ndarray:
    """Right-hand side rho (r - |U|^2) U of the branch ODE."""
    absq = (u_vals * u_vals.conjugate()).real
    return rho * (r - absq) * u_vals


def ode_forcing(v: GridFunction, rho: complex, r: complex) -> GridFunction:
    """Pointwise forcing f(x) = rho (r - |v|^2 cos^2 x) v(x) cos x."""
    return GridFunction(v.grid, _ode_forcing(v.values * v.grid.cos, rho, r))


def _ode_residual(v_vals, u_vals, rho, r, grid: Grid) -> float:
    """Envelope collocation residual of -U'' - U = rho (r - |U|^2) U."""
    return envelope_residual(v_vals, _ode_forcing(u_vals, rho, r), grid)


def _branch(params: CoreParams, grid: Grid, method: str, v_vals, u_vals, r,
            iterations: int, fp_residual: float, converged: bool, w=None,
            **extra) -> Branch:
    """Branch of a solve that ended on the envelope v_vals and profile u_vals.

    w defaults to v / eps - 1 and r, when None, to compute_r of the
    envelope; extra holds the optional Branch fields."""
    eps = params.eps
    v = GridFunction(grid, v_vals)
    r = complex(compute_r(v, eps) if r is None else r)
    return Branch(
        params=params,
        r=r,
        w=GridFunction(grid, v_vals / eps - 1.0 if w is None else w),
        v=v,
        U=GridFunction(grid, u_vals),
        iterations=iterations,
        fp_residual=fp_residual,
        ode_residual=_ode_residual(v_vals, u_vals, params.rho, r, grid),
        converged=converged,
        method=method,
        **extra,
    )


def _diverged_branch(params: CoreParams, grid: Grid, method: str, iterations: int,
                     fp_residual: float = float("inf"), **extra) -> Branch:
    """The one record of a solve that blew up (see Branch)."""
    zeros = GridFunction(grid, np.zeros(grid.n_nodes, dtype=complex))
    return Branch(
        params=params,
        r=complex(float("nan"), float("nan")),
        w=zeros,
        v=zeros,
        U=zeros,
        iterations=iterations,
        fp_residual=fp_residual,
        ode_residual=float("inf"),
        converged=False,
        diverged=True,
        method=method,
        **extra,
    )


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


class _Anderson:
    """Type-II Anderson mixing of depth ANDERSON_DEPTH (Walker & Ni 2011).

    Each step takes the residual f = T(w) - w and g = T(w) and returns
    g - dG gamma, where gamma minimizes |f - dF gamma|_2 over the last
    differences dF, dG of residuals and map values.  gamma is real, from
    least squares on the stacked real and imaginary parts, because the
    map is not complex-linear in w; a real combination of map values is
    mean-free like each of them.
    """

    def __init__(self):
        self.d_f: deque = deque(maxlen=ANDERSON_DEPTH)
        self.d_g: deque = deque(maxlen=ANDERSON_DEPTH)
        self.f = self.g = None

    def step(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        if self.f is not None:
            self.d_f.append(f - self.f)
            self.d_g.append(g - self.g)
        self.f, self.g = f, g
        if not self.d_f:
            return g
        d_f = np.array(self.d_f)
        gamma = np.linalg.lstsq(
            np.hstack((d_f.real, d_f.imag)).T, np.concatenate((f.real, f.imag)), rcond=None
        )[0]
        return g - gamma @ np.array(self.d_g)


def _stalled(increments: list[float]) -> bool:
    """True when the latest increment |dw_k| neither shrank nor grew
    against |dw_{k-2}|: the period-two oscillation of the plain map."""
    k = len(increments) - 1
    if k < STALL_MIN_ITER:
        return False
    low, high = STALL_BAND
    return low * increments[k - 2] < increments[k] <= high * increments[k - 2]


def fixed_point_solve(
    params: CoreParams,
    grid: Grid | None = None,
    w0: GridFunction | None = None,
) -> Branch:
    """Iterate the reduced fixed-point map from w0 (default 0).

    Plain iteration w <- T(w) reproduces the contraction argument and is
    geometric inside the certified ball.  When it stalls (see _stalled),
    the same loop continues from the current iterate with Anderson mixing
    (_Anderson), and Branch.accelerated_at records the iteration of the
    switch; the fixed point is the same.  Both phases stop when
    sup|T(w) - w| <= tol_fp and return T(w).  Branch.iterations counts
    every map application of both phases except the one that measures
    fp_residual.  Non-convergence is reported in the returned Branch, not
    raised: NaN or overflow of the map (fp_residual inf), or an accelerated
    residual ANDERSON_DIVERGENCE times its value at the switch (fp_residual
    that residual), ends the solve with the diverged record of
    _diverged_branch.
    """
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
    mixer: _Anderson | None = None
    accelerated_at = None

    # overflow on the way to divergence is expected: the isfinite test
    # below catches it and the Branch reports it as diverged
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, params.max_iter + 1):
            t_w = fp_map(w)
            if not np.all(np.isfinite(t_w)):
                diverged = True
                fp_residual = float("inf")
                break
            f = t_w - w
            inc = float(np.max(np.abs(f)))
            increments.append(inc)
            sups.append(float(np.max(np.abs(t_w))))
            if inc <= params.tol_fp:
                w = t_w
                converged = True
                break
            if mixer is None and _stalled(increments):
                mixer, accelerated_at = _Anderson(), iterations
            if mixer is None:
                w = t_w
            elif inc > ANDERSON_DIVERGENCE * increments[accelerated_at - 1]:
                diverged = True
                fp_residual = inc
                break
            else:
                w = mixer.step(f, t_w)

        history = dict(increments=tuple(increments), iterate_sups=tuple(sups),
                       accelerated_at=accelerated_at)
        if diverged:
            return _diverged_branch(params, grid, "fixed_point", iterations,
                                    fp_residual, **history)
        fp_residual = float(np.max(np.abs(fp_map(w) - w)))
        v_vals = eps * (1.0 + w)
        return _branch(params, grid, "fixed_point", v_vals, v_vals * grid.cos, None,
                       iterations, fp_residual, converged, w=w, **history)


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

