"""Independent solvers for the steady equation -U'' - U = rho (r - |U|^2) U.

Both solvers fix the amplitude through the same normalization as the
reduced solve (the cos^2-weighted mean of the envelope equals eps) and
return the same Branch record, so results can be compared directly against
the fixed-point method.

Shooting integrates the initial value problem from the left end with RK4
and applies a damped Newton iteration to the unknowns (U'(-pi/2), r).
Trial integrations can escape in finite x for strongly amplifying rho;
escapes are detected and force the line search to backtrack.

The finite-difference solver assembles the centered-difference system with
a bordered normalization row.  The extra unknown is lam = rho * r, which
keeps the bordered matrix nonsingular in the linear limit rho -> 0 (there
r itself drops out of the equation and is reported through the integral
convention instead).  The system is solved by Newton's method in real
variables, one sparse direct solve per pass, which continues to the
largest radii.  The bordered Jacobian has the same sparse pattern at every
pass, so it is laid out once per grid and each pass only rewrites its
values.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize_scalar
from scipy.sparse.linalg import spsolve

from .errors import DegenerateSystem, InvalidArgument, InvalidState
from .quadrature import Grid, GridFunction, make_grid
from .greens import resample_periodic
from .reduction import Branch, CoreParams, _ode_residual, asymptotic_r, compute_r

ESCAPE_CAP = 1e6
RHO_ZERO_CUTOFF = 1e-13


def ode_forcing(v: GridFunction, rho: complex, r: complex) -> GridFunction:
    """Pointwise forcing f(x) = rho (r - |v|^2 cos^2 x) v(x) cos x."""
    grid = v.grid
    vals = v.values
    absq = (vals * vals.conjugate()).real
    return GridFunction(grid, rho * (r - absq * grid.cos2) * vals * grid.cos)


# --------------------------------------------------------------- shooting

@dataclass(frozen=True)
class ShootingState:
    """Initial data and controls for the shooting solver."""

    a: complex
    r: complex
    step_count: int = 2048
    newton_tol: float = 1e-11
    newton_max: int = 60

    def __post_init__(self):
        if self.step_count < 64:
            raise InvalidArgument("step_count must be >= 64")
        if self.newton_tol <= 0:
            raise InvalidArgument("newton_tol must be positive")


def _rk4_profile(rho, r, a, n_steps, n_nodes):
    """Integrate from -pi/2 with U = 0, U' = a; fixed-step RK4.

    Carries the running normalization integral int U cos as an extra
    state.  Returns (U at the n_nodes output nodes, U_end, U'_end, I) or
    None when |U| escapes the cap (finite-x blowup of a trial)."""
    h = np.pi / n_steps
    stride = n_steps // (n_nodes - 1)
    half_pi = np.pi / 2
    U = 0.0 + 0.0j
    V = complex(a)
    integ = 0.0 + 0.0j
    out = np.empty(n_nodes, dtype=complex)
    out[0] = U
    k = 0
    for istep in range(n_steps):
        x = -half_pi + istep * h
        # stage derivatives of (U, V, I)
        aU = abs(U)
        f1v = -U - rho * (r - aU * aU) * U
        f1i = U * np.cos(x)
        U2 = U + 0.5 * h * V
        V2 = V + 0.5 * h * f1v
        xm = x + 0.5 * h
        aU = abs(U2)
        f2v = -U2 - rho * (r - aU * aU) * U2
        f2i = U2 * np.cos(xm)
        U3 = U + 0.5 * h * V2
        V3 = V + 0.5 * h * f2v
        aU = abs(U3)
        f3v = -U3 - rho * (r - aU * aU) * U3
        f3i = U3 * np.cos(xm)
        U4 = U + h * V3
        V4 = V + h * f3v
        aU = abs(U4)
        f4v = -U4 - rho * (r - aU * aU) * U4
        f4i = U4 * np.cos(x + h)
        Unew = U + h / 6.0 * (V + 2.0 * V2 + 2.0 * V3 + V4)
        V = V + h / 6.0 * (f1v + 2.0 * f2v + 2.0 * f3v + f4v)
        integ = integ + h / 6.0 * (f1i + 2.0 * f2i + 2.0 * f3i + f4i)
        U = Unew
        au = abs(U)
        if not (au < ESCAPE_CAP):
            return None
        if (istep + 1) % stride == 0:
            k += 1
            out[k] = U
    return out, U, V, integ


def shoot_solve(
    rho: complex,
    eps: complex,
    init: ShootingState | None = None,
    grid: Grid | None = None,
) -> Branch:
    """Shooting solution of the full nonlinear problem.

    Unknowns (U'(-pi/2), r) as four real variables against the four real
    conditions U(pi/2) = 0 and mean-normalization = eps.  Jacobian by
    forward differences (relative step 1e-7), damped by backtracking on
    the condition norm.
    """
    if eps == 0:
        raise InvalidArgument("eps must be nonzero")
    if grid is None:
        grid = make_grid(257)
    n = grid.n_nodes
    if init is None:
        init = ShootingState(a=eps, r=asymptotic_r(rho, eps, 1))
    stride = -(-init.step_count // (n - 1))  # ceil
    n_steps = stride * (n - 1)
    cos, sw = grid.cos, grid.weights
    denom = float(np.dot(sw, grid.cos2))

    def conditions(a, r):
        res = _rk4_profile(rho, r, a, n_steps, n)
        if res is None:
            return None, None, None
        out, u_end, v_end, _ = res
        norm_cond = np.dot(sw, out * cos) / denom - eps
        return np.array([u_end, norm_cond]), out, v_end

    params = CoreParams(
        rho=rho, eps=eps, max_iter=init.newton_max, tol_fp=init.newton_tol
    )
    scale = max(1.0, abs(eps))

    if abs(rho) <= RHO_ZERO_CUTOFF:
        # linear limit: U = eps cos x exactly; r drops out of the equation
        g, out, v_end = conditions(eps, 0.0)
        return _shooting_branch(params, grid, out, eps, v_end, 0, float(abs(g[0])), True)

    z = np.array(
        [init.a.real, init.a.imag, init.r.real, init.r.imag], dtype=float
    )
    g, out, v_end = conditions(z[0] + 1j * z[1], z[2] + 1j * z[3])
    if g is None:
        return _escaped_branch(params, grid)
    increments = []
    converged = False
    iterations = 0
    for _ in range(init.newton_max):
        gnorm = float(max(abs(g[0]), abs(g[1])))
        increments.append(gnorm)
        if gnorm < init.newton_tol * scale:
            converged = True
            break
        gr = np.array([g[0].real, g[0].imag, g[1].real, g[1].imag])
        jac = np.empty((4, 4))
        failed = False
        for j in range(4):
            zp = z.copy()
            step = 1e-7 * max(1.0, abs(z[j]))
            zp[j] += step
            gp, _, _ = conditions(zp[0] + 1j * zp[1], zp[2] + 1j * zp[3])
            if gp is None:
                failed = True
                break
            jac[:, j] = (
                np.array([gp[0].real, gp[0].imag, gp[1].real, gp[1].imag]) - gr
            ) / step
        if failed:
            break
        try:
            delta = np.linalg.solve(jac, -gr)
        except np.linalg.LinAlgError:
            raise DegenerateSystem("singular shooting Jacobian") from None
        if not np.all(np.isfinite(delta)):
            raise DegenerateSystem("singular shooting Jacobian")
        # backtrack until the condition norm decreases (escapes count as
        # unbounded norm)
        t = 1.0
        accepted = False
        for _ in range(10):
            z_try = z + t * delta
            g_try, out_try, vend_try = conditions(
                z_try[0] + 1j * z_try[1], z_try[2] + 1j * z_try[3]
            )
            if g_try is not None:
                gt = float(max(abs(g_try[0]), abs(g_try[1])))
                if gt < gnorm or gt < init.newton_tol * scale:
                    z, g, out, v_end = z_try, g_try, out_try, vend_try
                    accepted = True
                    break
            t *= 0.5
        iterations += 1
        if not accepted:
            break

    a = z[0] + 1j * z[1]
    gnorm = float(max(abs(g[0]), abs(g[1])))
    branch = _shooting_branch(params, grid, out, a, v_end, iterations, gnorm, converged)
    # r is a Newton unknown here, not the integral functional of the profile
    r = z[2] + 1j * z[3]
    return Branch(
        params=branch.params,
        r=complex(r),
        w=branch.w,
        v=branch.v,
        U=branch.U,
        iterations=branch.iterations,
        fp_residual=branch.fp_residual,
        ode_residual=_ode_residual(branch.v.values, branch.U.values, rho, complex(r), grid),
        converged=branch.converged,
        method="shooting",
        increments=tuple(increments),
    )


def _shooting_branch(params, grid, u_vals, v_left, v_end_slope, iterations, resid, converged):
    """Assemble a Branch from a shooting trajectory.

    Envelope by division away from the interval ends; at the ends the
    l'Hopital limits v(-pi/2) = U'(-pi/2) and v(pi/2) = -U'(pi/2)."""
    eps = params.eps
    v = np.empty(grid.n_nodes, dtype=complex)
    v[1:-1] = u_vals[1:-1] / grid.cos[1:-1]
    v[0] = v_left
    v[-1] = -v_end_slope
    w = v / eps - 1.0
    rho = params.rho
    r = compute_r(GridFunction(grid, v), eps)
    return Branch(
        params=params,
        r=r,
        w=GridFunction(grid, w),
        v=GridFunction(grid, v),
        U=GridFunction(grid, np.asarray(u_vals, dtype=complex)),
        iterations=iterations,
        fp_residual=resid,
        ode_residual=_ode_residual(v, np.asarray(u_vals), rho, r, grid),
        converged=converged,
        method="shooting",
    )


def _escaped_branch(params, grid) -> Branch:
    n = grid.n_nodes
    zeros = GridFunction(grid, np.zeros(n, dtype=complex))
    return Branch(
        params=params,
        r=0j,
        w=zeros,
        v=zeros,
        U=zeros,
        iterations=0,
        fp_residual=float("inf"),
        ode_residual=float("inf"),
        converged=False,
        diverged=True,
        method="shooting",
    )


# ------------------------------------------------------ finite differences

@dataclass(frozen=True)
class FdState:
    """Grid and Newton iteration controls for the finite-difference solver."""

    grid: Grid
    tol: float = 1e-11
    max_iter: int = 200

    def __post_init__(self):
        if self.tol <= 0:
            raise InvalidArgument("tol must be positive")
        if self.max_iter < 1:
            raise InvalidArgument("max_iter must be >= 1")


@dataclass(frozen=True)
class _FdSystem:
    """Per-grid pieces of the bordered finite-difference system.

    The real unknowns are ordered (Re u, Im u, Re lam, Im lam) over the ni
    interior nodes.  The Jacobian has a fixed CSC pattern (indices, indptr);
    ``data`` holds its constant entries (off-diagonals of -D2 - I and the two
    normalization rows) and zeros in the slots a Newton pass refills:
    ``diag[k]`` are the diagonals of the blocks (re,re), (re,im), (im,re),
    (im,im) and ``lam[k]`` the halves (re rows, im rows) of the Re lam
    column and then of the Im lam column.  All arrays are read-only.
    """

    base: sp.csr_matrix  # -D2 - I on the interior nodes
    base_diag: float
    row: np.ndarray  # normalization row on the interior nodes
    indices: np.ndarray
    indptr: np.ndarray
    data: np.ndarray
    diag: np.ndarray  # (4, ni) slots into data
    lam: np.ndarray  # (4, ni)

    def jacobian(self) -> sp.csc_matrix:
        """A bordered Jacobian with the constant entries set; refill it with
        ``_refill_jacobian`` before every solve."""
        n2 = len(self.indptr) - 1
        return sp.csc_matrix(
            (self.data.copy(), self.indices, self.indptr), shape=(n2, n2)
        )


@lru_cache(maxsize=32)
def _fd_system(n_nodes: int) -> _FdSystem:
    h = np.pi / (n_nodes - 1)
    ni = n_nodes - 2
    off = -1.0 / h**2
    base_diag = 2.0 / h**2 - 1.0
    base = sp.diags(
        [np.full(ni - 1, off), np.full(ni, base_diag), np.full(ni - 1, off)],
        [-1, 0, 1],
        format="csr",
    )
    grid = make_grid(n_nodes)
    sw = grid.weights
    row = sw[1:-1] * grid.cos[1:-1] / float(np.dot(sw, grid.cos2))

    i = np.arange(ni)
    re, im, lre, lim = i, ni + i, np.full(ni, 2 * ni), np.full(ni, 2 * ni + 1)
    # (rows, cols, constant value) of each group of entries; the first eight
    # groups are the slots a Newton pass refills
    groups = [
        (re, re, 0.0), (re, im, 0.0), (im, re, 0.0), (im, im, 0.0),  # diag
        (re, lre, 0.0), (im, lre, 0.0), (re, lim, 0.0), (im, lim, 0.0),  # lam
        (lre, re, row), (lim, im, row),  # norm
        (re[1:], re[:-1], off), (re[:-1], re[1:], off),  # off-diagonals
        (im[1:], im[:-1], off), (im[:-1], im[1:], off),
    ]
    rows = np.concatenate([g[0] for g in groups])
    cols = np.concatenate([g[1] for g in groups])
    vals = np.concatenate([np.broadcast_to(g[2], g[0].shape) for g in groups])
    n2 = 2 * ni + 2
    # mark each entry with its 1-based position to read off where the CSC
    # conversion puts it
    marks = sp.coo_matrix(
        (np.arange(1, len(rows) + 1, dtype=float), (rows, cols)), shape=(n2, n2)
    ).tocsc()
    slot = np.empty(len(rows), dtype=np.intp)
    slot[marks.data.astype(np.intp) - 1] = np.arange(len(rows))
    data = np.zeros(len(rows))
    data[slot] = vals
    slots = slot[: 8 * ni].reshape(8, ni)
    for a in (base.data, base.indices, base.indptr, row, marks.indices,
              marks.indptr, data, slots):
        a.setflags(write=False)
    return _FdSystem(
        base=base, base_diag=base_diag, row=row,
        indices=marks.indices, indptr=marks.indptr, data=data,
        diag=slots[:4], lam=slots[4:],
    )


def _refill_jacobian(jac: sp.csc_matrix, system: _FdSystem, ui, lam, rho) -> None:
    """Write the Newton Jacobian at (ui, lam) into jac.data in place.

    Real block form of d(|U|^2 U) = 2|U|^2 dU + U^2 conj(dU)."""
    arr = 2.0 * rho * (ui * ui.conjugate()).real - lam
    usq = rho * ui * ui
    d = jac.data
    d[system.diag[0]] = system.base_diag + (arr.real + usq.real)
    d[system.diag[1]] = -arr.imag + usq.imag
    d[system.diag[2]] = arr.imag + usq.imag
    d[system.diag[3]] = system.base_diag + (arr.real - usq.real)
    d[system.lam[0]] = -ui.real
    d[system.lam[1]] = -ui.imag
    d[system.lam[2]] = ui.imag
    d[system.lam[3]] = -ui.real


def _fd_branch(params, grid, u_vals, lam, iterations, resid, converged, increments,
               diverged=False):
    rho, eps = params.rho, params.eps
    v = np.empty(grid.n_nodes, dtype=complex)
    v[1:-1] = u_vals[1:-1] / grid.cos[1:-1]
    # cubic extrapolation for the envelope limits at the interval ends
    v[0] = 4 * v[1] - 6 * v[2] + 4 * v[3] - v[4]
    v[-1] = 4 * v[-2] - 6 * v[-3] + 4 * v[-4] - v[-5]
    if abs(rho) > RHO_ZERO_CUTOFF and not diverged:
        r = lam / rho
    else:
        r = compute_r(GridFunction(grid, v), eps) if not diverged else 0j
    w = v / eps - 1.0
    return Branch(
        params=params,
        r=complex(r),
        w=GridFunction(grid, w),
        v=GridFunction(grid, v),
        U=GridFunction(grid, u_vals),
        iterations=iterations,
        fp_residual=resid,
        ode_residual=_ode_residual(v, u_vals, rho, complex(r), grid),
        converged=converged,
        diverged=diverged,
        method="finite_difference",
        increments=tuple(increments),
    )


def fd_solve(
    rho: complex,
    eps: complex,
    state: FdState | None = None,
    seed: GridFunction | None = None,
    r0: complex | None = None,
) -> Branch:
    """Finite-difference solution with a bordered normalization row.

    Newton iteration on the bordered system in real variables, one sparse
    direct solve per pass, each step damped by halving until the
    h^2-scaled residual decreases (the sixth trial, 1/32 of the step, is
    taken regardless).  Starts from ``seed`` (default eps cos x) and
    lam = rho * r0 (default r0 from the small-amplitude series); stops when
    the step taken falls below ``state.tol * max(1, |eps|)``.
    """
    if eps == 0:
        raise InvalidArgument("eps must be nonzero")
    if state is None:
        state = FdState(grid=make_grid(257))
    grid = state.grid
    n = grid.n_nodes
    if seed is None:
        u = eps * grid.cos.astype(complex)
    else:
        if seed.grid != grid:
            raise InvalidArgument("seed must live on the solver grid")
        u = seed.values.astype(complex)
    if r0 is None:
        r0 = asymptotic_r(rho, eps, 1)
    lam = rho * complex(r0)
    params = CoreParams(rho=rho, eps=eps, max_iter=state.max_iter, tol_fp=state.tol)

    h = grid.spacing
    ni = n - 2
    system = _fd_system(n)
    base, row = system.base, system.row
    jac = system.jacobian()
    increments = []
    converged = False
    iterations = 0
    scale = max(1.0, abs(eps))

    def residual(ui, lam):
        g = base @ ui - lam * ui + rho * (ui * ui.conjugate()).real * ui
        gn = complex(np.dot(row, ui) - eps)
        # h^2 scaling keeps the interior residual comparable to the state
        return g, gn, max(float(np.max(np.abs(g))) * h * h, abs(gn))

    for _ in range(state.max_iter):
        ui = u[1:-1]
        if not np.all(np.isfinite(ui)) or np.max(np.abs(ui)) > 1e80:
            # iteration escaped: report, do not raise
            zeros = np.zeros(n, dtype=complex)
            return _fd_branch(params, grid, zeros, 0j, iterations,
                              float("inf"), False, increments, diverged=True)
        g, gn, res0 = residual(ui, lam)
        _refill_jacobian(jac, system, ui, lam, rho)
        rhs = np.concatenate([-g.real, -g.imag, [-gn.real, -gn.imag]])
        sol = spsolve(jac, rhs)
        if not np.all(np.isfinite(sol)):
            raise DegenerateSystem("singular bordered finite-difference matrix")
        du = sol[:ni] + 1j * sol[ni:2 * ni]
        dlam = sol[2 * ni] + 1j * sol[2 * ni + 1]
        for halvings in range(6):
            step = 0.5 ** halvings
            u_try = ui + step * du
            lam_try = lam + step * dlam
            _, _, res1 = residual(u_try, lam_try)
            if res1 < res0 or res0 < 1e-13:
                break
        u = u.copy()
        u[1:-1] = u_try
        lam = lam_try
        iterations += 1
        inc = float(max(np.max(np.abs(step * du)), abs(step * dlam)))
        increments.append(inc)
        if inc <= state.tol * scale:
            converged = True
            break
    return _fd_branch(params, grid, u, lam, iterations,
                      increments[-1] if increments else float("inf"),
                      converged, increments)


# ------------------------------------------------------------- comparison

def compare_branches(b1: Branch, b2: Branch) -> float:
    """Distance between two branches modulo the free phase.

    Resamples b2 onto b1's grid (trigonometric interpolation of the
    periodic extension) when grids differ, aligns the unit phase factor
    that minimizes the sup difference of the profiles, and returns
    max(sup |U1 - U2|, |r1 - r2|)."""
    if not (b1.converged and b2.converged):
        raise InvalidState("compare_branches requires converged branches")
    u1 = b1.U.values
    if b2.grid == b1.grid:
        u2 = b2.U.values
    else:
        open2 = np.concatenate([b2.U.values[:-1], -b2.U.values[:-1]])
        u2 = resample_periodic(open2, -np.pi / 2, 2 * np.pi, b1.grid.nodes)
    inner = complex(np.vdot(u2, u1))  # conj(u2) . u1
    theta0 = np.angle(inner) if inner != 0 else 0.0

    def sup_at(theta):
        return float(np.max(np.abs(u1 - np.exp(1j * theta) * u2)))

    res = minimize_scalar(
        sup_at,
        bounds=(theta0 - 0.5, theta0 + 0.5),
        method="bounded",
        options={"xatol": 1e-13},
    )
    best = min(sup_at(theta0), float(res.fun))
    return max(best, float(abs(b1.r - b2.r)))
