"""Independent solvers for the steady equation -U'' - U = rho (r - |U|^2) U.

Both solvers take the same CoreParams as the reduced solve (rho, eps, the
stopping tolerance tol_fp and the iteration cap max_iter), fix the amplitude
through the same normalization (the cos^2-weighted mean of the envelope
equals eps) and return the same Branch record, so results can be compared
directly against the fixed-point method.  Every failure (iteration cap,
escape, singular Jacobian) is reported in the returned Branch, never
raised; an escape of the first shooting integration or of the FD iterate
is the one diverged record of reduction._diverged_branch (r = nan).

Both solvers border their Newton system with the unknown lam = rho * r in
place of r.  r drops out of the equation in the linear limit rho -> 0,
while lam stays regular there, so neither solver has a separate path for
rho = 0.  Shooting reports r as the envelope's integral (compute_r), as
the fixed point does; FD reports lam / rho, and the integral only when
|rho| <= RHO_ZERO_CUTOFF.

Shooting is multiple shooting (Keller 1968; Ascher, Mattheij & Russell
1995, ch. 4).  J is cut at grid nodes into SHOOT_SEGMENTS segments (fewer
when that does not divide the grid intervals), and RK4 integrates all of
them at once as numpy lanes.  Each lane also carries the variational
equations of its six real directions (segment start U and U', the shared
lam), so the Newton Jacobian comes exactly from the same integration as
the conditions: continuity at the inner boundaries, U(pi/2) = 0, and the
normalization as the Simpson quadrature of the segment outputs at the
grid nodes.  Short segments bound the growth that blows a single
trajectory up at |rho| beyond about 9.  A trial can still escape in
finite x; an escape (|U| reaching ESCAPE_CAP * max(1, |eps|) in any lane)
forces the line search to backtrack.

The finite-difference solver assembles the centered-difference system with
a bordered normalization row for lam and solves it by Newton's method in
real variables, one sparse direct solve per pass, which continues to the
largest radii.  The bordered Jacobian has the same sparse pattern at every
pass, so it is laid out once per grid and each pass only rewrites its
values.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from .errors import InvalidArgument, InvalidState
from .quadrature import Grid, GridFunction, make_grid
from .greens import resample_periodic
from .reduction import (
    DEFAULT_NODES, Branch, CoreParams, _branch, _diverged_branch, _ode_forcing, asymptotic_r,
)

ESCAPE_CAP = 1e6
RHO_ZERO_CUTOFF = 1e-13
# RK4 steps across J, rounded up to a multiple of the grid intervals
RK4_STEPS = 2048
# multiple-shooting segments, lowered to a divisor of the grid intervals
SHOOT_SEGMENTS = 32


def ode_forcing(v: GridFunction, rho: complex, r: complex) -> GridFunction:
    """Pointwise forcing f(x) = rho (r - |v|^2 cos^2 x) v(x) cos x."""
    return GridFunction(v.grid, _ode_forcing(v.values * v.grid.cos, rho, r))


# --------------------------------------------------------------- shooting

# the real directions the variational lanes 1..6 follow: Re and Im of the
# segment's starting U, of its starting U', and of the shared lam
_DIRECTION_U = np.array([1, 1j, 0, 0, 0, 0])
_DIRECTION_V = np.array([0, 0, 1, 1j, 0, 0])
_DIRECTION_LAM = np.array([0, 0, 0, 0, 1, 1j])


def _rk4_lanes(rho, lam, u0, v0, h, stride, m, cap):
    """Fixed-step RK4 of U'' = -(1 + lam) U + rho |U|^2 U on numpy lanes.

    Lane k starts from U = u0[k], U' = v0[k] and takes ``stride`` steps of
    length h across each of m output intervals.  Every lane also carries
    the variational equations of its six real directions (the _DIRECTION_*
    rows), integrated by the same RK4 stages, so they are the exact
    derivatives of the discrete trajectory.  Returns (U at the m + 1 output
    points, U at the end, U' at the end), shaped (m + 1, 7, K) and (7, K)
    (the trajectory, then the six tangents); or None when a trajectory
    reaches |U| = ``cap`` (finite-x blowup of a trial) or a tangent
    overflows.
    """
    u0 = np.asarray(u0, dtype=complex)
    U = np.empty((7,) + u0.shape, dtype=complex)
    V = np.empty_like(U)
    U[0], V[0] = u0, v0
    U[1:] = _DIRECTION_U[:, None]
    V[1:] = _DIRECTION_V[:, None]
    dlam = _DIRECTION_LAM[4:, None]
    out = np.empty((m + 1,) + U.shape, dtype=complex)
    out[0] = U
    hh = 0.5 * h
    h6 = h / 6.0

    c0 = -1.0 - lam

    def force(U):
        u = U[0]
        F = (c0 + rho * (u.real * u.real + u.imag * u.imag)) * U
        # d(|U|^2) = 2 Re(conj(U) dU); lam enters the lam lanes as -dlam U
        dU = U[1:]
        F[1:] += (2.0 * rho * u) * (u.real * dU.real + u.imag * dU.imag)
        F[5:] -= dlam * u
        return F

    # an escaping lane overflows: its inf and nan are caught below
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, m + 1):
            for _ in range(stride):
                F1 = force(U)
                U2 = U + hh * V
                V2 = V + hh * F1
                F2 = force(U2)
                U3 = U + hh * V2
                V3 = V + hh * F2
                F3 = force(U3)
                U4 = U + h * V3
                V4 = V + h * F3
                F4 = force(U4)
                U = U + h6 * (V + 2.0 * V2 + 2.0 * V3 + V4)
                V = V + h6 * (F1 + 2.0 * F2 + 2.0 * F3 + F4)
            out[j] = U
        escaped = not (np.max(np.abs(out[:, 0])) < cap
                       and np.all(np.isfinite(U)) and np.all(np.isfinite(V)))
    return None if escaped else (out, U, V)


def shoot_solve(
    params: CoreParams,
    grid: Grid | None = None,
    a0: complex | None = None,
    r0: complex | None = None,
) -> Branch:
    """Multiple-shooting solution of the full nonlinear problem.

    J is cut at grid nodes into K segments (SHOOT_SEGMENTS, lowered to the
    largest divisor of n - 1 that is at most SHOOT_SEGMENTS), all
    integrated at once by _rk4_lanes with ceil(RK4_STEPS / (n - 1)) steps
    per grid interval.  The 4K real unknowns are a = U'(-pi/2), the
    bordered unknown lam = rho r and (U, U') at the start of segments
    1..K-1; the 4K real conditions are continuity of (U, U') at the K - 1
    inner boundaries, U(pi/2) = 0 and mean-normalization = eps (Simpson
    over the segment outputs at the grid nodes).  lam keeps the Jacobian
    regular at rho = 0, where r drops out of the equation, so every rho
    takes the same Newton path.  Newton's method takes its Jacobian from
    the variational lanes of the same integration and is damped by
    backtracking on the max-norm of the conditions.  Starts from the
    linear profile a0 cos x (a0 default eps) and lam = rho * r0 (r0
    default from the small-amplitude series); stops when the condition
    norm falls below ``params.tol_fp * max(1, |eps|)``, after at most
    ``params.max_iter`` Newton steps.  A step that cannot be taken (the
    Jacobian is singular, or ten halvings do not decrease the norm) ends
    the iteration at the current iterate with converged False; an escape
    of the starting iterate is the diverged record.  The reported r is the
    envelope's integral (compute_r), as for the fixed point.
    """
    rho, eps = params.rho, params.eps
    if grid is None:
        grid = make_grid(DEFAULT_NODES)
    n = grid.n_nodes
    stride = -(-RK4_STEPS // (n - 1))  # ceil
    h = np.pi / (stride * (n - 1))
    k_seg = max(k for k in range(1, SHOOT_SEGMENTS + 1) if (n - 1) % k == 0)
    m = (n - 1) // k_seg
    starts = np.arange(k_seg) * m
    # normalization weights of the segment outputs: each segment owns its
    # starting node, the last one also the node at pi/2
    wn = grid.weights * grid.cos / float(np.dot(grid.weights, grid.cos2))
    wseg = np.zeros((m + 1, k_seg))
    wseg[:m] = wn[:-1].reshape(k_seg, m).T
    wseg[m, -1] = wn[-1]
    tol = params.tol_fp * max(1.0, abs(eps))
    cap = ESCAPE_CAP * max(1.0, abs(eps))
    kk = np.arange(k_seg)

    # the real unknowns z: (Re, Im) of a, of (U, U') at the start of each of
    # segments 1..K-1, then of lam
    def unknowns(u0, v0, lam):
        return np.concatenate([np.stack([u0, v0], axis=1).view(float).ravel()[2:],
                               [lam.real, lam.imag]])

    def states(z):
        s = np.concatenate([[0.0, 0.0], z[:-2]]).view(complex).reshape(k_seg, 2)
        return s[:, 0], s[:, 1], complex(z[-2], z[-1])

    def evaluate(u0, v0, lam):
        """(complex conditions, their max-norm, lanes) or None on escape."""
        lanes = _rk4_lanes(rho, lam, u0, v0, h, stride, m, cap)
        if lanes is None:
            return None
        out, ue, ve = lanes
        c = np.empty(2 * k_seg, dtype=complex)
        c[:k_seg] = ue[0]
        c[:k_seg - 1] -= u0[1:]
        c[k_seg:-1] = ve[0, :-1] - v0[1:]
        c[-1] = np.sum(wseg * out[:, 0]) - eps
        return c, float(np.max(np.abs(c))), lanes

    def jacobian(lanes):
        """Real Jacobian of the conditions in z from the tangent lanes."""
        out, ue, ve = lanes
        # rows: conditions; columns: (segment, direction), then lam; the
        # columns of U at -pi/2 and the two unused ones are dropped
        jac = np.zeros((2 * k_seg, k_seg + 1, 4), dtype=complex)
        jac[kk, kk] = ue[1:5].T
        jac[:k_seg, k_seg, :2] = ue[5:].T
        jac[k_seg + kk[:-1], kk[:-1]] = ve[1:5, :-1].T
        jac[k_seg:-1, k_seg, :2] = ve[5:, :-1].T
        jac[kk[:-1], kk[1:], :2] = (-1, -1j)
        jac[k_seg + kk[:-1], kk[1:], 2:] = (-1, -1j)
        dnorm = np.einsum("jk,jdk->dk", wseg, out[:, 1:])
        jac[-1, :k_seg] = dnorm[:4].T
        jac[-1, k_seg, :2] = dnorm[4:].sum(axis=1)
        jac = jac.reshape(2 * k_seg, 4 * k_seg + 4)[:, 2:-2]
        return np.concatenate([jac.real, jac.imag])

    # segment starts on the linear profile a cos x, U' = -a sin x
    a = complex(eps if a0 is None else a0)
    u0 = a * grid.cos[starts]
    v0 = -a * grid.sin[starts]
    u0[0], v0[0] = 0.0, a
    lam = rho * complex(asymptotic_r(rho, eps, 1) if r0 is None else r0)
    z = unknowns(u0, v0, lam)
    ev = evaluate(u0, v0, lam)
    if ev is None:
        return _diverged_branch(params, grid, "shooting", 0)
    increments = []
    converged = False
    iterations = 0
    for _ in range(params.max_iter):
        c, gnorm, lanes = ev
        increments.append(gnorm)
        if gnorm < tol:
            converged = True
            break
        try:
            delta = np.linalg.solve(jacobian(lanes), -np.concatenate([c.real, c.imag]))
        except np.linalg.LinAlgError:
            delta = None  # singular Jacobian
        if delta is None or not np.all(np.isfinite(delta)):
            break
        # backtrack until the condition norm decreases (escapes count as
        # unbounded norm)
        t = 1.0
        accepted = False
        for _ in range(10):
            z_try = z + t * delta
            ev_try = evaluate(*states(z_try))
            if ev_try is not None and (ev_try[1] < gnorm or ev_try[1] < tol):
                z, ev = z_try, ev_try
                accepted = True
                break
            t *= 0.5
        iterations += 1
        if not accepted:
            break

    # the envelope by division away from the interval ends; there the
    # l'Hopital limits v(-pi/2) = U'(-pi/2) = a and v(pi/2) = -U'(pi/2)
    out, _, ve = ev[2]
    u_vals = np.append(out[:m, 0].T.ravel(), out[m, 0, -1])
    v = np.empty(n, dtype=complex)
    v[1:-1] = u_vals[1:-1] / grid.cos[1:-1]
    v[0] = complex(z[0], z[1])
    v[-1] = -ve[0, -1]
    return _branch(params, grid, "shooting", v, u_vals, None, iterations, ev[1], converged,
                   increments=tuple(increments))


# ------------------------------------------------------ finite differences

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


def _fd_branch(params, grid, u_vals, lam, iterations, resid, converged, increments):
    v = np.empty(grid.n_nodes, dtype=complex)
    v[1:-1] = u_vals[1:-1] / grid.cos[1:-1]
    # cubic extrapolation for the envelope limits at the interval ends
    v[0] = 4 * v[1] - 6 * v[2] + 4 * v[3] - v[4]
    v[-1] = 4 * v[-2] - 6 * v[-3] + 4 * v[-4] - v[-5]
    # in the linear limit r is the envelope's integral (r None)
    r = lam / params.rho if abs(params.rho) > RHO_ZERO_CUTOFF else None
    return _branch(params, grid, "finite_difference", v, u_vals, r, iterations, resid,
                   converged, increments=tuple(increments))


def fd_solve(
    params: CoreParams,
    grid: Grid | None = None,
    seed: GridFunction | None = None,
    r0: complex | None = None,
) -> Branch:
    """Finite-difference solution with a bordered normalization row.

    Newton iteration on the bordered system in real variables, one sparse
    direct solve per pass, each step damped by halving until the
    h^2-scaled residual decreases (the sixth trial, 1/32 of the step, is
    taken regardless).  Starts from ``seed`` (default eps cos x) and
    lam = rho * r0 (default r0 from the small-amplitude series); stops when
    the step taken falls below ``params.tol_fp * max(1, |eps|)``, after at
    most ``params.max_iter`` passes.  A singular bordered matrix ends the
    iteration at the current iterate with converged False.
    """
    rho, eps = params.rho, params.eps
    if grid is None:
        grid = make_grid(DEFAULT_NODES)
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

    for _ in range(params.max_iter):
        ui = u[1:-1]
        if not np.all(np.isfinite(ui)) or np.max(np.abs(ui)) > 1e80:
            # iteration escaped: report, do not raise
            return _diverged_branch(params, grid, "finite_difference", iterations,
                                    increments=tuple(increments))
        g, gn, res0 = residual(ui, lam)
        _refill_jacobian(jac, system, ui, lam, rho)
        rhs = np.concatenate([-g.real, -g.imag, [-gn.real, -gn.imag]])
        sol = spsolve(jac, rhs)
        if not np.all(np.isfinite(sol)):
            break  # singular bordered matrix
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
        if inc <= params.tol_fp * scale:
            converged = True
            break
    return _fd_branch(params, grid, u, lam, iterations,
                      increments[-1] if increments else float("inf"),
                      converged, increments)


# ------------------------------------------------------------- comparison

def compare_branches(b1: Branch, b2: Branch) -> float:
    """Distance between two branches modulo the free phase.

    Resamples b2 onto b1's grid (trigonometric interpolation of the
    periodic extension) when grids differ, aligns b2 by the closed-form
    phase theta = arg(vdot(u2, u1)), which minimizes the sum over the
    nodes of |U1 - e^{i theta} U2|^2, and returns the sup distance at that
    phase, max(sup |U1 - e^{i theta} U2|, |r1 - r2|)."""
    if not (b1.converged and b2.converged):
        raise InvalidState("compare_branches requires converged branches")
    u1 = b1.U.values
    if b2.grid == b1.grid:
        u2 = b2.U.values
    else:
        open2 = np.concatenate([b2.U.values[:-1], -b2.U.values[:-1]])
        u2 = resample_periodic(open2, -np.pi / 2, 2 * np.pi, b1.grid.nodes)
    theta = np.angle(np.vdot(u2, u1))  # conj(u2) . u1
    sup = float(np.max(np.abs(u1 - np.exp(1j * theta) * u2)))
    return max(sup, float(abs(b1.r - b2.r)))
