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
place of r, which stays regular in the linear limit rho -> 0, so neither
has a separate path for rho = 0.  Shooting reports r as the envelope's
integral (compute_r), as the fixed point does; FD reports lam / rho, and
the integral only when |rho| <= RHO_ZERO_CUTOFF.  Both order their real
unknowns and conditions along J, so every Newton step is one call of
spsolve: a banded core bordered by the two lam columns and the two
normalization rows, solved by block elimination on a banded LU (LAPACK
gbtrf/gbtrs; scipy is imported at the first call).

Shooting is multiple shooting (Keller 1968; Ascher, Mattheij & Russell
1995, ch. 4).  J is cut at grid nodes into SHOOT_SEGMENTS segments (fewer
when that does not divide the grid intervals), and RK4 integrates all of
them at once as numpy lanes that also carry the variational equations, so
the Newton Jacobian comes exactly from the same integration as the
conditions.  Short segments bound the growth that blows a single
trajectory up at |rho| beyond about 9; an escape of a trial (|U| reaching
ESCAPE_CAP * max(1, |eps|) in any lane) forces the line search to
backtrack.  The finite-difference solver takes Newton steps on the
centered-difference system in real variables and continues to the
largest radii.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvalidArgument, InvalidState
from .quadrature import Grid, GridFunction, make_grid
from .greens import resample_periodic
from .reduction import (
    DEFAULT_NODES, Branch, CoreParams, _branch, _diverged_branch, asymptotic_r,
)

ESCAPE_CAP = 1e6
RHO_ZERO_CUTOFF = 1e-13
# RK4 steps across J, rounded up to a multiple of the grid intervals
RK4_STEPS = 2048
# multiple-shooting segments, lowered to a divisor of the grid intervals
SHOOT_SEGMENTS = 128


# ------------------------------------------------------- bordered Newton solve

@lru_cache(maxsize=1)
def _gb_lapack():
    """LAPACK's banded LU factorization and solve (dgbtrf, dgbtrs).  scipy
    is imported here, at the first Newton step, so that importing the
    package does not load it."""
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("gbtrf", "gbtrs"), (np.empty(0),))


def spsolve(ab, kl, ku, cols, rows, corner, rhs):
    """Solve the bordered system [[A, cols], [rows, corner]] x = rhs.

    A is the n x n core with kl sub- and ku superdiagonals in LAPACK band
    storage ab[ku + i - j, j] = A[i, j]; cols is n x 2, rows 2 x n.  Block
    elimination (Keller 1968) on one banded LU of A, in the mixed form of
    Govaerts & Pryce (1993): the last two unknowns are estimated through
    the left solve V = A^-T rows^T, then corrected through one solve of A
    for the remaining rhs and both columns.  The phase symmetry makes A
    nearly singular at every solution, which V shows as one dominant
    direction; rotating the rows so that the first is blind to it keeps
    the solve as accurate as a dense one.  A singular core or Schur
    complement gives a solution of nan, never an exception.
    """
    gbtrf, gbtrs = _gb_lapack()
    n = ab.shape[1]
    lu = np.zeros((2 * kl + ku + 1, n), order="F")
    lu[kl:] = ab
    lu, piv, info = gbtrf(lu, kl, ku, overwrite_ab=1)
    if info != 0:
        return np.full(n + 2, np.nan)
    f = rhs[:n]
    v = gbtrs(lu, kl, ku, rows.T, piv, trans=1)[0]
    try:
        with np.errstate(all="ignore"):
            # q's rows: the minor, then the dominant direction of v
            q = np.linalg.eigh(v.T @ v)[1].T
            rows, corner, g = q @ rows, q @ corner, q @ rhs[n:]
            v = np.column_stack([gbtrs(lu, kl, ku, rows[0], piv, trans=1)[0], v @ q[1]])
            t1 = np.linalg.solve(corner - v.T @ cols, g - f @ v)
            sol = gbtrs(lu, kl, ku, np.column_stack([f - cols @ t1, cols]), piv)[0]
            x, w = sol[:, 0], sol[:, 1:]
            t2 = np.linalg.solve(corner - rows @ w, g - rows @ x - corner @ t1)
            return np.concatenate([x - w @ t2, t1 + t2])
    except np.linalg.LinAlgError:
        return np.full(n + 2, np.nan)


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


def _segments(grid: Grid):
    """(RK4 steps per grid interval, RK4 step, normalization weights) of
    multiple shooting on grid.  The K segments, K the largest divisor of
    n - 1 up to SHOOT_SEGMENTS, span m grid intervals each; the weights,
    (m + 1, K), give each segment its starting node, the last one also
    the node at pi/2."""
    n = grid.n_nodes
    stride = -(-RK4_STEPS // (n - 1))  # ceil
    k_seg = max(k for k in range(1, SHOOT_SEGMENTS + 1) if (n - 1) % k == 0)
    m = (n - 1) // k_seg
    wn = grid.weights * grid.cos / float(np.dot(grid.weights, grid.cos2))
    wseg = np.zeros((m + 1, k_seg))
    wseg[:m] = wn[:-1].reshape(k_seg, m).T
    wseg[m, -1] = wn[-1]
    return stride, np.pi / (stride * (n - 1)), wseg


def _slopes(u: np.ndarray, h: float) -> np.ndarray:
    """U' at the nodes of a uniform grid from the samples u, to fourth
    order: five-point differences, one-sided at the two nodes by each end."""
    d = np.empty_like(u)
    d[2:-2] = u[:-4] - 8.0 * u[1:-3] + 8.0 * u[3:-1] - u[4:]
    d[0] = -25.0 * u[0] + 48.0 * u[1] - 36.0 * u[2] + 16.0 * u[3] - 3.0 * u[4]
    d[1] = -3.0 * u[0] - 10.0 * u[1] + 18.0 * u[2] - 6.0 * u[3] + u[4]
    d[-2] = 3.0 * u[-1] + 10.0 * u[-2] - 18.0 * u[-3] + 6.0 * u[-4] - u[-5]
    d[-1] = 25.0 * u[-1] - 48.0 * u[-2] + 36.0 * u[-3] - 16.0 * u[-4] + 3.0 * u[-5]
    return d / (12.0 * h)


def _shoot_conditions(lanes, u0, v0, wseg, eps):
    """The complex shooting conditions ordered by segment: the mismatch of
    U and of U' at its end with the next segment's start (U(pi/2) alone
    for the last segment), then the normalization."""
    out, ue, ve = lanes
    c = np.stack([ue[0], ve[0]], axis=1)
    c[:-1] -= np.stack([u0[1:], v0[1:]], axis=1)
    c = c.ravel()
    # the slot of the last segment's free end slope holds the normalization
    c[-1] = np.sum(wseg * out[:, 0]) - eps
    return c


def _shoot_newton_system(lanes, wseg):
    """The Newton system of _shoot_conditions from the tangent lanes, as
    spsolve takes it.  Condition (segment k, p) is row 4k + p and start
    direction (k, d) column 4k + d - 2, p and d over Re U, Im U, Re U',
    Im U' (segment 0 starts at U = 0; the last ends with U only).  A
    segment's end depends on its own start and the next start enters with
    -1: 5 sub- and 2 superdiagonals.  lam borders the columns, the
    normalization the rows."""
    out, ue, ve = lanes
    k_seg = wseg.shape[1]
    size = 4 * k_seg - 2
    # tan[d, p, k]: (Re U, Im U, Re U', Im U') of segment k's end along direction d
    tan = np.stack([ue[1:], ve[1:]], axis=1)
    tan = np.stack([tan.real, tan.imag], axis=2).reshape(6, 4, k_seg)
    k, p, d = np.meshgrid(np.arange(k_seg), np.arange(4), np.arange(4), indexing="ij")
    row, col = 4 * k + p, 4 * k + d - 2
    inside = (col >= 0) & (row < size)
    ab = np.zeros((8, size))
    ab[(2 + row - col)[inside], col[inside]] = tan[:4].transpose(2, 1, 0)[inside]
    ab[0, 2:] = -1.0
    cols = tan[4:].transpose(2, 1, 0).reshape(4 * k_seg, 2)[:size]
    dnorm = np.einsum("jk,jdk->dk", wseg, out[:, 1:])
    rows = dnorm[:4].T.ravel()[2:]
    dlam = dnorm[4:].sum(axis=1)
    return (ab, 5, 2, cols, np.stack([rows.real, rows.imag]),
            np.stack([dlam.real, dlam.imag]))


def shoot_solve(
    params: CoreParams,
    grid: Grid | None = None,
    seed: GridFunction | None = None,
    r0: complex | None = None,
) -> Branch:
    """Multiple-shooting solution of the full nonlinear problem.

    The 4K real unknowns of the K segments (_segments) are a = U'(-pi/2),
    (U, U') at the start of segments 1..K-1 and lam = rho r; the conditions
    are continuity of (U, U') at the inner boundaries, U(pi/2) = 0 and the
    normalization (_shoot_conditions).  Damped Newton: each step solves
    _shoot_newton_system with spsolve and backtracks on the condition norm
    (the sum of the jumps, or the normalization mismatch if larger).  The
    segment starts come from ``seed`` (U from its samples, U' from
    fourth-order differences; default the linear profile eps cos x), lam
    from rho * r0 (default r0 from the small-amplitude series).  Stops when
    the norm falls below ``params.tol_fp * max(1, |eps|)``, after at most
    ``params.max_iter`` steps.  A step that cannot be taken (a singular
    Newton system, or ten halvings without decrease) ends the iteration at
    the current iterate with converged False; an escape of the starting
    iterate is the diverged record.  r is the envelope's integral.
    """
    rho, eps = params.rho, params.eps
    if grid is None:
        grid = make_grid(DEFAULT_NODES)
    n = grid.n_nodes
    stride, h, wseg = _segments(grid)
    m, k_seg = wseg.shape[0] - 1, wseg.shape[1]
    starts = np.arange(k_seg) * m
    tol = params.tol_fp * max(1.0, abs(eps))
    cap = ESCAPE_CAP * max(1.0, abs(eps))

    def states(z):
        """(U, U') at the segment starts and lam from the real unknowns z:
        (Re, Im) of a, of (U, U') at the start of segments 1..K-1, of lam."""
        s = np.concatenate([[0.0, 0.0], z[:-2]]).view(complex).reshape(k_seg, 2)
        return s[:, 0], s[:, 1], complex(z[-2], z[-1])

    def evaluate(u0, v0, lam):
        """(complex conditions, their norm, lanes) or None on escape."""
        lanes = _rk4_lanes(rho, lam, u0, v0, h, stride, m, cap)
        if lanes is None:
            return None
        c = _shoot_conditions(lanes, u0, v0, wseg, eps)
        # the jumps add up along J: their sum, not the largest, measures the
        # profile's error whatever the segment count
        return c, float(max(np.sum(np.abs(c[:-1])), abs(c[-1]))), lanes

    if seed is None:
        a = complex(eps)
        u0 = a * grid.cos[starts]
        v0 = -a * grid.sin[starts]
    else:
        if seed.grid != grid:
            raise InvalidArgument("seed must live on the solver grid")
        values = np.asarray(seed.values, dtype=complex)
        u0 = values[starts]
        v0 = _slopes(values, grid.spacing)[starts]
    u0[0] = 0.0
    lam = rho * complex(asymptotic_r(rho, eps, 1) if r0 is None else r0)
    z = np.append(np.stack([u0, v0], axis=1).view(float).ravel()[2:], [lam.real, lam.imag])
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
        delta = spsolve(*_shoot_newton_system(lanes, wseg), -c.view(float))
        if not np.all(np.isfinite(delta)):
            break  # singular Newton system
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

def _fd_newton_system(ui, lam, rho, h, row):
    """The Newton system of the FD residual at (ui, lam), as spsolve takes
    it.  Re u and Im u interleave per node, so -D2 - I and the 2 x 2 blocks
    of d(|U|^2 U) = 2|U|^2 dU + U^2 conj(dU) make a (2, 2)-banded core; the
    columns are d/d(Re lam) = -u and d/d(Im lam) = -i u, the rows the
    normalization of Re u and of Im u."""
    ni = len(ui)
    arr = 2.0 * rho * (ui * ui.conjugate()).real - lam
    usq = rho * ui * ui
    diag = 2.0 / h**2 - 1.0
    ab = np.zeros((5, 2 * ni))
    ab[0, 2:] = ab[4, :-2] = -1.0 / h**2
    ab[1, 1::2] = -arr.imag + usq.imag
    ab[2, 0::2] = diag + (arr.real + usq.real)
    ab[2, 1::2] = diag + (arr.real - usq.real)
    ab[3, 0::2] = arr.imag + usq.imag
    cols = np.stack([(-ui).view(float), (-1j * ui).view(float)], axis=1)
    rows = np.zeros((2, 2 * ni))
    rows[0, 0::2] = rows[1, 1::2] = row
    return ab, 2, 2, cols, rows, np.zeros((2, 2))


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

    Newton iteration on the bordered system in real variables, one spsolve
    per pass, each step damped by halving until the h^2-scaled residual
    decreases (the sixth trial, 1/32 of the step, is taken regardless).
    Starts from ``seed`` (default eps cos x) and lam = rho * r0 (default r0
    from the small-amplitude series); stops when the step taken falls below
    ``params.tol_fp * max(1, |eps|)``, after at most ``params.max_iter``
    passes.  A singular Newton system ends the iteration at the current
    iterate with converged False.
    """
    rho, eps = params.rho, params.eps
    if grid is None:
        grid = make_grid(DEFAULT_NODES)
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
    row = grid.weights[1:-1] * grid.cos[1:-1] / float(np.dot(grid.weights, grid.cos2))
    diag, off = 2.0 / h**2 - 1.0, -1.0 / h**2
    increments = []
    converged = False
    iterations = 0
    scale = max(1.0, abs(eps))

    def residual(ui, lam):
        lap = diag * ui  # (-D2 - I) ui
        lap[1:] += off * ui[:-1]
        lap[:-1] += off * ui[1:]
        g = lap - lam * ui + rho * (ui * ui.conjugate()).real * ui
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
        rhs = -np.append(g.view(float), [gn.real, gn.imag])
        sol = spsolve(*_fd_newton_system(ui, lam, rho, h, row), rhs)
        if not np.all(np.isfinite(sol)):
            break  # singular Newton system
        du = sol[:-2].view(complex)
        dlam = complex(sol[-2], sol[-1])
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
