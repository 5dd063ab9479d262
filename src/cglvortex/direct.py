"""Independent solvers for the steady equation -U'' - U = rho (r - |U|^2) U.

Both solvers take the same CoreParams as the reduced solve (rho, eps,
tol_fp, max_iter), solve the same eps = 1 problem at kappa = rho |eps|^2
(see reduction) and return the same Branch record, so results can be
compared directly against the fixed-point method.  Every failure
(iteration cap, shooting's stall, escape, singular Jacobian) is reported
in the returned Branch, never raised; an escaped iterate is the one
diverged record of reduction._diverged_branch (r = nan).

Both solvers border their Newton system with the unknown lam = rho * r in
place of r, which stays regular in the linear limit rho -> 0, so neither
has a separate path for rho = 0.  Shooting reports r as the envelope's
integral (compute_r), as the fixed point does; FD reports lam / rho, and
the integral only when |rho| <= RHO_ZERO_CUTOFF.  Both run the one damped
Newton loop, _newton, under their own rules, from one start, _start (the
grid, W = seed / eps and lam), and order their real unknowns and
conditions along J, so every Newton step is one call of spsolve: a
banded core bordered by the two lam columns and the two normalization
rows, solved by block elimination on a banded LU (_gb_lapack).  Each
solver's Newton-system builder writes the core's diagonals as strided
slices straight into LAPACK's LU band storage, a fresh array that
spsolve factors in place and so consumes; spsolve owns its
right-hand-side and result buffers and calls numpy's 2 x 2 eigh and
solve gufuncs directly.  It also returns a re-solve through the factors
it made, with which FD, whose stop is a step test, ends on the
simplified Newton correction instead of factoring once more to measure
a last step of about 1e-13.

Shooting is multiple shooting (Keller 1968; Ascher, Mattheij & Russell
1995, ch. 4).  J is cut at grid nodes into up to SHOOT_SEGMENTS = 256
segments (_segments), one grid interval each up to 257 nodes.  Classical
RK4 in Nystrom form integrates all segments at once as numpy lanes that
also carry the variational equations, so the Newton Jacobian comes
exactly from the same integration as the conditions.  Its four stages
take two batched force calls per step, F2 with F3 and then F4 with the
next step's F1, on two stacked stage points: each element goes through
the operations of one call per stage in the same order, so every bit is
the same (_rk4_lanes).  Short segments
bound the growth that blows a single trajectory up at |rho| beyond about
9; a trial that escapes (|W| reaching ESCAPE_CAP in any lane) is
rejected.  The finite-difference solver continues to the largest radii.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
# the gufuncs behind np.linalg.eigh and np.linalg.solve, private numpy API:
# the wrappers add only input checks, casts that are no-ops on float64 and
# an error mode that turns a singular system into LinAlgError, where the
# gufunc fills its solution with nan, which spsolve reports as nan.
# tests/test_direct.py holds both bit-identical to the wrappers and checks
# that the installed numpy exports them
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lo, solve1 as _solve1

from .errors import InvalidArgument, InvalidState, _finite, _instance
from .quadrature import Grid, GridFunction, make_grid
from .reduction import (
    DEFAULT_NODES, UFUNC_BUFSIZE, Branch, CoreParams, _branch, _diverged_branch, _finish,
    _r_series,
)

ESCAPE_CAP = 1e6
RHO_ZERO_CUTOFF = 1e-13
# RK4 steps across J, rounded up to a multiple of the grid intervals
RK4_STEPS = 2048
# multiple-shooting segments, lowered to a divisor of the grid intervals
SHOOT_SEGMENTS = 256
# shooting gives up, not converged, when its norm has not halved over the
# last SHOOT_STALL passes; converging solves never went more than 2.  FD has
# no such rule: its converging solves pass through long runs without halving
SHOOT_STALL = 10


# ------------------------------------------------------- bordered Newton solve

@lru_cache(maxsize=1)
def _gb_lapack():
    """LAPACK's banded LU factorization and solve (dgbtrf, dgbtrs), loaded
    at the first Newton step from scipy's compiled LAPACK module.

    The module file is loaded by itself, not through scipy.linalg: that
    package's init imports 334 modules, 0.25-0.32 s and about 28 MiB
    per process, for two routines.  The routines are the very objects
    scipy.linalg's get_lapack_funcs returns for float64, from the same
    file; once either side has loaded it, the other gets the same module.
    A missing file raises ImportError naming scipy's version and the
    path searched.
    """
    import importlib.machinery
    import importlib.util
    import os

    scipy_spec = importlib.util.find_spec("scipy")  # does not import scipy
    if scipy_spec is None:
        raise ImportError("the direct solvers need scipy's LAPACK; scipy is not installed")
    folder = os.path.join(scipy_spec.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        from importlib.metadata import version

        suffixes = ", ".join(importlib.machinery.EXTENSION_SUFFIXES)
        raise ImportError(f"scipy {version('scipy')}: no compiled LAPACK module "
                          f"_flapack ({suffixes}) in {folder}")
    name = "scipy.linalg._flapack"
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    flapack = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(flapack)
    return flapack.dgbtrf, flapack.dgbtrs


def spsolve(ab, kl, ku, cols, rows, corner, rhs):
    """Solve the bordered system [[A, cols], [rows, corner]] x = rhs.

    A is the n x n core with kl sub- and ku superdiagonals in LAPACK's LU
    band storage: ab is a Fortran-ordered (2 kl + ku + 1, n) array with
    ab[kl + ku + i - j, j] = A[i, j] and zeros in its first kl rows, the
    room that gbtrf's row interchanges fill.  spsolve consumes ab: gbtrf
    factors it in place.  cols is n x 2, rows 2 x n.  Block elimination
    (Keller 1968) on one banded LU of A, in the mixed form of Govaerts &
    Pryce (1993): the last two unknowns are estimated through the left
    solve V = A^-T rows^T, then corrected through one solve of A for the
    remaining rhs and both columns.  The phase symmetry makes A nearly
    singular at every solution, which V shows as one dominant direction;
    rotating the rows so that the first is blind to it keeps the solve as
    accurate as a dense one.  The 2 x 2 systems go to the gufuncs behind
    np.linalg.eigh and np.linalg.solve, which fill a singular system's
    solution with nan.

    Returns (x, resolve).  resolve(rhs2) solves the same system for
    another right-hand side through the factors this call made: one
    single-column gbtrs and the two 2 x 2 Schur systems, by the same
    operations as the first solve.  A singular core, or a result whose
    last two entries are not finite, gives x of nan and resolve None,
    never an exception.
    """
    gbtrf, gbtrs = _gb_lapack()
    n = ab.shape[1]
    lu, piv, info = gbtrf(ab, kl, ku, overwrite_ab=1)
    if info != 0:
        return np.full(n + 2, np.nan), None
    f = rhs[:n]
    v = gbtrs(lu, kl, ku, rows.T, piv, trans=1)[0]
    with np.errstate(all="ignore"):
        # q's rows: the minor, then the dominant direction of v
        q = _eigh_lo(v.T @ v, signature="d->dd")[1].T
        rows, corner, g = q @ rows, q @ corner, q @ rhs[n:]
        # the rotated v stays C-ordered: v.T @ cols and f @ v round by
        # another BLAS path on a Fortran-ordered one
        vq = np.empty((n, 2))
        vq[:, 0] = gbtrs(lu, kl, ku, rows[0], piv, trans=1)[0]
        vq[:, 1] = v @ q[1]
        schur1 = corner - vq.T @ cols
        t1 = _solve1(schur1, g - f @ vq, signature="dd->d")
        b = np.empty((n, 3), order="F")
        b[:, 0] = f - cols @ t1
        b[:, 1:] = cols
        sol = gbtrs(lu, kl, ku, b, piv, overwrite_b=1)[0]
        x, w = sol[:, 0], sol[:, 1:]
        schur2 = corner - rows @ w
        t2 = _solve1(schur2, g - rows @ x - corner @ t1, signature="dd->d")
        out = np.empty(n + 2)
        np.subtract(x, w @ t2, out=out[:n])
        np.add(t1, t2, out=out[n:])
    if not (math.isfinite(out[n]) and math.isfinite(out[n + 1])):
        return np.full(n + 2, np.nan), None  # a singular 2 x 2 system

    def resolve(rhs):
        f, g = rhs[:n], q @ rhs[n:]
        with np.errstate(all="ignore"):
            t1 = _solve1(schur1, g - f @ vq, signature="dd->d")
            x = gbtrs(lu, kl, ku, f - cols @ t1, piv, overwrite_b=1)[0]
            t2 = _solve1(schur2, g - rows @ x - corner @ t1, signature="dd->d")
            out = np.empty(n + 2)
            np.subtract(x, w @ t2, out=out[:n])
            np.add(t1, t2, out=out[n:])
        return out

    return out, resolve


def _step_size(dz):
    """The largest modulus over the complex pairs of the real vector dz."""
    d = dz.view(complex)
    return max(float(np.abs(d[:-1]).max()), abs(complex(d[-1])))


def _newton(z, residual, linearize, max_iter, done, accept, halvings, take_last,
            stall=None, tol=None):
    """Damped Newton on the real unknowns z, the loop of both solvers.

    An evaluation is (F, norm, data), F the real conditions.  residual(z)
    evaluates a trial, None if z escaped; linearize(z, ev) evaluates in
    full an iterate that steps next: ev (None at the start) plus spsolve's
    first six arguments, or None if it cannot.  Each pass solves for delta
    and tries z + t delta, t = 1, 1/2, ..., at most ``halvings`` times; a
    trial is taken if accept(its norm, inf if escaped; the norm), or if it
    is the last and ``take_last``, unless it cannot be linearized.
    done(norm, step) is asked of every iterate, step the largest modulus
    over the complex pairs of the step to it (inf at the start).  Ends
    converged, after ``max_iter`` passes, at a non-finite solve, when no
    trial is taken, at an iterate without evaluation, or, given ``stall``,
    not converged at an iterate whose norm is above half the norm
    ``stall`` passes before it.

    Given ``tol``, done must hold for every step up to tol: a taken trial
    z+ that is not done, before the last pass, and whose pass predicts a
    next step at most tol (step * norm(z+) <= tol * norm(z)) is first
    corrected by the simplified Newton step (Deuflhard 2004, ch. 2):
    -F(z+) solved through the factors of z's pass.  If that correction
    is at most tol, it is one more pass, to the iterate that ends the
    solve; otherwise z+ is linearized as without ``tol``.  Returns (z,
    its evaluation, passes, the norms of the iterates, the steps,
    converged)."""
    norms, steps = [], []
    ev = linearize(z, None)
    step = float("inf")
    passes = 0
    converged = False
    while ev is not None:
        norms.append(ev[1])
        converged = done(ev[1], step)
        if converged or passes == max_iter or (
                stall is not None and passes >= stall and ev[1] > 0.5 * norms[-1 - stall]):
            break
        delta, resolve = spsolve(*ev[3:], -ev[0])
        if not np.all(np.isfinite(delta)):
            break  # singular Newton system
        passes += 1
        correction = None
        for k in range(halvings):
            dz = delta if k == 0 else 0.5**k * delta
            z_try = z + dz
            trial = residual(z_try)
            if (accept(float("inf") if trial is None else trial[1], ev[1])
                    or take_last and k == halvings - 1):
                step = _step_size(dz)
                if trial is None or done(trial[1], step) or passes == max_iter:
                    break
                if tol is not None and step * trial[1] <= tol * ev[1]:
                    correction = resolve(-trial[0])
                    if _step_size(correction) <= tol:
                        break
                    correction = None
                trial = linearize(z_try, trial)
                if trial is not None:
                    break
        else:
            break  # line search exhausted
        z, ev = z_try, trial
        steps.append(step)
        if correction is not None:  # the last pass, through z's factors
            norms.append(ev[1])
            passes += 1
            z, step = z + correction, _step_size(correction)
            ev = residual(z)
            steps.append(step)
    return z, ev, passes, norms, steps, converged


def _start(params, grid, seed, r0):
    """The start of both Newton solvers: (the grid, default DEFAULT_NODES
    nodes; W = seed / eps on it, None without a seed; lam = rho * r0 of
    the eps = 1 problem, r0 by default from the small-amplitude series)."""
    _instance(params, CoreParams, "params")
    grid = make_grid(DEFAULT_NODES) if grid is None else _instance(grid, Grid, "grid")
    if seed is not None and _instance(seed, GridFunction, "seed").grid != grid:
        raise InvalidArgument("seed must live on the solver grid")
    w = None if seed is None else seed.values / params.eps
    r = _r_series(params.kappa, 1.0, 1) if r0 is None else _finite(r0, "r0") / abs(params.eps) ** 2
    return grid, w, params.kappa * complex(r)


# --------------------------------------------------------------- shooting

# the real directions the variational lanes 1..6 follow: Re and Im of the
# segment's starting U, of its starting U', and of the shared lam
_DIRECTION_U = np.array([1, 1j, 0, 0, 0, 0])
_DIRECTION_V = np.array([0, 0, 1, 1j, 0, 0])
_DIRECTION_LAM = np.array([0, 0, 0, 0, 1, 1j])


def _rk4_lanes(rho, lam, u0, v0, h, stride, m, tangents=True):
    """Fixed-step RK4 of U'' = -(1 + lam) U + rho |U|^2 U on numpy lanes.

    Lane k starts from U = u0[k], U' = v0[k] and takes ``stride`` steps of
    length h across each of m output intervals.  The steps are classical
    RK4 in Nystrom form: the force F depends on U alone, so the stages
    take F at P = U + (h/2) U', at P + (h^2/4) F1 and at
    U + h U' + (h^2/2) F2, and U advances by h U' + (h^2/6)(F1 + F2 + F3),
    U' by (h/6)(F1 + 2 F2 + 2 F3 + F4): the classical method up to
    rounding, in fewer array passes.  Every lane also carries the
    variational equations of its six real directions (the _DIRECTION_*
    rows), integrated by the same stages, which are linear in the stage
    values, so they are the exact derivatives of the discrete trajectory.
    Returns (U at the m + 1 output points, U at the end, U' at
    the end), shaped (m + 1, 7, K) and (7, K) (the trajectory, then the six
    tangents); or None when a trajectory reaches |U| = ESCAPE_CAP (finite-x
    blowup of a trial) or a tangent overflows.  ``tangents=False`` runs
    lane 0 alone, shaped (m + 1, 1, K) and (1, K), to the bit.

    The stages go to force in pairs, one call on a stacked (2, 7, K)
    array each: F2 with F3, whose points need only U, U' and F1; then F4
    with the next step's F1, which needs only the next U.  One call on U
    alone starts the loop and the last step's F4 goes alone, so no stage
    is evaluated that the one-call-per-stage loop skips.  force forms
    |U|^2 and Re(conj(U) dU) by one multiply of the float views and one
    add of their halves, into the real part of complex arrays whose
    imaginary part stays +0.0: the very operand that casting the float
    sum to complex gives, so rho |U|^2 and 2 rho U Re(conj(U) dU) take
    numpy's complex loop on the same values.  Every element goes through
    the operations of the one-call-per-stage form in the same order, so
    every bit is the same.  The arrays are allocated once per call, each
    stage writes into them through out= and a step allocates no (7, K)
    array.  The step loop runs under numpy's ufunc buffer size
    UFUNC_BUFSIZE, which the np.errstate block around it scopes.
    """
    u0 = np.asarray(u0, dtype=complex)
    shape = (7 if tangents else 1,) + u0.shape
    # A stacks P and R = P + hsq4 F1, B the point G of F4 and U; FA gets F2
    # and F3, FB F4 and the next F1
    A, B, FA, FB = np.empty((4, 2) + shape, dtype=complex)
    (P, R), (G, U), (F2, F3), (F4, F1) = A, B, FA, FB
    V, Q, S = np.empty((3,) + shape, dtype=complex)
    U[0], V[0] = u0, v0
    if tangents:
        U[1:] = _DIRECTION_U[:, None]
        V[1:] = _DIRECTION_V[:, None]
    dlam = _DIRECTION_LAM[4:, None]
    out = np.empty((m + 1,) + shape, dtype=complex)
    out[0] = U
    hh = 0.5 * h
    h6 = h / 6.0
    hsq4, hsq2, hsq6 = h * h / 4.0, h * h / 2.0, h * h / 6.0
    c0 = -1.0 - lam
    rho2 = 2.0 * rho

    # force's scratch for two stage points: abs2 and X hold |u|^2 and
    # Re(conj(u) dU) in their real part and +0.0 in their imaginary, sq and
    # dsq the float products they sum; coef is c0 + rho |u|^2, g 2 rho u
    abs2 = np.zeros((2,) + u0.shape, dtype=complex)
    sq, coef = np.empty_like(abs2).view(float), np.empty_like(abs2)
    if tangents:
        X = np.zeros((2, 6) + u0.shape, dtype=complex)
        dsq, T, g = np.empty_like(X).view(float), np.empty_like(X), np.empty_like(abs2)

    def stage(W, F):
        # force on the stacked points W into F, with its views bound once
        n = len(W)
        u = W[:, 0]
        uf = u.view(float)
        sq_n, abs2_n, coef_n = sq[:n], abs2[:n], coef[:n]
        sq_re, sq_im, abs2_re, coef_b = sq_n[:, 0::2], sq_n[:, 1::2], abs2_n.real, coef_n[:, None]
        if tangents:
            ub, ufb, duf = u[:, None], uf[:, None], W[:, 1:].view(float)
            dsq_n, X_n, T_n, g_n = dsq[:n], X[:n], T[:n], g[:n]
            dsq_re, dsq_im, X_re = dsq_n[..., 0::2], dsq_n[..., 1::2], X_n.real
            g_b, T_lam, F_d, F_lam = g_n[:, None], T_n[:, 4:], F[:, 1:], F[:, 5:]

        def force():
            # F = (c0 + rho |u|^2) U
            np.multiply(uf, uf, out=sq_n)
            np.add(sq_re, sq_im, out=abs2_re)
            np.multiply(rho, abs2_n, out=coef_n)
            np.add(c0, coef_n, out=coef_n)
            np.multiply(coef_b, W, out=F)
            if tangents:
                # d(|U|^2) = 2 Re(conj(U) dU); lam enters the lam lanes as -dlam U
                np.multiply(rho2, u, out=g_n)
                np.multiply(ufb, duf, out=dsq_n)
                np.add(dsq_re, dsq_im, out=X_re)
                np.multiply(g_b, X_n, out=T_n)
                np.add(F_d, T_n, out=F_d)
                np.multiply(dlam, ub, out=T_lam)
                np.subtract(F_lam, T_lam, out=F_lam)
        return force

    # U alone to start, the two pairs of a step, and the last step's F4 alone
    first, last = stage(B[1:], FB[1:]), stage(B[:1], FB[:1])
    pair_a, pair_b = stage(A, FA), stage(B, FB)
    # an escaping lane overflows: its inf and nan are caught below
    with np.errstate(over="ignore", invalid="ignore"):
        np.setbufsize(UFUNC_BUFSIZE)
        first()  # F1 of the first step
        for j in range(1, m + 1):
            for i in range(stride):
                np.multiply(hh, V, out=P)
                np.add(U, P, out=P)  # P = U + hh V
                np.multiply(hsq4, F1, out=R)
                np.add(P, R, out=R)  # R = P + hsq4 F1
                pair_a()  # F2, F3
                np.multiply(h, V, out=Q)
                np.add(U, Q, out=Q)  # Q = U + h V
                np.multiply(hsq2, F2, out=G)
                np.add(Q, G, out=G)  # G = Q + hsq2 F2
                np.add(F2, F3, out=F3)  # F23 = F2 + F3, in F3
                np.add(F1, F3, out=F2)
                np.multiply(hsq6, F2, out=F2)
                np.add(Q, F2, out=U)  # U = Q + hsq6 (F1 + F23)
                np.multiply(2.0, F3, out=S)
                np.add(F1, S, out=S)  # F1 + 2 F23, before F1 gives way to the next
                (last if j == m and i == stride - 1 else pair_b)()  # F4, and the next F1
                np.add(S, F4, out=S)
                np.multiply(h6, S, out=S)
                np.add(V, S, out=V)  # V = V + h6 (F1 + 2 F23 + F4)
            out[j] = U
        escaped = not (np.max(np.abs(out[:, 0])) < ESCAPE_CAP
                       and np.all(np.isfinite(U)) and np.all(np.isfinite(V)))
    return None if escaped else (out, U, V)


def _segments(grid: Grid):
    """(RK4 steps per grid interval, RK4 step, normalization weights) of
    multiple shooting on grid.  The K segments, K the largest divisor of
    n - 1 up to SHOOT_SEGMENTS, span m grid intervals each; the weights,
    (m + 1, K), give each segment its starting node, the last one also
    the node at pi/2.  Cached per grid and constants; the weights are
    read-only."""
    return _segment_layout(grid, SHOOT_SEGMENTS)


@lru_cache(maxsize=8)
def _segment_layout(grid, segments):
    n = grid.n_nodes
    stride = -(-RK4_STEPS // (n - 1))  # ceil
    k_seg = max(k for k in range(1, segments + 1) if (n - 1) % k == 0)
    m = (n - 1) // k_seg
    wn = grid.weights * grid.cos / grid.cos2_mass
    wseg = np.zeros((m + 1, k_seg))
    wseg[:m] = wn[:-1].reshape(k_seg, m).T
    wseg[m, -1] = wn[-1]
    wseg.flags.writeable = False
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


def _shoot_conditions(lanes, u0, v0, wseg):
    """The complex shooting conditions ordered by segment: the mismatch of
    U and of U' at its end with the next segment's start (U(pi/2) alone
    for the last segment), then the normalization."""
    out, ue, ve = lanes
    c = np.empty(2 * len(u0), dtype=complex)
    np.subtract(ue[0, :-1], u0[1:], out=c[0:-2:2])
    np.subtract(ve[0, :-1], v0[1:], out=c[1:-2:2])
    c[-2] = ue[0, -1]
    # the slot of the last segment's free end slope holds the normalization
    c[-1] = np.sum(wseg * out[:, 0]) - 1.0
    return c


def _shoot_newton_system(lanes, wseg):
    """The Newton system of _shoot_conditions from the tangent lanes, as
    spsolve takes it.  Condition (segment k, p) is row 4k + p and start
    direction (k, d) column 4k + d - 2, p and d over Re U, Im U, Re U',
    Im U' (segment 0 starts at U = 0; the last ends with U only).  A
    segment's end depends on its own start and the next start enters with
    -1: 5 sub- and 2 superdiagonals, written as strided slices into rows
    5: of spsolve's LU band storage, a fresh Fortran-ordered (13, 4K - 2)
    array that spsolve factors in place.  lam borders the columns, the
    normalization the rows."""
    out, ue, ve = lanes
    k_seg = wseg.shape[1]
    size = 4 * k_seg - 2
    # tan[d, p, k]: (Re U, Im U, Re U', Im U') of segment k's end along direction d
    tan = np.empty((6, 4, k_seg))
    tan[:, 0], tan[:, 1], tan[:, 2], tan[:, 3] = ue[1:].real, ue[1:].imag, ve[1:].real, ve[1:].imag
    ab = np.zeros((13, size), order="F")
    # row 4k + p, column 4k + d - 2: band row kl + ku + p - d + 2, one per (p, d)
    for d in range(4):
        first = 1 if d < 2 else 0  # segment 0 starts at U = 0
        for p in range(4):
            end = k_seg - 1 if p >= 2 else k_seg  # the last segment ends with U only
            ab[9 + p - d, 4 * first + d - 2:4 * end + d - 2:4] = tan[d, p, first:end]
    ab[5, 2:] = -1.0
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

    The 4K real unknowns of the K segments (_segments) are a = W'(-pi/2),
    (W, W') at the start of segments 1..K-1 and lam = rho r; the conditions
    are continuity of (W, W') at the inner boundaries, W(pi/2) = 0 and the
    normalization (_shoot_conditions).  The segment starts come from
    ``seed`` / eps (W from its samples, W' from fourth-order differences;
    default cos x), lam from rho * r0 (default r0 from the small-amplitude
    series).  _newton's rules: the norm is the sum of the jumps, or the
    normalization mismatch if larger; done when it is below
    ``params.tol_fp``; a trial is taken when it lowers the norm, within ten
    halvings; not converged when the norm has not halved over the last
    SHOOT_STALL passes.  Trials integrate the trajectory alone; linearizing
    adds the tangents and fails when one overflows.  At most
    ``params.max_iter`` steps.  r is the envelope's integral.
    """
    grid, w, lam = _start(params, grid, seed, r0)
    kappa = params.kappa
    stride, h, wseg = _segments(grid)
    m, k_seg = wseg.shape[0] - 1, wseg.shape[1]
    starts = np.arange(k_seg) * m

    def residual(z, tangents=False):
        # z: segment 0's U' = a, (U, U') of segments 1..K-1, lam
        s = np.concatenate([[0.0, 0.0], z[:-2]]).view(complex).reshape(k_seg, 2)
        u0, v0 = s[:, 0], s[:, 1]
        lanes = _rk4_lanes(kappa, complex(z[-2], z[-1]), u0, v0, h, stride, m,
                           tangents=tangents)
        if lanes is None:
            return None
        c = _shoot_conditions(lanes, u0, v0, wseg)
        # the jumps add up along J: their sum, not the largest, measures the
        # profile's error whatever the segment count
        return c.view(float), float(max(np.sum(np.abs(c[:-1])), abs(c[-1]))), lanes

    def linearize(z, ev):
        ev = residual(z, tangents=True)  # None on a tangent overflow
        return None if ev is None else ev + _shoot_newton_system(ev[2], wseg)

    if w is None:
        u0 = grid.cos[starts] + 0j
        v0 = -grid.sin[starts] + 0j
    else:
        u0 = w[starts]
        v0 = _slopes(w, grid.spacing)[starts]
    z = np.append(np.stack([u0, v0], axis=1).view(float).ravel()[2:], [lam.real, lam.imag])
    tol = params.tol_fp
    z, ev, iterations, norms, _, converged = _newton(
        z, residual, linearize, params.max_iter, done=lambda norm, step: norm < tol,
        accept=lambda trial, norm: trial < norm, halvings=10, take_last=False,
        stall=SHOOT_STALL)
    if ev is None:
        return _diverged_branch(params, grid, "shooting", iterations)

    # the envelope by division away from the interval ends; there the
    # l'Hopital limits v(-pi/2) = U'(-pi/2) = a and v(pi/2) = -U'(pi/2)
    out, _, ve = ev[2]
    u_vals = np.append(out[:m, 0].T.ravel(), out[m, 0, -1])
    v = np.empty(grid.n_nodes, dtype=complex)
    v[1:-1] = u_vals[1:-1] / grid.cos[1:-1]
    v[0] = complex(z[0], z[1])
    v[-1] = -ve[0, -1]
    return _branch(params, grid, "shooting", _finish(params, v, u_vals, None, grid), v - 1.0,
                   iterations, ev[1], converged, increments=tuple(norms))


# ------------------------------------------------------ finite differences

def _fd_newton_system(ui, abs2, lam, rho, diag, off, rows, corner):
    """The Newton system of the FD residual at (ui, lam), as spsolve takes
    it; abs2 is |ui|^2 and diag, off the stencil of -D2 - I, both shared
    with the residual.  Re u and Im u interleave per node, so -D2 - I and
    the 2 x 2 blocks of d(|U|^2 U) = 2|U|^2 dU + U^2 conj(dU) make a
    (2, 2)-banded core, written as strided slices into rows 2: of
    spsolve's LU band storage, a fresh Fortran-ordered (7, 2 ni) array
    that spsolve factors in place; the columns are d/d(Re lam) = -u and
    d/d(Im lam) = -i u.  rows, the normalization of Re u and of Im u, and
    the zero corner do not depend on the iterate: every solve on the grid
    shares them (_fd_layout)."""
    ni = len(ui)
    arr = 2.0 * rho * abs2 - lam
    usq = rho * ui * ui
    ab = np.zeros((7, 2 * ni), order="F")
    ab[2, 2:] = ab[6, :-2] = off
    ab[3, 1::2] = -arr.imag + usq.imag
    ab[4, 0::2] = diag + (arr.real + usq.real)
    ab[4, 1::2] = diag + (arr.real - usq.real)
    ab[5, 0::2] = arr.imag + usq.imag
    cols = np.empty((2 * ni, 2))
    cols[:, 0] = (-ui).view(float)
    cols[:, 1] = (-1j * ui).view(float)
    return ab, 2, 2, cols, rows, corner


@lru_cache(maxsize=8)
def _fd_layout(grid: Grid):
    """(row, diag, off, rows, corner) of finite differences on grid: row
    the normalization weights of the interior nodes, diag and off the
    stencil of -D2 - I, and rows (row on Re u and on Im u) and corner (a
    zero 2 x 2 block) the border of every FD Newton system.  Cached per
    grid, as _segments is; the arrays are read-only."""
    h = grid.spacing
    row = grid.weights[1:-1] * grid.cos[1:-1] / grid.cos2_mass
    rows = np.zeros((2, 2 * len(row)))
    rows[0, 0::2] = rows[1, 1::2] = row
    corner = np.zeros((2, 2))
    for a in (row, rows, corner):
        a.flags.writeable = False
    return row, 2.0 / h**2 - 1.0, -1.0 / h**2, rows, corner


def _fd_branch(params, grid, u_vals, lam, iterations, resid, converged, increments):
    v = np.empty(grid.n_nodes, dtype=complex)
    v[1:-1] = u_vals[1:-1] / grid.cos[1:-1]
    # cubic extrapolation for the envelope limits at the interval ends
    v[0] = 4 * v[1] - 6 * v[2] + 4 * v[3] - v[4]
    v[-1] = 4 * v[-2] - 6 * v[-3] + 4 * v[-4] - v[-5]
    # in the linear limit r is the envelope's integral (r None)
    r = lam / params.rho if abs(params.rho) > RHO_ZERO_CUTOFF else None
    return _branch(params, grid, "finite_difference", _finish(params, v, u_vals, r, grid),
                   v - 1.0, iterations, resid, converged, increments=tuple(increments))


def fd_solve(
    params: CoreParams,
    grid: Grid | None = None,
    seed: GridFunction | None = None,
    r0: complex | None = None,
) -> Branch:
    """Finite-difference solution with a bordered normalization row.

    Unknowns: W at the interior nodes and lam, in real variables, from
    ``seed`` / eps (default cos x) and lam = rho * r0 (default r0 from the
    small-amplitude series).  _newton's rules: the norm is the h^2-scaled
    residual; done when the step taken is at most ``params.tol_fp``; a
    trial is taken when it decreases the norm or the norm is below 1e-13,
    the sixth (1/32 of the step) regardless; an iterate escapes when |W|
    exceeds 1e80 or is not finite.  A taken trial whose pass predicts a
    next step within ``params.tol_fp`` is first corrected through that
    pass's factors (_newton's ``tol``): a correction within tol_fp is the
    last pass, and a solve that ends so makes one factorization fewer
    than it reports passes.  At most ``params.max_iter`` passes.  The
    grid needs at least 7 nodes.
    """
    grid, u, lam = _start(params, grid, seed, r0)
    kappa = params.kappa
    if grid.n_nodes < 7:
        # the envelope's cubic end rule reads four interior nodes; the
        # default grid has 257
        raise InvalidArgument(f"finite differences need >= 7 nodes, got {grid.n_nodes}")
    if u is None:
        u = grid.cos.astype(complex)

    h = grid.spacing
    row, diag, off, *border = _fd_layout(grid)

    def residual(z):
        ui = z[:-2].view(complex)
        if not np.abs(ui).max() <= 1e80:
            return None  # escaped, or not finite
        lap = diag * ui  # (-D2 - I) ui
        lap[1:] += off * ui[:-1]
        lap[:-1] += off * ui[1:]
        abs2 = (ui * ui.conjugate()).real
        g = lap - complex(z[-2], z[-1]) * ui + kappa * abs2 * ui
        gn = complex(np.dot(row, ui) - 1.0)
        # h^2 scaling keeps the interior residual comparable to the state
        norm = max(float(np.abs(g).max()) * h * h, abs(gn))
        if not np.isfinite(norm):
            return None  # kappa or lam overflows the residual
        return np.concatenate((g, [gn])).view(float), norm, abs2

    def linearize(z, ev):
        # a taken trial's residual, |u|^2 included, serves its pass
        ev = residual(z) if ev is None else ev
        return None if ev is None else ev + _fd_newton_system(
            z[:-2].view(complex), ev[2], complex(z[-2], z[-1]), kappa, diag, off, *border)

    z = np.append(u[1:-1].view(float), [lam.real, lam.imag])
    # overflow on the way to divergence is expected: a trial that is not
    # finite escapes, and a step that is not finite ends the solve
    with np.errstate(over="ignore", invalid="ignore"):
        z, ev, iterations, _, steps, converged = _newton(
            z, residual, linearize, params.max_iter,
            done=lambda norm, step: step <= params.tol_fp,
            accept=lambda trial, norm: trial < norm or norm < 1e-13, halvings=6, take_last=True,
            tol=params.tol_fp)
    if ev is None:
        return _diverged_branch(params, grid, "finite_difference", iterations,
                                increments=tuple(steps))
    u[1:-1] = z[:-2].view(complex)
    return _fd_branch(params, grid, u, complex(z[-2], z[-1]), iterations,
                      steps[-1] if steps else float("inf"), converged, steps)


# ------------------------------------------------------------- comparison

def compare_branches(b1: Branch, b2: Branch) -> float:
    """Distance between two branches modulo the free phase.

    Compares the branches at the nodes of the coarser grid, which the
    finer grid must contain (n - 1 a multiple of n_coarse - 1), so the
    distance does not depend on the order of the arguments.  Aligns U2 by
    the closed-form phase theta = arg(vdot(u2, u1)), which minimizes the
    sum over those nodes of |U1 - e^{i theta} U2|^2, and returns the sup
    distance at that phase, max(sup |U1 - e^{i theta} U2|, |r1 - r2|).
    Raises InvalidState unless both branches converged and InvalidArgument
    when the grids do not nest."""
    _instance(b1, Branch, "b1")
    _instance(b2, Branch, "b2")
    if not (b1.converged and b2.converged):
        raise InvalidState("compare_branches requires converged branches")
    n1, n2 = b1.grid.n_nodes, b2.grid.n_nodes
    cells = min(n1, n2) - 1  # the coarse grid's intervals
    if (max(n1, n2) - 1) % cells:
        raise InvalidArgument(f"grids of {n1} and {n2} nodes do not nest")
    u1 = b1.U.values[::(n1 - 1) // cells]
    u2 = b2.U.values[::(n2 - 1) // cells]
    theta = np.angle(np.vdot(u2, u1))  # conj(u2) . u1
    sup = float(np.max(np.abs(u1 - np.exp(1j * theta) * u2)))
    return max(sup, float(abs(b1.r - b2.r)))
