"""Projection splitting and the contraction solve for the reduced problem.

The steady equation -U'' - U = rho (r - |U|^2) U, with the envelope's
cos^2-weighted mean fixed at eps, is under U = eps W and r = |eps|^2 s the
eps = 1 problem at kappa = rho |eps|^2; the phase of eps is a gauge.
Every solver solves that problem and _branch scales back.  Through
W = v cos x and the splitting v = 1 + w with w free of the mean, it is a
fixed-point problem for the correction w:

    w  =  G( N(w, kappa) ),

where N is the amplitude-scaled cubic forcing and G inverts the
linearized operator and removes the mean mode.  For |kappa| below an
explicit radius the map is a contraction and plain iteration from w = 0
converges geometrically; far outside that certificate the iteration is
still attempted.  Near the convergence edge plain iteration settles into
a period-two oscillation, or moves away from the fixed point; once its
increments stop shrinking the same solve switches to Anderson mixing,
which has the same fixed point, and gives up when that makes no progress.

Each operator (mean projection, Green inverse, cubic forcing) has one
implementation on sample arrays that reads the Grid's tables; the public
functions on GridFunctions validate their input and call it, and the
fixed-point loop calls it directly, on one row of samples (n,) or on a
block of rows (B, n) with a (B, 1) column of kappas (_block_rows).
A one-row map is call-bound, and a block's steps run on contiguous rows;
so these multiply by the Grid's complex tables and write in place where
they can, and a block takes its end cells and bulk term in numpy.  Each
takes optional arrays to write into: a block map passes the work arrays
the block allocated when it started, so it allocates no (B, n) array,
while a one-row map and the public functions write fresh ones.  A block row
that is not finite is not finite at the entries where it is not finite
alone, but its NaNs need not keep their bits; such a row has diverged,
and no record holds its values.  Every element keeps its operations and
the order of their operands: where numpy's complex multiply uses FMA,
a * b and b * a can differ in the last bit, so a map stays bit-identical
only with kappa * f written as np.multiply(kappa, f), never as f *= kappa.
"""
from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import InvalidArgument
from .quadrature import Grid, GridFunction, _row_sums, make_grid
from .greens import _check_admissible, _envelope_pair, _remove_cos_mode, envelope_residual

DEFAULT_NODES = 257

# precondition tolerance: corrections fed to the forcing map must be mean-free
MEAN_FREE_TOL = 1e-10

# smallest |eps| a solve accepts: compute_r integrates the cube |v|^2 v of
# v = eps v1, which leaves the normal float range below the cube root of
# the smallest normal float, about 2.81e-103, and r then loses digits
EPS_FLOOR = float(np.cbrt(np.finfo(float).tiny))

# plain iteration has stalled at iteration k >= STALL_MIN_ITER when
# |dw_k| > STALL_RATIO |dw_{k-2}|: it no longer contracts
STALL_MIN_ITER = 10
STALL_RATIO = 0.95
# Anderson mixing depth, and the growth of sup|T(w) - w| over its value at
# the switch that ends the accelerated phase as diverged
ANDERSON_DEPTH = 6
ANDERSON_DIVERGENCE = 100.0
# the accelerated phase also ends as diverged when, ANDERSON_PATIENCE maps
# after the switch, its best residual is still above ANDERSON_PROGRESS
# times the residual at the switch
ANDERSON_PATIENCE = 15
ANDERSON_PROGRESS = 1e-3
# numpy's ufunc buffer size, in elements, under which fixed_point_solve
# advances its block and _rk4_lanes takes its steps (numpy's default is
# 8,192).  A step that broadcasts a table or a column over a block's rows,
# or the trajectory over shooting's tangent lanes, or that casts a float
# operand to complex, passes that operand through a buffer this large.  The
# size sets how many elements an inner loop takes, not what an element
# computes, and no sum reduction, whose pairwise order would follow those
# chunks, runs under it.  bench/run.py, medians of 4 alternating 8 s runs
# at seed 0 on a 2-vCPU host, wall_s of rect_fp, which runs no RK4:
# 0.0837 s at 8,192, 0.0799 s at 1,024, 0.0715 s at 512, 0.0759 s at 256,
# 0.0757 s at 128 (peak_rss_mb 35.48 MiB, then 35.56-35.58 MiB at each
# size); of cross_check, with RK4's stages in paired force calls: 0.0720 s
# at 8,192, 0.0708 s at 1,024, 0.0687 s at 256, 0.0695 s at 128
# (peak_rss_mb 38.46-38.50 MiB at each size)
UFUNC_BUFSIZE = 256


def eps_squared(eps: complex, zero_ok: bool = False) -> float:
    """|eps|^2, the amplitude scale of every solve.  InvalidArgument when it
    overflows, or when |eps| is below EPS_FLOOR (eps = 0 among them) unless
    zero_ok: a solve needs an amplitude whose r compute_r can form, the
    small-amplitude series do not."""
    try:
        a = abs(eps)
        s = a ** 2
    except OverflowError:
        s = float("inf")
    if not s < float("inf"):
        raise InvalidArgument(f"|eps|^2 overflows at eps = {eps}")
    if a < EPS_FLOOR and not zero_ok:
        raise InvalidArgument(f"|eps| = {a:.3g} is below {EPS_FLOOR:.3g}, where r loses "
                              f"precision, at eps = {eps}")
    return s


@dataclass(frozen=True)
class CoreParams:
    """Inputs of one solve, shared by the fixed-point, shooting and
    finite-difference solvers: rho, eps, the iteration cap max_iter and the
    stopping tolerance tol_fp, in (0, 1).  kappa = rho |eps|^2 is formed
    here, once; it may overflow for a huge rho, which no solve converges
    from.
    No solve reads the certificate: see contraction_radius."""

    rho: complex
    eps: complex
    max_iter: int = 200
    tol_fp: float = 1e-12
    kappa: complex = field(init=False)

    def __post_init__(self):
        if not (np.isfinite(self.rho) and np.isfinite(self.eps)):
            raise InvalidArgument("rho and eps must be finite")
        with np.errstate(over="ignore"):  # a numpy rho overflows quietly, as complex does
            object.__setattr__(self, "kappa", self.rho * eps_squared(self.eps))
        # w corrects the unit mean mode, so a tolerance of 1 or more would
        # accept whatever the first map returns
        if not 0 < self.tol_fp < 1:
            raise InvalidArgument(f"tol_fp must lie in (0, 1), got {self.tol_fp}")
        # every solver stops at passes == max_iter, which no other value
        # reaches; a bool is an Integral, and True would pass as 1
        if not (isinstance(self.max_iter, Integral) and not isinstance(self.max_iter, bool)
                and self.max_iter >= 1):
            raise InvalidArgument(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass(frozen=True, eq=False)
class Branch:
    """One converged (or attempted) solution of the reduced problem.

    Every solver builds it with _branch or, when the solve blew up,
    _diverged_branch: a diverged branch holds no profile (w, v and U are
    zero, r is nan+nanj, ode_residual is inf) and keeps the rest of what
    the solve did before it stopped.  fp_residual and increments measure
    the eps = 1 problem that every solver solves, so they do not scale
    with |eps|.

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


def _project_mean(values: np.ndarray, grid: Grid, out: np.ndarray | None = None):
    # a scalar, or a (B, 1) column; values * cos2 goes to out (default fresh)
    return _row_sums(np.multiply(values, grid.cos2_c, out), grid) / grid.cos2_mass


def project_mean(u: GridFunction) -> complex:
    """cos^2-weighted mean of u over J: (int u cos^2) / (int cos^2).

    This is the discrete projection onto the constant mode; the
    normalization by the quadrature value of int cos^2 (= pi/2) makes the
    projector exactly idempotent on the grid, so project_mean(1) == 1 to
    roundoff."""
    return complex(_project_mean(u.values, u.grid))


def _green_pair(f_values: np.ndarray, grid: Grid, out: np.ndarray | None = None,
                work: np.ndarray | None = None) -> np.ndarray:
    """apply_green_op of one forcing (n,) or of each row of a block (B, n),
    in [0] of a (2, ..., n) pair; [1] is scratch.  As in _envelope_pair,
    a block row that is not finite is not finite at the same entries as
    alone, with NaNs whose bits are not kept.  A block passes the pair
    ``out`` and four (B, n) rows of ``work``, which f_values may lie in;
    without them each step writes a fresh array."""
    pair = _envelope_pair(f_values, grid, 0.0, out, work)
    v = pair[0]
    np.subtract(v, _project_mean(v, grid, None if work is None else work[0]), out=v)
    return pair


def apply_green_op(f: GridFunction) -> GridFunction:
    """Mean-free envelope response to an admissible forcing.

    Solves the linearized problem with zero left value and removes the
    cos^2-weighted mean, so the output lies in the complement range; its
    sup norm is bounded by 3 pi times the sup norm of the forcing.
    """
    _check_admissible(f)
    return GridFunction(f.grid, _green_pair(f.values, f.grid)[0])


def _cubic_forcing(w_values: np.ndarray, rho: complex, grid: Grid,
                   work: np.ndarray | None = None) -> np.ndarray:
    """N(w) of one correction (n,), or of each row of a block (B, n) with a
    (B, 1) column rho.  A block passes three (B, n) rows of ``work``, which
    every step writes into, and the forcing is returned in work[0];
    without them each step writes a fresh array."""
    one, absq, t = (None, None, None) if work is None else work[:3]
    one = np.add(1.0, w_values, one)
    # |1+w|^2 is the real part; under FMA the imaginary part need not be 0,
    # and once it is, absq is numpy's complex cast of |1+w|^2 to the bit
    absq = np.conjugate(one, absq)
    np.multiply(one, absq, absq)
    absq.imag = 0.0
    t = np.multiply(absq, one, t)
    t *= grid.cos4_c
    s = _row_sums(t, grid)
    bulk = (2.0 / np.pi) * (complex(s) if t.ndim == 1 else s)
    f = np.multiply(absq, grid.cos2_c, out=t)
    np.subtract(bulk, f, out=f)
    np.multiply(rho, f, out=f)  # rho first: under FMA, f * rho rounds differently
    f *= one
    f *= grid.cos_c
    # absorb quadrature drift so the output is exactly admissible; one is
    # no longer read
    return _remove_cos_mode(f, grid, one)


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
    return (2.0 / (eps * np.pi)) * v.grid.integrate(absq * vals * v.grid.cos4_c)


def _ode_forcing(u_vals: np.ndarray, rho: complex, r: complex) -> np.ndarray:
    """Right-hand side rho (r - |U|^2) U of the branch ODE."""
    absq = (u_vals * u_vals.conjugate()).real
    return rho * (r - absq) * u_vals


def ode_forcing(v: GridFunction, rho: complex, r: complex) -> GridFunction:
    """Pointwise forcing f(x) = rho (r - |v|^2 cos^2 x) v(x) cos x."""
    return GridFunction(v.grid, _ode_forcing(v.values * v.grid.cos, rho, r))


def _branch(params: CoreParams, grid: Grid, method: str, v1, u1, r,
            iterations: int, fp_residual: float, converged: bool, w=None,
            **extra) -> Branch:
    """Branch of an eps = 1 solve that ended on the envelope v1 and
    profile u1, scaled back to v = eps v1 and U = eps u1.

    w defaults to v1 - 1 and r, when None, to compute_r of v; extra holds
    the optional Branch fields."""
    eps = params.eps
    v = GridFunction(grid, eps * v1)
    u_vals = eps * u1
    r = complex(compute_r(v, eps) if r is None else r)
    return Branch(
        params=params,
        r=r,
        w=GridFunction(grid, v1 - 1.0 if w is None else w),
        v=v,
        U=GridFunction(grid, u_vals),
        iterations=iterations,
        fp_residual=fp_residual,
        ode_residual=envelope_residual(v.values, _ode_forcing(u_vals, params.rho, r), grid),
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
    # NaN fails both comparisons
    if not (0 < sigma < math.inf and 0 < rho_abs < math.inf):
        raise InvalidArgument(f"sigma and rho_abs must be positive and finite, got "
                              f"{sigma!r} and {rho_abs!r}")
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
    """True when the latest increment |dw_k| did not shrink against
    |dw_{k-2}|: the plain map is caught in a period-two oscillation, or is
    moving away from the fixed point (a period-doubling instability)."""
    k = len(increments) - 1
    return k >= STALL_MIN_ITER and increments[k] > STALL_RATIO * increments[k - 2]


class _Row:
    """One solve of a block: its params, its index in the block's params,
    its histories (one increment per map, so they count its maps) and
    Anderson state."""

    __slots__ = ("params", "index", "increments", "sups", "mixer", "accelerated_at", "at_switch",
                 "best", "ended")

    def __init__(self, params: CoreParams, index: int):
        self.params = params
        self.index = index
        self.increments: list[float] = []
        self.sups: list[float] = []
        self.mixer: _Anderson | None = None
        self.accelerated_at: int | None = None
        self.at_switch = self.best = 0.0
        self.ended: tuple[int, bool] | None = None  # (iterations, converged)

    def history(self) -> dict:
        return dict(increments=tuple(self.increments), iterate_sups=tuple(self.sups),
                    accelerated_at=self.accelerated_at)


def fixed_point_solve(
    params: CoreParams,
    grid: Grid | None = None,
    w0: GridFunction | None = None,
    *,
    block: Iterator[Branch] | None = None,
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
    raised.  These end the solve with the diverged record of
    _diverged_branch:
      - NaN or overflow of the map (fp_residual inf);
      - an accelerated residual ANDERSON_DIVERGENCE times its value at the
        switch;
      - no progress: ANDERSON_PATIENCE maps after the switch, the best
        accelerated residual is still above ANDERSON_PROGRESS times its
        value at the switch.
    In the last two cases fp_residual is the latest residual.  A w0 on
    another grid raises InvalidArgument.
    This is the one-row case of _block_rows.  Given a ``block`` (a
    _block_rows generator), it takes the block's next Branch instead (grid
    and w0 unused); InvalidArgument when that Branch is not params' (by
    identity) or the block has none left.  The block advances under
    numpy's ufunc buffer size UFUNC_BUFSIZE, set inside the np.errstate
    block around it, so leaving that block gives the caller back its own
    size, also when a map raises.
    """
    if block is None:
        if grid is None:
            grid = make_grid(DEFAULT_NODES)
        if w0 is not None and w0.grid != grid:
            raise InvalidArgument("w0 must live on the solver grid")
        w = None if w0 is None else w0.values.astype(complex)[None]
        block = _block_rows([params], grid, w)
    # overflow on the way to divergence is expected: sup|T(w)| is nan or
    # inf exactly when T(w) is, and the Branch reports it as diverged
    with np.errstate(over="ignore", invalid="ignore"):
        np.setbufsize(UFUNC_BUFSIZE)
        branch = next(block, None)
    if branch is None or branch.params is not params:
        raise InvalidArgument("the block's next branch is not the one asked for")
    return branch


def _block_rows(params: list[CoreParams], grid: Grid, w0: np.ndarray | None = None,
                width: int | None = None) -> Iterator[Branch]:
    """Yield fixed_point_solve of each params, in the order of params, from
    the rows of w0 (N, n), default 0, in one rolling block.

    At most ``width`` rows (default: all) are iterated at once; when a row
    leaves, the next params in list order enters.  Elementwise steps take
    every row in one numpy call and each weighted sum is one np.vecdot over
    the rows (_row_sums), so a row gets the bits it would get alone.  Each
    row counts its own maps for its iterations, its switch to Anderson
    mixing, Anderson's patience and its max_iter; Anderson mixing runs per
    row on copied rows.  A row leaves the block when it diverges, or one
    map after it converges or reaches its max_iter: that map measures its
    fp_residual.

    After each block map it yields every Branch whose turn has come.  A
    row that leaves ahead of its turn waits until the rows before it are
    handed over, and no row enters while ``width`` Branches wait, so at
    most width - 1 more finish before the one whose turn it is: at most
    2 width - 1 wait at once.

    The block allocates its work arrays when it starts, eight blocks of
    (width, n) complex samples: two regions, each the room of a map's
    (2, B, n) pair, and four for _cubic_forcing's and _green_pair's steps.
    The iterate w is the first B rows of one region and the map writes its
    pair into the other, so T(w) - w reads the old w; the regions then
    swap.  Rows enter after the last row of w, and when rows leave, each
    row after the first to leave is copied down into the gap.  A map of
    B >= 2 rows writes every step into these arrays; a one-row map, which
    is call-bound, takes fresh arrays for its steps and writes its pair
    into the region.  A Branch or an Anderson mixer keeps copies, never a
    view of these arrays.

    The block sets no numpy state of its own: fixed_point_solve advances
    it under UFUNC_BUFSIZE, so a step that broadcasts an (n,) table or a
    (B, 1) column over the rows buffers at most that many elements of
    the operand at a time, with the same bits as at numpy's default."""
    width = min(width or len(params), len(params))
    waiting: dict[int, Branch] = {}  # row -> Branch, until its turn
    turn = 0
    n = grid.n_nodes
    regions = np.empty((2, 2 * width * n), dtype=complex)
    scratch = np.empty(4 * width * n, dtype=complex)
    at = 0  # the region whose first rows hold w
    w = regions[at, :0].reshape(0, n)
    b = 0  # the rows the views below are laid out for
    kappa = np.empty((0, 1), dtype=complex)  # the rows' kappas
    rows: list[_Row] = []
    entered = 0
    while True:
        # Branches wait only while the row whose turn it is still iterates
        room = width - len(rows) if len(waiting) < width else 0
        new = range(entered, min(entered + room, len(params)))
        if new:
            entered = new.stop
            rows += [_Row(params[i], i) for i in new]
            grown = regions[at, :len(rows) * n].reshape(len(rows), n)
            grown[len(w):] = 0.0 if w0 is None else w0[new.start:new.stop]
            w = grown
            kappa = np.concatenate((kappa, [[params[i].kappa] for i in new]))
        if not rows:
            return
        # views of the work arrays for b rows, made again only when b
        # changes: a one-row map would lose a tenth of its time to them
        if len(rows) != b:
            b = len(rows)
            pairs = tuple(regions[:, :2 * b * n].reshape(2, 2, b, n))
            work = scratch[:4 * b * n].reshape(4, b, n)
            mags = work[0].view(float).reshape(2, b, n)
            # numpy's fast path wants equal shapes: one row maps (n,) against the tables
            row_pairs = tuple(p[:, 0] for p in pairs)
        # T(w) in pair[0] of the (2, B, n) pair, T(w) - w into its scratch
        # pair[1], so one call takes every sup
        pair = pairs[1 - at]
        if b == 1:
            _green_pair(_cubic_forcing(w[0], kappa[0, 0], grid), grid, row_pairs[1 - at])
        else:
            _green_pair(_cubic_forcing(w, kappa, grid, work), grid, pair, work)
        at = 1 - at
        t_w, f = pair[0], pair[1]
        np.subtract(t_w, w, f)
        sups, incs = np.maximum.reduce(np.abs(pair, mags), -1).tolist()
        keep = []
        for i, (row, sup, inc) in enumerate(zip(rows, sups, incs)):
            if row.ended is not None:
                w_k = w[i].copy()
                v1 = 1.0 + w_k
                waiting[row.index] = _branch(row.params, grid, "fixed_point", v1, v1 * grid.cos,
                                             None, row.ended[0], inc, row.ended[1], w=w_k,
                                             **row.history())
                continue
            iterations = len(row.increments) + 1  # this map's number in the row
            if not math.isfinite(sup):
                waiting[row.index] = _diverged_branch(row.params, grid, "fixed_point",
                                                      iterations, **row.history())
                continue
            row.increments.append(inc)
            row.sups.append(sup)
            if inc <= row.params.tol_fp:
                row.ended = (iterations, True)
            else:
                if row.mixer is None and _stalled(row.increments):
                    row.mixer, row.accelerated_at = _Anderson(), iterations
                    row.at_switch = row.best = inc
                if row.mixer is not None:
                    row.best = min(row.best, inc)
                    if inc > ANDERSON_DIVERGENCE * row.at_switch or (
                        iterations - row.accelerated_at >= ANDERSON_PATIENCE
                        and row.best > ANDERSON_PROGRESS * row.at_switch
                    ):
                        waiting[row.index] = _diverged_branch(
                            row.params, grid, "fixed_point", iterations, inc, **row.history())
                        continue
                    t_w[i] = row.mixer.step(f[i].copy(), t_w[i].copy())
                if iterations == row.params.max_iter:
                    row.ended = (iterations, False)
            keep.append(i)
        while turn in waiting:
            yield waiting.pop(turn)
            turn += 1
        if len(keep) < len(rows):
            rows, kappa = [rows[i] for i in keep], kappa[keep]
            for j, i in enumerate(keep):
                if i > j:
                    t_w[j] = t_w[i]
            t_w = t_w[:len(keep)]
        w = t_w


def _check_order(order, orders: tuple[int, ...]) -> None:
    # a bool is an Integral, and True == 1.0 == 1 would pass the membership test
    if isinstance(order, bool) or not isinstance(order, Integral) or order not in orders:
        raise InvalidArgument(f"unsupported order {order!r}: an integer in {orders}")


def asymptotic_r(rho: complex, eps: complex, order: int) -> complex:
    """Small-amplitude series for r.

    order 0: (3/4)|eps|^2
    order 1: (3/4)|eps|^2 (1 - rho |eps|^2 / 32)

    The first-order coefficient is exact on the real rho axis; off it the
    computed branches carry a conjugate-coupled coefficient instead, so
    order-1 comparisons should be made at real rho.
    """
    _check_order(order, (0, 1))
    s = eps_squared(eps, zero_ok=True)
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
    _check_order(order, (0, 1, 2))
    x = np.asarray(x, dtype=float)
    z = rho * eps_squared(eps, zero_ok=True) / 32.0
    bracket = np.ones_like(x, dtype=complex)
    # far outside the series' range the terms overflow to inf or nan, as
    # asymptotic_r's complex arithmetic does, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        if order >= 1:
            bracket = bracket - z * (2.0 * np.cos(2 * x) - 1.0)
        if order >= 2:
            bracket = bracket + z * z * (4.0 * np.cos(2 * x) + 2.0 * np.cos(4 * x) - 2.0)
        out = eps * np.cos(x) * bracket
    if out.ndim == 0:
        return complex(out)
    return out

