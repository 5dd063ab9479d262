"""Parameter sweeps over rho and machine-readable result emission.

A sweep evaluates the selected solver at every grid point of a rectangle,
an argument arc, or a modulus ray, and summarizes each branch in one flat
record (convergence, r, zero structure, symmetry, envelope minimum,
collocation residual).  Emission is deterministic: identical specs produce
byte-identical CSV or JSON files.  JSON follows RFC 8259: quantities that
are not finite are written as null.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InvalidArgument, ToolkitError
from .quadrature import Grid, GridFunction, make_grid
from .reduction import Branch, CoreParams, fixed_point_solve
from .direct import FdState, ShootingState, fd_solve, shoot_solve
from .physics import extend_solution

METHODS = ("fixed_point", "shooting", "finite_difference")

CSV_COLUMNS = (
    "rho_re", "rho_im", "method", "converged", "r_re", "r_im",
    "iterations", "zero_count", "extra_zeros", "symmetry_defect",
    "min_abs_v", "ode_residual",
)

DEFAULT_ZERO_TOL = 1e-6


@dataclass(frozen=True)
class SweepRecord:
    """Flat summary of one solve at one parameter point."""

    rho: complex
    method: str
    converged: bool
    r: complex
    iterations: int
    zero_count: int
    extra_zeros: int
    symmetry_defect: float
    min_abs_v: float
    ode_residual: float

    def as_dict(self) -> dict:
        return {
            "rho_re": self.rho.real,
            "rho_im": self.rho.imag,
            "method": self.method,
            "converged": self.converged,
            "r_re": self.r.real,
            "r_im": self.r.imag,
            "iterations": self.iterations,
            "zero_count": self.zero_count,
            "extra_zeros": self.extra_zeros,
            "symmetry_defect": self.symmetry_defect,
            "min_abs_v": self.min_abs_v,
            "ode_residual": self.ode_residual,
        }


@dataclass(frozen=True)
class SweepSpec:
    """Definition of one sweep.

    mode "rectangle": re/im bounds and steps;
    mode "arg_sweep": fixed radius, arg bounds and steps;
    mode "modulus_sweep": fixed arg, modulus bounds and steps.
    """

    mode: str
    method: str = "fixed_point"
    eps: complex = 1.0 + 0.0j
    n_nodes: int = 257
    re_min: float = -3.5
    re_max: float = 3.5
    re_steps: int = 15
    im_min: float = 0.0
    im_max: float = 1.5
    im_steps: int = 7
    radius: float = 1.0
    arg_min: float = 0.0
    arg_max: float = float(np.pi)
    arg_steps: int = 64
    ray_arg: float = 0.0
    mod_min: float = 1.0
    mod_max: float = 9.0
    mod_steps: int = 32
    max_iter: int = 800
    tol: float = 1e-12
    warm_start: bool = False
    out: str | None = None

    def __post_init__(self):
        if self.mode not in ("rectangle", "arg_sweep", "modulus_sweep"):
            raise InvalidArgument(f"unknown sweep mode {self.mode!r}")
        if self.method not in METHODS:
            raise InvalidArgument(f"unknown method {self.method!r}")
        reals = (
            self.re_min, self.re_max, self.im_min, self.im_max, self.radius,
            self.arg_min, self.arg_max, self.ray_arg, self.mod_min, self.mod_max,
            self.tol,
        )
        if not (np.all(np.isfinite(reals)) and np.isfinite(self.eps)):
            raise InvalidArgument("sweep bounds, tol and eps must be finite")
        if self.mode == "rectangle":
            if self.re_steps < 2 or self.im_steps < 2:
                raise InvalidArgument("rectangle sweeps need >= 2 steps per axis")
            if self.re_min > self.re_max or self.im_min > self.im_max:
                raise InvalidArgument("rectangle bounds must be ordered")
        elif self.mode == "arg_sweep":
            if self.arg_steps < 2:
                raise InvalidArgument("arg sweeps need >= 2 steps")
            if self.arg_min > self.arg_max:
                raise InvalidArgument("arg bounds must be ordered")
            if self.radius <= 0:
                raise InvalidArgument("radius must be positive")
        else:
            if self.mod_steps < 2:
                raise InvalidArgument("modulus sweeps need >= 2 steps")
            if self.mod_min > self.mod_max:
                raise InvalidArgument("modulus bounds must be ordered")

    def points(self) -> list[complex]:
        if self.mode == "rectangle":
            res = np.linspace(self.re_min, self.re_max, self.re_steps)
            ims = np.linspace(self.im_min, self.im_max, self.im_steps)
            return [complex(a, b) for b in ims for a in res]
        if self.mode == "arg_sweep":
            args = np.linspace(self.arg_min, self.arg_max, self.arg_steps)
            return [self.radius * complex(np.cos(t), np.sin(t)) for t in args]
        mods = np.linspace(self.mod_min, self.mod_max, self.mod_steps)
        return [m * complex(np.cos(self.ray_arg), np.sin(self.ray_arg)) for m in mods]


def count_zeros(nodes: np.ndarray, values: np.ndarray, n: int, tol_zero: float = DEFAULT_ZERO_TOL):
    """Zero census of one 2 pi period of u = U(n x).

    Structural zeros are the 2n zeros of cos(n x); any further zero must
    come from the envelope, so extra zeros are counted as cyclic local
    minima of |v| that dip below tol_zero times sup |v|.
    Returns (zero_count, extra_zeros) with zero_count = 2n + extra_zeros.
    """
    values = np.asarray(values)
    cosn = np.cos(n * np.asarray(nodes, dtype=float))
    safe = np.abs(cosn) > 1e-2
    vab = np.empty(len(values))
    vab[safe] = np.abs(values[safe]) / np.abs(cosn[safe])
    # fill the nodes straddling the structural zeros from their neighbors
    idx = np.where(~safe)[0]
    m = len(values)
    for i in idx:
        lo, hi = (i - 1) % m, (i + 1) % m
        steps_lo, steps_hi = 1, 1
        while not safe[lo]:
            lo = (lo - 1) % m
            steps_lo += 1
        while not safe[hi]:
            hi = (hi + 1) % m
            steps_hi += 1
        wlo = steps_hi / (steps_lo + steps_hi)
        vab[i] = wlo * vab[lo] + (1 - wlo) * vab[hi]
    top = float(np.max(vab))
    if top == 0.0:
        return 2 * n, 0
    left = np.roll(vab, 1)
    right = np.roll(vab, -1)
    minima = (vab < left) & (vab <= right) & (vab <= tol_zero * top)
    extra = int(np.count_nonzero(minima))
    return 2 * n + extra, extra


def symmetry_defect(u: GridFunction) -> float:
    """sup |U(x) - U(-x)| over the (symmetric) grid."""
    vals = u.values
    return float(np.max(np.abs(vals - vals[::-1])))


def solve(
    method: str,
    rho: complex,
    eps: complex,
    grid: Grid,
    tol: float = 1e-12,
    max_iter: int = 800,
    prev: Branch | None = None,
) -> Branch:
    """Solve one parameter point with one of METHODS.

    ``prev``, a converged branch on the same grid, warm-starts the solve:
    its correction w (fixed point), its left slope and r (shooting) or its
    profile and r (finite differences).  When plain fixed-point iteration
    neither converges nor diverges, it is restarted with the same
    CoreParams and 0.5-averaging: near the convergence edge the plain
    iteration oscillates with period two, and the averaged map has the
    same fixed point.  A cold shooting solve keeps ShootingState's own
    Newton controls; ``tol`` and ``max_iter`` apply to every other solve.
    """
    if prev is not None and not prev.converged:
        raise InvalidArgument("prev must be a converged branch")
    if method == "fixed_point":
        params = CoreParams(rho=rho, eps=eps, max_iter=max_iter, tol_fp=tol)
        w0 = None if prev is None else prev.w
        branch = fixed_point_solve(params, grid=grid, w0=w0)
        if not branch.converged and not branch.diverged:
            branch = fixed_point_solve(params, grid=grid, w0=w0, relaxation=0.5)
        return branch
    if method == "shooting":
        init = None
        if prev is not None:
            init = ShootingState(a=prev.v.values[0], r=prev.r, newton_max=max_iter,
                                 newton_tol=tol)
        return shoot_solve(rho, eps, init=init, grid=grid)
    if method == "finite_difference":
        state = FdState(grid=grid, tol=tol, max_iter=max_iter)
        if prev is None:
            return fd_solve(rho, eps, state=state)
        return fd_solve(rho, eps, state=state, seed=prev.U, r0=prev.r)
    raise InvalidArgument(f"unknown method {method!r}")


def record_from_branch(branch: Branch, tol_zero: float = DEFAULT_ZERO_TOL) -> SweepRecord:
    """Summarize one branch; zero census on the n = 1 periodic extension.

    A diverged branch holds no profile to measure: its symmetry defect,
    envelope minimum and collocation residual are recorded as NaN."""
    nan = float("nan")
    defect, min_v, ode_res = nan, nan, nan
    if not branch.diverged:
        defect = symmetry_defect(branch.U)
        min_v = float(np.min(np.abs(branch.v.values)))
        ode_res = branch.ode_residual
    zero_count, extra = 0, 0
    if branch.converged:
        try:
            sol = extend_solution(
                branch, 1, 0.0, enforce_jump_gate=False
            )
            zero_count, extra = count_zeros(sol.nodes, sol.values, 1, tol_zero)
        except ToolkitError:
            pass
    return SweepRecord(
        rho=branch.params.rho,
        method=branch.method,
        converged=bool(branch.converged),
        r=branch.r,
        iterations=branch.iterations,
        zero_count=zero_count,
        extra_zeros=extra,
        symmetry_defect=defect,
        min_abs_v=min_v,
        ode_residual=ode_res,
    )


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate the sweep; one record per grid point, in grid order.

    Per-point failures are captured in the record (converged false),
    never aborting the sweep.  Deterministic for a given spec.
    """
    grid = make_grid(spec.n_nodes)
    records: list[SweepRecord] = []
    prev: Branch | None = None
    for rho in spec.points():
        try:
            branch = solve(spec.method, rho, spec.eps, grid, tol=spec.tol,
                           max_iter=spec.max_iter, prev=prev if spec.warm_start else None)
            records.append(record_from_branch(branch))
            if branch.converged:
                prev = branch
        except ToolkitError:
            records.append(
                SweepRecord(
                    rho=rho, method=spec.method, converged=False, r=0j,
                    iterations=0, zero_count=0, extra_zeros=0,
                    symmetry_defect=float("nan"), min_abs_v=float("nan"),
                    ode_residual=float("nan"),
                )
            )
    return records


def detect_asymmetric(
    rho: complex, eps: complex, grid: Grid | None = None
) -> tuple[SweepRecord, bool]:
    """Search for a symmetry-broken branch near the symmetric one.

    Seeds the finite-difference solver with eps cos x plus an odd
    perturbation 0.1 |eps| sin 2x and reports the outcome; the branch is
    flagged asymmetric when it converged with a symmetry defect exceeding
    1e-3 times the profile size.  Non-detection is a valid outcome.
    """
    if grid is None:
        grid = make_grid(257)
    seed_vals = eps * grid.cos + 0.1 * abs(eps) * np.sin(2 * grid.nodes)
    seed = GridFunction(grid, seed_vals)
    state = FdState(grid=grid)
    branch = fd_solve(rho, eps, state=state, seed=seed)
    record = record_from_branch(branch)
    flagged = bool(
        branch.converged
        and record.symmetry_defect > 1e-3 * max(branch.U.sup_norm, 1e-300)
    )
    return record, flagged


def mirror_conjugate(records: Sequence[SweepRecord]) -> list[SweepRecord]:
    """Records for the conjugate parameters: rho -> conj rho maps branches
    to branches with r -> conj r and identical real diagnostics."""
    out = list(records)
    for rec in records:
        out.append(replace(rec, rho=rec.rho.conjugate(), r=rec.r.conjugate()))
    return out


def _json_ready(obj):
    """obj with every float that is not finite replaced by None."""
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def dumps_json(obj) -> str:
    """RFC 8259 JSON text of obj (indent 2); NaN and infinities become null."""
    return json.dumps(_json_ready(obj), indent=2, allow_nan=False)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def emit_results(records: Sequence[SweepRecord], format_: str, path) -> None:
    """Write records to path as CSV or JSON (LF endings, 17 significant
    digits, byte-stable for identical inputs)."""
    if not records:
        raise InvalidArgument("no records to emit")
    if format_ not in ("csv", "json"):
        raise InvalidArgument(f"unknown format {format_!r}")
    if format_ == "csv":
        lines = [",".join(CSV_COLUMNS)]
        for rec in records:
            d = rec.as_dict()
            row = [
                _fmt(d["rho_re"]), _fmt(d["rho_im"]), d["method"],
                "true" if d["converged"] else "false",
                _fmt(d["r_re"]), _fmt(d["r_im"]),
                str(d["iterations"]), str(d["zero_count"]), str(d["extra_zeros"]),
                _fmt(d["symmetry_defect"]), _fmt(d["min_abs_v"]),
                _fmt(d["ode_residual"]),
            ]
            lines.append(",".join(row))
        payload = "\n".join(lines) + "\n"
    else:
        payload = dumps_json([rec.as_dict() for rec in records]) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)


def _float(x) -> float:
    return float("nan") if x is None else float(x)


def load_records(path, format_: str) -> list[SweepRecord]:
    """Parse a file produced by emit_results back into records (JSON null
    reads as NaN)."""
    if format_ == "json":
        with open(path, "r", encoding="utf-8") as fh:
            rows = json.load(fh)
    elif format_ == "csv":
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            if tuple(header) != CSV_COLUMNS:
                raise InvalidArgument(f"unexpected CSV header in {path}")
            for line in fh:
                parts = line.rstrip("\n").split(",")
                rows.append(
                    {
                        "rho_re": float(parts[0]), "rho_im": float(parts[1]),
                        "method": parts[2], "converged": parts[3] == "true",
                        "r_re": float(parts[4]), "r_im": float(parts[5]),
                        "iterations": int(parts[6]), "zero_count": int(parts[7]),
                        "extra_zeros": int(parts[8]),
                        "symmetry_defect": float(parts[9]),
                        "min_abs_v": float(parts[10]),
                        "ode_residual": float(parts[11]),
                    }
                )
    else:
        raise InvalidArgument(f"unknown format {format_!r}")
    return [
        SweepRecord(
            rho=complex(d["rho_re"], d["rho_im"]),
            method=d["method"],
            converged=bool(d["converged"]),
            r=complex(_float(d["r_re"]), _float(d["r_im"])),
            iterations=int(d["iterations"]),
            zero_count=int(d["zero_count"]),
            extra_zeros=int(d["extra_zeros"]),
            symmetry_defect=_float(d["symmetry_defect"]),
            min_abs_v=_float(d["min_abs_v"]),
            ode_residual=_float(d["ode_residual"]),
        )
        for d in rows
    ]
