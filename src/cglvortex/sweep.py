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

from .errors import InvalidArgument
from .quadrature import Grid, GridFunction, make_grid
from .reduction import DEFAULT_NODES, Branch, CoreParams, fixed_point_solve
from .direct import fd_solve, shoot_solve
# not called here: bench/tracing.py wraps it under this name
from .physics import extend_solution  # noqa: F401

METHODS = ("fixed_point", "shooting", "finite_difference")

CSV_COLUMNS = (
    "rho_re", "rho_im", "method", "converged", "r_re", "r_im",
    "iterations", "zero_count", "extra_zeros", "symmetry_defect",
    "min_abs_v", "ode_residual",
)

ZERO_TOL = 1e-6


@dataclass(frozen=True)
class SweepRecord:
    """Flat summary of one solve at one parameter point.

    accelerated_at is the Branch's: the plain iterations after which a
    fixed-point solve switched to Anderson mixing, or None.  It is not one
    of the emitted columns, so records read back by load_records hold None.
    """

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
    accelerated_at: int | None = None

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
    n_nodes: int = DEFAULT_NODES
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
    warm_start: bool = False

    def __post_init__(self):
        if self.mode not in ("rectangle", "arg_sweep", "modulus_sweep"):
            raise InvalidArgument(f"unknown sweep mode {self.mode!r}")
        if self.method not in METHODS:
            raise InvalidArgument(f"unknown method {self.method!r}")
        reals = (
            self.re_min, self.re_max, self.im_min, self.im_max, self.radius,
            self.arg_min, self.arg_max, self.ray_arg, self.mod_min, self.mod_max,
        )
        if not (np.all(np.isfinite(reals)) and np.isfinite(self.eps)):
            raise InvalidArgument("sweep bounds and eps must be finite")
        if self.eps == 0:
            raise InvalidArgument("eps must be nonzero")
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


def count_zeros(envelope: np.ndarray, n: int):
    """Zero census of one 2 pi period of u = U(n x), read off its envelope.

    envelope holds cyclic samples of v over the period, as
    VortexSolution.envelope does.  The 2n zeros of cos(n x) are structural;
    every further zero is the envelope's: a cyclic pair of neighbouring
    samples across which v changes sign (Re v_i conj v_{i+1} < 0) or,
    where neither adjoining pair does, a cyclic local minimum of |v| at or
    below ZERO_TOL times sup |v|.  A zero on a sample thus counts once.
    Returns (zero_count, extra_zeros) with zero_count = 2n + extra_zeros.
    """
    v = np.asarray(envelope)
    flips = (v * np.roll(v, -1).conjugate()).real < 0
    vab = np.abs(v)
    dips = (
        (vab < np.roll(vab, 1)) & (vab <= np.roll(vab, -1))
        & (vab <= ZERO_TOL * np.max(vab)) & ~flips & ~np.roll(flips, 1)
    )
    extra = int(np.count_nonzero(flips) + np.count_nonzero(dips))
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

    Every method gets the same CoreParams (``tol`` as tol_fp, ``max_iter``).
    ``prev``, a converged branch on the same grid, warm-starts the solve:
    its correction w (fixed point), or its profile and r (shooting and
    finite differences).  Failures are reported in the returned Branch.
    """
    if method not in METHODS:
        raise InvalidArgument(f"unknown method {method!r}")
    if prev is not None and not prev.converged:
        raise InvalidArgument("prev must be a converged branch")
    params = CoreParams(rho=rho, eps=eps, max_iter=max_iter, tol_fp=tol)
    w0 = seed = r0 = None
    if prev is not None:
        w0, seed, r0 = prev.w, prev.U, prev.r
    if method == "fixed_point":
        return fixed_point_solve(params, grid=grid, w0=w0)
    if method == "shooting":
        return shoot_solve(params, grid=grid, seed=seed, r0=r0)
    return fd_solve(params, grid=grid, seed=seed, r0=r0)


def record_from_branch(branch: Branch) -> SweepRecord:
    """Summarize one branch; zero census on its envelope over the n = 1 period.

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
        # that period holds the envelope on J twice
        zero_count, extra = count_zeros(np.tile(branch.v.values[:-1], 2), 1)
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
        accelerated_at=branch.accelerated_at,
    )


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate the sweep; one record per grid point, in grid order.

    Per-point failures are reported by the solver's Branch and recorded
    (converged false), never aborting the sweep.  With ``warm_start`` each
    point starts from the last converged branch.  Deterministic for a
    given spec.
    """
    grid = make_grid(spec.n_nodes)
    records: list[SweepRecord] = []
    prev: Branch | None = None
    for rho in spec.points():
        branch = solve(spec.method, rho, spec.eps, grid, prev=prev)
        records.append(record_from_branch(branch))
        if spec.warm_start and branch.converged:
            prev = branch
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
        grid = make_grid(DEFAULT_NODES)
    seed_vals = eps * grid.cos + 0.1 * abs(eps) * np.sin(2 * grid.nodes)
    seed = GridFunction(grid, seed_vals)
    branch = fd_solve(CoreParams(rho=rho, eps=eps, tol_fp=1e-11), grid=grid, seed=seed)
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


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


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
            lines.append(",".join(_csv_cell(d[col]) for col in CSV_COLUMNS))
        payload = "\n".join(lines) + "\n"
    else:
        payload = dumps_json([rec.as_dict() for rec in records]) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)


def _flag(value) -> bool:
    """A converged cell: JSON true/false or CSV text true/false."""
    if value is True or value == "true":
        return True
    if value is False or value == "false":
        return False
    raise ValueError(f"expected true or false, got {value!r}")


def _number(value) -> float:
    """A float cell; JSON null reads as NaN."""
    return float("nan") if value is None else float(value)


def _record_from_row(d, where: str) -> SweepRecord:
    """The record of one emitted row: a JSON object, or a CSV line keyed by
    CSV_COLUMNS (its cells still text).  A missing or unreadable cell raises
    InvalidArgument naming ``where`` (file and line or row) and the column."""
    if not isinstance(d, dict):
        raise InvalidArgument(f"{where}: expected an object of {len(CSV_COLUMNS)} columns")

    def cell(key, parse):
        if key not in d:
            raise InvalidArgument(f"{where}: missing column {key}")
        try:
            return parse(d[key])
        except (TypeError, ValueError):
            raise InvalidArgument(f"{where}, column {key}: cannot read {d[key]!r}") from None

    return SweepRecord(
        rho=complex(cell("rho_re", _number), cell("rho_im", _number)),
        method=cell("method", str),
        converged=cell("converged", _flag),
        r=complex(cell("r_re", _number), cell("r_im", _number)),
        iterations=cell("iterations", int),
        zero_count=cell("zero_count", int),
        extra_zeros=cell("extra_zeros", int),
        symmetry_defect=cell("symmetry_defect", _number),
        min_abs_v=cell("min_abs_v", _number),
        ode_residual=cell("ode_residual", _number),
    )


def load_records(path, format_: str) -> list[SweepRecord]:
    """Parse a file produced by emit_results back into records.  A CSV file
    must carry the CSV_COLUMNS header and one field per column in each row;
    every cell must read as its column's type (converged only true or
    false), or InvalidArgument names the line (CSV) or row (JSON) and
    column."""
    if format_ not in ("csv", "json"):
        raise InvalidArgument(f"unknown format {format_!r}")
    with open(path, "r", encoding="utf-8") as fh:
        if format_ == "json":
            return [_record_from_row(d, f"{path} row {i}") for i, d in enumerate(json.load(fh))]
        if tuple(fh.readline().rstrip("\n").split(",")) != CSV_COLUMNS:
            raise InvalidArgument(f"unexpected CSV header in {path}")
        rows = [line.rstrip("\n").split(",") for line in fh]
    records = []
    for line_no, cells in enumerate(rows, start=2):
        if len(cells) != len(CSV_COLUMNS):
            raise InvalidArgument(
                f"{path} line {line_no}: {len(cells)} fields, expected {len(CSV_COLUMNS)}"
            )
        records.append(_record_from_row(dict(zip(CSV_COLUMNS, cells)), f"{path} line {line_no}"))
    return records
