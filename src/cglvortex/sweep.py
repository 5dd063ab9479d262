"""Parameter sweeps over rho and machine-readable result emission.

A sweep evaluates the selected solver at every grid point of a rectangle,
an argument arc, or a modulus ray, and summarizes each branch in one flat
record (convergence, r, zero structure, symmetry, envelope minimum,
collocation residual).  Emission is deterministic: identical specs produce
byte-identical CSV or JSON files.  JSON follows RFC 8259: quantities that
are not finite are written as null.  verify cross-checks the three
solvers at one point.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (ExtensionError, InvalidArgument, _count, _finite, _instance, _instances,
                     _positive)
from .quadrature import Grid, GridFunction, make_grid
from .greens import solvability_residual
from .reduction import (DEFAULT_NODES, Branch, CoreParams, _block_rows, compute_r, cubic_forcing,
                        eps_squared, fixed_point_solve, project_mean)
from .direct import compare_branches, fd_solve, shoot_solve
from .physics import _check_n, cgl_residual, extend_solution, mu_nu_from_rho, physical_from_r

METHODS = ("fixed_point", "shooting", "finite_difference")

ZERO_TOL = 1e-6

# stopping tolerance and iteration cap of solve, and of a cold fixed-point
# sweep's rows
SOLVE_TOL = 1e-12
SOLVE_MAX_ITER = 800
# three points are equally spaced on a line (a modulus ray, a rectangle
# row) when their second difference is below LINE_TOL times their step;
# linspace's rounding leaves it near 1e-15 of the step there, and an arc
# of k steps leaves about pi / k
LINE_TOL = 1e-8
# the coefficients of the warm starts solve extrapolates from the last
# 1, 2 or 3 converged branches, newest first: the copy, the secant and the
# quadratic of natural-parameter continuation (on the benchmark's FD pi/12
# ray the quadratic takes fewer passes than the secant, and a cubic hardly
# fewer than the quadratic)
PREDICTORS = ((1,), (2, -1), (3, -3, 1))
# a cold fixed-point sweep's rolling block (reduction._block_rows) iterates
# at most this many rows at once and hands their Branches over in grid order.
# Its work arrays hold 8 FP_BLOCK rows of samples.  bench/run.py rect_fp,
# medians of 4 alternating 8 s runs on a 2-vCPU host, wall_s and
# peak_rss_mb: 0.0900 s, 35.10 MiB at 16; 0.0825 s, 35.29 MiB at 24;
# 0.0832 s, 35.69 MiB at 32 (a 16-row block that allocates per map:
# 0.0883 s, 35.26 MiB)
FP_BLOCK = 24


@dataclass(frozen=True)
class SweepRecord:
    """Flat summary of one solve at one parameter point.

    Every field but the last is one emitted column, in column order, and
    load_records parses each cell by its field's type.  accelerated_at is
    the Branch's: the plain iterations after which a fixed-point solve
    switched to Anderson mixing, or None.  It is not emitted, so records
    read back by load_records hold None, and equality ignores it.
    """

    rho_re: float
    rho_im: float
    method: str
    converged: bool
    r_re: float
    r_im: float
    iterations: int
    zero_count: int
    extra_zeros: int
    symmetry_defect: float
    min_abs_v: float
    ode_residual: float
    accelerated_at: int | None = field(default=None, compare=False)

    def as_dict(self) -> dict:
        return {col: getattr(self, col) for col in CSV_COLUMNS}


CSV_COLUMNS = tuple(f.name for f in fields(SweepRecord) if f.name != "accelerated_at")


@dataclass(frozen=True)
class SweepSpec:
    """Definition of one sweep.

    mode "rectangle": re/im bounds and steps;
    mode "arg_sweep": fixed radius, arg bounds and steps;
    mode "modulus_sweep": fixed arg, modulus bounds and steps.
    warm_start: each point starts from the last converged branch, or from
    the secant or quadratic extrapolation of the two or three before it
    (see run_sweep).
    Every field is checked, whether the mode reads it or not: the bounds
    finite, radius positive, eps as a solve takes it, n_nodes as make_grid
    does, and each step count an integer >= 2.
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
        for name in ("re_min", "re_max", "im_min", "im_max", "arg_min", "arg_max", "ray_arg",
                     "mod_min", "mod_max"):
            _finite(getattr(self, name), name, real=True)
        _positive(self.radius, "radius")
        eps_squared(self.eps)
        make_grid(self.n_nodes)
        for name in ("re_steps", "im_steps", "arg_steps", "mod_steps"):
            _count(getattr(self, name), name, 2)
        if self.mode == "rectangle" and (self.re_min > self.re_max or self.im_min > self.im_max):
            raise InvalidArgument("rectangle bounds must be ordered")
        if self.mode == "arg_sweep" and self.arg_min > self.arg_max:
            raise InvalidArgument("arg bounds must be ordered")
        if self.mode == "modulus_sweep" and self.mod_min > self.mod_max:
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
    InvalidArgument for an n that the parameter maps reject, or an
    envelope that is not a nonempty 1-D array of finite samples.
    """
    _check_n(n)
    v = np.asarray(envelope)
    if not (v.ndim == 1 and v.size and np.isfinite(v).all()):
        raise InvalidArgument("envelope must be a nonempty 1-D array of finite samples")
    extra = _extra_zeros(v)
    return 2 * n + extra, extra


def _extra_zeros(v: np.ndarray) -> int:
    """The envelope's zeros among cyclic samples v (finite, 1-D, nonempty),
    as count_zeros counts them."""
    # v padded by its cyclic neighbours: ext[i] = v[i - 1] for i = 0..m+1
    ext = np.concatenate((v[-1:], v, v[:1]))
    # pair_flips[i]: sign change from v[i - 1] to v[i], so flips = pair_flips[1:]
    pair_flips = (ext[:-1] * ext[1:].conjugate()).real < 0
    flips = pair_flips[1:]
    ext_abs = np.abs(ext)
    vab = ext_abs[1:-1]
    dips = (
        (vab < ext_abs[:-2]) & (vab <= ext_abs[2:])
        & (vab <= ZERO_TOL * vab.max()) & ~flips & ~pair_flips[:-1]
    )
    return int(np.count_nonzero(flips) + np.count_nonzero(dips))


def symmetry_defect(u: GridFunction) -> float:
    """sup |U(x) - U(-x)| over the (symmetric) grid."""
    vals = _instance(u, GridFunction, "u").values
    return float(np.max(np.abs(vals - vals[::-1])))


def solve(
    method: str,
    rho: complex,
    eps: complex,
    grid: Grid,
    tol: float = SOLVE_TOL,
    max_iter: int = SOLVE_MAX_ITER,
    trail: Sequence[Branch] = (),
) -> Branch:
    """Solve one parameter point with one of METHODS.

    Every method gets the same CoreParams; ``tol`` is its tol_fp.
    ``trail``, the converged branches of the points just before rho on the
    same grid, newest first and at most len(PREDICTORS) of them,
    warm-starts the solve from trail[0]: its correction w (fixed point),
    or its profile and r (shooting and finite differences).  trail[1] and
    trail[2] raise the order of that start (PREDICTORS): to the secant
    2 trail[0] - trail[1] when trail[1], trail[0] and rho are equally
    spaced on a line (see _on_line), and to the quadratic
    3 trail[0] - 3 trail[1] + trail[2] when trail[2], trail[1] and
    trail[0] are too (of w, or of the profile and r).  Elsewhere the start
    stays the copy of trail[0], or the secant.  An empty trail starts cold.
    Failures are reported in the returned Branch.
    """
    if method not in METHODS:
        raise InvalidArgument(f"unknown method {method!r}")
    _instance(grid, Grid, "grid")
    if len(_instances(trail, Branch, "trail")) > len(PREDICTORS):
        raise InvalidArgument(f"trail holds at most {len(PREDICTORS)} branches")
    for k, branch in enumerate(trail):
        if not branch.converged:
            raise InvalidArgument(f"trail[{k}] must be a converged branch")
        if branch.w.grid != grid:
            raise InvalidArgument(f"trail[{k}] must live on the solver grid")
    params = CoreParams(rho=rho, eps=eps, max_iter=max_iter, tol_fp=tol)
    w0 = seed = r0 = None
    if trail:
        rhos = [rho] + [b.params.rho for b in trail]
        order = 1
        while order < len(trail) and _on_line(rhos[order + 1], rhos[order], rhos[order - 1]):
            order += 1
        coeffs, lead = PREDICTORS[order - 1], trail[:order]
        # only what the method reads: w, or the profile and r
        if method == "fixed_point":
            w0 = _start(coeffs, [b.w for b in lead])
        else:
            seed = _start(coeffs, [b.U for b in lead])
            r0 = _extrapolate(coeffs, [b.r for b in lead])
    if method == "fixed_point":
        return fixed_point_solve(params, grid=grid, w0=w0)
    if method == "shooting":
        return shoot_solve(params, grid=grid, seed=seed, r0=r0)
    return fd_solve(params, grid=grid, seed=seed, r0=r0)


def _extrapolate(coeffs, terms):
    """sum of c t over coeffs and terms, in order, from the first term: a
    coefficient of 1 or -1 adds or subtracts its term as it is, so the
    copy (1,) returns terms[0] itself and the secant (2, -1) reads
    2 t0 - t1.  Multiplying a complex by 1 or -1, or starting from the
    int 0 as sum() does, can flip the sign of a zero."""
    total = None
    for c, t in zip(coeffs, terms):
        term = t if abs(c) == 1 else abs(c) * t
        total = term if total is None else total + term if c > 0 else total - term
    return total


def _start(coeffs, functions: list[GridFunction]) -> GridFunction:
    """The extrapolation of functions by coeffs; the copy (1,) keeps
    functions[0] itself."""
    if len(coeffs) == 1:
        return functions[0]
    return GridFunction(functions[0].grid, _extrapolate(coeffs, [f.values for f in functions]))


def _on_line(rho0: complex, rho1: complex, rho2: complex) -> bool:
    """True when rho0, rho1, rho2 are equally spaced on a line: their
    second difference is below LINE_TOL times the step rho2 - rho1."""
    return abs(rho2 - 2.0 * rho1 + rho0) <= LINE_TOL * abs(rho2 - rho1)


def record_from_branch(branch: Branch) -> SweepRecord:
    """Summarize one branch; zero census on its envelope over the n = 1 period.

    A diverged branch holds no profile to measure: its symmetry defect,
    envelope minimum and collocation residual are recorded as NaN."""
    nan = float("nan")
    defect, min_v, ode_res = nan, nan, nan
    if not _instance(branch, Branch, "branch").diverged:
        defect = symmetry_defect(branch.U)
        min_v = float(np.min(np.abs(branch.v.values)))
        ode_res = branch.ode_residual
    zero_count, extra = 0, 0
    if branch.converged:
        # that period holds the cyclic envelope on J twice, so its census is
        # twice J's; the Branch's envelope is finite
        extra = 2 * _extra_zeros(branch.v.values[:-1])
        zero_count = 2 + extra
    rho = branch.params.rho
    return SweepRecord(
        rho_re=rho.real,
        rho_im=rho.imag,
        method=branch.method,
        converged=bool(branch.converged),
        r_re=branch.r.real,
        r_im=branch.r.imag,
        iterations=branch.iterations,
        zero_count=zero_count,
        extra_zeros=extra,
        symmetry_defect=defect,
        min_abs_v=min_v,
        ode_residual=ode_res,
        accelerated_at=branch.accelerated_at,
    )


class Check(NamedTuple):
    """One check of verify; it passes when value <= bound (NaN fails)."""

    name: str
    value: float
    bound: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.bound)


@dataclass(frozen=True)
class Verification:
    """What verify found at one point: the Branches of METHODS, in that
    order; the checks, in the order they ran; (name, reason) of each check
    that did not apply; and the ExtensionError that failed cgl_residual,
    or None."""

    branches: tuple[Branch, ...]
    checks: tuple[Check, ...]
    skipped: tuple[tuple[str, str], ...]
    extension_error: ExtensionError | None

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)


def verify(rho: complex, eps: complex, grid: Grid) -> Verification:
    """Cross-check the three solvers at one point; ``cglvortex verify``
    prints the result.

    The fixed point solves first; shooting and finite differences start
    from its branch, passed as the trail (fp,), when it converged, and
    cold (from eps cos x, an empty trail) when it did not.  With h the
    grid spacing and zeta = |rho| |eps|^2, the checks in order, each with
    its bound (a check passes when value <= bound):

    - converged[m] for each method m: 0 if it converged, else 1; 0.5.
      The rest run only when all three converged.
    - diff[fp,shoot]: compare_branches, the sup distance modulo phase;
      1e-6 max(1, |eps|).
    - diff[fp,fd] and diff[shoot,fd]: the same distance;
      max(1e-6, h^2 (1 + zeta)) max(1, |eps|).
    - mean_free[m] for each method: |project_mean(w)|; 1e-10.
    - solvability[N(w)]: |int N(w) cos| of the fixed point's cubic
      forcing N(w); 1e-10 max(1, sup |N(w)|).
    - gauge[r]: |compute_r(i v, i eps) - r| for the fixed point's v and r;
      1e-12 max(1, |rho|).
    - zero_count-2: |zero count - 2| of the fixed point's record; 0.5.
    - extra_zeros: its extra zeros; 0.5.
    - symmetry_defect: its sup |U(x) - U(-x)|; 1e-8 max(1, |eps|).
    - cgl_residual: the rotating-wave residual of the fixed point's n = 1
      extension in the full equation, with (mu, nu) = mu_nu_from_rho(rho, 1);
      4 h^2 max(1, zeta) |1 + i nu| max(1, |eps|).  It is skipped, with the
      reason "rho has no physical preimage", when mu_nu_from_rho rejects
      rho, and its value is inf when extend_solution raises ExtensionError,
      which the result keeps.

    Invalid input raises InvalidArgument.
    """
    h = _instance(grid, Grid, "grid").spacing
    try:
        rho_abs = abs(_finite(rho, "rho"))
    except OverflowError:  # both parts finite, the modulus past the float range
        rho_abs = float("inf")
    zeta = rho_abs * eps_squared(eps)
    checks: list[Check] = []
    skipped: list[tuple[str, str]] = []
    extension_error = None

    # shooting and FD start from the converged fixed-point branch, which
    # lies within the discretization error of both; cold where it failed
    fp = solve("fixed_point", rho, eps, grid)
    trail = (fp,) if fp.converged else ()
    branches = (fp, solve("shooting", rho, eps, grid, trail=trail),
                solve("finite_difference", rho, eps, grid, trail=trail))
    for name, br in zip(METHODS, branches):
        checks.append(Check(f"converged[{name}]", 0.0 if br.converged else 1.0, 0.5))

    if all(b.converged for b in branches):
        _, shoot, fd = branches
        pair_tol_fd = max(1e-6, h * h * (1.0 + zeta)) * max(1.0, abs(eps))
        pair_tol_hi = 1e-6 * max(1.0, abs(eps))
        checks.append(Check("diff[fp,shoot]", compare_branches(fp, shoot), pair_tol_hi))
        checks.append(Check("diff[fp,fd]", compare_branches(fp, fd), pair_tol_fd))
        checks.append(Check("diff[shoot,fd]", compare_branches(shoot, fd), pair_tol_fd))
        for name, br in zip(METHODS, branches):
            checks.append(Check(f"mean_free[{name}]", abs(project_mean(br.w)), 1e-10))
        forcing = cubic_forcing(fp.w, rho)
        checks.append(Check("solvability[N(w)]", abs(solvability_residual(forcing)),
                            1e-10 * max(1.0, forcing.sup_norm)))
        # gauge invariance of r under a quarter-turn of eps: the turned
        # branch is i v, and compute_r must undo the phase of eps
        rot_r = compute_r(GridFunction(grid, 1j * fp.v.values), 1j * eps)
        checks.append(Check("gauge[r]", abs(rot_r - fp.r), 1e-12 * max(1.0, rho_abs)))
        rec = record_from_branch(fp)
        checks.append(Check("zero_count-2", abs(rec.zero_count - 2), 0.5))
        checks.append(Check("extra_zeros", float(rec.extra_zeros), 0.5))
        checks.append(Check("symmetry_defect", rec.symmetry_defect, 1e-8 * max(1.0, abs(eps))))
        try:
            mu, nu = mu_nu_from_rho(rho, 1)
        except InvalidArgument:
            skipped.append(("cgl_residual", "rho has no physical preimage"))
        else:
            phys = physical_from_r(fp.r, mu, nu, 1)
            bound = 4.0 * h * h * max(1.0, zeta) * abs(complex(1, nu)) * max(1.0, abs(eps))
            try:
                resid = cgl_residual(extend_solution(fp, 1), phys)
            except ExtensionError as exc:  # fails the check, names the jump
                extension_error, resid = exc, float("inf")
            checks.append(Check("cgl_residual", resid, bound))
    return Verification(branches, tuple(checks), tuple(skipped), extension_error)


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate the sweep; one record per grid point, in grid order.

    Per-point failures are reported by the solver's Branch and recorded
    (converged false), never aborting the sweep.  With ``warm_start`` each
    point passes solve a ``trail``: the converged branches of the up to
    three points just before it, newest first.  On a modulus ray or a
    rectangle row, where the points lie equally spaced on a line, the
    start is then the secant or the quadratic of the trail; after a row
    jump or on an arc it is the copy of trail[0].  A failed point clears
    the trail: the next point passes the last converged branch alone, so
    it starts from a copy, and the trail grows again from there.
    A cold fixed-point sweep hands all its points to one rolling block, a
    generator that iterates at most FP_BLOCK rows at once, each to the
    bits of its own solve, and hands their Branches over in grid order;
    each point still takes its branch from the block in its own
    fixed_point_solve call and records it before the next.
    Deterministic for a given spec.
    """
    grid = make_grid(_instance(spec, SweepSpec, "spec").n_nodes)
    records: list[SweepRecord] = []
    points = spec.points()
    if spec.method == "fixed_point" and not spec.warm_start:
        params = [CoreParams(rho=rho, eps=spec.eps, max_iter=SOLVE_MAX_ITER, tol_fp=SOLVE_TOL)
                  for rho in points]
        block = _block_rows(params, grid, width=FP_BLOCK)
        return [record_from_branch(fixed_point_solve(p, block=block)) for p in params]
    # trail: the converged branches of the points just before this one,
    # newest first; a failed point clears it, and the next point starts
    # from last, the last converged branch
    trail: list[Branch] = []
    last: list[Branch] = []
    for rho in points:
        branch = solve(spec.method, rho, spec.eps, grid, trail=trail or last)
        records.append(record_from_branch(branch))
        if spec.warm_start:
            trail = [branch, *trail[:2]] if branch.converged else []
            last = trail[:1] or last
    return records


def mirror_conjugate(records: Sequence[SweepRecord]) -> list[SweepRecord]:
    """Records for the conjugate parameters: rho -> conj rho maps branches
    to branches with r -> conj r and identical real diagnostics."""
    out = list(_instances(records, SweepRecord, "records"))
    for rec in records:
        out.append(replace(rec, rho_im=-rec.rho_im, r_im=-rec.r_im))
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
    if not _instances(records, SweepRecord, "records"):
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


# the JSON types a JSON cell of each field type may have (by exact type, so
# that true and false are not numbers), keyed like _record_from_row's parsers
_JSON_TYPES = {"float": (int, float, type(None)), "int": (int,), "bool": (bool,), "str": (str,)}


def _record_from_row(d, where: str, typed: bool) -> SweepRecord:
    """The record of one emitted row: a JSON object (``typed``), whose
    cells must have their field's JSON type, or a CSV line keyed by
    CSV_COLUMNS (its cells still text), each cell parsed by its field's
    type; a CSV cell must also be the text _csv_cell writes for the value
    it parses to.  A missing or unreadable cell raises InvalidArgument
    naming ``where`` (file and line or row) and the column."""
    if not isinstance(d, dict):
        raise InvalidArgument(f"{where}: expected an object of {len(CSV_COLUMNS)} columns")
    # keyed by the annotations' text (this module postpones annotations)
    parsers = {"float": _number, "int": int, "bool": _flag, "str": str}

    def cell(f):
        if f.name not in d:
            raise InvalidArgument(f"{where}: missing column {f.name}")
        value = d[f.name]
        if not typed or type(value) in _JSON_TYPES[f.type]:
            try:
                parsed = parsers[f.type](value)
                if typed or _csv_cell(parsed) == value:
                    return parsed
            except (TypeError, ValueError, OverflowError):  # Overflow: an int past float range
                pass
        raise InvalidArgument(f"{where}, column {f.name}: cannot read {value!r}")

    return SweepRecord(**{f.name: cell(f) for f in fields(SweepRecord) if f.name in CSV_COLUMNS})


def load_records(path, format_: str) -> list[SweepRecord]:
    """Parse a file produced by emit_results back into records.  The file
    must be UTF-8 text and a JSON file must hold an array, or
    InvalidArgument names the file; a CSV file must carry the CSV_COLUMNS
    header and one field per column in each row; every cell must read as
    its column's type (converged only true or false; in JSON a float is a
    number or null, an int an integer, a str a string; a CSV cell must be
    exactly the text emit_results writes for the value it reads as, so
    012, +2 and NaN are refused), or InvalidArgument names the line (CSV)
    or row (JSON) and column."""
    if format_ not in ("csv", "json"):
        raise InvalidArgument(f"unknown format {format_!r}")
    with open(path, "r", encoding="utf-8") as fh:
        if format_ == "json":
            try:
                rows = json.load(fh)
            except ValueError as exc:  # JSONDecodeError, or text that is not UTF-8
                raise InvalidArgument(f"{path} is not JSON: {exc}") from None
            if not isinstance(rows, list):
                raise InvalidArgument(f"{path}: expected an array of records")
            return [_record_from_row(d, f"{path} row {i}", True) for i, d in enumerate(rows)]
        try:
            header = fh.readline()
            rows = [line.rstrip("\n").split(",") for line in fh]
        except UnicodeDecodeError as exc:
            raise InvalidArgument(f"{path} is not UTF-8 text: {exc}") from None
    if tuple(header.rstrip("\n").split(",")) != CSV_COLUMNS:
        raise InvalidArgument(f"unexpected CSV header in {path}")
    records = []
    for line_no, cells in enumerate(rows, start=2):
        if len(cells) != len(CSV_COLUMNS):
            raise InvalidArgument(
                f"{path} line {line_no}: {len(cells)} fields, expected {len(CSV_COLUMNS)}"
            )
        records.append(_record_from_row(dict(zip(CSV_COLUMNS, cells)), f"{path} line {line_no}",
                                        False))
    return records
