"""Command-line interface.

Commands: solve, sweep, expand, verify, physical.
Exit codes: 0 success, 1 validation error (including values that are not
finite, and array sizes too large to allocate), 2 solver non-convergence
(solve and physical), 3 I/O error.
JSON output follows RFC 8259: quantities that are not finite are null.
"""
from __future__ import annotations

import argparse
import re
import sys
from functools import lru_cache

import numpy as np

from .errors import InvalidArgument, ToolkitError
from .quadrature import make_grid
from .reduction import DEFAULT_NODES, asymptotic_r, asymptotic_U
# no longer called here; these names stay only because bench/tracing.py looks
# them up (ROADMAP item 19 removes them with the tracer's cglvortex.cli targets)
from .reduction import fixed_point_solve  # noqa: F401
from .direct import compare_branches, fd_solve, shoot_solve  # noqa: F401
from .physics import cgl_residual, extend_solution  # noqa: F401
from .physics import asymptotic_physical, physical_from_r, rho_from_physical
from .sweep import (
    SOLVE_TOL,
    SweepSpec,
    dumps_json,
    emit_results,
    mirror_conjugate,
    record_from_branch,
    run_sweep,
    solve,
    verify,
)

METHOD_ALIASES = {"fp": "fixed_point", "shoot": "shooting", "fd": "finite_difference"}
SWEEP_MODES = {"rect": "rectangle", "arg": "arg_sweep", "mod": "modulus_sweep"}
# the sweep options that only some modes read (dest: flag)
_MODE_OPTIONS = {
    "rect": {"re_min": "--re-min", "re_max": "--re-max", "im_min": "--im-min",
             "im_max": "--im-max", "re_steps": "--re-steps", "im_steps": "--im-steps"},
    "arg": {"radius": "--radius", "arg_min": "--arg-min", "arg_max": "--arg-max",
            "steps": "--steps"},
    "mod": {"ray_arg": "--arg", "mod_min": "--mod-min", "mod_max": "--mod-max",
            "steps": "--steps"},
}


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-3" as an option, not as a negative number, unless
        # told that a value in exponent form is a number too
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise _CliError(message)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"value must be finite: {text!r}")
    return value


# the largest count numpy's size checks accept for a complex array (16 bytes
# an element): an allocation up to it that is too large raises MemoryError,
# one past it ValueError (linspace already refuses float64 arrays from 64
# elements short of sys.maxsize // 8)
_MAX_SIZE = sys.maxsize // 16


def _size(text: str) -> int:
    """An int flag that sizes arrays (node, sample and step counts)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value > _MAX_SIZE:
        raise argparse.ArgumentTypeError(f"value must be at most {_MAX_SIZE}: {text!r}")
    return value


def _add_rho_eps(p):
    p.add_argument("--rho-re", type=_finite_float, default=0.0)
    p.add_argument("--rho-im", type=_finite_float, default=0.0)
    p.add_argument("--eps-re", type=_finite_float, default=1.0)
    p.add_argument("--eps-im", type=_finite_float, default=0.0)


# parsing leaves the parser as it was, so one process builds it once
@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cglvortex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one parameter point")
    _add_rho_eps(p)
    p.add_argument("--method", choices=list(METHOD_ALIASES), default="fp")
    p.add_argument("--nodes", type=_size, default=DEFAULT_NODES)
    p.add_argument("--tol", type=_finite_float, default=SOLVE_TOL)

    # a sweep option the user leaves out is not passed on: SweepSpec owns
    # every sweep default
    p = sub.add_parser("sweep", help="sweep the bifurcation parameter",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--mode", choices=list(SWEEP_MODES), required=True)
    p.add_argument("--method", choices=list(METHOD_ALIASES))
    p.add_argument("--nodes", dest="n_nodes", metavar="NODES", type=_size)
    for flag in ("--eps-re", "--eps-im", "--re-min", "--re-max", "--im-min", "--im-max",
                 "--radius", "--arg-min", "--arg-max", "--mod-min", "--mod-max"):
        p.add_argument(flag, type=_finite_float)
    p.add_argument("--arg", dest="ray_arg", type=_finite_float)
    p.add_argument("--re-steps", type=_size)
    p.add_argument("--im-steps", type=_size)
    p.add_argument("--steps", type=_size,
                   help=f"steps for arg/mod modes (defaults "
                        f"{SweepSpec.arg_steps}/{SweepSpec.mod_steps})")
    p.add_argument("--continue", dest="warm_start", action="store_true",
                   help="warm-start each point from its neighbor, or on a ray or "
                        "rectangle row from the secant or quadratic extrapolation of "
                        "the two or three before it")
    p.add_argument("--mirror", action="store_true", default=False,
                   help="append conjugate-parameter records")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("expand", help="asymptotic branch data")
    _add_rho_eps(p)
    p.add_argument("--order", type=int, choices=[0, 1, 2], default=2)
    p.add_argument("--mu", type=_finite_float, default=0.0)
    p.add_argument("--nu", type=_finite_float, default=0.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--samples", type=_size, default=33)

    p = sub.add_parser("verify", help="cross-check all three solvers")
    _add_rho_eps(p)
    p.add_argument("--nodes", type=_size, default=DEFAULT_NODES)

    p = sub.add_parser("physical", help="physical constants of one branch")
    p.add_argument("--mu", type=_finite_float, required=True)
    p.add_argument("--nu", type=_finite_float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps-re", type=_finite_float, default=1.0)
    p.add_argument("--eps-im", type=_finite_float, default=0.0)
    p.add_argument("--nodes", type=_size, default=DEFAULT_NODES)
    return parser


def _branch_summary(branch):
    rec = record_from_branch(branch)
    grid = branch.grid
    d = rec.as_dict()
    d.update(
        eps_re=branch.params.eps.real,
        eps_im=branch.params.eps.imag,
        fp_residual=branch.fp_residual,
        grid={
            "n_nodes": grid.n_nodes,
            "x_min": float(grid.nodes[0]),
            "x_max": float(grid.nodes[-1]),
            "spacing": grid.spacing,
        },
        U_re=branch.U.values.real.tolist(),
        U_im=branch.U.values.imag.tolist(),
    )
    return d


def _cmd_solve(args) -> int:
    rho = complex(args.rho_re, args.rho_im)
    eps = complex(args.eps_re, args.eps_im)
    grid = make_grid(args.nodes)
    method = METHOD_ALIASES[args.method]
    branch = solve(method, rho, eps, grid, tol=args.tol)
    print(dumps_json(_branch_summary(branch)))
    return 0 if branch.converged else 2


def _cmd_sweep(args) -> int:
    """Run the sweep of the options the user set; SweepSpec fills in the rest.
    An option that the chosen mode does not read is an error."""
    opts = {key: value for key, value in vars(args).items()
            if key not in ("command", "mode", "out", "format", "mirror")}
    for options in _MODE_OPTIONS.values():
        for dest, flag in options.items():
            if dest in opts and dest not in _MODE_OPTIONS[args.mode]:
                raise InvalidArgument(f"{flag} does not apply to --mode {args.mode}")
    if "method" in opts:
        opts["method"] = METHOD_ALIASES[opts["method"]]
    if "eps_re" in opts or "eps_im" in opts:
        opts["eps"] = complex(opts.pop("eps_re", SweepSpec.eps.real),
                              opts.pop("eps_im", SweepSpec.eps.imag))
    if "steps" in opts:
        opts[f"{args.mode}_steps"] = opts.pop("steps")  # arg_steps or mod_steps
    spec = SweepSpec(mode=SWEEP_MODES[args.mode], **opts)
    records = run_sweep(spec)
    if args.mirror:
        records = mirror_conjugate(records)
    emit_results(records, args.format, args.out)
    conv = sum(1 for r in records if r.converged)
    accelerated = sum(1 for r in records if r.accelerated_at is not None)
    print(f"wrote {len(records)} records to {args.out} "
          f"({conv} converged, {accelerated} accelerated)")
    return 0


def _cmd_expand(args) -> int:
    rho = complex(args.rho_re, args.rho_im)
    eps = complex(args.eps_re, args.eps_im)
    if args.samples < 1:
        raise InvalidArgument("--samples must be >= 1")
    r = asymptotic_r(rho, eps, min(args.order, 1))
    xs = np.linspace(-np.pi / 2, np.pi / 2, args.samples)
    u = asymptotic_U(rho, eps, xs, args.order)
    series = asymptotic_physical(eps, args.mu, args.nu, args.n)
    out = {
        "order": args.order,
        "r_re": r.real,
        "r_im": r.imag,
        "R": series.R,
        "omega": series.omega,
        "U": {"x": xs.tolist(), "re": u.real.tolist(), "im": u.imag.tolist()},
    }
    print(dumps_json(out))
    return 0


def _cmd_verify(args) -> int:
    result = verify(complex(args.rho_re, args.rho_im), complex(args.eps_re, args.eps_im),
                    make_grid(args.nodes))
    for name, reason in result.skipped:
        print(f"SKIP  {name:24s}({reason})")
    if result.extension_error is not None:
        print(f"verify: {result.extension_error}", file=sys.stderr)
    for check in result.checks:
        print(f"{'PASS' if check.passed else 'FAIL'}  {check.name:24s} {check.value:.3e}  "
              f"(bound {check.bound:.3e})")
    print("verify:", "PASS" if result.passed else "FAIL")
    return 0 if result.passed else 1


def _cmd_physical(args) -> int:
    eps = complex(args.eps_re, args.eps_im)
    rho = rho_from_physical(args.mu, args.nu, args.n)
    grid = make_grid(args.nodes)
    branch = solve("fixed_point", rho, eps, grid)
    phys = physical_from_r(branch.r, args.mu, args.nu, args.n)
    series = asymptotic_physical(eps, args.mu, args.nu, args.n)
    out = {
        "rho_re": rho.real,
        "rho_im": rho.imag,
        "converged": bool(branch.converged),
        "r_re": branch.r.real,
        "r_im": branch.r.imag,
        "R": phys.R,
        "omega": phys.omega,
        "R_asymptotic": series.R,
        "omega_asymptotic": series.omega,
    }
    print(dumps_json(out))
    return 0 if branch.converged else 2


COMMANDS = {"solve": _cmd_solve, "sweep": _cmd_sweep, "expand": _cmd_expand,
            "verify": _cmd_verify, "physical": _cmd_physical}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return COMMANDS[args.command](args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size under _MAX_SIZE that still cannot be allocated
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3

