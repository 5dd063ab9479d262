"""Every exported name has a caller inside the package or a stated reason,
and refuses what is not a valid scalar or object argument with
InvalidArgument."""
import ast
import importlib
import inspect
import math
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cglvortex
from cglvortex import CoreParams, GridFunction, InvalidArgument, fixed_point_solve, make_grid

PACKAGE = Path(cglvortex.__file__).parent

# exported names that nothing in the package calls, each with its reason
REASONS = {
    "solve_linear_inhomogeneous": "bench/run.py times the envelope solve through it",
    "enforce_solvability": "bench/run.py builds admissible forcings with it",
    "integrate": "bench/run.py times the quadrature through it",
    "apply_green_op": "the paper's mean-free inverse operator (criteria 3 and 4)",
    "contraction_radius": "the paper's contraction certificate (criterion 4)",
    "load_records": "the reading side of the sweep output",
    "count_zeros": "the zero census of a VortexSolution's envelope at any n; record_from_branch "
                   "takes a Branch's n = 1 census through the same private _extra_zeros",
}

# the package API: a name joins or leaves it on purpose, not by accident
EXPORTS = {
    "Branch", "CoreParams", "ExtensionError", "Grid", "GridFunction",
    "InvalidArgument", "InvalidState", "PhysParams", "SolvabilityError",
    "SweepRecord", "SweepSpec", "ToolkitError", "VortexSolution",
    "apply_green_op", "asymptotic_U", "asymptotic_physical", "asymptotic_r",
    "cgl_residual", "compare_branches", "compute_r", "contraction_radius",
    "count_zeros", "cubic_forcing", "emit_results", "enforce_solvability",
    "envelope_residual", "extend_solution", "fd_solve", "fixed_point_solve",
    "integrate", "jump_increment", "load_records", "make_grid",
    "mirror_conjugate", "mu_nu_from_rho", "ode_forcing", "physical_from_r",
    "project_mean", "record_from_branch", "rho_from_physical", "run_sweep",
    "shoot_solve", "solvability_residual", "solve", "solve_linear_inhomogeneous",
    "symmetry_defect", "verify",
}


def _references() -> set[str]:
    """Names loaded in the package's modules, except inside the top-level
    definition of the same name and in __init__.py.  An attribute of the
    same spelling (grid.integrate) is not a use of the exported name."""
    found: set[str] = set()

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(node, ast.Module) and isinstance(
                child, (ast.FunctionDef, ast.ClassDef)
            ):
                inner = child.name
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                if child.id != owner:
                    found.add(child.id)
            walk(child, inner)

    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            walk(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_every_export_has_a_caller_or_a_reason():
    refs = _references()
    orphans = [n for n in cglvortex.__all__ if n not in refs and n not in REASONS]
    assert orphans == []


def test_reasons_name_exports():
    # every stated reason holds: the name is exported and has no caller
    assert set(REASONS) <= set(cglvortex.__all__)
    assert set(REASONS) & _references() == set()


def test_exports_are_pinned():
    assert len(cglvortex.__all__) == len(EXPORTS) == 47
    assert set(cglvortex.__all__) == EXPORTS


def test_every_tracer_target_resolves():
    # bench/tracing.py wraps each (module, attribute) it names and raises
    # when one is missing, so an import that only the tracer reads stays
    tracing = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "tracing.py"))
    assert tracing["TARGETS"]
    for module_name, attr, _ in tracing["TARGETS"]:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), (module_name, attr)


def test_import_does_not_load_scipy():
    # scipy.linalg's package init costs about 0.3 s and 28 MiB (334
    # modules); only the direct solvers' banded LAPACK pair needs scipy,
    # and they load it at their first Newton step
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cglvortex; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_direct_solves_do_not_load_scipy_linalg():
    # the banded LAPACK pair comes from scipy's compiled module file alone:
    # neither scipy.linalg's package init nor the scipy.sparse it pulls in
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from cglvortex import CoreParams, fd_solve, make_grid, shoot_solve; "
         "grid = make_grid(257); params = CoreParams(rho=2.0 + 0.5j, eps=1.0); "
         "assert fd_solve(params, grid).converged and shoot_solve(params, grid).converged; "
         "print(sorted(m for m in sys.modules "
         "if m == 'scipy.linalg' or m.startswith('scipy.sparse')))"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_verify_peak_memory_within_10_mib_of_import():
    # the direct solvers load scipy's compiled LAPACK module by itself, not
    # through scipy.linalg's package init (about 28 MiB): a fresh verify at
    # one point must peak within 10 MiB of a fresh process that only
    # imports cglvortex and builds the default grid
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    peak_line = "\nimport resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    children = {
        "import": "import cglvortex; cglvortex.make_grid(257)",
        "verify": ("import contextlib, io, cglvortex.cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    rc = cglvortex.cli.main(['verify', '--rho-re', '1.5',\n"
                   "                             '--rho-im', '1.25'])\n"
                   "assert rc == 0, rc"),
    }
    peak = {}
    for name, code in children.items():
        proc = subprocess.run([sys.executable, "-c", code + peak_line],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        peak[name] = int(proc.stdout) / 1024  # ru_maxrss is in KiB
    assert peak["verify"] - peak["import"] <= 10.0, peak


# the annotations (as text: every module postpones them) that mark a scalar
# parameter, each with the numpy scalar type that must pass where it does;
# asymptotic_U's x, positions as a scalar or an array, has none
SCALAR_TYPES = {"complex": np.complex128, "complex | None": np.complex128,
                "float": np.float64, "int": np.int64}
UNANNOTATED = {("asymptotic_U", "x"): "float"}
# what no scalar parameter accepts, and what no count accepts besides
REFUSED = (math.nan, math.inf, -math.inf, True, "1")
REFUSED_COUNT = (7.0,)
# exported callables whose scalar parameters are not checked, each with its reason
EXEMPT = {
    "Branch": "an output record: every solver builds it, a diverged one with r = NaN",
    "SweepRecord": "an output record: NaN cells mark what a diverged branch does not have",
    "VortexSolution": "an output record of extend_solution",
}
# parameters not checked, or values they accept, each with its reason
EXEMPT_PARAMS = {
    ("PhysParams", "R"): (REFUSED, "an output of physical_from_r, NaN at a diverged branch's r"),
    ("PhysParams", "omega"): (REFUSED, "an output of physical_from_r, as R"),
    ("physical_from_r", "r"): ((math.nan,), "a diverged branch's r is NaN and maps to NaN, "
                                            "which cglvortex physical prints as null"),
}


def _scalars(name):
    """(parameter, annotation) of each scalar parameter of an export."""
    try:
        params = inspect.signature(getattr(cglvortex, name)).parameters
    except ValueError:  # the exception types take a message
        return []
    return [(p, UNANNOTATED.get((name, p), a.annotation)) for p, a in params.items()
            if UNANNOTATED.get((name, p), a.annotation) in SCALAR_TYPES]


WALKED = [(name, param, kind) for name in cglvortex.__all__ if name not in EXEMPT
          for param, kind in _scalars(name)]

# the exported classes; a parameter annotated with one of them, optionally
# "| None", or with a Sequence or Iterator of one, is an object parameter
CLASSES = {name for name in cglvortex.__all__ if isinstance(getattr(cglvortex, name), type)}
OBJECT_ANNOTATION = re.compile(r"(?:(?:Sequence|Iterator)\[(\w+)\]|(\w+))( \| None)?")


def _objects(name):
    """(parameter, values it must refuse) of each object parameter of an
    export: 1, None unless None is its default, and [1] where it takes many."""
    try:
        params = inspect.signature(getattr(cglvortex, name)).parameters
    except ValueError:  # the exception types take a message
        return []
    found = []
    for param, a in params.items():
        match = OBJECT_ANNOTATION.fullmatch(str(a.annotation))
        if match and (match[1] or match[2]) in CLASSES:
            found.append((param, (1,) + ((None,) if match[3] is None else ())
                          + (([1],) if match[1] else ())))
    return found


OBJECT_WALKED = [(name, param, values) for name in cglvortex.__all__ if name not in EXEMPT
                 for param, values in _objects(name)]


@pytest.fixture(scope="module")
def valid_calls(tmp_path_factory):
    """Keyword arguments of one valid call of each walked export; an
    argument left out takes its default."""
    grid = make_grid(9)
    ones, zeros = GridFunction(grid, np.ones(9)), GridFunction(grid, np.zeros(9))
    params = CoreParams(rho=0.5, eps=1.0)
    phys = dict(mu=0.5, nu=0.25, n=1)
    branch = fixed_point_solve(params, grid)
    records = [cglvortex.record_from_branch(branch)]
    return {
        "CoreParams": dict(rho=0.5 + 0.25j, eps=1.0),
        "Grid": dict(n_nodes=9),
        "GridFunction": dict(grid=grid, values=np.ones(9)),
        "make_grid": dict(n_nodes=9),
        "PhysParams": dict(R=1.5, omega=0.5, **phys),
        "SweepSpec": dict(mode="rectangle"),
        "apply_green_op": dict(f=zeros),
        "asymptotic_U": dict(rho=0.5, eps=0.1, x=0.3, order=1),
        "asymptotic_physical": dict(eps=0.1, **phys),
        "asymptotic_r": dict(rho=0.5, eps=0.1, order=1),
        "cgl_residual": dict(sol=cglvortex.extend_solution(branch, 1),
                             p=cglvortex.PhysParams(R=1.5, omega=0.5, **phys)),
        "compare_branches": dict(b1=branch, b2=branch),
        "compute_r": dict(v=ones, eps=1.0),
        "contraction_radius": dict(sigma=1.0, rho_abs=1.0),
        "count_zeros": dict(envelope=np.ones(4), n=1),
        "cubic_forcing": dict(w=zeros, rho=0.5),
        "emit_results": dict(records=records, format_="csv",
                             path=tmp_path_factory.mktemp("emit") / "out.csv"),
        "enforce_solvability": dict(f=ones),
        "envelope_residual": dict(v_values=np.ones(9), f_values=np.zeros(9), grid=grid),
        "extend_solution": dict(branch=branch, n=1),
        "fd_solve": dict(params=params, grid=grid, r0=0.75),
        "fixed_point_solve": dict(params=params, grid=grid),
        "integrate": dict(f=ones),
        "jump_increment": dict(f=ones),
        "mirror_conjugate": dict(records=records),
        "mu_nu_from_rho": dict(rho=0.5 + 0.25j, n=1),
        "ode_forcing": dict(v=ones, rho=0.5, r=0.75),
        "physical_from_r": dict(r=0.75, **phys),
        "project_mean": dict(u=ones),
        "record_from_branch": dict(branch=branch),
        "rho_from_physical": phys,
        "run_sweep": dict(spec=cglvortex.SweepSpec(mode="rectangle", re_steps=2, im_steps=2,
                                                   n_nodes=9)),
        "shoot_solve": dict(params=params, grid=grid, r0=0.75),
        "solvability_residual": dict(f=ones),
        "solve": dict(method="fixed_point", rho=0.5, eps=1.0, grid=grid),
        "solve_linear_inhomogeneous": dict(f=zeros),
        "symmetry_defect": dict(u=ones),
        "verify": dict(rho=0.5 + 0.25j, eps=1.0, grid=grid),
    }


def test_walker_covers_every_export(valid_calls):
    walked = {name for name, _, _ in WALKED}
    assert walked | {name for name, _, _ in OBJECT_WALKED} == set(valid_calls)
    assert set(EXEMPT) <= set(cglvortex.__all__)
    assert {(name, param) for name, param, _ in WALKED} >= set(EXEMPT_PARAMS)


def _not_refused(name, call, param, values):
    """(value, what happened) for each value of param that the export's
    call did not refuse with InvalidArgument: another exception type, or a
    result (a NaN one among them)."""
    wrong = []
    for value in values:
        try:
            result = getattr(cglvortex, name)(**dict(call, **{param: value}))
        except InvalidArgument:
            continue
        except Exception as exc:  # any other type is the fault the tests report
            wrong.append((value, type(exc).__name__))
        else:
            wrong.append((value, f"returned {result!r}"[:80]))
    return wrong


@pytest.mark.parametrize("name,param,kind", WALKED, ids=[f"{n}.{p}" for n, p, _ in WALKED])
def test_scalar_argument_refused(valid_calls, name, param, kind):
    # each value no scalar takes
    accepted, _ = EXEMPT_PARAMS.get((name, param), ((), ""))
    # math.nan is itself, so `in` finds it
    values = [v for v in REFUSED + (REFUSED_COUNT if kind == "int" else ()) if v not in accepted]
    assert _not_refused(name, valid_calls[name], param, values) == []


@pytest.mark.parametrize("name,param,kind", WALKED, ids=[f"{n}.{p}" for n, p, _ in WALKED])
def test_numpy_scalar_accepted(valid_calls, name, param, kind):
    call = dict(valid_calls[name])
    default = inspect.signature(getattr(cglvortex, name)).parameters[param].default
    call[param] = SCALAR_TYPES[kind](call.get(param, default))
    getattr(cglvortex, name)(**call)


def test_numpy_rho_keeps_kappa_bits():
    # the checkers return rho and eps as they are: a cast to complex could
    # move kappa's bits where numpy's complex multiply uses FMA
    for rho, eps, words in (
        (np.complex128(2.0 + 0.5j) / 3, np.complex128(0.7 - 0.2j),
         [4600036707391256221, 4591029508136515229]),
        (np.complex128(-1.5 + 1.25j) / 7, 0.3 + 0.9j, [13819488467998968568, 4594958362668583203]),
        (np.complex128(complex(-0.0, 1e-300)), 1e150, [9223372036854775808, 4607182418800017407]),
    ):
        kappa = CoreParams(rho=rho, eps=eps).kappa
        assert type(kappa) is np.complex128
        assert np.array([kappa]).view(np.uint64).tolist() == words


@pytest.mark.parametrize("name", sorted({name for name, _, _ in OBJECT_WALKED}))
def test_object_walker_calls_are_valid(valid_calls, name):
    # so that a refusal below is the walked argument's, not another's
    getattr(cglvortex, name)(**valid_calls[name])


@pytest.mark.parametrize("name,param,values", OBJECT_WALKED,
                         ids=[f"{n}.{p}" for n, p, _ in OBJECT_WALKED])
def test_object_argument_refused(valid_calls, name, param, values):
    # refused where it enters, never an AttributeError from deeper in the call
    assert _not_refused(name, valid_calls[name], param, values) == []
