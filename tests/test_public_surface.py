"""Every exported name has a caller inside the package or a stated reason."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import cglvortex

PACKAGE = Path(cglvortex.__file__).parent

# exported names that nothing in the package calls, each with its reason
REASONS = {
    "solve_linear_inhomogeneous": "bench/run.py times the envelope solve through it",
    "enforce_solvability": "bench/run.py builds admissible forcings with it",
    "integrate": "bench/run.py times the quadrature through it",
    "apply_green_op": "the paper's mean-free inverse operator (criteria 3 and 4)",
    "contraction_radius": "the paper's contraction certificate (criterion 4)",
    "load_records": "the reading side of the sweep output",
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
    assert set(REASONS) <= set(cglvortex.__all__)


def test_exports_are_pinned():
    assert len(cglvortex.__all__) == len(EXPORTS) == 47
    assert set(cglvortex.__all__) == EXPORTS


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
