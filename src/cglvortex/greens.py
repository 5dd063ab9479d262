"""Green-kernel machinery for the linearized problem on J.

The linearized equation -U'' - U = f with U vanishing at both ends of J
is solvable exactly when the forcing is orthogonal to the cosine mode,
int_J f(y) cos y dy = 0.  Writing U(x) = v(x) cos x, the bounded envelope
v admits the split integral representation

    v(x) = v(-pi/2) + int_{-pi/2}^{x} f sin y dy
                    + (sin x / cos x) int_{x}^{pi/2} f cos y dy,

which this module evaluates on the grid.  The ratio sin x / cos x is
0/0-compensated at the interval ends; there the limit values are used
instead (left: v(-pi/2), right: v(-pi/2) + int_J f sin y dy).

The underscore operators serve the fixed-point map: they take one row of
samples (n,), whose map is call-bound, or a block of rows (B, n), whose
steps run on contiguous halves of a (2, B, n) pair.  They multiply by the
Grid's complex tables (the bits numpy's cast of the float tables would
give) and keep each element's operations and operand order, since under
FMA a * b and b * a can round differently.  A block map passes them arrays
to write into; without those they write fresh arrays.
"""
from __future__ import annotations

import numpy as np

from .errors import SolvabilityError
from .quadrature import Grid, GridFunction, _row_sums, running_integral

# default absolute solvability tolerance, scaled by sup|f|
TOL_SOLV = 1e-10
# enforce_solvability projects a second time when the first leaves less
# than this share of sup|f| (Kahan and Parlett's "twice is enough")
REPROJECT_FRACTION = 0.5


def solvability_residual(f: GridFunction) -> complex:
    """int_J f(y) cos y dy.  Zero (within tolerance) marks f as admissible."""
    return f.grid.integrate(f.values * f.grid.cos)


def jump_increment(f: GridFunction) -> complex:
    """int_J f(y) sin y dy: the envelope gain across the half-period.

    Equals v(pi/2) - v(-pi/2) for the solution of the linearized problem,
    and vanishes for even forcing."""
    return f.grid.integrate(f.values * f.grid.sin)


def _remove_cos_mode(values: np.ndarray, grid: Grid,
                     out: np.ndarray | None = None) -> np.ndarray:
    # the result goes to out (default fresh), which must not be values
    cos = grid.cos_c
    tmp = np.multiply(values, cos, out)
    c = _row_sums(tmp, grid) / grid.cos2_mass
    np.multiply(c, cos, out=tmp)
    return np.subtract(values, tmp, out=tmp)


def enforce_solvability(f: GridFunction) -> GridFunction:
    """Remove the cosine-mode content of f.

    Returns f - c cos x with c = (int f cos) / (int cos^2), computed with
    the same quadrature, so the residual of the result vanishes to
    roundoff regardless of quadrature error.  When that removes most of f,
    the leftover's residual is roundoff of f, not of the leftover, so the
    projection is applied once more; the result then passes the
    admissibility check relative to its own size.  Idempotent."""
    values = _remove_cos_mode(f.values, f.grid)
    if np.max(np.abs(values)) < REPROJECT_FRACTION * f.sup_norm:
        values = _remove_cos_mode(values, f.grid)
    return GridFunction(f.grid, values)


def _check_admissible(f: GridFunction) -> None:
    resid = solvability_residual(f)
    if abs(resid) > TOL_SOLV * max(1e-300, f.sup_norm):
        raise SolvabilityError(
            f"forcing violates the solvability condition: |int f cos| = {abs(resid):.3e}"
        )


def _envelope_pair(f_values: np.ndarray, grid: Grid, v_left: complex,
                   out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
    """Envelope samples from the split representation (no solvability check)
    of one forcing (n,) or of each row of a block (B, n), in [0] of a
    (2, ..., n) pair; [1] is scratch.  Both running integrals come from one
    call on the stacked rows f sin and f cos, and v is assembled in place
    of the first, each half of the pair one contiguous block.  The steps
    take whole rows, with tan_c 0 at the end nodes, and the two end columns
    are then overwritten by the limit values.  A block row that is not
    finite is not finite at the same entries as alone, but its NaNs need
    not keep their bits (see running_integral).

    Every step writes into the pair ``out`` (default a fresh array) and
    running_integral's ``work``: f sin and f cos are formed in out, and
    their integrals replace them there.  f_values is read first, so it may
    lie in work."""
    tables = grid.sin_cos_c if f_values.ndim == 1 else grid.sin_cos_c[:, None]
    # f first: operand order can change the bits
    f_sin_cos = np.multiply(f_values, tables, out)
    v_right = v_left + _row_sums(f_sin_cos[0], grid)
    sums = running_integral(f_sin_cos, grid.spacing, f_sin_cos, work)
    v, C = sums[0], sums[1]  # v holds int_{-pi/2}^x f sin
    # int_x^{pi/2} f cos; the end column is copied first, which costs numpy
    # less than buffering an input that overlaps its output
    np.subtract(C[..., -1:].copy(), C, out=C)
    # interior: |cos x| >= sin(h), so grid.tan_c is finite there
    np.multiply(grid.tan_c, C, out=C)
    np.add(v_left, v, out=v)
    v += C
    v[..., 0] = v_left
    v[..., -1:] = v_right
    return sums


def solve_linear_inhomogeneous(f: GridFunction, v_left: complex = 0.0) -> GridFunction:
    """Solve -U'' - U = f on J with U = v cos x and prescribed v(-pi/2).

    The forcing must satisfy the solvability condition; otherwise no
    solution with bounded envelope exists and the input is rejected.
    """
    _check_admissible(f)
    return GridFunction(f.grid, _envelope_pair(f.values, f.grid, complex(v_left))[0])


def envelope_residual(
    v_values: np.ndarray, f_values: np.ndarray, grid: Grid
) -> float:
    """Collocation residual of -U'' - U = f in envelope form.

    With U = v cos x the equation is equivalent to
    -v'' cos x + 2 v' sin x = f; v is differentiated by centered
    differences, so the cosine factor carries no discretization error and
    the residual is O(h^2) in the envelope derivatives alone.
    Returns the sup over interior nodes.
    """
    h = grid.spacing
    cos, sin = grid.cos, grid.sin
    d1 = (v_values[2:] - v_values[:-2]) / (2 * h)
    d2 = (v_values[2:] - 2 * v_values[1:-1] + v_values[:-2]) / (h * h)
    resid = -d2 * cos[1:-1] + 2 * d1 * sin[1:-1] - f_values[1:-1]
    return float(np.abs(resid).max())

