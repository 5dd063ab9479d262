"""Uniform grids on the half-period J = [-pi/2, pi/2] and quadrature.

All integrals over J use composite Simpson on the grid nodes, which is why
grids must have an odd node count.  Running integrals (needed by the kernel
representation of the linearized solve) use a 4-point interpolatory rule of
the same order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidArgument

HALF_PI = np.pi / 2.0


@dataclass(frozen=True)
class Grid:
    """Uniform nodes spanning J = [-pi/2, pi/2], endpoints included.

    n_nodes must be odd and at least 5 so that composite Simpson applies;
    the grid builds its nodes from it, so grids with equal node counts are
    equal.  The grid owns the tables every operator on J reads: the
    composite-Simpson ``weights``, the samples ``cos`` and ``sin``, and
    the float ``cos2_mass``, the quadrature value of int cos^2 (= pi/2 up
    to roundoff).  The fixed-point map multiplies complex arrays by its
    tables, so the grid keeps them complex: ``weights_c``, ``cos_c``,
    ``cos2_c`` (cos^2) and ``cos4_c`` (cos^4), the stacked rows
    ``sin_cos_c`` = (sin, cos), and ``tan_c``, sin / cos on the interior
    nodes, where cos does not vanish, padded with 0 at the two end nodes:
    the envelope solve lays f sin and f cos out as a (2, ..., n) pair,
    each half one contiguous block, steps whole rows through ``tan_c`` and
    then overwrites both end columns.  numpy casts a float operand to
    exactly these values, so a product reads the same bits without the
    cast.  All arrays are read-only."""

    n_nodes: int
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    cos: np.ndarray = field(init=False, repr=False)
    sin: np.ndarray = field(init=False, repr=False)
    weights_c: np.ndarray = field(init=False, repr=False)
    cos_c: np.ndarray = field(init=False, repr=False)
    cos2_c: np.ndarray = field(init=False, repr=False)
    cos4_c: np.ndarray = field(init=False, repr=False)
    tan_c: np.ndarray = field(init=False, repr=False)
    sin_cos_c: np.ndarray = field(init=False, repr=False)
    cos2_mass: float = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n_nodes
        if n != int(n) or n < 5 or n % 2 == 0:
            raise InvalidArgument(f"n_nodes must be odd and >= 5, got {n}")
        object.__setattr__(self, "n_nodes", int(n))
        weights = np.ones(self.n_nodes)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        weights *= self.spacing / 3.0
        nodes = np.linspace(-HALF_PI, HALF_PI, self.n_nodes)
        cos, sin = np.cos(nodes), np.sin(nodes)
        cos2 = cos * cos
        tan = sin[1:-1] / cos[1:-1]
        sin_cos_c = np.array([sin, cos], dtype=complex)
        tables = dict(nodes=nodes, weights=weights, cos=cos, sin=sin,
                      weights_c=weights.astype(complex), cos2_c=cos2.astype(complex),
                      cos4_c=(cos2 * cos2).astype(complex), tan_c=np.pad(tan, 1).astype(complex),
                      sin_cos_c=sin_cos_c, cos_c=sin_cos_c[1])
        for name, a in tables.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "cos2_mass", float(np.dot(weights, cos2)))

    @property
    def spacing(self) -> float:
        return np.pi / (self.n_nodes - 1)

    def integrate(self, values: np.ndarray) -> complex:
        """Composite-Simpson integral over J of samples on this grid."""
        return complex(np.dot(self.weights, values))

    def __eq__(self, other):
        return isinstance(other, Grid) and self.n_nodes == other.n_nodes

    def __hash__(self):
        return hash(("Grid", self.n_nodes))


@lru_cache(maxsize=32)
def make_grid(n_nodes: int) -> Grid:
    """The uniform grid on J (one shared instance per node count)."""
    return Grid(n_nodes)


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples of a function on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != (self.grid.n_nodes,):
            raise InvalidArgument(
                f"values shape {values.shape} does not match grid "
                f"({self.grid.n_nodes} nodes)"
            )
        if not np.isfinite(values).all():
            raise InvalidArgument("values contain NaN or Inf")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_callable(cls, grid: Grid, fn) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.nodes), dtype=complex))

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


def integrate(f: GridFunction) -> complex:
    """Integral of f over J by composite Simpson (error O(h^4) for C^4 f)."""
    return f.grid.integrate(f.values)


def _row_sums(rows: np.ndarray, grid: Grid):
    """The composite-Simpson sum weights_c . row of samples (n,), or a
    (B, 1) column of the sums of each row of a block (B, n).

    A block takes one np.vecdot, a loop in C that calls BLAS zdotc per
    row, where weights_c.dot(row) calls zdotu: the two share one kernel
    and one summation order, and conjugating the real weights flips only
    the signs of zero partial products, which the sum from +0 drops.  So
    each row sums to the bits it gets alone, in any block.  A matrix
    product (matmul) would sum in another order."""
    if rows.ndim == 1:
        return grid.weights_c.dot(rows)
    return np.vecdot(grid.weights_c, rows)[:, None]


def running_integral(values: np.ndarray, h: float, out: np.ndarray | None = None,
                     work: np.ndarray | None = None) -> np.ndarray:
    """Running integrals F_i = int_{x_0}^{x_i} f along the last axis, 4th
    order, of complex rows.

    Each cell integral uses the cubic through the four nearest samples:
    interior cells the centered (-1, 13, 13, -1)/24 rule, the first and
    last cells the one-sided (9, 19, -5, 1)/24 rule.  cell[..., i] below
    holds the integral over [x_{i-1}, x_i] and cell[..., 0] = 0, so one
    cumulative sum gives F.  The interior rule runs once over all rows,
    flattened, term by term in place; the cells it fills across a row
    boundary are then overwritten by the zero and the end cells.  The
    cells are complex, and numpy divides a complex by 24 as a multiply by
    1/24, so they are multiplied; the two differ at most in the sign of a
    zero cell, which the sum from +0 drops.

    Up to two rows (one row, or the stacked pair of one envelope solve)
    sum their end cells on Python scalars, which costs fewer calls than
    numpy there.  More rows take the end cells of every row in a few numpy
    calls, adding -5 times a sample where Python subtracts 5 times it: a
    finite cell gets the same bits, up to the sign of a zero cell.  The
    weights are real, and numpy and Python multiply complex numbers by the
    same formula, so a block row's end cells are not finite at exactly the
    entries where they are not finite alone; the bits of its NaNs are not
    kept.

    The integrals go to ``out`` (complex, values' shape; default a fresh
    array), which may be values itself: they are written after every
    sample is read.  ``work`` (complex, twice values' size; default fresh)
    holds the samples times 13 and the cells, so a caller that owns both
    allocates nothing of values' size here."""
    g = np.asarray(values)
    n = g.shape[-1]
    flat = g.reshape(-1)
    g13, cell = (None, None) if work is None else work.reshape(2, -1)
    g13 = np.multiply(13, flat, g13)
    if cell is None:
        cell = np.empty(flat.shape, dtype=complex)
    mid = cell[2:-1]
    np.subtract(g13[1:-2], flat[:-3], out=mid)  # -g_{i-1} + 13 g_i, to the bit
    mid += g13[2:-1]
    mid -= flat[3:]
    mid *= 1.0 / 24.0
    rows = flat.reshape(-1, n)
    if len(rows) <= 2:
        firsts, lasts = rows[:, :4].tolist(), rows[:, -4:].tolist()
        for i, (a, b, c, d), (p, q, r, s) in zip(range(0, flat.size, n), firsts, lasts):
            cell[i] = 0.0
            cell[i + 1] = (9 * a + 19 * b - 5 * c + d) * (1.0 / 24.0)
            cell[i + n - 1] = (p - 5 * q + 19 * r + 9 * s) * (1.0 / 24.0)
    else:
        terms = rows[:, _END_NODES]
        terms *= _END_WEIGHTS
        ends = terms[:, 0::4] + terms[:, 1::4]
        ends += terms[:, 2::4]
        ends += terms[:, 3::4]
        ends *= 1.0 / 24.0
        cells = cell.reshape(-1, n)
        cells[:, 0] = 0.0
        cells[:, 1::n - 2] = ends
    # along axis -1 into out, not into cell: cumsum into its own input
    # would copy that input first
    out = cell.reshape(g.shape).cumsum(-1, None, out)
    out *= h
    return out


# the samples and weights of the first and last cells of a block's rows:
# (a, b, c, d) and (p, q, r, s) of the loop in running_integral
_END_NODES = [0, 1, 2, 3, -4, -3, -2, -1]
_END_WEIGHTS = np.array([9, 19, -5, 1, 1, -5, 19, 9], dtype=complex)

