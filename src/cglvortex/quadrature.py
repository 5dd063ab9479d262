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

    The grid owns the tables every operator on J reads: the
    composite-Simpson ``weights`` and the samples ``cos``, ``sin``,
    ``cos2`` (cos^2) and ``cos4`` (cos^4).  All arrays are read-only."""

    n_nodes: int
    nodes: np.ndarray
    weights: np.ndarray = field(init=False, repr=False)
    cos: np.ndarray = field(init=False, repr=False)
    sin: np.ndarray = field(init=False, repr=False)
    cos2: np.ndarray = field(init=False, repr=False)
    cos4: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        weights = np.ones(self.n_nodes)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        weights *= self.spacing / 3.0
        cos = np.cos(self.nodes)
        cos2 = cos * cos
        tables = dict(weights=weights, cos=cos, sin=np.sin(self.nodes),
                      cos2=cos2, cos4=cos2 * cos2)
        for name, a in tables.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        self.nodes.setflags(write=False)

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
    """The uniform grid on J (one shared instance per node count).
    n_nodes must be odd and at least 5 so that composite Simpson applies."""
    if n_nodes < 5 or n_nodes % 2 == 0:
        raise InvalidArgument(f"n_nodes must be odd and >= 5, got {n_nodes}")
    nodes = np.linspace(-HALF_PI, HALF_PI, n_nodes)
    return Grid(n_nodes=int(n_nodes), nodes=nodes)


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
        if not np.all(np.isfinite(values)):
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


def running_integral(values: np.ndarray, h: float) -> np.ndarray:
    """Running integral F_i = int_{x_0}^{x_i} f, 4th order.

    Each cell integral uses the cubic through the four nearest samples:
    interior cells the centered (-1, 13, 13, -1)/24 rule, the first and
    last cells the one-sided (9, 19, -5, 1)/24 rule.
    """
    g = np.asarray(values)
    n = g.shape[0]
    cell = np.empty(n - 1, dtype=g.dtype)
    cell[0] = (9 * g[0] + 19 * g[1] - 5 * g[2] + g[3]) / 24.0
    cell[1:-1] = (-g[:-3] + 13 * g[1:-2] + 13 * g[2:-1] - g[3:]) / 24.0
    cell[-1] = (g[-4] - 5 * g[-3] + 19 * g[-2] + 9 * g[-1]) / 24.0
    out = np.empty(n, dtype=g.dtype)
    out[0] = 0.0
    np.cumsum(cell, out=out[1:])
    out *= h
    return out
