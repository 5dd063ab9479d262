from dataclasses import fields

import numpy as np
import pytest

from cglvortex import (GridFunction, enforce_solvability, fixed_point_solve, make_grid,
                       project_mean, reduction)


def random_trig(grid, rng, kmax=6):
    """Random complex trigonometric polynomial on the grid."""
    x = grid.nodes
    vals = np.zeros(len(x), dtype=complex)
    for k in range(1, kmax + 1):
        a = rng.standard_normal() + 1j * rng.standard_normal()
        b = rng.standard_normal() + 1j * rng.standard_normal()
        vals += a * np.cos(k * x) + b * np.sin(k * x)
    return GridFunction(grid, vals)


def random_admissible(grid, rng, kmax=6):
    """Random trig polynomial orthogonal to the cosine mode."""
    return enforce_solvability(random_trig(grid, rng, kmax))


def random_mean_free_ball(grid, rng, sigma, kmax=5):
    """Random mean-free correction with sup norm at most sigma."""
    f = random_trig(grid, rng, kmax)
    vals = f.values - complex(project_mean(f))
    w = GridFunction(grid, vals)
    scale = sigma * rng.uniform(0.2, 1.0) / max(w.sup_norm, 1e-300)
    return GridFunction(grid, vals * scale)


def solve_block(params, grid, width=None):
    """The Branch of each params from one block that iterates at most width
    rows at once (default all), taken in turn as a sweep does."""
    block = reduction._block_rows(params, grid, width=width)
    return [fixed_point_solve(p, block=block) for p in params]


def branch_bits(b):
    """Every field of a Branch, with profiles and numbers as their bytes."""
    out = []
    for f in fields(b):
        value = getattr(b, f.name)
        if isinstance(value, GridFunction):
            value = value.values.tobytes()
        elif isinstance(value, (float, complex)):
            value = np.complex128(value).tobytes()
        out.append((f.name, value))
    return out


@pytest.fixture
def grid257():
    return make_grid(257)


@pytest.fixture
def grid513():
    return make_grid(513)
