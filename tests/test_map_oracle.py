"""The fixed-point map against a plain copy of its operators, bit for bit.

The library builds the map from few numpy passes over precomputed complex
tables.  The oracle below is the map written out directly, one numpy
expression per term, as it stood before that rewrite; every element goes
through the same operations with the same operands in the same order, so
the two must agree in every bit (compared as uint64 views, which also
tells -0.0 from 0.0).
"""
import numpy as np
import pytest

from cglvortex import CoreParams, fixed_point_solve, make_grid, reduction


def _running_integral(values, h):
    g = np.asarray(values)
    n = g.shape[0]
    g13 = 13 * g
    cell = np.empty(n, dtype=np.result_type(g, 1.0))
    cell[0] = 0.0
    cell[1] = (9 * g[0] + 19 * g[1] - 5 * g[2] + g[3]) / 24.0
    mid = cell[2:-1]
    np.subtract(g13[1:-2], g[:-3], out=mid)
    mid += g13[2:-1]
    mid -= g[3:]
    mid /= 24.0
    cell[-1] = (g[-4] - 5 * g[-3] + 19 * g[-2] + 9 * g[-1]) / 24.0
    out = cell.cumsum()
    out *= h
    return out


def _remove_cos_mode(values, grid):
    cos = grid.cos
    c = np.dot(grid.weights, values * cos) / grid.cos2_mass
    return values - c * cos


def _solve_envelope(f_values, grid, v_left):
    h = grid.spacing
    f_sin = f_values * grid.sin
    A = _running_integral(f_sin, h)
    C = _running_integral(f_values * grid.cos, h)
    B = C[-1] - C[1:-1]
    v = np.empty(grid.n_nodes, dtype=complex)
    v[1:-1] = v_left + A[1:-1] + grid.tan * B
    v[0] = v_left
    v[-1] = v_left + grid.integrate(f_sin)
    return v


def _project_mean(values, grid):
    return complex(np.dot(grid.weights, values * grid.cos2) / grid.cos2_mass)


def _apply_green(f_values, grid):
    v = _solve_envelope(f_values, grid, 0.0)
    return v - _project_mean(v, grid)


def _cubic_forcing(w_values, rho, grid):
    one = 1.0 + w_values
    absq = (one * one.conjugate()).real
    bulk = (2.0 / np.pi) * grid.integrate(absq * one * grid.cos4)
    f = rho * (bulk - absq * grid.cos2) * one * grid.cos
    return _remove_cos_mode(f, grid)


def _bits(a):
    return np.atleast_1d(np.asarray(a, dtype=complex)).view(np.uint64)


KAPPAS = [2.7, -3.1, 1.9j, -0.6j, 2.2 + 0.7j, -3.4 - 1.1j, 0.0]


@pytest.mark.parametrize("n", [5, 7, 129, 257, 513])
def test_map_matches_oracle(n):
    grid = make_grid(n)
    rng = np.random.default_rng(n)
    for scale in 10.0 ** np.arange(-8, 2):
        for kappa in KAPPAS:
            w = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            # real kappa keeps a real w real: every imaginary part a signed zero
            for w0 in (w, w.real + 0j):
                f = _cubic_forcing(w0, kappa, grid)
                assert np.array_equal(_bits(reduction._cubic_forcing(w0, kappa, grid)),
                                      _bits(f))
                assert np.array_equal(_bits(reduction._apply_green(f, grid)),
                                      _bits(_apply_green(f, grid)))


@pytest.mark.parametrize("n", [7, 257])
def test_envelope_with_complex_left_value_matches_oracle(n):
    grid = make_grid(n)
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for v_left in (0.0, 0.3 - 1.2j, -0.0 + 0j):
        assert np.array_equal(
            _bits(reduction._solve_envelope(f, grid, v_left)),
            _bits(_solve_envelope(f, grid, v_left)))


RHOS = [-3.5, -2.0 + 1.5j, -0.7 + 0.1j, 0.5j, 1.0, 1.5 + 1.25j,
        2.8 + 0.6j, 3.5, 3.5 + 1.0j, -4.0 + 2.0j, 40.0]


@pytest.mark.parametrize("n", [129, 257])
def test_fixed_point_solve_matches_oracle_loop(n, monkeypatch):
    grid = make_grid(n)
    eps = [1.0] * 10 + [3.0]  # kappa = 360 at the last point: the solve diverges
    library = [fixed_point_solve(CoreParams(rho=rho, eps=e), grid=grid)
               for rho, e in zip(RHOS, eps)]
    monkeypatch.setattr(reduction, "_cubic_forcing", _cubic_forcing)
    monkeypatch.setattr(reduction, "_apply_green", _apply_green)
    oracle = [fixed_point_solve(CoreParams(rho=rho, eps=e), grid=grid)
              for rho, e in zip(RHOS, eps)]
    assert any(b.accelerated_at is not None for b in oracle)
    assert any(b.diverged for b in oracle)
    for b, o in zip(library, oracle):
        assert np.array_equal(_bits(b.w.values), _bits(o.w.values))
        assert np.array_equal(_bits(b.r), _bits(o.r))
        assert (b.iterations, b.fp_residual, b.increments, b.iterate_sups,
                b.accelerated_at) == (o.iterations, o.fp_residual, o.increments,
                                      o.iterate_sups, o.accelerated_at)
