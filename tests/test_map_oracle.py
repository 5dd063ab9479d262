"""The fixed-point map against a plain copy of its operators, bit for bit.

The library builds the map from few numpy passes over precomputed complex
tables.  The oracle below is the map written out directly, one numpy
expression per term, as it stood before that rewrite; every element goes
through the same operations with the same operands in the same order, so
the two must agree in every bit (compared as uint64 views, which also
tells -0.0 from 0.0).  The library maps a block of rows (B, n) in one
call; each row must equal the oracle's map of that row alone.  The
fixed-point loop is held the same way to a plain copy of the one-row loop
it replaced.
"""
import math

import numpy as np
import pytest

from cglvortex import (CoreParams, GridFunction, apply_green_op, fixed_point_solve, greens,
                       make_grid, reduction, sweep)
from cglvortex.reduction import (ANDERSON_DIVERGENCE, ANDERSON_PATIENCE, ANDERSON_PROGRESS,
                                 _Anderson, _branch, _diverged_branch, _stalled)
from conftest import branch_bits, solve_block


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
                t_w = _bits(_apply_green(f, grid))
                assert np.array_equal(_bits(reduction._green_pair(f, grid)[0]), t_w)
                # f is admissible: the public operator passes its check
                assert np.array_equal(_bits(apply_green_op(GridFunction(grid, f)).values), t_w)


@pytest.mark.parametrize("n", [5, 7, 129, 257, 513])
@pytest.mark.parametrize("rows", [1, 3, len(KAPPAS)])
def test_block_map_matches_oracle_row_by_row(n, rows):
    # one (B, n) call with a (B, 1) column of kappas, 0 and imaginary ones
    # included: each row is the oracle's map of that row alone
    grid = make_grid(n)
    rng = np.random.default_rng(100 * n + rows)
    scales = 10.0 ** rng.uniform(-8, 1, size=(rows, 1))
    w = scales * (rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
    w[-1] = w[-1].real  # with a real kappa, every imaginary part a signed zero
    kappa = np.array(KAPPAS[-rows:], dtype=complex)[:, None]
    f = reduction._cubic_forcing(w, kappa, grid)
    t_w = reduction._green_pair(f, grid)[0]
    assert f.shape == t_w.shape == (rows, n)
    for i in range(rows):
        oracle_f = _cubic_forcing(w[i], KAPPAS[-rows:][i], grid)
        assert np.array_equal(_bits(f[i]), _bits(oracle_f))
        assert np.array_equal(_bits(t_w[i]), _bits(_apply_green(oracle_f, grid)))


@pytest.mark.parametrize("n", [5, 129, 257])
def test_block_row_that_overflows_leaves_its_neighbours(n):
    # a row whose map overflows to inf and NaN sits between finite rows:
    # every row, the overflowing one too, keeps the bits of its own map
    grid = make_grid(n)
    rng = np.random.default_rng(n)
    w = 0.3 * (rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n)))
    w[1] *= 1e120
    kappa = np.array([[2.7], [-3.4 - 1.1j], [1.9j]])
    with np.errstate(over="ignore", invalid="ignore"):
        t_w = reduction._green_pair(reduction._cubic_forcing(w, kappa, grid), grid)[0]
        oracle = [_apply_green(_cubic_forcing(w[i], kappa[i, 0], grid), grid) for i in range(3)]
    assert not np.all(np.isfinite(t_w[1]))
    assert np.all(np.isfinite(t_w[0])) and np.all(np.isfinite(t_w[2]))
    for i in range(3):
        assert np.array_equal(_bits(t_w[i]), _bits(oracle[i]))


PAYLOAD_NAN = np.array([0x7FF8_0000_0000_1234], dtype=np.uint64).view(float)[0]


@pytest.mark.parametrize("n", [7, 129, 257])
def test_sweep_wide_block_with_non_finite_rows_matches_oracle(n):
    # a block of the sweep's width: numpy takes the bulk term and the end
    # cells of all rows at once.  Between finite rows sit a row whose bulk
    # sum alone overflows and two forcings that are not finite only in
    # their first or last four samples; every row keeps the oracle's bits
    # where they are finite and is not finite where the oracle is not, but
    # a NaN's bits may differ
    grid = make_grid(n)
    rng = np.random.default_rng(n)
    rows = sweep.FP_BLOCK
    assert rows == 16
    w = 0.3 * (rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
    # |1+w|^3 = 1.6e308 at every node: each sample is finite, but 1.6e308
    # times int cos^4 = 3 pi / 8 overflows
    w[5] = 1.6e308 ** (1 / 3)
    kappa = np.resize(np.array(KAPPAS[:-1], dtype=complex), rows)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        f = reduction._cubic_forcing(w, kappa, grid)
        oracle_f = [_cubic_forcing(w[i], kappa[i, 0], grid) for i in range(rows)]
        f[3, 3] = complex(-np.inf, 1.0)
        f[9, -4:-2] = complex(PAYLOAD_NAN, 0.5), complex(1.0, np.inf)
        t_w = reduction._green_pair(f, grid)[0]
        oracle = [_apply_green(f[i], grid) for i in range(rows)]
    assert np.isfinite(np.abs(1.0 + w[5]) ** 3).all() and not np.isfinite(oracle_f[5]).any()
    def same(a, b):
        finite = np.isfinite(a)
        return (np.array_equal(finite, np.isfinite(b))
                and np.array_equal(_bits(a[finite]), _bits(b[finite])))

    bad = {3, 5, 9}
    for i in range(rows):
        if i not in (3, 9):
            assert same(f[i], oracle_f[i])
        assert same(t_w[i], oracle[i])
        assert np.isfinite(t_w[i]).all() == (i not in bad)


@pytest.mark.parametrize("n", [7, 257])
def test_envelope_with_complex_left_value_matches_oracle(n):
    grid = make_grid(n)
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for v_left in (0.0, 0.3 - 1.2j, -0.0 + 0j):
        assert np.array_equal(
            _bits(greens._envelope_pair(f, grid, v_left)[0]),
            _bits(_solve_envelope(f, grid, v_left)))


RHOS = [-3.5, -2.0 + 1.5j, -0.7 + 0.1j, 0.5j, 1.0, 1.5 + 1.25j,
        2.8 + 0.6j, 3.5, 3.5 + 1.0j, -4.0 + 2.0j, 40.0]


def _oracle_fixed_point_solve(params, grid):
    """The one-row loop of fixed_point_solve on the oracle map, as it stood
    before blocks: plain iteration, then Anderson mixing once it stalls."""
    kappa = params.kappa

    def fp_map(w):
        return _apply_green(_cubic_forcing(w, kappa, grid), grid)

    w = np.zeros(grid.n_nodes, dtype=complex)
    increments, sups = [], []
    converged = diverged = False
    mixer = accelerated_at = None
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, params.max_iter + 1):
            t_w = fp_map(w)
            sup = float(np.abs(t_w).max())
            if not math.isfinite(sup):
                diverged = True
                fp_residual = float("inf")
                break
            f = t_w - w
            inc = float(np.abs(f).max())
            increments.append(inc)
            sups.append(sup)
            if inc <= params.tol_fp:
                w = t_w
                converged = True
                break
            if mixer is None and _stalled(increments):
                mixer, accelerated_at = _Anderson(), iterations
                at_switch = best = inc
            if mixer is None:
                w = t_w
                continue
            best = min(best, inc)
            if inc > ANDERSON_DIVERGENCE * at_switch or (
                iterations - accelerated_at >= ANDERSON_PATIENCE
                and best > ANDERSON_PROGRESS * at_switch
            ):
                diverged = True
                fp_residual = inc
                break
            w = mixer.step(f, t_w)

        history = dict(increments=tuple(increments), iterate_sups=tuple(sups),
                       accelerated_at=accelerated_at)
        if diverged:
            return _diverged_branch(params, grid, "fixed_point", iterations,
                                    fp_residual, **history)
        fp_residual = float(np.abs(fp_map(w) - w).max())
        v1 = 1.0 + w
        return _branch(params, grid, "fixed_point", v1, v1 * grid.cos, None,
                       iterations, fp_residual, converged, w=w, **history)


@pytest.mark.parametrize("n", [129, 257])
def test_fixed_point_solve_matches_oracle_loop(n):
    # one-row solves and the rows of one block against the oracle loop, in
    # every Branch field: plain and Anderson convergence, both kinds of
    # divergence, and rows capped at max_iter in either phase
    grid = make_grid(n)
    eps = [1.0] * 10 + [3.0]  # kappa = 360 at the last point: the solve diverges
    params = [CoreParams(rho=rho, eps=e) for rho, e in zip(RHOS, eps)]
    params += [CoreParams(rho=2.0 + 1.0j, eps=1.0, max_iter=5),
               CoreParams(rho=3.5, eps=1.0, max_iter={129: 25, 257: 29}[n]),
               CoreParams(rho=15 * np.exp(1.2j), eps=1.0)]
    oracle = [_oracle_fixed_point_solve(p, grid) for p in params]
    assert any(o.accelerated_at is not None and o.converged for o in oracle)
    assert any(o.fp_residual == float("inf") for o in oracle)
    assert any(o.diverged and o.accelerated_at is not None for o in oracle)
    capped = oracle[-3:-1]  # the second after its switch to Anderson mixing
    assert [o.iterations for o in capped] == [p.max_iter for p in params[-3:-1]]
    assert not any(o.converged or o.diverged for o in capped)
    assert capped[1].accelerated_at is not None
    expected = [branch_bits(o) for o in oracle]
    assert [branch_bits(fixed_point_solve(p, grid=grid)) for p in params] == expected
    assert [branch_bits(b) for b in solve_block(params, grid)] == expected
