"""The fixed-point map against a plain copy of its operators, bit for bit.

The library builds the map from few numpy passes over precomputed complex
tables.  The oracle below is the map written out directly, one numpy
expression per term, as it stood before that rewrite; every element goes
through the same operations with the same operands in the same order, so
the two must agree in every bit (compared as uint64 views, which also
tells -0.0 from 0.0).  The library maps a block of rows (B, n) in one
call; each row must equal the oracle's map of that row alone.  The
fixed-point loop is held the same way to a plain copy of the one-row loop
it replaced, and the Branch that ends a solve to a plain copy of the
one-row builder that each solve called before a block finished its rows
together.
"""
import math
from dataclasses import fields

import numpy as np
import pytest

from cglvortex import (Branch, CoreParams, GridFunction, apply_green_op, fixed_point_solve,
                       greens, make_grid, reduction, sweep)
from cglvortex.reduction import (ANDERSON_DIVERGENCE, ANDERSON_PATIENCE, ANDERSON_PROGRESS,
                                 _Anderson, _diverged_branch, _stalled)
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


def _cos2(grid):  # cos^2, as Grid forms it
    return grid.cos * grid.cos


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
    v[1:-1] = v_left + A[1:-1] + grid.sin[1:-1] / grid.cos[1:-1] * B
    v[0] = v_left
    v[-1] = v_left + grid.integrate(f_sin)
    return v


def _project_mean(values, grid):
    return complex(np.dot(grid.weights, values * _cos2(grid)) / grid.cos2_mass)


def _apply_green(f_values, grid):
    v = _solve_envelope(f_values, grid, 0.0)
    return v - _project_mean(v, grid)


def _cubic_forcing(w_values, rho, grid):
    one = 1.0 + w_values
    absq = (one * one.conjugate()).real
    cos2 = _cos2(grid)
    bulk = (2.0 / np.pi) * grid.integrate(absq * one * (cos2 * cos2))
    f = rho * (bulk - absq * cos2) * one * grid.cos
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
    assert rows == 24
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


def _oracle_branch(params, grid, method, v1, u1, r, iterations, fp_residual, converged,
                   w=None, **extra):
    """The Branch of an eps = 1 solve that ended on v1 and u1, built from
    one row on fresh arrays, with compute_r, the ODE forcing and the
    envelope residual written out."""
    eps = params.eps
    v = GridFunction(grid, eps * v1)
    u_vals = eps * u1
    if r is None:
        vals = v.values
        absq = (vals * vals.conjugate()).real
        r = (2.0 / (eps * np.pi)) * grid.integrate(absq * vals * grid.cos4_c)
    r = complex(r)
    absq = (u_vals * u_vals.conjugate()).real
    forcing = params.rho * (r - absq) * u_vals
    h, vv = grid.spacing, v.values
    d1 = (vv[2:] - vv[:-2]) / (2 * h)
    d2 = (vv[2:] - 2 * vv[1:-1] + vv[:-2]) / (h * h)
    resid = -d2 * grid.cos[1:-1] + 2 * d1 * grid.sin[1:-1] - forcing[1:-1]
    return Branch(params=params, r=r, w=GridFunction(grid, v1 - 1.0 if w is None else w), v=v,
                  U=GridFunction(grid, u_vals), iterations=iterations, fp_residual=fp_residual,
                  ode_residual=float(np.abs(resid).max()), converged=converged, method=method,
                  **extra)


def _words(branch):
    """Every field of a Branch, each profile and number as uint64 words."""
    out = []
    for f in fields(branch):
        value = getattr(branch, f.name)
        if isinstance(value, GridFunction):
            value = value.values
        if isinstance(value, (np.ndarray, float, complex)):
            value = _bits(value).tolist()
        out.append((f.name, value))
    return out


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
        return _oracle_branch(params, grid, "fixed_point", v1, v1 * grid.cos, None,
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


EPSES = [1.0, 0.7 + 0.2j, np.complex128(-0.4 + 1.1j), 1.3, -0.9j]


@pytest.mark.parametrize("n", [7, 129, 257])
def test_finished_rows_match_the_oracle_branch(n):
    # _finish of one row (n,), with r given or taken from v, and of a block
    # of rows (B, n) in its work arrays: each row is the oracle's Branch of
    # that row alone.  eps is a float, a complex and a numpy complex, and
    # rho a float and complex
    grid = make_grid(n)
    rng = np.random.default_rng(n)
    rows = len(EPSES)
    w = 0.3 * (rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n)))
    w[-1] = w[-1].real  # every imaginary part a signed zero
    params = [CoreParams(rho=rho, eps=eps) for rho, eps in zip([2.0, -1.5 + 0.5j, 0.3j, 3.5, 1.0],
                                                              EPSES)]
    u_over_v = rng.uniform(0.5, 1.5, n)  # a profile that is not v1 cos, as shooting's
    expected = []
    for p, w_k in zip(params, w):
        v1 = 1.0 + w_k
        for r in (None, 0.4 - 0.1j):
            got = reduction._branch(p, grid, "m", reduction._finish(p, v1, v1 * u_over_v, r, grid),
                                    v1 - 1.0, 3, 1e-13, True, increments=(0.5,))
            oracle = _oracle_branch(p, grid, "m", v1, v1 * u_over_v, r, 3, 1e-13, True,
                                    increments=(0.5,))
            assert _words(got) == _words(oracle)
        expected.append(_words(_oracle_branch(p, grid, "m", v1, v1 * grid.cos, None, 3, 0.0, True,
                                              w=w_k)))
    for b in (2, rows):
        work = np.full((6, b, n), np.nan + 0j)  # none of it is read before it is written
        v1, u1 = work[:2]
        np.add(1.0, w[:b], out=v1)
        np.multiply(v1, grid.cos_c, out=u1)
        v, u, r, residuals = reduction._finish(params[:b], v1, u1, None, grid, work[2:])
        assert np.shares_memory(v, v1) and np.shares_memory(u, u1) and r.shape == (b, 1)
        got = [reduction._branch(p, grid, "m", (v[j].copy(), u[j].copy(), r[j, 0], residuals[j]),
                                 w[j], 3, 0.0, True) for j, p in enumerate(params[:b])]
        assert [_words(g) for g in got] == expected[:b]


def test_block_branches_match_oracle_solves(monkeypatch):
    # a slow first row holds the turn while the rows behind it end, so a run
    # of up to 2 width - 1 rows is finished at once, in chunks of at most
    # width; between them rows that diverge (overflow, and Anderson without
    # progress) and rows that stop at max_iter, with eps != 1.  Every Branch
    # matches the oracle solve of its row alone in every field
    grid, width = make_grid(129), 4
    eps = 0.7 + 0.2j
    scale = abs(eps) ** 2
    slow = [CoreParams(rho=3.5, eps=1.0), CoreParams(rho=3.5 / scale, eps=eps)]
    fast = [CoreParams(rho=(0.2 + 0.1j * k) / scale, eps=eps) for k in range(6)]
    fast += [CoreParams(rho=0.3 * k - 0.5j, eps=1.3) for k in range(4)]
    ending = [CoreParams(rho=-20 + 5j, eps=1.0), CoreParams(rho=15 * np.exp(1.2j), eps=1.0),
              CoreParams(rho=2.0 + 1.0j, eps=eps, max_iter=5),
              CoreParams(rho=3.5, eps=np.complex128(1.0), max_iter=25)]
    params = [slow[0], *fast[:5], ending[0], *fast[5:8], slow[1], ending[1], *fast[8:],
              ending[2], ending[3]]
    events = []
    finish = reduction._finish

    def counted(p, v1, *args):
        events.append(len(v1) if v1.ndim == 2 else 1)
        return finish(p, v1, *args)

    monkeypatch.setattr(reduction, "_finish", counted)
    block = reduction._block_rows(params, grid, width=width)
    branches = []
    for p in params:
        branches.append(fixed_point_solve(p, block=block))
        events.append("handed")
    # the first hand-over finishes a run of more than width ended rows, and
    # the overflowed row between them, in two calls
    assert events[:2] == [width, width - 2] and events[2:9] == ["handed"] * (2 * width - 1)
    assert max(e for e in events if e != "handed") == width
    oracle = [_oracle_fixed_point_solve(p, grid) for p in params]
    assert sum(o.diverged for o in oracle) == 2 and sum(o.accelerated_at is not None
                                                        for o in oracle) >= 3
    assert sum(not (o.converged or o.diverged) for o in oracle) == 2
    assert [_words(b) for b in branches] == [_words(o) for o in oracle]
