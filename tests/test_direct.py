"""Shooting and finite-difference solvers, and branch comparison."""
import numpy as np
import pytest

from cglvortex import (
    CoreParams,
    FdState,
    GridFunction,
    InvalidArgument,
    InvalidState,
    ShootingState,
    compare_branches,
    fd_solve,
    fixed_point_solve,
    make_grid,
    ode_forcing,
    project_mean,
    shoot_solve,
)
from cglvortex.direct import _fd_branch, _fd_system, _refill_jacobian, _rk4_profile


class TestOdeForcing:
    def test_zero_envelope(self, grid257):
        v = GridFunction(grid257, np.zeros(257, dtype=complex))
        assert ode_forcing(v, 1.0 + 1.0j, 0.5).sup_norm == 0

    def test_bracket_vanishes_at_origin(self, grid257):
        # constant envelope, r = |v|^2: the bracket r - |v|^2 cos^2(0) is 0 at x = 0
        v = GridFunction(grid257, np.full(257, 0.7 + 0.2j))
        out = ode_forcing(v, 2.0, abs(0.7 + 0.2j) ** 2)
        mid = 257 // 2
        assert abs(out.values[mid]) < 1e-15

    def test_constant_envelope_reduction(self, grid257):
        # v = eps with r = (3/4)|eps|^2 forces -(rho/4)|eps|^2 eps cos 3x
        eps = 0.5 - 0.3j
        rho = 1.2 + 0.8j
        s = abs(eps) ** 2
        v = GridFunction(grid257, np.full(257, eps))
        out = ode_forcing(v, rho, 0.75 * s)
        expect = -(rho / 4) * s * eps * np.cos(3 * grid257.nodes)
        assert np.max(np.abs(out.values - expect)) < 1e-14


class TestShooting:
    def test_linear_limit_exact(self, grid257):
        eps = 0.5 + 0.1j
        b = shoot_solve(0.0, eps, grid=grid257)
        assert b.converged
        assert np.max(np.abs(b.U.values - eps * np.cos(grid257.nodes))) < 1e-12
        assert b.r == pytest.approx(0.75 * abs(eps) ** 2, abs=1e-12)

    def test_rk4_order(self):
        # halving the step cuts the terminal error ~16x on the linear problem
        errs = []
        for steps in (256, 512):
            out, u_end, v_end, _ = _rk4_profile(0.0, 0.0, 1.0, steps, 5)
            errs.append(abs(u_end))  # exact terminal value is 0 for U = cos
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    def test_agrees_with_fixed_point_small_amplitude(self, grid257):
        rho, eps = 0.8 + 0.3j, 0.3
        fp = fixed_point_solve(CoreParams(rho=rho, eps=eps), grid=grid257)
        sh = shoot_solve(rho, eps, grid=grid257)
        assert sh.converged
        assert compare_branches(fp, sh) < 1e-6

    def test_cold_start_rectangle_corner(self, grid257):
        b = shoot_solve(3.5 + 1.5j, 1.0, grid=grid257)
        assert b.converged
        assert abs(project_mean(b.w)) < 1e-10

    def test_eps_zero_rejected(self, grid257):
        with pytest.raises(InvalidArgument):
            shoot_solve(1.0, 0.0, grid=grid257)

    def test_step_count_validated(self):
        with pytest.raises(InvalidArgument):
            ShootingState(a=1.0, r=0.75, step_count=32)


def _lagged_fd_step(branch):
    """One Picard pass of the bordered FD system, built densely here:
    solve (-D2 - I) u' - lam' u = -rho |u|^2 u with the normalization row,
    lagging the cubic term and the lam column at branch.U."""
    grid = branch.grid
    n, h = grid.n_nodes, grid.spacing
    ni = n - 2
    rho, eps = branch.params.rho, branch.params.eps
    ui = branch.U.values[1:-1]
    base = (np.diag(np.full(ni, 2.0 / h**2 - 1.0))
            - np.diag(np.full(ni - 1, 1.0 / h**2), 1)
            - np.diag(np.full(ni - 1, 1.0 / h**2), -1))
    cos = np.cos(grid.nodes)
    sw = grid.weights
    mat = np.zeros((ni + 1, ni + 1), dtype=complex)
    mat[:ni, :ni] = base
    mat[:ni, ni] = -ui
    mat[ni, :ni] = sw[1:-1] * cos[1:-1] / np.dot(sw, cos**2)
    rhs = np.append(-rho * np.abs(ui) ** 2 * ui, eps)
    sol = np.linalg.solve(mat, rhs)
    u = np.zeros(n, dtype=complex)
    u[1:-1] = sol[:ni]
    return _fd_branch(branch.params, grid, u, sol[ni], 1, 0.0, True, ())


def _dense_fd_jacobian(grid, u, lam, rho):
    """Real Jacobian of the bordered FD residual in the unknowns
    (Re u, Im u, Re lam, Im lam), from
    d(-u'' - u - lam u + rho |u|^2 u) = A du + B conj(du) - u dlam
    with A = -D2 - I - lam + 2 rho |u|^2 and B = rho u^2."""
    n, h = grid.n_nodes, grid.spacing
    ni = n - 2
    lap = (np.diag(np.full(ni, 2.0 / h**2 - 1.0))
           - np.diag(np.full(ni - 1, 1.0 / h**2), 1)
           - np.diag(np.full(ni - 1, 1.0 / h**2), -1))
    a = lap + np.diag(2.0 * rho * np.abs(u) ** 2 - lam)
    b = np.diag(rho * u * u)
    cos = np.cos(grid.nodes)
    sw = grid.weights
    row = sw[1:-1] * cos[1:-1] / np.dot(sw, cos**2)
    jac = np.zeros((2 * ni + 2, 2 * ni + 2))
    jac[:ni, :ni] = a.real + b.real
    jac[:ni, ni:2 * ni] = -a.imag + b.imag
    jac[ni:2 * ni, :ni] = a.imag + b.imag
    jac[ni:2 * ni, ni:2 * ni] = a.real - b.real
    jac[:ni, 2 * ni], jac[:ni, 2 * ni + 1] = -u.real, u.imag
    jac[ni:2 * ni, 2 * ni], jac[ni:2 * ni, 2 * ni + 1] = -u.imag, -u.real
    jac[2 * ni, :ni] = row
    jac[2 * ni + 1, ni:2 * ni] = row
    return jac


class TestFiniteDifference:
    def test_linear_limit_two_passes(self, grid257):
        # the discrete cosine is an exact eigenvector of the bordered system:
        # the first Newton step moves lam from 0 to the discrete eigenvalue
        # shift (about h^2/12) and the second confirms convergence
        b = fd_solve(0.0, 1.0, state=FdState(grid=grid257))
        assert b.converged
        assert b.iterations == 2
        assert np.max(np.abs(b.U.values - np.cos(grid257.nodes))) < 1e-12
        assert b.r == pytest.approx(0.75, abs=1e-11)

    def test_agrees_with_fixed_point(self):
        grid = make_grid(1025)
        fp = fixed_point_solve(CoreParams(rho=1 + 0.5j, eps=1.0, max_iter=400), grid=grid)
        fd = fd_solve(1 + 0.5j, 1.0, state=FdState(grid=grid))
        assert fd.converged
        assert compare_branches(fp, fd) < 1e-6

    def test_second_order_against_fixed_point(self):
        rho, eps = 1 + 0.5j, 1.0
        diffs = []
        for n in (257, 513, 1025):
            grid = make_grid(n)
            fp = fixed_point_solve(CoreParams(rho=rho, eps=eps, max_iter=400), grid=grid)
            fd = fd_solve(rho, eps, state=FdState(grid=grid))
            diffs.append(compare_branches(fp, fd))
        for a, b in zip(diffs, diffs[1:]):
            assert 3.2 < a / b < 4.8  # Richardson slope ~ 2

    def test_newton_matches_picard(self, grid257):
        # the Newton solution is the fixed point of the lagged (Picard) map
        b = fd_solve(2.0 + 1.0j, 1.0, state=FdState(grid=grid257))
        assert b.converged
        assert compare_branches(b, _lagged_fd_step(b)) < 1e-9

    def test_ode_residual_second_order(self):
        rho, eps = 1.5, 0.4
        res = []
        for n in (257, 513, 1025):
            b = fd_solve(rho, eps, state=FdState(grid=make_grid(n)))
            assert b.converged
            res.append(b.ode_residual)
        for a, b in zip(res, res[1:]):
            assert 3.0 < a / b < 5.5

    def test_eps_zero_rejected(self, grid257):
        with pytest.raises(InvalidArgument):
            fd_solve(1.0, 0.0, state=FdState(grid=grid257))

    def test_stagnation_reported_not_raised(self, grid257):
        # two Newton passes from the cold seed cannot reach rho = 60; the
        # solver must return a record, not raise
        b = fd_solve(60.0, 1.0, state=FdState(grid=grid257, max_iter=2))
        assert not b.converged
        assert b.iterations == 2

    def test_increment_is_step_applied(self, grid257):
        # pass 66 at rho = -50 exhausts the six trial steps; the recorded
        # increment must be the move of the last trial, not half of it
        rho = -50.0
        b65 = fd_solve(rho, 1.0, state=FdState(grid=grid257, max_iter=65))
        b66 = fd_solve(rho, 1.0, state=FdState(grid=grid257, max_iter=66))
        assert not b66.converged and not b66.diverged
        moved = max(np.max(np.abs(b66.U.values - b65.U.values)), abs(rho * (b66.r - b65.r)))
        assert b66.increments[65] == pytest.approx(moved, rel=1e-9)

    def test_converges_far_from_linear_limit(self, grid257):
        b = fd_solve(60.0, 1.0, state=FdState(grid=grid257))
        assert b.converged

    @pytest.mark.parametrize("n_nodes", [9, 257])
    def test_jacobian_assembly(self, n_nodes):
        grid = make_grid(n_nodes)
        ni = n_nodes - 2
        rho = 3.0 + 2.0j
        rng = np.random.default_rng(n_nodes)
        system = _fd_system(n_nodes)
        jac = system.jacobian()
        pattern = None
        for _ in range(2):
            u = rng.standard_normal(ni) + 1j * rng.standard_normal(ni)
            lam = complex(rng.standard_normal(), rng.standard_normal())
            _refill_jacobian(jac, system, u, lam, rho)
            dense = _dense_fd_jacobian(grid, u, lam, rho)
            assert np.max(np.abs(jac.toarray() - dense)) <= 1e-12 * np.max(np.abs(dense))
            now = (jac.nnz, jac.indices.copy(), jac.indptr.copy())
            if pattern is not None:
                assert now[0] == pattern[0]
                assert np.array_equal(now[1], pattern[1])
                assert np.array_equal(now[2], pattern[2])
            pattern = now


class TestCompareBranches:
    def test_self_distance_zero(self, grid257):
        b = fixed_point_solve(CoreParams(rho=1.0, eps=0.5), grid=grid257)
        assert compare_branches(b, b) == 0

    def test_phase_rotation_aligned(self, grid257):
        rho = 1.2 + 0.3j
        b1 = fixed_point_solve(CoreParams(rho=rho, eps=0.5), grid=grid257)
        b2 = fixed_point_solve(CoreParams(rho=rho, eps=0.5 * np.exp(0.7j)), grid=grid257)
        assert compare_branches(b1, b2) < 1e-11

    def test_cross_grid_resampling(self):
        rho, eps = 0.9 + 0.2j, 0.6
        b1 = fixed_point_solve(CoreParams(rho=rho, eps=eps), grid=make_grid(257))
        b2 = fixed_point_solve(CoreParams(rho=rho, eps=eps), grid=make_grid(513))
        assert compare_branches(b1, b2) < 1e-8

    def test_nonconverged_rejected(self, grid257):
        good = fixed_point_solve(CoreParams(rho=1.0, eps=0.5), grid=grid257)
        bad = fixed_point_solve(CoreParams(rho=3.5, eps=1.0, max_iter=5), grid=grid257)
        assert not bad.converged
        with pytest.raises(InvalidState):
            compare_branches(good, bad)
