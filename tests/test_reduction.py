"""Projection, operator bounds, the contraction solve, and the expansions."""
import numpy as np
import pytest

from cglvortex import (
    CoreParams,
    GridFunction,
    InvalidArgument,
    apply_green_op,
    asymptotic_U,
    asymptotic_r,
    compute_r,
    contraction_radius,
    cubic_forcing,
    fixed_point_solve,
    make_grid,
    project_mean,
    solvability_residual,
)
from cglvortex import reduction
from cglvortex.reduction import ANDERSON_DIVERGENCE, ANDERSON_PATIENCE, ANDERSON_PROGRESS
from cglvortex.sweep import solve
from conftest import random_admissible, random_mean_free_ball, sampled

L_BOUND = 3 * np.pi


class TestProjectMean:
    def test_constant_one(self, grid257):
        u = GridFunction(grid257, np.ones(257, dtype=complex))
        assert project_mean(u) == pytest.approx(1.0, abs=1e-14)

    def test_cos_2x(self, grid257):
        u = sampled(grid257, lambda x: np.cos(2 * x))
        assert project_mean(u) == pytest.approx(0.5, abs=1e-12)

    def test_mean_free_combination(self, grid257):
        u = sampled(grid257, lambda x: 2 * np.cos(2 * x) - 1)
        assert abs(project_mean(u)) < 1e-13


class TestApplyGreenOp:
    def test_zero(self, grid257):
        f = GridFunction(grid257, np.zeros(257, dtype=complex))
        out = apply_green_op(f)
        assert out.sup_norm == 0

    def test_cos3_closed_form(self, grid513):
        # pinned by the dense-solve oracle: response is (2 cos 2x - 1)/8
        f = sampled(grid513, lambda x: np.cos(3 * x))
        out = apply_green_op(f)
        expect = (2 * np.cos(2 * grid513.nodes) - 1) / 8
        assert np.max(np.abs(out.values - expect)) < 1e-7

    def test_expansion_consistency(self, grid513):
        # 32 * G(-(1/4) cos 3y) + (2 cos 2x - 1) vanishes
        f = sampled(grid513, lambda x: -0.25 * np.cos(3 * x))
        out = apply_green_op(f)
        check = 32 * out.values + (2 * np.cos(2 * grid513.nodes) - 1)
        assert np.max(np.abs(check)) < 1e-6

    def test_norm_bound_random_suite(self, grid257):
        rng = np.random.default_rng(42)
        for _ in range(20):
            f = random_admissible(grid257, rng)
            out = apply_green_op(f)
            assert out.sup_norm <= L_BOUND * f.sup_norm

    def test_output_mean_free(self, grid257):
        rng = np.random.default_rng(5)
        for _ in range(10):
            f = random_admissible(grid257, rng)
            out = apply_green_op(f)
            assert abs(project_mean(out)) <= 1e-10 * max(1.0, out.sup_norm)


class TestCubicForcing:
    def test_at_zero_correction(self, grid257):
        rho = 0.7 - 0.3j
        w = GridFunction(grid257, np.zeros(257, dtype=complex))
        out = cubic_forcing(w, rho)
        x = grid257.nodes
        assert np.max(np.abs(out.values + (rho / 4) * np.cos(3 * x))) < 1e-12

    def test_linear_in_rho(self, grid257):
        rng = np.random.default_rng(1)
        w = random_mean_free_ball(grid257, rng, 0.5)
        out = cubic_forcing(w, 0.0)
        assert out.sup_norm < 1e-14

    def test_bound(self, grid257):
        rng = np.random.default_rng(2)
        rho = 1.3 + 0.4j
        for sigma in (0.25, 1.0):
            bound = abs(rho) * (2 + sigma) * (1 + sigma) ** 3
            for _ in range(25):
                w = random_mean_free_ball(grid257, rng, sigma)
                out = cubic_forcing(w, rho)
                assert out.sup_norm <= bound

    def test_lipschitz(self, grid257):
        rng = np.random.default_rng(3)
        rho = 0.9 - 1.1j
        for sigma in (0.25, 1.0):
            lip = 3 * abs(rho) * (2 + sigma) * (1 + sigma) ** 2
            for _ in range(25):
                w1 = random_mean_free_ball(grid257, rng, sigma)
                w2 = random_mean_free_ball(grid257, rng, sigma)
                d_out = np.max(
                    np.abs(cubic_forcing(w1, rho).values - cubic_forcing(w2, rho).values)
                )
                d_in = np.max(np.abs(w1.values - w2.values))
                assert d_out <= lip * d_in

    def test_output_admissible(self, grid257):
        rng = np.random.default_rng(4)
        w = random_mean_free_ball(grid257, rng, 1.0)
        out = cubic_forcing(w, 2.0 + 1.0j)
        assert abs(solvability_residual(out)) <= 1e-10 * max(1.0, out.sup_norm)

    def test_rejects_meanful_input(self, grid257):
        w = GridFunction(grid257, np.full(257, 0.3 + 0j))
        with pytest.raises(InvalidArgument):
            cubic_forcing(w, 1.0)


class TestComputeR:
    def test_constant_envelope(self, grid257):
        eps = 0.3 - 0.2j
        v = GridFunction(grid257, np.full(257, eps))
        assert compute_r(v, eps) == pytest.approx(0.75 * abs(eps) ** 2, rel=1e-12)

    def test_zero_envelope(self, grid257):
        v = GridFunction(grid257, np.zeros(257, dtype=complex))
        assert compute_r(v, 1.0) == 0

    def test_eps_zero_rejected(self, grid257):
        v = GridFunction(grid257, np.zeros(257, dtype=complex))
        with pytest.raises(InvalidArgument):
            compute_r(v, 0.0)


class TestContractionRadius:
    def test_reference_value(self):
        assert contraction_radius(1.0, 1.0) == pytest.approx(1 / (108 * np.pi), rel=1e-13)

    def test_inverse_scaling_in_rho(self):
        assert contraction_radius(0.7, 2.0) == pytest.approx(
            contraction_radius(0.7, 1.0) / 2, rel=1e-13
        )

    def test_vanishes_with_sigma(self):
        assert contraction_radius(1e-6, 1.0) < 1e-6

    @pytest.mark.parametrize("sigma,rho_abs", [
        (0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
        (0.5, float("nan")), (float("nan"), 1.0), (float("inf"), 1.0), (0.5, float("inf")),
    ])
    def test_invalid(self, sigma, rho_abs):
        with pytest.raises(InvalidArgument):
            contraction_radius(sigma, rho_abs)


class TestFixedPoint:
    def test_linear_limit(self, grid257):
        eps = 0.4 + 0.1j
        branch = fixed_point_solve(CoreParams(rho=0.0, eps=eps), grid=grid257)
        assert branch.converged
        assert branch.iterations == 1
        assert branch.w.sup_norm == 0
        assert branch.r == pytest.approx(0.75 * abs(eps) ** 2, rel=1e-12)
        assert np.max(np.abs(branch.U.values - eps * np.cos(grid257.nodes))) < 1e-14

    def test_small_amplitude_matches_series(self, grid513):
        rho, eps = 1.0, 0.1
        branch = fixed_point_solve(CoreParams(rho=rho, eps=eps), grid=grid513)
        assert branch.converged
        ref = asymptotic_r(rho, eps, 1)
        s = abs(eps) ** 2
        # next term is (3/4) s * (5/1024) s^2, oracle-pinned
        assert abs(branch.r - ref) == pytest.approx(0.75 * s * (5 / 1024) * s**2, rel=0.05)

    def test_certificate_regime(self, grid257):
        sigma, rho = 1.0, 2.0 + 1.0j
        s = 0.9 * contraction_radius(sigma, abs(rho))
        params = CoreParams(rho=rho, eps=np.sqrt(s), max_iter=400)
        assert abs(params.eps) ** 2 < contraction_radius(sigma, abs(rho))
        branch = fixed_point_solve(params, grid=grid257)
        assert branch.converged
        assert branch.accelerated_at is None  # the ratios below are of plain steps
        assert all(sup <= sigma for sup in branch.iterate_sups)
        k_bound = 9 * np.pi * s * abs(rho) * (2 + sigma) * (1 + sigma) ** 2
        incs = branch.increments
        for a, b in zip(incs, incs[1:]):
            if a > 1e-13:
                assert b / a <= k_bound * 1.0000001

    def test_stall_switches_to_anderson_at_edge(self, grid257):
        # plain iteration settles into a period-two oscillation at rho = 3.5;
        # the increments grow until it saturates, so the switch comes late
        branch = fixed_point_solve(CoreParams(rho=3.5, eps=1.0, max_iter=300), grid=grid257)
        assert branch.converged and not branch.diverged
        assert branch.accelerated_at is not None
        assert branch.iterations - branch.accelerated_at < 20
        assert branch.iterations < 200
        assert branch.fp_residual < 5e-12
        assert len(branch.increments) == branch.iterations

    @pytest.mark.parametrize("im", [0.0, 0.25, 0.5, 0.75])
    def test_growth_switches_before_the_orbit_saturates(self, grid257, im):
        # at rho = 3.5 the plain increments grow by about x1.17 a step once
        # they bottom out; growth alone triggers the switch
        branch = fixed_point_solve(CoreParams(rho=complex(3.5, im), eps=1.0, max_iter=800),
                                   grid=grid257)
        assert branch.converged and branch.accelerated_at is not None
        assert branch.iterations + 1 < 40  # every map, the measuring one too

    @pytest.mark.parametrize("rho", [6.0, -6.0])
    def test_branch_found_where_increments_jump(self, rho):
        # at rho = 6 the plain ratios |dw_k| / |dw_{k-2}| go 0.81, 1.09,
        # 1.67, 2.55: growth with no step near 1.  r agrees with shooting
        # within verify's bounds at eps = 1: the grid-order one at 257 nodes
        # and 1e-6 at 513, where the quadrature error of the map is 16x smaller
        for n_nodes, bound in ((257, max(1e-6, (np.pi / 256) ** 2 * (1 + abs(rho)))),
                               (513, 1e-6)):
            grid = make_grid(n_nodes)
            fp = solve("fixed_point", rho, 1.0, grid)
            sh = solve("shooting", rho, 1.0, grid)
            assert fp.converged and sh.converged
            assert abs(fp.r - sh.r) <= bound

    @pytest.mark.parametrize("rho,eps,switched", [(-20 + 5j, 1.0, False), (-5.0, 1.3, True)])
    def test_divergence_reported_within_40_maps(self, grid257, rho, eps, switched):
        # -20+5j overflows in the plain phase; -5 switches to Anderson and
        # its residual grows past ANDERSON_DIVERGENCE times the switch value
        branch = fixed_point_solve(CoreParams(rho=rho, eps=eps, max_iter=800), grid=grid257)
        assert branch.diverged and not branch.converged
        assert (branch.accelerated_at is not None) == switched
        # a diverged solve measures no final residual: iterations are all its maps
        assert branch.iterations <= 40

    def test_anderson_without_progress_ends_diverged(self, grid257):
        # at (-5, 1.3) the accelerated residual neither blows up nor falls
        # by 1e-3: the solve ends ANDERSON_PATIENCE maps after the switch
        branch = fixed_point_solve(CoreParams(rho=-5.0, eps=1.3, max_iter=800), grid=grid257)
        assert branch.diverged
        at_switch = branch.increments[branch.accelerated_at - 1]
        accelerated = branch.increments[branch.accelerated_at - 1:]
        assert branch.iterations - branch.accelerated_at == ANDERSON_PATIENCE
        assert max(accelerated) <= ANDERSON_DIVERGENCE * at_switch
        assert min(accelerated) > ANDERSON_PROGRESS * at_switch

    @pytest.mark.parametrize("rho,max_iter", [(1.0 + 0.5j, 800), (3.5, 800), (2.0 + 1.0j, 5)])
    def test_fp_residual_is_measured_at_the_returned_w(self, grid257, rho, max_iter):
        # converged plain, converged after the switch to Anderson, and capped
        # at max_iter: fp_residual is sup|T(w) - w| at the branch's own w
        params = CoreParams(rho=rho, eps=1.0, max_iter=max_iter)
        branch = fixed_point_solve(params, grid=grid257)
        w = branch.w.values
        t_w = reduction._green_pair(reduction._cubic_forcing(w, params.kappa, grid257), grid257)[0]
        assert branch.fp_residual == float(np.abs(t_w - w).max())
        assert branch.converged == (max_iter == 800)
        assert (branch.accelerated_at is not None) == (rho == 3.5)

    def test_warm_start_shortens_iteration(self, grid257):
        params = CoreParams(rho=2.5 + 1.0j, eps=1.0, max_iter=400)
        cold = fixed_point_solve(params, grid=grid257)
        warm = fixed_point_solve(params, grid=grid257, w0=cold.w)
        assert warm.converged
        assert warm.iterations <= 2
        assert abs(warm.r - cold.r) < 1e-11

    def test_gauge_invariance(self, grid257):
        base = fixed_point_solve(CoreParams(rho=1.5 + 0.5j, eps=0.3), grid=grid257)
        theta = 1.1
        rot = fixed_point_solve(
            CoreParams(rho=1.5 + 0.5j, eps=0.3 * np.exp(1j * theta)), grid=grid257
        )
        assert abs(base.r - rot.r) < 1e-12
        assert np.max(np.abs(rot.U.values - np.exp(1j * theta) * base.U.values)) < 1e-12

    def test_ode_residual_second_order(self):
        rho, eps = 1.2 + 0.4j, 0.25
        res = []
        for n in (257, 513, 1025):
            b = fixed_point_solve(CoreParams(rho=rho, eps=eps), grid=make_grid(n))
            assert b.converged
            res.append(b.ode_residual)
        for a, b in zip(res, res[1:]):
            assert 3.0 < a / b < 5.5

    def test_mean_free_on_converged(self, grid257):
        b = fixed_point_solve(CoreParams(rho=2.0 + 1.0j, eps=0.5), grid=grid257)
        assert b.converged
        assert abs(project_mean(b.w)) <= 1e-10

    def test_branch_field_relations(self, grid257):
        eps = 0.5 - 0.2j
        b = fixed_point_solve(CoreParams(rho=1.3 + 0.2j, eps=eps), grid=grid257)
        assert np.max(np.abs(b.v.values - eps * (1 + b.w.values))) < 1e-15
        assert np.max(np.abs(b.U.values - b.v.values * np.cos(grid257.nodes))) < 1e-15
        assert b.converged and b.fp_residual <= b.params.tol_fp

    def test_certificate_property(self):
        # |eps|^2 inside the radius certifies the contraction on the ball
        assert abs(0.01) ** 2 < contraction_radius(1.0, 1.0)
        assert not abs(1.0) ** 2 < contraction_radius(1.0, 1.0)

    def test_invalid_core_params(self):
        with pytest.raises(InvalidArgument):
            CoreParams(rho=1.0, eps=0.1, tol_fp=0.0)
        with pytest.raises(InvalidArgument):
            CoreParams(rho=1.0, eps=0.1, max_iter=0)
        # every solver stops at passes == max_iter, which a cap that is not
        # an integer never reaches; a bool is no cap; numpy integers pass
        for cap in (2.5, float("inf"), 1e9 + 0.5, True):
            with pytest.raises(InvalidArgument, match="max_iter must be an integer"):
                CoreParams(rho=1.0, eps=0.1, max_iter=cap)
        assert CoreParams(rho=1.0, eps=0.1, max_iter=np.int64(5)).max_iter == 5

    def test_eps_floor(self):
        # a solve needs |eps| >= EPS_FLOOR, the cube root of the smallest
        # normal float, where |v|^2 v in compute_r is still normal; the
        # small-amplitude series take any eps, 0 among them
        floor = reduction.EPS_FLOOR
        assert floor ** 3 >= np.finfo(float).tiny and 2.81e-103 < floor < 2.82e-103
        assert CoreParams(rho=1.0, eps=1j * floor).kappa == floor ** 2
        for eps in (0.0, 0.99 * floor, 1e-105j, 1e-170):
            with pytest.raises(InvalidArgument, match="2.81e-103"):
                CoreParams(rho=1.0, eps=eps)
            assert reduction.eps_squared(eps, zero_ok=True) == abs(eps) ** 2
        assert asymptotic_r(1.0, 1e-105, 1) == pytest.approx(0.75e-210, rel=1e-14)

    @pytest.mark.parametrize("tol", [1.0, 2.0, 1e300, float("inf"), float("nan")])
    def test_tolerance_below_one_required(self, tol):
        # w corrects the unit mean mode: a tolerance of 1 or more accepts
        # whatever the first map returns
        with pytest.raises(InvalidArgument, match="tol_fp"):
            CoreParams(rho=3 + 1j, eps=1.0, tol_fp=tol)
        assert CoreParams(rho=3 + 1j, eps=1.0, tol_fp=0.999).tol_fp == 0.999

    def test_concurrent_solves_are_independent(self, grid257):
        # pure functions over immutable inputs: parallel calls must agree
        # with the sequential results bit for bit
        from concurrent.futures import ThreadPoolExecutor

        rhos = [0.5 + 0.2j, 1.0 + 0.5j, 1.5 + 0.8j, 2.0 + 1.1j]

        def solve(rho):
            return fixed_point_solve(CoreParams(rho=rho, eps=0.5), grid=grid257)

        sequential = [solve(rho) for rho in rhos]
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(solve, rhos))
        for a, b in zip(sequential, parallel):
            assert a.r == b.r
            assert np.array_equal(a.U.values, b.U.values)


class TestAsymptotics:
    def test_r_order0(self):
        assert asymptotic_r(1.0, 0.2, 0) == pytest.approx(0.03, rel=1e-13)

    def test_r_order1(self):
        assert asymptotic_r(1.0, 0.2, 1) == pytest.approx(0.0299625, rel=1e-13)

    def test_r_bad_order(self):
        with pytest.raises(InvalidArgument):
            asymptotic_r(1.0, 0.2, 2)

    @pytest.mark.parametrize("order", [-1, True, False, 1.0, 0.0, np.float64(1.0), np.True_],
                             ids=["-1", "True", "False", "1.0", "0.0", "f64-1.0", "np-True"])
    def test_bool_float_or_negative_order_rejected(self, order):
        # a bool or a float is refused even where it equals a valid order
        with pytest.raises(InvalidArgument):
            asymptotic_r(1.0, 0.2, order)
        with pytest.raises(InvalidArgument):
            asymptotic_U(1.0, 0.2, 0.0, order)

    @pytest.mark.parametrize("rho", [float("nan"), complex(1.0, float("nan")),
                                     np.complex128(complex(float("nan"), 0.0))])
    def test_nan_rho_rejected(self, rho):
        # a NaN rho would return a NaN series
        with pytest.raises(InvalidArgument):
            asymptotic_r(rho, 1.0, 1)
        with pytest.raises(InvalidArgument):
            asymptotic_U(rho, 1.0, 0.0, 1)

    @pytest.mark.parametrize("x", [float("nan"), [0.0, float("nan")], float("inf"),
                                   np.array([-np.inf, 0.0])])
    def test_x_that_is_not_finite_rejected(self, x):
        with pytest.raises(InvalidArgument):
            asymptotic_U(1.0, 0.2, x, 2)

    def test_numpy_integer_order_accepted(self):
        assert asymptotic_r(1.0, 0.2, np.int64(1)) == asymptotic_r(1.0, 0.2, 1)
        x = np.linspace(-np.pi / 2, np.pi / 2, 9)
        got = asymptotic_U(1.0, 0.2, x, np.int32(2))
        assert got.tobytes() == asymptotic_U(1.0, 0.2, x, 2).tobytes()

    def test_U_order0(self):
        x = np.linspace(-np.pi / 2, np.pi / 2, 9)
        eps = 0.3 + 0.1j
        assert np.allclose(asymptotic_U(1.0, eps, x, 0), eps * np.cos(x))

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_U_vanishes_at_half_pi(self, order):
        val = asymptotic_U(2.0 + 1.0j, 0.7, np.pi / 2, order)
        assert abs(val) < 1e-15

    def test_U_bad_order(self):
        with pytest.raises(InvalidArgument):
            asymptotic_U(1.0, 0.1, 0.0, 3)


class TestCorrectionExtraction:
    # the relative corrections phi in r = (3/4)|eps|^2 (1 + |eps|^2 phi) and
    # Phi in U = eps (1 + |eps|^2 Phi) cos x, read off converged branches
    def test_r_factor_inverts_r(self, grid257):
        b = fixed_point_solve(CoreParams(rho=1.0 + 0.5j, eps=0.3), grid=grid257)
        assert b.converged
        s = 0.09
        phi = (b.r / (0.75 * s) - 1.0) / s
        assert 0.75 * s * (1 + s * phi) == pytest.approx(b.r, rel=1e-13)

    def test_r_factor_limit_matches_series_coefficient(self):
        # at real rho the limit of phi is the printed coefficient -rho/32
        rho = 1.0
        grid = make_grid(513)
        phis = []
        for eps in (0.2, 0.1, 0.05):
            b = fixed_point_solve(CoreParams(rho=rho, eps=eps), grid=grid)
            assert b.converged
            s = eps ** 2
            phis.append(complex((b.r / (0.75 * s) - 1.0) / s))
        series = (asymptotic_r(rho, 1.0, 1) / 0.75 - 1.0)  # = -rho/32
        assert phis[-1] == pytest.approx(series, rel=2e-3)
        # smooth refinement, no jumps
        d1 = abs(phis[1] - phis[0])
        d2 = abs(phis[2] - phis[1])
        assert d2 < d1

    def test_profile_correction_zero(self, grid257):
        b = fixed_point_solve(CoreParams(rho=0.0, eps=0.5), grid=grid257)
        assert b.converged
        assert b.w.sup_norm == 0

    def test_profile_correction_leading_order(self, grid513):
        rho, eps = 0.8 - 0.6j, 0.05
        b = fixed_point_solve(CoreParams(rho=rho, eps=eps), grid=grid513)
        assert b.converged
        s = abs(eps) ** 2
        phi = GridFunction(grid513, b.w.values / s)
        lead = -(rho / 32) * (2 * np.cos(2 * grid513.nodes) - 1)
        assert np.max(np.abs(phi.values - lead)) < 3 * abs(rho) ** 2 * s
        assert abs(project_mean(phi)) <= 1e-10
