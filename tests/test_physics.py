"""Parameter maps, periodic extension, and the rotating-wave residual."""
import math
import sys

import numpy as np
import pytest

from cglvortex import (
    CoreParams,
    ExtensionError,
    GridFunction,
    InvalidArgument,
    InvalidState,
    PhysParams,
    VortexSolution,
    asymptotic_physical,
    cgl_residual,
    extend_solution,
    fixed_point_solve,
    make_grid,
    mu_nu_from_rho,
    physical_from_r,
    rho_from_physical,
)
from cglvortex.reduction import Branch
from conftest import CRITERION6_POINTS


def r_from_physical(R, omega, mu, nu, n):
    """Oracle: r = (R + i omega - (1 + i nu) n^2) / (1 + i mu), the
    definition of r that physical_from_r inverts."""
    return (complex(R, omega) - complex(1.0, nu) * n * n) / complex(1.0, mu)


class TestParameterMaps:
    def test_rho_identity_case(self):
        assert rho_from_physical(0.0, 0.0, 1) == 1.0

    def test_rho_complex(self):
        assert rho_from_physical(1.0, 0.0, 1) == pytest.approx(1 + 1j)

    def test_rho_n_scaling(self):
        assert rho_from_physical(0.0, 0.0, 2) == pytest.approx(0.25)
        # a numpy n is an integer too; its square, past int64, must not wrap
        assert rho_from_physical(0.0, 0.0, np.int64(2**32)) == pytest.approx(2.0**-64)

    def test_rho_invalid_n(self):
        with pytest.raises(InvalidArgument):
            rho_from_physical(0.0, 0.0, 0)

    @pytest.mark.parametrize("n", [0, -2, 2**512, 10**400, 1.5, 2.0, True],
                             ids=["0", "-2", "2**512", "10**400", "1.5", "2.0", "True"])
    def test_every_map_of_n_rejects_it(self, n):
        # n < 1, an n whose square is past the float range, or an n that is
        # not an integer (a bool is an Integral, but not a count)
        branch = _converged_branch(0.0, 1.0, n_nodes=9)
        for call in (lambda: rho_from_physical(0.0, 0.0, n),
                     lambda: physical_from_r(0.75, 0.0, 0.0, n),
                     lambda: mu_nu_from_rho(1.0 + 0j, n),
                     lambda: asymptotic_physical(0.1, 0.0, 0.0, n),
                     lambda: PhysParams(R=1.0, mu=0.0, nu=0.0, n=n, omega=0.0),
                     lambda: extend_solution(branch, n)):
            with pytest.raises(InvalidArgument, match="n must be >= 1"):
                call()

    def test_largest_n_with_a_finite_square(self):
        n = math.isqrt(int(sys.float_info.max))
        assert 0 < rho_from_physical(0.0, 0.0, n).real < 1e-307
        assert math.isfinite(physical_from_r(0.75, 0.0, 0.0, n).R)

    def test_parameter_maps_that_overflow_are_rejected(self):
        # nu n^2 = 1e310 overflows: rho underflows to exactly 0 and omega
        # would be inf; mu r = 1e600 overflows R and omega
        n = 10**150
        with pytest.raises(InvalidArgument, match="rho = "):
            rho_from_physical(0.0, 1e10, n)
        with pytest.raises(InvalidArgument, match="rho = "):
            asymptotic_physical(1.0, 0.0, 1e10, n)
        for r, mu, nu, n in ((0.75, 0.0, 1e10, n), (1e300 + 0j, 1e300, 0.0, 1),
                             (0.75, 0.0, -1e308, 2)):
            with pytest.raises(InvalidArgument, match="R or omega is not finite"):
                physical_from_r(r, mu, nu, n)
        # a rho of about 1e-308 is not 0, and a diverged branch's r maps to NaN
        assert 0 < abs(rho_from_physical(0.0, 1e10, 10**149)) < 1e-307
        for r in (complex("nan+nanj"), complex(math.nan, 0.0), complex(0.5, math.nan)):
            p = physical_from_r(r, 0.5, 0.3, 2)
            assert math.isnan(p.R) and math.isnan(p.omega)

    @pytest.mark.parametrize("r", [complex(math.inf, 0.0), complex(0.0, -math.inf),
                                   complex(math.inf, math.nan), math.inf],
                             ids=["inf-real", "inf-imaginary", "inf-and-nan", "inf-float"])
    def test_infinite_r_rejected(self, r):
        # no branch has an infinite r: only a diverged one's NaN maps to NaN
        with pytest.raises(InvalidArgument, match="r has an infinite part"):
            physical_from_r(r, 1.0, 1.0, 1)

    def test_physical_leading_order(self):
        s = 0.04
        p = physical_from_r(0.75 * s, 0.0, 0.0, 1)
        assert p.R == pytest.approx(1 + 0.75 * s, rel=1e-14)
        assert p.omega == 0.0

    def test_bifurcation_point(self):
        p = physical_from_r(0j, 0.3, 0.7, 2)
        assert p.R == pytest.approx(4.0)
        assert p.omega == pytest.approx(0.7 * 4.0)

    def test_round_trip(self):
        r = 0.31 - 0.12j
        mu, nu, n = 0.4, -0.2, 3
        p = physical_from_r(r, mu, nu, n)
        back = r_from_physical(p.R, p.omega, mu, nu, n)
        assert back == pytest.approx(r, abs=1e-14)

    def test_consistency_invariant(self):
        # R + i omega = (1 + i mu) r + (1 + i nu) n^2
        r = 0.2 + 0.05j
        mu, nu, n = 0.5, 0.1, 2
        p = physical_from_r(r, mu, nu, n)
        lhs = complex(p.R, p.omega)
        rhs = complex(1, mu) * r + complex(1, nu) * n * n
        assert abs(lhs - rhs) < 1e-12

    def test_dispersion_from_rho_round_trip(self):
        from cglvortex import mu_nu_from_rho

        for rho in (0.9 + 0.3j, -1.2 + 0.6j, 2.0 - 0.8j):
            mu, nu = mu_nu_from_rho(rho, 1)
            assert rho_from_physical(mu, nu, 1) == pytest.approx(rho, abs=1e-13)
        assert mu_nu_from_rho(0.25 + 0j, 2) == (0.0, 0.0)
        with pytest.raises(InvalidArgument):
            mu_nu_from_rho(2.0 + 0j, 1)


class TestAsymptoticPhysical:
    def test_R_reference(self):
        s = 0.09
        eps = np.sqrt(s)
        assert asymptotic_physical(eps, 0.0, 0.0, 1).R == pytest.approx(
            1 + 0.75 * s * (1 - s / 32), rel=1e-14
        )

    def test_R_at_zero_amplitude(self):
        assert asymptotic_physical(0.0, 0.7, -0.3, 3).R == 9.0

    def test_R_chain_consistency(self):
        # the r series mapped through the parameter map is the printed R
        # series, expanded by hand
        mu, nu, n = 0.6, -0.4, 2
        for eps in (0.1, 0.3):
            s = eps * eps
            coef = (1.0 - mu * mu + 2.0 * mu * nu) / (32.0 * n * n * (1.0 + nu * nu))
            assert asymptotic_physical(eps, mu, nu, n).R == pytest.approx(
                n * n + 0.75 * s * (1.0 - coef * s), rel=1e-13
            )

    def test_omega_chain_consistency(self):
        mu, nu, n = 0.6, -0.4, 2
        for eps in (0.1, 0.3):
            s = eps * eps
            coef = (mu * mu * nu + 2.0 * mu - nu) / (32.0 * n * n * (1.0 + nu * nu))
            assert asymptotic_physical(eps, mu, nu, n).omega == pytest.approx(
                nu * n * n + 0.75 * s * (mu - coef * s), rel=1e-13
            )

    def test_omega_vanishes_for_real_equation(self):
        assert asymptotic_physical(0.5, 0.0, 0.0, 1).omega == 0.0

    def test_omega_at_zero_amplitude(self):
        assert asymptotic_physical(0.0, 0.2, 0.8, 2).omega == pytest.approx(0.8 * 4)

    def test_omega_linear_identity_quadratic_remainder(self):
        # omega - [mu R + (nu - mu) n^2] shrinks like (R - n^2)^2
        mu, nu, n = 0.4, 0.1, 1
        errs = []
        gaps = []
        for s in (0.04, 0.01):
            series = asymptotic_physical(np.sqrt(s), mu, nu, n)
            errs.append(abs(series.omega - (mu * series.R + (nu - mu) * n * n)))
            gaps.append((series.R - n * n) ** 2)
        assert errs[0] / errs[1] == pytest.approx(gaps[0] / gaps[1], rel=0.05)

    @pytest.mark.parametrize("n", [0, -2])
    def test_invalid_mode_rejected(self, n):
        with pytest.raises(InvalidArgument):
            asymptotic_physical(0.3, 0.2, 0.1, n)


def _converged_branch(rho, eps, n_nodes=257):
    return fixed_point_solve(
        CoreParams(rho=rho, eps=eps, max_iter=400), grid=make_grid(n_nodes)
    )


class TestExtendSolution:
    def test_pure_cosine_two_zeros(self):
        b = _converged_branch(0.0, 1.0)
        sol = extend_solution(b, 1)
        assert len(sol.nodes) == 2 * 256
        assert np.allclose(sol.values, np.cos(sol.nodes), atol=1e-12)
        # the structural zeros land exactly on grid nodes
        assert np.count_nonzero(np.abs(sol.values) < 1e-12) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_node_count_scales(self, n):
        b = _converged_branch(0.5, 0.5)
        sol = extend_solution(b, n)
        assert len(sol.nodes) == 2 * n * 256
        assert sol.n == n

    def test_symmetric_branch_jump_tiny(self):
        from cglvortex import jump_increment, ode_forcing

        b = fixed_point_solve(
            CoreParams(rho=1.0 + 0.5j, eps=0.3, tol_fp=1e-13, max_iter=400),
            grid=make_grid(257),
        )
        assert b.converged
        f = ode_forcing(b.v, b.params.rho, b.r)
        assert abs(jump_increment(f)) < 1e-12

    def test_nonconverged_rejected(self):
        b = fixed_point_solve(
            CoreParams(rho=3.5, eps=1.0, max_iter=5), grid=make_grid(257)
        )
        with pytest.raises(InvalidState):
            extend_solution(b, 1)

    @pytest.mark.parametrize("n_nodes", [129, 257, 513])
    def test_criterion6_branches_pass_the_gate(self, n_nodes):
        # the jump of these symmetric branches is quadrature and solver
        # error: up to 1.25e-7 max(1, sup|f|) at 129 nodes, falling about
        # as h^5, below the gate's h^4
        for rho in CRITERION6_POINTS:
            b = _converged_branch(rho, 1.0, n_nodes)
            assert b.converged
            assert extend_solution(b, 1).n == 1

    def test_jump_gate_blocks_asymmetric_envelope(self):
        # hand-built branch whose forcing has an odd component
        grid = make_grid(257)
        x = grid.nodes
        v = GridFunction(grid, 1.0 + 0.5 * np.sin(x))
        u = GridFunction(grid, v.values * np.cos(x))
        w = GridFunction(grid, v.values - 1.0)
        fake = Branch(
            params=CoreParams(rho=1.0, eps=1.0),
            r=0.5 + 0j,
            w=w, v=v, U=u,
            iterations=1, fp_residual=0.0, ode_residual=0.0, converged=True,
        )
        with pytest.raises(ExtensionError):
            extend_solution(fake, 1)


class TestCglResidual:
    def test_zero_solution(self):
        m = 64
        x = np.arange(m) * (2 * np.pi / m)
        sol = VortexSolution(
            nodes=x, values=np.zeros(m, dtype=complex),
            envelope=np.zeros(m, dtype=complex), n=1,
        )
        p = PhysParams(R=5.0, mu=0.3, nu=0.7, n=1, omega=0.0)
        assert cgl_residual(sol, p) == 0.0

    def test_converged_branch_small_residual(self):
        mu, nu, n = 0.0, 0.0, 1
        rho = rho_from_physical(mu, nu, n)
        b = _converged_branch(rho, 0.1, n_nodes=513)
        phys = physical_from_r(b.r, mu, nu, n)
        sol = extend_solution(b, n)
        assert cgl_residual(sol, phys) <= 1e-6 * 0.1

    def test_residual_second_order(self):
        mu, nu, n = 0.4, 0.1, 1
        rho = rho_from_physical(mu, nu, n)
        res = []
        for nn in (257, 513, 1025):
            b = _converged_branch(rho, 0.2, n_nodes=nn)
            phys = physical_from_r(b.r, mu, nu, n)
            sol = extend_solution(b, n)
            res.append(cgl_residual(sol, phys))
        for a, c in zip(res, res[1:]):
            assert 3.0 < a / c < 5.5

    def test_detects_wrong_omega(self):
        b = _converged_branch(1.0, 0.5, n_nodes=257)
        phys = physical_from_r(b.r, 0.0, 0.0, 1)
        sol = extend_solution(b, 1)
        bad = PhysParams(R=phys.R, mu=0.0, nu=0.0, n=1, omega=phys.omega + 0.1)
        sup_u = float(np.max(np.abs(sol.values)))
        assert cgl_residual(sol, bad) >= 0.05 * sup_u

    def test_gauge_invariance(self):
        rho = rho_from_physical(0.0, 0.0, 1)
        theta = 0.9
        b1 = _converged_branch(rho, 0.4)
        b2 = _converged_branch(rho, 0.4 * np.exp(1j * theta))
        p1 = physical_from_r(b1.r, 0.0, 0.0, 1)
        p2 = physical_from_r(b2.r, 0.0, 0.0, 1)
        s1 = extend_solution(b1, 1)
        s2 = extend_solution(b2, 1)
        assert abs(cgl_residual(s1, p1) - cgl_residual(s2, p2)) < 1e-12

    def test_mismatched_parameters_rejected(self):
        b = _converged_branch(1.0, 0.5)
        phys = physical_from_r(b.r, 0.0, 0.0, 1)
        sol = extend_solution(b, 1)
        other = PhysParams(R=phys.R, mu=0.0, nu=0.0, n=2, omega=phys.omega)
        with pytest.raises(InvalidArgument):
            cgl_residual(sol, other)
