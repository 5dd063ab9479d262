"""Kernel, solvability, and the envelope representation of the linear solve."""
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from cglvortex import (
    GridFunction,
    InvalidArgument,
    SolvabilityError,
    enforce_solvability,
    integrate,
    jump_increment,
    make_grid,
    solvability_residual,
    solve_linear_inhomogeneous,
)
from cglvortex.greens import envelope_residual
from conftest import sampled


def green_kernel(x, y):
    """Oracle: the two-branch kernel of -U'' - U on J with U vanishing at
    both ends, cos x sin y for y <= x and sin x cos y for y >= x.  Both
    branches agree on the diagonal and |g| <= 1 on J x J.  Accepts scalars
    or arrays (broadcast)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slack = 1e-12
    if np.any(np.abs(x) > np.pi / 2 + slack) or np.any(np.abs(y) > np.pi / 2 + slack):
        raise InvalidArgument("green_kernel arguments must lie in [-pi/2, pi/2]")
    val = np.where(y <= x, np.cos(x) * np.sin(y), np.sin(x) * np.cos(y))
    if val.ndim == 0:
        return float(val)
    return val


def dense_dirichlet_solve(f_of_x, n):
    """Independent oracle: dense centered-difference solve of
    -U'' - U = f with U(+-pi/2) = 0."""
    x = np.linspace(-np.pi / 2, np.pi / 2, n)
    h = x[1] - x[0]
    ni = n - 2
    A = sp.diags(
        [np.full(ni - 1, -1 / h**2), np.full(ni, 2 / h**2 - 1.0), np.full(ni - 1, -1 / h**2)],
        [-1, 0, 1],
        format="csc",
    )
    U = np.zeros(n, dtype=complex)
    U[1:-1] = spsolve(A, f_of_x(x[1:-1]).astype(complex))
    return x, U


class TestGreenKernel:
    def test_branch_value(self):
        assert green_kernel(np.pi / 3, np.pi / 6) == pytest.approx(0.25, abs=1e-15)

    def test_diagonal_continuity(self):
        for x in np.linspace(-np.pi / 2, np.pi / 2, 41):
            lo = green_kernel(x, x - 1e-14) if x - 1e-14 >= -np.pi / 2 else None
            hi = green_kernel(x, x + 1e-14) if x + 1e-14 <= np.pi / 2 else None
            both = [v for v in (lo, hi) if v is not None]
            for v in both:
                assert v == pytest.approx(np.cos(x) * np.sin(x), abs=1e-12)

    def test_zero_row(self):
        ys = np.linspace(0.0, np.pi / 2, 20)
        assert np.allclose(green_kernel(0.0, ys), 0.0)

    def test_bound(self):
        xs = np.linspace(-np.pi / 2, np.pi / 2, 101)
        vals = green_kernel(xs[:, None], xs[None, :])
        assert np.max(np.abs(vals)) <= 1.0 + 1e-15

    def test_outside_domain_rejected(self):
        with pytest.raises(InvalidArgument):
            green_kernel(2.0, 0.0)

    def test_kernel_integral_is_the_linear_solve(self):
        # with v(-pi/2) = 0 the split-integral solve is U(x) = int_J g(x, y) f(y) dy;
        # the oracle integrates each smooth branch of g by 40-point Gauss-Legendre
        def f_of(y):
            return np.cos(3 * y) + 1j * np.sin(2 * y)  # both orthogonal to cos y

        g = make_grid(257)
        U = solve_linear_inhomogeneous(sampled(g, f_of), 0.0).values * g.cos
        t, wt = np.polynomial.legendre.leggauss(40)

        def piece(x, a, b):
            y = 0.5 * (b - a) * t + 0.5 * (b + a)
            return 0.5 * (b - a) * np.dot(wt, green_kernel(x, y) * f_of(y))

        oracle = np.array([piece(x, -np.pi / 2, x) + piece(x, x, np.pi / 2) for x in g.nodes])
        # the running integrals are fourth order: 1.9e-8 here, 3.1e-7 at 129 nodes
        assert np.max(np.abs(U - oracle)) < 1e-7


class TestSolvability:
    def test_cos_gives_half_pi(self):
        g = make_grid(257)
        f = sampled(g, np.cos)
        assert solvability_residual(f) == pytest.approx(np.pi / 2, abs=1e-10)

    def test_cos3_orthogonal(self):
        g = make_grid(257)
        f = sampled(g, lambda x: np.cos(3 * x))
        assert abs(solvability_residual(f)) < 1e-12

    def test_zero(self):
        g = make_grid(257)
        f = GridFunction(g, np.zeros(257, dtype=complex))
        assert solvability_residual(f) == 0


class TestEnforceSolvability:
    def test_cos_maps_to_zero(self):
        g = make_grid(257)
        f = sampled(g, np.cos)
        out = enforce_solvability(f)
        assert out.sup_norm < 1e-14

    def test_admissible_unchanged(self):
        g = make_grid(257)
        f = sampled(g, lambda x: np.cos(3 * x))
        out = enforce_solvability(f)
        assert np.max(np.abs(out.values - f.values)) < 1e-13

    def test_mixed(self):
        g = make_grid(257)
        f = sampled(g, lambda x: np.cos(x) + np.cos(3 * x))
        out = enforce_solvability(f)
        assert np.max(np.abs(out.values - np.cos(3 * g.nodes))) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        g = make_grid(257)
        coef = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f = GridFunction(
            g,
            sum(c * np.cos((k + 1) * g.nodes) for k, c in enumerate(coef[:4]))
            + sum(c * np.sin((k + 1) * g.nodes) for k, c in enumerate(coef[4:])),
        )
        once = enforce_solvability(f)
        twice = enforce_solvability(once)
        assert np.max(np.abs(twice.values - once.values)) <= 1e-14 * max(1.0, f.sup_norm)
        assert abs(solvability_residual(once)) <= 1e-14 * f.sup_norm


class TestJumpIncrement:
    def test_even_forcing(self):
        g = make_grid(257)
        f = sampled(g, lambda x: np.cos(3 * x))
        assert abs(jump_increment(f)) < 1e-12

    def test_sin(self):
        g = make_grid(257)
        f = sampled(g, np.sin)
        assert jump_increment(f) == pytest.approx(np.pi / 2, abs=1e-10)

    def test_zero(self):
        g = make_grid(257)
        assert jump_increment(GridFunction(g, np.zeros(257, dtype=complex))) == 0


class TestLinearSolve:
    def test_homogeneous(self):
        g = make_grid(257)
        f = GridFunction(g, np.zeros(257, dtype=complex))
        v = solve_linear_inhomogeneous(f, 1.0)
        assert np.max(np.abs(v.values - 1.0)) < 1e-14

    def test_cos3_closed_form(self):
        # oracle: dense Dirichlet solve pinned the envelope to cos^2 x / 2
        g = make_grid(513)
        f = sampled(g, lambda x: np.cos(3 * x))
        v = solve_linear_inhomogeneous(f, 0.0)
        assert np.max(np.abs(v.values - np.cos(g.nodes) ** 2 / 2)) < 1e-7

    def test_against_dense_oracle(self):
        n = 513
        g = make_grid(n)
        f = sampled(g, lambda x: np.cos(3 * x))
        v = solve_linear_inhomogeneous(f, 0.0)
        x, U_fd = dense_dirichlet_solve(lambda t: np.cos(3 * t), n)
        # remove the cosine-mode ambiguity of the oracle, then compare profiles
        w = np.ones(n); w[1:-1:2] = 4; w[2:-1:2] = 2; w *= (x[1] - x[0]) / 3
        U = v.values * np.cos(x)
        proj = lambda u: u - (np.dot(w, u * np.cos(x)) / np.dot(w, np.cos(x) ** 2)) * np.cos(x)
        assert np.max(np.abs(proj(U) - proj(U_fd))) < 1e-4  # FD oracle is O(h^2)

    def test_endpoint_identity(self):
        # the envelope gain across J equals int f sin exactly by construction
        rng = np.random.default_rng(3)
        g = make_grid(257)
        for _ in range(5):
            coef = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            vals = sum(c * np.cos((k + 1) * g.nodes) for k, c in enumerate(coef[:3]))
            vals = vals + sum(c * np.sin((k + 1) * g.nodes) for k, c in enumerate(coef[3:]))
            f = enforce_solvability(GridFunction(g, vals))
            v = solve_linear_inhomogeneous(f, 0.25 + 0.5j)
            assert v.values[-1] - v.values[0] == pytest.approx(jump_increment(f), abs=1e-15)

    def test_rejects_inadmissible(self):
        g = make_grid(257)
        f = sampled(g, np.cos)
        with pytest.raises(SolvabilityError):
            solve_linear_inhomogeneous(f, 0.0)

    def test_collocated_ode_residual_refines_second_order(self):
        rng = np.random.default_rng(11)
        coef = rng.standard_normal(6) + 1j * rng.standard_normal(6)

        def build(n):
            g = make_grid(n)
            vals = sum(c * np.cos((k + 1) * g.nodes) for k, c in enumerate(coef[:3]))
            vals = vals + sum(c * np.sin((k + 1) * g.nodes) for k, c in enumerate(coef[3:]))
            f = enforce_solvability(GridFunction(g, vals))
            v = solve_linear_inhomogeneous(f, 0.0)
            return envelope_residual(v.values, f.values, g)

        res = [build(n) for n in (129, 257, 513)]
        ratios = [res[i] / res[i + 1] for i in range(2)]
        for r in ratios:
            assert 3.0 < r < 5.5  # second order: ratio ~ 4 per halving
