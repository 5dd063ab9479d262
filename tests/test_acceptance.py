"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
report lines immediately.
"""
import time
from functools import lru_cache

import numpy as np
import pytest

from cglvortex import (
    CoreParams,
    SweepSpec,
    apply_green_op,
    asymptotic_U,
    asymptotic_r,
    compare_branches,
    contraction_radius,
    count_zeros,
    cubic_forcing,
    extend_solution,
    fd_solve,
    fixed_point_solve,
    make_grid,
    cgl_residual,
    physical_from_r,
    project_mean,
    rho_from_physical,
    run_sweep,
    shoot_solve,
    solvability_residual,
    solve,
)
from conftest import random_admissible, random_mean_free_ball

RECTANGLE_SAMPLES = [
    -3.5 + 0.75j, -2.0 + 1.5j, -1.0 + 0.25j, -0.5 + 1.0j, 0.5 + 0.5j,
    1.0 + 0.0j, 1.5 + 1.25j, 2.0 + 0.5j, 3.0 + 1.0j, 3.5 + 1.5j,
]

# converged branches produced anywhere in this module, for criterion 8
_BRANCH_REGISTRY = []


def _register(branch):
    if branch.converged:
        _BRANCH_REGISTRY.append(branch)
    return branch


def _report(num, ok, detail):
    print(f"\n[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@lru_cache(maxsize=None)
def _fp(rho, eps, n_nodes, tol=1e-12, max_iter=800):
    grid = make_grid(n_nodes)
    return _register(solve("fixed_point", rho, eps, grid, tol=tol, max_iter=max_iter))


def test_criterion_1_lowest_order_branch():
    t0 = time.perf_counter()
    ok = True
    details = []
    for s in (1e-3, 1e-4):
        eps = float(np.sqrt(s))
        b = _fp(1.0, eps, 513)
        dev = abs(b.r / (0.75 * s) - 1.0)
        bound = s / 32 + 1e-8
        ok &= b.converged and dev <= bound
        details.append(f"s={s:.0e}: dev={dev:.3e} <= {bound:.3e}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _report(1, ok, "; ".join(details) + f"; runtime {elapsed:.2f}s < 1s")


def test_criterion_2_expansion_order():
    rho = 1.0
    grid = make_grid(513)
    errs_r, errs_u, ss = [], [], []
    for s in (6.4e-2, 1.6e-2, 4e-3):
        eps = float(np.sqrt(s))
        b = _fp(rho, eps, 513, tol=1e-13, max_iter=400)
        assert b.converged
        errs_r.append(abs(b.r - asymptotic_r(rho, eps, 1)))
        profile = asymptotic_U(rho, eps, grid.nodes, 2)
        # amplitude-normalized profile error: the absolute sup carries an
        # extra factor |eps| on top of the O(|eps|^6) bracket error
        errs_u.append(float(np.max(np.abs(b.U.values - profile))) / eps)
        ss.append(s)
    slope_r = float(np.polyfit(np.log(ss), np.log(errs_r), 1)[0])
    slope_u = float(np.polyfit(np.log(ss), np.log(errs_u), 1)[0])
    ok = 2.7 <= slope_r <= 3.3 and 2.7 <= slope_u <= 3.3
    _report(2, ok, f"Richardson slopes: r {slope_r:.2f}, U {slope_u:.2f} (band 3.0+-0.3)")


def test_criterion_3_operator_bound_suite():
    grid = make_grid(257)
    rng = np.random.default_rng(1234)
    violations = 0
    for _ in range(100):
        f = random_admissible(grid, rng)
        if apply_green_op(f).sup_norm > 3 * np.pi * f.sup_norm:
            violations += 1
    rho = 1.3 + 0.7j
    for sigma in (0.25, 1.0):
        bound_f = abs(rho) * (2 + sigma) * (1 + sigma) ** 3
        lip = 3 * abs(rho) * (2 + sigma) * (1 + sigma) ** 2
        for _ in range(50):
            w1 = random_mean_free_ball(grid, rng, sigma)
            w2 = random_mean_free_ball(grid, rng, sigma)
            f1 = cubic_forcing(w1, rho)
            f2 = cubic_forcing(w2, rho)
            if f1.sup_norm > bound_f or f2.sup_norm > bound_f:
                violations += 1
            d_out = float(np.max(np.abs(f1.values - f2.values)))
            d_in = float(np.max(np.abs(w1.values - w2.values)))
            if d_out > lip * d_in:
                violations += 1
    _report(3, violations == 0, f"bound violations: {violations} (required 0)")


def test_criterion_4_contraction_certificate():
    grid = make_grid(257)
    rng = np.random.default_rng(2024)
    fails = []
    for k in range(20):
        sigma = float(rng.uniform(0.15, 2.0))
        mod = float(rng.uniform(0.4, 4.0))
        arg = float(rng.uniform(0.0, np.pi))
        rho = mod * complex(np.cos(arg), np.sin(arg))
        s = 0.9 * contraction_radius(sigma, mod)
        params = CoreParams(rho=rho, eps=float(np.sqrt(s)), max_iter=600, tol_fp=1e-12)
        b = _register(fixed_point_solve(params, grid=grid))
        k_bound = 9 * np.pi * s * mod * (2 + sigma) * (1 + sigma) ** 2
        ratios = [
            b.increments[i + 1] / b.increments[i]
            for i in range(len(b.increments) - 1)
            if b.increments[i] > 1e-13
        ]
        good = (
            b.converged
            and all(r <= k_bound * (1 + 1e-9) for r in ratios)
            and all(u <= sigma for u in b.iterate_sups)
        )
        if not good:
            fails.append(k)
    _report(4, not fails, f"20 certified points: failures {fails or 'none'}")


def test_criterion_5_rectangle_sweep():
    t0 = time.perf_counter()
    spec = SweepSpec(mode="rectangle", n_nodes=257)  # 15x7 over [-3.5,3.5]x[0,1.5]
    records = run_sweep(spec)
    elapsed = time.perf_counter() - t0
    n_conv = sum(r.converged for r in records)
    max_defect = max(r.symmetry_defect for r in records)
    max_extra = max(r.extra_zeros for r in records)
    ok = (
        len(records) == 105
        and n_conv == 105
        and max_extra == 0
        and max_defect <= 1e-8
        and elapsed < 30.0
    )
    _report(
        5,
        ok,
        f"{n_conv}/105 converged, extra_zeros max {max_extra}, "
        f"defect max {max_defect:.2e} <= 1e-8, runtime {elapsed:.1f}s < 30s",
    )


def _fd_ramp(target_mod, arg, n_nodes, eps=1.0):
    """Adaptive warm-started continuation of the FD solver along a ray."""
    grid = make_grid(n_nodes)
    mod = 1.0
    rho = mod * complex(np.cos(arg), np.sin(arg))
    branch = fd_solve(CoreParams(rho=rho, eps=eps, tol_fp=1e-11, max_iter=80), grid=grid)
    if not branch.converged:
        return None
    factor = 1.35
    retries = 0
    while mod < target_mod - 1e-9:
        mod_try = min(target_mod, mod * factor)
        rho = mod_try * complex(np.cos(arg), np.sin(arg))
        nxt = fd_solve(CoreParams(rho=rho, eps=eps, tol_fp=1e-11, max_iter=80), grid=grid,
                       seed=branch.U, r0=branch.r)
        if nxt.converged:
            mod = mod_try
            branch = nxt
            factor = min(1.35, factor ** 1.3)
        else:
            factor = factor ** 0.5
            retries += 1
            if factor < 1.003 or retries > 60:
                return None
    return _register(branch)


def _shoot_ramp(target_mod, arg, n_nodes, eps=1.0):
    """Warm-started shooting continuation along a ray."""
    grid = make_grid(n_nodes)
    seed, r = None, asymptotic_r(1.0, eps, 1)
    mod = 1.0
    branch = None
    while True:
        rho = mod * complex(np.cos(arg), np.sin(arg))
        nxt = shoot_solve(CoreParams(rho=rho, eps=eps, tol_fp=1e-11, max_iter=60), grid=grid,
                          seed=seed, r0=r)
        if not nxt.converged:
            return None
        branch = nxt
        seed, r = branch.U, branch.r
        if mod >= target_mod - 1e-9:
            return _register(branch)
        mod = min(target_mod, mod * 1.12)


def test_criterion_6_cross_method_agreement():
    eps = 1.0
    h513 = make_grid(513).spacing
    h257 = make_grid(257).spacing
    details = []
    ok = True

    for rho in RECTANGLE_SAMPLES:
        fp = _fp(rho, eps, 513)
        sh = _register(shoot_solve(CoreParams(rho=rho, eps=eps, tol_fp=1e-11, max_iter=60),
                                   grid=make_grid(513)))
        fd_params = CoreParams(rho=rho, eps=eps, tol_fp=1e-11)
        fd_f = _register(fd_solve(fd_params, grid=make_grid(513)))
        fd_c = fd_solve(fd_params, grid=make_grid(257))
        if not (fp.converged and sh.converged and fd_f.converged and fd_c.converged):
            ok = False
            details.append(f"rho={rho}: convergence failure")
            continue
        d_fp_sh = compare_branches(fp, sh)
        if d_fp_sh > 1e-6:
            ok = False
            details.append(f"rho={rho}: fp-shoot {d_fp_sh:.2e}")
        c_fit = compare_branches(_fp(rho, eps, 257), fd_c) / h257**2
        bound = max(1e-6, 1.3 * c_fit * h513**2)
        d_fp_fd = compare_branches(fp, fd_f)
        d_sh_fd = compare_branches(sh, fd_f)
        if d_fp_fd > bound or d_sh_fd > bound:
            ok = False
            details.append(f"rho={rho}: fd diffs {d_fp_fd:.2e},{d_sh_fd:.2e} > {bound:.2e}")

    fd_far = _fd_ramp(200.0, np.pi / 12, 513)
    if fd_far is None:
        ok = False
        details.append("fd ramp to |rho|=200 failed")
    sh_far = _shoot_ramp(9.0, np.pi / 7, 257)
    if sh_far is None:
        ok = False
        details.append("shooting ramp to |rho|=9 failed")

    msg = "; ".join(details) if details else (
        "10 rectangle points pairwise consistent; fd reached |rho|=200, "
        "shooting reached |rho|=9"
    )
    _report(6, ok, msg)


def test_criterion_7_pde_residual():
    triples = [(0.0, 0.0, 1), (0.4, 0.1, 1), (-0.25, 0.3, 1)]
    ok = True
    details = []

    # residual bound at 513 nodes
    for mu, nu, n in triples:
        rho = rho_from_physical(mu, nu, n)
        eps = 0.1
        b = _fp(rho, eps, 513)
        phys = physical_from_r(b.r, mu, nu, n)
        sol = extend_solution(b, n, phys.omega)
        resid = cgl_residual(sol, phys)
        if resid > 1e-6 * eps:
            ok = False
            details.append(f"triple {(mu, nu, n)}: residual {resid:.2e} > 1e-7")

    # second-order decay under refinement
    mu, nu, n = 0.4, 0.1, 1
    rho = rho_from_physical(mu, nu, n)
    res = []
    hs = []
    for nn in (257, 513, 1025):
        b = _fp(rho, 0.2, nn)
        phys = physical_from_r(b.r, mu, nu, n)
        sol = extend_solution(b, n, phys.omega)
        res.append(cgl_residual(sol, phys))
        hs.append(make_grid(nn).spacing)
    slope = float(np.polyfit(np.log(hs), np.log(res), 1)[0])
    if not (1.8 <= slope <= 2.2):
        ok = False
        details.append(f"residual refinement slope {slope:.2f}")

    # omega identity: error quadratic in (R - n^2)
    for mu, nu, n in triples[1:]:
        rho = rho_from_physical(mu, nu, n)
        errs, gaps = [], []
        for s in (0.04, 0.02, 0.01):
            b = _fp(rho, float(np.sqrt(s)), 513)
            phys = physical_from_r(b.r, mu, nu, n)
            errs.append(abs(phys.omega - (mu * phys.R + (nu - mu) * n * n)))
            gaps.append(phys.R - n * n)
        id_slope = float(np.polyfit(np.log(gaps), np.log(errs), 1)[0])
        if not (1.8 <= id_slope <= 2.2):
            ok = False
            details.append(f"omega identity slope {id_slope:.2f} at {(mu, nu, n)}")
    # the real-dispersion triple satisfies the identity exactly
    b = _fp(1.0 + 0j, 0.2, 513)
    phys = physical_from_r(b.r, 0.0, 0.0, 1)
    if abs(phys.omega - 0.0) > 1e-12:
        ok = False
        details.append("omega nonzero for mu = nu = 0")

    msg = "; ".join(details) if details else (
        "residual <= 1e-6|eps| at 513 nodes for 3 triples, slope 2.0, "
        "omega identity quadratic"
    )
    _report(7, ok, msg)


def test_criterion_8_structural_invariants():
    ok = True
    details = []
    grid = make_grid(257)

    # phase-gauge invariance of r
    b0 = _fp(1.2 + 0.9j, 0.7, 257)
    b1 = _fp(1.2 + 0.9j, 0.7 * np.exp(0.6j), 257)
    gauge = abs(b0.r - b1.r)
    if gauge > 1e-12:
        ok = False
        details.append(f"gauge defect {gauge:.2e}")

    # mean-freeness of every converged branch produced by this suite
    worst_mean = 0.0
    for br in _BRANCH_REGISTRY:
        worst_mean = max(worst_mean, abs(project_mean(br.w)))
    if worst_mean > 1e-10:
        ok = False
        details.append(f"mean-mode leak {worst_mean:.2e}")

    # solvability of the cubic forcing, random and on-branch corrections
    rng = np.random.default_rng(99)
    worst_solv = 0.0
    for _ in range(20):
        w = random_mean_free_ball(grid, rng, 1.0)
        f = cubic_forcing(w, 1.5 - 0.8j)
        worst_solv = max(
            worst_solv, abs(solvability_residual(f)) / max(1.0, f.sup_norm)
        )
    for br in _BRANCH_REGISTRY[:20]:
        if br.grid.n_nodes != 257:
            continue
        f = cubic_forcing(br.w, br.params.rho)
        worst_solv = max(
            worst_solv, abs(solvability_residual(f)) / max(1.0, f.sup_norm)
        )
    if worst_solv > 1e-10:
        ok = False
        details.append(f"solvability leak {worst_solv:.2e}")

    # zero census of periodic extensions for n = 1, 2, 3
    b = _fp(0.8 + 0.4j, 0.5, 257)
    for n in (1, 2, 3):
        sol = extend_solution(b, n, 0.0)
        zc, extra = count_zeros(sol.nodes, sol.values, n)
        if zc != 2 * n or extra != 0:
            ok = False
            details.append(f"n={n}: zeros ({zc},{extra})")

    msg = "; ".join(details) if details else (
        f"gauge {gauge:.1e} <= 1e-12; mean leak {worst_mean:.1e} <= 1e-10; "
        f"solvability {worst_solv:.1e} <= 1e-10; extensions show 2n zeros"
    )
    _report(8, ok, msg)
