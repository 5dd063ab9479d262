"""Shooting and finite-difference solvers, and branch comparison."""
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cglvortex import (
    CoreParams,
    GridFunction,
    InvalidArgument,
    InvalidState,
    SweepSpec,
    compare_branches,
    fd_solve,
    fixed_point_solve,
    make_grid,
    ode_forcing,
    project_mean,
    run_sweep,
    shoot_solve,
    solve,
)
from cglvortex import direct, sweep
from cglvortex.direct import (
    _fd_branch, _fd_layout, _fd_newton_system, _rk4_lanes, _segments, _shoot_conditions,
    _shoot_newton_system, _slopes, spsolve,
)
from conftest import CRITERION6_POINTS, branch_bits
from work_counts import RAY_FD_FACTORIZATIONS, VERIFY_WORK

# Newton controls of the direct-solver tests
SHOOT = dict(tol_fp=1e-11, max_iter=60)
FD = dict(tol_fp=1e-11)
@pytest.mark.parametrize("solver", [fixed_point_solve, shoot_solve, fd_solve])
def test_default_grid_is_257_nodes(solver):
    # a solve without a grid is the solve on make_grid(257), bit for bit
    params = CoreParams(rho=2.0 + 0.5j, eps=0.5 - 0.2j)
    b = solver(params)
    assert b.grid.n_nodes == 257 and b.converged
    assert branch_bits(b) == branch_bits(solver(params, make_grid(257)))


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


def _reference_rk4(rho, r, a, n_steps, n_nodes):
    """The shooting RK4 written out step by step, on numpy scalars, for one
    trajectory from U = 0, U' = a: the reference each lane of _rk4_lanes
    must match to rounding."""
    h = np.pi / n_steps
    stride = n_steps // (n_nodes - 1)
    U = np.complex128(0.0)
    V = np.complex128(a)
    out = np.empty(n_nodes, dtype=complex)
    out[0] = U
    k = 0
    for istep in range(n_steps):
        aU = abs(U)
        f1v = -U - rho * (r - aU * aU) * U
        U2 = U + 0.5 * h * V
        V2 = V + 0.5 * h * f1v
        aU = abs(U2)
        f2v = -U2 - rho * (r - aU * aU) * U2
        U3 = U + 0.5 * h * V2
        V3 = V + 0.5 * h * f2v
        aU = abs(U3)
        f3v = -U3 - rho * (r - aU * aU) * U3
        U4 = U + h * V3
        V4 = V + h * f3v
        aU = abs(U4)
        f4v = -U4 - rho * (r - aU * aU) * U4
        Unew = U + h / 6.0 * (V + 2.0 * V2 + 2.0 * V3 + V4)
        V = V + h / 6.0 * (f1v + 2.0 * f2v + 2.0 * f3v + f4v)
        U = Unew
        if not (abs(U) < direct.ESCAPE_CAP):
            return None
        if (istep + 1) % stride == 0:
            k += 1
            out[k] = U
    return out, U, V


class TestShooting:
    def test_linear_limit_exact(self, grid257):
        eps = 0.5 + 0.1j
        b = shoot_solve(CoreParams(rho=0.0, eps=eps, **SHOOT), grid=grid257)
        assert b.converged
        assert np.max(np.abs(b.U.values - eps * np.cos(grid257.nodes))) < 1e-12
        assert b.r == pytest.approx(0.75 * abs(eps) ** 2, abs=1e-12)

    def test_linear_limit_escape_reported(self, grid257, monkeypatch):
        # a profile beyond the cap is an escape in the linear limit too
        monkeypatch.setattr(direct, "ESCAPE_CAP", 0.5)
        b = shoot_solve(CoreParams(rho=0.0, eps=1.0, **SHOOT), grid=grid257)
        assert b.diverged and not b.converged

    def test_rk4_order(self):
        # halving the step cuts the terminal error ~16x on the linear problem
        errs = []
        for stride in (64, 128):
            h = np.pi / (stride * 4)
            # rho = 0 and lam = rho r = 0
            out, u_end, v_end = _rk4_lanes(0.0, 0.0, [0.0], [1.0], h, stride, 4)
            errs.append(abs(u_end[0, 0]))  # exact terminal value is 0 for U = cos
        assert 12.0 <= errs[0] / errs[1] <= 20.0

    @pytest.mark.parametrize("n_nodes", [129, 257, 513])
    @pytest.mark.parametrize("rho", [2.0 + 0.5j, -3.5, 0.0])
    def test_rk4_matches_reference_bitwise(self, n_nodes, rho):
        # each lane is one trajectory across J; numpy arrays and scalars
        # need not round alike, so the lanes agree with the reference to
        # 1e-13 relative rather than bit for bit
        stride = -(-direct.RK4_STEPS // (n_nodes - 1))
        r = np.complex128(0.6 - 0.1j)
        slopes = np.array([0.9 + 0.2j, 0.3 - 0.7j, -1.1 + 0.05j])
        h = np.pi / (stride * (n_nodes - 1))
        got = _rk4_lanes(rho, rho * r, np.zeros(3), slopes, h, stride, n_nodes - 1)
        for lane, a in enumerate(slopes):
            ref = _reference_rk4(rho, r, np.complex128(a), stride * (n_nodes - 1), n_nodes)
            for got_k, ref_k in ((got[0][:, 0, lane], ref[0]), (got[1][0, lane], ref[1]),
                                 (got[2][0, lane], ref[2])):
                scale = max(1.0, np.max(np.abs(ref_k)))
                assert np.max(np.abs(got_k - ref_k)) <= 1e-13 * scale

    def test_rk4_escape_matches_reference(self):
        a, r = np.complex128(20.0), np.complex128(0.0)
        assert _reference_rk4(9.0, r, a, 2048, 257) is None
        h = np.pi / 2048
        assert _rk4_lanes(9.0, 9.0 * r, [0.0], [a], h, 8, 256) is None
        # one escaping lane fails the whole trial
        assert _rk4_lanes(9.0, 9.0 * r, [0.0, 0.0], [1.0, a], h, 8, 256) is None

    @pytest.mark.parametrize("n_nodes", [129, 257, 513])
    @pytest.mark.parametrize("rho", [2.0 + 0.5j, -3.5, 0.0])
    def test_trajectory_only_is_lane_zero_bitwise(self, n_nodes, rho):
        # the line search's trajectory-only run takes the full run's stages
        stride = -(-direct.RK4_STEPS // (n_nodes - 1))
        lam = rho * (0.6 - 0.1j)
        u0 = np.array([0.0, 0.2 + 0.1j, -0.3j])
        v0 = np.array([0.9 + 0.2j, 0.3 - 0.7j, -1.1 + 0.05j])
        args = (rho, lam, u0, v0, np.pi / (stride * (n_nodes - 1)), stride, n_nodes - 1)
        full = _rk4_lanes(*args)
        alone = _rk4_lanes(*args, tangents=False)
        for got, lanes in zip(alone, full):
            assert got.shape == lanes[..., :1, :].shape
            assert got.tobytes() == np.ascontiguousarray(lanes[..., :1, :]).tobytes()

    @pytest.mark.parametrize("slopes", [[20.0], [1.0, 20.0], [0.1]])
    def test_trajectory_only_escapes_like_full_run(self, slopes):
        # the escapes of test_rk4_escape_matches_reference, and a lane that stays bounded
        args = (9.0, 0.0, np.zeros(len(slopes)), slopes, np.pi / 2048, 8, 256)
        escaped = slopes != [0.1]
        assert (_rk4_lanes(*args) is None) == escaped
        assert (_rk4_lanes(*args, tangents=False) is None) == escaped

    def test_rk4_steps_allocate_no_lane_array(self):
        # the stages write into arrays that _rk4_lanes allocates once per
        # call: the traced peak from one force evaluation to the next stays
        # below one (7, K) array, and so do numpy's iterator buffers, which
        # UFUNC_BUFSIZE bounds.  force takes the stages in pairs: one call
        # on U to start, then two per step (the last step's F4 alone)
        k_seg, stride, m = 256, 8, 2
        rng = np.random.default_rng(5)
        v0 = rng.normal(size=k_seg) + 1j * rng.normal(size=k_seg)
        rises, last = [], []
        code = direct._rk4_lanes.__code__

        def tracer(frame, event, arg):
            if (event == "call" and frame.f_code.co_name == "force"
                    and frame.f_back.f_code is code):
                if last:
                    rises.append(tracemalloc.get_traced_memory()[1] - last[0])
                tracemalloc.reset_peak()
                last[:] = [tracemalloc.get_traced_memory()[0]]

        previous = sys.gettrace()
        tracemalloc.start()
        sys.settrace(tracer)
        try:
            lanes = _rk4_lanes(2.0 + 0.5j, 1.1 - 0.3j, np.zeros(k_seg), v0, np.pi / 4096,
                               stride, m)
        finally:
            sys.settrace(previous)
            tracemalloc.stop()
        assert lanes is not None
        assert len(rises) == 2 * stride * m
        assert max(rises) < 7 * k_seg * 16

    def test_tangent_lanes_are_trajectory_derivatives(self):
        # the variational lanes against central differences of the trajectory
        rho, r = 2.0 + 0.5j, 0.6 - 0.1j
        lam = rho * r
        u0, v0 = np.array([0.3 + 0.1j, -0.2j]), np.array([0.9 + 0.2j, 0.4 - 0.3j])
        h, stride, m = np.pi / 2048, 8, 8
        out, ue, ve = _rk4_lanes(rho, lam, u0, v0, h, stride, m)
        step = 1e-6
        for d in range(6):
            shifted = []
            for sign in (1, -1):
                t = sign * step
                lanes = _rk4_lanes(rho, lam + t * direct._DIRECTION_LAM[d],
                                   u0 + t * direct._DIRECTION_U[d],
                                   v0 + t * direct._DIRECTION_V[d],
                                   h, stride, m)
                shifted.append(lanes)
            for i, got in enumerate((out[:, 1 + d], ue[1 + d], ve[1 + d])):
                fd = (shifted[0][i][..., 0, :] - shifted[1][i][..., 0, :]) / (2 * step)
                assert np.max(np.abs(got - fd)) <= 1e-7 * max(1.0, np.max(np.abs(fd)))

    def test_agrees_with_fixed_point_small_amplitude(self, grid257):
        rho, eps = 0.8 + 0.3j, 0.3
        fp = fixed_point_solve(CoreParams(rho=rho, eps=eps), grid=grid257)
        sh = shoot_solve(CoreParams(rho=rho, eps=eps, **SHOOT), grid=grid257)
        assert sh.converged
        assert compare_branches(fp, sh) < 1e-6

    def test_cold_start_rectangle_corner(self, grid257):
        b = shoot_solve(CoreParams(rho=3.5 + 1.5j, eps=1.0, **SHOOT), grid=grid257)
        assert b.converged
        assert abs(project_mean(b.w)) < 1e-10

    @pytest.mark.parametrize("modulus", [15.0, 30.0, 60.0])
    def test_cold_start_far_along_ray(self, grid257, modulus):
        # past the |rho| ~ 9 reach of a single shooting trajectory: cold
        # solves on the pi/12 ray agree with FD within verify's FD bound
        rho = modulus * np.exp(1j * np.pi / 12)
        sh = shoot_solve(CoreParams(rho=rho, eps=1.0, **SHOOT), grid=grid257)
        fd = fd_solve(CoreParams(rho=rho, eps=1.0, **FD), grid=grid257)
        assert sh.converged and fd.converged
        h = grid257.spacing
        assert compare_branches(sh, fd) <= max(1e-6, h * h * (1.0 + modulus))

    def test_eps_zero_rejected(self, grid257):
        with pytest.raises(InvalidArgument):
            shoot_solve(CoreParams(rho=1.0, eps=0.0, **SHOOT), grid=grid257)

    @pytest.mark.parametrize("singular", ["raise", "nan"])
    def test_singular_jacobian_reported_not_raised(self, grid257, monkeypatch, singular):
        # a singular Newton system ends the iteration at the starting
        # iterate; the Branch reports it.  "raise": the banded LU flags a
        # zero pivot (where a dense solve raises); "nan": the solve returns
        # non-finite values
        if singular == "raise":
            gbtrf, gbtrs = direct._gb_lapack()

            def flagged(*args, **kwargs):
                lu, piv, _ = gbtrf(*args, **kwargs)
                return lu, piv, 1

            monkeypatch.setattr(direct, "_gb_lapack", lambda: (flagged, gbtrs))
        else:
            monkeypatch.setattr(direct, "spsolve",
                                lambda *system: (np.full_like(system[-1], np.nan), None))
        rho, eps = 2.0 + 0.5j, 1.0
        b = shoot_solve(CoreParams(rho=rho, eps=eps, **SHOOT), grid=grid257)
        assert not b.converged and not b.diverged
        assert b.iterations == 0 and len(b.increments) == 1
        # the unknown a = U'(-pi/2) = v(-pi/2) is still at its start
        assert b.v.values[0] == eps

    @pytest.mark.parametrize("case", ["cold", "ray60", "ray134", "warm"])
    def test_line_search_trajectory_only_leaves_branch_unchanged(self, grid257, monkeypatch,
                                                                  case):
        # trials integrate the trajectory alone; taking lane 0 of a full run
        # instead must give the same branch to the bit.  ray134 stalls
        # after many halvings; warm starts from the fixed point, as verify does
        if case == "warm":
            prev = solve("fixed_point", 1.5 + 1.25j, 1.0, grid257)

            def run():
                return solve("shooting", 1.5 + 1.25j, 1.0, grid257, trail=(prev,))
        else:
            rho = {"cold": 3.5 + 1.5j, "ray60": 60.0 * np.exp(1j * np.pi / 12),
                   "ray134": 134.0 * np.exp(1j * np.pi / 12)}[case]

            def run():
                return shoot_solve(CoreParams(rho=rho, eps=1.0, **SHOOT), grid=grid257)

        real = direct._rk4_lanes
        alone = []

        def sliced(*args, tangents=True):
            lanes = real(*args)
            if lanes is None or tangents:
                return lanes
            alone.append(args)
            return tuple(np.ascontiguousarray(a[..., :1, :]) for a in lanes)

        expect = run()
        monkeypatch.setattr(direct, "_rk4_lanes", sliced)
        got = run()
        assert alone  # the line search ran
        assert got.U.values.tobytes() == expect.U.values.tobytes()
        assert got.r == expect.r and got.converged == expect.converged
        assert got.iterations == expect.iterations and got.increments == expect.increments
        if case == "ray134":
            assert not got.converged and len(alone) > 2 * got.iterations

    def test_tangent_overflow_of_taken_trial_rejects_it(self, grid257, monkeypatch):
        # the first Newton step's trial at t = 1 is taken, then its tangent
        # run fails: halving goes on from there, exactly as if the trial
        # itself had escaped
        params = CoreParams(rho=3.5 + 1.5j, eps=1.0, **SHOOT)
        real = direct._rk4_lanes

        def failing(fail_at):
            calls = []

            def lanes(*args, tangents=True):
                calls.append((tangents, args[1]))
                return None if len(calls) == fail_at else real(*args, tangents=tangents)
            return calls, lanes

        calls, lanes = failing(3)
        monkeypatch.setattr(direct, "_rk4_lanes", lanes)
        b = shoot_solve(params, grid=grid257)
        assert [tangents for tangents, _ in calls[:5]] == [True, False, True, False, True]
        lam0, lam1, lam2 = calls[0][1], calls[1][1], calls[3][1]
        assert lam2 - lam0 == pytest.approx(0.5 * (lam1 - lam0), rel=1e-12)
        _, escaped = failing(2)
        monkeypatch.setattr(direct, "_rk4_lanes", escaped)
        ref = shoot_solve(params, grid=grid257)
        assert b.converged and ref.converged
        assert b.U.values.tobytes() == ref.U.values.tobytes() and b.r == ref.r
        assert b.iterations == ref.iterations and b.increments == ref.increments

    @pytest.mark.parametrize("n_nodes,segments", [(9, 128), (17, 16), (33, 4)])
    def test_newton_system_matches_difference_quotients(self, monkeypatch, n_nodes, segments):
        # the banded core, border and corner assembled from the tangent
        # lanes against central differences of the conditions in z
        monkeypatch.setattr(direct, "SHOOT_SEGMENTS", segments)
        grid = make_grid(n_nodes)
        stride, h, wseg = _segments(grid)
        m, k_seg = wseg.shape[0] - 1, wseg.shape[1]
        rho = 2.0 + 0.5j
        z = 0.5 * np.random.default_rng(n_nodes).standard_normal(4 * k_seg)

        def conditions(z, tangents=False):
            s = np.concatenate([[0.0, 0.0], z[:-2]]).view(complex).reshape(k_seg, 2)
            u0, v0 = s[:, 0], s[:, 1]
            lanes = _rk4_lanes(rho, complex(z[-2], z[-1]), u0, v0, h, stride, m,
                               tangents=tangents)
            return lanes, _shoot_conditions(lanes, u0, v0, wseg).view(float)

        def difference(dz):
            """Central differences of the conditions and of each segment's
            term of the normalization, sum(wseg * U at its output points)."""
            (out_p, _, _), c_p = conditions(z + dz)
            (out_m, _, _), c_m = conditions(z - dz)
            terms = np.sum(wseg * (out_p[:, 0] - out_m[:, 0]), axis=0)
            return (c_p - c_m) / (2 * step), terms / (2 * step)

        got = _bordered_dense(*_shoot_newton_system(conditions(z, tangents=True)[0], wseg))
        step = 1e-6
        size = 4 * k_seg - 2
        quotients = np.zeros_like(got)
        # grouped columns (Curtis, Powell & Reid 1974): core column j reaches
        # only the band rows j - 2 .. j + 5, so columns 8 apart share no band
        # row and one perturbation measures them all.  The normalization rows
        # are dense, but their value is a sum of one term per segment, and
        # the 4 columns of a segment fall in 4 different groups
        for first in range(8):
            group = np.arange(first, size, 8)
            dz = np.zeros_like(z)
            dz[group] = step
            dc, dterms = difference(dz)
            for j in group:
                band = slice(max(j - 2, 0), min(j + 6, size))
                quotients[band, j] = dc[band]
                k = (j + 2) // 4  # the segment that column j starts
                quotients[size:, j] = dterms[k].real, dterms[k].imag
        # the two lam columns are dense: one perturbation each
        for j in (size, size + 1):
            dz = np.zeros_like(z)
            dz[j] = step
            quotients[:, j] = difference(dz)[0]
        assert np.max(np.abs(got - quotients)) <= 1e-7 * np.max(np.abs(quotients))

    @pytest.mark.parametrize("k_seg", [8, 16, 256])
    def test_newton_system_band_layout_exact(self, k_seg):
        # lanes of known distinct tangents, not from RK4: tangent (d, p) of
        # segment k is the entry (4k + p, 4k + d - 2) of the core, bit for
        # bit; the next segment's start enters with -1, and every other
        # entry of ab is 0: its first kl rows, and the places of segment
        # 0's fixed start U and of the last segment's free end slope
        _, _, wseg = _segments(make_grid(k_seg + 1))
        assert wseg.shape[1] == k_seg
        rng = np.random.default_rng(k_seg)
        # tan[d, p, k]: (Re U, Im U, Re U', Im U') of segment k's end along direction d
        tan = rng.uniform(1.0, 2.0, (6, 4, k_seg))
        ue = np.zeros((7, k_seg), dtype=complex)
        ve = np.zeros_like(ue)
        ue[1:] = tan[:, 0] + 1j * tan[:, 1]
        ve[1:] = tan[:, 2] + 1j * tan[:, 3]
        out = rng.standard_normal((wseg.shape[0], 7, k_seg)) + 0j
        ab, kl, ku = _shoot_newton_system((out, ue, ve), wseg)[:3]
        size = 4 * k_seg - 2
        expect = np.zeros((2 * kl + ku + 1, size))
        for i in range(size - 2):
            expect[kl + ku - 2, i + 2] = -1.0
        for k in range(k_seg):
            for p in range(4):
                for d in range(4):
                    i, j = 4 * k + p, 4 * k + d - 2
                    if i < size and j >= 0:
                        expect[kl + ku + i - j, j] = tan[d, p, k]
        assert (kl, ku, ab.shape) == (5, 2, expect.shape) and ab.flags.f_contiguous
        assert ab.tobytes() == expect.tobytes()
        assert not np.isin(tan[:2, :, 0], ab).any() and not np.isin(tan[:4, 2:, -1], ab).any()

    @pytest.mark.parametrize("n_nodes,k_seg,m", [(129, 128, 1), (257, 256, 1), (513, 256, 2)])
    def test_segment_layout(self, n_nodes, k_seg, m):
        # one grid interval per segment up to SHOOT_SEGMENTS intervals, then
        # SHOOT_SEGMENTS segments of several; RK4_STEPS steps across J
        stride, h, wseg = _segments(make_grid(n_nodes))
        assert wseg.shape == (m + 1, k_seg)
        assert stride * (n_nodes - 1) == direct.RK4_STEPS
        assert h == np.pi / direct.RK4_STEPS

    def test_segment_layout_cached_read_only(self, monkeypatch):
        grid = make_grid(257)
        layout = _segments(grid)
        assert _segments(grid) is layout and not layout[2].flags.writeable
        monkeypatch.setattr(direct, "SHOOT_SEGMENTS", 32)
        assert _segments(grid)[2].shape == (9, 32)

    @pytest.mark.parametrize("rho", [-3.5 + 0.75j, 3.5 + 1.5j])
    def test_branch_independent_of_segment_count(self, grid257, monkeypatch, rho):
        # the segments only cut the same RK4 trajectory: at verify's
        # tolerance the converged branch agrees to rounding whatever K
        params = CoreParams(rho=rho, eps=1.0, tol_fp=1e-12, max_iter=800)
        branches = []
        for segments in (32, 128, 256):
            monkeypatch.setattr(direct, "SHOOT_SEGMENTS", segments)
            branches.append(shoot_solve(params, grid=grid257))
        assert all(b.converged for b in branches)
        for b in branches[1:]:
            assert compare_branches(branches[0], b) <= 1e-12

    def test_seed_at_solution_converges_at_once(self, grid257):
        # segment starts taken from a converged profile: U from the samples
        # and U' from fourth-order differences are within h^4 of the solution
        params = CoreParams(rho=2.0 + 0.5j, eps=1.0, **SHOOT)
        b = shoot_solve(params, grid=grid257)
        warm = shoot_solve(params, grid=grid257, seed=b.U, r0=b.r)
        assert b.converged and warm.converged
        assert warm.iterations <= 2
        assert compare_branches(b, warm) < 1e-10

    def test_converged_on_last_allowed_step(self, grid257):
        # the norm is tested after every step, the max_iter-th included: a
        # cap that the converging step reaches gives the branch of a run
        # with a step to spare, and the increments end with its norm
        rho = 2.0 + 0.5j
        at_cap = shoot_solve(CoreParams(rho=rho, eps=1.0, max_iter=3), grid=grid257)
        spare = shoot_solve(CoreParams(rho=rho, eps=1.0, max_iter=4), grid=grid257)
        assert spare.converged and spare.iterations == 3
        assert at_cap.converged and at_cap.iterations == 3
        assert at_cap.U.values.tobytes() == spare.U.values.tobytes() and at_cap.r == spare.r
        assert at_cap.increments == spare.increments
        assert len(at_cap.increments) == 4 and at_cap.increments[-1] == at_cap.fp_residual

    def test_stalled_run_stops_not_converged(self):
        # the norm creeps from 6.25 down to 4.86 and never halves: the solve
        # stops after SHOOT_STALL passes, not after all 800 allowed
        b = solve("shooting", -3.5 + 1.25j, 1.5 + 0.5j, make_grid(33), tol=1e-10)
        assert not b.converged and not b.diverged
        assert b.iterations == direct.SHOOT_STALL == 10
        norms = b.increments
        assert len(norms) == 11 and norms[-1] == b.fp_residual
        assert norms[-1] > 0.5 * norms[0]
        assert all(later < earlier for earlier, later in zip(norms, norms[1:]))

    def test_seed_on_other_grid_rejected(self, grid257):
        b = shoot_solve(CoreParams(rho=1.0, eps=1.0, **SHOOT), grid=make_grid(129))
        with pytest.raises(InvalidArgument):
            shoot_solve(CoreParams(rho=1.0, eps=1.0, **SHOOT), grid=grid257, seed=b.U)

    def test_slopes_fourth_order(self):
        # exact on quartics, at the ends too
        x = make_grid(17).nodes
        u = (1 + 2j) * x**4 - 3 * x**3 + x - 0.5j
        du = 4 * (1 + 2j) * x**3 - 9 * x**2 + 1
        assert np.max(np.abs(_slopes(u, x[1] - x[0]) - du)) < 1e-11

    @pytest.mark.parametrize("rho", [1e-10, 1e-6])
    def test_r_exact_at_small_rho(self, grid257, rho):
        # lam = rho r is the Newton unknown and r the envelope's integral,
        # so r carries no Newton error divided by |rho|
        sh = shoot_solve(CoreParams(rho=rho, eps=1.0), grid=grid257)
        fp = fixed_point_solve(CoreParams(rho=rho, eps=1.0), grid=grid257)
        assert sh.converged and fp.converged
        assert abs(sh.r - fp.r) <= 1e-12


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
        b = fd_solve(CoreParams(rho=0.0, eps=1.0, **FD), grid=grid257)
        assert b.converged
        assert b.iterations == 2
        assert np.max(np.abs(b.U.values - np.cos(grid257.nodes))) < 1e-12
        assert b.r == pytest.approx(0.75, abs=1e-11)

    def test_agrees_with_fixed_point(self):
        grid = make_grid(1025)
        fp = fixed_point_solve(CoreParams(rho=1 + 0.5j, eps=1.0, max_iter=400), grid=grid)
        fd = fd_solve(CoreParams(rho=1 + 0.5j, eps=1.0, **FD), grid=grid)
        assert fd.converged
        assert compare_branches(fp, fd) < 1e-6

    def test_second_order_against_fixed_point(self):
        rho, eps = 1 + 0.5j, 1.0
        diffs = []
        for n in (257, 513, 1025):
            grid = make_grid(n)
            fp = fixed_point_solve(CoreParams(rho=rho, eps=eps, max_iter=400), grid=grid)
            fd = fd_solve(CoreParams(rho=rho, eps=eps, **FD), grid=grid)
            diffs.append(compare_branches(fp, fd))
        for a, b in zip(diffs, diffs[1:]):
            assert 3.2 < a / b < 4.8  # Richardson slope ~ 2

    def test_newton_matches_picard(self, grid257):
        # the Newton solution is the fixed point of the lagged (Picard) map
        b = fd_solve(CoreParams(rho=2.0 + 1.0j, eps=1.0, **FD), grid=grid257)
        assert b.converged
        assert compare_branches(b, _lagged_fd_step(b)) < 1e-9

    def test_ode_residual_second_order(self):
        rho, eps = 1.5, 0.4
        res = []
        for n in (257, 513, 1025):
            b = fd_solve(CoreParams(rho=rho, eps=eps, **FD), grid=make_grid(n))
            assert b.converged
            res.append(b.ode_residual)
        for a, b in zip(res, res[1:]):
            assert 3.0 < a / b < 5.5

    def test_eps_zero_rejected(self, grid257):
        with pytest.raises(InvalidArgument):
            fd_solve(CoreParams(rho=1.0, eps=0.0, **FD), grid=grid257)

    def test_five_nodes_rejected(self):
        # the cubic end rule extrapolates each envelope end from four
        # interior nodes; a 5-node grid has three
        with pytest.raises(InvalidArgument, match="7 nodes"):
            fd_solve(CoreParams(rho=0.5, eps=1.0), grid=make_grid(5))

    def test_singular_matrix_reported_not_raised(self, grid257, monkeypatch):
        monkeypatch.setattr(direct, "spsolve",
                            lambda *system: (np.full_like(system[-1], np.nan), None))
        b = fd_solve(CoreParams(rho=2.0 + 0.5j, eps=1.0, **FD), grid=grid257)
        assert not b.converged and not b.diverged
        assert b.iterations == 0
        assert np.array_equal(b.U.values, np.cos(grid257.nodes) * (1.0 + 0j))

    def test_escape_on_last_allowed_pass_is_diverged(self, grid257, monkeypatch):
        # every trial of the only pass escapes and the sixth is taken: the
        # escaped iterate is the diverged record, not a profile of 4e83
        monkeypatch.setattr(direct, "spsolve",
                            lambda *system: (np.full_like(system[-1], 1e85), None))
        b = fd_solve(CoreParams(rho=2.0 + 0.5j, eps=1.0, max_iter=1), grid=grid257)
        assert b.diverged and not b.converged
        assert b.iterations == 1 and len(b.increments) == 1
        assert not np.any(b.U.values)

    def test_failed_correction_factors_again(self, grid257, monkeypatch):
        # a simplified correction above tol_fp is dropped: the solve
        # linearizes the iterate it tried to correct and factors again, so
        # its Newton systems and its branch are those of the loop without
        # the simplified step
        params = CoreParams(rho=2.0 + 0.5j, eps=1.0, **FD)
        real_newton, real_spsolve = direct._newton, direct.spsolve
        plain, held = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(direct, "_newton",
                       lambda *args, tol=None, **kwargs: real_newton(*args, **kwargs))
            plain_systems = _recorded_systems(lambda: plain.append(fd_solve(params, grid257)))
        resolved = []

        def inflated(*system):
            x, resolve = real_spsolve(*system)

            def off(rhs):
                resolved.append(rhs)
                return resolve(rhs) + 1.0  # a correction of 1 in every unknown

            return x, off

        monkeypatch.setattr(direct, "spsolve", inflated)
        systems = _recorded_systems(lambda: held.append(fd_solve(params, grid257)))
        assert resolved and plain[0].converged
        assert len(systems) == len(plain_systems) == plain[0].iterations
        for got, ref in zip(systems, plain_systems):
            assert [np.asarray(a).tobytes() for a in got] == [np.asarray(a).tobytes() for a in ref]
        assert branch_bits(held[0]) == branch_bits(plain[0])

    def test_simplified_correction_is_a_pass(self, grid257, monkeypatch):
        # the correction that ends the solve is its last pass, made without
        # a factorization; one pass fewer allowed stops the solve, not
        # converged, at the iterate that correction would have moved
        params = dict(rho=2.0 + 0.5j, eps=1.0, **FD)
        factorizations = []
        real = direct.spsolve
        monkeypatch.setattr(direct, "spsolve",
                            lambda *system: factorizations.append(1) or real(*system))
        full = fd_solve(CoreParams(**params), grid=grid257)
        assert full.converged and len(factorizations) == full.iterations - 1
        assert full.increments[-1] <= params["tol_fp"] < full.increments[-2]
        short = fd_solve(CoreParams(max_iter=full.iterations - 1, **params), grid=grid257)
        assert not short.converged and not short.diverged
        assert short.iterations == full.iterations - 1
        assert short.increments == full.increments[:-1]

    def test_stagnation_reported_not_raised(self, grid257, monkeypatch):
        # two Newton passes from the cold seed cannot reach rho = 60; the
        # solver must return a record, not raise.  The iterate after the
        # last allowed pass takes no step, so it gets no Newton system
        builds = []
        real = direct._fd_newton_system

        def counted(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(direct, "_fd_newton_system", counted)
        b = fd_solve(CoreParams(rho=60.0, eps=1.0, tol_fp=1e-11, max_iter=2), grid=grid257)
        assert not b.converged
        assert b.iterations == 2 and len(builds) == 2

    def test_increment_is_step_applied(self, grid257):
        # pass 66 at rho = -50 exhausts the six trial steps; the recorded
        # increment must be the move of the last trial, not half of it
        rho = -50.0
        b65 = fd_solve(CoreParams(rho=rho, eps=1.0, tol_fp=1e-11, max_iter=65), grid=grid257)
        b66 = fd_solve(CoreParams(rho=rho, eps=1.0, tol_fp=1e-11, max_iter=66), grid=grid257)
        assert not b66.converged and not b66.diverged
        moved = max(np.max(np.abs(b66.U.values - b65.U.values)), abs(rho * (b66.r - b65.r)))
        assert b66.increments[65] == pytest.approx(moved, rel=1e-9)

    def test_converges_far_from_linear_limit(self, grid257):
        b = fd_solve(CoreParams(rho=60.0, eps=1.0, **FD), grid=grid257)
        assert b.converged

    @pytest.mark.parametrize("n_nodes", [9, 257])
    def test_jacobian_assembly(self, n_nodes):
        # the banded core, border and corner, with the stencil and border
        # of the grid's FD layout, against the dense Jacobian, whose
        # unknowns (Re u, Im u, Re lam, Im lam) are reordered to the
        # interleaved (Re u_i, Im u_i) per node
        grid = make_grid(n_nodes)
        ni = n_nodes - 2
        rho = 3.0 + 2.0j
        rng = np.random.default_rng(n_nodes)
        order = np.append(np.stack([np.arange(ni), ni + np.arange(ni)], axis=1).ravel(),
                          [2 * ni, 2 * ni + 1])
        pattern = None
        for _ in range(2):
            u = rng.standard_normal(ni) + 1j * rng.standard_normal(ni)
            lam = complex(rng.standard_normal(), rng.standard_normal())
            system = _fd_newton_system(u, (u * u.conjugate()).real, lam, rho,
                                       *_fd_layout(grid)[1:])
            dense = _dense_fd_jacobian(grid, u, lam, rho)[np.ix_(order, order)]
            got = _bordered_dense(*system)
            assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))
            # the same band layout at every pass
            now = (system[0].shape, system[1], system[2])
            if pattern is not None:
                assert now == pattern
            pattern = now


def _bordered_dense(ab, kl, ku, cols, rows, corner):
    """The dense matrix [[A, cols], [rows, corner]] of a bordered band
    system, reading A from spsolve's LU band storage ab[kl + ku + i - j, j]."""
    n = ab.shape[1]
    mat = np.zeros((n + 2, n + 2))
    for i in range(n):
        for j in range(max(0, i - kl), min(n, i + ku + 1)):
            mat[i, j] = ab[kl + ku + i - j, j]
    mat[:n, n:], mat[n:, :n], mat[n:, n:] = cols, rows, corner
    return mat


def _random_bordered(rng, n, kl, ku):
    """A random bordered system, its core in spsolve's LU band storage: a
    Fortran-ordered (2 kl + ku + 1, n) array whose first kl rows are zero."""
    ab = np.zeros((2 * kl + ku + 1, n), order="F")
    ab[kl:] = rng.standard_normal((kl + ku + 1, n))
    ab[kl + ku] += 4.0 * (kl + ku)  # a diagonally dominant core
    return (ab, kl, ku, rng.standard_normal((n, 2)), rng.standard_normal((2, n)),
            rng.standard_normal((2, 2)))


def _is_nan_solve(solved):
    """A singular solve: a solution of nan and no factors to re-solve with."""
    x, resolve = solved
    return bool(np.all(np.isnan(x))) and resolve is None


class TestBorderedSolve:
    @pytest.mark.parametrize("kl,ku,n", [(2, 2, 40), (5, 2, 62)])
    def test_matches_dense(self, kl, ku, n):
        rng = np.random.default_rng(n)
        for _ in range(3):
            system = _random_bordered(rng, n, kl, ku)
            rhs = rng.standard_normal(n + 2)
            ref = np.linalg.solve(_bordered_dense(*system), rhs)
            got = spsolve(*system, rhs)[0]
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kl,ku,n", [(2, 2, 40), (5, 2, 62)])
    def test_singular_core_regular_border(self, kl, ku, n):
        # the core annihilates a known vector phi, as the phase symmetry
        # makes the Newton core singular at every solution; the bordered
        # matrix stays regular and the solve must match the dense one
        rng = np.random.default_rng(n + 1)
        ab, kl, ku, cols, rows, corner = _random_bordered(rng, n, kl, ku)
        phi = 1.0 + rng.random(n)
        core = _bordered_dense(ab, kl, ku, cols, rows, corner)[:n, :n]
        ab[kl + ku] -= core @ phi / phi
        mat = _bordered_dense(ab, kl, ku, cols, rows, corner)
        assert np.max(np.abs(mat[:n, :n] @ phi)) <= 1e-12 * np.max(np.abs(mat))
        rhs = rng.standard_normal(n + 2)
        ref = np.linalg.solve(mat, rhs)
        got = spsolve(ab, kl, ku, cols, rows, corner, rhs)[0]
        assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_singular_reported_as_nan(self):
        rng = np.random.default_rng(3)
        ab, kl, ku, cols, rows, corner = _random_bordered(rng, 20, 2, 2)
        rhs = rng.standard_normal(22)
        zero_column = ab.copy()
        zero_column[:, 7] = 0.0
        assert _is_nan_solve(spsolve(zero_column, kl, ku, cols, rows, corner, rhs))
        # a regular core with zero border: the Schur complement is singular
        zeros = np.zeros((20, 2))
        assert _is_nan_solve(spsolve(ab, kl, ku, zeros, zeros.T, np.zeros((2, 2)), rhs))


def _parent_spsolve(ab, kl, ku, cols, rows, corner, rhs):
    """spsolve as it stood before it factored LU band storage in place, the
    oracle of TestParentOracle: A in compact band storage ab[ku + i - j, j]
    copied into a fresh LU array, the 2 x 2 systems through np.linalg and
    the right-hand sides stacked by np.column_stack."""
    gbtrf, gbtrs = direct._gb_lapack()
    n = ab.shape[1]
    lu = np.zeros((2 * kl + ku + 1, n), order="F")
    lu[kl:] = ab
    lu, piv, info = gbtrf(lu, kl, ku, overwrite_ab=1)
    if info != 0:
        return np.full(n + 2, np.nan)
    f = rhs[:n]
    v = gbtrs(lu, kl, ku, rows.T, piv, trans=1)[0]
    try:
        with np.errstate(all="ignore"):
            q = np.linalg.eigh(v.T @ v)[1].T
            rows, corner, g = q @ rows, q @ corner, q @ rhs[n:]
            v = np.column_stack([gbtrs(lu, kl, ku, rows[0], piv, trans=1)[0], v @ q[1]])
            t1 = np.linalg.solve(corner - v.T @ cols, g - f @ v)
            sol = gbtrs(lu, kl, ku, np.column_stack([f - cols @ t1, cols]), piv)[0]
            x, w = sol[:, 0], sol[:, 1:]
            t2 = np.linalg.solve(corner - rows @ w, g - rows @ x - corner @ t1)
            return np.concatenate([x - w @ t2, t1 + t2])
    except np.linalg.LinAlgError:
        return np.full(n + 2, np.nan)


def _recorded_systems(run):
    """Copies of the arguments of every spsolve call that run() makes."""
    systems = []
    real = direct.spsolve

    def recording(*system):
        systems.append(tuple(np.array(a, order="K") if isinstance(a, np.ndarray) else a
                             for a in system))
        return real(*system)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(direct, "spsolve", recording)
        run()
    return systems


def _random_systems():
    """Random (2, 2) and (5, 2) bordered systems: regular, with a singular
    core and a regular border, with a zero core column, and with a zero
    border, whose 2 x 2 system is singular."""
    systems = []
    for kl, ku, n in ((2, 2, 40), (5, 2, 62)):
        rng = np.random.default_rng(100 + n)
        for case in ("regular", "regular", "regular", "singular_core", "zero_column",
                     "zero_border"):
            ab, kl, ku, cols, rows, corner = _random_bordered(rng, n, kl, ku)
            if case == "singular_core":
                phi = 1.0 + rng.random(n)
                ab[kl + ku] -= _bordered_dense(ab, kl, ku, cols, rows, corner)[:n, :n] @ phi / phi
            elif case == "zero_column":
                ab[:, n // 3] = 0.0
            elif case == "zero_border":
                cols, rows, corner = np.zeros((n, 2)), np.zeros((2, n)), np.zeros((2, 2))
            systems.append((ab, kl, ku, cols, rows, corner, rng.standard_normal(n + 2)))
    return systems


def _ray_systems():
    """The FD Newton systems of the warm pi/12 ray to |rho| = 200.

    The third point starts from the secant predictor of the two before it
    and every later point from the quadratic predictor of the three before
    it.  On most points the last pass is the simplified correction, solved
    through the factors of the pass before it, so the ray makes fewer
    factorizations than it takes passes."""
    spec = SweepSpec(mode="modulus_sweep", method="finite_difference", ray_arg=np.pi / 12,
                     mod_min=1.0, mod_max=200.0, mod_steps=32, warm_start=True)
    systems = _recorded_systems(lambda: run_sweep(spec))
    assert len(systems) == RAY_FD_FACTORIZATIONS
    return systems


def _verify_systems():
    """The Newton systems of verify's warm starts at the 10 criterion-6
    points, of shooting and of FD, whose passes end on the simplified
    correction, through factors already made, at some points."""
    grid = make_grid(257)

    def run():
        for rho in CRITERION6_POINTS:
            fp = solve("fixed_point", rho, 1.0, grid)
            solve("shooting", rho, 1.0, grid, trail=(fp,))
            solve("finite_difference", rho, 1.0, grid, trail=(fp,))

    systems = _recorded_systems(run)
    assert sorted({s[1] for s in systems}) == [2, 5]
    assert len(systems) == VERIFY_WORK["warm"]["factorizations"]
    return systems


_SYSTEMS = {"random": _random_systems, "ray": _ray_systems, "verify": _verify_systems}


@pytest.fixture(scope="module", params=list(_SYSTEMS))
def systems(request):
    return _SYSTEMS[request.param]()


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


class TestParentOracle:
    """spsolve on LU band storage, with buffers it owns and numpy's 2 x 2
    gufuncs called directly, against the plain parent solve: the same
    bits on the systems that occur, and on random ones."""

    def test_spsolve_bitwise_equal_to_parent(self, systems):
        for ab, kl, ku, *rest in systems:
            ref = _parent_spsolve(ab[kl:], kl, ku, *rest)
            got = spsolve(ab.copy(order="F"), kl, ku, *rest)[0]
            assert _bits(got) == _bits(ref)

    def test_lu_storage_consumed_in_place(self):
        ab, kl, ku, *rest = _random_systems()[0]
        lu = ab.copy(order="F")
        spsolve(lu, kl, ku, *rest)
        factored = direct._gb_lapack()[0](ab.copy(order="F"), kl, ku)[0]
        assert lu.tobytes() == factored.tobytes()

    def test_resolve_through_held_factors(self, systems):
        # the factors spsolve returns solve its own right-hand side again
        # to the bit, and another one as a dense solve of the bordered
        # system does; a singular system holds no factors
        rng = np.random.default_rng(38)
        held = 0
        for ab, kl, ku, cols, rows, corner, rhs in systems:
            x, resolve = spsolve(ab.copy(order="F"), kl, ku, cols, rows, corner, rhs)
            if resolve is None:
                assert np.all(np.isnan(x))
                continue
            held += 1
            assert _bits(resolve(rhs)) == _bits(x)
            other = rng.standard_normal(len(rhs))
            ref = np.linalg.solve(_bordered_dense(ab, kl, ku, cols, rows, corner), other)
            assert np.max(np.abs(resolve(other) - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert held > 0

    def test_gufuncs_bitwise_equal_to_linalg(self, systems, monkeypatch):
        # every 2 x 2 system spsolve meets: eigh_lo and solve1 against
        # np.linalg.eigh and np.linalg.solve; where solve raises, solve1's
        # result is not finite
        calls = {"eigh": 0, "solve": 0, "singular": 0}
        real_eigh_lo, real_solve1 = direct._eigh_lo, direct._solve1

        def eigh_lo(a, signature):
            w, vt = real_eigh_lo(a, signature=signature)
            ref = np.linalg.eigh(a)
            assert (_bits(w), _bits(vt)) == (_bits(ref[0]), _bits(ref[1]))
            calls["eigh"] += 1
            return w, vt

        def solve1(a, b, signature):
            x = real_solve1(a, b, signature=signature)
            try:
                assert _bits(x) == _bits(np.linalg.solve(a, b))
                calls["solve"] += 1
            except np.linalg.LinAlgError:
                assert not np.all(np.isfinite(x))
                calls["singular"] += 1
            return x

        monkeypatch.setattr(direct, "_eigh_lo", eigh_lo)
        monkeypatch.setattr(direct, "_solve1", solve1)
        for ab, *rest in systems:
            spsolve(ab.copy(order="F"), *rest)
        assert calls["eigh"] > 0 and calls["solve"] + calls["singular"] == 2 * calls["eigh"]

    def test_gufuncs_exported_for_float64(self):
        # private numpy API: every numpy the package accepts must export both
        # gufuncs with the float64 loops spsolve asks for
        from numpy.linalg import _umath_linalg

        assert "d->dd" in _umath_linalg.eigh_lo.types
        assert "dd->d" in _umath_linalg.solve1.types
        assert _umath_linalg.eigh_lo.signature == "(m,m)->(m),(m,m)"
        assert _umath_linalg.solve1.signature == "(m,m),(m)->(m)"


class TestBandedLapack:
    """direct._gb_lapack loads scipy's compiled LAPACK module by itself; its
    pair must be scipy.linalg.lapack's own dgbtrf and dgbtrs, bit for bit."""

    def test_loads_scipys_own_module_file(self):
        from scipy.linalg import _flapack

        env = dict(os.environ, PYTHONPATH=str(Path(direct.__file__).parent.parent))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from cglvortex import direct; direct._gb_lapack(); "
             "print(sys.modules['scipy.linalg._flapack'].__file__)"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == _flapack.__file__

    def test_missing_module_names_version_and_folder(self, monkeypatch):
        import importlib.machinery
        from importlib.metadata import version

        from scipy.linalg import _flapack

        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        with pytest.raises(ImportError) as err:
            direct._gb_lapack.__wrapped__()
        assert f"scipy {version('scipy')}" in str(err.value)
        assert str(Path(_flapack.__file__).parent) in str(err.value)

    # the two band shapes in use: FD (2, 2) and shooting (5, 2)
    @pytest.mark.parametrize("kl,ku,n", [(2, 2, 40), (5, 2, 62)])
    @pytest.mark.parametrize("singular", [False, True])
    def test_bitwise_equal_to_scipy_linalg(self, kl, ku, n, singular):
        from scipy.linalg import lapack

        rng = np.random.default_rng(n + singular)
        ab = _random_bordered(rng, n, kl, ku)[0][kl:]  # the band rows
        if singular:
            ab[:, n // 2] = 0.0  # a zero column: gbtrf reports info > 0
        rhs = rng.standard_normal((n, 3))
        results = []
        for gbtrf, gbtrs in (direct._gb_lapack(), (lapack.dgbtrf, lapack.dgbtrs)):
            lu = np.zeros((2 * kl + ku + 1, n), order="F")
            lu[kl:] = ab
            lu, piv, info = gbtrf(lu, kl, ku)
            solves = [] if info else [gbtrs(lu, kl, ku, rhs, piv, trans=t) for t in (0, 1)]
            results.append((lu, piv, info, solves))
        (lu, piv, info, solves), (lu_ref, piv_ref, info_ref, solves_ref) = results
        assert (info > 0) == singular and info == info_ref
        assert lu.tobytes() == lu_ref.tobytes() and piv.tobytes() == piv_ref.tobytes()
        assert len(solves) == (0 if singular else 2)
        for (x, x_info), (x_ref, x_info_ref) in zip(solves, solves_ref):
            assert x_info == x_info_ref == 0 and x.tobytes() == x_ref.tobytes()


class TestCompareBranches:
    def test_self_distance_zero(self, grid257):
        b = fixed_point_solve(CoreParams(rho=1.0, eps=0.5), grid=grid257)
        assert compare_branches(b, b) == 0

    @pytest.mark.parametrize("angle", [0.7, 3.0, -2.5])
    def test_phase_rotation_aligned(self, grid257, angle):
        rho = 1.2 + 0.3j
        b1 = fixed_point_solve(CoreParams(rho=rho, eps=0.5), grid=grid257)
        b2 = fixed_point_solve(CoreParams(rho=rho, eps=0.5 * np.exp(1j * angle)),
                               grid=grid257)
        assert compare_branches(b1, b2) < 1e-11

    def test_symmetric_on_one_grid(self, grid257):
        params = CoreParams(rho=2.0 + 0.5j, eps=1.0, **FD)
        fp = fixed_point_solve(params, grid=grid257)
        fd = fd_solve(params, grid=grid257)
        d = compare_branches(fp, fd)
        assert d > 0
        assert abs(d - compare_branches(fd, fp)) <= 1e-15

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

    def test_nonconverged_rejected_before_grids(self, grid257):
        # the branches are checked before their grids, which do not nest here
        good = fixed_point_solve(CoreParams(rho=1.0, eps=0.5), grid=grid257)
        bad = fixed_point_solve(CoreParams(rho=3.5, eps=1.0, max_iter=5), grid=make_grid(101))
        assert not bad.converged
        for pair in ((good, bad), (bad, good)):
            with pytest.raises(InvalidState):
                compare_branches(*pair)

    @pytest.mark.parametrize("coarse,fine", [(129, 257), (129, 513), (257, 513)])
    def test_nested_grids_meet_on_coarse_nodes(self, coarse, fine):
        # one distance in both argument orders, taken at the coarse nodes
        rho, eps = 0.9 + 0.2j, 0.6
        bc, bf = (fixed_point_solve(CoreParams(rho=rho, eps=eps), grid=make_grid(n))
                  for n in (coarse, fine))
        d = compare_branches(bc, bf)
        assert 0 < d < 1e-8
        assert abs(d - compare_branches(bf, bc)) <= 1e-15
        # the fine nodes that coincide with the coarse ones
        shared = np.isclose(bf.grid.nodes[:, None], bc.grid.nodes[None, :], rtol=0, atol=1e-14)
        rows, cols = np.nonzero(shared)
        assert np.array_equal(cols, np.arange(coarse))
        u1, u2 = bc.U.values, bf.U.values[rows]
        theta = np.angle(np.sum(np.conj(u2) * u1))
        expected = max(np.abs(u1 - np.exp(1j * theta) * u2).max(), abs(bc.r - bf.r))
        assert abs(d - expected) <= 1e-15

    def test_grids_that_do_not_nest_rejected(self, grid257):
        # 256 intervals are not a multiple of 100
        b257, b101 = (fixed_point_solve(CoreParams(rho=1.0, eps=0.5), grid=grid)
                      for grid in (grid257, make_grid(101)))
        for pair in ((b257, b101), (b101, b257)):
            with pytest.raises(InvalidArgument, match="do not nest"):
                compare_branches(*pair)


class TestWarmFromFixedPoint:
    """verify starts shooting and FD from the converged fixed-point branch:
    the warm start reaches the cold start's branch in no more steps."""

    @pytest.mark.parametrize("rho", CRITERION6_POINTS)
    def test_warm_matches_cold(self, grid257, rho):
        fp = solve("fixed_point", rho, 1.0, grid257)
        assert fp.converged
        for method in ("shooting", "finite_difference"):
            cold = solve(method, rho, 1.0, grid257)
            warm = solve(method, rho, 1.0, grid257, trail=(fp,))
            assert cold.converged and warm.converged, method
            assert warm.iterations <= cold.iterations, method
            assert compare_branches(cold, warm) <= 1e-11, method

    @pytest.mark.parametrize("start", ["warm", "cold"])
    def test_work_count(self, grid257, monkeypatch, start):
        # the work at the 10 points, which does not depend on the machine:
        # shooting Newton steps, FD passes, linear solves, RK4 runs with and
        # without tangents, and FD system builds.  Warm is sweep.verify,
        # which must pass; cold starts from eps cos x.  A line-search trial integrates
        # the trajectory alone, and only a trial taken without converging
        # gets its tangent lanes; the Newton driver that both solvers share
        # builds a system only for an iterate that takes a step.  FD ends
        # on the simplified correction through the last pass's factors,
        # a pass with no system of its own, at 5 warm and 7 cold points
        calls = Counter()

        def count(name):
            real = getattr(direct, name)

            def counted(*args, **kwargs):
                calls[name, kwargs.get("tangents")] += 1  # _rk4_lanes takes it by keyword
                return real(*args, **kwargs)

            monkeypatch.setattr(direct, name, counted)

        for name in ("spsolve", "_fd_newton_system", "_rk4_lanes"):
            count(name)
        iterations = Counter()

        def solving(method, *args, **kwargs):
            branch = solve(method, *args, **kwargs)
            iterations[method] += branch.iterations
            return branch

        monkeypatch.setattr(sweep, "solve", solving)
        for rho in CRITERION6_POINTS:
            if start == "warm":
                result = sweep.verify(rho, 1.0 + 0.0j, grid257)
                assert result.passed, [c for c in result.checks if not c.passed]
            else:
                for method in ("shooting", "finite_difference"):
                    solving(method, rho, 1.0, grid257)
        assert dict(shoot_steps=iterations["shooting"],
                    fd_passes=iterations["finite_difference"],
                    factorizations=calls["spsolve", None],
                    rk4_tangent=calls["_rk4_lanes", True], rk4_plain=calls["_rk4_lanes", False],
                    fd_systems=calls["_fd_newton_system", None]) == VERIFY_WORK[start]
