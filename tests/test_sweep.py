"""Zero census, symmetry diagnostics, sweeps, and emission."""
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cglvortex import (
    CoreParams,
    ExtensionError,
    GridFunction,
    InvalidArgument,
    SweepRecord,
    SweepSpec,
    count_zeros,
    emit_results,
    fd_solve,
    fixed_point_solve,
    load_records,
    make_grid,
    mirror_conjugate,
    record_from_branch,
    run_sweep,
    solve,
    symmetry_defect,
    verify,
)
from cglvortex import direct, reduction, sweep
from cglvortex.sweep import CSV_COLUMNS
from conftest import branch_bits, solve_block


def one_period_nodes(m):
    return -np.pi / 2 + np.arange(m) * (2 * np.pi / m)


def _count_zeros_by_roll(envelope, n):
    """count_zeros with its cyclic neighbours taken by np.roll."""
    v = np.asarray(envelope)
    flips = (v * np.roll(v, -1).conjugate()).real < 0
    vab = np.abs(v)
    dips = (
        (vab < np.roll(vab, 1)) & (vab <= np.roll(vab, -1))
        & (vab <= sweep.ZERO_TOL * np.max(vab)) & ~flips & ~np.roll(flips, 1)
    )
    extra = int(np.count_nonzero(flips) + np.count_nonzero(dips))
    return 2 * n + extra, extra


class TestCountZeros:
    def test_pure_cosine(self):
        assert count_zeros(np.ones(512), 1) == (2, 0)

    def test_cos_3x_as_third_branch(self):
        assert count_zeros(np.ones(1536), 3) == (6, 0)

    def test_vanishing_envelope_detected(self):
        # synthetic envelope sin x vanishes on two samples of the period
        x = one_period_nodes(512)
        assert count_zeros(np.sin(x), 1) == (4, 2)

    def test_zero_between_samples_detected(self):
        # the shifted envelope changes sign between samples and never dips
        # below ZERO_TOL: each sign change is one zero
        x = one_period_nodes(512)
        h = x[1] - x[0]
        assert count_zeros(np.sin(x + h / 2), 1) == (4, 2)

    def test_phase_invariance(self):
        x = one_period_nodes(512)
        v = 1 + 0.1 * np.cos(2 * x)
        for theta in (0.0, 0.9, 2.3):
            zc, extra = count_zeros(np.exp(1j * theta) * v, 1)
            assert (zc, extra) == (2, 0)

    def test_zero_field(self):
        assert count_zeros(np.zeros(64, dtype=complex), 1) == (2, 0)

    @pytest.mark.parametrize("envelope, n", [
        (np.ones(4), -2), (np.ones(4), 0), (np.ones(4), 1.5), (np.ones(4), 2**600),
        (np.ones(4), True), (np.array([]), 1), (np.full(4, np.nan), 1),
        (np.array([1.0, np.inf, 1.0]), 1), (np.array([1.0, complex(0, np.nan)]), 1),
        (np.ones((2, 4)), 1), (np.array(1.0), 1),
    ], ids=["n-negative", "n-zero", "n-fraction", "n-square-overflows", "n-bool", "empty",
            "all-nan", "inf-sample", "nan-imaginary", "2-d", "0-d"])
    def test_invalid_input_rejected(self, envelope, n):
        with pytest.raises(InvalidArgument):
            count_zeros(envelope, n)

    def test_numpy_integer_n_accepted(self):
        assert count_zeros(np.ones(8), np.int64(2)) == (4, 0)

    @pytest.mark.parametrize("m", [1, 2, 3, 64, 512])
    def test_matches_rolled_neighbours_on_random_envelopes(self, m):
        rng = np.random.default_rng(m)
        for trial in range(40):
            v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            if trial % 5 == 1:
                v = v.real  # real envelopes with sign changes
            elif trial % 5 == 2:
                v[rng.random(m) < 0.2] = 0.0  # zeros on samples
            elif trial % 5 >= 3:
                # dips below ZERO_TOL, and dips with a sign change on either side
                v = 1.0 + 0.1 * v
                v[rng.random(m) < 0.1] *= 1e-8 if trial % 5 == 3 else -1e-8
            n = 1 + trial % 3
            assert count_zeros(v, n) == _count_zeros_by_roll(v, n)

    @pytest.mark.parametrize(
        "rho, eps, n_nodes", [(-12.0, 1.5, 257), (-4.0, 1.5, 129)]
    )
    def test_fd_sign_changing_envelope_has_extra_zeros(self, rho, eps, n_nodes):
        # FD converges here to envelopes that change sign between nodes
        rec = record_from_branch(solve("finite_difference", rho, eps, make_grid(n_nodes)))
        assert rec.converged
        assert rec.extra_zeros > 0
        assert rec.zero_count == 2 + rec.extra_zeros

    def test_fd_spurious_branch_not_converged(self):
        # kappa = 360 at 129 nodes: the nearby spurious branch (r = 17.63,
        # the true r is 5.5676) does not pass FD's step test, which is
        # absolute in W and in lam = kappa s, and the solve runs to its cap
        rec = record_from_branch(solve("finite_difference", 40.0, 3.0, make_grid(129)))
        assert not rec.converged
        assert rec.iterations == 800
        assert (rec.zero_count, rec.extra_zeros) == (0, 0)


class TestSymmetryDefect:
    def test_even_profile(self, grid257):
        u = GridFunction.from_callable(grid257, np.cos)
        assert symmetry_defect(u) <= 1e-15

    def test_pinned_odd_perturbation(self, grid257):
        x = grid257.nodes
        u = GridFunction(grid257, np.cos(x) + 0.01 * np.sin(2 * x) * np.cos(x))
        expect = float(np.max(np.abs(0.02 * np.sin(2 * x) * np.cos(x))))
        assert symmetry_defect(u) == pytest.approx(expect, rel=1e-12)
        assert expect == pytest.approx(0.0154, abs=2e-4)

    def test_converged_branch_symmetric(self, grid257):
        b = fixed_point_solve(CoreParams(rho=2.0 + 1.0j, eps=1.0, max_iter=400), grid=grid257)
        assert b.converged
        assert symmetry_defect(b.U) <= 1e-8


class TestSweepSpec:
    def test_empty_range_rejected(self):
        with pytest.raises(InvalidArgument):
            SweepSpec(mode="rectangle", re_steps=1)

    def test_step_counts_must_be_integers(self):
        # points() hands each count to linspace, which refuses a float
        for bad in (dict(re_steps=2.5), dict(im_steps=3.0), dict(arg_steps=4.5),
                    dict(mod_steps=float("inf"))):
            with pytest.raises(InvalidArgument, match="sweep steps must be integers"):
                SweepSpec(mode="rectangle", **bad)
        assert SweepSpec(mode="rectangle", re_steps=np.int64(3)).points()[2] == 3.5

    def test_unordered_bounds_rejected(self):
        with pytest.raises(InvalidArgument):
            SweepSpec(mode="rectangle", re_min=2.0, re_max=-2.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidArgument):
            SweepSpec(mode="disk")

    @pytest.mark.parametrize("field,value", [
        ("re_min", float("nan")), ("im_max", float("inf")),
        ("radius", float("nan")), ("arg_max", float("-inf")),
        ("ray_arg", float("nan")), ("mod_max", float("inf")),
        ("eps", complex(1.0, float("nan"))),
    ])
    def test_nonfinite_values_rejected(self, field, value):
        with pytest.raises(InvalidArgument):
            SweepSpec(mode="rectangle", **{field: value})

    @pytest.mark.parametrize("field,value", [("eps", 0.0), ("method", "newton")])
    def test_solver_controls_validated(self, field, value):
        # a sweep that cannot run any solver is refused up front instead of
        # writing a record per point that did not converge
        with pytest.raises(InvalidArgument):
            SweepSpec(mode="rectangle", **{field: value})

    @pytest.mark.parametrize("mode,field,value", [
        ("arg_sweep", "arg_steps", 1), ("arg_sweep", "arg_min", 4.0),
        ("arg_sweep", "radius", 0.0), ("arg_sweep", "radius", -1.0),
        ("modulus_sweep", "mod_steps", 1), ("modulus_sweep", "mod_min", 10.0),
    ])
    def test_ray_and_circle_bounds_rejected(self, mode, field, value):
        # arg_max defaults to pi and mod_max to 9
        with pytest.raises(InvalidArgument):
            SweepSpec(mode=mode, **{field: value})

    def test_rectangle_points_row_major(self):
        spec = SweepSpec(
            mode="rectangle", re_min=0, re_max=1, re_steps=2,
            im_min=0, im_max=1, im_steps=2,
        )
        assert spec.points() == [0j, 1 + 0j, 1j, 1 + 1j]

    def test_arg_points_on_circle(self):
        spec = SweepSpec(mode="arg_sweep", radius=2.0, arg_steps=3,
                         arg_min=0.0, arg_max=np.pi)
        pts = spec.points()
        assert np.allclose([abs(p) for p in pts], 2.0)


class TestRunSweep:
    def test_small_rectangle_all_converge(self):
        # defect is checked at the default grid where the 1e-8 bound applies;
        # the cumulative-rule asymmetry scales as h^4
        spec = SweepSpec(
            mode="rectangle", re_min=-1.0, re_max=1.0, re_steps=3,
            im_min=0.0, im_max=1.0, im_steps=2, n_nodes=257,
        )
        records = run_sweep(spec)
        assert len(records) == 6
        for rec in records:
            assert rec.converged
            assert rec.extra_zeros == 0
            assert rec.zero_count == 2
            assert rec.symmetry_defect <= 1e-8
            assert rec.min_abs_v > 0.5

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_deterministic(self, tmp_path, fmt):
        spec = SweepSpec(
            mode="modulus_sweep", mod_min=0.5, mod_max=1.5, mod_steps=3,
            ray_arg=0.3, n_nodes=129,
        )
        p1, p2 = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
        emit_results(run_sweep(spec), fmt, p1)
        emit_results(run_sweep(spec), fmt, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_warm_start_mode(self):
        spec = SweepSpec(
            mode="modulus_sweep", mod_min=1.0, mod_max=3.0, mod_steps=3,
            ray_arg=0.0, n_nodes=129, warm_start=True,
        )
        records = run_sweep(spec)
        assert all(r.converged for r in records)

    def test_shooting_warm_start_no_worse_than_cold(self):
        # warm-started shooting starts every segment from the previous
        # profile, so it converges at least wherever a cold start does
        converged = {}
        for warm in (False, True):
            spec = SweepSpec(
                mode="modulus_sweep", method="shooting", ray_arg=np.pi / 12,
                mod_min=1.0, mod_max=60.0, mod_steps=32, warm_start=warm,
            )
            converged[warm] = {(r.rho_re, r.rho_im) for r in run_sweep(spec) if r.converged}
        assert converged[False] <= converged[True]
        assert len(converged[True]) == 32

    @pytest.mark.parametrize("method, passes", [("finite_difference", 111), ("shooting", 81)])
    def test_warm_ray_work(self, method, passes):
        # the benchmark's ray_fd sweep, and shooting on the same ray: 32
        # points, all converged, in exactly this many Newton passes (FD)
        # or steps (shooting) from the quadratic start; the secant start
        # took 131 and 100, copying the last branch 159 and 127.  FD's
        # simplified last step moved one point from 4 passes to 3 (112
        # before it)
        spec = SweepSpec(mode="modulus_sweep", method=method, ray_arg=np.pi / 12,
                         mod_min=1.0, mod_max=200.0, mod_steps=32, warm_start=True)
        records = run_sweep(spec)
        assert [r.converged for r in records] == [True] * 32
        assert sum(r.iterations for r in records) == passes

    def test_shooting_modulus_sweep_to_nine(self):
        # warm-started shooting along the positive real axis, |rho| = 1..9
        spec = SweepSpec(
            mode="modulus_sweep", method="shooting", mod_min=1.0,
            mod_max=9.0, mod_steps=9, ray_arg=0.0, n_nodes=257,
            warm_start=True,
        )
        records = run_sweep(spec)
        assert all(r.converged for r in records)
        assert all(r.extra_zeros == 0 for r in records)


def _sweep_params(rhos):
    return [CoreParams(rho=rho, eps=1.0, max_iter=sweep.SOLVE_MAX_ITER, tol_fp=sweep.SOLVE_TOL)
            for rho in rhos]


@pytest.fixture(scope="module")
def rectangle_one_row():
    """The default rectangle's params and the one-row solve of each point."""
    params = _sweep_params(SweepSpec(mode="rectangle").points())
    grid = make_grid(257)
    return params, [branch_bits(fixed_point_solve(p, grid=grid)) for p in params]


class TestColdFixedPointBlocks:
    # a cold fixed-point sweep solves its points in one rolling block; every
    # point must get the bits of its own one-row solve, whatever rows it
    # shares the block with and whenever it enters

    def test_rectangle_points_match_one_row_solves(self, rectangle_one_row, monkeypatch):
        params, one_row = rectangle_one_row
        assert sum(dict(b)["accelerated_at"] is not None for b in one_row) == 14
        branches = []
        solve_point = sweep.fixed_point_solve

        def keep(*args, **kwargs):
            branches.append(solve_point(*args, **kwargs))
            return branches[-1]

        monkeypatch.setattr(sweep, "fixed_point_solve", keep)
        for width in (1, 4, 7, 16, 24, 105):
            monkeypatch.setattr(sweep, "FP_BLOCK", width)
            branches.clear()
            run_sweep(SweepSpec(mode="rectangle"))
            assert [branch_bits(b) for b in branches] == one_row, width

    @pytest.mark.parametrize("size", [1, 4, 7, 16, 24, 32, 105])
    def test_order_and_block_split_change_no_bit(self, rectangle_one_row, size):
        params, one_row = rectangle_one_row
        block = solve_block(params[::-1], make_grid(257), width=size)
        assert [branch_bits(b) for b in block[::-1]] == one_row

    def test_rows_that_enter_late_keep_their_own_counts(self, grid257):
        # a block of 3 rows: each ending row enters after fast rows have left,
        # so the block has run maps before its first; the ending rows overflow,
        # switch to Anderson and converge, diverge under Anderson without
        # progress, and run out of iterations
        overflow, anderson, no_progress, capped = -20 + 5j, 3.5, 15 * np.exp(1.2j), 2 + 0.5j
        rhos = [0.5, 0.5j, 1.0, -1.0 + 0.3j, overflow, 0.5, anderson, 0.5j, no_progress,
                1.0, capped, 0.3 + 0.2j]
        params = _sweep_params(rhos)
        params[rhos.index(capped)] = CoreParams(rho=capped, eps=1.0, max_iter=5)
        block = solve_block(params, grid257, width=3)
        for b, p in zip(block, params):
            alone = fixed_point_solve(p, grid=grid257)
            assert (b.iterations, b.accelerated_at) == (alone.iterations, alone.accelerated_at)
            assert branch_bits(b) == branch_bits(alone)
        got = {b.params.rho: b for b in block}
        assert got[overflow].diverged and got[overflow].accelerated_at is None
        assert got[anderson].converged and got[anderson].accelerated_at is not None
        assert got[no_progress].diverged and got[no_progress].accelerated_at is not None
        assert got[no_progress].iterations == (got[no_progress].accelerated_at
                                               + reduction.ANDERSON_PATIENCE)
        assert not got[capped].converged and got[capped].iterations == 5

    def test_finished_branches_waiting_are_bounded(self, grid257, monkeypatch):
        # a slow first row (Anderson) ahead of 60 fast ones: no row enters
        # while width built Branches wait to be handed over, so at most
        # width - 1 more finish before the slow row leaves
        built, handed, waiting = [], [], []
        for name in ("_branch", "_diverged_branch"):
            def counted(*args, build=getattr(reduction, name), **kwargs):
                built.append(build(*args, **kwargs))
                waiting.append(len(built) - len(handed))
                return built[-1]

            monkeypatch.setattr(reduction, name, counted)
        params = _sweep_params([3.5] + [0.1 * (1 + k % 7) + 0.05j * k for k in range(60)])
        for width in (4, 16):
            del built[:], handed[:], waiting[:]
            block = reduction._block_rows(params, grid257, width=width)
            for p in params:
                handed.append(fixed_point_solve(p, block=block))
            assert width < max(waiting) <= 2 * width - 1
            assert sorted(map(id, handed)) == sorted(map(id, built))  # each built one handed
            assert next(block, None) is None

    def test_a_block_hands_over_in_order_only(self, grid257):
        # the block's next Branch goes only to its own params: a point
        # outside the block (equal but not identical), p a second time, q
        # before p, and a point after the last all raise
        p, q, x = _sweep_params([0.5, 1.0, 0.5])
        for asked in ([x], [p, p], [q], [p, q, p]):
            block = reduction._block_rows([p, q], grid257)
            for y in asked[:-1]:
                fixed_point_solve(y, block=block)
            with pytest.raises(InvalidArgument):
                fixed_point_solve(asked[-1], block=block)

    def test_equal_params_get_a_row_each(self, grid257):
        # rows are handed over in order: equal params, or one params object
        # in two places, are two rows, each handed over once
        p, q = _sweep_params([1.0 + 0.5j, 1.0 + 0.5j])
        assert p == q and p is not q
        for params in ([p, q], [p, p]):
            block = reduction._block_rows(params, grid257)
            first, second = (fixed_point_solve(x, block=block) for x in params)
            assert first is not second
            assert branch_bits(first) == branch_bits(second)
        spec = SweepSpec(mode="rectangle", re_min=1.0, re_max=1.0, re_steps=3, im_steps=2,
                         n_nodes=65)
        records = run_sweep(spec)
        assert records[:3] == [records[0]] * 3 and records[3:] == [records[3]] * 3
        assert records[0] == record_from_branch(solve("fixed_point", 1.0, 1.0, make_grid(65)))

    def test_default_rectangle_work(self, monkeypatch):
        # one rolling block of 24: 109 block maps carry the 2,197 row maps
        # of the 105 one-row solves (158 in a rolling block of 16, 233 in
        # chunks of 16)
        assert sweep.FP_BLOCK == 24
        maps = []
        green_pair = reduction._green_pair

        def counted(f, grid, *out_work):
            maps.append(1 if f.ndim == 1 else len(f))
            return green_pair(f, grid, *out_work)

        monkeypatch.setattr(reduction, "_green_pair", counted)
        run_sweep(SweepSpec(mode="rectangle"))
        assert len(maps) == 109
        assert sum(maps) == 2197

    def test_block_maps_write_into_the_blocks_arrays(self, grid257, monkeypatch):
        # after its first map, a map of B >= 2 rows allocates no (B, n)
        # array: every step writes into the work arrays that the block
        # allocated when it started.  The traced peak runs from the start of
        # one map's forcing to the next's, so it takes the whole map and its
        # bookkeeping; four equal rows end together, so no Branch is built
        # in between.  numpy's iterator takes a buffer of up to its bufsize
        # elements (8192 by default, B n here) for a step that broadcasts a
        # table over the rows; the smallest bufsize keeps those out of the
        # measure.  Every forcing lies in one array, and the map's output
        # pair takes turns between two
        rows, n = 4, grid257.n_nodes
        params = _sweep_params([1.0 + 0.5j] * rows)
        peaks, forcings, pairs = [], [], []
        cubic, green_pair = reduction._cubic_forcing, reduction._green_pair

        def traced_cubic(*args):
            peaks.append(tracemalloc.get_traced_memory()[1] - start[0])
            tracemalloc.reset_peak()
            start[0] = tracemalloc.get_traced_memory()[0]
            forcings.append(cubic(*args))
            return forcings[-1]

        def kept_pair(*args):
            pairs.append(green_pair(*args))
            return pairs[-1]

        monkeypatch.setattr(reduction, "_cubic_forcing", traced_cubic)
        monkeypatch.setattr(reduction, "_green_pair", kept_pair)
        start = [0]
        bufsize = np.setbufsize(16)
        tracemalloc.start()
        try:
            block = solve_block(params, grid257)
        finally:
            tracemalloc.stop()
            np.setbufsize(bufsize)
        maps = block[0].iterations + 1
        assert len(peaks) == maps > 10 and all(b.iterations + 1 == maps for b in block)
        assert max(peaks[2:]) < rows * n * 16  # peaks[k] is map k's
        assert all(p.shape == (2, rows, n) for p in pairs)
        assert all(np.shares_memory(f, forcings[0]) for f in forcings)
        assert all(np.shares_memory(p, q) for p, q in zip(pairs, pairs[2:]))
        assert not any(np.shares_memory(p, q) for p, q in zip(pairs, pairs[1:]))
        # what a Branch keeps owns its memory
        assert all(gf.values.flags.owndata for b in block for gf in (b.w, b.v, b.U))

    def test_block_maps_run_under_the_library_buffer_size(self, grid257, monkeypatch):
        # the trace above with numpy's buffer size left as the caller has it:
        # fixed_point_solve runs every block map under UFUNC_BUFSIZE, which
        # keeps the iterator's buffers below one (B, n) array
        rows, n = 4, grid257.n_nodes
        params = _sweep_params([1.0 + 0.5j] * rows)
        peaks, sizes = [], []
        cubic = reduction._cubic_forcing

        def traced_cubic(*args):
            peaks.append(tracemalloc.get_traced_memory()[1] - start[0])
            tracemalloc.reset_peak()
            start[0] = tracemalloc.get_traced_memory()[0]
            sizes.append(np.getbufsize())
            return cubic(*args)

        monkeypatch.setattr(reduction, "_cubic_forcing", traced_cubic)
        start = [0]
        bufsize = np.getbufsize()
        tracemalloc.start()
        try:
            block = solve_block(params, grid257)
        finally:
            tracemalloc.stop()
        maps = block[0].iterations + 1
        assert len(peaks) == maps > 10
        assert max(peaks[2:]) < rows * n * 16  # peaks[k] is map k's
        assert set(sizes) == {reduction.UFUNC_BUFSIZE} and np.getbufsize() == bufsize

    def test_ending_rows_leave_their_neighbours(self, grid257):
        # plain overflow, Anderson growth, Anderson without progress and a
        # row that runs out of iterations, each between converging rows
        rhos = [1.0, -20 + 5j, 3.5, 23 * np.exp(1.2j), 0.5j, 15 * np.exp(1.2j), 2 + 1j]
        params = _sweep_params(rhos)
        params[-1] = CoreParams(rho=2 + 1j, eps=1.0, max_iter=5)
        block = solve_block(params, grid257)
        assert [b.diverged for b in block] == [False, True, False, True, False, True, False]
        assert [b.converged for b in block] == [True, False, True, False, True, False, False]
        assert block[3].accelerated_at is not None and block[5].accelerated_at is not None
        assert block[-1].iterations == 5
        for b, p in zip(block, params):
            assert branch_bits(b) == branch_bits(fixed_point_solve(p, grid=grid257))

    def test_each_point_is_solved_in_its_own_call(self, monkeypatch):
        # a cold sweep still solves point by point through the name
        # sweep.fixed_point_solve, each call followed by its record, so a
        # wrapper under that name sees every point and its share of the work
        calls = []
        solve_point, record = sweep.fixed_point_solve, sweep.record_from_branch

        def spy_solve(params, *args, **kwargs):
            calls.append(("solve", params.rho))
            return solve_point(params, *args, **kwargs)

        def spy_record(branch):
            calls.append(("record", branch.params.rho))
            return record(branch)

        monkeypatch.setattr(sweep, "fixed_point_solve", spy_solve)
        monkeypatch.setattr(sweep, "record_from_branch", spy_record)
        spec = SweepSpec(mode="arg_sweep", radius=2.0, arg_steps=sweep.FP_BLOCK + 3, n_nodes=65)
        run_sweep(spec)
        assert calls == [(kind, rho) for rho in spec.points() for kind in ("solve", "record")]

    def test_sweep_records_match_one_row_solves(self, monkeypatch, tmp_path):
        # run_sweep's blocks against solve(), the per-point path of every
        # other sweep, as emitted CSV bytes (a diverged record's nan cells
        # are not == to themselves), accelerated_at included; 91 of the 99
        # points of the wide rectangle do not converge
        specs = [SweepSpec(mode="arg_sweep", radius=4.0, arg_steps=21, n_nodes=129),
                 SweepSpec(mode="rectangle", re_min=-40.0, re_max=40.0, re_steps=11,
                           im_min=-20.0, im_max=20.0, im_steps=9, n_nodes=33)]

        def csv_bytes(records):
            path = tmp_path / "records.csv"
            emit_results(records, "csv", path)
            return path.read_bytes()

        for spec in specs:
            grid = make_grid(spec.n_nodes)
            one_row = [record_from_branch(solve("fixed_point", rho, spec.eps, grid))
                       for rho in spec.points()]
            assert any(r.accelerated_at is not None for r in one_row)
            for size in (1, 4, 16):
                monkeypatch.setattr(sweep, "FP_BLOCK", size)
                records = run_sweep(spec)
                assert csv_bytes(records) == csv_bytes(one_row), (spec.mode, size)
                assert [r.accelerated_at for r in records] == [r.accelerated_at for r in one_row]
        assert sum(not r.converged for r in one_row) == 91


class TestScopedBufferSize:
    # the fixed-point maps and shooting's RK4 lanes run under
    # reduction.UFUNC_BUFSIZE; the caller's numpy buffer size is what it was
    # after every call, however the call ends

    @pytest.fixture(params=[None, 1024], ids=["default", "caller_1024"])
    def bufsize(self, request):
        before = np.getbufsize()
        if request.param is not None:
            np.setbufsize(request.param)
        try:
            yield np.getbufsize()
        finally:
            np.setbufsize(before)

    def test_default_rectangle(self, bufsize):
        assert len(run_sweep(SweepSpec(mode="rectangle"))) == 105
        assert np.getbufsize() == bufsize

    @pytest.mark.parametrize("method", ["fixed_point", "shooting", "finite_difference"])
    def test_one_solve(self, bufsize, method, grid257):
        assert solve(method, 2.0 + 0.5j, 1.0, grid257).converged
        assert np.getbufsize() == bufsize

    def test_verify(self, bufsize, grid257):
        assert verify(2.0 + 0.5j, 1.0, grid257).passed
        assert np.getbufsize() == bufsize

    def test_block_closed_early(self, bufsize, grid257):
        params = _sweep_params([1.0 + 0.5j, 2.0, 0.5j])
        block = reduction._block_rows(params, grid257, width=2)
        assert fixed_point_solve(params[0], block=block).converged
        assert np.getbufsize() == bufsize
        block.close()
        assert np.getbufsize() == bufsize

    def test_block_whose_row_raises(self, bufsize, grid257, monkeypatch):
        cubic, calls = reduction._cubic_forcing, []

        def failing_cubic(*args):
            calls.append(np.getbufsize())
            if len(calls) == 3:
                raise RuntimeError("map failed")
            return cubic(*args)

        monkeypatch.setattr(reduction, "_cubic_forcing", failing_cubic)
        with pytest.raises(RuntimeError, match="map failed"):
            solve_block(_sweep_params([1.0 + 0.5j, 2.0]), grid257)
        assert calls == [reduction.UFUNC_BUFSIZE] * 3
        assert np.getbufsize() == bufsize


class TestSolve:
    def test_fixed_point_accelerates_at_edge(self, grid257, monkeypatch):
        # plain iteration oscillates with period two at the rectangle edge;
        # one fixed-point call switches to Anderson and converges
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fixed_point_solve(*args, **kwargs)

        monkeypatch.setattr(sweep, "fixed_point_solve", counted)
        b = solve("fixed_point", 3.5, 1.0, grid257)
        assert len(calls) == 1
        assert b.converged and b.accelerated_at is not None
        assert b.iterations < 200
        assert b.fp_residual < 5e-12
        assert record_from_branch(b).accelerated_at == b.accelerated_at

    @pytest.mark.parametrize("method", ["fixed_point", "shooting", "finite_difference"])
    def test_prev_matches_warm_sweep(self, method):
        # the second point starts from the first's branch; the third, on
        # the same ray, from the secant 2 b1 - b0 of the two before it; the
        # fourth and fifth from the quadratic of the three before them
        spec = SweepSpec(
            mode="modulus_sweep", method=method, mod_min=1.0, mod_max=2.0,
            mod_steps=5, ray_arg=0.3, n_nodes=129, warm_start=True,
        )
        records = run_sweep(spec)
        grid = make_grid(129)
        rho = spec.points()
        b = [solve(method, rho[0], spec.eps, grid)]
        b.append(solve(method, rho[1], spec.eps, grid, trail=(b[0],)))
        b.append(solve(method, rho[2], spec.eps, grid, trail=(b[1], b[0])))
        for k in (3, 4):
            b.append(solve(method, rho[k], spec.eps, grid, trail=(b[k - 1], b[k - 2], b[k - 3])))
        assert [r.converged for r in records] == [True] * 5
        assert records == [record_from_branch(x) for x in b]
        # the secant start is not the copy of b1, nor the quadratic the secant
        assert branch_bits(b[2]) != branch_bits(solve(method, rho[2], spec.eps, grid,
                                                      trail=(b[1],)))
        secant = solve(method, rho[3], spec.eps, grid, trail=(b[2], b[1]))
        assert branch_bits(b[3]) != branch_bits(secant)

    @pytest.mark.parametrize("method", ["fixed_point", "shooting", "finite_difference"])
    def test_warm_rectangle_copies_across_a_row_jump(self, method):
        # 4 x 2 points: each row's third point extrapolates the secant of
        # the two before it and its fourth the quadratic of the three
        # before it; the first two points of the second row, whose
        # neighbours do not lie on one line with them, copy the last branch
        spec = SweepSpec(
            mode="rectangle", method=method, re_min=-1.0, re_max=1.0, re_steps=4,
            im_min=0.0, im_max=1.0, im_steps=2, n_nodes=129, warm_start=True,
        )
        records = run_sweep(spec)
        grid = make_grid(129)
        p = spec.points()
        b = []
        for row in (0, 4):
            b.append(solve(method, p[row], spec.eps, grid, trail=b[-1:]))
            b.append(solve(method, p[row + 1], spec.eps, grid, trail=(b[-1],)))
            b.append(solve(method, p[row + 2], spec.eps, grid, trail=(b[-1], b[-2])))
            b.append(solve(method, p[row + 3], spec.eps, grid, trail=(b[-1], b[-2], b[-3])))
        assert [r.converged for r in records] == [True] * 8
        assert records == [record_from_branch(x) for x in b]
        # the row jump copies: passing the branches two and three points
        # back changes no bit, at the jump and one point after it
        jump = solve(method, p[4], spec.eps, grid, trail=(b[3], b[2], b[1]))
        assert branch_bits(jump) == branch_bits(b[4])
        after = solve(method, p[5], spec.eps, grid, trail=(b[4], b[3], b[2]))
        assert branch_bits(after) == branch_bits(b[5])

    @pytest.mark.parametrize("method", ["fixed_point", "shooting", "finite_difference"])
    @pytest.mark.parametrize("order", [2, 3])
    def test_start_reproduces_polynomial_data(self, grid257, monkeypatch, method, order):
        # branches whose w, U and r are polynomials of degree order - 1 in
        # the step k along the ray extrapolate to their value at the next
        # step, to rounding: the secant reproduces linear data, the
        # quadratic quadratic data
        rng = np.random.default_rng(order)
        coeffs = [rng.standard_normal((3, 257)) + 1j * rng.standard_normal((3, 257))
                  for _ in range(order)]
        base = solve("fixed_point", 1.0, 1.0, grid257)

        def at(k):  # the data at step k: columns w, U, r of sum_j c_j k^j
            w, u, r = sum(c * k ** j for j, c in enumerate(coeffs))
            return w, u, r[0]

        def branch(k):
            w, u, r = at(k)
            return replace(base, params=replace(base.params, rho=(1.0 + 0.5 * k) * np.exp(0.3j)),
                           w=GridFunction(grid257, w), U=GridFunction(grid257, u), r=r)

        seen = {}

        def capture(params, grid=None, w0=None, seed=None, r0=None):
            seen.update(w0=w0, seed=seed, r0=r0)
            return base

        for name in ("fixed_point_solve", "shoot_solve", "fd_solve"):
            monkeypatch.setattr(sweep, name, capture)
        trail = [branch(k) for k in range(order - 1, -1, -1)]
        solve(method, (1.0 + 0.5 * order) * np.exp(0.3j), 1.0, grid257, trail=trail)
        w, u, r = at(order)
        if method == "fixed_point":
            np.testing.assert_allclose(seen["w0"].values, w, rtol=0, atol=1e-13)
        else:
            np.testing.assert_allclose(seen["seed"].values, u, rtol=0, atol=1e-13)
            assert abs(seen["r0"] - r) <= 1e-13

    def test_warm_arc_copies(self):
        # points on an arc are not equally spaced on a line: every warm
        # point starts from the last converged branch alone
        spec = SweepSpec(mode="arg_sweep", method="finite_difference", radius=2.0,
                         arg_min=0.0, arg_max=1.0, arg_steps=4, n_nodes=129, warm_start=True)
        grid = make_grid(129)
        trail, expected = (), []
        for rho in spec.points():
            b = solve("finite_difference", rho, spec.eps, grid, trail=trail)
            expected.append(record_from_branch(b))
            trail = (b,) if b.converged else trail
        assert run_sweep(spec) == expected

    def test_after_a_failed_point_the_start_is_a_copy(self, monkeypatch):
        # the trail grows by one converged branch per point up to three; the
        # point after a failure starts from the last converged branch alone,
        # and the trail grows again from the next converged point
        spec = SweepSpec(mode="modulus_sweep", method="fixed_point", mod_min=1.0, mod_max=2.0,
                         mod_steps=9, ray_arg=0.3, n_nodes=129, warm_start=True)
        starts, branches = [], []
        real_solve = sweep.solve

        def failing_fifth(method, rho, eps, grid, trail=()):
            starts.append(tuple(trail))
            b = real_solve(method, rho, eps, grid, trail=trail)
            b = replace(b, converged=False) if len(starts) == 5 else b
            branches.append(b)
            return b

        monkeypatch.setattr(sweep, "solve", failing_fifth)
        run_sweep(spec)
        b = branches
        assert [tuple(map(id, s)) for s in starts] == [tuple(map(id, t)) for t in [
            (), (b[0],), (b[1], b[0]), (b[2], b[1], b[0]),
            (b[3], b[2], b[1]),  # the fifth point fails
            (b[3],), (b[5],), (b[6], b[5]), (b[7], b[6], b[5]),
        ]]

    def test_unknown_method_rejected(self, grid257):
        with pytest.raises(InvalidArgument):
            solve("newton", 1.0, 1.0, grid257)

    def test_unconverged_prev_rejected(self, grid257):
        bad = fixed_point_solve(CoreParams(rho=3.5, eps=1.0, max_iter=5), grid=grid257)
        with pytest.raises(InvalidArgument, match=r"trail\[0\] must be a converged branch"):
            solve("fixed_point", 3.5, 1.0, grid257, trail=(bad,))
        # so is an unconverged branch further back in the trail
        b0 = solve("fixed_point", 1.0, 1.0, grid257)
        with pytest.raises(InvalidArgument, match=r"trail\[1\] must be a converged branch"):
            solve("fixed_point", 1.5, 1.0, grid257, trail=(b0, bad))
        b1 = solve("fixed_point", 1.5, 1.0, grid257, trail=(b0,))
        with pytest.raises(InvalidArgument, match=r"trail\[2\] must be a converged branch"):
            solve("fixed_point", 2.0, 1.0, grid257, trail=(b1, b0, bad))

    def test_prev_on_another_grid_rejected(self, grid257):
        # every method refuses to warm-start from a branch of another grid
        b = solve("fixed_point", 1.2, 1.0, make_grid(129))
        assert b.converged
        for method in sweep.METHODS:
            near = solve(method, 1.1, 1.0, grid257)
            for k, trail in ((0, (b,)), (0, (b, near)), (1, (near, b)), (2, (near, near, b))):
                with pytest.raises(InvalidArgument,
                                   match=rf"trail\[{k}\] must live on the solver grid"):
                    solve(method, 1.2, 1.0, grid257, trail=trail)

    def test_trail_of_four_rejected(self, grid257):
        b = solve("fixed_point", 1.0, 1.0, grid257)
        with pytest.raises(InvalidArgument, match="trail holds at most 3 branches"):
            solve("fixed_point", 1.5, 1.0, grid257, trail=(b, b, b, b))


VERIFY_CHECKS = (
    "converged[fixed_point]", "converged[shooting]", "converged[finite_difference]",
    "diff[fp,shoot]", "diff[fp,fd]", "diff[shoot,fd]",
    "mean_free[fixed_point]", "mean_free[shooting]", "mean_free[finite_difference]",
    "solvability[N(w)]", "gauge[r]", "zero_count-2", "extra_zeros", "symmetry_defect",
    "cgl_residual",
)


class TestVerify:
    """sweep.verify, without the CLI."""

    def test_criterion6_point_passes_every_check(self, grid257):
        result = verify(0.5 + 0.5j, 1.0, grid257)
        checks = {check.name: check for check in result.checks}
        assert tuple(checks) == VERIFY_CHECKS
        for name in VERIFY_CHECKS:
            assert checks[name].passed, checks[name]
        assert result.passed
        assert result.skipped == () and result.extension_error is None
        assert [b.method for b in result.branches] == list(sweep.METHODS)
        assert all(b.converged for b in result.branches)

    def test_rho_without_physical_preimage_skips_the_residual(self, grid257):
        result = verify(6.0, 1.0, grid257)
        assert result.skipped == (("cgl_residual", "rho has no physical preimage"),)
        names = [check.name for check in result.checks]
        assert names == list(VERIFY_CHECKS[:-1])

    def test_extension_error_fails_the_residual(self, grid257, capsys):
        result = verify(2.589 + 5.64j, 1.418, grid257)
        assert isinstance(result.extension_error, ExtensionError)
        assert "blocks the periodic extension" in str(result.extension_error)
        [check] = [check for check in result.checks if check.name == "cgl_residual"]
        assert check.value == float("inf") and not check.passed
        assert not result.passed
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("rho", [1e308 + 1e308j, 1.5e308 + 1.5e308j])
    def test_huge_rho_fails_without_raising(self, rho):
        # both parts finite, and at 1.5e308 (1 + i) |rho| past the float
        # range: every solve diverges, and only the three convergence
        # checks are made
        result = verify(rho, 1.0, make_grid(9))
        assert not result.passed
        assert [check.name for check in result.checks] == [
            f"converged[{name}]" for name in sweep.METHODS]
        assert not any(check.passed for check in result.checks)


class TestDivergedRecord:
    # one blow-up of each solver: the fixed point's plain phase overflows at
    # rho = -20 + 5i, where no method converges; shooting escapes at
    # iteration 0 where the RK4 step is unstable; FD escapes after one pass
    # when the Newton solve returns a huge finite step
    @pytest.mark.parametrize("method,rho,eps", [
        ("fixed_point", -20.0 + 5.0j, 1.0),
        ("shooting", 1e-3, 2e6),
        ("finite_difference", 2.0 + 0.5j, 1.0),
    ])
    def test_one_diverged_record(self, grid257, tmp_path, monkeypatch, method, rho, eps):
        if method == "finite_difference":
            monkeypatch.setattr(direct, "spsolve",
                                lambda *system: (np.full_like(system[-1], 1e85), None))
        b = solve(method, rho, eps, grid257)
        assert b.diverged and not b.converged
        assert not np.isfinite(b.r.real) and not np.isfinite(b.r.imag)
        assert not np.any(b.U.values)
        assert b.ode_residual == float("inf")
        if method == "finite_difference":
            # all six trials escape; the sixth, 1/32 of the step, is taken
            # regardless and the escape ends the second pass before its solve
            assert b.iterations == 1 and len(b.increments) == 1
            assert b.increments[0] == pytest.approx(np.hypot(1e85, 1e85) / 32, rel=1e-12)
        path = tmp_path / "diverged.csv"
        emit_results([record_from_branch(b)], "csv", path)
        row = path.read_text().split("\n")[1].split(",")
        assert row[2] == method
        assert row[4:6] == ["nan", "nan"]


def detect_asymmetric(rho, eps, grid):
    """FD seeded with eps cos x plus the odd perturbation 0.1 |eps| sin 2x:
    its record, and whether the branch converged with a symmetry defect
    above 1e-3 times the profile size."""
    seed = GridFunction(grid, eps * grid.cos + 0.1 * abs(eps) * np.sin(2 * grid.nodes))
    branch = fd_solve(CoreParams(rho=rho, eps=eps, tol_fp=1e-11), grid=grid, seed=seed)
    record = record_from_branch(branch)
    flagged = branch.converged and record.symmetry_defect > 1e-3 * branch.U.sup_norm
    return record, flagged


class TestDetectAsymmetric:
    def test_small_real_rho_symmetric(self):
        record, flagged = detect_asymmetric(1.0, 1.0, grid=make_grid(129))
        assert record.converged
        assert not flagged
        assert record.symmetry_defect <= 1e-8

    def test_linear_limit_symmetric(self):
        record, flagged = detect_asymmetric(0.0, 1.0, grid=make_grid(129))
        assert record.converged
        assert not flagged

    def test_near_imaginary_axis_reported_not_asserted(self):
        # symmetry breaking is expected near the imaginary axis at larger
        # moduli; the outcome is recorded, neither presence nor absence is
        # part of the contract
        record, flagged = detect_asymmetric(0.3 + 6.0j, 1.0, grid=make_grid(129))
        assert record.method == "finite_difference"
        assert np.isfinite(record.symmetry_defect) or not record.converged


class TestEmission:
    def _one_record(self):
        return SweepRecord(
            rho_re=1.25, rho_im=-0.5, method="fixed_point", converged=True,
            r_re=0.75, r_im=0.001, iterations=12, zero_count=2, extra_zeros=0,
            symmetry_defect=1e-12, min_abs_v=0.93, ode_residual=2e-9,
        )

    def test_csv_shape(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_results([self._one_record()], "csv", path)
        lines = path.read_text().split("\n")
        assert lines[0].startswith("rho_re,rho_im,method,converged")
        assert len(lines) == 3 and lines[2] == ""
        assert lines[1].split(",")[2] == "fixed_point"

    def test_json_round_trip(self, tmp_path):
        recs = [self._one_record()]
        path = tmp_path / "one.json"
        emit_results(recs, "json", path)
        back = load_records(path, "json")
        assert back == recs

    def _failure_record(self):
        return SweepRecord(
            rho_re=1.25, rho_im=-0.5, method="fixed_point", converged=False,
            r_re=float("nan"), r_im=float("inf"), iterations=0, zero_count=0,
            extra_zeros=0, symmetry_defect=float("nan"),
            min_abs_v=float("inf"), ode_residual=float("nan"),
        )

    def test_json_nonfinite_as_null(self, tmp_path):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        path = tmp_path / "fail.json"
        emit_results([self._failure_record()], "json", path)
        (doc,) = json.loads(path.read_text(), parse_constant=reject)
        for key in ("r_re", "r_im", "symmetry_defect", "min_abs_v", "ode_residual"):
            assert doc[key] is None
        (back,) = load_records(path, "json")
        assert np.isnan(back.r_re) and np.isnan(back.r_im)
        assert np.isnan(back.min_abs_v)

    def test_csv_nonfinite_bytes(self, tmp_path):
        path = tmp_path / "fail.csv"
        emit_results([self._failure_record()], "csv", path)
        assert path.read_bytes().split(b"\n")[1] == (
            b"1.25,-0.5,fixed_point,false,nan,inf,0,0,0,nan,inf,nan"
        )

    def test_csv_round_trip(self, tmp_path):
        recs = [self._one_record()]
        path = tmp_path / "one.csv"
        emit_results(recs, "csv", path)
        back = load_records(path, "csv")
        assert back == recs

    @pytest.mark.parametrize("edit", [
        lambda row: row.rsplit(",", 1)[0], lambda row: row + ",1",
    ], ids=["short", "long"])
    def test_csv_row_width_checked(self, tmp_path, edit):
        path = tmp_path / "two.csv"
        emit_results([self._one_record()] * 2, "csv", path)
        header, first, second = path.read_text().splitlines()
        path.write_text("\n".join([header, first, edit(second)]) + "\n")
        with pytest.raises(InvalidArgument, match="line 3"):
            load_records(path, "csv")

    @pytest.mark.parametrize("column,cell", [
        ("r_re", "abc"), ("converged", "abc"), ("iterations", " 1_2 "), ("iterations", "012"),
        ("r_re", "0_7.5"), ("r_re", "NaN"), ("zero_count", "+2"),
    ])
    def test_csv_bad_cell_named(self, tmp_path, column, cell):
        # a cell that does not read as its column's type names file, line
        # and column; converged is only true or false, and a cell must be
        # the text emit_results writes for the value it reads as, so
        # int() and float()'s spaces, underscores, signs and zeros are refused
        path = tmp_path / "two.csv"
        emit_results([self._one_record()] * 2, "csv", path)
        header, first, second = path.read_text().splitlines()
        cells = second.split(",")
        cells[CSV_COLUMNS.index(column)] = cell
        path.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
        with pytest.raises(InvalidArgument, match=rf"two\.csv line 3, column {column}"):
            load_records(path, "csv")

    @pytest.mark.parametrize("column,cell", [
        ("iterations", 3.5), ("r_re", True), ("zero_count", True), ("method", 5),
        ("converged", "true"), ("converged", 1), ("r_im", "0.5"),
        pytest.param("r_re", 10**400, id="r_re-int_past_float"),
    ])
    def test_json_bad_cell_named(self, tmp_path, column, cell):
        # a JSON cell must already have its column's JSON type: a number or
        # null for a float, an integer for an int, true or false, a string
        path = tmp_path / "two.json"
        emit_results([self._one_record()] * 2, "json", path)
        rows = json.loads(path.read_text())
        rows[1][column] = cell
        path.write_text(json.dumps(rows))
        with pytest.raises(InvalidArgument, match=rf"two\.json row 1, column {column}"):
            load_records(path, "json")

    def test_json_numbers_read_as_floats(self, tmp_path):
        # a float column reads any JSON number, and null as NaN
        path = tmp_path / "one.json"
        emit_results([self._one_record()], "json", path)
        rows = json.loads(path.read_text())
        rows[0].update(r_re=3, r_im=None)
        path.write_text(json.dumps(rows))
        (back,) = load_records(path, "json")
        assert type(back.r_re) is float and back.r_re == 3.0
        assert np.isnan(back.r_im)

    @pytest.mark.parametrize("row", [5, [1.25, -0.5], "fixed_point", None])
    def test_json_row_not_an_object_named(self, tmp_path, row):
        path = tmp_path / "two.json"
        emit_results([self._one_record()] * 2, "json", path)
        rows = json.loads(path.read_text())
        rows[1] = row
        path.write_text(json.dumps(rows))
        with pytest.raises(InvalidArgument, match=r"two\.json row 1: expected an object"):
            load_records(path, "json")

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "one.csv"
        emit_results([self._one_record()], "csv", path)
        header, row = path.read_text().splitlines()
        path.write_text("\n".join([header.replace("r_re", "r_real"), row]) + "\n")
        with pytest.raises(InvalidArgument, match=r"unexpected CSV header in .*one\.csv"):
            load_records(path, "csv")

    @pytest.mark.parametrize("format_", ["CSV", "txt", ""])
    def test_unknown_format_rejected(self, tmp_path, format_):
        path = tmp_path / "one.csv"
        with pytest.raises(InvalidArgument, match="unknown format"):
            emit_results([self._one_record()], format_, path)
        assert not path.exists()
        emit_results([self._one_record()], "csv", path)
        with pytest.raises(InvalidArgument, match="unknown format"):
            load_records(path, format_)

    def test_json_missing_column_named(self, tmp_path):
        path = tmp_path / "two.json"
        emit_results([self._one_record()] * 2, "json", path)
        rows = json.loads(path.read_text())
        del rows[1]["rho_im"]
        path.write_text(json.dumps(rows))
        with pytest.raises(InvalidArgument, match=r"two\.json row 1: missing column rho_im"):
            load_records(path, "json")

    @pytest.mark.parametrize("text", ["rho_re,rho_im\n", "[{]"], ids=["csv", "truncated"])
    def test_json_not_json_named(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(InvalidArgument, match=r"bad\.json is not JSON"):
            load_records(path, "json")

    @pytest.mark.parametrize("format_", ["csv", "json"])
    def test_not_utf8_named(self, tmp_path, format_):
        path = tmp_path / f"bad.{format_}"
        path.write_bytes(b"\xff\xfe\x00")
        with pytest.raises(InvalidArgument, match=rf"bad\.{format_} is not"):
            load_records(path, format_)

    @pytest.mark.parametrize("doc", [5, {"rho_re": 1.0}, None], ids=["number", "object", "null"])
    def test_json_top_level_not_array_named(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidArgument, match=r"bad\.json: expected an array"):
            load_records(path, "json")

    def test_default_rectangle_round_trip(self, tmp_path):
        # the 14 accelerated records read back equal: equality ignores
        # accelerated_at, the one field that is not emitted
        records = run_sweep(SweepSpec(mode="rectangle"))
        assert sum(r.accelerated_at is not None for r in records) == 14
        for fmt in ("csv", "json"):
            path = tmp_path / f"rect.{fmt}"
            emit_results(records, fmt, path)
            assert load_records(path, fmt) == records

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(InvalidArgument):
            emit_results([], "csv", tmp_path / "x.csv")

    def test_unwritable_path(self):
        with pytest.raises(OSError):
            emit_results([self._one_record()], "csv", "/nonexistent-dir/x.csv")

    def test_mirror_conjugate(self):
        rec = self._one_record()
        out = mirror_conjugate([rec])
        assert len(out) == 2
        assert (out[1].rho_re, out[1].rho_im) == (rec.rho_re, -rec.rho_im)
        assert (out[1].r_re, out[1].r_im) == (rec.r_re, -rec.r_im)
        assert out[1].symmetry_defect == rec.symmetry_defect

    def test_csv_loadable_as_table(self, tmp_path):
        # a generic plotting tool reads the emitted file: numeric columns parse
        spec = SweepSpec(
            mode="arg_sweep", radius=1.0, arg_min=0.0, arg_max=np.pi,
            arg_steps=4, n_nodes=129,
        )
        path = tmp_path / "arc.csv"
        emit_results(run_sweep(spec), "csv", path)
        data = np.genfromtxt(path, delimiter=",", names=True,
                             dtype=None, encoding="utf-8")
        assert data.shape == (4,)
        assert {"rho_re", "rho_im", "r_re", "r_im"} <= set(data.dtype.names)
