"""Zero census, symmetry diagnostics, sweeps, and emission."""
import json

import numpy as np
import pytest

from cglvortex import (
    CoreParams,
    GridFunction,
    InvalidArgument,
    SweepRecord,
    SweepSpec,
    count_zeros,
    detect_asymmetric,
    emit_results,
    fixed_point_solve,
    load_records,
    make_grid,
    mirror_conjugate,
    record_from_branch,
    run_sweep,
    solve,
    symmetry_defect,
)
from cglvortex import direct, sweep
from cglvortex.sweep import CSV_COLUMNS


def one_period_nodes(m):
    return -np.pi / 2 + np.arange(m) * (2 * np.pi / m)


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

    @pytest.mark.parametrize(
        "rho, eps, n_nodes", [(-12.0, 1.5, 257), (40.0, 3.0, 129)]
    )
    def test_fd_sign_changing_envelope_has_extra_zeros(self, rho, eps, n_nodes):
        # FD converges here to envelopes that change sign between nodes
        rec = record_from_branch(solve("finite_difference", rho, eps, make_grid(n_nodes)))
        assert rec.converged
        assert rec.extra_zeros > 0
        assert rec.zero_count == 2 + rec.extra_zeros


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

    @pytest.mark.parametrize("field,value", [("eps", 0.0)])
    def test_solver_controls_validated(self, field, value):
        # a sweep that cannot run any solver is refused up front instead of
        # writing a record per point that did not converge
        with pytest.raises(InvalidArgument):
            SweepSpec(mode="rectangle", **{field: value})

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
            converged[warm] = {r.rho for r in run_sweep(spec) if r.converged}
        assert converged[False] <= converged[True]
        assert len(converged[True]) == 32

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
        spec = SweepSpec(
            mode="modulus_sweep", method=method, mod_min=1.0, mod_max=2.0,
            mod_steps=2, ray_arg=0.3, n_nodes=129, warm_start=True,
        )
        records = run_sweep(spec)
        grid = make_grid(129)
        rho0, rho1 = spec.points()
        prev = solve(method, rho0, spec.eps, grid)
        b = solve(method, rho1, spec.eps, grid, prev=prev)
        assert records[1].converged and b.converged
        assert b.r == records[1].r
        assert b.iterations == records[1].iterations

    def test_unknown_method_rejected(self, grid257):
        with pytest.raises(InvalidArgument):
            solve("newton", 1.0, 1.0, grid257)

    def test_unconverged_prev_rejected(self, grid257):
        bad = fixed_point_solve(CoreParams(rho=3.5, eps=1.0, max_iter=5), grid=grid257)
        with pytest.raises(InvalidArgument):
            solve("fixed_point", 3.5, 1.0, grid257, prev=bad)


class TestDivergedRecord:
    # one blow-up of each solver: the fixed point's Anderson phase diverges
    # at rho = -6; shooting escapes at iteration 0 where the RK4 step is
    # unstable; FD escapes after one pass when the Newton solve returns a
    # huge finite step
    @pytest.mark.parametrize("method,rho,eps", [
        ("fixed_point", -6.0, 1.0),
        ("shooting", 1e-3, 2e6),
        ("finite_difference", 2.0 + 0.5j, 1.0),
    ])
    def test_one_diverged_record(self, grid257, tmp_path, monkeypatch, method, rho, eps):
        if method == "finite_difference":
            monkeypatch.setattr(direct, "spsolve", lambda *system: np.full_like(system[-1], 1e85))
        b = solve(method, rho, eps, grid257)
        assert b.diverged and not b.converged
        assert not np.isfinite(b.r.real) and not np.isfinite(b.r.imag)
        assert not np.any(b.U.values)
        assert b.ode_residual == float("inf")
        path = tmp_path / "diverged.csv"
        emit_results([record_from_branch(b)], "csv", path)
        row = path.read_text().split("\n")[1].split(",")
        assert row[2] == method
        assert row[4:6] == ["nan", "nan"]


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
            rho=1.25 - 0.5j, method="fixed_point", converged=True,
            r=0.75 + 0.001j, iterations=12, zero_count=2, extra_zeros=0,
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
            rho=1.25 - 0.5j, method="fixed_point", converged=False,
            r=complex(float("nan"), float("inf")), iterations=0, zero_count=0,
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
        assert np.isnan(back.r.real) and np.isnan(back.r.imag)
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

    @pytest.mark.parametrize("column,cell", [("r_re", "abc"), ("converged", "abc")])
    def test_csv_bad_cell_named(self, tmp_path, column, cell):
        # a cell that does not read as its column's type names file, line
        # and column; converged is only true or false
        path = tmp_path / "two.csv"
        emit_results([self._one_record()] * 2, "csv", path)
        header, first, second = path.read_text().splitlines()
        cells = second.split(",")
        cells[CSV_COLUMNS.index(column)] = cell
        path.write_text("\n".join([header, first, ",".join(cells)]) + "\n")
        with pytest.raises(InvalidArgument, match=rf"two\.csv line 3, column {column}"):
            load_records(path, "csv")

    def test_json_missing_column_named(self, tmp_path):
        path = tmp_path / "two.json"
        emit_results([self._one_record()] * 2, "json", path)
        rows = json.loads(path.read_text())
        del rows[1]["rho_im"]
        path.write_text(json.dumps(rows))
        with pytest.raises(InvalidArgument, match=r"two\.json row 1: missing column rho_im"):
            load_records(path, "json")

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
        assert out[1].rho == rec.rho.conjugate()
        assert out[1].r == rec.r.conjugate()
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
