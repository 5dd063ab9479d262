"""Command-line interface: schemas, exit codes, file emission."""
import contextlib
import io
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cglvortex import ExtensionError, cli, direct, make_grid, sweep
from cglvortex.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_json(text):
    """Parse RFC 8259 JSON; bare NaN or Infinity is an error."""
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


class TestSolve:
    def test_json_summary(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--rho-re", "1.0", "--rho-im", "0.5",
            "--eps-re", "0.5", "--nodes", "129",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["method"] == "fixed_point"
        assert doc["grid"]["n_nodes"] == 129
        assert len(doc["U_re"]) == 129
        assert len(doc["U_im"]) == 129
        assert doc["r_re"] == pytest.approx(0.75 * 0.25, rel=0.05)

    def test_methods_agree(self, capsys):
        results = {}
        for method in ("fp", "shoot", "fd"):
            code, out, _ = run_cli(
                capsys, "solve", "--rho-re", "0.8", "--eps-re", "0.4",
                "--method", method, "--nodes", "129",
            )
            assert code == 0
            results[method] = json.loads(out)
        r_vals = [complex(d["r_re"], d["r_im"]) for d in results.values()]
        assert abs(r_vals[0] - r_vals[1]) < 1e-6
        assert abs(r_vals[0] - r_vals[2]) < 1e-3  # fd is O(h^2) at 129 nodes

    def test_nonconvergence_exit_code(self, capsys):
        # kappa = rho |eps|^2 = 4e9, far past any branch the solvers follow:
        # the trajectory from the seed escapes, and a solve that did not
        # converge exits 2
        code, out, _ = run_cli(
            capsys, "solve", "--rho-re", "1e-3", "--eps-re", "2e6", "--method", "shoot",
            "--nodes", "129",
        )
        assert code == 2

    def test_nonconverged_json_is_strict(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--rho-re", "40", "--eps-re", "3", "--nodes", "129",
        )
        assert code == 2
        doc = strict_json(out)
        assert doc["converged"] is False
        assert doc["r_re"] is None
        assert doc["fp_residual"] is None

    def test_diverged_diagnostics_null_and_quiet(self):
        # the blown-up iterate of a diverged branch is not a measurement, and
        # the overflow on the way there must not reach stderr
        proc = subprocess.run(
            [sys.executable, "-m", "cglvortex", "solve", "--rho-re", "40",
             "--eps-re", "3", "--nodes", "129"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == ""
        doc = strict_json(proc.stdout)
        for key in ("symmetry_defect", "min_abs_v", "ode_residual"):
            assert doc[key] is None

    def test_fd_divergence_quiet(self):
        # kappa = rho |eps|^2 overflows to inf: FD's first residual is not
        # finite, the solve does not converge, and the overflow on the way
        # there must not reach stderr
        proc = subprocess.run(
            [sys.executable, "-m", "cglvortex", "solve", "--method", "fd",
             "--rho-re", "1e308", "--eps-re", "10"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr == ""
        assert strict_json(proc.stdout)["converged"] is False

    @pytest.mark.parametrize("method", ["fp", "shoot", "fd"])
    def test_overflowing_kappa_reports_diverged(self, capsys, method):
        # kappa = 1e310 overflows to inf: no method measures a profile there
        code, out, err = run_cli(capsys, "solve", "--method", method,
                                 "--rho-re", "1e308", "--eps-re", "10")
        assert (code, err) == (2, "")
        doc = strict_json(out)
        assert doc["converged"] is False
        for key in ("r_re", "r_im", "symmetry_defect", "min_abs_v", "ode_residual",
                    "fp_residual"):
            assert doc[key] is None, key
        branch = sweep.solve(cli.METHOD_ALIASES[method], 1e308, 10.0, make_grid(257))
        assert branch.diverged and not branch.converged

    def test_negative_values_in_exponent_form(self, capsys):
        # argparse alone reads "-1e-3" as an unknown option
        code, out, _ = run_cli(capsys, "solve", "--rho-re", "-1e-3", "--rho-im", "-.5",
                               "--eps-re", "-2.5E-1", "--nodes", "9")
        assert code == 0
        doc = strict_json(out)
        assert (doc["rho_re"], doc["rho_im"], doc["eps_re"]) == (-1e-3, -0.5, -0.25)

    @pytest.mark.parametrize("tol", ["1", "1e300"])
    def test_tolerance_of_one_or_more_rejected(self, capsys, tol):
        # at --tol 1e300 the first map's 0.42-residual profile passed as converged
        code, out, err = run_cli(capsys, "solve", "--rho-re", "3", "--rho-im", "1",
                                 "--tol", tol)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag,value", [
        ("--rho-re", "nan"), ("--rho-im", "inf"), ("--eps-re", "-inf"),
        ("--eps-im", "nan"),
    ])
    def test_nonfinite_rejected(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "solve", f"{flag}={value}")
        assert code == 1
        assert "finite" in err
        assert out == ""

    def test_cold_shooting_honours_tol(self, capsys):
        iterations = []
        for tol in ("1e-12", "1e-3"):
            code, out, _ = run_cli(
                capsys, "solve", "--rho-re", "2", "--rho-im", "0.5",
                "--method", "shoot", "--tol", tol,
            )
            assert code == 0
            iterations.append(json.loads(out)["iterations"])
        assert iterations[1] < iterations[0]

    def test_linear_limit_shooting_large_eps(self, capsys):
        # the exact profile eps cos x peaks at 2e6, but both solvers solve
        # for W = U / eps = cos x at kappa = 0, so shooting stays far below
        # its escape cap and reaches the linear limit as FD does
        r = {}
        for method in ("shoot", "fd"):
            code, out, _ = run_cli(
                capsys, "solve", "--method", method, "--rho-re", "0",
                "--eps-re", "2e6",
            )
            assert code == 0
            doc = strict_json(out)
            assert doc["converged"] is True
            r[method] = complex(doc["r_re"], doc["r_im"])
        assert r["shoot"] == pytest.approx(3e12, rel=1e-12)
        assert r["shoot"] == pytest.approx(r["fd"], rel=1e-12)

    def test_singular_jacobian_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(direct, "spsolve",
                            lambda *system: (np.full_like(system[-1], np.nan), None))
        code, out, _ = run_cli(
            capsys, "solve", "--rho-re", "2", "--rho-im", "0.5", "--method", "fd",
            "--nodes", "129",
        )
        assert code == 2
        assert strict_json(out)["converged"] is False

    def test_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--nodes", "128")
        assert code == 1
        assert "odd" in err

    def test_bad_flag(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--method", "magic")
        assert code == 1

    def test_fd_needs_seven_nodes(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--method", "fd", "--nodes", "5")
        assert (code, out) == (1, "")
        assert "7 nodes" in err


class TestSweepCommand:
    def test_rect_csv(self, capsys, tmp_path):
        path = tmp_path / "rect.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--mode", "rect",
            "--re-min", "-1", "--re-max", "1", "--re-steps", "3",
            "--im-min", "0", "--im-max", "0.5", "--im-steps", "2",
            "--nodes", "129", "--out", str(path),
        )
        assert code == 0
        assert out == f"wrote 6 records to {path} (6 converged, 0 accelerated)\n"
        lines = path.read_text().splitlines()
        assert len(lines) == 7
        assert lines[0].split(",")[0] == "rho_re"

    def test_rect_summary_counts_accelerated(self, capsys, tmp_path):
        # the two right-hand columns of the default rectangle: plain
        # iteration stalls at all 14 points
        path = tmp_path / "edge.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--mode", "rect", "--re-min", "3", "--re-max", "3.5",
            "--re-steps", "2", "--out", str(path),
        )
        assert code == 0
        assert out == f"wrote 14 records to {path} (14 converged, 14 accelerated)\n"

    def test_mod_json_with_mirror(self, capsys, tmp_path):
        path = tmp_path / "mod.json"
        code, _, _ = run_cli(
            capsys, "sweep", "--mode", "mod", "--mod-min", "0.5",
            "--mod-max", "1.5", "--steps", "2", "--arg", "0.5",
            "--nodes", "129", "--format", "json", "--mirror",
            "--out", str(path),
        )
        assert code == 0
        docs = json.loads(path.read_text())
        assert len(docs) == 4
        assert docs[2]["rho_im"] == -docs[0]["rho_im"]

    @pytest.mark.parametrize("flag,value", [
        ("--re-min", "nan"), ("--re-max", "inf"), ("--im-min", "-inf"),
        ("--eps-re", "nan"),
    ])
    def test_nonfinite_bounds_rejected(self, capsys, tmp_path, flag, value):
        path = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--mode", "rect", f"{flag}={value}", "--out", str(path),
        )
        assert code == 1
        assert "finite" in err
        assert not path.exists()

    def test_failure_records_strict_json(self, capsys, tmp_path):
        path = tmp_path / "fail.json"
        code, _, _ = run_cli(
            capsys, "sweep", "--mode", "mod", "--mod-min", "38", "--mod-max", "40",
            "--steps", "2", "--eps-re", "3", "--nodes", "129",
            "--format", "json", "--out", str(path),
        )
        assert code == 0
        docs = strict_json(path.read_text())
        assert [d["converged"] for d in docs] == [False, False]
        assert all(d["r_re"] is None for d in docs)

    def test_zero_eps_rejected(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--mode", "rect", "--method", "fd", "--eps-re", "0",
            "--out", str(path),
        )
        assert code == 1
        assert "eps" in err
        assert not path.exists()

    def test_empty_range_validation(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--mode", "rect", "--re-steps", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1

    def test_zero_steps_rejected(self, capsys, tmp_path):
        path = tmp_path / "x.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--mode", "arg", "--steps", "0", "--radius", "0.5",
            "--out", str(path),
        )
        assert code == 1
        assert "steps" in err
        assert not path.exists()

    @pytest.mark.parametrize("mode,flag,value", [
        ("rect", "--steps", "3"), ("rect", "--radius", "2"), ("rect", "--mod-max", "5"),
        ("rect", "--arg", "0.3"), ("arg", "--re-min", "-1"), ("arg", "--mod-min", "2"),
        ("arg", "--arg", "0.3"), ("mod", "--radius", "2"), ("mod", "--arg-max", "1"),
        ("mod", "--im-steps", "3"),
    ])
    def test_option_of_other_mode_rejected(self, capsys, tmp_path, mode, flag, value):
        path = tmp_path / "x.csv"
        code, out, err = run_cli(
            capsys, "sweep", "--mode", mode, flag, value, "--nodes", "129",
            "--out", str(path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and flag in err
        assert not path.exists()

    def test_fd_needs_seven_nodes(self, capsys, tmp_path):
        path = tmp_path / "fd5.csv"
        code, _, err = run_cli(
            capsys, "sweep", "--mode", "rect", "--method", "fd", "--nodes", "5",
            "--re-steps", "2", "--im-steps", "2", "--out", str(path),
        )
        assert code == 1 and "7 nodes" in err
        assert not path.exists()

    def test_unset_options_left_to_sweepspec(self):
        args = build_parser().parse_args(["sweep", "--mode", "rect", "--out", "x.csv"])
        assert vars(args) == {
            "command": "sweep", "mode": "rect", "out": "x.csv", "format": "csv",
            "mirror": False,
        }

    def test_io_error(self, capsys):
        code, _, err = run_cli(
            capsys, "sweep", "--mode", "mod", "--mod-min", "0.5",
            "--mod-max", "1.0", "--steps", "2", "--nodes", "129",
            "--out", "/nonexistent-dir/x.csv",
        )
        assert code == 3


class TestExpand:
    def test_structure_and_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "expand", "--rho-re", "1.0", "--eps-re", "0.2",
            "--order", "1", "--samples", "9",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["r_re"] == pytest.approx(0.0299625, rel=1e-12)
        assert doc["R"] == pytest.approx(1 + 0.75 * 0.04 * (1 - 0.04 / 32), rel=1e-12)
        assert doc["omega"] == 0.0
        assert len(doc["U"]["x"]) == 9
        # profile vanishes at the half-period end
        assert abs(doc["U"]["re"][-1]) < 1e-14


    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_bad_samples_rejected(self, capsys, samples):
        code, out, err = run_cli(
            capsys, "expand", "--rho-re", "1.0", "--eps-re", "0.2", "--samples", samples,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "--samples" in err


class TestPhysical:
    def test_real_equation(self, capsys):
        code, out, _ = run_cli(
            capsys, "physical", "--mu", "0", "--nu", "0", "--n", "1",
            "--eps-re", "0.2", "--nodes", "129",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["rho_re"] == 1.0
        assert doc["R"] == pytest.approx(doc["R_asymptotic"], abs=1e-6)
        assert abs(doc["omega"]) < 1e-12

    def test_nonconvergence_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "physical", "--mu", "40", "--nu", "-40", "--n", "1",
            "--eps-re", "3", "--nodes", "129",
        )
        assert code == 2
        doc = strict_json(out)
        assert doc["converged"] is False
        assert doc["R"] is None and doc["omega"] is None

    def test_nonfinite_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "physical", "--mu", "nan", "--nu", "0", "--n", "1",
        )
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("command", [["physical", "--nodes", "9"], ["expand"]])
    def test_overflowing_parameter_map_rejected(self, capsys, command):
        # nu n^2 = 1e310 overflows and rho underflows to 0: an input error,
        # not a converged branch with omega null
        code, out, err = run_cli(capsys, *command, "--mu", "0", "--nu", "1e10",
                                 "--n", str(10**150))
        assert code == 1
        assert out == ""
        assert err.startswith("error: rho = ") and err.count("\n") == 1


class TestVerify:
    def test_skip_line_leads(self, capsys):
        # rho = 6 has no physical preimage: its SKIP line comes before every
        # check line, and the exit code follows the verdict line, whatever
        # the verdict
        code, out, _ = run_cli(capsys, "verify", "--rho-re", "6")
        lines = out.splitlines()
        assert lines[0] == "SKIP  cgl_residual            (rho has no physical preimage)"
        assert len(lines) > 2
        assert all(line.startswith(("PASS  ", "FAIL  ")) for line in lines[1:-1])
        assert lines[-1] in ("verify: PASS", "verify: FAIL")
        assert code == (0 if lines[-1] == "verify: PASS" else 1)

    def test_small_point_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--rho-re", "0.9", "--rho-im", "0.3",
            "--eps-re", "0.4", "--nodes", "257",
        )
        assert code == 0
        assert "verify: PASS" in out
        assert "FAIL" not in out.replace("verify: PASS", "")

    def test_jump_gate_rejection_fails_the_extension_check(self, capsys, monkeypatch):
        def blocked(branch, n):
            raise ExtensionError("envelope jump 1.000e-03 blocks the periodic extension")

        monkeypatch.setattr(sweep, "extend_solution", blocked)
        code, out, err = run_cli(
            capsys, "verify", "--rho-re", "0.9", "--rho-im", "0.3",
            "--eps-re", "0.4", "--nodes", "129",
        )
        assert code == 1
        assert "FAIL  cgl_residual             inf" in out
        assert out.splitlines()[-1] == "verify: FAIL"
        assert "envelope jump 1.000e-03" in err

    @staticmethod
    def _record_solves(monkeypatch):
        """Wrap the solvers that sweep.solve dispatches to; return the
        fixed-point branches and the seed each direct solver received."""
        fp_branches, seeds = [], {}

        def fixed_point(*args, **kwargs):
            branch = real_fp(*args, **kwargs)
            fp_branches.append(branch)
            return branch

        def recording(name, real):
            def wrapper(params, grid=None, seed=None, r0=None):
                seeds[name] = seed
                return real(params, grid=grid, seed=seed, r0=r0)
            return wrapper

        real_fp = sweep.fixed_point_solve
        monkeypatch.setattr(sweep, "fixed_point_solve", fixed_point)
        monkeypatch.setattr(sweep, "shoot_solve", recording("shooting", sweep.shoot_solve))
        monkeypatch.setattr(sweep, "fd_solve", recording("finite_difference", sweep.fd_solve))
        return fp_branches, seeds

    def test_direct_solves_start_from_the_fixed_point(self, capsys, monkeypatch):
        fp_branches, seeds = self._record_solves(monkeypatch)
        code, _, _ = run_cli(
            capsys, "verify", "--rho-re", "0.9", "--rho-im", "0.3", "--eps-re", "0.4",
        )
        assert code == 0
        # one fixed-point solve: the gauge check turns its branch, it does not re-solve
        [fp] = fp_branches
        assert fp.converged
        assert seeds["shooting"] is fp.U
        assert seeds["finite_difference"] is fp.U

    def test_direct_solves_cold_where_the_fixed_point_fails(self, capsys, monkeypatch):
        fp_branches, seeds = self._record_solves(monkeypatch)
        code, out, _ = run_cli(
            capsys, "verify", "--rho-re", "6.286210262265264", "--rho-im", "-5.136819171419674",
            "--eps-re", "1.4", "--nodes", "129",
        )
        assert code == 1
        assert not fp_branches[0].converged
        assert seeds == {"shooting": None, "finite_difference": None}
        assert "FAIL  converged[fixed_point]" in out
        assert "PASS  converged[shooting]" in out
        assert "PASS  converged[finite_difference]" in out


@pytest.mark.parametrize("argv", [
    # |eps|^2 overflows a float above |eps| ~ 1.34e154 ...
    ("solve", "--method", "fp", "--eps-re", "1e155", "--rho-re", "1"),
    ("solve", "--method", "shoot", "--eps-re", "1e155", "--rho-re", "1"),
    ("solve", "--method", "fd", "--eps-re", "1e155", "--rho-re", "1"),
    ("expand", "--eps-re", "1e200"),
    # ... and underflows to 0 below |eps| ~ 2.2e-162, past the floor of 2.81e-103
    ("verify", "--eps-re", "1e-170", "--rho-re", "1"),
    # a harmonic number n whose square overflows a float
    ("expand", "--samples", "3", "--n", str(10**160)),
    ("physical", "--mu", "0", "--nu", "0", "--nodes", "9", "--n", str(10**329)),
])
def test_amplitude_out_of_float_range_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("method", ["fp", "shoot", "fd"])
def test_eps_below_the_r_floor_rejected(capsys, method):
    # compute_r cubes v = eps v1, which leaves the normal float range below
    # |eps| = 2.81e-103: a solve there is an input error, not a wrong r ...
    code, out, err = run_cli(capsys, "solve", "--rho-re", "1", "--eps-re", "1e-105",
                             "--method", method, "--nodes", "129")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "2.81e-103" in err and err.count("\n") == 1
    # ... and just above it r keeps its digits (r / |eps|^2 -> 3/4 as kappa
    # -> 0); FD's r is offset there for another reason
    code, out, _ = run_cli(capsys, "solve", "--rho-re", "1", "--eps-re", "3e-103",
                           "--method", method)
    doc = json.loads(out)
    assert code == 0 and doc["converged"] is True
    if method != "fd":
        assert abs(doc["r_re"] / 3e-103 ** 2 - 0.75) <= 1e-14


# every flag that sizes an array, in a command that reaches the allocation
SIZING_COMMANDS = {
    "expand --samples": ["expand", "--rho-re", "1", "--eps-re", "0.1", "--samples"],
    "solve --nodes": ["solve", "--nodes"],
    "sweep rect --re-steps": ["sweep", "--mode", "rect", "--out", "x.csv", "--re-steps"],
    "sweep rect --im-steps": ["sweep", "--mode", "rect", "--out", "x.csv", "--im-steps"],
    "sweep mod --steps": ["sweep", "--mode", "mod", "--out", "x.csv", "--steps"],
    "sweep arg --steps": ["sweep", "--mode", "arg", "--out", "x.csv", "--steps"],
    "verify --nodes": ["verify", "--nodes"],
    "physical --nodes": ["physical", "--mu", "0", "--nu", "0.5", "--n", "1", "--nodes"],
}


@pytest.mark.parametrize("size", [
    # too large to allocate (10**15 float64 is 7.1 PiB, past any 47-bit
    # address space), so numpy raises MemoryError at once; odd, as node
    # counts must be
    10**15 + 1, 2**59 - 1,
    # past the parser's bound: the first value where linspace's own size
    # check raises ValueError, then past 2**61 and past sys.maxsize
    2**60 - 64, 2**61, 10**20,
])
@pytest.mark.parametrize("command", SIZING_COMMANDS.values(), ids=SIZING_COMMANDS)
def test_size_too_large_to_allocate_rejected(capsys, monkeypatch, tmp_path, command, size):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *command, str(size))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (("solve", "--rho-re", "abc"), "invalid float value: 'abc'"),
    (("solve", "--nodes", "2.5"), "invalid int value: '2.5'"),
    (("sweep", "--mode", "arg", "--steps", "x"), "invalid int value: 'x'"),
])
def test_malformed_number_rejected(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and message in err


class TestParser:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_reused_after_a_parse_error(self, capsys):
        # a rejected command line leaves the shared parser as it was
        code, _, err = run_cli(capsys, "verify", "--rho-re", "0.9", "--no-such-flag")
        assert code == 1 and err.startswith("error:")
        code, out, _ = run_cli(
            capsys, "verify", "--rho-re", "0.9", "--rho-im", "0.3",
            "--eps-re", "0.4", "--nodes", "129",
        )
        assert code == 0
        assert out.splitlines()[-1] == "verify: PASS"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cglvortex", "expand", "--rho-re", "1",
             "--eps-re", "0.1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        json.loads(proc.stdout)


# every finite float, and often a modest one, where the solvers do real work
FINITE = st.one_of(st.floats(-20.0, 20.0), st.floats(allow_nan=False, allow_infinity=False))
# harmonic numbers n: mostly small ones, and any up to 10**400, far past
# the float range
HARMONIC = st.one_of(st.integers(-2, 8), st.integers(1, 10**400))


def sizes(small):
    """An array-sizing flag: the small value that keeps the command cheap,
    or one too large to allocate (10**15 float64 is 7.1 PiB) and up, past
    the parser's bound."""
    return st.one_of(st.just(small), st.integers(min_value=10**15))


# tolerances: mostly valid ones, so that the solve runs
TOLERANCE = st.one_of(st.floats(1e-13, 0.9), FINITE)
# verify solves three times, so it draws fewest
FUZZ = settings(derandomize=True, deadline=None, max_examples=60, database=None)


def run_fuzzed(argv):
    """Run main in this process: an exit code of the CLI's, no traceback or
    warning on stderr, and no warning raised at all."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main([str(a) for a in argv])
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue(), argv
    assert not caught, (argv, [str(w.message) for w in caught])
    if code == 1 and out.getvalue() == "":  # an input error; verify's FAIL is 1 too
        assert err.getvalue().startswith("error:"), argv
    return code, out.getvalue()


class TestFuzz:
    """Numeric flags drawn from all finite floats, the float edges pinned.
    Sizing flags are small, which keeps every solve cheap, or too large to
    allocate."""

    @FUZZ
    @given(method=st.sampled_from(["fp", "shoot", "fd"]), rho_re=FINITE, rho_im=FINITE,
           eps_re=FINITE, eps_im=FINITE, tol=TOLERANCE, nodes=sizes(9))
    @example(method="fd", rho_re=1e308, rho_im=0.0, eps_re=10.0, eps_im=0.0, tol=1e-12,
             nodes=9)
    @example(method="fp", rho_re=3.0, rho_im=1.0, eps_re=1.0, eps_im=0.0, tol=1e300, nodes=9)
    @example(method="fp", rho_re=-0.0, rho_im=-0.0, eps_re=-0.0, eps_im=5e-324, tol=5e-324,
             nodes=9)
    @example(method="shoot", rho_re=1e300, rho_im=-1e-300, eps_re=1e-300, eps_im=0.0,
             tol=1e-6, nodes=9)
    @example(method="fd", rho_re=5e-324, rho_im=-5e-324, eps_re=2.2e-308, eps_im=-1e300,
             tol=0.5, nodes=9)
    def test_solve(self, method, rho_re, rho_im, eps_re, eps_im, tol, nodes):
        code, out = run_fuzzed(["solve", "--method", method, "--nodes", nodes,
                                "--rho-re", rho_re, "--rho-im", rho_im,
                                "--eps-re", eps_re, "--eps-im", eps_im, "--tol", tol])
        if code != 1:
            strict_json(out)

    @FUZZ
    @given(rho_re=FINITE, rho_im=FINITE, eps_re=FINITE, eps_im=FINITE, mu=FINITE,
           nu=FINITE, n=HARMONIC, samples=sizes(5))
    @example(rho_re=1e308, rho_im=0.0, eps_re=10.0, eps_im=0.0, mu=-0.0, nu=5e-324, n=1,
             samples=5)
    @example(rho_re=-1e300, rho_im=1e-300, eps_re=-0.0, eps_im=1e300, mu=1e300, nu=-1e300,
             n=1, samples=5)
    @example(rho_re=0.0, rho_im=0.0, eps_re=1.0, eps_im=0.0, mu=0.0, nu=0.0, n=10**160,
             samples=5)
    @example(rho_re=0.0, rho_im=0.0, eps_re=1.0, eps_im=0.0, mu=0.0, nu=1e10, n=10**150,
             samples=5)
    def test_expand(self, rho_re, rho_im, eps_re, eps_im, mu, nu, n, samples):
        code, out = run_fuzzed(["expand", "--samples", samples, "--rho-re", rho_re,
                                "--rho-im", rho_im, "--eps-re", eps_re, "--eps-im", eps_im,
                                "--mu", mu, "--nu", nu, "--n", n])
        if code != 1:
            strict_json(out)

    @FUZZ
    @given(mu=FINITE, nu=FINITE, eps_re=FINITE, eps_im=FINITE, n=HARMONIC, nodes=sizes(9))
    @example(mu=1e300, nu=-1e300, eps_re=5e-324, eps_im=-0.0, n=1, nodes=9)
    @example(mu=-0.0, nu=1e-300, eps_re=1e300, eps_im=0.0, n=1, nodes=9)
    @example(mu=0.0, nu=0.0, eps_re=1.0, eps_im=0.0, n=10**329, nodes=9)
    @example(mu=0.5, nu=-0.3, eps_re=1.0, eps_im=0.0, n=10**160, nodes=9)
    @example(mu=0.0, nu=1e10, eps_re=1.0, eps_im=0.0, n=10**150, nodes=9)
    def test_physical(self, mu, nu, eps_re, eps_im, n, nodes):
        code, out = run_fuzzed(["physical", "--n", n, "--nodes", nodes, "--mu", mu, "--nu", nu,
                                "--eps-re", eps_re, "--eps-im", eps_im])
        if code != 1:
            strict_json(out)

    @settings(FUZZ, max_examples=20)
    @given(rho_re=FINITE, rho_im=FINITE, eps_re=FINITE, eps_im=FINITE, nodes=sizes(9))
    @example(rho_re=1e308, rho_im=0.0, eps_re=10.0, eps_im=0.0, nodes=9)
    @example(rho_re=-1e-300, rho_im=5e-324, eps_re=-0.0, eps_im=1e-300, nodes=9)
    def test_verify(self, rho_re, rho_im, eps_re, eps_im, nodes):
        code, out = run_fuzzed(["verify", "--nodes", nodes, "--rho-re", rho_re,
                                "--rho-im", rho_im, "--eps-re", eps_re, "--eps-im", eps_im])
        if out:
            assert out.splitlines()[-1] == f"verify: {'PASS' if code == 0 else 'FAIL'}"

    @FUZZ
    @given(mode=st.sampled_from(["rect", "mod", "arg"]), a=FINITE, b=FINITE, c=FINITE,
           eps_re=FINITE, nodes=sizes(9), steps=sizes(2), im_steps=sizes(2))
    @example(mode="rect", a=-1e300, b=1e300, c=5e-324, eps_re=-0.0, nodes=9, steps=2,
             im_steps=2)
    @example(mode="mod", a=1e-300, b=1e308, c=-0.0, eps_re=10.0, nodes=9, steps=2, im_steps=2)
    @example(mode="arg", a=-5e-324, b=5e-324, c=1e300, eps_re=1e-300, nodes=9, steps=2,
             im_steps=2)
    def test_sweep(self, tmp_path_factory, mode, a, b, c, eps_re, nodes, steps, im_steps):
        out_path = tmp_path_factory.mktemp("fuzz") / "s.json"
        flags = {"rect": ["--re-min", a, "--re-max", b, "--im-min", c, "--im-max", c + 1.0,
                          "--re-steps", steps, "--im-steps", im_steps],
                 "mod": ["--mod-min", a, "--mod-max", b, "--arg", c, "--steps", steps],
                 "arg": ["--arg-min", a, "--arg-max", b, "--radius", c, "--steps", steps]}
        code, _ = run_fuzzed(["sweep", "--mode", mode, "--nodes", nodes, "--eps-re", eps_re,
                              "--format", "json", "--out", out_path, *flags[mode]])
        if code == 0:
            strict_json(out_path.read_text())
