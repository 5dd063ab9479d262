"""Command-line interface: schemas, exit codes, file emission."""
import json
import subprocess
import sys

import pytest

from cglvortex.cli import main


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
        code, out, _ = run_cli(
            capsys, "solve", "--rho-re", "40.0", "--method", "shoot",
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

    @pytest.mark.parametrize("flag,value", [
        ("--rho-re", "nan"), ("--rho-im", "inf"), ("--eps-re", "-inf"),
        ("--eps-im", "nan"),
    ])
    def test_nonfinite_rejected(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "solve", f"{flag}={value}")
        assert code == 1
        assert "finite" in err
        assert out == ""

    def test_validation_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--nodes", "128")
        assert code == 1
        assert "odd" in err

    def test_bad_flag(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--method", "magic")
        assert code == 1


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
        lines = path.read_text().splitlines()
        assert len(lines) == 7
        assert lines[0].split(",")[0] == "rho_re"

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

    def test_empty_range_validation(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--mode", "rect", "--re-steps", "1",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1

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


class TestVerify:
    def test_small_point_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--rho-re", "0.9", "--rho-im", "0.3",
            "--eps-re", "0.4", "--nodes", "257",
        )
        assert code == 0
        assert "verify: PASS" in out
        assert "FAIL" not in out.replace("verify: PASS", "")


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "cglvortex", "expand", "--rho-re", "1",
             "--eps-re", "0.1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        json.loads(proc.stdout)
