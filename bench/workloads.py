"""Benchmark workloads for cglvortex and their correctness gate.

Each workload is a fixed list of ``cglvortex`` command lines.  The
benchmark runs them in its own process through ``cglvortex.cli.main``, one
after another: a closed loop with a single caller.  One *pass* runs the
whole list once.

rect_fp
    The default ``cglvortex sweep --mode rect``: 105 cold fixed-point points
    at 257 nodes over [-3.5, 3.5] x [0, 1.5].  The reduction layer does
    nearly all the work and the direct solvers are idle, so a change to the
    fixed-point map shows here and an FD or shooting change does not.
cross_check
    ``cglvortex verify`` at the 10 criterion-6 rectangle points at 257
    nodes: fixed point, shooting and finite differences at every point.
    Shooting and FD dominate and the reduction is a small share.  This is
    the paper's three-method path.
ray_fd
    Warm-started FD continuation along the pi/12 ray to |rho| = 200
    (``sweep --mode mod --method fd --continue``).  Only the FD solver
    works, with warm seeds at large |rho|, where ``cross_check`` gives it
    cold seeds at small |rho|.

Seed 0 runs exactly the points above.  Any other seed moves every point
by a small seeded offset that keeps it inside the region the workload
samples.

The gate checks every point of every pass, including the warm-up pass:
``rect_fp`` must meet acceptance criterion 5 (converged, no extra zeros,
symmetry defect <= 1e-8), every ``verify`` must exit 0 without a FAIL
line, and every ``ray_fd`` point must converge.  For seed 0 each point is
also compared with the reference recorded in ``reference_seed0.json``:
the same rho, convergence and zero count, and r within ``R_TOL`` relative
to max(1, |r|).  Values are compared, not bytes, so a solver that takes
other iteration counts still passes.  Separately, every pass of a sweep
must write the same CSV bytes as the warm-up pass.
"""
from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("rect_fp", "cross_check", "ray_fd")

NODES = 257
RECT_BOUNDS = (-3.5, 3.5, 0.0, 1.5)
# the criterion-6 rectangle points (RECTANGLE_SAMPLES in tests/test_acceptance.py)
CROSS_POINTS = (
    -3.5 + 0.75j, -2.0 + 1.5j, -1.0 + 0.25j, -0.5 + 1.0j, 0.5 + 0.5j,
    1.0 + 0.0j, 1.5 + 1.25j, 2.0 + 0.5j, 3.0 + 1.0j, 3.5 + 1.5j,
)
RAY_ARG = 0.2617993877991494  # pi/12
RAY_MOD = (1.0, 200.0)
RAY_STEPS = 32

# largest seeded offset of a point, in units of rho
RECT_OFFSET = 0.02
CROSS_OFFSET = 0.02
RAY_ARG_OFFSET = 0.01
RAY_MOD_OFFSET = 0.05

SYMMETRY_BOUND = 1e-8
R_TOL = 1e-8

REFERENCE_PATH = Path(__file__).with_name("reference_seed0.json")


@dataclass(frozen=True)
class Workload:
    name: str
    argvs: tuple[tuple[str, ...], ...]
    csv_path: Path | None
    expected_points: int
    criterion5: bool = False


@dataclass(frozen=True)
class CallOutput:
    """What one ``cglvortex.cli.main`` call returned and printed."""

    rc: int | None  # None when the call raised
    stdout: str


def _num(x: float) -> str:
    return repr(float(x))


def build(name: str, seed: int, out_dir: Path, small: bool = False) -> Workload:
    """The command lines of one workload for a seed.

    ``small`` shrinks every workload to a few points; it exists for the
    benchmark's smoke test only.
    """
    rng = random.Random(seed)
    scale = 0.0 if seed == 0 else 1.0
    nodes = str(NODES)
    if name == "rect_fp":
        re_lo, re_hi, im_lo, im_hi = RECT_BOUNDS
        re_lo += scale * rng.uniform(0.0, RECT_OFFSET)
        re_hi -= scale * rng.uniform(0.0, RECT_OFFSET)
        im_lo += scale * rng.uniform(0.0, RECT_OFFSET)
        im_hi -= scale * rng.uniform(0.0, RECT_OFFSET)
        steps = ("3", "2") if small else ("15", "7")
        path = out_dir / "rect_fp.csv"
        argv = (
            "sweep", "--mode", "rect", "--format", "csv", "--nodes", nodes,
            "--re-min", _num(re_lo), "--re-max", _num(re_hi), "--re-steps", steps[0],
            "--im-min", _num(im_lo), "--im-max", _num(im_hi), "--im-steps", steps[1],
            "--out", str(path),
        )
        return Workload(name, (argv,), path, int(steps[0]) * int(steps[1]), criterion5=True)
    if name == "cross_check":
        re_lo, re_hi, im_lo, im_hi = RECT_BOUNDS
        argvs = []
        for rho in CROSS_POINTS[:2] if small else CROSS_POINTS:
            re = min(re_hi, max(re_lo, rho.real + scale * rng.uniform(-CROSS_OFFSET, CROSS_OFFSET)))
            im = min(im_hi, max(im_lo, rho.imag + scale * rng.uniform(-CROSS_OFFSET, CROSS_OFFSET)))
            argvs.append(("verify", "--rho-re", _num(re), "--rho-im", _num(im), "--nodes", nodes))
        return Workload(name, tuple(argvs), None, len(argvs))
    if name == "ray_fd":
        arg = RAY_ARG + scale * rng.uniform(-RAY_ARG_OFFSET, RAY_ARG_OFFSET)
        mod_lo = RAY_MOD[0] + scale * rng.uniform(0.0, RAY_MOD_OFFSET)
        mod_hi = RAY_MOD[1] - scale * rng.uniform(0.0, RAY_MOD_OFFSET)
        steps = 4 if small else RAY_STEPS
        if small:
            mod_hi = 8.0
        path = out_dir / "ray_fd.csv"
        argv = (
            "sweep", "--mode", "mod", "--method", "fd", "--arg", _num(arg),
            "--mod-min", _num(mod_lo), "--mod-max", _num(mod_hi),
            "--steps", str(steps), "--continue", "--nodes", nodes,
            "--format", "csv", "--out", str(path),
        )
        return Workload(name, (argv,), path, steps)
    raise ValueError(f"unknown workload {name!r}")


def load_reference(name: str):
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[name]


def reference_of(workload: Workload, outputs: list[CallOutput], csv_bytes: bytes | None):
    """The values the gate compares against, taken from one pass."""
    if workload.csv_path is None:
        return [_check_names(out.stdout) for out in outputs]
    return [
        {
            "rho_re": float(row["rho_re"]),
            "rho_im": float(row["rho_im"]),
            "converged": row["converged"] == "true",
            "r_re": float(row["r_re"]),
            "r_im": float(row["r_im"]),
            "zero_count": int(row["zero_count"]),
        }
        for row in _rows(csv_bytes)
    ]


def check_pass(
    workload: Workload,
    outputs: list[CallOutput],
    csv_bytes: bytes | None,
    first_csv: bytes | None,
    reference,
) -> list[bool]:
    """One flag per checked operation of a pass; False marks a failure.

    ``first_csv`` is the CSV of the warm-up pass, or None for the warm-up
    pass itself; ``reference`` is None when no reference applies.
    """
    if workload.csv_path is None:
        return [
            _verify_ok(out, None if reference is None else reference[i])
            for i, out in enumerate(outputs)
        ]
    (out,) = outputs
    if out.rc != 0 or csv_bytes is None:
        flags = [False] * workload.expected_points
    else:
        try:
            rows = _rows(csv_bytes)
        except ValueError:  # undecodable output fails every point
            rows = []
        flags = [
            i < len(rows) and _row_ok(workload, rows[i], None if reference is None else reference[i])
            for i in range(workload.expected_points)
        ]
        if len(rows) != workload.expected_points:
            flags.append(False)
    if first_csv is not None:
        flags.append(csv_bytes == first_csv)
    return flags


def _rows(csv_bytes: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(csv_bytes.decode("utf-8"))))


def _row_ok(workload: Workload, row: dict, ref: dict | None) -> bool:
    try:
        if row["converged"] != "true":
            return False
        if workload.criterion5 and (
            int(row["extra_zeros"]) != 0 or not float(row["symmetry_defect"]) <= SYMMETRY_BOUND
        ):
            return False
        if ref is None:
            return True
        r = complex(float(row["r_re"]), float(row["r_im"]))
        r_ref = complex(ref["r_re"], ref["r_im"])
        return (
            float(row["rho_re"]) == ref["rho_re"]
            and float(row["rho_im"]) == ref["rho_im"]
            and ref["converged"]
            and int(row["zero_count"]) == ref["zero_count"]
            and abs(r - r_ref) <= R_TOL * max(1.0, abs(r_ref))
        )
    except (KeyError, TypeError, ValueError):  # a malformed row fails its check
        return False


def _check_names(stdout: str) -> list[str]:
    """Names of the checks a ``verify`` run reported, in order."""
    names = []
    for line in stdout.splitlines():
        words = line.split()
        if len(words) > 1 and words[0] in ("PASS", "FAIL", "SKIP"):
            names.append(words[1])
    return names


def _verify_ok(out: CallOutput, ref_names: list[str] | None) -> bool:
    lines = out.stdout.splitlines()
    return (
        out.rc == 0
        and bool(lines)
        and lines[-1] == "verify: PASS"
        and not any(line.startswith("FAIL") for line in lines)
        and (ref_names is None or _check_names(out.stdout) == ref_names)
    )
