"""cglvortex benchmark: end-to-end metrics, per-layer metrics, correctness.

Run from the root of a checkout:

    python3 bench/run.py --workload rect_fp --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload in turn

One run imports cglvortex from ``src/`` of the checkout and drives
``cglvortex.cli.main`` in this process.  The first pass of the workload is
a warm-up that is not timed; then passes run one after another until
``--seconds`` have passed.  Every pass, the warm-up too, goes through the
correctness gate described in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics: the median ``wall_s`` and
``cpu_s`` of a pass, ``setup_s`` (the median of several fresh processes
that import cglvortex and build the 257-node grid), ``peak_rss_mb`` of
this process and ``ok_frac``, the share of checked operations that
passed (1 - failed_frac).  The three times are rescaled to a reference
host speed by the probes of ``speed.py``, which sample the host while
the timed work runs; the raw times are printed above the result.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (medians over passes), the spread of
per-point times, two micro-timings of public kernels, and
``trace.overhead_frac``, the traced median pass time over the untraced
one, minus 1.  The spans go to ``.bench_out/trace_<workload>.jsonl``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines above it
give every metric with its unit, the environment and the sample counts.
The exit code is 0 when the run completed, whether or not checks failed.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 5
SETUP_INTERVAL_S = 0.01
# a fresh process imports cglvortex and builds the default grid under the
# host-speed probes (``speed`` is found in the directory given as argv[1])
# and prints the probe times
SETUP_CODE = f"""\
import json, sys
sys.path.insert(0, sys.argv[1])
import speed
with speed.HostSpeed({SETUP_INTERVAL_S}) as host:
    import cglvortex
    cglvortex.make_grid(257)
print(json.dumps({{"probes": host.wall, "spent": host.spent_wall}}))
"""
MICRO_CALLS = 200
MICRO_BATCHES = 7

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "frac",
}
PER_LAYER_UNITS = {
    "quadrature.integrate_us": "us",
    "greens.envelope_solve_us": "us",
    "reduction.fixed_point_solve.calls": "count",
    "reduction.fixed_point_solve.self_s": "s",
    "reduction.map_applications": "count",
    "reduction.useful_map_frac": "frac",
    "reduction.map_us": "us",
    "direct.shoot_solve.calls": "count",
    "direct.shoot_solve.self_s": "s",
    "direct.shoot_solve.newton_iters": "count",
    "direct.fd_solve.calls": "count",
    "direct.fd_solve.self_s": "s",
    "direct.fd_solve.reported_iters": "count",
    "direct.spsolve.calls": "count",
    "direct.spsolve.self_s": "s",
    "direct.fd_useful_solve_frac": "frac",
    "direct.compare_branches.calls": "count",
    "direct.compare_branches.self_s": "s",
    "physics.extend_solution.calls": "count",
    "physics.extend_solution.self_s": "s",
    "physics.cgl_residual.self_s": "s",
    "sweep.run_sweep.self_s": "s",
    "sweep.record_from_branch.self_s": "s",
    "sweep.emit_results.self_s": "s",
    "sweep.point_p50_ms": "ms",
    "sweep.point_p90_ms": "ms",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "frac",
}


def configure() -> None:
    """Pin native thread pools to one thread and import cglvortex from
    ``src/``.  Must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_pass(workload):
    """Run every command line of the workload once.

    Returns (outputs, wall seconds, CPU seconds, CSV bytes or None).  A
    call that raises is recorded as a failed call, never aborts the run.
    """
    from cglvortex import cli

    if workload.csv_path is not None and workload.csv_path.exists():
        workload.csv_path.unlink()
    outputs = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for argv in workload.argvs:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(argv))
        except Exception as exc:  # the gate counts it; the run goes on
            print(f"error: {' '.join(argv[:1])}: {exc!r}", file=sys.stderr)
            rc = None
        outputs.append(workloads.CallOutput(rc, buf.getvalue()))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    csv_bytes = None
    if workload.csv_path is not None and workload.csv_path.exists():
        csv_bytes = workload.csv_path.read_bytes()
    return outputs, wall, cpu, csv_bytes


def measure_setup() -> list[tuple[float, float]]:
    """Wall seconds for fresh processes to import cglvortex and build the
    default grid: (raw, rescaled by the probes each process ran)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(Path(__file__).resolve().parent)],
            env=env, cwd=ROOT, check=True, capture_output=True, text=True,
        ).stdout
        wall = time.perf_counter() - t0
        probes = json.loads(out.splitlines()[-1])
        times.append((wall, speed.rescale(wall, probes["spent"], probes["probes"])))
    return times


def micro_timings() -> dict[str, float]:
    """Median microseconds per call of two public kernels at 257 nodes."""
    import numpy as np
    from cglvortex import GridFunction, enforce_solvability, integrate, make_grid
    from cglvortex import solve_linear_inhomogeneous

    grid = make_grid(257)
    x = grid.nodes
    f = enforce_solvability(GridFunction(grid, np.cos(3 * x) + 0.3j * np.sin(2 * x) + 0.1))
    out = {}
    for name, call in (
        ("quadrature.integrate_us", lambda: integrate(f)),
        ("greens.envelope_solve_us", lambda: solve_linear_inhomogeneous(f)),
    ):
        batches = []
        for _ in range(MICRO_BATCHES):
            t0 = time.perf_counter()
            for _ in range(MICRO_CALLS):
                call()
            batches.append((time.perf_counter() - t0) / MICRO_CALLS * 1e6)
        out[name] = statistics.median(batches)
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool, small: bool = False) -> dict:
    """One benchmark run of one workload; returns the result object."""
    import cglvortex

    if not Path(cglvortex.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"cglvortex was imported from {cglvortex.__file__}, not {SRC}")
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.build(name, seed, OUT_DIR, small)
    reference = workloads.load_reference(name) if seed == 0 and not small else None

    flags: list[bool] = []
    outputs, _, _, first_csv = run_pass(workload)
    flags += workloads.check_pass(workload, outputs, first_csv, None, reference)

    tracer = tracing.Tracer()
    plain: list[tuple[float, float]] = []
    spanned: list[tuple[float, float]] = []
    raw: list[tuple[float, float]] = []
    t0 = time.perf_counter()
    while not plain or (traced and not spanned) or time.perf_counter() - t0 < seconds:
        with_trace = traced and len(plain) > len(spanned)
        if with_trace:
            tracer.pass_id = len(spanned)
            with tracer:
                outputs, wall, cpu, csv_bytes = run_pass(workload)
            spanned.append((wall, cpu))
        elif traced:
            outputs, wall, cpu, csv_bytes = run_pass(workload)
            plain.append((wall, cpu))
        else:
            with speed.HostSpeed() as host:
                outputs, wall, cpu, csv_bytes = run_pass(workload)
            plain.append(host.rescale(wall, cpu))
            raw.append((wall, host.slowdown()))
        flags += workloads.check_pass(workload, outputs, csv_bytes, first_csv, reference)

    env = environment()
    attempted, failed = len(flags), flags.count(False)
    if traced:
        metrics = layer_metrics(tracer, plain, spanned)
        tracer.write_jsonl(OUT_DIR / f"trace_{name}.jsonl",
                           {"workload": name, "seed": seed, **env})
        units = PER_LAYER_UNITS
    else:
        setups = measure_setup()
        metrics = {
            "wall_s": statistics.median(w for w, _ in plain),
            "cpu_s": statistics.median(c for _, c in plain),
            "setup_s": statistics.median(r for _, r in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END_UNITS
    print(f"# {name} seed={seed} trace={int(traced)}: 1 warm-up, {len(plain)} untraced and "
          f"{len(spanned)} traced passes; " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# checks: attempted={attempted} failed={failed} failed_frac={failed / attempted:.6g}")
    if traced:
        print("# untraced pass wall_s: " + " ".join(f"{w:.3f}" for w, _ in plain))
    else:
        print("# pass wall_s, rescaled: " + " ".join(f"{w:.3f}" for w, _ in plain))
        print("# pass wall_s, raw:      " + " ".join(f"{w:.3f}" for w, _ in raw))
        print("# probe time / reference: " + " ".join(f"{f:.3f}" for _, f in raw))
        print("# setup_s, rescaled and raw: " + " ".join(f"{r:.3f}/{w:.3f}" for w, r in setups))
    if traced:
        pass_s = statistics.median(w for w, _ in spanned)
        top = sorted(((v, k) for k, v in metrics.items() if k.endswith(".self_s")), reverse=True)
        print("# largest self times, share of a traced pass: "
              + ", ".join(f"{k[:-len('.self_s')]} {v / pass_s:.1%}" for v, k in top[:4]))
    for key, value in metrics.items():
        print(f"{name} {key} = {value:.6g} {units[key]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def layer_metrics(tracer, plain, spanned) -> dict[str, float]:
    own = tracing.self_times(tracer.spans)
    per_pass, points = [], []
    for pass_id in range(len(spanned)):
        idx = [i for i, s in enumerate(tracer.spans) if s.pass_id == pass_id]
        spans = [tracer.spans[i] for i in idx]
        per_pass.append(tracing.pass_metrics(spans, [own[i] for i in idx]))
        points += tracing.point_durations(spans)
    out = micro_timings()
    out.update(tracing.median_metrics(per_pass))
    out["sweep.point_p50_ms"] = 1e3 * statistics.median(points) if points else 0.0
    out["sweep.point_p90_ms"] = (
        1e3 * statistics.quantiles(points, n=10)[8] if len(points) > 1 else out["sweep.point_p50_ms"]
    )
    out["trace.overhead_frac"] = (
        statistics.median(w for w, _ in spanned) / statistics.median(w for w, _ in plain) - 1.0
    )
    return {k: out[k] for k in PER_LAYER_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cglvortex" / "__init__.py").is_file():
        print(f"error: no cglvortex sources under {SRC}", file=sys.stderr)
        return 2
    configure()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
