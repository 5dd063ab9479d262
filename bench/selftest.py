"""Self-test of the benchmark: trace isolation, host-speed sampling and a
small-size smoke run.

    python3 bench/selftest.py

Takes about half a minute.  The smoke run shrinks every workload to a
few points and checks that each metric named in BENCHMARK.json is
printed and returned with its unit.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import signal
import tempfile
import time
import unittest
from pathlib import Path

import run
import speed
import tracing
import workloads

run.configure()

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _current():
    return {
        (module, attr): getattr(importlib.import_module(module), attr)
        for module, attr, _ in tracing.TARGETS
    }


def _small_pass(name="rect_fp"):
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        workload = workloads.build(name, 0, Path(tmp), small=True)
        outputs, _, _, csv_bytes = run.run_pass(workload)
        return workloads.check_pass(workload, outputs, csv_bytes, None, None)


class TraceIsolation(unittest.TestCase):
    def test_every_name_is_wrapped_then_restored(self):
        before = _current()
        with tracing.Tracer():
            during = _current()
            for key, original in before.items():
                self.assertIsNot(during[key], original, key)
                self.assertIs(during[key].__wrapped__, original, key)
        self.assertEqual(_current(), before)

    def test_names_are_restored_when_the_pass_raises(self):
        before = _current()
        with self.assertRaises(ZeroDivisionError):
            with tracing.Tracer():
                1 / 0
        self.assertEqual(_current(), before)

    def test_untraced_pass_goes_through_no_wrapper(self):
        tracer = tracing.Tracer()
        with tracer:
            pass
        self.assertTrue(all(_small_pass()))
        self.assertEqual(tracer.spans, [])

    def test_traced_pass_nests_solver_spans_under_the_sweep(self):
        tracer = tracing.Tracer()
        tracer.pass_id = 0
        with tracer:
            self.assertTrue(all(_small_pass()))
        names = [s.name for s in tracer.spans]
        self.assertEqual(names[0], "cli.main")
        self.assertEqual(len(tracing.point_durations(tracer.spans)), 6)
        for s in tracer.spans:
            if s.name == "reduction.fixed_point_solve":
                self.assertEqual(tracer.spans[s.parent].name, "sweep.run_sweep")
        own = tracing.self_times(tracer.spans)
        self.assertTrue(all(t >= 0.0 for t in own))
        self.assertAlmostEqual(sum(own), tracer.spans[0].end - tracer.spans[0].start, places=9)


class HostSpeedSampling(unittest.TestCase):
    def test_timer_and_handler_are_restored(self):
        before = signal.getsignal(signal.SIGALRM)
        with speed.HostSpeed() as host:
            time.sleep(0.2)
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertGreater(host.spent_wall, 0.0)

    def test_rescale_takes_out_the_probes_and_the_slowdown(self):
        probes = [2 * speed.PROBE_REF_S] * speed.MIN_SAMPLES
        self.assertAlmostEqual(speed.rescale(1.25, 0.25, probes), 0.5, places=9)
        self.assertAlmostEqual(speed.rescale(1.0, 0.0, probes), 0.5, places=9)

    def test_a_short_block_is_sampled_after_it_ends(self):
        with speed.HostSpeed() as host:
            pass
        self.assertEqual(host.spent_wall, 0.0)
        self.assertEqual(len(host.wall), speed.MIN_SAMPLES)
        wall, cpu = host.rescale(0.01, 0.01)
        self.assertGreater(wall, 0.0)
        self.assertGreater(cpu, 0.0)


class Smoke(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            wanted = {m["name"]: m["unit"] for m in BENCHMARK[key]}
            for name in workloads.NAMES:
                with self.subTest(workload=name, traced=traced):
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        result = run.run_workload(name, 1, 0.0, traced, small=True)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted)
                    lines = buf.getvalue().splitlines()
                    for metric, unit in wanted.items():
                        self.assertTrue(
                            any(line.startswith(f"{name} {metric} = ") and line.endswith(f" {unit}")
                                for line in lines),
                            metric,
                        )


if __name__ == "__main__":
    unittest.main()
