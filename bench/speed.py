"""Host-speed sampling, to take a shared host's drift out of timed work.

On a host shared with other tenants the same work runs up to a third
slower for minutes at a time, so wall and CPU seconds of identical passes
spread more than any useful regression bound.  ``HostSpeed`` samples the
host's speed while the work runs: every ``INTERVAL_S`` a timer signal
runs a fixed probe twice, the first time to warm the caches the program
evicted since the last sample and the second time timed.  The probe is a
scalar complex loop with numpy calls, like the shooting RK4, and uses no
cglvortex code.  ``rescale`` takes the time spent in the probes out of
the work and rescales what is left to a host on which the timed probe
takes ``PROBE_REF_S``:

    rescaled = (work - time in probes) * PROBE_REF_S / mean(timed probe)

A change to cglvortex moves the rescaled time as it moves the raw time; a
host that slows the probe and the program alike leaves it unchanged.  The
mean of the probes, not their median, is used: the work is slowed by the
host's average state over its run, its worst moments included.  Over
ten 25-second runs of each workload on a shared 2-vCPU VM, raw pass times
followed the mean probe with log-log slopes of 0.82-0.87 (correlation
0.86-0.96), and rescaling cut the spread of the run medians (IQR over
median) from 7-22% to 4-7%.  A probe of numpy calls on node-sized
arrays, run cold, followed the ``verify`` passes with a slope of 0.7 only.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# typical mean wall seconds of one timed probe on a shared 2-vCPU cloud VM
# (Python 3.11.7, numpy 2.4.6): rescaled times are seconds on such a host
PROBE_REF_S = 2.0e-4
MIN_SAMPLES = 9


def probe() -> complex:
    """Fixed work of about 0.2 ms; the result only keeps it from being
    optimised away."""
    u, v = 0.0j, 1.0 + 0.5j
    for i in range(200):
        au = abs(u)
        f = -u - (0.3 + 0.1j) * (1.0 - au * au) * u
        u, v = u + 0.01 * v + 1e-3 * np.cos(-1.5 + i * 0.01), v + 0.01 * f
    return u


def rescale(seconds: float, spent: float, probes: list[float]) -> float:
    """Seconds of sampled work without the ``spent`` seconds its probes
    took, rescaled to the reference host speed by the mean timed probe."""
    return (seconds - spent) * PROBE_REF_S / statistics.fmean(probes)


class HostSpeed:
    """``with HostSpeed() as hs:`` samples the host while the block runs."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.wall: list[float] = []  # timed probes
        self.cpu: list[float] = []
        self.spent_wall = 0.0  # all probe time inside the block
        self.spent_cpu = 0.0
        self._old = None

    def _sample(self) -> tuple[float, float]:
        w0, c0 = time.perf_counter(), time.process_time()
        probe()
        w1, c1 = time.perf_counter(), time.process_time()
        probe()
        w2, c2 = time.perf_counter(), time.process_time()
        self.wall.append(w2 - w1)
        self.cpu.append(c2 - c1)
        return w2 - w0, c2 - c0

    def _on_timer(self, *_):
        wall, cpu = self._sample()
        self.spent_wall += wall
        self.spent_cpu += cpu

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        while len(self.wall) < MIN_SAMPLES:  # a short block: sample after it
            self._sample()
        return False

    def rescale(self, wall: float, cpu: float) -> tuple[float, float]:
        """Wall and CPU seconds of the sampled block, rescaled."""
        return (
            rescale(wall, self.spent_wall, self.wall),
            rescale(cpu, self.spent_cpu, self.cpu),
        )

    def slowdown(self) -> float:
        """Mean timed probe over the reference."""
        return statistics.fmean(self.wall) / PROBE_REF_S
