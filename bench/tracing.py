"""Spans around the public functions of each cglvortex layer.

The tracer wraps, from outside the package, each public function under
the name its calling module looks it up by (``cglvortex.sweep.fixed_point_solve``
is the sweep's view of ``reduction.fixed_point_solve``), records one span
per call (name, start, end, parent, pass id) and takes work counts from the
returned ``Branch``.  Spans stay in memory until ``write_jsonl``.  Leaving
the ``with`` block restores every wrapped name, so code run outside it
never goes through a wrapper.

Layers are the package modules.  Everything runs on one thread and nothing
queues, so no wait time is recorded.
"""
from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from dataclasses import dataclass, field

# (calling module, attribute, span name); the span name is the layer that
# defines the function, then the function
TARGETS = (
    ("cglvortex.cli", "main", "cli.main"),
    ("cglvortex.cli", "run_sweep", "sweep.run_sweep"),
    ("cglvortex.cli", "emit_results", "sweep.emit_results"),
    ("cglvortex.cli", "fixed_point_solve", "reduction.fixed_point_solve"),
    ("cglvortex.cli", "shoot_solve", "direct.shoot_solve"),
    ("cglvortex.cli", "fd_solve", "direct.fd_solve"),
    ("cglvortex.cli", "compare_branches", "direct.compare_branches"),
    ("cglvortex.cli", "extend_solution", "physics.extend_solution"),
    ("cglvortex.cli", "cgl_residual", "physics.cgl_residual"),
    ("cglvortex.sweep", "fixed_point_solve", "reduction.fixed_point_solve"),
    ("cglvortex.sweep", "shoot_solve", "direct.shoot_solve"),
    ("cglvortex.sweep", "fd_solve", "direct.fd_solve"),
    ("cglvortex.sweep", "record_from_branch", "sweep.record_from_branch"),
    ("cglvortex.sweep", "extend_solution", "physics.extend_solution"),
    ("cglvortex.direct", "spsolve", "direct.spsolve"),
)

SOLVERS = ("reduction.fixed_point_solve", "direct.shoot_solve", "direct.fd_solve")

# spans whose calls and self time are reported as per-layer metrics
SELF_TIMED = (
    "reduction.fixed_point_solve",
    "direct.shoot_solve",
    "direct.fd_solve",
    "direct.spsolve",
    "direct.compare_branches",
    "physics.extend_solution",
    "physics.cgl_residual",
    "sweep.run_sweep",
    "sweep.record_from_branch",
    "sweep.emit_results",
    "cli.main",
)


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    pass_id: int | None
    start: float = 0.0
    end: float = 0.0
    iterations: int | None = None
    diverged: bool | None = None
    # the CoreParams of a fixed-point call, held so that identity is reliable
    params: object = field(default=None, repr=False)


class Tracer:
    """Install with ``with Tracer() as t:``; set ``t.pass_id`` per pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.pass_id)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if name in SOLVERS:
                span.iterations = result.iterations
                span.diverged = bool(result.diverged)
                if name == "reduction.fixed_point_solve":
                    span.params = kwargs.get("params", args[0] if args else None)
            return result

        return traced

    def write_jsonl(self, path, header: dict) -> None:
        """One JSON object per line: the header, then one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, s in enumerate(self.spans):
                rec = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "pass": s.pass_id}
                if s.iterations is not None:
                    rec["iterations"] = s.iterations
                    rec["diverged"] = s.diverged
                fh.write(json.dumps(rec) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def pass_metrics(spans: list[Span], own: list[float]) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans, in call order, and
    their self times."""
    out: dict[str, float] = {}
    for name in SELF_TIMED:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    for s, t in zip(spans, own):
        if s.name in SELF_TIMED:
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.self_s"] += t

    fp = [s for s in spans if s.name == "reduction.fixed_point_solve"]
    maps = [s.iterations + (0 if s.diverged else 1) for s in fp]
    # a fixed-point call is abandoned when the caller re-solves the same
    # parameters straight after it (the relaxed restart)
    useful = sum(
        m for i, m in enumerate(maps)
        if not (i + 1 < len(fp) and fp[i + 1].params is fp[i].params)
    )
    total_maps = sum(maps)
    out["reduction.map_applications"] = total_maps
    out["reduction.useful_map_frac"] = useful / total_maps if total_maps else 1.0
    out["reduction.map_us"] = (
        1e6 * out["reduction.fixed_point_solve.self_s"] / total_maps if total_maps else 0.0
    )
    out["direct.shoot_solve.newton_iters"] = sum(
        s.iterations for s in spans if s.name == "direct.shoot_solve")
    reported = sum(s.iterations for s in spans if s.name == "direct.fd_solve")
    solves = out["direct.spsolve.calls"]
    out["direct.fd_solve.reported_iters"] = reported
    out["direct.fd_useful_solve_frac"] = reported / solves if solves else 1.0
    return out


def point_durations(spans: list[Span]) -> list[float]:
    """Seconds per parameter point of one pass.

    In a sweep a point runs from its first solver call to the end of its
    record; without a sweep, a point is one ``cli.main`` call.
    """
    if not any(s.name == "sweep.run_sweep" for s in spans):
        return [s.end - s.start for s in spans if s.name == "cli.main"]
    out, start = [], None
    for s in spans:
        if s.name in SOLVERS and start is None:
            start = s.start
        elif s.name == "sweep.record_from_branch" and start is not None:
            out.append(s.end - start)
            start = None
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
