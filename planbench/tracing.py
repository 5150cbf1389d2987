"""Spans and counts around the planner's layers, recorded from outside.

The program binds its callees with ``from ... import ...``, so each wrapper
replaces the name where the caller looks it up (``planner.solve_step``,
``convex_backend.solve`` as ``trajectory_sca`` reaches it, the scipy names in
``convex_backend``).  ``instrument`` installs the wrappers and puts every
original back when it exits.

Spans live in memory as (id, name, start, end, parent, plan, attrs) and are
written out once, at the end of a run.  A span opened on a thread with no open
span (a sweep worker) takes the open top-level span of the benchmark as its
parent.  A layer site that the program no longer has is skipped, and its
metrics read 0.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from typing import NamedTuple

from secuav import harness
from secuav.convex_backend import MAX_ITER, OPTIMAL, TROUBLE

# the three plan entry points, looked up in harness by _run_algorithm
ENTRY_POINTS = ("optimize", "optimize_non_robust", "run_best_effort")
PLAN = "planner.plan"
SWEEP = "harness.run_sweep"

# (module, name the caller looks up, span name)
LAYER_SITES = (
    ("secuav.planner", "solve_step", "trajectory_sca.solve_step"),
    ("secuav.planner", "initialize_slacks", "trajectory_sca.initialize_slacks"),
    ("secuav.planner", "optimize_power", "power_alloc.optimize_power"),
    ("secuav.planner", "secrecy_sum", "geometry.secrecy_sum"),
    ("secuav.trajectory_sca", "assemble", "trajectory_sca.assemble"),
    ("secuav.trajectory_sca", "initialize_slacks", "trajectory_sca.initialize_slacks"),
    ("secuav.trajectory_sca", "secrecy_sum", "geometry.secrecy_sum"),
    ("secuav.convex_backend", "solve", "convex_backend.solve"),
    ("secuav.convex_backend", "cholesky_banded", "convex_backend.cholesky_banded"),
    ("secuav.convex_backend", "cho_solve_banded", "convex_backend.cho_solve_banded"),
)

# facts kept from the value a span's call returns
_ATTRS = {
    PLAN: lambda r: {"outer_iters": max(len(r.iterations) - 1, 0)},
    "convex_backend.solve": lambda r: {"status": r.status, "newton": r.newton_iters,
                                       "gap": r.duality_gap},
    "trajectory_sca.solve_step": lambda r: {"status": r.status},
    "power_alloc.optimize_power": lambda r: {"bisect": r.iterations},
}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    plan: int | None
    attrs: dict | None


class Tracer:
    """In-memory span recorder, safe to call from several threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._top: int | None = None

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, is_plan: bool):
        stack = self._stack()
        sid = next(self._ids)
        parent, plan = stack[-1] if stack else (self._top, None)
        stack.append((sid, sid if is_plan else plan))
        return sid, parent, stack[-1][1]

    def wrap(self, fn, name: str):
        extract = _ATTRS.get(name)
        is_plan = name == PLAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, plan = self._open(is_plan)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack().pop()
                attrs = extract(result) if extract and result is not None else None
                self.spans.append(Span(sid, name, start, end, parent, plan, attrs))
        return traced

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """A top-level span of the benchmark itself; ``attrs`` may be filled in
        before the block ends."""
        sid, parent, plan = self._open(False)
        self._top = sid
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._stack().pop()
            self._top = None
            self.spans.append(Span(sid, name, start, end, parent, plan, attrs))

    def write(self, path, header: dict):
        """Write the header and then one span per line, times relative to the first."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for s in sorted(self.spans, key=lambda s: s.id):
                f.write(json.dumps([s.id, s.name, s.start - t0, s.end - t0,
                                    s.parent, s.plan, s.attrs]) + "\n")


def _capturing(fn, sink: list):
    @functools.wraps(fn)
    def capture(scenario, *args, **kwargs):
        result = fn(scenario, *args, **kwargs)
        sink.append((scenario, result))
        return result
    return capture


@contextlib.contextmanager
def instrument(tracer: Tracer | None):
    """Capture every (scenario, PlanResult) the harness produces and, with a
    tracer, record a span at every layer site.  Yields the capture list."""
    captured: list = []
    patches = []
    try:
        for name in ENTRY_POINTS:
            original = getattr(harness, name)
            wrapped = _capturing(original, captured)
            if tracer is not None:
                wrapped = tracer.wrap(wrapped, PLAN)
            patches.append((harness, name, original))
            setattr(harness, name, wrapped)
        if tracer is not None:
            for module_name, attr, span in LAYER_SITES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                patches.append((module, attr, original))
                setattr(module, attr, tracer.wrap(original, span))
        yield captured
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)


def _self_time(span: Span, children: list[Span]) -> float:
    """Duration minus the part of the span's interval its children cover."""
    covered, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (span.end - span.start) - covered


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, float]:
    """Per-layer counts and times, per round of the workload."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def group(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.end - s.start for s in group(name))

    def self_total(name):
        return sum(_self_time(s, children.get(s.id, [])) for s in group(name))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in group(name) if s.attrs)

    solves = [s for s in group("convex_backend.solve") if s.attrs]
    statuses = [s.attrs["status"] for s in solves]
    newton = attr_sum("convex_backend.solve", "newton")
    gaps = [s.attrs["gap"] for s in solves if s.attrs["status"] == OPTIMAL]
    rejected = 0
    for step in group("trajectory_sca.solve_step"):
        if step.attrs and step.attrs["status"] == TROUBLE:
            inner = [c.attrs["status"] for c in children.get(step.id, [])
                     if c.name == "convex_backend.solve" and c.attrs]
            rejected += TROUBLE not in inner
    sweep_s = total(SWEEP)
    point_s = total(PLAN)
    m = {
        "convex_backend.newton_steps": newton,
        "convex_backend.status.optimal": statuses.count(OPTIMAL),
        "convex_backend.status.max_iter": statuses.count(MAX_ITER),
        "convex_backend.status.numerical_trouble": statuses.count(TROUBLE),
        "convex_backend.solve.calls": len(group("convex_backend.solve")),
        "convex_backend.solve.s": total("convex_backend.solve"),
        "convex_backend.cholesky_banded.calls": len(group("convex_backend.cholesky_banded")),
        "convex_backend.cholesky_banded.s": total("convex_backend.cholesky_banded"),
        "convex_backend.cho_solve_banded.calls": len(group("convex_backend.cho_solve_banded")),
        "convex_backend.cho_solve_banded.s": total("convex_backend.cho_solve_banded"),
        "trajectory_sca.solve_step.calls": len(group("trajectory_sca.solve_step")),
        "trajectory_sca.solve_step.self_s": self_total("trajectory_sca.solve_step"),
        "trajectory_sca.assemble.s": total("trajectory_sca.assemble"),
        "trajectory_sca.initialize_slacks.calls": len(group("trajectory_sca.initialize_slacks")),
        "trajectory_sca.initialize_slacks.s": total("trajectory_sca.initialize_slacks"),
        "trajectory_sca.rejected_steps": rejected,
        "planner.plans": len(group(PLAN)),
        "planner.outer_iters": attr_sum(PLAN, "outer_iters"),
        "planner.self_s": self_total(PLAN),
        "power_alloc.optimize_power.calls": len(group("power_alloc.optimize_power")),
        "power_alloc.optimize_power.s": total("power_alloc.optimize_power"),
        "power_alloc.bisect_iters": attr_sum("power_alloc.optimize_power", "bisect"),
        "geometry.secrecy_sum.calls": len(group("geometry.secrecy_sum")),
        "geometry.secrecy_sum.s": total("geometry.secrecy_sum"),
        "harness.run_sweep.s": sweep_s,
        "harness.run_sweep.cpu_s": attr_sum(SWEEP, "cpu_s"),
        "harness.point_s.sum": point_s,
    }
    m = {k: v / rounds for k, v in m.items()}
    m["convex_backend.python_s"] = (m["convex_backend.solve.s"]
                                    - m["convex_backend.cholesky_banded.s"]
                                    - m["convex_backend.cho_solve_banded.s"])
    # ratios and maxima are not divided by the number of rounds
    m["convex_backend.duality_gap.max"] = max(gaps, default=0.0)
    m["convex_backend.s_per_newton"] = total("convex_backend.solve") / newton if newton else 0.0
    m["harness.concurrency"] = point_s / sweep_s if sweep_s else 0.0
    return m
