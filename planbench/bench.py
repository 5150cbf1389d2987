"""Measurement loop and metrics of the planner benchmark.

Each workload runs in one process as a closed loop with one caller: the
benchmark hands the workload's sweeps to ``harness.run_sweep`` one after
another (a round) and, after at least three rounds, starts another one
only while it still fits in ``--seconds``.  The harness runs the points of a
sweep on its default pool.  All rounds of one seed do the same work, so counts
per round repeat exactly; rounds that return different plans make the run
incorrect.

End-to-end metrics (``--trace 0``); the unit is one plan, a call to
``optimize``, ``optimize_non_robust`` or ``run_best_effort`` made by the harness:

* ``setup_s`` -- median of five fresh-interpreter imports of ``secuav`` plus the
  median of five generations (with ``validate()``) of the workload's scenarios.
* ``certified_plans_per_s`` -- plans that pass ``checks.plan_failures`` divided
  by the wall time spent in ``run_sweep``; median over rounds.
* ``cpu_s_per_certified_plan`` -- process CPU time in ``run_sweep`` (all
  threads) divided by certified plans (by 1 when none is certified); median
  over rounds.
* ``plan_fail_frac`` -- failed plans over attempted plans in one round, with
  one failure and one success added to each (rule of succession), so that
  the metric is never 0 and a first failure still shows.
* ``secrecy_rate_mean`` -- mean reported secrecy rate over attempted plans.
* ``peak_rss_mb`` -- peak resident memory of the process.

Per-layer metrics (``--trace 1``) come from ``tracing.layer_metrics`` over the
traced rounds, which alternate with untraced rounds of the same work, plus
``harness.run_sweep.serial_s`` (one untraced round with PLANNER_THREADS=1) and
``trace.overhead`` (traced over untraced wall time).  The spans are written to
``<work>/trace-<workload>-seed<seed>.jsonl``.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from secuav import harness

import workloads
from checks import plan_failures, sweep_csv_problems
from tracing import SWEEP, Tracer, instrument, layer_metrics

SETUP_TRIALS = 5
# the median of three rounds or more ignores one round slowed by other load
MIN_ROUNDS = 3
_IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import secuav; "
                 "print(time.perf_counter() - t)")

END_TO_END_UNITS = {
    "setup_s": "s",
    "certified_plans_per_s": "plans/s",
    "cpu_s_per_certified_plan": "s",
    "plan_fail_frac": "ratio",
    "secrecy_rate_mean": "bps/Hz",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name in ("harness.concurrency", "trace.overhead"):
        return "ratio"
    if name == "convex_backend.duality_gap.max":
        return "bps/Hz"
    if name.endswith(("_s", ".s", ".sum", ".s_per_newton")):
        return "s"
    return "count"


@dataclass(frozen=True)
class PlanRecord:
    key: tuple            # (sweep index, flight duration, algorithm)
    failures: tuple[str, ...]
    secrecy_rate: float
    statuses: tuple[str, ...]


@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    plans: list[PlanRecord] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for p in self.plans if p.failures)


def run_round(specs, work: Path, tracer: Tracer | None = None) -> Round:
    """Run every sweep once and check every plan and every sweep.csv."""
    rnd = Round()
    with instrument(tracer) as captured:
        for i, spec in enumerate(specs):
            first = len(captured)
            out = Path(tempfile.mkdtemp(dir=work))
            try:
                attrs = {}
                span = tracer.span(SWEEP, attrs) if tracer else contextlib.nullcontext()
                with span:
                    cpu0, t0 = time.process_time(), time.perf_counter()
                    harness.run_sweep(spec, out)
                    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
                    attrs["cpu_s"] = cpu
                rnd.wall_s += wall
                rnd.cpu_s += cpu
                plans = captured[first:]
                rnd.problems += sweep_csv_problems(out / "sweep.csv", spec, plans)
            finally:
                shutil.rmtree(out)
            for scenario, result in plans:
                rnd.plans.append(PlanRecord(
                    key=(i, scenario.flight_duration, result.algorithm),
                    failures=tuple(plan_failures(result, scenario)),
                    secrecy_rate=result.secrecy_rate,
                    statuses=tuple(r.status for r in result.iterations)))
    rnd.plans.sort(key=lambda p: p.key)
    return rnd


def time_import(root: Path) -> float:
    """Seconds to import secuav in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(root / "src")],
                         cwd=root, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.split()[-1])


def _setup(workload: str, seed: int, root: Path):
    """Median import time plus median generation time; returns specs and setup_s."""
    import_s = statistics.median(time_import(root) for _ in range(SETUP_TRIALS))
    times = []
    for _ in range(SETUP_TRIALS):
        t0 = time.perf_counter()
        specs = workloads.generate(workload, seed)
        times.append(time.perf_counter() - t0)
    return specs, import_s + statistics.median(times)


def _end_to_end(rounds: list[Round], setup_s: float) -> dict[str, float]:
    first = rounds[0]
    certified = len(first.plans) - first.failed
    return {
        "setup_s": setup_s,
        "certified_plans_per_s": statistics.median(certified / r.wall_s for r in rounds),
        "cpu_s_per_certified_plan": statistics.median(r.cpu_s / max(certified, 1)
                                                      for r in rounds),
        "plan_fail_frac": (first.failed + 1) / (len(first.plans) + 2),
        "secrecy_rate_mean": statistics.fmean(p.secrecy_rate for p in first.plans),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _traced(specs, work: Path, seconds: int, label: str):
    """Untraced and traced rounds in pairs, then one serial round."""
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_round(specs, work))
        traced.append(run_round(specs, work, tracer))
        pair = plain[-1].wall_s + traced[-1].wall_s
        if time.perf_counter() - start + pair > seconds:
            break
    os.environ["PLANNER_THREADS"] = "1"
    try:
        serial = run_round(specs, work)
    finally:
        del os.environ["PLANNER_THREADS"]
    metrics = layer_metrics(tracer.spans, len(traced))
    metrics["harness.run_sweep.serial_s"] = serial.wall_s
    metrics["trace.overhead"] = (sum(r.wall_s for r in traced)
                                 / sum(r.wall_s for r in plain))
    tracer.write(work / f"trace-{label}.jsonl",
                 {"traced_rounds": len(traced), "metrics": metrics})
    return plain + traced + [serial], metrics


def run(args, root: Path) -> int:
    specs, setup_s = _setup(args.workload, args.seed, root)
    work = root / ".planbench"
    work.mkdir(exist_ok=True)
    saved_threads = os.environ.pop("PLANNER_THREADS", None)
    try:
        run_round([workloads.warmup()], work)
        if args.trace:
            rounds, metrics = _traced(specs, work, args.seconds,
                                      f"{args.workload}-seed{args.seed}")
            units = {name: layer_unit(name) for name in metrics}
        else:
            rounds = []
            start = time.perf_counter()
            while True:
                rounds.append(run_round(specs, work))
                if (len(rounds) >= MIN_ROUNDS and time.perf_counter() - start
                        + rounds[-1].wall_s > args.seconds):
                    break
            metrics = _end_to_end(rounds, setup_s)
            units = END_TO_END_UNITS
    finally:
        if saved_threads is not None:
            os.environ["PLANNER_THREADS"] = saved_threads

    problems = [p for r in rounds for p in r.problems]
    if any(r.plans != rounds[0].plans for r in rounds[1:]):
        problems.append("rounds of the same seed returned different plans")
    reasons = Counter(f for r in rounds for p in r.plans for f in p.failures)
    for reason, count in sorted(reasons.items()):
        print(f"failed plans: {count} x {reason}")
    for problem in problems:
        print(f"incorrect: {problem}")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{sum(r.wall_s for r in rounds):.3f} s in run_sweep")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(r.plans) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0
