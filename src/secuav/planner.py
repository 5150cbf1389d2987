"""Outer optimization loop and the two benchmark baselines.

The main algorithm alternates an exact power update with one convex
trajectory step per iteration, starting from the best-effort trajectory with
its exact power update, until the fractional objective increase drops below
the scenario's threshold.  The non-robust benchmark runs the same loop with
all uncertainty radii zeroed and is then judged under the true radii; the
best-effort benchmark skips optimization entirely.

Between steps the planner keeps each accepted track's ``WorstCaseGeometry``,
which ``solve_step`` computes once for the power update, both objectives, the
next program and the final rate, and the step's solver hand-off, from which
the next convex step starts warm; both are locals of one ``optimize`` call, so
a plan's first step is cold and no plan sees another's.
"""
from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from .convex_backend import TROUBLE, SolverResult
from .geometry import avg_worst_case_secrecy_rate, secrecy_sum, worst_case_geometry
from .power_alloc import PowerDual, optimize_power
from .scenario import (PowerSchedule, Scenario, Trajectory, power_violations,
                       require_valid, trajectory_violations)
# initialize_slacks is unused here, but planbench's tracer and its tests wrap
# the name at this site
from .trajectory_sca import initialize_slacks, solve_step  # noqa: F401

ROBUST = "robust"
NON_ROBUST = "non_robust"
BEST_EFFORT = "best_effort"


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    objective: float          # unclamped secrecy sum at this iterate
    trajectory: Trajectory
    powers: PowerSchedule
    status: str
    wall_s: float             # since the plan started
    # the step's own solve (None on the start record) and power update (None
    # only on a trouble step); a trouble step, or one whose iterate rates no
    # better than the previous one, keeps the previous iterate
    solve: SolverResult | None = None
    dual: PowerDual | None = None


@dataclass(frozen=True)
class PlanResult:
    trajectory: Trajectory
    powers: PowerSchedule
    iterations: tuple[IterationRecord, ...]
    secrecy_rate: float       # clamped slot average, the reported metric
    converged: bool
    algorithm: str


def best_effort_trajectory(scenario: Scenario) -> Trajectory:
    """Greedy baseline: race to hover above the receiver, leave as late as possible.

    At every step the transmitter heads for the receiver (or hovers there)
    unless doing so would make the final position unreachable in the remaining
    steps, in which case it heads straight for the final position.
    """
    n = scenario.n_slots
    step = scenario.max_step
    eps = 1e-9 * max(step, 1.0)
    # Python floats: numpy's per-call cost on 2-element arrays dwarfs the
    # arithmetic of this loop
    x, y = map(float, scenario.start_xy)
    end_x, end_y = map(float, scenario.end_xy)
    xs, ys = [x], [y]

    def towards(px, py, tx, ty):
        dx, dy = tx - px, ty - py
        d = math.hypot(dx, dy)
        if d <= step:
            return tx, ty
        f = step / d
        return px + f * dx, py + f * dy

    for i in range(1, n + 2):
        cx, cy = towards(x, y, 0.0, 0.0)
        remaining = (n + 1) - i
        if math.hypot(cx - end_x, cy - end_y) <= remaining * step + eps:
            x, y = cx, cy
        else:
            x, y = towards(x, y, end_x, end_y)
        xs.append(x)
        ys.append(y)
    xs[n + 1], ys[n + 1] = end_x, end_y
    return Trajectory(xs=np.array(xs), ys=np.array(ys))


def equal_power(scenario: Scenario) -> PowerSchedule:
    """Flat schedule at the average budget (feasible since avg < peak)."""
    return PowerSchedule(np.full(scenario.n_slots, scenario.avg_power))


def _fractional_increase(new: float, old: float) -> float:
    return abs(new - old) / max(abs(old), 1e-12)


def _check_feasible(traj: Trajectory, powers: PowerSchedule, scenario: Scenario):
    violations = (trajectory_violations(traj, scenario)
                  + power_violations(powers, scenario))
    if violations:
        raise RuntimeError("planned schedule is infeasible: " + "; ".join(violations))


def optimize(scenario: Scenario) -> PlanResult:
    """Joint trajectory and power design (the robust algorithm).

    Raises InvalidScenario when ``validate`` rejects the scenario, and
    RuntimeError when the plan it would return breaks a trajectory or power
    constraint of the scenario.
    """
    require_valid(scenario)
    t0 = time.perf_counter()
    traj = best_effort_trajectory(scenario)
    geo = worst_case_geometry(traj, scenario)
    dual = optimize_power(traj, scenario, 1.0, geo)
    powers = dual.schedule
    objective = secrecy_sum(traj, powers, scenario, geo)
    records = [IterationRecord(0, objective, traj, powers, "init",
                               time.perf_counter() - t0, dual=dual)]
    converged, warm = False, None
    for m in range(1, scenario.max_iters + 1):
        sol = solve_step(traj, powers, scenario, warm, geo)
        if sol.status == TROUBLE:
            records.append(IterationRecord(m, objective, traj, powers, TROUBLE,
                                           time.perf_counter() - t0, sol.solve))
            break
        # the power dual starts from the previous update's dual
        dual = optimize_power(sol.trajectory, scenario, dual.lam, sol.geometry)
        new_objective = secrecy_sum(sol.trajectory, dual.schedule, scenario, sol.geometry)
        gain = 0.0
        if new_objective > objective:
            gain = _fractional_increase(new_objective, objective)
            traj, powers, objective = sol.trajectory, dual.schedule, new_objective
            geo, warm = sol.geometry, sol.handoff
        records.append(IterationRecord(m, objective, traj, powers, sol.status,
                                       time.perf_counter() - t0, sol.solve, dual))
        if gain < scenario.epsilon:
            converged = True
            break
    _check_feasible(traj, powers, scenario)
    return PlanResult(trajectory=traj, powers=powers, iterations=tuple(records),
                      secrecy_rate=avg_worst_case_secrecy_rate(traj, powers, scenario, geo),
                      converged=converged, algorithm=ROBUST)


def optimize_non_robust(scenario: Scenario) -> PlanResult:
    """Design as if the estimated eavesdropper positions were exact, judge under truth.

    Raises InvalidScenario, like ``optimize``, when ``validate`` rejects the
    scenario.
    """
    require_valid(scenario)
    zeroed = dataclasses.replace(
        scenario,
        eves=tuple(dataclasses.replace(e, radius=0.0) for e in scenario.eves),
    )
    inner = optimize(zeroed)
    rate = avg_worst_case_secrecy_rate(inner.trajectory, inner.powers, scenario)
    return dataclasses.replace(inner, secrecy_rate=rate, algorithm=NON_ROBUST)


def run_best_effort(scenario: Scenario) -> PlanResult:
    """The best-effort benchmark: the greedy track with equal power.

    Raises InvalidScenario and RuntimeError like ``optimize``.
    """
    require_valid(scenario)
    traj = best_effort_trajectory(scenario)
    powers = equal_power(scenario)
    _check_feasible(traj, powers, scenario)
    return PlanResult(trajectory=traj, powers=powers, iterations=(),
                      secrecy_rate=avg_worst_case_secrecy_rate(traj, powers, scenario),
                      converged=True, algorithm=BEST_EFFORT)
