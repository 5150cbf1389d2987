"""Outer optimization loop and the two benchmark baselines.

The main algorithm alternates an exact power update with one convex
trajectory step per iteration, starting from the best-effort trajectory with
equal power, until the fractional objective increase drops below the
scenario's threshold.  The non-robust benchmark runs the same loop with all
uncertainty radii zeroed and is then judged under the true radii; the
best-effort benchmark skips optimization entirely.
"""
from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .convex_backend import TROUBLE
from .geometry import avg_worst_case_secrecy_rate, secrecy_sum
from .power_alloc import optimize_power
from .scenario import (PowerSchedule, Scenario, Trajectory, power_violations,
                       trajectory_violations)
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
    wall_s: float
    newton_iters: int = 0     # Newton steps of the iteration's convex step


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
    pos = np.array(scenario.start_xy, dtype=float)
    end = np.array(scenario.end_xy, dtype=float)
    bob = np.zeros(2)
    xs = np.empty(n + 2)
    ys = np.empty(n + 2)
    xs[0], ys[0] = pos

    def towards(p, target):
        d = float(np.hypot(*(target - p)))
        if d <= step:
            return target.copy()
        return p + (step / d) * (target - p)

    for i in range(1, n + 2):
        cand = towards(pos, bob)
        remaining = (n + 1) - i
        if float(np.hypot(*(cand - end))) <= remaining * step + eps:
            pos = cand
        else:
            pos = towards(pos, end)
        xs[i], ys[i] = pos
    xs[n + 1], ys[n + 1] = end
    return Trajectory(xs=xs, ys=ys)


def equal_power(scenario: Scenario) -> PowerSchedule:
    """Flat schedule at the average budget (feasible since avg < peak)."""
    return PowerSchedule(np.full(scenario.n_slots, scenario.avg_power))


def _fractional_increase(new: float, old: float) -> float:
    return abs(new - old) / max(abs(old), 1e-12)


def optimize(scenario: Scenario) -> PlanResult:
    """Joint trajectory and power design (the robust algorithm).

    Raises RuntimeError when the plan it would return breaks a trajectory or
    power constraint of the scenario.
    """
    t0 = time.perf_counter()
    traj = best_effort_trajectory(scenario)
    powers = equal_power(scenario)
    objective = secrecy_sum(traj, powers, scenario)
    records = [IterationRecord(0, objective, traj, powers, "init",
                               time.perf_counter() - t0)]
    converged = False
    for m in range(1, scenario.max_iters + 1):
        sol = solve_step(traj, powers, scenario)
        if sol.status == TROUBLE:
            records.append(IterationRecord(m, objective, traj, powers, TROUBLE,
                                           time.perf_counter() - t0, sol.newton_iters))
            break
        traj = sol.trajectory
        dual = optimize_power(traj, scenario)
        powers = dual.schedule
        new_objective = secrecy_sum(traj, powers, scenario)
        records.append(IterationRecord(m, new_objective, traj, powers, sol.status,
                                       time.perf_counter() - t0, sol.newton_iters))
        gain = _fractional_increase(new_objective, objective)
        objective = new_objective
        if gain < scenario.epsilon:
            converged = True
            break
    best = max(records, key=lambda r: r.objective)
    violations = (trajectory_violations(best.trajectory, scenario)
                  + power_violations(best.powers, scenario))
    if violations:
        raise RuntimeError("planned schedule is infeasible: " + "; ".join(violations))
    return PlanResult(trajectory=best.trajectory, powers=best.powers,
                      iterations=tuple(records),
                      secrecy_rate=avg_worst_case_secrecy_rate(
                          best.trajectory, best.powers, scenario),
                      converged=converged, algorithm=ROBUST)


def optimize_non_robust(scenario: Scenario) -> PlanResult:
    """Design as if the estimated eavesdropper positions were exact, judge under truth."""
    zeroed = dataclasses.replace(
        scenario,
        eves=tuple(dataclasses.replace(e, radius=0.0) for e in scenario.eves),
    )
    inner = optimize(zeroed)
    return PlanResult(trajectory=inner.trajectory, powers=inner.powers,
                      iterations=inner.iterations,
                      secrecy_rate=avg_worst_case_secrecy_rate(
                          inner.trajectory, inner.powers, scenario),
                      converged=inner.converged, algorithm=NON_ROBUST)


def run_best_effort(scenario: Scenario) -> PlanResult:
    traj = best_effort_trajectory(scenario)
    powers = equal_power(scenario)
    return PlanResult(trajectory=traj, powers=powers, iterations=(),
                      secrecy_rate=avg_worst_case_secrecy_rate(traj, powers, scenario),
                      converged=True, algorithm=BEST_EFFORT)
