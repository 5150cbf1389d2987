"""Output checks: the plan failure rule and the sweep.csv shape check."""
from __future__ import annotations

import csv
import math
from pathlib import Path

from secuav.convex_backend import TROUBLE
from secuav.geometry import avg_worst_case_secrecy_rate
from secuav.harness import SweepSpec
from secuav.planner import PlanResult
from secuav.scenario import Scenario, power_violations, trajectory_violations

RATE_REL_TOL = 1e-9


def plan_failures(result: PlanResult, scenario: Scenario) -> list[str]:
    """Why a plan failed; an empty list means the plan is certified.

    ``scenario`` is the one the planner was given, so a non-robust plan is
    judged under the true disks.
    """
    reasons = []
    if not result.converged:
        reasons.append("not converged")
    if any(r.status == TROUBLE for r in result.iterations):
        reasons.append(f"an iteration ended in {TROUBLE}")
    reasons += trajectory_violations(result.trajectory, scenario)
    reasons += power_violations(result.powers, scenario)
    rate = avg_worst_case_secrecy_rate(result.trajectory, result.powers, scenario)
    if not math.isclose(result.secrecy_rate, rate, rel_tol=RATE_REL_TOL, abs_tol=1e-12):
        reasons.append(f"reported secrecy rate {result.secrecy_rate!r} != recomputed {rate!r}")
    return reasons


def sweep_csv_problems(path: Path, spec: SweepSpec,
                       plans: list[tuple[Scenario, PlanResult]]) -> list[str]:
    """sweep.csv must hold one row per (value, algorithm) point, with the
    secrecy rate of the plan the harness computed for that point."""
    if spec.param != "T":
        raise ValueError("only flight-duration sweeps are checked")
    expected = {(float(v), a) for v in spec.values for a in spec.algorithms}
    rates = {(s.flight_duration, r.algorithm): r.secrecy_rate for s, r in plans}
    problems = []
    if len(plans) != len(expected) or set(rates) != expected:
        problems.append(f"{len(plans)} plans ran for {len(expected)} sweep points")
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    seen = [(float(row["value"]), row["algorithm"]) for row in rows]
    if len(seen) != len(expected) or set(seen) != expected:
        problems.append(f"sweep.csv has rows {sorted(seen)}, expected {sorted(expected)}")
    for key, row in zip(seen, rows):
        if key in rates and row["secrecy_rate_bps_hz"] != format(rates[key], ".12g"):
            problems.append(f"sweep.csv rate for {key} is {row['secrecy_rate_bps_hz']}, "
                            f"plan reported {rates[key]!r}")
    return problems
