"""Robust UAV trajectory and transmit-power planning for worst-case secrecy rate."""

from .convex_backend import SolverResult, solve
from .geometry import (WorstCaseGeometry, avg_worst_case_secrecy_rate, secrecy_sum,
                       worst_case_dist_sq, worst_case_dist_sq_oracle,
                       worst_case_geometry)
from .harness import SweepSpec, load_scenario, run_sweep
from .planner import (IterationRecord, PlanResult, best_effort_trajectory,
                      equal_power, optimize, optimize_non_robust,
                      run_best_effort)
from .power_alloc import (PowerDual, optimize_power, power_for_dual,
                          solve_power_subproblem)
from .scenario import (EveRegion, InvalidScenario, PowerSchedule, Scenario,
                       Trajectory, slot_count, validate)
from .trajectory_sca import (ConvexProgram, SubproblemSolution, assemble,
                             initialize_slacks, solve_step)

__version__ = "0.1.0"
