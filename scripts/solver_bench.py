#!/usr/bin/env python3
"""Time the interior-point solver alone on the convex programs of a workload.

    python3 scripts/solver_bench.py --workload fig2_sweep --seed 0 --reps 20

The script imports ``planbench/workloads.py`` (it changes nothing there) and
plans every (value, algorithm) point of the workload's sweeps once, in the
order ``plan_digest.py`` does, keeping each program that ``trajectory_sca``
hands to ``convex_backend.solve`` with the previous step's hand-off that came
with it (None for a plan's first step).  It then solves every kept program
``--reps`` times from its hand-off, as the plan did, each solve timed alone in
process CPU time, and prints:

  * how many solves started warm from their hand-off and how many cold (a
    hand-off that maps to no interior point falls back cold);

  * the sum over the programs of each one's fastest solve (the minimum
    filters out the host's noise, which a median over a short run does not);
  * that sum per primal-dual iteration, in microseconds;
  * the Python-level calls per primal-dual iteration, from one pass over the
    programs under cProfile (functions and built-in methods; numpy's ufunc
    calls and operators are not counted).  A count of calls overstates a CPU
    cut: each one costs a different amount.

The programs, their iterations and statuses are deterministic, so two
checkouts that solve alike print the same first line.
"""
import argparse
import cProfile
import pstats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "planbench"))

import workloads
from secuav import convex_backend
from secuav.harness import _run_algorithm, derive_scenario


def capture_programs(workload: str, seed: int) -> list:
    """Every (program, hand-off) the workload's plans solve, in solve order."""
    programs = []
    solve = convex_backend.solve

    def keep(program, warm=None):
        programs.append((program, warm))
        return solve(program, warm)

    convex_backend.solve = keep
    try:
        for spec in workloads.generate(workload, seed):
            for value in sorted(spec.values):
                scenario = derive_scenario(spec.base, spec.param, value)
                for tag in sorted(spec.algorithms):
                    _run_algorithm(tag, scenario)
    finally:
        convex_backend.solve = solve
    return programs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=10,
                        help="solves per program; the fastest counts (default: 10)")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    programs = capture_programs(args.workload, args.seed)
    solve = convex_backend.solve
    best = [float("inf")] * len(programs)
    iters = warm_starts = 0
    for rep in range(args.reps):
        for i, (program, warm) in enumerate(programs):
            start = time.process_time()
            res = solve(program, warm)
            best[i] = min(best[i], time.process_time() - start)
            if rep == 0:
                iters += res.newton_iters
                warm_starts += res.warm_start
    profile = cProfile.Profile()
    profile.enable()
    for program, warm in programs:
        solve(program, warm)
    profile.disable()
    calls = pstats.Stats(profile).total_calls

    solve_s = sum(best)
    per_iter = 1e6 * solve_s / iters if iters else float("nan")
    print(f"{args.workload} s{args.seed}: {len(programs)} programs ({warm_starts} warm, "
          f"{len(programs) - warm_starts} cold), {iters} primal-dual iterations, "
          f"{args.reps} reps")
    print(f"solve CPU (sum of per-program minima): {solve_s:.6f} s")
    print(f"per primal-dual iteration: {per_iter:.1f} us")
    print(f"Python calls per primal-dual iteration: {calls / iters if iters else 0.0:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
