#!/usr/bin/env python3
"""Time the convex trajectory steps across planner iterations on one scenario.

Each iteration solves its convex step once, through ``solve_step``; the
Newton steps, time, time per Newton step, duality gap, KKT residual and
smallest constraint margin printed are those of the solve whose trajectory is
carried forward.  A last line totals the Newton steps and solve time.
``--slot-len`` replaces the scenario's slot length: ``--duration 160
--slot-len 0.1`` profiles the fine-slot (N = 1600) case.
"""
import argparse
import dataclasses
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from secuav import convex_backend
from secuav.harness import derive_scenario, load_scenario
from secuav.planner import best_effort_trajectory, equal_power
from secuav.power_alloc import optimize_power
from secuav.trajectory_sca import solve_step


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=str(
        Path(__file__).resolve().parent.parent / "scenarios" / "paper_fig2.json"))
    parser.add_argument("--duration", type=float, default=80.0)
    parser.add_argument("--slot-len", type=float, default=None,
                        help="slot length in seconds (default: the scenario's)")
    parser.add_argument("--steps", type=int, default=8)
    args = parser.parse_args()

    base = load_scenario(args.scenario)
    if args.slot_len is not None:
        base = dataclasses.replace(base, slot_len=args.slot_len)
    scen = derive_scenario(base, "T", args.duration)
    traj = best_effort_trajectory(scen)
    powers = equal_power(scen)
    print(f"N = {scen.n_slots} slots, K = {scen.n_eves} eavesdroppers")

    solve = convex_backend.solve
    solves = []

    def timed_solve(prog):
        t0 = time.perf_counter()
        res = solve(prog)
        solves.append((res, time.perf_counter() - t0))
        return res

    def per_step(ms, steps):
        return f"{ms / steps:6.3f}" if steps else "     -"

    # solve_step looks the solver up as convex_backend.solve
    convex_backend.solve = timed_solve
    newton, solve_ms = 0, 0.0
    try:
        for m in range(1, args.steps + 1):
            solves.clear()
            sol = solve_step(traj, powers, scen)
            res, dt_solve = solves[0]
            ms = 1e3 * dt_solve
            newton += res.newton_iters
            solve_ms += ms
            print(f"iter {m}: {res.status:9s} {res.newton_iters:4d} newton steps "
                  f"{ms:7.1f} ms ({per_step(ms, res.newton_iters)} ms/step)  "
                  f"gap {res.duality_gap:.2e} kkt {res.kkt_residual:.2e} "
                  f"margin {res.min_margin:.2e} objective {res.objective:+.6f}")
            if sol.status == "numerical_trouble":
                break
            traj = sol.trajectory
            powers = optimize_power(traj, scen).schedule
    finally:
        convex_backend.solve = solve
    print(f"total: {newton} newton steps {solve_ms:.1f} ms "
          f"({per_step(solve_ms, newton)} ms/step)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
