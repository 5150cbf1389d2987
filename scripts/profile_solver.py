#!/usr/bin/env python3
"""Time the convex trajectory steps of one robust plan.

The script runs ``planner.optimize`` on one scenario with ``max_iters`` set to
``--steps``, so the plan stops at convergence, as any plan does, or after
``--steps`` outer iterations, whichever comes first.  Each outer iteration
solves its convex step once; the primal-dual iterations, time, time per
iteration, duality gap, KKT residual and smallest constraint margin printed
are those of that solve.  A last line totals the primal-dual iterations and
solve time.
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
from secuav.planner import optimize


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=str(
        Path(__file__).resolve().parent.parent / "scenarios" / "paper_fig2.json"))
    parser.add_argument("--duration", type=float, default=80.0)
    parser.add_argument("--slot-len", type=float, default=None,
                        help="slot length in seconds (default: the scenario's)")
    parser.add_argument("--steps", type=int, default=8,
                        help="cap on the outer iterations (default: 8)")
    args = parser.parse_args()

    base = load_scenario(args.scenario)
    if args.slot_len is not None:
        base = dataclasses.replace(base, slot_len=args.slot_len)
    scen = dataclasses.replace(derive_scenario(base, "T", args.duration),
                               max_iters=args.steps)
    print(f"N = {scen.n_slots} slots, K = {scen.n_eves} eavesdroppers")

    solve = convex_backend.solve
    solves = []

    def timed_solve(prog):
        t0 = time.perf_counter()
        res = solve(prog)
        solves.append((res, time.perf_counter() - t0))
        return res

    def per_iter(ms, iters):
        return f"{ms / iters:6.3f}" if iters else "     -"

    # solve_step looks the solver up as convex_backend.solve
    convex_backend.solve = timed_solve
    try:
        optimize(scen)
    finally:
        convex_backend.solve = solve
    for m, (res, dt_solve) in enumerate(solves, 1):
        ms = 1e3 * dt_solve
        print(f"step {m}: {res.status:9s} {res.newton_iters:4d} primal-dual iters "
              f"{ms:7.1f} ms ({per_iter(ms, res.newton_iters)} ms/iter)  "
              f"gap {res.duality_gap:.2e} kkt {res.kkt_residual:.2e} "
              f"margin {res.min_margin:.2e} objective {res.objective:+.6f}")
    pd_iters = sum(res.newton_iters for res, _ in solves)
    solve_ms = 1e3 * sum(dt_solve for _, dt_solve in solves)
    print(f"total: {pd_iters} primal-dual iters {solve_ms:.1f} ms "
          f"({per_iter(solve_ms, pd_iters)} ms/iter)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
