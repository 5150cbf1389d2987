#!/usr/bin/env python3
"""Time the outer iterations of one robust plan and print their convex steps.

The script runs ``planner.optimize`` on one scenario with ``max_iters`` set to
``--steps``, so the plan stops at convergence, as any plan does, or after
``--steps`` outer iterations, whichever comes first.  It reads the plan's
iteration records: the slots the convex step kept (the powered ones, out of
N; at step 1, those that the start record's exact power update on the
best-effort track powers), the primal-dual iterations, duality gap, KKT
residual, smallest constraint margin and surrogate objective printed are those
of the step's own solve (``IterationRecord.solve``).  The ms column is the whole
outer iteration's time, the convex step plus the power update, taken from the
records' ``wall_s``.  A last line totals the primal-dual iterations and the
time of the outer iterations, without the start record's power update.
``--slot-len`` replaces the scenario's slot length: ``--duration 160
--slot-len 0.1`` profiles the fine-slot (N = 1600) case.
"""
import argparse
import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from secuav.harness import HarnessError, derive_scenario, load_scenario, plan_summary
from secuav.planner import optimize
from secuav.scenario import require_valid


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

    try:
        base = load_scenario(args.scenario)
        if args.slot_len is not None:
            base = dataclasses.replace(base, slot_len=args.slot_len)
        scen = dataclasses.replace(derive_scenario(base, "T", args.duration), max_iters=args.steps)
        require_valid(scen)
    except (HarnessError, ValueError) as e:  # ValueError: InvalidScenario, slot_count
        parser.error(str(e))
    print(f"N = {scen.n_slots} slots, K = {scen.n_eves} eavesdroppers")

    def per_iter(ms, iters):
        return f"{ms / iters:6.3f}" if iters else "     -"

    result = optimize(scen)
    for prev, rec in zip(result.iterations, result.iterations[1:]):
        res, ms = rec.solve, 1e3 * (rec.wall_s - prev.wall_s)
        print(f"step {rec.iteration}: {res.x.size:4d}/{scen.n_slots} slots kept "
              f"{res.status:9s} {res.newton_iters:4d} primal-dual iters "
              f"{ms:7.1f} ms ({per_iter(ms, res.newton_iters)} ms/iter)  "
              f"gap {res.duality_gap:.2e} kkt {res.kkt_residual:.2e} "
              f"margin {res.min_margin:.2e} objective {res.objective:+.6f}")
    pd_iters = plan_summary(result)["newton_steps"]
    step_ms = 1e3 * (result.iterations[-1].wall_s - result.iterations[0].wall_s)
    print(f"total: {pd_iters} primal-dual iters {step_ms:.1f} ms "
          f"({per_iter(step_ms, pd_iters)} ms/iter)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
