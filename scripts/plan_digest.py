#!/usr/bin/env python3
"""Print one JSON line per plan of a benchmark workload, to diff two checkouts.

    python3 scripts/plan_digest.py --workload fig2_sweep --seed 0

The script imports ``planbench/workloads.py`` (it changes nothing there),
builds the workload's sweeps for the seed and plans every (value, algorithm)
point of each sweep in the order ``harness.run_sweep`` does.  Each line holds
the plan's key, ``repr`` of its secrecy rate, a short sha256 of the returned
track's ``xs`` and ``ys`` bytes and the power bytes, whether it converged
(false when it stopped at ``max_iters``), its outer iterations, its
primal-dual iterations, its power-law evaluations (the power dual's, summed
over every record, the start's included), its warm-started solves and the
status of each outer iteration's step; a last line totals them and counts the
unconverged plans.  No timing is printed, so two checkouts that plan alike
print the same lines, and ``diff`` shows every plan that moved.
"""
import argparse
import hashlib
import json
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "planbench"))

import workloads
from secuav.harness import _run_algorithm, derive_scenario


def plan_sha256(result) -> str:
    """The first 16 hex digits of a sha256 over the track and the powers."""
    digest = hashlib.sha256()
    for array in (result.trajectory.xs, result.trajectory.ys, result.powers.p):
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    total = Counter()
    for i, spec in enumerate(workloads.generate(args.workload, args.seed)):
        for value in sorted(spec.values):
            scenario = derive_scenario(spec.base, spec.param, value)
            for tag in sorted(spec.algorithms):
                result = _run_algorithm(tag, scenario)
                steps = result.iterations[1:]
                plan = {"key": f"{args.workload}/s{args.seed}/{i}/{spec.param}={value:g}/{tag}",
                        "secrecy_rate": repr(result.secrecy_rate),
                        "plan_sha256": plan_sha256(result),
                        "converged": result.converged,
                        "outer_iters": len(steps),
                        "primal_dual_iters": sum(r.solve.newton_iters for r in steps),
                        "power_evals": sum(r.dual.iterations
                                           for r in result.iterations if r.dual),
                        "warm_starts": sum(r.solve.warm_start for r in steps),
                        "statuses": [r.status for r in steps]}
                print(json.dumps(plan))
                total.update(plans=1, outer_iters=plan["outer_iters"],
                             primal_dual_iters=plan["primal_dual_iters"],
                             power_evals=plan["power_evals"],
                             warm_starts=plan["warm_starts"],
                             unconverged=int(not result.converged))
                total.update(plan["statuses"])
    print(json.dumps({"total": dict(total)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
