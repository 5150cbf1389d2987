#!/usr/bin/env python3
"""Print one JSON line per plan of a benchmark workload, to diff two checkouts.

    python3 scripts/plan_digest.py --workload fig2_sweep --seed 0

The script imports ``planbench/workloads.py`` (it changes nothing there) and
plans every point of the workload's sweeps through ``harness.sweep_plans``.
Each line holds the plan's key, a short sha256 of its track and power bytes,
each outer iteration's step status and ``harness.plan_summary`` (the facts of
``summary.json``, under its names); a last line totals the counts and statuses
and counts the unconverged plans.  No timing is printed, so two checkouts that
plan alike print the same lines, and ``diff`` shows every plan that moved.
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
from secuav.harness import plan_summary, sweep_plans

COUNTS = ("iterations", "newton_steps", "power_iters", "warm_starts")  # totalled


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
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    total = Counter()
    for i, spec in enumerate(workloads.generate(args.workload, args.seed)):
        for value, tag, result in sweep_plans(spec):
            key = f"{args.workload}/s{args.seed}/{i}/{spec.param}={value:g}/{tag}"
            statuses = [r.status for r in result.iterations[1:]]
            facts = plan_summary(result)
            print(json.dumps({"key": key, "plan_sha256": plan_sha256(result),
                              "statuses": statuses, **facts}))
            total.update(plans=1, **{k: facts[k] for k in COUNTS},
                         unconverged=int(not facts["converged"]))
            total.update(statuses)
    print(json.dumps({"total": dict(total)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
