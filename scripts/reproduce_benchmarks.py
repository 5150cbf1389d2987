#!/usr/bin/env python3
"""Run the full benchmark study on the shipped scenario.

Produces, under the output directory:
  trajectories/<algorithm>/   full planner outputs at T = 160 s
  duration_sweep/sweep.csv    secrecy rate vs flight duration
  power_sweep/sweep.csv       secrecy rate vs average power (dBm), T = 120 s
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from secuav.harness import (SweepSpec, _run_algorithm, derive_scenario, export_plan,
                            load_scenario, run_sweep)
from secuav.planner import BEST_EFFORT, NON_ROBUST, ROBUST

ALGORITHMS = (ROBUST, NON_ROBUST, BEST_EFFORT)  # also the trajectories/ directory names


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=str(
        Path(__file__).resolve().parent.parent / "scenarios" / "paper_fig2.json"))
    parser.add_argument("--out", default="benchmark_results")
    args = parser.parse_args()

    base = load_scenario(args.scenario)
    out = Path(args.out)

    print("== trajectories at T = 160 s ==")
    for name in ALGORITHMS:
        t0 = time.perf_counter()
        result = _run_algorithm(name, base)
        export_plan(result, out / "trajectories" / name,
                    wall_s=time.perf_counter() - t0)
        print(f"  {name:12s} rate {result.secrecy_rate:.4f} bps/Hz "
              f"({max(len(result.iterations) - 1, 0)} iterations, "
              f"{time.perf_counter() - t0:.1f} s)")

    print("== secrecy rate vs flight duration ==")
    spec = SweepSpec(base=base, param="T", values=(80.0, 100.0, 120.0, 140.0, 160.0),
                     algorithms=ALGORITHMS)
    target = run_sweep(spec, out / "duration_sweep")
    print(f"  -> {target}")

    print("== secrecy rate vs average power at T = 120 s ==")
    spec = SweepSpec(base=derive_scenario(base, "T", 120.0), param="avg-power-dbm",
                     values=(-5.0, 5.0, 15.0, 25.0, 35.0),
                     algorithms=ALGORITHMS)
    target = run_sweep(spec, out / "power_sweep")
    print(f"  -> {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
