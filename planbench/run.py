#!/usr/bin/env python3
"""Planner benchmark: certified plans per second, failure share and a per-layer trace.

    python3 planbench/run.py --workload fig2_sweep --seed 1 --seconds 40 --trace 0

Run it from anywhere inside a source checkout: it imports ``secuav`` from the
checkout's ``src`` and exits with code 2, printing no result, when that is
missing.  ``bench.py`` describes the measurement, ``workloads.py`` the inputs.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig2_sweep", "fine_slots", "many_eves"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "secuav" / "__init__.py").is_file():
        print(f"planbench: no secuav package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench  # needs the checkout's src on the path
    return bench.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
