"""The scripts under scripts/ run end to end."""
import dataclasses
import hashlib
import json
import subprocess
import sys

import pytest

from secuav.harness import derive_scenario, plan_summary
from secuav.planner import optimize

from conftest import REPO_ROOT, paper_fig2

SCRIPTS = REPO_ROOT / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_profile_solver_runs():
    # the script prints each step record's solve, timed by the records' wall_s,
    # with the slots its program kept: at the first step, those that the start
    # record's exact power update powers
    out = run_script("profile_solver.py", "--steps", "2")
    assert out.returncode == 0, out.stderr
    assert out.stdout.count("primal-dual iters") == 3
    assert out.stdout.count("slots kept") == 2
    scen = dataclasses.replace(paper_fig2(80.0), max_iters=2)
    kept = int((optimize(scen).iterations[0].powers.p > 0.0).sum())
    assert 0 < kept < scen.n_slots == 160
    assert f" {kept:4d}/160 slots kept" in out.stdout.splitlines()[1]


def test_plan_digest_runs():
    out = run_script("plan_digest.py", "--workload", "fine_slots", "--seed", "0")
    assert out.returncode == 0, out.stderr
    plan, total = map(json.loads, out.stdout.splitlines())  # one plan, then the totals
    assert plan.pop("key") == "fine_slots/s0/0/T=160/robust"
    # the digest covers the plan's track and powers: fine_slots s0 is
    # paper_fig2 at 0.1 s slots and T = 160 s
    scen = derive_scenario(dataclasses.replace(paper_fig2(), slot_len=0.1), "T", 160.0)
    result = optimize(scen)
    plan_bytes = (result.trajectory.xs.tobytes() + result.trajectory.ys.tobytes()
                  + result.powers.p.tobytes())
    assert plan.pop("plan_sha256") == hashlib.sha256(plan_bytes).hexdigest()[:16]
    assert plan.pop("statuses") == ["optimal"] * 3
    # the rest is summary.json's facts, under its names
    assert plan == plan_summary(result)
    assert plan["secrecy_rate_bps_hz"] == result.secrecy_rate > 0.0 and plan["converged"]
    assert plan["iterations"] == 3 and plan["newton_steps"] > 0
    # the power dual's evaluations, the start record's included; every step
    # after the first starts from its predecessor's hand-off
    assert plan["power_iters"] == sum(r.dual.iterations for r in result.iterations) > 0
    assert plan["warm_starts"] == sum(r.solve.warm_start for r in result.iterations[1:]) == 2
    assert total == {"total": {"plans": 1, "iterations": 3,
                               "newton_steps": plan["newton_steps"],
                               "power_iters": plan["power_iters"], "warm_starts": 2,
                               "unconverged": 0, "optimal": 3}}


def test_reproduce_benchmarks_runs(tmp_path):
    out = run_script("reproduce_benchmarks.py", "--out", tmp_path)
    assert out.returncode == 0, out.stderr
    for name in ("duration_sweep", "power_sweep"):
        assert (tmp_path / name / "sweep.csv").exists()
    assert (tmp_path / "trajectories" / "robust" / "summary.json").exists()


def test_solver_bench_runs():
    # fine_slots s0 is one robust plan of 3 convex steps, the later two warm,
    # and 24 primal-dual iterations (plan_digest.py prints the same totals)
    out = run_script("solver_bench.py", "--workload", "fine_slots", "--seed", "0", "--reps", "1")
    assert out.returncode == 0, out.stderr
    head, solve_s, per_iter, calls = out.stdout.splitlines()
    assert head == "fine_slots s0: 3 programs (2 warm, 1 cold), 24 primal-dual iterations, 1 reps"
    assert float(solve_s.split(": ")[1].split()[0]) > 0.0
    assert float(per_iter.split(": ")[1].split()[0]) > 0.0
    assert float(calls.split(": ")[1]) > 0.0


@pytest.mark.parametrize("script, args, message", [
    ("plan_digest.py", ("--workload", "fine_slots", "--seed", "-1"), "--seed must be >= 0"),
    ("solver_bench.py", ("--workload", "fine_slots", "--seed", "-1"), "--seed must be >= 0"),
    ("profile_solver.py", ("--steps", "0"), "max_iters must be >= 1"),
    ("profile_solver.py", ("--slot-len", "0.3"), "not an integer number of slots"),
], ids=["digest-seed", "bench-seed", "profile-steps", "profile-slot-len"])
def test_bad_arguments_are_usage_errors(script, args, message):
    out = run_script(script, *args)
    assert out.returncode == 2 and out.stderr.splitlines()[-1].startswith(
        f"{script}: error: ") and message in out.stderr, out.stderr
