"""The scripts under scripts/ run end to end."""
import dataclasses
import hashlib
import json
import subprocess
import sys

from secuav.harness import derive_scenario, load_scenario
from secuav.planner import optimize

from conftest import BENCHMARK_SCENARIO, REPO_ROOT

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
    scen = dataclasses.replace(derive_scenario(load_scenario(BENCHMARK_SCENARIO), "T", 80.0),
                               max_iters=2)
    kept = int((optimize(scen).iterations[0].powers.p > 0.0).sum())
    assert 0 < kept < scen.n_slots == 160
    assert f" {kept:4d}/160 slots kept" in out.stdout.splitlines()[1]


def test_plan_digest_runs():
    out = run_script("plan_digest.py", "--workload", "fine_slots", "--seed", "0")
    assert out.returncode == 0, out.stderr
    *plans, total = map(json.loads, out.stdout.splitlines())
    assert [p["key"] for p in plans] == ["fine_slots/s0/0/T=160/robust"]
    plan = plans[0]
    assert float(plan["secrecy_rate"]) > 0.0
    # the digest covers the plan's track and powers: fine_slots s0 is
    # paper_fig2 at 0.1 s slots and T = 160 s
    scen = derive_scenario(dataclasses.replace(load_scenario(BENCHMARK_SCENARIO), slot_len=0.1),
                           "T", 160.0)
    result = optimize(scen)
    plan_bytes = (result.trajectory.xs.tobytes() + result.trajectory.ys.tobytes()
                  + result.powers.p.tobytes())
    assert plan["plan_sha256"] == hashlib.sha256(plan_bytes).hexdigest()[:16]
    assert plan["secrecy_rate"] == repr(result.secrecy_rate)
    assert plan["outer_iters"] == len(plan["statuses"]) > 0 and plan["primal_dual_iters"] > 0
    assert plan["converged"] is result.converged is True
    # the power dual's evaluations, the start record's included
    assert plan["power_evals"] == sum(r.dual.iterations for r in result.iterations) > 0
    # every step after the first starts from its predecessor's hand-off
    assert plan["warm_starts"] == sum(r.solve.warm_start for r in result.iterations[1:]) == 2
    assert total == {"total": {"plans": 1, "outer_iters": plan["outer_iters"],
                               "primal_dual_iters": plan["primal_dual_iters"],
                               "power_evals": plan["power_evals"],
                               "warm_starts": plan["warm_starts"],
                               "unconverged": 0, "optimal": plan["outer_iters"]}}


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
