"""The scripts under scripts/ run end to end."""
import subprocess
import sys

from conftest import REPO_ROOT

SCRIPTS = REPO_ROOT / "scripts"


def run_script(name, *args):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          capture_output=True, text=True, timeout=300)


def test_profile_solver_runs():
    # the script prints each step record's solve, timed by the records' wall_s
    out = run_script("profile_solver.py", "--steps", "2")
    assert out.returncode == 0, out.stderr
    assert out.stdout.count("primal-dual iters") == 3


def test_reproduce_benchmarks_runs(tmp_path):
    out = run_script("reproduce_benchmarks.py", "--out", tmp_path)
    assert out.returncode == 0, out.stderr
    for name in ("duration_sweep", "power_sweep"):
        assert (tmp_path / name / "sweep.csv").exists()
    assert (tmp_path / "trajectories" / "robust" / "summary.json").exists()
