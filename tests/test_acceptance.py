"""Acceptance criteria, one test per criterion, printed pass/fail lines.

Heavy optimization runs are shared across criteria through a module-scoped
cache, so the suite performs each (scenario, algorithm) run exactly once;
c01, c03 and c04 read the session's one run of ``secuav verify``'s full-level
theta-oracle, power-grid and sca-monotone suites, and c02 the session's one
PSD / rotated-cone sweep, which the LMI unit test shares.
"""
import dataclasses

import numpy as np
import pytest

from secuav.harness import _run_algorithm, derive_scenario, main
from secuav.planner import optimize, optimize_non_robust
from secuav.scenario import EveRegion, Scenario

from conftest import paper_fig2, write_tiny


def _report(num: int, ok: bool, text: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


class RunCache(dict):
    """Plans of paper_fig2 at (T, dbm) as ``secuav sweep`` derives it, each run once."""

    def scenario(self, T: float, dbm: float = -5.0) -> Scenario:
        return derive_scenario(paper_fig2(T), "avg-power-dbm", dbm)

    def plan(self, T: float, dbm: float, algorithm: str):
        if (T, dbm, algorithm) not in self:
            self[T, dbm, algorithm] = _run_algorithm(algorithm, self.scenario(T, dbm))
        return self[T, dbm, algorithm]


@pytest.fixture(scope="module")
def runs() -> RunCache:
    return RunCache()


def test_c01_theta_oracle_equivalence(full_verify):
    # secuav verify's theta-oracle suite: 1000 disks, 10,000 samples each
    ok, detail, elapsed = full_verify["theta-oracle"]
    _report(1, ok and elapsed < 10.0, f"{detail}, {elapsed:.1f} s")


def test_c02_psd_soc_equivalence(psd_soc_sweep):
    disagreements, elapsed = psd_soc_sweep
    _report(2, disagreements == 0 and elapsed < 30.0,
            f"100000 blocks, {disagreements} disagreements off-boundary, {elapsed:.1f} s")


def test_c03_power_subproblem_optimality(full_verify):
    # secuav verify's power-grid suite: 100 instances on a 100,000-point grid
    ok, detail, elapsed = full_verify["power-grid"]
    _report(3, ok and elapsed < 30.0, f"{detail}, {elapsed:.1f} s")


def test_c04_sca_step_soundness(full_verify):
    # secuav verify's sca-monotone suite: 10 warm-started steps on the tiny
    # scenario, each checked for objective decrease and its t against the
    # closed-form worst-case distance, which is never above a sampled one (c01)
    ok, detail, elapsed = full_verify["sca-monotone"]
    _report(4, ok and elapsed < 60.0, f"{detail}, {elapsed:.1f} s")


def test_c05_bcd_monotone_convergence(runs):
    plan = runs.plan(80.0, -5.0, "robust")
    objs = [r.objective for r in plan.iterations]
    drops = [max(a - b, 0.0) for a, b in zip(objs, objs[1:])]
    n_iters = len(objs) - 1
    ok = (max(drops, default=0.0) <= 1e-6 and plan.converged and n_iters <= 200)
    _report(5, ok, f"T=80 s: {n_iters} iterations, worst drop "
                   f"{max(drops, default=0.0):.2e}, converged={plan.converged}")


def test_c06_hover_left_of_receiver(runs):
    scen = runs.scenario(160.0)
    robust = runs.plan(160.0, -5.0, "robust")
    nonrob = runs.plan(160.0, -5.0, "non_robust")
    n = scen.n_slots
    mid = slice(n // 4, 3 * n // 4)
    x_rob = float(robust.trajectory.xs[1:-1][mid].mean())
    x_non = float(nonrob.trajectory.xs[1:-1][mid].mean())
    _report(6, x_rob < -5.0 and abs(x_non) < 5.0,
            f"T=160 s hover mean x: robust {x_rob:.2f} m, non-robust {x_non:.2f} m")


def test_c07_duration_sweep_ordering(runs):
    rates = {}
    for T in (80.0, 120.0, 160.0):
        for alg in ("robust", "non_robust", "best_effort"):
            rates[(T, alg)] = runs.plan(T, -5.0, alg).secrecy_rate
    ok = True
    notes = []
    for T in (80.0, 120.0, 160.0):
        r, nr, be = (rates[(T, a)] for a in ("robust", "non_robust", "best_effort"))
        if not (r >= nr - 1e-12 and nr >= be - 1e-12):
            ok = False
            notes.append(f"ordering broken at T={T}")
        if abs(r - nr) <= 1e-4:
            notes.append(f"SOFT-FAIL flag: robust/non-robust tie at T={T} "
                         f"({r:.6f} vs {nr:.6f})")
    if not rates[(160.0, "robust")] - rates[(160.0, "non_robust")] > 0.0:
        ok = False
        notes.append("no strict robust gap at T=160")
    for alg in ("robust", "non_robust", "best_effort"):
        seq = [rates[(T, alg)] for T in (80.0, 120.0, 160.0)]
        if not all(b >= a - 1e-12 for a, b in zip(seq, seq[1:])):
            ok = False
            notes.append(f"{alg} rate not non-decreasing in T: {seq}")
    gap160 = rates[(160.0, "robust")] - rates[(160.0, "non_robust")]
    _report(7, ok, f"gap at T=160: {gap160:.4f} bps/Hz"
                   + ("; " + "; ".join(notes) if notes else ""))


def test_c08_power_sweep_saturation(runs):
    dbms = (-5.0, 5.0, 15.0, 25.0, 35.0)
    ok = True
    notes = []
    last_step = {}
    for alg in ("robust", "non_robust", "best_effort"):
        seq = [runs.plan(120.0, dbm, alg).secrecy_rate for dbm in dbms]
        if not all(b >= a - 1e-12 for a, b in zip(seq, seq[1:])):
            ok = False
            notes.append(f"{alg} not non-decreasing in power: {seq}")
        rel = (seq[-1] - seq[-2]) / max(seq[-2], 1e-12)
        last_step[alg] = rel
        if rel >= 0.02:
            ok = False
            notes.append(f"{alg} not saturated: last-step increase {rel:.3%}")
    detail = ", ".join(f"{a}: {last_step[a]:.4%}" for a in last_step)
    _report(8, ok, f"last-step increases at T=120 s: {detail}"
                   + ("; " + "; ".join(notes) if notes else ""))


def test_c09_zero_radius_degeneracy():
    scen = dataclasses.replace(paper_fig2(80.0), eves=(EveRegion(-200.0, 0.0, 0.0),
                                                      EveRegion(200.0, 0.0, 0.0)))
    a = optimize(scen)
    b = optimize_non_robust(scen)
    same_iters = len(a.iterations) == len(b.iterations)
    bitwise = (np.array_equal(a.trajectory.xs, b.trajectory.xs)
               and np.array_equal(a.trajectory.ys, b.trajectory.ys)
               and np.array_equal(a.powers.p, b.powers.p)
               and a.secrecy_rate == b.secrecy_rate)
    close = (abs(a.secrecy_rate - b.secrecy_rate) <= 1e-9
             and np.abs(a.trajectory.xs - b.trajectory.xs).max() <= 1e-9)
    ok = bitwise if same_iters else close
    _report(9, ok, f"all-zero radii: identical iteration counts={same_iters}, "
                   f"bitwise equal={bitwise}")


def test_c10_cli_byte_determinism(tmp_path):
    scen_file = write_tiny(tmp_path)
    identical = True
    for cmd, files in [
        (["optimize", "--scenario", str(scen_file), "--algorithm", "robust"],
         ("trajectory.csv", "power.csv", "iterations.csv")),
        (["sweep", "--scenario", str(scen_file), "--param", "avg-power-dbm",
          "--values", "0,6", "--algorithms", "best-effort,robust"],
         ("sweep.csv",)),
    ]:
        outs = []
        for run in ("a", "b"):
            out = tmp_path / (cmd[0] + run)
            assert main(cmd + ["--out", str(out)]) == 0
            outs.append(out)
        for name in files:
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                identical = False
    _report(10, identical, "optimize and sweep re-runs byte-identical")
