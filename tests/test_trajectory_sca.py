import dataclasses
import math

import numpy as np
import pytest

from secuav import convex_backend, trajectory_sca
from secuav.convex_backend import _Workspace
from secuav.geometry import LN2, log2_1p, secrecy_sum, worst_case_dist_sq
from secuav.planner import best_effort_trajectory, equal_power
from secuav.scenario import EveRegion, PowerSchedule, Trajectory, trajectory_violations
from secuav.trajectory_sca import assemble, initialize_slacks, solve_step

from arrowhead import psd_check
from conftest import hover_trajectory, make_scenario, paper_fig2, record_calls


def taylor_rate_surrogate(d2, d2_fea, p_scaled):
    """Tangent of log2(1 + P/d2) at d2_fea: exact at the touch point, below elsewhere."""
    d2 = np.asarray(d2, dtype=float)
    d2_fea = np.asarray(d2_fea, dtype=float)
    p_scaled = np.asarray(p_scaled, dtype=float)
    base = log2_1p(p_scaled / d2_fea)
    slope = np.where(p_scaled > 0,
                     p_scaled / (LN2 * (d2_fea**2 + p_scaled * d2_fea)), 0.0)
    out = base - slope * (d2 - d2_fea)
    return float(out) if out.ndim == 0 else out


class TestInitializeSlacks:
    def test_hover_at_origin_benchmark_values(self):
        scen = dataclasses.replace(paper_fig2(1.0), start_xy=(0.0, 0.0), end_xy=(0.0, 0.0))
        t = initialize_slacks(hover_trajectory(scen), scen)
        assert t == pytest.approx([24_400.0, 24_400.0])

    def test_above_eve_center_t_at_floor(self):
        scen = dataclasses.replace(paper_fig2(1.0), start_xy=(-200.0, 0.0), end_xy=(-200.0, 0.0))
        t = initialize_slacks(hover_trajectory(scen, xy=(-200.0, 0.0)), scen)
        assert t == pytest.approx([1e4, 1e4])

    def test_zero_radius_needs_no_multiplier(self):
        scen = dataclasses.replace(
            paper_fig2(1.0), start_xy=(0.0, 0.0), end_xy=(0.0, 0.0),
            eves=(EveRegion(-200.0, 0.0, 0.0), EveRegion(200.0, 0.0, 0.0)))
        t = initialize_slacks(hover_trajectory(scen), scen)
        assert t == pytest.approx([200.0**2 + 1e4] * 2)

    def test_blocks_certified_at_expansion(self):
        # the tight t leaves every disk margin nonnegative at the expansion
        # point, and the block is PSD at the closed-form multiplier
        scen = make_scenario()
        traj = best_effort_trajectory(scen)
        x, y = traj.slot_positions()
        t = initialize_slacks(traj, scen)
        prog = assemble(traj, equal_power(scen), scen)
        for k, eve in enumerate(scen.eves):
            r = eve.radius
            slack = prog.eve_k[0, k] * x + prog.eve_k[1, k] * y + prog.eve_k0[k] - t
            rho = np.hypot(x - eve.center_x, y - eve.center_y)
            huber = np.where(rho <= r, rho**2, 2.0 * r * rho - r**2)
            assert np.all(slack - huber >= -1e-9 * slack.max())
            xi = np.maximum(0.0, (slack - r**2) / (2.0 * r**2))
            for n in range(scen.n_slots):
                assert psd_check(xi[n] + 1.0, eve.center_x - x[n], eve.center_y - y[n],
                                 slack[n] - r**2 * xi[n])


class TestTaylorSurrogate:
    def test_touch_point_exact(self):
        assert taylor_rate_surrogate(500.0, 500.0, 125.0) == pytest.approx(
            math.log2(1 + 125.0 / 500.0), abs=1e-14)

    def test_doubling_u_underestimates(self):
        d2_fea = 700.0
        got = taylor_rate_surrogate(2 * d2_fea, d2_fea, d2_fea)
        assert got == pytest.approx(1.0 - 1.0 / (2 * LN2), abs=1e-12)
        assert got == pytest.approx(0.2786524795555182, abs=1e-12)
        assert got <= math.log2(1.5)

    def test_zero_power_vanishes(self):
        assert taylor_rate_surrogate(123.0, 77.0, 0.0) == 0.0

    def test_global_underestimator(self):
        d2_fea, p = 400.0, 900.0
        for d2 in np.linspace(50.0, 5000.0, 57):
            sur = taylor_rate_surrogate(d2, d2_fea, p)
            assert sur <= math.log2(1 + p / d2) + 1e-12

    def test_assembled_objective_is_the_tangent(self):
        # g_u is the tangent's slope and obj_const - sum(g_u*d2) its value,
        # slot by slot, with one slot at zero power, which leaves the program
        scen = make_scenario()
        traj = best_effort_trajectory(scen)
        p = np.linspace(0.0, 2e-3, scen.n_slots)
        prog = assemble(traj, PowerSchedule(p), scen)
        assert list(prog.slots) == list(range(1, scen.n_slots))
        x, y = (v[prog.slots] for v in traj.slot_positions())
        d2_fea = x**2 + y**2 + prog.h2
        slope = (taylor_rate_surrogate(d2_fea, d2_fea, prog.p_scaled)
                 - taylor_rate_surrogate(d2_fea + 1.0, d2_fea, prog.p_scaled))
        assert prog.g_u == pytest.approx(slope, rel=1e-9, abs=1e-15)
        rng = np.random.default_rng(3)
        for _ in range(5):
            d2 = d2_fea * rng.uniform(0.5, 2.0, d2_fea.size)
            value = taylor_rate_surrogate(d2, d2_fea, prog.p_scaled).sum()
            assert prog.obj_const - (prog.g_u * d2).sum() == pytest.approx(value, rel=1e-12)


class TestAssemble:
    def test_benchmark_constraint_counts(self):
        # 321 mobility steps and 2 x 320 disk margins, over rows x, y, t
        scen = paper_fig2(160.0)
        traj = best_effort_trajectory(scen)
        prog = assemble(traj, equal_power(scen), scen)
        assert prog.eve_k.shape == (2, 2, 320) and prog.eve_k0.shape == (2, 320)
        assert list(prog.eve_r) == [20.0, 80.0]
        ws = _Workspace(prog)
        assert ws.z0.shape == (3, 320)
        assert ws.table(ws.z0).m.size == ws.m_bar == 321 + 2 * 320

    def test_zero_power_program_still_solvable(self):
        # every slot is kept and t has no objective: both Newton steps are 0,
        # sigma = 0 and the gap shrinks 100x per iteration, with t > 0
        for scen in (make_scenario(), paper_fig2()):
            traj = best_effort_trajectory(scen)
            powers = PowerSchedule(np.zeros(scen.n_slots))
            sol = solve_step(traj, powers, scen)
            assert sol.status == "optimal"
            assert sol.true_objective == 0.0
            assert sol.solve.objective == pytest.approx(0.0, abs=1e-12)
            assert sol.solve.newton_iters <= 6
            assert sol.solve.t.size == scen.n_slots and np.all(sol.solve.t > 0.0)

    def test_infeasible_expansion_rejected(self):
        scen = make_scenario(start_xy=(0.0, 0.0), end_xy=(0.0, 0.0))
        n = scen.n_slots
        xs = np.zeros(n + 2)
        xs[4] = 3.0 * scen.max_step  # unreachable kink
        traj = Trajectory(xs=xs, ys=np.zeros(n + 2))
        with pytest.raises(ValueError, match="mobility"):
            assemble(traj, equal_power(scen), scen)


def _iterate_sca(scen, max_steps=80, tol=1e-10):
    traj = best_effort_trajectory(scen)
    powers = equal_power(scen)
    sol = None
    prev = secrecy_sum(traj, powers, scen)
    for _ in range(max_steps):
        sol = solve_step(traj, powers, scen)
        assert sol.status == "optimal"
        gain = sol.true_objective - prev
        assert gain >= -1e-6
        traj = sol.trajectory
        if abs(gain) < tol * max(1.0, abs(prev)):
            break
        prev = sol.true_objective
    return sol, powers


class TestSolveStep:
    def test_monotone_chain_links(self):
        scen = make_scenario()
        traj = best_effort_trajectory(scen)
        powers = equal_power(scen)
        base = secrecy_sum(traj, powers, scen)
        sol = solve_step(traj, powers, scen)
        assert sol.status == "optimal"
        # surrogate below truth at the new point, above truth at the old point
        assert sol.solve.objective <= sol.true_objective + 1e-9
        assert sol.solve.objective >= base - 1e-9
        assert sol.true_objective >= base - 1e-6

    def test_robust_feasibility_after_extraction(self):
        scen = make_scenario()
        sol, _ = _iterate_sca(scen, max_steps=5, tol=0.0)
        x, y = sol.trajectory.slot_positions()
        for eve in scen.eves:
            theta = worst_case_dist_sq((x, y), eve, scen.altitude)
            assert np.all(theta >= sol.solve.t - 1e-6)

    def test_tiny_reachable_ball_degenerate(self):
        scen = make_scenario(flight_duration=0.5, n_slots=1,
                             start_xy=(30.0, 40.0), end_xy=(30.0, 40.0),
                             v_max=0.5)
        traj = hover_trajectory(scen, xy=(30.0, 40.0))
        sol = solve_step(traj, equal_power(scen), scen)
        assert sol.status == "optimal"
        step = scen.max_step
        assert math.hypot(sol.trajectory.xs[1] - 30.0,
                          sol.trajectory.ys[1] - 40.0) <= step + 1e-9

    def test_single_slot_matches_dense_grid(self):
        scen = make_scenario(flight_duration=0.5, n_slots=1,
                             start_xy=(-4.0, 0.0), end_xy=(4.0, 0.0))
        sol, powers = _iterate_sca(scen)
        p = powers.p[0]

        def true_objective(x, y):
            d2 = x**2 + y**2 + scen.altitude**2
            theta = min(worst_case_dist_sq((x, y), e, scen.altitude)
                        for e in scen.eves)
            return (math.log2(1 + scen.gamma0 * p / d2)
                    - math.log2(1 + scen.gamma0 * p / theta))

        step = scen.max_step
        xs = np.linspace(-4.0 + -step, 4.0 + step, 400)
        ys = np.linspace(-step, step, 400)
        best = -math.inf
        for x in xs:
            for y in ys:
                if (math.hypot(x + 4.0, y) <= step
                        and math.hypot(x - 4.0, y) <= step):
                    best = max(best, true_objective(x, y))
        assert sol.true_objective >= best - 1e-3

    def test_fixed_point_improvement_negligible(self, monkeypatch):
        monkeypatch.setattr(convex_backend, "OPT_TOL", 1e-10)
        scen = make_scenario()
        sol, powers = _iterate_sca(scen)
        again = solve_step(sol.trajectory, powers, scen)
        assert again.true_objective - sol.true_objective <= 1e-8


def silent_runs(scen):
    """Power in slots 2, 3 and 6 of eight: silent runs next to both pins
    (slots 0-1 and 7) and in the middle (slots 4-5)."""
    p = np.zeros(scen.n_slots)
    p[[2, 3, 6]] = [1e-3, 2e-3, 3e-3]
    return PowerSchedule(p)


class TestPoweredSlotsOnly:
    """Silent slots leave the program and come back on straight segments."""

    def test_one_chain_row_per_run(self):
        scen = make_scenario()
        prog = assemble(best_effort_trajectory(scen), silent_runs(scen), scen)
        assert list(prog.slots) == [2, 3, 6]
        assert prog.x_fea.size == prog.g_u.size == prog.eve_k0.shape[1] == 3
        ws = _Workspace(prog)
        steps = np.array([3, 1, 3, 2])  # pin -> 2 -> 3 -> 6 -> pin
        assert ws.m_bar == 4 + 2 * 3
        assert ws.L2 == pytest.approx((steps * scen.max_step) ** 2, rel=1e-15)
        assert list(ws.weight[ws.chain]) == list(steps)
        assert np.all(ws.weight[ws.disks] == 1.0)
        assert ws.weight_sum == (scen.n_slots + 1) + 2 * 3

    def test_silent_slots_lie_on_segments_between_their_neighbours(self):
        scen = make_scenario()
        traj = best_effort_trajectory(scen)
        sol = solve_step(traj, silent_runs(scen), scen)
        assert sol.status == "optimal"
        xs, ys = sol.trajectory.xs, sol.trajectory.ys
        # track index of slot s is s + 1; the pins sit at 0 and N + 1
        kept = [3, 4, 7]
        assert np.array_equal(xs[kept], sol.solve.x) and np.array_equal(ys[kept], sol.solve.y)
        assert (xs[0], ys[0]) == scen.start_xy and (xs[-1], ys[-1]) == scen.end_xy
        knots = [0] + kept + [scen.n_slots + 1]
        for a, b in zip(knots, knots[1:]):
            for i in range(a + 1, b):
                f = (i - a) / (b - a)
                assert xs[i] == pytest.approx(xs[a] + f * (xs[b] - xs[a]), abs=1e-12)
                assert ys[i] == pytest.approx(ys[a] + f * (ys[b] - ys[a]), abs=1e-12)
        assert trajectory_violations(sol.trajectory, scen) == []
        assert sol.true_objective >= secrecy_sum(traj, silent_runs(scen), scen) - 1e-9

    def test_no_silent_slot_keeps_every_slot_unweighted(self):
        # every plan's first step: the program and its solve are those of the
        # full flight, every row of weight 1 and budget L^2
        scen = make_scenario()
        traj = best_effort_trajectory(scen)
        prog = assemble(traj, equal_power(scen), scen)
        assert np.array_equal(prog.slots, np.arange(scen.n_slots))
        x, y = traj.slot_positions()
        assert np.array_equal(prog.x_fea, x) and np.array_equal(prog.y_fea, y)
        assert np.array_equal(prog.t_fea, initialize_slacks(traj, scen))
        ws = _Workspace(prog)
        assert np.all(ws.weight == 1.0) and ws.weight_sum == ws.m_bar
        assert np.all(ws.L2 == prog.step_sq_max)
        sol = solve_step(traj, equal_power(scen), scen)
        assert np.array_equal(sol.trajectory.xs[1:-1], sol.solve.x)
        assert np.array_equal(sol.trajectory.ys[1:-1], sol.solve.y)

    def test_all_silent_schedule_keeps_every_slot(self):
        scen = make_scenario()
        prog = assemble(best_effort_trajectory(scen), PowerSchedule(np.zeros(scen.n_slots)),
                        scen)
        assert np.array_equal(prog.slots, np.arange(scen.n_slots))
        assert np.all(prog.g_u == 0.0) and np.all(_Workspace(prog).weight == 1.0)


class TestSolveFacts:
    """solve_step keeps the solver's own result, on success and on fallback."""

    def test_success_keeps_the_solver_result(self, monkeypatch):
        calls = record_calls(monkeypatch, convex_backend, "solve")
        scen = make_scenario()
        sol = solve_step(best_effort_trajectory(scen), equal_power(scen), scen)
        assert sol.status == "optimal"
        [(_, res)] = calls
        assert sol.solve is res

    def test_fallback_keeps_the_solver_result(self, monkeypatch):
        calls = record_calls(monkeypatch, convex_backend, "solve")
        # no returned t passes the robust re-check
        monkeypatch.setattr(trajectory_sca, "ROBUST_FEAS_TOL", -math.inf)
        scen = make_scenario()
        traj = best_effort_trajectory(scen)
        sol = solve_step(traj, equal_power(scen), scen)
        assert sol.status == "numerical_trouble" and sol.trajectory is traj
        [(_, res)] = calls
        assert sol.solve is res and res.status == "optimal"
