import dataclasses
import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from secuav import convex_backend, planner, trajectory_sca
from secuav.convex_backend import OPTIMAL, TROUBLE
from secuav.geometry import avg_worst_case_secrecy_rate, per_slot_secrecy_terms
from secuav.harness import plan_summary
from secuav.planner import (IterationRecord, best_effort_trajectory, equal_power,
                            optimize, optimize_non_robust, run_best_effort)
from secuav.power_alloc import POWER_RESIDUAL_REL, PowerDual, optimize_power
from secuav.scenario import (EveRegion, InvalidScenario, PowerSchedule, Scenario,
                             Trajectory, trajectory_violations, power_violations,
                             validate)

from conftest import make_scenario, paper_fig2, record_calls


def numpy_loop_best_effort(scenario):
    """The greedy as it was first written, on 2-element numpy arrays: the
    reference for ``best_effort_trajectory``, which runs the same operations
    on Python floats."""
    n = scenario.n_slots
    step = scenario.max_step
    eps = 1e-9 * max(step, 1.0)
    pos = np.array(scenario.start_xy, dtype=float)
    end = np.array(scenario.end_xy, dtype=float)
    bob = np.zeros(2)
    xs = np.empty(n + 2)
    ys = np.empty(n + 2)
    xs[0], ys[0] = pos

    def towards(p, target):
        d = float(np.hypot(*(target - p)))
        if d <= step:
            return target.copy()
        return p + (step / d) * (target - p)

    for i in range(1, n + 2):
        cand = towards(pos, bob)
        remaining = (n + 1) - i
        if float(np.hypot(*(cand - end))) <= remaining * step + eps:
            pos = cand
        else:
            pos = towards(pos, end)
        xs[i], ys[i] = pos
    xs[n + 1], ys[n + 1] = end
    return Trajectory(xs=xs, ys=ys)


def assert_matches_numpy_loop(scen):
    """Equal to the numpy-loop greedy within ulps: math.hypot and np.hypot
    may differ in the last bit."""
    got, want = best_effort_trajectory(scen), numpy_loop_best_effort(scen)
    tol = 1e-9 * max(scen.max_step, 1.0)
    assert np.abs(got.xs - want.xs).max() <= tol
    assert np.abs(got.ys - want.ys).max() <= tol


class TestBestEffortTrajectory:
    @pytest.mark.parametrize("flight_duration", [80.0 + 10.0 * i for i in range(10)])
    def test_bit_identical_to_numpy_loop_on_paper_fig2(self, flight_duration):
        scen = paper_fig2(flight_duration)
        got, want = best_effort_trajectory(scen), numpy_loop_best_effort(scen)
        assert np.array_equal(got.xs, want.xs) and np.array_equal(got.ys, want.ys)

    def test_bit_identical_to_numpy_loop_on_fine_slots(self):
        scen = dataclasses.replace(paper_fig2(), slot_len=0.1, n_slots=1600)
        got, want = best_effort_trajectory(scen), numpy_loop_best_effort(scen)
        assert np.array_equal(got.xs, want.xs) and np.array_equal(got.ys, want.ys)

    def test_long_flight_hovers_above_receiver(self):
        scen = paper_fig2(160.0)
        traj = best_effort_trajectory(scen)
        assert_matches_numpy_loop(scen)
        assert trajectory_violations(traj, scen) == []
        at_bob = np.hypot(traj.xs, traj.ys) < 1e-9
        # ~70.6 s of hover at 0.5 s slots
        assert 139 <= at_bob.sum() <= 143
        # hover block is contiguous in the middle of the flight
        idx = np.nonzero(at_bob)[0]
        assert idx[-1] - idx[0] + 1 == idx.size

    def test_short_flight_turns_midway(self):
        scen = paper_fig2(80.0)
        traj = best_effort_trajectory(scen)
        assert_matches_numpy_loop(scen)
        assert trajectory_violations(traj, scen) == []
        d_bob = np.hypot(traj.xs, traj.ys)
        assert d_bob.min() > 1.0  # never reaches the receiver
        turn = int(np.argmin(d_bob))
        # before the turn it closes in on the receiver, afterwards on the end
        assert np.all(np.diff(d_bob[:turn + 1]) < 1e-9)
        d_end = np.hypot(traj.xs - scen.end_xy[0], traj.ys - scen.end_xy[1])
        assert np.all(np.diff(d_end[turn:]) < 1e-9)

    def test_degenerate_stationary_endpoints(self):
        scen = make_scenario(start_xy=(0.0, 0.0), end_xy=(0.0, 0.0))
        traj = best_effort_trajectory(scen)
        assert_matches_numpy_loop(scen)
        assert np.all(traj.xs == 0.0) and np.all(traj.ys == 0.0)

    def test_departure_is_as_late_as_possible(self):
        scen = paper_fig2(160.0)
        traj = best_effort_trajectory(scen)
        at_bob = np.nonzero(np.hypot(traj.xs, traj.ys) < 1e-9)[0]
        last = at_bob[-1]
        remaining = (scen.n_slots + 1) - last
        d_end = math.hypot(scen.end_xy[0], scen.end_xy[1])
        # staying one more slot would make the end unreachable
        assert (remaining - 1) * scen.max_step < d_end <= remaining * scen.max_step


class TestEqualPower:
    def test_flat_at_budget(self):
        scen = make_scenario(n_slots=3, flight_duration=1.5)
        p = equal_power(scen)
        assert np.all(p.p == scen.avg_power)
        assert p.p.mean() == scen.avg_power
        assert scen.avg_power < scen.peak_power


class TestOptimize:
    def test_monotone_and_converged(self, tiny_scenario):
        res = optimize(tiny_scenario)
        assert res.converged
        objs = [r.objective for r in res.iterations]
        assert all(b >= a - 1e-6 for a, b in zip(objs, objs[1:]))
        assert len(objs) - 1 <= tiny_scenario.max_iters
        assert trajectory_violations(res.trajectory, tiny_scenario) == []
        assert power_violations(res.powers, tiny_scenario) == []

    def test_reported_rate_matches_metric(self, tiny_scenario):
        res = optimize(tiny_scenario)
        want = avg_worst_case_secrecy_rate(res.trajectory, res.powers, tiny_scenario)
        assert res.secrecy_rate == want

    def test_rate_equals_clamped_objective_when_all_positive(self, tiny_scenario):
        res = optimize(tiny_scenario)
        terms = per_slot_secrecy_terms(res.trajectory, res.powers, tiny_scenario)
        if np.all(terms >= 0.0):
            final_obj = res.iterations[-1].objective
            assert res.secrecy_rate == pytest.approx(
                final_obj / tiny_scenario.n_slots, abs=1e-9)

    def test_beats_baselines(self, tiny_scenario):
        res = optimize(tiny_scenario)
        base = run_best_effort(tiny_scenario)
        assert res.secrecy_rate >= base.secrecy_rate - 1e-9

    def test_iterations_carry_solver_facts(self, tiny_scenario):
        res = optimize(tiny_scenario)
        names = [f.name for f in dataclasses.fields(IterationRecord)]
        assert names == ["iteration", "objective", "trajectory", "powers", "status",
                         "wall_s", "solve", "dual"]
        start, *steps = res.iterations
        assert start.solve is None
        # the start is the best-effort track with its exact power update
        traj = best_effort_trajectory(tiny_scenario)
        assert np.array_equal(start.trajectory.xs, traj.xs)
        dual = optimize_power(traj, tiny_scenario, 1.0)
        assert (start.dual.lam, start.dual.iterations) == (dual.lam, dual.iterations)
        assert np.array_equal(start.powers.p, dual.schedule.p)
        lam0 = start.dual.lam
        for r in steps:
            assert r.status == "optimal"
            assert r.solve.newton_iters > 0 and r.solve.min_margin > 0.0
            assert 0.0 < r.solve.duality_gap < 1e-6
            assert r.solve.kkt_residual <= 1e-7
            # the record's power dual is the one its schedule came from, its
            # search started at the previous record's dual
            dual = optimize_power(r.trajectory, tiny_scenario, lam0)
            assert (r.dual.lam, r.dual.iterations) == (dual.lam, dual.iterations)
            assert np.array_equal(r.powers.p, dual.schedule.p)
            assert r.dual.lam > 0.0 and r.dual.iterations > 0
            lam0 = r.dual.lam

    def test_step_records_hold_the_steps_own_results(self, tiny_scenario, monkeypatch):
        solves = record_calls(monkeypatch, convex_backend, "solve")
        duals = record_calls(monkeypatch, planner, "optimize_power")
        start, *steps = optimize(tiny_scenario).iterations
        assert len(steps) == len(solves) == len(duals) - 1 > 1
        (_, first), *later = duals
        assert start.dual is first and start.powers is first.schedule
        for r, (_, res), (_, dual) in zip(steps, solves, later):
            assert r.solve is res and r.dual is dual
            assert r.powers is dual.schedule

    def test_power_dual_starts_at_the_previous_dual(self, tiny_scenario, monkeypatch):
        duals = record_calls(monkeypatch, planner, "optimize_power")
        records = optimize(tiny_scenario).iterations
        assert len(records) > 2
        starts = [lam0 for (_, _, lam0, _), _ in duals]
        assert starts == [1.0] + [r.dual.lam for r in records[:-1]]

    def test_trouble_step_keeps_its_solve(self, tiny_scenario, monkeypatch):
        solved = record_calls(monkeypatch, convex_backend, "solve")
        calls = []

        def second_falls_back(*args):
            # no t passes the robust re-check from the second step on
            calls.append(args)
            if len(calls) == 2:
                monkeypatch.setattr(trajectory_sca, "ROBUST_FEAS_TOL", -math.inf)
            return trajectory_sca.solve_step(*args)

        monkeypatch.setattr(planner, "solve_step", second_falls_back)
        res = optimize(tiny_scenario)
        solves = [s for _, s in solved]
        start, first, trouble = res.iterations
        assert [r.status for r in res.iterations] == ["init", "optimal", TROUBLE]
        assert trouble.solve is solves[1] and solves[1].status == "optimal"
        assert trouble.dual is None and first.dual is not None
        assert (trouble.trajectory, trouble.powers) == (first.trajectory, first.powers)
        summary = plan_summary(res)
        assert (summary["iterations"], summary["converged"]) == (2, False)
        assert summary["newton_steps"] == solves[0].newton_iters + solves[1].newton_iters
        assert summary["power_iters"] == start.dual.iterations + first.dual.iterations
        assert summary["max_kkt_residual"] == max(s.kkt_residual for s in solves)

    def test_warm_starts_do_not_stall_on_a_short_hover(self, monkeypatch):
        # drawn by TestRandomValidScenarios; with the final iterate as the
        # hand-off, step 3 started at margins 5.7e-14 and 3.1e-12 and ended
        # max_iter after 3000 iterations, its gap stuck at 2.0e-6
        scen = Scenario(altitude=20.0, flight_duration=2.0, slot_len=0.5, n_slots=4,
                        v_max=10.0, start_xy=(5.0, 0.0), end_xy=(0.0, 0.0), avg_power=1e-3,
                        peak_power=4e-3, gamma0=1e6, eves=(EveRegion(0.5, 0.0, 0.0),),
                        epsilon=1e-2, max_iters=12)
        calls = record_calls(monkeypatch, convex_backend, "solve")
        for res in (optimize(scen), optimize_non_robust(scen)):
            assert all(r.status == OPTIMAL for r in res.iterations[1:])
        assert sum(s.warm_start for _, s in calls) >= 2
        assert max(s.newton_iters for _, s in calls) <= 30

    def test_no_state_crosses_plans(self, tiny_scenario):
        # a plan of the first step alone, whose hand-off would fit the first
        # program of the next plan, were it carried over
        other = dataclasses.replace(tiny_scenario, max_iters=1)
        first, _, again = optimize(tiny_scenario), optimize(other), optimize(tiny_scenario)
        assert first.iterations[1].solve.warm_start is False
        assert sum(r.solve.warm_start for r in first.iterations[2:]) > 0
        for a, b in ((first.trajectory.xs, again.trajectory.xs),
                     (first.trajectory.ys, again.trajectory.ys),
                     (first.powers.p, again.powers.p)):
            assert np.array_equal(a, b)
        assert first.secrecy_rate == again.secrecy_rate
        assert ([(r.objective, r.status) for r in first.iterations]
                == [(r.objective, r.status) for r in again.iterations])
        steps = list(zip(first.iterations[1:], again.iterations[1:]))
        assert all(a.solve.newton_iters == b.solve.newton_iters
                   and a.solve.warm_start == b.solve.warm_start for a, b in steps)
        # the records keep no hand-off arrays
        assert all(r.solve.handoff is None for r in first.iterations[1:])

    def test_infeasible_plan_raises(self, tiny_scenario, monkeypatch):
        # a power block that overspends both budgets: the plan must not be
        # returned as if it were valid
        def overspend(traj, scenario, lam0, geo):
            p = np.full(scenario.n_slots, 2.0 * scenario.peak_power)
            return PowerDual(lam=0.0, schedule=PowerSchedule(p), iterations=0)

        monkeypatch.setattr(planner, "optimize_power", overspend)
        with pytest.raises(RuntimeError, match="peak power exceeded.*average power"):
            optimize(tiny_scenario)


class TestNonRobust:
    def test_zero_radius_scenarios_identical(self):
        scen = make_scenario(eves=(EveRegion(-10.0, 4.0, 0.0),
                                   EveRegion(10.0, 4.0, 0.0)))
        a = optimize(scen)
        b = optimize_non_robust(scen)
        assert np.array_equal(a.trajectory.xs, b.trajectory.xs)
        assert np.array_equal(a.trajectory.ys, b.trajectory.ys)
        assert np.array_equal(a.powers.p, b.powers.p)
        assert a.secrecy_rate == b.secrecy_rate
        assert len(a.iterations) == len(b.iterations)

    def test_judged_under_true_radii(self, tiny_scenario):
        res = optimize_non_robust(tiny_scenario)
        want = avg_worst_case_secrecy_rate(res.trajectory, res.powers, tiny_scenario)
        assert res.secrecy_rate == want
        zeroed = dataclasses.replace(
            tiny_scenario,
            eves=tuple(dataclasses.replace(e, radius=0.0) for e in tiny_scenario.eves))
        optimistic = avg_worst_case_secrecy_rate(res.trajectory, res.powers, zeroed)
        assert want <= optimistic + 1e-12

    def test_not_better_than_robust(self, tiny_scenario):
        robust = optimize(tiny_scenario)
        nonrob = optimize_non_robust(tiny_scenario)
        assert nonrob.secrecy_rate <= robust.secrecy_rate + 1e-6


class TestDegenerateScenarios:
    def test_single_eavesdropper(self):
        scen = make_scenario(eves=(EveRegion(10.0, 4.0, 3.0),))
        res = optimize(scen)
        assert res.converged
        assert res.secrecy_rate >= run_best_effort(scen).secrecy_rate - 1e-9

    def test_mixed_disk_and_point_eavesdroppers(self):
        scen = make_scenario(eves=(EveRegion(-10.0, 4.0, 2.0),
                                   EveRegion(10.0, 4.0, 0.0),
                                   EveRegion(0.0, -8.0, 1.0)))
        res = optimize(scen)
        assert res.converged
        objs = [r.objective for r in res.iterations]
        assert all(b >= a - 1e-6 for a, b in zip(objs, objs[1:]))
        assert trajectory_violations(res.trajectory, scen) == []

    def test_hover_only_scenario_rejected_before_planning(self):
        # zero speed leaves the mobility set without interior, so validate()
        # rejects the scenario and optimize names that in place of planning
        scen = make_scenario(v_max=0.0, start_xy=(3.0, -2.0), end_xy=(3.0, -2.0))
        violations = validate(scen)
        assert any("the track is forced and the trajectory step has no interior" in v
                   for v in violations)
        with pytest.raises(InvalidScenario) as err:
            optimize(scen)
        assert err.value.violations == violations
        assert all(v in str(err.value) for v in violations)

    def test_iteration_cap_respected(self):
        scen = make_scenario(max_iters=1)
        res = optimize(scen)
        assert len(res.iterations) - 1 <= 1


class TestInvalidScenario:
    """The library entry points validate before they plan."""

    @pytest.mark.parametrize("entry", [optimize, optimize_non_robust, run_best_effort])
    def test_stale_slot_count_raises_named_error(self, entry):
        # replace() keeps the stored n_slots = 320 of T = 160 s at 0.5 s slots
        scen = dataclasses.replace(paper_fig2(), slot_len=0.1)
        with pytest.raises(InvalidScenario, match="n_slots=320 inconsistent") as err:
            entry(scen)
        assert isinstance(err.value, ValueError)
        assert err.value.violations == validate(scen)

    def test_message_lists_every_violation(self):
        scen = make_scenario(altitude=-1.0, gamma0=0.0, max_iters=0)
        violations = validate(scen)
        assert len(violations) == 3
        with pytest.raises(InvalidScenario) as err:
            optimize(scen)
        assert all(v in str(err.value) for v in violations)


class TestRunBestEffort:
    def test_infeasible_plan_raises(self, tiny_scenario, monkeypatch):
        # a track that jumps across the scene in one slot breaks the mobility
        # limit: the benchmark must not report it as a plan
        def jump(scenario):
            traj = best_effort_trajectory(scenario)
            xs = traj.xs.copy()
            xs[1] += 10.0 * scenario.max_step
            return Trajectory(xs=xs, ys=traj.ys)

        monkeypatch.setattr(planner, "best_effort_trajectory", jump)
        with pytest.raises(RuntimeError, match="step 0 length exceeds"):
            run_best_effort(tiny_scenario)

    def test_composition(self, tiny_scenario):
        res = run_best_effort(tiny_scenario)
        traj = best_effort_trajectory(tiny_scenario)
        assert np.array_equal(res.trajectory.xs, traj.xs)
        assert np.all(res.powers.p == tiny_scenario.avg_power)
        assert res.iterations == ()
        assert res.secrecy_rate == avg_worst_case_secrecy_rate(
            traj, res.powers, tiny_scenario)


def _polar(rho, theta):
    return (rho * math.cos(theta), rho * math.sin(theta))


@st.composite
def valid_scenarios(draw):
    """Random valid scenarios: N in 4..40, K in 1..4 disks (radius 0 among
    them), some centred over the best-effort track's racing leg."""
    n = draw(st.integers(4, 40))
    reach = 0.4 * (n + 1) * 5.0  # pins at most 0.8 of the mobility budget apart
    angle = st.floats(0.0, 2.0 * math.pi)
    start = _polar(draw(st.floats(0.2 * reach, reach)), draw(angle))
    end = _polar(draw(st.floats(0.0, reach)), draw(angle))
    radius_share = st.one_of(st.just(0.0), st.floats(0.1, 0.8))
    eves = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):  # over the leg from the start to the receiver
            share = draw(st.floats(0.3, 0.9))
            center = (share * start[0], share * start[1])
        else:
            center = _polar(draw(st.floats(0.05 * reach, 1.5 * reach)), draw(angle))
        # the disk stays clear of the receiver at the origin
        eves.append(EveRegion(*center, draw(radius_share) * math.hypot(*center)))
    return make_scenario(flight_duration=0.5 * n, n_slots=n, start_xy=start,
                         end_xy=end, eves=tuple(eves), epsilon=1e-2,
                         max_iters=12)


def assert_not_below_best_effort(robust, scen):
    """The robust plan's start is the best-effort track with exact power, which
    has no negative slot term; the benchmark's equal power with its negative
    slots silenced is a feasible schedule on that track, so the start rates at
    least the benchmark.  The power dual may stop with the mean power up to
    POWER_RESIDUAL_REL below the budget, and the optimum is concave in the
    budget and 0 at 0, so that costs at most that share of the rate."""
    best_effort = run_best_effort(scen).secrecy_rate
    assert robust.secrecy_rate >= (1.0 - POWER_RESIDUAL_REL) * best_effort


class TestRandomValidScenarios:
    @given(scen=valid_scenarios())
    @settings(max_examples=50, deadline=None)
    def test_plans_improve_on_the_start_without_trouble(self, scen):
        assert validate(scen) == []
        assert_matches_numpy_loop(scen)
        robust = optimize(scen)
        assert_not_below_best_effort(robust, scen)
        for res in (robust, optimize_non_robust(scen)):
            objs = [r.objective for r in res.iterations]
            assert all(r.status != TROUBLE for r in res.iterations)
            assert all(r.solve.status == OPTIMAL for r in res.iterations[1:])
            assert trajectory_violations(res.trajectory, scen) == []
            assert power_violations(res.powers, scen) == []
            assert all(b >= a - 1e-6 * max(1.0, abs(a)) for a, b in zip(objs, objs[1:]))
            assert objs[-1] >= objs[0]

    def test_not_below_best_effort_at_tiny_snr(self):
        # H ~ 1.8 km and gamma0 ~ 1.6 dB: the benchmark rates ~1.7e-12.  A first
        # step at equal power moves the track so that no slot's receiver link
        # beats the eavesdroppers'; exact power is then 0 everywhere, rate 0
        scen = Scenario(
            altitude=1821.4731581500541, flight_duration=3.0, slot_len=0.5, n_slots=6,
            v_max=10.0, start_xy=(8.173902854322217, -0.99416084067419),
            end_xy=(-2.1236572770225317, -13.294655059922015),
            avg_power=2.636840943301087, peak_power=3.194625581528718,
            gamma0=1.447996656354214,
            eves=(EveRegion(3.365010986602146, 5.350735433856332, 2.9154985983680666),
                  EveRegion(5.5099776717538465, -0.6701577119124009, 2.9368259891655124)),
            epsilon=1e-4, max_iters=200)
        assert validate(scen) == []
        robust = optimize(scen)
        assert robust.secrecy_rate > 0.0
        assert_not_below_best_effort(robust, scen)
        objs = [r.objective for r in robust.iterations]
        assert all(b >= a for a, b in zip(objs, objs[1:]))


# Two known solver defects: at the first convex step the complementarity
# collapses ahead of the stationarity residual, and the step ends
# numerical_trouble (A after 191 iterations, B after 27).  In B two
# eavesdroppers share a centre.  Each must lose its marker once mended.
_KNOWN_TROUBLE = pytest.mark.xfail(
    strict=True, reason="known solver defect, ROADMAP items 1 (A, B) and 4 (B)")


@pytest.mark.parametrize("scen", [
    pytest.param(Scenario(
        altitude=1.0000000000000002, flight_duration=18.5, slot_len=0.5, n_slots=37,
        v_max=10.0, start_xy=(21.558326095205192, -72.8782448743985),
        end_xy=(-0.8844583130335864, 0.46661921574854015),
        avg_power=0.8978944722905364, peak_power=1.3468417084358046, gamma0=1.0,
        eves=(EveRegion(112.8621243346949, 0.0, 14.978710400936691),
              EveRegion(-9.745485082928273, -2.241767271244392, 3.333333333333333)),
        epsilon=1e-4, max_iters=50), id="A", marks=_KNOWN_TROUBLE),
    pytest.param(Scenario(
        altitude=20.0, flight_duration=16.5, slot_len=0.5, n_slots=33, v_max=10.0,
        start_xy=(52.851243528780174, 2.9792707345549573e-163),
        end_xy=(-48.2869440066859, -37.35046927369446),
        avg_power=0.001, peak_power=0.004, gamma0=1e6,
        eves=(EveRegion(17.617081176260058, 9.930902448516524e-164, 11.534054325126625),
              EveRegion(17.617081176260058, 9.930902448516524e-164, 0.0)),
        epsilon=0.01, max_iters=12), id="B", marks=_KNOWN_TROUBLE),
])
def test_non_robust_plan_converges_with_optimal_steps(scen):
    assert validate(scen) == []
    plan = optimize_non_robust(scen)
    assert all(r.status == OPTIMAL for r in plan.iterations[1:]) and plan.converged
