import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from secuav import power_alloc
from secuav.geometry import LN2, worst_case_geometry
from secuav.harness import _grid_power_oracle
from secuav.power_alloc import (POWER_RESIDUAL_REL, optimize_power, power_for_dual,
                                solve_power_subproblem)
from conftest import hover_trajectory, make_scenario, benchmark_fields, P_BAR_NEG5_DBM

ALPHA_HOVER = 1e4
BETA_HOVER = 1e8 / 24400.0
PEAK = 4.0 * P_BAR_NEG5_DBM


class TestPowerForDual:
    @given(alpha=st.floats(1.0, 1e6), ratio=st.floats(1.0, 100.0),
           lam=st.floats(0.0, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_weak_link_transmits_nothing(self, alpha, ratio, lam):
        beta = alpha * ratio  # alpha <= beta
        assert power_for_dual(alpha, beta, lam, PEAK) == 0.0

    def test_zero_dual_saturates_peak(self):
        assert power_for_dual(ALPHA_HOVER, BETA_HOVER, 0.0, PEAK) == PEAK

    def test_stationary_point_matches_grid_oracle(self):
        # pick the dual that reproduces the -5 dBm budget on the hover slot
        dual = solve_power_subproblem(np.array([ALPHA_HOVER]), np.array([BETA_HOVER]),
                                      P_BAR_NEG5_DBM, PEAK)
        p = power_for_dual(ALPHA_HOVER, BETA_HOVER, dual.lam, PEAK)
        assert p == pytest.approx(P_BAR_NEG5_DBM, rel=1e-8)
        ref = _grid_power_oracle(ALPHA_HOVER, BETA_HOVER, dual.lam, PEAK, 100_000)
        assert abs(p - ref) <= 1e-6 * PEAK

    @given(alpha=st.floats(10.0, 1e6), gap=st.floats(0.01, 0.99),
           lam=st.floats(1e-2, 1e5))
    @settings(max_examples=60, deadline=None)
    def test_formula_is_stationary(self, alpha, gap, lam):
        beta = alpha * gap
        p = power_for_dual(alpha, beta, lam, peak=math.inf)
        if p <= 0.0 or not math.isfinite(p):
            return
        # first-order condition of log2(1+aP) - log2(1+bP) - lam*P
        deriv = (alpha / (1 + alpha * p) - beta / (1 + beta * p)) / LN2 - lam
        assert deriv == pytest.approx(0.0, abs=1e-6 * max(1.0, lam))


class TestSolvePowerSubproblem:
    def test_single_slot_budget_tight(self):
        dual = solve_power_subproblem(np.array([ALPHA_HOVER]), np.array([BETA_HOVER]),
                                      P_BAR_NEG5_DBM, PEAK)
        assert dual.schedule.p == pytest.approx([P_BAR_NEG5_DBM], rel=1e-8)
        assert dual.lam > 0.0
        assert dual.schedule.p.mean() == pytest.approx(P_BAR_NEG5_DBM, rel=1e-8)

    def test_two_slots_all_budget_on_strong_slot(self):
        alpha = np.array([ALPHA_HOVER, 1e3])
        beta = np.array([BETA_HOVER, 2e3])  # slot 2 has alpha <= beta
        p_bar = P_BAR_NEG5_DBM
        peak = 10.0 * p_bar
        dual = solve_power_subproblem(alpha, beta, p_bar, peak)
        assert dual.schedule.p[1] == 0.0
        assert dual.schedule.p[0] == pytest.approx(min(2.0 * p_bar, peak), rel=1e-8)

    def test_all_weak_slots_zero_schedule(self):
        alpha = np.array([1e3, 2e3, 3e3])
        beta = alpha * 1.5
        dual = solve_power_subproblem(alpha, beta, 1e-3, 4e-3)
        assert np.all(dual.schedule.p == 0.0)
        assert dual.lam == 0.0

    def test_slack_budget_keeps_zero_dual(self):
        # peak power on the single strong slot already fits under the average
        alpha = np.array([1e4, 1.0, 1.0])
        beta = np.array([5e3, 2.0, 2.0])
        peak = 1e-3
        p_bar = 1e-3  # mean of [peak, 0, 0] = peak/3 < p_bar
        dual = solve_power_subproblem(alpha, beta, p_bar, peak)
        assert dual.lam == 0.0
        assert dual.schedule.p[0] == peak
        assert dual.schedule.p.mean() <= p_bar

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_kkt_and_grid_agreement_random(self, seed):
        (alpha, beta, p_bar, peak), = c03_draws(seed, count=1)
        dual = solve_power_subproblem(alpha, beta, p_bar, peak)
        p = dual.schedule.p
        assert np.all(p >= 0.0) and np.all(p <= peak * (1 + 1e-12))
        assert p.mean() <= p_bar * (1 + 1e-9)
        if dual.lam > 1e-12:
            assert abs(p.mean() - p_bar) <= 1e-9 * p_bar
        for i in range(p.size):
            ref = _grid_power_oracle(alpha[i], beta[i], dual.lam, peak, 20_000)
            assert abs(p[i] - ref) <= 1e-6 * peak

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_beats_random_feasible_schedules(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        alpha = 10.0 ** rng.uniform(2, 6, n)
        beta = 10.0 ** rng.uniform(2, 6, n)
        p_bar, peak = 1e-3, 4e-3

        def objective(p):
            return float(((np.log1p(alpha * p) - np.log1p(beta * p)) / LN2).sum())

        dual = solve_power_subproblem(alpha, beta, p_bar, peak)
        best = objective(dual.schedule.p)
        for _ in range(100):
            cand = rng.uniform(0.0, peak, n)
            if cand.mean() > p_bar:
                cand *= p_bar / cand.mean()
            assert objective(cand) <= best + 1e-9

    def test_deterministic(self):
        alpha = np.array([1e4, 2e4, 3e4])
        beta = np.array([4e3, 5e4, 1e4])
        a = solve_power_subproblem(alpha, beta, 1e-3, 4e-3)
        b = solve_power_subproblem(alpha, beta, 1e-3, 4e-3)
        assert np.array_equal(a.schedule.p, b.schedule.p) and a.lam == b.lam


def c03_draws(seed, count=100):
    """(alpha, beta, p_bar, peak) drawn as the power-grid verify suite (c03) draws them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 17))
        alpha = 10.0 ** rng.uniform(2, 6, n)
        beta = 10.0 ** rng.uniform(2, 6, n)
        p_bar = 10.0 ** rng.uniform(-5, -2)
        yield alpha, beta, p_bar, p_bar * rng.uniform(1.5, 6.0)


def assert_pinned(dual, p_bar):
    """The schedule is the power law at the returned dual, and its mean meets
    the budget within POWER_RESIDUAL_REL."""
    p = dual.schedule.p
    assert dual.lam > 0.0
    assert abs(p.mean() - p_bar) <= POWER_RESIDUAL_REL * p_bar


class TestNewtonDual:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_evaluation_count_on_c03_draws(self, seed):
        counts = []
        for alpha, beta, p_bar, peak in c03_draws(seed):
            dual = solve_power_subproblem(alpha, beta, p_bar, peak)
            if dual.lam > 0.0:
                assert_pinned(dual, p_bar)
                counts.append(dual.iterations)
        assert len(counts) > 50
        assert max(counts) <= 25
        assert np.median(counts) <= 15

    def test_root_inside_a_clamped_plateau(self):
        # slot A sits at peak for lam <= 1e-2 and slot B at 0 for lam >= 1e-3,
        # so on [1e-3, 1e-2] the mean is exactly peak/2 with zero slope.  At
        # the start lam = 1 both slots are at 0 (lam > (alpha - beta)/LN2 for
        # both): the slope is 0 there too, so only bisection gets below
        alpha = np.array([1.0 + 0.5 * LN2, 1.0 + 1e-3 * LN2])
        beta = np.array([1.0, 1.0])
        peak = float(power_for_dual(alpha[0], beta[0], 1e-2, math.inf))
        assert power_for_dual(alpha, beta, 1.0, peak).max() == 0.0
        dual = solve_power_subproblem(alpha, beta, 0.5 * peak, peak)
        assert_pinned(dual, 0.5 * peak)
        assert 1e-3 <= dual.lam <= 1e-2
        assert np.array_equal(dual.schedule.p, [peak, 0.0])

    @pytest.mark.parametrize("lam_star", [1e-6, 1e6])
    def test_extreme_roots(self, lam_star):
        # the budget is the mean power at lam_star, so lam_star is the root
        rng = np.random.default_rng(3)
        beta = 10.0 ** rng.uniform(2, 4, 8)
        alpha = beta + 1e7 * rng.uniform(1.0, 2.0, 8)
        peak = 10.0 * float(power_for_dual(alpha, beta, lam_star, math.inf).max())
        p_bar = float(power_for_dual(alpha, beta, lam_star, peak).mean())
        dual = solve_power_subproblem(alpha, beta, p_bar, peak)
        assert_pinned(dual, p_bar)
        assert dual.lam == pytest.approx(lam_star, rel=1e-6)
        assert dual.iterations <= 40

    def test_iteration_cap_returns_last_point_within_budget(self, monkeypatch):
        # the root lies below the start lam = 1, so the mean at lam = 1 fits
        # the budget and bounds the bracket from the first evaluation on
        alpha, beta = np.array([2e4, 3e4, 5e4]), np.array([1e4, 1e4, 2e4])
        peak = 10.0 * float(power_for_dual(alpha, beta, 1e-3, math.inf).max())
        p_bar = float(power_for_dual(alpha, beta, 1e-3, peak).mean())
        full = solve_power_subproblem(alpha, beta, p_bar, peak)
        assert full.iterations > 3
        monkeypatch.setattr(power_alloc, "MAX_DUAL_ITERS", 3)
        capped = solve_power_subproblem(alpha, beta, p_bar, peak)
        assert capped.iterations == 3
        assert capped.lam > full.lam
        assert capped.schedule.p.mean() < p_bar
        assert np.array_equal(capped.schedule.p,
                              power_for_dual(alpha, beta, capped.lam, peak))

    @pytest.mark.parametrize("seed", [11, 12])
    def test_warm_start_near_the_root(self, seed):
        # a start within 2x of the root, as the previous outer iteration's
        # dual gives it, pins the same budget in fewer evaluations
        rng = np.random.default_rng(seed)
        cold_total = warm_total = 0
        for alpha, beta, p_bar, peak in c03_draws(seed):
            cold = solve_power_subproblem(alpha, beta, p_bar, peak)
            if cold.lam == 0.0:
                continue
            warm = solve_power_subproblem(alpha, beta, p_bar, peak,
                                          cold.lam * rng.uniform(0.5, 2.0))
            assert_pinned(warm, p_bar)
            assert np.allclose(warm.schedule.p, cold.schedule.p, rtol=0.0, atol=1e-6 * peak)
            cold_total += cold.iterations
            warm_total += warm.iterations
        assert warm_total < 0.7 * cold_total

    def test_start_at_zero_or_below_is_the_cold_start(self):
        for alpha, beta, p_bar, peak in c03_draws(13, count=20):
            cold = solve_power_subproblem(alpha, beta, p_bar, peak)
            for lam0 in (0.0, -1.0):
                again = solve_power_subproblem(alpha, beta, p_bar, peak, lam0)
                assert (again.lam, again.iterations) == (cold.lam, cold.iterations)
                assert np.array_equal(again.schedule.p, cold.schedule.p)

    def test_iteration_cap_without_a_point_within_budget_raises(self, monkeypatch):
        # lam doubles from 1 while every slot stays at peak, so no evaluated
        # point fits the budget before the cap
        alpha = np.array([1e7, 2e7])
        beta = np.array([1e2, 1e2])
        monkeypatch.setattr(power_alloc, "MAX_DUAL_ITERS", 3)
        with pytest.raises(RuntimeError, match="no schedule within the average budget"):
            solve_power_subproblem(alpha, beta, 1e-3, 4e-3)


class TestOptimizePower:
    def test_hover_trajectory_roundtrip(self):
        fields = benchmark_fields(flight_duration=1.0)
        fields.update(start_xy=(0.0, 0.0), end_xy=(0.0, 0.0))
        scen = make_scenario(**fields)
        traj = hover_trajectory(scen)
        dual = optimize_power(traj, scen)
        geo = worst_case_geometry(traj, scen)
        want = power_for_dual(scen.gamma0 / geo.d2, scen.gamma0 / geo.theta,
                              dual.lam, scen.peak_power)
        assert np.allclose(dual.schedule.p, want, rtol=0, atol=0)
        assert dual.schedule.p.mean() <= scen.avg_power * (1 + 1e-9)
