import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from secuav.geometry import (avg_worst_case_secrecy_rate, disk_samples, log2_1p,
                             per_slot_secrecy_terms, secrecy_sum,
                             worst_case_dist_sq, worst_case_dist_sq_oracle,
                             worst_case_geometry)
from secuav.scenario import EveRegion, PowerSchedule, Trajectory

from conftest import hover_trajectory, make_scenario, benchmark_fields, P_BAR_NEG5_DBM

EVE1 = EveRegion(-200.0, 0.0, 20.0)
EVE2 = EveRegion(200.0, 0.0, 80.0)

coords = st.floats(-500.0, 500.0)
radii = st.floats(0.0, 100.0)


class TestWorstCaseDistSq:
    def test_inside_disk_floor(self):
        assert worst_case_dist_sq((-200.0, 0.0), EVE1, 100.0) == 10000.0

    def test_outside_disk_eve1(self):
        # brute-force disk minimum equals (180)^2 + 100^2
        assert worst_case_dist_sq((0.0, 0.0), EVE1, 100.0) == pytest.approx(42400.0)
        sampled = worst_case_dist_sq_oracle((0.0, 0.0), EVE1, 100.0, 10_000, 3)
        assert 42400.0 <= sampled <= 42400.0 * (1 + 5e-3)

    def test_outside_disk_eve2(self):
        assert worst_case_dist_sq((0.0, 0.0), EVE2, 100.0) == pytest.approx(24400.0)
        sampled = worst_case_dist_sq_oracle((0.0, 0.0), EVE2, 100.0, 10_000, 4)
        assert 24400.0 <= sampled <= 24400.0 * (1 + 5e-3)

    @given(x=coords, y=coords, cx=coords, cy=coords, q=radii,
           seed=st.integers(0, 2**31), n=st.integers(1, 400))
    @settings(max_examples=150, deadline=None)
    def test_oracle_upper_bounds_closed_form(self, x, y, cx, cy, q, seed, n):
        eve = EveRegion(cx, cy, q)
        closed = worst_case_dist_sq((x, y), eve, 100.0)
        sampled = worst_case_dist_sq_oracle((x, y), eve, 100.0, n, seed)
        assert sampled >= closed - 1e-9 * closed

    def test_single_sample_is_center(self):
        d2 = worst_case_dist_sq_oracle((3.0, 4.0), EVE1, 100.0, 1, 99)
        assert d2 == pytest.approx((3.0 + 200.0) ** 2 + 16.0 + 10000.0)

    def test_zero_radius_exact_for_any_n(self):
        eve = EveRegion(50.0, -30.0, 0.0)
        expect = 50.0**2 + 70.0**2 + 400.0
        for n in (1, 7, 100):
            assert worst_case_dist_sq_oracle((0.0, 40.0), eve, 20.0, n, 5) == pytest.approx(expect)

    def test_continuity_across_disk_boundary(self):
        # approach d = Q from both sides
        q = EVE1.radius
        lo = worst_case_dist_sq((-200.0 + q * (1 - 1e-12), 0.0), EVE1, 100.0)
        hi = worst_case_dist_sq((-200.0 + q * (1 + 1e-12), 0.0), EVE1, 100.0)
        assert abs(lo - hi) <= 1e-9

    def test_samples_stay_in_disk(self):
        xs, ys = disk_samples(EVE2, 500, 17)
        r = np.hypot(xs - EVE2.center_x, ys - EVE2.center_y)
        assert r.max() <= EVE2.radius * (1 + 1e-12)

    def test_oracle_deterministic_per_seed(self):
        a = worst_case_dist_sq_oracle((10.0, 20.0), EVE2, 100.0, 777, 42)
        b = worst_case_dist_sq_oracle((10.0, 20.0), EVE2, 100.0, 777, 42)
        assert a == b


def slot_rates(xy, power, eves=(EVE1, EVE2)):
    """Legitimate rate, worst-case leak and secrecy term of one slot hovering
    at xy, 100 m up with gamma0 = 1e8, the rates from ``worst_case_geometry``."""
    scen = make_scenario(altitude=100.0, flight_duration=0.5, slot_len=0.5, n_slots=1,
                         start_xy=xy, end_xy=xy, gamma0=1e8, eves=eves)
    traj = hover_trajectory(scen, xy)
    geo = worst_case_geometry(traj, scen)
    snr = scen.gamma0 * power
    bob = float(log2_1p(snr / geo.d2[0]))
    leak = float(log2_1p(snr / geo.theta[0]))
    term = float(per_slot_secrecy_terms(traj, PowerSchedule([power]), scen)[0])
    assert term == bob - leak
    return bob, leak


class TestRates:
    def test_rate_bob_hover(self):
        got, _ = slot_rates((0.0, 0.0), P_BAR_NEG5_DBM)
        assert got == pytest.approx(math.log2(1.0 + 1e8 * P_BAR_NEG5_DBM / 1e4), abs=1e-12)
        assert got == pytest.approx(2.0573732086067946, abs=1e-12)

    def test_rate_bob_zero_power(self):
        assert slot_rates((123.0, -45.0), 0.0) == (0.0, 0.0)

    def test_rate_bob_offset(self):
        got, _ = slot_rates((300.0, 400.0), P_BAR_NEG5_DBM)
        assert got == pytest.approx(math.log2(1.0 + 1e8 * P_BAR_NEG5_DBM / 260000.0), abs=1e-12)
        assert got == pytest.approx(0.16559177956285065, abs=1e-9)

    def test_worst_eve_rate_hover(self):
        _, got = slot_rates((0.0, 0.0), P_BAR_NEG5_DBM)
        assert got == pytest.approx(math.log2(1.0 + 1e8 * P_BAR_NEG5_DBM / 24400.0), abs=1e-12)
        assert got == pytest.approx(1.1991323402692167, abs=1e-12)

    def test_worst_eve_rate_zero_power(self):
        assert slot_rates((0.0, 0.0), 0.0)[1] == 0.0

    def test_degenerate_disk_matches_point_eavesdropper(self):
        _, got = slot_rates((0.0, 0.0), 2e-4, eves=(EveRegion(70.0, -10.0, 0.0),))
        want, _ = slot_rates((70.0, -10.0), 2e-4)
        assert got == pytest.approx(want, abs=1e-12)


class TestSecrecyMetrics:
    def test_zero_power_zero_rate(self):
        scen = make_scenario(**benchmark_fields(flight_duration=80.0))
        traj = hover_trajectory(scen)  # pins unreachable but metric ignores that
        powers = PowerSchedule(np.zeros(scen.n_slots))
        assert avg_worst_case_secrecy_rate(traj, powers, scen) == 0.0

    def test_single_slot_hover_value(self):
        fields = benchmark_fields(flight_duration=0.5)
        fields.update(start_xy=(0.0, 0.0), end_xy=(0.0, 0.0))
        scen = make_scenario(**fields)
        traj = hover_trajectory(scen)
        powers = PowerSchedule(np.array([P_BAR_NEG5_DBM]))
        want = (math.log2(1 + 1e8 * P_BAR_NEG5_DBM / 1e4)
                - math.log2(1 + 1e8 * P_BAR_NEG5_DBM / 24400.0))
        got = avg_worst_case_secrecy_rate(traj, powers, scen)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.8582408683375779, abs=1e-12)

    def test_negative_slots_clamp_to_zero(self):
        # hover directly above an eavesdropper estimate: leak beats the link
        fields = benchmark_fields(flight_duration=0.5)
        fields.update(start_xy=(-200.0, 0.0), end_xy=(-200.0, 0.0))
        scen = make_scenario(**fields)
        traj = hover_trajectory(scen, xy=(-200.0, 0.0))
        powers = PowerSchedule(np.array([P_BAR_NEG5_DBM]))
        assert secrecy_sum(traj, powers, scen) < 0.0
        assert avg_worst_case_secrecy_rate(traj, powers, scen) == 0.0

    @given(perm=st.permutations(range(3)))
    @settings(max_examples=6, deadline=None)
    def test_eve_relabeling_invariance(self, perm):
        eves = (EVE1, EVE2, EveRegion(0.0, 300.0, 50.0))
        fields = benchmark_fields(flight_duration=2.0)
        scen_a = make_scenario(**{**fields, "eves": eves})
        scen_b = make_scenario(**{**fields, "eves": tuple(eves[i] for i in perm)})
        traj = hover_trajectory(scen_a, xy=(-350.0, -180.0))
        powers = PowerSchedule(np.full(scen_a.n_slots, P_BAR_NEG5_DBM))
        assert avg_worst_case_secrecy_rate(traj, powers, scen_a) == pytest.approx(
            avg_worst_case_secrecy_rate(traj, powers, scen_b), abs=0)

    @given(extra=st.floats(0.0, 80.0), base=st.floats(0.0, 60.0))
    @settings(max_examples=40, deadline=None)
    def test_growing_disk_never_helps(self, base, extra):
        fields = benchmark_fields(flight_duration=2.0)
        scen_small = make_scenario(**{**fields, "eves": (EveRegion(-200.0, 0.0, base),)})
        scen_big = make_scenario(**{**fields, "eves": (EveRegion(-200.0, 0.0, base + extra),)})
        traj = hover_trajectory(scen_small, xy=(-380.0, -190.0))
        powers = PowerSchedule(np.full(scen_small.n_slots, P_BAR_NEG5_DBM))
        assert (avg_worst_case_secrecy_rate(traj, powers, scen_big)
                <= avg_worst_case_secrecy_rate(traj, powers, scen_small) + 1e-12)


class TestRateCoefficients:
    """The SNR coefficients gamma0/d2 and gamma0/theta that the power
    subproblem reads off ``worst_case_geometry``."""

    def test_hover_at_origin(self):
        fields = benchmark_fields(flight_duration=1.0)
        fields.update(start_xy=(0.0, 0.0), end_xy=(0.0, 0.0))
        scen = make_scenario(**fields)
        geo = worst_case_geometry(hover_trajectory(scen), scen)
        assert scen.gamma0 / geo.d2 == pytest.approx([1e4, 1e4])
        assert scen.gamma0 / geo.theta == pytest.approx([1e8 / 24400.0] * 2)
        assert geo.theta == pytest.approx([24400.0, 24400.0])

    def test_above_eve_center_beta_dominates(self):
        fields = benchmark_fields(flight_duration=1.0)
        fields.update(start_xy=(-200.0, 0.0), end_xy=(-200.0, 0.0))
        scen = make_scenario(**fields)
        geo = worst_case_geometry(hover_trajectory(scen, xy=(-200.0, 0.0)), scen)
        alpha, beta = scen.gamma0 / geo.d2, scen.gamma0 / geo.theta
        assert beta == pytest.approx([1e4, 1e4])
        assert alpha == pytest.approx([2000.0, 2000.0])
        assert np.all(alpha < beta)

    def test_theta_floor_invariant(self):
        scen = make_scenario()
        traj = hover_trajectory(scen, xy=(-10.0, 4.0))  # at eve 1 center
        theta = np.stack([worst_case_dist_sq(traj.slot_positions(), e, scen.altitude)
                          for e in scen.eves])
        assert np.array_equal(worst_case_geometry(traj, scen).theta, theta.min(axis=0))
        h2 = scen.altitude**2
        assert np.all(theta >= h2 - 1e-12)
        inside = np.array([np.hypot(-10.0 - e.center_x, 4.0 - e.center_y) <= e.radius
                           for e in scen.eves])[:, None]
        assert np.all((theta == h2) == inside)

    def test_one_broadcast_matches_the_per_disk_closed_form(self):
        # theta, bit for bit, as the minimum of worst_case_dist_sq over the
        # disks, on random tracks through disks of every kind
        scen = make_scenario(eves=(EveRegion(-10.0, 4.0, 2.0), EveRegion(10.0, 4.0, 0.0),
                                   EveRegion(0.0, -5.0, 6.0)))
        rng = np.random.default_rng(17)
        for _ in range(20):
            traj = Trajectory(*rng.uniform(-20.0, 20.0, (2, scen.n_slots + 2)))
            theta = np.stack([worst_case_dist_sq(traj.slot_positions(), e, scen.altitude)
                              for e in scen.eves]).min(axis=0)
            assert np.array_equal(worst_case_geometry(traj, scen).theta, theta)
