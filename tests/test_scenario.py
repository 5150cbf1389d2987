import dataclasses
import math
import warnings

import numpy as np
import pytest

from secuav.planner import optimize
from secuav.scenario import (MAX_SLOTS, EveRegion, PowerSchedule, Trajectory, slot_count,
                             power_violations, trajectory_violations, validate)

from conftest import make_scenario, benchmark_fields


class TestSlotCount:
    def test_benchmark_setup(self):
        assert slot_count(160.0, 0.5) == 320

    def test_short_flight(self):
        assert slot_count(80.0, 0.5) == 160

    def test_single_slot(self):
        assert slot_count(1.0, 1.0) == 1

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(ValueError, match="not an integer"):
            slot_count(1.0, 0.3)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            slot_count(0.0, 0.5)
        with pytest.raises(ValueError):
            slot_count(10.0, -1.0)

    @pytest.mark.parametrize("duration, slot_len", [
        (math.inf, 0.5), (math.nan, 0.5), (10.0, math.inf), (10.0, math.nan),
        (1e308, 1e-10)])
    def test_non_finite_rejected(self, duration, slot_len):
        with pytest.raises(ValueError):
            slot_count(duration, slot_len)


class TestValidate:
    def test_benchmark_instance_ok(self):
        scen = dataclasses.replace(make_scenario(**benchmark_fields()))
        assert validate(scen) == []

    def test_avg_equal_peak_rejected(self):
        scen = make_scenario(avg_power=1e-3, peak_power=1e-3)
        msgs = validate(scen)
        assert any("avg_power < peak_power required" in m for m in msgs)

    def test_unreachable_endpoints(self):
        # 159 slots of 5 m from (-400,-200) to (400,-200): 795 m < 800 m
        scen = make_scenario(**benchmark_fields(flight_duration=79.0))
        msgs = validate(scen)
        assert any("endpoints unreachable" in m for m in msgs)

    def test_endpoints_a_full_budget_apart_rejected(self):
        # 159 slots of 5 m: the pins are 800 m apart, the whole budget, so the
        # only track is the straight line at full speed
        msgs = validate(make_scenario(**benchmark_fields(flight_duration=79.5)))
        assert any("forced" in m and "no interior" in m for m in msgs)
        assert validate(make_scenario(**benchmark_fields(flight_duration=80.0))) == []

    def test_eve_disk_over_receiver_rejected(self):
        scen = make_scenario(eves=(EveRegion(1.0, 1.0, 5.0),))
        msgs = validate(scen)
        assert any("contains the receiver" in m for m in msgs)

    def test_negative_radius_rejected(self):
        scen = make_scenario(eves=(EveRegion(10.0, 0.0, -1.0),))
        assert any("radius" in m for m in validate(scen))

    @pytest.mark.parametrize("name, overrides", [
        ("altitude", dict(altitude=math.nan)),
        ("flight_duration", dict(flight_duration=math.inf)),
        ("slot_len", dict(slot_len=math.nan)),
        ("v_max", dict(v_max=math.nan)),
        ("v_max", dict(v_max=math.inf)),
        ("avg_power", dict(avg_power=math.nan)),
        ("peak_power", dict(peak_power=math.inf)),
        ("gamma0", dict(gamma0=math.inf)),
        ("epsilon", dict(epsilon=math.nan)),
        ("start_xy[0]", dict(start_xy=(math.nan, -10.0))),
        ("end_xy[1]", dict(end_xy=(15.0, -math.inf))),
        ("eves[0].center_x", dict(eves=(EveRegion(math.nan, 4.0, 2.0),))),
        ("eves[1].center_y", dict(eves=(EveRegion(-10.0, 4.0, 2.0),
                                        EveRegion(10.0, math.inf, 3.0)))),
        ("eves[0].radius", dict(eves=(EveRegion(10.0, 4.0, math.nan),))),
    ])
    def test_non_finite_number_rejected(self, name, overrides):
        assert f"{name} must be finite" in " ".join(validate(make_scenario(**overrides)))

    @pytest.mark.parametrize("name, overrides", [
        ("altitude", dict(altitude=1e200)),
        ("v_max*slot_len", dict(v_max=1e160)),
        ("start_xy[0]", dict(start_xy=(-1e160, -10.0))),
        ("eves[0].center_x", dict(eves=(EveRegion(1e160, 4.0, 2.0),))),
        ("eves[1].center_y", dict(eves=(EveRegion(-10.0, 4.0, 2.0),
                                        EveRegion(10.0, -1e160, 3.0)))),
        ("eves[0].radius", dict(eves=(EveRegion(10.0, 4.0, 1e160),))),
    ])
    def test_huge_length_named_not_raised(self, name, overrides):
        assert f"{name} is too large" in " ".join(validate(make_scenario(**overrides)))

    @pytest.mark.parametrize("overrides", [
        dict(altitude=1.3e154),
        dict(eves=(EveRegion(1e154, 1e154, 2.0),)),
    ], ids=["altitude", "eve-centre"])
    def test_scene_whose_squared_sums_overflow_named(self, overrides):
        """Every length squares finitely, but the planner's squared distances
        do not: optimize stopped at iteration 1 with overflow warnings."""
        assert "scene is too large" in " ".join(validate(make_scenario(**overrides)))

    def test_largest_accepted_scene_plans_without_overflow(self):
        """The paper_fig2-like test scene scaled up to just inside the bound
        (lengths by s, gamma0 by s^2, an equivalent problem) still plans
        cleanly."""
        base = make_scenario()
        s = 1.3e75
        scen = dataclasses.replace(
            base, altitude=base.altitude * s, v_max=base.v_max * s,
            start_xy=(base.start_xy[0] * s, base.start_xy[1] * s),
            end_xy=(base.end_xy[0] * s, base.end_xy[1] * s), gamma0=base.gamma0 * s**2,
            eves=tuple(EveRegion(e.center_x * s, e.center_y * s, e.radius * s)
                       for e in base.eves))
        assert validate(scen) == []
        assert validate(dataclasses.replace(scen, altitude=scen.altitude * 2.0)) != []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = optimize(scen)
        assert res.converged
        assert res.secrecy_rate == pytest.approx(optimize(base).secrecy_rate, rel=1e-9)

    def test_slot_count_above_ceiling_named(self):
        """A huge flight duration gives a slot count no plan could finish;
        validate() names it.  Only validated here, never planned."""
        assert validate(make_scenario(**benchmark_fields(MAX_SLOTS * 0.5))) == []
        over = make_scenario(**benchmark_fields(MAX_SLOTS * 0.5 + 0.5))
        assert validate(over) == [
            f"n_slots={MAX_SLOTS + 1} is above the ceiling of {MAX_SLOTS} slots"]
        n = slot_count(1e300, 0.5)
        assert n.bit_length() == 998
        huge = make_scenario(**dict(benchmark_fields(), flight_duration=1e300, n_slots=n))
        assert validate(huge) == [f"n_slots={n} is above the ceiling of {MAX_SLOTS} slots"]
        # a count past the float range is named too, not raised on
        assert len(validate(dataclasses.replace(huge, n_slots=10**400))) == 2

    def test_validate_is_pure(self):
        scen = make_scenario()
        first = validate(scen)
        second = validate(scen)
        assert first == second == []


class TestTrajectoryChecks:
    def test_valid_straight_line(self):
        scen = make_scenario()
        n = scen.n_slots
        f = np.linspace(0.0, 1.0, n + 2)
        xs = scen.start_xy[0] + f * (scen.end_xy[0] - scen.start_xy[0])
        ys = scen.start_xy[1] + f * (scen.end_xy[1] - scen.start_xy[1])
        traj = Trajectory(xs=xs, ys=ys)
        assert trajectory_violations(traj, scen) == []

    def test_unpinned_start_flagged(self):
        scen = make_scenario()
        n = scen.n_slots
        xs = np.zeros(n + 2)
        ys = np.zeros(n + 2)
        xs[-1], ys[-1] = scen.end_xy
        traj = Trajectory(xs=xs, ys=ys)
        assert any("start" in m for m in trajectory_violations(traj, scen))

    def test_overlong_step_flagged(self):
        scen = make_scenario(start_xy=(0.0, 0.0), end_xy=(0.0, 0.0))
        n = scen.n_slots
        xs = np.zeros(n + 2)
        xs[3] = 2.0 * scen.max_step
        traj = Trajectory(xs=xs, ys=np.zeros(n + 2))
        assert any("step" in m for m in trajectory_violations(traj, scen))

    def test_arrays_read_only(self):
        scen = make_scenario()
        traj = Trajectory(xs=np.zeros(scen.n_slots + 2), ys=np.zeros(scen.n_slots + 2))
        with pytest.raises(ValueError):
            traj.xs[0] = 1.0


class TestPowerChecks:
    def test_flat_schedule_ok(self):
        scen = make_scenario()
        p = PowerSchedule(np.full(scen.n_slots, scen.avg_power))
        assert power_violations(p, scen) == []

    def test_negative_power_flagged(self):
        scen = make_scenario()
        arr = np.full(scen.n_slots, scen.avg_power)
        arr[0] = -1e-6
        assert power_violations(PowerSchedule(arr), scen)

    def test_average_budget_flagged(self):
        scen = make_scenario()
        p = PowerSchedule(np.full(scen.n_slots, scen.avg_power * 1.01))
        assert any("average" in m for m in power_violations(p, scen))

    def test_peak_flagged(self):
        scen = make_scenario()
        arr = np.zeros(scen.n_slots)
        arr[0] = scen.peak_power * 1.5
        assert any("peak" in m for m in power_violations(PowerSchedule(arr), scen))
