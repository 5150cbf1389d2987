"""Problem instances: geometry, uncertainty disks, power budget, discretization.

All lengths are meters, powers are watts, times are seconds.  The legitimate
receiver sits at the origin of the horizontal plane; the transmitter flies at a
fixed altitude and is described by its horizontal track only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Tolerances used when re-checking trajectories / power schedules produced by
# the optimizers (relative to the natural scale of each constraint).
MOBILITY_TOL_REL = 1e-6
POWER_TOL_REL = 1e-9
MAX_SLOTS = 100_000  # the most slots validate() accepts; planning is per slot


@dataclass(frozen=True)
class EveRegion:
    """Uncertainty disk of one eavesdropper: estimated center plus error radius."""

    center_x: float
    center_y: float
    radius: float


@dataclass(frozen=True)
class Scenario:
    """Immutable problem instance.

    ``n_slots`` is the number of in-flight decision slots; the fixed start and
    end positions occupy two extra pinned slots (indices 0 and n_slots+1 of a
    trajectory).  ``gamma0`` is the linear reference SNR per watt at 1 m.
    """

    altitude: float
    flight_duration: float
    slot_len: float
    n_slots: int
    v_max: float
    start_xy: tuple[float, float]
    end_xy: tuple[float, float]
    avg_power: float
    peak_power: float
    gamma0: float
    eves: tuple[EveRegion, ...]
    epsilon: float
    max_iters: int = 200

    @property
    def max_step(self) -> float:
        """Largest horizontal distance coverable in one slot."""
        return self.v_max * self.slot_len

    @property
    def mobility_tol(self) -> float:
        return MOBILITY_TOL_REL * self.max_step**2

    @property
    def power_tol(self) -> float:
        return POWER_TOL_REL * self.avg_power

    @property
    def n_eves(self) -> int:
        return len(self.eves)


@dataclass(frozen=True)
class Trajectory:
    """Horizontal track, indices 0..N+1 with pinned endpoints at 0 and N+1."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xs", np.asarray(self.xs, dtype=float))
        object.__setattr__(self, "ys", np.asarray(self.ys, dtype=float))
        self.xs.setflags(write=False)
        self.ys.setflags(write=False)
        if self.xs.shape != self.ys.shape or self.xs.ndim != 1 or self.xs.size < 3:
            raise ValueError("trajectory needs matching 1-D xs/ys of length >= 3")

    @property
    def n_slots(self) -> int:
        return self.xs.size - 2

    def slot_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """In-flight positions only (indices 1..N)."""
        return self.xs[1:-1], self.ys[1:-1]

    def step_sq(self) -> np.ndarray:
        """Squared step lengths, one per transition 0->1 .. N->N+1."""
        return np.diff(self.xs) ** 2 + np.diff(self.ys) ** 2


@dataclass(frozen=True)
class PowerSchedule:
    """Per-slot transmit power, one entry per in-flight slot."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        self.p.setflags(write=False)
        if self.p.ndim != 1 or self.p.size < 1:
            raise ValueError("power schedule needs a 1-D array of length >= 1")


def slot_count(flight_duration: float, slot_len: float) -> int:
    """Number of in-flight slots; the duration must be an exact multiple of the slot length."""
    if not (0 < flight_duration < math.inf and 0 < slot_len < math.inf):
        raise ValueError("flight_duration and slot_len must be positive and finite")
    ratio = flight_duration / slot_len
    n = round(ratio) if ratio < math.inf else 0
    if n < 1 or abs(ratio - n) > 0.5 * math.ulp(ratio):
        raise ValueError(
            f"flight_duration/slot_len = {ratio!r} is not an integer number of slots"
        )
    return n


def validate(scenario: Scenario) -> list[str]:
    """Return all violated invariants (empty list means the scenario is usable).

    Violations are data, not failures: every problem found is reported with the
    offending field so a caller can fix the instance in one pass.
    """
    lengths = {"altitude": scenario.altitude}
    for name in ("start_xy", "end_xy"):
        lengths.update((f"{name}[{i}]", c) for i, c in enumerate(getattr(scenario, name)))
    for k, eve in enumerate(scenario.eves):
        lengths.update((f"eves[{k}].{f}", getattr(eve, f))
                       for f in ("center_x", "center_y", "radius"))
    numbers = {name: getattr(scenario, name) for name in (
        "flight_duration", "slot_len", "v_max", "avg_power", "peak_power",
        "gamma0", "epsilon")}
    v = [f"{name} must be finite (got {value})"
         for name, value in {**lengths, **numbers}.items() if not math.isfinite(value)]
    if all(math.isfinite(value) for value in lengths.values()):
        # the planner squares squared distances (the rate tangent's d2^2, the
        # solver's step model), so bound the scene's squared scale: the span
        # between any two pins or disk edges, squared, plus the altitude's
        reach = max([math.hypot(*scenario.start_xy), math.hypot(*scenario.end_xy)]
                    + [math.hypot(e.center_x, e.center_y) + e.radius for e in scenario.eves])
        scale_sq = 4.0 * reach * reach + scenario.altitude * scenario.altitude
        if not math.isfinite(16.0 * scale_sq * scale_sq):
            v.append(f"scene is too large: its squared scale {scale_sq:.6g} m^2 "
                     "(pins, disks and altitude) overflows when squared")
    # the planner squares lengths, and a Python float's ** raises on overflow
    lengths["v_max*slot_len"] = scenario.max_step
    v += [f"{name} is too large: its square overflows (got {value})"
          for name, value in lengths.items()
          if math.isfinite(value) and not math.isfinite(value * value)]
    if not scenario.altitude > 0:
        v.append(f"altitude must be > 0 (got {scenario.altitude})")
    if not scenario.slot_len > 0:
        v.append(f"slot_len must be > 0 (got {scenario.slot_len})")
    if not scenario.flight_duration > 0:
        v.append(f"flight_duration must be > 0 (got {scenario.flight_duration})")
    else:
        try:
            n = slot_count(scenario.flight_duration, scenario.slot_len)
            if n != scenario.n_slots:
                v.append(
                    f"n_slots={scenario.n_slots} inconsistent with "
                    f"flight_duration/slot_len={n}"
                )
        except ValueError as e:
            v.append(str(e))
    if scenario.n_slots < 1:
        v.append(f"n_slots must be >= 1 (got {scenario.n_slots})")
    if scenario.v_max < 0:
        v.append(f"v_max must be >= 0 (got {scenario.v_max})")
    if not 0 < scenario.avg_power:
        v.append(f"avg_power must be > 0 (got {scenario.avg_power})")
    if not scenario.avg_power < scenario.peak_power:
        v.append(
            "avg_power < peak_power required "
            f"(got avg={scenario.avg_power}, peak={scenario.peak_power})"
        )
    if not scenario.gamma0 > 0:
        v.append(f"gamma0 must be > 0 (got {scenario.gamma0})")
    if scenario.n_eves < 1:
        v.append("at least one eavesdropper region required")
    for k, eve in enumerate(scenario.eves):
        if eve.radius < 0:
            v.append(f"eves[{k}].radius must be >= 0 (got {eve.radius})")
        if math.hypot(eve.center_x, eve.center_y) <= eve.radius:
            v.append(
                f"eves[{k}] uncertainty disk contains the receiver at the origin"
            )
    if scenario.n_slots > MAX_SLOTS:
        v.append(f"n_slots={scenario.n_slots} is above the ceiling of {MAX_SLOTS} slots")
    else:
        chain = (scenario.n_slots + 1) * scenario.max_step
        dist = math.hypot(
            scenario.start_xy[0] - scenario.end_xy[0],
            scenario.start_xy[1] - scenario.end_xy[1],
        )
        if dist > chain:
            v.append(
                f"endpoints unreachable: distance {dist:.6g} m exceeds the "
                f"{scenario.n_slots + 1}-step mobility budget {chain:.6g} m"
            )
        elif dist == chain:
            v.append(
                f"endpoints {dist:.6g} m apart use the whole "
                f"{scenario.n_slots + 1}-step mobility budget {chain:.6g} m: the "
                "track is forced and the trajectory step has no interior"
            )
    if not scenario.epsilon > 0:
        v.append(f"epsilon must be > 0 (got {scenario.epsilon})")
    if scenario.max_iters < 1:
        v.append(f"max_iters must be >= 1 (got {scenario.max_iters})")
    return v


def trajectory_violations(traj: Trajectory, scenario: Scenario) -> list[str]:
    """Check a trajectory against its scenario (pinned endpoints, step bound)."""
    v: list[str] = []
    if traj.n_slots != scenario.n_slots:
        v.append(f"trajectory has {traj.n_slots} slots, scenario {scenario.n_slots}")
        return v
    if (traj.xs[0], traj.ys[0]) != tuple(scenario.start_xy):
        v.append("start position not pinned to scenario.start_xy")
    if (traj.xs[-1], traj.ys[-1]) != tuple(scenario.end_xy):
        v.append("end position not pinned to scenario.end_xy")
    limit = scenario.max_step**2 + scenario.mobility_tol
    bad = np.nonzero(traj.step_sq() > limit)[0]
    for n in bad:
        v.append(f"step {n} length exceeds v_max*slot_len")
    return v


def power_violations(powers: PowerSchedule, scenario: Scenario) -> list[str]:
    v: list[str] = []
    if powers.p.size != scenario.n_slots:
        v.append(f"schedule has {powers.p.size} slots, scenario {scenario.n_slots}")
        return v
    if np.any(powers.p < 0):
        v.append("negative transmit power")
    if np.any(powers.p > scenario.peak_power * (1 + 1e-12)):
        v.append("peak power exceeded")
    if powers.p.mean() > scenario.avg_power + scenario.power_tol:
        v.append("average power budget exceeded")
    return v
