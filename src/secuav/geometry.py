"""Channel gains, rates, and closed-form worst-case eavesdropper geometry.

The channel is line-of-sight: power gain proportional to inverse squared 3-D
distance.  For an eavesdropper known only up to a disk, the worst case is the
disk point closest to the transmitter, which has the closed form implemented
in :func:`worst_case_dist_sq`.  A seeded disk-sampling oracle checks it: the
tests and the theta-oracle suite of ``secuav verify`` run it, and the planner
always uses the closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import EveRegion, PowerSchedule, Scenario, Trajectory

LN2 = math.log(2.0)
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def log2_1p(z):
    """log2(1+z), accurate for small z."""
    return np.log1p(z) / LN2


@dataclass(frozen=True)
class WorstCaseGeometry:
    """Per-slot squared 3-D distances of one track: ``d2[n]`` to the receiver,
    ``theta[n]`` the minimum over every eavesdropper's disk, the tight t."""

    d2: np.ndarray         # (N,) meters^2
    theta: np.ndarray      # (N,) meters^2


def _dist_sq(x, y, center_x, center_y, radius, h2):
    """The closed form of ``worst_case_dist_sq``, broadcast over every argument."""
    d = np.hypot(x - center_x, y - center_y)
    return np.where(d <= radius, h2, (d - radius) ** 2 + h2)


def worst_case_dist_sq(uav_xy, eve: EveRegion, altitude: float):
    """Minimum squared 3-D distance from the transmitter to any point of the disk.

    Accepts scalar coordinates or arrays (broadcast over slots).
    """
    x, y = uav_xy
    out = _dist_sq(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                   eve.center_x, eve.center_y, eve.radius, altitude**2)
    return float(out) if out.ndim == 0 else out


def disk_samples(eve: EveRegion, n_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic low-discrepancy covering of the closed disk.

    Layout: the center point, a rim ring, then a golden-angle sunflower fill
    of the interior; the seed only rotates the whole pattern, so results are
    reproducible bit-for-bit.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    phase = 2.0 * math.pi * ((seed * 0.6180339887498949) % 1.0)
    xs = np.empty(n_samples)
    ys = np.empty(n_samples)
    xs[0] = eve.center_x
    ys[0] = eve.center_y
    if n_samples == 1:
        return xs, ys
    n_rim = min(n_samples - 1, int(math.ceil(2.0 * math.sqrt(n_samples))))
    ang = phase + 2.0 * math.pi * np.arange(n_rim) / n_rim
    xs[1:1 + n_rim] = eve.center_x + eve.radius * np.cos(ang)
    ys[1:1 + n_rim] = eve.center_y + eve.radius * np.sin(ang)
    n_int = n_samples - 1 - n_rim
    if n_int > 0:
        i = np.arange(1, n_int + 1)
        r = eve.radius * np.sqrt((i - 0.5) / n_int)
        ang = phase + i * GOLDEN_ANGLE
        xs[1 + n_rim:] = eve.center_x + r * np.cos(ang)
        ys[1 + n_rim:] = eve.center_y + r * np.sin(ang)
    return xs, ys


def worst_case_dist_sq_oracle(uav_xy, eve: EveRegion, altitude: float,
                              n_samples: int, seed: int) -> float:
    """Sampled upper bound on :func:`worst_case_dist_sq` over the same disk."""
    sx, sy = disk_samples(eve, n_samples, seed)
    d2 = (uav_xy[0] - sx) ** 2 + (uav_xy[1] - sy) ** 2 + altitude**2
    return float(d2.min())


def per_slot_secrecy_terms(traj: Trajectory, powers: PowerSchedule, scenario: Scenario,
                           geo: WorstCaseGeometry | None = None) -> np.ndarray:
    """Unclamped per-slot secrecy terms: legitimate rate minus worst-case leak.
    A ``geo`` argument, here and elsewhere, is the track's ``worst_case_geometry``."""
    geo = worst_case_geometry(traj, scenario) if geo is None else geo
    snr = scenario.gamma0 * powers.p
    return log2_1p(snr / geo.d2) - log2_1p(snr / geo.theta)


def secrecy_sum(traj: Trajectory, powers: PowerSchedule, scenario: Scenario,
                geo: WorstCaseGeometry | None = None) -> float:
    """Optimizer objective: sum over slots of the unclamped secrecy terms."""
    return float(per_slot_secrecy_terms(traj, powers, scenario, geo).sum())


def avg_worst_case_secrecy_rate(traj: Trajectory, powers: PowerSchedule, scenario: Scenario,
                                geo: WorstCaseGeometry | None = None) -> float:
    """Reported metric: slot average of the secrecy terms clamped at zero."""
    terms = per_slot_secrecy_terms(traj, powers, scenario, geo)
    return float(np.maximum(terms, 0.0).mean())


def worst_case_geometry(traj: Trajectory, scenario: Scenario) -> WorstCaseGeometry:
    """Distances to the receiver and to the nearest disk; every rate, tight
    slack and robust re-check is derived from them."""
    x, y = traj.slot_positions()
    cx, cy, r = np.array([(e.center_x, e.center_y, e.radius) for e in scenario.eves]).T[:, :, None]
    theta = _dist_sq(x, y, cx, cy, r, scenario.altitude**2).min(axis=0)
    return WorstCaseGeometry(d2=x**2 + y**2 + scenario.altitude**2, theta=theta)
