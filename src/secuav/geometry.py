"""Channel gains, rates, and closed-form worst-case eavesdropper geometry.

The channel is line-of-sight: power gain proportional to inverse squared 3-D
distance.  For an eavesdropper known only up to a disk, the worst case is the
disk point closest to the transmitter, which has the closed form implemented
in :func:`worst_case_dist_sq`.  A seeded disk-sampling oracle is provided for
tests; production code always uses the closed form.
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
    """Per-slot, per-eavesdropper worst-case squared distances and rate coefficients.

    ``theta[k, n]`` is the minimum over eavesdropper k's disk of squared 3-D
    distance to the slot-n position; ``alpha[n]`` / ``beta[n]`` are the SNR
    coefficients of the legitimate and the strongest-eavesdropper link.
    """

    theta: np.ndarray      # (K, N) meters^2
    alpha: np.ndarray      # (N,)   per watt
    beta: np.ndarray       # (N,)   per watt


def worst_case_dist_sq(uav_xy, eve: EveRegion, altitude: float):
    """Minimum squared 3-D distance from the transmitter to any point of the disk.

    Accepts scalar coordinates or arrays (broadcast over slots).
    """
    x, y = uav_xy
    d = np.hypot(np.asarray(x, dtype=float) - eve.center_x,
                 np.asarray(y, dtype=float) - eve.center_y)
    h2 = altitude**2
    out = np.where(d <= eve.radius, h2, (d - eve.radius) ** 2 + h2)
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


def rate_bob(uav_xy, altitude: float, gamma0: float, power):
    """Achievable rate of the legitimate link, bps/Hz."""
    x, y = uav_xy
    d2 = np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float) ** 2 + altitude**2
    out = log2_1p(gamma0 * np.asarray(power, dtype=float) / d2)
    return float(out) if out.ndim == 0 else out


def worst_case_rate_eves(uav_xy, eves, altitude: float, gamma0: float, power):
    """Largest achievable rate over all eavesdroppers and their disks, bps/Hz."""
    theta = np.stack([worst_case_dist_sq(uav_xy, e, altitude) for e in eves])
    theta_min = theta.min(axis=0)
    out = log2_1p(gamma0 * np.asarray(power, dtype=float) / theta_min)
    return float(out) if out.ndim == 0 else out


def per_slot_secrecy_terms(traj: Trajectory, powers: PowerSchedule,
                           scenario: Scenario) -> np.ndarray:
    """Unclamped per-slot secrecy terms: legitimate rate minus worst-case leak."""
    x, y = traj.slot_positions()
    rb = rate_bob((x, y), scenario.altitude, scenario.gamma0, powers.p)
    re = worst_case_rate_eves((x, y), scenario.eves, scenario.altitude,
                              scenario.gamma0, powers.p)
    return rb - re


def secrecy_sum(traj: Trajectory, powers: PowerSchedule, scenario: Scenario) -> float:
    """Optimizer objective: sum over slots of the unclamped secrecy terms."""
    return float(per_slot_secrecy_terms(traj, powers, scenario).sum())


def avg_worst_case_secrecy_rate(traj: Trajectory, powers: PowerSchedule,
                                scenario: Scenario) -> float:
    """Reported metric: slot average of the secrecy terms clamped at zero."""
    terms = per_slot_secrecy_terms(traj, powers, scenario)
    return float(np.maximum(terms, 0.0).mean())


def rate_coefficients(traj: Trajectory, scenario: Scenario) -> WorstCaseGeometry:
    """Worst-case geometry and the per-slot SNR coefficients of both links."""
    x, y = traj.slot_positions()
    h2 = scenario.altitude**2
    theta = np.stack([worst_case_dist_sq((x, y), eve, scenario.altitude)
                      for eve in scenario.eves])
    alpha = scenario.gamma0 / (x**2 + y**2 + h2)
    beta = scenario.gamma0 / theta.min(axis=0)
    return WorstCaseGeometry(theta=theta, alpha=alpha, beta=beta)
