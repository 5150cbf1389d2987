"""Exact per-slot power allocation under average and peak power constraints.

With the trajectory fixed, the objective separates over slots; each slot's
optimal power is a closed-form function of the slot's two SNR coefficients and
one scalar dual variable for the average-power constraint, found by bisection.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import LN2, worst_case_geometry
from .scenario import PowerSchedule, Scenario, Trajectory

POWER_RESIDUAL_REL = 1e-9
MAX_BISECT_ITERS = 200


@dataclass(frozen=True)
class PowerDual:
    """Dual-feasible solution of the power subproblem."""

    lam: float
    schedule: PowerSchedule
    avg_used: float
    iterations: int


def power_for_dual(alpha, beta, lam: float, peak: float):
    """Optimal slot power for a given dual variable.

    Slots whose legitimate link is no better than the worst-case eavesdropper
    link (alpha <= beta) transmit nothing.  For the rest, the stationary point
    of the per-slot Lagrangian is clamped to [0, peak]; lam == 0 is the
    unconstrained limit where the stationary point runs off to +inf, so the
    peak applies.  Accepts scalars or arrays.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    active = alpha > beta
    if lam <= 0.0:
        p = np.where(active, peak, 0.0)
        return float(p) if p.ndim == 0 else p
    half_diff = 0.5 / beta - 0.5 / alpha
    half_sum = 0.5 / beta + 0.5 / alpha
    with np.errstate(invalid="ignore"):
        p_hat = np.sqrt(half_diff**2 + 2.0 * half_diff / (lam * LN2)) - half_sum
    p = np.where(active, np.minimum(np.maximum(p_hat, 0.0), peak), 0.0)
    return float(p) if p.ndim == 0 else p


def solve_power_subproblem(alpha, beta, avg_power: float, peak_power: float) -> PowerDual:
    """Bisection on the average-power dual for given per-slot coefficients.

    The mean power is continuous and non-increasing in the dual, so either the
    unconstrained (lam = 0) schedule already fits the budget, or the bisection
    pins the mean to it.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    p0 = power_for_dual(alpha, beta, 0.0, peak_power)
    if p0.mean() <= avg_power:
        return PowerDual(lam=0.0, schedule=PowerSchedule(p0),
                         avg_used=float(p0.mean()), iterations=0)

    lam_lo, lam_hi = 0.0, 1.0
    iters = 0
    while power_for_dual(alpha, beta, lam_hi, peak_power).mean() > avg_power:
        lam_lo = lam_hi
        lam_hi *= 2.0
        iters += 1
        if iters > 400:
            raise RuntimeError("dual bracket expansion failed to cap mean power")

    lam = lam_hi
    p = power_for_dual(alpha, beta, lam, peak_power)
    for _ in range(MAX_BISECT_ITERS):
        mid = 0.5 * (lam_lo + lam_hi)
        p_mid = power_for_dual(alpha, beta, mid, peak_power)
        mean_mid = p_mid.mean()
        iters += 1
        if abs(mean_mid - avg_power) <= POWER_RESIDUAL_REL * avg_power:
            lam, p = mid, p_mid
            break
        if mean_mid > avg_power:
            lam_lo = mid
        else:
            lam_hi = mid
            lam, p = mid, p_mid
        if lam_hi - lam_lo < 1e-12 * lam_hi:
            break
    return PowerDual(lam=lam, schedule=PowerSchedule(p),
                     avg_used=float(p.mean()), iterations=iters)


def optimize_power(traj: Trajectory, scenario: Scenario) -> PowerDual:
    """Solve the power subproblem exactly for a fixed trajectory."""
    geo = worst_case_geometry(traj, scenario)
    return solve_power_subproblem(scenario.gamma0 / geo.d2,
                                  scenario.gamma0 / geo.theta.min(axis=0),
                                  scenario.avg_power, scenario.peak_power)
