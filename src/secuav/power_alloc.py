"""Exact per-slot power allocation under average and peak power constraints.

With the trajectory fixed, the objective separates over slots; each slot's
optimal power is a closed-form function of the slot's two SNR coefficients and
one scalar dual variable for the average-power constraint, found by a
safeguarded Newton method on the mean power as a function of the dual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import LN2, WorstCaseGeometry, worst_case_geometry
from .scenario import PowerSchedule, Scenario, Trajectory

POWER_RESIDUAL_REL = 1e-9
MAX_DUAL_ITERS = 200       # power-law evaluations per solve


@dataclass(frozen=True)
class PowerDual:
    """Dual-feasible solution of the power subproblem."""

    lam: float
    schedule: PowerSchedule
    iterations: int           # power-law evaluations at lam > 0


def _power_law(active, half_diff, half_sum, lam: float, peak: float):
    """Slot powers at lam > 0: the per-slot Lagrangian's stationary point, clamped to
    [0, peak] on active slots; also the unclamped point and its sqrt (NaN if alpha < beta)."""
    with np.errstate(invalid="ignore"):
        root = np.sqrt(half_diff**2 + 2.0 * half_diff / (lam * LN2))
    p_hat = root - half_sum
    return np.where(active, np.minimum(np.maximum(p_hat, 0.0), peak), 0.0), p_hat, root


def power_for_dual(alpha, beta, lam: float, peak: float):
    """Optimal slot power for a given dual variable.

    Slots whose legitimate link is no better than the worst-case eavesdropper
    link (alpha <= beta) transmit nothing.  For the rest, the stationary point
    of the per-slot Lagrangian is clamped to [0, peak]; lam == 0 is the
    unconstrained limit where the stationary point runs off to +inf, so the
    peak applies.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    active = alpha > beta
    if lam <= 0.0:
        return np.where(active, peak, 0.0)
    return _power_law(active, 0.5 / beta - 0.5 / alpha, 0.5 / beta + 0.5 / alpha,
                      lam, peak)[0]


def solve_power_subproblem(alpha, beta, avg_power: float, peak_power: float,
                           lam0: float = 1.0) -> PowerDual:
    """Safeguarded Newton method on the average-power dual for given per-slot
    coefficients.

    The mean power is continuous and non-increasing in the dual, so either the
    unconstrained (lam = 0) schedule already fits the budget, or the search
    pins the mean to it.  It starts at lam0 (the previous outer iteration's
    dual in the planner; 1 unless lam0 > 0) and keeps a bracket: lo, where
    the mean exceeds the budget, and hi, where it does not (open until found).
    With hd = 1/(2 beta) - 1/(2 alpha), a free slot (0 < p < peak) has
    dp/dlam = -hd / (LN2 * lam^2 * sqrt(hd^2 + 2*hd/(lam*LN2))), and the
    mean's slope is their sum over the slot count.  A Newton step that leaves
    the bracket, or a zero slope (every active slot clamped at 0 or at peak),
    gives way to bisection, or to doubling lam while hi is open.  The result
    is the first point whose mean is within POWER_RESIDUAL_REL of the budget,
    else, once the bracket is 1e-12 relative wide or MAX_DUAL_ITERS power-law
    evaluations are spent, hi; RuntimeError when hi was never found.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    p0 = power_for_dual(alpha, beta, 0.0, peak_power)
    if p0.mean() <= avg_power:
        return PowerDual(lam=0.0, schedule=PowerSchedule(p0), iterations=0)

    active = alpha > beta
    half_diff = 0.5 / beta - 0.5 / alpha
    half_sum = 0.5 / beta + 0.5 / alpha
    tol = POWER_RESIDUAL_REL * avg_power
    lo, hi, p_hi = 0.0, math.inf, None
    lam = lam0 if lam0 > 0.0 else 1.0
    for iters in range(1, MAX_DUAL_ITERS + 1):
        p, p_hat, root = _power_law(active, half_diff, half_sum, lam, peak_power)
        mean = p.mean()
        if abs(mean - avg_power) <= tol:
            return PowerDual(lam=lam, schedule=PowerSchedule(p), iterations=iters)
        if mean > avg_power:
            lo = lam
        else:
            hi, p_hi = lam, p
        if hi - lo < 1e-12 * hi:
            break
        free = active & (p_hat > 0.0) & (p_hat < peak_power)
        slope = -float((half_diff[free] / root[free]).sum()) / (LN2 * lam * lam * p.size)
        step = lam - (mean - avg_power) / slope if slope < 0.0 else math.nan
        if lo < step < hi:
            lam = step
        else:
            lam = 2.0 * lo if hi == math.inf else 0.5 * (lo + hi)
    if p_hi is None:
        raise RuntimeError(f"power dual found no schedule within the average budget "
                           f"in {MAX_DUAL_ITERS} evaluations")
    return PowerDual(lam=hi, schedule=PowerSchedule(p_hi), iterations=iters)


def optimize_power(traj: Trajectory, scenario: Scenario, lam0: float = 1.0,
                   geo: WorstCaseGeometry | None = None) -> PowerDual:
    """Solve the power subproblem exactly for a fixed trajectory, from lam0."""
    geo = worst_case_geometry(traj, scenario) if geo is None else geo
    return solve_power_subproblem(scenario.gamma0 / geo.d2,
                                  scenario.gamma0 / geo.theta,
                                  scenario.avg_power, scenario.peak_power, lam0)
