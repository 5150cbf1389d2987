"""One trajectory improvement step: surrogate assembly, solve, extraction.

With the power schedule fixed, the trajectory subproblem is made convex by
(a) replacing log2(1 + P/d2), with d2 = x^2 + y^2 + H^2 the squared
transmitter-to-receiver distance, by its tangent in d2 at the expansion point,
which leaves the term -g_u*d2, concave in (x, y), in the objective with no
slack variable, and (b) writing the robust eavesdropper-distance requirement
"every point of the disk is at least sqrt(t) away" per (eavesdropper, slot).
The paper does (b) with the S-procedure: one multiplier nu >= 0 per block and
a 3x3 arrowhead LMI, whose only nonlinearity (the squared trajectory
coordinates) is replaced by tangent lines.  The best multiplier has a closed
form (``robust_lmi``), so the block reduces to one concave disk margin
t <= lin(q) - huber_r(|q - c|) in (x, y, t) alone, with lin the tangent of
|q - c|^2 + H^2.  Both replacements under-estimate the true objective and
shrink the feasible set, so the solved step can never decrease the true
objective and is always robustly feasible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import convex_backend
from .convex_backend import TROUBLE, T_FLOOR
from .geometry import LN2, log2_1p, rate_coefficients, secrecy_sum, worst_case_dist_sq
from .robust_lmi import block_coeff_arrays
from .scenario import PowerSchedule, Scenario, Trajectory

ROBUST_FEAS_TOL = 1e-6   # meters^2, allowed slack when re-checking t against disks


@dataclass(frozen=True)
class ConvexProgram:
    """Assembled subproblem in the form the barrier backend consumes.

    Objective (to maximize):
    obj_const - sum_n [g_u[n]*(x[n]^2 + y[n]^2 + h2) + log2(1+P[n]/t[n])],
    with obj_const chosen so the value at the expansion point equals the true
    objective there.  Eavesdropper k's disk margin at slot n is
    eve_kx[k, n]*x + eve_ky[k, n]*y + eve_k0[k, n] - t - huber_r(|q - c|)
    with c = (eve_x[k], eve_y[k]) and r = eve_r[k].
    """

    n_slots: int
    h2: float
    step_sq_max: float
    pin_start: tuple[float, float]
    pin_end: tuple[float, float]
    p_scaled: np.ndarray
    g_u: np.ndarray
    obj_const: float
    t_fea: np.ndarray        # tight t (worst-case distance^2) at the expansion point
    eve_x: np.ndarray        # (K,)
    eve_y: np.ndarray
    eve_r: np.ndarray
    eve_kx: np.ndarray       # (K, N)
    eve_ky: np.ndarray
    eve_k0: np.ndarray
    x_start: np.ndarray
    y_start: np.ndarray
    t_start: np.ndarray


@dataclass(frozen=True)
class SubproblemSolution:
    trajectory: Trajectory
    t: np.ndarray
    surrogate_objective: float
    true_objective: float
    status: str
    newton_iters: int       # Newton steps of the barrier solve


def initialize_slacks(traj: Trajectory, scenario: Scenario) -> np.ndarray:
    """Tight t at a trajectory: the worst-case squared distance to any disk."""
    return rate_coefficients(traj, scenario).theta.min(axis=0)


def _surrogate_value(prog: ConvexProgram, x, y, t) -> float:
    val = prog.obj_const - float((prog.g_u * (x**2 + y**2 + prog.h2)).sum())
    val -= float(log2_1p(prog.p_scaled / t).sum())
    return val


def assemble(traj_fea: Trajectory, powers: PowerSchedule,
             scenario: Scenario) -> ConvexProgram:
    """Build the convex step program around a feasible expansion point."""
    if np.any(traj_fea.step_sq() > scenario.max_step**2 + scenario.mobility_tol):
        raise ValueError("expansion trajectory violates the mobility constraint")
    n = scenario.n_slots
    h2 = scenario.altitude**2
    x, y = traj_fea.slot_positions()
    t_fea = initialize_slacks(traj_fea, scenario)

    p_scaled = scenario.gamma0 * powers.p
    d2_fea = x**2 + y**2 + h2
    g_u = np.where(p_scaled > 0,
                   p_scaled / (LN2 * (d2_fea**2 + p_scaled * d2_fea)), 0.0)
    obj_const = float(log2_1p(p_scaled / d2_fea).sum() + (g_u * d2_fea).sum())

    eves = scenario.eves
    eve_kx, eve_ky, eve_k0 = (np.array(c) for c in zip(
        *(block_coeff_arrays(eve, x, y, scenario.altitude) for eve in eves)))
    return ConvexProgram(
        n_slots=n, h2=h2, step_sq_max=scenario.max_step**2,
        pin_start=tuple(scenario.start_xy), pin_end=tuple(scenario.end_xy),
        p_scaled=p_scaled, g_u=g_u, obj_const=obj_const, t_fea=t_fea,
        eve_x=np.array([e.center_x for e in eves]),
        eve_y=np.array([e.center_y for e in eves]),
        eve_r=np.array([e.radius for e in eves]),
        eve_kx=eve_kx, eve_ky=eve_ky, eve_k0=eve_k0,
        x_start=x.copy(), y_start=y.copy(),
        # below the tight t, so the disk margins leave the interior start room
        t_start=t_fea - 0.1 * (t_fea - T_FLOOR * h2),
    )


def _fallback(traj_fea: Trajectory, powers, scenario, newton_iters) -> SubproblemSolution:
    true_val = secrecy_sum(traj_fea, powers, scenario)
    return SubproblemSolution(trajectory=traj_fea, t=initialize_slacks(traj_fea, scenario),
                              surrogate_objective=true_val, true_objective=true_val,
                              status=TROUBLE, newton_iters=newton_iters)


def solve_step(traj_fea: Trajectory, powers: PowerSchedule,
               scenario: Scenario) -> SubproblemSolution:
    """Solve one convex step and extract a validated trajectory.

    On solver failure the expansion point is returned unchanged, so a caller
    can always treat the result as the current iterate.  Extraction re-checks
    the mobility bound and the robust distance requirement directly against
    the closed-form worst case.
    """
    prog = assemble(traj_fea, powers, scenario)
    res = convex_backend.solve(prog)
    if res.status == TROUBLE:
        return _fallback(traj_fea, powers, scenario, res.newton_iters)

    xs = np.concatenate(([scenario.start_xy[0]], res.x, [scenario.end_xy[0]]))
    ys = np.concatenate(([scenario.start_xy[1]], res.y, [scenario.end_xy[1]]))
    traj = Trajectory(xs=xs, ys=ys)
    if np.any(traj.step_sq() > scenario.max_step**2 + scenario.mobility_tol):
        return _fallback(traj_fea, powers, scenario, res.newton_iters)

    x, y = traj.slot_positions()
    t = res.t
    for k in range(scenario.n_eves):
        theta = worst_case_dist_sq((x, y), scenario.eves[k], scenario.altitude)
        if np.any(theta < t - ROBUST_FEAS_TOL):
            return _fallback(traj_fea, powers, scenario, res.newton_iters)

    # improvement chain, checked numerically every step: the surrogate under-
    # estimates the truth at the new point and cannot fall below its value at
    # the expansion point, so the true objective never decreases
    surrogate = _surrogate_value(prog, x, y, t)
    true_val = secrecy_sum(traj, powers, scenario)
    sur_fea = _surrogate_value(prog, prog.x_start, prog.y_start, prog.t_fea)
    if surrogate > true_val + 1e-9 * max(1.0, abs(true_val)):
        return _fallback(traj_fea, powers, scenario, res.newton_iters)
    if surrogate < sur_fea - 1e-6 * max(1.0, abs(sur_fea)):
        return _fallback(traj_fea, powers, scenario, res.newton_iters)
    return SubproblemSolution(trajectory=traj, t=t,
                              surrogate_objective=surrogate,
                              true_objective=true_val, status=res.status,
                              newton_iters=res.newton_iters)
