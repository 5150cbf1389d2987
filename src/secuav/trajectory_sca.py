"""One trajectory improvement step: surrogate assembly, solve, extraction.

With the power schedule fixed, the trajectory subproblem is made convex by
(a) replacing log2(1 + P/d2), with d2 = x^2 + y^2 + H^2 the squared
transmitter-to-receiver distance, by its tangent in d2 at the expansion point,
which leaves the term -g_u*d2, concave in (x, y), in the objective with no
slack variable, and (b) writing
the robust eavesdropper-distance requirement as per-(eavesdropper, slot)
rotated-cone blocks whose only nonlinearity (the squared trajectory
coordinates) is replaced by tangent lines.  Both replacements under-estimate
the true objective and shrink the feasible set, so the solved step can never
decrease the true objective and is always robustly feasible.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import convex_backend
from .convex_backend import SolverSettings, OPTIMAL, TROUBLE
from .geometry import LN2, log2_1p, rate_coefficients, secrecy_sum, worst_case_dist_sq
from .robust_lmi import block_coeff_arrays, psd_check
from .scenario import PowerSchedule, Scenario, Trajectory

ROBUST_FEAS_TOL = 1e-6   # meters^2, allowed slack when re-checking t against disks
XI_CLAMP = 1e-12


@dataclass(frozen=True)
class ConvexProgram:
    """Assembled subproblem in the form the barrier backend consumes.

    Objective (to maximize):
    obj_const - sum_n [g_u[n]*(x[n]^2 + y[n]^2 + h2) + log2(1+P[n]/t[n])],
    with obj_const chosen so the value at the expansion point equals the true
    objective there.
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
    cone_eve_x: np.ndarray   # (Kr,)
    cone_eve_y: np.ndarray
    cone_q2: np.ndarray
    cone_kx: np.ndarray      # (Kr, N)
    cone_ky: np.ndarray
    cone_k0: np.ndarray
    aff_kx: np.ndarray       # (Ka, N)
    aff_ky: np.ndarray
    aff_k0: np.ndarray
    x_start: np.ndarray
    y_start: np.ndarray
    t_start: np.ndarray
    xi_start: np.ndarray     # (Kr, N)
    robust_eve_idx: tuple[int, ...]
    point_eve_idx: tuple[int, ...]

    @property
    def n_mobility(self) -> int:
        return self.n_slots + 1

    @property
    def n_soc_blocks(self) -> int:
        return self.cone_q2.shape[0] * self.n_slots

    @property
    def n_affine_rows(self) -> int:
        return self.aff_kx.shape[0] * self.n_slots

    @property
    def n_bounds(self) -> int:
        return self.n_slots + self.n_soc_blocks


@dataclass(frozen=True)
class SubproblemSolution:
    trajectory: Trajectory
    t: np.ndarray
    xi: np.ndarray
    surrogate_objective: float
    true_objective: float
    status: str


def initialize_slacks(traj: Trajectory, scenario: Scenario):
    """Feasible slack values at a trajectory: tight t and best multipliers.

    t takes the closed-form worst-case squared distance, so every cone block
    is satisfiable; the multiplier of each block is the maximizer of the
    concave quadratic (xi+1)*(c_val - Q^2*xi), clamped to be nonnegative.
    """
    x, y = traj.slot_positions()
    h2 = scenario.altitude**2
    geom = rate_coefficients(traj, scenario)
    t = geom.theta.min(axis=0)
    xi = np.zeros((scenario.n_eves, scenario.n_slots))
    for k, eve in enumerate(scenario.eves):
        if eve.radius == 0.0:
            continue
        q2 = eve.radius**2
        c_val = geom.d_center[k] ** 2 + h2 - t
        xi[k] = np.maximum(0.0, (c_val - q2) / (2.0 * q2))
    for k, eve in enumerate(scenario.eves):
        if eve.radius == 0.0:
            continue
        for n in np.linspace(0, scenario.n_slots - 1, min(scenario.n_slots, 8)).astype(int):
            a = xi[k, n] + 1.0
            b = eve.center_x - x[n]
            c = eve.center_y - y[n]
            d = -eve.radius**2 * xi[k, n] + (geom.d_center[k, n] ** 2 + h2 - t[n])
            assert psd_check(a, b, c, d), "multiplier initialization left a block indefinite"
    return t, xi


def taylor_rate_surrogate(d2, d2_fea, p_scaled):
    """Tangent of log2(1 + P/d2) at d2_fea: exact at the touch point, below elsewhere."""
    d2 = np.asarray(d2, dtype=float)
    d2_fea = np.asarray(d2_fea, dtype=float)
    p_scaled = np.asarray(p_scaled, dtype=float)
    base = log2_1p(p_scaled / d2_fea)
    slope = np.where(p_scaled > 0,
                     p_scaled / (LN2 * (d2_fea**2 + p_scaled * d2_fea)), 0.0)
    out = base - slope * (d2 - d2_fea)
    return float(out) if out.ndim == 0 else out


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
    t_fea, _ = initialize_slacks(traj_fea, scenario)

    p_scaled = scenario.gamma0 * powers.p
    d2_fea = x**2 + y**2 + h2
    g_u = np.where(p_scaled > 0,
                   p_scaled / (LN2 * (d2_fea**2 + p_scaled * d2_fea)), 0.0)
    obj_const = float(log2_1p(p_scaled / d2_fea).sum() + (g_u * d2_fea).sum())

    robust = [k for k, e in enumerate(scenario.eves) if e.radius > 0.0]
    point = [k for k, e in enumerate(scenario.eves) if e.radius == 0.0]
    kr, ka = len(robust), len(point)
    cone_kx = np.empty((kr, n)); cone_ky = np.empty((kr, n)); cone_k0 = np.empty((kr, n))
    cone_q2 = np.empty(kr); cone_ex = np.empty(kr); cone_ey = np.empty(kr)
    for i, k in enumerate(robust):
        eve = scenario.eves[k]
        cone_q2[i] = eve.radius**2
        cone_ex[i], cone_ey[i] = eve.center_x, eve.center_y
        cone_kx[i], cone_ky[i], cone_k0[i] = block_coeff_arrays(eve, x, y,
                                                                scenario.altitude)
    aff_kx = np.empty((ka, n)); aff_ky = np.empty((ka, n)); aff_k0 = np.empty((ka, n))
    for i, k in enumerate(point):
        eve = scenario.eves[k]
        aff_kx[i], aff_ky[i], aff_k0[i] = block_coeff_arrays(eve, x, y,
                                                             scenario.altitude)

    t_start = t_fea - 1e-3 * (t_fea - h2)
    xi_start = np.empty((kr, n))
    for i, k in enumerate(robust):
        q2 = cone_q2[i]
        c_val = cone_kx[i] * x + cone_ky[i] * y - t_start + cone_k0[i]
        best = np.maximum(0.0, (c_val - q2) / (2.0 * q2))
        # the multiplier barrier needs xi > 0 strictly; the floor costs at most
        # ~q2*1e-6 of cone margin, well under the slack the t shift creates
        xi_start[i] = np.maximum(best, 1e-6)

    return ConvexProgram(
        n_slots=n, h2=h2, step_sq_max=scenario.max_step**2,
        pin_start=tuple(scenario.start_xy), pin_end=tuple(scenario.end_xy),
        p_scaled=p_scaled, g_u=g_u, obj_const=obj_const, t_fea=t_fea,
        cone_eve_x=cone_ex, cone_eve_y=cone_ey, cone_q2=cone_q2,
        cone_kx=cone_kx, cone_ky=cone_ky, cone_k0=cone_k0,
        aff_kx=aff_kx, aff_ky=aff_ky, aff_k0=aff_k0,
        x_start=x.copy(), y_start=y.copy(), t_start=t_start,
        xi_start=xi_start, robust_eve_idx=tuple(robust), point_eve_idx=tuple(point),
    )


def _fallback(traj_fea: Trajectory, powers, scenario) -> SubproblemSolution:
    t0, xi0 = initialize_slacks(traj_fea, scenario)
    true_val = secrecy_sum(traj_fea, powers, scenario)
    return SubproblemSolution(trajectory=traj_fea, t=t0, xi=xi0,
                              surrogate_objective=true_val, true_objective=true_val,
                              status=TROUBLE)


def solve_step(traj_fea: Trajectory, powers: PowerSchedule, scenario: Scenario,
               settings: SolverSettings | None = None) -> SubproblemSolution:
    """Solve one convex step and extract a validated trajectory.

    On solver failure the expansion point is returned unchanged, so a caller
    can always treat the result as the current iterate.  Extraction re-checks
    the mobility bound and the robust distance requirement directly against
    the closed-form worst case.
    """
    prog = assemble(traj_fea, powers, scenario)
    res = convex_backend.solve(prog, settings)
    if res.status == TROUBLE:
        return _fallback(traj_fea, powers, scenario)

    xs = np.concatenate(([scenario.start_xy[0]], res.x, [scenario.end_xy[0]]))
    ys = np.concatenate(([scenario.start_xy[1]], res.y, [scenario.end_xy[1]]))
    traj = Trajectory(xs=xs, ys=ys)
    if np.any(traj.step_sq() > scenario.max_step**2 + scenario.mobility_tol):
        return _fallback(traj_fea, powers, scenario)

    x, y = traj.slot_positions()
    t = res.t
    for k in range(scenario.n_eves):
        theta = worst_case_dist_sq((x, y), scenario.eves[k], scenario.altitude)
        if np.any(theta < t - ROBUST_FEAS_TOL):
            return _fallback(traj_fea, powers, scenario)

    xi = np.zeros((scenario.n_eves, scenario.n_slots))
    for i, k in enumerate(prog.robust_eve_idx):
        row = res.xi[i]
        if np.any(row < -XI_CLAMP):
            return _fallback(traj_fea, powers, scenario)
        xi[k] = np.maximum(row, 0.0)

    # improvement chain, checked numerically every step: the surrogate under-
    # estimates the truth at the new point and cannot fall below its value at
    # the expansion point, so the true objective never decreases
    surrogate = _surrogate_value(prog, x, y, t)
    true_val = secrecy_sum(traj, powers, scenario)
    sur_fea = _surrogate_value(prog, prog.x_start, prog.y_start, prog.t_fea)
    if surrogate > true_val + 1e-9 * max(1.0, abs(true_val)):
        return _fallback(traj_fea, powers, scenario)
    if surrogate < sur_fea - 1e-6 * max(1.0, abs(sur_fea)):
        return _fallback(traj_fea, powers, scenario)
    status = res.status if res.status in (OPTIMAL, "max_iter") else TROUBLE
    return SubproblemSolution(trajectory=traj, t=t, xi=xi,
                              surrogate_objective=surrogate,
                              true_objective=true_val, status=status)
