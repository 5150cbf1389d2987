"""One trajectory improvement step: surrogate assembly, solve, extraction.

With the power schedule fixed, the trajectory subproblem is made convex by
(a) replacing log2(1 + P/d2), d2 = x^2 + y^2 + H^2 the squared distance to the
receiver, by its tangent in d2 at the expansion point, which leaves the
concave term -g_u*d2 in the objective, and (b) writing the robust requirement
"every point of the disk is at least sqrt(t) away" per (eavesdropper, slot)
as one concave disk margin.  Both under-estimate the true objective and shrink
the feasible set, so a solved step never decreases the true objective and is
always robustly feasible.

Silent slots.  Where the power law gives P = 0, the slot's rate and leak are
0 wherever it flies, so leaving it out of the program is exact: kept slots
(or pins) g steps apart are joined by one mobility row |q_b - q_a|^2 <=
(g*L)^2, and ``solve_step`` puts the silent slots between them on the
straight segment, linear in the slot index, every step at most L.  It also
makes the step's optimum unique, as g_u > 0 and P > 0 make the objective
strictly concave on every kept slot.  With no powered slot, every slot is
kept.

The disk margin.  The paper's S-procedure asks for nu >= 0 that makes the
arrowhead [[a, 0, b], [0, a, c], [b, c, d]] PSD, with a = nu + 1,
(b, c) = c_eve - q, d = L - r^2*nu, L = lin(q) - t, and lin the tangent
under-estimate of |q - c_eve|^2 + H^2 in the squared coordinates.  As a >= 1,
that is exactly (Schur complement) the rotated cone
f(nu) = (nu + 1)*(L - r^2*nu) >= rho^2, rho = |q - c_eve|.  The S-lemma is
lossless for one quadratic constraint (Polik & Terlaky, "A survey of the
S-lemma", SIAM Review 2007), and f is concave in nu, so the multiplier can be
maximized out.  For r > 0 the maximizer is nu* = max(0, (L - r^2)/(2r^2)):

  * L >= r^2: f(nu*) = (L + r^2)^2/(4r^2), certifiable iff L >= 2*r*rho - r^2;
  * L < r^2: f(0) = L, certifiable iff L >= rho^2 (which forces rho < r).

Both read L >= huber_r(rho), with huber_r(rho) = rho^2 for rho <= r and
2*r*rho - r^2 beyond.  For r = 0, f is unbounded in nu when L > 0, so the
condition is L >= 0 = huber_0(rho), an affine row.  The program carries the
margin t <= lin(q) - huber_r(|q - c_eve|) in (x, y, t) and no multiplier.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import convex_backend
from .convex_backend import TROUBLE
from .geometry import LN2, WorstCaseGeometry, log2_1p, secrecy_sum, worst_case_geometry
from .scenario import PowerSchedule, Scenario, Trajectory, trajectory_violations

ROBUST_FEAS_TOL = 1e-6   # meters^2, allowed slack when re-checking t against disks


@dataclass(frozen=True)
class ConvexProgram:
    """Assembled subproblem in the form the interior-point backend consumes.

    Every per-slot array runs over the kept slots ``slots`` (see "Silent
    slots").  Objective (to maximize):
    obj_const - sum_n [g_u[n]*(x[n]^2 + y[n]^2 + h2) + log2(1+P[n]/t[n])],
    with obj_const chosen so the value at the expansion point (x_fea, y_fea,
    t_fea) equals the true objective there.  Eavesdropper k's disk margin at
    slot n is eve_k[:, k, n] . q + eve_k0[k, n] - t - huber_r(|q - c|) with
    q = (x[n], y[n]), c = eve_c[:, k] and r = eve_r[k].
    """

    n_slots: int             # the flight's slot count N
    slots: np.ndarray        # (n,) the program's slots among the N, increasing
    h2: float
    step_sq_max: float
    pin_start: tuple[float, float]
    pin_end: tuple[float, float]
    p_scaled: np.ndarray
    g_u: np.ndarray
    obj_const: float
    x_fea: np.ndarray        # (n,) the expansion point
    y_fea: np.ndarray
    t_fea: np.ndarray        # tight t (worst-case distance^2) at the expansion point
    eve_c: np.ndarray        # (2, K) disk centres
    eve_r: np.ndarray        # (K,)
    eve_k: np.ndarray        # (2, K, n) the tangents' x, y coefficients
    eve_k0: np.ndarray       # (K, n)


@dataclass(frozen=True)
class SubproblemSolution:
    trajectory: Trajectory    # the expansion point on fallback
    true_objective: float
    status: str
    solve: convex_backend.SolverResult  # the solve's own result, kept on fallback
    geometry: WorstCaseGeometry         # the trajectory's
    handoff: convex_backend.Handoff | None = None  # for the next step's solve


def initialize_slacks(traj: Trajectory, scenario: Scenario,
                      geo: WorstCaseGeometry | None = None) -> np.ndarray:
    """Tight t at a trajectory: the worst-case squared distance to any disk."""
    return (worst_case_geometry(traj, scenario) if geo is None else geo).theta


def assemble(traj_fea: Trajectory, powers: PowerSchedule, scenario: Scenario,
             geo: WorstCaseGeometry | None = None) -> ConvexProgram:
    """Build the convex step program around a feasible expansion point."""
    if trajectory_violations(traj_fea, scenario):
        raise ValueError("expansion trajectory violates the mobility constraint")
    h2 = scenario.altitude**2
    powered = powers.p > 0.0  # see "Silent slots"
    slots = np.flatnonzero(powered) if powered.any() else np.arange(scenario.n_slots)
    x, y = (v[slots] for v in traj_fea.slot_positions())
    geo = worst_case_geometry(traj_fea, scenario) if geo is None else geo

    p_scaled = scenario.gamma0 * powers.p[slots]
    d2_fea = geo.d2[slots]
    g_u = p_scaled / (LN2 * (d2_fea**2 + p_scaled * d2_fea))  # 0 at P = 0, d2 >= H^2
    obj_const = float(log2_1p(p_scaled / d2_fea).sum() + (g_u * d2_fea).sum())

    # lin = |q - c|^2 + H^2 with x^2, y^2 tangent at the expansion point; the
    # centre squares stay Python floats (pow and numpy's square differ in ulps)
    eves = scenario.eves
    c = np.array([[e.center_x for e in eves], [e.center_y for e in eves]])
    k0 = (np.array([[e.center_x**2] for e in eves]) - x**2
          + np.array([[e.center_y**2] for e in eves]) - y**2 + h2)
    return ConvexProgram(
        n_slots=scenario.n_slots, slots=slots, h2=h2, step_sq_max=scenario.max_step**2,
        pin_start=tuple(scenario.start_xy), pin_end=tuple(scenario.end_xy),
        p_scaled=p_scaled, g_u=g_u, obj_const=obj_const,
        x_fea=x, y_fea=y, t_fea=geo.theta[slots], eve_c=c,
        eve_r=np.array([e.radius for e in eves]),
        eve_k=2.0 * (np.stack((x, y))[:, None] - c[:, :, None]), eve_k0=k0,
    )


def _fallback(traj_fea: Trajectory, powers, scenario, res, geo) -> SubproblemSolution:
    return SubproblemSolution(traj_fea, secrecy_sum(traj_fea, powers, scenario, geo),
                              TROUBLE, res, geo)


def solve_step(traj_fea: Trajectory, powers: PowerSchedule, scenario: Scenario,
               warm: convex_backend.Handoff | None = None,
               geo: WorstCaseGeometry | None = None) -> SubproblemSolution:
    """Solve one convex step and extract a validated trajectory.

    On solver failure the expansion point is returned unchanged, so a caller
    can always treat the result as the current iterate.  Extraction re-checks
    the mobility bound and, on the kept slots, the robust distance requirement
    directly against the closed-form worst case.

    ``warm`` is the previous step's solver hand-off and ``geo`` the expansion
    point's geometry.  The result carries the new track's geometry and the
    solve's hand-off, which leaves the solver result, so that records keeping
    that result keep no hand-off arrays (see ``planner``).
    """
    geo = worst_case_geometry(traj_fea, scenario) if geo is None else geo
    prog = assemble(traj_fea, powers, scenario, geo)
    res = convex_backend.solve(prog, warm)
    handoff, res.handoff = res.handoff, None
    if res.status == TROUBLE:
        return _fallback(traj_fea, powers, scenario, res, geo)

    # silent slots on the segments between the kept ones
    traj = Trajectory(*convex_backend.fill_track(prog, prog.slots, (res.x, res.y),
                                                 np.arange(scenario.n_slots + 2)))
    if trajectory_violations(traj, scenario):
        return _fallback(traj_fea, powers, scenario, res, geo)

    geo_new = worst_case_geometry(traj, scenario)
    if np.any(initialize_slacks(traj, scenario, geo_new)[prog.slots] < res.t - ROBUST_FEAS_TOL):
        return _fallback(traj_fea, powers, scenario, res, geo)

    # improvement chain, checked numerically every step: the surrogate under-
    # estimates the truth at the new point and cannot fall below its value at
    # the expansion point, so the true objective never decreases
    true_val = secrecy_sum(traj, powers, scenario, geo_new)
    sur_fea = convex_backend.surrogate(prog, prog.x_fea, prog.y_fea, prog.t_fea)
    if (res.objective > true_val + 1e-9 * max(1.0, abs(true_val))
            or res.objective < sur_fea - 1e-6 * max(1.0, abs(sur_fea))):
        return _fallback(traj_fea, powers, scenario, res, geo)
    return SubproblemSolution(traj, true_val, res.status, res, geo_new, handoff)
