import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ModuleSpec

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import minimize

from secuav import convex_backend
from secuav.convex_backend import (_interior_start, _warm_start, _Workspace, dual_root,
                                   first_root, solve)
from secuav.geometry import LN2
from secuav.harness import derive_scenario
from secuav.planner import best_effort_trajectory, equal_power, optimize
from secuav.power_alloc import optimize_power
from secuav.scenario import EveRegion, PowerSchedule, Trajectory
from secuav.trajectory_sca import ConvexProgram, assemble, solve_step

from conftest import REPO_ROOT, make_scenario, paper_fig2


def toy_program(n=1, g_u=0.0, p_scaled=1.0, theta_max=30_000.0, h2=10_000.0,
                pins=(0.0, 0.0), step_sq=1.0):
    """Synthetic single-purpose programs exercising one mechanism at a time."""
    return ConvexProgram(
        n_slots=n, slots=np.arange(n), h2=h2, step_sq_max=step_sq,
        pin_start=pins, pin_end=pins,
        p_scaled=np.full(n, p_scaled), g_u=np.full(n, g_u), obj_const=0.0,
        x_fea=np.full(n, pins[0]), y_fea=np.full(n, pins[1]),
        t_fea=np.full(n, theta_max),
        # one radius-zero eavesdropper with a flat row: t <= theta_max
        eve_c=np.zeros((2, 1)), eve_r=np.zeros(1),
        eve_k=np.zeros((2, 1, n)), eve_k0=np.full((1, n), theta_max),
    )


class TestToyPrograms:
    def test_monotone_objective_rides_to_upper_bound(self):
        # maximize -log2(1 + 1/t) under t <= theta_max
        prog = toy_program(g_u=0.0, p_scaled=1.0, theta_max=30_000.0)
        res = solve(prog)
        assert res.status == "optimal"
        assert res.t[0] >= 30_000.0 - 1e-3 * (30_000.0 - 10_000.0)
        assert res.objective == pytest.approx(-math.log2(1 + 1 / res.t[0]), abs=1e-12)

    def test_projection_objective_is_squared_distance(self):
        # maximize -(x^2 + y^2 + H^2) with (x, y) within 0.1 of the pins: the
        # optimum is the point of that ball nearest the origin
        prog = toy_program(g_u=1.0, p_scaled=0.0, pins=(30.0, 40.0), step_sq=0.01)
        res = solve(prog)
        assert res.status == "optimal"
        d2 = res.x[0] ** 2 + res.y[0] ** 2 + prog.h2
        assert res.objective == pytest.approx(-d2, rel=1e-12)
        assert math.hypot(res.x[0] - 30.0, res.y[0] - 40.0) <= math.sqrt(0.01)
        assert math.hypot(res.x[0], res.y[0]) == pytest.approx(49.9, abs=1e-6)

    def test_deterministic_repeat(self):
        prog = toy_program(g_u=1.0, p_scaled=2.5, theta_max=50_000.0, pins=(10.0, -5.0))
        a = solve(prog)
        b = solve(prog)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.t, b.t)
        assert a.objective == b.objective and a.newton_iters == b.newton_iters

    def test_optimal_t_below_half_the_altitude_squared(self):
        # maximize -(x^2 + y^2 + 1) - log2(1 + 1/t) under t <= x - 2 (H = 1):
        # at the optimum y = 0, t = x - 2 and x solves the scalar stationarity
        # condition below, x ~ 2.2549, t ~ 0.2549 < H^2/2.  Steps towards it
        # leave t > 0 unless the domain check halves them; without the check
        # the solve ends at t < -1, where log2(1 + 1/t) is finite again
        prog = dataclasses.replace(
            toy_program(g_u=1.0, p_scaled=1.0, theta_max=3.0, h2=1.0,
                        pins=(5.0, 0.0), step_sq=100.0),
            eve_k=np.array([[[1.0]], [[0.0]]]), eve_k0=np.array([[-2.0]]))
        res = solve(prog)
        assert res.status == "optimal"
        x, y, t = res.x[0], res.y[0], res.t[0]
        assert abs(-2.0 * x + 1.0 / ((x - 2.0) * (x - 1.0) * LN2)) <= 1e-6
        assert x == pytest.approx(2.2549, abs=1e-4)
        assert y == pytest.approx(0.0, abs=1e-9)
        assert 0.0 < t == pytest.approx(x - 2.0, abs=1e-9)
        assert res.objective == pytest.approx(-(x**2 + 1.0) - math.log2(1.0 + 1.0 / t),
                                              rel=1e-12)


# --------------------------------------------------------------------------
# independent cross-check: augmented Lagrangian on the same program data
# --------------------------------------------------------------------------

class _AugLag:
    """Hand-rolled constrained maximizer used only as a test oracle.

    It keeps the S-procedure form of the robust constraints: one multiplier
    xi per (disk, slot) and the rotated cone (xi+1)*d >= b^2 + c^2, with
    radius-zero eavesdroppers as affine rows.
    """

    def __init__(self, prog: ConvexProgram):
        self.p = prog
        self.n = prog.n_slots
        self.robust = np.flatnonzero(prog.eve_r > 0.0)
        self.point = np.flatnonzero(prog.eve_r == 0.0)
        self.kr = self.robust.size
        self.width = 3 + self.kr

    def split(self, z):
        z = z.reshape(self.n, self.width)
        return z[:, 0], z[:, 1], z[:, 2], z[:, 3:].T

    def lin(self, k, x, y):
        p = self.p
        return p.eve_k[0, k] * x + p.eve_k[1, k] * y + p.eve_k0[k]

    def start(self):
        """The program's start with the best multipliers of its blocks."""
        p = self.p
        z0 = np.zeros((self.n, self.width))
        z0[:, :3] = _Workspace(p).z0.T
        x, y, t = z0[:, :3].T
        for i, k in enumerate(self.robust):
            q2 = p.eve_r[k] ** 2
            slack = self.lin(k, x, y) - t
            z0[:, 3 + i] = np.maximum((slack - q2) / (2.0 * q2), 1e-6)
        return z0.ravel()

    def objective_and_grad(self, z):
        p = self.p
        x, y, t, xi = self.split(z)
        obj = p.obj_const - float((p.g_u * (x**2 + y**2 + p.h2)).sum()) - float(
            (np.log1p(p.p_scaled / t) / LN2).sum())
        g = np.zeros((self.n, self.width))
        g[:, 0] = -2.0 * p.g_u * x
        g[:, 1] = -2.0 * p.g_u * y
        g[:, 2] = p.p_scaled / (LN2 * t * (t + p.p_scaled))
        return obj, g.ravel()

    def constraints_and_jac(self, z):
        """g_i(z) <= 0 rows stacked with their gradients."""
        p = self.p
        x, y, t, xi = self.split(z)
        xpad = np.concatenate(([p.pin_start[0]], x, [p.pin_end[0]]))
        ypad = np.concatenate(([p.pin_start[1]], y, [p.pin_end[1]]))
        rows = []
        jacs = []

        def add(val, grads):
            rows.append(val)
            j = np.zeros((self.n, self.width))
            for (slot, col), gv in grads.items():
                j[slot, col] += gv
            jacs.append(j.ravel())

        dx = np.diff(xpad)
        dy = np.diff(ypad)
        for j in range(self.n + 1):
            grads = {}
            if j >= 1:  # step tail is slot j-1
                grads[(j - 1, 0)] = -2.0 * dx[j]
                grads[(j - 1, 1)] = -2.0 * dy[j]
            if j <= self.n - 1:  # step head is slot j
                grads[(j, 0)] = grads.get((j, 0), 0.0) + 2.0 * dx[j]
                grads[(j, 1)] = grads.get((j, 1), 0.0) + 2.0 * dy[j]
            add(dx[j] ** 2 + dy[j] ** 2 - p.step_sq_max, grads)
        for i, k in enumerate(self.robust):
            q2 = p.eve_r[k] ** 2
            a = xi[i] + 1.0
            b = p.eve_c[0, k] - x
            c = p.eve_c[1, k] - y
            d = self.lin(k, x, y) - t - q2 * xi[i]
            for s in range(self.n):
                add(b[s] ** 2 + c[s] ** 2 - a[s] * d[s],
                    {(s, 0): -2.0 * b[s] - a[s] * p.eve_k[0, k, s],
                     (s, 1): -2.0 * c[s] - a[s] * p.eve_k[1, k, s],
                     (s, 2): a[s],
                     (s, 3 + i): -(d[s] - q2 * a[s])})
                add(-xi[i, s], {(s, 3 + i): -1.0})
        for k in self.point:
            d = self.lin(k, x, y) - t
            for s in range(self.n):
                add(-d[s], {(s, 0): -p.eve_k[0, k, s], (s, 1): -p.eve_k[1, k, s],
                            (s, 2): 1.0})
        return np.array(rows), np.array(jacs)

    def maximize(self, z0, rounds=4, rho=1e6):
        """SQP solve followed by penalty-method polish rounds."""
        def negobj(zz):
            o, g = self.objective_and_grad(zz)
            return -o, -g

        cons = [{"type": "ineq",
                 "fun": lambda zz: -self.constraints_and_jac(zz)[0],
                 "jac": lambda zz: -self.constraints_and_jac(zz)[1]}]
        out = minimize(negobj, z0, jac=True, method="SLSQP", constraints=cons,
                       options={"maxiter": 500, "ftol": 1e-12})
        z = out.x
        mu = np.zeros(self.constraints_and_jac(z)[0].size)
        for _ in range(rounds):
            def negF(zz):
                obj, gobj = self.objective_and_grad(zz)
                gvals, gjac = self.constraints_and_jac(zz)
                act = np.maximum(0.0, mu + rho * gvals)
                val = -obj + float((act**2 - mu**2).sum()) / (2 * rho)
                return val, -gobj + gjac.T @ act

            polished = minimize(negF, z, jac=True, method="L-BFGS-B",
                                options={"maxiter": 400, "ftol": 1e-15,
                                         "gtol": 1e-12})
            gvals, _ = self.constraints_and_jac(polished.x)
            if gvals.max() <= 1e-8:
                z = polished.x
            mu = np.maximum(0.0, mu + rho * self.constraints_and_jac(z)[0])
        return z, self.objective_and_grad(z)[0], self.constraints_and_jac(z)[0]


def random_small_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    k = int(rng.integers(1, 3))
    eves = []
    for _ in range(k):
        # keep disks clear of the flight corridor; the kernel program below
        # has a slot inside a disk
        q = float(rng.uniform(0.0, 4.0))
        cy = float(rng.choice([-1.0, 1.0]) * (q + n + 1.0 + rng.uniform(0.0, 6.0)))
        cx = float(rng.uniform(-n - 6.0, n + 6.0))
        eves.append(EveRegion(cx, cy, q))
    start = (-float(n), float(rng.uniform(-n, n)))
    end = (float(n), float(rng.uniform(-n, n)))
    scen = make_scenario(
        flight_duration=0.5 * n, n_slots=n, eves=tuple(eves),
        start_xy=start, end_xy=end, v_max=float(rng.uniform(8.0, 14.0)),
        avg_power=1e-3, peak_power=4e-3,
    )
    traj = best_effort_trajectory(scen)
    powers = PowerSchedule(rng.uniform(0.2e-3, 1e-3, n))
    return scen, traj, powers


class TestRandomInstancesAgainstAugLag:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5])
    def test_objective_matches_and_kkt_small(self, seed):
        scen, traj, powers = random_small_instance(seed)
        prog = assemble(traj, powers, scen)
        res = solve(prog)
        assert res.status == "optimal"
        assert res.min_margin > 0.0
        assert res.kkt_residual <= 1e-6

        oracle = _AugLag(prog)
        z_ref, obj_ref, cons = oracle.maximize(oracle.start())
        assert cons.max() <= 1e-7  # oracle itself must end feasible
        assert res.objective == pytest.approx(obj_ref, abs=1e-6 * max(1.0, abs(obj_ref)))

    def test_optimal_programs_meet_kkt_tol(self):
        """"optimal" demands the stationarity residual within KKT_TOL, not
        only a small gap."""
        assert convex_backend.KKT_TOL == 1e-7
        for seed in range(60):
            scen, traj, powers = random_small_instance(seed)
            res = solve(assemble(traj, powers, scen))
            assert res.status == "optimal", seed
            assert res.kkt_residual <= 1e-7, seed
            assert res.duality_gap <= convex_backend.OPT_TOL * max(1.0, abs(res.objective))


class TestScaleRobustness:
    def test_centimeter_units_match_after_unscaling(self):
        scen = make_scenario()
        traj = best_effort_trajectory(scen)
        powers = equal_power(scen)
        sol = solve_step(traj, powers, scen)
        assert sol.status == "optimal"

        s = 1e-2
        scen2 = dataclasses.replace(
            scen,
            altitude=scen.altitude * s,
            v_max=scen.v_max * s,
            start_xy=(scen.start_xy[0] * s, scen.start_xy[1] * s),
            end_xy=(scen.end_xy[0] * s, scen.end_xy[1] * s),
            gamma0=scen.gamma0 * s**2,
            eves=tuple(EveRegion(e.center_x * s, e.center_y * s, e.radius * s)
                       for e in scen.eves),
        )
        traj2 = Trajectory(xs=traj.xs * s, ys=traj.ys * s)
        sol2 = solve_step(traj2, powers, scen2)
        assert sol2.status == "optimal"
        assert np.abs(sol2.trajectory.xs / s - sol.trajectory.xs).max() <= 1e-4
        assert np.abs(sol2.trajectory.ys / s - sol.trajectory.ys).max() <= 1e-4
        assert sol2.true_objective == pytest.approx(sol.true_objective, abs=1e-8)


# --------------------------------------------------------------------------
# Newton-step kernel: derivatives and the fraction-to-boundary root
# --------------------------------------------------------------------------

def kernel_program():
    """N = 4 with two disks, one point eavesdropper (an affine row) and a
    silent slot, which leaves the program: its neighbours, flight slots 1 and
    3, are joined by one chain row of two steps.  Flight slot 1 of the start
    lies inside the first disk, so both branches of the disk margin are in
    play."""
    scen = make_scenario(flight_duration=2.0, n_slots=4,
                         start_xy=(-10.0, -10.0), end_xy=(10.0, -10.0),
                         eves=(EveRegion(-3.0, -4.0, 2.0), EveRegion(10.0, 4.0, 3.0),
                               EveRegion(0.0, 8.0, 0.0)))
    traj = best_effort_trajectory(scen)
    prog = assemble(traj, PowerSchedule([1e-3, 1e-3, 0.0, 1e-3]), scen)
    assert list(prog.eve_r) == [2.0, 3.0, 0.0]
    assert list(prog.slots) == [0, 1, 3] and np.all(prog.g_u > 0)
    assert list(inside_disks(prog, prog.x_fea, prog.y_fea)[0]) == [False, True, False]
    return prog


def inside_disks(prog, x, y):
    """(K, N) mask of the slots strictly inside each disk."""
    return np.hypot(x - prog.eve_c[0, :, None], y - prog.eve_c[1, :, None]) < prog.eve_r[:, None]


def chain_steps(prog):
    """The flight steps each chain row spans, from the pins at -1 and N."""
    return np.diff(np.concatenate(([-1], prog.slots, [prog.n_slots])))


def direct_margins(prog, z):
    """Every margin at the (3, n) point z, written out from the program data,
    in the order of the solver's flat margins: the mobility chain, the
    disks."""
    x, y, t = z
    xpad = np.concatenate(([prog.pin_start[0]], x, [prog.pin_end[0]]))
    ypad = np.concatenate(([prog.pin_start[1]], y, [prog.pin_end[1]]))
    budget = chain_steps(prog) ** 2 * prog.step_sq_max
    parts = [budget - np.diff(xpad) ** 2 - np.diff(ypad) ** 2]
    for k, r in enumerate(prog.eve_r):
        rho = np.hypot(x - prog.eve_c[0, k], y - prog.eve_c[1, k])
        huber = np.where(rho <= r, rho**2, 2.0 * r * rho - r**2)
        lin = prog.eve_k[0, k] * x + prog.eve_k[1, k] * y + prog.eve_k0[k]
        parts.append(lin - t - huber)
    return np.concatenate(parts)


def quadratic_rows(prog, z, z_end):
    """Mask of the rows whose margin is a quadratic on the segment z -> z_end:
    all but the disk rows with r > 0 that are not inside their disk at both
    ends (a disk is convex, so then the whole segment is inside)."""
    n = prog.slots.size
    inside = inside_disks(prog, *z[:2]) & inside_disks(prog, *z_end[:2])
    disk = inside | (prog.eve_r == 0.0)[:, None]
    return np.concatenate((np.ones(n + 1, bool), disk.ravel()))


def merit(prog, z, tau):
    m = direct_margins(prog, z)
    assert m.min() > 0.0
    x, y, t = z
    obj = ((prog.g_u * (x**2 + y**2 + prog.h2)).sum()
           + (np.log1p(prog.p_scaled / t) / LN2).sum())
    return tau * obj - np.log(m).sum()


def full_hessian(ab):
    """The symmetric matrix stored in lower band form."""
    kd, nz = ab.shape[0] - 1, ab.shape[1]
    hess = np.zeros((nz, nz))
    for j in range(nz):
        for i in range(j, min(nz, j + kd + 1)):
            hess[i, j] = hess[j, i] = ab[i - j, j]
    return hess


def schur_of_t(hess):
    """The Schur complement of the t block of a matrix over [x, y, t] slots:
    the matrix over x, y that the solver's reduced band stores."""
    t = np.arange(hess.shape[0]) % 3 == 2
    q = ~t
    return hess[q][:, q] - hess[q][:, t] @ np.linalg.solve(hess[t][:, t], hess[t][:, q])


def straight_track(prog, z0):
    """The straight track between the pins at z0's t, (3, n) like z0, each
    slot at its flight fraction (index + 1)/(N + 1)."""
    frac = (prog.slots + 1) / (prog.n_slots + 1)
    track = z0.copy()
    track[0] = prog.pin_start[0] + frac * (prog.pin_end[0] - prog.pin_start[0])
    track[1] = prog.pin_start[1] + frac * (prog.pin_end[1] - prog.pin_start[1])
    return track


def slot_major(v):
    """A (3, n) point or step as one vector over [x, y, t] slots, the order
    of ``dense_newton_matrix`` and ``schur_of_t`` (and of the band's x, y)."""
    return v.T.ravel()


def slot_major_normal(rng, n):
    """A (3, n) array of standard normals drawn slot by slot, x, y, t."""
    return rng.normal(size=(n, 3)).T


def unit_steps(z):
    """(i, e, h): the step e of length h = 1e-6 (relative, at least absolute)
    along each coordinate of the (3, n) point z, i its slot-major index."""
    for i, (s, c) in enumerate(np.ndindex(z.shape[1], 3)):
        e = np.zeros_like(z)
        e[c, s] = h = 1e-6 * max(1.0, abs(z[c, s]))
        yield i, e, h


def kernel_points(radii="kernel"):
    """The kernel program's interior start, and a point a quarter of the way
    from the warm start to the straight track, where slot 2 is still inside
    the first disk (the start has left it).

    With ``radii="zero"`` the program is the kernel program with every radius
    zero, the non-robust planner's case: every disk row is affine and the
    table has no Hessian entries.  The points stay those of the kernel
    program; they stay interior, since every margin only grows."""
    prog = kernel_program()
    ws = _Workspace(prog)
    z0 = ws.z0
    inside = z0 + 0.25 * (straight_track(prog, z0) - z0)
    assert inside_disks(prog, *inside[:2])[0, 1]
    assert direct_margins(prog, inside).min() > 0.0
    points = {"start": _interior_start(ws)[0], "inside": inside}
    if radii == "zero":
        prog = dataclasses.replace(prog, eve_r=np.zeros(3))
        ws = _Workspace(prog)
        assert ws.table(z0).h is None
    return prog, ws, points


def random_direction(rng, prog, ws):
    # random scales per row (x, y, t) so that every family, curved or flat,
    # gets to bind
    scale = 10.0 ** rng.uniform(-3.0, 2.0, 3) * (rng.random(3) < 0.7)
    return slot_major_normal(rng, ws.n) * scale[:, None]


def dense_newton_matrix(prog, z, lam):
    """The full Newton matrix over [x, y, t] slots, dense, written out from
    the program data: hess f0 + J^T diag(lam/m) J - sum_i lam_i hess m_i,
    with the rows in the order of ``direct_margins``."""
    zz = z.T
    n = zz.shape[0]
    m = direct_margins(prog, z)
    jac = np.zeros((m.size, 3 * n))
    lag = np.zeros((3 * n, 3 * n))  # sum_i lam_i hess m_i
    pad = np.vstack((prog.pin_start, zz[:, :2], prog.pin_end))
    for j in range(n + 1):  # chain row j: tail slot j-1, head slot j
        ends = [(s, sign) for s, sign in ((j - 1, -1.0), (j, 1.0)) if 0 <= s < n]
        for s, sign in ends:
            jac[j, 3 * s:3 * s + 2] = -2.0 * sign * (pad[j + 1] - pad[j])
            for s2, sign2 in ends:
                for c in (0, 1):
                    lag[3 * s + c, 3 * s2 + c] -= 2.0 * sign * sign2 * lam[j]
    i = n + 1
    for k, r in enumerate(prog.eve_r):
        for s in range(n):
            w = zz[s, :2] - prog.eve_c[:, k]
            rho = math.hypot(*w)
            if rho <= r:  # huber_r = rho^2
                grad, hess = 2.0 * w, 2.0 * np.eye(2)
            else:         # huber_r = 2 r rho - r^2
                grad = 2.0 * r * w / rho
                hess = 2.0 * r / rho * (np.eye(2) - np.outer(w, w) / rho**2)
            jac[i, 3 * s:3 * s + 2] = prog.eve_k[:, k, s] - grad
            jac[i, 3 * s + 2] = -1.0
            lag[3 * s:3 * s + 2, 3 * s:3 * s + 2] -= lam[i] * hess
            i += 1
    t = zz[:, 2]
    f0 = np.zeros(3 * n)
    f0[0::3] = f0[1::3] = 2.0 * prog.g_u
    f0[2::3] = (1.0 / t**2 - 1.0 / (t + prog.p_scaled) ** 2) / LN2
    return np.diag(f0) + jac.T @ ((lam / m)[:, None] * jac) - lag


def newton_cases():
    """(program, workspace, interior point) triples: the kernel program at
    its two points, with and without radii, and random small instances at a
    random point near their interior start."""
    for radii in ("kernel", "zero"):
        prog, ws, points = kernel_points(radii)
        for z in points.values():
            yield prog, ws, z
    rng = np.random.default_rng(20261021)
    for seed in range(8):
        scen, traj, powers = random_small_instance(seed)
        prog = assemble(traj, powers, scen)
        ws = _Workspace(prog)
        z, _ = _interior_start(ws)
        while True:
            trial = z + 1e-2 * slot_major_normal(rng, ws.n)
            if direct_margins(prog, trial).min() > 0.0:
                break
        yield prog, ws, trial


class TestNewtonKernel:
    @pytest.mark.parametrize("point, radii", [
        ("start", "kernel"), ("inside", "kernel"), ("start", "zero"), ("inside", "zero")],
        ids=["start", "inside", "start-zero", "inside-zero"])
    def test_gradient_and_band_hessian_match_finite_differences(self, point, radii):
        """At the central multipliers lam = 1/(tau*m) the residual
        grad f0 - J^T lam is the barrier merit's gradient divided by tau, and
        the reduced band the Schur complement of t in its Hessian."""
        prog, ws, points = kernel_points(radii)
        z = points[point]
        tau = 7.0

        def system(z_):
            tab = ws.table(z_)
            lam = 1.0 / (tau * tab.m)
            g0, ab, _ = ws.assemble(tab, z_, lam)
            return slot_major(g0 - ws.jt(tab, lam)), ab

        gz, ab = system(z)
        hess = full_hessian(ab)
        fd_grad = np.empty(z.size)
        fd_hess = np.empty((z.size, z.size))
        for i, e, h in unit_steps(z):
            fd_grad[i] = (merit(prog, z + e, tau) - merit(prog, z - e, tau)) / (2 * h * tau)
            fd_hess[:, i] = (system(z + e)[0] - system(z - e)[0]) / (2 * h)
        scale = np.abs(gz).max()
        assert np.abs(gz - fd_grad).max() <= 1e-6 * scale
        assert np.abs(hess - schur_of_t(fd_hess)).max() <= 1e-6 * np.abs(hess).max()

    @pytest.mark.parametrize("point, radii", [
        ("start", "kernel"), ("inside", "kernel"), ("start", "zero")],
        ids=["start", "inside", "start-zero"])
    def test_newton_matrix_and_jt_at_arbitrary_multipliers(self, point, radii):
        """The reduced band is the Schur complement of t in
        H = hess f0 + J^T diag(lam/m) J - sum lam_i hess m_i, and
        jt(w) = J^T w, for multipliers off the central path, with the
        Jacobian J of the margins by finite differences."""
        prog, ws, points = kernel_points(radii)
        z = points[point]
        rng = np.random.default_rng(20261019)
        lam = rng.uniform(0.1, 2.0, ws.m_bar)
        w = rng.normal(size=ws.m_bar)
        tab = ws.table(z)
        g0, ab, _ = ws.assemble(tab, z, lam)

        def residual(z_):  # grad of the Lagrangian f0 - lam^T m at fixed lam
            tab_ = ws.table(z_)
            return slot_major(ws.assemble(tab_, z_, lam)[0] - ws.jt(tab_, lam))

        jac = np.empty((ws.m_bar, z.size))
        lag_hess = np.empty((z.size, z.size))
        for i, e, h in unit_steps(z):
            jac[:, i] = (direct_margins(prog, z + e) - direct_margins(prog, z - e)) / (2 * h)
            lag_hess[:, i] = (residual(z + e) - residual(z - e)) / (2 * h)
        expected = schur_of_t(lag_hess + jac.T @ ((lam / tab.m)[:, None] * jac))
        assert np.abs(full_hessian(ab) - expected).max() <= 1e-6 * np.abs(expected).max()
        jtw = jac.T @ w
        assert np.abs(slot_major(ws.jt(tab, w)) - jtw).max() <= 1e-6 * np.abs(jtw).max()

    @pytest.mark.parametrize("radii", ["kernel", "zero"])
    def test_fraction_to_boundary_start_matches_brute_force_halving(self, radii):
        prog, ws, points = kernel_points(radii)
        z = points["start"]
        tab = ws.table(z)
        rng = np.random.default_rng(20261018)
        starts = set()
        for _ in range(200):
            dz = random_direction(rng, prog, ws)
            m0, (m1, m2) = tab.m, ws.ray(tab, dz)
            # the model is the margins along the ray on every quadratic row
            a = float(rng.uniform(0.0, 2.0))
            terms = np.abs(m0) + np.abs(a * m1) + np.abs(a * a * m2)
            direct = direct_margins(prog, z + a * dz)
            quad = quadratic_rows(prog, z, z + a * dz)
            assert np.all(np.abs(m0 + a * (m1 + a * m2) - direct)[quad] <= 1e-9 * terms[quad])
            root = first_root(m0, m1, m2)
            brute = next((0.5**k for k in range(96)
                          if (m0 + 0.5**k * (m1 + 0.5**k * m2)).min() > 0.0), None)
            # the largest halving step that keeps every model positive is the
            # largest power of two below the exact root
            assert brute is not None and brute < root
            assert brute == 1.0 or root <= 2.0 * brute
            if math.isfinite(root):
                # some model reaches zero at the root, and none before it
                scale = np.abs(m0) + np.abs(root * m1) + np.abs(root * root * m2)
                assert abs((m0 + root * (m1 + root * m2)).min() / scale.max()) <= 1e-12
                early = root * (1.0 - 1e-6)
                assert (m0 + early * (m1 + early * m2)).min() > 0.0
            starts.add(brute)
        assert len(starts) >= 8  # the directions reach several halving depths

    def test_disk_model_error_is_third_order(self):
        """Outside its disk a disk margin is not quadratic along a ray; the
        model misses it by O(a^3), so halving a cuts the error 8x."""
        prog, ws, points = kernel_points()
        z = points["start"]
        tab = ws.table(z)
        rng = np.random.default_rng(20261020)
        n = prog.slots.size
        outer = np.concatenate((np.zeros(n + 1, bool),
                                ((prog.eve_r > 0.0)[:, None]
                                 & ~inside_disks(prog, *z[:2])).ravel()))
        checked = 0
        for _ in range(20):
            dz = slot_major_normal(rng, n)
            m0, (m1, m2) = tab.m, ws.ray(tab, dz)
            steps = 0.5 ** np.arange(3, 9)
            err = np.array([np.abs(m0 + a * (m1 + a * m2) - direct_margins(prog, z + a * dz))
                            for a in steps])[:, outer]
            big = err[-1] > 1e-11  # well above rounding at the smallest step
            ratio = err[-2, big] / err[-1, big]
            assert np.all((ratio > 7.5) & (ratio < 8.5))
            checked += int(big.sum())
        assert checked >= 100

    def test_first_root_on_hand_polynomials(self):
        def root(*rows):
            return first_root(*np.array(rows, dtype=float).T)

        assert root((1.0, -4.0, 5.0)) == math.inf               # no real root
        assert root((1.0, -4.0, 3.0)) == pytest.approx(1 / 3)   # roots 1/3 and 1
        assert root((1.0, -3.0, 0.0)) == pytest.approx(1 / 3)   # linear
        assert root((1.0, 0.0, -16.0)) == 0.25
        assert root((1.0, 2.0, 1.0)) == math.inf                # double root -1
        assert root((1.0, 1.0, 0.0)) == math.inf                # growing margin
        assert root((1.0, -1e40, 0.0)) == pytest.approx(1e-40)
        assert root((1.0, -4.0, 3.0), (1.0, 0.0, -16.0), (1.0, -4.0, 5.0)) == 0.25

    def test_dual_root_on_hand_multipliers(self):
        assert dual_root(np.array([1.0, 2.0]), np.array([-1.0, 1.0])) == 1.0
        assert dual_root(np.array([2.0, 1.0]), np.array([-1.0, -4.0])) == 0.25
        assert dual_root(np.array([1.0]), np.array([0.0])) == math.inf

    def test_reduced_step_matches_dense_solve(self):
        """The band solve over x, y plus the back-substitution for t is the
        solve with the full Newton matrix over [x, y, t], at random
        multipliers and right-hand sides."""
        rng = np.random.default_rng(20261022)
        cases = 0
        for prog, ws, z in newton_cases():
            tab = ws.table(z)
            assert np.allclose(tab.m, direct_margins(prog, z), rtol=1e-12, atol=0.0)
            lam = rng.uniform(0.1, 2.0, ws.m_bar)
            _, ab, elim = ws.assemble(tab, z, lam)
            assert ab.shape == (ws.kd + 1, 2 * ws.n)
            fac = convex_backend.cholesky_banded(ab)
            dense = dense_newton_matrix(prog, z, lam)
            for _ in range(3):
                rhs = slot_major_normal(rng, ws.n)
                want = np.linalg.solve(dense, slot_major(rhs))
                got = slot_major(ws.newton_step(fac, elim, rhs))
                assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
            cases += 1
        assert cases == 12


def fine_slot_program():
    """paper_fig2 at 0.1 s slots (N = 1600): the first convex step from the
    best-effort track at equal power."""
    scen = derive_scenario(dataclasses.replace(paper_fig2(), slot_len=0.1), "T", 160.0)
    assert scen.n_slots == 1600
    return assemble(best_effort_trajectory(scen), equal_power(scen), scen)


def no_interior_program():
    """Pins (N+1)*L apart force the straight track at full speed, so no point
    has positive mobility margins (``validate`` rejects such a scenario)."""
    return dataclasses.replace(
        toy_program(n=3), pin_start=(-2.0, 0.0), pin_end=(2.0, 0.0),
        x_fea=np.array([-1.0, 0.0, 1.0]), y_fea=np.zeros(3))


def small_program():
    """N = 3: the straight track itself is interior, and the least barrier
    lies at 2^-4 along the segment."""
    scen, traj, powers = random_small_instance(8)
    return assemble(traj, powers, scen)


def detour_program(altitude, bow, eve):
    """N = 8 between pins 30 m apart on the x axis, expanded at a track that
    bows ``bow`` m off the straight one at full speed, so the expansion
    point's largest mobility margin is 0."""
    s = np.linspace(0.0, 1.0, 10)
    xs, ys = -15.0 + 30.0 * s, bow * np.sin(np.pi * s)
    xs[0], xs[-1], ys[0], ys[-1] = -15.0, 15.0, 0.0, 0.0
    v_max = float(np.sqrt((np.diff(xs) ** 2 + np.diff(ys) ** 2).max())) / 0.5
    scen = make_scenario(flight_duration=4.0, n_slots=8, altitude=altitude, v_max=v_max,
                         start_xy=(-15.0, 0.0), end_xy=(15.0, 0.0), eves=(eve,))
    return assemble(Trajectory(xs, ys), PowerSchedule(np.full(8, 1e-3)), scen)


def track_best_program():
    """The straight track, farther from the disk than the detour, has the
    least barrier: k = 0."""
    return detour_program(20.0, 5.0, EveRegion(0.0, 60.0, 3.0))


def disk_on_track_program():
    """The straight track crosses a disk that the detour skirts 0.5 m off, at
    1 m altitude, so only points close to the detour are interior and the
    least barrier lies past the first eight steps: k = 9."""
    return detour_program(1.0, 10.5, EveRegion(0.0, 0.0, 10.0))


def point_by_point_start(ws):
    """(k, z) of the search one table at a time along the segment, stopping
    at the barrier's first rise, with the solver's own table."""
    track = straight_track(ws.prog, ws.z0)
    best, best_barrier = None, math.inf
    for k in range(60):
        z = ws.z0 + 0.5**k * (track - ws.z0)
        m = ws.table(z).m
        barrier = -np.log(m).sum() if m.min() > 0.0 else math.inf
        if barrier < best_barrier:
            best, best_barrier = (k, z), barrier
        elif best is not None:
            break
    return best


START_PROGRAMS = [kernel_program, fine_slot_program, small_program, track_best_program,
                  disk_on_track_program]


class TestInteriorStart:
    @pytest.mark.parametrize("make", START_PROGRAMS)
    def test_least_barrier_power_of_two_step_on_the_segment(self, make):
        prog = make()
        ws = _Workspace(prog)
        z0 = ws.z0
        z, tab = _interior_start(ws)
        assert direct_margins(prog, z).min() > 0.0
        # the table of the point it picks, which the solve starts from
        want = ws.table(z)
        assert all(np.array_equal(a, b) for a, b in zip(tab, want))
        # brute force over every halving step of the segment
        track = straight_track(prog, z0)
        barriers = []
        for k in range(60):
            m = direct_margins(prog, z0 + 0.5**k * (track - z0))
            barriers.append(-np.log(m).sum() if m.min() > 0.0 else math.inf)
        k = int(np.argmin(barriers))
        assert np.allclose(z, z0 + 0.5**k * (track - z0), rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("make, ks", [(kernel_program, None), (small_program, {4}),
                                          (track_best_program, {0}),
                                          (disk_on_track_program, {9})])
    def test_batched_scoring_picks_the_point_by_point_k(self, make, ks):
        """The batched margin passes pick the very point, bit for bit, of the
        search one table at a time, also past the first batch of eight."""
        ws = _Workspace(make())
        k, want = point_by_point_start(ws)
        assert ks is None or k in ks
        z, tab = _interior_start(ws)
        assert np.array_equal(z, want)
        assert all(np.array_equal(a, b) for a, b in zip(tab, ws.table(want)))

    def test_k_zero_is_a_strict_minimum(self):
        ws = _Workspace(track_best_program())
        track = straight_track(ws.prog, ws.z0)
        m0, m1 = (ws.table(ws.z0 + s * (track - ws.z0)).m for s in (1.0, 0.5))
        assert min(m0.min(), m1.min()) > 0.0
        assert -np.log(m0).sum() < -np.log(m1).sum()

    @pytest.mark.parametrize("make", START_PROGRAMS)
    def test_warm_start_is_the_expansion_point_below_the_tight_t(self, make):
        prog = make()
        ws = _Workspace(prog)
        x, y, t = ws.z0
        assert np.array_equal(x, prog.x_fea) and np.array_equal(y, prog.y_fea)
        assert np.all((0.9 * prog.h2 < t) & (t < prog.t_fea))

    def test_pins_a_full_budget_apart_leave_no_interior(self):
        prog = no_interior_program()
        ws = _Workspace(prog)
        assert _interior_start(ws) is None
        res = solve(prog)
        assert res.status == "numerical_trouble"
        assert res.newton_iters == 0


class TestResultRows:
    @pytest.mark.parametrize("make, status", [(kernel_program, "optimal"),
                                              (no_interior_program, "numerical_trouble")])
    def test_rows_survive_a_second_solve_and_a_table_pass(self, make, status, monkeypatch):
        """A result's x, y, t are rows of the solve's last point (of ws.z0
        when there is no interior start); neither another solve of the same
        program nor a table pass of the solve's own workspace writes them."""
        made = []

        class Recording(_Workspace):
            def __init__(self, prog):
                super().__init__(prog)
                made.append(self)

        monkeypatch.setattr(convex_backend, "_Workspace", Recording)
        prog = make()
        res = solve(prog)
        assert res.status == status
        rows = [v.copy() for v in (res.x, res.y, res.t)]
        again = solve(prog)
        ws = made[0]
        ws.table(ws.z0 + 1.0)
        for got, want, other in zip((res.x, res.y, res.t), rows, (again.x, again.y, again.t)):
            assert np.array_equal(got, want) and np.array_equal(other, want)

    @pytest.mark.parametrize("make", [kernel_program, no_interior_program])
    def test_rows_are_not_workspace_buffers(self, make, monkeypatch):
        """No result array shares memory with an array of its workspace (the
        rows of ws.z0 included, on the exit without an interior start)."""
        made = []

        class Recording(_Workspace):
            def __init__(self, prog):
                super().__init__(prog)
                made.append(self)

        monkeypatch.setattr(convex_backend, "_Workspace", Recording)
        res = solve(make())
        buffers = [v for v in vars(made[0]).values() if isinstance(v, np.ndarray)]
        assert buffers
        for row in (res.x, res.y, res.t):
            assert not any(np.shares_memory(row, b) for b in buffers)

    def test_a_second_assemble_leaves_the_first_as_it_was(self):
        """assemble returns new arrays: the gradient, the band (in LAPACK's
        column-major layout) and the terms that eliminate t."""
        prog, ws, points = kernel_points()
        lam = np.random.default_rng(20261023).uniform(0.1, 2.0, (2, ws.m_bar))
        g0, ab, (v, tt) = first = ws.assemble(ws.table(points["start"]), points["start"], lam[0])
        kept = [a.copy() for a in (g0, ab, v, tt)]
        second = ws.assemble(ws.table(points["inside"]), points["inside"], lam[1])
        assert not np.array_equal(second[1], ab)
        for got, want in zip((g0, ab, v, tt), kept):
            assert np.array_equal(got, want)
        assert first[1].flags.f_contiguous


def test_paper_fig2_first_steps_meet_kkt_tol():
    """The first four convex steps of paper_fig2 at T = 80 s all end
    optimal with a stationarity residual within KKT_TOL, not only a small
    gap."""
    scen = paper_fig2(80.0)
    traj, powers = best_effort_trajectory(scen), equal_power(scen)
    for step in range(4):
        sol = solve_step(traj, powers, scen)
        assert sol.status == "optimal", step
        assert sol.solve.kkt_residual <= 1e-7, step
        assert sol.solve.min_margin > 0.0, step
        traj = sol.trajectory
        powers = optimize_power(traj, scen).schedule


def test_fine_slot_first_program_reaches_optimal():
    """The N = 1600 first program, where single margins collapse early; it
    takes 14 iterations."""
    res = solve(fine_slot_program())
    assert res.status == "optimal"
    assert res.newton_iters <= 30


def plan_solves(monkeypatch, T):
    """Every (program, hand-off) the robust plan of paper_fig2 at T solves."""
    pairs, inner = [], convex_backend.solve

    def keep(program, warm=None):
        pairs.append((program, warm))
        return inner(program, warm)

    with monkeypatch.context() as m:
        m.setattr(convex_backend, "solve", keep)
        optimize(paper_fig2(T))
    return pairs


def drop_slot(prog, i):
    """``prog`` without its i-th kept slot, as if that slot fell silent."""
    keep = np.arange(prog.slots.size) != i
    return dataclasses.replace(
        prog, slots=prog.slots[keep], p_scaled=prog.p_scaled[keep], g_u=prog.g_u[keep],
        x_fea=prog.x_fea[keep], y_fea=prog.y_fea[keep], t_fea=prog.t_fea[keep],
        eve_k=prog.eve_k[:, :, keep], eve_k0=prog.eve_k0[:, keep])


def check_mapping(prog, handoff):
    """The warm start of ``prog`` from ``handoff`` against the mapping rules
    of the convex_backend docstring, row by row; returns (new slots, rows
    kept)."""
    ws = _Workspace(prog)
    z, tab, lam = _warm_start(ws, handoff)
    K, n, old = prog.eve_r.size, ws.n, list(handoff.slots)
    assert np.array_equal(tab.m, ws.table(z).m)
    disks, old_disks = lam[ws.disks].reshape(K, n), handoff.lam[len(old) + 1:].reshape(K, -1)
    knots = [0] + [s + 1 for s in old] + [prog.n_slots + 1]
    spread = sorted(handoff.mu / old_disks.max(axis=0))
    delta = spread[len(spread) // 2]
    new = 0
    for j, s in enumerate(prog.slots):
        if s in old:
            i = old.index(s)
            assert np.array_equal(z[:, j], handoff.z[:, i])
            assert np.array_equal(disks[:, j], old_disks[:, i])
        else:
            new += 1
            for row, a, b in ((0, prog.pin_start[0], prog.pin_end[0]),
                              (1, prog.pin_start[1], prog.pin_end[1])):
                track = [a, *handoff.z[row], b]
                assert z[row, j] == pytest.approx(np.interp(s + 1, knots, track), rel=1e-12)
            rows = tab.m[ws.disks].reshape(K, n)[:, j]
            # t = (least margin at t = 0) - delta, up to the margins' rounding
            assert rows.min() == pytest.approx(delta, rel=1e-6)
            assert disks[:, j] * rows == pytest.approx(np.full(K, handoff.mu), rel=1e-9)
    ends, old_ends = [-1, *prog.slots, prog.n_slots], [-1, *old, prog.n_slots]
    old_rows = {pair: i for i, pair in enumerate(zip(old_ends, old_ends[1:]))}
    kept_rows = 0
    for j, pair in enumerate(zip(ends, ends[1:])):
        if pair in old_rows:
            kept_rows += 1
            assert lam[j] == handoff.lam[old_rows[pair]]
        else:
            assert lam[j] * tab.m[j] == pytest.approx(handoff.mu * ws.weight[j], rel=1e-9)
    return new, kept_rows


class TestWarmStart:
    """``solve(program, warm)`` starts from the previous step's hand-off."""

    @pytest.mark.parametrize("T", [80.0, 160.0])
    def test_warm_solves_match_cold_solves_in_fewer_iterations(self, monkeypatch, T):
        # 15 warm against 21 cold iterations at T = 80 s, 11 against 14 at 160 s
        (_, first), *later = plan_solves(monkeypatch, T)
        assert first is None and later
        warm_iters = cold_iters = 0
        for program, handoff in later:
            warm, cold = solve(program, handoff), solve(program)
            assert warm.warm_start and not cold.warm_start
            assert warm.status == cold.status == "optimal"
            assert warm.objective == pytest.approx(cold.objective, rel=1e-7, abs=0.0)
            warm_iters += warm.newton_iters
            cold_iters += cold.newton_iters
        assert warm_iters < cold_iters

    def test_hand_off_is_the_first_iterate_within_sqrt_opt_tol(self, monkeypatch):
        (program, _), (_, handoff), *_ = plan_solves(monkeypatch, 80.0)
        threshold, full = math.sqrt(convex_backend.OPT_TOL), solve(program).newton_iters
        for k in range(full + 1):
            monkeypatch.setattr(convex_backend, "MAX_NEWTON", k)
            res = solve(program)  # ends at iterate k
            if res.duality_gap <= threshold * max(1.0, abs(res.objective)):
                break
            assert res.handoff is None
        assert 0 < k < full
        z = np.stack((res.x, res.y, res.t))
        assert np.array_equal(res.handoff.z, z) and np.array_equal(handoff.z, z)
        assert handoff.mu == res.duality_gap / _Workspace(program).weight_sum

    @pytest.mark.parametrize("T", [80.0, 160.0])
    def test_mapping_rules(self, monkeypatch, T):
        pairs = plan_solves(monkeypatch, T)
        new = 0
        for (prev, _), (program, handoff) in zip(pairs, pairs[1:]):
            # into the program it came from, the hand-off is its own start
            z, _, lam = _warm_start(_Workspace(prev), handoff)
            assert np.array_equal(z, handoff.z) and np.array_equal(lam, handoff.lam)
            added, kept_rows = check_mapping(program, handoff)
            new += added
            # a slot that falls silent merges its two chain rows into a new one
            assert np.isin(program.slots[4:7], handoff.slots).all()
            assert check_mapping(drop_slot(program, 5), handoff)[1] == kept_rows - 2
        assert new > 0

    def test_hand_off_outside_the_interior_is_a_cold_solve(self, monkeypatch):
        (_, _), (program, handoff), *_ = plan_solves(monkeypatch, 80.0)
        z = handoff.z.copy()
        z[2] = 1e12  # t above every margin
        got, want = solve(program, handoff._replace(z=z)), solve(program)
        assert not got.warm_start and not want.warm_start
        for name in ("x", "y", "t"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert ((got.objective, got.status, got.newton_iters, got.duality_gap,
                 got.kkt_residual, got.min_margin)
                == (want.objective, want.status, want.newton_iters, want.duality_gap,
                    want.kkt_residual, want.min_margin))
        for a, b in zip(got.handoff, want.handoff):
            assert np.array_equal(a, b)


class TestFailureExits:
    def test_failed_factorization_is_numerical_trouble(self, monkeypatch):
        """A factorization that raises ends the solve as numerical_trouble,
        and solve_step then hands back its expansion point."""
        calls = []

        def singular(ab):
            calls.append(ab.shape)
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(convex_backend, "cholesky_banded", singular)
        res = solve(kernel_program())
        assert (res.status, res.newton_iters) == ("numerical_trouble", 0)
        assert len(calls) == 1
        scen = make_scenario()
        traj, powers = best_effort_trajectory(scen), equal_power(scen)
        sol = solve_step(traj, powers, scen)
        assert sol.status == "numerical_trouble"
        assert sol.trajectory is traj
        assert len(calls) == 2

    def test_iteration_cap_is_max_iter(self, monkeypatch):
        monkeypatch.setattr(convex_backend, "MAX_NEWTON", 3)
        res = solve(kernel_program())
        assert res.status == "max_iter"
        assert res.newton_iters == 3
        assert res.min_margin > 0.0
        assert math.isfinite(res.objective)
        assert res.duality_gap > 0.0 and math.isfinite(res.kkt_residual)


def random_spd_band(rng, nz=640, kd=3):
    """A random diagonally dominant (so SPD) band, Fortran-ordered, in LAPACK's
    lower band storage; nz = 640 is n = 320 slots of [x, y], t eliminated."""
    lo = np.zeros((kd + 1, nz), order="F")
    lo[0] = 2.0 * kd + 1.0 + rng.uniform(0.0, 1.0, nz)
    for d in range(1, kd + 1):
        lo[d, :nz - d] = rng.uniform(-1.0, 1.0, nz - d)
    return lo


def _negated(ab):
    return -ab


def _nan_entry(ab):
    ab = ab.copy(order="F")
    ab[2, ab.shape[1] // 3] = np.nan
    return ab


def _inf_entry(ab):
    ab = ab.copy(order="F")
    ab[1, ab.shape[1] // 2] = np.inf
    return ab


class TestBandCalls:
    """The module's thin dpbtrf/dpbtrs calls behind the scipy names."""

    # the lower band form only, the one solve stores
    @pytest.mark.parametrize("lower", [True])
    def test_bit_equal_to_scipy(self, lower):
        rng = np.random.default_rng(5)
        ab = random_spd_band(rng)
        want = scipy.linalg.cholesky_banded(ab, lower=lower)
        got = convex_backend.cholesky_banded(ab.copy(order="F"))
        assert np.array_equal(got, want)
        b = rng.standard_normal(ab.shape[1])
        assert np.array_equal(convex_backend.cho_solve_banded(got, b),
                              scipy.linalg.cho_solve_banded((want, lower), b))

    @pytest.mark.parametrize("lower", [True])
    @pytest.mark.parametrize("spoil", [_negated, _nan_entry, _inf_entry])
    def test_bad_band_raises_linalg_error(self, spoil, lower):
        ab = spoil(random_spd_band(np.random.default_rng(6)))
        with pytest.raises(np.linalg.LinAlgError):
            convex_backend.cholesky_banded(ab)

    @pytest.mark.parametrize("spoil", [_negated, _nan_entry, _inf_entry])
    def test_bad_band_ends_solve_in_numerical_trouble(self, spoil, monkeypatch):
        # a non-finite band used to escape solve as scipy's ValueError
        assemble_band = _Workspace.assemble

        def spoiled(self, tab, z, lam):
            g0, ab, elim = assemble_band(self, tab, z, lam)
            return g0, spoil(ab), elim

        monkeypatch.setattr(_Workspace, "assemble", spoiled)
        res = solve(kernel_program())
        assert (res.status, res.newton_iters) == ("numerical_trouble", 0)
        assert res.min_margin > 0.0


# run in a fresh interpreter: import secuav, then scipy's own LAPACK wrappers
_FOOTPRINT = """
import json, sys
from secuav import convex_backend as cb
footprint = "scipy.linalg" in sys.modules
import numpy as np
import scipy.linalg.lapack as lapack
from test_convex_backend import random_spd_band
ab = random_spd_band(np.random.default_rng(7))
ours, info_ours = cb.dpbtrf(ab, lower=1)
theirs, info_theirs = lapack.dpbtrf(ab, lower=1)
print(json.dumps({"scipy_linalg_after_import": footprint,
                  "files": [cb._flapack.__file__, lapack._flapack.__file__],
                  "infos": [info_ours, info_theirs],
                  "bit_equal": ours.tobytes() == theirs.tobytes()}))
"""


class TestLapackLoad:
    """``_load_flapack``: scipy's compiled LAPACK module, not its package."""

    def test_import_leaves_scipy_linalg_out(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])}
        out = subprocess.run([sys.executable, "-c", _FOOTPRINT], capture_output=True,
                             text=True, timeout=120, env=env, cwd=REPO_ROOT)
        assert out.returncode == 0, out.stderr
        got = json.loads(out.stdout)
        assert got["scipy_linalg_after_import"] is False
        ours, theirs = got["files"]
        assert ours == theirs
        assert got["infos"] == [0, 0]
        assert got["bit_equal"]

    def test_missing_extension_names_the_path(self, tmp_path, monkeypatch):
        origin = tmp_path / "scipy" / "__init__.py"
        monkeypatch.setattr(convex_backend, "find_spec",
                            lambda name: ModuleSpec(name, None, origin=str(origin)))
        want = tmp_path / "scipy" / "linalg" / f"_flapack{EXTENSION_SUFFIXES[0]}"
        with pytest.raises(ImportError, match=re.escape(str(want))):
            convex_backend._load_flapack()

    def test_missing_scipy_raises_import_error(self, monkeypatch):
        monkeypatch.setattr(convex_backend, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="scipy is not installed"):
            convex_backend._load_flapack()
