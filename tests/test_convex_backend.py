import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from secuav.convex_backend import (SolverSettings, _pull_in, _Workspace, first_step,
                                   line_search_start, solve)
from secuav.harness import derive_scenario, load_scenario
from secuav.planner import best_effort_trajectory, equal_power
from secuav.scenario import EveRegion, PowerSchedule, Trajectory
from secuav.trajectory_sca import ConvexProgram, assemble, solve_step

from conftest import BENCHMARK_SCENARIO, make_scenario

LN2 = math.log(2.0)


def toy_program(n=1, g_u=0.0, p_scaled=1.0, theta_max=30_000.0, h2=10_000.0,
                pins=(0.0, 0.0), step_sq=1.0, t_start=None):
    """Synthetic single-purpose programs exercising one mechanism at a time."""
    t0 = 0.5 * (h2 + theta_max) if t_start is None else t_start
    return ConvexProgram(
        n_slots=n, h2=h2, step_sq_max=step_sq,
        pin_start=pins, pin_end=pins,
        p_scaled=np.full(n, p_scaled), g_u=np.full(n, g_u), obj_const=0.0,
        t_fea=np.full(n, t0),
        cone_eve_x=np.empty(0), cone_eve_y=np.empty(0), cone_q2=np.empty(0),
        cone_kx=np.empty((0, n)), cone_ky=np.empty((0, n)), cone_k0=np.empty((0, n)),
        aff_kx=np.zeros((1, n)), aff_ky=np.zeros((1, n)),
        aff_k0=np.full((1, n), theta_max),
        x_start=np.full(n, pins[0]), y_start=np.full(n, pins[1]),
        t_start=np.full(n, t0),
        xi_start=np.empty((0, n)),
        robust_eve_idx=(), point_eve_idx=(0,),
    )


class TestToyPrograms:
    def test_monotone_objective_rides_to_upper_bound(self):
        # maximize -log2(1 + 1/t) under H^2 <= t <= theta_max
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


# --------------------------------------------------------------------------
# independent cross-check: augmented Lagrangian on the same program data
# --------------------------------------------------------------------------

class _AugLag:
    """Hand-rolled constrained maximizer used only as a test oracle."""

    def __init__(self, prog: ConvexProgram):
        self.p = prog
        self.n = prog.n_slots
        self.kr = prog.cone_q2.shape[0]
        self.ka = prog.aff_kx.shape[0]
        self.width = 3 + self.kr

    def split(self, z):
        z = z.reshape(self.n, self.width)
        return z[:, 0], z[:, 1], z[:, 2], z[:, 3:].T

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
        for s in range(self.n):
            add(p.h2 - t[s], {(s, 2): -1.0})
        for k in range(self.kr):
            a = xi[k] + 1.0
            b = p.cone_eve_x[k] - x
            c = p.cone_eve_y[k] - y
            d = p.cone_kx[k] * x + p.cone_ky[k] * y - t - p.cone_q2[k] * xi[k] + p.cone_k0[k]
            for s in range(self.n):
                add(b[s] ** 2 + c[s] ** 2 - a[s] * d[s],
                    {(s, 0): -2.0 * b[s] - a[s] * p.cone_kx[k, s],
                     (s, 1): -2.0 * c[s] - a[s] * p.cone_ky[k, s],
                     (s, 2): a[s],
                     (s, 3 + k): -(d[s] - p.cone_q2[k] * a[s])})
                add(-xi[k, s], {(s, 3 + k): -1.0})
        for k in range(self.ka):
            d = p.aff_kx[k] * x + p.aff_ky[k] * y - t + p.aff_k0[k]
            for s in range(self.n):
                add(-d[s], {(s, 0): -p.aff_kx[k, s], (s, 1): -p.aff_ky[k, s],
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
        # keep disks clear of the flight corridor so the expansion point is
        # never inside one (which would make the subproblem boundary-only)
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
        z0 = np.zeros((prog.n_slots, oracle.width))
        z0[:, 0] = prog.x_start
        z0[:, 1] = prog.y_start
        z0[:, 2] = prog.t_start
        for i in range(oracle.kr):
            z0[:, 3 + i] = prog.xi_start[i]
        z_ref, obj_ref, cons = oracle.maximize(z0.ravel())
        assert cons.max() <= 1e-7  # oracle itself must end feasible
        assert res.objective == pytest.approx(obj_ref, abs=1e-6 * max(1.0, abs(obj_ref)))

    def test_last_stage_centers_below_merit_noise(self):
        """The last stages ask for Armijo decreases far below the merit's
        rounding (tau*eps*|f0|); stopping there left KKT residuals up to
        5.8e-7 on these programs.  Pure Newton steps at that floor center
        them fully."""
        for seed in range(60):
            scen, traj, powers = random_small_instance(seed)
            res = solve(assemble(traj, powers, scen))
            assert res.status == "optimal", seed
            assert res.kkt_residual <= 1e-7, seed


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
# Newton-step kernel: derivatives and fraction-to-boundary start
# --------------------------------------------------------------------------

def kernel_program():
    """N = 4 with two disks (cone rows), one point eavesdropper (affine row)
    and a silent slot (g_u = 0, so no objective curvature in its x and y)."""
    scen = make_scenario(flight_duration=2.0, n_slots=4,
                         start_xy=(-10.0, -10.0), end_xy=(10.0, -10.0),
                         eves=(EveRegion(-10.0, 4.0, 2.0), EveRegion(10.0, 4.0, 3.0),
                               EveRegion(0.0, 8.0, 0.0)))
    traj = best_effort_trajectory(scen)
    prog = assemble(traj, PowerSchedule([1e-3, 1e-3, 0.0, 1e-3]), scen)
    assert prog.cone_q2.shape[0] == 2 and prog.aff_kx.shape[0] == 1
    assert list(prog.g_u > 0) == [True, True, False, True]
    return prog


def direct_margins(prog, z, s):
    """Every barrier margin, written out from the program data, in the order
    of the solver's family table."""
    n = prog.n_slots
    zz = z.reshape(n, -1)
    x, y, t, xi = zz[:, 0], zz[:, 1], zz[:, 2], zz[:, 3:].T
    xpad = np.concatenate(([prog.pin_start[0]], x, [prog.pin_end[0]]))
    ypad = np.concatenate(([prog.pin_start[1]], y, [prog.pin_end[1]]))
    parts = [prog.step_sq_max - np.diff(xpad) ** 2 - np.diff(ypad) ** 2 + s,
             t - prog.h2 + s]
    for k in range(prog.cone_q2.shape[0]):
        d = (prog.cone_kx[k] * x + prog.cone_ky[k] * y - t
             - prog.cone_q2[k] * xi[k] + prog.cone_k0[k])
        parts.append((xi[k] + 1.0) * (d + s) - (prog.cone_eve_x[k] - x) ** 2
                     - (prog.cone_eve_y[k] - y) ** 2)
    parts.append(xi.ravel())
    for k in range(prog.aff_kx.shape[0]):
        parts.append(prog.aff_kx[k] * x + prog.aff_ky[k] * y - t + prog.aff_k0[k] + s)
    return np.concatenate(parts)


def merit(prog, z, s, tau, pull_in):
    m = direct_margins(prog, z, s)
    assert m.min() > 0.0
    if pull_in:
        obj = s
    else:
        zz = z.reshape(prog.n_slots, -1)
        obj = ((prog.g_u * (zz[:, 0] ** 2 + zz[:, 1] ** 2 + prog.h2)).sum()
               + (np.log1p(prog.p_scaled / zz[:, 2]) / LN2).sum())
    return tau * obj - np.log(m).sum()


def full_hessian(ws, ab):
    """The symmetric matrix stored in lower band form."""
    kd = ab.shape[0] - 1
    hess = np.zeros((ws.nz, ws.nz))
    for j in range(ws.nz):
        for i in range(j, min(ws.nz, j + kd + 1)):
            hess[i, j] = hess[j, i] = ab[i - j, j]
    return hess


def kernel_points():
    prog = kernel_program()
    ws = _Workspace(prog)
    z0 = ws.pack(prog.x_start, prog.y_start, prog.t_start, prog.xi_start)
    z, _, ok = _pull_in(ws, z0, SolverSettings())
    assert ok
    # pull-in mode is checked at the start point, main mode at the interior point
    return prog, ws, {True: (z0, ws.interior_deficit(z0) + 1.0),
                      False: (z, 0.0)}


class TestNewtonKernel:
    @pytest.mark.parametrize("pull_in", [True, False])
    def test_gradient_and_band_hessian_match_finite_differences(self, pull_in):
        prog, ws, points = kernel_points()
        z, s = points[pull_in]
        tau = 7.0
        gz, ab, gs, v, h = ws.assemble(ws.table(z, s), z, tau, pull_in)

        def grad(z_, s_):
            out = ws.assemble(ws.table(z_, s_), z_, tau, pull_in)
            return out[0], out[2]

        hess = full_hessian(ws, ab)
        fd_grad = np.empty(ws.nz)
        fd_hess = np.empty((ws.nz, ws.nz))
        for i in range(ws.nz):
            e = np.zeros(ws.nz)
            e[i] = 1e-6 * max(1.0, abs(z[i]))
            fd_grad[i] = (merit(prog, z + e, s, tau, pull_in)
                          - merit(prog, z - e, s, tau, pull_in)) / (2 * e[i])
            fd_hess[:, i] = (grad(z + e, s)[0] - grad(z - e, s)[0]) / (2 * e[i])
        scale = np.abs(gz).max()
        assert np.abs(gz - fd_grad).max() <= 1e-6 * scale
        assert np.abs(hess - fd_hess).max() <= 1e-6 * np.abs(hess).max()
        if pull_in:
            e = 1e-6 * max(1.0, s)
            fd_gs = (merit(prog, z, s + e, tau, True) - merit(prog, z, s - e, tau, True)) / (2 * e)
            (gz_p, gs_p), (gz_m, gs_m) = grad(z, s + e), grad(z, s - e)
            assert gs == pytest.approx(fd_gs, rel=1e-6)
            assert np.abs(v - (gz_p - gz_m) / (2 * e)).max() <= 1e-6 * np.abs(v).max()
            assert h == pytest.approx((gs_p - gs_m) / (2 * e), rel=1e-6)

    @pytest.mark.parametrize("pull_in", [True, False])
    def test_fraction_to_boundary_start_matches_brute_force_halving(self, pull_in):
        prog, ws, points = kernel_points()
        z, s = points[pull_in]
        fams = ws.table(z, s)
        rng = np.random.default_rng(20261018)
        starts = set()
        for _ in range(200):
            # random scales per block column (x, y, t, xi_1, xi_2) so that
            # every family, curved or flat, gets to bind
            scale = 10.0 ** rng.uniform(-3.0, 2.0, ws.B) * (rng.random(ws.B) < 0.7)
            dz = (rng.normal(size=(prog.n_slots, ws.B)) * scale).ravel()
            ds = float(rng.normal()) * s if pull_in else 0.0
            m0, m1, m2 = ws.ray(fams, dz, ds)
            # the polynomials are the margins along the ray
            a = float(rng.uniform(0.0, 2.0))
            terms = np.abs(m0) + np.abs(a * m1) + np.abs(a * a * m2)
            direct = direct_margins(prog, z + a * dz, s + a * ds)
            assert np.all(np.abs(m0 + a * (m1 + a * m2) - direct) <= 1e-9 * terms)
            step = first_step(m0, m1, m2)
            brute = next((0.5**k for k in range(96)
                          if direct_margins(prog, z + 0.5**k * dz,
                                            s + 0.5**k * ds).min() > 0.0), None)
            assert step == brute
            starts.add(step)
        assert len(starts) >= 8  # the directions reach several halving depths

    def test_first_step_on_hand_polynomials(self):
        def start(m0, m1, m2):
            return first_step(np.array([m0]), np.array([m1]), np.array([m2]))

        assert start(1.0, -4.0, 5.0) == 1.0       # no real root
        assert start(1.0, -4.0, 3.0) == 0.25      # roots 1/3 and 1
        assert start(1.0, -3.0, 0.0) == 0.25      # linear, root 1/3
        assert start(1.0, 0.0, -16.0) == 0.125    # root 1/4 itself is not interior
        assert start(1.0, 2.0, 1.0) == 1.0        # both roots negative
        assert start(1.0, -1e40, 0.0) is None     # root below 2^-95

    def test_initial_stage_start_keeps_most_of_every_margin(self):
        prog, ws, points = kernel_points()
        z, _ = points[False]
        fams = ws.table(z)
        m_now = direct_margins(prog, z, 0.0)
        rng = np.random.default_rng(20261019)
        bounded = set()
        full = 0
        for _ in range(200):
            scale = 10.0 ** rng.uniform(-3.0, 2.0, ws.B) * (rng.random(ws.B) < 0.7)
            dz = (rng.normal(size=(prog.n_slots, ws.B)) * scale).ravel()
            m0, m1, m2 = ws.ray(fams, dz, 0.0)
            exact = first_step(m0, m1, m2)
            assert line_search_start(m0, m1, m2, initial=False) == exact
            start = line_search_start(m0, m1, m2, initial=True)
            if exact is None or exact == 1.0:
                assert start == exact
                full += exact == 1.0
                continue
            keep = next((0.5**k for k in range(96)
                         if np.all(direct_margins(prog, z + 0.5**k * dz, 0.0)
                                   > 0.8 * m_now)), None)
            assert start == (exact if keep is None else keep)
            if start < exact:
                bounded.add(start)
        # both branches ran, and the bound cut the exact start at several depths
        assert full >= 10 and len(bounded) >= 4


def test_fine_slot_first_program_reaches_optimal():
    """paper_fig2 at 0.1 s slots (N = 1600), first convex step from the best-
    effort track at equal power.  With the exact start in the first centering
    stage two single margins collapsed and the solve ended max_iter after
    1006 Newton steps."""
    base = load_scenario(BENCHMARK_SCENARIO)
    scen = derive_scenario(dataclasses.replace(base, slot_len=0.1), "T", 160.0)
    assert scen.n_slots == 1600
    traj = best_effort_trajectory(scen)
    res = solve(assemble(traj, equal_power(scen), scen))
    assert res.status == "optimal"
    assert res.newton_iters <= 300
