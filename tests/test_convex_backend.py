import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from secuav import convex_backend
from secuav.convex_backend import _interior_start, _Workspace, first_step, solve
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
        # one radius-zero eavesdropper with a flat row: t <= theta_max
        eve_x=np.zeros(1), eve_y=np.zeros(1), eve_r=np.zeros(1),
        eve_kx=np.zeros((1, n)), eve_ky=np.zeros((1, n)),
        eve_k0=np.full((1, n), theta_max),
        x_start=np.full(n, pins[0]), y_start=np.full(n, pins[1]),
        t_start=np.full(n, t0),
    )


class TestToyPrograms:
    def test_monotone_objective_rides_to_upper_bound(self):
        # maximize -log2(1 + 1/t) under H^2/2 <= t <= theta_max
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
        return p.eve_kx[k] * x + p.eve_ky[k] * y + p.eve_k0[k]

    def start(self):
        """The program's start with the best multipliers of its blocks."""
        p = self.p
        z0 = np.zeros((self.n, self.width))
        z0[:, 0], z0[:, 1], z0[:, 2] = p.x_start, p.y_start, p.t_start
        for i, k in enumerate(self.robust):
            q2 = p.eve_r[k] ** 2
            slack = self.lin(k, p.x_start, p.y_start) - p.t_start
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
        for s in range(self.n):
            add(0.5 * p.h2 - t[s], {(s, 2): -1.0})
        for i, k in enumerate(self.robust):
            q2 = p.eve_r[k] ** 2
            a = xi[i] + 1.0
            b = p.eve_x[k] - x
            c = p.eve_y[k] - y
            d = self.lin(k, x, y) - t - q2 * xi[i]
            for s in range(self.n):
                add(b[s] ** 2 + c[s] ** 2 - a[s] * d[s],
                    {(s, 0): -2.0 * b[s] - a[s] * p.eve_kx[k, s],
                     (s, 1): -2.0 * c[s] - a[s] * p.eve_ky[k, s],
                     (s, 2): a[s],
                     (s, 3 + i): -(d[s] - q2 * a[s])})
                add(-xi[i, s], {(s, 3 + i): -1.0})
        for k in self.point:
            d = self.lin(k, x, y) - t
            for s in range(self.n):
                add(-d[s], {(s, 0): -p.eve_kx[k, s], (s, 1): -p.eve_ky[k, s],
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
    """N = 4 with two disks, one point eavesdropper (an affine row) and a
    silent slot (g_u = 0, so no objective curvature in its x and y).  Slot 2
    of the start lies inside the first disk, so both branches of the disk
    margin are in play."""
    scen = make_scenario(flight_duration=2.0, n_slots=4,
                         start_xy=(-10.0, -10.0), end_xy=(10.0, -10.0),
                         eves=(EveRegion(-3.0, -4.0, 2.0), EveRegion(10.0, 4.0, 3.0),
                               EveRegion(0.0, 8.0, 0.0)))
    traj = best_effort_trajectory(scen)
    prog = assemble(traj, PowerSchedule([1e-3, 1e-3, 0.0, 1e-3]), scen)
    assert list(prog.eve_r) == [2.0, 3.0, 0.0]
    assert list(prog.g_u > 0) == [True, True, False, True]
    assert list(inside_disks(prog, prog.x_start, prog.y_start)[0]) == [False, True, False, False]
    return prog


def inside_disks(prog, x, y):
    """(K, N) mask of the slots strictly inside each disk."""
    return np.hypot(x - prog.eve_x[:, None], y - prog.eve_y[:, None]) < prog.eve_r[:, None]


def direct_margins(prog, z):
    """Every barrier margin, written out from the program data, in the order
    of the solver's flat margins: the mobility chain, the t floor, the disks."""
    n = prog.n_slots
    zz = z.reshape(n, 3)
    x, y, t = zz[:, 0], zz[:, 1], zz[:, 2]
    xpad = np.concatenate(([prog.pin_start[0]], x, [prog.pin_end[0]]))
    ypad = np.concatenate(([prog.pin_start[1]], y, [prog.pin_end[1]]))
    parts = [prog.step_sq_max - np.diff(xpad) ** 2 - np.diff(ypad) ** 2,
             t - 0.5 * prog.h2]
    for k, r in enumerate(prog.eve_r):
        rho = np.hypot(x - prog.eve_x[k], y - prog.eve_y[k])
        huber = np.where(rho <= r, rho**2, 2.0 * r * rho - r**2)
        lin = prog.eve_kx[k] * x + prog.eve_ky[k] * y + prog.eve_k0[k]
        parts.append(lin - t - huber)
    return np.concatenate(parts)


def quadratic_rows(prog, z, z_end):
    """Mask of the rows whose margin is a quadratic on the segment z -> z_end:
    all but the disk rows with r > 0 that are not inside their disk at both
    ends (a disk is convex, so then the whole segment is inside)."""
    n = prog.n_slots
    inside = (inside_disks(prog, *z.reshape(n, 3)[:, :2].T)
              & inside_disks(prog, *z_end.reshape(n, 3)[:, :2].T))
    disk = inside | (prog.eve_r == 0.0)[:, None]
    return np.concatenate((np.ones(2 * n + 1, bool), disk.ravel()))


def merit(prog, z, tau):
    m = direct_margins(prog, z)
    assert m.min() > 0.0
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


def straight_track(prog, z0):
    """The straight track between the pins at z0's t, packed like z0."""
    n = prog.n_slots
    frac = np.linspace(0.0, 1.0, n + 2)[1:-1]
    track = z0.reshape(n, 3).copy()
    track[:, 0] = prog.pin_start[0] + frac * (prog.pin_end[0] - prog.pin_start[0])
    track[:, 1] = prog.pin_start[1] + frac * (prog.pin_end[1] - prog.pin_start[1])
    return track.ravel()


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
    z0 = ws.pack(prog.x_start, prog.y_start, prog.t_start)
    inside = z0 + 0.25 * (straight_track(prog, z0) - z0)
    assert inside_disks(prog, *inside.reshape(4, 3)[:, :2].T)[0, 1]
    assert direct_margins(prog, inside).min() > 0.0
    points = {"start": _interior_start(ws, z0), "inside": inside}
    if radii == "zero":
        prog = dataclasses.replace(prog, eve_r=np.zeros(3))
        ws = _Workspace(prog)
        assert ws.table(z0).h is None
    return prog, ws, points


def random_direction(rng, prog, ws):
    # random scales per block column (x, y, t) so that every family, curved
    # or flat, gets to bind
    scale = 10.0 ** rng.uniform(-3.0, 2.0, ws.B) * (rng.random(ws.B) < 0.7)
    return (rng.normal(size=(prog.n_slots, ws.B)) * scale).ravel()


class TestNewtonKernel:
    @pytest.mark.parametrize("point, radii", [
        ("start", "kernel"), ("inside", "kernel"), ("start", "zero"), ("inside", "zero")],
        ids=["start", "inside", "start-zero", "inside-zero"])
    def test_gradient_and_band_hessian_match_finite_differences(self, point, radii):
        prog, ws, points = kernel_points(radii)
        z = points[point]
        tau = 7.0
        gz, ab = ws.assemble(ws.table(z), z, tau)

        def grad(z_):
            return ws.assemble(ws.table(z_), z_, tau)[0]

        hess = full_hessian(ws, ab)
        fd_grad = np.empty(ws.nz)
        fd_hess = np.empty((ws.nz, ws.nz))
        for i in range(ws.nz):
            e = np.zeros(ws.nz)
            e[i] = 1e-6 * max(1.0, abs(z[i]))
            fd_grad[i] = (merit(prog, z + e, tau) - merit(prog, z - e, tau)) / (2 * e[i])
            fd_hess[:, i] = (grad(z + e) - grad(z - e)) / (2 * e[i])
        scale = np.abs(gz).max()
        assert np.abs(gz - fd_grad).max() <= 1e-6 * scale
        assert np.abs(hess - fd_hess).max() <= 1e-6 * np.abs(hess).max()

    @pytest.mark.parametrize("radii", ["kernel", "zero"])
    def test_fraction_to_boundary_start_matches_brute_force_halving(self, radii):
        prog, ws, points = kernel_points(radii)
        z = points["start"]
        tab = ws.table(z)
        rng = np.random.default_rng(20261018)
        starts = set()
        for _ in range(200):
            dz = random_direction(rng, prog, ws)
            m0, m1, m2 = ws.ray(tab, dz)
            # the model is the margins along the ray on every quadratic row
            a = float(rng.uniform(0.0, 2.0))
            terms = np.abs(m0) + np.abs(a * m1) + np.abs(a * a * m2)
            direct = direct_margins(prog, z + a * dz)
            quad = quadratic_rows(prog, z, z + a * dz)
            assert np.all(np.abs(m0 + a * (m1 + a * m2) - direct)[quad] <= 1e-9 * terms[quad])
            step = first_step(m0, m1, m2)
            brute = next((0.5**k for k in range(96)
                          if (m0 + 0.5**k * (m1 + 0.5**k * m2)).min() > 0.0), None)
            assert step == brute
            starts.add(step)
        assert len(starts) >= 8  # the directions reach several halving depths

    def test_disk_model_error_is_third_order(self):
        """Outside its disk a disk margin is not quadratic along a ray; the
        model misses it by O(a^3), so halving a cuts the error 8x."""
        prog, ws, points = kernel_points()
        z = points["start"]
        tab = ws.table(z)
        rng = np.random.default_rng(20261020)
        n = prog.n_slots
        outer = np.concatenate((np.zeros(2 * n + 1, bool),
                                ((prog.eve_r > 0.0)[:, None]
                                 & ~inside_disks(prog, *z.reshape(n, 3)[:, :2].T)).ravel()))
        checked = 0
        for _ in range(20):
            dz = rng.normal(size=ws.nz)
            m0, m1, m2 = ws.ray(tab, dz)
            steps = 0.5 ** np.arange(3, 9)
            err = np.array([np.abs(m0 + a * (m1 + a * m2) - direct_margins(prog, z + a * dz))
                            for a in steps])[:, outer]
            big = err[-1] > 1e-11  # well above rounding at the smallest step
            ratio = err[-2, big] / err[-1, big]
            assert np.all((ratio > 7.5) & (ratio < 8.5))
            checked += int(big.sum())
        assert checked >= 100

    def test_first_step_on_hand_polynomials(self):
        def start(m0, m1, m2):
            return first_step(np.array([m0]), np.array([m1]), np.array([m2]))

        assert start(1.0, -4.0, 5.0) == 1.0       # no real root
        assert start(1.0, -4.0, 3.0) == 0.25      # roots 1/3 and 1
        assert start(1.0, -3.0, 0.0) == 0.25      # linear, root 1/3
        assert start(1.0, 0.0, -16.0) == 0.125    # root 1/4 itself is not interior
        assert start(1.0, 2.0, 1.0) == 1.0        # both roots negative
        assert start(1.0, -1e40, 0.0) is None     # root below 2^-95


def fine_slot_program():
    """paper_fig2 at 0.1 s slots (N = 1600): the first convex step from the
    best-effort track at equal power."""
    base = load_scenario(BENCHMARK_SCENARIO)
    scen = derive_scenario(dataclasses.replace(base, slot_len=0.1), "T", 160.0)
    assert scen.n_slots == 1600
    return assemble(best_effort_trajectory(scen), equal_power(scen), scen)


def small_program():
    """N = 3: the straight track itself is interior, and the least barrier
    lies at 2^-4 along the segment."""
    scen, traj, powers = random_small_instance(8)
    return assemble(traj, powers, scen)


class TestInteriorStart:
    @pytest.mark.parametrize("make", [kernel_program, fine_slot_program, small_program])
    def test_least_barrier_power_of_two_step_on_the_segment(self, make):
        prog = make()
        ws = _Workspace(prog)
        z0 = ws.pack(prog.x_start, prog.y_start, prog.t_start)
        z = _interior_start(ws, z0)
        assert direct_margins(prog, z).min() > 0.0
        # brute force over every halving step of the segment
        track = straight_track(prog, z0)
        barriers = []
        for k in range(60):
            m = direct_margins(prog, z0 + 0.5**k * (track - z0))
            barriers.append(-np.log(m).sum() if m.min() > 0.0 else math.inf)
        k = int(np.argmin(barriers))
        assert np.allclose(z, z0 + 0.5**k * (track - z0), rtol=0.0, atol=1e-9)

    def test_pins_a_full_budget_apart_leave_no_interior(self):
        """Pins (N+1)*L apart force the straight track at full speed, so no
        point has positive mobility margins (``validate`` rejects such a
        scenario)."""
        prog = dataclasses.replace(
            toy_program(n=3), pin_start=(-2.0, 0.0), pin_end=(2.0, 0.0),
            x_start=np.array([-1.0, 0.0, 1.0]), y_start=np.zeros(3))
        ws = _Workspace(prog)
        assert _interior_start(ws, ws.pack(prog.x_start, prog.y_start, prog.t_start)) is None
        res = solve(prog)
        assert res.status == "numerical_trouble"
        assert res.newton_iters == 0


def test_fine_slot_first_program_reaches_optimal():
    """Single margins that collapse early in centering let Newton crawl on
    this program (up to 1006 steps and max_iter)."""
    res = solve(fine_slot_program())
    assert res.status == "optimal"
    assert res.newton_iters <= 300


class TestFailureExits:
    def test_failed_factorization_is_numerical_trouble(self, monkeypatch):
        """A factorization that raises ends the solve as numerical_trouble,
        and solve_step then hands back its expansion point."""
        calls = []

        def singular(ab, lower):
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

    def test_centering_cap_is_max_iter(self, monkeypatch):
        monkeypatch.setattr(convex_backend, "MAX_CENTERING", 5)
        res = solve(kernel_program())
        assert res.status == "max_iter"
        assert res.newton_iters == 5
        assert res.min_margin > 0.0
