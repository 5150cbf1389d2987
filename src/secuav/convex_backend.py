"""Barrier interior-point solver for the trajectory subproblem.

The program class is fixed: maximize a concave objective

    sum_n [ -g_u[n]*(x[n]^2 + y[n]^2 + H^2) - log2(1 + P[n]/t[n]) ]   (+ constant)

over per-slot variables (x, y, t), packed slot-major in blocks ``[x, y, t]``,
subject to

  * mobility balls   (x[n+1]-x[n])^2 + (y[n+1]-y[n])^2 <= L^2   (pinned ends),
  * a t floor        t >= H^2/2,
  * disk margins     t <= lin(q) - huber_r(|q - c|)  per (eavesdropper, slot),
                     with q = (x, y), lin = kx*x + ky*y + k0 and
                     huber_r(rho) = rho^2 for rho <= r, 2*r*rho - r^2 beyond.

lin is the tangent lower bound of |q - c|^2 + H^2 at the expansion point, so
lin - huber_r is at most (|q - c| - r)_+^2 + H^2, the true worst-case squared
distance to the disk of radius r around c (``robust_lmi`` derives the margin
from the S-procedure).  Radius-zero eavesdroppers are the case r = 0, an
affine row; when every radius is zero (the non-robust planner) the table
carries no Hessian entries.

Why the floor H^2/2 is safe.  The floor is no robustness constraint: the disk
margins alone bound t by the worst-case squared distance, and ``solve_step``
re-checks every returned t against ``worst_case_dist_sq``, which is at least
H^2.  The floor only keeps log2(1 + P/t) finite.  It must lie below H^2: at a
slot inside a disk lin - huber equals H^2 at the expansion point, so a floor
of H^2 leaves no interior there.

Everything is handled with logarithmic barriers and damped Newton steps; the
KKT matrices are block tridiagonal (slots couple only through the mobility
chain), so each step costs one banded Cholesky solve.

Interior start.  The warm start usually sits on the boundary: a track that
flies at maximum speed makes its mobility margins zero.  Every margin is
concave, so on the segment from the warm start to the straight track between
the pins (same t) each margin is at least the interpolation of its two ends.
At the warm start the floor and disk margins are positive (``assemble`` puts
t between the floor and the tight t), and on the straight track the mobility
margins are positive whenever the pins are closer than the (N+1)-step budget,
which ``scenario.validate`` demands.  So every point of the segment close
enough to the warm start, but off it, is interior.  The solver starts at the
step 2^-k along the segment of least barrier; the barrier is convex there, so
the search stops at its first increase.

Constraint families.  Every margin is concave, and the table at a point holds
two fixed families.  The mobility chain has one row per step, N+1 in all,
written in the step differences (dx, dy) = (x[j]-x[j-1], y[j]-y[j-1]); it
reaches the two slots of each step through the chain rule.  The slot-local
stack has K+1 rows over the N slots: row 0 is the t floor and rows 1..K the
disks.  Its gradient is (gx, gy) per row, zero on the floor row, and a fixed
t-sign per row (+1 floor, -1 disk); its Hessian entries xx, xy, yy form one
(3, K+1, N) array, or None when every radius is zero, since every row is
then affine.  All margins sit in one flat array of length m_bar, the chain
first and then the stack row by row.  The solver reads the table everywhere:

  * the margins serve the interior start, the domain check, the line search
    merit and the post-hoc margin of the result;
  * the Newton system adds -grad m / m to the gradient and
    grad m grad m^T / m^2 - hess m / m to the Hessian: the stack's terms are
    summed over its rows in one reduction into the 3x3 slot blocks, and the
    chain adds its diagonal and off-diagonal bands, all written straight into
    the lower band array that ``cholesky_banded`` reads;
  * along a Newton ray each margin is modelled by m0 + a*m1 + a^2*m2 in the
    step length a, with m1 = grad m . d and m2 = d^T (hess m) d / 2.  The model
    is exact for every quadratic row: the mobility and floor rows, r = 0 rows
    and disk rows inside their disk.  A disk row outside its disk is off by
    O(a^3).

Line search.  Once per Newton step the models are built.  Their smallest
positive root bounds the step (the exact fraction-to-boundary rule of Nocedal
& Wright, Numerical Optimization, sect. 19.2, for the quadratic rows); in
every centering stage the halving starts at ``first_step``, the largest power
of two below it.  A trial evaluates the table at the trial point, demands
every margin strictly positive there and computes the Armijo merit from those
margins.  The accepted trial's table supplies the next step's Newton system,
so a step that accepts its first trial builds one table.

Duality gap.  At the central point of weight tau the multipliers
1/(tau*m_i) are dual feasible and leave the gap m_bar/tau, with m_bar =
(N+1) + (K+1)*N margins (Boyd & Vandenberghe, Convex Optimization, sect.
11.2.2).  The argument uses only a concave objective and concave margins, not
quadratic or self-concordant ones, so the disk rows, whose Hessian jumps at
the rim, leave the bound intact.

Noise floor.  The merit tau*(f0 - f0_ref) + barrier is rounded to about
eps*(|merit| + tau*|f0_ref|); at tau ~ 1e9 that is ~1e-5, far above the
0.25*lambda^2 decrease the Armijo test asks for near the center.  Below that
floor the test cannot judge a step, and stopping there leaves the stage
loosely centered, with the leftover gradient in the x and y columns (KKT
residuals up to 5e-6 on small programs).  So at the floor the solver takes
full Newton steps without the test (the pure Newton phase of Boyd &
Vandenberghe, sect. 9.5.3) while the full step is interior and lambda^2 falls
at least 4x per step.  Mostly one or two such steps reach NEWTON_TOL;
where lambda^2 stops falling the stage ends loosely centered, and the gap
carries the sqrt(m)*lambda correction.  Without the 4x bound such stages ran
the programs of paper_fig2 at N = 1600 into the centering cap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import cholesky_banded, cho_solve_banded

from .geometry import LN2, log2_1p


# Solver constants, read at call time (a test may patch them).
OPT_TOL = 1e-8         # relative duality-gap target
MAX_NEWTON = 3000      # Newton budget per solve
MAX_CENTERING = 1000   # Newton cap per barrier stage
BARRIER_MU = 30.0      # barrier weight growth factor between stages
TAU0_GAP = 64.0        # initial gap (objective units) fixing the first tau
NEWTON_TOL = 1e-9      # centering stop on lambda^2 / 2


@dataclass
class SolverResult:
    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    objective: float        # maximized surrogate value, constants included
    status: str             # "optimal" | "max_iter" | "numerical_trouble"
    newton_iters: int
    duality_gap: float      # absolute bound, objective units
    kkt_residual: float     # scaled stationarity residual at the returned point
    min_margin: float       # smallest margin, evaluated directly at the result
    tau: float              # final barrier weight (1/tau = barrier multiplier scale)


OPTIMAL = "optimal"
MAX_ITER = "max_iter"
TROUBLE = "numerical_trouble"

# the floor t >= T_FLOOR * H^2 (see "Why the floor H^2/2 is safe")
T_FLOOR = 0.5

X, Y, T = range(3)  # block columns


class _Table(NamedTuple):
    """The two constraint families at one point (see "Constraint families")."""

    m: np.ndarray                  # (m_bar,) every margin: the chain, then the stack
    d: np.ndarray                  # (2, N+1) chain steps dx, dy
    g: np.ndarray                  # (2, K+1, N) stack gradient in x, y; row 0 zero
    h: np.ndarray | None           # (3, K+1, N) stack Hessian xx, xy, yy, or None


def first_step(m0, m1, m2):
    """Largest 2^-k (k < 96) below the first root of every m0 + a*m1 + a^2*m2.

    ``m0`` must be positive.  Returns None when no such step exists.
    """
    disc = m1 * m1 - 4.0 * m0 * m2
    # the smallest positive root is 2*m0/den when den > 0 and disc >= 0
    inv = (np.sqrt(np.maximum(disc, 0.0)) - m1) / (2.0 * m0)
    inv[disc < 0.0] = 0.0
    top = float(inv.max())
    a_max = 1.0 / top if top > 0.0 else math.inf
    step = 1.0
    for _ in range(96):
        if step < a_max:
            return step
        step *= 0.5
    return None


class _Workspace:
    """Layout, constraint table and Newton system of one program."""

    B = 3      # block columns per slot: x, y, t
    kd = B + 1  # bandwidth: x, y couple to the next slot's x, y
    # positions in a slot's row of the band, c*(kd+1) + d for the entry
    # (n*B + c + d, n*B + c): the slot block's xx, xy, yy, xt, yt, tt, and the
    # chain's couplings to the next slot, x'x, y'x, x'y, y'y
    _DIAG = [0, 1, 5, 2, 6, 10]
    _OFF = [3, 4, 7, 8]

    def __init__(self, prog):
        self.prog = prog
        self.N = N = prog.n_slots
        K = prog.eve_r.size
        self.nz = N * self.B
        self.h2 = prog.h2
        self.L2 = prog.step_sq_max
        self.t_min = T_FLOOR * prog.h2
        self.m_bar = (N + 1) + (K + 1) * N
        self.robust = bool(prog.eve_r.any())
        self.k = np.stack((prog.eve_kx, prog.eve_ky))        # (2, K, N)
        self.c = np.stack((prog.eve_x, prog.eve_y))[:, :, None]
        self.r = prog.eve_r[:, None]
        self.sign = np.repeat(np.r_[1.0, -np.ones(K)], N)   # dm/dt, stack flat
        # the stack gradient when every row is affine
        self.g_affine = np.concatenate((np.zeros((2, 1, N)), self.k), axis=1)
        # weighted stack terms: grad m / m (x, y, t), then the entries xx, xy,
        # yy, xt, yt, tt of grad m grad m^T / m^2 - hess m / m
        self.buf = np.empty((9, K + 1, N))
        # x, y between the pins, and a ray's dx, dy between pins that stay put
        self.qpad = np.column_stack((prog.pin_start, np.zeros((2, N)), prog.pin_end))
        self.dpad = np.zeros((2, N + 2))

    # -- packing ---------------------------------------------------------
    @staticmethod
    def pack(x, y, t) -> np.ndarray:
        return np.column_stack((x, y, t)).ravel()

    def rows(self, z) -> np.ndarray:
        """z as contiguous (B, N) rows x, y, t."""
        return z.reshape(self.N, self.B).T.copy()

    # -- constraint table --------------------------------------------------
    def table(self, z) -> _Table:
        """Both constraint families at z."""
        N = self.N
        Z = z.reshape(N, self.B)
        qpad = self.qpad
        qpad[:, 1:-1] = Z[:, :2].T
        q, t = qpad[:, 1:-1], Z[:, T]
        d = qpad[:, 1:] - qpad[:, :-1]
        m = np.empty(self.m_bar)
        chain, stack = m[:N + 1], m[N + 1:].reshape(-1, N)
        np.subtract(self.L2, np.add.reduce(d * d), out=chain)
        np.subtract(t, self.t_min, out=stack[0])
        disk = stack[1:]
        np.einsum('ikn,in->kn', self.k, q, out=disk)
        disk += self.prog.eve_k0
        disk -= t
        if not self.robust:  # every huber_0 vanishes: the disk rows are affine
            return _Table(m, d, self.g_affine, None)
        # w = q - c, phi = min(1, r/|w|) (0 for r = 0), and the outer branch's
        # curvature factor 2*phi/|w|^2 (0 inside the disk)
        w = q[:, None] - self.c
        w2 = np.einsum('ikn,ikn->kn', w, w)
        phi = np.minimum(1.0, self.r / np.maximum(np.sqrt(w2), 1e-300))
        two_phi = 2.0 * phi
        curv = (phi < 1.0) * two_phi / np.maximum(w2, 1e-300)
        disk -= (two_phi - phi * phi) * w2
        g = np.zeros(self.g_affine.shape)
        np.subtract(self.k, two_phi * w, out=g[:, 1:])
        h = np.zeros((3,) + stack.shape)
        cw = curv * w
        np.multiply(cw[0], w, out=h[:2, 1:])
        np.multiply(cw[1], w[1], out=h[2, 1:])
        h[::2, 1:] -= two_phi
        return _Table(m, d, g, h)

    def f0(self, z) -> float:
        p = self.prog
        Z = z.reshape(self.N, self.B)
        return float((p.g_u * (Z[:, X]**2 + Z[:, Y]**2 + self.h2)).sum()
                     + log2_1p(p.p_scaled / Z[:, T]).sum())

    # -- Newton system ----------------------------------------------------
    def assemble(self, tab: _Table, z, tau):
        """Gradient and Hessian of tau*f0 + barrier from the table at z.

        Returns (gz, ab), the Hessian in the lower band form that
        ``cholesky_banded`` reads.
        """
        N, B, kd = self.N, self.B, self.kd
        p = self.prog
        Z = z.reshape(N, B)
        t = Z[:, T]
        i1, i2 = 1.0 / t, 1.0 / (t + p.p_scaled)
        gt = (tau / LN2) * (i2 - i1)   # d(tau*f0)/dt
        curv = (2.0 * tau) * p.g_u
        # the stack, summed over its rows into the per-slot terms S
        w1 = 1.0 / tab.m[N + 1:]
        buf = self.buf.reshape(9, -1)
        np.multiply(tab.g.reshape(2, -1), w1, out=buf[:2])
        np.multiply(self.sign, w1, out=buf[2])
        # one product per call: a broadcast product within buf runs ~2x slower
        for row, (i, j) in enumerate(((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2)), 3):
            np.multiply(buf[i], buf[j], out=buf[row])
        if tab.h is not None:
            buf[3:6] -= tab.h.reshape(3, -1) * w1
        S = np.add.reduce(self.buf, axis=1)
        # the chain per step: grad m / m in x, y, then the xx, xy, yy entries
        wc = -2.0 / tab.m[:N + 1]
        C = np.empty((5, N + 1))
        np.multiply(tab.d, wc, out=C[:2])
        np.multiply(C[0], C[0], out=C[2])
        np.multiply(C[0], C[1], out=C[3])
        np.multiply(C[1], C[1], out=C[4])
        C[2::2] -= wc
        # a step's rows touch its head slot with +1 and its tail with -1
        S[:2] += C[:2, :-1] - C[:2, 1:]
        S[3:6] += C[2:, :-1] + C[2:, 1:]
        # the objective's curvature in x, y and t
        S[3:6:2] += curv
        S[8] -= gt * (i1 + i2)
        # column-major, as LAPACK stores it: band[n, c*(kd+1) + d] = ab[d, n*B + c]
        band = np.zeros((N, B * (kd + 1)))
        band[:, self._DIAG] = S[3:].T
        for pos, row in zip(self._OFF, (2, 3, 3, 4)):  # the chain's xx, xy, xy, yy
            np.negative(C[row, 1:-1], out=band[:-1, pos])
        G = S[:3]   # objective gradient minus the sum of grad m / m
        np.subtract(curv * Z[:, :2].T, G[:2], out=G[:2])
        np.subtract(gt, G[T], out=G[T])
        return G.T.ravel(), band.reshape(self.nz, kd + 1).T

    @staticmethod
    def solve_kkt(ab, gz):
        # in the lower form LAPACK's unblocked factorization reads contiguous
        # columns; it ran ~40% faster than the upper form at N = 1600
        cfac = cholesky_banded(ab, lower=True)
        return cho_solve_banded((cfac, True), -gz)

    # -- line search -------------------------------------------------------
    def ray(self, tab: _Table, dz):
        """Second-order model m0 + a*m1 + a^2*m2 of the margins along
        z + a*dz, flat; exact on the quadratic rows."""
        N = self.N
        D = dz.reshape(N, self.B).T
        dpad = self.dpad
        dpad[:, 1:-1] = D[:2]
        dd = dpad[:, 1:] - dpad[:, :-1]
        m1, m2 = np.empty(self.m_bar), np.zeros(self.m_bar)
        np.multiply(-2.0, np.add.reduce(tab.d * dd), out=m1[:N + 1])
        np.negative(np.add.reduce(dd * dd), out=m2[:N + 1])
        stack1 = m1[N + 1:].reshape(-1, N)
        np.add.reduce(tab.g * D[:2, None], out=stack1)
        stack1 += self.sign.reshape(-1, N) * D[T]
        if tab.h is not None:
            # d^T (hess m) d / 2 from the entries xx, xy, yy
            dq = np.empty((3, N))
            np.multiply(D[X], D[:2], out=dq[:2])
            np.multiply(D[Y], D[Y], out=dq[2])
            dq[::2] *= 0.5
            np.add.reduce(tab.h * dq[:, None], out=m2[N + 1:].reshape(-1, N))
        return tab.m, m1, m2


# A stage may end slightly off-center when float resolution of the merit
# (which scales with tau*|f0|) swallows the remaining decrements.  Exits with
# lambda^2/2 below this are still accepted; the reported duality gap carries
# the sqrt(m)*lambda correction, which stays well under one percent.
_LOOSE_CENTER_TOL = 2.5e-2


def _loose_status(lam2) -> str:
    """Status of a stage that stops above NEWTON_TOL."""
    return "centered" if lam2 / 2.0 <= _LOOSE_CENTER_TOL else "trouble"


def _center(ws: _Workspace, z, tab: _Table, tau):
    """Damped Newton to the central point at barrier weight tau.

    ``tab`` is the table at z.  Returns (z, tab, iters, status, lam2) with
    status "centered" (lambda^2/2 <= NEWTON_TOL, or a loose exit that
    ``_loose_status`` accepts), "budget" (MAX_CENTERING steps) or "trouble".
    Armijo acceptance keeps the merit tau*f0 + barrier non-increasing, up to
    its floating-point resolution; below that resolution the stage takes pure
    Newton steps ("Noise floor").
    """
    # measure the objective relative to the entry point: tau*f0 alone can reach
    # 1e13, whose float resolution would swallow the remaining decrements
    f0_ref = ws.f0(z)
    cur = -float(np.log(tab.m).sum())
    iters = 0
    lam2 = math.inf
    pure_lam2 = math.inf  # lambda^2 before the last pure Newton step
    eps8 = 8.0 * np.finfo(float).eps
    while iters < MAX_CENTERING:
        resolution = eps8 * max(1.0, abs(cur))
        gz, ab = ws.assemble(tab, z, tau)
        try:
            dz = ws.solve_kkt(ab, gz)
        except np.linalg.LinAlgError:
            return z, tab, iters, "trouble", lam2
        lam2 = -float(gz @ dz)
        if lam2 < -1e-6 * max(1.0, abs(cur)):
            return z, tab, iters, "trouble", lam2
        if lam2 / 2.0 <= NEWTON_TOL:
            return z, tab, iters, "centered", lam2
        step = first_step(*ws.ray(tab, dz))
        if step is None:
            return z, tab, iters, "trouble", lam2
        # the merit cannot resolve the Armijo decrease: go on with full steps
        # only while they are interior and lambda^2 falls 4x ("Noise floor")
        pure = 0.25 * lam2 <= resolution + eps8 * tau * abs(f0_ref)
        if pure and (step < 1.0 or 4.0 * lam2 > pure_lam2):
            return z, tab, iters, _loose_status(lam2), lam2
        for _ in range(1 if pure else 60):
            z_new = z + step * dz
            tab_new = ws.table(z_new)
            if tab_new.m.min() > 0.0:
                new = tau * (ws.f0(z_new) - f0_ref) - float(np.log(tab_new.m).sum())
                if pure or new <= cur - 0.25 * step * lam2 + resolution:
                    break
            step *= 0.5
        else:  # no trial accepted
            return z, tab, iters, _loose_status(lam2), lam2
        z, tab, cur = z_new, tab_new, new
        if pure:
            pure_lam2 = lam2
        iters += 1
    return z, tab, iters, "budget", lam2


def _interior_start(ws: _Workspace, z0):
    """Strictly interior start on the segment from z0 to the straight track.

    The track joins the pins at z0's t.  Returns z0 + 2^-k * (track - z0) for
    the k < 60 of least barrier, or None when none of those points is interior
    (see "Interior start").
    """
    p = ws.prog
    frac = np.arange(1, ws.N + 1) / (ws.N + 1)
    (x0, y0), (x1, y1) = p.pin_start, p.pin_end
    track = ws.pack(x0 + frac * (x1 - x0), y0 + frac * (y1 - y0), ws.rows(z0)[T])
    best, best_barrier = None, math.inf
    for k in range(60):
        z = z0 + 0.5**k * (track - z0)
        m = ws.table(z).m
        barrier = -float(np.log(m).sum()) if m.min() > 0.0 else math.inf
        if barrier < best_barrier:
            best, best_barrier = z, barrier
        elif best is not None:
            break
    return best


def solve(program) -> SolverResult:
    """Solve the assembled subproblem; deterministic for fixed inputs.

    ``program`` is a ConvexProgram (see trajectory_sca).  The first stage has
    tau = m_bar/TAU0_GAP and each next one BARRIER_MU times more; the solve
    ends after MAX_NEWTON Newton steps at the latest.  A returned status of
    "optimal" certifies strict feasibility (checked by direct evaluation) and
    a duality gap at most OPT_TOL relative to the objective scale.
    """
    ws = _Workspace(program)
    z0 = ws.pack(program.x_start, program.y_start, program.t_start)

    def result(z, status, iters, tau, gap):
        x, y, t = ws.rows(z)
        tab = ws.table(z)
        min_margin = float(tab.m.min())
        if status == OPTIMAL and min_margin <= 0.0:
            status = TROUBLE
        usable = min_margin > 0.0 and tau > 0
        if usable:
            objective = program.obj_const - ws.f0(z)
            gz = ws.assemble(tab, z, tau)[0]
            kkt = float(np.abs(gz).max() / tau)
        else:
            objective = -math.inf
            kkt = math.inf
        return SolverResult(x=x, y=y, t=t, objective=objective,
                            status=status, newton_iters=iters,
                            duality_gap=gap, kkt_residual=kkt,
                            min_margin=min_margin, tau=tau)

    z = _interior_start(ws, z0)
    if z is None:
        return result(z0, TROUBLE, 0, 0.0, math.inf)

    tab = ws.table(z)
    tau = ws.m_bar / TAU0_GAP
    total = 0
    while True:
        z, tab, it, cstat, lam2 = _center(ws, z, tab, tau)
        total += it
        if cstat == "trouble":
            return result(z, TROUBLE, total, tau, math.inf)
        # off-center exits widen the certified gap by sqrt(m)*lambda
        lam_corr = math.sqrt(ws.m_bar * max(lam2, 0.0)) if math.isfinite(lam2) else 0.0
        gap = (ws.m_bar + lam_corr) / tau
        obj_scale = max(1.0, abs(program.obj_const - ws.f0(z)))
        if gap <= OPT_TOL * obj_scale:
            return result(z, OPTIMAL, total, tau, gap)
        if cstat == "budget" or total >= MAX_NEWTON:
            return result(z, MAX_ITER, total, tau, gap)
        tau *= BARRIER_MU
