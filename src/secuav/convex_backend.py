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
writes the family without Hessian entries.

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

Constraint families.  Every margin is concave, and one table describes the
three families (mobility ball, t floor, disk).  At a point each family gives
its margins m over (rows, slots), with eavesdroppers as rows, the gradient of
m per block column and its Hessian entries, constants or per-row arrays.  The
mobility family is written in the step differences (x[j]-x[j-1],
y[j]-y[j-1]) and reaches the two slots of each step through the chain rule;
the others are slot-local.  The solver reads the table everywhere:

  * the margins serve the interior start, the domain check, the line search
    merit and the post-hoc margin of the result;
  * the Newton system adds -grad m / m to the gradient and
    grad m grad m^T / m^2 - hess m / m to the Hessian, written straight into
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
so a step that accepts its first trial makes one pass over the families.

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
at least 4x per step.  Mostly one or two such steps reach ``newton_tol``;
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


@dataclass(frozen=True)
class SolverSettings:
    opt_tol: float = 1e-8              # relative duality-gap target
    max_newton_iters: int = 3000       # Newton budget per solve
    max_centering_iters: int = 1000    # Newton cap per barrier stage
    barrier_mu: float = 30.0           # barrier parameter growth factor
    tau0_gap: float = 64.0             # initial gap (objective units) fixing tau0
    newton_tol: float = 1e-9           # centering stop on lambda^2 / 2

    def __post_init__(self):
        if min(self.opt_tol, self.newton_tol) <= 0:
            raise ValueError("tolerances must be positive")


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

_RIDGES = (0.0, 1e-13, 1e-10, 1e-7)

# block columns, the keys of a family's gradient and Hessian entries
X, Y, T = range(3)


class _Family(NamedTuple):
    """One constraint family at one point."""

    m: np.ndarray                  # margins: (rows, slots), (slots,) or chain steps
    grad: dict                     # key -> dm/dkey, broadcastable to m; keys ascending
    hess: dict                     # (ki, kj), ki <= kj -> d2m/dki dkj, broadcastable to m
    chain: bool = False            # rows are the mobility steps j-1 -> j


def _flat(parts) -> np.ndarray:
    return np.concatenate([np.ravel(p) for p in parts])


def _total(terms):
    """Sum of arrays, or None for no terms."""
    out = None
    for term in terms:
        out = term if out is None else out + term
    return out


def _min_margin(fams) -> float:
    return min(float(f.m.min()) for f in fams)


def _steps(v, first, last) -> np.ndarray:
    """The N+1 differences of [first, *v, last]."""
    out = np.empty(v.size + 1)
    out[:-1] = v
    out[-1] = last
    out[1:] -= v
    out[0] -= first
    return out


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
    """Layout, constraint-family table and Newton system of one program."""

    B = 3      # block columns per slot: x, y, t
    kd = B + 1  # bandwidth: x, y couple to the next slot's x, y

    def __init__(self, prog):
        self.prog = prog
        self.N = N = prog.n_slots
        self.nz = N * self.B
        self.h2 = prog.h2
        self.L2 = prog.step_sq_max
        self.m_bar = (N + 1) + (prog.eve_r.size + 1) * N
        self.robust = bool(prog.eve_r.any())

    # -- packing ---------------------------------------------------------
    @staticmethod
    def pack(x, y, t) -> np.ndarray:
        return np.column_stack((x, y, t)).ravel()

    def rows(self, z) -> np.ndarray:
        """z as contiguous (B, N) rows x, y, t."""
        return z.reshape(self.N, self.B).T.copy()

    # -- constraint-family table -----------------------------------------
    def table(self, z) -> list[_Family]:
        """Every constraint family at z."""
        p = self.prog
        x, y, t = self.rows(z)
        dx = _steps(x, p.pin_start[0], p.pin_end[0])
        dy = _steps(y, p.pin_start[1], p.pin_end[1])
        fams = [
            _Family(self.L2 - dx**2 - dy**2, {X: -2.0 * dx, Y: -2.0 * dy},
                    {(X, X): -2.0, (Y, Y): -2.0}, chain=True),
            _Family(t - T_FLOOR * self.h2, {T: 1.0}, {}),
        ]
        m = p.eve_kx * x + p.eve_ky * y + p.eve_k0 - t
        if not self.robust:  # every huber_0 vanishes: the disk rows are affine
            fams.append(_Family(m, {X: p.eve_kx, Y: p.eve_ky, T: -1.0}, {}))
            return fams
        # w = q - c, phi = min(1, r/|w|) (0 for r = 0), and the outer branch's
        # curvature factor 2*phi/|w|^2 (0 inside the disk)
        r = p.eve_r[:, None]
        wx = x - p.eve_x[:, None]
        wy = y - p.eve_y[:, None]
        w2 = wx * wx + wy * wy
        phi = np.minimum(1.0, r / np.maximum(np.sqrt(w2), 1e-300))
        two_phi = 2.0 * phi
        curv = (phi < 1.0) * two_phi / np.maximum(w2, 1e-300)
        cx = curv * wx
        fams.append(_Family(
            m - (two_phi - phi * phi) * w2,
            {X: p.eve_kx - two_phi * wx, Y: p.eve_ky - two_phi * wy, T: -1.0},
            {(X, X): cx * wx - two_phi, (X, Y): cx * wy,
             (Y, Y): curv * wy * wy - two_phi}))
        return fams

    def margins(self, z) -> np.ndarray:
        """All constraint margins, flat; strictly positive means interior."""
        return _flat(f.m for f in self.table(z))

    def f0(self, z) -> float:
        p = self.prog
        Z = z.reshape(self.N, self.B)
        return float((p.g_u * (Z[:, X]**2 + Z[:, Y]**2 + self.h2)).sum()
                     + log2_1p(p.p_scaled / Z[:, T]).sum())

    # -- Newton system ----------------------------------------------------
    @staticmethod
    def _add_vec(G, f: _Family, key, vals):
        """Add per-row values of one key into the (B, N) rows G of a vector."""
        if f.chain:
            G[key] += vals[:-1] - vals[1:]
        else:
            G[key] += vals.sum(0) if vals.ndim == 2 else vals

    def _add_band(self, V, f: _Family, ki, kj, W):
        """Add per-row Hessian entries (ki, kj) into the band view V, where
        V[d, n, c] holds the matrix entry (n*B + c + d, n*B + c)."""
        if f.chain:
            # a step's rows touch its head slot with +1 and its tail with -1
            B = self.B
            V[kj - ki, :, ki] += W[:-1] + W[1:]
            V[B + kj - ki, :-1, ki] -= W[1:-1]
            if ki != kj:
                V[B + ki - kj, :-1, kj] -= W[1:-1]
        else:
            V[kj - ki, :, ki] += W.sum(0) if W.ndim == 2 else W

    def assemble(self, fams, z, tau):
        """Gradient and Hessian of tau*f0 + barrier from the table at z.

        Returns (gz, ab), the Hessian in the lower band form that
        ``cholesky_banded`` reads.
        """
        N, B, kd = self.N, self.B, self.kd
        p = self.prog
        Z = z.reshape(N, B)
        t = Z[:, T]
        i1, i2 = 1.0 / t, 1.0 / (t + p.p_scaled)
        curv = 2.0 * tau * p.g_u
        G = np.empty((B, N))   # objective gradient, as rows like z
        G[X] = curv * Z[:, X]
        G[Y] = curv * Z[:, Y]
        G[T] = (tau / LN2) * (i2 - i1)
        Gb = np.zeros((B, N))  # sum of grad m / m
        # column-major, as LAPACK stores it; V[d, n, c] = ab[d, n*B + c]
        band = np.zeros((N, B, kd + 1))
        ab = band.reshape(self.nz, kd + 1).T
        V = band.transpose(2, 0, 1)
        V[0, :, X] = curv
        V[0, :, Y] = curv
        V[0, :, T] = (tau / LN2) * (i1 * i1 - i2 * i2)
        for f in fams:
            w1 = 1.0 / f.m
            gw = {k: g * w1 for k, g in f.grad.items()}  # grad m / m per key
            keys = list(gw)
            for i, ki in enumerate(keys):
                self._add_vec(Gb, f, ki, gw[ki])
                for kj in keys[i:]:
                    W = gw[ki] * gw[kj]
                    if (ki, kj) in f.hess:
                        W = W - f.hess[ki, kj] * w1
                    self._add_band(V, f, ki, kj, W)
        return (G - Gb).T.ravel(), ab

    @staticmethod
    def solve_kkt(ab, gz, ridge: float):
        if ridge > 0.0:
            ab = ab.copy()
            ab[0, :] += ridge * max(1.0, ab[0, :].max())
        # in the lower form LAPACK's unblocked factorization reads contiguous
        # columns; it ran ~40% faster than the upper form at N = 1600
        cfac = cholesky_banded(ab, lower=True)
        return cho_solve_banded((cfac, True), -gz)

    # -- line search -------------------------------------------------------
    def ray(self, fams, dz):
        """Second-order model m0 + a*m1 + a^2*m2 of the margins along
        z + a*dz, flat; exact on the quadratic rows."""
        D = self.rows(dz)
        m1s, m2s = [], []
        for f in fams:
            # the pins do not move
            d = {k: _steps(D[k], 0.0, 0.0) if f.chain else D[k] for k in f.grad}
            m1s.append(_total(f.grad[k] * dk for k, dk in d.items()))
            m2 = _total((0.5 * hk if ki == kj else hk) * d[ki] * d[kj]
                        for (ki, kj), hk in f.hess.items())
            m2s.append(np.zeros(f.m.shape) if m2 is None else m2)
        return _flat(f.m for f in fams), _flat(m1s), _flat(m2s)


# A stage may end slightly off-center when float resolution of the merit
# (which scales with tau*|f0|) swallows the remaining decrements.  Exits with
# lambda^2/2 below this are still accepted; the reported duality gap carries
# the sqrt(m)*lambda correction, which stays well under one percent.
_LOOSE_CENTER_TOL = 2.5e-2


def _loose_status(lam2) -> str:
    """Status of a stage that stops above ``newton_tol``."""
    return "centered" if lam2 / 2.0 <= _LOOSE_CENTER_TOL else "trouble"


def _center(ws: _Workspace, z, tau, settings):
    """Damped Newton to the central point at barrier weight tau.

    Returns (z, iters, status, lam2) with status in {"centered", "budget",
    "trouble"}.  The merit tau*f0 + barrier is asserted non-increasing across
    Armijo steps, up to its floating-point resolution; below that resolution
    the stage takes pure Newton steps ("Noise floor").
    """
    # measure the objective relative to the entry point: tau*f0 alone can reach
    # 1e13, whose float resolution would swallow the remaining decrements
    f0_ref = ws.f0(z)
    fams = ws.table(z)
    cur = -float(np.log(_flat(f.m for f in fams)).sum())
    iters = 0
    no_progress = 0
    lam2 = math.inf
    pure_lam2 = math.inf  # lambda^2 before the last pure Newton step
    eps8 = 8.0 * np.finfo(float).eps
    while iters < min(settings.max_newton_iters, settings.max_centering_iters):
        resolution = eps8 * max(1.0, abs(cur))
        gz, ab = ws.assemble(fams, z, tau)
        dz = None
        for ridge in _RIDGES:
            try:
                dz = ws.solve_kkt(ab, gz, ridge)
                break
            except np.linalg.LinAlgError:
                continue
        if dz is None:
            return z, iters, "trouble", lam2
        lam2 = -float(gz @ dz)
        if lam2 < -1e-6 * max(1.0, abs(cur)):
            return z, iters, "trouble", lam2
        if lam2 / 2.0 <= settings.newton_tol:
            return z, iters, "centered", lam2
        step = first_step(*ws.ray(fams, dz))
        if step is None:
            return z, iters, "trouble", lam2
        # the merit cannot resolve the Armijo decrease: go on with full steps
        # only while they are interior and lambda^2 falls 4x ("Noise floor")
        pure = 0.25 * lam2 <= resolution + eps8 * tau * abs(f0_ref)
        if pure and (step < 1.0 or 4.0 * lam2 > pure_lam2):
            return z, iters, _loose_status(lam2), lam2
        new = None
        for _ in range(1 if pure else 60):
            z_new = z + step * dz
            fams_new = ws.table(z_new)
            m = _flat(f.m for f in fams_new)
            if m.min() > 0.0:
                cand = tau * (ws.f0(z_new) - f0_ref) - float(np.log(m).sum())
                if pure or cand <= cur - 0.25 * step * lam2 + resolution:
                    new = cand
                    break
            step *= 0.5
        if new is None:
            return z, iters, _loose_status(lam2), lam2
        z, fams = z_new, fams_new
        if pure:
            pure_lam2 = lam2
        elif new > cur + resolution:
            return z, iters, "trouble", lam2
        elif cur - new <= resolution:
            no_progress += 1
            if no_progress >= 3:
                return z, iters, _loose_status(lam2), lam2
        else:
            no_progress = 0
        cur = new
        iters += 1
    return z, iters, "budget", lam2


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
        m = ws.margins(z)
        barrier = -float(np.log(m).sum()) if m.min() > 0.0 else math.inf
        if barrier < best_barrier:
            best, best_barrier = z, barrier
        elif best is not None:
            break
    return best


def solve(program, settings: SolverSettings | None = None) -> SolverResult:
    """Solve the assembled subproblem; deterministic for fixed inputs.

    ``program`` is a ConvexProgram (see trajectory_sca).  A returned status of
    "optimal" certifies strict feasibility (checked by direct evaluation) and
    a duality gap at most opt_tol relative to the objective scale.
    """
    if settings is None:
        settings = SolverSettings()
    ws = _Workspace(program)
    z0 = ws.pack(program.x_start, program.y_start, program.t_start)

    def result(z, status, iters, tau, gap):
        x, y, t = ws.rows(z)
        fams = ws.table(z)
        min_margin = _min_margin(fams)
        if status == OPTIMAL and min_margin <= 0.0:
            status = TROUBLE
        usable = min_margin > 0.0 and tau > 0
        if usable:
            objective = program.obj_const - ws.f0(z)
            gz = ws.assemble(fams, z, tau)[0]
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

    tau = ws.m_bar / settings.tau0_gap
    total = 0
    status = MAX_ITER
    gap = math.inf
    while True:
        z, it, cstat, lam2 = _center(ws, z, tau, settings)
        total += it
        if cstat == "trouble":
            return result(z, TROUBLE, total, tau, math.inf)
        # off-center exits widen the certified gap by sqrt(m)*lambda
        lam_corr = math.sqrt(ws.m_bar * max(lam2, 0.0)) if math.isfinite(lam2) else 0.0
        gap = (ws.m_bar + lam_corr) / tau
        obj_scale = max(1.0, abs(program.obj_const - ws.f0(z)))
        if gap <= settings.opt_tol * obj_scale:
            status = OPTIMAL
            break
        if cstat == "budget" or total >= settings.max_newton_iters:
            status = MAX_ITER
            break
        tau *= settings.barrier_mu
    return result(z, status, total, tau, gap)
