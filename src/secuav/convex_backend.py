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
of H^2 leaves no interior and the pull-in phase fails.

Everything is handled with logarithmic barriers and damped Newton steps; the
KKT matrices are block tridiagonal (slots couple only through the mobility
chain), so each step costs one banded Cholesky solve.  A single-slack pull-in
phase produces a strictly interior starting point when the warm start sits on
the boundary (for example a trajectory that flies at maximum speed, which
makes every mobility constraint tight).  The slack s shifts every margin to
m + s, so its derivative is 1 for every row.

Constraint families.  Every margin is concave, and one table describes the
three families (mobility ball, t floor, disk).  At a point each family gives
its margins m over (rows, slots), with eavesdroppers as rows, the gradient of
m per block column and its Hessian entries, constants or per-row arrays.  The
mobility family is written in the step differences (x[j]-x[j-1],
y[j]-y[j-1]) and reaches the two slots of each step through the chain rule;
the others are slot-local.  Both phases read the same table:

  * the margins serve the domain check, the line search merit, the pull-in
    deficit (minus the smallest margin) and the post-hoc margin of the result;
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
& Wright, Numerical Optimization, sect. 19.2, for the quadratic rows); halving
starts at the largest power of two below it.  A trial first checks the models
(cheap), then evaluates the table at the trial point, demands every margin
strictly positive there and computes the Armijo merit from those margins.  The
accepted trial's table supplies the next step's Newton system, so a step that
accepts its first trial makes one pass over the families.

Duality gap.  At the central point of weight tau the multipliers
1/(tau*m_i) are dual feasible and leave the gap m_bar/tau, with m_bar =
(N+1) + (K+1)*N margins (Boyd & Vandenberghe, Convex Optimization, sect.
11.2.2).  The argument uses only a concave objective and concave margins, not
quadratic or self-concordant ones, so the disk rows, whose Hessian jumps at
the rim, leave the bound intact.

The first centering stage of the main phase starts from the pull-in point,
which is interior but far from the central path (Boyd & Vandenberghe, Convex
Optimization, sect. 11.3.1).  There the exact start lets a step land as close
to the boundary as it likes, so single margins can collapse by orders of
magnitude while their neighbours stay large; the pinned slots then hold the
mobility chain, and Newton crawls with full steps for hundreds of iterations
(the first program of paper_fig2 at 0.1 s slots took 1006 steps and ran out
of budget).  So in that stage, whenever the boundary cuts the full step, the
halving starts instead at the largest power of two at which every margin keeps
more than ``_INITIAL_KEEP`` of its current value, a bounded fraction-to-boundary
rule (Waechter & Biegler, Math. Prog. 2006, sect. 2.2).  Later stages start
near a central point and keep the exact start: bounding every stage more than
doubled the Newton steps of the paper_fig2 T sweep, and bounding also the steps
the boundary does not cut added 5%.

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
    feas_tol: float = 1e-8
    opt_tol: float = 1e-8              # relative duality-gap target
    max_newton_iters: int = 3000       # Newton budget per phase
    max_centering_iters: int = 1000    # Newton cap per barrier stage
    barrier_mu: float = 30.0           # barrier parameter growth factor
    tau0_gap: float = 64.0             # initial gap (objective units) fixing tau0
    newton_tol: float = 1e-9           # centering stop on lambda^2 / 2
    interior_margin_rel: float = 1e-3  # pull-in depth, relative to step^2 scale

    def __post_init__(self):
        if min(self.feas_tol, self.opt_tol, self.newton_tol) <= 0:
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
        self.scale_ref = max(self.L2, 1e-9 * self.h2)

    # -- packing ---------------------------------------------------------
    @staticmethod
    def pack(x, y, t) -> np.ndarray:
        return np.column_stack((x, y, t)).ravel()

    def rows(self, z) -> np.ndarray:
        """z as contiguous (B, N) rows x, y, t."""
        return z.reshape(self.N, self.B).T.copy()

    # -- constraint-family table -----------------------------------------
    def table(self, z, s: float = 0.0) -> list[_Family]:
        """Every constraint family at (z, s); the slack s shifts every margin."""
        p = self.prog
        x, y, t = self.rows(z)
        dx = _steps(x, p.pin_start[0], p.pin_end[0])
        dy = _steps(y, p.pin_start[1], p.pin_end[1])
        fams = [
            _Family(self.L2 - dx**2 - dy**2 + s, {X: -2.0 * dx, Y: -2.0 * dy},
                    {(X, X): -2.0, (Y, Y): -2.0}, chain=True),
            _Family(t - T_FLOOR * self.h2 + s, {T: 1.0}, {}),
        ]
        m = p.eve_kx * x + p.eve_ky * y + p.eve_k0 - (t - s)
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

    def margins(self, z, s: float = 0.0) -> np.ndarray:
        """All constraint margins, flat; strictly positive means interior."""
        return _flat(f.m for f in self.table(z, s))

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

    def assemble(self, fams, z, tau, pull_in: bool):
        """Gradient and Hessian of tau*f0 + barrier from the table at z.

        Returns (gz, ab, gs, v, h): the Hessian in the lower band form that
        ``cholesky_banded`` reads and, in pull-in mode, the dense slack border
        (v, h) plus its gradient entry gs.
        """
        N, B, kd = self.N, self.B, self.kd
        G = np.zeros((B, N))   # objective gradient, as rows like z
        Gb = np.zeros((B, N))  # sum of grad m / m
        # column-major, as LAPACK stores it; V[d, n, c] = ab[d, n*B + c]
        band = np.zeros((N, B, kd + 1))
        ab = band.reshape(self.nz, kd + 1).T
        V = band.transpose(2, 0, 1)
        vr = np.zeros((B, N)) if pull_in else None
        h = 0.0
        gs = tau if pull_in else 0.0  # pull-in objective is the slack itself
        if not pull_in:
            p = self.prog
            Z = z.reshape(N, B)
            t = Z[:, T]
            i1, i2 = 1.0 / t, 1.0 / (t + p.p_scaled)
            curv = 2.0 * tau * p.g_u
            G[X] = curv * Z[:, X]
            G[Y] = curv * Z[:, Y]
            G[T] = (tau / LN2) * (i2 - i1)
            V[0, :, X] = curv
            V[0, :, Y] = curv
            V[0, :, T] = (tau / LN2) * (i1 * i1 - i2 * i2)
        for f in fams:
            w1 = 1.0 / f.m
            gw = {k: g * w1 for k, g in f.grad.items()}  # grad m / m per key
            keys = list(gw)
            if pull_in:  # dm/ds = 1: the slack's column of the Hessian is v
                gs -= float(w1.sum())
                h += float((w1 * w1).sum())
            for i, ki in enumerate(keys):
                self._add_vec(Gb, f, ki, gw[ki])
                if pull_in:
                    self._add_vec(vr, f, ki, gw[ki] * w1)
                for kj in keys[i:]:
                    W = gw[ki] * gw[kj]
                    if (ki, kj) in f.hess:
                        W = W - f.hess[ki, kj] * w1
                    self._add_band(V, f, ki, kj, W)
        v = vr.T.ravel() if pull_in else None
        return (G - Gb).T.ravel(), ab, gs, v, h

    def solve_kkt(self, ab, gz, gs, v, h, pull_in: bool, ridge: float):
        if ridge > 0.0:
            ab = ab.copy()
            ab[0, :] += ridge * max(1.0, ab[0, :].max())
        # in the lower form LAPACK's unblocked factorization reads contiguous
        # columns; it ran ~40% faster than the upper form at N = 1600
        cfac = cholesky_banded(ab, lower=True)
        if not pull_in:
            dz = cho_solve_banded((cfac, True), -gz)
            return dz, 0.0
        pvec, wvec = cho_solve_banded((cfac, True), np.column_stack((-gz, v))).T
        denom = h - float(v @ wvec)
        if denom <= 0.0:
            raise np.linalg.LinAlgError("indefinite slack border")
        ds = (-gs - float(v @ pvec)) / denom
        dz = pvec - ds * wvec
        return dz, ds

    # -- line search -------------------------------------------------------
    def ray(self, fams, dz, ds):
        """Second-order model m0 + a*m1 + a^2*m2 of the margins along
        (z + a*dz, s + a*ds), flat; exact on the quadratic rows."""
        D = self.rows(dz)
        m1s, m2s = [], []
        for f in fams:
            # the pins do not move
            d = {k: _steps(D[k], 0.0, 0.0) if f.chain else D[k] for k in f.grad}
            m1s.append(_total(f.grad[k] * dk for k, dk in d.items()) + ds)
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


# Share of every margin a step of the initial centering stage must keep when
# the boundary cuts the full step (see "Line search" above).  Keeping 0.75 to
# 0.85 gave Newton counts within 8% of each other; keeping 0.01 (the textbook
# fraction-to-boundary 0.99) leaves single margins free to collapse.
_INITIAL_KEEP = 0.8


def line_search_start(m0, m1, m2, initial: bool):
    """First trial step along the ray, or None when no step is interior.

    The exact fraction-to-boundary start; in the initial centering stage, when
    that cuts the full step, the largest 2^-k keeping every margin above
    ``_INITIAL_KEEP`` times its current value, if one exists.
    """
    step = first_step(m0, m1, m2)
    if initial and step is not None and step < 1.0:
        bounded = first_step((1.0 - _INITIAL_KEEP) * m0, m1, m2)
        if bounded is not None:
            return bounded
    return step


def _center(ws: _Workspace, z, s, tau, pull_in, settings, budget, early_stop=None,
            initial: bool = False):
    """Damped Newton to the central point at barrier weight tau.

    ``initial`` marks the main phase's first stage, which bounds its
    boundary-cut steps (``line_search_start``).

    Returns (z, s, iters, status, lam2) with status in {"centered", "early",
    "budget", "trouble"}.  The merit tau*f0 + barrier is asserted
    non-increasing across Armijo steps, up to its floating-point resolution;
    below that resolution the stage takes pure Newton steps ("Noise floor").
    """
    # measure the objective relative to the entry point: tau*f0 alone can reach
    # 1e13, whose float resolution would swallow the remaining decrements
    f0_ref = 0.0 if pull_in else ws.f0(z)
    fams = ws.table(z, s)
    cur = (tau * s if pull_in else 0.0) - float(np.log(_flat(f.m for f in fams)).sum())
    iters = 0
    no_progress = 0
    lam2 = math.inf
    pure_lam2 = math.inf  # lambda^2 before the last pure Newton step
    eps8 = 8.0 * np.finfo(float).eps
    while iters < min(budget, settings.max_centering_iters):
        resolution = eps8 * max(1.0, abs(cur))
        gz, ab, gs, v, h = ws.assemble(fams, z, tau, pull_in)
        dz = ds = None
        for ridge in _RIDGES:
            try:
                dz, ds = ws.solve_kkt(ab, gz, gs, v, h, pull_in, ridge)
                break
            except np.linalg.LinAlgError:
                continue
        if dz is None:
            return z, s, iters, "trouble", lam2
        lam2 = -(float(gz @ dz) + gs * ds)
        if lam2 < -1e-6 * max(1.0, abs(cur)):
            return z, s, iters, "trouble", lam2
        if lam2 / 2.0 <= settings.newton_tol:
            return z, s, iters, "centered", lam2
        m0, m1, m2 = ws.ray(fams, dz, ds)
        step = line_search_start(m0, m1, m2, initial)
        if step is None:
            return z, s, iters, "trouble", lam2
        # the merit cannot resolve the Armijo decrease: go on with full steps
        # only while they are interior and lambda^2 falls 4x ("Noise floor")
        pure = 0.25 * lam2 <= resolution + eps8 * tau * abs(f0_ref)
        if pure and (step < 1.0 or 4.0 * lam2 > pure_lam2):
            return z, s, iters, _loose_status(lam2), lam2
        new = None
        for _ in range(1 if pure else 60):
            # the model first (cheap), then the margins themselves
            if (m0 + step * (m1 + step * m2)).min() > 0.0:
                z_new, s_new = z + step * dz, s + step * ds
                fams_new = ws.table(z_new, s_new)
                m = _flat(f.m for f in fams_new)
                if m.min() > 0.0:
                    base = s_new if pull_in else ws.f0(z_new) - f0_ref
                    cand = tau * base - float(np.log(m).sum())
                    if pure or cand <= cur - 0.25 * step * lam2 + resolution:
                        new = cand
                        break
            step *= 0.5
        if new is None:
            return z, s, iters, _loose_status(lam2), lam2
        z, s, fams = z_new, s_new, fams_new
        if pure:
            pure_lam2 = lam2
        elif new > cur + resolution:
            return z, s, iters, "trouble", lam2
        elif cur - new <= resolution:
            no_progress += 1
            if no_progress >= 3:
                return z, s, iters, _loose_status(lam2), lam2
        else:
            no_progress = 0
        cur = new
        iters += 1
        if early_stop is not None and early_stop(z, s):
            return z, s, iters, "early", lam2
    return z, s, iters, "budget", lam2


def _pull_in(ws: _Workspace, z, settings):
    """Find a strictly interior point near z (phase-I with one slack).

    Returns (z, used_iters, ok).
    """
    delta = settings.interior_margin_rel * ws.scale_ref
    deficit = -_min_margin(ws.table(z))  # the slack still needed for interiority
    if deficit <= -delta:
        return z, 0, True

    def domain_ok(z_, s_):
        return ws.margins(z_, s_).min() > 0.0

    s = max(0.0, deficit) + max(10.0 * delta, 1e-2 * ws.scale_ref)
    if not domain_ok(z, s):  # pad again if a margin rounded to zero
        s = 2.0 * s + ws.scale_ref
        if not domain_ok(z, s):
            return z, 0, False
    # start with the barrier center near the current slack so the slack only
    # ever travels downward; small weights would first inflate it to ~m/tau
    tau = ws.m_bar / max(s, 10.0 * delta)
    tau_end = ws.m_bar / (0.1 * delta)
    total = 0
    early = lambda z_, s_: s_ <= -delta
    while total < settings.max_newton_iters:
        z, s, it, status, _ = _center(ws, z, s, tau, True, settings,
                                      settings.max_newton_iters - total, early)
        total += it
        if status == "early" or s <= -delta:
            return z, total, True
        if status == "trouble":
            return z, total, False
        if status == "centered" and s - ws.m_bar / tau > -delta:
            # the optimal slack is within m_bar/tau of s, so the target depth
            # is provably unreachable; settle for any strict interior point
            break
        if tau > tau_end:
            break
        tau *= settings.barrier_mu
    if s < 0.0 and domain_ok(z, 0.0):
        return z, total, True
    return z, total, False


def solve(program, settings: SolverSettings | None = None) -> SolverResult:
    """Solve the assembled subproblem; deterministic for fixed inputs.

    ``program`` is a ConvexProgram (see trajectory_sca).  A returned status of
    "optimal" certifies strict feasibility (checked by direct evaluation) and
    a duality gap at most opt_tol relative to the objective scale.
    """
    if settings is None:
        settings = SolverSettings()
    ws = _Workspace(program)
    z = ws.pack(program.x_start, program.y_start, program.t_start)

    def result(status, iters, tau, gap):
        x, y, t = ws.rows(z)
        fams = ws.table(z)
        min_margin = _min_margin(fams)
        if status == OPTIMAL and min_margin <= 0.0:
            status = TROUBLE
        usable = min_margin > 0.0 and tau > 0
        if usable:
            objective = program.obj_const - ws.f0(z)
            gz = ws.assemble(fams, z, tau, False)[0]
            kkt = float(np.abs(gz).max() / tau)
        else:
            objective = -math.inf
            kkt = math.inf
        return SolverResult(x=x, y=y, t=t, objective=objective,
                            status=status, newton_iters=iters,
                            duality_gap=gap, kkt_residual=kkt,
                            min_margin=min_margin, tau=tau)

    z, used, ok = _pull_in(ws, z, settings)
    if not ok:
        return result(TROUBLE, used, 0.0, math.inf)

    tau = ws.m_bar / settings.tau0_gap
    total = used
    status = MAX_ITER
    gap = math.inf
    initial = True
    while True:
        z, _, it, cstat, lam2 = _center(ws, z, 0.0, tau, False, settings,
                                        settings.max_newton_iters, initial=initial)
        initial = False
        total += it
        if cstat == "trouble":
            return result(TROUBLE, total, tau, math.inf)
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
    return result(status, total, tau, gap)
