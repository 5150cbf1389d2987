"""Barrier interior-point solver for the trajectory subproblem.

The program class is fixed: maximize a concave objective

    sum_n [ -g_u[n]*(x[n]^2 + y[n]^2 + H^2) - log2(1 + P[n]/t[n]) ]   (+ constant)

over per-slot variables (x, y, t, xi_1..xi_Kr) subject to

  * mobility balls    (x[n+1]-x[n])^2 + (y[n+1]-y[n])^2 <= L^2   (pinned ends),
  * rotated cones     b^2 + c^2 <= a*d  per (eavesdropper, slot) with
                      a = xi+1, b/c/d affine in (x, y, t, xi),
  * affine rows       d >= 0 for radius-zero eavesdroppers,
  * bounds            t >= H^2, xi >= 0.

Everything is handled with logarithmic barriers and damped Newton steps; the
KKT matrices are block tridiagonal (slots couple only through the mobility
chain), so each step costs one banded Cholesky solve.  A single-slack pull-in
phase produces a strictly interior starting point when the warm start sits on
the boundary (for example a trajectory that flies at maximum speed, which
makes every mobility constraint tight).  The pull-in slack enters the cone
rows as a*(d+s) - b^2 - c^2 >= 0, which is still an affine section of the
rotated cone and therefore convex.

The distance term is a convex quadratic, so it enters the objective directly
and needs no epigraph slack.  Variables are packed slot-major, block
``[x, y, t, xi_*]``.

Constraint families.  Every margin is a quadratic in the variables, so one
table describes all five families (mobility ball, rotated cone, affine row,
t bound, xi bound).  At a point each family gives its margins m
over (rows, slots), with eavesdroppers as rows, the gradient of m per block
column and the constant entries of its Hessian.  The mobility family is
written in the step differences (x[j]-x[j-1], y[j]-y[j-1]) and reaches the
two slots of each step through the chain rule; all others are slot-local.
Both phases read the same table:

  * the margins serve the domain check, the pull-in deficit and the post-hoc
    margin of the result;
  * the Newton system adds -grad m / m to the gradient and
    grad m grad m^T / m^2 - hess m / m to the Hessian, written straight into
    the lower band array that ``cholesky_banded`` reads;
  * along a Newton ray each margin is the polynomial m0 + a*m1 + a^2*m2 in the
    step length a, with m1 = grad m . d and m2 = d^T (hess m) d / 2.

Line search.  Once per Newton step the polynomials are built.  Their smallest
positive root bounds the step (the exact fraction-to-boundary rule of Nocedal
& Wright, Numerical Optimization, sect. 19.2); halving starts at the largest
power of two below it, and every Armijo trial evaluates the merit from the
polynomials plus the objective along the ray.  The table at the accepted point
is evaluated directly: it confirms strict interiority and supplies the next
step's m0 and Newton system, so each step makes one pass over the families.

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
    xi: np.ndarray          # (Kr, N)
    objective: float        # maximized surrogate value, constants included
    status: str             # "optimal" | "max_iter" | "numerical_trouble"
    newton_iters: int
    duality_gap: float      # absolute bound, objective units
    kkt_residual: float     # scaled stationarity residual at the returned point
    min_margin: float       # direct post-hoc constraint evaluation (scaled)
    tau: float              # final barrier weight (1/tau = barrier multiplier scale)


OPTIMAL = "optimal"
MAX_ITER = "max_iter"
TROUBLE = "numerical_trouble"

_RIDGES = (0.0, 1e-13, 1e-10, 1e-7)

# keys of a family's gradient and Hessian entries: block columns x, y, t;
# XI is the xi column of the row's own eavesdropper (column XI + row); S is the
# pull-in slack
X, Y, T, XI, S = range(5)


class _Family(NamedTuple):
    """One constraint family at one point."""

    m: np.ndarray                  # margins: (rows, slots), (slots,) or chain steps
    grad: dict                     # key -> dm/dkey, broadcastable to m
    hess: dict                     # (ki, kj), ki <= kj -> constant d2m/dki dkj
    chain: bool = False            # rows are the mobility steps j-1 -> j


def _flat(parts) -> np.ndarray:
    return np.concatenate([np.ravel(p) for p in parts])


def _total(terms):
    """Sum of arrays, or None for no terms."""
    out = None
    for term in terms:
        out = term if out is None else out + term
    return out


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

    def __init__(self, prog):
        self.prog = prog
        self.N = N = prog.n_slots
        self.Kr = Kr = prog.cone_q2.shape[0]
        self.Ka = Ka = prog.aff_kx.shape[0]
        self.B = XI + Kr
        self.nz = N * self.B
        self.kd = self.B + 1  # bandwidth: x, y couple to the next slot's x, y
        self.h2 = prog.h2
        self.L2 = prog.step_sq_max
        self.m_bar = (N + 1) + (2 * Kr + Ka + 1) * N
        self.scale_ref = max(self.L2, 1e-9 * self.h2)

    # -- packing ---------------------------------------------------------
    def pack(self, x, y, t, xi) -> np.ndarray:
        return np.column_stack((x, y, t, *xi)).ravel()

    def rows(self, z) -> np.ndarray:
        """z as contiguous (B, N) rows x, y, t, xi_*."""
        return z.reshape(self.N, self.B).T.copy()

    def unpack(self, z):
        R = self.rows(z)
        return R[X], R[Y], R[T], R[XI:]

    @staticmethod
    def _direction(D, ds, f: _Family) -> dict:
        """A direction (rows D, slack ds) in the keys of one family."""
        d = {}
        for k in f.grad:
            if k == S:
                if ds:
                    d[k] = ds
            elif f.chain:  # the pins do not move
                d[k] = _steps(D[k], 0.0, 0.0)
            else:
                d[k] = D[XI:] if k == XI else D[k]
        return d

    # -- constraint-family table -----------------------------------------
    def table(self, z, s: float = 0.0) -> list[_Family]:
        """Every constraint family at (z, s).

        With a nonzero slack the cone margin is a*(d+s)-b^2-c^2 and every other
        relaxable margin is shifted by +s; xi >= 0 is never relaxed.
        """
        p = self.prog
        Z = self.rows(z)
        x, y, t, xi = Z[X], Z[Y], Z[T], Z[XI:]
        dx = _steps(x, p.pin_start[0], p.pin_end[0])
        dy = _steps(y, p.pin_start[1], p.pin_end[1])
        two = {(X, X): -2.0, (Y, Y): -2.0}
        fams = [
            _Family(self.L2 - dx**2 - dy**2 + s,
                    {X: -2.0 * dx, Y: -2.0 * dy, S: 1.0}, two, chain=True),
            _Family(t - self.h2 + s, {T: 1.0, S: 1.0}, {}),
        ]
        if self.Kr:
            kx, ky, q2 = p.cone_kx, p.cone_ky, p.cone_q2[:, None]
            a = xi + 1.0
            b = p.cone_eve_x[:, None] - x
            c = p.cone_eve_y[:, None] - y
            d_s = kx * x + ky * y - t - q2 * xi + p.cone_k0 + s   # d + s
            fams.append(_Family(
                a * d_s - b**2 - c**2,
                {X: a * kx + 2.0 * b, Y: a * ky + 2.0 * c, T: -a,
                 XI: d_s - q2 * a, S: a},
                {**two, (X, XI): kx, (Y, XI): ky, (T, XI): -1.0,
                 (XI, XI): -2.0 * q2, (XI, S): 1.0}))
            fams.append(_Family(xi, {XI: 1.0}, {}))
        if self.Ka:
            fams.append(_Family(p.aff_kx * x + p.aff_ky * y - t + p.aff_k0 + s,
                                {X: p.aff_kx, Y: p.aff_ky, T: -1.0, S: 1.0}, {}))
        return fams

    def margins(self, z, s: float = 0.0) -> np.ndarray:
        """All constraint margins, flat; strictly positive means interior."""
        return _flat(f.m for f in self.table(z, s))

    def interior_deficit(self, z) -> float:
        """Largest slack (step^2 units) still needed for strict interiority."""
        worst = -math.inf
        for f in self.table(z):
            if S not in f.grad:
                if f.m.min() <= 0.0:
                    raise ValueError("xi start must be strictly positive")
                continue
            worst = max(worst, float((-f.m / f.grad[S]).max()))
        return worst

    def scaled_margin(self, fams) -> float:
        """Smallest margin in step^2 units (slack units; xi times scale_ref)."""
        return min(float((f.m / f.grad[S] if S in f.grad
                          else f.m * self.scale_ref).min()) for f in fams)

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
        elif key == XI:
            G[XI:] += vals
        else:
            G[key] += vals.sum(0) if vals.ndim == 2 else vals

    def _add_band(self, V, f: _Family, ki, kj, W):
        """Add per-row Hessian entries (ki, kj) into the band view V, where
        V[d, n, c] holds the matrix entry (n*B + c + d, n*B + c)."""
        B = self.B
        if f.chain:
            # a step's rows touch its head slot with +1 and its tail with -1
            V[kj - ki, :, ki] += W[:-1] + W[1:]
            V[B + kj - ki, :-1, ki] -= W[1:-1]
            if ki != kj:
                V[B + ki - kj, :-1, kj] -= W[1:-1]
        elif kj == XI:
            for k in range(self.Kr):
                c = XI + k
                lo = c if ki == XI else ki
                V[c - lo, :, lo] += W[k]
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
            # grad m / m per key; the slack's column of the Hessian is v
            gw = {k: g * w1 for k, g in sorted(f.grad.items()) if pull_in or k != S}
            keys = list(gw)
            for i, ki in enumerate(keys):
                if ki == S:
                    gs -= float(gw[S].sum())
                    h += float((gw[S] * gw[S]).sum())
                    break
                self._add_vec(Gb, f, ki, gw[ki])
                for kj in keys[i:]:
                    W = gw[ki] * gw[kj]
                    if (ki, kj) in f.hess:
                        W = W - f.hess[ki, kj] * w1
                    if kj == S:
                        self._add_vec(vr, f, ki, W)
                    else:
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
        """Margins along (z + a*dz, s + a*ds) as flat m0 + a*m1 + a^2*m2."""
        D = self.rows(dz)
        m1s, m2s = [], []
        for f in fams:
            d = self._direction(D, ds, f)
            m1 = _total(f.grad[k] * dk for k, dk in d.items())
            m2 = _total((0.5 * hk if ki == kj else hk) * d[ki] * d[kj]
                        for (ki, kj), hk in f.hess.items() if kj in d)
            m1s.append(m1)
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
            m = m0 + step * (m1 + step * m2)
            if m.min() > 0.0:
                z_new, s_new = z + step * dz, s + step * ds
                base = s_new if pull_in else ws.f0(z_new) - f0_ref
                cand = tau * base - float(np.log(m).sum())
                if pure or cand <= cur - 0.25 * step * lam2 + resolution:
                    fams_new = ws.table(z_new, s_new)
                    if min(f.m.min() for f in fams_new) > 0.0:
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
    deficit = ws.interior_deficit(z)
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
    z = ws.pack(program.x_start, program.y_start, program.t_start, program.xi_start)

    def result(status, iters, tau, gap):
        x, y, t, xi = ws.unpack(z)
        fams = ws.table(z)
        min_margin = ws.scaled_margin(fams)
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
        return SolverResult(x=x, y=y, t=t, xi=xi, objective=objective,
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
