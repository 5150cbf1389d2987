"""Primal-dual interior-point solver for the trajectory subproblem.

The program class is fixed: maximize a concave objective

    sum_n [ -g_u[n]*(x[n]^2 + y[n]^2 + H^2) - log2(1 + P[n]/t[n]) ]   (+ constant)

over per-slot variables (x, y, t) of the program's n slots, subject to

  * mobility balls   |q[b] - q[a]|^2 <= (g*L)^2, q = (x, y), for consecutive
                     slots a, b g flight steps apart (pins at -1 and N),
  * a t floor        t >= H^2/2,
  * disk margins     t <= lin(q) - huber_r(|q - c|)  per (eavesdropper, slot),
                     with lin = k . q + k0 and
                     huber_r(rho) = rho^2 for rho <= r, 2*r*rho - r^2 beyond.

lin is the tangent lower bound of |q - c|^2 + H^2 at the expansion point, so
lin - huber_r is at most (|q - c| - r)_+^2 + H^2, the true worst-case squared
distance to the disk of radius r around c (``trajectory_sca`` derives the
margin from the S-procedure; the huber-margin suite of ``secuav verify``
checks the rows against ``worst_case_dist_sq``).  Radius-zero eavesdroppers
are the case r = 0, an affine row; when every radius is zero (the non-robust
planner) the table carries no Hessian entries.

Why the floor H^2/2 is safe.  The floor is no robustness constraint: the disk
margins alone bound t by the worst-case squared distance, and ``solve_step``
re-checks every returned t against ``worst_case_dist_sq``, which is at least
H^2.  The floor only keeps log2(1 + P/t) finite.  It must lie below H^2: at a
slot inside a disk lin - huber equals H^2 at the expansion point, so a floor
of H^2 leaves no interior there.

The method.  A Mehrotra predictor-corrector primal-dual interior-point method
(Mehrotra, SIAM J. Optim. 1992; Nocedal & Wright, Numerical Optimization,
ch. 19) minimizes f0, the negated objective, subject to every margin
m_i(z) >= 0.  The point z stays strictly interior and each margin carries a
multiplier lambda_i > 0; the iterations drive the residual
r = grad f0 - sum_i lambda_i grad m_i and the complementarity
mu = lambda^T m / sum(w) to zero (w the row weights below), over
m_bar = (n+1) + n + K*n margins.  Each iteration factors

    H = hess f0 + sum_i (lambda_i/m_i) grad m_i grad m_i^T - sum_i lambda_i hess m_i

once, a banded matrix since slots couple only through the mobility chain
(t eliminated, see "Eliminating t"), and solves with it twice:

  * predictor: H dz = -grad f0 and dlambda = -lambda*(1 + m1/m), Newton's
    step towards lambda*m = 0 (m1, m2 are the margins' model along dz, see
    "Constraint families").  Its primal step is the models' first positive
    root and its dual step the distance to lambda = 0, both capped at 1; the
    complementarity mu_aff they reach sets sigma = (mu_aff/mu)^3;
  * corrector: with c = dlambda*m1 + lambda*m2 of the predictor, the
    second-order terms of (lambda + dlambda)(m + m1 + m2),
    H dz = -grad f0 + sum_i ((sigma*mu*w_i - c_i)/m_i) grad m_i and
    dlambda = (sigma*mu*w - c - lambda*m - lambda*m1)/m.

Row weights.  A chain row spanning g flight steps stands for g of them, so
it weighs w_i = g and every other row 1: the iterations follow the central
path of the barrier -sum_i w_i log m_i, lambda_i*m_i = mu*w_i.

Eliminating t.  t couples to nothing outside its slot, whose tt entry of H is
positive (the floor adds lambda/m > 0), so the band holds the Schur complement
over x, y: with u = (xt, yt)/tt, the slot blocks less u (xt, yt)^T, the
right-hand side r_q - u*r_t, and then dt = r_t/tt - u . (dx, dy).

Step rules.  The corrector's primal step is 0.99 times its models' first
positive root, capped at 1, and halved until the table at the trial point is
strictly positive (the model of a disk row outside its disk is inexact); its
dual step is 0.99 times the distance to lambda = 0, capped at 1.  No merit
function judges a step.  The solve starts at the interior start below with
lambda_i = (TAU0_GAP/sum(w))*w_i/m_i, so lambda^T m = TAU0_GAP.

Stop and certificate.  The status is "optimal" once
lambda^T m <= OPT_TOL*max(1, |objective|) and |r|_inf <= KKT_TOL, at a point
whose margins, evaluated directly, are all positive; MAX_NEWTON iterations
end it as "max_iter" and a failed factorization (not positive definite, or
a factor that is not finite) as "numerical_trouble".
``duality_gap`` is lambda^T m and ``kkt_residual`` is |r|_inf.  The point z
minimizes the Lagrangian f0 - r.z - lambda^T m exactly, as that is convex in
z (f0 is convex, every margin concave) and stationary at z; so z is within
lambda^T m of the optimum of the problem whose objective is tilted by r.z
(Boyd & Vandenberghe, Convex Optimization, sect. 5.2), a tilt of at most
KKT_TOL per coordinate.  The argument needs no quadratic or self-concordant
margins, so the disk rows, whose Hessian jumps at the rim, leave it intact.

Interior start.  The warm start ``_Workspace.z0`` is the expansion point
with t a tenth of the way from the tight t (at least H^2) down to the floor.
There each disk's lin - huber_r is the true worst-case squared distance, at
least the tight t, so the floor and disk margins are positive; the mobility
margins are often zero, as a track that flies at maximum speed sits on their
boundary.  Every margin is concave, so on the segment from z0 to the straight
track between the pins (same t) each margin is at least the interpolation of
its two ends; the track puts flight slot s at the fraction (s + 1)/(N + 1)
of the way, so its mobility margins are positive whenever the pins are closer
than the (N+1)-step budget, which ``scenario.validate`` demands.  So every
point of the segment close enough to z0, but off it, is interior.  The solver
starts at the step 2^-k along the segment of least barrier; the barrier is
convex there, so the search stops at its first increase.

Layout.  The point z, every step dz, the objective gradient and every Newton
right-hand side are one (3, n) array of rows x, y, t.  Only the band
interleaves x and y slot by slot; ``newton_step`` transposes into it and out.

Constraint families.  Every margin is concave, and the table at a point holds
three row blocks, in the flat order chain, floor, disks (``_Workspace`` names
the three slices).  The mobility chain has n+1 rows, written in the
differences (dx, dy) = (x[j]-x[j-1], y[j]-y[j-1]); it reaches the two slots
of each row through the chain rule.  The floor has one bound row t - H^2/2
per slot, with gradient +1 in t and no Hessian.  The disks form a (K, n)
stack, eavesdropper by eavesdropper: a row's gradient is (gx, gy) in x, y and
-1 in t, and its Hessian entries xx, xy, yy form one (3, K, n) array, or None
when every radius is zero (every row is then affine).  The solver reads the
table everywhere:

  * the margins serve the interior start, the domain check of every trial
    point and the margin of the result;
  * the Newton matrix H adds (lambda/m) grad m grad m^T - lambda hess m: the
    disks' terms are summed over the K rows in one reduction into the 3x3
    slot blocks, the floor adds lambda/m to each slot's tt entry, and the
    chain adds its diagonal and off-diagonal bands; with t eliminated, all go
    straight into the Fortran-ordered lower band array (bandwidth 3) that
    ``cholesky_banded`` hands to LAPACK's dpbtrf, which factors it in place
    (``cho_solve_banded`` solves with dpbtrs; both call the routines of
    scipy's compiled LAPACK module directly, see ``_load_flapack``);
    ``jt`` sums v_i grad m_i (any v) for the residual and the corrector;
  * along a step dz each margin is modelled by m0 + a*m1 + a^2*m2 in the
    step length a, with m1 = grad m . dz and m2 = dz^T (hess m) dz / 2.  The
    model is exact for every quadratic row: the mobility and floor rows,
    r = 0 rows and disk rows inside their disk.  A disk row outside its disk
    is off by O(a^3).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .geometry import LN2, log2_1p


# Solver constants, read at call time (a test may patch them).
OPT_TOL = 1e-8         # relative duality-gap target
KKT_TOL = 1e-7         # stationarity target, objective units per coordinate
MAX_NEWTON = 3000      # iteration cap per solve (one factorization each)
TAU0_GAP = 64.0        # duality gap lambda^T m of the start


@dataclass
class SolverResult:
    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    objective: float        # maximized surrogate value, constants included
    status: str             # "optimal" | "max_iter" | "numerical_trouble"
    newton_iters: int       # primal-dual iterations, one factorization each
    duality_gap: float      # lambda^T m, objective units
    kkt_residual: float     # |grad f0 - sum lambda_i grad m_i|_inf
    min_margin: float       # smallest margin, evaluated directly at the result


OPTIMAL = "optimal"
MAX_ITER = "max_iter"
TROUBLE = "numerical_trouble"

# the floor t >= T_FLOOR * H^2 (see "Why the floor H^2/2 is safe")
T_FLOOR = 0.5

X, Y, T = range(3)  # rows of z


def _load_flapack():
    """scipy's compiled LAPACK module ``scipy.linalg._flapack``, loaded from
    its file without running the ``scipy.linalg`` package (for why, see
    ``cholesky_banded``).

    The module keeps its canonical name, so a later ``import scipy.linalg``
    in the same process gets the same compiled functions.  Raises ImportError
    when scipy is missing, naming the paths tried when only the file is.
    """
    scipy = find_spec("scipy")
    if scipy is None or scipy.origin is None:
        raise ImportError("scipy is not installed: no scipy/linalg/_flapack to load",
                          name="scipy.linalg._flapack")
    linalg = Path(scipy.origin).parent / "linalg"
    paths = [linalg / f"_flapack{suffix}" for suffix in EXTENSION_SUFFIXES]
    for path in paths:
        if path.is_file():
            spec = spec_from_file_location("scipy.linalg._flapack", path)
            module = module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError("scipy's compiled LAPACK module is missing: none of "
                      + ", ".join(map(str, paths)) + " exists",
                      name="scipy.linalg._flapack")


_flapack = _load_flapack()
dpbtrf, dpbtrs = _flapack.dpbtrf, _flapack.dpbtrs


def cholesky_banded(ab):
    """Lower banded Cholesky factor, as ``scipy.linalg.cholesky_banded`` with
    ``lower=True`` computes it.

    LAPACK's dpbtrf is called directly, without scipy's input checks and
    array wrapping; it factors ``ab`` in place when that is a Fortran-ordered
    float64 array, as ``assemble`` builds it.  dpbtrf is the routine that
    ``scipy.linalg.lapack`` re-exports, taken from the compiled module that
    ``_load_flapack`` loads: importing the ``scipy.linalg`` package for two
    routines more than doubled a cold ``import secuav`` (0.2 -> 0.5 s on
    2 cores) and its resident memory (32 -> 58 MB).
    Raises LinAlgError when the matrix is not positive definite or the factor
    is not finite (a NaN in ``ab`` passes dpbtrf and reaches the diagonal).
    """
    c, info = dpbtrf(ab, lower=1, overwrite_ab=1)
    if info != 0 or not np.isfinite(c[0]).all():
        raise np.linalg.LinAlgError(f"banded Cholesky failed (dpbtrf info {info})")
    return c


def cho_solve_banded(c, b):
    """Solve with a factor of ``cholesky_banded``, as
    ``scipy.linalg.cho_solve_banded`` does, through LAPACK's dpbtrs from the
    same compiled module as dpbtrf (see ``cholesky_banded``)."""
    x, info = dpbtrs(c, b, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"banded Cholesky solve failed (dpbtrs info {info})")
    return x


class _Table(NamedTuple):
    """The three row blocks at one point (see "Constraint families")."""

    m: np.ndarray                  # (m_bar,) every margin: chain, floor, disks
    d: np.ndarray                  # (2, n+1) chain steps dx, dy
    g: np.ndarray                  # (2, K, n) disk gradient in x, y
    h: np.ndarray | None           # (3, K, n) disk Hessian xx, xy, yy, or None


def surrogate(prog, x, y, t) -> float:
    """The maximized objective at (x, y, t), constants included."""
    return prog.obj_const - float((prog.g_u * (x**2 + y**2 + prog.h2)).sum()
                                  + log2_1p(prog.p_scaled / t).sum())


def first_root(m0, m1, m2) -> float:
    """Smallest positive root of every m0 + a*m1 + a^2*m2, or math.inf.

    ``m0`` must be positive.
    """
    disc = m1 * m1 - 4.0 * m0 * m2
    # 1/a solves m0*s^2 + m1*s + m2 = 0; the largest s is the first root
    inv = (np.sqrt(np.maximum(disc, 0.0)) - m1) / (2.0 * m0)
    inv[disc < 0.0] = 0.0
    top = float(inv.max())
    return 1.0 / top if top > 0.0 else math.inf


def dual_root(lam, dlam) -> float:
    """Smallest step a > 0 at which some lam + a*dlam reaches 0, or math.inf."""
    low = float((dlam / lam).min())
    return -1.0 / low if low < 0.0 else math.inf


class _Workspace:
    """Constraint table and Newton system of one program (see "Layout")."""

    kd = 3     # bandwidth of the reduced matrix: x couples to the next slot's y
    # positions in a slot's row of the band, c*(kd+1) + d for the entry
    # (2n + c + d, 2n + c) of the reduced matrix over x, y: the slot block's
    # xx, xy, yy, and the chain's couplings to the next slot, x'x, y'x, x'y, y'y
    _DIAG = [0, 1, 4]
    _OFF = [2, 3, 5, 6]

    def __init__(self, prog):
        self.prog = prog
        self.n = n = prog.slots.size
        K = prog.eve_r.size
        steps = np.diff(prog.slots, prepend=-1, append=prog.n_slots)  # per chain row
        self.L2 = steps * steps * prog.step_sq_max
        self.t_min = T_FLOOR * prog.h2
        self.m_bar = (n + 1) + n + K * n
        # the flat margin order: the chain, the floor, the disks
        self.chain = slice(0, n + 1)
        self.floor = slice(n + 1, 2 * n + 1)
        self.disks = slice(2 * n + 1, self.m_bar)
        self.weight = np.ones(self.m_bar)  # see "Row weights"
        self.weight[self.chain] = steps
        self.weight_sum = float(self.weight.sum())
        self.robust = bool(prog.eve_r.any())
        self.k = prog.eve_k
        self.c = prog.eve_c[:, :, None]
        self.r = prog.eve_r[:, None]
        # the warm start (see "Interior start")
        self.z0 = np.stack((prog.x_fea, prog.y_fea,
                            prog.t_fea - 0.1 * (prog.t_fea - self.t_min)))
        # the disks' entries xx, xy, yy, xt, yt, tt of (lam/m) grad m grad m^T
        # - lam hess m, before assemble sums them over the rows
        self.buf = np.empty((6, K, n))
        # x, y between the pins, and a ray's dx, dy between pins that stay put
        self.qpad = np.column_stack((prog.pin_start, np.zeros((2, n)), prog.pin_end))
        self.dpad = np.zeros((2, n + 2))

    # -- constraint table --------------------------------------------------
    def table(self, z) -> _Table:
        """The three row blocks at z."""
        n = self.n
        qpad = self.qpad
        qpad[:, 1:-1] = z[:2]
        q, t = qpad[:, 1:-1], z[T]
        d = qpad[:, 1:] - qpad[:, :-1]
        m = np.empty(self.m_bar)
        np.subtract(self.L2, np.add.reduce(d * d), out=m[self.chain])
        np.subtract(t, self.t_min, out=m[self.floor])
        disk = m[self.disks].reshape(-1, n)
        np.einsum('ikn,in->kn', self.k, q, out=disk)
        disk += self.prog.eve_k0
        disk -= t
        if not self.robust:  # every huber_0 vanishes: the disk rows are affine
            return _Table(m, d, self.k, None)
        # w = q - c, phi = min(1, r/|w|) (0 for r = 0), and the outer branch's
        # curvature factor 2*phi/|w|^2 (0 inside the disk)
        w = q[:, None] - self.c
        w2 = np.einsum('ikn,ikn->kn', w, w)
        phi = np.minimum(1.0, self.r / np.maximum(np.sqrt(w2), 1e-300))
        two_phi = 2.0 * phi
        curv = (phi < 1.0) * two_phi / np.maximum(w2, 1e-300)
        disk -= (two_phi - phi * phi) * w2
        g = self.k - two_phi * w
        h = np.empty((3,) + disk.shape)
        cw = curv * w
        np.multiply(cw[0], w, out=h[:2])
        np.multiply(cw[1], w[1], out=h[2])
        h[::2] -= two_phi
        return _Table(m, d, g, h)

    # -- Newton system ----------------------------------------------------
    def assemble(self, tab: _Table, z, lam):
        """Objective gradient and Newton matrix H at z with multipliers lam.

        Returns (grad f0, ab, (u, tt)): ab is H with t eliminated, in the
        lower band form that ``cholesky_banded`` reads (see "Eliminating t").
        """
        n, kd = self.n, self.kd
        p = self.prog
        t = z[T]
        i1, i2 = 1.0 / t, 1.0 / (t + p.p_scaled)
        gt = (i2 - i1) / LN2   # d f0/dt
        curv = 2.0 * p.g_u
        # the disks, summed over their rows into the per-slot entries S: xx,
        # xy, yy, xt, yt, tt, from lam/m and -grad m = (-gx, -gy, 1)
        lam_d = lam[self.disks]
        buf = self.buf.reshape(6, -1)
        ng = -tab.g.reshape(2, -1)
        np.divide(lam_d, tab.m[self.disks], out=buf[5])
        np.multiply(ng, buf[5], out=buf[3:5])
        np.multiply(buf[3], ng, out=buf[:2])
        np.multiply(buf[4], ng[1], out=buf[2])
        if tab.h is not None:
            buf[:3] -= tab.h.reshape(3, -1) * lam_d
        S = np.add.reduce(self.buf, axis=1)
        S[5] += lam[self.floor] / tab.m[self.floor]  # the floor: grad m = (0, 0, 1)
        # the chain per step: grad m * sqrt(lam/m) in x, y, then xx, xy, yy
        lam_c = lam[self.chain]
        C = np.empty((5, n + 1))
        np.multiply(tab.d, -2.0 * np.sqrt(lam_c / tab.m[self.chain]), out=C[:2])
        np.multiply(C[0], C[0], out=C[2])
        np.multiply(C[0], C[1], out=C[3])
        np.multiply(C[1], C[1], out=C[4])
        C[2::2] += 2.0 * lam_c
        # a step's rows touch its head slot and its tail alike
        S[:3] += C[2:, :-1] + C[2:, 1:]
        # the objective's curvature in x, y and t
        S[0:3:2] += curv
        S[5] -= gt * (i1 + i2)
        # eliminate t: xx, xy, yy less u (xt, yt)^T, u = (xt, yt)/tt
        u = S[3:5] / S[5]
        S[:2] -= u * S[3]
        S[2] -= u[1] * S[4]
        # column-major, as LAPACK stores it: band[n, c*(kd+1) + d] = ab[d, 2n + c]
        band = np.zeros((n, 2 * (kd + 1)))
        band[:, self._DIAG] = S[:3].T
        for pos, row in zip(self._OFF, (2, 3, 3, 4)):  # the chain's xx, xy, xy, yy
            np.negative(C[row, 1:-1], out=band[:-1, pos])
        g0 = np.empty((3, n))
        np.multiply(curv, z[:2], out=g0[:2])
        g0[T] = gt
        return g0, band.reshape(2 * n, kd + 1).T, (u, S[5])

    def newton_step(self, c, elim, rhs) -> np.ndarray:
        """dz solving H dz = rhs, both (3, n), from the factor ``c`` of
        ``assemble``'s band and its (u, tt); only the band interleaves x, y."""
        u, tt = elim
        dz = np.empty_like(rhs)
        dz[:2] = cho_solve_banded(c, (rhs[:2] - u * rhs[T]).T.ravel()).reshape(-1, 2).T
        dz[T] = rhs[T] / tt - (u[X] * dz[X] + u[Y] * dz[Y])
        return dz

    def jt(self, tab: _Table, w) -> np.ndarray:
        """sum_i w_i grad m_i over every margin, (3, n) like z."""
        n = self.n
        wd = w[self.disks].reshape(-1, n)
        out = np.empty((3, n))
        np.add.reduce(tab.g * wd, axis=1, out=out[:2])
        np.subtract(w[self.floor], np.add.reduce(wd), out=out[T])
        # a step's rows touch its head slot with +1 and its tail with -1
        C = tab.d * (-2.0 * w[self.chain])
        out[:2] += C[:, :-1] - C[:, 1:]
        return out

    # -- step model --------------------------------------------------------
    def ray(self, tab: _Table, dz):
        """(m1, m2) of the second-order model tab.m + a*m1 + a^2*m2 of the
        margins along z + a*dz, flat; exact on the quadratic rows."""
        n = self.n
        dpad = self.dpad
        dpad[:, 1:-1] = dz[:2]
        dd = dpad[:, 1:] - dpad[:, :-1]
        m1, m2 = np.empty(self.m_bar), np.zeros(self.m_bar)
        np.multiply(-2.0, np.add.reduce(tab.d * dd), out=m1[self.chain])
        np.negative(np.add.reduce(dd * dd), out=m2[self.chain])
        m1[self.floor] = dz[T]
        np.subtract(np.add.reduce(tab.g * dz[:2, None]), dz[T],
                    out=m1[self.disks].reshape(-1, n))
        if tab.h is not None:
            # d^T (hess m) d / 2 from the entries xx, xy, yy
            dq = np.empty((3, n))
            np.multiply(dz[X], dz[:2], out=dq[:2])
            np.multiply(dz[Y], dz[Y], out=dq[2])
            dq[::2] *= 0.5
            np.add.reduce(tab.h * dq[:, None], out=m2[self.disks].reshape(-1, n))
        return m1, m2


def _interior_start(ws: _Workspace):
    """Strictly interior start on the segment from ws.z0 to the straight track.

    The track joins the pins at z0's t.  Returns (z, table at z) for
    z = z0 + 2^-k * (track - z0) at the k < 60 of least barrier, or None when
    none of those points is interior (see "Interior start").
    """
    p, z0 = ws.prog, ws.z0
    frac = (p.slots + 1) / (p.n_slots + 1)
    (x0, y0), (x1, y1) = p.pin_start, p.pin_end
    track = np.stack((x0 + frac * (x1 - x0), y0 + frac * (y1 - y0), z0[T]))
    best, best_barrier = None, math.inf
    for k in range(60):
        z = z0 + 0.5**k * (track - z0)
        tab = ws.table(z)
        barrier = -float(np.log(tab.m).sum()) if tab.m.min() > 0.0 else math.inf
        if barrier < best_barrier:
            best, best_barrier = (z, tab), barrier
        elif best is not None:
            break
    return best


def solve(program) -> SolverResult:
    """Solve the assembled subproblem; deterministic for fixed inputs.

    ``program`` is a ConvexProgram (see trajectory_sca).  A returned status of
    "optimal" certifies strict feasibility (checked by direct evaluation), a
    duality gap at most OPT_TOL relative to the objective scale and a
    stationarity residual at most KKT_TOL ("Stop and certificate").
    """
    ws = _Workspace(program)

    def result(z, tab, status, iters, gap, kkt):
        x, y, t = z
        min_margin = float(tab.m.min())
        objective = surrogate(program, x, y, t) if min_margin > 0.0 else -math.inf
        return SolverResult(x=x, y=y, t=t, objective=objective,
                            status=status, newton_iters=iters,
                            duality_gap=gap, kkt_residual=kkt,
                            min_margin=min_margin)

    start = _interior_start(ws)
    if start is None:
        return result(ws.z0, ws.table(ws.z0), TROUBLE, 0, math.inf, math.inf)

    z, tab = start
    lam = (TAU0_GAP / ws.weight_sum) * ws.weight / tab.m
    iters = 0
    while True:
        m = tab.m
        g0, ab, elim = ws.assemble(tab, z, lam)
        gap = float(lam @ m)
        kkt = float(np.abs(g0 - ws.jt(tab, lam)).max())
        if (kkt <= KKT_TOL
                and gap <= OPT_TOL * max(1.0, abs(surrogate(program, *z)))):
            return result(z, tab, OPTIMAL, iters, gap, kkt)
        if iters >= MAX_NEWTON:
            return result(z, tab, MAX_ITER, iters, gap, kkt)
        try:
            c = cholesky_banded(ab)
        except np.linalg.LinAlgError:
            return result(z, tab, TROUBLE, iters, gap, kkt)
        iters += 1
        mu = gap / ws.weight_sum
        # predictor: the affine-scaling step towards lam*m = 0
        m1, m2 = ws.ray(tab, ws.newton_step(c, elim, -g0))
        dlam = -lam * (1.0 + m1 / m)
        a_p = min(1.0, first_root(m, m1, m2))
        a_d = min(1.0, dual_root(lam, dlam))
        mu_aff = float((lam + a_d * dlam) @ (m + a_p * (m1 + a_p * m2))) / ws.weight_sum
        sigma = (mu_aff / mu) ** 3
        # corrector: centring at sigma*mu*w plus the predictor's second-order terms
        w = (sigma * mu * ws.weight - dlam * m1 - lam * m2) / m
        dz = ws.newton_step(c, elim, ws.jt(tab, w) - g0)
        m1, m2 = ws.ray(tab, dz)
        dlam = w - lam * (1.0 + m1 / m)
        a_p = min(1.0, 0.99 * first_root(m, m1, m2))
        for _ in range(60):
            z_new = z + a_p * dz
            tab_new = ws.table(z_new)
            if tab_new.m.min() > 0.0:
                break
            a_p *= 0.5
        else:
            return result(z, tab, TROUBLE, iters, gap, kkt)
        z, tab = z_new, tab_new
        lam = lam + min(1.0, 0.99 * dual_root(lam, dlam)) * dlam
