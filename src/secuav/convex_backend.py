"""Primal-dual interior-point solver for the trajectory subproblem.

The program class is fixed: maximize a concave objective

    sum_n [ -g_u[n]*(x[n]^2 + y[n]^2 + H^2) - log2(1 + P[n]/t[n]) ]   (+ constant)

over per-slot variables (x, y, t) of the program's n slots, subject to

  * mobility balls   |q[b] - q[a]|^2 <= (g*L)^2, q = (x, y), for consecutive
                     slots a, b g flight steps apart (pins at -1 and N),
  * disk margins     t <= lin(q) - huber_r(|q - c|)  per (eavesdropper, slot),
                     with lin = k . q + k0 and
                     huber_r(rho) = rho^2 for rho <= r, 2*r*rho - r^2 beyond.

lin is the tangent lower bound of |q - c|^2 + H^2 at the expansion point, so
lin - huber_r is at most (|q - c| - r)_+^2 + H^2, the true worst-case squared
distance to the disk of radius r around c (``trajectory_sca`` derives the
margin from the S-procedure; the huber-margin suite of ``secuav verify``
checks the rows against ``worst_case_dist_sq``).  Radius-zero eavesdroppers
are the case r = 0, an affine row; when every radius is zero (the non-robust
planner) the table carries no Hessian entries.  The disk margins bound t
only from above; t > 0 is the objective's domain, which the iterations never
leave (see "Step rules"), and for P > 0 log2(1 + P/t) grows without bound as
t falls to 0, so no bound row is needed.

The method.  A Mehrotra predictor-corrector primal-dual interior-point method
(Mehrotra, SIAM J. Optim. 1992; Nocedal & Wright, Numerical Optimization,
ch. 19) minimizes f0, the negated objective, subject to every margin
m_i(z) >= 0.  The point z stays strictly interior and each margin carries a
multiplier lambda_i > 0; the iterations drive the residual
r = grad f0 - sum_i lambda_i grad m_i and the complementarity
mu = lambda^T m / sum(w) to zero (w the row weights below), over
m_bar = (n+1) + K*n margins.  Each iteration factors

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
positive: each of the slot's K >= 1 disk rows (``scenario.validate`` demands
an eavesdropper) adds lambda/m > 0, and the objective adds
(1/t^2 - 1/(t+P)^2)/ln 2 >= 0.  So the band holds the Schur complement
over x, y: with u = (xt, yt)/tt, the slot blocks less u (xt, yt)^T, the
right-hand side r_q - u*r_t, and then dt = r_t/tt - u . (dx, dy).

Step rules.  The corrector's primal step is 0.99 times its models' first
positive root, capped at 1, and halved until the trial point lies in the
domain: every t positive (no margin models t > 0) and every margin of its
table positive (the model of a disk row outside its disk is inexact); its
dual step is 0.99 times the distance to lambda = 0, capped at 1.  No merit
function judges a step.  A cold solve starts at the interior start below with
lambda_i = (TAU0_GAP/sum(w))*w_i/m_i, so lambda^T m = TAU0_GAP.

Stop and certificate.  The status is "optimal" once
lambda^T m <= OPT_TOL*max(1, |objective|) and |r|_inf <= KKT_TOL, at a point
whose margins, evaluated directly, are all positive; MAX_NEWTON iterations
end it as "max_iter" and a failed factorization (not positive definite, or
a factor that is not finite) as "numerical_trouble"; the test precedes the
Newton matrix, and |r|_inf is computed only once the gap test passes.
``duality_gap`` is lambda^T m and ``kkt_residual`` is |r|_inf.  The point z
minimizes the Lagrangian f0 - r.z - lambda^T m exactly, as that is convex in
z on f0's domain t > 0 (f0 is convex there, every margin concave) and
stationary at z; so z is within lambda^T m of the optimum of the problem
whose objective is tilted by r.z (Boyd & Vandenberghe, Convex Optimization,
sect. 5.2), a tilt of at most KKT_TOL per coordinate.  The argument needs no
quadratic or self-concordant margins, so the disk rows, whose Hessian jumps
at the rim, leave it intact.

Interior start.  The cold start's ``_Workspace.z0`` is the expansion point
with t a tenth of the way from the tight t (at least H^2) down to H^2/2, so
t >= 0.95*H^2 > 0.  There each disk's lin - huber_r is the true worst-case
squared distance, at least the tight t, so the disk margins are positive; the
mobility margins are often zero, as a track that flies at maximum speed sits
on their boundary.  Every margin is concave, so on the segment from z0 to the
straight track between the pins (same t) each margin is at least the
interpolation of its two ends; the track puts flight slot s at the fraction
(s + 1)/(N + 1) of the way, so its mobility margins are positive whenever the
pins are closer than the (N+1)-step budget, which ``scenario.validate``
demands.  So every point of the segment close enough to z0, but off it, is
interior.  The solver starts at the step 2^-k along the segment of least
barrier; the barrier is convex there, so the search stops at its first
increase.  Eight points share one margin pass (the table's own arithmetic,
``_Workspace._margins``; fewer where that exceeds START_BATCH_MARGINS), the
next eight only if the barrier has not risen, so k is the point-by-point one.

Warm start.  A plan's programs differ only in the expansion point and the
kept slots, so a solve may start from the previous solve's hand-off: its
first iterate with lambda^T m <= sqrt(OPT_TOL)*max(1, |objective|), not its
final one, whose tiny margins on the boundary stalled a later solve
(Yildirim & Wright, SIAM J. Optim. 2002).  Kept slots take its x, y, t and
disk lambdas, and chain rows whose ends are consecutive in both programs their
lambda; a new slot takes x, y interpolated by slot index, as ``solve_step``
fills silent slots (``fill_track``), and t its least disk margin at t = 0
less the median over the old slots of mu/max_k lambda; every other row takes
lambda = mu*w/m.  If some t or margin there is not positive, the solve starts
cold.  Only the first iterate moves, so the stop test and its certificate are
unchanged.

Layout.  The point z, every step dz, the objective gradient and every Newton
right-hand side are one (3, n) array of rows x, y, t.  Only the band
interleaves x and y slot by slot; ``newton_step`` transposes into it and out.
The workspace's buffers ``qpad``, ``dpad``, ``buf`` and ``rhs`` are scratch
that each call overwrites; tables, bands, gradients, steps and results are new.

Constraint families.  Every margin is concave, and the table at a point holds
two row blocks, in the flat order chain, disks (``_Workspace`` names the two
slices).  The mobility chain has n+1 rows, written in the differences
(dx, dy) = (x[j]-x[j-1], y[j]-y[j-1]); it reaches the two slots of each row
through the chain rule.  The disks form a (K, n) stack, eavesdropper by
eavesdropper: a row's gradient (gx, gy, -1) in x, y, t forms one (3, K, n)
array, and its Hessian entries xy, xx, yy another, or None when every
radius is zero (every row is then affine).  The solver reads the
table everywhere:

  * the margins serve the interior start, the domain check of every trial
    point and the margin of the result;
  * the Newton matrix H adds (lambda/m) grad m grad m^T - lambda hess m: the
    disks' terms are summed over the K rows in one reduction into the 3x3
    slot blocks, and the chain adds its diagonal and off-diagonal bands;
    with t eliminated, both are written as the band's columns and copied once
    into the Fortran-ordered lower band array (bandwidth 3) that
    ``cholesky_banded`` hands to LAPACK's dpbtrf, which factors it in place
    (``cho_solve_banded`` solves with dpbtrs; both call the routines of
    scipy's compiled LAPACK module directly, see ``_load_flapack``);
    ``jt`` sums v_i grad m_i (any v) for the residual and the corrector;
  * along a step dz each margin is modelled by m0 + a*m1 + a^2*m2 in the
    step length a, with m1 = grad m . dz and m2 = dz^T (hess m) dz / 2.  The
    model is exact for every quadratic row: the mobility rows, r = 0 rows
    and disk rows inside their disk.  A disk row outside its disk is off by
    O(a^3).
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
START_BATCH_MARGINS = 4096  # margins per batch of the interior start


class Handoff(NamedTuple):
    """A solve's first iterate within sqrt(OPT_TOL) of its stop test."""

    slots: np.ndarray       # the program's slots
    z: np.ndarray           # (3, n)
    lam: np.ndarray         # (m_bar,)
    mu: float               # lambda^T m / sum(w) there


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
    warm_start: bool = False  # started from a hand-off
    handoff: Handoff | None = None  # for the next step's solve


OPTIMAL = "optimal"
MAX_ITER = "max_iter"
TROUBLE = "numerical_trouble"

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
    if info != 0 or not np.logical_and.reduce(np.isfinite(c[0])):
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
    """The two row blocks at one point (see "Constraint families")."""

    m: np.ndarray                  # (m_bar,) every margin: chain, disks
    d: np.ndarray                  # (2, n+1) chain steps dx, dy
    g: np.ndarray                  # (3, K, n) disk gradient in x, y, t (t's is -1)
    h: np.ndarray | None           # (3, K, n) disk Hessian xy, xx, yy, or None


def surrogate(prog, x, y, t) -> float:
    """The maximized objective at (x, y, t), constants included."""
    return prog.obj_const - float(np.add.reduce(prog.g_u * (x**2 + y**2 + prog.h2))
                                  + np.add.reduce(log2_1p(prog.p_scaled / t)))


def first_root(m0, m1, m2) -> float:
    """Smallest positive root of every m0 + a*m1 + a^2*m2, or math.inf.

    ``m0`` must be positive.
    """
    disc = m1 * m1 - 4.0 * m0 * m2
    # 1/a solves m0*s^2 + m1*s + m2 = 0; the largest s is the first root
    complex_rows = not np.minimum.reduce(disc) >= 0.0
    inv = (np.sqrt(np.maximum(disc, 0.0) if complex_rows else disc) - m1) / (2.0 * m0)
    if complex_rows:  # a row with disc < 0 never reaches 0: s = 0
        inv *= disc >= 0.0
    top = float(np.maximum.reduce(inv))
    return 1.0 / top if top > 0.0 else math.inf


def dual_root(lam, dlam) -> float:
    """Smallest step a > 0 at which some lam + a*dlam reaches 0, or math.inf."""
    low = float(np.minimum.reduce(dlam / lam))
    return -1.0 / low if low < 0.0 else math.inf


class _Workspace:
    """Constraint table and Newton system of one program (see "Layout")."""

    kd = 3     # bandwidth of the reduced matrix: x couples to the next slot's y

    def __init__(self, prog):
        self.prog = prog
        self.n = n = prog.slots.size
        K = prog.eve_r.size
        ends = np.empty(n + 2, prog.slots.dtype)  # the pins at -1 and N, the slots between
        ends[0], ends[1:-1], ends[-1] = -1, prog.slots, prog.n_slots
        steps = ends[1:] - ends[:-1]  # per chain row
        self.L2 = steps * steps * prog.step_sq_max
        self.m_bar = (n + 1) + K * n
        # the flat margin order: the chain, the disks
        self.chain = slice(0, n + 1)
        self.disks = slice(n + 1, self.m_bar)
        self.weight = np.ones(self.m_bar)  # see "Row weights"
        self.weight[self.chain] = steps
        self.weight_sum = float(self.weight.sum())
        self.robust = bool(prog.eve_r.any())
        self.k = prog.eve_k
        if not self.robust:  # the disks' gradient in x, y, t, the same everywhere
            self.g_affine = np.concatenate((prog.eve_k, np.full((1, K, n), -1.0)))
        self.c = prog.eve_c[:, :, None]
        self.r = np.repeat(prog.eve_r, n).reshape(K, n)
        self.curv = np.repeat(2.0 * prog.g_u[None], 2, axis=0)  # f0's in x, y
        # the cold start's anchor (see "Interior start")
        self.z0 = np.stack((prog.x_fea, prog.y_fea,
                            prog.t_fea - 0.1 * (prog.t_fea - 0.5 * prog.h2)))
        # the disks' entries xy, xx, yy, -xt, -yt, tt of (lam/m) grad m grad m^T
        # - lam hess m, before assemble sums them over the rows
        self.buf = np.empty((6, K, n))
        # x, y between the pins, a ray's dx, dy between pins that stay put, and
        # a right-hand side's x, y interleaved slot by slot, as the band's
        self.qpad = np.column_stack((prog.pin_start, np.zeros((2, n)), prog.pin_end))
        self.dpad = np.zeros((2, n + 2))
        self.rhs = np.empty((n, 2))

    # -- constraint table --------------------------------------------------
    def _margins(self, qpad, t):
        """Margins (..., m_bar) at the points with x, y rows qpad (..., 2, n+2),
        padded with the pins, and t row t; then the chain steps d and the disks'
        w = q - c, |w|^2, phi = min(1, r/|w|) and 2*phi (None if every r = 0)."""
        d = qpad[..., 1:] - qpad[..., :-1]
        dd = d * d
        m = np.empty(qpad.shape[:-2] + (self.m_bar,))
        np.subtract(self.L2, dd[..., 0, :] + dd[..., 1, :], out=m[..., self.chain])
        q = qpad[..., 1:-1]
        disk = m[..., self.disks].reshape(m.shape[:-1] + (-1, self.n))
        kq = self.k * q[..., None, :]
        np.add(kq[..., 0, :, :], kq[..., 1, :, :], out=disk)
        disk += self.prog.eve_k0
        disk -= t
        if not self.robust:  # every huber_0 vanishes: the disk rows are affine
            return m, d, None
        w = q[..., None, :] - self.c
        ww = w * w
        w2 = ww[..., 0, :, :] + ww[..., 1, :, :]
        phi = np.minimum(1.0, self.r / np.maximum(np.sqrt(w2), 1e-300))
        two_phi = phi + phi
        disk -= (two_phi - phi * phi) * w2
        return m, d, (w, w2, phi, two_phi)

    def table(self, z) -> _Table:
        """The two row blocks at z."""
        qpad = self.qpad
        qpad[:, 1:-1] = z[:2]
        m, d, disks = self._margins(qpad, z[T])
        if disks is None:
            return _Table(m, d, self.g_affine, None)
        w, w2, phi, two_phi = disks
        # the outer branch's curvature factor 2*phi/|w|^2 (0 inside the disk)
        curv = (phi < 1.0) * two_phi / np.maximum(w2, 1e-300)
        g, h = np.empty((2, 3) + w2.shape)
        np.subtract(self.k, two_phi * w, out=g[:2])
        g[T] = -1.0
        cw = curv * w
        np.multiply(cw, w, out=h[1:])
        np.multiply(cw[0], w[1], out=h[0])
        h[1:] -= two_phi
        return _Table(m, d, g, h)

    # -- Newton system ----------------------------------------------------
    def gradient(self, z):
        """grad f0 at z, (3, n) like z, with 1/t and 1/(t + P) it is made of."""
        t = z[T]
        i1, i2 = 1.0 / t, 1.0 / (t + self.prog.p_scaled)
        g0 = np.empty((3, self.n))
        np.multiply(self.curv, z[:2], out=g0[:2])
        np.divide(i2 - i1, LN2, out=g0[T])
        return g0, i1, i2

    def assemble(self, tab: _Table, z, lam):
        """Objective gradient and Newton matrix H at z with multipliers lam.

        Returns (grad f0, ab, elim), each new: ab is H with t eliminated, in
        the lower band form that ``cholesky_banded`` reads, and elim what
        ``newton_step`` eliminates t with (see "Eliminating t").
        """
        n, kd = self.n, self.kd
        g0, i1, i2 = self.gradient(z)
        gt = g0[T]  # d f0/dt
        # the disks, summed over their rows into the per-slot entries S: xy,
        # xx, yy, -xt, -yt, tt, from lam/m and grad m = (gx, gy, -1)
        lam_d = lam[self.disks]
        buf = self.buf.reshape(6, -1)
        g = tab.g.reshape(3, -1)
        np.divide(lam_d, tab.m[self.disks], out=buf[5])
        np.multiply(g[:2], buf[5], out=buf[3:5])
        np.multiply(buf[3:5], g[:2], out=buf[1:3])
        np.multiply(buf[3], g[1], out=buf[0])
        if tab.h is not None:
            buf[:3] -= tab.h.reshape(3, -1) * lam_d
        S = np.add.reduce(self.buf, axis=1)
        # the chain per step: grad m * sqrt(lam/m) in x, y, then xy, xx, yy
        lam_c = lam[self.chain]
        C = np.empty((5, n + 1))
        np.multiply(tab.d, -2.0 * np.sqrt(lam_c / tab.m[self.chain]), out=C[:2])
        np.multiply(C[0], C[1], out=C[2])
        np.multiply(C[:2], C[:2], out=C[3:])
        C[3:] += lam_c + lam_c
        # a step's rows touch its head slot and its tail alike
        S[:3] += C[2:, :-1] + C[2:, 1:]
        # the objective's curvature in x, y and t
        S[1:3] += self.curv
        S[5] -= gt * (i1 + i2)
        # eliminate t: xy, xx, yy less u (xt, yt)^T with u = (xt, yt)/tt; v = -u
        v = S[3:5] / S[5]
        # the band's columns, one row each: xx, xy, x'x, y'x, yy, x'y, y'y
        # and 0 at every slot (' the next slot's), then column-major, as LAPACK
        # stores it: band[s, c*(kd+1) + d] = ab[d, 2s + c]
        cols = np.zeros((2 * (kd + 1), n))
        np.subtract(S[1:3], v * S[3:5], out=cols[::4])
        np.subtract(S[0], v[1] * S[3], out=cols[1])
        np.negative(C[3:1:-1, 1:-1], out=cols[2:4, :-1])
        np.negative(C[2::2, 1:-1], out=cols[5:7, :-1])
        band = np.ascontiguousarray(cols.T)
        return g0, band.reshape(2 * n, kd + 1).T, (v, S[5])

    def newton_step(self, c, elim, rhs) -> np.ndarray:
        """dz solving H dz = rhs, both (3, n), from the factor ``c`` of
        ``assemble``'s band and its elim; only the band interleaves x, y."""
        v, tt = elim
        b = self.rhs
        np.add(rhs[:2], v * rhs[T], out=b.T)
        dz = np.empty_like(rhs)
        dz[:2] = cho_solve_banded(c, b.ravel()).reshape(-1, 2).T
        vdq = v * dz[:2]
        np.add(rhs[T] / tt, vdq[X] + vdq[Y], out=dz[T])
        return dz

    def jt(self, tab: _Table, w) -> np.ndarray:
        """sum_i w_i grad m_i over every margin, (3, n) like z."""
        out = np.add.reduce(tab.g * w[self.disks].reshape(-1, self.n), axis=1)
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
        m1, m2 = np.empty((2, self.m_bar))
        step = tab.d * dd
        np.multiply(-2.0, step[0] + step[1], out=m1[self.chain])
        sq = dd * dd
        np.negative(sq[0] + sq[1], out=m2[self.chain])
        np.add.reduce(tab.g * dz[:, None], out=m1[self.disks].reshape(-1, n))
        if tab.h is None:
            m2[self.disks] = 0.0
        else:
            # d^T (hess m) d / 2 from the entries xy, xx, yy
            dq = np.empty((3, n))
            np.multiply(dz[X], dz[Y], out=dq[0])
            np.multiply(dz[:2], dz[:2], out=dq[1:])
            dq[1:] *= 0.5
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
    start, span = ws.qpad.copy(), np.zeros((2, ws.n + 2))  # x, y padded with the pins
    start[:, 1:-1] = z0[:2]
    span[:, 1:-1] = (x0 + frac * (x1 - x0), y0 + frac * (y1 - y0))
    span[:, 1:-1] -= z0[:2]
    batch = min(8, max(1, START_BATCH_MARGINS // ws.m_bar))

    def scored():  # (barrier, where) for k = 0, 1, ..., a margin pass per batch
        for first in range(0, 60, batch):
            ks = np.arange(first, min(first + batch, 60))
            points = start + np.ldexp(1.0, -ks)[:, None, None] * span
            m = ws._margins(points, z0[T])[0]
            inside = np.minimum.reduce(m, axis=1) > 0.0
            barrier = np.full(ks.size, math.inf)
            barrier[inside] = -np.add.reduce(np.log(m[inside]), axis=1)
            for i, value in enumerate(barrier):
                yield value, (i, points)

    best, best_barrier = None, math.inf
    for barrier, where in scored():
        if barrier < best_barrier:
            best, best_barrier = where, barrier
        elif best is not None:
            break
    if best is None:
        return None
    i, points = best
    z = np.empty_like(z0)
    z[:2], z[T] = points[i, :, 1:-1], z0[T]
    return z, ws.table(z)


def fill_track(prog, slots, q, at):
    """x, y at the track indices ``at`` (slot s is index s + 1), linear in the
    index between the points q (2, n) of ``slots`` and the program's pins."""
    knots = np.concatenate(([0], slots + 1, [prog.n_slots + 1]))
    return [np.interp(at, knots, np.concatenate(([a], v, [b])))
            for a, v, b in zip(prog.pin_start, q, prog.pin_end)]


def _warm_start(ws: _Workspace, warm: Handoff):
    """The hand-off mapped onto ws's program, (z, table at z, lam), or None
    when that point is not interior (see "Warm start")."""
    p, n, K = ws.prog, ws.n, ws.prog.eve_r.size
    old, old_disks = warm.slots, warm.lam[warm.slots.size + 1:].reshape(K, -1)
    at = np.minimum(np.searchsorted(old, p.slots), old.size - 1)
    kept = old[at] == p.slots
    z = np.empty((3, n))
    z[:2] = fill_track(p, old, warm.z[:2], p.slots + 1)
    z[T] = np.where(kept, warm.z[T, at], 0.0)
    if not kept.all():  # new slots: the smallest disk margin at t = 0, less delta
        spread = warm.mu / np.maximum.reduce(old_disks)
        delta = np.partition(spread, spread.size // 2)[spread.size // 2]
        rows = ws.table(z).m[ws.disks].reshape(K, n)[:, ~kept]
        z[T, ~kept] = np.minimum.reduce(rows) - delta
    tab = ws.table(z)
    if not (np.minimum.reduce(z[T]) > 0.0 and np.minimum.reduce(tab.m) > 0.0):
        return None
    lam = warm.mu * ws.weight / tab.m
    lam[ws.disks].reshape(K, n)[:, kept] = old_disks[:, at[kept]]
    # each chain row's ends in the old row order (-2: a new slot); a row whose
    # ends are consecutive there is an old row
    ends = np.concatenate(([0], np.where(kept, at + 1, -2), [old.size + 1]))
    same = ends[1:] - ends[:-1] == 1
    lam[ws.chain][same] = warm.lam[ends[:-1][same]]
    return z, tab, lam


def solve(program, warm: Handoff | None = None) -> SolverResult:
    """Solve the assembled subproblem; deterministic for fixed inputs.

    ``program`` is a ConvexProgram (see trajectory_sca), ``warm`` a hand-off
    or None (see "Warm start").  A returned status of
    "optimal" certifies strict feasibility (checked by direct evaluation), a
    duality gap at most OPT_TOL relative to the objective scale and a
    stationarity residual at most KKT_TOL ("Stop and certificate").
    """
    ws = _Workspace(program)
    start = None if warm is None else _warm_start(ws, warm)
    warm_start, handoff = start is not None, None

    def result(z, tab, status, iters, gap, kkt, objective):
        x, y, t = z
        return SolverResult(x=x, y=y, t=t, objective=objective,
                            status=status, newton_iters=iters,
                            duality_gap=gap, kkt_residual=kkt,
                            min_margin=float(np.minimum.reduce(tab.m)),
                            warm_start=warm_start, handoff=handoff)

    def residual(z, tab, lam):  # |r|_inf
        return float(np.maximum.reduce(np.abs(ws.gradient(z)[0] - ws.jt(tab, lam)), axis=None))

    if not warm_start:
        start = _interior_start(ws)
        if start is None:  # the objective only where z0 itself is interior
            z0 = ws.z0.copy()
            tab = ws.table(z0)
            return result(z0, tab, TROUBLE, 0, math.inf, math.inf, surrogate(program, *z0)
                          if np.minimum.reduce(tab.m) > 0.0 else -math.inf)
        start = (*start, (TAU0_GAP / ws.weight_sum) * ws.weight / start[1].m)
    z, tab, lam = start
    iters = 0
    while True:
        m = tab.m
        gap = float(lam @ m)
        # the stop test before the Newton matrix, and the residual only where
        # the gap test passes, as it rarely does; every iterate is interior,
        # so its objective is the result's on each exit below
        objective = surrogate(program, *z)
        scale = max(1.0, abs(objective))
        if handoff is None and gap <= math.sqrt(OPT_TOL) * scale:
            handoff = Handoff(program.slots, z, lam, gap / ws.weight_sum)
        if gap <= OPT_TOL * scale:
            kkt = residual(z, tab, lam)
            if kkt <= KKT_TOL:
                return result(z, tab, OPTIMAL, iters, gap, kkt, objective)
        if iters >= MAX_NEWTON:
            return result(z, tab, MAX_ITER, iters, gap, residual(z, tab, lam), objective)
        g0, ab, elim = ws.assemble(tab, z, lam)
        try:
            c = cholesky_banded(ab)
        except np.linalg.LinAlgError:
            return result(z, tab, TROUBLE, iters, gap, residual(z, tab, lam), objective)
        iters += 1
        mu = gap / ws.weight_sum
        # predictor: the affine-scaling step towards lam*m = 0
        m1, m2 = ws.ray(tab, ws.newton_step(c, elim, -g0))
        dlam = lam * (-1.0 - m1 / m)
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
            if np.minimum.reduce(z_new[T]) > 0.0 and np.minimum.reduce(tab_new.m) > 0.0:
                break
            a_p *= 0.5
        else:
            return result(z, tab, TROUBLE, iters, gap, residual(z, tab, lam), objective)
        z, tab = z_new, tab_new
        lam = lam + min(1.0, 0.99 * dual_root(lam, dlam)) * dlam
