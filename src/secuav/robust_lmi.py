"""The S-procedure block of the per-slot eavesdropper constraints, and its
closed form.

The requirement "every point of an uncertainty disk is at least sqrt(t) away"
is equivalent, via a multiplier nu >= 0 (the S-procedure), to positive
semidefiniteness of a 3x3 arrowhead matrix

    [[a, 0, b],
     [0, a, c],
     [b, c, d]]

with a = nu + 1, (b, c) = c_eve - q and d = L - r^2*nu, where L = lin(q) - t
and lin is |q - c_eve|^2 + H^2 with the squared trajectory coordinates
replaced by their tangent lines at the expansion point.  With a >= 1 the PSD
condition reduces exactly (Schur complement on the scaled identity block) to
the rotated second-order cone a*d >= b^2 + c^2, i.e.

    f(nu) = (nu + 1)*(L - r^2*nu) >= rho^2,   rho = |q - c_eve|.

The S-lemma is lossless for one quadratic constraint (Polik & Terlaky, "A
survey of the S-lemma", SIAM Review 2007), and f is a concave
quadratic in nu, so the multiplier can be maximized out.  For r > 0 the
maximizer is nu* = max(0, (L - r^2)/(2r^2)):

  * L >= r^2: f(nu*) = (L + r^2)^2/(4r^2), so the block is certifiable iff
    L + r^2 >= 2*r*rho, i.e. L >= 2*r*rho - r^2;
  * L < r^2: f(0) = L, so it is certifiable iff L >= rho^2 (which forces
    rho < r).

Both cases together read L >= huber_r(rho), with huber_r(rho) = rho^2 for
rho <= r and 2*r*rho - r^2 beyond (2*r*rho - r^2 <= rho^2 always, and for
rho > r it exceeds r^2).  For r = 0 f grows without bound in nu when L > 0,
and the condition is L >= 0 = huber_0(rho), an affine row.  So the solver
works with the concave margin lin(q) - t - huber_r(|q - c_eve|) and no
multiplier; the arrowhead checks below remain as the oracle of
``secuav verify``.
"""
from __future__ import annotations

import numpy as np

from .scenario import EveRegion

PSD_TOL_REL = 1e-9


def block_coeff_arrays(eve: EveRegion, x_fea, y_fea, altitude: float):
    """Coefficients of lin = kx[n]*x + ky[n]*y + k0[n], the squared 3-D
    distance |q - c_eve|^2 + H^2 with x^2 and y^2 linearized at the expansion
    point (x_fea, y_fea) of each slot.  Returns the (kx, ky, k0) arrays.

    In the slot-n block above, d = lin - t - radius^2*nu.
    """
    x_fea = np.asarray(x_fea, dtype=float)
    y_fea = np.asarray(y_fea, dtype=float)
    kx = 2.0 * (x_fea - eve.center_x)
    ky = 2.0 * (y_fea - eve.center_y)
    k0 = (eve.center_x**2 - x_fea**2 + eve.center_y**2 - y_fea**2 + altitude**2)
    return kx, ky, k0


def psd_check_many(a, b, c, d) -> np.ndarray:
    """Eigenvalue test of stacked arrowhead blocks, with a scale-relative tolerance."""
    a, b, c, d = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, c, d)))
    zeros = np.zeros_like(a)
    m = np.stack([np.stack([a, zeros, b], axis=-1),
                  np.stack([zeros, a, c], axis=-1),
                  np.stack([b, c, d], axis=-1)], axis=-2)
    min_eig = np.linalg.eigvalsh(m)[..., 0]
    return min_eig >= -PSD_TOL_REL * np.maximum.reduce([np.ones_like(a), np.abs(a), np.abs(d)])


def soc_feasible_many(a, b, c, d) -> np.ndarray:
    """Vectorized rotated-cone membership (exact inequalities, no tolerance)."""
    a, b, c, d = (np.asarray(v, dtype=float) for v in (a, b, c, d))
    return (a >= 0.0) & (d >= 0.0) & (a * d - b**2 - c**2 >= 0.0)
