"""Multiplier-based robustification of the per-slot eavesdropper constraints.

The requirement "every point of an uncertainty disk is at least sqrt(t) away"
is equivalent, via a nonnegative multiplier, to positive semidefiniteness of a
3x3 arrowhead matrix

    [[a, 0, b],
     [0, a, c],
     [b, c, d]]

whose entries are affine in the decision variables once the squared trajectory
coordinates are replaced by their tangent lines at the expansion point.  With
a >= 1 the PSD condition reduces exactly (Schur complement on the scaled
identity block) to the rotated second-order cone a*d >= b^2 + c^2, which is
what the solver consumes.
"""
from __future__ import annotations

import numpy as np

from .scenario import EveRegion

PSD_TOL_REL = 1e-9


def block_coeff_arrays(eve: EveRegion, x_fea, y_fea, altitude: float):
    """Affine border-entry coefficients of one eavesdropper's blocks, with
    x^2 and y^2 linearized at the expansion point (x_fea, y_fea) of each slot.

    The slot-n block is [[a, 0, b], [0, a, c], [b, c, d]] with a = xi + 1,
    b = eve_x - x, c = eve_y - y and d = kx[n]*x + ky[n]*y - t - radius^2*xi
    + k0[n].  Returns the (kx, ky, k0) arrays.
    """
    x_fea = np.asarray(x_fea, dtype=float)
    y_fea = np.asarray(y_fea, dtype=float)
    kx = 2.0 * (x_fea - eve.center_x)
    ky = 2.0 * (y_fea - eve.center_y)
    k0 = (eve.center_x**2 - x_fea**2 + eve.center_y**2 - y_fea**2 + altitude**2)
    return kx, ky, k0


def psd_check(a: float, b: float, c: float, d: float) -> bool:
    """Eigenvalue test of the arrowhead block, with a scale-relative tolerance."""
    m = np.array([[a, 0.0, b], [0.0, a, c], [b, c, d]])
    min_eig = float(np.linalg.eigvalsh(m)[0])
    return min_eig >= -PSD_TOL_REL * max(1.0, abs(a), abs(d))


def psd_check_many(a, b, c, d) -> np.ndarray:
    """Vectorized :func:`psd_check` over stacked blocks."""
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
