"""The paper's S-procedure arrowhead block, as a test oracle.

The planner never builds this block: ``secuav.trajectory_sca`` maximizes the
multiplier out in closed form (its docstring has the derivation) and the
solver works with the disk margin lin(q) - t - huber_r(|q - c|) alone.  These
helpers (the entry map, the exact and linearized border entry, scalar and
vectorized PSD tests, vectorized rotated-cone membership) spell the block
out, so that the tests, c02 among them, can check the margin against it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from secuav.scenario import EveRegion

PSD_TOL_REL = 1e-9


def psd_check(a: float, b: float, c: float, d: float) -> bool:
    """Eigenvalue test of one arrowhead block, with a scale-relative tolerance."""
    m = np.array([[a, 0.0, b], [0.0, a, c], [b, c, d]])
    min_eig = float(np.linalg.eigvalsh(m)[0])
    return min_eig >= -PSD_TOL_REL * max(1.0, abs(a), abs(d))


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


@dataclass(frozen=True)
class ArrowheadCoeffs:
    """Affine map (x, y, t, xi) -> (a, b, c, d) for one (eavesdropper, slot) block.

    a = xi + 1;  b = eve_x - x;  c = eve_y - y;
    d = kx*x + ky*y - t - q2*xi + k0.
    """

    eve_x: float
    eve_y: float
    q2: float
    kx: float
    ky: float
    k0: float

    def entries(self, x: float, y: float, t: float, xi: float) -> tuple[float, float, float, float]:
        a = xi + 1.0
        b = self.eve_x - x
        c = self.eve_y - y
        d = self.kx * x + self.ky * y - t - self.q2 * xi + self.k0
        return a, b, c, d


def block_coeffs(eve: EveRegion, x_fea: float, y_fea: float, altitude: float) -> ArrowheadCoeffs:
    """Affine entry map for one eavesdropper, linearized at (x_fea, y_fea)."""
    return ArrowheadCoeffs(
        eve_x=eve.center_x,
        eve_y=eve.center_y,
        q2=eve.radius**2,
        kx=2.0 * (x_fea - eve.center_x),
        ky=2.0 * (y_fea - eve.center_y),
        k0=(eve.center_x**2 - x_fea**2 + eve.center_y**2 - y_fea**2 + altitude**2),
    )


def exact_c(x, y, t, eve: EveRegion, altitude: float):
    """Border entry with the true squared coordinates: |pos - center|^2 + H^2 - t."""
    return (x**2 - 2.0 * eve.center_x * x + eve.center_x**2
            + y**2 - 2.0 * eve.center_y * y + eve.center_y**2
            + altitude**2 - t)


def linearized_c(x, y, t, x_fea, y_fea, eve: EveRegion, altitude: float):
    """Border entry with x^2, y^2 replaced by their tangents at the expansion point.

    A global under-estimator of :func:`exact_c`, equal to it at the expansion
    point.
    """
    return (2.0 * x_fea * x - x_fea**2 - 2.0 * eve.center_x * x + eve.center_x**2
            + 2.0 * y_fea * y - y_fea**2 - 2.0 * eve.center_y * y + eve.center_y**2
            + altitude**2 - t)

