"""Scalar arrowhead-block helpers for the robust-LMI tests.

The planner uses only ``block_coeff_arrays`` and ``secuav verify`` the
vectorized checks of ``secuav.robust_lmi``; these scalar forms (entry maps,
matrix round trips, the exact and linearized border entry, the PSD test)
spell out the S-procedure derivation the tests check the disk margin against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from secuav.robust_lmi import PSD_TOL_REL
from secuav.scenario import EveRegion


def psd_check(a: float, b: float, c: float, d: float) -> bool:
    """Eigenvalue test of one arrowhead block, with a scale-relative tolerance."""
    m = np.array([[a, 0.0, b], [0.0, a, c], [b, c, d]])
    min_eig = float(np.linalg.eigvalsh(m)[0])
    return min_eig >= -PSD_TOL_REL * max(1.0, abs(a), abs(d))


class ArrowheadPatternError(ValueError):
    """Raised when a matrix does not have the expected arrowhead sparsity."""


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


@dataclass(frozen=True)
class LmiBlock:
    """One arrowhead block: entry values plus the affine map that produced them."""

    a: float
    b: float
    c: float
    d: float
    coeffs: ArrowheadCoeffs | None = None

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, 0.0, self.b],
                         [0.0, self.a, self.c],
                         [self.b, self.c, self.d]])

    @classmethod
    def from_matrix(cls, m: np.ndarray, coeffs: ArrowheadCoeffs | None = None) -> "LmiBlock":
        m = np.asarray(m, dtype=float)
        if m.shape != (3, 3):
            raise ArrowheadPatternError(f"expected a 3x3 matrix, got shape {m.shape}")
        scale = max(1.0, float(np.abs(m).max()))
        if (abs(m[0, 1]) > 1e-12 * scale or abs(m[1, 0]) > 1e-12 * scale
                or abs(m[0, 0] - m[1, 1]) > 1e-12 * scale
                or abs(m[0, 2] - m[2, 0]) > 1e-12 * scale
                or abs(m[1, 2] - m[2, 1]) > 1e-12 * scale):
            raise ArrowheadPatternError("matrix is not a symmetric arrowhead block")
        return cls(a=float(m[0, 0]), b=float(m[0, 2]), c=float(m[1, 2]),
                   d=float(m[2, 2]), coeffs=coeffs)


@dataclass(frozen=True)
class RotatedSocConstraint:
    """a >= 0, d >= 0, a*d >= b^2 + c^2 -- exact PSD replacement for a block."""

    a: float
    b: float
    c: float
    d: float

    def residual(self) -> float:
        return self.a * self.d - self.b**2 - self.c**2

    def satisfied(self) -> bool:
        return self.a >= 0.0 and self.d >= 0.0 and self.residual() >= 0.0


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


def build_block(eve: EveRegion, x_fea: float, y_fea: float, altitude: float,
                x: float, y: float, t: float, xi: float) -> LmiBlock:
    coeffs = block_coeffs(eve, x_fea, y_fea, altitude)
    a, b, c, d = coeffs.entries(x, y, t, xi)
    return LmiBlock(a=a, b=b, c=c, d=d, coeffs=coeffs)


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


def as_rotated_soc(block) -> RotatedSocConstraint:
    """Exact cone form of an arrowhead block (valid because a = xi + 1 >= 1)."""
    if isinstance(block, np.ndarray):
        block = LmiBlock.from_matrix(block)
    if not isinstance(block, LmiBlock):
        raise ArrowheadPatternError(f"expected an LmiBlock or 3x3 array, got {type(block)!r}")
    return RotatedSocConstraint(a=block.a, b=block.b, c=block.c, d=block.d)
