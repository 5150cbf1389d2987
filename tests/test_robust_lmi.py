import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from secuav.geometry import disk_samples
from secuav.scenario import EveRegion

from arrowhead import (block_coeffs, exact_c, linearized_c, psd_check, psd_check_many,
                       soc_feasible_many)

EVE = EveRegion(-200.0, 0.0, 20.0)

coord = st.floats(-400.0, 400.0)


class TestBorderEntry:
    def test_zero_at_center_with_tight_t(self):
        assert exact_c(-200.0, 0.0, 10_000.0, EVE, 100.0) == 0.0

    def test_scalar_recomputation(self):
        got = exact_c(0.0, 0.0, 10_000.0, EVE, 100.0)
        assert got == pytest.approx(200.0**2 + 100.0**2 - 10_000.0)
        assert got == 40_000.0

    @given(x=coord, y=coord, t=st.floats(0.0, 1e5))
    @settings(max_examples=100, deadline=None)
    def test_identity_with_horizontal_distance(self, x, y, t):
        val = exact_c(x, y, t, EVE, 100.0)
        dist_sq = (x - EVE.center_x) ** 2 + (y - EVE.center_y) ** 2
        assert val + t - 100.0**2 == pytest.approx(dist_sq, rel=1e-12, abs=1e-7)

    def test_linearized_touches_at_expansion(self):
        for (x, y) in [(0.0, 0.0), (-150.0, 30.0), (12.5, -44.0)]:
            lin = linearized_c(x, y, 1e4, x, y, EVE, 100.0)
            assert lin == pytest.approx(exact_c(x, y, 1e4, EVE, 100.0), rel=1e-12)

    @given(x=coord, y=coord, xf=coord, yf=coord)
    @settings(max_examples=150, deadline=None)
    def test_linearized_underestimates(self, x, y, xf, yf):
        lin = linearized_c(x, y, 1e4, xf, yf, EVE, 100.0)
        val = exact_c(x, y, 1e4, EVE, 100.0)
        assert lin <= val + 1e-7

    def test_affine_expression_example(self):
        # expansion at the origin makes both tangent terms vanish
        got = linearized_c(10.0, 0.0, 1e4, 0.0, 0.0, EVE, 100.0)
        assert got == pytest.approx(-2.0 * (-200.0) * 10.0 + 40_000.0 + 0.0 + 1e4 - 1e4)
        assert got == pytest.approx(44_000.0)


class TestPsdCheck:
    def test_diagonal_boundary(self):
        assert psd_check(1.0, 0.0, 0.0, 0.0) is True

    def test_schur_violation(self):
        assert psd_check(1.0, 1.0, 0.0, 0.5) is False

    def test_boundary_equality(self):
        assert psd_check(2.0, 1.0, 1.0, 1.0) is True

    def test_negative_a(self):
        assert psd_check(-1.0, 0.0, 0.0, 1.0) is False

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 3, 200)
        b = rng.normal(0, 2, 200)
        c = rng.normal(0, 2, 200)
        d = rng.uniform(-2, 6, 200)
        many = psd_check_many(a, b, c, d)
        for i in range(200):
            assert many[i] == psd_check(a[i], b[i], c[i], d[i])


class TestRotatedSoc:
    def test_zero_border_reduces_to_sign_conditions(self):
        assert soc_feasible_many(1.0, 0.0, 0.0, 0.0)
        assert not soc_feasible_many(1.0, 0.0, 0.0, -1e-9)

    def test_boundary_feasible_both_ways(self):
        # a*d = b^2 + c^2 exactly: the next d below is outside the cone
        assert soc_feasible_many(1.0, 1.0, 1.0, 2.0)
        assert not soc_feasible_many(1.0, 1.0, 1.0, np.nextafter(2.0, 0.0))
        assert psd_check(1.0, 1.0, 1.0, 2.0)

    def test_agreement_sweep_excluding_boundary_band(self, psd_soc_sweep):
        disagreements, _ = psd_soc_sweep
        assert disagreements == 0


class TestSProcedureSemantics:
    def _max_xi_margin(self, x, y, t, eve, h):
        """Best achievable cone residual over xi >= 0 (concave quadratic)."""
        coeffs = block_coeffs(eve, x, y, h)  # expansion at the point itself
        c_val = exact_c(x, y, t, eve, h)
        q2 = eve.radius**2
        xi = max(0.0, (c_val - q2) / (2.0 * q2)) if q2 > 0 else 0.0
        a, b, c, d = coeffs.entries(x, y, t, xi)
        return xi, a * d - b**2 - c**2

    @given(x=coord, y=coord, margin=st.floats(-3000.0, 3000.0))
    @settings(max_examples=200, deadline=None)
    def test_certified_blocks_imply_disk_distance(self, x, y, margin):
        # whenever some multiplier certifies the block, every disk point is
        # at least sqrt(t) away in 3-D
        h = 100.0
        from secuav.geometry import worst_case_dist_sq
        t = worst_case_dist_sq((x, y), EVE, h) + margin
        if t < h**2:
            return
        xi, resid = self._max_xi_margin(x, y, t, EVE, h)
        if resid < 0.0:
            return
        sx, sy = disk_samples(EVE, 1000, 11)
        d2 = (x - sx) ** 2 + (y - sy) ** 2 + h**2
        assert d2.min() >= t - 1e-6

    @given(x=coord, y=coord, dt=st.floats(0.0, 5000.0))
    @settings(max_examples=200, deadline=None)
    def test_tight_t_always_certifiable(self, x, y, dt):
        # t at (or below) the true worst case admits a certifying multiplier
        h = 100.0
        from secuav.geometry import worst_case_dist_sq
        t = worst_case_dist_sq((x, y), EVE, h) - dt
        if t < h**2:
            t = h**2
        xi, resid = self._max_xi_margin(x, y, t, EVE, h)
        assert xi >= 0.0
        assert resid >= -1e-6 * max(1.0, abs(t))


class TestLinearizationChain:
    @given(x=coord, y=coord, xf=coord, yf=coord,
           t=st.floats(1e4, 6e4), xi=st.floats(0.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_linearized_psd_implies_exact_psd(self, x, y, xf, yf, t, xi):
        h = 100.0
        q2 = EVE.radius**2
        b = EVE.center_x - x
        c = EVE.center_y - y
        d_lin = -q2 * xi + linearized_c(x, y, t, xf, yf, EVE, h)
        d_exact = -q2 * xi + exact_c(x, y, t, EVE, h)
        assert d_lin <= d_exact + 1e-7
        if psd_check(xi + 1.0, b, c, d_lin):
            assert psd_check_many(np.array([xi + 1.0]), np.array([b]),
                                  np.array([c]), np.array([d_exact + 1e-9]))[0]


class TestHuberMargin:
    def test_margin_sign_matches_block_at_best_multiplier(self):
        """lin - t >= huber_r(|w|) exactly when the arrowhead block is PSD at
        the best multiplier xi = max(0, (L - r^2)/(2r^2)), L = lin - t.  For
        r = 0 the best multiplier is unbounded; the smallest certifying one,
        rho^2/L - 1 for L > 0, stands in for it."""
        rng = np.random.default_rng(11)
        n = 200_000
        r = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.5, 50.0, n))
        rho = np.where(r > 0.0, r * rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 100.0, n))
        ang = rng.uniform(0.0, 2.0 * np.pi, n)
        wx, wy = rho * np.cos(ang), rho * np.sin(ang)
        rho = np.hypot(wx, wy)
        huber = np.where(rho <= r, rho**2, 2.0 * r * rho - r**2)
        # lin - t around huber, on both sides, at relative offsets 1e-4..1
        lin = rng.uniform(1e3, 1e5, n)
        t = lin - (huber + rng.normal(0.0, 1.0, n) * np.maximum(1.0, huber)
                   * 10.0 ** rng.uniform(-4.0, 0.0, n))
        slack = lin - t
        q2 = r**2
        xi = np.zeros(n)
        robust = r > 0.0
        xi[robust] = np.maximum(0.0, (slack[robust] - q2[robust]) / (2.0 * q2[robust]))
        flat = ~robust & (slack > 0.0)
        xi[flat] = np.maximum(0.0, rho[flat] ** 2 / slack[flat] - 1.0)
        psd = psd_check_many(xi + 1.0, -wx, -wy, slack - q2 * xi)
        margin_ok = slack >= huber
        # psd_check_many's tolerance blurs a thin band around the boundary
        near = np.abs(slack - huber) <= 1e-5 * np.maximum(1.0, huber)
        assert not np.any((psd != margin_ok) & ~near)
        # both branches and r = 0, each accepted and rejected many times
        for branch in (robust & (rho <= r), robust & (rho > r), ~robust):
            assert (branch & margin_ok & ~near).sum() > 10_000
            assert (branch & ~margin_ok & ~near).sum() > 10_000
