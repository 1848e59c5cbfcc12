"""Named surfaces: closed-form values frozen from independent quadrature.

The reference numbers below were computed with 30-digit mpmath/sympy
arithmetic directly from the meridian formulas (symbolic differentiation,
Gauss-Legendre quadrature after the z = sin(chi) substitution).
"""

import numpy as np
import pytest

import zollflow as zf
from zollflow.profile import FOUR_PI

SQRT2 = np.sqrt(2.0)

# frozen oracles (30-digit computation, see module docstring)
K_RAW_0 = 0.85355339059327376220      # (2 + sqrt 2)/4
K_RAW_03 = 0.73205518281954630665
AREA_RAW = 26.3930985931714654
S_RAW = 2.0 * np.pi - 2.0
S_NORM = 2.58513101468511800
AREA_NORM = 9.61439073415881744
KAPPA = 4.0 * (2.0 - SQRT2)


class TestGong:
    def test_raw_equator_curvature(self):
        assert zf.curvature_meridian(zf.gong_raw(), 0.0) == pytest.approx(
            K_RAW_0, abs=1e-12)
        assert K_RAW_0 == pytest.approx((2.0 + SQRT2) / 4.0, abs=1e-15)

    def test_raw_interior_curvature(self):
        assert zf.curvature_meridian(zf.gong_raw(), 0.3) == pytest.approx(
            K_RAW_03, abs=1e-10)

    def test_normalized_equator_radius_is_one(self):
        g = zf.gong_normalized()
        assert g.r(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_normalized_equator_curvature(self):
        assert zf.curvature_meridian(zf.gong_normalized(), 0.0) \
            == pytest.approx(KAPPA, abs=1e-9)

    def test_derivatives_consistent(self):
        # analytic dr/d2r against central differences of r
        for g in (zf.gong_raw(), zf.gong_normalized()):
            hstep = 1e-5 * g.width
            for z in (-0.5 * g.z_hi, 0.0, 0.11, 0.62 * g.z_hi):
                fd1 = (g.r(z + hstep) - g.r(z - hstep)) / (2 * hstep)
                fd2 = (g.r(z + hstep) - 2 * g.r(z) + g.r(z - hstep)) / hstep**2
                assert g.dr(z) == pytest.approx(fd1, abs=1e-8)
                assert g.d2r(z) == pytest.approx(fd2, abs=1e-5)

    def test_raw_area_and_length(self):
        assert zf.area(zf.gong_raw()) == pytest.approx(AREA_RAW, rel=1e-9)
        p = zf.to_arclength(zf.gong_raw(), n_nodes=4097)
        assert p.total_length == pytest.approx(S_RAW, abs=1e-9)

    def test_normalized_area_and_length(self, gongn_p):
        assert gongn_p.area() == pytest.approx(AREA_NORM, rel=1e-9)
        assert gongn_p.total_length == pytest.approx(S_NORM, abs=1e-9)

    def test_scaling_relation(self):
        # the normalized gong is the raw one scaled by (sqrt 2 + 1)/4
        lam = (SQRT2 + 1.0) / 4.0
        raw, norm = zf.gong_raw(), zf.gong_normalized()
        for z in (-0.3, 0.0, 0.52):
            assert norm.r(lam * z) == pytest.approx(lam * raw.r(z), rel=1e-13)


class TestOddFunction:
    def test_rejects_nonzero_at_one(self):
        with pytest.raises(ValueError):
            zf.OddFunction((0.3, -0.2))

    def test_rejects_sup_too_large(self):
        with pytest.raises(ValueError):
            zf.OddFunction((3.0, -3.0))

    def test_values_and_derivative(self):
        h = zf.OddFunction((0.3, -0.3))
        x = np.linspace(-1, 1, 11)
        np.testing.assert_allclose(h(x), 0.3 * x - 0.3 * x**3, atol=1e-15)
        np.testing.assert_allclose(h.deriv(x), 0.3 - 0.9 * x**2, atol=1e-15)

    def test_odd_symmetry(self):
        h = zf.OddFunction((0.1, 0.2, -0.3))
        x = np.linspace(0, 1, 30)
        np.testing.assert_allclose(h(-x), -h(x), atol=1e-16)

    def test_zero_function(self):
        h = zf.OddFunction(())
        assert h(0.5) == 0.0


class TestMichel:
    def test_meridian_length_is_pi(self, michel_p):
        assert michel_p.total_length == pytest.approx(np.pi, abs=1e-10)

    def test_area_is_4pi(self, michel_p):
        assert michel_p.area() == pytest.approx(FOUR_PI, rel=1e-10)

    def test_equator_radius_one(self, michel_p):
        _, rho_eq = michel_p.equator()
        assert rho_eq == pytest.approx(1.0, abs=1e-9)

    def test_equator_curvature_one(self, michel_p):
        s_eq, _ = michel_p.equator()
        assert zf.curvature_arclength(michel_p, s_eq) == pytest.approx(
            1.0, abs=1e-7)

    def test_equator_at_exact_parallel(self, michel_h):
        # theta = pi/2 sits at s = pi/2 + int_0^{pi/2} h(cos theta) d theta,
        # which is pi/2 + 0.3 (1 - 2/3) for h = 0.3 (x - x^3)
        p = zf.michel_surface(michel_h, n_nodes=512)
        s_eq, _ = p.equator()
        assert abs(s_eq - (np.pi / 2 + 0.1)) <= 1e-9

    def test_zero_h_gives_round_sphere(self):
        p = zf.michel_surface(zf.OddFunction(()), n_nodes=1025)
        s = np.linspace(0.1, np.pi - 0.1, 31)
        assert np.max(np.abs(p.rho(s) - np.sin(s))) < 1e-10

    def test_rejects_degenerate_speed(self):
        class NearOne:
            def __call__(self, x):
                return -0.999999 * np.abs(np.asarray(x)) ** 0 * 1.00001
            def deriv(self, x):
                return np.zeros_like(np.asarray(x, dtype=float))
        with pytest.raises(ValueError):
            zf.michel_surface(NearOne(), n_nodes=257, theta_samples=1025)
