"""Gauge representations, curvature formulas, quadrature plumbing."""

import numpy as np
import pytest
from scipy.optimize import brentq

import zollflow as zf
from zollflow import _kernels
from zollflow.errors import DomainError, GaugeError, PoleProximityError
from zollflow.profile import FOUR_PI, _log_isothermal, simpson_weights

PI = np.pi


def test_simpson_weights_exact_on_cubics():
    for n in (9, 10, 64, 65):
        h = 1.0 / (n - 1)
        x = np.linspace(0.0, 1.0, n)
        w = simpson_weights(n, h)
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert w @ x**3 == pytest.approx(0.25, abs=1e-12)


def test_simpson_weights_sin():
    w = simpson_weights(2048, PI / 2047)
    assert w @ np.sin(np.linspace(0, PI, 2048)) == pytest.approx(2.0, abs=1e-10)


def test_hermite_scalar_and_array_agree(michel_p):
    p = michel_p
    rng = np.random.default_rng(7)
    S = p.total_length
    # points past either end exercise the clamped end cells
    x = np.concatenate([rng.uniform(0.0, S, 200),
                        rng.uniform(-0.1 * S, 0.0, 20),
                        rng.uniform(S, 1.1 * S, 20), [0.0, S]])
    for values, derivs in ((p.rho_grid, p.drho_grid),
                           (p.drho_grid, p.d2rho_grid)):
        vec = _kernels.hermite_vec(x, p.h, values, derivs)
        scalar = [_kernels.hermite_eval(xi, p.h, values, derivs) for xi in x]
        assert np.array_equal(vec, scalar)


class TestMeridianGauge:
    def test_round_curvature_is_one(self):
        m = zf.round_sphere()
        for z in (-0.9, -0.5, 0.0, 0.3, 0.77):
            assert zf.curvature_meridian(m, z) == pytest.approx(1.0, abs=1e-12)

    def test_domain_errors(self):
        m = zf.round_sphere()
        with pytest.raises(DomainError):
            zf.curvature_meridian(m, 1.5)
        with pytest.raises(PoleProximityError):
            zf.curvature_meridian(m, 1.0 - 1e-9)

    def test_area_round(self):
        assert zf.area(zf.round_sphere()) == pytest.approx(FOUR_PI, abs=1e-9)

    def test_total_curvature_is_4pi(self):
        # Gauss-Bonnet holds for any smooth closed profile
        for m in (zf.round_sphere(), zf.gong_raw()):
            assert zf.total_curvature(m) == pytest.approx(FOUR_PI, rel=1e-9)

    def test_fd_fallback_matches_analytic(self):
        m = zf.meridian_from_callable(lambda z: np.sqrt(1 - z * z),
                                      -1.0, 1.0)
        for z in (-0.6, 0.0, 0.5):
            assert zf.curvature_meridian(m, z) == pytest.approx(1.0, abs=1e-4)

    def test_scale_curvature_covariance(self):
        m = zf.gong_raw()
        lam = 1.7
        ms = zf.scale(m, lam)
        for z in (-0.4, 0.0, 0.55):
            assert zf.curvature_meridian(ms, lam * z) == pytest.approx(
                zf.curvature_meridian(m, z) / lam**2, rel=1e-12)

    def test_scale_area(self):
        m = zf.gong_raw()
        assert zf.area(zf.scale(m, 2.0)) == pytest.approx(4.0 * zf.area(m),
                                                          rel=1e-10)

    def test_normalize_to_volume(self):
        m = zf.normalize_to_volume(zf.gong_raw())
        assert zf.area(m) == pytest.approx(FOUR_PI, rel=1e-10)
        again = zf.normalize_to_volume(m)
        assert zf.area(again) == pytest.approx(FOUR_PI, rel=1e-10)


class TestArclengthGauge:
    def test_round_profile(self, round_p):
        assert round_p.total_length == pytest.approx(PI, abs=1e-10)
        assert round_p.area() == pytest.approx(FOUR_PI, abs=1e-9)
        s_eq, rho_eq = round_p.equator()
        assert s_eq == pytest.approx(PI / 2, abs=1e-9)
        assert rho_eq == pytest.approx(1.0, abs=1e-12)

    def test_round_rho_is_sin(self, round_p):
        s = np.linspace(0.1, PI - 0.1, 57)
        assert np.max(np.abs(round_p.rho(s) - np.sin(s))) < 1e-10

    def test_round_curvature_arclength(self, round_p):
        s = np.linspace(0.05, PI - 0.05, 41)
        K = zf.curvature_arclength(round_p, s)
        assert np.max(np.abs(K - 1.0)) < 1e-6

    def test_curvature_domain(self, round_p):
        with pytest.raises(DomainError):
            zf.curvature_arclength(round_p, 0.0)
        with pytest.raises(DomainError):
            zf.curvature_arclength(round_p, round_p.total_length)

    def test_endpoint_structure(self, gongn_p):
        assert gongn_p.rho_grid[0] == 0.0 and gongn_p.rho_grid[-1] == 0.0
        assert gongn_p.drho_grid[0] == 1.0 and gongn_p.drho_grid[-1] == -1.0

    def test_d2rho_is_the_slope_of_drho(self, michel_h):
        # coarse grid: a rule other than the Hermite slope shows up at 1e-7
        p = zf.michel_surface(michel_h, n_nodes=257)
        assert np.max(np.abs(p.d2rho(p.s_grid) - p.d2rho_grid)) < 1e-14
        rng = np.random.default_rng(5)
        s = (np.arange(p.n_nodes - 1)
             + rng.uniform(0.05, 0.95, p.n_nodes - 1)) * p.h
        e = 1e-4 * p.h
        central = (p.drho(s + e) - p.drho(s - e)) / (2.0 * e)
        assert np.max(np.abs(central - p.d2rho(s))) < 1e-8

    def test_validate_rejects_bad_slope(self, round_p):
        import dataclasses
        with pytest.raises(GaugeError):
            dataclasses.replace(round_p, drho_grid=round_p.drho_grid * 1.5)


class TestConformalGauge:
    def test_round_conformal_is_flat(self, round_p):
        c = zf.to_conformal(round_p, n_nodes=512)
        assert np.max(np.abs(c.u)) < 1e-7

    def test_requires_symmetry(self, michel_p):
        with pytest.raises(GaugeError):
            zf.to_conformal(michel_p)

    def test_symmetry_is_measured(self):
        # a symmetric meridian built with no declaration passes
        m = zf.MeridianCurve(lambda z: np.sqrt(1.0 - z * z),
                             lambda z: -z / np.sqrt(1.0 - z * z),
                             lambda z: -(1.0 - z * z) ** -1.5, -1.0, 1.0)
        c = zf.to_conformal(zf.to_arclength(m, n_nodes=2049), n_nodes=512)
        assert np.max(np.abs(c.u)) < 1e-7

    def test_requires_unit_area(self, gongn_p):
        with pytest.raises(GaugeError):
            zf.to_conformal(gongn_p)

    def test_area_preserved(self, gong_conf):
        assert gong_conf.area() == pytest.approx(FOUR_PI, rel=1e-8)

    def test_symmetry_pinned(self, gong_conf):
        assert gong_conf.symmetry_defect() == 0.0

    @pytest.mark.parametrize("n", [512, 513])
    def test_bisection_matches_per_node_brentq(self, areanorm_p, n):
        p = areanorm_p
        S = p.total_length
        t = _log_isothermal(p)
        theta = np.linspace(0.0, PI, n)

        def u_brentq(i):
            q = np.log(np.tan(0.5 * theta[i]))
            s_i = brentq(lambda x: t(x) - q, 1e-12 * S, S * (1.0 - 1e-12),
                         xtol=1e-18, rtol=4.0 * np.finfo(float).eps)
            return np.log(p.rho(s_i) / np.sin(theta[i]))

        c = zf.to_conformal(p, n_nodes=n)
        # the pole-adjacent nodes are the most sensitive to the solve
        idx = np.unique(np.r_[1, 2, np.linspace(1, n - 2, 18).astype(int)])
        for i in idx:
            expect = 0.5 * (u_brentq(i) + u_brentq(n - 1 - i))
            assert abs(c.u[i] - expect) <= 1e-12

    def test_u_equator_even_odd_grids(self, areanorm_p):
        c_even = zf.to_conformal(areanorm_p, n_nodes=512)
        c_odd = zf.to_conformal(areanorm_p, n_nodes=513)
        assert c_even.u_equator() == pytest.approx(c_odd.u_equator(),
                                                   abs=1e-8)

    def test_round_trip_to_arclength(self, areanorm_p, gong_conf):
        back = zf.conformal_to_arclength(gong_conf, n_nodes=4097)
        assert back.total_length == pytest.approx(areanorm_p.total_length,
                                                  abs=1e-8)
        s = np.linspace(0.2, back.total_length - 0.2, 33)
        assert np.max(np.abs(back.rho(s) - areanorm_p.rho(s))) < 1e-7

    def test_conformal_curvature_round(self):
        c = zf.ConformalProfile(u=np.zeros(801))
        K = zf.conformal_curvature(c)
        assert np.max(np.abs(K - 1.0)) < 1e-12
