"""Gauge representations, curvature formulas, quadrature plumbing."""

import numpy as np
import pytest
from scipy.optimize import brentq

import zollflow as zf
from zollflow import _kernels, cli, profile
from zollflow.errors import DomainError, GaugeError, PoleProximityError
from zollflow.profile import FOUR_PI, _log_isothermal, simpson_weights

PI = np.pi


def test_simpson_weights_exact_on_cubics():
    # 3, 4 and 6 nodes: the smallest Simpson, 3/8 and mixed rules
    for n in (3, 4, 6, 9, 10, 64, 65):
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
        # the geodesic march's form: Python floats and lists
        vl, dl = values.tolist(), derivs.tolist()
        floats = [_kernels.hermite_eval(xi, float(p.h), vl, dl)
                  for xi in x.tolist()]
        assert np.array_equal(vec, floats)


@pytest.mark.parametrize("n", [5, 129, 513])
def test_hermite_slope_on_cubic(n):
    # the slope gives rho'' of a ProfileMetric and u'' in the bridge: on
    # node data of a cubic it is the cubic's derivative between nodes and
    # the node derivatives themselves at the nodes.  h is dyadic, so each
    # node k h divides back to k and sits at t = 0 of its own cell
    def f(x):
        return 2.0 * x**3 - x**2 + 0.5 * x - 1.0

    def df(x):
        return 6.0 * x**2 - 2.0 * x + 0.5  # no real root

    x = np.linspace(0.0, 2.0, n)
    h = 2.0 / (n - 1)
    values, derivs = f(x), df(x)
    assert np.array_equal(
        _kernels.hermite_vec_slope(x, h, values, derivs), derivs)
    xq = np.random.default_rng(n).uniform(0.0, 2.0, 500)
    got = _kernels.hermite_vec_slope(xq, h, values, derivs)
    assert np.max(np.abs(got / df(xq) - 1.0)) <= 1e-13


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

    @staticmethod
    def _bisected_equator(p):
        # the plain bisection of the drho cubic over the whole cell
        h, d = p.h, p.drho_grid
        j = min(max(int(np.argmax(p.rho_grid)), 1), p.n_nodes - 2)
        if d[j] > 0.0 >= d[j + 1]:
            lo, hi = j * h, (j + 1) * h
        elif d[j - 1] >= 0.0 > d[j]:
            lo, hi = (j - 1) * h, j * h
        else:
            lo = hi = j * h
        s = 0.5 * (lo + hi)
        while lo < s < hi:
            if _kernels.hermite_eval(s, h, d, p.d2rho_grid) > 0.0:
                lo = s
            else:
                hi = s
            s = 0.5 * (lo + hi)
        return s, float(p.rho(s))

    @pytest.mark.parametrize("n", [257, 512, 4097])
    def test_equator_matches_plain_bisection(self, n, michel_h):
        profiles = [zf.to_arclength(m(), n_nodes=n) for m in
                    (zf.round_sphere, zf.gong_raw, zf.gong_normalized)]
        profiles.append(zf.michel_surface(michel_h, n_nodes=n))
        profiles.append(zf.michel_surface(zf.OddFunction((0.1, -0.25, 0.15)),
                                          n_nodes=n))
        for p in profiles:
            assert p.equator() == self._bisected_equator(p)

    def test_equator_computed_once(self, gongn_p):
        import dataclasses
        assert gongn_p.equator() is gongn_p.equator()
        # a replaced profile recomputes it
        q = dataclasses.replace(gongn_p)
        assert q._equator is None
        assert q.equator() == gongn_p.equator()

    def test_area_computed_once(self, gongn_p):
        import dataclasses
        area = gongn_p.area()
        assert area is gongn_p.area()
        assert area == profile.TWO_PI * float(
            simpson_weights(gongn_p.n_nodes, gongn_p.h) @ gongn_p.rho_grid)
        q = dataclasses.replace(gongn_p)
        assert q._area is None
        assert q.area() == area

    @staticmethod
    def _gong_raw_rho(s):
        # z = sin chi: r = 4 (sqrt(1 + cos chi) - 1) and ds/dchi =
        # 2 - cos chi, so s = 2 (chi + pi/2) - sin chi - 1; Newton in chi
        chi = 0.5 * s - 0.5 * PI
        for _ in range(20):
            chi = chi - (2.0 * (chi + 0.5 * PI) - np.sin(chi) - 1.0 - s) \
                / (2.0 - np.cos(chi))
        return 4.0 * (np.sqrt(1.0 + np.cos(chi)) - 1.0)

    @pytest.mark.parametrize("n", [512, 4097, 16385])
    def test_matches_closed_forms(self, n, michel_h):
        # S, and rho at the nodes where its closed form is at hand.  The
        # error is the rounding of r' next to the poles, which grows with
        # the sample count and varies from count to count: at most 1.3e-12
        # at 3901-4299 samples (exactly 4097 happens to read 1.3e-13), a
        # median 2e-12 to 1.4e-11 at 16385 to 131081 samples
        # (tools/arclength_error.py)
        tol = 1.5e-12
        gong_S = 2.0 * PI - 2.0
        cases = ((zf.to_arclength(zf.round_sphere(), n), PI, np.sin),
                 (zf.to_arclength(zf.gong_raw(), n), gong_S,
                  self._gong_raw_rho),
                 (zf.to_arclength(zf.gong_normalized(), n),
                  gong_S / (4.0 * (np.sqrt(2.0) - 1.0)), None),
                 (zf.michel_surface(michel_h, n), PI, None))
        for p, S, rho in cases:
            assert abs(p.total_length - S) <= tol
            if rho is not None:
                s = p.s_grid[1:-1]
                assert np.max(np.abs(p.rho_grid[1:-1] - rho(s))) <= tol

    def test_validate_rejects_bad_slope(self, round_p):
        import dataclasses
        with pytest.raises(GaugeError):
            dataclasses.replace(round_p, drho_grid=round_p.drho_grid * 1.5)

    def test_validate_rejects_nonfinite_d2rho(self, round_p):
        import dataclasses
        d2rho = round_p.d2rho_grid.copy()
        d2rho[7] = np.nan
        with pytest.raises(GaugeError, match="rho'' must be finite"):
            dataclasses.replace(round_p, d2rho_grid=d2rho)

    @pytest.mark.parametrize("n", [2049, 4097])
    def test_refuses_meridian_with_nan_second_derivative(self, n):
        # r'' is NaN within 2e-6 of the poles, as a difference quotient
        # stepping outside [-1, 1] would be
        m = zf.MeridianCurve(
            r=lambda z: np.sqrt(1.0 - z * z),
            dr=lambda z: -z / np.sqrt(1.0 - z * z),
            d2r=lambda z: np.where(1.0 - np.abs(z) < 2e-6, np.nan,
                                   -(1.0 - z * z) ** -1.5),
            z_lo=-1.0, z_hi=1.0)
        with pytest.raises(GaugeError, match="rho'' must be finite"):
            zf.to_arclength(m, n)


class TestConformalGauge:
    def test_round_conformal_is_flat(self, round_p):
        c = zf.to_conformal(round_p, n_nodes=512)
        assert np.max(np.abs(c.u)) < 1e-7

    def test_asymmetric_profile_has_gauge(self, michel_p):
        # a Michel surface is not reflection-symmetric: its gauge is left
        # as it is, keeps the area and has the equator 2 pi of the metric
        c = zf.to_conformal(michel_p, n_nodes=1025)
        assert c.symmetry_defect() > 0.09
        assert zf.make_state(c).area == pytest.approx(FOUR_PI, rel=1e-10)
        assert 2.0 * PI * c.equator()[1] == pytest.approx(2.0 * PI,
                                                          abs=1e-9)
        # the area is still measured
        with pytest.raises(GaugeError, match="normalize the surface first"):
            zf.to_conformal(zf.to_arclength(_tilted_meridian(), 1025),
                            n_nodes=256)

    @staticmethod
    def _michel_closed_form(eps, n, b):
        """u and du/db on the theta grid for h = eps (x - x^3), in the gauge
        of the boost b: q = ln tan(psi/2) + eps sin^2(psi)/2 equals
        ln tan(theta/2) + b, solved by Newton's method in
        w = ln tan(psi/2) (dq/dw = 1 + h(cos psi)), and
        u = ln(sin psi / sin theta); u = b and -b at the poles."""
        theta = np.linspace(0.0, PI, n)[1:-1]
        target = np.log(np.tan(0.5 * theta)) + b
        w = target.copy()
        for _ in range(40):
            psi = 2.0 * np.arctan(np.exp(w))
            x = np.cos(psi)
            w -= (w + 0.5 * eps * np.sin(psi) ** 2 - target) \
                / (1.0 + eps * (x - x ** 3))
        psi = 2.0 * np.arctan(np.exp(w))
        x = np.cos(psi)
        u = np.concatenate(([b], np.log(np.sin(psi) / np.sin(theta)), [-b]))
        # du/db = cos psi / (1 + h(cos psi))
        du = np.concatenate(([1.0], x / (1.0 + eps * (x - x ** 3)), [-1.0]))
        return u, du

    @pytest.mark.parametrize("n, gate", [(257, 1e-9), (513, 1e-10),
                                         (1025, 1e-11)])
    def test_michel_matches_closed_form(self, n, gate):
        # the isothermal coordinate of (1 + h)^2 dpsi^2 + sin^2 psi dphi^2
        # is ln tan(psi/2) - H(cos psi) with H' = h/(1 - x^2), H(+-1) = 0;
        # for h = eps (x - x^3), H = eps (x^2 - 1)/2.  Any anchor is an
        # axial boost tan(theta'/2) = e^b tan(theta/2), so u is compared at
        # the least-squares b (Gauss-Newton); the gauge's anchor t = 0 at
        # psi = pi/2 is the boost b = -H(0) = eps/2
        eps = 0.3
        c = cli.build_conformal(cli.RunConfig(
            surface="michel", coeffs=(eps, -eps), n_nodes=n))
        b = 0.0
        for _ in range(6):
            u, du = self._michel_closed_form(eps, n, b)
            b += du @ (c.u - u) / (du @ du)
        u, _du = self._michel_closed_form(eps, n, b)
        assert b == pytest.approx(0.5 * eps, abs=1e-9)
        assert np.max(np.abs(c.u - u)) <= gate

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
        assert zf.make_state(gong_conf).area == pytest.approx(FOUR_PI,
                                                              rel=1e-8)

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
        # the maximal parallel sits on a node of the odd grid and inside a
        # cell of the even one
        (th_even, rho_even), (th_odd, rho_odd) = (
            zf.to_conformal(areanorm_p, n_nodes=n).equator()
            for n in (512, 513))
        assert rho_even == pytest.approx(rho_odd, abs=1e-8)
        assert th_even == pytest.approx(PI / 2, abs=1e-12)
        assert th_odd == pytest.approx(PI / 2, abs=1e-12)

    @pytest.mark.parametrize("n", [513, 1025])
    @pytest.mark.parametrize("surface",
                             ["round", "gong_raw", "gong_normalized"])
    def test_equator_is_node_value_on_odd_symmetric_grids(self, surface, n):
        # on symmetric data the rule returns e^u at the middle node
        # bitwise, before and after a flow
        c = cli.build_conformal(cli.RunConfig(surface=surface, n_nodes=n))
        for st in zf.evolve(zf.make_state(c), 0.05):
            assert st.profile.equator()[1] == np.exp(st.profile.u[n // 2])
            assert st.equator_length() \
                == 2.0 * PI * np.exp(st.profile.u[n // 2])

    @pytest.mark.parametrize("n", [513, 1025])
    def test_michel_equator_is_2pi(self, n):
        # the maximal parallel of (1 + h)^2 dpsi^2 + sin^2 psi dphi^2 is
        # psi = pi/2, of length 2 pi; the gauge is anchored there, so on an
        # odd grid it is the middle node theta = pi/2
        c = cli.build_conformal(cli.RunConfig(
            surface="michel", coeffs=(0.3, -0.3), n_nodes=n))
        theta, rho = c.equator()
        assert theta == pytest.approx(PI / 2, abs=1e-8)
        assert rho == pytest.approx(np.exp(c.u[n // 2]), rel=1e-15)
        assert zf.make_state(c).equator_length() == pytest.approx(
            2.0 * PI, abs=1e-9)

    def test_even_node_profile_matches_meridian_route(self):
        # an even node count puts the anchor chi = 0 inside a knot cell
        m = zf.normalize_to_volume(zf.gong_raw())
        c = zf.to_conformal(zf.to_arclength(m, 4096), 512)
        assert c.symmetry_defect() == 0.0
        assert np.max(np.abs(c.u - zf.to_conformal(m, 512).u)) <= 1e-10

    def test_refuses_too_few_nodes_before_sampling(self):
        # the pole fit reads the three interior nodes next to each pole
        def no_sampling(z):
            raise AssertionError("sampled")

        unsampled = zf.MeridianCurve(r=no_sampling, dr=no_sampling,
                                     d2r=no_sampling, z_lo=-1.0, z_hi=1.0)
        round_p = zf.to_arclength(zf.round_sphere(), 1025)
        for surface in (round_p, zf.OddFunction((0.3, -0.3)), unsampled):
            for n in (3, 4):
                with pytest.raises(GaugeError, match="below the minimum 5"):
                    zf.to_conformal(surface, n_nodes=n)
        assert np.max(np.abs(zf.to_conformal(round_p, n_nodes=5).u)) < 1e-10

    def test_refuses_other_inputs(self, gong_conf):
        for surface in (gong_conf, lambda x: 0.0 * x, (0.3, -0.3)):
            with pytest.raises(TypeError, match="to_conformal takes a "
                               "MeridianCurve, a ProfileMetric or an "
                               "OddFunction"):
                zf.to_conformal(surface, n_nodes=64)

    def test_round_trip_to_arclength(self, areanorm_p, gong_conf):
        back = zf.conformal_to_arclength(gong_conf, n_nodes=4097)
        assert back.total_length == pytest.approx(areanorm_p.total_length,
                                                  abs=1e-8)
        s = np.linspace(0.2, back.total_length - 0.2, 33)
        assert np.max(np.abs(back.rho(s) - areanorm_p.rho(s))) < 1e-7

    def test_derivatives_fourth_order_to_the_poles(self):
        # u = 0.3 cos + 0.1 cos^2 is even about both poles; u' and u'' are
        # checked against the exact ones at every node, poles included
        def errors(n):
            theta = np.linspace(0.0, PI, n)
            c, s = np.cos(theta), np.sin(theta)
            du, d2u = zf.ConformalProfile(u=0.3 * c + 0.1 * c * c) \
                .derivatives()
            return (np.max(np.abs(du + 0.3 * s + 0.2 * c * s)),
                    np.max(np.abs(d2u + 0.3 * c + 0.2 * (c * c - s * s))))

        (du1, d2u1), (du2, d2u2), (du3, _) = map(errors, (129, 257, 513))
        # h halves from one size to the next; above 513 nodes u'' meets
        # its eps/h^2 rounding floor
        assert np.log2(du1 / du2) >= 3.9
        assert np.log2(du2 / du3) >= 3.9
        assert np.log2(d2u1 / d2u2) >= 3.8

    def test_bridge_is_fourth_order_on_gong(self):
        # rho' of the bridge against the oversampled meridian route
        m = zf.normalize_to_volume(zf.gong_raw())
        ref = zf.to_arclength(m, 16385)
        errors = []
        for n in (512, 1024):
            back = zf.conformal_to_arclength(zf.to_conformal(m, n))
            s = np.linspace(0.2, back.total_length - 0.2, 400)
            errors.append(np.max(np.abs(back.drho(s) - ref.drho(s))))
        assert errors[0] <= 1e-8
        assert errors[0] / errors[1] >= 12.0

    def test_bridged_michel_sweep_is_zoll(self):
        # a genuine Zoll surface through its conformal gauge and the
        # bridge, as a flow's t = 0 state is swept
        c = zf.to_conformal(zf.OddFunction((0.3, -0.3)), 513)
        report = zf.zoll_sweep(zf.conformal_to_arclength(c), n_samples=8)
        assert report.spread < 1e-7

    def test_conformal_curvature_round(self):
        c = zf.ConformalProfile(u=np.zeros(801))
        K = zf.conformal_curvature(c)
        assert np.max(np.abs(K - 1.0)) < 1e-12

    @pytest.mark.parametrize("n", [257, 1024])
    @pytest.mark.parametrize("surface", ["gong", "michel"])
    def test_conformal_curvature_matches_central_differences(self, n,
                                                             surface):
        # the oracle is lap0 = u'' + cot(theta) u' by central differences
        # (2 u'' at the poles), written out term by term
        source = (zf.normalize_to_volume(zf.gong_raw()) if surface == "gong"
                  else zf.OddFunction((0.3, -0.3)))
        c = zf.to_conformal(source, n)
        u, h = c.u, c.h
        theta = c.theta
        lap = np.empty(n)
        lap[1:-1] = ((u[2:] - 2.0 * u[1:-1] + u[:-2]) / h ** 2
                     + np.cos(theta[1:-1]) / np.sin(theta[1:-1])
                     * (u[2:] - u[:-2]) / (2.0 * h))
        lap[0] = 4.0 * (u[1] - u[0]) / h ** 2
        lap[-1] = 4.0 * (u[-2] - u[-1]) / h ** 2
        oracle = np.exp(-2.0 * u) * (1.0 - lap)
        # the oracle's second difference rounds to about eps max|u| / h^2
        # (1.1e-12 on Michel at 1024 nodes), while the stencil's
        # differences of neighbouring nodes are exact: against the same
        # stencil in extended precision its K is off by at most 1.9e-14
        # here, the oracle's by up to 1.1e-12
        tol = np.finfo(float).eps * np.max(np.abs(u)) / h ** 2
        assert np.max(np.abs(zf.conformal_curvature(c) - oracle)) <= tol


def _tilted_meridian():
    # the round sphere leaning towards its upper pole: no mirror symmetry
    def r(z):
        return np.sqrt(1.0 - z * z) * (1.0 + 0.2 * z)

    def dr(z):
        w = np.sqrt(1.0 - z * z)
        return -z / w * (1.0 + 0.2 * z) + 0.2 * w

    def d2r(z):
        w = np.sqrt(1.0 - z * z)
        return -(1.0 + 0.2 * z) / w ** 3 - 0.4 * z / w

    return zf.MeridianCurve(r=r, dr=dr, d2r=d2r, z_lo=-1.0, z_hi=1.0)


class TestMeridianConformal:
    """``to_conformal`` of a MeridianCurve: one chi grid, no arc-length
    profile in between."""

    GONGS = {"gong_raw": zf.gong_raw, "gong_normalized": zf.gong_normalized}

    @staticmethod
    def _arclength_route(m, n, oversample=4):
        return zf.to_conformal(zf.to_arclength(m, oversample * n + 1), n)

    def test_round_is_flat(self):
        c = zf.to_conformal(zf.round_sphere(), n_nodes=1024)
        assert np.max(np.abs(c.u)) < 1e-10

    @pytest.mark.parametrize("name", GONGS)
    @pytest.mark.parametrize("n", [512, 1024, 2048])
    def test_matches_arclength_route(self, name, n):
        m = zf.normalize_to_volume(self.GONGS[name]())
        new = zf.to_conformal(m, n_nodes=n)
        assert np.max(np.abs(new.u - self._arclength_route(m, n).u)) <= 3e-10

    @pytest.mark.parametrize("name", GONGS)
    @pytest.mark.parametrize("n", [512, 1024, 2048])
    def test_oversampling_error_no_larger(self, name, n):
        # each route against its own run on twice the samples.  On the 3
        # nodes next to each pole (and the pole values fitted through them)
        # both carry the meridian's own rounding instead: r(z) there has a
        # relative error of about eps / (z - z_lo), up to 1e-10 in u at 2048
        # nodes, as large on either route and erratic in n
        m = zf.normalize_to_volume(self.GONGS[name]())
        new = zf.to_conformal(m, n_nodes=n).u
        new_fine = profile._meridian_conformal(m, n, 8 * n + 1).u
        old = self._arclength_route(m, n).u
        old_fine = self._arclength_route(m, n, oversample=8).u
        inner = slice(4, -4)
        assert np.max(np.abs(new - new_fine)[inner]) \
            <= np.max(np.abs(old - old_fine)[inner])
        assert np.max(np.abs(new - new_fine)) <= 1e-9
        assert np.max(np.abs(old - old_fine)) <= 1e-9

    @pytest.mark.parametrize("name", GONGS)
    def test_flowed_equator_length_agrees(self, name):
        m = zf.normalize_to_volume(self.GONGS[name]())
        lengths = [zf.evolve(zf.make_state(c), 0.05)[-1].equator_length()
                   for c in (zf.to_conformal(m, n_nodes=1024),
                             self._arclength_route(m, 1024))]
        assert lengths[0] == pytest.approx(lengths[1], rel=1e-9)

    @pytest.mark.parametrize("n", [512, 513])
    def test_newton_matches_per_node_brentq(self, n, monkeypatch):
        # the isothermal coordinate on the same chi samples, solved node by
        # node with brentq instead of the vectorized Newton inversion
        m = zf.normalize_to_volume(zf.gong_normalized())
        c = zf.to_conformal(m, n_nodes=n)
        rems = []

        class Kept(profile.Spline):
            def __init__(self, x, y):
                super().__init__(x, y)
                rems.append(self)

        monkeypatch.setattr(profile, "Spline", Kept)
        profile._meridian_conformal(m, n, 4 * n + 1)
        monkeypatch.undo()
        rem, = rems
        anchor = rem.integral(0.0)
        theta = np.linspace(0.0, PI, n)
        a, mid = 0.5 * m.width, m.midpoint
        edge = 0.5 * PI - 1e-6

        def u_brentq(i):
            q = np.log(np.tan(0.5 * theta[i]))
            chi = brentq(lambda x: np.arctanh(np.sin(x))
                         + rem.integral(x) - anchor - q, -edge, edge,
                         xtol=1e-18, rtol=4.0 * np.finfo(float).eps)
            return np.log(m.r(mid + a * np.sin(chi)) / np.sin(theta[i]))

        idx = np.unique(np.r_[1, 2, np.linspace(1, n - 2, 18).astype(int)])
        for i in idx:
            expect = 0.5 * (u_brentq(i) + u_brentq(n - 1 - i))
            assert abs(c.u[i] - expect) <= 1e-12

    def test_asymmetric_meridian_has_gauge(self):
        m = _tilted_meridian()
        # not of area 4 pi: both routes refuse it for that
        for surface in (m, zf.to_arclength(m, 1025)):
            with pytest.raises(GaugeError,
                               match="normalize the surface first"):
                zf.to_conformal(surface, n_nodes=256)
        # normalized, both routes give a gauge with no symmetry pinned.
        # Their anchors differ by a boost, which leaves the area and the
        # maximal parallel, 2 pi max r(z), as they are
        m = zf.normalize_to_volume(m)
        z_eq = brentq(m.dr, m.z_lo + 0.1 * m.width, m.z_hi - 0.1 * m.width,
                      xtol=1e-15)
        for surface in (m, zf.to_arclength(m, 4 * 1025 + 1)):
            c = zf.to_conformal(surface, n_nodes=1025)
            assert c.symmetry_defect() > 0.01
            assert zf.make_state(c).area == pytest.approx(FOUR_PI,
                                                          rel=1e-9)
            assert c.equator()[1] == pytest.approx(m.r(z_eq), rel=1e-11)

    def test_refuses_unnormalized_gong(self):
        m = zf.gong_raw()
        with pytest.raises(GaugeError, match="normalize the surface first"):
            zf.to_conformal(m, n_nodes=256)
        with pytest.raises(GaugeError, match="normalize the surface first"):
            zf.to_conformal(zf.to_arclength(m, 1025), n_nodes=256)
        # both routes measure the same area
        areas = []
        for surface in (m, zf.to_arclength(m, 1025)):
            with pytest.raises(GaugeError) as e:
                zf.to_conformal(surface, n_nodes=256)
            areas.append(float(str(e.value).split()[2]))
        assert areas[0] == pytest.approx(zf.area(m), abs=1e-6)
        assert areas[1] == pytest.approx(zf.area(m), abs=1e-6)

    def test_queries_stay_inside_the_knots(self, monkeypatch):
        # Spline extrapolates with its end cells' cubics, which lose
        # accuracy fast; every Newton iterate of both routes must query
        # strictly between the first and the last knot
        queries = []

        class Recorded(profile.Spline):
            def __call__(self, xq):
                queries.append((self.x, np.asarray(xq)))
                return super().__call__(xq)

            def integral(self, xq, cells=None):
                queries.append((self.x, np.asarray(xq)))
                return super().integral(xq, cells)

        n = 2049
        m = zf.normalize_to_volume(zf.gong_normalized())
        surfaces = (m, zf.to_arclength(m, 4 * n + 1),
                    zf.michel_surface(zf.OddFunction(()), 4 * n + 1))
        coarse = zf.to_arclength(m, 65)
        monkeypatch.setattr(profile, "Spline", Recorded)
        for surface in surfaces:
            zf.to_conformal(surface, n_nodes=n)
        # each conversion: at least two Newton iterates of two queries
        assert len(queries) >= 3 * 4
        # 65 knots for 2049 nodes put the pole-side roots in the end cells,
        # whose pole ends the inversion clamps to MERCATOR_GUARD
        zf.to_conformal(coarse, n_nodes=n)
        profile._meridian_conformal(m, n, 65)
        for knots, xq in queries:
            assert np.all((knots[0] < xq) & (xq < knots[-1]))

    def test_unconverged_inversion_raises(self, monkeypatch):
        monkeypatch.setattr(profile, "INVERSION_STEPS", 1)
        m = zf.normalize_to_volume(zf.gong_normalized())
        with pytest.raises(GaugeError, match="did not converge"):
            zf.to_conformal(m, n_nodes=256)
