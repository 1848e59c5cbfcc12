"""The package's own spline and quadrature rules against scipy's.

``profile.Spline`` (not-a-knot slopes from one ``dgtsv`` solve, the
``_kernels.hermite_cell`` cubic between knots) replaces
``scipy.interpolate.CubicSpline``, and a Gauss-Legendre pair replaces
``scipy.integrate.quad`` in the meridian quadratures.  scipy stays the
oracle here; the package itself must not import those subpackages.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

import zollflow as zf
from zollflow import catalog, profile
from zollflow.errors import QuadratureError
from zollflow.profile import Spline

MERIDIANS = (zf.round_sphere, zf.gong_raw, zf.gong_normalized)


def _knots(kind, n, rng):
    if kind == "uniform":
        return np.linspace(-0.4, 2.6, n)
    inner = rng.uniform(-0.4, 2.6, n - 2)
    return np.sort(np.concatenate(([-0.4, 2.6], inner)))


@pytest.mark.parametrize("kind", ["uniform", "random"])
@pytest.mark.parametrize("n", [4, 5, 64, 513, 4097])
def test_spline_matches_cubicspline(kind, n):
    rng = np.random.default_rng(n)
    x = _knots(kind, n, rng)
    y = np.sin(3.0 * x) + x * x
    ours = Spline(x, y)
    ref = CubicSpline(x, y)
    # scipy keeps the slope at each cell's left knot as its linear
    # coefficient; the last knot's slope is the derivative there
    assert np.array_equal(ours.d[:-1], ref.c[2])
    assert ours.d[-1] == pytest.approx(ref(x[-1], 1), rel=1e-12, abs=1e-12)

    xq = np.concatenate((x, rng.uniform(x[0], x[-1], 2000)))
    # relative to the scale of the data
    assert np.max(np.abs(ours(xq) - ref(xq))) <= 1e-15 * np.max(np.abs(y))
    anti = ref.antiderivative()
    assert np.max(np.abs(ours.integral(xq) - (anti(xq) - anti(x[0])))) <= 1e-12
    assert np.max(np.abs(ours.knot_integrals() - (anti(x) - anti(x[0])))) \
        <= 1e-12


def test_spline_integral_exact_on_cubics():
    # a not-a-knot spline reproduces a cubic, so its integral is exact
    x = np.sort(np.random.default_rng(3).uniform(0.0, 2.0, 40))
    sp = Spline(x, x**3 - 2.0 * x)
    xq = np.linspace(x[0], x[-1], 77)
    expect = (xq**4 / 4 - xq**2) - (x[0] ** 4 / 4 - x[0] ** 2)
    assert np.max(np.abs(sp.integral(xq) - expect)) < 1e-13
    assert np.max(np.abs(sp(xq) - (xq**3 - 2.0 * xq))) < 1e-13


def test_spline_integral_with_known_cells():
    x = np.linspace(0.0, 1.0, 33)
    sp = Spline(x, np.exp(x))
    xq = np.random.default_rng(5).uniform(0.0, 1.0, 50)
    assert np.array_equal(sp.integral(xq, sp.cells(xq)), sp.integral(xq))


class _CheckedSpline(Spline):
    """A Spline that compares every evaluation with CubicSpline's on the
    same data and query points, and keeps the largest difference."""

    worst = 0.0

    def __init__(self, x, y):
        super().__init__(x, y)
        self.ref = CubicSpline(x, y)
        self.anti = self.ref.antiderivative()

    def _record(self, ours, ref):
        _CheckedSpline.worst = max(_CheckedSpline.worst,
                                   float(np.max(np.abs(ours - ref))))
        return ours

    def __call__(self, xq):
        return self._record(super().__call__(xq), self.ref(xq))

    def knot_integrals(self):
        return self._record(super().knot_integrals(),
                            self.anti(self.x) - self.anti(self.x[0]))

    def integral(self, xq, cells=None):
        return self._record(super().integral(xq, cells),
                            self.anti(xq) - self.anti(self.x[0]))


def test_call_sites_match_cubicspline(monkeypatch):
    # every Spline call site: arclength_profile (the one arc-length
    # construction, reached through to_arclength, michel_surface and
    # conformal_to_arclength), conformal_to_arclength's own splines of u,
    # u' and K, and to_conformal (through _isothermal_remainder)
    monkeypatch.setattr(profile, "Spline", _CheckedSpline)
    for m in MERIDIANS:
        zf.to_arclength(m(), n_nodes=1025)
    zf.michel_surface(zf.OddFunction((0.3, -0.3)), n_nodes=1025)
    p = zf.to_arclength(zf.normalize_to_volume(zf.gong_raw()), n_nodes=2049)
    zf.conformal_to_arclength(zf.to_conformal(p, n_nodes=512), n_nodes=1025)
    assert 0.0 < _CheckedSpline.worst <= 1e-12


@pytest.mark.parametrize("lam", [0.37, 1.0, 2.5])
@pytest.mark.parametrize("meridian", MERIDIANS, ids=lambda m: m.__name__)
def test_gauss_legendre_matches_quad(meridian, lam):
    m = zf.scale(meridian(), lam)
    a, mid = 0.5 * m.width, m.midpoint

    def by_quad(f):
        val, _ = quad(lambda chi: f(mid + a * np.sin(chi)) * a * np.cos(chi),
                      -np.pi / 2, np.pi / 2, epsabs=1e-12, epsrel=1e-13,
                      limit=400)
        return 2.0 * np.pi * val

    area = by_quad(lambda z: m.r(z) * np.sqrt(1.0 + m.dr(z) ** 2))
    total = by_quad(lambda z: -m.d2r(z) / (1.0 + m.dr(z) ** 2) ** 1.5)
    assert zf.area(m) == pytest.approx(area, rel=1e-12)
    assert zf.total_curvature(m) == pytest.approx(total, rel=1e-12)
    assert zf.total_curvature(m) == pytest.approx(4.0 * np.pi, rel=1e-12)


def test_kinked_meridian_raises():
    # r' jumps at z = 0.3, so the two Gauss-Legendre rules disagree
    def r(z):
        return np.sqrt(1.0 - z * z) * (1.0 + 0.2 * np.abs(z - 0.3))

    def dr(z):
        w = np.sqrt(1.0 - z * z)
        return -z / w * (1.0 + 0.2 * np.abs(z - 0.3)) \
            + 0.2 * w * np.sign(z - 0.3)

    def d2r(z):
        w = np.sqrt(1.0 - z * z)
        return -(1.0 + 0.2 * np.abs(z - 0.3)) / w ** 3 \
            - 0.4 * z / w * np.sign(z - 0.3)

    m = zf.MeridianCurve(r=r, dr=dr, d2r=d2r, z_lo=-1.0, z_hi=1.0)
    with pytest.raises(QuadratureError):
        zf.area(m)


def test_michel_surface_uses_spline_rule():
    # the meridian length of a Michel surface is exactly pi
    p = catalog.michel_surface(zf.OddFunction((0.3, -0.3)), n_nodes=513)
    assert p.total_length == pytest.approx(np.pi, abs=1e-12)


def test_cli_import_graph_has_no_scipy_interpolate_integrate_special():
    code = ("import sys, zollflow.cli; "
            "print(' '.join(m for m in ('scipy.interpolate', "
            "'scipy.integrate', 'scipy.special') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ,
                              "PYTHONPATH": os.pathsep.join(sys.path)}).stdout
    assert out.strip() == ""
