"""Axisymmetric metric representations and curvature.

Three gauges for a metric of revolution on the 2-sphere:

* ``MeridianCurve`` -- embedded profile r(z), metric (1 + r'^2) dz^2 + r^2 dphi^2;
* ``ProfileMetric`` -- meridian arc-length gauge ds^2 + rho(s)^2 dphi^2;
* ``ConformalProfile`` -- e^{2u(theta)} times the round metric.

The height gauge carries the closed-form curvature

    K(z) = -r''(z) / ( r(z) (r'(z)^2 + 1)^2 )

but is numerically useless near the poles where r' blows up, so conversions
sample a meridian on the chi grid z = mid + a sin(chi), where r' cos(chi)
stays finite, and curvature near the poles comes from the arc-length gauge
(K = -rho''/rho) or the conformal one.
"""

import collections
import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import _kernels
from .errors import DomainError, GaugeError, PoleProximityError, QuadratureError

FOUR_PI = 4.0 * np.pi

# fraction of the domain width kept clear of the poles in the height gauge
POLE_GUARD_FRACTION = 1e-6
# Gauss-Legendre orders of the meridian quadratures: the finer rule gives the
# value, its difference from the coarser one the error estimate
QUAD_NODES = (64, 128)
QUAD_EPSABS = 1e-10  # absolute scale of the error estimate accepted
# bound on max|u - u[::-1]| below which u is made exactly symmetric
SYMMETRY_TOL = 1e-10
# cap on the regula falsi steps of grid_equator before it bisects
EQUATOR_ILLINOIS_STEPS = 30
# chi samples per theta node of a meridian's or an odd function's gauge
MERIDIAN_SAMPLES = 4
# fewest theta nodes: the pole fit reads three interior nodes per pole
MIN_CONFORMAL_NODES = 5
# |w| bound of the isothermal inversion in the Mercator variable w: roots
# closer to a pole than about e^-|w| of the domain are not resolved
MERCATOR_GUARD = math.log(1e12)
# Newton steps of the isothermal inversion, and the step that ends it
INVERSION_STEPS = 40
INVERSION_TOL = 1e-12


def simpson_weights(n, h):
    """Composite Simpson weights for n uniform nodes (3/8 tail if n is even)."""
    if n < 3:
        raise ValueError("need at least 3 nodes")
    w = np.zeros(n)
    if n % 2 == 1:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= h / 3.0
    else:
        # Simpson on the first n-4 intervals, 3/8 rule on the last three
        m = n - 3
        if m > 1:
            w[:m] += simpson_weights(m, h)
        w[m - 1:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3.0 * h / 8.0)
    return w


@dataclass(frozen=True)
class MeridianCurve:
    """Embedded surface-of-revolution profile r(z) with derivatives.

    r, dr and d2r take numpy arrays of heights as well as scalars.
    """

    r: Callable[[float], float]
    dr: Callable[[float], float]
    d2r: Callable[[float], float]
    z_lo: float
    z_hi: float

    @property
    def width(self):
        return self.z_hi - self.z_lo

    @property
    def midpoint(self):
        return 0.5 * (self.z_lo + self.z_hi)

    @property
    def pole_guard(self):
        return POLE_GUARD_FRACTION * self.width

    def check_interior(self, z):
        if not (self.z_lo <= z <= self.z_hi):
            raise DomainError(f"z = {z} outside [{self.z_lo}, {self.z_hi}]")
        if z - self.z_lo < self.pole_guard or self.z_hi - z < self.pole_guard:
            raise PoleProximityError(
                f"z = {z} within {self.pole_guard} of a pole; "
                "use the arc-length gauge near the poles")


def curvature_meridian(m, z):
    """Gaussian curvature K(z) = -r'' / ( r (r'^2 + 1)^2 ) in the height gauge."""
    m.check_interior(z)
    r = m.r(z)
    dr = m.dr(z)
    return -m.d2r(z) / (r * (dr * dr + 1.0) ** 2)


@functools.lru_cache(maxsize=None)
def _chi_rule(n):
    """n-point Gauss-Legendre nodes and weights on [-pi/2, pi/2], built once
    per process on first use."""
    x, w = leggauss(n)
    return 0.5 * np.pi * x, 0.5 * np.pi * w


def _chi_integral(m, integrand):
    """Integrate f(z) dz over the domain with the z = mid + a sin(chi)
    substitution that removes the square-root endpoint singularity.

    The integral in chi runs through the two Gauss-Legendre rules of
    QUAD_NODES, on the vectorized integrand.  The finer rule gives the
    value; QuadratureError if the rules differ by more than
    max(100 QUAD_EPSABS, 1e-8 |value|), as they do on a meridian that is
    not smooth in chi.
    """
    a = 0.5 * m.width
    mid = m.midpoint

    def rule(n):
        chi, w = _chi_rule(n)
        return float(w @ (integrand(mid + a * np.sin(chi)) * a * np.cos(chi)))

    coarse, val = map(rule, QUAD_NODES)
    err = abs(val - coarse)
    if not err <= max(100.0 * QUAD_EPSABS, 1e-8 * abs(val)):
        raise QuadratureError(f"quadrature error estimate {err} too large")
    return val


def area(m):
    """Surface area 2 pi * integral of r sqrt(1 + r'^2) dz."""
    def f(z):
        dr = m.dr(z)
        return m.r(z) * np.sqrt(1.0 + dr * dr)
    return 2.0 * np.pi * _chi_integral(m, f)


def total_curvature(m):
    """Integral of K dA; equals 4 pi for any smooth closed profile."""
    def f(z):
        dr = m.dr(z)
        return -m.d2r(z) / (1.0 + dr * dr) ** 1.5
    return 2.0 * np.pi * _chi_integral(m, f)


def average_curvature(m):
    """Area average of the Gaussian curvature."""
    return total_curvature(m) / area(m)


def scale(m, lam):
    """Homothety by lam: r_lam(z) = lam * r(z / lam)."""
    return MeridianCurve(
        r=lambda z: lam * m.r(z / lam),
        dr=lambda z: m.dr(z / lam),
        d2r=lambda z: m.d2r(z / lam) / lam,
        z_lo=lam * m.z_lo, z_hi=lam * m.z_hi)


def normalize_to_volume(m):
    """Rescale the meridian so the surface area equals 4 pi."""
    return scale(m, np.sqrt(FOUR_PI / area(m)))


@dataclass
class ProfileMetric:
    """Arc-length gauge ds^2 + rho(s)^2 dphi^2 sampled on a uniform s-grid.

    rho, drho and d2rho are node values.  Between nodes rho and drho are cubic
    Hermite (each array interpolated with the next one as its derivative), as
    in the geodesic kernels, and d2rho is the slope of the drho cubic.
    Building one checks the smooth-pole conditions (GaugeError if they fail);
    ``equator`` is ``grid_equator``'s, as in the conformal gauge.
    """

    total_length: float
    rho_grid: np.ndarray
    drho_grid: np.ndarray
    d2rho_grid: np.ndarray
    _equator: tuple = field(default=None, init=False, repr=False,
                            compare=False)
    _grid_lists: tuple = field(default=None, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        if self.rho_grid[0] != 0.0 or self.rho_grid[-1] != 0.0:
            raise GaugeError("rho must vanish at both poles")
        if np.any(self.rho_grid[1:-1] <= 0.0):
            raise GaugeError("rho must be positive on the interior")
        if not np.all(np.isfinite(self.drho_grid)):
            raise GaugeError("rho' must be finite")
        if not np.all(np.isfinite(self.d2rho_grid)):
            raise GaugeError("rho'' must be finite")
        # note: |rho'| <= 1 only holds for profiles embeddable in R^3;
        # abstract metrics of revolution may exceed it, so it is not checked
        if (abs(self.drho_grid[0] - 1.0) > 1e-7
                or abs(self.drho_grid[-1] + 1.0) > 1e-7):
            raise GaugeError("smooth poles require rho' = +1/-1 at the ends")

    @property
    def n_nodes(self):
        return len(self.rho_grid)

    @property
    def h(self):
        return self.total_length / (self.n_nodes - 1)

    @property
    def s_grid(self):
        return np.linspace(0.0, self.total_length, self.n_nodes)

    def rho(self, s):
        return _kernels.hermite_vec(s, self.h, self.rho_grid, self.drho_grid)

    def drho(self, s):
        return _kernels.hermite_vec(s, self.h, self.drho_grid, self.d2rho_grid)

    def d2rho(self, s):
        return _kernels.hermite_vec_slope(s, self.h, self.drho_grid,
                                          self.d2rho_grid)

    def area(self):
        w = simpson_weights(self.n_nodes, self.h)
        return 2.0 * np.pi * float(w @ self.rho_grid)

    def grid_lists(self):
        """(h, rho, drho, d2rho) as a float and lists of floats, built once
        per profile and kept until ``drop_grid_lists``: the form the
        geodesic step loops take, since arithmetic on numpy scalars costs
        several times as much."""
        if self._grid_lists is None:
            self._grid_lists = (float(self.h), self.rho_grid.tolist(),
                                self.drho_grid.tolist(),
                                self.d2rho_grid.tolist())
        return self._grid_lists

    def drop_grid_lists(self):
        """Free the lists of ``grid_lists``; the next call builds them."""
        self._grid_lists = None

    def equator(self):
        """(s*, rho(s*)) at the maximal parallel by ``grid_equator``,
        computed once per profile."""
        if self._equator is None:
            self._equator = grid_equator(self.h, self.rho_grid,
                                         self.drho_grid, self.d2rho_grid)
        return self._equator


def grid_equator(h, rho, drho, d2rho):
    """(x*, rho(x*)) at the maximal parallel of rho sampled with its
    derivatives at x_k = k h: the equator rule of both gauges.  x* is the
    root of the Hermite drho cubic in the cell next to the largest rho
    node where drho changes sign, bisected to adjacent doubles; the node
    itself if neither neighbouring cell has one.  Illinois steps (regula
    falsi that halves the value kept at a stalled end) narrow the cell to
    a few doubles first, so it takes 4-7 cubic evaluations, not about 45.
    """
    j = min(max(int(np.argmax(rho)), 1), len(rho) - 2)
    if drho[j] > 0.0 >= drho[j + 1]:
        lo, hi = j * h, (j + 1) * h
    elif drho[j - 1] >= 0.0 > drho[j]:
        lo, hi = (j - 1) * h, j * h
        j -= 1
    else:
        lo = hi = j * h
    # drho > 0 at lo and <= 0 at hi; the cubic's end values are nodes
    f_lo, f_hi = float(drho[j]), float(drho[j + 1])
    stalled = 0
    for _ in range(EQUATOR_ILLINOIS_STEPS):
        # a step lands at least a few doubles inside the bracket, so a
        # root next to one end closes the bracket from the other side
        tol = 4.0 * math.ulp(hi)
        if hi - lo <= 2.0 * tol:
            break
        x_new = min(max((lo * f_hi - hi * f_lo) / (f_hi - f_lo),
                        lo + tol), hi - tol)
        f = float(_kernels.hermite_eval(x_new, h, drho, d2rho))
        if f > 0.0:
            lo, f_lo = x_new, f
            if stalled == 1:
                f_hi *= 0.5
            stalled = 1
        else:
            hi, f_hi = x_new, f
            if stalled == -1:
                f_lo *= 0.5
            stalled = -1
    x_star = 0.5 * (lo + hi)
    while lo < x_star < hi:
        if _kernels.hermite_eval(x_star, h, drho, d2rho) > 0.0:
            lo = x_star
        else:
            hi = x_star
        x_star = 0.5 * (lo + hi)
    return x_star, float(_kernels.hermite_eval(x_star, h, rho, drho))


def curvature_arclength(p, s):
    """K = -rho''(s)/rho(s); valid on the open interval (0, S)."""
    scalar = np.isscalar(s)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any((s_arr <= 0.0) | (s_arr >= p.total_length)):
        raise DomainError("s must lie strictly inside (0, S)")
    val = -p.d2rho(s_arr) / p.rho(s_arr)
    return float(val[0]) if scalar else val


class Spline:
    """Not-a-knot cubic spline through (x, y) on increasing knots, n >= 4.

    The knot slopes are scipy ``CubicSpline``'s, bitwise
    (``_kernels.notaknot_slopes``).  Between knots the spline is the
    ``_kernels.hermite_cell`` cubic, and ``integral`` integrates that cubic
    in closed form.  Points outside the knots use the nearest end cell.
    """

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.h = np.diff(self.x)
        self.d = _kernels.notaknot_slopes(self.x, self.y)
        self._knot_integrals = None

    def cells(self, xq):
        """Index of the cell holding each query point."""
        return np.clip(np.searchsorted(self.x, xq, side="right") - 1,
                       0, len(self.x) - 2)

    def _cell_args(self, xq, cells):
        """(t, h, y0, y1, d0, d1) of each query point's cell, and the cell
        indices."""
        xq = np.asarray(xq, dtype=float)
        i = self.cells(xq) if cells is None else cells
        h = self.h[i]
        return ((xq - self.x[i]) / h, h, self.y[i], self.y[i + 1],
                self.d[i], self.d[i + 1]), i

    def __call__(self, xq):
        args, _ = self._cell_args(xq, None)
        return _kernels.hermite_cell(*args)

    def knot_integrals(self):
        """Integral of the spline from x[0] to each knot: the cumulative sum
        of the cells' h (y0 + y1)/2 + h^2 (d0 - d1)/12."""
        if self._knot_integrals is None:
            h, y, d = self.h, self.y, self.d
            cells = h * (y[:-1] + y[1:]) / 2 + h * h * (d[:-1] - d[1:]) / 12
            self._knot_integrals = np.concatenate(([0.0], np.cumsum(cells)))
        return self._knot_integrals

    def integral(self, xq, cells=None):
        """Integral of the spline from x[0] to each query point; ``cells``,
        the points' cell indices if the caller knows them, skips the search."""
        args, i = self._cell_args(xq, cells)
        return self.knot_integrals()[i] + _kernels.hermite_cell_integral(*args)


def arclength_profile(x, speed, at, n_nodes):
    """ProfileMetric on n_nodes of a surface sampled from pole to pole on
    increasing x, given ds/dx = speed at the samples and at(x) -> (rho,
    rho', rho'') with derivatives in arc length.

    The spline antiderivative of the speed gives the samples' arc lengths
    and the total S; the spline of x on those (non-uniform) lengths gives
    the x of the uniform s-grid, its ends pinned to x[0] and x[-1].  at()
    is read there, and the poles are pinned to rho = 0, rho' = +1/-1 and
    rho'' = 0.
    """
    s_nodes = Spline(x, speed).knot_integrals()
    S = float(s_nodes[-1])
    x_u = Spline(s_nodes, x)(np.linspace(0.0, S, n_nodes))
    x_u[0], x_u[-1] = x[0], x[-1]
    rho, drho, d2rho = at(x_u)
    rho[0] = rho[-1] = 0.0
    drho[0], drho[-1] = 1.0, -1.0
    d2rho[0] = d2rho[-1] = 0.0
    return ProfileMetric(total_length=S, rho_grid=rho, drho_grid=drho,
                         d2rho_grid=d2rho)


def _extrapolate_ends(v):
    """Replace both end values of v by the cubic through the next four."""
    v[0] = v[1] * 3.0 - v[2] * 3.0 + v[3]
    v[-1] = v[-2] * 3.0 - v[-3] * 3.0 + v[-4]


def _chi_speed(m, chi):
    """(z, ds/dchi) at the samples chi of z = mid + a sin(chi), increasing
    from -pi/2 to pi/2: ds/dchi = a sqrt(cos^2 chi + g^2) with
    g = r'(z) cos(chi), finite at the poles for a smooth cap, where its
    end values (0 * inf) are extrapolated."""
    a = 0.5 * m.width
    z = m.midpoint + a * np.sin(chi)
    with np.errstate(all="ignore"):
        g = m.dr(z) * np.cos(chi)
    _extrapolate_ends(g)
    return z, a * np.sqrt(np.cos(chi) ** 2 + g * g)


def to_arclength(m, n_nodes=4097):
    """Reparametrize a meridian by arc length.

    The cumulative length s(z) = integral of sqrt(1 + r'^2) dz is computed on
    a fine chi-grid (z = mid + a sin(chi)), which turns the square-root
    blow-up of r' at the poles into a smooth integrand, then inverted onto a
    uniform s-grid, where rho' = r'/sqrt(1 + r'^2) and
    rho'' = r''/(1 + r'^2)^2.
    """
    def at(chi):
        z = m.midpoint + 0.5 * m.width * np.sin(chi)
        with np.errstate(all="ignore"):
            dr = m.dr(z)
            q = 1.0 + dr * dr
            return m.r(z), dr / np.sqrt(q), m.d2r(z) / q ** 2

    chi = np.linspace(-np.pi / 2, np.pi / 2, max(8 * n_nodes + 1, 16385))
    return arclength_profile(chi, _chi_speed(m, chi)[1], at, n_nodes)


@dataclass
class ConformalProfile:
    """Conformal exponent u on a uniform theta grid over [0, pi].

    The metric is e^{2u} (d theta^2 + sin^2 theta d phi^2).
    """

    u: np.ndarray

    @property
    def n_nodes(self):
        return len(self.u)

    @property
    def h(self):
        return np.pi / (self.n_nodes - 1)

    @property
    def theta(self):
        return np.linspace(0.0, np.pi, self.n_nodes)

    def copy(self):
        return ConformalProfile(u=self.u.copy())

    def equator(self):
        """``grid_equator`` of rho = e^u sin theta on the three nodes around
        the largest rho, with derivatives from fourth-order differences of
        u (even about both poles); not cached, as u may change in place."""
        n, h, h12 = self.n_nodes, self.h, 12.0 * self.h
        rho = np.exp(self.u) * conformal_grid(n).sin_t
        j = min(max(int(np.argmax(rho)), 1), n - 2)
        # u at nodes j-3 .. j+3, mirrored about a pole the window crosses
        u = self.u[[n - 1 - abs(n - 1 - abs(k))
                    for k in range(j - 3, j + 4)]].tolist()
        drho, d2rho = [], []
        for i in range(3):
            um2, um1, u0, up1, up2 = u[i:i + 5]
            du = (8.0 * (up1 - um1) - (up2 - um2)) / h12
            d2u = (16.0 * (up1 + um1) - (up2 + um2) - 30.0 * u0) / (h12 * h)
            theta = (j - 1 + i) * h
            e, s, c = math.exp(u0), math.sin(theta), math.cos(theta)
            # rho' = e^u (u's + c), rho'' = e^u ((u'' + u'^2 - 1) s + 2u'c)
            drho.append(e * (du * s + c))
            d2rho.append(e * ((d2u + du * du - 1.0) * s + 2.0 * du * c))
        x, rho_star = grid_equator(h, rho[j - 1:j + 2].tolist(), drho, d2rho)
        return (j - 1) * h + x, rho_star

    def symmetry_defect(self):
        return float(np.max(np.abs(self.u - self.u[::-1])))


ConformalGrid = collections.namedtuple("ConformalGrid", "sin_t ws a b")


@functools.lru_cache(maxsize=None)
def conformal_grid(n_nodes):
    """The uniform theta grid's one record, built once per grid size and
    read-only: sin theta, the area weights ws = (Simpson weight) sin theta,
    and the round Laplacian lap0 u_i = a_i (u[i+1] - u[i]) + b_i (u[i-1] -
    u[i]).  Its interior rows are u'' + cot(theta) u' by central
    differences; its pole rows are the regular limit 2 u'', mirrored about
    the pole (b = 0 at theta = 0, a = 0 at theta = pi).
    """
    theta = np.linspace(0.0, np.pi, n_nodes)
    sin_t = np.sin(theta)
    cot_t = np.zeros(n_nodes)
    cot_t[1:-1] = np.cos(theta[1:-1]) / sin_t[1:-1]
    h = np.pi / (n_nodes - 1)
    h2 = h * h
    a = 1.0 / h2 + cot_t / (2.0 * h)
    b = 1.0 / h2 - cot_t / (2.0 * h)
    a[0], b[0] = 4.0 / h2, 0.0
    a[-1], b[-1] = 0.0, 4.0 / h2
    grid = ConformalGrid(sin_t, simpson_weights(n_nodes, h) * sin_t, a, b)
    for x in grid:
        x.flags.writeable = False
    return grid


def conformal_curvature(c):
    """Discrete curvature K = e^{-2u} (1 - lap0 u) at every node, with
    ``conformal_grid``'s lap0: second order in the grid."""
    u = np.asarray(c.u, dtype=float)
    grid = conformal_grid(len(u))
    du = np.diff(u)
    lap = np.zeros(len(u))
    lap[:-1] += grid.a[:-1] * du
    lap[1:] -= grid.b[1:] * du
    return np.exp(-2.0 * u) * (1.0 - lap)


def _chi_grid(n_samples):
    """n_samples points from -pi/2 to pi/2, odd in chi bitwise."""
    chi = np.linspace(-0.5 * np.pi, 0.5 * np.pi, n_samples)
    return 0.5 * (chi - chi[::-1])


def _profile_samples(p):
    """(chi, rho, ds/dchi, rho at any chi) of a profile on its own nodes,
    at chi = pi s/S - pi/2, so ds/dchi = S/pi."""
    S = p.total_length
    return (_chi_grid(p.n_nodes), p.rho_grid, np.full(p.n_nodes, S / np.pi),
            lambda x: p.rho((x + 0.5 * np.pi) * (S / np.pi)))


def _isothermal_remainder(chi, r, speed):
    """(R, R_0): the not-a-knot ``Spline`` of the bounded part
    (ds/dchi)/r - 1/cos(chi) of dt/dchi on the chi grid, its end values
    (0/0) extrapolated, and its integral R_0 at chi = 0.  The isothermal
    coordinate t = integral ds/r, zero at chi = 0, is w + R(chi) - R_0,
    where w = artanh(sin chi) is the round sphere's Mercator coordinate."""
    f = np.empty(len(chi))
    f[1:-1] = speed[1:-1] / r[1:-1] - 1.0 / np.cos(chi[1:-1])
    _extrapolate_ends(f)
    rem = Spline(chi, f)
    return rem, float(rem.integral(0.0))


def _log_isothermal(p):
    """Isothermal coordinate t(s) = integral ds/rho of a profile, zero at
    s = S/2, as a callable on (0, S): ``_isothermal_remainder`` at
    chi = pi s/S - pi/2, where w = ln tan(pi s/2S)."""
    S = p.total_length
    rem, anchor = _isothermal_remainder(*_profile_samples(p)[:3])

    def t(s):
        psi = np.pi * s / S
        return np.log(np.tan(0.5 * psi)) \
            + (rem.integral(psi - 0.5 * np.pi) - anchor)

    return t


def _invert_isothermal(rem, anchor, q):
    """The points chi where the isothermal coordinate
    t = w + R(chi) - anchor equals q, for every q at once.

    w = artanh(sin chi) is the Mercator variable, chi = gd(w) =
    atan(sinh w) with dchi/dw = cos chi, and R is the closed-form integral
    of ``rem``, the spline of the bounded remainder on the chi knots.  t at
    the knots brackets each root in one knot cell, clamped to
    |w| <= MERCATOR_GUARD; a secant through the cell's ends starts
    Newton's method in w, whose derivative 1 + rem(chi) cos(chi) is
    positive, and an iterate that leaves the bracket is replaced by its
    midpoint.  So every query stays strictly inside the knots.  Stops
    after a step of at most INVERSION_TOL; GaugeError if none comes within
    INVERSION_STEPS.
    """
    with np.errstate(divide="ignore"):
        w_knots = np.clip(np.arctanh(np.sin(rem.x)), -MERCATOR_GUARD,
                          MERCATOR_GUARD)
    t_knots = w_knots + (rem.knot_integrals() - anchor)
    # t_knots[k] < q <= t_knots[k + 1]: the root lies in knot cell k
    k = np.clip(np.searchsorted(t_knots, q) - 1, 0, len(t_knots) - 2)
    lo, hi = w_knots[k], w_knots[k + 1]
    w = lo + (q - t_knots[k]) * ((hi - lo) / (t_knots[k + 1] - t_knots[k]))
    step = np.inf
    for _ in range(INVERSION_STEPS):
        chi = np.arctan(np.sinh(w))
        g = w + (rem.integral(chi, k) - anchor) - q
        below = g < 0.0
        lo = np.where(below, w, lo)
        hi = np.where(below, hi, w)
        w_new = w - g / (1.0 + rem(chi) * np.cos(chi))
        w_new = np.where((lo <= w_new) & (w_new <= hi), w_new,
                         0.5 * (lo + hi))
        step = float(np.max(np.abs(w_new - w)))
        w = w_new
        if step <= INVERSION_TOL:
            return np.arctan(np.sinh(w))
    raise GaugeError(f"isothermal inversion did not converge "
                     f"(last step {step:.1e})")


def _conformal_from_interior(u_interior):
    """ConformalProfile from u at the interior nodes: the pole values come
    from an even quadratic in theta^2 through the 3 nearest nodes, and u
    measured symmetric (below SYMMETRY_TOL) is made exactly symmetric."""
    u = np.empty(len(u_interior) + 2)
    u[1:-1] = u_interior
    k = np.arange(1, 4)
    V = np.vander((k * 1.0) ** 2, 3, increasing=True)
    u[0] = np.linalg.solve(V, u[1:4])[0]
    u[-1] = np.linalg.solve(V, u[-2:-5:-1])[0]
    c = ConformalProfile(u=u)
    if c.symmetry_defect() < SYMMETRY_TOL:
        c.u = 0.5 * (u + u[::-1])
    return c


def _sampled_conformal(chi, r, speed, r_at, n_nodes):
    """Conformal gauge on n_nodes of a surface sampled on the odd chi grid
    from pole to pole as r, ds/dchi and r at any chi: the Simpson area
    check, the remainder spline anchored at chi = 0, and u = ln(r/sin theta)
    where the isothermal coordinate equals ln tan(theta/2)."""
    area_value = 2.0 * np.pi * float(
        simpson_weights(len(chi), chi[1] - chi[0]) @ (r * speed))
    if abs(area_value - FOUR_PI) > 1e-6 * FOUR_PI:
        raise GaugeError(f"profile area {area_value:.6f} != 4*pi; "
                         "normalize the surface first")
    rem, anchor = _isothermal_remainder(chi, r, speed)
    theta = np.linspace(0.0, np.pi, n_nodes)[1:-1]
    chi_q = _invert_isothermal(rem, anchor, np.log(np.tan(0.5 * theta)))
    return _conformal_from_interior(np.log(r_at(chi_q) / np.sin(theta)))


def _meridian_conformal(m, n_nodes, n_samples):
    """Conformal gauge of a meridian from n_samples points of its chi grid
    z = mid + a sin(chi) (odd in chi, so mirrored samples are exact)."""
    chi = _chi_grid(n_samples)
    z, speed = _chi_speed(m, chi)
    with np.errstate(all="ignore"):
        r = m.r(z)
    r[0] = r[-1] = 0.0
    return _sampled_conformal(chi, r, speed, lambda x: m.r(
        m.midpoint + 0.5 * m.width * np.sin(x)), n_nodes)


def to_conformal(surface, n_nodes=2048):
    """Conformal gauge on n_nodes >= MIN_CONFORMAL_NODES of a surface of
    area 4 pi (GaugeError otherwise): a ``MeridianCurve``, sampled on
    MERIDIAN_SAMPLES n_nodes + 1 points of z = mid + a sin(chi); a
    ``ProfileMetric``, on its own nodes at chi = pi s/S - pi/2; or a Michel
    ``OddFunction``, whose ``conformal_samples`` gives it in closed form on
    as many points of psi = chi + pi/2.

    The isothermal coordinate t, zero at chi = 0 (the height midpoint, S/2
    or psi = pi/2), is matched to ln tan(theta/2) at the interior theta
    nodes, where e^{2u} = r^2 / sin^2 theta.  Another anchor gives the same
    metric up to an axial boost tan(theta'/2) = e^b tan(theta/2).
    """
    if n_nodes < MIN_CONFORMAL_NODES:
        raise GaugeError(f"n_nodes = {n_nodes} below the minimum "
                         f"{MIN_CONFORMAL_NODES} of the conformal grid")
    if isinstance(surface, MeridianCurve):
        return _meridian_conformal(surface, n_nodes,
                                   MERIDIAN_SAMPLES * n_nodes + 1)
    if isinstance(surface, ProfileMetric):
        return _sampled_conformal(*_profile_samples(surface), n_nodes)
    if not hasattr(surface, "conformal_samples"):
        raise TypeError("to_conformal takes a MeridianCurve, a ProfileMetric "
                        f"or an OddFunction, not {type(surface).__name__}")
    chi = _chi_grid(MERIDIAN_SAMPLES * n_nodes + 1)
    return _sampled_conformal(chi, *surface.conformal_samples(chi), n_nodes)


def conformal_to_arclength(c, n_nodes=4097):
    """Arc-length profile of a conformal metric: rho = e^u sin(theta),
    ds = e^u d(theta).  This is the bridge that lets the geodesic
    integrator run on flow states."""
    theta = c.theta

    # du/dtheta by central differences (u is even at the poles)
    du = np.empty_like(c.u)
    du[1:-1] = (c.u[2:] - c.u[:-2]) / (2.0 * c.h)
    du[0] = du[-1] = 0.0

    u_sp = Spline(theta, c.u)
    du_sp = Spline(theta, du)
    K_sp = Spline(theta, conformal_curvature(c))

    def at(th):
        rho = np.exp(u_sp(th)) * np.sin(th)
        # d rho/ds = e^{-u} d rho/d theta = u' sin + cos (the e^u factors
        # cancel), and rho'' = -K rho
        return (rho, du_sp(th) * np.sin(th) + np.cos(th),
                -K_sp(th) * rho)

    return arclength_profile(theta, np.exp(c.u), at, n_nodes)
