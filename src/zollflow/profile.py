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
# central-difference step for user-supplied curves without derivatives
FD_STEP_FRACTION = 1e-6
# Gauss-Legendre orders of the meridian quadratures: the finer rule gives the
# value, its difference from the coarser one the error estimate
QUAD_NODES = (64, 128)
QUAD_EPSABS = 1e-10  # absolute scale of the error estimate accepted
# bound on max|rho - rho[::-1]| / max rho, and on max|u - u[::-1]|
SYMMETRY_TOL = 1e-10
# cap on the regula falsi steps of ProfileMetric.equator before it bisects
EQUATOR_ILLINOIS_STEPS = 30
# chi samples per theta node behind a meridian's conformal gauge
MERIDIAN_SAMPLES = 4
# |w| bound of the isothermal inversion in the Mercator variable w: roots
# closer to a pole than about e^-|w| of the domain are not resolved
MERCATOR_GUARD = math.log(1e12)
# Newton steps of the isothermal inversion, and the step that ends it
INVERSION_STEPS = 40
INVERSION_TOL = 1e-12


def simpson_weights(n, h):
    """Composite Simpson weights for n uniform nodes (3/8 tail if n is even)."""
    if n < 4:
        raise ValueError("need at least 4 nodes")
    w = np.zeros(n)
    if n % 2 == 1:
        w[0] = w[-1] = 1.0
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= h / 3.0
    else:
        # Simpson on the first n-4 intervals, 3/8 rule on the last three
        m = n - 3
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


def meridian_from_callable(r, z_lo, z_hi, dr=None, d2r=None):
    """Build a MeridianCurve, falling back to central differences for
    missing derivatives (step 1e-6 of the domain width, second order)."""
    h = FD_STEP_FRACTION * (z_hi - z_lo)
    if dr is None:
        dr = lambda z: (r(z + h) - r(z - h)) / (2.0 * h)
    if d2r is None:
        d2r = lambda z: (r(z + h) - 2.0 * r(z) + r(z - h)) / (h * h)
    return MeridianCurve(r=r, dr=dr, d2r=d2r, z_lo=z_lo, z_hi=z_hi)


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
    reflection symmetry is not declared but measured by ``to_conformal``.
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
        """(s*, rho(s*)) at the maximal parallel, computed once per profile.

        s* is the root of the Hermite drho cubic in the cell next to the
        largest rho node where drho changes sign, bisected to adjacent
        doubles; the node itself if neither neighbouring cell has one.
        Illinois steps (regula falsi that halves the value kept at a
        stalled end) narrow the cell to a few doubles before the bisection,
        so it takes 4-7 cubic evaluations instead of about 45.
        """
        if self._equator is None:
            self._equator = self._find_equator()
        return self._equator

    def _find_equator(self):
        h = self.h
        d = self.drho_grid
        j = min(max(int(np.argmax(self.rho_grid)), 1), self.n_nodes - 2)
        if d[j] > 0.0 >= d[j + 1]:
            lo, hi = j * h, (j + 1) * h
        elif d[j - 1] >= 0.0 > d[j]:
            lo, hi = (j - 1) * h, j * h
            j -= 1
        else:
            lo = hi = j * h
        # drho > 0 at lo and <= 0 at hi; the cubic's end values are nodes
        f_lo, f_hi = float(d[j]), float(d[j + 1])
        stalled = 0
        for _ in range(EQUATOR_ILLINOIS_STEPS):
            # a step lands at least a few doubles inside the bracket, so a
            # root next to one end closes the bracket from the other side
            tol = 4.0 * math.ulp(hi)
            if hi - lo <= 2.0 * tol:
                break
            s_new = min(max((lo * f_hi - hi * f_lo) / (f_hi - f_lo),
                            lo + tol), hi - tol)
            f = float(_kernels.hermite_eval(s_new, h, d, self.d2rho_grid))
            if f > 0.0:
                lo, f_lo = s_new, f
                if stalled == 1:
                    f_hi *= 0.5
                stalled = 1
            else:
                hi, f_hi = s_new, f
                if stalled == -1:
                    f_lo *= 0.5
                stalled = -1
        s_star = 0.5 * (lo + hi)
        while lo < s_star < hi:
            if _kernels.hermite_eval(s_star, h, d, self.d2rho_grid) > 0.0:
                lo = s_star
            else:
                hi = s_star
            s_star = 0.5 * (lo + hi)
        # the scalar form of self.rho, bitwise equal to it
        return s_star, float(_kernels.hermite_eval(s_star, h, self.rho_grid,
                                                   self.drho_grid))


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


def arclength_grid(x, speed, n_nodes):
    """(S, x_u): total arc length, and the parameters of n_nodes points evenly
    spaced in arc length, for ds/dx = speed on increasing nodes x.  Spline
    antiderivative, inverted by a second spline: the spline of x on the
    (non-uniform) arc lengths of the nodes.  Ends pinned to x[0], x[-1]."""
    s_nodes = Spline(x, speed).knot_integrals()
    S = float(s_nodes[-1])
    x_u = Spline(s_nodes, x)(np.linspace(0.0, S, n_nodes))
    x_u[0], x_u[-1] = x[0], x[-1]
    return S, x_u


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
    uniform s-grid.
    """
    a = 0.5 * m.width
    mid = m.midpoint
    n_fine = max(8 * n_nodes + 1, 16385)
    chi = np.linspace(-np.pi / 2, np.pi / 2, n_fine)
    _z, F = _chi_speed(m, chi)

    S, chi_u = arclength_grid(chi, F, n_nodes)
    z_u = mid + a * np.sin(chi_u)

    with np.errstate(all="ignore"):
        rho_u = m.r(z_u)
        dr_u = m.dr(z_u)
        drho_u = np.where(np.abs(dr_u) > 1e12, np.sign(dr_u),
                          dr_u / np.sqrt(1.0 + dr_u * dr_u))
        d2_u = m.d2r(z_u)
        d2rho_u = np.where(np.isfinite(dr_u) & (np.abs(dr_u) < 1e12),
                           d2_u / (1.0 + dr_u * dr_u) ** 2, 0.0)
    rho_u[0] = rho_u[-1] = 0.0
    drho_u[0], drho_u[-1] = 1.0, -1.0
    d2rho_u[0] = d2rho_u[-1] = 0.0

    return ProfileMetric(total_length=S, rho_grid=rho_u, drho_grid=drho_u,
                         d2rho_grid=d2rho_u)


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

    def area(self):
        w = simpson_weights(self.n_nodes, self.h)
        return 2.0 * np.pi * float(w @ (np.exp(2.0 * self.u) * np.sin(self.theta)))

    def u_equator(self):
        """u at theta = pi/2 (node value if the grid has one, else cubic)."""
        n = self.n_nodes
        if n % 2 == 1:
            return float(self.u[n // 2])
        j = n // 2  # pi/2 sits mid-cell between j-1 and j
        um2, um1, up1, up2 = self.u[j - 2], self.u[j - 1], self.u[j], self.u[j + 1]
        return float((-um2 + 9.0 * um1 + 9.0 * up1 - up2) / 16.0)

    def symmetry_defect(self):
        return float(np.max(np.abs(self.u - self.u[::-1])))


def conformal_grid(n_nodes):
    """(sin theta, cot theta, Simpson weights) on the uniform theta grid.

    cot is set to 0 at the poles, where the curvature stencil does not use
    it.
    """
    theta = np.linspace(0.0, np.pi, n_nodes)
    sin_t = np.sin(theta)
    cot_t = np.zeros(n_nodes)
    cot_t[1:-1] = np.cos(theta[1:-1]) / sin_t[1:-1]
    return sin_t, cot_t, simpson_weights(n_nodes, np.pi / (n_nodes - 1))


def conformal_curvature(c):
    """Discrete curvature K = e^{-2u} (1 - lap0 u) at every node, second
    order in the grid."""
    _sin_t, cot_t, _w = conformal_grid(c.n_nodes)
    return _kernels.curvature_grid(np.asarray(c.u, dtype=float), c.h, cot_t)


def _isothermal_remainder(p):
    """(G, G_mid): the not-a-knot ``Spline`` of the bounded part of 1/rho
    on the s-grid, and its integral at the equator s = S/2.

    The isothermal coordinate is t(s) = ln(s/(S - s)) + G.integral(s) -
    G_mid: the 1/s and 1/(S-s) singularities are split off and integrated
    in closed form.
    """
    S = p.total_length
    s = p.s_grid
    rho = p.rho_grid
    f = np.empty_like(s)
    half = len(s) // 2
    with np.errstate(all="ignore"):
        f[:half] = (s[:half] - rho[:half]) / (rho[:half] * s[:half]) \
            - 1.0 / (S - s[:half])
        f[half:] = ((S - s[half:]) - rho[half:]) / (rho[half:] * (S - s[half:])) \
            - 1.0 / s[half:]
    f[0] = f[-1] = -1.0 / S
    G = Spline(s, f)
    return G, float(G.integral(0.5 * S))


def _log_isothermal(p):
    """Isothermal coordinate t(s) = integral ds/rho anchored at the equator,
    as a callable t(s, cells=None) valid on (0, S); cells, the points' cell
    indices on the s-grid if the caller knows them, skips the search."""
    S = p.total_length
    G, G_mid = _isothermal_remainder(p)

    def t(x, cells=None):
        return np.log(x / (S - x)) + (G.integral(x, cells) - G_mid)

    return t


def _invert_isothermal(rem, anchor, w_knots, x_of_w, dx_dw, q):
    """The points x where the isothermal coordinate t = w + R(x(w)) - anchor
    equals q, for every q at once.

    w is the Mercator variable of the domain variable x, whose map x(w)
    and derivative dx/dw (as a function of x) the caller gives; R is the
    closed-form integral of ``rem``, the spline of the bounded remainder on
    the knots x_k, whose Mercator values are ``w_knots`` (+-inf at the
    poles).  t at the knots brackets each root in one knot cell, clamped
    to |w| <= MERCATOR_GUARD; a secant through the cell's ends starts
    Newton's method in w, whose derivative 1 + rem(x) dx/dw is positive,
    and an iterate that leaves the bracket is replaced by its midpoint.
    So every query stays strictly inside the knots.  Stops after a step
    of at most INVERSION_TOL; GaugeError if none comes within
    INVERSION_STEPS.
    """
    w_knots = np.clip(w_knots, -MERCATOR_GUARD, MERCATOR_GUARD)
    t_knots = w_knots + (rem.knot_integrals() - anchor)
    # t_knots[k] < q <= t_knots[k + 1]: the root lies in knot cell k
    k = np.clip(np.searchsorted(t_knots, q) - 1, 0, len(t_knots) - 2)
    lo, hi = w_knots[k], w_knots[k + 1]
    w = lo + (q - t_knots[k]) * ((hi - lo) / (t_knots[k + 1] - t_knots[k]))
    step = np.inf
    for _ in range(INVERSION_STEPS):
        x = x_of_w(w)
        g = w + (rem.integral(x, k) - anchor) - q
        below = g < 0.0
        lo = np.where(below, w, lo)
        hi = np.where(below, hi, w)
        w_new = w - g / (1.0 + rem(x) * dx_dw(x))
        w_new = np.where((lo <= w_new) & (w_new <= hi), w_new,
                         0.5 * (lo + hi))
        step = float(np.max(np.abs(w_new - w)))
        w = w_new
        if step <= INVERSION_TOL:
            return x_of_w(w)
    raise GaugeError(f"isothermal inversion did not converge "
                     f"(last step {step:.1e})")


def _refuse_unless_gauge_ready(radius, area_value):
    """GaugeError unless the sampled parallel radii are reflection-symmetric
    (max|r - r[::-1]| / max r <= SYMMETRY_TOL) and the area is 4 pi."""
    defect = float(np.max(np.abs(radius - radius[::-1])) / np.max(radius))
    if defect > SYMMETRY_TOL:
        raise GaugeError("conformal gauge requires a reflection-symmetric "
                         f"profile (rho defect {defect:.1e})")
    if abs(area_value - FOUR_PI) > 1e-6 * FOUR_PI:
        raise GaugeError(f"profile area {area_value:.6f} != 4*pi; "
                         "normalize the surface first")


def _mercator_targets(n_nodes):
    """(q, sin theta) at the interior nodes of the uniform theta grid, where
    q(theta) = ln tan(theta/2) is the round sphere's Mercator coordinate."""
    theta = np.linspace(0.0, np.pi, n_nodes)[1:-1]
    return np.log(np.tan(0.5 * theta)), np.sin(theta)


def _conformal_from_interior(u_interior):
    """ConformalProfile from u at the interior nodes: the pole values come
    from an even quadratic in theta^2 through the 3 nearest nodes, and the
    symmetry of the (symmetric) input is pinned exactly."""
    u = np.empty(len(u_interior) + 2)
    u[1:-1] = u_interior
    k = np.arange(1, 4)
    V = np.vander((k * 1.0) ** 2, 3, increasing=True)
    u[0] = np.linalg.solve(V, u[1:4])[0]
    u[-1] = np.linalg.solve(V, u[-2:-5:-1])[0]
    return ConformalProfile(u=0.5 * (u + u[::-1]))


def _meridian_conformal(m, n_nodes, n_samples):
    """Conformal gauge of a meridian from n_samples points of the chi grid
    z = mid + a sin(chi) (odd in chi, so mirrored samples are exact).

    t(chi) = integral ds/r is the round sphere's Mercator coordinate
    w = ln tan(chi/2 + pi/4) plus the integral of the bounded remainder
    (ds/dchi)/r - 1/cos(chi) (``_chi_speed``), anchored at chi = 0.  Then
    u = ln(r(z)/sin theta) where t = ln tan(theta/2).
    """
    chi = np.linspace(-0.5 * np.pi, 0.5 * np.pi, n_samples)
    chi = 0.5 * (chi - chi[::-1])
    z, speed = _chi_speed(m, chi)
    with np.errstate(all="ignore"):
        r = m.r(z)
    r[0] = r[-1] = 0.0
    _refuse_unless_gauge_ready(
        r, 2.0 * np.pi * float(simpson_weights(n_samples, chi[1] - chi[0])
                               @ (r * speed)))

    f = np.empty(n_samples)
    f[1:-1] = speed[1:-1] / r[1:-1] - 1.0 / np.cos(chi[1:-1])
    _extrapolate_ends(f)
    rem = Spline(chi, f)
    with np.errstate(divide="ignore"):
        w_knots = np.arctanh(np.sin(chi))
    q, sin_t = _mercator_targets(n_nodes)
    # chi = gd(w) = atan(sinh w), so dchi/dw = cos(chi)
    chi_q = _invert_isothermal(rem, rem.knot_integrals()[n_samples // 2],
                               w_knots, lambda w: np.arctan(np.sinh(w)),
                               np.cos, q)
    z_q = m.midpoint + 0.5 * m.width * np.sin(chi_q)
    return _conformal_from_interior(np.log(m.r(z_q) / sin_t))


def to_conformal(p, n_nodes=2048):
    """Conformal gauge of a reflection-symmetric surface of area 4 pi,
    given as a ``ProfileMetric`` or as a ``MeridianCurve``.

    Symmetry is measured (GaugeError if max|rho - rho[::-1]| / max rho
    over the samples exceeds SYMMETRY_TOL), and so is the area.  The
    isothermal coordinate t of the surface (zero at the equator) is
    matched to the round sphere's Mercator coordinate q(theta) =
    ln tan(theta/2) by ``_invert_isothermal``, vectorized over the interior
    theta nodes; e^{2u} = rho^2 / sin^2 theta there.  A profile's t comes
    from its s-grid; a meridian is sampled once on MERIDIAN_SAMPLES
    n_nodes + 1 points of its chi grid (``_meridian_conformal``).
    """
    if isinstance(p, MeridianCurve):
        return _meridian_conformal(p, n_nodes, MERIDIAN_SAMPLES * n_nodes + 1)
    _refuse_unless_gauge_ready(p.rho_grid, p.area())
    S = p.total_length
    G, G_mid = _isothermal_remainder(p)
    s = p.s_grid
    with np.errstate(divide="ignore"):
        w_knots = np.log(s / (S - s))
    q, sin_t = _mercator_targets(n_nodes)
    s_q = _invert_isothermal(G, G_mid, w_knots,
                             lambda w: S / (1.0 + np.exp(-w)),
                             lambda x: x * (S - x) / S, q)
    return _conformal_from_interior(np.log(p.rho(s_q) / sin_t))


def conformal_to_arclength(c, n_nodes=4097):
    """Arc-length profile of a conformal metric: rho = e^u sin(theta),
    ds = e^u d(theta).  This is the bridge that lets the geodesic
    integrator run on flow states."""
    theta = c.theta
    h = c.h
    S, th_u = arclength_grid(theta, np.exp(c.u), n_nodes)

    # du/dtheta by central differences (u is even at the poles)
    du = np.empty_like(c.u)
    du[1:-1] = (c.u[2:] - c.u[:-2]) / (2.0 * h)
    du[0] = du[-1] = 0.0

    K = conformal_curvature(c)

    u_sp = Spline(theta, c.u)
    du_sp = Spline(theta, du)
    K_sp = Spline(theta, K)

    rho_u = np.exp(u_sp(th_u)) * np.sin(th_u)
    rho_u[0] = rho_u[-1] = 0.0
    # d rho/ds = e^{-u} d rho/d theta = u' sin + cos (the e^u factors cancel)
    drho_u = du_sp(th_u) * np.sin(th_u) + np.cos(th_u)
    drho_u[0], drho_u[-1] = 1.0, -1.0
    d2rho_u = -K_sp(th_u) * rho_u

    return ProfileMetric(total_length=S, rho_grid=rho_u, drho_grid=drho_u,
                         d2rho_grid=d2rho_u)
