"""Axisymmetric metric representations and curvature.

Three gauges for a metric of revolution on the 2-sphere:

* ``MeridianCurve`` -- embedded profile r(z), metric (1 + r'^2) dz^2 + r^2 dphi^2;
* ``ProfileMetric`` -- meridian arc-length gauge ds^2 + rho(s)^2 dphi^2;
* ``ConformalProfile`` -- e^{2u(theta)} times the round metric.

The height gauge carries the closed-form curvature

    K(z) = -r''(z) / ( r(z) (r'(z)^2 + 1)^2 )

but is numerically useless near the poles where r' blows up, so conversions
route all near-pole work through the arc-length gauge, where K = -rho''/rho.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from . import _kernels
from .errors import DomainError, GaugeError, PoleProximityError, QuadratureError

FOUR_PI = 4.0 * np.pi

# fraction of the domain width kept clear of the poles in the height gauge
POLE_GUARD_FRACTION = 1e-6
# central-difference step for user-supplied curves without derivatives
FD_STEP_FRACTION = 1e-6
QUAD_EPSABS = 1e-10  # absolute tolerance of the meridian quadratures
# bound on max|rho - rho[::-1]| / max rho, and on max|u - u[::-1]|
SYMMETRY_TOL = 1e-10


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


def _chi_integral(m, integrand):
    """Integrate f(z) dz over the domain with the z = mid + a sin(chi)
    substitution that removes the square-root endpoint singularity."""
    a = 0.5 * m.width
    mid = m.midpoint

    def g(chi):
        return integrand(mid + a * np.sin(chi)) * a * np.cos(chi)

    val, err = quad(g, -np.pi / 2, np.pi / 2, epsabs=QUAD_EPSABS, epsrel=1e-12,
                    limit=400)
    if err > max(100.0 * QUAD_EPSABS, 1e-8 * abs(val)):
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

    def equator(self):
        """(s*, rho(s*)) at the maximal parallel.

        s* is the root of the Hermite drho cubic in the cell next to the
        largest rho node where drho changes sign, bisected to adjacent
        doubles; the node itself if neither neighbouring cell has one.
        """
        h = self.h
        d = self.drho_grid
        j = min(max(int(np.argmax(self.rho_grid)), 1), self.n_nodes - 2)
        if d[j] > 0.0 >= d[j + 1]:
            lo, hi = j * h, (j + 1) * h
        elif d[j - 1] >= 0.0 > d[j]:
            lo, hi = (j - 1) * h, j * h
        else:
            lo = hi = j * h
        s_star = 0.5 * (lo + hi)
        while lo < s_star < hi:
            if _kernels.hermite_eval(s_star, h, d, self.d2rho_grid) > 0.0:
                lo = s_star
            else:
                hi = s_star
            s_star = 0.5 * (lo + hi)
        return s_star, float(self.rho(s_star))


def curvature_arclength(p, s):
    """K = -rho''(s)/rho(s); valid on the open interval (0, S)."""
    scalar = np.isscalar(s)
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any((s_arr <= 0.0) | (s_arr >= p.total_length)):
        raise DomainError("s must lie strictly inside (0, S)")
    val = -p.d2rho(s_arr) / p.rho(s_arr)
    return float(val[0]) if scalar else val


def arclength_grid(x, speed, n_nodes):
    """(S, x_u): total arc length, and the parameters of n_nodes points evenly
    spaced in arc length, for ds/dx = speed on increasing nodes x.  Spline
    antiderivative, inverted by a second spline; ends pinned to x[0], x[-1]."""
    s_of_x = CubicSpline(x, speed).antiderivative()
    s_nodes = s_of_x(x) - s_of_x(x[0])
    S = float(s_nodes[-1])
    x_u = CubicSpline(s_nodes, x)(np.linspace(0.0, S, n_nodes))
    x_u[0], x_u[-1] = x[0], x[-1]
    return S, x_u


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
    z = mid + a * np.sin(chi)

    with np.errstate(all="ignore"):
        g = m.dr(z) * np.cos(chi)  # finite at the poles for a smooth cap
    # the endpoints are 0 * inf; cubic extrapolation from the interior
    g[0] = g[1] * 3.0 - g[2] * 3.0 + g[3]
    g[-1] = g[-2] * 3.0 - g[-3] * 3.0 + g[-4]
    F = a * np.sqrt(np.cos(chi) ** 2 + g * g)

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


def _log_isothermal(p):
    """Isothermal coordinate t(s) = integral ds/rho anchored at the equator.

    The 1/s and 1/(S-s) singularities are split off and integrated in closed
    form; the smooth remainder goes through a spline antiderivative.
    Returns a callable t(s) valid on (0, S).
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
    G = CubicSpline(s, f).antiderivative()
    G_mid = float(G(0.5 * S))

    def t(x):
        return np.log(x / (S - x)) + (G(x) - G_mid)

    return t


def to_conformal(p, n_nodes=2048):
    """Conformal gauge of a reflection-symmetric, area-4pi profile.

    Symmetry is measured: GaugeError if max|rho - rho[::-1]| / max rho over
    the nodes exceeds SYMMETRY_TOL.
    Matches the isothermal coordinate t(s) of the profile (zero at the
    equator) to the round-sphere Mercator coordinate q(theta) = ln tan(theta/2)
    by one bisection of the increasing t, vectorized over all interior nodes
    and run to adjacent doubles, and sets e^{2u} = rho^2 / sin^2 theta there.
    """
    rho = p.rho_grid
    defect = float(np.max(np.abs(rho - rho[::-1])) / np.max(rho))
    if defect > SYMMETRY_TOL:
        raise GaugeError("conformal gauge requires a reflection-symmetric "
                         f"profile (rho defect {defect:.1e})")
    A = p.area()
    if abs(A - FOUR_PI) > 1e-6 * FOUR_PI:
        raise GaugeError(
            f"profile area {A:.6f} != 4*pi; normalize the surface first")

    S = p.total_length
    t = _log_isothermal(p)
    theta = np.linspace(0.0, np.pi, n_nodes)
    q = np.log(np.tan(0.5 * theta[1:-1]))

    lo = np.full(n_nodes - 2, 1e-12 * S)
    hi = np.full(n_nodes - 2, S * (1.0 - 1e-12))
    mid = 0.5 * (lo + hi)
    while np.any((lo < mid) & (mid < hi)):
        below = t(mid) < q
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        mid = 0.5 * (lo + hi)

    u = np.empty(n_nodes)
    u[1:-1] = np.log(p.rho(mid) / np.sin(theta[1:-1]))

    # pole values: even quadratic fit in theta^2 through the 3 nearest nodes
    k = np.arange(1, 4)
    V = np.vander((k * 1.0) ** 2, 3, increasing=True)
    u[0] = np.linalg.solve(V, u[1:4])[0]
    u[-1] = np.linalg.solve(V, u[-2:-5:-1])[0]

    u = 0.5 * (u + u[::-1])  # symmetric input; pin the symmetry exactly
    return ConformalProfile(u=u)


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

    u_sp = CubicSpline(theta, c.u)
    du_sp = CubicSpline(theta, du)
    K_sp = CubicSpline(theta, K)

    rho_u = np.exp(u_sp(th_u)) * np.sin(th_u)
    rho_u[0] = rho_u[-1] = 0.0
    # d rho/ds = e^{-u} d rho/d theta = u' sin + cos (the e^u factors cancel)
    drho_u = du_sp(th_u) * np.sin(th_u) + np.cos(th_u)
    drho_u[0], drho_u[-1] = 1.0, -1.0
    d2rho_u = -K_sp(th_u) * rho_u

    return ProfileMetric(total_length=S, rho_grid=rho_u, drho_grid=drho_u,
                         d2rho_grid=d2rho_u)
