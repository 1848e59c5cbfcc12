"""Named surfaces and the odd-function family of metrics of revolution.

``round_sphere``, ``gong_raw`` and ``gong_normalized`` are closed-form
meridians with analytic derivatives.  ``michel_surface`` realizes the
classical correspondence between metrics of revolution with all geodesics
closed and odd functions h on [-1, 1], through the literature normal form

    g = (1 + h(cos theta))^2 d theta^2 + sin^2 theta d phi^2.
"""

from dataclasses import dataclass

import numpy as np

from . import profile

SQRT2 = np.sqrt(2.0)
# rescale constant for the gong meridian: c = sqrt(2) - 1
GONG_C = SQRT2 - 1.0


def round_sphere():
    """Unit sphere meridian r(z) = sqrt(1 - z^2) on [-1, 1]."""
    return profile.MeridianCurve(
        r=lambda z: np.sqrt(1.0 - z * z),
        dr=lambda z: -z / np.sqrt(1.0 - z * z),
        d2r=lambda z: -(1.0 - z * z) ** -1.5,
        z_lo=-1.0, z_hi=1.0)


def _gong_meridian(c4):
    """Meridian r(z) = (sqrt(1 + w) - 1) / c with w = sqrt(1 - (c4 z)^2),
    where c4 = 4c; covers both the raw (c = 1/4) and rescaled gong."""
    c = c4 / 4.0

    def r(z):
        w = np.sqrt(1.0 - (c4 * z) ** 2)
        return (np.sqrt(1.0 + w) - 1.0) / c

    def dr(z):
        w = np.sqrt(1.0 - (c4 * z) ** 2)
        return -c4 * c4 * z / (c * 2.0 * w * np.sqrt(1.0 + w))

    def d2r(z):
        x = c4 * z
        w = np.sqrt(1.0 - x * x)
        sw = np.sqrt(1.0 + w)
        return -(c4 * c4 / (2.0 * c)) * (
            1.0 / (w * sw)
            + x * x / (w ** 3 * sw)
            + x * x / (2.0 * w * w * sw ** 3))

    half = 1.0 / c4
    return profile.MeridianCurve(r=r, dr=dr, d2r=d2r, z_lo=-half, z_hi=half)


def gong_raw():
    """Gambier's gong meridian r(z) = 4 (sqrt(1 + sqrt(1 - z^2)) - 1)."""
    return _gong_meridian(1.0)


def gong_normalized():
    """The gong rescaled by 1/(4c), c = sqrt(2) - 1, so that r(0) = 1:
    r(z) = (sqrt(1 + sqrt(1 - 16 (c z)^2)) - 1)/c on [-1/(4c), 1/(4c)]."""
    return _gong_meridian(4.0 * GONG_C)


@dataclass(frozen=True)
class OddFunction:
    """Odd polynomial h(x) = sum a_k x^{2k+1} on [-1, 1] with h(+-1) = 0
    and sup |h| < 1 (required for the generated metric to be positive)."""

    coefficients: tuple

    def __post_init__(self):
        a = np.asarray(self.coefficients, dtype=float)
        if a.size == 0:
            object.__setattr__(self, "coefficients", (0.0,))
            return
        if not np.all(np.isfinite(a)):
            raise ValueError("coefficients must be finite")
        if abs(a.sum()) > 1e-12:
            raise ValueError("coefficients must sum to zero so that h(+-1) = 0")
        object.__setattr__(self, "coefficients", tuple(float(c) for c in a))
        sup = np.max(np.abs(self(np.linspace(-1.0, 1.0, 4097))))
        # refine with the critical points of the polynomial
        dcoeffs = self._poly_deriv_coeffs()
        # a coefficient below the rounding of the largest moves no root in
        # [-1, 1], and np.roots overflows dividing by a tiny leading one
        dcoeffs[np.abs(dcoeffs) <= 1e-16 * np.abs(dcoeffs).max()] = 0.0
        roots = np.roots(dcoeffs) if len(dcoeffs) > 1 else np.array([])
        for rt in roots:
            if abs(rt.imag) < 1e-12 and -1.0 <= rt.real <= 1.0:
                sup = max(sup, abs(self(rt.real)))
        if sup >= 1.0:
            raise ValueError(f"sup |h| = {sup:.4f} must be < 1")

    def _poly_deriv_coeffs(self):
        deg = 2 * len(self.coefficients) - 1
        full = np.zeros(deg + 1)  # highest power first
        for k, ak in enumerate(self.coefficients):
            full[deg - (2 * k + 1)] = ak
        return np.polyder(full)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return x * _horner(self.coefficients, x * x)

    def deriv(self, x):
        x = np.asarray(x, dtype=float)
        return _horner([(2 * k + 1) * ak
                        for k, ak in enumerate(self.coefficients)], x * x)

    def conformal_samples(self, chi):
        """(r, ds/dchi, r at any chi) of the ``michel_surface`` metric on
        the chi grid from pole to pole, at psi = chi + pi/2, in closed form
        for ``profile.to_conformal``: r = sin psi = cos chi and
        ds/dchi = 1 + h(cos psi) = 1 + h(-sin chi)."""
        r = np.cos(chi)
        r[0] = r[-1] = 0.0
        return r, 1.0 + self(-np.sin(chi)), np.cos


def _horner(coeffs, y):
    """sum c_k y^k by Horner's rule, in place on one array."""
    acc = np.full(np.shape(y), coeffs[-1])
    for ck in coeffs[-2::-1]:
        acc *= y
        acc += ck
    return acc


def michel_surface(h, n_nodes=4097):
    """Arc-length profile of the odd-function metric
    (1 + h(cos theta))^2 d theta^2 + sin^2 theta d phi^2.

    The meridian length is exactly pi (the h-term integrates to zero by
    oddness) and the area is exactly 4 pi.  Arc length is the spline
    integral of ds/dtheta = 1 + h(cos theta) on
    ``profile.ARCLENGTH_SAMPLES`` uniform theta points.
    """
    theta = np.linspace(0.0, np.pi, profile.ARCLENGTH_SAMPLES)
    speed = 1.0 + h(np.cos(theta))  # ds/dtheta
    if np.any(speed <= 0.0):
        raise ValueError("1 + h(cos theta) must stay positive")

    def at(th):
        ct = np.cos(th)
        st = np.sin(th)
        sp = 1.0 + h(ct)
        # d/ds (cos theta / (1+h)) = sin theta (cos theta h'(cos) - (1+h))
        # / (1+h)^3
        return st, ct / sp, st * (ct * h.deriv(ct) - sp) / sp ** 3

    return profile.arclength_profile(theta, speed, at, n_nodes)
