"""Weinstein's integer invariant and its discreteness consequence.

For a surface all of whose geodesics share the period 2 pi L, the ratio

    i = vol(M, g) / (L^2 * 4 pi)

is a positive integer (Weinstein).  On volume-4 pi surfaces this pins L to
the discrete set with 2 / L^2 integral, which is the arithmetic backbone of
the certification pipeline: measure a common period, extract L, check the
integer.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ZollCertificationError

FOUR_PI = 4.0 * np.pi
TWO_PI = 2.0 * np.pi

SPREAD_TOL = 1e-4
INTEGER_TOL = 1e-4


@dataclass(frozen=True)
class WeinsteinDatum:
    """Evaluated invariant: i = volume / (L^2 * 4 pi) for n = 2."""

    volume: float
    L: float
    n: int
    i_value: float

    @property
    def nearest(self):
        return int(round(self.i_value))

    @property
    def residual(self):
        return abs(self.i_value - round(self.i_value))


def weinstein_integer(volume, L, n=2):
    """Evaluate i = vol / (L^n * vol(S^n)).  Only n = 2 is supported."""
    if n != 2:
        raise ValueError(f"dimension n = {n} not supported (surfaces only)")
    if volume <= 0.0 or L <= 0.0:
        raise ValueError("volume and L must be positive")
    return WeinsteinDatum(volume=volume, L=L, n=2,
                          i_value=volume / (L * L * FOUR_PI))


def common_period(report, spread_tol=SPREAD_TOL):
    """Extract L = (common period) / 2 pi from a sweep report.

    Returns (L, uncertainty) with uncertainty = spread / 2 pi.  Raises
    ZollCertificationError when the measured periods disagree by more than
    spread_tol: the surface is then not certified to have a common period.
    """
    if report.spread >= spread_tol:
        raise ZollCertificationError(
            f"period spread {report.spread:.3e} >= {spread_tol:g}; "
            "no common period certificate")
    return report.mean / TWO_PI, report.spread / TWO_PI


@dataclass(frozen=True)
class DiscretenessVerdict:
    passed: bool
    integer: int
    value: float  # 2 / L^2 as measured


def discreteness_check(volume, L, tol=INTEGER_TOL):
    """For a volume-4 pi surface, check the Weinstein constraint 2/L^2 in Z.

    The admissible period parameters form a discrete set; a generic L fails.
    At volume 4 pi, i = 1/L^2, so 2/L^2 in Z means 2i in Z: a weaker test
    than i in Z, which accepts L = sqrt 2 (i = 1/2) although the theorem
    excludes it.  ``weinstein_integer`` gives i itself.
    """
    if abs(volume - FOUR_PI) >= 1e-6:
        raise ValueError(
            f"volume {volume:.8f} is not normalized to 4*pi; rescale first")
    if L <= 0.0:
        raise ValueError("L must be positive")
    val = 2.0 / (L * L)
    nearest = int(round(val))
    return DiscretenessVerdict(passed=abs(val - nearest) < tol and nearest > 0,
                               integer=nearest, value=val)
