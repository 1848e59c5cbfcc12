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
    """Evaluated invariant: i = volume / (L^2 * 4 pi)."""

    volume: float
    L: float
    i_value: float

    @property
    def nearest(self):
        return int(round(self.i_value))

    @property
    def residual(self):
        return abs(self.i_value - round(self.i_value))


def weinstein_integer(volume, L):
    """Evaluate i = vol / (L^n * vol(S^n)) at n = 2, that is
    vol / (L^2 * 4 pi): the package measures surfaces only."""
    if volume <= 0.0 or L <= 0.0:
        raise ValueError("volume and L must be positive")
    return WeinsteinDatum(volume=volume, L=L,
                          i_value=volume / (L * L * FOUR_PI))


def common_period(report):
    """Extract L = (common period) / 2 pi from a sweep report.

    Returns (L, uncertainty) with uncertainty = spread / 2 pi.  Raises
    ZollCertificationError when the periods disagree by SPREAD_TOL or more,
    or when an entry did not close to tolerance: the package's one Zoll
    verdict rule.
    """
    if report.spread >= SPREAD_TOL:
        raise ZollCertificationError(
            f"period spread {report.spread:.3e} >= {SPREAD_TOL:g}; "
            "no common period certificate")
    if not report.all_converged:
        raise ZollCertificationError("a geodesic did not close to "
                                     "tolerance; no common period certificate")
    return report.mean / TWO_PI, report.spread / TWO_PI


@dataclass(frozen=True)
class DiscretenessVerdict:
    passed: bool
    integer: int
    value: float  # 2 / L^2 as measured


def discreteness_check(volume, L):
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
    return DiscretenessVerdict(passed=abs(val - nearest) < INTEGER_TOL
                               and nearest > 0,
                               integer=nearest, value=val)
