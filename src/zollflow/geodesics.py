"""Geodesic integration, period measurement, and common-period sweeps.

All trajectories run in the arc-length gauge through the one adaptive
march in ``_kernels``.  Period measurement marches one latitude
oscillation: from the starting parallel s = s0 (the Poincare section) to
the first step that carries s upward through it again, refined by
bisection within that step.  Every later return follows in closed form.
By the Clairaut relation rho(s) sin(psi) = const, and with ds/dtau > 0 at
the section, a return repeats the starting heading; the flow commutes with
rotation in phi, so return n sits at tau = n tau1 with longitude
phi0 + n (phi1 - phi0) (Besse 1978, ch. 4).  Closure thus only hinges on
the accumulated longitude being a multiple of 2 pi.  The meridian (c = 0)
and the equator itself close in closed form (lengths 2 S and 2 pi rho_max)
and are handled without integration.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NoClosureError, NumericalAbort
from .profile import TWO_PI

DEFAULT_TOL = 1e-10     # DP5 error per unit length
CLOSURE_TOL = 1e-6      # closure distance at which a return is the period
DEFAULT_HORIZON = 8.0 * TWO_PI
CLAIRAUT_CAP = 0.95
MAX_STEPS = 4_000_000  # attempted steps per march before NumericalAbort
MAX_RETURNS = 16       # section returns find_period examines


@dataclass(frozen=True)
class GeodesicState:
    """Point of a unit-speed geodesic: arc position, longitude, heading."""

    s: float
    phi: float
    psi: float
    tau: float = 0.0


@dataclass(frozen=True)
class PeriodEntry:
    clairaut_c: float
    period: float
    closure_error: float
    converged: bool


@dataclass
class PeriodReport:
    """Result of a common-period sweep over Clairaut constants."""

    entries: list

    @property
    def periods(self):
        return np.array([e.period for e in self.entries])

    @property
    def min(self):
        return float(self.periods.min())

    @property
    def max(self):
        return float(self.periods.max())

    @property
    def spread(self):
        return self.max - self.min

    @property
    def mean(self):
        return float(self.periods.mean())

    @property
    def all_converged(self):
        return all(e.converged for e in self.entries)

    def to_csv_rows(self):
        return [(e.clairaut_c, e.period, e.closure_error) for e in self.entries]


def _march(p, init, length, tol, context, section=None):
    """``integrate_kernel``'s record from init, aborts prefixed by context."""
    try:
        return _kernels.integrate_kernel(
            *p.grid_lists(), init.s, init.phi, init.psi, length, tol,
            MAX_STEPS, section)
    except NumericalAbort as e:
        raise NumericalAbort(f"{context}: {e}") from None


def integrate(p, init, length, tol=DEFAULT_TOL):
    """Integrate a geodesic for a fixed arc length.

    Returns the trajectory as a list of GeodesicState at the accepted steps,
    ending exactly at tau = length.
    """
    if p.rho(init.s) <= 0.0:
        raise ValueError("initial point must lie off the poles")
    tau, s, phi, psi, _dt = _march(p, init, length, tol, "integrate")
    return [GeodesicState(s=s[i], phi=phi[i], psi=psi[i], tau=tau[i])
            for i in range(len(tau))]


def _wrap_angle(x):
    """Wrap to (-pi, pi]."""
    return (x + np.pi) % TWO_PI - np.pi


def closure_distance(rho, a, b):
    """State distance |ds| + rho |dphi mod 2pi| + |dpsi|, with rho the
    profile's rho at a.s."""
    return (abs(a.s - b.s) + rho * abs(_wrap_angle(a.phi - b.phi))
            + abs(_wrap_angle(a.psi - b.psi)))


def find_period(p, init, horizon=DEFAULT_HORIZON):
    """Smallest return time of a geodesic to its initial state.

    The march stops at the first upward crossing of the section s = init.s,
    which is refined to the first return (tau1, phi1, psi1).  Return n is
    then (s0, phi1 + (n - 1)(phi1 - phi0), psi1) at tau = n tau1 (see the
    module docstring); the candidates are n = 1 .. MAX_RETURNS with
    n tau1 <= horizon, and the first one with closure distance <=
    CLOSURE_TOL is the period.  If no candidate closes to tolerance, the
    one with the smallest closure distance is returned with converged=False
    (on a surface with non-closing geodesics this measures the
    latitude-oscillation quasi-period).  Raises NoClosureError if the
    section is not re-crossed within the horizon, NumericalAbort if the
    march failed before the first return.
    """
    if np.cos(init.psi) <= 1e-12:
        raise ValueError("initial heading must have ds/dtau > 0 off the "
                         "equator; use the closed-form equator period instead")
    traj = _march(p, init, horizon, DEFAULT_TOL, "find_period", init.s)
    s = traj[1]
    # the march stops at the first return, or at the horizon without one
    if not (len(s) > 1 and s[-2] < init.s <= s[-1]):
        raise NoClosureError(f"no section return within horizon {horizon}")
    args = p.grid_lists()
    tau1, s1, phi1, psi1 = _kernels.section_crossing(
        *args, traj, len(traj[0]) - 2, init.s)
    # rho at the section, bitwise float(p.rho(init.s))
    rho0 = _kernels.hermite_eval(float(init.s), *args[:3])
    c = rho0 * np.sin(init.psi)
    dphi = phi1 - init.phi
    best = None
    for n in range(1, MAX_RETURNS + 1):
        if n > 1 and n * tau1 > horizon:
            break
        cand = GeodesicState(s=s1, phi=phi1 + (n - 1) * dphi, psi=psi1,
                             tau=n * tau1)
        d = closure_distance(rho0, init, cand)
        if d <= CLOSURE_TOL:
            return PeriodEntry(clairaut_c=c, period=cand.tau,
                               closure_error=d, converged=True)
        if best is None or d < best[1]:
            best = (cand, d)
    cand, d = best
    return PeriodEntry(clairaut_c=c, period=cand.tau, closure_error=d,
                       converged=False)


def _sweep_entry(p, s0, rho_max, c, horizon):
    psi0 = np.arcsin(min(c / rho_max, 1.0))
    init = GeodesicState(s=s0, phi=0.0, psi=psi0)
    # called through the module global: the traced benchmark
    # (perfbench/spans.py) wraps geodesics.find_period
    return find_period(p, init, horizon=horizon)


def zoll_sweep(p, n_samples=32, horizon=DEFAULT_HORIZON):
    """Measure geodesic periods across Clairaut constants.

    Samples c uniformly in [0, 0.95 rho_max] starting from the maximal
    parallel, plus the equator itself (closed form 2 pi rho_max).  The
    meridian entry (c = 0) is the closed pole-to-pole geodesic of length 2 S.
    Entry count is n_samples.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    s0, rho_max = p.equator()
    cs = np.linspace(0.0, CLAIRAUT_CAP * rho_max, n_samples - 1)

    entries = [PeriodEntry(clairaut_c=0.0, period=2.0 * p.total_length,
                           closure_error=0.0, converged=True)]
    # the entries share one build of the step loops' lists; free their 3n
    # floats (0.4 MB, about 0.1 ms at 4097 nodes) with the sweep, also when
    # an entry raises, not with the profile
    try:
        entries.extend(_sweep_entry(p, s0, rho_max, float(c), horizon)
                       for c in cs[1:])
    finally:
        p.drop_grid_lists()

    entries.append(PeriodEntry(clairaut_c=rho_max, period=TWO_PI * rho_max,
                               closure_error=0.0, converged=True))
    entries.sort(key=lambda e: e.clairaut_c)
    return PeriodReport(entries=entries)
