"""Geodesic integration, period measurement, and common-period sweeps.

All trajectories run in the arc-length gauge through the one adaptive
march in ``_kernels``.  Period measurement marches to the horizon and reads
the returns off the recorded trajectory: upward crossings of the Poincare
section s = s0 (the starting parallel), each refined by bisection within
its step.  By the Clairaut relation
rho(s) sin(psi) = const, a trajectory returning through its starting
parallel with the same sign of ds/dtau automatically repeats its heading, so
closure only hinges on the accumulated longitude being a multiple of 2 pi.
The meridian (c = 0) and the equator itself close in closed form (lengths
2 S and 2 pi rho_max) and are handled without integration.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import NoClosureError, NumericalAbort

TWO_PI = 2.0 * np.pi
DEFAULT_TOL = 1e-10
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

    def clairaut(self, p):
        return float(p.rho(self.s)) * np.sin(self.psi)


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


def _kernel_args(p):
    return p.h, p.rho_grid, p.drho_grid, p.d2rho_grid


def _raise_for_status(status, context):
    if status == _kernels.ERR_POLE:
        raise NumericalAbort(
            f"{context}: step hit rho <= 0 (pole chart breakdown)")
    if status == _kernels.ERR_DT_UNDERFLOW:
        raise NumericalAbort(f"{context}: step-size underflow near a pole")
    if status == _kernels.ERR_MAX_STEPS:
        raise NumericalAbort(f"{context}: step budget exhausted")


def _march(p, init, length, tol):
    return _kernels.integrate_kernel(
        *_kernel_args(p), init.s, init.phi, init.psi, length, tol, MAX_STEPS)


def integrate(p, init, length, tol=DEFAULT_TOL):
    """Integrate a geodesic for a fixed arc length.

    Returns the trajectory as a list of GeodesicState at the accepted steps,
    ending exactly at tau = length.
    """
    if p.rho(init.s) <= 0.0:
        raise ValueError("initial point must lie off the poles")
    status, (tau, s, phi, psi, _dt) = _march(p, init, length, tol)
    _raise_for_status(status, "integrate")
    return [GeodesicState(s=s[i], phi=phi[i], psi=psi[i], tau=tau[i])
            for i in range(len(tau))]


def _wrap_angle(x):
    """Wrap to (-pi, pi]."""
    return (x + np.pi) % TWO_PI - np.pi


def closure_distance(p, a, b):
    """State distance |ds| + rho |dphi mod 2pi| + |dpsi|."""
    rho = float(p.rho(a.s))
    return (abs(a.s - b.s) + rho * abs(_wrap_angle(a.phi - b.phi))
            + abs(_wrap_angle(a.psi - b.psi)))


def find_period(p, init, tol=1e-6, integrator_tol=DEFAULT_TOL,
                horizon=DEFAULT_HORIZON):
    """Smallest return time of a geodesic to its initial state.

    The first MAX_RETURNS upward section crossings within the horizon are
    candidate returns; the first one with closure distance <= tol is the
    period.  If no candidate closes to tolerance, the crossing with the
    smallest closure distance is returned with converged=False (on a
    surface with non-closing geodesics this measures the
    latitude-oscillation quasi-period).  Returns found before a failed march
    still count.  Raises NoClosureError if the section is never re-crossed
    within the horizon, NumericalAbort if the march failed before a return.
    """
    if np.cos(init.psi) <= 1e-12:
        raise ValueError("initial heading must have ds/dtau > 0 off the "
                         "equator; use the closed-form equator period instead")
    status, traj = _march(p, init, horizon, integrator_tol)
    s = traj[1]
    steps = np.flatnonzero((s[:-1] < init.s) & (s[1:] >= init.s))
    if steps.size == 0:
        _raise_for_status(status, "find_period")
        raise NoClosureError(f"no section return within horizon {horizon}")
    best = None
    for i in steps[:MAX_RETURNS]:
        tau, cs, cphi, cpsi = _kernels.section_crossing(
            *_kernel_args(p), traj, i, init.s)
        cand = GeodesicState(s=cs, phi=cphi, psi=cpsi, tau=tau)
        d = closure_distance(p, init, cand)
        if d <= tol:
            return PeriodEntry(clairaut_c=init.clairaut(p), period=cand.tau,
                               closure_error=d, converged=True)
        if best is None or d < best[1]:
            best = (cand, d)
    cand, d = best
    return PeriodEntry(clairaut_c=init.clairaut(p), period=cand.tau,
                       closure_error=d, converged=False)


def _sweep_entry(p, s0, rho_max, c, tol, integrator_tol, horizon):
    psi0 = np.arcsin(min(c / rho_max, 1.0))
    init = GeodesicState(s=s0, phi=0.0, psi=psi0)
    # called through the module global: the traced benchmark
    # (perfbench/spans.py) wraps geodesics.find_period
    return find_period(p, init, tol=tol, integrator_tol=integrator_tol,
                       horizon=horizon)


def zoll_sweep(p, n_samples=32, tol=1e-6, integrator_tol=DEFAULT_TOL,
               horizon=DEFAULT_HORIZON):
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
    entries.extend(_sweep_entry(p, s0, rho_max, float(c), tol,
                                integrator_tol, horizon) for c in cs[1:])

    entries.append(PeriodEntry(clairaut_c=rho_max, period=TWO_PI * rho_max,
                               closure_error=0.0, converged=True))
    entries.sort(key=lambda e: e.clairaut_c)
    return PeriodReport(entries=entries)
