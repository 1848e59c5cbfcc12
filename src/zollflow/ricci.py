"""Normalized Ricci flow on axisymmetric conformal profiles.

In the gauge g = e^{2u(theta, t)} g_round the area-normalized flow
dg/dt = -2 (K - Kbar) g becomes the scalar parabolic equation

    du/dt = Kbar - K,      K = e^{-2u} (1 - lap0 u),

with lap0 the round Laplacian acting on axisymmetric functions.  ``evolve``
steps it with a linearly implicit BDF3 scheme on the finite-difference
grid, one tridiagonal solve per step (``_kernels.flow_kernel``; each
checkpoint interval starts with an extrapolated BDF1 step and a BDF2
step).  It has no stability bound, so the step is DT_PER_H * h, and the
step count grows like 1/h instead of 1/h^2; the time error falls like
dt^3, so like h^3.  ``flow_step``,
one explicit Euler step under the diffusive bound dt <= factor * h^2 *
min(e^{2u}), is the independent reference the kernel is tested against.
Every step renormalizes the area back to 4 pi (the continuum flow preserves
it, the discretization drifts).  Reflection-symmetric data (symmetry
measured against SYMMETRY_TOL) is made exactly symmetric once and stepped
on the half grid up to the equator; other data steps the whole grid.

The equator length l(t) = 2 pi max(e^u sin theta) (``FlowState.rho_max``)
and its first variation l'(0) = -l0 (K_eq - Kbar) are the quantities the
rest of the package cares about.
"""

import collections
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import FlowInstabilityError
from .profile import (FOUR_PI, SYMMETRY_TOL, TWO_PI, ConformalProfile,
                      conformal_curvature, conformal_grid,
                      curvature_arclength)

STABILITY_FACTOR = 0.4  # explicit step: factor * h^2 * min e^{2u}
# evolve's BDF3 step: at most DT_PER_H * h, and at least MIN_STEPS steps
# per checkpoint interval, so the time error falls like h^3 while the step
# count grows like 1/h
DT_PER_H = 1.0 / 10.0
MIN_STEPS = 16
MAX_STEPS = 50_000_000  # flow steps per checkpoint interval
# rounding floor of lprime_numeric's residuals, in ulps of l(0) over the
# shortest horizon (Neville on three halving horizons amplifies a slope's
# 2-ulp rounding error about sevenfold)
LPRIME_FLOOR_ULPS = 64


@dataclass(frozen=True)
class FlowState:
    """Flow snapshot: conformal profile, time stamp, diagnostics."""

    profile: ConformalProfile
    t: float
    area: float
    k_bar: float
    max_abs_k_minus_1: float
    rho_max: float  # radius of the maximal parallel

    def equator_length(self):
        return TWO_PI * self.rho_max


def _area_curvature(profile):
    """(area, Kbar, K): the area of a conformal profile, its curvature K
    at every node (``conformal_curvature``) and K's area average."""
    e = conformal_grid(profile.n_nodes).ws * np.exp(2.0 * profile.u)
    K = conformal_curvature(profile)
    total = e.sum()
    return TWO_PI * float(total), float(np.dot(e, K) / total), K


def make_state(profile, t=0.0):
    """Wrap a profile with freshly computed diagnostics."""
    area, k_bar, K = _area_curvature(profile)
    return FlowState(profile=profile, t=t, area=area, k_bar=k_bar,
                     max_abs_k_minus_1=float(np.max(np.abs(K - 1.0))),
                     rho_max=profile.equator()[1])


def stability_dt(profile):
    """Largest explicit step the diffusive bound allows for this profile."""
    return (STABILITY_FACTOR * profile.h ** 2
            * float(np.exp(2.0 * profile.u).min()))


def flow_dt(profile):
    """Longest step ``evolve`` takes on this profile's grid."""
    return DT_PER_H * profile.h


def flow_step(state, dt):
    """One explicit Euler step of du/dt = Kbar - K.

    Renormalizes the area to 4 pi afterwards and, for symmetric input,
    symmetrizes u exactly.  Raises FlowInstabilityError (with the offending
    state attached) if dt violates the stability bound or the update goes
    non-finite.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    bound = stability_dt(state.profile)
    if dt > bound * (1.0 + 1e-12):
        raise FlowInstabilityError(
            f"dt = {dt:g} exceeds the stability bound {bound:g}", state=state)
    c = state.profile.copy()
    _, k_bar, K = _area_curvature(c)
    c.u += dt * (k_bar - K)
    if state.profile.symmetry_defect() < SYMMETRY_TOL:
        c.u = 0.5 * (c.u + c.u[::-1])
    area = _area_curvature(c)[0]
    if not np.isfinite(area) or area <= 0.0:
        raise FlowInstabilityError("non-finite state after step", state=state)
    c.u -= 0.5 * np.log(area / FOUR_PI)
    return make_state(c, state.t + dt)


FlowGrid = collections.namedtuple("FlowGrid", "m ws a b ab")


@functools.lru_cache(maxsize=None)
def flow_grid(n_nodes, symmetric):
    """``flow_kernel``'s read-only grid, built once per grid: the m nodes
    it steps with their area weights ws and ``conformal_grid``'s lap0
    stencil (a, b), with ab = a + b.  Symmetric data steps the half grid
    0 .. ceil(n/2) - 1, onto which this folds the record: the weights of
    mirrored nodes are summed, and the equator row mirrors u[m] = u[m-2]
    for odd n_nodes (weighing that node once) and u[m] = u[m-1] for even.
    """
    record = conformal_grid(n_nodes)
    m, ws, a, b = n_nodes, record.ws, record.a, record.b
    if symmetric:
        m = (n_nodes + 1) // 2
        ws = ws[:m] + ws[::-1][:m]
        a, b = a[:m].copy(), b[:m].copy()
        if n_nodes % 2 == 1:
            ws[-1] *= 0.5
            b[-1] += a[-1]
        a[-1] = 0.0
    grid = FlowGrid(m, ws, a, b, a + b)
    for x in grid[1:]:
        x.flags.writeable = False
    return grid


def evolve(initial, T, checkpoint_every=None, dt_cap=0.0):
    """Run the flow to horizon T, returning checkpoints plus the final state.

    Stepping between checkpoints happens in one ``flow_kernel`` call of
    equal steps (BDF3 after a two-step start), at most ``flow_dt`` long and
    at most dt_cap when that is positive, and at least MIN_STEPS of them.
    The first state is the initial one renormalized to area 4 pi, the
    state every step starts from.  Deterministic for a fixed grid and dt
    policy.  If the state goes non-finite, or one checkpoint
    interval needs more than MAX_STEPS steps, the FlowInstabilityError
    carries the last checkpoint (none for a non-finite initial state).
    ValueError, before any work, unless T is positive, finite and moves
    initial.t, or if checkpoint_every or dt_cap is NaN.
    """
    t = initial.t
    t_end = initial.t + T
    if not t < t_end < math.inf:
        raise ValueError(f"horizon T = {T} must be positive, finite and "
                         f"above the rounding of the start time {t}")
    for name, value in (("checkpoint_every", checkpoint_every),
                        ("dt_cap", dt_cap)):
        if value is not None and math.isnan(value):
            raise ValueError(f"{name} must not be NaN")
    if checkpoint_every is None or checkpoint_every <= 0.0:
        checkpoint_every = T
    c = initial.profile.copy()
    grid = flow_grid(c.n_nodes, c.symmetry_defect() < SYMMETRY_TOL)
    dt_max = flow_dt(c)
    if dt_cap > 0.0:
        dt_max = min(dt_max, dt_cap)

    _kernels.flow_kernel(c.u, grid, 0.0, 0)
    states = [make_state(c.copy(), t)]
    # what is left below a billionth of a checkpoint interval is rounding
    while t_end - t > 1e-9 * min(T, checkpoint_every):
        target = min(t + checkpoint_every, t_end)
        # a ratio within rounding of an integer takes that many steps
        n_steps = max(MIN_STEPS, math.ceil((target - t) / dt_max - 1e-9))
        if n_steps > MAX_STEPS:
            raise FlowInstabilityError(
                f"flow step budget exhausted: {n_steps} steps to "
                f"t = {target:g}", state=states[-1])
        try:
            _kernels.flow_kernel(c.u, grid, (target - t) / n_steps, n_steps)
        except FlowInstabilityError:
            raise FlowInstabilityError(
                f"flow state went non-finite by t = {target:g}",
                state=states[-1]) from None
        t = target
        states.append(make_state(c.copy(), t))
    return states


def lprime_analytic(p):
    """First variation of the equator length under the normalized flow.

    l'(0) = -integral of (K - Kbar) ds over the equator geodesic
          = -l0 (K_eq - Kbar),  l0 = 2 pi rho_eq,

    since rotational symmetry makes K constant along the parallel (no
    quadrature over the curve needed).  Kbar = 4 pi / area by Gauss-Bonnet.
    For a unit-equator surface (rho_eq = 1) this is -2 pi (K_eq - Kbar).
    """
    s_eq, rho_eq = p.equator()
    k_eq = curvature_arclength(p, s_eq)
    k_bar = FOUR_PI / p.area()
    return -TWO_PI * rho_eq * (k_eq - k_bar)


@dataclass(frozen=True)
class LprimeResult:
    value: float
    residual: float
    flagged: bool
    slopes: tuple


def lprime_numeric(initial, dt_list):
    """Finite-difference slope of l(t) at t = 0, Richardson extrapolated.

    Each dt in dt_list is a horizon: the flow runs to time dt (with internal
    stable stepping) and gives the forward slope (l(dt) - l(0)) / dt.  The
    slopes are polynomial-extrapolated to dt = 0 (Neville), so the
    horizons must be distinct, positive and finite (ValueError, before any
    flow runs, otherwise).  With fewer than
    two horizons, or when the extrapolation residuals fail to shrink
    monotonically, the result comes back flagged: value still reported,
    trust it only at the quoted residual.  Residuals below the slopes'
    rounding floor, LPRIME_FLOOR_ULPS ulps of l(0) over the shortest
    horizon, show no trend and flag nothing: a flow that keeps l to
    rounding (the round sphere) has slopes of pure rounding noise.
    """
    dts = sorted(float(d) for d in dt_list)
    if not dts:
        raise ValueError("dt_list must be non-empty")
    if not all(0.0 < d < math.inf for d in dts) or len(set(dts)) < len(dts):
        raise ValueError(f"horizons {dts} must be distinct, positive and "
                         "finite")
    n_steps = max(MIN_STEPS, math.ceil(dts[-1] / flow_dt(initial.profile)))
    runs = [evolve(initial, dt, dt_cap=dt / n_steps) for dt in dts]
    # l0 after the area renormalization every flow starts with, so that
    # the slopes measure the flow and not the grid's area error
    l0 = runs[0][0].equator_length()
    slopes = [(run[-1].equator_length() - l0) / dt
              for run, dt in zip(runs, dts)]

    if len(dts) == 1:
        return LprimeResult(value=slopes[0], residual=abs(slopes[0]),
                            flagged=True, slopes=tuple(slopes))

    # Neville tableau in the variable dt, evaluated at 0
    x = np.array(dts)
    tab = np.array(slopes)
    diag = [tab[0]]
    for level in range(1, len(dts)):
        tab = ((x[level:] * tab[:-1] - x[:len(x) - level] * tab[1:])
               / (x[level:] - x[:len(x) - level]))
        diag.append(tab[0])
    residuals = [abs(diag[i + 1] - diag[i]) for i in range(len(diag) - 1)]
    floor = LPRIME_FLOOR_ULPS * math.ulp(l0) / dts[0]
    flagged = float(residuals[-1]) > floor and any(
        residuals[i + 1] > residuals[i] for i in range(len(residuals) - 1))
    return LprimeResult(value=float(diag[-1]), residual=float(residuals[-1]),
                        flagged=flagged, slopes=tuple(slopes))
