"""Normalized Ricci flow on axisymmetric conformal profiles.

In the gauge g = e^{2u(theta, t)} g_round the area-normalized flow
dg/dt = -2 (K - Kbar) g becomes the scalar parabolic equation

    du/dt = Kbar - K,      K = e^{-2u} (1 - lap0 u),

with lap0 the round Laplacian acting on axisymmetric functions.  Steps are
explicit Euler under the diffusive bound dt <= factor * h^2 * min(e^{2u});
every step renormalizes the area back to 4 pi (the continuum flow preserves
it, the discretization drifts) and, for symmetric data, re-pins the
reflection symmetry about the equator.

The equator length l(t) = 2 pi e^{u(pi/2, t)} and its first variation
l'(0) = -2 pi (K_eq - Kbar) are the quantities the rest of the package cares
about.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import FlowInstabilityError
from .profile import (FOUR_PI, SYMMETRY_TOL, ConformalProfile, conformal_grid,
                      curvature_arclength)

STABILITY_FACTOR = 0.4
MAX_STEPS = 50_000_000  # flow steps per checkpoint interval
TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class FlowState:
    """Flow snapshot: conformal profile, time stamp, diagnostics."""

    profile: ConformalProfile
    t: float
    area: float
    k_bar: float
    k_min: float
    k_max: float

    @property
    def max_abs_k_minus_1(self):
        return max(abs(self.k_min - 1.0), abs(self.k_max - 1.0))

    def equator_length(self):
        return TWO_PI * np.exp(self.profile.u_equator())


def make_state(profile, t=0.0):
    """Wrap a profile with freshly computed diagnostics."""
    sin_t, cot_t, w = conformal_grid(profile.n_nodes)
    K = _kernels.curvature_grid(profile.u, profile.h, cot_t)
    g = w * np.exp(2.0 * profile.u) * sin_t
    area = TWO_PI * float(g.sum())
    k_bar = float(np.dot(g, K) / g.sum())
    return FlowState(profile=profile, t=t, area=area, k_bar=k_bar,
                     k_min=float(K.min()), k_max=float(K.max()))


def stability_dt(profile):
    """Largest explicit step the diffusive bound allows for this profile."""
    return (STABILITY_FACTOR * profile.h ** 2
            * float(np.exp(2.0 * profile.u).min()))


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
    sin_t, cot_t, w = conformal_grid(c.n_nodes)
    K = _kernels.curvature_grid(c.u, c.h, cot_t)
    g = w * np.exp(2.0 * c.u) * sin_t
    k_bar = np.dot(g, K) / g.sum()
    c.u += dt * (k_bar - K)
    if state.profile.symmetry_defect() < SYMMETRY_TOL:
        c.u = 0.5 * (c.u + c.u[::-1])
    area = TWO_PI * float(np.dot(w, np.exp(2.0 * c.u) * sin_t))
    if not np.isfinite(area) or area <= 0.0:
        raise FlowInstabilityError("non-finite state after step", state=state)
    c.u -= 0.5 * np.log(area / FOUR_PI)
    return make_state(c, state.t + dt)


def evolve(initial, T, checkpoint_every=None, dt_cap=0.0,
           stability_factor=STABILITY_FACTOR):
    """Run the flow to horizon T, returning checkpoints plus the final state.

    Stepping between checkpoints happens in one ``flow_kernel`` call with the
    automatic stable dt (optionally capped by dt_cap).  Deterministic for a
    fixed grid and dt policy.  If the state goes non-finite, the
    FlowInstabilityError carries the last checkpoint; if one checkpoint
    interval needs more than MAX_STEPS steps, it carries the state reached.
    """
    if T <= 0.0:
        raise ValueError("horizon T must be positive")
    if checkpoint_every is None or checkpoint_every <= 0.0:
        checkpoint_every = T
    c = initial.profile.copy()
    sin_t, cot_t, w = conformal_grid(c.n_nodes)
    symmetrize = 1 if initial.profile.symmetry_defect() < SYMMETRY_TOL else 0

    states = [make_state(c.copy(), initial.t)]
    t = initial.t
    t_end = initial.t + T
    while t < t_end - 1e-15 * max(1.0, t_end):
        target = min(t + checkpoint_every, t_end)
        status, t, _steps = _kernels.flow_kernel(
            c.u, c.h, sin_t, cot_t, w, t, target, dt_cap,
            stability_factor, symmetrize, MAX_STEPS)
        if status == _kernels.ERR_NAN:
            raise FlowInstabilityError(
                f"flow state went non-finite by t = {t:g}", state=states[-1])
        if status == _kernels.ERR_MAX_STEPS:
            raise FlowInstabilityError("flow step budget exhausted",
                                       state=make_state(c, t))
        states.append(make_state(c.copy(), t))
    return states


def equator_length_series(checkpoints):
    """(t, l(t)) per checkpoint, l = 2 pi e^{u at the equator}."""
    return [(st.t, st.equator_length()) for st in checkpoints]


def lprime_analytic(p):
    """First variation of the equator length under the normalized flow.

    l'(0) = -integral of (K - Kbar) ds over the equator geodesic
          = -l0 (K_eq - Kbar),  l0 = 2 pi rho_eq,

    since rotational symmetry makes K constant along the parallel (no
    quadrature over the curve needed).  Kbar = 4 pi / area by Gauss-Bonnet.
    For a unit-equator surface (rho_eq = 1) this is -2 pi (K_eq - Kbar).
    """
    s_eq, rho_eq = p.equator()
    k_eq = float(curvature_arclength(p, s_eq))
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
    slopes are polynomial-extrapolated to dt = 0 (Neville).  With fewer than
    two horizons, or when the extrapolation residuals fail to shrink
    monotonically, the result comes back flagged: value still reported,
    trust it only at the quoted residual.
    """
    dts = sorted(float(d) for d in dt_list)
    if not dts:
        raise ValueError("dt_list must be non-empty")
    l0 = initial.equator_length()
    slopes = []
    for dt in dts:
        final = evolve(initial, dt)[-1]
        slopes.append((final.equator_length() - l0) / dt)

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
    flagged = any(residuals[i + 1] > residuals[i]
                  for i in range(len(residuals) - 1))
    return LprimeResult(value=float(diag[-1]), residual=float(residuals[-1]),
                        flagged=flagged, slopes=tuple(slopes))
