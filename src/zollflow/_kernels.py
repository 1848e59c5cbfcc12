"""Hot numeric kernels: geodesic stepping and the implicit flow.

The geodesic kernels are scalar loops, since their cost is per step.  The
flow kernel is vectorized over the theta grid, or over its half up to the
equator for reflection-symmetric data; a flow step is one LAPACK
tridiagonal solve and about a dozen numpy calls, whose dispatch costs as
much as their arithmetic at the grid sizes used.

Geodesics on an axisymmetric metric ds^2 + rho(s)^2 dphi^2 are integrated in
the state (s, phi, psi) with psi the heading measured from the meridian
direction:

    ds/dtau   = cos(psi)
    dphi/dtau = sin(psi) / rho(s)
    dpsi/dtau = -(rho'(s)/rho(s)) sin(psi)

which conserves the Clairaut invariant rho(s) sin(psi).  The profile rho is
supplied as value/derivative samples on a uniform s-grid and evaluated with
cubic Hermite interpolation.  The integrator is an adaptive Dormand-Prince
5(4) pair with error-per-unit-length control, so accumulated drift over a
trajectory of length ell stays of order tol * ell.  The pair is
first-same-as-last (Dormand & Prince 1980): a step's seventh stage is the
next step's first, so an attempt evaluates six right-hand sides.
``integrate_kernel`` is the one adaptive march: it records every accepted
step and, given a section, stops at the first step that carries s upward
through it; that crossing is refined by ``section_crossing``.  Both loops
run on Python floats: the grids come as lists (``ProfileMetric.grid_lists``,
built once per profile) and the record is kept in lists, since arithmetic
on numpy scalars costs several times as much.
"""

import math

import numpy as np
from scipy.linalg.lapack import dgtsv as _dgtsv

# status codes shared by the kernels
OK = 0
ERR_POLE = 1          # rho <= 0 encountered with nonzero angular momentum
ERR_MAX_STEPS = 2
ERR_DT_UNDERFLOW = 3
ERR_NAN = 4
SECTION = 5           # the march stopped at its first return to the section

def hermite_eval(x, h, values, derivs):
    """Cubic Hermite interpolation on a uniform grid starting at 0.

    Scalar form for the step loop, where values and derivs are Python
    lists; ``hermite_vec`` is the array form and must agree with it bitwise.
    Points off the grid use the nearest end cell's cubic.
    """
    n = len(values)
    i = int(x / h)
    if i < 0:
        i = 0
    if i > n - 2:
        i = n - 2
    t = (x - i * h) / h
    t2 = t * t
    t3 = t2 * t
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h10 = t3 - 2.0 * t2 + t
    h01 = -2.0 * t3 + 3.0 * t2
    h11 = t3 - t2
    return (h00 * values[i] + h01 * values[i + 1]
            + h * (h10 * derivs[i] + h11 * derivs[i + 1]))


def hermite_cell(t, h, y0, y1, d0, d1):
    """The cubic of a cell of width h with end values y0, y1 and end slopes
    d0, d1, at the fraction t of the cell: the one array form of the
    Hermite rule, for uniform grids and for the knots of ``Spline``."""
    t2 = t * t
    t3 = t2 * t
    return ((2 * t3 - 3 * t2 + 1) * y0 + (-2 * t3 + 3 * t2) * y1
            + h * ((t3 - 2 * t2 + t) * d0 + (t3 - t2) * d1))


def hermite_cell_integral(t, h, y0, y1, d0, d1):
    """Integral of the ``hermite_cell`` cubic over the first fraction t of
    its cell; the whole cell (t = 1) gives h (y0 + y1)/2 + h^2 (d0 - d1)/12."""
    t2 = t * t
    t3 = t2 * t
    t4 = t2 * t2
    return h * ((0.5 * t4 - t3 + t) * y0 + (t3 - 0.5 * t4) * y1
                + h * ((0.25 * t4 - t3 * (2.0 / 3.0) + 0.5 * t2) * d0
                       + (0.25 * t4 - t3 / 3.0) * d1))


def hermite_vec(x, h, values, derivs):
    """``hermite_eval`` at an array of points (profile queries)."""
    x = np.asarray(x, dtype=float)
    n = len(values)
    i = np.clip((x / h).astype(int), 0, n - 2)
    return hermite_cell((x - i * h) / h, h, values[i], values[i + 1],
                        derivs[i], derivs[i + 1])


def notaknot_slopes(x, y):
    """Knot slopes of the not-a-knot cubic spline through (x, y), n >= 4.

    The system is scipy's ``CubicSpline`` one, the tridiagonal
    continuity of the second derivative at the inner knots closed by
    continuity of the third at the second and the second-to-last knot, and
    it is built and solved (one ``dgtsv`` call) in the same floating-point
    operations, so the slopes equal scipy's bitwise.
    """
    dx = np.diff(x)
    slope = np.diff(y) / dx
    d0 = x[2] - x[0]
    d1 = x[-1] - x[-3]
    diag = np.empty(len(x))
    diag[0] = dx[1]
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    diag[-1] = dx[-2]
    sup = np.concatenate(([d0], dx[:-1]))
    sub = np.concatenate((dx[1:], [d1]))
    b = np.empty(len(x))
    b[0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[-1] = (dx[-1] ** 2 * slope[-2]
             + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    _, _, _, s, info = _dgtsv(sub, diag, sup, b, overwrite_dl=1,
                              overwrite_d=1, overwrite_du=1, overwrite_b=1)
    if info != 0:
        raise ValueError(f"spline system is singular (dgtsv info {info})")
    return s


def hermite_vec_slope(x, h, values, derivs):
    """x-derivative of the ``hermite_vec`` cubic; equals derivs at the nodes."""
    x = np.asarray(x, dtype=float)
    n = len(values)
    i = np.clip((x / h).astype(int), 0, n - 2)
    t = (x - i * h) / h
    t2 = t * t
    return (6 * (t2 - t) * (values[i] - values[i + 1]) / h
            + (3 * t2 - 4 * t + 1) * derivs[i] + (3 * t2 - 2 * t) * derivs[i + 1])


def _geo_rhs(s, psi, h, rho_a, drho_a, d2rho_a):
    rho = hermite_eval(s, h, rho_a, drho_a)
    if rho <= 0.0:
        return 0.0, 0.0, 0.0, False
    drho = hermite_eval(s, h, drho_a, d2rho_a)
    sp = math.sin(psi)
    return math.cos(psi), sp / rho, -(drho / rho) * sp, True


def _dp_step(s, phi, psi, dt, h, rho_a, drho_a, d2rho_a, k1):
    """One Dormand-Prince 5(4) step from a state whose right-hand side
    (``_geo_rhs``) is k1.

    Returns (ok, s5, phi5, psi5, es, ephi, epsi, k7) where the e* are the
    embedded error estimates of the step and k7 is the right-hand side at
    its end: the pair is first-same-as-last, so k7 is the next step's k1.
    """
    k1s, k1p, k1q, ok = k1
    if not ok:
        return False, s, phi, psi, 0.0, 0.0, 0.0, k1

    ys = s + dt * (0.2 * k1s)
    yq = psi + dt * (0.2 * k1q)
    k2s, k2p, k2q, ok = _geo_rhs(ys, yq, h, rho_a, drho_a, d2rho_a)
    if not ok:
        return False, s, phi, psi, 0.0, 0.0, 0.0, k1

    ys = s + dt * (3.0 / 40.0 * k1s + 9.0 / 40.0 * k2s)
    yq = psi + dt * (3.0 / 40.0 * k1q + 9.0 / 40.0 * k2q)
    k3s, k3p, k3q, ok = _geo_rhs(ys, yq, h, rho_a, drho_a, d2rho_a)
    if not ok:
        return False, s, phi, psi, 0.0, 0.0, 0.0, k1

    ys = s + dt * (44.0 / 45.0 * k1s - 56.0 / 15.0 * k2s + 32.0 / 9.0 * k3s)
    yq = psi + dt * (44.0 / 45.0 * k1q - 56.0 / 15.0 * k2q + 32.0 / 9.0 * k3q)
    k4s, k4p, k4q, ok = _geo_rhs(ys, yq, h, rho_a, drho_a, d2rho_a)
    if not ok:
        return False, s, phi, psi, 0.0, 0.0, 0.0, k1

    ys = s + dt * (19372.0 / 6561.0 * k1s - 25360.0 / 2187.0 * k2s
                   + 64448.0 / 6561.0 * k3s - 212.0 / 729.0 * k4s)
    yq = psi + dt * (19372.0 / 6561.0 * k1q - 25360.0 / 2187.0 * k2q
                     + 64448.0 / 6561.0 * k3q - 212.0 / 729.0 * k4q)
    k5s, k5p, k5q, ok = _geo_rhs(ys, yq, h, rho_a, drho_a, d2rho_a)
    if not ok:
        return False, s, phi, psi, 0.0, 0.0, 0.0, k1

    ys = s + dt * (9017.0 / 3168.0 * k1s - 355.0 / 33.0 * k2s
                   + 46732.0 / 5247.0 * k3s + 49.0 / 176.0 * k4s
                   - 5103.0 / 18656.0 * k5s)
    yq = psi + dt * (9017.0 / 3168.0 * k1q - 355.0 / 33.0 * k2q
                     + 46732.0 / 5247.0 * k3q + 49.0 / 176.0 * k4q
                     - 5103.0 / 18656.0 * k5q)
    k6s, k6p, k6q, ok = _geo_rhs(ys, yq, h, rho_a, drho_a, d2rho_a)
    if not ok:
        return False, s, phi, psi, 0.0, 0.0, 0.0, k1

    s5 = s + dt * (35.0 / 384.0 * k1s + 500.0 / 1113.0 * k3s
                   + 125.0 / 192.0 * k4s - 2187.0 / 6784.0 * k5s
                   + 11.0 / 84.0 * k6s)
    phi5 = phi + dt * (35.0 / 384.0 * k1p + 500.0 / 1113.0 * k3p
                       + 125.0 / 192.0 * k4p - 2187.0 / 6784.0 * k5p
                       + 11.0 / 84.0 * k6p)
    psi5 = psi + dt * (35.0 / 384.0 * k1q + 500.0 / 1113.0 * k3q
                       + 125.0 / 192.0 * k4q - 2187.0 / 6784.0 * k5q
                       + 11.0 / 84.0 * k6q)

    k7 = _geo_rhs(s5, psi5, h, rho_a, drho_a, d2rho_a)
    k7s, k7p, k7q, ok = k7
    if not ok:
        return False, s, phi, psi, 0.0, 0.0, 0.0, k1

    es = dt * (71.0 / 57600.0 * k1s - 71.0 / 16695.0 * k3s
               + 71.0 / 1920.0 * k4s - 17253.0 / 339200.0 * k5s
               + 22.0 / 525.0 * k6s - 1.0 / 40.0 * k7s)
    ep = dt * (71.0 / 57600.0 * k1p - 71.0 / 16695.0 * k3p
               + 71.0 / 1920.0 * k4p - 17253.0 / 339200.0 * k5p
               + 22.0 / 525.0 * k6p - 1.0 / 40.0 * k7p)
    eq = dt * (71.0 / 57600.0 * k1q - 71.0 / 16695.0 * k3q
               + 71.0 / 1920.0 * k4q - 17253.0 / 339200.0 * k5q
               + 22.0 / 525.0 * k6q - 1.0 / 40.0 * k7q)
    return True, s5, phi5, psi5, es, ep, eq, k7


def _err_ratio(tol, dt, s, phi, psi, s5, phi5, psi5, es, ep, eq):
    """Max scaled error divided by the error-per-unit-length budget tol*dt."""
    scs = tol * (1.0 + max(abs(s), abs(s5)))
    scp = tol * (1.0 + max(abs(phi), abs(phi5)))
    scq = tol * (1.0 + max(abs(psi), abs(psi5)))
    r = abs(es) / scs
    rp = abs(ep) / scp
    if rp > r:
        r = rp
    rq = abs(eq) / scq
    if rq > r:
        r = rq
    return r / dt


def _next_dt(q, dt):
    """Step size after a step with error ratio q (accepted when q <= 1):
    grow by at most 5 on acceptance, shrink by at most 5 on rejection."""
    if q <= 1.0:
        fac = 5.0 if q < 1e-10 else 0.9 * q ** -0.25
        if fac > 5.0:
            fac = 5.0
    else:
        fac = 0.9 * q ** -0.25
        if fac < 0.2:
            fac = 0.2
    return dt * fac


def integrate_kernel(h, rho_a, drho_a, d2rho_a, s0, phi0, psi0,
                     length, tol, max_steps, section=None):
    """Integrate a geodesic for a fixed arc length, recording each step.

    h is a float and the grids are lists (``ProfileMetric.grid_lists``).
    Returns (status, (tau, s, phi, psi, dt)), lists of floats: the states
    at tau = 0 and after every accepted step, and the size of each accepted
    step (one fewer entry).  The last step is clamped to end exactly at
    tau = length; on a failure the record stops at the last accepted step.
    With a section, the march stops with status SECTION after the first
    accepted step that carries s from below section to section or above:
    the first return to that parallel is then the record's last step.
    An accepted step passes its last stage on as the next step's first; a
    rejected one keeps its first stage.
    """
    s, phi, psi, length, tol = map(float, (s0, phi0, psi0, length, tol))
    tau = 0.0
    tau_l = [tau]
    s_l = [s]
    phi_l = [phi]
    psi_l = [psi]
    dt_l = []

    dt = min(0.01, length)
    dt_min = 1e-14 * (length + 1.0)
    status = OK
    k1 = _geo_rhs(s, psi, h, rho_a, drho_a, d2rho_a)
    for _ in range(max_steps):
        if tau >= length:
            break
        if dt > length - tau:
            dt = length - tau
        ok, s5, phi5, psi5, es, ep, eq, k7 = _dp_step(
            s, phi, psi, dt, h, rho_a, drho_a, d2rho_a, k1)
        if not ok:
            status = ERR_POLE
            break
        q = _err_ratio(tol, dt, s, phi, psi, s5, phi5, psi5, es, ep, eq)
        if q <= 1.0:
            if section is not None and s < section <= s5:
                status = SECTION
            tau += dt
            s = s5
            phi = phi5
            psi = psi5
            k1 = k7
            tau_l.append(tau)
            s_l.append(s)
            phi_l.append(phi)
            psi_l.append(psi)
            dt_l.append(dt)
            if status == SECTION:
                break
        dt = _next_dt(q, dt)
        if dt < dt_min:
            status = ERR_DT_UNDERFLOW
            break
    if status == OK and tau < length:
        status = ERR_MAX_STEPS
    return status, (tau_l, s_l, phi_l, psi_l, dt_l)


def section_crossing(h, rho_a, drho_a, d2rho_a, traj, i, s_section):
    """Where accepted step i of an ``integrate_kernel`` record, which
    carries s upward through s_section, reaches the section.

    The crossing is refined by 60 bisections on the sub-step size from the
    step's start, whose first stage is computed once; if none reaches the
    section, the step's end is used.  Returns (tau, s, phi, psi) at the
    crossing.
    """
    s_section = float(s_section)
    tau, s, phi, psi, dt = traj
    k1 = _geo_rhs(s[i], psi[i], h, rho_a, drho_a, d2rho_a)
    lo = 0.0
    hi = dt[i]
    cdelta, cs, cphi, cpsi = hi, s[i + 1], phi[i + 1], psi[i + 1]
    for _it in range(60):
        mid = 0.5 * (lo + hi)
        ok, ms, mphi, mpsi, _e1, _e2, _e3, _k7 = _dp_step(
            s[i], phi[i], psi[i], mid, h, rho_a, drho_a, d2rho_a, k1)
        if not ok:
            break
        if ms >= s_section:
            hi = mid
            cdelta, cs, cphi, cpsi = mid, ms, mphi, mpsi
        else:
            lo = mid
    return tau[i] + cdelta, cs, cphi, cpsi


def curvature_grid(u, h, cot_t):
    """Gaussian curvature e^{-2u} (1 - lap0 u) on the uniform theta grid.

    lap0 is the round-sphere Laplacian u'' + cot(theta) u'; at the poles the
    regular limit 2 u'' is used with a mirrored one-sided stencil.
    """
    h2 = h * h
    lap = np.empty(u.shape[0])
    lap[1:-1] = ((u[2:] - 2.0 * u[1:-1] + u[:-2]) / h2
                 + cot_t[1:-1] * (u[2:] - u[:-2]) / (2.0 * h))
    lap[0] = 4.0 * (u[1] - u[0]) / h2
    lap[-1] = 4.0 * (u[-2] - u[-1]) / h2
    return np.exp(-2.0 * u) * (1.0 - lap)


def flow_kernel(u, h, sin_t, cot_t, w, dt, n_steps, symmetrize):
    """Advance the normalized flow u_t = Kbar - K by n_steps steps of dt.

    Each step renormalizes the area back to 4*pi.  ``w`` are quadrature
    weights for the theta grid.  Modifies u in place and returns OK, or
    returns ERR_NAN with u unchanged if the state went non-finite.

    The scheme is linearly implicit BDF2:

        (3u' - 4u + u_prev) / (2 dt) = 1 - a + a lap0 u',
        a = e^{-2(2u - u_prev)},

    with the coefficient a of the curvature extrapolated from the two
    previous steps.  The constant 1 stands for Kbar, which Gauss-Bonnet
    puts within the grid error of 1 at area 4 pi, so the renormalization, a
    constant shift of u, only removes the discretization drift.  Multiplied
    by 2 dt / a, a step is one tridiagonal solve (``dgtsv``):

        (3g - k lap0) u' = g (4u - u_prev + k) - k,    g = 1/a,  k = 2 dt.

    The matrix is a diagonally dominant M-matrix for every dt, so the step
    has no stability bound.  The BDF1 step (u' - u)/dt = 1 - a + a lap0 u'
    with a = e^{-2u} is the same formula with u_prev = u and k = 3 dt.
    The first step is BDF1 extrapolated from one step of dt and two of
    dt/2, with a local error of O(dt^3) like a BDF2 step: a plain BDF1
    start adds an O(dt^2) error at every checkpoint, several times the rest
    of the time error on the gong.  u is renormalized before that step, so
    u_prev holds area 4 pi too.  g = (e^{2u})^2 / e^{2u_prev} reuses the
    exp the area takes, so a step takes one exp.
    With symmetrize nonzero (legal only for reflection-symmetric data) u is
    averaged with its mirror image once and only nodes 0 .. ceil(n/2) - 1
    are stepped, with folded weights and a mirror row at the equator; the
    mirror image is written back at the end.  With n_steps = 0 the kernel
    only renormalizes (and, with symmetrize, symmetrizes) u.
    """
    n = u.shape[0]
    h2 = h * h
    ws = w * sin_t
    # lap0 u_i = a_i (u[i+1] - u[i]) + b_i (u[i-1] - u[i]); the pole rows
    # are 2 u'' with a mirrored stencil
    a = 1.0 / h2 + cot_t / (2.0 * h)
    b = 1.0 / h2 - cot_t / (2.0 * h)
    a[0], b[0] = 4.0 / h2, 0.0
    a[-1], b[-1] = 0.0, 4.0 / h2
    m = n
    x = u.copy()
    if symmetrize != 0:
        m = (n + 1) // 2
        x = 0.5 * (u[:m] + u[::-1][:m])
        ws = ws[:m] + ws[::-1][:m]
        if n % 2 == 1:
            # the equator is its own mirror: u[m] = u[m-2], weight once
            ws[-1] *= 0.5
            b[m - 1] += a[m - 1]
        # even n: u[m] = u[m-1], so the equator row keeps no a term
        a, b = a[:m], b[:m]
        a[-1] = 0.0
    ab = a + b

    def stencil(k):
        # k, the sub- and super-diagonal of -k lap0, and k times its
        # negated main diagonal
        return k, -k * b[1:], -k * a[:-1], k * ab

    bdf2 = stencil(2.0 * dt)
    # _NonFinite reports a blow-up, so numpy's warnings are muted
    with np.errstate(all="ignore"):
        try:
            x_prev, e_prev = x, _renormalize(x, ws)
            if n_steps > 0:
                # BDF1 extrapolated from one step of dt and two of dt/2
                half = stencil(1.5 * dt)
                x_full, _ = _bdf_step(x, x, e_prev, e_prev, ws,
                                      stencil(3.0 * dt))
                x_half, e_half = _bdf_step(x, x, e_prev, e_prev, ws, half)
                x_half, _ = _bdf_step(x_half, x_half, e_half, e_half, ws,
                                      half)
                x = 2.0 * x_half - x_full
                e = _renormalize(x, ws)
            for _ in range(n_steps - 1):
                (x, e), x_prev, e_prev = (
                    _bdf_step(x, x_prev, e, e_prev, ws, bdf2), x, e)
        except _NonFinite:
            return ERR_NAN
    u[:m] = x
    if m < n:
        u[n - m:] = u[m - 1::-1]
    return OK


class _NonFinite(Exception):
    """A flow step's solve failed or its state went non-finite."""


def _bdf_step(x, x_prev, e, e_prev, ws, stencil):
    """One linearly implicit step (see ``flow_kernel``), renormalized.

    e and e_prev are e^{2x} and e^{2 x_prev}.  Returns x' and e^{2x'}.
    """
    k, sub, sup, kab = stencil
    g = e * e
    g /= e_prev
    rhs = 4.0 * x
    rhs -= x_prev
    rhs += k
    rhs *= g
    rhs -= k
    diag = 3.0 * g
    diag += kab
    _, _, _, x_new, info = _dgtsv(sub, diag, sup, rhs,
                                  overwrite_d=1, overwrite_b=1)
    if info != 0:
        raise _NonFinite
    return x_new, _renormalize(x_new, ws)


def _renormalize(x, ws):
    """Shift x in place to area 4 pi and return e^{2x}."""
    e = 2.0 * x
    np.exp(e, out=e)
    den = float(np.dot(ws, e))  # area/(4 pi) = den/2
    # a NaN or inf anywhere in x reaches den (0 * NaN is NaN)
    if not (math.isfinite(den) and den > 0.0):
        raise _NonFinite
    x -= 0.5 * math.log(0.5 * den)
    e *= 2.0 / den
    return e
