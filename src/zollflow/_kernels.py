"""Hot numeric kernels: geodesic stepping and the explicit flow.

The geodesic kernels are scalar loops, since their cost is per step; the
flow kernels are vectorized over the theta grid, since theirs is per node.

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
trajectory of length ell stays of order tol * ell.  ``integrate_kernel`` is
the one adaptive march: it records every accepted step, and section
crossings are read off that record and refined by ``section_crossing``.
"""

import math

import numpy as np

# status codes shared by the kernels
OK = 0
ERR_POLE = 1          # rho <= 0 encountered with nonzero angular momentum
ERR_MAX_STEPS = 2
ERR_DT_UNDERFLOW = 3
ERR_NAN = 4


def hermite_eval(x, h, values, derivs):
    """Cubic Hermite interpolation on a uniform grid starting at 0.

    Scalar form for the step loop; ``hermite_vec`` is the array form and
    must agree with it bitwise.  Points off the grid use the nearest end
    cell's cubic.
    """
    n = values.shape[0]
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


def hermite_vec(x, h, values, derivs):
    """``hermite_eval`` at an array of points (profile queries)."""
    x = np.asarray(x, dtype=float)
    n = len(values)
    i = np.clip((x / h).astype(int), 0, n - 2)
    t = (x - i * h) / h
    t2 = t * t
    t3 = t2 * t
    return ((2 * t3 - 3 * t2 + 1) * values[i] + (-2 * t3 + 3 * t2) * values[i + 1]
            + h * ((t3 - 2 * t2 + t) * derivs[i] + (t3 - t2) * derivs[i + 1]))


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
    sp = np.sin(psi)
    return np.cos(psi), sp / rho, -(drho / rho) * sp, True


def _dp_step(s, phi, psi, dt, h, rho_a, drho_a, d2rho_a):
    """One Dormand-Prince 5(4) step.

    Returns (ok, s5, phi5, psi5, es, ephi, epsi) where the e* are the
    embedded error estimates of the step.
    """
    k1s, k1p, k1q, ok = _geo_rhs(s, psi, h, rho_a, drho_a, d2rho_a)
    if not ok:
        return False, s, phi, psi, 0.0, 0.0, 0.0

    ys = s + dt * (0.2 * k1s)
    yq = psi + dt * (0.2 * k1q)
    k2s, k2p, k2q, ok = _geo_rhs(ys, yq, h, rho_a, drho_a, d2rho_a)
    if not ok:
        return False, s, phi, psi, 0.0, 0.0, 0.0

    ys = s + dt * (3.0 / 40.0 * k1s + 9.0 / 40.0 * k2s)
    yq = psi + dt * (3.0 / 40.0 * k1q + 9.0 / 40.0 * k2q)
    k3s, k3p, k3q, ok = _geo_rhs(ys, yq, h, rho_a, drho_a, d2rho_a)
    if not ok:
        return False, s, phi, psi, 0.0, 0.0, 0.0

    ys = s + dt * (44.0 / 45.0 * k1s - 56.0 / 15.0 * k2s + 32.0 / 9.0 * k3s)
    yq = psi + dt * (44.0 / 45.0 * k1q - 56.0 / 15.0 * k2q + 32.0 / 9.0 * k3q)
    k4s, k4p, k4q, ok = _geo_rhs(ys, yq, h, rho_a, drho_a, d2rho_a)
    if not ok:
        return False, s, phi, psi, 0.0, 0.0, 0.0

    ys = s + dt * (19372.0 / 6561.0 * k1s - 25360.0 / 2187.0 * k2s
                   + 64448.0 / 6561.0 * k3s - 212.0 / 729.0 * k4s)
    yq = psi + dt * (19372.0 / 6561.0 * k1q - 25360.0 / 2187.0 * k2q
                     + 64448.0 / 6561.0 * k3q - 212.0 / 729.0 * k4q)
    k5s, k5p, k5q, ok = _geo_rhs(ys, yq, h, rho_a, drho_a, d2rho_a)
    if not ok:
        return False, s, phi, psi, 0.0, 0.0, 0.0

    ys = s + dt * (9017.0 / 3168.0 * k1s - 355.0 / 33.0 * k2s
                   + 46732.0 / 5247.0 * k3s + 49.0 / 176.0 * k4s
                   - 5103.0 / 18656.0 * k5s)
    yq = psi + dt * (9017.0 / 3168.0 * k1q - 355.0 / 33.0 * k2q
                     + 46732.0 / 5247.0 * k3q + 49.0 / 176.0 * k4q
                     - 5103.0 / 18656.0 * k5q)
    k6s, k6p, k6q, ok = _geo_rhs(ys, yq, h, rho_a, drho_a, d2rho_a)
    if not ok:
        return False, s, phi, psi, 0.0, 0.0, 0.0

    s5 = s + dt * (35.0 / 384.0 * k1s + 500.0 / 1113.0 * k3s
                   + 125.0 / 192.0 * k4s - 2187.0 / 6784.0 * k5s
                   + 11.0 / 84.0 * k6s)
    phi5 = phi + dt * (35.0 / 384.0 * k1p + 500.0 / 1113.0 * k3p
                       + 125.0 / 192.0 * k4p - 2187.0 / 6784.0 * k5p
                       + 11.0 / 84.0 * k6p)
    psi5 = psi + dt * (35.0 / 384.0 * k1q + 500.0 / 1113.0 * k3q
                       + 125.0 / 192.0 * k4q - 2187.0 / 6784.0 * k5q
                       + 11.0 / 84.0 * k6q)

    k7s, k7p, k7q, ok = _geo_rhs(s5, psi5, h, rho_a, drho_a, d2rho_a)
    if not ok:
        return False, s, phi, psi, 0.0, 0.0, 0.0

    es = dt * (71.0 / 57600.0 * k1s - 71.0 / 16695.0 * k3s
               + 71.0 / 1920.0 * k4s - 17253.0 / 339200.0 * k5s
               + 22.0 / 525.0 * k6s - 1.0 / 40.0 * k7s)
    ep = dt * (71.0 / 57600.0 * k1p - 71.0 / 16695.0 * k3p
               + 71.0 / 1920.0 * k4p - 17253.0 / 339200.0 * k5p
               + 22.0 / 525.0 * k6p - 1.0 / 40.0 * k7p)
    eq = dt * (71.0 / 57600.0 * k1q - 71.0 / 16695.0 * k3q
               + 71.0 / 1920.0 * k4q - 17253.0 / 339200.0 * k5q
               + 22.0 / 525.0 * k6q - 1.0 / 40.0 * k7q)
    return True, s5, phi5, psi5, es, ep, eq


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
                     length, tol, max_steps):
    """Integrate a geodesic for a fixed arc length, recording each step.

    Returns (status, (tau, s, phi, psi, dt)): the states at tau = 0 and
    after every accepted step, and the size of each accepted step (one
    fewer entry).  The last step is clamped to end exactly at tau = length;
    on a failure the trajectory stops at the last accepted step.
    """
    tau = 0.0
    s = s0
    phi = phi0
    psi = psi0
    tau_l = [tau]
    s_l = [s]
    phi_l = [phi]
    psi_l = [psi]
    dt_l = []

    dt = min(0.01, length)
    dt_min = 1e-14 * (length + 1.0)
    status = OK
    for _ in range(max_steps):
        if tau >= length:
            break
        if dt > length - tau:
            dt = length - tau
        ok, s5, phi5, psi5, es, ep, eq = _dp_step(
            s, phi, psi, dt, h, rho_a, drho_a, d2rho_a)
        if not ok:
            status = ERR_POLE
            break
        q = _err_ratio(tol, dt, s, phi, psi, s5, phi5, psi5, es, ep, eq)
        if q <= 1.0:
            tau += dt
            s = s5
            phi = phi5
            psi = psi5
            tau_l.append(tau)
            s_l.append(s)
            phi_l.append(phi)
            psi_l.append(psi)
            dt_l.append(dt)
        dt = _next_dt(q, dt)
        if dt < dt_min:
            status = ERR_DT_UNDERFLOW
            break
    if status == OK and tau < length:
        status = ERR_MAX_STEPS
    return status, (np.array(tau_l), np.array(s_l), np.array(phi_l),
                    np.array(psi_l), np.array(dt_l))


def section_crossing(h, rho_a, drho_a, d2rho_a, traj, i, s_section):
    """Where accepted step i of an ``integrate_kernel`` trajectory, which
    carries s upward through s_section, reaches the section.

    The crossing is refined by 60 bisections on the sub-step size from the
    step's start; if none reaches the section, the step's end is used.
    Returns (tau, s, phi, psi) at the crossing.
    """
    tau, s, phi, psi, dt = traj
    lo = 0.0
    hi = dt[i]
    cdelta, cs, cphi, cpsi = hi, s[i + 1], phi[i + 1], psi[i + 1]
    for _it in range(60):
        mid = 0.5 * (lo + hi)
        ok, ms, mphi, mpsi, _e1, _e2, _e3 = _dp_step(
            s[i], phi[i], psi[i], mid, h, rho_a, drho_a, d2rho_a)
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


def flow_kernel(u, h, sin_t, cot_t, w, t_start, t_target, dt_cap,
                stability_factor, symmetrize, max_steps):
    """Advance the normalized flow u_t = Kbar - K from t_start to t_target.

    Each step renormalizes the area back to 4*pi; with symmetrize nonzero u
    is also averaged about the equator (legal only for reflection-symmetric
    data).  ``w`` are quadrature weights for the theta grid.  Modifies u in
    place; returns (status, t_reached, n_steps).

    The step size is stability_factor * h^2 * min e^{2u}, capped by dt_cap
    (when positive) and by the time left.  Each step is ``curvature_grid``
    rearranged to need one exp: with q = 1 - lap0 u, K = q / e^{2u}, and
    the area weight e^{2u} cancels in Kbar = ws.q / ws.e^{2u} (ws = w sin).
    The e^{2u} computed for the area after a step is rescaled by the
    renormalization and carried into the next step.  The interior stencil
    is precomputed as coefficients of u[i+1], u[i], u[i-1], and every
    update runs in place, so a step allocates no arrays.
    """
    n = u.shape[0]
    h2 = h * h
    half_cot = cot_t[1:-1] / (2.0 * h)
    a = -(1.0 / h2 + half_cot)  # coefficient of u[i+1] in q
    b = 2.0 / h2                # coefficient of u[i]
    c = -(1.0 / h2 - half_cot)  # coefficient of u[i-1]
    pole = 4.0 / h2
    ws = w * sin_t
    e2u = np.exp(2.0 * u)
    q = np.empty(n)
    qi = q[1:-1]
    tmp = np.empty(n - 2)
    u_next, u_mid, u_prev, u_rev = u[2:], u[1:-1], u[:-2], u[::-1]
    t = t_start
    steps = 0
    status = OK
    # the den2 check reports a blow-up, so numpy's warnings are muted
    with np.errstate(all="ignore"):
        for _ in range(max_steps):
            if t >= t_target:
                break
            np.multiply(a, u_next, out=qi)
            np.multiply(c, u_prev, out=tmp)
            qi += tmp
            np.multiply(b, u_mid, out=tmp)
            qi += tmp
            qi += 1.0
            q[0] = 1.0 - pole * (u[1] - u[0])
            q[-1] = 1.0 - pole * (u[-2] - u[-1])
            kbar = np.dot(ws, q) / np.dot(ws, e2u)
            dt = stability_factor * h * h * e2u.min()
            if dt_cap > 0.0 and dt > dt_cap:
                dt = dt_cap
            if dt > t_target - t:
                dt = t_target - t
            np.divide(q, e2u, out=q)  # K
            np.subtract(kbar, q, out=q)
            q *= dt
            u += q
            if symmetrize != 0:
                # e2u holds u + u[::-1], twice the symmetrized u, until the exp
                np.add(u, u_rev, out=e2u)
                np.multiply(e2u, 0.5, out=u)
            else:
                np.multiply(u, 2.0, out=e2u)
            np.exp(e2u, out=e2u)
            den2 = float(np.dot(ws, e2u))  # area/(4 pi) = den2/2
            t += dt
            steps += 1
            # a NaN or inf anywhere in u reaches den2 (0 * NaN is NaN)
            if not (math.isfinite(den2) and den2 > 0.0):
                status = ERR_NAN
                break
            u -= 0.5 * math.log(0.5 * den2)
            e2u *= 2.0 / den2
    if status == OK and t < t_target:
        status = ERR_MAX_STEPS
    return status, t, steps
