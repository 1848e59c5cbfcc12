"""Property-based invariant suites (hypothesis)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import zollflow as zf
from zollflow.profile import FOUR_PI

COMMON = dict(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])


def clairaut(p, state):
    return float(p.rho(state.s)) * np.sin(state.psi)


@settings(**COMMON)
@given(s0=st.floats(0.4, np.pi - 0.4), psi0=st.floats(-1.3, 1.3),
       length=st.floats(5.0, 25.0))
def test_clairaut_drift(round_p, s0, psi0, length):
    # keep the angular momentum away from zero: exact meridians pass through
    # the poles, where the (s, phi, psi) chart is singular
    assume(abs(np.sin(psi0) * float(round_p.rho(s0))) > 0.05)
    traj = zf.integrate(round_p, zf.GeodesicState(s=s0, phi=0.0, psi=psi0),
                        length, tol=1e-10)
    c0 = clairaut(round_p, traj[0])
    drift = max(abs(clairaut(round_p, t) - c0) for t in traj)
    assert drift < 1e-10 * length * 100.0


@settings(**COMMON)
@given(s0=st.floats(0.5, 2.0), psi0=st.floats(-1.0, 1.0),
       length=st.floats(1.0, 6.0))
def test_reversibility(gongn_p, s0, psi0, length):
    assume(abs(np.sin(psi0) * float(gongn_p.rho(s0))) > 0.05)
    init = zf.GeodesicState(s=s0, phi=0.0, psi=psi0)
    end = zf.integrate(gongn_p, init, length, tol=1e-11)[-1]
    back = zf.integrate(
        gongn_p, zf.GeodesicState(s=end.s, phi=end.phi, psi=end.psi + np.pi),
        length, tol=1e-11)[-1]
    assert back.s == pytest.approx(init.s, abs=1e-7)
    assert back.phi == pytest.approx(init.phi, abs=1e-7)


@settings(**COMMON)
@given(lam=st.floats(0.3, 3.0), z=st.floats(-0.8, 0.8))
def test_scale_covariance(lam, z):
    m = zf.gong_raw()
    ms = zf.scale(m, lam)
    k = zf.curvature_meridian(m, z)
    assert zf.curvature_meridian(ms, lam * z) == pytest.approx(
        k / lam**2, rel=1e-10)


SCALE_LAW_MERIDIANS = {"round": zf.round_sphere, "gong_raw": zf.gong_raw,
                       "gong_normalized": zf.gong_normalized}


@pytest.fixture(scope="module")
def lprime_at_unit_scale():
    return {name: zf.lprime_analytic(zf.to_arclength(m(), n_nodes=1025))
            for name, m in SCALE_LAW_MERIDIANS.items()}


@settings(**COMMON)
@given(name=st.sampled_from(sorted(SCALE_LAW_MERIDIANS)),
       lam=st.floats(0.3, 3.0))
def test_lprime_scale_law(lprime_at_unit_scale, name, lam):
    # l'(0) = -l0 (K_eq - Kbar) scales like 1/lambda under a homothety
    p = zf.to_arclength(zf.scale(SCALE_LAW_MERIDIANS[name](), lam),
                        n_nodes=1025)
    assert zf.lprime_analytic(p) * lam == pytest.approx(
        lprime_at_unit_scale[name], abs=1e-10)


@st.composite
def odd_functions(draw):
    k = draw(st.integers(1, 3))
    raw = [draw(st.floats(-1.0, 1.0)) for _ in range(k)]
    coeffs = raw + [-sum(raw)]
    sup = np.max(np.abs(np.polyval(
        [c for a in reversed(coeffs) for c in (a, 0.0)],
        np.linspace(-1, 1, 801))))
    assume(sup > 1e-6)
    scale = draw(st.floats(0.05, 0.8)) / sup
    return zf.OddFunction(tuple(c * scale for c in coeffs))


@settings(**COMMON)
@given(h=odd_functions())
def test_michel_area_is_4pi(h):
    p = zf.michel_surface(h, n_nodes=1025)
    assert p.total_length == pytest.approx(np.pi, abs=1e-8)
    assert p.area() == pytest.approx(FOUR_PI, rel=1e-8)


@settings(**COMMON)
@given(lam=st.floats(0.2, 5.0))
def test_normalize_idempotent(lam):
    m = zf.scale(zf.gong_raw(), lam)
    once = zf.normalize_to_volume(m)
    assert zf.area(once) == pytest.approx(FOUR_PI, rel=1e-9)
    twice = zf.normalize_to_volume(once)
    assert twice.z_hi == pytest.approx(once.z_hi, rel=1e-9)
