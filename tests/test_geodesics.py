"""Geodesic integration and period detection."""

import numpy as np
import pytest

import zollflow as zf
from zollflow import _kernels, geodesics
from zollflow.errors import NoClosureError, NumericalAbort

TWO_PI = 2.0 * np.pi


def clairaut(p, st):
    return float(p.rho(st.s)) * np.sin(st.psi)


class TestIntegrate:
    def test_great_circle_period(self, round_p):
        for psi0 in (0.2, 0.7, 1.2):
            init = zf.GeodesicState(s=np.pi / 2, phi=0.0, psi=psi0)
            e = zf.find_period(round_p, init, tol=1e-6)
            assert e.converged
            assert e.period == pytest.approx(TWO_PI, abs=1e-9)

    def test_clairaut_drift_long_run(self, round_p):
        init = zf.GeodesicState(s=np.pi / 2, phi=0.0, psi=0.9)
        traj = zf.integrate(round_p, init, 100.0, tol=1e-10)
        c0 = clairaut(round_p, traj[0])
        drift = max(abs(clairaut(round_p, st) - c0) for st in traj)
        assert drift < 1e-7  # budget: 100 * tol * length

    def test_trajectory_ends_at_length(self, round_p):
        init = zf.GeodesicState(s=1.0, phi=0.0, psi=0.3)
        traj = zf.integrate(round_p, init, 5.0)
        assert traj[-1].tau == pytest.approx(5.0, abs=1e-12)

    def test_reversibility(self, gongn_p):
        init = zf.GeodesicState(s=1.0, phi=0.2, psi=0.6)
        fwd = zf.integrate(gongn_p, init, 3.0, tol=1e-11)
        end = fwd[-1]
        back = zf.integrate(
            gongn_p,
            zf.GeodesicState(s=end.s, phi=end.phi, psi=end.psi + np.pi),
            3.0, tol=1e-11)[-1]
        assert back.s == pytest.approx(init.s, abs=1e-8)
        assert back.phi == pytest.approx(init.phi, abs=1e-8)
        assert (back.psi - np.pi) % TWO_PI == pytest.approx(
            init.psi % TWO_PI, abs=1e-8)

    def test_pole_start_rejected(self, round_p):
        with pytest.raises(ValueError):
            zf.integrate(round_p, zf.GeodesicState(s=0.0, phi=0, psi=0.1), 1.0)


class TestFindPeriod:
    def test_equator_heading_rejected(self, round_p):
        init = zf.GeodesicState(s=np.pi / 2, phi=0.0, psi=np.pi / 2)
        with pytest.raises(ValueError):
            zf.find_period(round_p, init)

    def test_no_crossing_within_horizon(self, round_p):
        init = zf.GeodesicState(s=np.pi / 2, phi=0.0, psi=0.3)
        with pytest.raises(NoClosureError):
            zf.find_period(round_p, init, horizon=0.5)

    def test_return_past_horizon_not_counted(self, round_p):
        # the only return sits at 2 pi, just past the horizon
        init = zf.GeodesicState(s=np.pi / 2, phi=0.0, psi=0.3)
        with pytest.raises(NoClosureError):
            zf.find_period(round_p, init, horizon=TWO_PI - 0.01)

    def test_step_budget_is_typed_abort(self, round_p, monkeypatch):
        monkeypatch.setattr(geodesics, "MAX_STEPS", 10)
        init = zf.GeodesicState(s=np.pi / 2, phi=0.0, psi=0.3)
        with pytest.raises(NumericalAbort, match="step budget"):
            zf.find_period(round_p, init)

    def test_nonclosing_reported_unconverged(self, gongn_p):
        s_eq, rho_max = gongn_p.equator()
        init = zf.GeodesicState(s=s_eq, phi=0.0,
                                psi=float(np.arcsin(0.5 / rho_max)))
        e = zf.find_period(gongn_p, init, tol=1e-6)
        assert not e.converged
        assert e.closure_error > 1e-3


def plain_march(h, rho_a, drho_a, d2rho_a, s0, phi0, psi0, length, tol,
                max_steps, section=None):
    """Oracle for ``integrate_kernel``: the same adaptive DP5 march, with
    the first stage recomputed on every attempt.  Also returns the number
    of rejected attempts."""
    s, phi, psi = s0, phi0, psi0
    tau = 0.0
    record = ([tau], [s], [phi], [psi], [])
    dt = min(0.01, length)
    dt_min = 1e-14 * (length + 1.0)
    status = _kernels.OK
    rejected = 0
    for _ in range(max_steps):
        if tau >= length:
            break
        dt = min(dt, length - tau)
        k1 = _kernels._geo_rhs(s, psi, h, rho_a, drho_a, d2rho_a)
        ok, s5, phi5, psi5, es, ep, eq, _k7 = _kernels._dp_step(
            s, phi, psi, dt, h, rho_a, drho_a, d2rho_a, k1)
        if not ok:
            status = _kernels.ERR_POLE
            break
        q = _kernels._err_ratio(tol, dt, s, phi, psi, s5, phi5, psi5,
                                es, ep, eq)
        if q <= 1.0:
            crossed = section is not None and s < section <= s5
            tau, s, phi, psi = tau + dt, s5, phi5, psi5
            for column, x in zip(record, (tau, s, phi, psi, dt)):
                column.append(x)
            if crossed:
                status = _kernels.SECTION
                break
        else:
            rejected += 1
        dt = _kernels._next_dt(q, dt)
        if dt < dt_min:
            status = _kernels.ERR_DT_UNDERFLOW
            break
    if status == _kernels.OK and tau < length:
        status = _kernels.ERR_MAX_STEPS
    return status, record, rejected


def bisected_crossing(h, rho_a, drho_a, d2rho_a, traj, i, s_section):
    """Oracle for ``section_crossing``: 60 bisections of the sub-step size,
    each sub-step a full DP5 step from the start of step i."""
    tau, s, phi, psi, dt = traj
    lo, hi = 0.0, dt[i]
    crossing = (hi, s[i + 1], phi[i + 1], psi[i + 1])
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        k1 = _kernels._geo_rhs(s[i], psi[i], h, rho_a, drho_a, d2rho_a)
        ok, ms, mphi, mpsi, *_ = _kernels._dp_step(
            s[i], phi[i], psi[i], mid, h, rho_a, drho_a, d2rho_a, k1)
        if not ok:
            break
        if ms >= s_section:
            hi = mid
            crossing = (mid, ms, mphi, mpsi)
        else:
            lo = mid
    return tau[i] + crossing[0], crossing[1], crossing[2], crossing[3]


MICHEL_COEFFS = ((0.3, -0.3), (0.1, -0.25, 0.15), (-0.2, 0.1, 0.1))


@pytest.fixture(scope="module")
def catalog_profiles(round_p, gongn_p):
    """Round, both gongs and three Michel surfaces."""
    gong_raw = zf.to_arclength(zf.gong_raw(), n_nodes=2049)
    michels = [zf.michel_surface(zf.OddFunction(c), n_nodes=2049)
               for c in MICHEL_COEFFS]
    return [round_p, gong_raw, gongn_p] + michels


def starts(p, fractions=(0.1, 0.4, 0.7, 0.95)):
    """Sweep starts on the maximal parallel at Clairaut constants
    fraction * rho_max, and starts off it."""
    s_eq, rho_max = p.equator()
    for f in fractions:
        yield zf.GeodesicState(s=s_eq, phi=0.0, psi=float(np.arcsin(f)))
        s0 = 0.6 * s_eq
        yield zf.GeodesicState(
            s=s0, phi=0.2, psi=float(np.arcsin(f * 0.9 * float(p.rho(s0))
                                               / rho_max)))


class TestMarchOracles:
    def test_march_matches_plain_loop(self, catalog_profiles):
        rejected = 0
        for p in catalog_profiles:
            args = p.grid_lists()
            for init in starts(p, fractions=(0.2, 0.9)):
                for section, length, tol in ((None, 3.0, 1e-10),
                                             (init.s, TWO_PI * 2, 1e-10),
                                             (None, 2.0, 1e-13)):
                    march = (*args, init.s, init.phi, init.psi, length, tol,
                             geodesics.MAX_STEPS, section)
                    status, traj = _kernels.integrate_kernel(*march)
                    want, record, n_rej = plain_march(*march)
                    assert status == want
                    assert traj == record  # bitwise: tau, s, phi, psi, dt
                    rejected += n_rej
        assert rejected > 0  # some marches retried a step

    def test_failed_march_matches_plain_loop(self, round_p):
        args = round_p.grid_lists()
        # a step budget that runs out, and a start on the pole
        for init, max_steps in (((1.0, 0.0, 0.3), 7), ((0.0, 0.0, 0.3), 10)):
            march = (*args, *init, 4.0, 1e-10, max_steps)
            status, traj = _kernels.integrate_kernel(*march)
            want, record, _ = plain_march(*march)
            assert status == want != _kernels.OK
            assert traj == record

    def test_attempt_evaluates_six_stages(self, gongn_p, monkeypatch):
        calls = []
        rhs = _kernels._geo_rhs

        def spy(*args):
            calls.append(1)
            return rhs(*args)

        dp_step = _kernels._dp_step
        attempts = []

        def count_attempts(*args):
            attempts.append(1)
            return dp_step(*args)

        monkeypatch.setattr(_kernels, "_geo_rhs", spy)
        monkeypatch.setattr(_kernels, "_dp_step", count_attempts)
        s_eq, _ = gongn_p.equator()
        _kernels.integrate_kernel(*gongn_p.grid_lists(), s_eq,
                                  0.0, 0.5, 5.0, 1e-10, geodesics.MAX_STEPS)
        assert len(calls) == 1 + 6 * len(attempts)

    def test_crossing_matches_bisection(self, catalog_profiles):
        crossings = 0
        for p in catalog_profiles:
            args = p.grid_lists()
            for init in starts(p):
                status, traj = _kernels.integrate_kernel(
                    *args, init.s, init.phi, init.psi, 3 * TWO_PI,
                    geodesics.DEFAULT_TOL, geodesics.MAX_STEPS)
                assert status == _kernels.OK
                s = np.array(traj[1])
                steps = np.flatnonzero((s[:-1] < init.s) & (s[1:] >= init.s))
                assert len(steps) >= 2
                for i in steps.tolist():
                    assert (_kernels.section_crossing(*args, traj, i, init.s)
                            == bisected_crossing(*args, traj, i, init.s))
                    crossings += 1
        assert crossings > 100


class TestGridLists:
    def test_sweep_builds_lists_once(self, gongn_p, monkeypatch):
        import dataclasses
        p = dataclasses.replace(gongn_p)
        assert p._grid_lists is None
        seen = []
        for name in ("integrate_kernel", "section_crossing"):
            kernel = getattr(_kernels, name)

            def spy(*args, kernel=kernel):
                seen.append(args[:4])
                return kernel(*args)

            monkeypatch.setattr(_kernels, name, spy)
        zf.zoll_sweep(p, n_samples=12)
        assert len(seen) == 20  # a march and a crossing per sampled entry
        lists = seen[0]
        assert all(all(x is y for x, y in zip(args, lists)) for args in seen)
        assert lists == (p.h, p.rho_grid.tolist(), p.drho_grid.tolist(),
                         p.d2rho_grid.tolist())
        # the sweep frees them when it ends
        assert p._grid_lists is None

    def test_failed_sweep_frees_lists(self, gongn_p):
        import dataclasses
        p = dataclasses.replace(gongn_p)
        # too short a horizon for any section return
        with pytest.raises(NoClosureError):
            zf.zoll_sweep(p, n_samples=12, horizon=0.5)
        assert p._grid_lists is None

    def test_replace_rebuilds_lists(self, gongn_p):
        import dataclasses
        lists = gongn_p.grid_lists()
        assert gongn_p.grid_lists() is lists
        q = dataclasses.replace(gongn_p)
        assert q._grid_lists is None
        assert q.grid_lists() == lists and q.grid_lists() is not lists
        r = dataclasses.replace(gongn_p, rho_grid=2.0 * gongn_p.rho_grid)
        assert r.grid_lists()[1] == (2.0 * gongn_p.rho_grid).tolist()

    def test_closure_candidates_make_no_numpy_rho_call(self, gongn_p,
                                                       monkeypatch):
        s_eq, rho_max = gongn_p.equator()
        init = zf.GeodesicState(s=s_eq, phi=0.0,
                                psi=float(np.arcsin(0.5 / rho_max)))
        want = zf.find_period(gongn_p, init, horizon=200.0)
        assert not want.converged
        rho_calls = []
        distances = []
        rho = type(gongn_p).rho
        distance = geodesics.closure_distance

        def rho_spy(self, s):
            rho_calls.append(s)
            return rho(self, s)

        def distance_spy(*args):
            distances.append(distance(*args))
            return distances[-1]

        monkeypatch.setattr(type(gongn_p), "rho", rho_spy)
        monkeypatch.setattr(geodesics, "closure_distance", distance_spy)
        got = zf.find_period(gongn_p, init, horizon=200.0)
        assert len(distances) == geodesics.MAX_RETURNS
        assert rho_calls == []
        assert got == want
        # the same entry as the numpy rho gives
        rho0 = float(rho(gongn_p, s_eq))
        assert got.clairaut_c == rho0 * np.sin(init.psi)
        assert got.closure_error == min(distances)


def full_horizon_returns(p, init, horizon, tol=geodesics.DEFAULT_TOL):
    """Oracle that does not use the rotation symmetry: march the whole
    horizon and refine every upward crossing of the starting parallel."""
    status, traj = _kernels.integrate_kernel(
        *p.grid_lists(), init.s, init.phi, init.psi, horizon, tol,
        geodesics.MAX_STEPS)
    assert status == _kernels.OK
    s = np.array(traj[1])
    steps = np.flatnonzero((s[:-1] < init.s) & (s[1:] >= init.s))
    return [_kernels.section_crossing(*p.grid_lists(), traj, int(i),
                                      init.s)
            for i in steps]


def first_return(p, init, horizon):
    """The first return as find_period computes it: (tau, s, phi, psi)."""
    status, traj = geodesics._march(p, init, horizon, geodesics.DEFAULT_TOL,
                                    section=init.s)
    assert status == _kernels.SECTION
    return _kernels.section_crossing(*p.grid_lists(), traj,
                                     len(traj[0]) - 2, init.s)


class TestFirstReturn:
    @pytest.fixture(params=["gong", "michel"])
    def start(self, request, gongn_p, michel_p):
        p = gongn_p if request.param == "gong" else michel_p
        # Clairaut constant c = rho_max / 2
        return p, zf.GeodesicState(s=p.equator()[0], phi=0.3,
                                   psi=float(np.arcsin(0.5)))

    def test_later_returns_match_full_march(self, start):
        p, init = start
        returns = full_horizon_returns(p, init, 4.5 * TWO_PI)
        assert len(returns) >= 4
        tau1, s1, phi1, psi1 = first_return(p, init, 4.5 * TWO_PI)
        assert (tau1, s1, phi1, psi1) == returns[0]
        for n, (tau, _s, phi, _psi) in enumerate(returns[:4], start=1):
            assert abs(tau - n * tau1) < 1e-8
            assert abs(phi - (init.phi + n * (phi1 - init.phi))) < 1e-8

    def test_period_is_first_return_or_closed_form(self, start):
        p, init = start
        returns = full_horizon_returns(p, init, geodesics.DEFAULT_HORIZON)
        e = zf.find_period(p, init)
        tau1 = returns[0][0]
        n = round(e.period / tau1)
        assert abs(e.period - returns[n - 1][0]) < 1e-8
        if e.converged:  # Zoll: the first return closes, bitwise equal
            assert e.period == tau1

    def test_march_ends_at_first_return(self, start, monkeypatch):
        p, init = start
        tau1 = full_horizon_returns(p, init, 1.5 * TWO_PI)[0][0]
        ends = []
        kernel = _kernels.integrate_kernel

        def spy(*args, **kwargs):
            status, traj = kernel(*args, **kwargs)
            ends.append(traj[0][-1])
            return status, traj

        monkeypatch.setattr(_kernels, "integrate_kernel", spy)
        zf.find_period(p, init)
        assert len(ends) == 1
        assert tau1 <= ends[0] < tau1 + 0.5
        assert ends[0] < 0.25 * geodesics.DEFAULT_HORIZON

    def test_horizon_before_second_return(self, gongn_p):
        s_eq, rho_max = gongn_p.equator()
        init = zf.GeodesicState(s=s_eq, phi=0.0,
                                psi=float(np.arcsin(0.5 / rho_max)))
        tau1 = full_horizon_returns(gongn_p, init, 2.0 * TWO_PI)[0][0]
        e = zf.find_period(gongn_p, init, horizon=1.5 * tau1)
        assert not e.converged
        assert e.period == tau1


class TestSweep:
    def test_round_sweep(self, round_p):
        rep = zf.zoll_sweep(round_p, n_samples=8)
        assert rep.all_converged
        assert rep.spread < 1e-9
        assert rep.mean == pytest.approx(TWO_PI, abs=1e-10)

    def test_michel_sweep(self, michel_p):
        rep = zf.zoll_sweep(michel_p, n_samples=8)
        assert rep.all_converged
        assert rep.spread < 1e-8

    def test_gong_sweep_fails(self, gongn_p):
        rep = zf.zoll_sweep(gongn_p, n_samples=6)
        assert not rep.all_converged
        assert rep.spread > 1e-3

    def test_endpoint_entries_closed_form(self, round_p):
        rep = zf.zoll_sweep(round_p, n_samples=4)
        assert rep.entries[0].clairaut_c == 0.0
        assert rep.entries[0].period == pytest.approx(
            2.0 * round_p.total_length, abs=1e-12)
        assert rep.entries[-1].period == pytest.approx(TWO_PI, abs=1e-9)

    def test_csv_rows_shape(self, round_p):
        rep = zf.zoll_sweep(round_p, n_samples=4)
        rows = rep.to_csv_rows()
        assert len(rows) == 4
        assert all(len(r) == 3 for r in rows)

    def test_sample_count_validated(self, round_p):
        with pytest.raises(ValueError):
            zf.zoll_sweep(round_p, n_samples=1)


def test_equator_length(round_p, gongn_p):
    def length(p):
        return TWO_PI * p.equator()[1]
    assert length(round_p) == pytest.approx(TWO_PI, abs=1e-10)
    assert length(gongn_p) == pytest.approx(TWO_PI, abs=1e-9)
    raw = zf.to_arclength(zf.gong_raw(), n_nodes=2049)
    assert length(raw) == pytest.approx(
        8.0 * np.pi * (np.sqrt(2.0) - 1.0), abs=1e-8)


def test_equator_is_invariant_parallel(round_p, gongn_p):
    # started tangent to the equator, the trajectory stays on it
    for p in (round_p, gongn_p):
        s_eq = 0.5 * p.total_length
        init = zf.GeodesicState(s=s_eq, phi=0.0, psi=np.pi / 2)
        traj = zf.integrate(p, init, TWO_PI, tol=1e-11)
        assert max(abs(st.s - s_eq) for st in traj) < 1e-7
