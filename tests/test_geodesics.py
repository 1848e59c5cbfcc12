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


def full_horizon_returns(p, init, horizon, tol=geodesics.DEFAULT_TOL):
    """Oracle that does not use the rotation symmetry: march the whole
    horizon and refine every upward crossing of the starting parallel."""
    status, traj = _kernels.integrate_kernel(
        *geodesics._kernel_args(p), init.s, init.phi, init.psi, horizon, tol,
        geodesics.MAX_STEPS)
    assert status == _kernels.OK
    s = np.array(traj[1])
    steps = np.flatnonzero((s[:-1] < init.s) & (s[1:] >= init.s))
    return [_kernels.section_crossing(*geodesics._kernel_args(p), traj, int(i),
                                      init.s)
            for i in steps]


def first_return(p, init, horizon):
    """The first return as find_period computes it: (tau, s, phi, psi)."""
    status, traj = geodesics._march(p, init, horizon, geodesics.DEFAULT_TOL,
                                    section=init.s)
    assert status == _kernels.SECTION
    return _kernels.section_crossing(*geodesics._kernel_args(p), traj,
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
