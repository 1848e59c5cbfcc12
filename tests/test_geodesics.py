"""Geodesic integration and period detection."""

import numpy as np
import pytest

import zollflow as zf
from zollflow import geodesics
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


def test_equator_length(round_p, gongn_p, michel_p):
    assert zf.equator_length(round_p) == pytest.approx(TWO_PI, abs=1e-10)
    assert zf.equator_length(gongn_p) == pytest.approx(TWO_PI, abs=1e-9)
    raw = zf.to_arclength(zf.gong_raw(), n_nodes=2049)
    assert zf.equator_length(raw) == pytest.approx(
        8.0 * np.pi * (np.sqrt(2.0) - 1.0), abs=1e-8)
    with pytest.raises(ValueError):
        zf.equator_length(michel_p)  # not reflection-symmetric


def test_equator_is_invariant_parallel(round_p, gongn_p):
    # started tangent to the equator, the trajectory stays on it
    for p in (round_p, gongn_p):
        s_eq = 0.5 * p.total_length
        init = zf.GeodesicState(s=s_eq, phi=0.0, psi=np.pi / 2)
        traj = zf.integrate(p, init, TWO_PI, tol=1e-11)
        assert max(abs(st.s - s_eq) for st in traj) < 1e-7
