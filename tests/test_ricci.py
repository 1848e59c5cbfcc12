"""Normalized flow stepping, diagnostics, first variation."""

import warnings

import numpy as np
import pytest

import zollflow as zf
from zollflow import cli
from zollflow.errors import FlowInstabilityError
from zollflow.profile import FOUR_PI
from zollflow.ricci import stability_dt

# frozen oracles for the area-4pi gong (30-digit quadrature, see test_catalog)
K_EQ_AREANORM = 1.79271481669672912
RHO_EQ_AREANORM = 1.14325747059515986
LPRIME_AREANORM = -5.69430718665601267
LPRIME_UNIT_EQUATOR = -6.51005923100819385


@pytest.fixture(scope="module")
def gong_state(gong_conf):
    return zf.make_state(gong_conf.copy())


class TestFlowStep:
    def test_flat_fixed_point(self):
        st = zf.make_state(zf.ConformalProfile(u=np.zeros(257)))
        nxt = zf.flow_step(st, 1e-5)
        # the discrete fixed point sits a quadrature-error away from u = 0
        assert np.max(np.abs(nxt.profile.u)) < 1e-9

    def test_rejects_unstable_dt(self, gong_state):
        with pytest.raises(FlowInstabilityError) as exc:
            zf.flow_step(gong_state, 10.0 * stability_dt(gong_state.profile))
        assert exc.value.state is gong_state

    def test_rejects_nonpositive_dt(self, gong_state):
        with pytest.raises(ValueError):
            zf.flow_step(gong_state, 0.0)

    def test_equator_slope_first_order(self, gong_state):
        dt = min(1e-7, 0.5 * stability_dt(gong_state.profile))
        nxt = zf.flow_step(gong_state, dt)
        du = nxt.profile.u_equator() - gong_state.profile.u_equator()
        # du/dt = Kbar - K_eq at the equator, to first order
        assert du / dt == pytest.approx(1.0 - K_EQ_AREANORM, abs=1e-3)

    def test_kbar_diagnostic(self, gong_state):
        assert gong_state.k_bar == pytest.approx(1.0, abs=1e-6)

    def test_area_renormalized(self, gong_state):
        dt = 0.5 * stability_dt(gong_state.profile)
        nxt = zf.flow_step(gong_state, dt)
        assert nxt.area == pytest.approx(FOUR_PI, abs=1e-8)

    def test_symmetry_preserved(self, gong_state):
        nxt = zf.flow_step(gong_state, 1e-8)
        assert nxt.profile.symmetry_defect() == 0.0


class TestEvolve:
    def test_round_stays_round(self):
        st = zf.make_state(zf.ConformalProfile(u=np.zeros(257)))
        states = zf.evolve(st, 0.1, checkpoint_every=0.05)
        for s in states:
            assert s.max_abs_k_minus_1 < 1e-9

    def test_checkpoint_cadence(self, gong_conf):
        st = zf.make_state(gong_conf.copy())
        states = zf.evolve(st, 0.01, checkpoint_every=0.0025)
        times = [s.t for s in states]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.01, abs=1e-12)
        assert len(times) == 5

    def test_gong_invariants_along_flow(self, gong_conf):
        st = zf.make_state(gong_conf.copy())
        states = zf.evolve(st, 0.01, checkpoint_every=0.005)
        for s in states:
            assert s.area == pytest.approx(FOUR_PI, abs=1e-8)
            assert s.profile.symmetry_defect() < 1e-12

    def test_equator_length_decreasing(self, gong_conf):
        st = zf.make_state(gong_conf.copy())
        states = zf.evolve(st, 0.01, checkpoint_every=0.002)
        series = zf.equator_length_series(states)
        lengths = [l for _, l in series]
        assert all(b < a for a, b in zip(lengths, lengths[1:]))

    def test_deterministic(self, gong_conf):
        a = zf.evolve(zf.make_state(gong_conf.copy()), 0.002)[-1]
        b = zf.evolve(zf.make_state(gong_conf.copy()), 0.002)[-1]
        assert np.array_equal(a.profile.u, b.profile.u)

    def test_matches_flow_step(self, areanorm_p):
        # the kernel loop against the independent one-step path
        st = zf.make_state(zf.to_conformal(areanorm_p, n_nodes=512))
        dt = 0.5 * stability_dt(st.profile)
        stepped = st
        for _ in range(20):
            stepped = zf.flow_step(stepped, dt)
        final = zf.evolve(st, 20 * dt, dt_cap=dt)[-1]
        np.testing.assert_allclose(final.profile.u, stepped.profile.u,
                                   rtol=0, atol=1e-12)
        assert final.t == pytest.approx(stepped.t, abs=1e-15)

    @pytest.mark.parametrize("n", [513, 1024])
    def test_automatic_dt_matches_flow_step(self, areanorm_p, n):
        # the one-exp kernel with its own dt rule against the one-step path
        st = zf.make_state(zf.to_conformal(areanorm_p, n_nodes=n))
        stepped = st
        for _ in range(50):
            stepped = zf.flow_step(stepped, stability_dt(stepped.profile))
        final = zf.evolve(st, stepped.t)[-1]
        np.testing.assert_allclose(final.profile.u, stepped.profile.u,
                                   rtol=0, atol=1e-12)
        assert final.t == stepped.t
        assert final.profile.symmetry_defect() == 0.0

    def test_nan_state_raises(self, gong_conf):
        c = gong_conf.copy()
        c.u[100] = np.nan
        with pytest.raises(FlowInstabilityError):
            zf.evolve(zf.make_state(c), 1e-3)

    def test_blowup_attaches_last_checkpoint(self):
        # three times the stable step blows up at t ~ 2.4e-3
        c0 = cli.build_conformal(
            cli.RunConfig(surface="gong_normalized", n_nodes=256))
        with pytest.raises(FlowInstabilityError) as exc:
            zf.evolve(zf.make_state(c0), 0.05, checkpoint_every=1e-3,
                      stability_factor=3.0)
        st = exc.value.state
        assert np.all(np.isfinite(st.profile.u))
        assert st.t in (0.0, 1e-3, 2e-3)

    def test_blowup_is_silent(self):
        # the typed error reports the blow-up; numpy adds no warnings
        c0 = cli.build_conformal(
            cli.RunConfig(surface="gong_normalized", n_nodes=256))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FlowInstabilityError):
                zf.evolve(zf.make_state(c0), 0.05, stability_factor=3.0)
        assert [str(w.message) for w in caught] == []

    def test_rejects_bad_horizon(self, gong_conf):
        with pytest.raises(ValueError):
            zf.evolve(zf.make_state(gong_conf.copy()), -1.0)


class TestLprime:
    def test_round_is_zero(self, round_p):
        assert zf.lprime_analytic(round_p) == pytest.approx(0.0, abs=1e-6)

    def test_areanorm_gong_value(self, areanorm_p):
        assert zf.lprime_analytic(areanorm_p) == pytest.approx(
            LPRIME_AREANORM, abs=1e-4)

    def test_unit_equator_gong_value(self, gongn_p):
        # rho_eq = 1 here, so the -2 pi (K_eq - Kbar) form applies verbatim
        assert zf.lprime_analytic(gongn_p) == pytest.approx(
            LPRIME_UNIT_EQUATOR, abs=1e-4)

    def test_michel_is_zero(self, michel_p):
        # K = 1 on the equator for every odd-function surface
        assert zf.lprime_analytic(michel_p) == pytest.approx(0.0, abs=1e-5)

    def test_numeric_matches_analytic(self, gong_conf):
        back = zf.conformal_to_arclength(gong_conf, n_nodes=8193)
        analytic = zf.lprime_analytic(back)
        res = zf.lprime_numeric(zf.make_state(gong_conf.copy()),
                                (1e-3, 5e-4, 2.5e-4))
        assert not res.flagged
        assert res.value == pytest.approx(analytic, abs=1e-3)

    def test_round_numeric_is_zero(self):
        st = zf.make_state(zf.ConformalProfile(u=np.zeros(2049)))
        res = zf.lprime_numeric(st, (1e-3, 5e-4))
        assert abs(res.value) < 1e-8

    def test_single_dt_flagged(self, gong_conf):
        res = zf.lprime_numeric(zf.make_state(gong_conf.copy()), (1e-2,))
        assert res.flagged

    def test_empty_dt_list_rejected(self, gong_conf):
        with pytest.raises(ValueError):
            zf.lprime_numeric(zf.make_state(gong_conf.copy()), ())

    def test_richardson_order(self, gong_conf):
        # successive extrapolation residuals should shrink at order >= 1.8
        res = zf.lprime_numeric(zf.make_state(gong_conf.copy()),
                                (2e-3, 1e-3, 5e-4, 2.5e-4))
        s = res.slopes
        # raw forward slopes converge at first order; their Richardson pairs
        # at second: check the error ratio of the paired sequence
        r_coarse = 2 * s[2] - s[3]   # pair at dt = 1e-3
        r_mid = 2 * s[1] - s[2]      # pair at dt = 5e-4
        r_fine = 2 * s[0] - s[1]     # pair at dt = 2.5e-4
        order = np.log2(abs(r_coarse - r_mid) / abs(r_mid - r_fine))
        assert order >= 1.8
