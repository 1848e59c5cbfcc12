"""Normalized flow stepping, diagnostics, first variation."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import zollflow as zf
from zollflow import _kernels, cli, ricci
from zollflow.errors import FlowInstabilityError
from zollflow.profile import FOUR_PI, SYMMETRY_TOL, simpson_weights
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
        du = (np.log(nxt.profile.equator()[1])
              - np.log(gong_state.profile.equator()[1]))
        # d ln rho_max/dt = du/dt = Kbar - K_eq at the equator, to first
        # order
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
        lengths = [s.equator_length() for s in states]
        assert all(b < a for a, b in zip(lengths, lengths[1:]))

    def test_deterministic(self, gong_conf):
        a = zf.evolve(zf.make_state(gong_conf.copy()), 0.002)[-1]
        b = zf.evolve(zf.make_state(gong_conf.copy()), 0.002)[-1]
        assert np.array_equal(a.profile.u, b.profile.u)

    @staticmethod
    def _explicit_oracle(st, n_steps=100):
        """n_steps flow_step calls at half the stability step, and the time
        error of the explicit scheme at its default step (the whole
        stability step), from the oracle's distance to a run at half its
        step (first order: halving the step halves the error)."""
        dt = 0.5 * stability_dt(st.profile)
        oracle = fine = st
        for _ in range(n_steps):
            oracle = zf.flow_step(oracle, dt)
        for _ in range(2 * n_steps):
            fine = zf.flow_step(fine, 0.5 * dt)
        oracle_error = 2.0 * np.max(np.abs(oracle.profile.u - fine.profile.u))
        return oracle, 2.0 * oracle_error

    @pytest.mark.parametrize("n", [513, 1024])
    def test_automatic_dt_matches_flow_step(self, areanorm_p, n):
        # the BDF3 kernel with its own dt rule against the explicit one-step
        # path, on the half grid
        st = zf.make_state(zf.to_conformal(areanorm_p, n_nodes=n))
        oracle, explicit_error = self._explicit_oracle(st)
        final = zf.evolve(st, oracle.t)[-1]
        assert np.max(np.abs(final.profile.u - oracle.profile.u)) \
            <= explicit_error
        assert final.t == oracle.t
        assert final.profile.symmetry_defect() == 0.0

    @pytest.mark.parametrize("n", [513, 1024])
    @pytest.mark.parametrize("surface, bump", [
        pytest.param("gong", 0.05, id="0.05"),
        pytest.param("gong", 0.5e-12, id="5e-13"),
        pytest.param("michel", 0.0, id="michel")])
    def test_asymmetric_data_matches_flow_step(self, areanorm_p, n, surface,
                                               bump):
        # as above on u + bump cos(theta): a symmetry defect of 0.1 steps the
        # full grid; one of 1e-12, below SYMMETRY_TOL, is averaged away once
        # and then steps the half grid.  The gauge of the Michel surface
        # h = 0.3 (x - x^3) has a defect of 0.1 of its own
        if surface == "michel":
            c = cli.build_conformal(cli.RunConfig(
                surface="michel", coeffs=(0.3, -0.3), n_nodes=n))
        else:
            c = zf.to_conformal(areanorm_p, n_nodes=n)
            c.u += bump * np.cos(np.linspace(0.0, np.pi, n))
            assert c.symmetry_defect() == pytest.approx(2.0 * bump,
                                                        rel=1e-3)
        symmetric = c.symmetry_defect() < SYMMETRY_TOL
        st = zf.make_state(c)
        oracle, explicit_error = self._explicit_oracle(st)
        final = zf.evolve(st, oracle.t)[-1]
        assert np.max(np.abs(final.profile.u - oracle.profile.u)) \
            <= explicit_error
        assert final.t == oracle.t
        if symmetric:
            assert final.profile.symmetry_defect() == 0.0
        else:
            assert final.profile.symmetry_defect() > 0.09

    @pytest.mark.parametrize("bump", [0.0, 0.05])
    @pytest.mark.parametrize("checkpoint_every", [None, 0.005])
    def test_third_order_in_dt(self, bump, checkpoint_every):
        # halving the step through dt_cap cuts the error against a fine run
        # about eightfold, on the half grid and on the full grid, and also
        # when every checkpoint restarts the multistep scheme.  The caps
        # stay below interval / MIN_STEPS, which would otherwise bind both
        n = 513
        T = 0.02
        c = cli.build_conformal(
            cli.RunConfig(surface="gong_normalized", n_nodes=n))
        c.u += bump * np.cos(np.linspace(0.0, np.pi, n))
        st = zf.make_state(c)
        interval = checkpoint_every or T
        dt = min(ricci.flow_dt(c), interval / (2 * ricci.MIN_STEPS))

        def run(dt_cap):
            return zf.evolve(st, T, checkpoint_every=checkpoint_every,
                             dt_cap=dt_cap)[-1].profile.u

        fine = run(dt / 16)
        err = [np.max(np.abs(run(cap) - fine)) for cap in (dt, dt / 2)]
        assert err[0] / err[1] >= 7.0

    def test_round_fixed_point_long_run(self):
        # the round sphere stays at its discrete fixed point over a long run,
        # and the gong stays finite at area 4 pi
        final = zf.evolve(zf.make_state(zf.ConformalProfile(u=np.zeros(257))),
                          1.5)[-1]
        assert final.area == pytest.approx(FOUR_PI, abs=1e-8)
        assert np.max(np.abs(final.profile.u)) < 1e-9
        c0 = cli.build_conformal(
            cli.RunConfig(surface="gong_normalized", n_nodes=64))
        states = zf.evolve(zf.make_state(c0), 1.5, checkpoint_every=0.5)
        for st in states[1:]:
            assert np.all(np.isfinite(st.profile.u))
            assert st.area == pytest.approx(FOUR_PI, abs=1e-8)
        assert states[-1].max_abs_k_minus_1 < states[0].max_abs_k_minus_1

    def test_step_budget_attaches_state_reached(self, monkeypatch, gong_conf):
        # an interval that needs more than MAX_STEPS steps is refused before
        # it is stepped, with the state it starts from: the input shifted
        # to area 4 pi
        monkeypatch.setattr(ricci, "MAX_STEPS", 5)
        st = zf.make_state(gong_conf.copy())
        with pytest.raises(FlowInstabilityError) as exc:
            zf.evolve(st, 1e-3)
        reached = exc.value.state
        assert reached.t == 0.0
        assert np.all(np.isfinite(reached.profile.u))
        assert np.ptp(reached.profile.u - st.profile.u) < 1e-15
        assert reached.area == pytest.approx(FOUR_PI, rel=1e-14)

    @pytest.mark.parametrize("n", [512, 513])
    def test_first_state_is_renormalized(self, n, gong_conf):
        # the t = 0 state is the one the first step starts from, at area
        # 4 pi like every later state: the round sphere, a fixed point of
        # the flow, keeps its equator length to rounding from t = 0 on
        st = zf.make_state(zf.ConformalProfile(u=np.zeros(n)))
        assert abs(st.area - FOUR_PI) > 1e-11  # the grid's area error
        states = zf.evolve(st, 0.1, checkpoint_every=0.025)
        lengths = [s.equator_length() for s in states]
        assert max(lengths) - min(lengths) <= 4.0 * math.ulp(2.0 * np.pi)
        states += zf.evolve(zf.make_state(gong_conf.copy()), 1e-3)
        for s in states:
            assert s.area == pytest.approx(FOUR_PI, rel=1e-14)

    def test_nan_state_raises(self, gong_conf):
        c = gong_conf.copy()
        c.u[100] = np.nan
        with pytest.raises(FlowInstabilityError):
            zf.evolve(zf.make_state(c), 1e-3)

    @staticmethod
    def _poison_second_interval(monkeypatch, value):
        # the implicit step does not blow up by itself, so the state is
        # poisoned where the kernel starts its second checkpoint interval
        kernel = _kernels.flow_kernel
        calls = []

        def poisoned(u, *args):
            calls.append(u)
            if len(calls) == 2:
                u[len(u) // 3] = value
            return kernel(u, *args)

        monkeypatch.setattr(_kernels, "flow_kernel", poisoned)

    def test_blowup_attaches_last_checkpoint(self, monkeypatch):
        self._poison_second_interval(monkeypatch, np.nan)
        c0 = cli.build_conformal(
            cli.RunConfig(surface="gong_normalized", n_nodes=256))
        with pytest.raises(FlowInstabilityError) as exc:
            zf.evolve(zf.make_state(c0), 0.05, checkpoint_every=1e-3)
        st = exc.value.state
        assert np.all(np.isfinite(st.profile.u))
        assert st.t in (0.0, 1e-3, 2e-3)

    def test_blowup_is_silent(self, monkeypatch):
        # the typed error reports the blow-up; numpy adds no warnings, also
        # when e^{2u} overflows
        self._poison_second_interval(monkeypatch, 1e3)
        c0 = cli.build_conformal(
            cli.RunConfig(surface="gong_normalized", n_nodes=256))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(FlowInstabilityError):
                zf.evolve(zf.make_state(c0), 0.05, checkpoint_every=1e-3)
        assert [str(w.message) for w in caught] == []

    def test_rejects_bad_horizon(self, gong_conf):
        with pytest.raises(ValueError):
            zf.evolve(zf.make_state(gong_conf.copy()), -1.0)

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_rejects_nonfinite_horizon(self, T):
        st = zf.make_state(zf.ConformalProfile(u=np.zeros(65)))
        with pytest.raises(ValueError, match="positive, finite"):
            zf.evolve(st, T)

    @pytest.mark.parametrize("name", ["checkpoint_every", "dt_cap"])
    def test_rejects_nan_setting_before_any_work(self, monkeypatch, name):
        # a NaN interval made math.ceil raise after the t = 0
        # renormalization, and a NaN cap was silently ignored
        def no_work(*args, **kwargs):
            raise AssertionError("the kernel ran")

        monkeypatch.setattr(_kernels, "flow_kernel", no_work)
        st = zf.make_state(zf.ConformalProfile(u=np.zeros(65)))
        with pytest.raises(ValueError, match=f"{name} must not be NaN"):
            zf.evolve(st, 0.1, **{name: math.nan})

    @pytest.mark.parametrize("T", [1e-17, 1e-20, 1e-300])
    def test_reaches_tiny_horizon(self, gong_conf, T):
        # the end test is relative to the checkpoint interval, so a horizon
        # below 1e-15 is stepped to, not dropped
        states = zf.evolve(zf.make_state(gong_conf.copy()), T)
        assert [s.t for s in states] == [0.0, T]
        assert states[-1].equator_length() == pytest.approx(
            states[0].equator_length(), rel=1e-14)

    def test_refuses_horizon_below_start_time_rounding(self):
        st = dataclasses.replace(
            zf.make_state(zf.ConformalProfile(u=np.zeros(65))), t=1.0)
        with pytest.raises(ValueError, match="start time"):
            zf.evolve(st, 1e-17)

    def test_rounding_remainder_takes_no_step(self):
        # ten steps of 0.1 and three of 0.3 end 1.1e-16 short of the
        # horizon: that remainder is rounding, not one more interval
        st = zf.make_state(zf.ConformalProfile(u=np.zeros(65)))
        for T, every, n in ((1.0, 0.1, 10), (0.9, 0.3, 3)):
            times = [s.t for s in zf.evolve(st, T, checkpoint_every=every)]
            assert len(times) == n + 1, (T, times)
            assert times[-1] == pytest.approx(T, abs=1e-15)


class TestFlowGrid:
    @pytest.mark.parametrize("n, half", [(512, 256), (513, 257)])
    def test_one_read_only_grid_per_size(self, n, half):
        for symmetric, m in ((True, half), (False, n)):
            grid = ricci.flow_grid(n, symmetric)
            assert ricci.flow_grid(n, symmetric) is grid
            assert grid.m == m
            for x in (grid.ws, grid.a, grid.b, grid.ab):
                assert x.shape == (m,) and not x.flags.writeable
            assert np.array_equal(grid.ab, grid.a + grid.b)
        # the folded weights carry the whole grid's area
        assert ricci.flow_grid(n, True).ws.sum() == pytest.approx(
            zf.profile.conformal_grid(n).ws.sum(), rel=1e-15)

    @pytest.mark.parametrize("n", [5, 6, 512, 513, 1024, 1025])
    def test_grids_bitwise_from_stencil_formulas(self, n):
        # the flow's stencil as first written, and cos theta for the
        # equator's derivatives: the record and its fold must reproduce
        # them bit for bit, so that no flow moves
        theta = np.linspace(0.0, np.pi, n)
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        cot_t = np.zeros(n)
        cot_t[1:-1] = np.cos(theta[1:-1]) / sin_t[1:-1]
        h = np.pi / (n - 1)
        h2 = h * h
        ws = simpson_weights(n, h) * sin_t
        a = 1.0 / h2 + cot_t / (2.0 * h)
        b = 1.0 / h2 - cot_t / (2.0 * h)
        a[0], b[0] = 4.0 / h2, 0.0
        a[-1], b[-1] = 0.0, 4.0 / h2
        record = zf.profile.conformal_grid(n)
        assert len(record) == 5
        for got, want in zip(record, (sin_t, cos_t, ws, a, b)):
            assert np.array_equal(got, want)
        full = ricci.flow_grid(n, False)
        assert full.m == n
        for got, want in zip(full[1:], (ws, a, b, a + b)):
            assert np.array_equal(got, want)
        m = (n + 1) // 2
        ws_half = ws[:m] + ws[::-1][:m]
        if n % 2 == 1:
            ws_half[-1] *= 0.5
            b[m - 1] += a[m - 1]
        a_half, b_half = a[:m].copy(), b[:m]
        a_half[-1] = 0.0
        half = ricci.flow_grid(n, True)
        assert half.m == m
        for got, want in zip(half[1:], (ws_half, a_half, b_half,
                                        a_half + b_half)):
            assert np.array_equal(got, want)

    def test_evolve_builds_no_grid(self, gong_conf):
        st = zf.make_state(gong_conf.copy())
        zf.evolve(st, 1e-3)
        before = ricci.flow_grid.cache_info()
        zf.evolve(st, 1e-3, checkpoint_every=5e-4)
        after = ricci.flow_grid.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + 1

    def test_kernel_raises_with_u_unchanged(self, gong_conf):
        u = gong_conf.u.copy()
        u[100] = np.nan
        for symmetric in (True, False):
            v = u.copy()
            with pytest.raises(FlowInstabilityError):
                _kernels.flow_kernel(v, ricci.flow_grid(len(u), symmetric),
                                     1e-4, 3)
            assert np.array_equal(v, u, equal_nan=True)


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

    @pytest.mark.parametrize("n", [512, 513, 1024])
    def test_round_l0_after_renormalization(self, n):
        # the grid's area error of u = 0 is not a slope: l0 is taken after
        # the flow's first renormalization, so the round sphere's slopes
        # are rounding noise, a few ulps of 2 pi over dt (the grid's area
        # error alone gave -1.7e-7 at 512 nodes)
        st = zf.make_state(zf.ConformalProfile(u=np.zeros(n)))
        res = zf.lprime_numeric(st, (1e-3, 5e-4, 2.5e-4))
        assert abs(res.value) < 1e-10
        assert not res.flagged

    def test_kernel_without_steps_only_renormalizes(self, gong_conf):
        u = gong_conf.u.copy()
        ws = zf.profile.conformal_grid(len(u)).ws
        _kernels.flow_kernel(u, ricci.flow_grid(len(u), True), 0.0, 0)
        shift = u - gong_conf.u
        assert np.ptp(shift) < 1e-15
        area = 2.0 * np.pi * float(ws @ np.exp(2.0 * u))
        assert area == pytest.approx(FOUR_PI, rel=1e-14)

    def test_single_dt_flagged(self, gong_conf):
        res = zf.lprime_numeric(zf.make_state(gong_conf.copy()), (1e-2,))
        assert res.flagged

    def test_empty_dt_list_rejected(self, gong_conf):
        with pytest.raises(ValueError):
            zf.lprime_numeric(zf.make_state(gong_conf.copy()), ())

    @pytest.mark.parametrize("dts", [(1e-3, 5e-4, 5e-4), (1e-3, 0.0),
                                     (1e-3, -5e-4), (1e-3, math.nan),
                                     (1e-3, math.inf)])
    def test_bad_horizons_refused_before_any_flow(self, monkeypatch,
                                                  gong_conf, dts):
        # a repeated horizon made Neville divide by a zero node gap
        def no_flow(*args, **kwargs):
            raise AssertionError("a flow ran")

        monkeypatch.setattr(ricci, "evolve", no_flow)
        with pytest.raises(ValueError, match="distinct, positive and finite"):
            zf.lprime_numeric(zf.make_state(gong_conf.copy()), dts)

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
