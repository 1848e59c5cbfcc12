"""Integer invariant arithmetic and the certification pipeline."""

import numpy as np
import pytest

import zollflow as zf
from zollflow.errors import ZollCertificationError

FOUR_PI = 4.0 * np.pi


class TestInteger:
    def test_unit_case(self):
        d = zf.weinstein_integer(FOUR_PI, 1.0)
        assert d.i_value == pytest.approx(1.0, abs=1e-15)
        assert d.nearest == 1

    def test_scaled_case(self):
        assert zf.weinstein_integer(16 * np.pi, 2.0).i_value \
            == pytest.approx(1.0, abs=1e-15)

    def test_double_cover_case(self):
        assert zf.weinstein_integer(8 * np.pi, 1.0).i_value \
            == pytest.approx(2.0, abs=1e-15)

    def test_scale_invariance_exact(self):
        for lam in (0.25, 3.0, 17.5):
            a = zf.weinstein_integer(FOUR_PI, 1.0).i_value
            b = zf.weinstein_integer(lam**2 * FOUR_PI, lam * 1.0).i_value
            assert a == pytest.approx(b, rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            zf.weinstein_integer(-1.0, 1.0)


class TestCommonPeriod:
    def test_round_pipeline(self, round_p):
        rep = zf.zoll_sweep(round_p, n_samples=8)
        L, unc = zf.common_period(rep)
        assert L == pytest.approx(1.0, abs=2e-6)
        assert unc < 1e-6
        d = zf.weinstein_integer(round_p.area(), L)
        assert d.residual < 1e-5

    def test_michel_pipeline(self, michel_p):
        rep = zf.zoll_sweep(michel_p, n_samples=8)
        L, _ = zf.common_period(rep)
        d = zf.weinstein_integer(michel_p.area(), L)
        assert d.nearest == 1 and d.residual < 1e-5

    def test_spread_too_large_rejected(self, gongn_p):
        rep = zf.zoll_sweep(gongn_p, n_samples=4)
        with pytest.raises(ZollCertificationError):
            zf.common_period(rep)

    def test_unconverged_entry_rejected(self):
        # equal periods, but one geodesic never closed to tolerance
        entries = [zf.PeriodEntry(clairaut_c=c, period=2.0 * np.pi,
                                  closure_error=0.0, converged=c != 0.5)
                   for c in (0.0, 0.5, 1.0)]
        with pytest.raises(ZollCertificationError):
            zf.common_period(zf.PeriodReport(entries=entries))


class TestDiscreteness:
    def test_l_equal_one(self):
        v = zf.discreteness_check(FOUR_PI, 1.0)
        assert v.passed and v.integer == 2

    def test_l_inv_sqrt2(self):
        v = zf.discreteness_check(FOUR_PI, 1.0 / np.sqrt(2.0))
        assert v.passed and v.integer == 4

    def test_generic_l_fails(self):
        v = zf.discreteness_check(FOUR_PI, 0.9)
        assert not v.passed

    def test_rejects_unnormalized_volume(self):
        with pytest.raises(ValueError):
            zf.discreteness_check(10.0, 1.0)
