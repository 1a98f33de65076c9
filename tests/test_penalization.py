"""Penalty factors: chi-square tail oracles and the refit-with-outlier behavior."""
from __future__ import annotations

import numpy as np
import pytest
import scipy.stats as st

from ivrobust.distributions import chisq_sf
from ivrobust.exceptions import InsufficientInstrumentsError
from ivrobust.penalization import (
    PENALTY_SLOPE,
    _penalty,
    _tail,
    cochran_q_egger,
    cochran_q_ivw,
    penalize_weights,
)
from ivrobust.summary_data import harmonize
from ivrobust.wls import egger, inverse_variance_weights, ivw

from _helpers import make_set, random_summary


def set_with_ratios(ratios, se_y=0.05):
    ratios = np.asarray(ratios, dtype=float)
    beta_x = np.full(ratios.size, 0.2)
    return make_set(
        beta_x,
        np.full(ratios.size, 0.01),
        ratios * beta_x,
        np.full(ratios.size, se_y),
        harmonized=True,
    )


class TestFactors:
    def test_critical_value_boundary(self):
        s = set_with_ratios([0.0, 0.0, 0.0])
        rep = cochran_q_ivw(s, 0.0)
        np.testing.assert_array_equal(rep.factor_j, 1.0)
        var = 0.05**2 / 0.2**2
        # exactly at the 5% critical value the factor is 1 (20 * 0.05)
        crit = st.chi2.ppf(0.95, 1)
        rep = cochran_q_ivw(set_with_ratios([np.sqrt(crit * var), 0.0, 0.0]), 0.0)
        assert rep.factor_j[0] == pytest.approx(1.0, abs=1e-9)
        # below it the cap binds exactly; above it the factor drops below 1
        rep = cochran_q_ivw(set_with_ratios([np.sqrt(3.8 * var), 0.0, 0.0]), 0.0)
        assert rep.factor_j[0] == 1.0
        rep = cochran_q_ivw(set_with_ratios([np.sqrt(4.2 * var), 0.0, 0.0]), 0.0)
        assert rep.factor_j[0] < 1.0

    def test_q_ten_factor(self):
        var = 0.05**2 / 0.2**2
        theta = np.sqrt(10.0 * var)
        rep = cochran_q_ivw(set_with_ratios([theta, 0.0]), 0.0)
        assert rep.q_j[0] == pytest.approx(10.0, rel=1e-12)
        assert rep.p_j[0] == pytest.approx(0.001565402258002549, rel=1e-10)
        assert rep.factor_j[0] == pytest.approx(0.0313, abs=5e-5)

    def test_p_values_match_scipy(self):
        rng = np.random.default_rng(71)
        s = random_summary(rng, 15)
        rep = cochran_q_ivw(s, 0.05)
        np.testing.assert_allclose(rep.p_j, st.chi2.sf(rep.q_j, 1), atol=1e-12)
        np.testing.assert_allclose(rep.factor_j, np.minimum(1.0, 20.0 * rep.p_j), rtol=1e-14)

    def test_factors_bounded(self):
        rng = np.random.default_rng(73)
        for _ in range(20):
            s = random_summary(rng, 10)
            rep = cochran_q_ivw(s, float(rng.normal()))
            assert np.all(rep.factor_j >= 0.0)
            assert np.all(rep.factor_j <= 1.0)
            assert rep.q_total == pytest.approx(rep.q_j.sum(), rel=1e-12)
            assert rep.df_total == 9


class TestClosedFormTail:
    """The df = 1 tail erfc(sqrt(q / 2)) against scipy and the general series."""

    def test_matches_scipy_over_range(self):
        q = np.concatenate([np.linspace(0.0, 1400.0, 20_001),
                            np.geomspace(1e-12, 1400.0, 2_001)])
        p = _tail(q)
        expected = st.chi2.sf(q, 1)
        assert np.all(expected > 0.0)
        rel = np.abs(p - expected) / expected
        assert rel.max() <= 1e-12

    def test_one_at_zero(self):
        p, factor = _tail(np.array([0.0])), _penalty(np.array([0.0]))
        assert p[0] == 1.0
        assert factor[0] == 1.0

    def test_factors_match_general_tail(self):
        rng = np.random.default_rng(89)
        q = np.concatenate([rng.exponential(10.0, 2_000), rng.uniform(0.0, 1400.0, 2_000)])
        factor = _penalty(q)
        old = np.minimum(1.0, PENALTY_SLOPE * np.array([chisq_sf(x, 1) for x in q]))
        below = factor < 1.0
        assert below.sum() > 2_000
        np.testing.assert_array_equal(below, old < 1.0)
        np.testing.assert_allclose(factor[below], old[below], rtol=1e-12, atol=0.0)


class TestCochranQ:
    def test_ivw_direct_formula(self):
        rng = np.random.default_rng(79)
        s = random_summary(rng, 8)
        theta_ref = 0.04
        rep = cochran_q_ivw(s, theta_ref)
        ratio = s.beta_y / s.beta_x
        var = s.se_y**2 / s.beta_x**2
        np.testing.assert_allclose(rep.q_j, (ratio - theta_ref) ** 2 / var, rtol=1e-12)

    def test_egger_exact_reference_gives_zero(self):
        x = np.array([0.05, 0.1, 0.2, 0.3])
        a, b = 0.01, 0.5
        s = make_set(x, np.full(4, 0.01), a + b * x, np.full(4, 0.05), harmonized=True)
        rep = cochran_q_egger(s, a, b)
        np.testing.assert_allclose(rep.q_j, 0.0, atol=1e-24)
        np.testing.assert_array_equal(rep.factor_j, 1.0)
        assert rep.df_total == 2
        assert rep.reference_intercept == a

    def test_egger_direct_formula(self):
        rng = np.random.default_rng(83)
        s = harmonize(random_summary(rng, 9))
        rep = cochran_q_egger(s, 0.01, 0.2)
        expected = ((s.beta_y - 0.01 - 0.2 * s.beta_x) / s.se_y) ** 2
        np.testing.assert_allclose(rep.q_j, expected, rtol=1e-12)

    def test_egger_needs_three(self):
        s = set_with_ratios([0.1, 0.2])
        with pytest.raises(InsufficientInstrumentsError):
            cochran_q_egger(s, 0.0, 0.1)


class TestPenalizedRefit:
    def test_homogeneous_data_is_noop(self):
        # every variant consistent with the reference: weights unchanged,
        # refit identical to the base fit
        s = set_with_ratios([0.1, 0.11, 0.09, 0.1, 0.105])
        base = ivw(s)
        rep = cochran_q_ivw(s, base.theta)
        w = penalize_weights(inverse_variance_weights(s), rep)
        np.testing.assert_array_equal(w.w, inverse_variance_weights(s).w)
        refit = ivw(s, weights=w)
        assert refit.theta == base.theta
        assert refit.se == base.se

    def test_outlier_downweighted(self):
        # one wildly displaced ratio drags the reference, so every variant is
        # penalized, but the outlier's factor collapses far harder and the
        # refit lands back on the bulk value
        ratios = [0.1, 0.098, 0.102, 0.1, 0.099, 0.101, 0.1, 0.1, 0.1, 5.0]
        s = set_with_ratios(ratios, se_y=0.02)
        base = ivw(s)
        rep = cochran_q_ivw(s, base.theta)
        assert rep.factor_j[-1] < 1e-12
        assert rep.factor_j[-1] < 1e-6 * rep.factor_j[:-1].min()
        w = penalize_weights(inverse_variance_weights(s), rep)
        refit = ivw(s, weights=w)
        assert abs(refit.theta - 0.1) < 0.01
        assert abs(base.theta - 0.1) > 0.4

    def test_egger_outlier_downweighted(self):
        x = np.linspace(0.05, 0.3, 12)
        y = 0.01 + 0.4 * x
        y[5] += 1.0
        s = make_set(x, np.full(12, 0.01), y, np.full(12, 0.05), harmonized=True)
        base = egger(s)
        rep = cochran_q_egger(s, base.intercept, base.theta)
        w = penalize_weights(inverse_variance_weights(s), rep)
        refit = egger(s, weights=w)
        assert abs(refit.theta - 0.4) < abs(base.theta - 0.4)
        assert abs(refit.theta - 0.4) < 0.02

    def test_length_mismatch(self):
        s = set_with_ratios([0.1, 0.2, 0.3])
        rep = cochran_q_ivw(s, 0.1)
        from ivrobust.wls import WeightVector

        with pytest.raises(ValueError):
            penalize_weights(WeightVector(np.ones(2)), rep)
