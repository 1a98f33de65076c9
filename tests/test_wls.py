"""Closed-form and least-squares oracles for the weighted regression estimators."""
from __future__ import annotations

import math

import numpy as np
import pytest

from ivrobust.exceptions import (
    DegenerateInstrumentError,
    InsufficientInstrumentsError,
    SingularDesignError,
)
from ivrobust.distributions import normal_quantile, t_quantile
from ivrobust.summary_data import harmonize
from ivrobust.wls import (
    Estimate,
    WeightVector,
    _wls_rows,
    egger,
    instrument_strength,
    ivw,
)

from _helpers import make_set, random_summary


WORKED = make_set(
    [0.1, 0.2, 0.3], [0.01, 0.01, 0.02], [0.01, 0.02, 0.09], [0.05, 0.05, 0.05]
)


class TestIvw:
    def test_worked_example(self):
        est = ivw(WORKED)
        assert est.theta == pytest.approx(0.032 / 0.14, rel=1e-12)

    def test_fixed_se_closed_form(self):
        est = ivw(WORKED, effects="fixed")
        assert est.se == pytest.approx(1.0 / math.sqrt(0.14 / 0.05**2), rel=1e-12)

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            j = int(rng.integers(2, 15))
            s = random_summary(rng, j)
            w = 1.0 / s.se_y**2
            sq = np.sqrt(w)
            coef, rss, *_ = np.linalg.lstsq(
                (sq * s.beta_x)[:, None], sq * s.beta_y, rcond=None
            )
            est = ivw(s)
            assert est.theta == pytest.approx(float(coef[0]), rel=1e-10, abs=1e-12)
            sigma = math.sqrt(float(rss[0]) / (j - 1)) if rss.size else 0.0
            se_unit = float(np.sum(w * s.beta_x**2)) ** -0.5
            assert est.se == pytest.approx(se_unit * max(sigma, 1.0), rel=1e-9)

    def test_random_at_least_fixed(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            s = random_summary(rng, 8)
            fixed = ivw(s, effects="fixed")
            random = ivw(s)
            assert random.se >= fixed.se - 1e-15
            assert random.theta == fixed.theta
            # equality exactly when the residual scale is at most one
            if random.residual_scale <= 1.0:
                assert random.se == pytest.approx(fixed.se, rel=1e-14)
            else:
                assert random.se > fixed.se

    def test_single_variant_fallback(self):
        s = make_set([0.2], [0.01], [0.05], [0.1])
        est = ivw(s)
        assert est.theta == pytest.approx(0.25, rel=1e-14)
        assert est.se == pytest.approx(0.5, rel=1e-14)
        assert est.effects_model == "fixed"
        assert est.residual_scale is None
        assert any("single variant" in w for w in est.warnings)

    def test_all_zero_exposure_rejected(self):
        s = make_set([0.0, 0.0], [0.01, 0.01], [0.01, 0.02], [0.05, 0.05])
        with pytest.raises(DegenerateInstrumentError):
            ivw(s)

    def test_orientation_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            s = random_summary(rng, 7)
            a = ivw(s)
            b = ivw(harmonize(s))
            assert a.theta == pytest.approx(b.theta, rel=1e-14)
            assert a.se == pytest.approx(b.se, rel=1e-14)

    def test_outcome_sign_flip_mirrors(self):
        rng = np.random.default_rng(37)
        s = random_summary(rng, 9)
        flipped = make_set(s.beta_x, s.se_x, -s.beta_y, s.se_y)
        a, b = ivw(s), ivw(flipped)
        assert b.theta == pytest.approx(-a.theta, rel=1e-14)
        assert b.se == pytest.approx(a.se, rel=1e-14)
        assert b.p_value == pytest.approx(a.p_value, rel=1e-12)
        assert b.ci_low == pytest.approx(-a.ci_high, rel=1e-12)

    def test_outcome_scale_equivariant(self):
        rng = np.random.default_rng(41)
        s = random_summary(rng, 9)
        k = 3.5
        scaled = make_set(s.beta_x, s.se_x, k * s.beta_y, k * s.se_y)
        a, b = ivw(s), ivw(scaled)
        assert b.theta == pytest.approx(k * a.theta, rel=1e-12)
        assert b.se == pytest.approx(k * a.se, rel=1e-12)
        assert b.p_value == pytest.approx(a.p_value, rel=1e-10)

    @pytest.mark.parametrize("call, message", [
        (lambda: ivw(WORKED, weights=WeightVector(np.ones(2))), "got 2 weights for 3 variants"),
        (lambda: ivw(WORKED, effects="random"), "effects must be one of"),
        (lambda: WeightVector([]), "weights must form a non-empty 1-d vector"),
        (lambda: WeightVector(np.ones((3, 1))), "weights must form a non-empty 1-d vector"),
    ])
    def test_invalid_arguments_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()


class TestEstimate:
    @pytest.mark.parametrize("fields, message", [
        (dict(theta=math.inf, se_reported=False), "ivw: estimate must be finite, got inf"),
        (dict(theta=0.1, se=0.0, ci_low=0.0, ci_high=0.2),
         "ivw: reported se must be finite and > 0"),
        (dict(theta=0.1, se=None), "ivw: reported se must be finite and > 0"),
        (dict(theta=0.1, se=0.05, ci_low=0.1, ci_high=0.2),
         "ivw: interval must bracket the estimate"),
        (dict(theta=0.1, se=0.05, se_reported=False),
         "ivw: unreported se must leave se/ci/p unset"),
        (dict(theta=0.1, p_value=0.5, se_reported=False),
         "ivw: unreported se must leave se/ci/p unset"),
    ])
    def test_inconsistent_fields_rejected(self, fields, message):
        with pytest.raises(ValueError, match=message):
            Estimate(method="ivw", **fields)


class TestEgger:
    def test_requires_harmonized(self):
        s = make_set([-0.1, 0.2, 0.3], [0.01] * 3, [0.01, 0.02, 0.09], [0.05] * 3)
        with pytest.raises(ValueError, match="harmonized"):
            egger(s)

    def test_worked_example_coefficients(self):
        est = egger(harmonize(WORKED))
        # equal weights: plain least squares on three points
        assert est.theta == pytest.approx(0.4, rel=1e-12)
        assert est.intercept == pytest.approx(-0.04, rel=1e-10)
        assert est.df == 1

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(1000):
            j = int(rng.integers(3, 16))
            s = harmonize(random_summary(rng, j))
            w = 1.0 / s.se_y**2
            x, y = s.beta_x, s.beta_y
            sw, sx = np.sum(w), np.sum(w * x)
            sxx, sy, sxy = np.sum(w * x * x), np.sum(w * y), np.sum(w * x * y)
            det = sw * sxx - sx * sx
            slope = (sw * sxy - sx * sy) / det
            intercept = (sxx * sy - sx * sxy) / det
            resid = y - intercept - slope * x
            sigma = math.sqrt(float(np.sum(w * resid**2)) / (j - 2))
            se_slope_unit = math.sqrt(sw / det)
            se_int_unit = math.sqrt(sxx / det)
            est = egger(s)
            assert est.theta == pytest.approx(float(slope), rel=1e-9, abs=1e-12)
            assert est.intercept == pytest.approx(float(intercept), rel=1e-9, abs=1e-12)
            assert est.residual_scale == pytest.approx(sigma, rel=1e-9, abs=1e-12)
            assert est.se == pytest.approx(se_slope_unit * max(sigma, 1.0), rel=1e-9)
            assert est.intercept_se == pytest.approx(se_int_unit * max(sigma, 1.0), rel=1e-9)

    def test_exact_line_recovered(self):
        x = np.array([0.05, 0.1, 0.15, 0.2, 0.3])
        a, b = 0.02, 0.7
        s = make_set(x, np.full(5, 0.01), a + b * x, np.full(5, 0.05), harmonized=True)
        est = egger(s)
        assert est.theta == pytest.approx(b, abs=1e-10)
        assert est.intercept == pytest.approx(a, abs=1e-10)
        assert est.residual_scale == pytest.approx(0.0, abs=1e-7)
        # zero residual scale still yields a usable (normal-reference) interval
        assert est.ci_low < b < est.ci_high

    def test_underdispersion_interval_is_wider_of_two(self):
        rng = np.random.default_rng(47)
        seen = 0
        for _ in range(200):
            s = harmonize(random_summary(rng, 6))
            est = egger(s)
            if est.residual_scale >= 1.0:
                continue
            seen += 1
            half_norm = normal_quantile(0.975) * est.se
            half_t_raw = (
                t_quantile(0.975, est.df) * est.se * est.residual_scale
            )
            half = max(half_norm, half_t_raw)
            assert est.ci_high - est.theta == pytest.approx(half, rel=1e-10)
            assert est.theta - est.ci_low == pytest.approx(half, rel=1e-10)
        assert seen > 10

    def test_too_few_variants(self):
        s = make_set([0.1, 0.2], [0.01] * 2, [0.01, 0.02], [0.05] * 2, harmonized=True)
        with pytest.raises(InsufficientInstrumentsError):
            egger(s)

    def test_identical_exposures_singular(self):
        s = make_set([0.1] * 4, [0.01] * 4, [0.01, 0.02, 0.0, 0.01], [0.05] * 4, harmonized=True)
        with pytest.raises(SingularDesignError):
            egger(s)

    def test_balanced_direct_effects_leave_both_unbiased(self):
        # direct effects orthogonal (under the weights) to both the constant
        # and the exposure associations: zero-intercept and free-intercept
        # fits agree with the truth
        x = np.array([0.1, 0.15, 0.2, 0.25, 0.3])
        se_y = np.array([0.04, 0.05, 0.06, 0.045, 0.055])
        w = se_y**-2.0
        basis = np.column_stack([np.ones(5), x])
        alpha0 = np.array([0.03, -0.01, 0.02, -0.02, 0.015])
        # project out span{1, x} in the w-inner product
        gram = basis.T @ (w[:, None] * basis)
        alpha = alpha0 - basis @ np.linalg.solve(gram, basis.T @ (w * alpha0))
        theta = 0.12
        s = make_set(x, np.full(5, 0.01), alpha + theta * x, se_y, harmonized=True)
        assert ivw(s).theta == pytest.approx(theta, abs=1e-12)
        est = egger(s)
        assert est.theta == pytest.approx(theta, abs=1e-10)
        assert est.intercept == pytest.approx(0.0, abs=1e-12)


class TestInstrumentStrength:
    def test_identical_scaled_strengths_give_zero(self):
        # beta_x / se_y constant: no heterogeneity at all
        s = make_set([0.1, 0.2, 0.3], [0.01] * 3, [0.0, 0.0, 0.0], [0.05, 0.1, 0.15])
        assert instrument_strength(s) == 0.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            s = random_summary(rng, 12)
            v = s.beta_x / s.se_y
            se_v = s.se_x / s.se_y
            w = se_v**-2.0
            vbar = np.sum(w * v) / np.sum(w)
            q = float(np.sum(w * (v - vbar) ** 2))
            i2 = instrument_strength(s)
            expected_i2 = max(0.0, (q - (s.j - 1)) / q) if q > 0 else 0.0
            assert i2 == pytest.approx(expected_i2, rel=1e-12)
            assert 0.0 <= i2 < 1.0

    def test_needs_two_variants(self):
        s = make_set([0.1], [0.01], [0.0], [0.05])
        with pytest.raises(InsufficientInstrumentsError):
            instrument_strength(s)


class TestKernelRowIndependence:
    """A row's fit from the batched kernel does not depend on the rest of its batch."""

    @pytest.mark.parametrize("j, rows", [(2, 500), (3, 500), (25, 500), (25_000, 40)])
    def test_sub_batches_bit_identical(self, j, rows):
        rng = np.random.default_rng(j)
        for p in (1, 2):
            design = rng.normal(size=(j, p)) * 10.0 ** rng.uniform(-2.0, 2.0, size=p)
            response = rng.normal(size=j)
            w = rng.random((rows, j)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, 1))
            w[0] -= 0.5  # negative weights, as in the sandwich's bread
            full = _wls_rows(w, design, response)
            sizes = {1, 2, rows - 1, *rng.integers(1, rows, size=8).tolist()}
            batches = [np.sort(rng.choice(rows, size=k, replace=False)) for k in sorted(sizes)]
            batches += [np.array([i]) for i in range(rows)]  # each row alone
            for rows_in in batches:
                for got, ref in zip(_wls_rows(w[rows_in], design, response), full):
                    np.testing.assert_array_equal(got, ref[rows_in])
