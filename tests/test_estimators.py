"""The method registry: id validation, seed isolation, and penalized wiring."""
from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from ivrobust import estimators
from ivrobust.estimators import ALL_METHODS, run_methods
from ivrobust.median_methods import bootstrap_se, penalized_weighted_median
from ivrobust.exceptions import (
    DegenerateInstrumentError,
    EstimationError,
    InsufficientInstrumentsError,
    SingularDesignError,
)
from ivrobust.penalization import cochran_q_egger, cochran_q_ivw, penalize_weights
from ivrobust.summary_data import SummarySet, harmonize
from ivrobust.wls import egger, inverse_variance_weights, ivw

from _helpers import make_set

MEDIANS = ("simple_median", "weighted_median", "penalized_weighted_median")


@pytest.fixture(scope="module")
def summary():
    rng = np.random.default_rng(191)
    j = 12
    beta_x = rng.uniform(0.05, 0.3, size=j) * rng.choice([-1.0, 1.0], size=j)
    beta_y = 0.1 * beta_x + rng.normal(0, 0.05, size=j)
    return make_set(
        beta_x, rng.uniform(0.005, 0.02, size=j), beta_y, np.full(j, 0.05)
    )


class TestRegistry:
    def test_all_methods_run(self, summary):
        results = run_methods(summary, seed=5, bootstrap_draws=200)
        assert tuple(results) == ALL_METHODS
        for name, est in results.items():
            assert est.method == name
            assert np.isfinite(est.theta)

    def test_unknown_method_rejected(self, summary):
        with pytest.raises(ValueError, match="unknown method"):
            run_methods(summary, ("ivw", "mode"), seed=1)

    def test_duplicate_method_rejected(self, summary):
        with pytest.raises(ValueError, match="duplicate"):
            run_methods(summary, ("ivw", "ivw"), seed=1)

    def test_request_order_preserved(self, summary):
        order = ("weighted_median", "ivw", "robust_egger")
        assert tuple(run_methods(summary, order, seed=2, bootstrap_draws=100)) == order

    def test_deterministic_for_seed(self, summary):
        a = run_methods(summary, seed=7, bootstrap_draws=200)
        b = run_methods(summary, seed=7, bootstrap_draws=200)
        assert a == b

    def test_subset_leaves_method_results_unchanged(self, summary):
        # stochastic methods read fixed streams, so dropping other
        # methods from the request cannot shift anyone's draws
        full = run_methods(summary, seed=11, bootstrap_draws=200)
        for subset in (
            ("robust_ivw",),
            ("penalized_weighted_median", "robust_egger"),
            ("simple_median", "ivw", "penalized_robust_egger"),
        ):
            got = run_methods(summary, subset, seed=11, bootstrap_draws=200)
            for name in subset:
                assert got[name] == full[name]

    def test_medians_alone_or_in_any_subset(self, summary):
        # the three medians share one set of bootstrap draws from a fixed stream,
        # so each one's Estimate is the same alone and in every combination
        alone = {m: run_methods(summary, (m,), seed=11, bootstrap_draws=200)[m]
                 for m in MEDIANS}
        for size in (1, 2, 3):
            for subset in itertools.combinations(MEDIANS, size):
                request = ("ivw", *subset, "penalized_egger")
                got = run_methods(summary, request, seed=11, bootstrap_draws=200)
                for name in subset:
                    assert got[name] == alone[name]

    def test_median_se_is_bootstrap_se_on_the_shared_stream(self, summary):
        hs = harmonize(summary)
        stream = estimators._stream(np.random.SeedSequence(11), "bootstrap")
        got = run_methods(hs, MEDIANS, seed=11, bootstrap_draws=200)
        assert got["simple_median"].se == bootstrap_se(hs, np.ones(hs.j), draws=200, seed=stream)
        assert got["weighted_median"].se == bootstrap_se(
            hs, hs.beta_x ** 2 / hs.se_y ** 2, draws=200, seed=stream)
        assert got["penalized_weighted_median"] == penalized_weighted_median(
            hs, draws=200, seed=stream)

    def test_exact_zero_draw_redrawn_once_and_shared(self, summary, monkeypatch):
        real = np.random.Generator
        shapes = []
        hs = harmonize(summary)

        def zeroing(k):
            # standard normals z whose draw z * se_x + beta_x is exactly 0 in column k
            z = -hs.beta_x[k] / hs.se_x[k]
            return [v for v in (np.nextafter(z, -np.inf), z, np.nextafter(z, np.inf))
                    if v * hs.se_x[k] + hs.beta_x[k] == 0.0]

        col = next(k for k in range(hs.j) if zeroing(k))
        z0 = zeroing(col)[0]

        class ZeroFirstDraw:
            # the first exposure draw hits beta_x = 0 exactly in one cell
            def __init__(self, bit_generator):
                self._rng = real(bit_generator)

            def standard_normal(self, size=None):
                out = self._rng.standard_normal(size)
                shapes.append(out.shape)
                if len(shapes) == 1:
                    out[3, col] = z0
                return out

        monkeypatch.setattr(np.random, "Generator", ZeroFirstDraw)
        alone = {}
        for m in MEDIANS:
            shapes.clear()
            alone[m] = run_methods(summary, (m,), seed=3, bootstrap_draws=50)[m]
            assert shapes == [(50, 12), (50, 12), (1,)]
        shapes.clear()
        joint = run_methods(summary, MEDIANS, seed=3, bootstrap_draws=50)
        assert shapes == [(50, 12), (50, 12), (1,)]
        assert joint == alone
        assert all(est.se_reported for est in joint.values())

    def test_raises_error_of_first_failing_method(self):
        # egger fails for want of variants, simple_median on the zero beta_x;
        # the error raised is the one of the first failing method requested
        s = make_set([0.0, 0.1], [0.01] * 2, [0.01, 0.02], [0.05] * 2)
        with pytest.raises(InsufficientInstrumentsError, match="egger needs at least 3"):
            run_methods(s, ("ivw", "egger", "simple_median"), seed=1, bootstrap_draws=50)

    def test_first_requested_failure_wins_and_stops(self, monkeypatch):
        # reference fits are computed on demand, so the median requested first
        # reports its own error even though the egger reference would also fail
        calls = []
        real = estimators._median_fit

        def median_fit(s, method, *args):
            if method == "weighted_median":
                calls.append(method)
            return real(s, method, *args)

        monkeypatch.setattr(estimators, "_median_fit", median_fit)
        s = make_set([0.0, 0.1], [0.01] * 2, [0.01, 0.02], [0.05] * 2)
        with pytest.raises(DegenerateInstrumentError, match="zero exposure association"):
            run_methods(s, ("ivw", "simple_median", "egger", "weighted_median"), seed=1)
        assert calls == []

    def test_effects_reach_only_the_origin_methods(self, summary):
        fixed = run_methods(summary, effects="fixed", seed=5, bootstrap_draws=50)
        default = run_methods(summary, seed=5, bootstrap_draws=50)
        for name in ("ivw", "robust_ivw", "penalized_ivw", "penalized_robust_ivw"):
            assert fixed[name].effects_model == "fixed"
        for name in ("egger", "robust_egger", "penalized_egger", "penalized_robust_egger"):
            assert fixed[name] == default[name]
            assert fixed[name].effects_model == "multiplicative_random"

    def test_harmonization_is_idempotent_entry(self, summary):
        a = run_methods(summary, seed=3, bootstrap_draws=100)
        b = run_methods(harmonize(summary), seed=3, bootstrap_draws=100)
        assert a == b


class TestPenalizedWiring:
    def test_penalized_ivw_matches_manual_pipeline(self, summary):
        hs = harmonize(summary)
        results = run_methods(summary, ("penalized_ivw",), seed=1)
        base_w = inverse_variance_weights(hs)
        ref = ivw(hs, base_w)
        w = penalize_weights(base_w, cochran_q_ivw(hs, ref.theta))
        manual = ivw(hs, w)
        est = results["penalized_ivw"]
        assert est.method == "penalized_ivw"
        assert est.theta == manual.theta
        assert est.se == manual.se

    def test_penalized_egger_matches_manual_pipeline(self, summary):
        hs = harmonize(summary)
        results = run_methods(summary, ("penalized_egger",), seed=1)
        base_w = inverse_variance_weights(hs)
        ref = egger(hs, base_w)
        w = penalize_weights(base_w, cochran_q_egger(hs, ref.intercept, ref.theta))
        manual = egger(hs, w)
        est = results["penalized_egger"]
        assert est.theta == manual.theta
        assert est.intercept == manual.intercept

    def test_penalized_robust_reuses_reference_weights(self, summary):
        # the robust penalized fits take their weights from the standard
        # (non-robust) reference fits, not from a robust reference
        from ivrobust.robust_mm import mm_regress
        from ivrobust.estimators import _stream
        from ivrobust._util import as_seed_sequence

        hs = harmonize(summary)
        base_w = inverse_variance_weights(hs)
        w = penalize_weights(base_w, cochran_q_ivw(hs, ivw(hs, base_w).theta))
        root = as_seed_sequence(13)
        _, manual = mm_regress(hs, w, intercept=False,
                               seed=_stream(root, "penalized_robust_ivw"))
        got = run_methods(summary, ("penalized_robust_ivw",), seed=13)
        assert got["penalized_robust_ivw"] == dataclasses.replace(
            manual, method="penalized_robust_ivw")


class TestUnderflowedWeights:
    """Weights that underflow to zero raise EstimationError, never a bare ValueError."""

    @pytest.mark.parametrize("method", ["penalized_ivw", "penalized_egger"])
    def test_penalty_factors_all_zero(self, method):
        # every variant is so far from the reference fit that its factor is 0
        s = make_set([0.1, 0.1, 0.2], [0.01] * 3, [1.0, -1.0, 0.5], [1e-4] * 3)
        with pytest.raises(InsufficientInstrumentsError, match="strictly positive"):
            run_methods(s, (method,), seed=1)

    @pytest.mark.parametrize("method", ["weighted_median", "penalized_weighted_median"])
    def test_inverse_variance_weights_all_zero(self, method):
        # beta_x ** 2 underflows, so every inverse-variance weight is 0
        s = make_set([1e-170, 2e-170, 3e-170], [0.01] * 3, [0.01, 0.02, 0.05], [0.05] * 3)
        with pytest.raises(InsufficientInstrumentsError, match="every weight is zero") as exc:
            run_methods(s, (method,), seed=1, bootstrap_draws=100)
        assert isinstance(exc.value, EstimationError)

    def test_simple_median_interval_collapsed(self):
        s = make_set([1e-170, 2e-170, 3e-170], [0.01] * 3, [0.01, 0.02, 0.05], [0.05] * 3)
        est = run_methods(s, ("simple_median",), seed=1, bootstrap_draws=100)["simple_median"]
        assert est.theta == 1e168
        assert not est.se_reported
        assert est.se is None and est.ci_low is None and est.p_value is None
        assert est.warnings == ("standard error unavailable", "interval collapsed")


class TestOverflowingRatio:
    """A subnormal beta_x overflows its ratio estimate: a precondition, not a bare ValueError."""

    @pytest.mark.parametrize("method", ["penalized_ivw", "penalized_robust_ivw", "simple_median",
                                        "weighted_median", "penalized_weighted_median"])
    def test_ratio_methods_raise_degenerate_instrument(self, method):
        s = make_set([1e-310, 0.1, 0.2], [0.01] * 3, [1.0, 0.01, 0.02], [0.05] * 3)
        with pytest.raises(DegenerateInstrumentError, match="'v1': ratio estimate overflows"):
            run_methods(s, (method,), seed=1, bootstrap_draws=50)

    def test_methods_without_ratios_still_fit(self):
        s = make_set([1e-310, 0.1, 0.2], [0.01] * 3, [1.0, 0.01, 0.02], [0.05] * 3)
        got = run_methods(s, ("ivw", "robust_ivw"), seed=1)
        assert all(np.isfinite(est.theta) for est in got.values())


REGRESSIONS = ALL_METHODS[:8]


class TestExtremeFiniteValues:
    """Finite values so large or small that a fit over- or underflows: an EstimationError
    or an estimate without SE, never a bare ValueError or ArithmeticError."""

    @pytest.mark.parametrize("method", ["ivw", "penalized_ivw"])
    def test_interval_rounding_onto_estimate_reports_no_se(self, method):
        s = SummarySet.from_arrays([1, 1.5, 2], [0.01] * 3, [1e8, 1.5e8, 2e8], [1e-10] * 3)
        est = run_methods(s, (method,), seed=1)[method]
        assert est.theta == 1e8
        assert not est.se_reported and est.se is None and est.p_value is None
        assert est.warnings == ("standard error unavailable", "interval collapsed")

    def test_overflowing_moments(self):
        s = SummarySet.from_arrays([1e200, 2e200, 3e200], [1.0] * 3,
                                   [1e200, 2e200, 3e200], [1.0] * 3)
        with pytest.raises(DegenerateInstrumentError, match="ivw: estimate is not finite"):
            run_methods(s, ("ivw",), seed=1)
        with pytest.raises(SingularDesignError, match="inverse Gram matrix"):
            run_methods(s, ("egger",), seed=1)
        with pytest.raises(DegenerateInstrumentError, match="ratio variance underflows"):
            run_methods(s, ("simple_median",), seed=1, bootstrap_draws=50)

    def test_overflowing_inverse_variance_weights(self):
        s = make_set([0.1, 0.2, 0.3], [0.01] * 3, [0.01, 0.02, 0.03], [1e-160] * 3)
        for method in REGRESSIONS:
            with pytest.raises(DegenerateInstrumentError, match="'v1': se_y is so small"):
                run_methods(s, (method,), seed=1)
        for method in ("weighted_median", "penalized_weighted_median"):
            with pytest.raises(DegenerateInstrumentError, match="weight overflows"):
                run_methods(s, (method,), seed=1, bootstrap_draws=50)
        # the equal-weight median needs no inverse-variance weights
        est = run_methods(s, ("simple_median",), seed=1, bootstrap_draws=50)["simple_median"]
        assert est.theta == pytest.approx(0.1)

    def test_undefined_heterogeneity_statistic(self):
        # ratios near 1e160 with infinite delta-method variances: Q_j = inf / inf
        s = make_set([1e-160, 2e-160, 3e-160], [0.01] * 3, [1.0, 2.0, 3.5], [1.0] * 3)
        assert np.isfinite(run_methods(s, ("ivw",), seed=1)["ivw"].theta)
        for method in ("penalized_ivw", "penalized_robust_ivw"):
            with pytest.raises(DegenerateInstrumentError, match="overflows to NaN"):
                run_methods(s, (method,), seed=1)

    def test_egger_intercept_se_overflow_leaves_it_unset(self):
        s = SummarySet.from_arrays(
            [-1.2e180, 3.4e180, 5.0e180, -2.1e180, -3.6e180, -2.7e180], [1e-187] * 6,
            [-2.5e-96, 6.9e-96, 1.0e-95, -4.3e-96, -7.3e-96, -5.6e-96],
            [1.1e158, 3.7e157, 1.6e157, 7.7e157, 9.2e157, 2.6e157])
        est = run_methods(s, ("egger",), seed=1)["egger"]
        assert est.se_reported and est.intercept is not None
        assert est.intercept_se is None and est.intercept_p is None

    def test_egger_determinant_free_of_overflow(self):
        # sw * sxx overflows, yet the design is well separated
        s = make_set([6.2e-65, 2.7e-65, 4.1e-65, 2.0e-65, -8.7e-66, 3.1e-65, 5.5e-65], [1e-66] * 7,
                     [-7.2e-216, -3.2e-216, -4.7e-216, -2.4e-216, 1.0e-216, -3.6e-216, -6.4e-216],
                     [5.9e-110, 1.6e-109, 2.1e-109, 1.3e-109, 1.5e-109, 2.2e-109, 6.2e-110])
        assert run_methods(s, ("egger",), seed=1)["egger"].se_reported

    def test_dominant_variant_leaves_no_intercept_model(self):
        # one weight ~1e254 beside others down to ~1e-298: sw * sxx overflows, yet
        # intercept and slope are not separable, and every intercept model says so
        s = SummarySet.from_arrays([0.1, 0.2, 0.3, 0.4, 0.5], [0.01] * 5,
                                   [0.01, 0.05, -0.02, 0.08, 0.02],
                                   [1e-127, 1e149, 3e148, 5e147, 8e148])
        for method in ("egger", "robust_egger", "penalized_egger", "penalized_robust_egger"):
            with pytest.raises(SingularDesignError, match="not separable"):
                run_methods(s, (method,), seed=1)

    def test_median_without_finite_bootstrap_se(self):
        # draws of beta_x near zero overflow beta_y / beta_x: the bootstrap SE is NaN
        s = make_set([1.0, 1.1, 0.9], [1.0] * 3, [1e308, 1.1e308, 0.9e308], [1.0] * 3)
        for method in ("simple_median", "weighted_median"):
            est = run_methods(s, (method,), seed=1, bootstrap_draws=50)[method]
            assert est.theta == 1e308
            assert est.warnings == ("standard error unavailable",)
