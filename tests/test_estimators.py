"""The method registry: id validation, seed isolation, and penalized wiring."""
from __future__ import annotations

import numpy as np
import pytest

from ivrobust import estimators
from ivrobust.estimators import ALL_METHODS, run_methods
from ivrobust.exceptions import (
    DegenerateInstrumentError,
    EstimationError,
    InsufficientInstrumentsError,
)
from ivrobust.penalization import cochran_q_egger, cochran_q_ivw, penalize_weights
from ivrobust.summary_data import harmonize
from ivrobust.wls import egger, inverse_variance_weights, ivw

from _helpers import make_set


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
        # stochastic methods read fixed per-method streams, so dropping other
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
        monkeypatch.setitem(estimators._MEDIANS, "weighted_median",
                            lambda *a, **k: calls.append("weighted_median"))
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
                               seed=_stream(root, "penalized_robust_ivw"),
                               method="penalized_robust_ivw")
        got = run_methods(summary, ("penalized_robust_ivw",), seed=13)
        assert got["penalized_robust_ivw"] == manual


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
