"""Data generation moments, summary extraction oracles, and study aggregation."""
from __future__ import annotations

import io
import math

import numpy as np
import pytest
import scipy.stats as st

from ivrobust import simulation
from ivrobust.estimators import ALL_METHODS
from ivrobust.simulation import (
    ScenarioSpec,
    RawStudy,
    extract_summary,
    generate_individual_data,
    run_study,
)

SMALL_METHODS = ("ivw", "egger", "simple_median", "weighted_median")


def rng_for(seed=0):
    return np.random.Generator(np.random.Philox(seed))


class TestScenarioSpec:
    def test_defaults_are_valid(self):
        spec = ScenarioSpec(scenario=1)
        assert spec.n == 40_000 and spec.j == 25 and spec.design == "two_sample"

    def test_validation(self):
        with pytest.raises(ValueError, match="scenario"):
            ScenarioSpec(scenario=5)
        with pytest.raises(ValueError, match="prop_invalid"):
            ScenarioSpec(scenario=2, prop_invalid=1.5)
        with pytest.raises(ValueError, match="scenario 1"):
            ScenarioSpec(scenario=1, prop_invalid=0.3)
        with pytest.raises(ValueError, match="even"):
            ScenarioSpec(scenario=1, n=40_001)
        with pytest.raises(ValueError, match="too small"):
            ScenarioSpec(scenario=1, n=40, j=25)
        with pytest.raises(ValueError, match="maf"):
            ScenarioSpec(scenario=1, maf=0.0)
        with pytest.raises(ValueError, match="n_sim"):
            ScenarioSpec(scenario=1, n_sim=0)
        with pytest.raises(ValueError, match="design"):
            ScenarioSpec(scenario=1, design="three_sample")


class TestGenerate:
    def test_scenario1_has_no_direct_effects(self):
        spec = ScenarioSpec(scenario=1, n=400, j=6, n_sim=1)
        raw = generate_individual_data(spec, rng_for(1))
        assert not raw.invalid.any()
        assert np.all(raw.alpha == 0.0)
        assert np.all(raw.phi == 0.0)
        assert raw.g.shape == (400, 6)
        assert set(np.unique(raw.g)) <= {0.0, 1.0, 2.0}

    def test_genotype_moments(self):
        spec = ScenarioSpec(scenario=1, n=100_000, j=4, maf=0.3, n_sim=1)
        raw = generate_individual_data(spec, rng_for(2))
        se_mean = math.sqrt(2 * 0.3 * 0.7 / 100_000)
        for col in range(4):
            assert abs(raw.g[:, col].mean() - 0.6) < 4 * se_mean
            assert raw.g[:, col].var() == pytest.approx(2 * 0.3 * 0.7, rel=0.05)

    def test_gamma_range_respected(self):
        spec = ScenarioSpec(scenario=1, n=400, j=50, n_sim=1)
        raw = generate_individual_data(spec, rng_for(3))
        assert np.all(raw.gamma >= 0.03) and np.all(raw.gamma <= 0.1)

    def test_scenario3_directional_effects_on_invalid_only(self):
        spec = ScenarioSpec(scenario=3, prop_invalid=0.5, n=400, j=40, n_sim=1)
        raw = generate_individual_data(spec, rng_for(4))
        assert raw.invalid.any() and not raw.invalid.all()
        assert np.all(raw.alpha[~raw.invalid] == 0.0)
        assert np.all(raw.alpha[raw.invalid] >= 0.0)
        assert np.all(raw.alpha[raw.invalid] <= 0.1)
        assert np.all(raw.phi == 0.0)

    def test_scenario4_confounded_effects_on_invalid_only(self):
        spec = ScenarioSpec(scenario=4, prop_invalid=0.5, n=400, j=40, n_sim=1)
        raw = generate_individual_data(spec, rng_for(5))
        assert np.all(raw.phi[~raw.invalid] == 0.0)
        assert np.any(raw.phi[raw.invalid] != 0.0)
        assert np.all(np.abs(raw.phi) <= 0.1)
        assert np.all(raw.alpha == 0.0)

    def test_fixed_invalid_count_exact(self):
        spec = ScenarioSpec(scenario=2, prop_invalid=0.2, n=400, j=25,
                            fixed_invalid_count=True, n_sim=1)
        for seed in range(5):
            raw = generate_individual_data(spec, rng_for(seed))
            assert int(raw.invalid.sum()) == 5

    def test_invalid_fraction_binomial(self):
        spec = ScenarioSpec(scenario=2, prop_invalid=0.3, n=440, j=200, n_sim=1)
        counts = [
            int(generate_individual_data(spec, rng_for(seed)).invalid.sum())
            for seed in range(50)
        ]
        se = math.sqrt(200 * 0.3 * 0.7 / 50)
        assert abs(np.mean(counts) - 60.0) < 4 * se

    def test_structural_equations_hold(self):
        # the generated columns satisfy the generating equations exactly given
        # the drawn coefficients and the implied error terms
        spec = ScenarioSpec(scenario=4, prop_invalid=0.4, theta=0.2, n=600, j=8, n_sim=1)
        raw = generate_individual_data(spec, rng_for(6))
        eps_x = raw.x - raw.g @ raw.gamma - raw.u
        eps_y = raw.y - raw.g @ raw.alpha - 0.2 * raw.x - raw.u
        # errors are standard normal draws: mean ~ 0, sd ~ 1
        for eps in (eps_x, eps_y):
            assert abs(eps.mean()) < 5 / math.sqrt(600)
            assert eps.std() == pytest.approx(1.0, rel=0.15)


class TestExtractSummary:
    def test_one_sample_matches_linregress(self):
        spec = ScenarioSpec(scenario=1, theta=0.1, n=60, j=3, design="one_sample", n_sim=1)
        raw = generate_individual_data(spec, rng_for(7))
        study = extract_summary(raw, "one_sample")
        s = study.summary
        assert s.ids == ("g1", "g2", "g3")
        for col in range(3):
            lx = st.linregress(raw.g[:, col], raw.x)
            ly = st.linregress(raw.g[:, col], raw.y)
            assert s.beta_x[col] == pytest.approx(lx.slope, rel=1e-10)
            assert s.se_x[col] == pytest.approx(lx.stderr, rel=1e-10)
            assert s.beta_y[col] == pytest.approx(ly.slope, rel=1e-10)
            assert s.se_y[col] == pytest.approx(ly.stderr, rel=1e-10)

    def test_two_sample_uses_disjoint_halves(self):
        spec = ScenarioSpec(scenario=1, theta=0.1, n=80, j=3, n_sim=1)
        raw = generate_individual_data(spec, rng_for(8))
        study = extract_summary(raw, "two_sample")
        s = study.summary
        half = 40
        for col in range(3):
            lx = st.linregress(raw.g[:half, col], raw.x[:half])
            ly = st.linregress(raw.g[half:, col], raw.y[half:])
            assert s.beta_x[col] == pytest.approx(lx.slope, rel=1e-10)
            assert s.beta_y[col] == pytest.approx(ly.slope, rel=1e-10)

    def test_multivariable_f_and_r2_oracle(self):
        spec = ScenarioSpec(scenario=1, theta=0.0, n=120, j=4, design="one_sample", n_sim=1)
        raw = generate_individual_data(spec, rng_for(9))
        study = extract_summary(raw, "one_sample")
        n, k = 120, 4
        design = np.column_stack([np.ones(n), raw.g])
        coef, rss_arr, *_ = np.linalg.lstsq(design, raw.x, rcond=None)
        rss = float(rss_arr[0])
        tss = float(np.sum((raw.x - raw.x.mean()) ** 2))
        r2 = 1.0 - rss / tss
        f = (r2 / k) / ((1.0 - r2) / (n - k - 1))
        assert study.r_squared == pytest.approx(r2, rel=1e-10)
        assert study.f_statistic == pytest.approx(f, rel=1e-10)
        assert study.f_univariable_mean == pytest.approx(
            float(np.mean((study.summary.beta_x / study.summary.se_x) ** 2)), rel=1e-12
        )

    def test_near_noiseless_instrument(self):
        rng = rng_for(10)
        n = 100
        g = rng.binomial(2, 0.3, size=(n, 1)).astype(float)
        x = 0.05 * g[:, 0] + 1e-8 * rng.standard_normal(n)
        y = 0.1 * x + 1e-8 * rng.standard_normal(n)
        raw = RawStudy(
            g=g, u=np.zeros(n), x=x, y=y,
            gamma=np.array([0.05]), alpha=np.zeros(1), phi=np.zeros(1),
            invalid=np.zeros(1, dtype=bool), theta=0.1,
        )
        study = extract_summary(raw, "one_sample")
        assert study.summary.beta_x[0] == pytest.approx(0.05, abs=1e-7)
        assert study.summary.se_x[0] < 1e-7
        assert study.summary.beta_y[0] == pytest.approx(0.005, abs=1e-7)

    def test_unknown_design_rejected(self):
        spec = ScenarioSpec(scenario=1, n=60, j=2, design="one_sample", n_sim=1)
        raw = generate_individual_data(spec, rng_for(11))
        with pytest.raises(ValueError):
            extract_summary(raw, "cross")


class TestRunStudy:
    def test_same_seed_same_report(self):
        spec = ScenarioSpec(scenario=3, prop_invalid=0.3, n=1200, j=5, n_sim=3, seed=9)
        a = run_study(spec, SMALL_METHODS, bootstrap_draws=50)
        b = run_study(spec, SMALL_METHODS, bootstrap_draws=50)
        assert a.rows == b.rows
        assert a.joint_rejection_pct == b.joint_rejection_pct
        buf_a, buf_b = io.StringIO(), io.StringIO()
        a.to_csv(buf_a)
        b.to_csv(buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_thread_count_invariant(self):
        spec = ScenarioSpec(scenario=2, prop_invalid=0.3, n=800, j=6, n_sim=4, seed=21)
        seq = run_study(spec, threads=1, bootstrap_draws=40)
        par = run_study(spec, threads=2, bootstrap_draws=40)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        seq.to_csv(buf_a)
        par.to_csv(buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_na_accounting_for_degenerate_robust_fits(self):
        # at j = 3 any two-point candidate zeroes out 2 of 3 residuals, which
        # the 50% breakdown scale flags as an exact fit: the intercept-based
        # robust methods report no SE and never reject
        spec = ScenarioSpec(scenario=1, n=600, j=3, n_sim=2, seed=5)
        report = run_study(spec, ("robust_egger", "penalized_robust_egger", "ivw"),
                           bootstrap_draws=40)
        for name in ("robust_egger", "penalized_robust_egger"):
            row = report.row(name)
            assert row.na_count == 2
            assert row.power_pct == 0.0
            assert math.isnan(row.mean_se)
            assert np.isfinite(row.mean)
        assert report.row("ivw").na_count == 0

    def test_failing_methods_are_na_and_the_rest_still_run(self):
        # at j = 2 every intercept method fails its precondition in every
        # replicate; each failure is one NA row, the other methods are unaffected
        spec = ScenarioSpec(scenario=1, n=600, j=2, n_sim=3, seed=17)
        report = run_study(spec, ALL_METHODS, bootstrap_draws=40)
        for name in ("egger", "robust_egger", "penalized_egger", "penalized_robust_egger"):
            row = report.row(name)
            assert row.na_count == spec.n_sim
            assert math.isnan(row.mean) and math.isnan(row.sd) and math.isnan(row.mean_se)
            assert row.power_pct == 0.0
        for name in ("ivw", "robust_ivw", "penalized_ivw", "penalized_robust_ivw",
                     "simple_median", "weighted_median", "penalized_weighted_median"):
            assert math.isfinite(report.row(name).mean)
        assert report.egger_intercept_rejection_pct == 0.0

    def test_diagnostics_presence_follows_methods(self):
        spec = ScenarioSpec(scenario=1, n=600, j=4, n_sim=2, seed=6)
        without = run_study(spec, ("ivw", "weighted_median"), bootstrap_draws=40)
        assert without.joint_rejection_pct is None
        assert without.egger_intercept_rejection_pct is None
        with_all = run_study(spec, ("ivw", "egger", "simple_median", "robust_ivw"),
                             bootstrap_draws=40)
        assert with_all.joint_rejection_pct is not None
        assert with_all.egger_intercept_rejection_pct is not None
        assert 0.0 <= with_all.joint_rejection_pct <= 100.0

    def test_report_structure_and_csv(self):
        spec = ScenarioSpec(scenario=2, prop_invalid=0.3, n=800, j=6, n_sim=2, seed=31)
        report = run_study(spec, SMALL_METHODS, bootstrap_draws=40)
        assert report.methods == SMALL_METHODS
        assert [r.method for r in report.rows] == list(SMALL_METHODS)
        assert 0.0 <= report.mean_r_squared <= 1.0
        assert report.mean_f > 0.0
        assert 0.0 <= report.mean_i_squared <= 1.0
        assert 0.0 <= report.mean_invalid_count <= 6.0
        assert report.regenerated_datasets >= 0
        with pytest.raises(KeyError):
            report.row("nope")
        buf = io.StringIO()
        report.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "name,mean,sd,mean_se,power_pct,na_count"
        names = [ln.split(",")[0] for ln in lines[1:]]
        assert names[: len(SMALL_METHODS)] == list(SMALL_METHODS)
        assert "egger_intercept_test" in names
        assert "mean_f_statistic" in names
        assert "mean_invalid_count" in names
        table = report.to_table()
        assert "scenario 2" in table
        assert "ivw" in table

    def test_method_validation(self):
        spec = ScenarioSpec(scenario=1, n=600, j=4, n_sim=1)
        with pytest.raises(ValueError, match="unknown"):
            run_study(spec, ("ivw", "mode"))
        with pytest.raises(ValueError, match="at least one"):
            run_study(spec, ())
        with pytest.raises(ValueError, match="threads"):
            run_study(spec, ("ivw",), threads=0)

    def test_duplicate_method_rejected_before_any_draw(self, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("data drawn for an invalid request")

        monkeypatch.setattr(simulation, "generate_individual_data", draw)
        spec = ScenarioSpec(scenario=1, n=600, j=4, n_sim=1)
        with pytest.raises(ValueError, match="duplicate method ids requested"):
            run_study(spec, ("ivw", "egger", "ivw"))
