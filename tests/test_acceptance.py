"""End-to-end acceptance checks.

Seeded simulation studies at fixed sizes are compared against reference
values at stated tolerances, followed by cross-cutting behavioural
properties that must hold exactly or to numerical precision. Studies are
cached per session; the module takes a few minutes of wall time in total.
Measured-vs-reference lines print on failure (or under ``pytest -s``).
"""
from __future__ import annotations

import io
import time
from pathlib import Path

import numpy as np
import pytest

from ivrobust.distributions import normal_cdf, normal_quantile, t_cdf, t_quantile
from ivrobust.median_methods import simple_median, weighted_median
from ivrobust.penalization import cochran_q_ivw, penalize_weights
from ivrobust.robust_mm import mm_regress
from ivrobust.simulation import ScenarioSpec, run_study
from ivrobust.summary_data import harmonize, ratio_estimates
from ivrobust.wls import inverse_variance_weights, ivw

from _helpers import make_set, random_set

NONROBUST_METHODS = (
    "ivw",
    "egger",
    "penalized_ivw",
    "penalized_egger",
    "simple_median",
    "weighted_median",
    "penalized_weighted_median",
)
ROBUST_METHODS = (
    "robust_ivw",
    "robust_egger",
    "penalized_robust_ivw",
    "penalized_robust_egger",
)

# fractional tolerance shared by every pinned SD / mean-SE target
SPREAD_RTOL = 0.15
# widening applied to the robust rows, which run at n_sim = 300
ROBUST_WIDEN = 1.5


def _check(failures, label, value, target, tol):
    print(f"{label}: measured {value:.4f}, reference {target} (tolerance {tol:.4g})")
    if not abs(value - target) <= tol + 1e-12:
        failures.append(f"{label}: {value:.4f} outside {target} +- {tol:.4g}")


def _check_floor(failures, label, value, floor):
    print(f"{label}: measured {value:.4f}, required >= {floor}")
    if not value >= floor:
        failures.append(f"{label}: {value:.4f} below floor {floor}")


def _check_ceiling(failures, label, value, ceiling):
    print(f"{label}: measured {value:.4f}, required <= {ceiling}")
    if not value <= ceiling:
        failures.append(f"{label}: {value:.4f} above ceiling {ceiling}")


@pytest.fixture(scope="session")
def null_effect_study():
    """Scenario 1, theta = 0, two-sample, every non-robust method."""
    spec = ScenarioSpec(scenario=1, theta=0.0, n=40_000, j=25,
                        design="two_sample", n_sim=1000, seed=1)
    start = time.perf_counter()
    report = run_study(spec, methods=NONROBUST_METHODS)
    return report, time.perf_counter() - start


@pytest.fixture(scope="session")
def robust_null_study():
    """Scenario 1, theta = 0, robust methods at the reduced study size."""
    spec = ScenarioSpec(scenario=1, theta=0.0, n=40_000, j=25,
                        design="two_sample", n_sim=300, seed=6)
    return run_study(spec, methods=ROBUST_METHODS)


@pytest.fixture(scope="session")
def positive_effect_study():
    spec = ScenarioSpec(scenario=1, theta=0.1, n=40_000, j=25,
                        design="two_sample", n_sim=1000, seed=2)
    return run_study(spec, methods=("ivw", "egger"))


@pytest.fixture(scope="session")
def directional_pleiotropy_study():
    spec = ScenarioSpec(scenario=3, theta=0.0, prop_invalid=0.3, n=40_000,
                        j=25, design="two_sample", n_sim=1000, seed=3)
    return run_study(spec, methods=("ivw", "egger"))


@pytest.fixture(scope="session")
def confounded_pleiotropy_study():
    spec = ScenarioSpec(scenario=4, theta=0.0, prop_invalid=0.3, n=40_000,
                        j=25, design="two_sample", n_sim=1000, seed=4)
    return run_study(spec, methods=("egger", "simple_median"))


@pytest.fixture(scope="session")
def one_sample_study():
    spec = ScenarioSpec(scenario=1, theta=0.0, n=20_000, j=25,
                        design="one_sample", n_sim=1000, seed=0)
    return run_study(spec, methods=("ivw", "egger"))


def test_criterion_1_null_effect_calibration(null_effect_study):
    report, elapsed = null_effect_study
    failures = []
    row = report.row("ivw")
    _check(failures, "ivw mean", row.mean, 0.000, 0.006)
    _check(failures, "ivw sd", row.sd, 0.044, SPREAD_RTOL * 0.044)
    _check(failures, "ivw mean se", row.mean_se, 0.047, SPREAD_RTOL * 0.047)
    _check(failures, "ivw power", row.power_pct, 3.9, 2.5)
    print(f"non-robust study wall time: {elapsed:.1f}s (budget 600s)")
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds the 600s budget")
    assert not failures, "; ".join(failures)


def test_criterion_1_robust_null_calibration(robust_null_study):
    # reference rows: mean, sd, mean se, power; tolerances are the
    # corresponding slope/intercept windows widened by ROBUST_WIDEN to
    # absorb the reduced replication count
    targets = {
        "robust_ivw": (0.000, 0.046, 0.050, 4.5),
        "robust_egger": (0.002, 0.130, 0.141, 5.7),
        "penalized_robust_ivw": (0.000, 0.047, 0.047, 5.9),
        "penalized_robust_egger": (0.001, 0.132, 0.134, 7.1),
    }
    failures = []
    for name, (mean, sd, se, power) in targets.items():
        slope_type = name.endswith("ivw")
        mean_tol = (0.006 if slope_type else 0.02) * ROBUST_WIDEN
        power_tol = (2.5 if slope_type else 3.0) * ROBUST_WIDEN
        row = robust_null_study.row(name)
        _check(failures, f"{name} mean", row.mean, mean, mean_tol)
        _check(failures, f"{name} sd", row.sd, sd, SPREAD_RTOL * ROBUST_WIDEN * sd)
        _check(failures, f"{name} mean se", row.mean_se, se,
               SPREAD_RTOL * ROBUST_WIDEN * se)
        _check(failures, f"{name} power", row.power_pct, power, power_tol)
        print(f"{name} na_count: {row.na_count} (reported, not pinned)")
    assert not failures, "; ".join(failures)


def test_criterion_2_positive_effect_attenuation(positive_effect_study):
    report = positive_effect_study
    failures = []
    _check(failures, "ivw mean", report.row("ivw").mean, 0.096, 0.008)
    _check(failures, "egger mean", report.row("egger").mean, 0.065, 0.02)
    _check(failures, "egger power", report.row("egger").power_pct, 6.7, 3.0)
    _check(failures, "mean I^2 (pct)", 100.0 * report.mean_i_squared, 60.1, 5.0)
    _check(failures, "mean F", report.mean_f, 20.5, 2.0)
    assert not failures, "; ".join(failures)


def test_criterion_3_directional_pleiotropy_contrast(directional_pleiotropy_study):
    report = directional_pleiotropy_study
    failures = []
    _check(failures, "ivw mean", report.row("ivw").mean, 0.204, 0.02)
    _check(failures, "ivw power", report.row("ivw").power_pct, 59.3, 5.0)
    _check(failures, "egger mean", report.row("egger").mean, 0.005, 0.02)
    _check(failures, "egger power", report.row("egger").power_pct, 6.0, 3.0)
    assert not failures, "; ".join(failures)


def test_criterion_4_confounded_pleiotropy_ordering(confounded_pleiotropy_study):
    report = confounded_pleiotropy_study
    failures = []
    _check_floor(failures, "egger power", report.row("egger").power_pct, 35.0)
    _check_ceiling(failures, "simple_median power",
                   report.row("simple_median").power_pct, 12.0)
    assert not failures, "; ".join(failures)


def test_criterion_5_one_sample_bias(one_sample_study):
    report = one_sample_study
    failures = []
    _check(failures, "ivw mean", report.row("ivw").mean, 0.024, 0.008)
    _check(failures, "egger mean", report.row("egger").mean, 0.173, 0.03)
    _check(failures, "egger type 1 error", report.row("egger").power_pct,
           27.2, 5.0)
    assert not failures, "; ".join(failures)


@pytest.mark.parametrize("scenario, n_sim, strict", [(2, 2000, False), (3, 1000, True),
                                                     (4, 1000, True)])
def test_headline_robust_methods_reject_less_than_ivw(scenario, n_sim, strict):
    # the paper's main result: with 30% invalid variants, robust IVW and the
    # simple median keep the Type 1 error below that of conventional IVW.
    # Margins are two Monte Carlo SEs of the difference of two rejection
    # rates taken as independent; the rates of one replicate set are
    # positively correlated, so this overstates the SE. Under balanced
    # pleiotropy (scenario 2) the random-effects IVW stays near nominal and
    # no gap shows even at 2,000 replicates, so there the check is only that
    # neither method rejects more often than IVW by more than the margin.
    spec = ScenarioSpec(scenario=scenario, theta=0.0, prop_invalid=0.3, n=40_000, j=25,
                        design="two_sample", n_sim=n_sim, seed=10 + scenario)
    start = time.perf_counter()
    report = run_study(spec, methods=("ivw", "robust_ivw", "simple_median"))
    print(f"scenario {scenario} headline study wall time: {time.perf_counter() - start:.1f}s")
    p_ivw = report.row("ivw").power_pct / 100.0
    failures = []
    for name in ("robust_ivw", "simple_median"):
        p = report.row(name).power_pct / 100.0
        margin = 2.0 * np.sqrt((p_ivw * (1.0 - p_ivw) + p * (1.0 - p)) / n_sim)
        required = margin if strict else -margin
        print(f"scenario {scenario}: ivw rejects {100 * p_ivw:.1f}%, {name} {100 * p:.1f}%, "
              f"required gap {100 * required:.2f} points")
        if not p_ivw - p > required:
            failures.append(f"scenario {scenario}: {name} rejects {100 * p:.1f}%, against "
                            f"ivw's {100 * p_ivw:.1f}% (required gap {100 * required:.2f})")
    assert not failures, "; ".join(failures)


def test_criterion_6_ivw_matches_weighted_least_squares():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(1000):
        s = random_set(rng, j=int(rng.integers(3, 20)))
        hs = harmonize(s)
        root_w = np.sqrt(inverse_variance_weights(hs).w)
        design = (hs.beta_x * root_w)[:, None]
        slope = float(np.linalg.lstsq(design, hs.beta_y * root_w, rcond=None)[0][0])
        worst = max(worst, abs(ivw(s).theta - slope))
    print(f"largest |ivw - weighted least squares| over 1000 draws: {worst:.3e}")
    assert worst < 1e-10


def test_criterion_6_equal_weight_median_equals_simple_median():
    rng = np.random.default_rng(77)
    for j in (3, 5, 6, 11, 12, 25):
        s = random_set(rng, j=j)
        ratios = ratio_estimates(harmonize(s)).theta
        expected = float(np.median(ratios))
        assert weighted_median(ratios, np.ones(j)) == pytest.approx(
            expected, abs=1e-12)
        assert simple_median(s, draws=2, seed=1).theta == pytest.approx(
            expected, abs=1e-12)


def test_criterion_6_penalization_noop_under_homogeneity():
    # identical ratio estimates: every heterogeneity component is zero, so
    # the penalized weights must equal the base weights exactly
    beta_x = np.array([0.05, 0.1, 0.15, 0.2, 0.25])
    s = make_set(beta_x, np.full(5, 0.01), 0.1 * beta_x,
                 np.array([0.02, 0.03, 0.04, 0.05, 0.06]), harmonized=True)
    base = inverse_variance_weights(s)
    report = cochran_q_ivw(s, ivw(s).theta)
    penalized = penalize_weights(base, report)
    assert np.array_equal(penalized.w, base.w)
    assert np.all(report.factor_j == 1.0)


def test_criterion_6_harmonization_ratio_invariance():
    rng = np.random.default_rng(909)
    for _ in range(50):
        s = random_set(rng, j=10)
        flip = rng.random(10) < 0.5
        sign = np.where(flip, -1.0, 1.0)
        mirrored = make_set(sign * s.beta_x, s.se_x, sign * s.beta_y, s.se_y)
        a, b = harmonize(s), harmonize(mirrored)
        assert np.allclose(ratio_estimates(a).theta, ratio_estimates(b).theta,
                           atol=0, rtol=0, equal_nan=False)
        assert ivw(a).theta == ivw(b).theta
        assert ivw(a).se == ivw(b).se


def test_criterion_6_robust_regression_breakdown():
    # 7 of 25 responses grossly corrupted: the robust slope error stays
    # within a small multiple of the clean-data error
    rng = np.random.default_rng(163)
    theta = 0.1
    err_clean, err_bad = [], []
    for trial in range(30):
        x = rng.uniform(0.05, 0.3, size=25)
        y = theta * x + rng.normal(0, 0.05, size=25)
        clean = make_set(x, np.full(25, 0.01), y, np.full(25, 0.05),
                         harmonized=True)
        y_bad = y.copy()
        idx = rng.choice(25, size=7, replace=False)
        y_bad[idx] = rng.uniform(5.0, 50.0, size=7) * rng.choice([-1, 1], size=7)
        bad = make_set(x, np.full(25, 0.01), y_bad, np.full(25, 0.05),
                       harmonized=True)
        err_clean.append(mm_regress(clean, seed=trial)[1].theta - theta)
        err_bad.append(mm_regress(bad, seed=trial)[1].theta - theta)
    rms_clean = float(np.sqrt(np.mean(np.square(err_clean))))
    rms_bad = float(np.sqrt(np.mean(np.square(err_bad))))
    print(f"rms slope error: clean {rms_clean:.4f}, contaminated {rms_bad:.4f}")
    assert rms_bad <= 5.0 * rms_clean


def test_criterion_6_quantile_inverse_consistency():
    grid_p = (0.001, 0.025, 0.5, 0.975, 0.999)
    for p in grid_p:
        assert abs(normal_cdf(normal_quantile(p)) - p) < 1e-9
        for df in (1, 2, 5, 23, 30):
            assert abs(t_cdf(t_quantile(p, df), df) - p) < 1e-9


def test_criterion_6_thread_count_determinism():
    spec = ScenarioSpec(scenario=2, theta=0.05, prop_invalid=0.2, n=1200,
                        j=8, design="two_sample", n_sim=6, seed=123)
    methods = ("ivw", "egger", "robust_ivw", "weighted_median")
    serial, threaded = io.StringIO(), io.StringIO()
    run_study(spec, methods=methods, threads=1,
              bootstrap_draws=50).to_csv(serial)
    run_study(spec, methods=methods, threads=2,
              bootstrap_draws=50).to_csv(threaded)
    assert serial.getvalue() == threaded.getvalue()


def test_criterion_7_reproducibility_note_documented():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    assert "not expected to reproduce" in text
    assert "not reproduction targets" in text
