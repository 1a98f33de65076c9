"""Data generation: the exact sufficient-statistic law, extraction oracles, study aggregation."""
from __future__ import annotations

import concurrent.futures
import io
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

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
from ivrobust.wls import Estimate

SMALL_METHODS = ("ivw", "egger", "simple_median", "weighted_median")


def rng_for(seed=0):
    return np.random.Generator(np.random.Philox(seed))


def words(bit_generator, n):
    """The next n 64-bit words of a bit generator, as ``Generator.integers`` reads them."""
    if isinstance(bit_generator, np.random.MT19937):
        # 32-bit outputs, the first of each pair the high half
        halves = [int(v) for v in bit_generator.random_raw(2 * n)]
        return [high << 32 | low for high, low in zip(halves[::2], halves[1::2])]
    return [int(v) for v in bit_generator.random_raw(n)]


def quarters(ws):
    """The little-endian 16-bit quarters of 64-bit words: base-65,536 digits."""
    return [w >> shift & 0xFFFF for w in ws for shift in (0, 16, 32, 48)]


def genotypes(bit_generator, m, j, maf):
    """m x j genotypes [U > t1] + [U > t2], cell by cell, from a bit generator's stream.

    Per block of rows, the cells' leading digits are the quarters of one run
    of words; a cell whose digits leave a threshold open reads one more word
    at a time, and both thresholds read the same digits. Digits are compared
    with each threshold's exact value. Also returns, per cell that read
    more words, how many thresholds its leading digit left open.
    """
    thresholds = [Fraction((1.0 - maf) ** 2), Fraction(1.0 - maf ** 2)]
    block = simulation._GENOTYPE_BLOCK
    g = np.zeros((m, j))
    tied = []
    for start in range(0, m, block):
        k = min(block, m - start)
        leading = quarters(words(bit_generator, -(-k * j // 4)))
        for cell in range(k * j):
            digits = leading[cell:cell + 1]
            open_after_one = 0
            for t in thresholds:
                n, prefix = 1, digits[0]
                while True:
                    # U lies in [prefix, prefix + 1) / 65536^n
                    scale = 65536 ** n
                    if prefix * t.denominator > t.numerator * scale:
                        g[start + cell // j, cell % j] += 1
                        break
                    if (prefix + 1) * t.denominator <= t.numerator * scale:
                        break
                    open_after_one += n == 1
                    if n == len(digits):
                        digits += quarters(words(bit_generator, 1))
                    prefix = prefix * 65536 + digits[n]
                    n += 1
            if len(digits) > 1:
                tied.append(open_after_one)
    return g, tied


def truth(j, rng, theta=0.1):
    """Generating truth with every effect term nonzero."""
    return dict(gamma=rng.uniform(0.03, 0.1, j), alpha=rng.uniform(-0.1, 0.1, j),
                phi=rng.uniform(-0.1, 0.1, j), invalid=np.ones(j, dtype=bool), theta=theta)


def phenotypes(g, t, eps_x, eps_y):
    """Exposure and outcome of individuals with genotypes g under the structural model."""
    effect_x = t["gamma"] + t["phi"]
    return (g @ effect_x + eps_x,
            g @ (t["alpha"] + t["theta"] * effect_x + t["phi"]) + eps_y)


def sufficient(g, eps):
    """(chol, score, rss) of explicit genotypes and an n-length error vector."""
    gc = g - g.mean(axis=0)
    chol = np.linalg.cholesky(gc.T @ gc)
    score = np.linalg.solve(chol, gc.T @ eps)
    ec = eps - eps.mean()
    return chol, score, float(ec @ ec - score @ score)


def raw_from_individuals(design, t, g_x, eps_x, g_y, eps_y):
    """The RawStudy whose statistics are those of explicit individual-level data.

    In the one-sample design g_y is g_x: both phenotypes come from one sample.
    """
    chol_x, score_x, rss_x = sufficient(g_x, eps_x)
    chol_y, score_y, rss_y = sufficient(g_y, eps_y)
    return RawStudy(design=design, n_sample=g_x.shape[0], chol_x=chol_x, chol_y=chol_y,
                    score_x=score_x, score_y=score_y, rss_x=rss_x, rss_y=rss_y, **t)


def brute_force_summary(spec, t, rng):
    """Associations by the individual-level path: binomial genotypes, n-length errors, OLS."""
    n, j = spec.n, spec.j
    g = rng.binomial(2, spec.maf, size=(n, j)).astype(float)
    eps_u, eps_x, eps_y = rng.standard_normal((3, n))
    u = g @ t["phi"] + eps_u
    x = g @ t["gamma"] + u + eps_x
    y = g @ t["alpha"] + t["theta"] * x + u + eps_y
    half = n // 2 if spec.design == "two_sample" else 0
    out = slice(half, n)
    exp = slice(0, half) if half else out

    def ols(gs, v):
        gc = gs - gs.mean(axis=0)
        vc = v - v.mean()
        sgg = np.einsum("ij,ij->j", gc, gc)
        sgy = gc.T @ vc
        slope = sgy / sgg
        return slope, np.sqrt((vc @ vc - slope * sgy) / (len(v) - 2) / sgg)

    return (*ols(g[exp], x[exp]), *ols(g[out], y[out]))


class TestScenarioSpec:
    def test_defaults_are_valid(self):
        spec = ScenarioSpec(scenario=1)
        assert spec.n == 40_000 and spec.j == 25 and spec.design == "two_sample"

    @pytest.mark.parametrize("kwargs, message", [
        (dict(scenario=5), "scenario must be 1..4, got 5"),
        (dict(scenario=1, theta=math.nan), "theta must be finite"),
        (dict(scenario=1, theta=-math.inf), "theta must be finite"),
        (dict(scenario=2, prop_invalid=1.5), r"prop_invalid must lie in \[0, 1\], got 1.5"),
        (dict(scenario=1, prop_invalid=0.3), "scenario 1 has no invalid instruments"),
        (dict(scenario=1, design="three_sample"), "design must be one of"),
        (dict(scenario=1, j=0), "j must be >= 1, got 0"),
        (dict(scenario=1, n=40_001), "two-sample design needs an even n"),
        (dict(scenario=1, n=40, j=25), "n too small"),
        (dict(scenario=1, maf=0.0), r"maf must lie in \(0, 1\), got 0.0"),
        (dict(scenario=1, gamma_range=(0.1, 0.03)),
         r"gamma_range must be an ordered finite pair, got \(0.1, 0.03\)"),
        (dict(scenario=1, gamma_range=(0.03, math.inf)),
         r"gamma_range must be an ordered finite pair, got \(0.03, inf\)"),
        (dict(scenario=1, gamma_range=(math.nan, 0.1)),
         r"gamma_range must be an ordered finite pair, got \(nan, 0.1\)"),
        (dict(scenario=1, n_sim=0), "n_sim must be >= 1, got 0"),
    ])
    def test_validation(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ScenarioSpec(**kwargs)

    def test_theta_the_error_model_cannot_hold_rejected(self):
        # (1 + theta)^2 overflows the outcome's error variance, in either design
        for theta in (1e200, 1e154):
            for design in ("two_sample", "one_sample"):
                with pytest.raises(ValueError, match="theta"):
                    ScenarioSpec(scenario=1, theta=theta, design=design)
        for design in ("two_sample", "one_sample"):
            ScenarioSpec(scenario=1, theta=1e8, design=design)
        ScenarioSpec(scenario=1, theta=-0.5, design="one_sample")

    def test_theta_whose_sums_of_squares_overflow_rejected(self):
        # theta^2 times the sample size overflows the outcome's residual sum of squares:
        # the study warned "overflow encountered in square" and raised "se_y must be finite"
        for kw in (dict(theta=1e152), dict(theta=1e153, n=2_000),
                   dict(theta=5e151, design="one_sample")):
            with pytest.raises(ValueError, match=rf"theta = .* at n = {kw.get('n', 40_000)}"):
                ScenarioSpec(scenario=1, **kw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scenario in (1, 4):
                spec = ScenarioSpec(scenario=scenario, prop_invalid=0.0 if scenario == 1 else 0.3,
                                    theta=5e151, n_sim=2)
                report = run_study(spec, ("ivw", "egger"))
                assert report.row("ivw").mean == pytest.approx(5e151, rel=0.2)

    def test_gamma_range_whose_sums_of_squares_overflow_rejected(self):
        with pytest.raises(ValueError, match=r"gamma_range = \(1e\+200, 1e\+200\) at n = 2000"):
            ScenarioSpec(scenario=1, gamma_range=(1e200, 1e200), n=2_000, j=5)
        with pytest.raises(ValueError, match="gamma_range"):
            ScenarioSpec(scenario=2, prop_invalid=0.3, gamma_range=(-1e160, 0.1), j=5)

    def test_r_squared_of_one_is_an_f_of_inf(self):
        # gamma = 1e150 leaves the exposure's residual sum of squares below an ulp of its
        # total: 1 - R^2 rounds to 0, and the F statistic divided by it
        spec = ScenarioSpec(scenario=1, gamma_range=(1e150, 1e150), n=2_000, j=5, n_sim=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_study(spec, ("ivw",))
        assert report.mean_r_squared == 1.0 and report.mean_f == math.inf

    @pytest.mark.parametrize("theta", [1e7, 1e9, 1e10])
    def test_one_sample_factor_is_closed_form(self, theta):
        # the covariance [[2, 1 + 2 theta], [1 + 2 theta, var_y]] has determinant 3, so
        # its factor's last entry is sqrt(1.5) at any theta; a factorization lost it to
        # cancellation (22.6 at theta = 1e9)
        (mix,) = simulation._error_factors(theta, "one_sample")
        assert mix[1, 1] == math.sqrt(1.5)
        cov = 1.0 + 2.0 * theta
        np.testing.assert_allclose(mix @ mix.T, [[2.0, cov], [cov, (1.0 + theta) ** 2
                                                              + theta ** 2 + 1.0]], rtol=1e-15)


class TestGenerate:
    def test_scenario1_has_no_direct_effects(self):
        spec = ScenarioSpec(scenario=1, n=400, j=6, n_sim=1)
        raw = generate_individual_data(spec, rng_for(1))
        assert not raw.invalid.any()
        assert np.all(raw.alpha == 0.0)
        assert np.all(raw.phi == 0.0)
        assert raw.design == "two_sample" and raw.n_sample == 200
        for chol in (raw.chol_x, raw.chol_y):
            assert chol.shape == (6, 6)
            assert np.all(np.triu(chol, 1) == 0.0) and np.all(np.diag(chol) > 0.0)
        assert raw.score_x.shape == raw.score_y.shape == (6,)

    def test_genotype_moments(self):
        m = 100_000
        gram, sums = simulation._genotype_gram(rng_for(2), m, 4, 0.3)
        # per column, S1 = n1 + 2 n2 and S2 = n1 + 4 n2 give the genotype counts exactly
        diag = np.diag(gram)
        n2 = (diag - sums) / 2
        n1 = 2 * sums - diag
        for counts in (n1, n2, m - n1 - n2):
            assert np.all(counts >= 0) and np.all(counts == np.round(counts))
        se_mean = math.sqrt(2 * 0.3 * 0.7 / m)
        for col in range(4):
            mean = sums[col] / m
            assert abs(mean - 0.6) < 4 * se_mean
            assert diag[col] / m - mean ** 2 == pytest.approx(2 * 0.3 * 0.7, rel=0.05)
            # Hardy-Weinberg proportions of the inverse-CDF draw
            assert n2[col] / m == pytest.approx(0.09, abs=0.005)
            assert n1[col] / m == pytest.approx(2 * 0.3 * 0.7, abs=0.01)

    @pytest.mark.parametrize("m", [5, simulation._GENOTYPE_BLOCK,
                                   2 * simulation._GENOTYPE_BLOCK + 17])
    def test_genotype_gram_is_that_of_one_draw(self, m):
        # the blocked Gram and column sums equal, bit for bit, those of the
        # cell-by-cell digit draw from the same stream, which they use up exactly
        rng, ref = rng_for(2), rng_for(2)
        gram, sums = simulation._genotype_gram(rng, m, 3, 0.3)
        g, _ = genotypes(ref.bit_generator, m, 3, 0.3)
        np.testing.assert_array_equal(gram, g.T @ g)
        np.testing.assert_array_equal(sums, g.sum(axis=0))
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("maf, open_thresholds", [(0.3, 1), (0.5, 1), (1e-6, 2)])
    def test_tied_leading_digits_are_refined(self, maf, open_thresholds):
        # about 2 cells in 65,536 tie a threshold's leading digit and read more
        # digits; at maf = 0.5 the thresholds 0.25 and 0.75 have one digit, so
        # the later ones compare with 0; at maf = 1e-6 both thresholds lead
        # with 65,535, so such a cell leaves both open and both compare the
        # same later digits
        m, j = 80_000, 5
        rng, ref = rng_for(15), rng_for(15)
        gram, sums = simulation._genotype_gram(rng, m, j, maf)
        g, tied = genotypes(ref.bit_generator, m, j, maf)
        assert tied and set(tied) == {open_thresholds}
        np.testing.assert_array_equal(gram, g.T @ g)
        np.testing.assert_array_equal(sums, g.sum(axis=0))
        assert rng.random() == ref.random()

    def test_draw_reads_whole_64_bit_words_of_any_bit_generator(self):
        # MT19937 makes 32-bit outputs; each word joins two, so no quarter is
        # always zero, as it would be in the upper half of its raw outputs
        m = 2 * simulation._GENOTYPE_BLOCK + 17
        rng = np.random.Generator(np.random.MT19937(16))
        ref = np.random.Generator(np.random.MT19937(16))
        gram, sums = simulation._genotype_gram(rng, m, 3, 0.3)
        g, _ = genotypes(ref.bit_generator, m, 3, 0.3)
        np.testing.assert_array_equal(gram, g.T @ g)
        np.testing.assert_array_equal(sums, g.sum(axis=0))
        assert rng.random() == ref.random()
        assert np.all(np.abs(sums / m - 0.6) < 4 * math.sqrt(2 * 0.3 * 0.7 / m))

    def test_gram_factor_matches_genotypes(self):
        # the stored factor is that of the centred Gram matrix of the drawn genotypes
        spec = ScenarioSpec(scenario=1, n=400, j=5, n_sim=1)
        rng_a, rng_b = rng_for(3), rng_for(3)
        raw = generate_individual_data(spec, rng_a)
        rng_b.random(5)  # the invalid flags ...
        rng_b.uniform(0.03, 0.1, 5)  # ... and gamma precede the genotypes
        g, _ = genotypes(rng_b.bit_generator, 200, 5, spec.maf)
        gc = g - g.mean(axis=0)
        np.testing.assert_allclose(raw.chol_x @ raw.chol_x.T, gc.T @ gc, rtol=1e-12,
                                   atol=1e-12 * np.abs(gc.T @ gc).max())

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

    @pytest.mark.parametrize("design", ["two_sample", "one_sample"])
    def test_error_statistics_follow_the_structural_equations(self, design):
        # the errors of X = G(gamma + phi) + e_U + e_X and of
        # Y = G(alpha + theta (gamma + phi) + phi) + (1 + theta) e_U + theta e_X + e_Y:
        # scores ~ N(0, var I), rss ~ var chi^2_{m-1-J}, and in one sample the two
        # phenotypes' scores correlate as their errors do
        theta, draws, j = 0.5, 2000, 4
        spec = ScenarioSpec(scenario=4, prop_invalid=0.5, theta=theta, n=400, j=j,
                            design=design, n_sim=1)
        rng = rng_for(6)
        raws = [generate_individual_data(spec, rng) for _ in range(draws)]
        m = raws[0].n_sample
        var_y = (1 + theta) ** 2 + theta ** 2 + 1
        score_x = np.concatenate([r.score_x for r in raws])
        score_y = np.concatenate([r.score_y for r in raws])
        for score, rss, var in ((score_x, [r.rss_x for r in raws], 2.0),
                                (score_y, [r.rss_y for r in raws], var_y)):
            assert abs(score.mean()) < 4 * math.sqrt(var / score.size)
            assert score.var() == pytest.approx(var, rel=4 * math.sqrt(2 / score.size))
            df = m - 1 - j
            assert np.mean(rss) / df == pytest.approx(var, rel=4 * math.sqrt(2 / (df * draws)))
        corr = np.corrcoef(score_x, score_y)[0, 1]
        expected = (1 + 2 * theta) / math.sqrt(2 * var_y) if design == "one_sample" else 0.0
        assert abs(corr - expected) < 4 / math.sqrt(score.size)


class TestExtractSummary:
    @pytest.mark.parametrize("design", ["one_sample", "two_sample"])
    def test_matches_linregress_and_lstsq(self, design):
        # the algebra oracle: statistics formed from explicit n-length errors give
        # exactly the per-variant OLS fits and the multivariable R^2 and F
        rng = rng_for(7)
        m, j = 60, 3
        t = truth(j, rng)
        g_x = rng.binomial(2, 0.3, size=(m, j)).astype(float)
        g_y = g_x if design == "one_sample" else rng.binomial(2, 0.3, size=(m, j)).astype(float)
        eps_x, eps_y = 1.5 * rng.standard_normal((2, m))
        x, _ = phenotypes(g_x, t, eps_x, eps_y)
        _, y = phenotypes(g_y, t, eps_x, eps_y)
        study = extract_summary(raw_from_individuals(design, t, g_x, eps_x, g_y, eps_y), design)
        s = study.summary
        assert s.ids == ("g1", "g2", "g3")
        for col in range(j):
            lx = st.linregress(g_x[:, col], x)
            ly = st.linregress(g_y[:, col], y)
            assert s.beta_x[col] == pytest.approx(lx.slope, rel=1e-10)
            assert s.se_x[col] == pytest.approx(lx.stderr, rel=1e-10)
            assert s.beta_y[col] == pytest.approx(ly.slope, rel=1e-10)
            assert s.se_y[col] == pytest.approx(ly.stderr, rel=1e-10)
        coef, rss_arr, *_ = np.linalg.lstsq(np.column_stack([np.ones(m), g_x]), x, rcond=None)
        r2 = 1.0 - float(rss_arr[0]) / float(np.sum((x - x.mean()) ** 2))
        assert study.r_squared == pytest.approx(r2, rel=1e-10)
        assert study.f_statistic == pytest.approx((r2 / j) / ((1.0 - r2) / (m - j - 1)),
                                                  rel=1e-10)
        assert study.f_univariable_mean == pytest.approx(
            float(np.mean((s.beta_x / s.se_x) ** 2)), rel=1e-12
        )

    def test_near_noiseless_instrument(self):
        rng = rng_for(10)
        n = 100
        g = rng.binomial(2, 0.3, size=(n, 1)).astype(float)
        t = dict(gamma=np.array([0.05]), alpha=np.zeros(1), phi=np.zeros(1),
                 invalid=np.zeros(1, dtype=bool), theta=0.1)
        eps_x = 1e-8 * rng.standard_normal(n)
        eps_y = 0.1 * eps_x + 1e-8 * rng.standard_normal(n)
        raw = raw_from_individuals("one_sample", t, g, eps_x, g, eps_y)
        study = extract_summary(raw, "one_sample")
        assert study.summary.beta_x[0] == pytest.approx(0.05, abs=1e-7)
        assert study.summary.se_x[0] < 1e-7
        assert study.summary.beta_y[0] == pytest.approx(0.005, abs=1e-7)

    def test_unknown_or_other_design_rejected(self):
        spec = ScenarioSpec(scenario=1, n=60, j=2, design="one_sample", n_sim=1)
        raw = generate_individual_data(spec, rng_for(11))
        with pytest.raises(ValueError):
            extract_summary(raw, "cross")
        with pytest.raises(ValueError, match="drawn for the one_sample design"):
            extract_summary(raw, "two_sample")


class TestExactLaw:
    @pytest.mark.parametrize("design", ["two_sample", "one_sample"])
    def test_matches_brute_force_in_distribution(self, design):
        # 3,000 datasets at n = 2,000 through each path, under the same truths:
        # slope errors, their SD and the mean SE agree within Monte Carlo error
        draws, j = 3000, 4
        spec = ScenarioSpec(scenario=4, prop_invalid=0.5, theta=0.3, n=2000, j=j,
                            design=design, n_sim=1)
        rng_new, rng_old = rng_for(12), np.random.default_rng(13)
        new, old = [], []
        for _ in range(draws):
            raw = generate_individual_data(spec, rng_new)
            s = extract_summary(raw, design).summary
            t = dict(gamma=raw.gamma, alpha=raw.alpha, phi=raw.phi, theta=raw.theta)
            effect_x = raw.gamma + raw.phi
            effect_y = raw.alpha + raw.theta * effect_x + raw.phi
            new.append((s.beta_x - effect_x, s.se_x, s.beta_y - effect_y, s.se_y))
            bx, sx, by, sy = brute_force_summary(spec, t, rng_old)
            old.append((bx - effect_x, sx, by - effect_y, sy))
        new = np.array(new).transpose(1, 0, 2)  # statistic x draw x variant
        old = np.array(old).transpose(1, 0, 2)
        for k in range(4):  # error of beta_x, se_x, error of beta_y, se_y
            # draws are independent, a draw's variants share its errors: the
            # per-draw means are the independent units of the mean's test
            a, b = new[k].mean(axis=1), old[k].mean(axis=1)
            assert abs(a.mean() - b.mean()) < 4.5 * math.sqrt((a.var() + b.var()) / draws)
            if k % 2 == 0:
                a, b = new[k].ravel(), old[k].ravel()
                sd_se = math.sqrt((a.var() + b.var()) / (2 * a.size))
                assert abs(a.std() - b.std()) < 4.5 * sd_se
        # one sample: the exposure and outcome errors correlate the same way
        corr_new = np.corrcoef(new[0].ravel(), new[2].ravel())[0, 1]
        corr_old = np.corrcoef(old[0].ravel(), old[2].ravel())[0, 1]
        assert abs(corr_new - corr_old) < 4.5 * math.sqrt(2 / new[0].size)

    def test_monomorphic_variant_regenerates(self):
        # at maf = 0.03 a variant is monomorphic in a 40-person half about one time in
        # eleven: the dataset is redrawn and counted, never summarized
        spec = ScenarioSpec(scenario=1, n=80, j=4, maf=0.03, n_sim=10, seed=3)
        report = run_study(spec, ("ivw",))
        assert report.regenerated_datasets > 0
        assert report.regenerated_datasets == run_study(spec, ("ivw",)).regenerated_datasets
        monomorphic = ScenarioSpec(scenario=1, n=80, j=4, maf=1e-12, n_sim=1)
        with pytest.raises(simulation._DegenerateGenotype):
            generate_individual_data(monomorphic, rng_for(14))

    def test_every_draw_degenerate_raises(self):
        spec = ScenarioSpec(scenario=1, n=80, j=4, maf=1e-12, n_sim=1, seed=3)
        with pytest.raises(RuntimeError, match="no informative dataset"):
            run_study(spec, ("ivw",))


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

    @pytest.mark.parametrize("threads, n_sim, cpus, workers", [
        (100_000, 3, 8, 3),      # no more workers than replicates
        (100_000, 5, 2, 2),      # nor than CPUs
        (3, 5, 8, 3),
        (100_000, 3, None, None),  # an unknown CPU count runs serially
        (100_000, 1, 8, None),
    ])
    def test_worker_processes_capped(self, threads, n_sim, cpus, workers, monkeypatch):
        pools = []

        class InProcessPool:
            # records the pool size and runs the tasks here: no process is started
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        spec = ScenarioSpec(scenario=1, n=600, j=3, n_sim=n_sim, seed=2)
        serial = run_study(spec, ("ivw",), bootstrap_draws=40)
        # run_study imports the pool class when it starts workers
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: cpus)
        report = run_study(spec, ("ivw",), threads=threads, bootstrap_draws=40)
        assert pools == ([] if workers is None else [workers])
        assert report.to_table() == serial.to_table()

    def test_import_loads_no_worker_machinery(self):
        # only run_study's worker pool needs multiprocessing: importing the package and its
        # command line, as every analyze and every one-worker study does, loads none of it
        env = dict(os.environ, PYTHONPATH=str(Path(simulation.__file__).resolve().parents[1]))
        code = ("import sys, ivrobust, ivrobust.cli; "
                "print(sorted(m for m in sys.modules if m.startswith("
                "('concurrent.futures.process', 'multiprocessing'))))")
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                text=True, check=True)
        assert result.stdout.strip() == "[]"

    def test_draw_count_checked_before_any_data(self, monkeypatch):
        # a request with a median needs at least 2 bootstrap draws, checked before
        # replicate 0 draws its data; a request without medians accepts any count
        def no_data(*args):
            raise AssertionError("data drawn before the draw count was checked")

        spec = ScenarioSpec(scenario=1, n=600, j=3, n_sim=2, seed=2)
        serial = run_study(spec, ("ivw",), bootstrap_draws=1)
        monkeypatch.setattr(simulation, "generate_individual_data", no_data)
        with pytest.raises(ValueError, match="at least 2 draws"):
            run_study(spec, ("ivw", "simple_median"), bootstrap_draws=1)
        with pytest.raises(ValueError, match="at least 2 draws"):
            run_study(spec, ("ivw", "simple_median"), threads=2, bootstrap_draws=1)
        assert serial.row("ivw").na_count == 0

    def test_na_accounting_for_degenerate_robust_fits(self):
        # at j = 3 every two-point candidate would zero out 2 of 3 residuals, an
        # exact fit by the 50% breakdown scale: the intercept-based robust methods
        # refuse the set, so each replicate is NA and their mean is NA too
        spec = ScenarioSpec(scenario=1, n=600, j=3, n_sim=2, seed=5)
        report = run_study(spec, ("robust_egger", "penalized_robust_egger", "ivw"),
                           bootstrap_draws=40)
        for name in ("robust_egger", "penalized_robust_egger"):
            row = report.row(name)
            assert row.na_count == 2
            assert row.power_pct == 0.0
            assert math.isnan(row.mean_se)
            assert math.isnan(row.mean)
        assert report.row("ivw").na_count == 0

    def test_estimates_without_se_count_as_na_but_keep_their_mean(self, monkeypatch):
        # an estimate without SE is NA in mean_se and na_count, never rejects,
        # and still counts towards the mean and SD
        real_fit_each = simulation._fit_each

        def drop_egger_se(s, methods, **kwargs):
            for name, fit in real_fit_each(s, methods, **kwargs):
                if name == "egger":
                    fit = Estimate(method=name, theta=fit.theta, se_reported=False,
                                   warnings=("standard error unavailable",))
                yield name, fit

        spec = ScenarioSpec(scenario=1, n=600, j=5, n_sim=3, seed=5)
        full = run_study(spec, ("ivw", "egger")).row("egger")
        monkeypatch.setattr(simulation, "_fit_each", drop_egger_se)
        report = run_study(spec, ("ivw", "egger"))
        row = report.row("egger")
        assert row.na_count == 3 and row.power_pct == 0.0
        assert math.isnan(row.mean_se)
        assert (row.mean, row.sd) == (full.mean, full.sd)
        assert math.isfinite(row.mean) and math.isfinite(row.sd)
        assert report.egger_intercept_rejection_pct == 0.0
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

    def test_table_prints_na_for_absent_values(self):
        # egger fails in every replicate at J = 2: its mean and SD printed nan, its
        # mean SE NA; at J = 1 the mean I^2 printed nan%
        spec = ScenarioSpec(scenario=1, n=600, j=2, n_sim=3, seed=0)
        table = run_study(spec, ("ivw", "egger"), bootstrap_draws=40).to_table()
        (egger_row,) = [line for line in table.splitlines() if line.startswith("egger  ")]
        assert egger_row.split() == ["egger", "NA", "NA", "NA", "0.0", "3"]
        assert "nan" not in table
        one = ScenarioSpec(scenario=1, n=600, j=1, n_sim=2, seed=0)
        table = run_study(one, ("ivw",), bootstrap_draws=40).to_table()
        assert "mean I^2 = NA" in table and "nan" not in table

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

    def test_table_prints_joint_rejection(self):
        spec = ScenarioSpec(scenario=1, n=600, j=4, n_sim=2, seed=6)
        report = run_study(spec, ("simple_median", "robust_ivw"), bootstrap_draws=40)
        line = f"joint simple_median & robust_ivw rejection: {report.joint_rejection_pct:.1f}%"
        assert line in report.to_table().splitlines()

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
