"""Distribution routines against closed forms, a series oracle, and scipy."""
from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats as st

from ivrobust.distributions import (
    chisq_sf,
    normal_cdf,
    normal_pdf,
    normal_quantile,
    normal_sf,
    t_cdf,
    t_pdf,
    t_quantile,
)

GRID_P = [0.001, 0.025, 0.5, 0.975, 0.999]
GRID_DF = [1, 2, 5, 23, 30]


def erf_series(x: float) -> float:
    # Independent oracle: Maclaurin series of erf, adequate for |x| <= 5.
    total = 0.0
    term = x
    n = 0
    while abs(term) > 1e-18 and n < 200:
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 2.0 / math.sqrt(math.pi) * total


def cdf_series(x: float) -> float:
    return 0.5 * (1.0 + erf_series(x / math.sqrt(2.0)))


class TestNormal:
    def test_cdf_against_series_oracle(self):
        for x in np.linspace(-5, 5, 41):
            assert normal_cdf(float(x)) == pytest.approx(cdf_series(float(x)), abs=1e-9)

    def test_quantile_0975(self):
        # invert the series-oracle CDF by bisection, independently of the
        # package's Newton path
        lo, hi = 0.0, 10.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if cdf_series(mid) < 0.975:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert normal_quantile(0.975) == pytest.approx(oracle, abs=1e-6)
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_against_scipy(self):
        xs = np.linspace(-8, 8, 33)
        for x in xs:
            assert normal_cdf(float(x)) == pytest.approx(st.norm.cdf(x), abs=1e-13)
            assert normal_sf(float(x)) == pytest.approx(st.norm.sf(x), rel=1e-12)
            assert normal_pdf(float(x)) == pytest.approx(st.norm.pdf(x), rel=1e-12)
        for p in GRID_P:
            assert normal_quantile(p) == pytest.approx(st.norm.ppf(p), abs=1e-9)

    def test_symmetry(self):
        for x in (0.3, 1.7, 4.2):
            assert normal_cdf(-x) == pytest.approx(normal_sf(x), rel=1e-14)

    def test_quantile_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.4, math.nan):
            with pytest.raises(ValueError):
                normal_quantile(bad)


class TestStudentT:
    def test_cauchy_closed_form(self):
        # df = 1 quantile is tan(pi * (p - 1/2))
        assert t_quantile(0.975, 1) == pytest.approx(math.tan(math.pi * 0.475), rel=1e-9)
        assert t_quantile(0.975, 1) == pytest.approx(12.7062, abs=1e-4)
        for p in (0.01, 0.2, 0.77, 0.999):
            assert t_quantile(p, 1) == pytest.approx(math.tan(math.pi * (p - 0.5)), rel=1e-8)

    def test_cdf_against_scipy(self):
        for df in GRID_DF:
            for x in np.linspace(-6, 6, 25):
                assert t_cdf(float(x), df) == pytest.approx(st.t.cdf(x, df), abs=1e-12)
                assert t_pdf(float(x), df) == pytest.approx(st.t.pdf(x, df), rel=1e-10)

    def test_quantile_against_scipy(self):
        for df in GRID_DF:
            for p in GRID_P:
                assert t_quantile(p, df) == pytest.approx(st.t.ppf(p, df), rel=1e-8, abs=1e-9)

    def test_normal_limit(self):
        assert t_quantile(0.975, 10_000) == pytest.approx(normal_quantile(0.975), abs=1e-3)
        for x in (-2.0, -0.5, 1.3):
            assert t_cdf(x, 10_000) == pytest.approx(normal_cdf(x), abs=1e-4)

    @pytest.mark.parametrize("df", [24_998, 99_998])
    def test_against_scipy_at_analyze_scale(self, df):
        # analyze's Egger fits ask for df = J - 2 at J up to 100,000
        for x in np.linspace(-6, 6, 25):
            assert t_cdf(float(x), df) == pytest.approx(st.t.cdf(x, df), rel=1e-9, abs=1e-300)
        for p in GRID_P:
            assert t_quantile(p, df) == pytest.approx(st.t.ppf(p, df), rel=1e-9)

    def test_quantile_memoized_and_validated_on_every_call(self):
        for df in GRID_DF:
            assert t_quantile(0.975, df) == t_quantile.__wrapped__(0.975, df)
        for _ in range(2):  # an exception is not cached
            with pytest.raises(ValueError):
                t_quantile(0.975, 0)
            with pytest.raises(ValueError):
                t_quantile(1.5, 3)

    def test_inverse_consistency_grid(self):
        for df in GRID_DF:
            for p in GRID_P:
                assert abs(t_cdf(t_quantile(p, df), df) - p) < 1e-9

    def test_cdf_monotone(self):
        for df in (1, 5, 23):
            xs = np.linspace(-30, 30, 1000)
            values = [t_cdf(float(x), df) for x in xs]
            assert all(b >= a for a, b in zip(values, values[1:]))

    def test_df_validation(self):
        for bad in (0, -3, 1.5):
            with pytest.raises(ValueError):
                t_cdf(1.0, bad)


class TestChiSquare:
    def test_df2_closed_form(self):
        # survival of chi2(2) is exp(-x/2)
        assert chisq_sf(3.0, 2) == pytest.approx(math.exp(-1.5), rel=1e-12)

    def test_normal_identity(self):
        # chi2(1) upper tail at z^2 equals the two-sided normal tail
        rng = np.random.default_rng(7)
        for z in rng.uniform(-4, 4, size=100):
            lhs = chisq_sf(float(z * z), 1)
            rhs = 2.0 * normal_sf(abs(float(z)))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_against_scipy(self):
        for df in GRID_DF + [50]:
            for x in np.linspace(0.01, 120.0, 40):
                assert chisq_sf(float(x), df) == pytest.approx(st.chi2.sf(x, df), abs=1e-12, rel=1e-9)

    @pytest.mark.parametrize("df", [24_999, 99_999])
    def test_against_scipy_at_analyze_scale(self, df):
        # analyze's Cochran Q asks for df = J - 1; x spans both the series and the fraction
        for x in np.linspace(0.5 * df, 1.5 * df, 401):
            assert chisq_sf(float(x), df) == pytest.approx(st.chi2.sf(x, df), rel=1e-9, abs=1e-300)

    def test_boundary_and_domain(self):
        assert chisq_sf(0.0, 3) == 1.0
        with pytest.raises(ValueError):
            chisq_sf(-1e-9, 3)
        with pytest.raises(ValueError):
            chisq_sf(1.0, 0)

    def test_monotone_in_x(self):
        for df in (1, 5, 30):
            xs = np.linspace(0, 200, 1000)
            values = [chisq_sf(float(x), df) for x in xs]
            assert all(b <= a for a, b in zip(values, values[1:]))
