"""Weighted-median mechanics, a brute-force oracle, and bootstrap behavior."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ivrobust import _util, median_methods
from ivrobust.exceptions import InsufficientInstrumentsError
from ivrobust.median_methods import (
    bootstrap_se,
    penalized_weighted_median,
    simple_median,
    weighted_median,
    weighted_median_estimate,
)
from ivrobust.summary_data import harmonize, ratio_estimates

from _helpers import make_set, random_summary


def median_oracle(theta, w):
    # direct transcription of the interpolation rule, written without
    # vectorized shortcuts
    order = np.argsort(theta, kind="stable")
    th = [float(theta[i]) for i in order]
    ww = [float(w[i]) for i in order]
    total = sum(ww)
    ww = [v / total for v in ww]
    s = []
    running = 0.0
    for v in ww:
        s.append(running + v / 2.0)
        running += v
    k = -1
    for i, v in enumerate(s):
        if v < 0.5:
            k = i
    if k < 0:
        return th[0]
    return th[k] + (th[k + 1] - th[k]) * (0.5 - s[k]) / (s[k + 1] - s[k])


SPECIAL = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])


@st.composite
def value_rows(draw) -> np.ndarray:
    """Rows of exact ties, +-0.0, +-inf and NaN, or of distinct finite values."""
    rows, j = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    if draw(st.booleans()):
        values = st.floats(-1e300, 1e300)
        cells = draw(st.lists(values, min_size=rows * j, max_size=rows * j, unique=True))
    else:
        pool = draw(st.lists(st.floats() | SPECIAL, min_size=1, max_size=4))
        cells = draw(st.lists(st.sampled_from(pool) | SPECIAL, min_size=rows * j,
                              max_size=rows * j))
    return np.array(cells, dtype=float).reshape(rows, j)


@settings(max_examples=400, deadline=None)
@given(value_rows())
def test_sort_rows_is_the_stable_sort_bit_for_bit(theta):
    order, th = median_methods._sort_rows(theta.copy())
    stable = np.argsort(theta, axis=1, kind="stable")
    np.testing.assert_array_equal(order, stable)
    assert th.tobytes() == np.take_along_axis(theta, stable, axis=1).tobytes()


def ratio_set(ratios, se_y=0.05, beta_x=0.2):
    ratios = np.asarray(ratios, dtype=float)
    j = ratios.size
    return make_set(
        np.full(j, beta_x),
        np.full(j, 1e-6),
        ratios * beta_x,
        np.full(j, se_y),
        harmonized=True,
    )


class TestWeightedMedian:
    def test_three_equal_weights(self):
        assert weighted_median([0.1, 0.1, 0.3], np.ones(3)) == pytest.approx(
            0.1, abs=1e-15
        )

    def test_interpolated_example(self):
        got = weighted_median([1.0, 2.0, 3.0], np.array([0.2, 0.3, 0.5]))
        # midpoint positions 0.1, 0.35, 0.75; crossing between 2 and 3
        assert got == pytest.approx(2.375, rel=1e-14)

    def test_split_at_half(self):
        theta = np.array([0.0] * 12 + [1.0] * 13)
        assert weighted_median(theta, np.ones(25)) == pytest.approx(1.0, abs=1e-12)

    def test_dominant_weight(self):
        got = weighted_median([0.7, -1.0, 2.0], np.array([0.98, 0.01, 0.01]))
        assert got == pytest.approx(0.7, abs=1e-12)

    def test_single_value(self):
        assert weighted_median([0.42], np.array([1.0])) == 0.42

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(89)
        for _ in range(300):
            j = int(rng.integers(1, 30))
            theta = rng.normal(size=j)
            w = rng.uniform(0.01, 1.0, size=j)
            got = weighted_median(theta, w)
            assert got == pytest.approx(median_oracle(theta, w), rel=1e-12, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(97)
        theta = rng.normal(size=11)
        w = rng.uniform(0.1, 1.0, size=11)
        base = weighted_median(theta, w)
        for _ in range(10):
            perm = rng.permutation(11)
            assert weighted_median(theta[perm], w[perm]) == (
                pytest.approx(base, rel=1e-13)
            )

    def test_affine_equivariance(self):
        # translation, positive scaling, and reflection all commute with the
        # median (the interpolation rule is not monotone in single values, so
        # these are the order-based invariants worth holding)
        rng = np.random.default_rng(101)
        for _ in range(50):
            theta = rng.normal(size=9)
            w = rng.uniform(0.1, 1.0, size=9)
            base = weighted_median(theta, w)
            assert weighted_median(theta + 3.25, w) == pytest.approx(base + 3.25, abs=1e-12)
            assert weighted_median(2.5 * theta, w) == pytest.approx(2.5 * base, rel=1e-12)
            assert weighted_median(-theta, w) == pytest.approx(-base, rel=1e-12, abs=1e-12)

    def test_within_value_range(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            theta = rng.normal(size=7)
            w = rng.uniform(0.01, 1.0, size=7)
            got = weighted_median(theta, w)
            assert theta.min() - 1e-12 <= got <= theta.max() + 1e-12

    def test_breakdown_below_half(self):
        # corrupting 12 of 25 equally weighted values cannot drag the median
        # outside the range of the clean 13
        rng = np.random.default_rng(103)
        for _ in range(20):
            clean = rng.normal(0.1, 0.02, size=25)
            corrupted = clean.copy()
            idx = rng.choice(25, size=12, replace=False)
            corrupted[idx] = rng.uniform(-1e6, 1e6, size=12)
            keep = np.delete(clean, idx)
            got = weighted_median(corrupted, np.ones(25))
            assert keep.min() - 1e-9 <= got <= keep.max() + 1e-9

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            weighted_median([1.0, 2.0], np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            weighted_median([1.0, 2.0], np.array([1.0, -0.1]))
        with pytest.raises(ValueError):
            weighted_median([1.0, 2.0], np.ones(3))

    @pytest.mark.filterwarnings("error")
    def test_weights_whose_sum_overflows(self):
        assert weighted_median([1.0, 2.0, 3.0], [1e308] * 3) == 2.0
        w = np.array([1.0, 1.21, 1.44])
        expected = weighted_median([1.0, 2.0, 3.0], w)
        assert weighted_median([1.0, 2.0, 3.0], w * 1e308) == pytest.approx(expected, rel=1e-15)


class TestBootstrap:
    def test_deterministic_by_seed(self):
        s = ratio_set([0.1, 0.15, 0.2, 0.05, 0.12])
        w = np.ones(5)
        a = bootstrap_se(s, w, draws=500, seed=42)
        b = bootstrap_se(s, w, draws=500, seed=42)
        c = bootstrap_se(s, w, draws=500, seed=43)
        assert a == b
        assert a != c
        assert a > 0.0

    def test_se_scales_with_outcome_noise(self):
        s1 = ratio_set([0.1, 0.12, 0.08, 0.11, 0.09, 0.1, 0.13], se_y=0.03)
        s2 = ratio_set([0.1, 0.12, 0.08, 0.11, 0.09, 0.1, 0.13], se_y=0.06)
        w = np.ones(7)
        a = bootstrap_se(s1, w, draws=5000, seed=7)
        b = bootstrap_se(s2, w, draws=5000, seed=7)
        assert b / a == pytest.approx(2.0, rel=0.1)

    def test_vanishing_noise_gives_vanishing_se(self):
        s = make_set(
            np.full(5, 0.2),
            np.full(5, 1e-12),
            0.2 * np.array([0.1, 0.11, 0.09, 0.1, 0.12]),
            np.full(5, 1e-12),
            harmonized=True,
        )
        se = bootstrap_se(s, np.ones(5), draws=200, seed=1)
        assert se < 1e-9

    def test_pinned_values(self):
        # seeded bootstrap SEs are fixed: the sort/weigh split must not move them
        pinned = {1: (0.16612912460562032, 0.10031936271824086),
                  2: (0.1416347368113388, 0.1318414531228744),
                  3: (0.1818222827278439, 0.1474584878777233)}
        for seed, (weighted, equal) in pinned.items():
            s = harmonize(random_summary(np.random.default_rng(seed), j=12))
            w = np.random.default_rng(seed + 10).uniform(0.1, 1.0, 12)
            assert bootstrap_se(s, w, draws=1000, seed=seed) == weighted
            stream = np.random.SeedSequence(seed, spawn_key=(4, 1))
            assert bootstrap_se(s, np.ones(12), draws=300, seed=stream) == equal

    @pytest.mark.parametrize("budget", [1, 20, 49 * 12])
    def test_chunked_rows_are_bit_identical(self, budget, monkeypatch):
        # sorted in place and weighed per row chunk: the rows and every SE
        # are those of one chunk
        s = harmonize(random_summary(np.random.default_rng(5), j=12))
        w = np.random.default_rng(6).uniform(0.1, 1.0, 12)
        whole = median_methods._bootstrap_rows(s, 100, 9)
        monkeypatch.setattr(_util, "_ELEMENT_BUDGET", budget)
        assert len(_util._row_chunks(100, 12)) > 1
        chunked = median_methods._bootstrap_rows(s, 100, 9)
        np.testing.assert_array_equal(chunked[0], whole[0])
        assert chunked[1].tobytes() == whole[1].tobytes()
        for weights in (w / w.sum(), np.full(12, 1 / 12)):
            assert (median_methods._bootstrap_sd(chunked, weights)
                    == median_methods._bootstrap_sd(whole, weights))

    def test_draw_count_validated(self):
        s = ratio_set([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            bootstrap_se(s, np.ones(3), draws=1)


class TestEstimators:
    def test_simple_median_worked_example(self):
        s = make_set(
            [0.1, 0.2, 0.3], [0.01, 0.01, 0.02], [0.01, 0.02, 0.09], [0.05, 0.05, 0.05]
        )
        est = simple_median(s, draws=400, seed=3)
        assert est.theta == pytest.approx(0.1, abs=1e-12)
        assert est.method == "simple_median"
        assert est.se_reported and est.se > 0
        assert est.ci_low < 0.1 < est.ci_high

    def test_weighted_equals_simple_under_equal_weights(self):
        # identical precision for every variant: the two medians coincide
        rng = np.random.default_rng(107)
        ratios = rng.normal(0.1, 0.05, size=9)
        s = ratio_set(ratios)
        a = simple_median(s, draws=300, seed=11)
        b = weighted_median_estimate(s, draws=300, seed=11)
        assert a.theta == pytest.approx(b.theta, abs=1e-14)

    def test_identical_ratios_estimated_exactly(self):
        s = ratio_set([0.25] * 6)
        est = weighted_median_estimate(s, draws=300, seed=5)
        assert est.theta == pytest.approx(0.25, abs=1e-12)
        assert est.se > 0.0

    def test_penalized_median_resists_outlier(self):
        ratios = [0.1, 0.11, 0.09, 0.1, 0.12, 0.08, 0.1, 4.0, 4.1, 4.2]
        s = ratio_set(ratios, se_y=0.02)
        plain = weighted_median_estimate(s, draws=300, seed=13)
        pen = penalized_weighted_median(s, draws=300, seed=13)
        assert abs(pen.theta - 0.1) <= abs(plain.theta - 0.1) + 1e-12
        assert abs(pen.theta - 0.1) < 0.05
        assert pen.method == "penalized_weighted_median"

    @pytest.mark.filterwarnings("error")
    def test_weights_whose_sum_overflows(self):
        # beta_x^2 / se_y^2 is about 1e308 per variant, so the weights sum past
        # the largest double; the ratio estimates are 1, 2, 3
        beta_x = [1e154, 1.1e154, 1.2e154]
        s = make_set(beta_x, [1.0] * 3, [1e154, 2.2e154, 3.6e154], [1.0] * 3)
        est = weighted_median_estimate(s, draws=50, seed=1)
        assert est.theta == pytest.approx(weighted_median([1.0, 2.0, 3.0], [1.0, 1.21, 1.44]),
                                          rel=1e-15)
        # every ratio is exact to ~1e-154 and they disagree: all weights are penalized away
        with pytest.raises(InsufficientInstrumentsError, match="every weight is zero"):
            penalized_weighted_median(s, draws=50, seed=1)
        agree = make_set(beta_x, [1.0] * 3, [2e154, 2.2e154, 2.4e154], [1.0] * 3)
        assert penalized_weighted_median(agree, draws=50, seed=1).theta == 2.0

    def test_penalized_noop_when_homogeneous(self):
        ratios = [0.1, 0.102, 0.098, 0.1, 0.101]
        s = ratio_set(ratios)
        plain = weighted_median_estimate(s, draws=300, seed=17)
        pen = penalized_weighted_median(s, draws=300, seed=17)
        assert pen.theta == pytest.approx(plain.theta, abs=1e-14)
        assert pen.se == pytest.approx(plain.se, rel=1e-12)
