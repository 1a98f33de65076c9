"""Weighted-median mechanics, a brute-force oracle, and bootstrap behavior."""
from __future__ import annotations

import tracemalloc

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

    def test_zero_weight_value_keeps_its_place(self):
        # a zero-weight value stays in the sorted order, an end point of the interpolation
        assert weighted_median([1.0, 1.5, 3.0], [0.5, 0.0, 0.5]) == 1.5
        assert weighted_median([1.0, 3.0], [0.5, 0.5]) == 2.0

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

    @pytest.mark.parametrize("theta, weights, message", [
        ([1.0, 2.0], [0.0, 0.0], "at least one weight must be strictly positive"),
        ([1.0, 2.0], [1.0, -0.1], "weights must be finite and >= 0"),
        ([1.0, 2.0], np.ones(3), "got 3 weights for 2 values"),
        ([], [], "theta must be a non-empty 1-d vector"),
        ([[1.0, 2.0]], [1.0, 1.0], "theta must be a non-empty 1-d vector"),
        ([1.0, np.nan], [1.0, 1.0], "theta must be finite"),
        ([1.0, -np.inf], [1.0, 1.0], "theta must be finite"),
    ])
    def test_rejects_bad_inputs(self, theta, weights, message):
        with pytest.raises(ValueError, match=message):
            weighted_median(theta, np.asarray(weights, dtype=float))

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

    @pytest.mark.parametrize("budget", [1, 20, 49 * 12, 100 * 12])
    def test_blocks_are_drawn_and_weighed_in_stream_order(self, budget, monkeypatch):
        # each block of budget // J rows draws its exposure values, then its outcome
        # values, then its exact-zero redraws from the one stream; a budget of
        # draws x J or more is one block
        s = harmonize(random_summary(np.random.default_rng(5), j=12))
        w = np.random.default_rng(6).uniform(0.1, 1.0, 12)
        monkeypatch.setattr(_util, "_ELEMENT_BUDGET", budget)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(9)))
        ratios = []
        step = max(1, budget // 12)
        for lo in range(0, 100, step):
            shape = (min(step, 100 - lo), 12)
            bx = rng.standard_normal(shape) * s.se_x + s.beta_x
            by = rng.standard_normal(shape) * s.se_y + s.beta_y
            while np.any(bx == 0.0):
                rows, cols = np.nonzero(bx == 0.0)
                bx[rows, cols] = rng.standard_normal(len(cols)) * s.se_x[cols] + s.beta_x[cols]
            ratios.append(by / bx)
        ratios = np.concatenate(ratios)
        for weights in (w / w.sum(), np.full(12, 1 / 12)):
            medians = []
            normalized = weights / weights.sum()
            for row in ratios:
                order = np.argsort(row, kind="stable")
                ws = normalized[order]
                mid = np.cumsum(ws) - 0.5 * ws
                k = int(np.sum(mid < 0.5)) - 1
                a, b = row[order[k]], row[order[k + 1]]
                medians.append(row[order[0]] if k < 0 else
                               a + (b - a) * ((0.5 - mid[k]) / (mid[k + 1] - mid[k])))
            assert bootstrap_se(s, weights, draws=100, seed=9) == np.std(medians, ddof=1)

    def test_zero_weight_variants_are_still_drawn(self, monkeypatch):
        # every variant is redrawn whatever its weight: the draws do not depend on them
        s = harmonize(random_summary(np.random.default_rng(5), j=12))
        blocks = []
        sort_rows = median_methods._sort_rows
        monkeypatch.setattr(median_methods, "_sort_rows",
                            lambda ratio: blocks.append(ratio.copy()) or sort_rows(ratio))
        w = np.random.default_rng(6).uniform(0.1, 1.0, 12)
        bootstrap_se(s, w, draws=50, seed=9)
        w[[2, 7]] = 0.0
        bootstrap_se(s, w, draws=50, seed=9)
        assert [b.shape for b in blocks] == [(50, 12)] * 2
        assert np.array_equal(blocks[0], blocks[1])

    def test_bootstrap_holds_one_block_of_draws(self):
        # the three medians at J = 20,000 with 200 draws: holding both draws whole
        # takes 16 bytes x draws x J; a block stays within the 8 MB element budget
        s = harmonize(random_summary(np.random.default_rng(8), j=20_000))
        tracemalloc.start()
        try:
            for method in (simple_median, weighted_median_estimate, penalized_weighted_median):
                method(s, draws=200, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 200 * 20_000

    def test_draw_count_validated(self):
        s = ratio_set([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            bootstrap_se(s, np.ones(3), draws=1)
        # checked before any weights: a set whose weights all underflow still gets it
        tiny = make_set([1e-170] * 3, [0.01] * 3, [0.01, 0.02, 0.05], [0.05] * 3)
        for method in (simple_median, weighted_median_estimate, penalized_weighted_median):
            with pytest.raises(ValueError, match="at least 2 draws"):
                method(tiny, draws=1, seed=1)


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
