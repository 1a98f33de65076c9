"""Bisquare loss identities, M-scale oracles, and MM-fit behavior."""
from __future__ import annotations

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.stats as st

from ivrobust import ScenarioSpec, _util, robust_mm, run_study
from ivrobust.estimators import _stream, run_methods
from ivrobust.exceptions import (
    DegenerateInstrumentError,
    InsufficientInstrumentsError,
    SingularDesignError,
)
from ivrobust.penalization import cochran_q_egger, cochran_q_ivw, penalize_weights
from ivrobust.robust_mm import (
    BREAKDOWN,
    C_M,
    C_S,
    KAPPA,
    _design,
    _m_scale_batch,
    _s_stage,
    _weight,
    mm_regress,
)
from ivrobust.wls import WeightVector, egger, inverse_variance_weights, ivw

from _helpers import make_set


def line_set(x, y, se_y=0.05):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return make_set(x, np.full(x.size, 0.01), y, np.full(x.size, se_y), harmonized=True)


def _inside(r, c):
    # r / c, with every |r| > c taken as |r| = c
    r = np.asarray(r, dtype=float)
    return np.where(np.abs(r) <= c, r, c) / c


def textbook_rho(r, c):
    """Tukey's bisquare loss (c^2/6)(1 - (1 - (r/c)^2)^3), constant c^2/6 past |r| = c."""
    u = _inside(r, c)
    return (c * c / 6.0) * (1.0 - (1.0 - u * u) ** 3)


def textbook_weight(r, c):
    """The IRLS weight psi(r) / r = (1 - (r/c)^2)^2, zero past |r| = c."""
    u = _inside(r, c)
    return (1.0 - u * u) ** 2


def textbook_psi(r, c):
    """The derivative of rho, r (1 - (r/c)^2)^2, zero past |r| = c."""
    return np.asarray(r, dtype=float) * textbook_weight(r, c)


def textbook_psi_prime(r, c):
    u2 = _inside(r, c) ** 2
    return (1.0 - u2) * (1.0 - 5.0 * u2)


def m_scale(r):
    """The M-scale of one vector of residuals, through the batch solver; 0 for an exact fit."""
    return float(_m_scale_batch(np.asarray(r, dtype=float)[None, :])[0])


class TestBisquareLoss:
    """The program's C_S loss and IRLS weight against the textbook rho and psi."""

    @staticmethod
    def rho(r):
        # the program's loss is read off g at s = 1 over rows of one residual each
        r = np.asarray(r, dtype=float)
        rows = r.reshape(-1, 1)
        g, _ = robust_mm._g_and_slope(rows, np.ones(len(rows)), np.empty((3, *rows.shape)))
        return (C_S * C_S / 6.0) * (g + BREAKDOWN).reshape(r.shape)

    def test_rho_norm_is_the_scaled_c_s_loss(self):
        # g forms each term as 1 - w * w * w, w = 1 - u^2: near r = 0 that cancels to an
        # absolute error of an ulp of the loss's maximum, the accuracy g (compared with
        # BREAKDOWN) has anyway
        r = np.linspace(-3 * C_S, 3 * C_S, 601)
        np.testing.assert_allclose(self.rho(r), textbook_rho(r, C_S), rtol=1e-14,
                                   atol=2.0 * np.finfo(float).eps * C_S * C_S / 6.0)

    def test_anchor_values(self):
        c = C_S
        assert self.rho(0.0) == 0.0
        assert self.rho(c) == pytest.approx(c * c / 6.0, rel=1e-15)
        assert self.rho(5 * c) == pytest.approx(c * c / 6.0, rel=1e-15)

    def test_taylor_expansion_near_zero(self):
        # rho(r) = r^2/2 - r^4/(2 c^2) + r^6/(6 c^4) exactly (finite series)
        c = C_S
        for r in (0.01, -0.02, 0.005):
            expected = r**2 / 2 - r**4 / (2 * c**2) + r**6 / (6 * c**4)
            assert self.rho(r) == pytest.approx(expected, rel=1e-12)

    def test_even_bounded_monotone(self):
        c = C_S
        r = np.linspace(0, 3 * c, 500)
        vals = self.rho(r)
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all(vals <= c * c / 6.0 + 1e-15)
        np.testing.assert_allclose(self.rho(-r), vals, rtol=1e-15)

    def test_psi_is_rho_derivative(self):
        # psi = r * weight, against central differences of the textbook rho
        rng = np.random.default_rng(113)
        c = C_M
        h = 1e-6
        checked = 0
        for r in rng.uniform(-2 * c, 2 * c, size=200):
            if abs(abs(r) - c) < 1e-3:
                continue
            checked += 1
            fd = (textbook_rho(r + h, c) - textbook_rho(r - h, c)) / (2 * h)
            assert float(r * _weight(r, c)) == pytest.approx(fd, abs=1e-6)
        assert checked > 100

    def test_psi_weight_identity(self):
        rng = np.random.default_rng(127)
        c = C_M
        r = rng.uniform(-2 * c, 2 * c, size=100)
        np.testing.assert_allclose(
            textbook_psi(r, c), r * _weight(r, c), rtol=1e-14, atol=1e-300
        )

    def test_psi_redescends(self):
        c = C_M
        assert c * _weight(c, c) == 0.0
        assert 10 * c * _weight(10 * c, c) == 0.0
        assert -7.0 * _weight(-7.0, c) == -(7.0 * _weight(7.0, c))


class TestMScale:
    def test_symmetric_two_point_closed_form(self):
        # residuals all of magnitude k: mean normalized loss is rho~(k/s) and
        # the root satisfies (k / (c s))^2 = 1 - (1/2)^(1/3)
        c = C_S
        k = 1.0
        expected = k / (c * math.sqrt(1.0 - 0.5 ** (1.0 / 3.0)))
        got = m_scale(np.array([1.0, -1.0, 1.0, -1.0, 1.0]))
        assert got > 0.0
        assert got == pytest.approx(expected, rel=1e-9)
        got2 = m_scale(np.full(8, -2.5))
        assert got2 == pytest.approx(2.5 * expected, rel=1e-9)

    def test_matches_brentq_oracle(self):
        rng = np.random.default_rng(131)
        c = C_S
        for _ in range(50):
            r = rng.normal(0, rng.uniform(0.5, 3), size=int(rng.integers(5, 40)))

            def f(s):
                u2 = np.minimum((r / (c * s)) ** 2, 1.0)
                return float(np.mean(1.0 - (1.0 - u2) ** 3)) - 0.5

            amax = float(np.abs(r).max())
            oracle = scipy.optimize.brentq(f, 1e-10 * amax, 10 * amax, xtol=1e-14)
            got = m_scale(r)
            assert got > 0.0
            assert got == pytest.approx(oracle, rel=1e-8)

    def test_scale_equivariant(self):
        rng = np.random.default_rng(137)
        r = rng.normal(size=30)
        base = m_scale(r)
        scaled = m_scale(7.5 * r)
        assert scaled == pytest.approx(7.5 * base, rel=1e-9)

    def test_exact_fit_detection(self):
        assert m_scale(np.zeros(10)) == 0.0
        # 6 zeros of 10: strictly more than half at zero
        assert m_scale(np.array([0.0] * 6 + [1.0] * 4)) == 0.0
        # exactly half at zero: root exists at min_nonzero / c
        s = m_scale(np.array([0.0, 0.0, 2.0, 2.0]))
        assert s > 0.0
        assert s == pytest.approx(2.0 / 1.548, rel=1e-9)


def oracle_rho_norm(u):
    """The C_S loss scaled to max 1, from the textbook loss."""
    return textbook_rho(u, C_S) * (6.0 / (C_S * C_S))


def bisect_m_scale_batch(resid):
    """Reference row-wise M-scales: bracket expansion, then bisection in log scale to 8 ulps."""
    c, breakdown = C_S, BREAKDOWN
    a = np.abs(resid)
    n = a.shape[1]
    nonzero = np.count_nonzero(a, axis=1)
    exact = nonzero < breakdown * n
    solve = ~exact
    min_nz = np.where(a > 0.0, a, np.inf).min(axis=1)
    lo = np.where(solve, min_nz / c, 1.0)
    hi = np.maximum(a.max(axis=1), lo)
    for _ in range(200):
        g_hi = oracle_rho_norm(a / hi[:, None]).mean(axis=1) - breakdown
        need = solve & (g_hi > 0.0)
        if not np.any(need):
            break
        hi = np.where(need, hi * 2.0, hi)
    # at the geometric midpoint, so that a root many orders below max|r| is found to 8 ulps
    for _ in range(200):
        wide = solve & (hi - lo > 8.0 * np.finfo(float).eps * hi)
        if not np.any(wide):
            break
        mid = np.sqrt(lo) * np.sqrt(hi)
        g_mid = oracle_rho_norm(a / mid[:, None]).mean(axis=1) - breakdown
        above = g_mid > 0.0
        lo = np.where(wide & above, mid, lo)
        hi = np.where(wide & ~above, mid, hi)
    return np.where(exact, 0.0, np.sqrt(lo) * np.sqrt(hi)), exact


def oracle_batch(rng, rows, j):
    """Normal and heavy-tailed rows at magnitudes 1e-10..1e2, some with zeros."""
    mag = 10.0 ** rng.uniform(-10.0, 2.0, size=(rows, 1))
    r = rng.normal(size=(rows, j))
    heavy = rng.random(rows) < 0.5
    r[heavy] = rng.standard_t(rng.choice([1, 2, 3]), size=(int(heavy.sum()), j))
    r *= mag
    for i in range(rows):
        kind = rng.integers(0, 8)
        if kind == 0:    # exact fit: strictly more than half zero
            r[i, rng.choice(j, size=j // 2 + 1, replace=False)] = 0.0
        elif kind == 1 and j % 2 == 0:    # plateau: exactly half zero
            r[i, rng.choice(j, size=j // 2, replace=False)] = 0.0
        elif kind == 2:    # a few zeros, fewer than half
            r[i, rng.choice(j, size=(j - 1) // 2, replace=False)] = 0.0
        elif kind == 3:
            r[i] = 0.0
    return r


def dust_row(rng, n, kind):
    """A row whose root lies many orders of magnitude below max|r|, the Newton start.

    Kind 0: n // 2 + 1 residuals of N(0, 1e-14^2) beside N(0, 1) ones, 70% of
    them zeroed; kind 1: n // 2 + 1 of N(0, 1e-12^2) beside N(0, 100^2) ones;
    kind 2: N(0, 1) exp(N(0, 8^2)).
    """
    k = n // 2 + 1
    if kind == 0:
        r = rng.normal(size=n)
        r[rng.random(n) < 0.7] = 0.0
        r[:k] = rng.normal(scale=1e-14, size=k)
    elif kind == 1:
        r = rng.normal(scale=100.0, size=n)
        r[:k] = rng.normal(scale=1e-12, size=k)
    else:
        r = rng.normal(size=n) * np.exp(rng.normal(scale=8.0, size=n))
    return r


def assert_matches_bisection(r):
    c, breakdown = C_S, BREAKDOWN
    got = _m_scale_batch(r)
    ref, exact = bisect_m_scale_batch(r)
    # a scale of 0 marks exactly the oracle's exact fits
    np.testing.assert_array_equal(got == 0.0, exact)
    plateau = np.count_nonzero(r, axis=1) == breakdown * r.shape[1]
    np.testing.assert_allclose(got[plateau], ref[plateau], rtol=1e-12)
    solved = ~exact & ~plateau
    # relative sensitivity of the root to rounding in g: 1 / |s g'(s)|; past
    # 1e3 (a root where few residuals lie inside the loss's smooth part) the
    # reference itself is only that accurate, so the tolerance grows with it
    a = np.abs(r[solved])
    u2 = np.minimum((a / (c * ref[solved, None])) ** 2, 1.0)
    cond = 1.0 / (6.0 * np.mean(u2 * (1.0 - u2) ** 2, axis=1))
    rtol = 1e-12 * np.maximum(1.0, cond / 1e3)
    assert np.all(np.abs(got[solved] - ref[solved]) <= rtol * ref[solved])
    return cond


class TestMScaleNewtonOracle:
    def test_matches_bisection_reference(self):
        rng = np.random.default_rng(191)
        conds = []
        for j in range(2, 41):
            conds.append(assert_matches_bisection(oracle_batch(rng, 60, j)))
        conds = np.concatenate(conds)
        # the plain 1e-12 bound covers nearly every row
        assert np.mean(conds <= 1e3) > 0.97

    def test_plateau_returns_lower_bracket_end(self):
        rng = np.random.default_rng(193)
        for j in (2, 4, 10, 40):
            r = rng.normal(size=(20, j)) * 10.0 ** rng.uniform(-10, 2, size=(20, 1))
            r[:, : j // 2] = 0.0
            got = _m_scale_batch(r)
            assert np.all(got > 0.0)
            np.testing.assert_array_equal(got, np.abs(r[:, j // 2:]).min(axis=1) / 1.548)

    def test_all_zero_rows(self):
        assert np.all(_m_scale_batch(np.zeros((3, 7))) == 0.0)

    def test_roots_above_the_largest_residual(self):
        # all |r| equal, or most near the largest: g(max|r|) > 0, so the root lies between
        # max|r| and the closed-form upper end max|r| sqrt(6) / C_S
        rng = np.random.default_rng(223)
        for j in (2, 3, 5, 25, 40):
            mag = 10.0 ** rng.uniform(-10.0, 2.0, size=(30, 1))
            equal = mag * rng.choice([-1.0, 1.0], size=(30, j))
            near = equal * rng.uniform(0.95, 1.0, size=(30, j))
            near[:, : j // 5] *= rng.uniform(0.0, 1.0, size=(30, j // 5))
            for r in (equal, near):
                top = np.abs(r).max(axis=1)
                assert np.all(oracle_rho_norm(r / top[:, None]).mean(axis=1) > BREAKDOWN)
                assert_matches_bisection(r)
                got = _m_scale_batch(r)
                assert np.all((got > top) & (got < top * math.sqrt(6.0) / C_S))
            np.testing.assert_allclose(_m_scale_batch(equal),
                                       mag[:, 0] / (C_S * math.sqrt(1.0 - 0.5 ** (1.0 / 3.0))),
                                       rtol=1e-12)

    def test_rows_alternating_at_their_root_settle_within_the_cap(self, monkeypatch):
        # in this study some rows' computed g is +-1 ulp at the iterates beside the root,
        # and Newton steps between them by just over 4 ulps; a bracket 8 ulps wide settles
        # them, so no solve runs past _NEWTON_MAX_ITER evaluations into the bisection tail
        solves = []  # [residuals, g evaluations] of each solve
        solving = []  # nonempty inside a solve; the prune's evaluations are not counted
        real_chunk, real_g = robust_mm._m_scale_chunk, robust_mm._g_and_slope

        def counting_chunk(resid):
            solves.append([resid.copy(), 0])
            solving.append(True)
            try:
                return real_chunk(resid)
            finally:
                solving.pop()

        def counting_g(r, s, out):
            if solving:
                solves[-1][1] += 1
            return real_g(r, s, out)

        monkeypatch.setattr(robust_mm, "_m_scale_chunk", counting_chunk)
        monkeypatch.setattr(robust_mm, "_g_and_slope", counting_g)
        spec = ScenarioSpec(scenario=2, prop_invalid=0.3, n_sim=20, seed=2)
        run_study(spec, ("robust_ivw", "robust_egger", "penalized_robust_ivw",
                         "penalized_robust_egger"))
        monkeypatch.undo()
        assert len(solves) == 40
        assert max(evals for _, evals in solves) <= robust_mm._NEWTON_MAX_ITER
        for resid, _ in solves:
            assert_matches_bisection(resid)

    def test_bisection_fallback_past_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(robust_mm, "_NEWTON_MAX_ITER", 1)
        rng = np.random.default_rng(197)
        for j in (2, 3, 11, 25, 40):
            assert_matches_bisection(oracle_batch(rng, 60, j))

    def test_roots_far_below_the_largest_residual(self):
        # rounding dust beside a few large residuals: many of these rows are still
        # unsettled after _NEWTON_MAX_ITER steps, and the bisection that goes on from
        # there must find their roots to the oracle's accuracy
        rng = np.random.default_rng(3)
        rows = [dust_row(rng, 6 + i % 35, i % 3) for i in range(3000)]
        for n in range(6, 41):
            assert_matches_bisection(np.array([r for r in rows if len(r) == n]))

    @pytest.mark.parametrize("newton_cap", [16, 1])
    @pytest.mark.parametrize("j", [25, 9_000])
    def test_rows_independent_of_batch(self, j, newton_cap, monkeypatch):
        # past J = 8,192 a summation kernel can split a lone row's sum in another order
        # than a row of a batch's; a cap of one Newton step sends rows through the
        # bisection fallback
        monkeypatch.setattr(robust_mm, "_NEWTON_MAX_ITER", newton_cap)
        rng = np.random.default_rng(199)
        r = oracle_batch(rng, 50, j)
        full = _m_scale_batch(r)
        for i in (0, 17, 49):
            assert _m_scale_batch(r[i:i + 1])[0] == full[i]
            # beside an exact-fit row it is the only row left to solve
            assert _m_scale_batch(np.vstack([r[i], np.zeros(j)]))[0] == full[i]
        np.testing.assert_array_equal(_m_scale_batch(r[::3]), full[::3])

    @pytest.mark.parametrize("budget", [7 * 30, 15])
    def test_chunked_solve_is_bit_identical(self, budget, monkeypatch):
        # chunks of 7 rows with a lone last row, then one row per chunk
        rng = np.random.default_rng(211)
        r = oracle_batch(rng, 50, 30)
        whole = _m_scale_batch(r)
        chunks = []
        real_chunk = robust_mm._m_scale_chunk

        def counting_chunk(resid):
            chunks.append(len(resid))
            return real_chunk(resid)

        monkeypatch.setattr(_util, "_ELEMENT_BUDGET", budget)
        monkeypatch.setattr(robust_mm, "_m_scale_chunk", counting_chunk)
        got = _m_scale_batch(r)
        assert len(chunks) >= 8 and max(chunks) <= max(1, budget // 30)
        np.testing.assert_array_equal(got, whole)


class TestApproxScales:
    """The refinement's scales before the last step: a MAD start, then fixed-point steps."""

    def test_start_is_the_mad_about_zero(self):
        rng = np.random.default_rng(227)
        for j in (2, 3, 24, 25):
            r = oracle_batch(rng, 60, j)
            got = robust_mm._approx_scales(r)
            exact = np.count_nonzero(r, axis=1) < BREAKDOWN * j
            np.testing.assert_array_equal(got[~exact], 1.4826 * np.median(np.abs(r[~exact]),
                                                                         axis=1))

    def test_step_is_one_fixed_point_iteration(self):
        # s sqrt(mean rho_norm(r / s) / BREAKDOWN) by the textbook loss; the M-scale is its
        # fixed point
        rng = np.random.default_rng(229)
        r = rng.normal(size=(40, 25)) * 10.0 ** rng.uniform(-10.0, 2.0, size=(40, 1))
        s = np.abs(r).max(axis=1) * rng.uniform(0.2, 1.5, size=40)
        expected = s * np.sqrt(oracle_rho_norm(r / s[:, None]).mean(axis=1) / BREAKDOWN)
        np.testing.assert_allclose(robust_mm._approx_scales(r, s), expected, rtol=1e-12)
        root = _m_scale_batch(r)
        np.testing.assert_allclose(robust_mm._approx_scales(r, root), root, rtol=1e-12)

    def test_exact_fits_are_zero(self):
        # fewer than half the residuals nonzero is 0, as the solver's scale; exactly half
        # is not. A row at scale 0 (an exact fit the search no longer steps) stays 0
        rng = np.random.default_rng(233)
        r = rng.normal(size=(6, 10))
        r[0, :6] = 0.0
        r[1] = 0.0
        r[2, :5] = 0.0
        r[3, :9] = 0.0
        exact = _m_scale_batch(r) == 0.0
        np.testing.assert_array_equal(exact, [True, True, False, True, False, False])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scales in (None, np.ones(6), np.where(exact, 0.0, 1.0)):
                got = robust_mm._approx_scales(r, scales)
                np.testing.assert_array_equal(got == 0.0, exact)

    def test_step_from_far_above_is_floored_at_the_bracket_end(self):
        # from 1e10 times the largest residual every term of g rounds to 0 and the step
        # gives 0: a spurious exact fit, unless raised to min nonzero |r| / C_S, where g >= 0
        rng = np.random.default_rng(239)
        r = rng.normal(size=(20, 25))
        r[:, :5] = 0.0
        s = 1e10 * np.abs(r).max(axis=1)
        buf = np.empty((3, *r.shape))
        assert np.all(robust_mm._g_and_slope(r, s, buf)[0] == -BREAKDOWN)
        lo = np.where(r != 0.0, np.abs(r), np.inf).min(axis=1) / C_S
        np.testing.assert_array_equal(robust_mm._approx_scales(r, s), lo)
        assert np.all(robust_mm._g_and_slope(r, lo, buf)[0] >= 0.0)
        # the MAD of a row that is nonzero in just over half its places stays above it
        r[:, :12] = 0.0
        lo = np.where(r != 0.0, np.abs(r), np.inf).min(axis=1) / C_S
        assert np.all(robust_mm._approx_scales(r) > lo)

    def test_median_comes_from_a_row_sort(self, monkeypatch):
        # np.median took ~7 times a row sort's time at 538 x 25 and added over 1 MB of
        # resident memory at its first call
        def refuse(*args, **kwargs):
            raise AssertionError("np.median or np.partition called")

        r = oracle_batch(np.random.default_rng(241), 50, 25)
        monkeypatch.setattr(np, "median", refuse)
        monkeypatch.setattr(np, "partition", refuse)
        assert np.all(np.isfinite(robust_mm._approx_scales(r)))

    @pytest.mark.parametrize("budget", [7 * 30, 15])
    def test_rows_independent_of_batch_and_chunking(self, budget, monkeypatch):
        rng = np.random.default_rng(251)
        r = oracle_batch(rng, 50, 30)
        s = np.abs(r).max(axis=1) * rng.uniform(0.1, 2.0, size=50)
        whole = robust_mm._approx_scales(r), robust_mm._approx_scales(r, s)
        monkeypatch.setattr(_util, "_ELEMENT_BUDGET", budget)
        np.testing.assert_array_equal(robust_mm._approx_scales(r), whole[0])
        np.testing.assert_array_equal(robust_mm._approx_scales(r, s), whole[1])
        for i in (0, 17, 49):
            assert robust_mm._approx_scales(r[i:i + 1])[0] == whole[0][i]
            assert robust_mm._approx_scales(r[i:i + 1], s[i:i + 1])[0] == whole[1][i]


def s_stage_case(seed):
    """A harmonized set: clean, contaminated, or partly on an exact line."""
    rng = np.random.default_rng(seed)
    j = int(rng.integers(5, 41))
    x = rng.uniform(0.03, 0.3, size=j)
    y = 0.1 * x + rng.normal(0.0, 0.01, size=j)
    kind = seed % 3
    if kind == 1:
        bad = rng.random(j) < 0.3
        y[bad] += rng.uniform(-0.1, 0.1, size=int(bad.sum()))
    elif kind == 2:
        on_line = rng.choice(j, size=j // 2 + 2, replace=False)
        y[on_line] = 0.1 * x[on_line]
    return make_set(x, np.full(j, 0.01), y, rng.uniform(0.005, 0.02, size=j),
                    harmonized=True)


def s_stage(s, searches):
    """The lockstep S-stage of (design, response, rng) searches, each drawing its candidates."""
    return _s_stage([(d, r, *robust_mm._candidates(s, d, r, rng)) for d, r, rng in searches])


class TestSStagePruning:
    def test_same_winner_as_solving_every_candidate(self, monkeypatch):
        sizes = []
        real_batch = robust_mm._m_scale_batch

        def counting_batch(resid):
            sizes.append(resid.shape[0])
            return real_batch(resid)

        for seed in range(50):
            s = s_stage_case(seed)
            w = inverse_variance_weights(s).w
            for intercept in (False, True):
                design, response = _design(s, w, intercept)
                with monkeypatch.context() as m:
                    m.setattr(robust_mm, "_m_scale_batch", counting_batch)
                    sizes.clear()
                    (pruned,) = s_stage(s, [(design, response,
                                              np.random.Generator(np.random.Philox(seed)))])
                    solved_last = sum(sizes)
                with monkeypatch.context() as m:
                    m.setattr(robust_mm, "_contending_scales",
                              lambda resid, prev, segments: _m_scale_batch(resid))
                    (full,) = s_stage(s, [(design, response,
                                            np.random.Generator(np.random.Philox(seed)))])
                np.testing.assert_array_equal(pruned[0], full[0])
                assert pruned[1:] == full[1:]
                if seed % 3 != 2:
                    assert solved_last < 250


def approx_scales(resid, scales=None):
    """Reference approximate scales: the MAD about zero, or one fixed-point step from ``scales``.

    The MAD's median is np.median's; the step goes through the program's g, so
    that a step's scale is the program's bit for bit. A row with fewer than
    half its residuals nonzero is 0, every other row at least min nonzero |r| / C_S.
    """
    a = np.abs(resid)
    if scales is None:
        s = 1.4826 * np.median(a, axis=1)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            g, _ = robust_mm._g_and_slope(resid, scales, np.empty((3, *resid.shape)))
            s = scales * np.sqrt(1.0 + 2.0 * g)
    exact = np.count_nonzero(a, axis=1) < BREAKDOWN * a.shape[1]
    lo = np.where(a > 0.0, a, np.inf).min(axis=1) / C_S
    return np.where(exact, 0.0, np.fmax(s, lo))


def full_s_stage(s, design, response, rng):
    """Reference S-stage without dedup: all N_CANDIDATES draws refined and solved.

    The same draws, redraws and ordered pairs as the program's search. Every
    draw starts from its MAD, takes one fixed-point scale step after each
    reweighting step, and gets an exact M-scale from _m_scale_batch over the
    whole batch at the end; first minimum wins.
    """
    j, p = s.j, design.shape[1]
    x, y = s.beta_x, s.beta_y
    n = robust_mm.N_CANDIDATES
    idx = rng.integers(0, j, size=(n, p))
    while True:
        idx.sort(axis=1)
        i0, i1 = idx[:, 0], idx[:, -1]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if p == 1:
                bad = design[i0, 0] == 0.0
                coefs = (y[i0] / x[i0])[:, None]
            else:
                bad = (i0 == i1) | (design[i0, 0] == 0.0) | (design[i1, 0] == 0.0) \
                    | (x[i0] == x[i1])
                slope = (y[i1] - y[i0]) / (x[i1] - x[i0])
                coefs = np.column_stack([y[i0] - slope * x[i0], slope])
            bad |= ~np.isfinite(coefs).all(axis=1)
            if not bad.any():  # overflowing residuals are redrawn once no fit is singular
                resid = robust_mm._residuals(coefs, design, response)
                resid[np.arange(n)[:, None], idx] = 0.0
                bad = ~np.isfinite(resid).all(axis=1)
                if not bad.any():
                    break
        idx[bad] = rng.integers(0, j, size=(int(bad.sum()), p))
    scales = approx_scales(resid)
    for _ in range(robust_mm.REFINE_STEPS):
        active = scales > 0.0
        if not active.any():
            break
        safe = np.where(active, scales, 1.0)
        with np.errstate(over="ignore"):
            irls_w = _weight(resid / safe[:, None], C_S)
        irls_w[~active] = 0.0
        updated, _, ok = robust_mm._wls_rows(irls_w, design, response)
        with np.errstate(over="ignore", invalid="ignore"):
            stepped = robust_mm._residuals(updated, design, response)
        take = (active & ok & np.isfinite(stepped).all(axis=1))[:, None]
        coefs = np.where(take, updated, coefs)
        resid = np.where(take, stepped, resid)
        scales = approx_scales(resid, scales)
    scales = _m_scale_batch(resid)
    best = int(np.argmin(scales))
    return coefs[best], float(scales[best])


class TestDistinctSubsets:
    """Each distinct elemental subset is solved once, and the search is the full one."""

    def test_first_round_solves_each_subset_once(self, monkeypatch):
        sizes = []  # the candidate rows of each starting scale
        real_approx = robust_mm._approx_scales

        def counting_approx(resid, scales=None):
            if scales is None:
                sizes.append(resid.shape[0])
            return real_approx(resid, scales)

        monkeypatch.setattr(robust_mm, "_approx_scales", counting_approx)
        for seed in range(50):
            s = s_stage_case(seed)
            w = inverse_variance_weights(s).w
            for intercept, bound in ((False, s.j), (True, s.j * (s.j - 1) // 2)):
                design, response = _design(s, w, intercept)
                sizes.clear()
                s_stage(s, [(design, response, np.random.Generator(np.random.Philox(seed)))])
                assert len(sizes) == 1 and sizes[0] <= bound

    @pytest.mark.parametrize("j, rows", [(25, 500), (300, 500), (25_000, 20)])
    def test_residual_rows_independent_of_batch(self, j, rows):
        # a BLAS coefs @ design.T rounded two-column rows by their batch at J = 300
        rng = np.random.default_rng(j)
        for p in (1, 2):
            design = rng.normal(size=(j, p))
            response = rng.normal(size=j)
            coefs = rng.normal(size=(rows, p)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, 1))
            full = robust_mm._residuals(coefs, design, response)
            for k in (1, 2, rows // 3, rows - 1):
                sub = np.sort(rng.choice(rows, size=k, replace=False))
                np.testing.assert_array_equal(robust_mm._residuals(coefs[sub], design, response),
                                              full[sub])

    def test_candidates_hold_one_copy_of_the_residuals(self):
        # the residuals are formed one row chunk at a time into the returned array, and a
        # search without redraws returns its fits as solved: a through-origin search at
        # J = 20,000 holds little beyond that one rows x J array
        j = 20_000
        rng = np.random.default_rng(j)
        beta_x = rng.uniform(0.03, 0.1, j)
        s = make_set(beta_x, [0.01] * j, 0.1 * beta_x + rng.normal(0.0, 0.02, j),
                     rng.uniform(0.01, 0.03, j))
        design, response = _design(s, inverse_variance_weights(s).w, False)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            _, resid = robust_mm._candidates(s, design, response, philox(j, 0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert resid.shape == (len(resid), j)
        assert peak - entry < 1.3 * resid.nbytes

    def test_same_result_as_solving_every_draw(self):
        for seed in range(50):
            s = s_stage_case(seed)
            w = inverse_variance_weights(s).w
            for intercept in (False, True):
                design, response = _design(s, w, intercept)
                (got,) = s_stage(s, [(design, response,
                                       np.random.Generator(np.random.Philox(seed)))])
                ref = full_s_stage(s, design, response,
                                   np.random.Generator(np.random.Philox(seed)))
                np.testing.assert_array_equal(got[0], ref[0])
                assert got[1:] == ref[1:]


def philox(seed, k):
    return np.random.Generator(np.random.Philox([seed, k]))


class TestLockstep:
    """Fits of one set searched in one lockstep S-stage get their solo results."""

    @staticmethod
    def group(s, seed):
        # origin and intercept fits under inverse-variance and perturbed weights
        iv = inverse_variance_weights(s).w
        other = iv * np.random.default_rng(seed + 1000).uniform(0.1, 1.0, size=s.j)
        return [_design(s, w, intercept) for w in (iv, other) for intercept in (False, True)]

    def test_each_fit_gets_its_solo_and_full_search_result(self):
        for seed in range(30):
            s = s_stage_case(seed)
            designs = self.group(s, seed)
            joint = s_stage(s, [(d, r, philox(seed, k)) for k, (d, r) in enumerate(designs)])
            assert len(joint) == len(designs)
            for k, ((design, response), got) in enumerate(zip(designs, joint)):
                (solo,) = s_stage(s, [(design, response, philox(seed, k))])
                ref = full_s_stage(s, design, response, philox(seed, k))
                for other in (solo, ref):
                    np.testing.assert_array_equal(got[0], other[0])
                    assert got[1:] == other[1:]

    def test_singular_member_fails_alone(self, monkeypatch):
        # all but two exposure associations are equal: an intercept fit's pair is
        # singular unless it holds one of those two, about 1 draw in 10 at J = 40,
        # so its search gives up after _SUBSET_RETRY_ROUNDS rounds of redraws
        # while the ratio fits of the same set run as they would alone
        monkeypatch.setattr(robust_mm, "_SUBSET_RETRY_ROUNDS", 20)
        for seed in range(0, 30, 3):
            rng = np.random.default_rng(seed)
            x = np.full(40, 0.1)
            x[:2] = rng.uniform(0.03, 0.3, 2)
            s = line_set(x, 0.1 * x + rng.normal(0.0, 0.01, 40))
            iv = inverse_variance_weights(s)
            other = WeightVector(iv.w * rng.uniform(0.1, 1.0, s.j))
            fits = [(iv, False), (iv, True), (other, False)]
            requests = [(w, intercept, [seed, k], "multiplicative_random", None)
                        for k, (w, intercept) in enumerate(fits)]
            joint = robust_mm._mm_fits(s, requests)
            assert isinstance(joint[1], SingularDesignError)
            for k, request in enumerate(requests):
                if k != 1:
                    assert joint[k] == mm_regress(s, *request[:4])

    def test_last_round_solves_once_for_all_fits(self, monkeypatch):
        sizes = []
        real_batch = robust_mm._m_scale_batch

        def counting_batch(resid):
            sizes.append(resid.shape[0])
            return real_batch(resid)

        monkeypatch.setattr(robust_mm, "_m_scale_batch", counting_batch)
        s = s_stage_case(1)
        designs = self.group(s, 1)
        s_stage(s, [(d, r, philox(1, k)) for k, (d, r) in enumerate(designs)])
        # one reference row per fit, then the contenders of all fits; the scales before
        # the last step are approximate
        assert len(sizes) == 2 and sizes[0] == len(designs)

    def test_groups_under_the_element_budget_match_solo_fits(self, monkeypatch):
        s = s_stage_case(7)
        w = inverse_variance_weights(s)
        requests = [(w, intercept, seed, effects, None) for seed in (3, 6)
                    for intercept in (False, True) for effects in ("fixed", "multiplicative_random")]
        solo = [mm_regress(s, *r[:4]) for r in requests]
        # the intercept fits of the two streams differ, so a crossed stream shows
        assert solo[2][1].theta != solo[6][1].theta
        stages = []
        real_stage = robust_mm._s_stage

        def counting_stage(fits):
            stages.append(len(fits))
            return real_stage(fits)

        monkeypatch.setattr(robust_mm, "_s_stage", counting_stage)
        for budget, groups in ((_util._ELEMENT_BUDGET, [8]), (3 * 500 * s.j, [3, 3, 2]),
                               (1, [1] * 8)):
            monkeypatch.setattr(_util, "_ELEMENT_BUDGET", budget)
            stages.clear()
            assert robust_mm._mm_fits(s, requests) == solo
            assert stages == groups

    def test_preconditions_fail_per_fit(self):
        s = s_stage_case(5)
        w = inverse_variance_weights(s)
        zero = make_set(np.zeros(s.j), np.full(s.j, 0.01), s.beta_y, s.se_y, harmonized=True)
        got = robust_mm._mm_fits(zero, [(None, False, 1, "fixed", None)])
        assert isinstance(got[0], DegenerateInstrumentError)
        two = make_set(s.beta_x[:2], s.se_x[:2], s.beta_y[:2], s.se_y[:2], harmonized=True)
        got = robust_mm._mm_fits(two, [(None, True, 1, "fixed", None),
                                        (None, False, 1, "fixed", None)])
        assert isinstance(got[0], InsufficientInstrumentsError)
        assert got[1] == mm_regress(two, seed=1, effects="fixed")
        with pytest.raises(ValueError):
            robust_mm._mm_fits(s, [(w, False, 1, "random", None)])


def lapack_m_stage(design, response, beta, s_star):
    """The M-stage by LAPACK: np.linalg.solve per IRLS step, cond and inv for the sandwich.

    Its loss is the textbook bisquare of this module, not the program's kernels.
    """
    converged = False
    for iterations in range(1, robust_mm.M_STEP_MAX_ITER + 1):
        irls_w = textbook_weight((response - design @ beta) / s_star, C_M)
        beta_new = np.linalg.solve((design * irls_w[:, None]).T @ design,
                                   design.T @ (irls_w * response))
        delta = float(np.max(np.abs(beta_new - beta)))
        beta = beta_new
        if delta <= robust_mm.M_STEP_TOL * max(1.0, float(np.max(np.abs(beta)))):
            converged = True
            break
    u = (response - design @ beta) / s_star
    psi = textbook_psi(u, C_M)
    bread = (design * textbook_psi_prime(u, C_M)[:, None]).T @ design
    meat = (design * (psi * psi)[:, None]).T @ design
    ses = None
    if np.linalg.cond(bread) < 1e12:
        bread_inv = np.linalg.inv(bread)
        ses = np.sqrt(np.diag(s_star ** 2 * bread_inv @ meat @ bread_inv)).tolist()
    return beta, converged, iterations, ses


class TestMStageLapackOracle:
    @pytest.mark.parametrize("intercept", [False, True])
    def test_matches_linalg_solves(self, intercept, monkeypatch):
        # clean, contaminated and exact-line sets; the last are exact fits with no M-stage
        fitted = 0
        for seed in range(60):
            s = s_stage_case(seed)
            fit, est = mm_regress(s, intercept=intercept, seed=seed)
            with monkeypatch.context() as m:
                m.setattr(robust_mm, "_m_stage", lapack_m_stage)
                ref_fit, ref = mm_regress(s, intercept=intercept, seed=seed)
            assert (fit.converged, fit.exact_fit, est.se_reported) == (
                ref_fit.converged, ref_fit.exact_fit, ref.se_reported)
            assert est.theta == pytest.approx(ref.theta, rel=1e-10)
            if ref.se_reported:
                fitted += 1
                assert est.se == pytest.approx(ref.se, rel=1e-10)
            if intercept:
                assert est.intercept == pytest.approx(ref.intercept, rel=1e-10, abs=1e-15)
                if ref.intercept_se is not None:
                    assert est.intercept_se == pytest.approx(ref.intercept_se, rel=1e-10)
        assert fitted >= 30


class TestRoundingDust:
    def test_exact_line_majority_is_an_exact_fit(self):
        # J/2 + 2 variants lie on y = 0.1 x; under a candidate through two of them the
        # others' residuals are ~1e-17, not 0. Counted as nonzero they gave an S-scale
        # of rounding dust and, for seed 23, an SE of 0.081 built from it
        for seed in range(2, 60, 3):
            s = s_stage_case(seed)
            for intercept in (False, True):
                fit, est = mm_regress(s, intercept=intercept, seed=seed)
                assert fit.exact_fit and fit.scale == 0.0
                assert est.warnings == ("standard error unavailable", "exact fit")
                assert est.theta == pytest.approx(0.1, rel=1e-13)


class TestCollapsedInterval:
    # the slope's SE is ~1e-9 of the slope: slope -/+ z * se rounds onto it
    SET = dict(beta_x=[0.29529876001658606, 0.2893025449027409], se_x=[0.01] * 2,
               beta_y=[0.029529876983451435, -27.455962395417824],
               se_y=[6.0977293872916404e-09, 46.94028973049949])

    def test_mm_regress_reports_no_se(self):
        fit, est = mm_regress(make_set(**self.SET, harmonized=True), seed=6)
        assert not est.se_reported
        assert not fit.se_available
        assert est.theta == fit.slope
        assert "standard error unavailable" in est.warnings
        assert "interval collapsed" in est.warnings

    def test_run_methods_does_not_raise(self):
        est = run_methods(make_set(**self.SET, harmonized=True),
                          ("penalized_robust_ivw",), seed=4)["penalized_robust_ivw"]
        assert not est.se_reported
        assert "interval collapsed" in est.warnings


class TestOverflowingFits:
    # residuals near 1e155: the S-scale's square overflows the sandwich
    SET = dict(beta_x=[1.0, 2.0, 3.0, 4.0, 5.0], se_x=[0.01] * 5,
               beta_y=[3e155, -2e155, 1e155, 5e155, -4e155], se_y=[1.0] * 5)

    @pytest.mark.parametrize("intercept", [False, True])
    def test_squared_scale_overflow_reports_no_se(self, intercept):
        fit, est = mm_regress(make_set(**self.SET, harmonized=True), intercept=intercept, seed=1)
        assert fit.converged and not fit.se_available
        assert math.isfinite(est.theta) and not est.se_reported
        assert est.warnings == ("standard error unavailable",)

    def test_no_se_keeps_nonconvergence_warning(self, monkeypatch):
        monkeypatch.setattr(robust_mm, "M_STEP_MAX_ITER", 1)
        est = run_methods(make_set(**self.SET), ("robust_ivw",), seed=1)["robust_ivw"]
        assert est.warnings == ("standard error unavailable", "M-step did not converge")

    def test_overflowing_candidates_are_redrawn(self):
        # y / x overflows for the subnormal beta_x, and so does the slope
        # between two subnormal ones; such subsets must never reach the scale
        # solves, which would warn on inf and NaN residuals
        s = make_set([1e-310, 0.1, 0.2], [0.01] * 3, [1.0, 0.01, 0.02], [0.05] * 3)
        s4 = make_set([1e-310, 2e-310, 0.1, 0.2], [0.01] * 4, [1.0, 0.05, 0.06, 0.07],
                      [0.05] * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ivw_fit = run_methods(s, ("robust_ivw",), seed=1)["robust_ivw"]
            egger_fit = run_methods(s4, ("robust_egger",), seed=1)["robust_egger"]
        # the last two variants of s lie on y = 0.1 x: either one's ratio is an
        # exact fit; the last three of s4 lie on y = 0.05 + 0.1 x
        assert ivw_fit.theta == pytest.approx(0.1, rel=1e-15)
        assert egger_fit.theta == pytest.approx(0.1, rel=1e-14)
        assert egger_fit.intercept == pytest.approx(0.05, rel=1e-14)
        for est in (ivw_fit, egger_fit):
            assert est.warnings == ("standard error unavailable", "exact fit")

    def test_overflowing_residuals_are_redrawn_after_singular_draws(self, monkeypatch):
        # variant 0's ratio is finite, but its fit overflows at variant 4; variant 5's
        # zero exposure is singular. Singular draws are redrawn first, then the draws
        # whose subset's residuals overflow; each other subset comes back once, in the
        # order of its first draw. With few draws that order depends on the redraws:
        # redrawing both kinds in one round gives another order at seeds 25 and 37
        monkeypatch.setattr(robust_mm, "N_CANDIDATES", 6)
        x = np.array([1e-10, 1.0, 2.0, 3.0, 4e10, 0.0])
        y = np.array([1e290, 1.0, 2.0, 3.0, 4.0, 1.0])
        s = make_set(x, [0.01] * 6, y, [1.0] * 6)
        design, response = _design(s, inverse_variance_weights(s).w, False)
        for seed in range(40):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                coefs, resid = robust_mm._candidates(s, design, response, philox(seed, 0))
            rng = philox(seed, 0)
            idx = rng.integers(0, 6, size=(6, 1))
            while np.any((idx == 5) | (idx == 0)):
                flagged = idx == (5 if np.any(idx == 5) else 0)
                idx[flagged] = rng.integers(0, 6, size=np.count_nonzero(flagged))
            _, first = np.unique(idx, return_index=True)
            order = idx[np.sort(first), 0]
            np.testing.assert_array_equal(coefs[:, 0], y[order] / x[order])
            assert np.all(np.isfinite(resid)) and resid.shape == (len(order), 6)


class TestInfiniteScale:
    # residuals near the largest double: the S-scale overflows to inf
    SET = dict(beta_x=[1.0, 2.0, 3.0, 4.0, 5.0], se_x=[0.1] * 5,
               beta_y=[1.7e308, -1.6e308, 1.5e308, 1e300, -1.2e308], se_y=[1.0] * 5)

    def test_mm_regress_raises(self):
        with pytest.raises(DegenerateInstrumentError, match="S-scale"):
            mm_regress(make_set(**self.SET), seed=1)

    def test_run_methods_raises(self):
        with pytest.raises(DegenerateInstrumentError, match="S-scale"):
            run_methods(make_set(**self.SET), ("robust_ivw",), seed=1)


def three_variant_set(seed):
    """Three variants on y = 0.1 x with noise; an intercept fit can only be exact."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 0.15, 3)
    return make_set(x, [0.01] * 3, 0.1 * x + rng.normal(0.0, 0.02, 3), [0.02] * 3,
                    harmonized=True)


def ten_variant_set(outliers):
    """Ten variants near y = 0.1 x; the last six shifted by 2 when ``outliers``."""
    rng = np.random.default_rng(7)
    x = rng.uniform(0.05, 0.15, 10)
    y = 0.1 * x + rng.normal(0.0, 0.01, 10)
    if outliers:
        y[4:] += 2.0 * np.array([1, -1, 1, -1, 1, 1])
    return make_set(x, [0.01] * 10, y, [0.02] * 10, harmonized=True)


class TestExactFitsOnly:
    # with k positive weights an elemental fit through p of them leaves at most
    # k - p residuals nonzero; with k < 2p that is under half of them, every
    # candidate is an exact fit, and the search reported the line through its
    # first draw
    def test_three_variant_intercept_fit_raises(self):
        for seed in range(4):
            s = three_variant_set(seed)
            with pytest.raises(InsufficientInstrumentsError,
                               match=r"at least 4 positively weighted variants of J = 3 with an "
                                     r"intercept, got 3: .* exact fit"):
                mm_regress(s, intercept=True, seed=seed)
            with pytest.raises(InsufficientInstrumentsError, match="got 3"):
                run_methods(s, ("robust_egger",), seed=seed)
            assert mm_regress(s, seed=seed)[0].scale > 0.0  # J >= 2 suffices without

    def test_zero_weights_leave_too_few_variants(self):
        # the minimum counts the positively weighted variants only: 4 of J = 10
        # fit as those 4 alone, and 1 of them is too few
        s = ten_variant_set(outliers=False)
        base = inverse_variance_weights(s).w
        four = WeightVector(np.where(np.arange(10) < 4, base, 0.0))
        kept = make_set(s.beta_x[:4], s.se_x[:4], s.beta_y[:4], s.se_y[:4], harmonized=True)
        for seed in range(3):
            fit, est = mm_regress(s, four, seed=seed)
            assert (fit, est) == mm_regress(kept, seed=seed)
            assert not fit.exact_fit and est.se_reported
        assert mm_regress(s, four, seed=0)[0].scale == pytest.approx(0.150, abs=5e-4)
        one = WeightVector(np.where(np.arange(10) < 1, base, 0.0))
        with pytest.raises(InsufficientInstrumentsError,
                           match="at least 2 positively weighted variants of J = 10 "
                                 "without an intercept, got 1"):
            mm_regress(s, one, seed=0)

    def test_penalized_fit_with_six_zero_factors_fits_the_rest(self):
        # the six outliers' Cochran Q tails underflow: their penalized weights are
        # 0, and the fit runs on the 4 kept variants under their penalized weights
        s = ten_variant_set(outliers=True)
        base = inverse_variance_weights(s)
        w = penalize_weights(base, cochran_q_ivw(s, ivw(s, base).theta)).w
        kept = w > 0.0
        assert kept.tolist() == [True] * 4 + [False] * 6
        four = make_set(s.beta_x[kept], s.se_x[kept], s.beta_y[kept], s.se_y[kept],
                        harmonized=True)
        _, manual = mm_regress(four, WeightVector(w[kept]),
                               seed=_stream(_util.as_seed_sequence(0), "penalized_robust_ivw"))
        got = run_methods(s, ("penalized_robust_ivw",), seed=0)["penalized_robust_ivw"]
        assert got == dataclasses.replace(manual, method="penalized_robust_ivw")
        assert got.se_reported and "exact fit" not in got.warnings
        assert run_methods(s, ("robust_ivw",), seed=0)["robust_ivw"].se_reported

    def test_four_variant_intercept_fit_reports_se(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.05, 0.15, 4)
        s = line_set(x, 0.1 * x + rng.normal(0.0, 0.02, 4), se_y=0.02)
        fit, est = mm_regress(s, intercept=True, seed=1)
        assert not fit.exact_fit and fit.scale > 0.0
        assert est.se_reported and math.isfinite(est.se) and est.warnings == ()


def twelve_variant_set(shift, se_last):
    """Twelve variants near y = 0.1 x, the last moved by ``shift`` with se_y ``se_last``;
    the first nine as a set of their own; and the inverse-variance weights."""
    rng = np.random.default_rng(12)
    x = rng.uniform(0.05, 0.15, 12)
    y = 0.1 * x + rng.normal(0.0, 0.02, 12)
    y[-1] += shift
    se_y = np.full(12, 0.02)
    se_y[-1] = se_last
    s = make_set(x, np.full(12, 0.01), y, se_y, harmonized=True)
    nine = make_set(x[:9], np.full(9, 0.01), y[:9], se_y[:9], harmonized=True)
    return s, nine, inverse_variance_weights(s).w


def scale_and_estimate(method, s, weights, seed):
    """A regression fit's residual scale (a robust fit's S-scale) and its Estimate."""
    if method in ("ivw", "egger"):
        est = (ivw if method == "ivw" else egger)(s, weights)
        return est.residual_scale, est
    fit, est = mm_regress(s, weights, intercept=method == "mm_regress_intercept", seed=seed)
    return fit.scale, est


class TestZeroWeights:
    @pytest.mark.parametrize("method", ["mm_regress", "mm_regress_intercept", "ivw", "egger"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_zero_weight_variants_leave_the_fit(self, seed, method):
        # a zero-weight variant's weighted residual is 0 on every line; counted, it
        # would shrink the residual scale, so move the SE, and add a degree of freedom
        s, nine, w = twelve_variant_set(shift=0.0, se_last=0.02)
        zero = WeightVector(np.where(np.arange(12) < 9, w, 0.0))
        scale, est = scale_and_estimate(method, s, zero, seed)
        scale9, est9 = scale_and_estimate(method, nine, None, seed)
        assert scale > 0.0 and est.se_reported
        assert (est.theta, scale, est.se, est.df, est.warnings) == (
            est9.theta, scale9, est9.se, est9.df, est9.warnings)
        assert est == est9

    def test_single_positive_weight_falls_back_to_fixed_effects(self):
        s, _, w = twelve_variant_set(shift=0.0, se_last=0.02)
        one = make_set(s.beta_x[:1], s.se_x[:1], s.beta_y[:1], s.se_y[:1], harmonized=True)
        est = ivw(s, WeightVector(np.where(np.arange(12) < 1, w, 0.0)))
        assert est == ivw(one)
        assert est.effects_model == "fixed" and est.residual_scale is None

    @pytest.mark.parametrize("method", ["penalized_ivw", "penalized_egger"])
    def test_penalized_fits_run_on_the_positive_subset(self, method):
        # the last variant sits 10 above the line at a low weight: its penalty
        # factor underflows to 0 while the reference fit barely moves
        s, _, base = twelve_variant_set(shift=10.0, se_last=0.2)
        fit = egger if method == "penalized_egger" else ivw
        ref = fit(s)
        report = (cochran_q_egger(s, ref.intercept, ref.theta) if fit is egger
                  else cochran_q_ivw(s, ref.theta))
        w = penalize_weights(WeightVector(base), report).w
        kept = w > 0.0
        assert kept.tolist() == [True] * 11 + [False]
        eleven = make_set(s.beta_x[kept], s.se_x[kept], s.beta_y[kept], s.se_y[kept],
                          harmonized=True)
        got = run_methods(s, (method,), seed=0)[method]
        assert got == dataclasses.replace(fit(eleven, WeightVector(w[kept])), method=method)
        assert got.df == (9 if fit is egger else None) and got.se_reported

    def test_robust_fits_on_different_variant_counts_run_together(self):
        # the penalized fits drop the variant whose factor underflows and the others
        # keep all 12: their S-stages cannot share one stack of candidate rows
        s, _, _ = twelve_variant_set(shift=10.0, se_last=0.2)
        methods = ("robust_ivw", "penalized_robust_ivw", "robust_egger", "penalized_robust_egger")
        joint = run_methods(s, methods, seed=0)
        assert joint == {m: run_methods(s, (m,), seed=0)[m] for m in methods}


class TestNormalConsistency:
    def test_against_quadrature_oracle(self):
        def expectation(kappa, c):
            def integrand(z):
                u2 = min((z / (kappa * c)) ** 2, 1.0)
                return 2.0 * st.norm.pdf(z) * (1.0 - (1.0 - u2) ** 3)

            body, _ = scipy.integrate.quad(integrand, 0.0, kappa * c)
            return body + 2.0 * st.norm.sf(kappa * c)

        oracle = scipy.optimize.brentq(
            lambda k: expectation(k, 1.548) - 0.5, 0.3, 3.0, xtol=1e-12
        )
        assert KAPPA == pytest.approx(oracle, abs=1e-9)

    def test_near_one_at_default_tuning(self):
        # 1.548 is (a rounding of) the constant that makes the 50% breakdown
        # scale consistent for the normal sigma
        assert KAPPA == pytest.approx(1.0, abs=2e-3)

    def test_recovers_normal_sigma(self):
        rng = np.random.default_rng(139)
        r = rng.normal(0.0, 2.5, size=20000)
        s = m_scale(r)
        assert s / KAPPA == pytest.approx(2.5, rel=0.03)


class TestMmRegress:
    def test_intercept_fit_always_uses_random_effects(self):
        # like egger: an intercept fit has no fixed-effect model, whatever is asked
        s = s_stage_case(1)
        fixed = mm_regress(s, intercept=True, seed=4, effects="fixed")
        assert fixed == mm_regress(s, intercept=True, seed=4)
        assert fixed[1].effects_model == "multiplicative_random"
        assert fixed[1].residual_scale > 1.0 and fixed[1].se_reported
        assert mm_regress(s, seed=4, effects="fixed")[1].effects_model == "fixed"

    def test_exact_line_no_intercept(self):
        x = np.linspace(0.05, 0.3, 25)
        s = line_set(x, 0.1 * x)
        fit, est = mm_regress(s, seed=1)
        assert fit.exact_fit
        assert fit.scale == 0.0
        assert fit.converged
        assert fit.slope == pytest.approx(0.1, abs=1e-12)
        assert not est.se_reported
        assert "exact fit" in est.warnings
        assert est.theta == fit.slope

    def test_exact_line_with_intercept(self):
        x = np.linspace(0.05, 0.3, 25)
        s = line_set(x, 0.02 + 0.4 * x)
        fit, est = mm_regress(s, intercept=True, seed=1)
        assert fit.exact_fit
        assert fit.slope == pytest.approx(0.4, abs=1e-10)
        assert fit.intercept == pytest.approx(0.02, abs=1e-10)

    def test_agrees_with_wls_on_clean_data(self):
        rng = np.random.default_rng(149)
        for trial in range(5):
            x = rng.uniform(0.05, 0.3, size=25)
            y = 0.1 * x + rng.normal(0, 0.05, size=25)
            s = line_set(x, y)
            fit, est = mm_regress(s, seed=trial)
            ref = ivw(s)
            assert est.se_reported
            combined = math.hypot(est.se, ref.se)
            assert abs(est.theta - ref.theta) < 2.0 * combined

    def test_egger_variant_agrees_on_clean_data(self):
        rng = np.random.default_rng(151)
        x = rng.uniform(0.05, 0.3, size=25)
        y = 0.01 + 0.2 * x + rng.normal(0, 0.05, size=25)
        s = line_set(x, y)
        fit, est = mm_regress(s, intercept=True, seed=9)
        ref = egger(s)
        assert est.method == "robust_egger"
        assert abs(est.theta - ref.theta) < 2.0 * math.hypot(est.se, ref.se)
        assert abs(est.intercept - ref.intercept) < 2.0 * math.hypot(
            est.intercept_se, ref.intercept_se
        )
        assert est.df == 23

    def test_single_outlier_bounded_influence(self):
        rng = np.random.default_rng(157)
        x = rng.uniform(0.05, 0.3, size=21)
        y = 0.1 * x + rng.normal(0, 0.05, size=21)
        s_clean = line_set(x, y)
        y_out = y.copy()
        y_out[3] += 50 * 0.05
        s_out = line_set(x, y_out)
        mm_clean = mm_regress(s_clean, seed=3)[1].theta
        mm_out = mm_regress(s_out, seed=3)[1].theta
        wls_clean = ivw(s_clean).theta
        wls_out = ivw(s_out).theta
        assert abs(mm_out - mm_clean) < 0.1 * abs(wls_out - wls_clean)

    def test_breakdown_under_gross_contamination(self):
        # 7 of 25 responses grossly corrupted: the robust fit stays near the
        # truth on average while remaining finite in every trial
        rng = np.random.default_rng(163)
        theta = 0.1
        err_clean = []
        err_bad = []
        for trial in range(100):
            x = rng.uniform(0.05, 0.3, size=25)
            y = theta * x + rng.normal(0, 0.05, size=25)
            s_clean = line_set(x, y)
            y_bad = y.copy()
            idx = rng.choice(25, size=7, replace=False)
            y_bad[idx] = rng.uniform(5.0, 50.0, size=7) * rng.choice([-1, 1], size=7)
            s_bad = line_set(x, y_bad)
            err_clean.append(mm_regress(s_clean, seed=trial)[1].theta - theta)
            err_bad.append(mm_regress(s_bad, seed=trial)[1].theta - theta)
        rms_clean = float(np.sqrt(np.mean(np.square(err_clean))))
        rms_bad = float(np.sqrt(np.mean(np.square(err_bad))))
        assert rms_bad <= 5.0 * rms_clean

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(167)
        x = rng.uniform(0.05, 0.3, size=15)
        y = 0.1 * x + rng.normal(0, 0.05, size=15)
        s = line_set(x, y)
        a_fit, a_est = mm_regress(s, intercept=True, seed=11)
        b_fit, b_est = mm_regress(s, intercept=True, seed=11)
        assert a_fit == b_fit
        assert a_est == b_est

    def test_affine_equivariance(self):
        rng = np.random.default_rng(173)
        x = rng.uniform(0.05, 0.3, size=20)
        y = 0.1 * x + rng.normal(0, 0.05, size=20)
        base, _ = mm_regress(line_set(x, y), seed=7)
        k = 3.0
        # scaling the outcome and its SE together leaves the standardized
        # residuals (and so the M-scale) unchanged while the slope scales
        scaled, _ = mm_regress(line_set(x, k * y, se_y=0.05 * k), seed=7)
        assert scaled.slope == pytest.approx(k * base.slope, rel=1e-9)
        assert scaled.scale == pytest.approx(base.scale, rel=1e-8)
        # scaling the outcome alone scales both slope and M-scale
        raw_scaled, _ = mm_regress(line_set(x, k * y), seed=7)
        assert raw_scaled.slope == pytest.approx(k * base.slope, rel=1e-9)
        assert raw_scaled.scale == pytest.approx(k * base.scale, rel=1e-8)
        shifted, _ = mm_regress(line_set(x, y + 0.25 * x), seed=7)
        assert shifted.slope == pytest.approx(base.slope + 0.25, rel=1e-9)

    def test_psi_stationarity_at_solution(self):
        rng = np.random.default_rng(179)
        x = rng.uniform(0.05, 0.3, size=25)
        y = 0.1 * x + rng.normal(0, 0.05, size=25)
        se_y = np.full(25, 0.05)
        s = make_set(x, np.full(25, 0.01), y, se_y, harmonized=True)
        fit, est = mm_regress(s, intercept=True, seed=13)
        assert fit.converged
        w = se_y**-2.0
        sqw = np.sqrt(w)
        design = np.column_stack([sqw, sqw * x])
        resid = sqw * y - design @ np.array([fit.intercept, fit.slope])
        score = textbook_psi(resid / fit.scale, C_M) @ design
        assert np.all(np.abs(score) < 1e-6 * 25)

    def test_validation_errors(self):
        x = np.array([0.1, 0.2])
        s = line_set(x, 0.1 * x)
        with pytest.raises(InsufficientInstrumentsError):
            mm_regress(s, intercept=True)
        one = line_set(np.array([0.1]), np.array([0.01]))
        with pytest.raises(InsufficientInstrumentsError):
            mm_regress(one)
        zeros = make_set([0.0, 0.0, 0.0], [0.01] * 3, [0.01, 0.0, 0.02], [0.05] * 3,
                         harmonized=True)
        with pytest.raises(DegenerateInstrumentError):
            mm_regress(zeros)

    def test_converges_and_reports_iterations(self):
        rng = np.random.default_rng(181)
        x = rng.uniform(0.05, 0.3, size=25)
        y = 0.1 * x + rng.normal(0, 0.05, size=25)
        fit, est = mm_regress(line_set(x, y), seed=2)
        assert fit.converged
        assert 1 <= fit.iterations <= 500
        assert est.se_reported
        assert est.residual_scale == pytest.approx(
            fit.scale / KAPPA, rel=1e-12
        )
