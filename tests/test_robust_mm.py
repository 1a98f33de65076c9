"""Bisquare loss identities, M-scale oracles, and MM-fit behavior."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.optimize
import scipy.stats as st

from ivrobust import robust_mm
from ivrobust.estimators import run_methods
from ivrobust.exceptions import (
    DegenerateInstrumentError,
    InsufficientInstrumentsError,
)
from ivrobust.robust_mm import (
    KAPPA,
    _design,
    _m_scale_batch,
    _rho_norm,
    _s_stage,
    m_scale,
    mm_regress,
    psi_bisquare,
    rho_bisquare,
    weight_bisquare,
)
from ivrobust.wls import egger, inverse_variance_weights, ivw

from _helpers import make_set


def line_set(x, y, se_y=0.05):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return make_set(x, np.full(x.size, 0.01), y, np.full(x.size, se_y), harmonized=True)


class TestBisquareLoss:
    def test_anchor_values(self):
        c = 1.548
        assert rho_bisquare(0.0, c) == 0.0
        assert rho_bisquare(c, c) == pytest.approx(c * c / 6.0, rel=1e-15)
        assert rho_bisquare(5 * c, c) == pytest.approx(c * c / 6.0, rel=1e-15)

    def test_taylor_expansion_near_zero(self):
        # rho(r) = r^2/2 - r^4/(2 c^2) + r^6/(6 c^4) exactly (finite series)
        for c in (1.548, 4.685):
            for r in (0.01, -0.02, 0.005):
                expected = r**2 / 2 - r**4 / (2 * c**2) + r**6 / (6 * c**4)
                assert rho_bisquare(r, c) == pytest.approx(expected, rel=1e-12)

    def test_even_bounded_monotone(self):
        c = 1.548
        r = np.linspace(0, 3 * c, 500)
        vals = rho_bisquare(r, c)
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all(vals <= c * c / 6.0 + 1e-15)
        np.testing.assert_allclose(rho_bisquare(-r, c), vals, rtol=1e-15)

    def test_psi_is_rho_derivative(self):
        rng = np.random.default_rng(113)
        c = 4.685
        h = 1e-6
        checked = 0
        for r in rng.uniform(-2 * c, 2 * c, size=200):
            if abs(abs(r) - c) < 1e-3:
                continue
            checked += 1
            fd = (rho_bisquare(r + h, c) - rho_bisquare(r - h, c)) / (2 * h)
            assert psi_bisquare(float(r), c) == pytest.approx(fd, abs=1e-6)
        assert checked > 100

    def test_psi_weight_identity(self):
        rng = np.random.default_rng(127)
        c = 4.685
        r = rng.uniform(-2 * c, 2 * c, size=100)
        np.testing.assert_allclose(
            psi_bisquare(r, c), r * weight_bisquare(r, c), rtol=1e-14, atol=1e-300
        )

    def test_psi_redescends(self):
        c = 4.685
        assert psi_bisquare(c, c) == 0.0
        assert psi_bisquare(10 * c, c) == 0.0
        assert psi_bisquare(-7.0, c) == -psi_bisquare(7.0, c)

    def test_tuning_validated(self):
        with pytest.raises(ValueError):
            rho_bisquare(1.0, 0.0)


class TestMScale:
    def test_symmetric_two_point_closed_form(self):
        # residuals all of magnitude k: mean normalized loss is rho~(k/s) and
        # the root satisfies (k / (c s))^2 = 1 - (1/2)^(1/3)
        c = 1.548
        k = 1.0
        expected = k / (c * math.sqrt(1.0 - 0.5 ** (1.0 / 3.0)))
        got, exact = m_scale(np.array([1.0, -1.0, 1.0, -1.0, 1.0]), c=c)
        assert not exact
        assert got == pytest.approx(expected, rel=1e-9)
        got2, _ = m_scale(np.full(8, -2.5), c=c)
        assert got2 == pytest.approx(2.5 * expected, rel=1e-9)

    def test_matches_brentq_oracle(self):
        rng = np.random.default_rng(131)
        c = 1.548
        for _ in range(50):
            r = rng.normal(0, rng.uniform(0.5, 3), size=int(rng.integers(5, 40)))

            def f(s):
                u2 = np.minimum((r / (c * s)) ** 2, 1.0)
                return float(np.mean(1.0 - (1.0 - u2) ** 3)) - 0.5

            amax = float(np.abs(r).max())
            oracle = scipy.optimize.brentq(f, 1e-10 * amax, 10 * amax, xtol=1e-14)
            got, exact = m_scale(r, c=c)
            assert not exact
            assert got == pytest.approx(oracle, rel=1e-8)

    def test_scale_equivariant(self):
        rng = np.random.default_rng(137)
        r = rng.normal(size=30)
        base, _ = m_scale(r)
        scaled, _ = m_scale(7.5 * r)
        assert scaled == pytest.approx(7.5 * base, rel=1e-9)

    def test_exact_fit_detection(self):
        s, exact = m_scale(np.zeros(10))
        assert (s, exact) == (0.0, True)
        # 6 zeros of 10: strictly more than half at zero
        s, exact = m_scale(np.array([0.0] * 6 + [1.0] * 4))
        assert (s, exact) == (0.0, True)
        # exactly half at zero: root exists at min_nonzero / c
        s, exact = m_scale(np.array([0.0, 0.0, 2.0, 2.0]), c=1.548)
        assert not exact
        assert s == pytest.approx(2.0 / 1.548, rel=1e-9)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            m_scale(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            m_scale(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            m_scale(np.array([1.0]), breakdown=0.0)


def bisect_m_scale_batch(resid, c, breakdown):
    """Reference row-wise M-scales: bracket expansion, then 64 bisection steps."""
    a = np.abs(resid)
    n = a.shape[1]
    nonzero = np.count_nonzero(a, axis=1)
    exact = nonzero < breakdown * n
    solve = ~exact
    min_nz = np.where(a > 0.0, a, np.inf).min(axis=1)
    lo = np.where(solve, min_nz / c, 1.0)
    hi = np.maximum(a.max(axis=1), lo)
    for _ in range(200):
        g_hi = _rho_norm(a / hi[:, None], c).mean(axis=1) - breakdown
        need = solve & (g_hi > 0.0)
        if not np.any(need):
            break
        hi = np.where(need, hi * 2.0, hi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        g_mid = _rho_norm(a / mid[:, None], c).mean(axis=1) - breakdown
        above = g_mid > 0.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return np.where(exact, 0.0, 0.5 * (lo + hi)), exact


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


def assert_matches_bisection(r, c=1.548, breakdown=0.5):
    got, exact = _m_scale_batch(r, c, breakdown)
    ref, ref_exact = bisect_m_scale_batch(r, c, breakdown)
    np.testing.assert_array_equal(exact, ref_exact)
    assert np.all(got[exact] == 0.0)
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
            got, exact = _m_scale_batch(r, 1.548, 0.5)
            assert not exact.any()
            np.testing.assert_array_equal(got, np.abs(r[:, j // 2:]).min(axis=1) / 1.548)

    def test_all_zero_rows(self):
        got, exact = _m_scale_batch(np.zeros((3, 7)), 1.548, 0.5)
        assert exact.all() and np.all(got == 0.0)

    def test_bisection_fallback_past_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(robust_mm, "_NEWTON_MAX_ITER", 1)
        rng = np.random.default_rng(197)
        for j in (2, 3, 11, 25, 40):
            assert_matches_bisection(oracle_batch(rng, 60, j))

    def test_rows_independent_of_batch(self):
        rng = np.random.default_rng(199)
        r = oracle_batch(rng, 50, 25)
        full, _ = _m_scale_batch(r, 1.548, 0.5)
        for i in (0, 17, 49):
            assert _m_scale_batch(r[i:i + 1], 1.548, 0.5)[0][0] == full[i]
        np.testing.assert_array_equal(_m_scale_batch(r[::3], 1.548, 0.5)[0], full[::3])


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


class TestSStagePruning:
    def test_same_winner_as_solving_every_candidate(self, monkeypatch):
        sizes = []
        real_batch = robust_mm._m_scale_batch

        def counting_batch(resid, c, breakdown):
            sizes.append(resid.shape[0])
            return real_batch(resid, c, breakdown)

        for seed in range(50):
            s = s_stage_case(seed)
            w = inverse_variance_weights(s).w
            for intercept in (False, True):
                design, response = _design(s, w, intercept)
                with monkeypatch.context() as m:
                    m.setattr(robust_mm, "_m_scale_batch", counting_batch)
                    sizes.clear()
                    pruned = _s_stage(s, design, response,
                                      np.random.Generator(np.random.Philox(seed)))
                    solved_last = sum(sizes[2:])
                with monkeypatch.context() as m:
                    m.setattr(robust_mm, "_contending_scales",
                              lambda resid, c, bd, prev, active: _m_scale_batch(resid, c, bd))
                    full = _s_stage(s, design, response,
                                    np.random.Generator(np.random.Philox(seed)))
                np.testing.assert_array_equal(pruned[0], full[0])
                assert pruned[1:] == full[1:]
                if seed % 3 != 2:
                    assert solved_last < 250


def lapack_m_stage(design, response, beta, s_star):
    """The M-stage by LAPACK: np.linalg.solve per IRLS step, cond and inv for the sandwich."""
    converged = False
    for iterations in range(1, robust_mm.M_STEP_MAX_ITER + 1):
        irls_w = weight_bisquare((response - design @ beta) / s_star, 4.685)
        beta_new = np.linalg.solve((design * irls_w[:, None]).T @ design,
                                   design.T @ (irls_w * response))
        delta = float(np.max(np.abs(beta_new - beta)))
        beta = beta_new
        if delta <= robust_mm.M_STEP_TOL * max(1.0, float(np.max(np.abs(beta)))):
            converged = True
            break
    u = (response - design @ beta) / s_star
    psi = psi_bisquare(u, 4.685)
    bread = (design * robust_mm._psi_prime_bisquare(u, 4.685)[:, None]).T @ design
    meat = (design * (psi * psi)[:, None]).T @ design
    ses = None
    if np.linalg.cond(bread) < 1e12:
        bread_inv = np.linalg.inv(bread)
        ses = np.sqrt(np.diag(s_star ** 2 * bread_inv @ meat @ bread_inv)).tolist()
    return beta, converged, iterations, ses


class TestMStageLapackOracle:
    @pytest.mark.parametrize("intercept", [False, True])
    def test_matches_linalg_solves(self, intercept, monkeypatch):
        # clean and contaminated sets; on an exact line (seed % 3 == 2) the S-scale is
        # rounding dust, which the SEs amplify under either solver
        fitted = 0
        for seed in (k for k in range(60) if k % 3 != 2):
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
        # y / x overflows for the subnormal beta_x; such subsets must never
        # reach the scale solves, which would warn on inf and NaN residuals
        s = make_set([1e-310, 0.1, 0.2], [0.01] * 3, [1.0, 0.01, 0.02], [0.05] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ivw_fit = run_methods(s, ("robust_ivw",), seed=1)["robust_ivw"]
            egger_fit = run_methods(s, ("robust_egger",), seed=1)["robust_egger"]
        assert ivw_fit.theta == 0.1
        assert egger_fit.theta == pytest.approx(-4.9, rel=1e-15)
        for est in (ivw_fit, egger_fit):
            assert est.warnings == ("standard error unavailable", "exact fit")


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
        s, _ = m_scale(r)
        assert s / KAPPA == pytest.approx(2.5, rel=0.03)


class TestMmRegress:
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
        score = psi_bisquare(resid / fit.scale, 4.685) @ design
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
