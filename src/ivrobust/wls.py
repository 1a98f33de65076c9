"""Weighted least-squares estimators for summarized data.

Covers the inverse-variance weighted (IVW) estimator (zero-intercept weighted
regression of outcome on exposure associations) and the intercept-augmented
regression whose intercept captures directional pleiotropy, plus the I^2
heterogeneity of the scaled exposure associations, which indicates how far
the intercept model is attenuated by weak instruments.

Every regression fit here and in :mod:`ivrobust.robust_mm` runs on its positively
weighted variants (:func:`_fitted_variants`), so variants of weight 0 do not change it.

The intercept fits (``egger`` and the intercept precondition of the robust
fits), the S-stage's reweighting steps and the sandwich's bread in
:mod:`ivrobust.robust_mm` go through one closed-form kernel, batched over rows
of weights (:func:`_wls_rows`); the M-stage's steps use the same closed form on
scalar sums (:func:`_wls_solve`). The zero-intercept sums of ``ivw``, and of
the robust fits' check that some weighted exposure association is nonzero
(:func:`_origin_sxx`), are taken directly.

Standard errors follow a multiplicative random-effects model: the raw
regression standard error is divided by min(sigma_hat, 1), so heterogeneity
beyond chance widens intervals but underdispersion never narrows them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Callable

import numpy as np

from .distributions import normal_quantile, normal_sf, t_cdf, t_quantile
from .exceptions import (
    DegenerateInstrumentError,
    InsufficientInstrumentsError,
    SingularDesignError,
)
from .summary_data import SummarySet

EFFECTS_MODELS = ("fixed", "multiplicative_random")

_Z975 = normal_quantile(0.975)


@dataclass(frozen=True)
class WeightVector:
    """Non-negative analysis weights, one per variant."""

    w: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must form a non-empty 1-d vector")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("weights must be finite and >= 0")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    def __len__(self) -> int:
        return self.w.size


@dataclass(frozen=True)
class Estimate:
    """A causal-effect estimate with its uncertainty summary.

    ``se_reported`` is False when the method could not produce a standard
    error; ``se``, ``ci_*`` and ``p_value`` are then absent and the estimate
    counts as a non-rejection wherever power is tallied.
    """

    method: str
    theta: float
    se: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    p_value: float | None = None
    se_reported: bool = True
    effects_model: str | None = None
    df: int | None = None
    intercept: float | None = None
    intercept_se: float | None = None
    intercept_p: float | None = None
    residual_scale: float | None = None
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError(f"{self.method}: estimate must be finite, got {self.theta!r}")
        if self.se_reported:
            if self.se is None or not (self.se > 0.0 and math.isfinite(self.se)):
                raise ValueError(f"{self.method}: reported se must be finite and > 0")
            if not self.ci_low < self.theta < self.ci_high:
                raise ValueError(f"{self.method}: interval must bracket the estimate")
        elif self.se is not None or self.ci_low is not None or self.p_value is not None:
            raise ValueError(f"{self.method}: unreported se must leave se/ci/p unset")

    def rejects_null(self, null: float = 0.0) -> bool:
        """True when the 95% interval excludes ``null``; False without an SE."""
        if not self.se_reported:
            return False
        return self.ci_low > null or self.ci_high < null


def _estimate(method: str, theta: float, se: float | None, *, df: int | None = None,
              ci: tuple[float, float] | None = None, intercept: float | None = None,
              intercept_se: float | None = None, warnings: tuple[str, ...] = (),
              **fields) -> Estimate:
    """The one place where a point estimate and its standard error become an Estimate.

    The reference distribution is normal when ``df`` is None and t(df)
    otherwise; it gives the 95% interval theta -/+ q * se, unless ``ci`` is
    passed, and the two-sided p-values. A missing, non-finite or non-positive
    SE, or an interval that does not strictly bracket theta (an SE tiny next
    to theta rounds it onto theta), yields an estimate without SE whose
    warnings start with "standard error unavailable", plus "interval
    collapsed" when the SE itself was finite. The intercept's SE and p are
    set only when both the intercept and its SE are finite and the SE is
    positive. ``fields`` (effects_model, residual_scale) pass through.
    """
    if not math.isfinite(theta):
        raise DegenerateInstrumentError(f"{method}: estimate is not finite ({theta!r})")
    if se is not None and 0.0 < se < math.inf:
        if ci is None:
            q975 = _Z975 if df is None else t_quantile(0.975, df)
            ci = (theta - q975 * se, theta + q975 * se)
        if ci[0] < theta < ci[1]:
            intercept_p = None
            if intercept_se is not None and 0.0 < intercept_se < math.inf \
                    and math.isfinite(intercept):
                intercept_p = _two_sided_p(abs(intercept) / intercept_se, df)
            else:
                intercept_se = None
            return Estimate(method=method, theta=theta, se=se, ci_low=ci[0], ci_high=ci[1],
                            p_value=_two_sided_p(abs(theta) / se, df), df=df,
                            intercept=intercept, intercept_se=intercept_se,
                            intercept_p=intercept_p, warnings=warnings, **fields)
    collapsed = ("interval collapsed",) if se is not None and math.isfinite(se) else ()
    return Estimate(method=method, theta=theta, se_reported=False, intercept=intercept,
                    warnings=("standard error unavailable", *collapsed, *warnings), **fields)


def _two_sided_p(z: float, df: int | None) -> float:
    return 2.0 * normal_sf(z) if df is None else 2.0 * (1.0 - t_cdf(z, df))


def inverse_variance_weights(s: SummarySet) -> WeightVector:
    """Weights proportional to the inverse outcome-association variances."""
    with np.errstate(over="ignore"):
        w = s.se_y ** -2.0
    overflow = np.flatnonzero(np.isinf(w))
    if overflow.size:
        raise DegenerateInstrumentError(
            f"variant {s.ids[overflow[0]]!r}: se_y is so small that its weight overflows"
        )
    return WeightVector(w)


def _fitted_variants(s: SummarySet, weights: WeightVector | None, minimum: int,
                     too_few: Callable[[int], str]) -> tuple[SummarySet, np.ndarray]:
    """The positively weighted variants a regression fit runs on, and their weights.

    ``weights`` default to inverse-variance weights, one per variant. A
    zero-weight variant's weighted residual is 0 on every line: counted, it
    would shrink the residual scale and add a degree of freedom, so a fit
    counts only its k positive ones, as R's ``lm.wfit`` does. With k <
    ``minimum`` this raises InsufficientInstrumentsError(too_few(k)). A set
    whose weights are all positive is returned as it is, with no copy.
    """
    if weights is None:
        weights = inverse_variance_weights(s)
    if len(weights) != s.j:
        raise ValueError(f"got {len(weights)} weights for {s.j} variants")
    w = weights.w
    k = np.count_nonzero(w)
    if k < minimum:
        raise InsufficientInstrumentsError(too_few(k))
    if k < s.j:
        positive = w > 0.0
        s = SummarySet(*(col[positive] for col in s._cols), ids=compress(s.ids, positive),
                       harmonized=s.harmonized)
        w = w[positive]
    return s, w


def _origin_sxx(w: np.ndarray, x: np.ndarray) -> float:
    """sum(w x^2) of a fit through the origin; raises when it is zero (an overflow is inf)."""
    with np.errstate(over="ignore"):
        sxx = float(np.sum(w * x * x))
    if sxx <= 0.0:
        raise DegenerateInstrumentError("every positively weighted exposure association is zero")
    return sxx


def _wls_rows(w: np.ndarray, design: np.ndarray, response: np.ndarray):
    """Closed-form weighted least squares on one or two design columns.

    One fit per row of ``w`` (fits x J) over the shared ``design`` (J x p,
    p = 1 or 2) and ``response`` (J,): the coefficients (fits x p), the
    inverse Gram matrices (fits x p x p) and whether each is invertible.
    [[s00, s01], [s01, s11]] enters only through s01 / s00, s01 / s11 and
    q = det / (s00 * s11) = 1 - (s01 / s00) * (s01 / s11), so no product of
    two sums can overflow. Invertible means finite sums, a nonzero diagonal
    and q > 1e-12, which a NaN fails. Non-negative weights give 0 <= q <= 1
    up to rounding, and the test says that the two columns are separable;
    a row with a negative weight, as in the sandwich's bread, may be
    indefinite and needs only |q| > 1e-12. Coefficients can still overflow.

    Each row's sums are its own dot products (``np.vecdot``), so a row's fit
    does not depend on the other rows of the batch; a BLAS ``w @ col`` rounds
    a row differently in different batches. With one row both agree bit for
    bit.
    """
    with np.errstate(all="ignore"):  # the flag and the callers check the results
        sums = [np.vecdot(w, col) for col in _wls_products(design, response)]
        coefs, q, ok = _wls_solve(sums, w.min(axis=1) >= 0.0)
        s00 = sums[0]
        if q is None:
            inv = (1.0 / s00)[:, None, None]
        else:
            s11 = sums[3]
            i01 = -(sums[2] / s00) / (s11 * q)
            inv = np.array([[1.0 / (s00 * q), i01], [i01, 1.0 / (s11 * q)]]).transpose(2, 0, 1)
    return np.column_stack(coefs), inv, ok


def _wls_products(design: np.ndarray, response: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-variant products whose weighted sums are the normal equations' entries.

    s00 and r0 for one design column a; s00, r0, s01, s11 and r1 for two
    columns a, b (s01 = sum w a b, r1 = sum w b response). A caller that
    refits one design under many weights forms them once.
    """
    a = design[:, 0]
    if design.shape[1] == 1:
        return a * a, a * response
    b = design[:, 1]
    return a * a, a * response, a * b, b * b, b * response


def _wls_solve(sums, nonnegative):
    """Coefficients, q (None for one column) and invertibility from the normal sums.

    Elementwise, so the sums may be arrays, one fit per entry, or numpy
    scalars for a single fit; ``nonnegative`` (numpy booleans) says whose
    weights are all >= 0. See :func:`_wls_rows` for the rules.
    """
    s00, r0 = sums[0], sums[1]
    if len(sums) == 2:
        return (r0 / s00,), None, np.isfinite(s00) & (s00 != 0.0)
    s01, s11, r1 = sums[2:]
    k0, k1, m0, m1 = s01 / s00, s01 / s11, r0 / s00, r1 / s11
    q = 1.0 - k0 * k1
    ok = (np.isfinite(s00) & np.isfinite(s01) & np.isfinite(s11) & (s00 != 0.0) & (s11 != 0.0)
          & ((q > 1e-12) | (~nonnegative & (q < -1e-12))))
    return ((m0 - k0 * m1) / q, (m1 - k1 * m0) / q), q, ok


def _design(s: SummarySet, w: np.ndarray, intercept: bool):
    """Columns sqrt(w) [, sqrt(w) * beta_x] and response sqrt(w) * beta_y of a weighted fit."""
    sqw = np.sqrt(w)
    with np.errstate(over="ignore"):  # an infinite column fails every fit that uses it
        cols = [sqw, sqw * s.beta_x] if intercept else [sqw * s.beta_x]
        return np.column_stack(cols), sqw * s.beta_y


def _intercept_fit(design: np.ndarray, response: np.ndarray):
    """(Coefficients, inverse Gram) of an intercept design; raises if it is not invertible."""
    coefs, inv, ok = _wls_rows(np.ones((1, len(response))), design, response)
    if not ok[0]:
        raise SingularDesignError(
            "intercept and slope are not separable under the positive weights: the exposure "
            "associations are identical, or the weighted design's inverse Gram matrix over- "
            "or underflows"
        )
    return coefs[0], inv[0]


def ivw(s: SummarySet, weights: WeightVector | None = None,
        effects: str = "multiplicative_random") -> Estimate:
    """Inverse-variance weighted estimate of the causal effect.

    Weighted regression of outcome on exposure associations with the
    intercept fixed at zero. With default weights the estimate is
    sum(beta_y * beta_x / se_y^2) / sum(beta_x^2 / se_y^2).

    Parameters
    ----------
    s : SummarySet
        Variant associations (orientation does not affect this estimator).
    weights : WeightVector, optional
        Analysis weights, inverse-variance by default. The fit runs on the k >= 1
        strictly positive ones; the residual scale has k - 1 degrees of freedom.
    effects : {"fixed", "multiplicative_random"}
        Fixed effects divides the raw SE by the residual scale sigma_hat;
        multiplicative random effects divides by min(sigma_hat, 1). A single
        positively weighted variant has no residual scale and falls back to
        fixed effects with a warning recorded on the estimate.

    Returns
    -------
    Estimate
        Point estimate with normal-reference CI and two-sided p-value.
    """
    if effects not in EFFECTS_MODELS:
        raise ValueError(f"effects must be one of {EFFECTS_MODELS}, got {effects!r}")
    s, w = _fitted_variants(s, weights, 1, lambda k: "ivw needs a strictly positive weight")
    x, y = s.beta_x, s.beta_y
    sxx = _origin_sxx(w, x)
    # overflowing sums give a non-finite theta or SE, which _estimate rejects
    with np.errstate(over="ignore", invalid="ignore"):
        sxy = float(np.sum(w * x * y))
    theta = sxy / sxx
    se_fixed = sxx ** -0.5
    warnings: tuple[str, ...] = ()
    if s.j == 1:
        sigma = None
        se = se_fixed
        if effects == "multiplicative_random":
            effects = "fixed"
            warnings = ("single variant: residual scale undefined, fixed-effects fallback",)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            resid = y - theta * x
            sigma = math.sqrt(float(np.sum(w * resid * resid)) / (s.j - 1))
        se = se_fixed if effects == "fixed" else se_fixed * max(sigma, 1.0)
    return _estimate("ivw", theta, se, effects_model=effects, residual_scale=sigma,
                     warnings=warnings)


def egger(s: SummarySet, weights: WeightVector | None = None) -> Estimate:
    """Weighted regression with a free intercept for directional pleiotropy.

    Requires a harmonized set (all exposure associations oriented
    non-negative) and at least three positively weighted variants; the fit
    runs on those k variants. The slope estimates the causal effect; the
    intercept estimates the average direct effect of the variants on the
    outcome. Inference uses a t reference with k - 2 degrees of freedom
    under multiplicative random effects. When the residual scale is below
    one, the reported interval is the wider of the normal-reference interval
    and the t interval built on the unshrunk (raw) standard error.
    """
    if not s.harmonized:
        raise ValueError("egger requires a harmonized summary set")
    s, w = _fitted_variants(s, weights, 3, lambda k: "egger needs at least 3 strictly positive "
                            f"weights for residual degrees of freedom, got {k}")
    design, response = _design(s, w, intercept=True)
    coef, inv = _intercept_fit(design, response)
    intercept, slope = float(coef[0]), float(coef[1])
    df = s.j - 2
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sigma leaves no SE
        resid = response - design @ coef
        sigma = math.sqrt(float(resid @ resid) / df)
    # sigma-free SEs; the random-effects correction multiplies by max(sigma, 1)
    se_slope_unit = math.sqrt(inv[1, 1])
    se_slope = se_slope_unit * max(sigma, 1.0)
    se_int = math.sqrt(inv[0, 0]) * max(sigma, 1.0)
    ci = None
    if sigma < 1.0:
        # raw-SE t interval vs normal interval on the corrected SE: keep wider
        q975 = t_quantile(0.975, df)
        se_raw = se_slope_unit * sigma
        ci = (min(slope - _Z975 * se_slope, slope - q975 * se_raw),
              max(slope + _Z975 * se_slope, slope + q975 * se_raw))
    return _estimate("egger", slope, se_slope, df=df, ci=ci, intercept=intercept,
                     intercept_se=se_int, effects_model="multiplicative_random",
                     residual_scale=sigma)


def instrument_strength(s: SummarySet) -> float:
    """I^2 heterogeneity of the scaled exposure associations.

    Meta-analyses beta_x_j / se_y_j with standard errors se_x_j / se_y_j and
    returns I^2 = max(0, (Q - (J-1)) / Q) with Q the usual heterogeneity
    statistic (I^2 is 0 when Q is 0). Values near 1 mean instrument strengths
    are well separated from their estimation error, the regime in which the
    intercept-based estimator is least attenuated.
    """
    if s.j < 2:
        raise InsufficientInstrumentsError("instrument strength needs at least 2 variants")
    with np.errstate(all="ignore"):  # a total or Q that is not finite raises below
        v = s.beta_x / s.se_y
        prec = (s.se_y / s.se_x) ** 2.0
        total = np.sum(prec)
        q = float(np.sum(prec * (v - np.sum(prec * v) / total) ** 2.0))
    if not (0.0 < total < math.inf and math.isfinite(q)):
        raise DegenerateInstrumentError("instrument strength: precisions or Q over- or underflow")
    return 0.0 if q <= 0.0 else max(0.0, (q - (s.j - 1)) / q)
