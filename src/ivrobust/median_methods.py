"""Median-based estimators over the per-variant ratio estimates.

The estimate is a weighted median of the ratio estimates: the value where
the cumulative weight crosses one half, linearly interpolated between the
bracketing order statistics. With equal weights this is (an interpolated
version of) the sample median, consistent when at least half the total
weight sits on valid instruments. Standard errors come from a parametric
bootstrap that redraws the summary associations from their sampling
distributions while holding the weights fixed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import as_seed_sequence
from .distributions import normal_quantile, normal_sf
from .exceptions import InsufficientInstrumentsError
from .penalization import cochran_q_ivw
from .summary_data import SummarySet, ratio_estimates
from .wls import Estimate

CUMULATIVE_RULES = ("midpoint", "plain")

_Z975 = normal_quantile(0.975)


@dataclass(frozen=True)
class MedianWeights:
    """Normalized non-negative weights over the ratio estimates."""

    w: np.ndarray

    def __post_init__(self):
        w = np.array(self.w, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must form a non-empty 1-d vector")
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ValueError("weights must be finite and >= 0")
        total = float(np.sum(w))
        if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=1e-9):
            raise ValueError(f"weights must sum to 1, got {total!r}")
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    def __len__(self) -> int:
        return self.w.size

    @classmethod
    def from_raw(cls, raw) -> "MedianWeights":
        """Normalize arbitrary non-negative weights to sum to one."""
        raw = np.asarray(raw, dtype=float)
        if raw.ndim != 1 or raw.size == 0:
            raise ValueError("weights must form a non-empty 1-d vector")
        if not np.all(np.isfinite(raw)) or np.any(raw < 0.0):
            raise ValueError("weights must be finite and >= 0")
        total = float(np.sum(raw))
        if total <= 0.0:
            raise ValueError("at least one weight must be strictly positive")
        return cls(raw / total)

    @classmethod
    def equal(cls, j: int) -> "MedianWeights":
        return cls(np.full(j, 1.0 / j))


def _coerce_weights(weights) -> MedianWeights:
    if isinstance(weights, MedianWeights):
        return weights
    return MedianWeights.from_raw(weights)


def weighted_median(theta, weights, cumulative: str = "midpoint") -> float:
    """Weighted median of ``theta`` by cumulative-weight interpolation.

    Parameters
    ----------
    theta : array_like
        Values to summarize.
    weights : MedianWeights or array_like
        Non-negative weights; raw vectors are normalized.
    cumulative : {"midpoint", "plain"}
        "midpoint" assigns value j the cumulative weight
        s_j = sum(w_1..w_j) - w_j / 2 before interpolating to 0.5; "plain"
        uses the ordinary running total s_j = sum(w_1..w_j).

    Returns
    -------
    float
        theta_k + (theta_{k+1} - theta_k) * (0.5 - s_k) / (s_{k+1} - s_k)
        with k the largest index (in sorted order) where s_k < 0.5; the
        smallest value if no s_k is below one half.
    """
    if cumulative not in CUMULATIVE_RULES:
        raise ValueError(f"cumulative must be one of {CUMULATIVE_RULES}, got {cumulative!r}")
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size == 0:
        raise ValueError("theta must be a non-empty 1-d vector")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    mw = _coerce_weights(weights)
    if len(mw) != theta.size:
        raise ValueError(f"got {len(mw)} weights for {theta.size} values")
    if theta.size == 1:
        return float(theta[0])
    order = np.argsort(theta, kind="stable")
    th = theta[order]
    w = mw.w[order]
    cum = np.cumsum(w)
    s = cum - 0.5 * w if cumulative == "midpoint" else cum
    k = int(np.sum(s < 0.5)) - 1
    if k < 0:
        return float(th[0])
    # s is capped at 1 with s[-1] >= 0.5, so k + 1 is always in range and the
    # bracketing gap s[k+1] - s[k] is strictly positive.
    frac = (0.5 - s[k]) / (s[k + 1] - s[k])
    return float(th[k] + (th[k + 1] - th[k]) * frac)


def _weighted_median_rows(theta: np.ndarray, w: np.ndarray) -> np.ndarray:
    # Row-wise midpoint-rule medians with one fixed weight vector; used by
    # the bootstrap where theta is (draws, J).
    j = theta.shape[1]
    if j == 1:
        return theta[:, 0].copy()
    order = np.argsort(theta, axis=1, kind="stable")
    th = np.take_along_axis(theta, order, axis=1)
    ws = w[order]
    cum = np.cumsum(ws, axis=1)
    s = cum - 0.5 * ws
    k = np.sum(s < 0.5, axis=1) - 1
    kc = np.clip(k, 0, j - 2)
    rows = np.arange(theta.shape[0])
    s_lo = s[rows, kc]
    s_hi = s[rows, kc + 1]
    th_lo = th[rows, kc]
    th_hi = th[rows, kc + 1]
    est = th_lo + (th_hi - th_lo) * (0.5 - s_lo) / (s_hi - s_lo)
    return np.where(k < 0, th[:, 0], est)


def bootstrap_se(s: SummarySet, weights, draws: int = 1000, seed=None) -> float:
    """Parametric-bootstrap standard error of the weighted median.

    Each draw resamples every association from a normal centred at its
    estimate with its reported standard error, recomputes the ratio
    estimates, and takes their weighted median with the weights held fixed
    at the values supplied here. Returns the sample standard deviation
    (denominator ``draws - 1``) of the replicated medians.
    """
    if draws < 2:
        raise ValueError(f"bootstrap needs at least 2 draws, got {draws}")
    mw = _coerce_weights(weights)
    if len(mw) != s.j:
        raise ValueError(f"got {len(mw)} weights for {s.j} variants")
    rng = np.random.Generator(np.random.Philox(as_seed_sequence(seed)))
    beta_x = s.beta_x
    se_x = s.se_x
    beta_y = s.beta_y
    se_y = s.se_y
    bx = rng.normal(beta_x, se_x, size=(draws, s.j))
    by = rng.normal(beta_y, se_y, size=(draws, s.j))
    # a ratio needs a nonzero denominator; redraw the measure-zero exact hits
    zero = bx == 0.0
    while np.any(zero):
        locs = np.broadcast_to(beta_x, bx.shape)[zero]
        scales = np.broadcast_to(se_x, bx.shape)[zero]
        bx[zero] = rng.normal(locs, scales)
        zero = bx == 0.0
    meds = _weighted_median_rows(by / bx, mw.w)
    return float(np.std(meds, ddof=1))


def _median_estimate(s: SummarySet, weights: MedianWeights, method: str,
                     draws: int, seed) -> Estimate:
    theta = float(weighted_median(ratio_estimates(s).theta, weights))
    se = bootstrap_se(s, weights, draws=draws, seed=seed)
    ci_low = theta - _Z975 * se
    ci_high = theta + _Z975 * se
    # an SE that is tiny next to the estimate rounds the interval onto it
    if not (math.isfinite(se) and ci_low < theta < ci_high):
        return Estimate(method=method, theta=theta, se_reported=False,
                        warnings=("standard error unavailable", "interval collapsed"))
    return Estimate(method=method, theta=theta, se=se, ci_low=ci_low, ci_high=ci_high,
                    p_value=2.0 * normal_sf(abs(theta) / se))


def _estimator_weights(raw: np.ndarray, method: str) -> MedianWeights:
    # weights that all underflow to zero leave no variant to take a median of
    if not np.any(raw > 0.0):
        raise InsufficientInstrumentsError(f"{method}: every weight is zero")
    return MedianWeights.from_raw(raw)


def simple_median(s: SummarySet, draws: int = 1000, seed=None) -> Estimate:
    """Equal-weight median of the ratio estimates with bootstrap SE.

    Consistent when at least half the variants are valid instruments.
    """
    return _median_estimate(s, MedianWeights.equal(s.j), "simple_median", draws, seed)


def weighted_median_estimate(s: SummarySet, draws: int = 1000, seed=None) -> Estimate:
    """Inverse-variance weighted median of the ratio estimates.

    Weights are proportional to beta_x^2 / se_y^2, the reciprocal
    delta-method variances of the ratio estimates; consistent when valid
    instruments carry at least half the total weight.
    """
    weights = _estimator_weights(s.beta_x ** 2.0 / s.se_y ** 2.0, "weighted_median")
    return _median_estimate(s, weights, "weighted_median", draws, seed)


def penalized_weighted_median(s: SummarySet, draws: int = 1000, seed=None) -> Estimate:
    """Weighted median with heterogeneity-penalized weights.

    The raw inverse-variance weights are first used for a weighted median;
    each variant's disagreement with that reference value is scored by a
    one-degree-of-freedom heterogeneity statistic and the weights are
    multiplied by min(1, 20 p_j) before the final median and its bootstrap.
    """
    method = "penalized_weighted_median"
    raw = s.beta_x ** 2.0 / s.se_y ** 2.0
    reference = float(weighted_median(ratio_estimates(s).theta, _estimator_weights(raw, method)))
    report = cochran_q_ivw(s, reference)
    penalized = _estimator_weights(raw * report.factor_j, method)
    return _median_estimate(s, penalized, method, draws, seed)
