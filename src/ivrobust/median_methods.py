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

import numpy as np

from ._util import as_seed_sequence
from .exceptions import DegenerateInstrumentError, InsufficientInstrumentsError
from .penalization import cochran_q_ivw
from .summary_data import SummarySet, ratio_estimates
from .wls import Estimate, WeightVector, _estimate


def _normalized(weights, n: int) -> np.ndarray:
    # a WeightVector or raw non-negative weights, scaled to sum to one
    w = (weights if isinstance(weights, WeightVector) else WeightVector(weights)).w
    if w.size != n:
        raise ValueError(f"got {w.size} weights for {n} values")
    total = w.sum()
    if not total > 0.0:
        raise ValueError("at least one weight must be strictly positive")
    return w / total


def weighted_median(theta, weights) -> float:
    """Weighted median of ``theta`` by cumulative-weight interpolation.

    Parameters
    ----------
    theta : array_like
        Values to summarize.
    weights : WeightVector or array_like
        Non-negative weights, normalized to sum to one.

    Returns
    -------
    float
        Value j in sorted order gets the cumulative weight
        s_j = sum(w_1..w_j) - w_j / 2; the result is
        theta_k + (theta_{k+1} - theta_k) * ((0.5 - s_k) / (s_{k+1} - s_k))
        with k the largest index where s_k < 0.5, or the smallest value if no
        s_k is below one half.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size == 0:
        raise ValueError("theta must be a non-empty 1-d vector")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    return float(_weighted_median_rows(theta[None, :], _normalized(weights, theta.size))[0])


def _weighted_median_rows(theta: np.ndarray, w: np.ndarray) -> np.ndarray:
    # Row-wise weighted medians of theta (rows, J) under one normalized
    # weight vector w (J,).
    j = theta.shape[1]
    if j == 1:
        return theta[:, 0].copy()
    order = np.argsort(theta, axis=1, kind="stable")
    th = np.take_along_axis(theta, order, axis=1)
    ws = w[order]
    cum = np.cumsum(ws, axis=1)
    s = cum - 0.5 * ws
    k = np.sum(s < 0.5, axis=1) - 1
    # s[-1] >= 0.5 up to rounding, so k + 1 is in range and s_hi > s_lo;
    # the clip only guards rows that take the k < 0 branch
    kc = np.clip(k, 0, j - 2)
    rows = np.arange(theta.shape[0])
    s_lo = s[rows, kc]
    s_hi = s[rows, kc + 1]
    th_lo = th[rows, kc]
    th_hi = th[rows, kc + 1]
    # infinite or near-overflow values interpolate to inf or NaN, which the callers reject
    with np.errstate(over="ignore", invalid="ignore"):
        est = th_lo + (th_hi - th_lo) * ((0.5 - s_lo) / (s_hi - s_lo))
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
    w = _normalized(weights, s.j)
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
    # an overflowing ratio draw gives a non-finite SE, which _estimate reports as absent
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.std(_weighted_median_rows(by / bx, w), ddof=1))


def _median_estimate(s: SummarySet, weights: np.ndarray, method: str,
                     draws: int, seed) -> Estimate:
    theta = weighted_median(ratio_estimates(s).theta, weights)
    return _estimate(method, theta, bootstrap_se(s, weights, draws=draws, seed=seed))


def _estimator_weights(s: SummarySet, method: str, factor=1.0) -> np.ndarray:
    # inverse-variance weights beta_x^2 / se_y^2 times penalty factors
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # rejected below
        raw = s.beta_x ** 2.0 / s.se_y ** 2.0 * factor
    if not np.all(np.isfinite(raw)):
        raise DegenerateInstrumentError(f"{method}: a weight overflows or is undefined")
    # weights that all underflow to zero leave no variant to take a median of
    if not np.any(raw > 0.0):
        raise InsufficientInstrumentsError(f"{method}: every weight is zero")
    return raw


def simple_median(s: SummarySet, draws: int = 1000, seed=None) -> Estimate:
    """Equal-weight median of the ratio estimates with bootstrap SE.

    Consistent when at least half the variants are valid instruments.
    """
    return _median_estimate(s, np.ones(s.j), "simple_median", draws, seed)


def weighted_median_estimate(s: SummarySet, draws: int = 1000, seed=None) -> Estimate:
    """Inverse-variance weighted median of the ratio estimates.

    Weights are proportional to beta_x^2 / se_y^2, the reciprocal
    delta-method variances of the ratio estimates; consistent when valid
    instruments carry at least half the total weight.
    """
    weights = _estimator_weights(s, "weighted_median")
    return _median_estimate(s, weights, "weighted_median", draws, seed)


def penalized_weighted_median(s: SummarySet, draws: int = 1000, seed=None) -> Estimate:
    """Weighted median with heterogeneity-penalized weights.

    The raw inverse-variance weights are first used for a weighted median;
    each variant's disagreement with that reference value is scored by a
    one-degree-of-freedom heterogeneity statistic and the weights are
    multiplied by min(1, 20 p_j) before the final median and its bootstrap.
    """
    method = "penalized_weighted_median"
    reference = weighted_median(ratio_estimates(s).theta, _estimator_weights(s, method))
    penalized = _estimator_weights(s, method, cochran_q_ivw(s, reference).factor_j)
    return _median_estimate(s, penalized, method, draws, seed)
