"""Median-based estimators over the per-variant ratio estimates.

The estimate is a weighted median of the ratio estimates: the value where
the cumulative weight crosses one half, linearly interpolated between the
bracketing order statistics. With equal weights this is (an interpolated
version of) the sample median, consistent when at least half the total
weight sits on valid instruments. Standard errors come from a parametric
bootstrap that redraws the summary associations from their sampling
distributions while holding the weights fixed.

The medians of one set are fitted together: one bootstrap pass draws, sorts
and weighs each block of at most ``_util._ELEMENT_BUDGET`` draws once for all
of them. Past one block (draws x J > 2^20) the draws depend on the block layout.
"""
from __future__ import annotations

import math

import numpy as np

from ._util import _row_chunks, as_seed_sequence
from .exceptions import (DegenerateInstrumentError, EstimationError,
                         InsufficientInstrumentsError)
from .penalization import cochran_q_ivw
from .summary_data import SummarySet, ratio_estimates
from .wls import Estimate, WeightVector, _estimate


def _normalized(weights, n: int) -> np.ndarray:
    # a WeightVector or raw non-negative weights, scaled to sum to one
    w = (weights if isinstance(weights, WeightVector) else WeightVector(weights)).w
    if w.size != n:
        raise ValueError(f"got {w.size} weights for {n} values")
    with np.errstate(over="ignore"):
        total = w.sum()
    if not total > 0.0:
        raise ValueError("at least one weight must be strictly positive")
    if total == np.inf:
        # finite weights whose sum overflows: scale by the largest one first
        w = w / w.max()
        total = w.sum()
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
        s_k is below one half. A zero-weight value keeps its place in the
        sorted order and can be an end point of the interpolation:
        ``weighted_median([1, 1.5, 3], [0.5, 0, 0.5])`` is 1.5, where ``[1, 3]``
        under ``[0.5, 0.5]`` gives 2.0, as in Bowden et al.'s definition.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1 or theta.size == 0:
        raise ValueError("theta must be a non-empty 1-d vector")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    return float(_weigh_rows(_sort_rows(theta[None, :]), _normalized(weights, theta.size))[0])


def _sort_rows(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort step of the row-wise weighted median of theta (rows, J).

    Returns each row's order and its sorted values, shared by every weight
    vector, from numpy's default (unstable) sorts. A row whose sorted values
    are not strictly increasing holds a tie, +-0.0 or a NaN, and is sorted
    again stably; every other row has one sorting permutation, so order and
    values equal a stable argsort's bit for bit on every input.
    """
    order = np.argsort(theta, axis=1)
    th = np.sort(theta, axis=1)
    strict = th[:, 1:] > th[:, :-1]
    if not strict.all():
        tied = ~strict.all(axis=1)
        order[tied] = np.argsort(theta[tied], axis=1, kind="stable")
        th[tied] = np.take_along_axis(theta[tied], order[tied], axis=1)
    return order, th


def _weigh_rows(sorted_rows: tuple[np.ndarray, np.ndarray], w: np.ndarray) -> np.ndarray:
    # weigh step: the row-wise weighted medians of the sorted rows under one
    # normalized weight vector w (J,)
    order, th = sorted_rows
    j = th.shape[1]
    if j == 1:
        return th[:, 0].copy()
    rows = np.arange(th.shape[0])
    # equal weights give every row the same cumulative weights: form them once
    ws, s_rows = (w[None, :], 0) if np.all(w == w[0]) else (w[order], rows)
    cum = np.cumsum(ws, axis=1)
    s = cum - 0.5 * ws
    k = np.sum(s < 0.5, axis=1) - 1
    # s[-1] >= 0.5 up to rounding, so k + 1 is in range and s_hi > s_lo;
    # the clip only guards rows that take the k < 0 branch
    kc = np.clip(k, 0, j - 2)
    s_lo = s[s_rows, kc]
    s_hi = s[s_rows, kc + 1]
    th_lo = th[rows, kc]
    th_hi = th[rows, kc + 1]
    # infinite or near-overflow values interpolate to inf or NaN, which the callers reject
    with np.errstate(over="ignore", invalid="ignore"):
        est = th_lo + (th_hi - th_lo) * ((0.5 - s_lo) / (s_hi - s_lo))
    return np.where(k < 0, th[:, 0], est)


def _check_draws(draws: int) -> None:
    if draws < 2:
        raise ValueError(f"bootstrap needs at least 2 draws, got {draws}")


def _bootstrap_sds(s: SummarySet, weights: list[np.ndarray], draws: int, seed) -> list[float]:
    """Sample SDs of the bootstrap weighted medians of ``s``, one per normalized weight vector.

    The draws come in blocks of :func:`ivrobust._util._row_chunks` rows from
    one stream: a block's exposure values, then its outcome values, then the
    redraws of exposure values that were exactly zero. Each block is sorted
    once and weighed under every weight vector before the next is drawn. A
    non-finite SD is an SE that :func:`ivrobust.wls._estimate` reports as absent.
    """
    rng = np.random.Generator(np.random.Philox(as_seed_sequence(seed)))
    medians = np.empty((len(weights), draws))
    for rows in _row_chunks(draws, s.j):
        shape = (rows.stop - rows.start, s.j)
        bx = _normal(rng, s.beta_x, s.se_x, shape)
        ratio = _normal(rng, s.beta_y, s.se_y, shape)
        # a ratio needs a nonzero denominator; redraw the measure-zero exact hits
        while np.any(zero := bx == 0.0):
            cols = np.nonzero(zero)[1]
            bx[zero] = _normal(rng, s.beta_x[cols], s.se_x[cols], cols.shape)
        with np.errstate(over="ignore"):  # an overflowing ratio gives a non-finite SE
            ratio /= bx
        del bx, zero
        block = _sort_rows(ratio)
        del ratio  # a block's draws are released before it is weighed
        for median, w in zip(medians, weights):
            median[rows] = _weigh_rows(block, w)
    with np.errstate(over="ignore", invalid="ignore"):
        return [float(np.std(median, ddof=1)) for median in medians]


def _normal(rng: np.random.Generator, loc, scale, size) -> np.ndarray:
    # the bits and stream of rng.normal(loc, scale, size), without its per-element broadcast
    z = rng.standard_normal(size)
    z *= scale
    z += loc
    return z


def bootstrap_se(s: SummarySet, weights, draws: int = 1000, seed=None) -> float:
    """Parametric-bootstrap standard error of the weighted median.

    Each draw resamples every association from a normal centred at its
    estimate with its reported standard error, recomputes the ratio
    estimates, and takes their weighted median with the weights held fixed
    at the values supplied here. Every variant is redrawn, zero-weight ones
    too, so the stream does not depend on the weights. Returns the sample
    standard deviation (denominator ``draws - 1``) of the replicated medians.
    """
    _check_draws(draws)
    return _bootstrap_sds(s, [_normalized(weights, s.j)], draws, seed)[0]


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


def _median_fits(s: SummarySet, methods, draws: int, seed
                 ) -> dict[str, Estimate | EstimationError]:
    """The requested medians of ``s``, fitted together: each one's Estimate or its error.

    Each median's weights and point estimate come first; a failure of its
    weights, of the ratio estimates or a non-finite estimate is its own error.
    One bootstrap pass then serves every median with an estimate; it holds the
    weights fixed, so each median's result is the one it gets alone.
    """
    _check_draws(draws)
    fits, weighed = {}, {}  # weighed: each median's (normalized weights, estimate)
    for method in methods:
        try:
            if method == "simple_median":
                w = np.ones(s.j)
            elif method == "weighted_median":
                w = _estimator_weights(s, method)
            else:
                reference = weighted_median(ratio_estimates(s).theta,
                                            _estimator_weights(s, method))
                w = _estimator_weights(s, method, cochran_q_ivw(s, reference).factor_j)
            estimate = weighted_median(ratio_estimates(s).theta, w)
            if not math.isfinite(estimate):  # near-overflow ratios interpolate to inf or NaN
                raise DegenerateInstrumentError(f"{method}: estimate is not finite ({estimate!r})")
            weighed[method] = (_normalized(w, s.j), estimate)
        except EstimationError as exc:
            fits[method] = exc
    sds = _bootstrap_sds(s, [w for w, _ in weighed.values()], draws, seed) if weighed else []
    fits.update((m, _estimate(m, est, sd)) for (m, (_, est)), sd in zip(weighed.items(), sds))
    return {method: fits[method] for method in methods}


def _alone(s: SummarySet, method: str, draws: int, seed) -> Estimate:
    result = _median_fits(s, (method,), draws, seed)[method]
    if isinstance(result, EstimationError):
        raise result
    return result


def simple_median(s: SummarySet, draws: int = 1000, seed=None) -> Estimate:
    """Equal-weight median of the ratio estimates with bootstrap SE.

    Consistent when at least half the variants are valid instruments.
    """
    return _alone(s, "simple_median", draws, seed)


def weighted_median_estimate(s: SummarySet, draws: int = 1000, seed=None) -> Estimate:
    """Inverse-variance weighted median of the ratio estimates.

    Weights are proportional to beta_x^2 / se_y^2, the reciprocal
    delta-method variances of the ratio estimates; consistent when valid
    instruments carry at least half the total weight.
    """
    return _alone(s, "weighted_median", draws, seed)


def penalized_weighted_median(s: SummarySet, draws: int = 1000, seed=None) -> Estimate:
    """Weighted median with heterogeneity-penalized weights.

    The raw inverse-variance weights are first used for a weighted median;
    each variant's disagreement with that reference value is scored by a
    one-degree-of-freedom heterogeneity statistic and the weights are
    multiplied by min(1, 20 p_j) before the final median and its bootstrap.
    """
    return _alone(s, "penalized_weighted_median", draws, seed)
