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

from ._util import _row_chunks, as_seed_sequence
from .exceptions import DegenerateInstrumentError, InsufficientInstrumentsError
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
        s_k is below one half.
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
    Rows are sorted in chunks of at most ``_util._ELEMENT_BUDGET``
    elements; past one chunk, the values are sorted in place in ``theta``'s
    buffer.
    """
    chunks = _row_chunks(*theta.shape)
    if len(chunks) == 1:
        return _sort_chunk(theta)
    order = np.empty(theta.shape, dtype=np.intp)
    for rows in chunks:
        order[rows], theta[rows] = _sort_chunk(theta[rows])
    return order, theta


def _sort_chunk(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def _bootstrap_rows(s: SummarySet, draws: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Sort step of the parametric bootstrap: ``draws`` sorted rows of ratio estimates.

    Each row redraws every association from a normal centred at its
    estimate with its reported standard error and forms the ratios. The
    rows do not depend on the weights, so one set serves every weighted
    median of ``s``. The ratios are formed in the outcome draws' buffer
    (and sorted there past one row chunk, see :func:`_sort_rows`).
    """
    if draws < 2:
        raise ValueError(f"bootstrap needs at least 2 draws, got {draws}")
    rng = np.random.Generator(np.random.Philox(as_seed_sequence(seed)))
    bx = _normal(rng, s.beta_x, s.se_x, (draws, s.j))
    ratio = _normal(rng, s.beta_y, s.se_y, (draws, s.j))
    # a ratio needs a nonzero denominator; redraw the measure-zero exact hits
    zero = bx == 0.0
    while np.any(zero):
        locs = np.broadcast_to(s.beta_x, bx.shape)[zero]
        scales = np.broadcast_to(s.se_x, bx.shape)[zero]
        bx[zero] = _normal(rng, locs, scales, locs.shape)
        zero = bx == 0.0
    with np.errstate(over="ignore"):  # an overflowing ratio gives a non-finite SE
        ratio /= bx
    del bx
    return _sort_rows(ratio)


def _normal(rng: np.random.Generator, loc, scale, size) -> np.ndarray:
    # the bits and stream of rng.normal(loc, scale, size), without its per-element broadcast
    z = rng.standard_normal(size)
    z *= scale
    z += loc
    return z


def _bootstrap_sd(sorted_rows: tuple[np.ndarray, np.ndarray], w: np.ndarray) -> float:
    # weigh step: sample SD of the bootstrap rows' medians under normalized weights w;
    # a non-finite SE is one that _estimate reports as absent
    order, th = sorted_rows
    medians = np.empty(th.shape[0])
    for rows in _row_chunks(*th.shape):
        medians[rows] = _weigh_rows((order[rows], th[rows]), w)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.std(medians, ddof=1))


def bootstrap_se(s: SummarySet, weights, draws: int = 1000, seed=None) -> float:
    """Parametric-bootstrap standard error of the weighted median.

    Each draw resamples every association from a normal centred at its
    estimate with its reported standard error, recomputes the ratio
    estimates, and takes their weighted median with the weights held fixed
    at the values supplied here. Returns the sample standard deviation
    (denominator ``draws - 1``) of the replicated medians.
    """
    return _bootstrap_sd(_bootstrap_rows(s, draws, seed), _normalized(weights, s.j))


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


def _penalized_weights(s: SummarySet, ratios) -> np.ndarray:
    method = "penalized_weighted_median"
    reference = weighted_median(ratios(), _estimator_weights(s, method))
    return _estimator_weights(s, method, cochran_q_ivw(s, reference).factor_j)


# each median's weights from its summary set and a thunk for its ratio estimates
_WEIGHTS = {
    "simple_median": lambda s, ratios: np.ones(s.j),
    "weighted_median": lambda s, ratios: _estimator_weights(s, "weighted_median"),
    "penalized_weighted_median": _penalized_weights,
}


def _median_fit(s: SummarySet, method: str, ratios, bootstrap) -> Estimate:
    """One median method: the weighted median of the ratio estimates and its bootstrap SE.

    ``ratios`` and ``bootstrap`` are thunks for the ratio estimates and the
    sorted bootstrap rows of ``s``, so that a caller can share both between
    the three medians and draw the rows only once the weights stand.
    """
    weights = _WEIGHTS[method](s, ratios)
    estimate = weighted_median(ratios(), weights)
    return _estimate(method, estimate, _bootstrap_sd(bootstrap(), _normalized(weights, s.j)))


def _standalone_fit(s: SummarySet, method: str, draws: int, seed) -> Estimate:
    return _median_fit(s, method, lambda: ratio_estimates(s).theta,
                       lambda: _bootstrap_rows(s, draws, seed))


def simple_median(s: SummarySet, draws: int = 1000, seed=None) -> Estimate:
    """Equal-weight median of the ratio estimates with bootstrap SE.

    Consistent when at least half the variants are valid instruments.
    """
    return _standalone_fit(s, "simple_median", draws, seed)


def weighted_median_estimate(s: SummarySet, draws: int = 1000, seed=None) -> Estimate:
    """Inverse-variance weighted median of the ratio estimates.

    Weights are proportional to beta_x^2 / se_y^2, the reciprocal
    delta-method variances of the ratio estimates; consistent when valid
    instruments carry at least half the total weight.
    """
    return _standalone_fit(s, "weighted_median", draws, seed)


def penalized_weighted_median(s: SummarySet, draws: int = 1000, seed=None) -> Estimate:
    """Weighted median with heterogeneity-penalized weights.

    The raw inverse-variance weights are first used for a weighted median;
    each variant's disagreement with that reference value is scored by a
    one-degree-of-freedom heterogeneity statistic and the weights are
    multiplied by min(1, 20 p_j) before the final median and its bootstrap.
    """
    return _standalone_fit(s, "penalized_weighted_median", draws, seed)
