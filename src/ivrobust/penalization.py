"""Heterogeneity-based down-weighting of outlying variants.

Each variant gets a one-degree-of-freedom heterogeneity statistic measuring
its disagreement with a reference fit; weights are multiplied by
min(1, 20 * p_j) so only variants with p_j < 0.05 are shrunk, in proportion
to how extreme they are. Penalization is applied once (no iteration to a
fixed point), then the estimator of interest is refit with the reduced
weights.

The one-degree-of-freedom tail p_j = P(chi2_1 > q_j) is evaluated in closed
form, erfc(sqrt(q_j / 2)), not by the general chi-square continued fraction,
and only for the variants whose q_j is large enough to be penalized.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateInstrumentError, InsufficientInstrumentsError
from .summary_data import SummarySet, ratio_estimates
from .wls import WeightVector

PENALTY_SLOPE = 20.0


@dataclass(frozen=True)
class PenaltyReport:
    """Per-variant heterogeneity statistics and the penalty factors they imply.

    ``p_j``, the chi-square(1) tail of each ``q_j``, is computed on access.
    """

    q_total: float
    q_j: np.ndarray
    factor_j: np.ndarray
    reference_estimate: float
    df_total: int
    reference_intercept: float | None = None

    @property
    def p_j(self) -> np.ndarray:
        return _tail(self.q_j)


# 20 * erfc(sqrt(q / 2)) > 1 up to the chi2_1 0.95 quantile 3.8415, so every
# statistic at or below this one has factor exactly 1 without evaluating erfc
_UNPENALIZED_Q = 3.8


def _tail(q_j: np.ndarray) -> np.ndarray:
    return np.array([math.erfc(math.sqrt(0.5 * q)) for q in q_j.tolist()])


def _penalty(q_j: np.ndarray) -> np.ndarray:
    factor_j = np.ones(q_j.shape)
    big = np.flatnonzero(q_j > _UNPENALIZED_Q)
    factor_j[big] = np.minimum(1.0, PENALTY_SLOPE * _tail(q_j[big]))
    return factor_j


def _defined(q_j: np.ndarray) -> np.ndarray:
    undefined = np.flatnonzero(np.isnan(q_j))
    if undefined.size:
        raise DegenerateInstrumentError(
            f"the heterogeneity statistic at position {undefined[0] + 1} overflows to NaN"
        )
    return q_j


def _report(q_j: np.ndarray, **reference) -> PenaltyReport:
    factor_j = _penalty(q_j)
    q_j.setflags(write=False)
    factor_j.setflags(write=False)
    return PenaltyReport(q_total=float(np.sum(q_j)), q_j=q_j, factor_j=factor_j, **reference)


def _ivw_q(s: SummarySet, theta_ref: float) -> np.ndarray:
    """Per-variant (theta_j - theta_ref)^2 / var(theta_j); raises where one is NaN."""
    r = ratio_estimates(s)
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN q_j raises below
        q_j = (r.theta - float(theta_ref)) ** 2.0 / r.variance
    return _defined(q_j)


def cochran_q_ivw(s: SummarySet, theta_ref: float) -> PenaltyReport:
    """Heterogeneity of the per-variant ratio estimates about ``theta_ref``.

    Q_j = (theta_j - theta_ref)^2 / var(theta_j) with the delta-method
    variance; the total is compared against chi-square with J - 1 degrees of
    freedom when used as a model-fit diagnostic.
    """
    return _report(_ivw_q(s, theta_ref), reference_estimate=float(theta_ref),
                   df_total=s.j - 1)


def cochran_q_egger(s: SummarySet, intercept_ref: float, slope_ref: float) -> PenaltyReport:
    """Heterogeneity about an intercept-augmented reference fit.

    Q_j = (beta_y_j - intercept_ref - slope_ref * beta_x_j)^2 / se_y_j^2;
    the total references chi-square with J - 2 degrees of freedom.
    """
    if s.j < 3:
        raise InsufficientInstrumentsError(
            f"per-variant fit statistics about an intercept model need J >= 3, got {s.j}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # a NaN q_j raises below
        resid = s.beta_y - float(intercept_ref) - float(slope_ref) * s.beta_x
        q_j = (resid / s.se_y) ** 2.0
    return _report(_defined(q_j), reference_estimate=float(slope_ref), df_total=s.j - 2,
                   reference_intercept=float(intercept_ref))


def penalize_weights(base: WeightVector, report: PenaltyReport) -> WeightVector:
    """Apply the report's penalty factors to ``base`` elementwise."""
    if len(base) != report.factor_j.size:
        raise ValueError(
            f"got {len(base)} weights for {report.factor_j.size} penalty factors"
        )
    return WeightVector(base.w * report.factor_j)
