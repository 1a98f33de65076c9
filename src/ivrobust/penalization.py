"""Heterogeneity-based down-weighting of outlying variants.

Each variant gets a one-degree-of-freedom heterogeneity statistic measuring
its disagreement with a reference fit; weights are multiplied by
min(1, 20 * p_j) so only variants with p_j < 0.05 are shrunk, in proportion
to how extreme they are. Penalization is applied once (no iteration to a
fixed point), then the estimator of interest is refit with the reduced
weights.

The one-degree-of-freedom tail p_j = P(chi2_1 > q_j) is evaluated in closed
form, erfc(sqrt(q_j / 2)), not by the general chi-square continued fraction.
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
    """Per-variant heterogeneity statistics and the penalty factors they imply."""

    q_total: float
    q_j: np.ndarray
    p_j: np.ndarray
    factor_j: np.ndarray
    reference_estimate: float
    df_total: int
    reference_intercept: float | None = None

    def __post_init__(self):
        for name in ("q_j", "p_j", "factor_j"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.q_j.shape == self.p_j.shape == self.factor_j.shape):
            raise ValueError("q_j, p_j, factor_j must be equal length")
        if np.any(self.q_j < 0.0):
            raise ValueError("heterogeneity statistics must be >= 0")
        if np.any((self.factor_j < 0.0) | (self.factor_j > 1.0)):
            raise ValueError("penalty factors must lie in [0, 1]")


def _factors(q_j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    undefined = np.flatnonzero(np.isnan(q_j))
    if undefined.size:
        raise DegenerateInstrumentError(
            f"the heterogeneity statistic at position {undefined[0] + 1} overflows to NaN"
        )
    p_j = np.array([math.erfc(math.sqrt(0.5 * q)) for q in q_j.tolist()])
    return p_j, np.minimum(1.0, PENALTY_SLOPE * p_j)


def cochran_q_ivw(s: SummarySet, theta_ref: float) -> PenaltyReport:
    """Heterogeneity of the per-variant ratio estimates about ``theta_ref``.

    Q_j = (theta_j - theta_ref)^2 / var(theta_j) with the delta-method
    variance; the total is compared against chi-square with J - 1 degrees of
    freedom when used as a model-fit diagnostic.
    """
    r = ratio_estimates(s)
    with np.errstate(over="ignore", invalid="ignore"):  # _factors rejects a NaN q_j
        q_j = (r.theta - float(theta_ref)) ** 2.0 / r.variance
    p_j, factor_j = _factors(q_j)
    return PenaltyReport(
        q_total=float(np.sum(q_j)),
        q_j=q_j,
        p_j=p_j,
        factor_j=factor_j,
        reference_estimate=float(theta_ref),
        df_total=s.j - 1,
    )


def cochran_q_egger(s: SummarySet, intercept_ref: float, slope_ref: float) -> PenaltyReport:
    """Heterogeneity about an intercept-augmented reference fit.

    Q_j = (beta_y_j - intercept_ref - slope_ref * beta_x_j)^2 / se_y_j^2;
    the total references chi-square with J - 2 degrees of freedom.
    """
    if s.j < 3:
        raise InsufficientInstrumentsError(
            f"per-variant fit statistics about an intercept model need J >= 3, got {s.j}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # _factors rejects a NaN q_j
        resid = s.beta_y - float(intercept_ref) - float(slope_ref) * s.beta_x
        q_j = (resid / s.se_y) ** 2.0
    p_j, factor_j = _factors(q_j)
    return PenaltyReport(
        q_total=float(np.sum(q_j)),
        q_j=q_j,
        p_j=p_j,
        factor_j=factor_j,
        reference_estimate=float(slope_ref),
        df_total=s.j - 2,
        reference_intercept=float(intercept_ref),
    )


def penalize_weights(base: WeightVector, report: PenaltyReport) -> WeightVector:
    """Apply the report's penalty factors to ``base`` elementwise."""
    if len(base) != report.factor_j.size:
        raise ValueError(
            f"got {len(base)} weights for {report.factor_j.size} penalty factors"
        )
    return WeightVector(base.w * report.factor_j)
