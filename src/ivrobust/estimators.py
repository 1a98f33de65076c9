"""Registry running any subset of the estimator family on one summary set.

The eight regression methods are one table: {ivw: through the origin,
egger: free intercept} x {least squares, robust_: MM-regression} x
{inverse-variance weights, penalized_: heterogeneity-penalized weights}.
The three medians are one weighted median of the ratio estimates under
equal (simple_median), inverse-variance (weighted_median) and penalized
inverse-variance (penalized_weighted_median) weights.

Penalty factors for the regression methods come from the unpenalized IVW and
intercept-model reference fits; the robust penalized variants reuse exactly
those weights. Intercept methods always use multiplicative random effects.
Results are keyed by method id in request order.
"""
from __future__ import annotations

import dataclasses
from functools import cache
from typing import Iterator

import numpy as np

from ._util import as_seed_sequence
from .exceptions import EstimationError
from .median_methods import (
    penalized_weighted_median,
    simple_median,
    weighted_median_estimate,
)
from .penalization import cochran_q_egger, cochran_q_ivw, penalize_weights
from .robust_mm import mm_regress
from .summary_data import SummarySet, harmonize
from .wls import Estimate, WeightVector, egger, inverse_variance_weights, ivw

# id: (intercept, robust, penalized)
_REGRESSIONS = {
    "ivw": (False, False, False),
    "egger": (True, False, False),
    "robust_ivw": (False, True, False),
    "robust_egger": (True, True, False),
    "penalized_ivw": (False, False, True),
    "penalized_egger": (True, False, True),
    "penalized_robust_ivw": (False, True, True),
    "penalized_robust_egger": (True, True, True),
}
_MEDIANS = {
    "simple_median": simple_median,
    "weighted_median": weighted_median_estimate,
    "penalized_weighted_median": penalized_weighted_median,
}
ALL_METHODS = (*_REGRESSIONS, *_MEDIANS)

# fixed per-method random streams so a subset request never reshuffles seeds
_STREAMS = {
    "robust_ivw": 0,
    "robust_egger": 1,
    "penalized_robust_ivw": 2,
    "penalized_robust_egger": 3,
    "simple_median": 4,
    "weighted_median": 5,
    "penalized_weighted_median": 6,
}


def _check_methods(methods) -> tuple[str, ...]:
    """``methods`` as a tuple; ValueError for an unknown or a repeated method id."""
    methods = tuple(methods)
    unknown = [m for m in methods if m not in ALL_METHODS]
    if unknown:
        raise ValueError(f"unknown method id(s): {', '.join(unknown)}; "
                         f"choose from {', '.join(ALL_METHODS)}")
    if len(set(methods)) != len(methods):
        raise ValueError("duplicate method ids requested")
    return methods


def _stream(root: np.random.SeedSequence, name: str) -> np.random.SeedSequence:
    # stateless child derivation: spawn_key extended by the method's index,
    # so repeated calls with the same root always yield the same stream
    entropy = root.entropy if root.entropy is not None else 0
    return np.random.SeedSequence(
        entropy=entropy, spawn_key=tuple(root.spawn_key) + (_STREAMS[name],)
    )


def _fit_each(s: SummarySet, methods, *, effects: str = "multiplicative_random",
              bootstrap_draws: int = 1000, seed=None
              ) -> Iterator[tuple[str, Estimate | EstimationError]]:
    """Yield ``(method, Estimate or the EstimationError it raised)`` in request order.

    The inverse-variance weights, each reference fit and each penalized weight
    vector are computed when a method first needs them, so their errors are
    those of the methods that use them; one that raised is recomputed by the
    next method needing it, which is deterministic because none of them draws
    random numbers.
    """
    methods = _check_methods(methods)
    hs = s if s.harmonized else harmonize(s)
    root = as_seed_sequence(seed)

    @cache
    def base() -> WeightVector:
        return inverse_variance_weights(hs)

    @cache
    def reference(intercept: bool) -> Estimate:
        return egger(hs, base()) if intercept else ivw(hs, base(), effects=effects)

    @cache
    def penalized_weights(intercept: bool) -> WeightVector:
        ref = reference(intercept)
        report = (cochran_q_egger(hs, ref.intercept, ref.theta) if intercept
                  else cochran_q_ivw(hs, ref.theta))
        return penalize_weights(base(), report)

    def fit(name: str) -> Estimate:
        if name in _MEDIANS:
            return _MEDIANS[name](hs, draws=bootstrap_draws, seed=_stream(root, name))
        intercept, robust, penalized = _REGRESSIONS[name]
        if not (robust or penalized):
            return reference(intercept)
        w = penalized_weights(intercept) if penalized else base()
        if robust:
            return mm_regress(hs, w, intercept=intercept, seed=_stream(root, name), method=name,
                              effects="multiplicative_random" if intercept else effects)[1]
        est = egger(hs, w) if intercept else ivw(hs, w, effects=effects)
        return dataclasses.replace(est, method=name)

    for name in methods:
        try:
            yield name, fit(name)
        except EstimationError as exc:
            yield name, exc


def run_methods(s: SummarySet, methods=ALL_METHODS, *,
                effects: str = "multiplicative_random",
                bootstrap_draws: int = 1000, seed=None) -> dict[str, Estimate]:
    """Run the requested estimators on one summary set.

    The set is harmonized once up front (a no-op when already harmonized);
    every estimator sees the same orientation. ``effects`` sets the SE model
    of the no-intercept methods; ``seed`` feeds fixed-index substreams per
    stochastic method, so results for a method do not depend on which other
    methods were requested. Robust fits use the fixed tuning of
    :mod:`ivrobust.robust_mm`. Every method either returns an
    :class:`Estimate`, with or without SE, or raises an
    :class:`EstimationError`: the first method in request order that fails
    raises its error, and no later method runs.
    """
    results: dict[str, Estimate] = {}
    for name, fit in _fit_each(s, methods, effects=effects, bootstrap_draws=bootstrap_draws,
                               seed=seed):
        if isinstance(fit, EstimationError):
            raise fit
        results[name] = fit
    return results
