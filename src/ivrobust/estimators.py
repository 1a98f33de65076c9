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
from .median_methods import _check_draws, _median_fits
from .penalization import cochran_q_egger, cochran_q_ivw, penalize_weights
from .robust_mm import _mm_fits
from .summary_data import SummarySet, harmonize
from .wls import EFFECTS_MODELS, Estimate, WeightVector, egger, inverse_variance_weights, ivw

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
_ROBUST = tuple(m for m, (_, robust, _) in _REGRESSIONS.items() if robust)
_MEDIANS = ("simple_median", "weighted_median", "penalized_weighted_median")
ALL_METHODS = (*_REGRESSIONS, *_MEDIANS)

# fixed random streams so a subset request never reshuffles seeds; the three
# medians share the "bootstrap" stream (4-6 were their former own streams and
# stay unused)
_STREAMS = {
    "robust_ivw": 0,
    "robust_egger": 1,
    "penalized_robust_ivw": 2,
    "penalized_robust_egger": 3,
    "bootstrap": 7,
}


def _check_methods(methods, bootstrap_draws: int | None = None) -> tuple[str, ...]:
    """``methods`` as a tuple; ValueError for an unknown or a repeated method id, or,
    given ``bootstrap_draws``, for fewer than 2 draws when a median is requested."""
    methods = tuple(methods)
    unknown = [m for m in methods if m not in ALL_METHODS]
    if unknown:
        raise ValueError(f"unknown method id(s): {', '.join(unknown)}; "
                         f"choose from {', '.join(ALL_METHODS)}")
    if len(set(methods)) != len(methods):
        raise ValueError("duplicate method ids requested")
    if bootstrap_draws is not None and any(m in _MEDIANS for m in methods):
        _check_draws(bootstrap_draws)
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

    The inverse-variance weights, each reference fit and each penalized
    weight vector are computed when a method first needs them, so their
    errors are those of the methods that use them; one that raised is
    recomputed by the next method needing it. The requested medians
    (:func:`ivrobust.median_methods._median_fits`, one bootstrap pass) and
    the requested robust methods (:func:`ivrobust.robust_mm._mm_fits`,
    lockstep S-stages) are each fitted together when the first of them is
    needed; each keeps its own error, and its result is the one it gets alone.
    An unknown ``effects`` raises ValueError before any method fits.
    """
    methods = _check_methods(methods, bootstrap_draws)
    if effects not in EFFECTS_MODELS:
        raise ValueError(f"effects must be one of {EFFECTS_MODELS}, got {effects!r}")
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

    @cache
    def robust_fits() -> dict[str, Estimate | EstimationError]:
        fits, requests = {}, {}
        for name in (m for m in methods if m in _ROBUST):
            intercept, _, penalized = _REGRESSIONS[name]
            try:
                w = penalized_weights(intercept) if penalized else base()
            except EstimationError as exc:
                fits[name] = exc
                continue
            requests[name] = (w, intercept, _stream(root, name), effects, name)
        for name, result in zip(requests, _mm_fits(hs, list(requests.values()))):
            fits[name] = result if isinstance(result, EstimationError) else result[1]
        return fits

    @cache
    def median_fits() -> dict[str, Estimate | EstimationError]:
        return _median_fits(hs, [m for m in methods if m in _MEDIANS], bootstrap_draws,
                            _stream(root, "bootstrap"))

    def fit(name: str) -> Estimate:
        if name in _MEDIANS or name in _ROBUST:
            result = (median_fits() if name in _MEDIANS else robust_fits())[name]
            if isinstance(result, EstimationError):
                raise result
            return result
        intercept, _, penalized = _REGRESSIONS[name]
        if not penalized:
            return reference(intercept)
        w = penalized_weights(intercept)
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
    raises its error, and no later method runs (the robust methods are fitted
    together when the first of them runs).
    """
    results: dict[str, Estimate] = {}
    for name, fit in _fit_each(s, methods, effects=effects, bootstrap_draws=bootstrap_draws,
                               seed=seed):
        if isinstance(fit, EstimationError):
            raise fit
        results[name] = fit
    return results
