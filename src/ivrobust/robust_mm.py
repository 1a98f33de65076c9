"""MM-regression for summarized data with bounded-influence loss.

The fit happens on weight-transformed observations (response beta_y * sqrt(w),
regressor beta_x * sqrt(w), intercept column sqrt(w)). A high-breakdown
S-stage searches random exact-fit candidates for the smallest M-scale of the
residuals under a bisquare loss tuned for 50% breakdown (C_S = 1.548); an
efficiency-tuned M-stage (C_M = 4.685) then iterates reweighted least squares
at that fixed scale. M-scales are solved by safeguarded Newton steps inside a
bracket (bisection only for rows the step cap does not settle). After the
last refinement step only candidates that can still hold the smallest scale
are solved, in the spirit of Salibian-Barrera & Yohai (2006), "A fast
algorithm for S-regression estimates"; the winner is the one a solve of every
candidate would pick. Slope uncertainty comes from the standard M-estimation
sandwich, post-processed the same way as the weighted least-squares fits
(multiplicative random effects). Every weighted least-squares step of both
stages, and the inverse of the sandwich's bread, is the closed form of
:func:`ivrobust.wls._wls_rows`.

The random draws repeat elemental subsets: through the origin a subset is one
variant, so 500 draws at J = 25 are at most 25 distinct fits. Each distinct
subset is checked, refined and solved once, in the order of its first draw.
Several fits of one summary set (``run_methods`` asks for up to four) run
their S-stages in lockstep: each draws its candidates from its own stream,
and each round's M-scale solve, IRLS weights and prune step run once over
the stacked candidate rows of all of them, in groups whose stacked rows stay
within a fixed element budget. Every step of the search is row-wise (a
candidate's residuals, reweighted fit and M-scale depend on its own subset
alone, at any J), so a fit's winner is, bit for bit, the one it finds alone
and the one a search over all its draws finds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import _row_chunks, as_seed_sequence
from .exceptions import (
    DegenerateInstrumentError,
    EstimationError,
    InsufficientInstrumentsError,
    SingularDesignError,
)
from .summary_data import SummarySet
from .wls import (EFFECTS_MODELS, Estimate, WeightVector, _design, _estimate, _intercept_fit,
                  _resolve_weights, _wls_products, _wls_rows, _wls_solve)

C_S = 1.548  # scale (S) stage: 50% breakdown
C_M = 4.685  # efficiency (M) stage: 95% efficiency under normal errors
BREAKDOWN = 0.5  # right-hand side of the M-scale equation
# E[rho_norm(Z / KAPPA, C_S)] = BREAKDOWN for Z ~ N(0, 1): the S-scale of
# N(0, sigma^2) residuals divided by KAPPA is consistent for sigma
KAPPA = 0.9997706595143547
N_CANDIDATES = 500
REFINE_STEPS = 2
M_STEP_TOL = 1e-10
M_STEP_MAX_ITER = 500
_SUBSET_RETRY_ROUNDS = 1000
_NEWTON_MAX_ITER = 16
_BISECT_STEPS = 64
_EPS = float(np.finfo(float).eps)
_PRUNE_MARGIN = 1e-9
_DUST = 4.0 * _EPS  # residuals within 4 ulps of the fit's magnitude are zero


@dataclass(frozen=True)
class RobustFit:
    """Solver-level outcome of an MM fit."""

    slope: float
    intercept: float | None
    scale: float
    converged: bool
    se_available: bool
    iterations: int
    exact_fit: bool = False


def _weight(r, c: float) -> np.ndarray:
    # IRLS weight psi(r)/r = (1 - (r/c)^2)^2, zero outside |r| <= c
    return (1.0 - _u2(r, c)) ** 2


def _u2(r, c: float) -> np.ndarray:
    # min((r/c)^2, 1), clipped before the square so that no |r| >= c can overflow
    return np.minimum(np.abs(np.asarray(r, dtype=float)) / c, 1.0) ** 2


def _rho_norm(u) -> np.ndarray:
    # the C_S loss scaled to max 1: 1 - (1 - min(u^2/C_S^2, 1))^3
    return 1.0 - (1.0 - _u2(u, C_S)) ** 3


def _m_scale_batch(resid: np.ndarray) -> np.ndarray:
    """Row-wise M-scales; an exact fit (fewer than BREAKDOWN * n nonzero residuals) is 0.

    Every other row solves g(s) = mean(rho_norm(|r| / s)) - BREAKDOWN = 0, where g
    does not increase in s, by Newton steps kept inside a bracket [lo, hi]
    with g(lo) >= 0 >= g(hi); a step that leaves the bracket, or is not
    finite, is replaced by the bracket midpoint. Rows that the iteration cap
    does not settle finish by bisection of their bracket. The rows are solved
    in chunks of at most _ELEMENT_BUDGET elements. Every operation is
    row-wise, so a row's scale does not depend on the other rows of the batch
    or on the chunking. Iterates stay above lo = min|r| / C_S > 0, so only an exact fit is 0.
    """
    chunks = _row_chunks(*resid.shape)
    if len(chunks) == 1:
        return _m_scale_chunk(resid)
    return np.concatenate([_m_scale_chunk(resid[rows]) for rows in chunks])


def _m_scale_chunk(resid: np.ndarray) -> np.ndarray:
    """:func:`_m_scale_batch` on rows that stay within the element budget."""
    if len(resid) == 1:
        # past J = 8,192 einsum sums a lone row in chunks, in another order than
        # a row of a batch: solve it as a pair
        return _m_scale_chunk(np.repeat(resid, 2, axis=0))[:1]
    a = np.abs(resid)
    n = a.shape[1]
    nonzero = np.count_nonzero(a, axis=1)
    exact = nonzero < BREAKDOWN * n
    # with exactly BREAKDOWN * n nonzero residuals g is 0 on all of (0, lo]:
    # the smallest root is lo itself
    plateau = nonzero == BREAKDOWN * n
    solve = ~exact
    min_nz = np.where(a > 0.0, a, np.inf).min(axis=1)
    lo = np.where(solve, min_nz / C_S, 1.0)
    hi = np.maximum(a.max(axis=1), lo)
    # preallocated work buffers: no per-iteration allocation of batch size
    u2_buf = np.empty_like(a)
    w_buf = np.empty_like(a)
    w2_buf = np.empty_like(a)

    def g_and_slope(rows: np.ndarray, s: np.ndarray):
        # g(s) and mean(u^2 (1 - u^2)^2) over u^2 = (|r| / (C_S s))^2 < 1, so
        # that g'(s) = -(6 / s) * slope; clipped u^2 = 1 drops out of both
        k = len(rows)
        u2 = np.divide(rows, (C_S * s)[:, None], out=u2_buf[:k])
        np.square(u2, out=u2)
        np.minimum(u2, 1.0, out=u2)
        w = np.subtract(1.0, u2, out=w_buf[:k])
        w2 = np.multiply(w, w, out=w2_buf[:k])
        g = (1.0 - BREAKDOWN) - np.einsum("ij,ij->i", w2, w) / n
        return g, np.einsum("ij,ij->i", w2, u2) / n

    # an overflowing C_S * s or |r| / (C_S s) gives u^2 = 0 or a clipped u^2 = 1, and a
    # Newton step that divides by zero or overflows lands outside the bracket
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # every nonzero residual sits at or past C_S at s = lo, so g(lo) >= 0;
        # expand hi until g(hi) <= 0
        for _ in range(200):
            need = solve & (g_and_slope(a, hi)[0] > 0.0)
            if not np.any(need):
                break
            hi = np.where(need, hi * 2.0, hi)

        s = hi.copy()
        pending = solve & ~plateau
        for _ in range(_NEWTON_MAX_ITER):
            if not np.any(pending):
                break
            g, slope = g_and_slope(a, s)
            above = g > 0.0
            np.copyto(lo, s, where=pending & above)
            np.copyto(hi, s, where=pending & ~above)
            step = s + g * s / (6.0 * slope)
            inside = (step >= lo) & (step <= hi)
            step = np.where(inside, step, 0.5 * (lo + hi))
            settled = np.abs(step - s) <= 4.0 * _EPS * step
            np.copyto(s, step, where=pending)
            pending &= ~settled
        if np.any(pending):
            left = np.flatnonzero(pending)
            if len(left) == 1:  # bisected as a pair too
                left = left.repeat(2)
            rows = a[left]
            b_lo = lo[left]
            b_hi = hi[left]
            for _ in range(_BISECT_STEPS):
                mid = 0.5 * (b_lo + b_hi)
                above = g_and_slope(rows, mid)[0] > 0.0
                b_lo = np.where(above, mid, b_lo)
                b_hi = np.where(above, b_hi, mid)
            s[left] = 0.5 * (b_lo + b_hi)
    s = np.where(plateau, lo, s)
    return np.where(exact, 0.0, s)


def _contending_scales(resid: np.ndarray, prev_scales: np.ndarray, active: np.ndarray,
                       segments) -> np.ndarray:
    """M-scales of the active rows that can hold their fit's smallest one, +inf elsewhere.

    Rows ``lo:hi`` of each (lo, hi) in ``segments`` belong to one fit. In each
    fit, the active row with the smallest previous scale is solved first,
    giving s_ref (one solve for the reference rows of all fits). g(s) =
    mean(rho_norm(|r| / s)) - BREAKDOWN does not increase in s, so a row with
    g(s_ref) > 0 has its root above s_ref and cannot be its fit's minimum;
    only rows with g(s_ref) <= _PRUNE_MARGIN are solved, again in one solve.
    The margin sits far above the rounding error of g (a mean of terms in
    [0, 1]), so a row whose solved scale could round to or below s_ref, such
    as a near-duplicate candidate whose residuals differ from the reference
    row's in the last bits, is never skipped, and each fit's first minimum is
    the one a solve of every row finds. Every exact fit's scale is 0.
    """
    exact = np.count_nonzero(resid, axis=1) < BREAKDOWN * resid.shape[1]
    scales = np.where(exact, 0.0, np.inf)
    live = active & ~exact
    prev = np.where(live, prev_scales, np.inf)
    refs = {i: lo + int(np.argmin(prev[lo:hi]))
            for i, (lo, hi) in enumerate(segments) if np.any(live[lo:hi])}
    if not refs:
        return scales
    ref_rows = list(refs.values())
    # a fit without a live row divides by inf, and none of its rows is kept
    fit_ref = np.full(len(segments), np.inf)
    fit_ref[list(refs)] = _m_scale_batch(resid[ref_rows])
    s_ref = np.repeat(fit_ref, [hi - lo for lo, hi in segments])
    with np.errstate(over="ignore"):  # |r| / s_ref = inf scores like any |r| > C_S s_ref
        g = _rho_norm(resid / s_ref[:, None]).mean(axis=1) - BREAKDOWN
    keep = live & (g <= _PRUNE_MARGIN)
    keep[ref_rows] = True
    scales[keep] = _m_scale_batch(resid[keep])
    return scales


def _residuals(coefs: np.ndarray, design: np.ndarray, response: np.ndarray) -> np.ndarray:
    """Residuals of each row of ``coefs``, with rounding dust set to exactly zero.

    A finite residual within a few ulps of |response| + |fitted| is what
    rounding leaves of a point on the fitted line; counting it as zero lets
    the M-scale see an exact fit of more than half the points. The fitted
    values are formed column by column: a BLAS ``coefs @ design.T`` rounds a
    row differently depending on the other rows of its batch at large J.
    """
    fitted = coefs[:, :1] * design[:, 0]
    if design.shape[1] == 2:
        fitted += coefs[:, 1:] * design[:, 1]
    resid = response - fitted
    # scaled before the sum, so the bound overflows only with an infinite fit; the
    # bound reuses the fitted values' buffer, and |resid| <= bound is tested as
    # -bound <= resid <= bound, so that no third rows x J array is formed
    bound = np.abs(fitted, out=fitted)
    bound *= _DUST
    bound += _DUST * np.abs(response)
    dust = (resid <= bound) & np.isfinite(resid)
    dust &= resid >= np.negative(bound, out=bound)
    resid[dust] = 0.0
    return resid


def _candidates(s: SummarySet, design, response, rng):
    """One fit's distinct elemental subsets, in first-draw order: (coefficients, residuals).

    N_CANDIDATES subsets are drawn from ``rng``. A draw whose subset is
    singular, or whose exact fit or residuals overflow, is redrawn, so only
    finite residuals reach the scale solves. The pair (b, a) of an intercept
    fit is taken as (a, b), a < b: both give the same line. Each round checks
    and solves once each distinct subset of the draws it introduces, and the
    rows of the final draws are gathered at the end; both steps are
    row-wise, so the redraws and the rows are those of a check of every
    draw in every round.
    """
    j = s.j
    p = design.shape[1]
    idx = rng.integers(0, j, size=(N_CANDIDATES, p))
    key = np.empty(N_CANDIDATES, dtype=idx.dtype)
    at = np.empty(N_CANDIDATES, dtype=np.intp)  # each draw's row among the solved subsets
    parts, solved = [], 0
    draws = np.arange(N_CANDIDATES)  # the draws a round introduces
    for _ in range(_SUBSET_RETRY_ROUNDS):
        sub = np.sort(idx[draws], axis=1)
        # one integer key per subset; np.unique(idx, axis=0) costs more than it saves
        key[draws] = sub[:, 0] * j + sub[:, -1]
        _, first, back = np.unique(key[draws], return_index=True, return_inverse=True)
        parts.append(_elemental_fits(s, design, response, sub[first]))
        at[draws] = solved + back
        solved += len(first)
        bad = parts[-1][0][back]
        if not np.any(bad):
            break
        draws = draws[bad]
        idx[draws] = rng.integers(0, j, size=(len(draws), p))
    else:
        raise SingularDesignError(
            "no random subset gives a non-singular, finite exact fit; exposure "
            "associations are too degenerate or too extreme"
        )
    if len(parts) > 1:
        _, first = np.unique(key, return_index=True)
    rows = at[np.sort(first)]
    _, coefs, resid = (part[0][rows] if len(part) == 1 else np.concatenate(part)[rows]
                       for part in zip(*parts))
    return coefs, resid


def _elemental_fits(s: SummarySet, design, response, sub):
    """(singular or non-finite, coefficients, residuals) of the exact fits to subsets ``sub``."""
    x = s.beta_x
    y = s.beta_y
    i0 = sub[:, 0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if design.shape[1] == 1:
            bad = design[i0, 0] == 0.0
            coefs = (y[i0] / x[i0])[:, None]
        else:
            i1 = sub[:, 1]
            bad = (i0 == i1) | (design[i0, 0] == 0.0) | (design[i1, 0] == 0.0) \
                | (x[i0] == x[i1])
            slope = (y[i1] - y[i0]) / (x[i1] - x[i0])
            coefs = np.column_stack([y[i0] - slope * x[i0], slope])
        resid = _residuals(coefs, design, response)
    # candidates interpolate their own subset points; zero those residuals
    # explicitly so rounding dust cannot mask an exact fit
    resid[np.arange(len(sub))[:, None], sub] = 0.0
    bad |= ~(np.isfinite(coefs).all(axis=1) & np.isfinite(resid).all(axis=1))
    return bad, coefs, resid


def _s_stage(fits):
    """Lockstep searches of candidate rows for the smallest M-scale; first minimum wins.

    ``fits`` lists the (design, response, candidate coefficients, residuals) of
    fits on one set, the candidates from :func:`_candidates`. Their rows are
    stacked, one segment per fit, and each round's M-scale solve, IRLS weights
    and prune step (:func:`_contending_scales`) run once over all rows, while
    each fit's reweighted least squares, prune reference and argmin stay in its
    own segment; an exact fit (scale 0) is left as it is. Every step is
    row-wise, so a fit's winner, its (coefficients, scale), is the one it gets
    alone and the one a solve of every draw finds.
    """
    if not fits:
        return []
    coefs = [f[2] for f in fits]
    bounds = np.cumsum([0] + [len(c) for c in coefs]).tolist()
    segments = list(zip(bounds[:-1], bounds[1:]))
    resid = fits[0][3] if len(fits) == 1 else np.concatenate([f[3] for f in fits])
    scales = _m_scale_batch(resid)
    for step in range(REFINE_STEPS):
        active = scales > 0.0
        if not np.any(active):
            break
        safe = np.where(active, scales, 1.0)
        with np.errstate(over="ignore"):  # an infinite standardized residual weighs 0
            irls_w = _weight(resid / safe[:, None], C_S)
        irls_w[~active] = 0.0
        for i, (lo, hi) in enumerate(segments):
            if np.any(active[lo:hi]):
                coefs[i] = _reweighted(irls_w[lo:hi], *fits[i][:2], coefs[i], resid[lo:hi],
                                       active[lo:hi])
        if step + 1 < REFINE_STEPS:
            new_scales = _m_scale_batch(resid)
        else:
            # only each fit's argmin of the last solve is used
            new_scales = _contending_scales(resid, scales, active, segments)
        scales = np.where(active, new_scales, scales)
    best = [lo + int(np.argmin(scales[lo:hi])) for lo, hi in segments]
    return [(c[b - lo].copy(), float(scales[b])) for c, b, (lo, _) in zip(coefs, best, segments)]


def _reweighted(irls_w, design, response, coefs, resid, active):
    """One fit's reweighted least-squares step: the new coefficients; ``resid`` in place.

    A row whose Gram matrix is singular, or whose step overflows, or that is
    not active keeps its fit.
    """
    updated, _, ok = _wls_rows(irls_w, design, response)
    with np.errstate(over="ignore", invalid="ignore"):
        stepped = _residuals(updated, design, response)
    take = (active & ok & np.isfinite(stepped).all(axis=1))[:, None]
    np.copyto(resid, stepped, where=take)
    return np.where(take, updated, coefs)


def _m_stage(design, response, beta, s_star: float):
    """IRLS under the C_M loss at the fixed S-scale, then the sandwich SEs.

    Returns (coefficients, converged, iterations, raw SEs in coefficient
    order); the SEs are None when the bread is not invertible, a variance is
    not positive and finite, or the squared scale overflows.
    """
    converged = False
    iterations = 0
    # a non-finite step ends the iteration and a non-finite variance leaves the SEs unset
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # each step is one weighted sum per normal-equation entry, solved in closed
        # form on numpy scalars: the arithmetic of _wls_rows without its batch overhead
        products = _wls_products(design, response)
        for iterations in range(1, M_STEP_MAX_ITER + 1):
            irls_w = _weight((response - design @ beta) / s_star, C_M)
            beta_new, _, ok = _wls_solve([irls_w @ col for col in products], np.True_)
            if not (ok and all(map(math.isfinite, beta_new))):
                break
            delta = max(abs(b1 - b0) for b1, b0 in zip(beta_new, beta))
            beta = np.array(beta_new)
            if delta <= M_STEP_TOL * max(1.0, *map(abs, beta_new)):
                converged = True
                break

        u = (response - design @ beta) / s_star
        u2 = _u2(u, C_M)
        psi = u * (1.0 - u2) ** 2
        # the bread is the Gram matrix of the design under the weights psi'(u)
        _, bread_inv, ok = _wls_rows(((1.0 - u2) * (1.0 - 5.0 * u2))[None, :], design, response)
        meat = (design * (psi * psi)[:, None]).T @ design
        ses = None
        if ok[0]:
            try:
                variances = np.diag((s_star ** 2) * bread_inv[0] @ meat @ bread_inv[0]).tolist()
            except OverflowError:  # the squared scale is not representable
                variances = [math.nan]
            if all(0.0 < v < math.inf for v in variances):
                ses = [math.sqrt(v) for v in variances]
    return beta, converged, iterations, ses


def mm_regress(s: SummarySet, weights: WeightVector | None = None,
               intercept: bool = False, seed=None,
               effects: str = "multiplicative_random") -> tuple[RobustFit, Estimate]:
    """Bounded-influence regression of outcome on exposure associations.

    The S-stage refines N_CANDIDATES random exact-fit subsets (each distinct
    one once) by REFINE_STEPS reweighting steps under the C_S loss and keeps
    the one with the smallest M-scale; the M-stage iterates reweighted least
    squares under the C_M loss at that scale until the largest coefficient
    change is at most M_STEP_TOL relative, or M_STEP_MAX_ITER times. This is
    the one-fit case of the lockstep fits that ``run_methods`` runs for all
    requested robust methods, and gives the same fit bit for bit.

    Parameters
    ----------
    s : SummarySet
        Variant associations. With ``intercept`` the set should be
        harmonized for the intercept to be interpretable.
    weights : WeightVector, optional
        Analysis weights, inverse-variance by default; applied by scaling
        each observation by sqrt(w).
    intercept : bool
        Fit a free intercept (needs J >= 3; J >= 2 without).
    seed : int, SeedSequence, optional
        Drives the random subset search; identical seeds give bit-identical
        fits regardless of thread count.
    effects : {"fixed", "multiplicative_random"}
        Standard-error post-processing, matching the least-squares fits. An
        intercept fit, like ``egger``, always uses multiplicative random effects.

    Returns
    -------
    (RobustFit, Estimate)
        Solver outcome and the inference-level summary. An exact fit, a
        singular sandwich, a squared scale that overflows or a collapsed
        interval leaves ``se_available`` False and the estimate without SE
        (the estimate is still returned); an M-stage that did not converge
        adds the warning "M-step did not converge".
    """
    (result,) = _mm_fits(s, [(weights, intercept, seed, effects, None)])
    if isinstance(result, EstimationError):
        raise result
    return result


def _mm_fits(s: SummarySet, requests) -> list[tuple[RobustFit, Estimate] | EstimationError]:
    """MM fits of one summary set, one per (weights, intercept, seed, effects, method).

    Each request's result, or the EstimationError it raised, in request
    order; a ValueError (an unknown ``effects``, a weight vector of the wrong
    length) propagates. The S-stages run in lockstep groups of consecutive
    requests whose N_CANDIDATES x J candidate rows together stay within
    _ELEMENT_BUDGET (a request over it runs alone); every fit keeps its own
    stream, so its result does not depend on the other requests.
    """
    results: list = [None] * len(requests)
    searches = []  # (request index, design, response, rng)
    for k, (weights, intercept, seed, effects, _) in enumerate(requests):
        try:
            searches.append((k, *_search_inputs(s, weights, intercept, seed, effects)))
        except EstimationError as exc:
            results[k] = exc
    for rows in _row_chunks(len(searches), N_CANDIDATES * s.j):
        fits = []  # (request index, design, response, candidate coefficients, residuals)
        for k, design, response, rng in searches[rows]:
            try:
                fits.append((k, design, response, *_candidates(s, design, response, rng)))
            except SingularDesignError as exc:  # no finite exact fit in the redraws
                results[k] = exc
        for (k, design, response, *_), winner in zip(fits, _s_stage([f[1:] for f in fits])):
            try:
                results[k] = _mm_result(s, design, response, *winner, *requests[k][3:])
            except EstimationError as exc:  # an estimate that is not finite
                results[k] = exc
    return results


def _search_inputs(s: SummarySet, weights, intercept: bool, seed, effects: str):
    """A fit's weighted design, response and search stream, after its preconditions."""
    if effects not in EFFECTS_MODELS:
        raise ValueError(f"effects must be one of {EFFECTS_MODELS}, got {effects!r}")
    minimum = 3 if intercept else 2
    if s.j < minimum:
        raise InsufficientInstrumentsError(
            f"mm_regress needs at least {minimum} variants "
            f"{'with' if intercept else 'without'} an intercept, got {s.j}"
        )
    w = _resolve_weights(s, weights)
    design, response = _design(s, w, intercept)
    if intercept:
        _intercept_fit(design, response)
    else:
        with np.errstate(over="ignore"):  # an overflowing sum is positive
            sxx = float(np.sum(w * s.beta_x * s.beta_x))
        if sxx <= 0.0:
            raise DegenerateInstrumentError(
                "every positively weighted exposure association is zero"
            )
    return design, response, np.random.Generator(np.random.Philox(as_seed_sequence(seed)))


def _mm_result(s: SummarySet, design, response, beta, s_star: float, effects: str,
               method: str | None) -> tuple[RobustFit, Estimate]:
    """The M-stage from an S-stage winner (scale 0: an exact fit), its RobustFit and Estimate."""
    intercept = design.shape[1] == 2
    exact = s_star == 0.0
    effects = "multiplicative_random" if intercept else effects
    converged, iterations, sigma = True, 0, 0.0
    ses = [None] * design.shape[1]
    if not exact:
        beta, converged, iterations, raw = _m_stage(design, response, beta, s_star)
        sigma = s_star / KAPPA
        if raw is not None:
            correction = sigma if effects == "fixed" else min(sigma, 1.0)
            ses = [v / correction for v in raw]
    est = _estimate(
        method or ("robust_egger" if intercept else "robust_ivw"), float(beta[-1]), ses[-1],
        df=s.j - 2 if intercept else None, intercept=float(beta[0]) if intercept else None,
        intercept_se=ses[0] if intercept else None, effects_model=effects, residual_scale=sigma,
        warnings=("exact fit",) * exact + ("M-step did not converge",) * (not converged),
    )
    fit = RobustFit(slope=est.theta, intercept=est.intercept, scale=s_star, converged=converged,
                    se_available=est.se_reported, iterations=iterations, exact_fit=exact)
    return fit, est
