"""MM-regression for summarized data with bounded-influence loss.

The fit happens on weight-transformed observations (response beta_y * sqrt(w),
regressor beta_x * sqrt(w), intercept column sqrt(w)). A high-breakdown
S-stage searches random exact-fit candidates for the smallest M-scale of the
residuals under a bisquare loss tuned for 50% breakdown (C_S = 1.548); an
efficiency-tuned M-stage (C_M = 4.685) then iterates reweighted least squares
at that fixed scale. The search is the fast-S refinement of Salibian-Barrera
& Yohai (2006), "A fast algorithm for S-regression estimates": each
candidate starts from the MAD of its residuals about zero, and each
reweighting step but the last is followed by one fixed-point step of the
M-scale equation instead of a solve. After the last step only candidates
that can still hold the smallest scale get an exact M-scale; the winner is
the one an exact solve of every candidate would pick. M-scales are solved
by safeguarded Newton steps inside a closed-form bracket, and past a step
cap by bisection in log scale, in one loop; one function evaluates the M-scale
equation for the fixed-point step, the solve and the prune, with each row
summed as its own dot product, so a row gets the same scale alone or in any
batch.
Slope uncertainty comes from the standard M-estimation sandwich,
post-processed the same way as the weighted least-squares fits
(multiplicative random effects). Every weighted least-squares step of both
stages, and the inverse of the sandwich's bread, is the closed form of
:func:`ivrobust.wls._wls_rows` (the M-stage's on scalar sums, ``_wls_solve``).

The random draws repeat elemental subsets: through the origin a subset is one
variant, so 500 draws at J = 25 are at most 25 distinct fits. Draws are
redrawn until their indices give non-singular, finite exact fits, and then
until the residuals of each distinct subset, formed once in the order of its
first draw, are finite; each subset is refined and solved once. A candidate's
scale is its only state: 0 marks an exact fit, which no step moves.
Several fits of one summary set on the same number of variants (``run_methods``
asks for up to four) run their S-stages in lockstep: each draws its candidates
from its own stream, and each round's scale step, and the last round's prune
and solves, run once over the stacked candidate rows of all of them, in groups
whose stacked rows stay within a fixed element budget. Every step of the search is
row-wise (a candidate's residuals, reweighted fit and M-scale depend on its
own subset alone, at any J), so a fit's winner is, bit for bit, the one it
finds alone and the one a search over all its draws finds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import _row_chunks, as_seed_sequence
from .exceptions import DegenerateInstrumentError, EstimationError, SingularDesignError, _raised
from .summary_data import SummarySet
from .wls import (EFFECTS_MODELS, Estimate, WeightVector, _design, _estimate, _fitted_variants,
                  _intercept_fit, _origin_sxx, _wls_products, _wls_rows, _wls_solve)

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
_HI_PER_MAX = math.sqrt(6.0) / C_S  # g(max|r| * _HI_PER_MAX) < 0: the bracket's upper end
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


def _g_and_slope(r: np.ndarray, s: np.ndarray, out: list[np.ndarray]):
    """g(s) = mean(rho_norm(|r| / s)) - BREAKDOWN of each row of ``r``, and its slope term.

    rho_norm(t) = 1 - (1 - u^2)^3, u^2 = min((t / C_S)^2, 1), is the C_S loss
    scaled to max 1. The slope term is mean(u^2 (1 - u^2)^2), so that g'(s) =
    -(6 / s) * slope; a clipped u^2 = 1 drops out of both. Each row's sums are
    its own dot products (``np.vecdot``), so a row's g does not depend on the
    other rows at any J. ``out`` holds three work arrays of at least len(r)
    rows, so that no call allocates an array of the rows' size (three arrays
    within the element budget: one block of three times it raised the peak
    resident memory of a fit at J = 25,000 by 20 MB).
    """
    k, n = r.shape
    u2, w, w2 = (b[:k] for b in out)
    np.divide(r, (C_S * s)[:, None], out=u2)
    np.square(u2, out=u2)
    np.minimum(u2, 1.0, out=u2)
    np.subtract(1.0, u2, out=w)
    np.multiply(w, w, out=w2)
    return (1.0 - BREAKDOWN) - np.vecdot(w2, w) / n, np.vecdot(w2, u2) / n


def _m_scale_batch(resid: np.ndarray) -> np.ndarray:
    """Row-wise M-scales; an exact fit (fewer than BREAKDOWN * n nonzero residuals) is 0.

    Every other row solves g(s) = 0 (:func:`_g_and_slope`), where g does not
    increase in s, by Newton steps from s = max|r| kept inside a bracket
    [lo, hi] with g(lo) >= 0 >= g(hi); a step that leaves the bracket, or is
    not finite, is replaced by the bracket midpoint. The bracket is closed
    form: at lo = min nonzero |r| / C_S every nonzero term is 1, and at hi =
    max|r| sqrt(6) / C_S every u^2 <= 1/6, so that every term is at most
    1 - (5/6)^3 < 0.43 and g(hi) < 0 beyond any rounding. A row settles when
    its step moves s by at most 4 ulps or its bracket narrows to 8 ulps (a
    root where the computed g alternates in sign by an ulp). Past
    _NEWTON_MAX_ITER steps the same loop bisects the bracket in log scale: a
    bracket of doubles spans a ratio under 2^2,098, which 60 halvings narrow
    to 8 ulps. The rows are solved in chunks of at most _ELEMENT_BUDGET
    elements. Every operation is row-wise, so a row's scale does not depend on
    the other rows of the batch or on the chunking. Iterates stay above
    lo > 0, so only an exact fit is 0.
    """
    return np.concatenate([_m_scale_chunk(resid[rows]) for rows in _row_chunks(*resid.shape)])


def _m_scale_chunk(resid: np.ndarray) -> np.ndarray:
    """:func:`_m_scale_batch` on rows that stay within the element budget."""
    a = np.abs(resid)
    n = a.shape[1]
    nonzero = np.count_nonzero(a, axis=1)
    exact = nonzero < BREAKDOWN * n
    # with exactly BREAKDOWN * n nonzero residuals g is 0 on all of (0, lo]:
    # the smallest root is lo itself
    plateau = nonzero == BREAKDOWN * n
    min_nz = np.where(a > 0.0, a, np.inf).min(axis=1)
    lo = np.where(exact, 1.0, min_nz / C_S)
    s = np.maximum(a.max(axis=1), lo)
    buf = [np.empty_like(a) for _ in range(3)]  # the work arrays of every g evaluation
    # an overflowing hi, C_S * s or |r| / (C_S s) gives u^2 = 0 or a clipped u^2 = 1, and
    # a Newton step that divides by zero or overflows lands outside the bracket
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        hi = s * _HI_PER_MAX
        pending = ~exact & ~plateau
        for i in range(_NEWTON_MAX_ITER + _BISECT_STEPS):
            if not np.any(pending):
                break
            g, slope = _g_and_slope(a, s, buf)
            above = g > 0.0
            np.copyto(lo, s, where=pending & above)
            np.copyto(hi, s, where=pending & ~above)
            if i < _NEWTON_MAX_ITER:
                step = s + g * s / (6.0 * slope)
                step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
            else:  # past the step cap: bisect in log scale, as sqrt(lo * hi) but never overflowing
                step = np.sqrt(lo) * np.sqrt(hi)
            settled = (np.abs(step - s) <= 4.0 * _EPS * step) | (hi - lo <= 8.0 * _EPS * step)
            np.copyto(s, step, where=pending)
            pending &= ~settled
    s = np.where(plateau, lo, s)
    return np.where(exact, 0.0, s)


def _approx_scales(resid: np.ndarray, scales: np.ndarray | None = None) -> np.ndarray:
    """Row-wise approximate M-scales of the refinement; an exact fit is 0.

    Without ``scales`` each row's scale is the MAD about zero, 1.4826
    median|r|, the median read off a sort of the row; with them, it is one
    fixed-point step s sqrt(1 + 2 g(s)) of the M-scale equation from the
    row's scale s (:func:`_g_and_slope`), the scale update of Salibian-Barrera
    & Yohai's refinement. A row with fewer than BREAKDOWN * n nonzero
    residuals is 0, as in :func:`_m_scale_chunk`; every other row is raised
    to the bracket's lower end, min nonzero |r| / C_S. Without that floor a
    step from a scale far above a row's residuals, whose terms of g all round
    to 0, would give g = -BREAKDOWN and a scale of 0: a spurious exact fit.
    The rows are taken one chunk of at most _ELEMENT_BUDGET elements at a
    time, and every operation is row-wise.
    """
    n = resid.shape[1]
    out = np.empty(len(resid))
    chunks = _row_chunks(*resid.shape)
    buf = [np.empty(resid[chunks[0]].shape) for _ in range(3)]
    # the scale of an exact fit (0) divides by zero, and a scale past C_S * s's range
    # overflows: both rows end at 0 or the floor (np.fmax drops a NaN)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for rows in chunks:
            if scales is not None:
                g = _g_and_slope(resid[rows], scales[rows], buf)[0]
                s = scales[rows] * np.sqrt(1.0 + 2.0 * g)
            a = np.abs(resid[rows], out=buf[0][:rows.stop - rows.start])
            if scales is None:
                a.sort(axis=1)
                s = 1.4826 * (0.5 * a[:, (n - 1) // 2] + 0.5 * a[:, n // 2])
            exact = np.count_nonzero(a, axis=1) < BREAKDOWN * n
            np.copyto(a, np.inf, where=a == 0.0)
            out[rows] = np.where(exact, 0.0, np.fmax(s, a.min(axis=1) / C_S))
    return out


def _contending_scales(resid: np.ndarray, prev_scales: np.ndarray, segments) -> np.ndarray:
    """M-scales of the rows that can hold their fit's smallest one, +inf elsewhere.

    Rows ``lo:hi`` of each (lo, hi) in ``segments`` belong to one fit. An exact
    fit (fewer than BREAKDOWN * n nonzero residuals) is 0, whatever its
    previous scale: the scale is a candidate row's only state, and a row whose
    previous scale was 0 was not stepped, so it is still exact. In each fit,
    the other row with the smallest previous scale (the approximate scale the
    last reweighting step used, :func:`_approx_scales`) is solved first,
    giving s_ref (one solve for the reference rows of all fits, whose scales
    they keep); any row would serve, and a small previous scale makes a small
    s_ref, and so few contenders, likely. g does not increase in s
    (:func:`_g_and_slope`, evaluated one row chunk at a time), so a row with
    g(s_ref) > 0 has its root above s_ref and cannot be its fit's minimum;
    only the other rows with g(s_ref) <= _PRUNE_MARGIN are solved, again in
    one solve. The margin sits far above the rounding error of g (a mean of
    terms in [0, 1]), so a row whose solved scale could round to or below
    s_ref, such as a near-duplicate candidate whose residuals differ from the
    reference row's in the last bits, is never skipped, and each fit's first
    minimum is the one a solve of every row finds.
    """
    exact = np.count_nonzero(resid, axis=1) < BREAKDOWN * resid.shape[1]
    scales = np.where(exact, 0.0, np.inf)
    live = ~exact
    prev = np.where(live, prev_scales, np.inf)
    refs = {i: lo + int(np.argmin(prev[lo:hi]))
            for i, (lo, hi) in enumerate(segments) if np.any(live[lo:hi])}
    if not refs:
        return scales
    ref_rows = list(refs.values())
    scales[ref_rows] = _m_scale_batch(resid[ref_rows])
    # a fit without a live row divides by inf, and none of its rows is kept
    fit_ref = np.full(len(segments), np.inf)
    fit_ref[list(refs)] = scales[ref_rows]
    s_ref = np.repeat(fit_ref, [hi - lo for lo, hi in segments])
    chunks = _row_chunks(*resid.shape)
    buf = [np.empty(resid[chunks[0]].shape) for _ in range(3)]
    g = np.empty(len(resid))
    with np.errstate(over="ignore"):  # |r| / s_ref = inf scores like any |r| > C_S s_ref
        for rows in chunks:
            g[rows] = _g_and_slope(resid[rows], s_ref[rows], buf)[0]
    keep = live & (g <= _PRUNE_MARGIN)
    keep[ref_rows] = False  # solved above
    if np.any(keep):
        scales[keep] = _m_scale_batch(resid[keep])
    return scales


def _residuals(coefs: np.ndarray, design: np.ndarray, response: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """Residuals of each row of ``coefs``, with rounding dust set to exactly zero.

    A finite residual within a few ulps of |response| + |fitted| is what
    rounding leaves of a point on the fitted line; counting it as zero lets
    the M-scale see an exact fit of more than half the points. The fitted
    values are formed column by column: a BLAS ``coefs @ design.T`` rounds a
    row differently depending on the other rows of its batch at large J.
    The residuals are written into ``out`` when it is given.
    """
    fitted = coefs[:, :1] * design[:, 0]
    if design.shape[1] == 2:
        fitted += coefs[:, 1:] * design[:, 1]
    resid = np.subtract(response, fitted, out=out)
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

    N_CANDIDATES subsets are drawn from ``rng``, and redrawn in rounds. Each
    round sorts every draw's indices (the pair (b, a) of an intercept fit is
    taken as (a, b), a < b: both give the same line) and redraws the draws
    whose subset is singular or whose exact fit overflows, which their indices
    alone decide (:func:`_exact_fits`). Once no draw is flagged, the residuals
    of each distinct subset are formed once, in the order of its first draw,
    one row chunk at a time in the returned array, with explicit zeros at the
    subset's own points; only the draws whose subset's residuals overflow are
    redrawn for another round. So only finite residuals reach the scale
    solves, and every step is row-wise: the rows are those of a search that
    solves every draw.
    """
    j = s.j
    idx = rng.integers(0, j, size=(N_CANDIDATES, design.shape[1]))
    for _ in range(_SUBSET_RETRY_ROUNDS):
        idx.sort(axis=1)
        bad, coefs = _exact_fits(s, design, idx)
        if not np.any(bad):
            # one integer key per subset; np.unique(idx, axis=0) costs more than it saves
            key = idx[:, 0] * j + idx[:, -1]
            first = np.sort(np.unique(key, return_index=True)[1])
            coefs, sub = coefs[first], idx[first]
            resid = np.empty((len(first), len(response)))
            finite = np.empty(len(first), dtype=bool)
            for rows in _row_chunks(*resid.shape):
                with np.errstate(over="ignore", invalid="ignore"):
                    chunk = _residuals(coefs[rows], design, response, out=resid[rows])
                # candidates interpolate their own subset points; zero those residuals
                # explicitly so rounding dust cannot mask an exact fit
                chunk[np.arange(len(chunk))[:, None], sub[rows]] = 0.0
                finite[rows] = np.isfinite(chunk).all(axis=1)
            if np.all(finite):
                return coefs, resid
            bad = np.isin(key, key[first[~finite]])
            del resid  # before the next round forms another
        idx[bad] = rng.integers(0, j, size=(np.count_nonzero(bad), design.shape[1]))
    raise SingularDesignError(
        "no random subset gives a non-singular, finite exact fit; exposure "
        "associations are too degenerate or too extreme"
    )


def _exact_fits(s: SummarySet, design, sub):
    """(singular or non-finite, coefficients) of the exact fits to the sorted subsets ``sub``."""
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
    return bad | ~np.isfinite(coefs).all(axis=1), coefs


def _s_stage(fits):
    """Lockstep searches of candidate rows for the smallest M-scale; first minimum wins.

    ``fits`` lists the (design, response, candidate coefficients, residuals) of
    fits on one set, the candidates from :func:`_candidates`. Their rows are
    stacked, one segment per fit. Each row starts from its MAD about zero
    (:func:`_approx_scales`) and takes REFINE_STEPS reweighting steps; after
    each step but the last its scale takes one fixed-point step, and after the
    last the rows that can still hold their fit's smallest scale get exact
    M-scales (:func:`_contending_scales`). The scale steps, the prune and the
    solves run once over all rows, while each fit's reweighted least squares,
    prune reference and argmin stay in its own segment. A row's scale is its
    only state: an exact fit (scale 0) is never stepped, and every scale pass
    gives it 0 again. Every step is row-wise, so a fit's winner, its
    (coefficients, exact scale), is the one it gets alone and the one an exact
    solve of every draw after the same refinement finds.
    """
    if not fits:
        return []
    coefs = [f[2] for f in fits]  # each fit's candidates, stepped in place
    bounds = np.cumsum([0] + [len(c) for c in coefs]).tolist()
    segments = list(zip(bounds[:-1], bounds[1:]))
    resid = fits[0][3] if len(fits) == 1 else np.concatenate([f[3] for f in fits])
    scales = _approx_scales(resid)
    for step in range(REFINE_STEPS):
        for i, (lo, hi) in enumerate(segments):
            if np.any(scales[lo:hi] > 0.0):
                _reweighted(*fits[i][:2], coefs[i], resid[lo:hi], scales[lo:hi])
        if step + 1 < REFINE_STEPS:
            scales = _approx_scales(resid, scales)
        else:
            # only each fit's argmin of the last solve is used
            scales = _contending_scales(resid, scales, segments)
    best = [lo + int(np.argmin(scales[lo:hi])) for lo, hi in segments]
    return [(c[b - lo].copy(), float(scales[b])) for c, b, (lo, _) in zip(coefs, best, segments)]


def _reweighted(design, response, coefs, resid, scales):
    """One fit's reweighted least-squares step, in place in ``coefs`` and ``resid``, one
    row chunk at a time. A row whose Gram matrix is singular, or whose step
    overflows, or whose scale is 0 (an exact fit) keeps its fit."""
    for rows in _row_chunks(*resid.shape):
        live = scales[rows] > 0.0
        safe = np.where(live, scales[rows], 1.0)
        with np.errstate(over="ignore"):  # an infinite standardized residual weighs 0
            irls_w = _weight(resid[rows] / safe[:, None], C_S)
        irls_w[~live] = 0.0
        updated, _, ok = _wls_rows(irls_w, design, response)
        with np.errstate(over="ignore", invalid="ignore"):
            stepped = _residuals(updated, design, response)
        take = (live & ok & np.isfinite(stepped).all(axis=1))[:, None]
        np.copyto(resid[rows], stepped, where=take)
        np.copyto(coefs[rows], updated, where=take)


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
    one once) by REFINE_STEPS reweighting steps under the C_S loss, starting
    from the MAD of the residuals about zero with one fixed-point scale update
    between steps, and keeps the one with the smallest exact M-scale after
    the last step (solved only for the candidates that can still hold it);
    the M-stage iterates reweighted least squares under the C_M loss at that
    scale until the largest coefficient change is at most M_STEP_TOL
    relative, or M_STEP_MAX_ITER times. This is the one-fit case of the
    lockstep fits that ``run_methods`` runs for all requested robust methods,
    and gives the same fit bit for bit.

    Parameters
    ----------
    s : SummarySet
        Variant associations. With ``intercept`` the set should be
        harmonized for the intercept to be interpretable.
    weights : WeightVector or array_like, optional
        Analysis weights, inverse-variance by default; applied by scaling
        each observation by sqrt(w). The fit runs on the k positively
        weighted variants, so its S-scale, SEs and the intercept fit's t
        degrees of freedom (k - 2) count those only.
    intercept : bool
        Fit a free intercept. The fit needs k >= 2p (p = 2 with an intercept, 1
        without): with fewer, every elemental fit, through p variants, would be
        an exact fit, so it raises InsufficientInstrumentsError.
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
    return _raised(_mm_fits(s, [(weights, intercept, seed)], effects)[0])


def _mm_fits(s: SummarySet, requests, effects: str
             ) -> list[tuple[RobustFit, Estimate] | EstimationError]:
    """MM fits of one summary set, one per (weights, intercept, seed), under one ``effects``.

    Each request's result, or the EstimationError it raised, in request
    order, named as :func:`_mm_result` names it. A ValueError propagates: an
    unknown ``effects`` before any fit, a weight vector of the wrong length at
    its request. Requests whose fitted sets have equal size k run their
    S-stages in lockstep, in groups of consecutive ones whose N_CANDIDATES x k
    rows stay within _ELEMENT_BUDGET (a request over it runs alone); every fit
    keeps its own stream, so its result does not depend on the other requests.
    """
    if effects not in EFFECTS_MODELS:
        raise ValueError(f"effects must be one of {EFFECTS_MODELS}, got {effects!r}")
    results: list = [None] * len(requests)
    searches = {}  # k: [(request index, fitted set, design, response, rng)]
    for i, request in enumerate(requests):
        try:
            fit_set, *search = _search_inputs(s, *request)
            searches.setdefault(fit_set.j, []).append((i, fit_set, *search))
        except EstimationError as exc:
            results[i] = exc
    for k, group in searches.items():
        for rows in _row_chunks(len(group), N_CANDIDATES * k):
            fits = []  # (request index, fitted set, design, response, candidates, residuals)
            for i, fit_set, design, response, rng in group[rows]:
                try:
                    fits.append((i, fit_set, design, response,
                                 *_candidates(fit_set, design, response, rng)))
                except SingularDesignError as exc:  # no finite exact fit in the redraws
                    results[i] = exc
            for (i, fit_set, design, response, *_), winner in zip(
                    fits, _s_stage([f[2:] for f in fits])):
                try:
                    results[i] = _mm_result(fit_set, design, response, *winner, effects)
                except EstimationError as exc:  # an estimate that is not finite
                    results[i] = exc
    return results


def _search_inputs(s: SummarySet, weights, intercept: bool, seed):
    """A fit's positively weighted variants (k >= 2p of them, see :func:`mm_regress`),
    weighted design, response and search stream, after its preconditions."""
    p = 2 if intercept else 1
    s, w = _fitted_variants(s, weights, 2 * p, lambda k: (
        f"mm_regress needs at least {2 * p} positively weighted variants of J = {s.j} "
        f"{'with' if intercept else 'without'} an intercept, got {k}: with fewer, every "
        "elemental fit leaves under half the residuals nonzero and is an exact fit"))
    design, response = _design(s, w, intercept)
    if intercept:
        _intercept_fit(design, response)
    else:
        _origin_sxx(w, s.beta_x)
    return s, design, response, np.random.Generator(np.random.Philox(as_seed_sequence(seed)))


def _mm_result(s: SummarySet, design, response, beta, s_star: float, effects: str
               ) -> tuple[RobustFit, Estimate]:
    """The M-stage from an S-stage winner (scale 0: an exact fit), its RobustFit and Estimate.

    The estimate is named from the design, ``robust_egger`` or ``robust_ivw``. An
    infinite scale would weigh every residual 1 and make the M-stage least
    squares, so it is the fit's DegenerateInstrumentError.
    """
    if not math.isfinite(s_star):
        raise DegenerateInstrumentError(
            "the S-scale of the residuals overflows; the outcome associations are too extreme"
        )
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
        "robust_egger" if intercept else "robust_ivw", float(beta[-1]), ses[-1],
        df=s.j - 2 if intercept else None, intercept=float(beta[0]) if intercept else None,
        intercept_se=ses[0] if intercept else None, effects_model=effects, residual_scale=sigma,
        warnings=("exact fit",) * exact + ("M-step did not converge",) * (not converged),
    )
    fit = RobustFit(slope=est.theta, intercept=est.intercept, scale=s_star, converged=converged,
                    se_available=est.se_reported, iterations=iterations, exact_fit=exact)
    return fit, est
