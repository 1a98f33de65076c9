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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import as_seed_sequence
from .exceptions import (
    DegenerateInstrumentError,
    InsufficientInstrumentsError,
    SingularDesignError,
)
from .summary_data import SummarySet
from .wls import (EFFECTS_MODELS, Estimate, WeightVector, _design, _estimate, _intercept_fit,
                  _resolve_weights, _wls_rows)

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


def rho_bisquare(r, c: float = C_S):
    """Bisquare loss: (c^2/6) * (1 - (1 - (r/c)^2)^3), capped at c^2/6."""
    _check_tuning(c)
    out = (c * c / 6.0) * _rho_norm(r, c)
    return out if out.ndim else float(out)


def psi_bisquare(r, c: float = C_M):
    """Bisquare score r * (1 - (r/c)^2)^2, zero outside |r| <= c."""
    _check_tuning(c)
    out = np.asarray(r, dtype=float) * (1.0 - _u2(r, c)) ** 2
    return out if out.ndim else float(out)


def weight_bisquare(r, c: float = C_M):
    """IRLS weight psi(r)/r = (1 - (r/c)^2)^2, zero outside |r| <= c."""
    _check_tuning(c)
    out = (1.0 - _u2(r, c)) ** 2
    return out if out.ndim else float(out)


def _psi_prime_bisquare(r, c: float):
    # d/dr psi = (1 - u^2)(1 - 5 u^2) on the support, u = r/c
    u2 = _u2(r, c)
    out = (1.0 - u2) * (1.0 - 5.0 * u2)
    return out if out.ndim else float(out)


def _check_tuning(c: float) -> None:
    if not c > 0.0:
        raise ValueError(f"tuning constant must be positive, got {c!r}")


def _u2(r, c: float) -> np.ndarray:
    # min((r/c)^2, 1), clipped before the square so that no |r| >= c can overflow
    return np.minimum(np.abs(np.asarray(r, dtype=float)) / c, 1.0) ** 2


def _rho_norm(u, c: float) -> np.ndarray:
    # rho scaled to max 1: 1 - (1 - min(u^2/c^2, 1))^3
    return 1.0 - (1.0 - _u2(u, c)) ** 3


def _m_scale_batch(resid: np.ndarray, c: float, breakdown: float):
    """Row-wise M-scales; returns (scales, exact_fit flags).

    Each row solves g(s) = mean(rho_norm(|r| / s)) - breakdown = 0, where g
    does not increase in s, by Newton steps kept inside a bracket [lo, hi]
    with g(lo) >= 0 >= g(hi); a step that leaves the bracket, or is not
    finite, is replaced by the bracket midpoint. Rows that the iteration cap
    does not settle finish by bisection of their bracket. Every operation is
    row-wise, so a row's scale does not depend on the other rows of the batch.
    """
    a = np.abs(resid)
    n = a.shape[1]
    nonzero = np.count_nonzero(a, axis=1)
    exact = nonzero < breakdown * n
    # with exactly breakdown * n nonzero residuals g is 0 on all of (0, lo]:
    # the smallest root is lo itself
    plateau = nonzero == breakdown * n
    solve = ~exact
    min_nz = np.where(a > 0.0, a, np.inf).min(axis=1)
    lo = np.where(solve, min_nz / c, 1.0)
    hi = np.maximum(a.max(axis=1), lo)
    # preallocated work buffers: no per-iteration allocation of batch size
    u2_buf = np.empty_like(a)
    w_buf = np.empty_like(a)
    w2_buf = np.empty_like(a)

    def g_and_slope(rows: np.ndarray, s: np.ndarray):
        # g(s) and mean(u^2 (1 - u^2)^2) over u^2 = (|r| / (c s))^2 < 1, so
        # that g'(s) = -(6 / s) * slope; clipped u^2 = 1 drops out of both
        k = len(rows)
        u2 = np.divide(rows, (c * s)[:, None], out=u2_buf[:k])
        np.square(u2, out=u2)
        np.minimum(u2, 1.0, out=u2)
        w = np.subtract(1.0, u2, out=w_buf[:k])
        w2 = np.multiply(w, w, out=w2_buf[:k])
        g = (1.0 - breakdown) - np.einsum("ij,ij->i", w2, w) / n
        return g, np.einsum("ij,ij->i", w2, u2) / n

    # an overflowing c * s or |r| / (c s) gives u^2 = 0 or a clipped u^2 = 1, and a
    # Newton step that divides by zero or overflows lands outside the bracket
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # every nonzero residual sits at or past c at s = lo, so g(lo) >= 0;
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
            rows = a[pending]
            b_lo = lo[pending]
            b_hi = hi[pending]
            for _ in range(_BISECT_STEPS):
                mid = 0.5 * (b_lo + b_hi)
                above = g_and_slope(rows, mid)[0] > 0.0
                b_lo = np.where(above, mid, b_lo)
                b_hi = np.where(above, b_hi, mid)
            s[pending] = 0.5 * (b_lo + b_hi)
    s = np.where(plateau, lo, s)
    return np.where(exact, 0.0, s), exact


def m_scale(residuals, c: float = C_S, breakdown: float = BREAKDOWN) -> tuple[float, bool]:
    """M-estimate of scale under the bisquare loss.

    Solves mean(rho(r_i / s, c)) / (c^2 / 6) = breakdown for s by Newton
    steps kept inside a bracket, with bisection as the fallback. When exactly
    ``breakdown`` of the residuals are nonzero, every s up to min|r_i| / c
    solves the equation and that bound is returned. When strictly more than
    ``1 - breakdown`` of the residuals are exactly zero the equation has no
    positive root; the scale is then 0 with the second return value flagging
    the exact fit.
    """
    _check_tuning(c)
    if not 0.0 < breakdown < 1.0:
        raise ValueError(f"breakdown must lie in (0, 1), got {breakdown!r}")
    r = np.asarray(residuals, dtype=float)
    if r.ndim != 1 or r.size == 0:
        raise ValueError("residuals must form a non-empty 1-d vector")
    if not np.all(np.isfinite(r)):
        raise ValueError("residuals must be finite")
    scales, exact = _m_scale_batch(r[None, :], c, breakdown)
    return float(scales[0]), bool(exact[0])


def _contending_scales(resid: np.ndarray, c: float, breakdown: float,
                       prev_scales: np.ndarray, active: np.ndarray):
    """M-scales of the active rows that can hold the smallest one, +inf elsewhere.

    The active row with the smallest previous scale is solved first, giving
    s_ref. g(s) = mean(rho_norm(|r| / s)) - breakdown does not increase in s,
    so a row with g(s_ref) > 0 has its root above s_ref and cannot be the
    minimum; only rows with g(s_ref) <= _PRUNE_MARGIN are solved. The margin
    sits far above the rounding error of g (a mean of terms in [0, 1]), so a
    row whose solved scale could round to or below s_ref, such as a
    near-duplicate candidate whose residuals differ from the reference row's
    in the last bits, is never skipped, and the first minimum is the one a
    solve of every row finds. Exact-fit flags cover every row.
    """
    n = resid.shape[1]
    exact = np.count_nonzero(resid, axis=1) < breakdown * n
    scales = np.where(exact, 0.0, np.inf)
    live = active & ~exact
    if not np.any(live):
        return scales, exact
    ref = int(np.argmin(np.where(live, prev_scales, np.inf)))
    s_ref = _m_scale_batch(resid[ref:ref + 1], c, breakdown)[0][0]
    with np.errstate(over="ignore"):  # |r| / s_ref = inf scores like any |r| > c s_ref
        g = _rho_norm(resid / s_ref, c).mean(axis=1) - breakdown
    keep = live & (g <= _PRUNE_MARGIN)
    keep[ref] = True
    scales[keep] = _m_scale_batch(resid[keep], c, breakdown)[0]
    return scales, exact


def _s_stage(s: SummarySet, design, response, rng):
    """Random-subset search for the smallest M-scale; first minimum wins.

    A subset that is singular, or whose exact fit or residuals overflow, is
    redrawn, so only finite residuals reach the scale solves.
    """
    j = s.j
    p = design.shape[1]
    x = s.beta_x
    y = s.beta_y
    idx = rng.integers(0, j, size=(N_CANDIDATES, p))
    for _ in range(_SUBSET_RETRY_ROUNDS):
        i0 = idx[:, 0]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if p == 1:
                bad = design[i0, 0] == 0.0
                coefs = (y[i0] / x[i0])[:, None]
            else:
                i1 = idx[:, 1]
                bad = (i0 == i1) | (design[i0, 0] == 0.0) | (design[i1, 0] == 0.0) \
                    | (x[i0] == x[i1])
                slope = (y[i1] - y[i0]) / (x[i1] - x[i0])
                coefs = np.column_stack([y[i0] - slope * x[i0], slope])
            resid = response - coefs @ design.T
        # candidates interpolate their own subset points; zero those residuals
        # explicitly so rounding dust cannot mask an exact fit
        resid[np.arange(N_CANDIDATES)[:, None], idx] = 0.0
        bad |= ~(np.isfinite(coefs).all(axis=1) & np.isfinite(resid).all(axis=1))
        if not np.any(bad):
            break
        idx[bad] = rng.integers(0, j, size=(int(np.sum(bad)), p))
    else:
        raise SingularDesignError(
            "no random subset gives a non-singular, finite exact fit; exposure "
            "associations are too degenerate or too extreme"
        )
    scales, exact = _m_scale_batch(resid, C_S, BREAKDOWN)
    for step in range(REFINE_STEPS):
        active = ~exact
        if not np.any(active):
            break
        safe = np.where(scales > 0.0, scales, 1.0)
        with np.errstate(over="ignore"):  # an infinite standardized residual weighs 0
            irls_w = weight_bisquare(resid / safe[:, None], C_S)
        irls_w[exact] = 0.0
        updated, _, ok = _wls_rows(irls_w, design, response)
        with np.errstate(over="ignore", invalid="ignore"):
            stepped = response - updated @ design.T
        # a row whose Gram matrix is singular or whose step overflows keeps its fit
        take = (active & ok & np.isfinite(stepped).all(axis=1))[:, None]
        coefs = np.where(take, updated, coefs)
        resid = np.where(take, stepped, resid)
        if step + 1 < REFINE_STEPS:
            new_scales, new_exact = _m_scale_batch(resid, C_S, BREAKDOWN)
        else:
            # only the argmin of the last solve is used
            new_scales, new_exact = _contending_scales(resid, C_S, BREAKDOWN, scales, active)
        scales = np.where(active, new_scales, scales)
        exact = exact | new_exact
        scales = np.where(exact, 0.0, scales)
    best = int(np.argmin(scales))
    return coefs[best].copy(), float(scales[best]), bool(exact[best])


def _m_stage(design, response, beta, s_star: float):
    """IRLS under the C_M loss at the fixed S-scale, then the sandwich SEs.

    Returns (coefficients, converged, iterations, raw SEs in coefficient
    order); the SEs are None when the bread is not invertible, a variance is
    not positive and finite, or the squared scale overflows.
    """
    converged = False
    iterations = 0
    # a non-finite step ends the iteration and a non-finite variance leaves the SEs unset
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, M_STEP_MAX_ITER + 1):
            irls_w = weight_bisquare((response - design @ beta) / s_star, C_M)
            beta_new, _, ok = _wls_rows(irls_w[None, :], design, response)
            beta_new = beta_new[0]
            if not (ok[0] and np.all(np.isfinite(beta_new))):
                break
            delta = float(np.max(np.abs(beta_new - beta)))
            beta = beta_new
            if delta <= M_STEP_TOL * max(1.0, float(np.max(np.abs(beta)))):
                converged = True
                break

        u = (response - design @ beta) / s_star
        psi = psi_bisquare(u, C_M)
        # the bread is the Gram matrix of the design under the weights psi'(u)
        _, bread_inv, ok = _wls_rows(_psi_prime_bisquare(u, C_M)[None, :], design, response)
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
               intercept: bool = False, seed=None, effects: str = "multiplicative_random",
               method: str | None = None) -> tuple[RobustFit, Estimate]:
    """Bounded-influence regression of outcome on exposure associations.

    The S-stage refines N_CANDIDATES random exact-fit subsets by REFINE_STEPS
    reweighting steps under the C_S loss and keeps the one with the smallest
    M-scale; the M-stage iterates reweighted least squares under the C_M loss
    at that scale until the largest coefficient change is at most M_STEP_TOL
    relative, or M_STEP_MAX_ITER times.

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
        Standard-error post-processing, matching the least-squares fits.
    method : str, optional
        Label recorded on the returned Estimate.

    Returns
    -------
    (RobustFit, Estimate)
        Solver outcome and the inference-level summary. An exact fit, a
        singular sandwich, a squared scale that overflows or a collapsed
        interval leaves ``se_available`` False and the estimate without SE
        (the estimate is still returned); an M-stage that did not converge
        adds the warning "M-step did not converge".
    """
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
    rng = np.random.Generator(np.random.Philox(as_seed_sequence(seed)))
    beta, s_star, exact = _s_stage(s, design, response, rng)
    exact = exact or s_star == 0.0
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
    fit = RobustFit(slope=est.theta, intercept=est.intercept, scale=0.0 if exact else s_star,
                    converged=converged, se_available=est.se_reported,
                    iterations=iterations, exact_fit=exact)
    return fit, est
