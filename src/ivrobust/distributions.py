"""Normal, Student t, and chi-square routines used by the estimators.

Self-contained on the stdlib ``math`` module: tail probabilities go through
the regularized incomplete gamma and beta functions, whose continued fractions
share one modified-Lentz evaluator, and quantiles through a safeguarded Newton
iteration on the CDF with bisection fallback.
"""
from __future__ import annotations

import functools
import itertools
import math

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_MACHEP = 1.1102230246251565e-16
_TINY = 1e-300
_MAX_ITER = 1000
_QUANTILE_TOL = 1e-10


def _check_prob(p: float) -> float:
    p = float(p)
    if not 0.0 < p < 1.0 or math.isnan(p):
        raise ValueError(f"probability must lie strictly in (0, 1), got {p!r}")
    return p


def _check_df(df: int) -> int:
    d = int(df)
    if d != df or d < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    return d


def normal_cdf(x: float) -> float:
    """P(Z <= x) for Z standard normal."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_sf(x: float) -> float:
    """P(Z > x); keeps relative accuracy in the upper tail."""
    return 0.5 * math.erfc(x / _SQRT2)


def normal_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x - _LOG_SQRT_2PI)


def _lentz(terms) -> float:
    # 1/(1 + d1/(1 + d2/(1 + ...))) over the terms d1, d2, ... by the modified
    # Lentz scheme. Convergence is tested once per even-odd pair of steps,
    # after d3, d5, ...; a fraction whose terms run out raises.
    c = 1.0
    d = 1.0 + next(terms)
    if abs(d) < _TINY:
        d = _TINY
    d = h = 1.0 / d
    for k, aa in enumerate(terms):
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if k & 1 and abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError("continued fraction did not converge")


def _beta_terms(a: float, b: float, x: float):
    # Terms of I_x(a, b) = front / a * 1/(1 + ...), at most _MAX_ITER pairs.
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    yield -qab * x / qap
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        yield m * (b - m) * x / ((qam + m2) * (a + m2))
        yield -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))


def _legendre_terms(a: float, x: float):
    # Terms of Q(a, x) = front / x * 1/(1 + ...), from Legendre's fraction
    # Gamma(a, x) = e^-x x^a / (x + (1 - a)/(1 + 1/(x + (2 - a)/(1 + 2/(x + ...))))).
    # It converges for every x > 0, in a few times sqrt(a) terms near x = a.
    for m in itertools.count(1):
        yield (m - a) / x
        yield m / x


def _gamma_q(a: float, x: float) -> float:
    # Regularized upper incomplete gamma Q(a, x) for x > 0: one minus the
    # power series of P(a, x) where x < max(1, a), Legendre's fraction above.
    series = x < 1.0 or x < a
    ln_front = a * math.log(x) - x - math.lgamma(a)
    if ln_front < -709.78:
        return 1.0 if series else 0.0
    front = math.exp(ln_front)
    if not series:
        return front / x * _lentz(_legendre_terms(a, x))
    # every ratio x / r is below 1, so the sum runs until it converges
    r, c, s = a, 1.0, 1.0
    while c / s > _MACHEP:
        r += 1.0
        c *= x / r
        s += c
    return 1.0 - s * front / a


def _betainc(a: float, b: float, x: float) -> float:
    # Regularized incomplete beta I_x(a, b) with the usual symmetry switch.
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _lentz(_beta_terms(a, b, x)) / a
    return 1.0 - front * _lentz(_beta_terms(b, a, 1.0 - x)) / b


def chisq_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) for a chi-square variable with ``df`` degrees of freedom."""
    d = _check_df(df)
    x = float(x)
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x!r}")
    if x == 0.0:
        return 1.0
    return _gamma_q(0.5 * d, 0.5 * x)


def t_cdf(x: float, df: int) -> float:
    """P(T <= x) for Student t with ``df`` degrees of freedom."""
    d = _check_df(df)
    x = float(x)
    if x == 0.0:
        return 0.5
    tail = 0.5 * _betainc(0.5 * d, 0.5, d / (d + x * x))
    return 1.0 - tail if x > 0.0 else tail


def t_pdf(x: float, df: int) -> float:
    """Student t density."""
    d = _check_df(df)
    ln = (math.lgamma(0.5 * (d + 1)) - math.lgamma(0.5 * d)
          - 0.5 * math.log(d * math.pi)
          - 0.5 * (d + 1) * math.log1p(x * x / d))
    return math.exp(ln)


def _invert_cdf(cdf, pdf, p, lo, hi, x0):
    # Newton with a maintained bracket; any step leaving it falls back to
    # bisection, so monotone CDFs cannot send the iterate astray.
    x = min(max(x0, lo), hi)
    for _ in range(200):
        f = cdf(x) - p
        if f == 0.0:
            return x
        if f > 0.0:
            hi = x
        else:
            lo = x
        slope = pdf(x)
        x_new = x - f / slope if slope > 0.0 else 0.5 * (lo + hi)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= _QUANTILE_TOL * max(1.0, abs(x_new)):
            return x_new
        x = x_new
    return x


def _normal_start(p: float) -> float:
    # Rational tail approximation; plenty close as a Newton start.
    q = min(p, 1.0 - p)
    t = math.sqrt(-2.0 * math.log(q))
    x = t - (2.30753 + 0.27061 * t) / (1.0 + 0.99229 * t + 0.04481 * t * t)
    return -x if p < 0.5 else x


def normal_quantile(p: float) -> float:
    """Inverse of :func:`normal_cdf` on (0, 1)."""
    p = _check_prob(p)
    if p == 0.5:
        return 0.0
    return _invert_cdf(normal_cdf, normal_pdf, p, -40.0, 40.0, _normal_start(p))


@functools.cache
def t_quantile(p: float, df: int) -> float:
    """Inverse of :func:`t_cdf` on (0, 1).

    Memoized: it is a pure function of (p, df), and every Egger-type fit asks
    for the same 0.975 quantile. Invalid arguments raise on every call.
    """
    p = _check_prob(p)
    d = _check_df(df)
    if p == 0.5:
        return 0.0
    start = _normal_start(p)
    # Heavy tails at small df: grow the bracket until it straddles p.
    if p > 0.5:
        lo, hi = 0.0, max(2.0, 2.0 * start)
        for _ in range(_MAX_ITER):
            if t_cdf(hi, d) >= p or hi >= 1e300:
                break
            hi *= 2.0
    else:
        hi, lo = 0.0, min(-2.0, 2.0 * start)
        for _ in range(_MAX_ITER):
            if t_cdf(lo, d) <= p or lo <= -1e300:
                break
            lo *= 2.0
    return _invert_cdf(lambda v: t_cdf(v, d), lambda v: t_pdf(v, d), p, lo, hi, start)
