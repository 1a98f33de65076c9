"""Monte Carlo study of the estimator family on simulated genetic association data.

Each replicate simulates an individual-level study, summarizes it into
per-variant ordinary least-squares associations (from non-overlapping halves
of the sample in the two-sample design, from the full sample otherwise), and
runs the requested estimators on the summarized data. The data-generating
model is

    U = sum_j phi_j G_j + e_U          (confounder)
    X = sum_j gamma_j G_j + U + e_X    (exposure)
    Y = sum_j alpha_j G_j + theta X + U + e_Y

with G_j ~ Binomial(2, maf), independent standard normal errors, and
gamma_j ~ U(0.03, 0.1). Invalid instruments (direct effects alpha_j, or
confounded effects phi_j) are assigned by scenario:

1. no invalid instruments (alpha = phi = 0);
2. balanced pleiotropy, direct effects alpha_j ~ U(-0.1, 0.1);
3. directional pleiotropy, alpha_j ~ U(0, 0.1);
4. pleiotropy via the confounder, phi_j ~ U(-0.1, 0.1).

Substituting U, a phenotype is G b + e with b_X = gamma + phi and
b_Y = alpha + theta (gamma + phi) + phi, and errors e_X = e_U + e_X of
variance 2 and e_Y = (1 + theta) e_U + theta e_X + e_Y of variance
(1 + theta)^2 + theta^2 + 1, correlated with covariance 1 + 2 theta.

The phenotypes themselves are never drawn. Given a sample's genotypes G
(m individuals, J variants, columns centred to G_c), every per-variant
slope, its standard error and the multivariable R^2 depend on an error
vector e ~ N(0, sigma^2 I) only through G_c'e and e_c'e_c, whose
conditional law is exact: with L L' = G_c'G_c,

    G_c'e = sigma L z,    e_c'e_c = sigma^2 (z'z + chi^2_{m-1-J}),

for z ~ N(0, I_J) and an independent chi-square. A replicate therefore
draws each sample's genotypes (one sample at a time, each genotype from as
many base-65,536 digits of a uniform as it takes to place the uniform
against the two thresholds of the inverse CDF), forms the Cholesky factor
of their centred Gram matrix, and draws J normals and one chi-square per
phenotype. In the one-sample design the exposure and outcome errors are
drawn jointly: z is J x 2, mixed by the Cholesky factor of their 2 x 2
covariance, and the chi-square becomes a Bartlett-decomposed 2 x 2 Wishart.

Each replicate draws from generators seeded by ``SeedSequence`` keys
(seed, replicate, stream), so results are reproducible, the replicates'
streams are independent, and the report does not depend on thread count.
"""
from __future__ import annotations

import csv
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import IO

import numpy as np

from ._util import _cell
from .estimators import ALL_METHODS, _check_methods, _fit_each
from .exceptions import EstimationError
from .summary_data import SummarySet, harmonize
from .wls import Estimate, instrument_strength

DESIGNS = ("one_sample", "two_sample")
# each scenario's invalid effects: balanced and directional direct effects alpha
# (scenarios 2 and 3), effects through the confounder phi (scenario 4)
_PLEIOTROPY_RANGES = {2: (-0.1, 0.1), 3: (0.0, 0.1), 4: (-0.1, 0.1)}
_MAX_REGENERATIONS = 100
_FLOAT_MAX = float(np.finfo(float).max)
# genotype blocks are float32: a block's G'G entries and column sums are
# integers of at most 4 * _GENOTYPE_BLOCK = 8,192, far below 2^24, so every
# partial sum of a BLAS product (G'G, and the sums as ones @ G) is exact in
# any summation order, and the float64 totals equal a float64 accumulation
_GENOTYPE_BLOCK = 2048


class _DegenerateGenotype(Exception):
    """A sample's genotypes are rank-deficient, as with a monomorphic variant; redraw."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Configuration of one simulation study.

    ``prop_invalid`` is the probability that each variant is invalid
    (independently, unless ``fixed_invalid_count`` asks for exactly
    round(prop * j) invalid variants per replicate). Scenario 1 requires
    ``prop_invalid == 0``.
    """

    scenario: int
    theta: float = 0.0
    prop_invalid: float = 0.0
    n: int = 40_000
    j: int = 25
    design: str = "two_sample"
    maf: float = 0.3
    gamma_range: tuple[float, float] = (0.03, 0.1)
    n_sim: int = 1000
    seed: int = 0
    fixed_invalid_count: bool = False

    def __post_init__(self):
        if self.scenario not in (1, 2, 3, 4):
            raise ValueError(f"scenario must be 1..4, got {self.scenario!r}")
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        if not 0.0 <= self.prop_invalid <= 1.0:
            raise ValueError(f"prop_invalid must lie in [0, 1], got {self.prop_invalid!r}")
        if self.scenario == 1 and self.prop_invalid != 0.0:
            raise ValueError("scenario 1 has no invalid instruments; prop_invalid must be 0")
        if self.design not in DESIGNS:
            raise ValueError(f"design must be one of {DESIGNS}, got {self.design!r}")
        if self.j < 1:
            raise ValueError(f"j must be >= 1, got {self.j}")
        if self.design == "two_sample" and self.n % 2:
            raise ValueError("two-sample design needs an even n to split in half")
        per_sample = self.n // 2 if self.design == "two_sample" else self.n
        if per_sample < self.j + 2:
            raise ValueError(
                f"n too small: each association sample needs more than j + 1 = {self.j + 1} "
                f"individuals, got {per_sample}"
            )
        if not 0.0 < self.maf < 1.0:
            raise ValueError(f"maf must lie in (0, 1), got {self.maf!r}")
        lo, hi = self.gamma_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ValueError(f"gamma_range must be an ordered finite pair, got {self.gamma_range!r}")
        # the largest exposure effect gamma + phi and outcome effect alpha + theta b_x + phi
        # of the scenario, whose one kind of invalid effect (alpha or phi) is at most pleio
        pleio = max(map(abs, _PLEIOTROPY_RANGES.get(self.scenario, (0.0,))))
        b_x = max(abs(lo), abs(hi)) + pleio * (self.scenario == 4)
        b_y = pleio + abs(self.theta) * b_x
        if not _sum_of_squares_bound(per_sample, self.j, b_x, 2.0) < _FLOAT_MAX:
            raise ValueError(f"gamma_range = {self.gamma_range!r} at n = {self.n} can overflow "
                             f"the exposure's sum of squares")
        if not _sum_of_squares_bound(per_sample, self.j, b_y,
                                     _outcome_variance(self.theta)) < _FLOAT_MAX:
            raise ValueError(f"theta = {self.theta!r} with gamma_range = {self.gamma_range!r} "
                             f"at n = {self.n} can overflow the outcome's sum of squares")
        if self.n_sim < 1:
            raise ValueError(f"n_sim must be >= 1, got {self.n_sim}")


@dataclass(frozen=True)
class RawStudy:
    """Sufficient statistics of one simulated dataset, with its generating truth.

    For the exposure (``_x``) and the outcome (``_y``) association sample,
    each of ``n_sample`` individuals: ``chol`` is the lower Cholesky factor L
    of the centred genotype Gram matrix G_c'G_c, ``score`` is L^-1 G_c'e for
    the phenotype's error vector e, and ``rss`` is the residual sum of
    squares of the phenotype's regression on all variants, so that
    G_c'e = L score and e_c'e_c = score'score + rss. In the one-sample
    design both phenotypes share one sample and one ``chol``.
    """

    design: str
    n_sample: int
    chol_x: np.ndarray
    chol_y: np.ndarray
    score_x: np.ndarray
    score_y: np.ndarray
    rss_x: float
    rss_y: float
    gamma: np.ndarray
    alpha: np.ndarray
    phi: np.ndarray
    invalid: np.ndarray
    theta: float


@dataclass(frozen=True)
class GeneratedStudy:
    """Summarized associations extracted from one simulated dataset."""

    summary: SummarySet
    theta: float
    invalid: np.ndarray
    gamma: np.ndarray
    alpha: np.ndarray
    phi: np.ndarray
    r_squared: float
    f_statistic: float
    f_univariable_mean: float


def generate_individual_data(spec: ScenarioSpec, rng: np.random.Generator) -> RawStudy:
    """Draw one dataset under ``spec``.

    Draw order is fixed (invalid flags, gamma, scenario effects, then per
    association sample its genotypes and its error statistics) so a given
    generator state always yields the same dataset. Raises
    ``_DegenerateGenotype`` when a sample's centred genotype Gram matrix is
    not positive definite, as for a monomorphic variant.
    """
    j = spec.j
    if spec.fixed_invalid_count:
        count = int(round(spec.prop_invalid * j))
        invalid = np.zeros(j, dtype=bool)
        invalid[rng.permutation(j)[:count]] = True
    else:
        invalid = rng.random(j) < spec.prop_invalid
    gamma = rng.uniform(spec.gamma_range[0], spec.gamma_range[1], j)
    alpha = np.zeros(j)
    phi = np.zeros(j)
    if spec.scenario in (2, 3):
        alpha = np.where(invalid, rng.uniform(*_PLEIOTROPY_RANGES[spec.scenario], j), 0.0)
    elif spec.scenario == 4:
        phi = np.where(invalid, rng.uniform(*_PLEIOTROPY_RANGES[4], j), 0.0)
    mix = _error_factors(spec.theta, spec.design)
    if spec.design == "two_sample":
        m = spec.n // 2
        chol_x, (score_x,), (rss_x,) = _draw_sample(rng, m, j, spec.maf, mix[0])
        chol_y, (score_y,), (rss_y,) = _draw_sample(rng, m, j, spec.maf, mix[1])
    else:
        m = spec.n
        chol_x, (score_x, score_y), (rss_x, rss_y) = _draw_sample(rng, m, j, spec.maf, mix[0])
        chol_y = chol_x
    return RawStudy(design=spec.design, n_sample=m, chol_x=chol_x, chol_y=chol_y,
                    score_x=score_x, score_y=score_y, rss_x=float(rss_x), rss_y=float(rss_y),
                    gamma=gamma, alpha=alpha, phi=phi, invalid=invalid, theta=spec.theta)


def _genotype_gram(rng: np.random.Generator, m: int, j: int, maf: float):
    """G'G (j x j) and the column sums of m x j Binomial(2, maf) genotypes G.

    A cell's genotype is g = [U > t1] + [U > t2] for a uniform U and the
    doubles t1 = (1 - maf)^2 and t2 = 1 - maf^2, so P(g = 0) = t1 and
    P(g = 2) = 1 - t2 exactly. U is read lazily in base-65,536 digits. G is
    drawn in float32 blocks of _GENOTYPE_BLOCK rows; a block's k x j leading
    digits, in row-major order, are the little-endian 16-bit quarters of
    ceil(k j / 4) draws of ``rng.integers(0, 2**64, dtype=np.uint64)`` (the
    quarters past the last cell are dropped). A cell whose leading digit
    equals a threshold's leading digit, about 2 in 65,536, then draws
    further digits (:func:`_settle`), cells in row-major order, before the
    next block. Against one float64 uniform per cell, this cut a
    20,000-row sample from ~2.5 to ~1.5 ms (BENCH_genotype_digits.json).

    Against one m x j draw per sample, blocks of 2,048 rows cut a
    study_nonrobust replicate's op_cost from 8.2 to 4.8 ref and its peak RSS
    from 48.6 to 42.1 MB; 512 to 4,096 rows time the same
    (BENCH_sufficient_stats.json, "genotype_block"). Every block is drawn
    into the same buffers, and its column sums are one float32 ones @ G
    product.
    """
    (lo, *lo_tail), (hi, *hi_tail) = _digits((1.0 - maf) ** 2), _digits(1.0 - maf ** 2)
    rows = min(_GENOTYPE_BLOCK, m)
    g = np.empty((rows, j), dtype=np.float32)
    flags = np.empty((2, rows, j), dtype=bool)
    ones = np.ones(rows, dtype=np.float32)
    gram = np.zeros((j, j))
    sums = np.zeros(j)
    for start in range(0, m, rows):
        k = min(rows, m - start)
        words = rng.integers(0, 2 ** 64, size=-(-k * j // 4), dtype=np.uint64)
        lead = words.astype("<u8", copy=False).view("<u2")[:k * j].reshape(k, j)
        gk = g[:k]
        ak, bk = flags[:, :k]
        # count in uint8 and convert once: adding bools into float32 is slower
        count = np.greater(lead, lo, out=ak).view(np.uint8)
        count += np.greater(lead, hi, out=bk).view(np.uint8)
        np.copyto(gk, count)
        tied = np.equal(lead, lo, out=ak)
        tied |= np.equal(lead, hi, out=bk)
        flat = gk.reshape(-1)
        for cell in np.flatnonzero(tied):
            d = lead.flat[cell]
            flat[cell] += _settle(rng, [tail for t, tail in ((lo, lo_tail), (hi, hi_tail))
                                        if t == d])
        gram += gk.T @ gk
        sums += ones[:k] @ gk
    return gram, sums


def _digits(t: float) -> list[int]:
    """The base-65,536 digits of a double t in (0, 1], after the point.

    Each step is exact: t * 65,536 only shifts the exponent, and taking off
    the integer part leaves bits t already had. 1.0 is the one digit 65,536,
    which no digit of a uniform reaches.
    """
    digits = []
    while t:
        t *= 65536.0
        digits.append(int(t))
        t -= digits[-1]
    return digits


def _settle(rng: np.random.Generator, tails: list[list[int]]) -> int:
    """How many thresholds a uniform U exceeds, given that it ties their leading digit.

    ``tails`` holds each tied threshold's digits after its leading one; past
    its last digit a threshold's digit is 0. U's further digits are the
    little-endian 16-bit quarters of one ``rng.integers(0, 2**64,
    dtype=np.uint64)`` draw after another, read only while a tie lasts, and
    every threshold is compared with the same digits of U.
    """
    u: list[int] = []
    above = 0
    for tail in tails:
        i = 0
        while True:
            if i == len(u):
                word = int(rng.integers(0, 2 ** 64, dtype=np.uint64))
                u += [(word >> shift) & 0xFFFF for shift in (0, 16, 32, 48)]
            t = tail[i] if i < len(tail) else 0
            if u[i] != t:
                above += u[i] > t
                break
            i += 1
    return above


def _sum_of_squares_bound(m: int, j: int, effect: float, var: float) -> float:
    """A bound on a phenotype's total sum of squares in a sample of m individuals.

    With J effects of at most ``effect`` in magnitude, genotype variances of
    at most 1/2 and an error variance ``var``, the expected sum is at most
    m (J effect^2 / 2 + var); the chi-square factor 1 + 2 sqrt(40 / m) + 80 / m
    (Laurent & Massart: its upper tail past it is below e^-40) widens it for
    the draw. Python float products give inf on overflow.
    """
    return m * (j * effect * effect / 2.0 + var) * (1.0 + 2.0 * math.sqrt(40.0 / m) + 80.0 / m)


def _outcome_variance(theta: float) -> float:
    """The outcome's error variance (1 + theta)^2 + theta^2 + 1; inf when it overflows."""
    try:
        return (1.0 + theta) ** 2 + theta ** 2 + 1.0
    except OverflowError:
        return math.inf


def _error_factors(theta: float, design: str) -> tuple[np.ndarray, ...]:
    """Cholesky factors of the errors' covariance, one per association sample.

    Two samples hold the exposure's error of variance 2 and the outcome's of
    variance (1 + theta)^2 + theta^2 + 1; one sample holds both, with
    covariance 1 + 2 theta, whose factor [[sqrt 2, 0], [(1 + 2 theta) / sqrt 2,
    sqrt 1.5]] is written in closed form (the covariance's determinant is 3 at
    any theta). ``theta`` is a validated spec's, whose variance is finite.
    """
    if design == "two_sample":
        return np.array([[math.sqrt(2.0)]]), np.array([[math.sqrt(_outcome_variance(theta))]])
    return (np.array([[math.sqrt(2.0), 0.0], [(1.0 + 2.0 * theta) / math.sqrt(2.0),
                                               math.sqrt(1.5)]]),)


def _draw_sample(rng: np.random.Generator, m: int, j: int, maf: float, mix: np.ndarray):
    """Exact sufficient statistics of one association sample of m individuals.

    ``mix`` is the Cholesky factor of the k x k covariance of the k
    phenotypes' errors. Returns the Cholesky factor L of the centred genotype
    Gram matrix, the scores L^-1 G_c'e (k x J) and the multivariable residual
    sums of squares (k,).
    """
    gram, sums = _genotype_gram(rng, m, j, maf)
    # G'G and s s' hold integers, so m G'G - s s' is exact and the centred Gram
    # matrix is rounded once
    gram = (m * gram - np.outer(sums, sums)) / m
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise _DegenerateGenotype from None
    k = mix.shape[0]
    score = mix @ rng.standard_normal((k, j))
    # Bartlett factor of a k x k Wishart with m - 1 - j degrees of freedom
    bartlett = np.diag(np.sqrt(2.0 * rng.standard_gamma((m - 1 - j - np.arange(k)) / 2.0)))
    bartlett[np.tril_indices(k, -1)] = rng.standard_normal(k * (k - 1) // 2)
    return chol, score, np.sum((mix @ bartlett) ** 2, axis=1)


def _associations(chol: np.ndarray, effect: np.ndarray, score: np.ndarray, rss: float,
                  m: int) -> tuple[np.ndarray, np.ndarray, float]:
    # per-variant simple OLS slopes and SEs, and the multivariable R^2, of one
    # phenotype G effect + e from its sample's sufficient statistics
    whitened = chol.T @ effect + score  # L^-1 G_c'y
    sgy = chol @ whitened
    sgg = np.einsum("ij,ij->i", chol, chol)
    tss = float(whitened @ whitened) + rss
    slope = sgy / sgg
    resid = tss - slope * sgy
    if not rss > 0.0 or np.any(resid <= 0.0):
        raise _DegenerateGenotype
    return slope, np.sqrt(resid / (m - 2) / sgg), 1.0 - rss / tss


def extract_summary(raw: RawStudy, design: str) -> GeneratedStudy:
    """Summarize a raw dataset into per-variant associations.

    The two-sample design takes the exposure associations from one half of
    the individuals and the outcome associations from the other; the
    one-sample design uses everyone for both. Instrument-strength
    diagnostics always come from the exposure sample. ``design`` must be
    the one the dataset was drawn for.
    """
    if design != raw.design:
        raise ValueError(f"dataset was drawn for the {raw.design} design, not {design!r}")
    m = raw.n_sample
    k = raw.gamma.size
    effect_x = raw.gamma + raw.phi
    effect_y = raw.alpha + raw.theta * effect_x + raw.phi
    beta_x, se_x, r2 = _associations(raw.chol_x, effect_x, raw.score_x, raw.rss_x, m)
    beta_y, se_y, _ = _associations(raw.chol_y, effect_y, raw.score_y, raw.rss_y, m)
    # an R^2 that rounds to 1 is an F of inf
    f_overall = (r2 / k) / ((1.0 - r2) / (m - k - 1)) if r2 < 1.0 else math.inf
    f_uni = float(np.mean((beta_x / se_x) ** 2))
    ids = [f"g{i + 1}" for i in range(k)]
    summary = SummarySet(beta_x, se_x, beta_y, se_y, ids=ids)
    return GeneratedStudy(
        summary=summary,
        theta=raw.theta,
        invalid=raw.invalid,
        gamma=raw.gamma,
        alpha=raw.alpha,
        phi=raw.phi,
        r_squared=r2,
        f_statistic=f_overall,
        f_univariable_mean=f_uni,
    )


@dataclass(frozen=True)
class _ReplicateRecord:
    fits: dict  # method -> Estimate, or the EstimationError it raised
    i_squared: float
    r_squared: float
    f_statistic: float
    invalid_count: int
    regenerated: int


def _replicate(spec: ScenarioSpec, rep: int, methods: tuple[str, ...],
               bootstrap_draws: int) -> _ReplicateRecord:
    data_rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(spec.seed, spawn_key=(rep, 0)))
    )
    regenerated = 0
    study = None
    for _ in range(_MAX_REGENERATIONS):
        try:
            study = extract_summary(generate_individual_data(spec, data_rng), spec.design)
            break
        except _DegenerateGenotype:
            regenerated += 1
    if study is None:
        raise RuntimeError(
            f"replicate {rep}: no informative dataset after {_MAX_REGENERATIONS} draws"
        )
    hs = harmonize(study.summary)
    method_seed = np.random.SeedSequence(spec.seed, spawn_key=(rep, 1))
    fits = dict(_fit_each(hs, methods, seed=method_seed, bootstrap_draws=bootstrap_draws))
    i2 = instrument_strength(hs) if hs.j >= 2 else math.nan
    return _ReplicateRecord(
        fits=fits,
        i_squared=i2,
        r_squared=study.r_squared,
        f_statistic=study.f_statistic,
        invalid_count=int(np.sum(study.invalid)),
        regenerated=regenerated,
    )


def _outcome(fit: Estimate | EstimationError) -> tuple[float, float, bool]:
    # (estimate, SE, rejects zero): a failed fit is NA in all three, an
    # estimate without SE only in its SE; neither rejects
    if isinstance(fit, EstimationError):
        return math.nan, math.nan, False
    return fit.theta, fit.se if fit.se_reported else math.nan, fit.rejects_null(0.0)


@dataclass(frozen=True)
class MethodSummary:
    """Aggregate performance of one method across replicates."""

    method: str
    mean: float
    sd: float
    mean_se: float
    power_pct: float
    na_count: int


@dataclass(frozen=True)
class SimulationReport:
    """Study-level aggregation; one row per method plus shared diagnostics."""

    spec: ScenarioSpec
    methods: tuple[str, ...]
    rows: tuple[MethodSummary, ...]
    joint_rejection_pct: float | None
    egger_intercept_rejection_pct: float | None
    mean_f: float
    mean_r_squared: float
    mean_i_squared: float
    mean_invalid_count: float
    regenerated_datasets: int

    def row(self, method: str) -> MethodSummary:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(f"no row for method {method!r}")

    def to_csv(self, dest: str | Path | IO[str]) -> None:
        """Write rows = methods (then diagnostics), columns = metrics."""
        with (nullcontext(dest) if hasattr(dest, "write")
              else open(dest, "w", newline="", encoding="utf-8")) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["name", "mean", "sd", "mean_se", "power_pct", "na_count"])
            for r in self.rows:
                writer.writerow([
                    r.method, _fmt(r.mean), _fmt(r.sd), _fmt(r.mean_se),
                    _fmt(r.power_pct), r.na_count,
                ])
            if self.joint_rejection_pct is not None:
                writer.writerow(["joint_simple_median_robust_ivw", "", "", "",
                                 _fmt(self.joint_rejection_pct), ""])
            if self.egger_intercept_rejection_pct is not None:
                writer.writerow(["egger_intercept_test", "", "", "",
                                 _fmt(self.egger_intercept_rejection_pct), ""])
            writer.writerow(["mean_f_statistic", _fmt(self.mean_f), "", "", "", ""])
            writer.writerow(["mean_r_squared", _fmt(self.mean_r_squared), "", "", "", ""])
            writer.writerow(["mean_i_squared", _fmt(self.mean_i_squared), "", "", "", ""])
            writer.writerow(["mean_invalid_count", _fmt(self.mean_invalid_count),
                             "", "", "", ""])
            writer.writerow(["regenerated_datasets", self.regenerated_datasets, "", "", "", ""])

    def to_table(self) -> str:
        """Aligned text rendering of the report."""
        spec = self.spec
        head = (
            f"scenario {spec.scenario}  theta={spec.theta:g}  "
            f"prop_invalid={spec.prop_invalid:g}  design={spec.design}  "
            f"n={spec.n}  j={spec.j}  n_sim={spec.n_sim}  seed={spec.seed}"
        )
        lines = [head, ""]
        header = f"{'method':<26} {'mean':>9} {'sd':>9} {'mean_se':>9} {'power%':>8} {'NA':>5}"
        lines.append(header)
        lines.append("-" * len(header))
        for r in self.rows:
            lines.append(f"{r.method:<26} {_cell(r.mean, 9)} {_cell(r.sd, 9)} "
                         f"{_cell(r.mean_se, 9)} {_cell(r.power_pct, 8, '.1f')} {r.na_count:>5d}")
        lines.append("")
        if self.joint_rejection_pct is not None:
            lines.append(f"joint simple_median & robust_ivw rejection: "
                         f"{self.joint_rejection_pct:.1f}%")
        if self.egger_intercept_rejection_pct is not None:
            lines.append(f"egger intercept test rejection: "
                         f"{self.egger_intercept_rejection_pct:.1f}%")
        i2 = "NA" if math.isnan(self.mean_i_squared) else f"{100 * self.mean_i_squared:.1f}%"
        lines.append(f"mean F = {self.mean_f:.1f}   mean R^2 = {100 * self.mean_r_squared:.2f}%   "
                     f"mean I^2 = {i2}")
        lines.append(
            f"mean invalid instruments = {self.mean_invalid_count:.2f}   "
            f"regenerated datasets = {self.regenerated_datasets}"
        )
        return "\n".join(lines)


def _fmt(v: float) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return f"{v:.6g}"


def run_study(spec: ScenarioSpec, methods=ALL_METHODS, *, threads: int = 1,
              bootstrap_draws: int = 1000) -> SimulationReport:
    """Run the full study and aggregate per-method performance.

    Each replicate keeps, per method, the Estimate or the EstimationError the
    fit raised; every column is derived from those. Power counts replicates
    whose 95% interval excludes zero. A replicate whose fit failed is left
    out of the mean and SD; failed fits and estimates without a standard
    error never reject, are left out of the mean-SE column, and are tallied
    in na_count. The Egger intercept test rejects when the intercept's
    p-value is below 0.05. Replicates are independent work units; with
    ``threads > 1`` they run in a pool of min(threads, n_sim, CPU count)
    processes, and the report is identical to the single-threaded one for a
    fixed seed. The pool's modules (``concurrent.futures.process``,
    ``multiprocessing``) are imported only when a pool of two or more
    workers starts; with one worker the replicates run in this process.
    """
    methods = _check_methods(methods, bootstrap_draws)
    if not methods:
        raise ValueError("at least one method is required")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    replicate = partial(_replicate, spec, methods=methods, bootstrap_draws=bootstrap_draws)
    # a pool starts all its workers at once: no more than there are replicates or CPUs
    workers = min(threads, spec.n_sim, os.cpu_count() or 1)
    if workers == 1:
        records = list(map(replicate, range(spec.n_sim)))
    else:
        # imported here: only a pool needs multiprocessing, which would cost every
        # import of the package 15-25 ms and about 1.9 MB
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, spec.n_sim // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(replicate, range(spec.n_sim), chunksize=chunk))
    outcomes = {name: [_outcome(r.fits[name]) for r in records] for name in methods}
    rows = []
    for name in methods:
        est, se, rej = (np.array(col) for col in zip(*outcomes[name]))
        good = np.isfinite(est)
        se_good = np.isfinite(se)
        rows.append(MethodSummary(
            method=name,
            mean=float(np.mean(est[good])) if good.any() else math.nan,
            sd=float(np.std(est[good], ddof=1)) if good.sum() > 1 else math.nan,
            mean_se=float(np.mean(se[se_good])) if se_good.any() else math.nan,
            power_pct=100.0 * float(np.mean(rej)),
            na_count=int(np.sum(~se_good)),
        ))
    joint = None
    if "simple_median" in methods and "robust_ivw" in methods:
        both = [a[2] and b[2] for a, b in zip(outcomes["simple_median"], outcomes["robust_ivw"])]
        joint = 100.0 * float(np.mean(both))
    intercept_pct = None
    if "egger" in methods:
        intercept_pct = 100.0 * float(np.mean([
            isinstance(fit, Estimate) and fit.intercept_p is not None and fit.intercept_p < 0.05
            for fit in (r.fits["egger"] for r in records)
        ]))
    return SimulationReport(
        spec=spec,
        methods=methods,
        rows=tuple(rows),
        joint_rejection_pct=joint,
        egger_intercept_rejection_pct=intercept_pct,
        mean_f=float(np.mean([r.f_statistic for r in records])),
        mean_r_squared=float(np.mean([r.r_squared for r in records])),
        mean_i_squared=float(np.mean([r.i_squared for r in records])),
        mean_invalid_count=float(np.mean([r.invalid_count for r in records])),
        regenerated_datasets=int(sum(r.regenerated for r in records)),
    )
