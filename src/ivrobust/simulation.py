"""Monte Carlo study of the estimator family on individual-level data.

Each replicate simulates genotypes and phenotypes, computes per-variant
summary associations by ordinary least squares (from non-overlapping halves
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

Randomness is counter-based: each replicate draws from streams keyed by
(seed, replicate, stream), so results are reproducible and independent of
thread count.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import IO

import numpy as np

from .estimators import ALL_METHODS, _fit_each
from .exceptions import EstimationError
from .summary_data import SummarySet, harmonize
from .wls import Estimate, i_squared_instrument_strength

DESIGNS = ("one_sample", "two_sample")
_BALANCED_RANGE = (-0.1, 0.1)
_DIRECTIONAL_RANGE = (0.0, 0.1)
_CONFOUNDED_RANGE = (-0.1, 0.1)
_MAX_REGENERATIONS = 100


class _DegenerateGenotype(Exception):
    """A simulated variant was monomorphic; the dataset must be redrawn."""


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
        if self.n_sim < 1:
            raise ValueError(f"n_sim must be >= 1, got {self.n_sim}")


@dataclass(frozen=True)
class RawStudy:
    """One simulated individual-level dataset with its generating truth."""

    g: np.ndarray
    u: np.ndarray
    x: np.ndarray
    y: np.ndarray
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

    Draw order is fixed (invalid flags, gamma, scenario effects, genotypes,
    then the three error vectors) so a given generator state always yields
    the same dataset.
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
        lo, hi = _BALANCED_RANGE if spec.scenario == 2 else _DIRECTIONAL_RANGE
        alpha = np.where(invalid, rng.uniform(lo, hi, j), 0.0)
    elif spec.scenario == 4:
        phi = np.where(invalid, rng.uniform(*_CONFOUNDED_RANGE, j), 0.0)
    g = rng.binomial(2, spec.maf, size=(spec.n, j)).astype(np.float64)
    eps_u = rng.standard_normal(spec.n)
    eps_x = rng.standard_normal(spec.n)
    eps_y = rng.standard_normal(spec.n)
    u = g @ phi + eps_u
    x = g @ gamma + u + eps_x
    y = g @ alpha + spec.theta * x + u + eps_y
    return RawStudy(g=g, u=u, x=x, y=y, gamma=gamma, alpha=alpha, phi=phi,
                    invalid=invalid, theta=spec.theta)


def _univariable(g: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Per-column simple OLS slope and SE via centered sums.
    n = y.size
    g_mean = g.mean(axis=0)
    yc = y - y.mean()
    sgg = np.einsum("ij,ij->j", g, g) - n * g_mean ** 2
    if np.any(sgg <= 0.0):
        raise _DegenerateGenotype
    sgy = g.T @ yc
    slope = sgy / sgg
    rss = float(yc @ yc) - slope * sgy
    if np.any(rss <= 0.0):
        raise _DegenerateGenotype
    se = np.sqrt(rss / (n - 2) / sgg)
    return slope, se


def _multivariable(g: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    # R^2 and overall F of y on all columns of g plus an intercept.
    n, k = g.shape
    gc = g - g.mean(axis=0)
    yc = y - y.mean()
    gram = gc.T @ gc
    rhs = gc.T @ yc
    try:
        coef = np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError:
        raise _DegenerateGenotype from None
    tss = float(yc @ yc)
    rss = tss - float(rhs @ coef)
    if tss <= 0.0 or rss <= 0.0:
        raise _DegenerateGenotype
    r2 = 1.0 - rss / tss
    f = (r2 / k) / ((1.0 - r2) / (n - k - 1))
    return r2, f


def extract_summary(raw: RawStudy, design: str) -> GeneratedStudy:
    """Summarize a raw dataset into per-variant associations.

    The two-sample design uses the first half of the individuals for the
    exposure associations and the second half for the outcome associations;
    the one-sample design uses everyone for both. Instrument-strength
    diagnostics always come from the exposure sample.
    """
    if design not in DESIGNS:
        raise ValueError(f"design must be one of {DESIGNS}, got {design!r}")
    n = raw.x.size
    if design == "two_sample":
        half = n // 2
        exposure = slice(0, half)
        outcome = slice(half, n)
    else:
        exposure = outcome = slice(0, n)
    beta_x, se_x = _univariable(raw.g[exposure], raw.x[exposure])
    beta_y, se_y = _univariable(raw.g[outcome], raw.y[outcome])
    r2, f_overall = _multivariable(raw.g[exposure], raw.x[exposure])
    f_uni = float(np.mean((beta_x / se_x) ** 2))
    ids = [f"g{k + 1}" for k in range(raw.g.shape[1])]
    summary = SummarySet.from_arrays(beta_x, se_x, beta_y, se_y, ids=ids)
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
        np.random.Philox(np.random.SeedSequence(spec.seed, spawn_key=(rep, 0)))
    )
    regenerated = 0
    study = None
    for _ in range(_MAX_REGENERATIONS):
        raw = generate_individual_data(spec, data_rng)
        try:
            study = extract_summary(raw, spec.design)
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
    i2 = i_squared_instrument_strength(hs) if hs.j >= 2 else math.nan
    return _ReplicateRecord(
        fits=fits,
        i_squared=i2,
        r_squared=study.r_squared,
        f_statistic=study.f_statistic,
        invalid_count=int(np.sum(study.invalid)),
        regenerated=regenerated,
    )


def _replicate_args(args) -> _ReplicateRecord:
    return _replicate(*args)


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
        if hasattr(dest, "write"):
            self._write_csv(dest)
            return
        with open(dest, "w", newline="", encoding="utf-8") as fh:
            self._write_csv(fh)

    def _write_csv(self, fh: IO[str]) -> None:
        import csv as _csv

        writer = _csv.writer(fh, lineterminator="\n")
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
        writer.writerow(["mean_invalid_count", _fmt(self.mean_invalid_count), "", "", "", ""])
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
            lines.append(
                f"{r.method:<26} {r.mean:>9.4f} {r.sd:>9.4f} "
                f"{_fmt_col(r.mean_se, 9)} {r.power_pct:>8.1f} {r.na_count:>5d}"
            )
        lines.append("")
        if self.joint_rejection_pct is not None:
            lines.append(f"joint simple_median & robust_ivw rejection: "
                         f"{self.joint_rejection_pct:.1f}%")
        if self.egger_intercept_rejection_pct is not None:
            lines.append(f"egger intercept test rejection: "
                         f"{self.egger_intercept_rejection_pct:.1f}%")
        lines.append(
            f"mean F = {self.mean_f:.1f}   mean R^2 = {100 * self.mean_r_squared:.2f}%   "
            f"mean I^2 = {100 * self.mean_i_squared:.1f}%"
        )
        lines.append(
            f"mean invalid instruments = {self.mean_invalid_count:.2f}   "
            f"regenerated datasets = {self.regenerated_datasets}"
        )
        return "\n".join(lines)


def _fmt(v: float) -> str:
    if v is None or (isinstance(v, float) and math.isnan(v)):
        return ""
    return f"{v:.6g}"


def _fmt_col(v: float, width: int) -> str:
    if math.isnan(v):
        return " " * (width - 2) + "NA"
    return f"{v:>{width}.4f}"


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
    ``threads > 1`` they run in a process pool and the report is identical
    to the single-threaded one for a fixed seed.
    """
    methods = tuple(methods)
    unknown = [m for m in methods if m not in ALL_METHODS]
    if unknown:
        raise ValueError(f"unknown method id(s): {', '.join(unknown)}")
    if not methods:
        raise ValueError("at least one method is required")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    tasks = [(spec, rep, methods, bootstrap_draws) for rep in range(spec.n_sim)]
    if threads == 1 or spec.n_sim == 1:
        records = [_replicate_args(t) for t in tasks]
    else:
        chunk = max(1, spec.n_sim // (threads * 8))
        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_replicate_args, tasks, chunksize=chunk))
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
