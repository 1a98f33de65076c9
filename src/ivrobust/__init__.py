"""Robust instrumental-variable estimation from summarized association data.

Estimates a causal effect from per-variant summary statistics (associations
of genetic variants with an exposure and an outcome) using a family of
estimators with different robustness properties to invalid instruments,
plus a Monte Carlo engine for evaluating them under controlled violations.

The top level exports the estimators, weights, data, study and exception
API; helpers such as ``wls.instrument_strength`` stay importable from their
modules.
"""
from .estimators import ALL_METHODS, run_methods
from .exceptions import (
    CsvParseError,
    DegenerateInstrumentError,
    EstimationError,
    InsufficientInstrumentsError,
    SingularDesignError,
)
from .median_methods import (
    bootstrap_se,
    penalized_weighted_median,
    simple_median,
    weighted_median,
    weighted_median_estimate,
)
from .penalization import cochran_q_egger, cochran_q_ivw, penalize_weights
from .robust_mm import RobustFit, mm_regress
from .simulation import (
    ScenarioSpec,
    SimulationReport,
    extract_summary,
    generate_individual_data,
    run_study,
)
from .summary_data import (
    SummarySet,
    harmonize,
    ratio_estimates,
    read_csv,
    write_csv,
)
from .wls import Estimate, WeightVector, egger, inverse_variance_weights, ivw

__version__ = "0.1.0"

__all__ = [
    "ALL_METHODS",
    "CsvParseError",
    "DegenerateInstrumentError",
    "Estimate",
    "EstimationError",
    "InsufficientInstrumentsError",
    "RobustFit",
    "ScenarioSpec",
    "SimulationReport",
    "SingularDesignError",
    "SummarySet",
    "WeightVector",
    "bootstrap_se",
    "cochran_q_egger",
    "cochran_q_ivw",
    "egger",
    "extract_summary",
    "generate_individual_data",
    "harmonize",
    "inverse_variance_weights",
    "ivw",
    "mm_regress",
    "penalize_weights",
    "penalized_weighted_median",
    "ratio_estimates",
    "read_csv",
    "run_methods",
    "run_study",
    "simple_median",
    "weighted_median",
    "weighted_median_estimate",
    "write_csv",
]
