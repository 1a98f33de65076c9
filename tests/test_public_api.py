"""The top-level export list: agreed names, all resolvable, covering the benchmark's imports."""
from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import ivrobust

AGREED = [
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

BENCH = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_all_is_the_agreed_list():
    assert ivrobust.__all__ == AGREED


def test_every_exported_name_resolves():
    for name in ivrobust.__all__:
        assert getattr(ivrobust, name) is not None, name


def test_benchmark_imports_are_exported():
    imported = {
        alias.name
        for node in ast.walk(ast.parse(BENCH.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.module == "ivrobust"
        for alias in node.names
    }
    # submodules such as ``cli`` are reached by import, not through __all__
    names = {n for n in imported if importlib.util.find_spec(f"ivrobust.{n}") is None}
    assert names, "bench/run.py imports nothing from ivrobust"
    assert sorted(names - set(ivrobust.__all__)) == []
