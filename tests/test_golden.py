"""Golden seeded outputs: the study report CSV and ``analyze``'s output must stay byte-identical.

``tests/data/golden_study.csv`` holds the ``SimulationReport`` CSV of small
seeded studies (scenarios 1-4 at J = 25 with all 11 methods, and a J = 2
case where every intercept method fails). ``tests/data/golden_analyze.*``
hold ``ivrobust analyze``'s table, CSV and JSON output for all 11 methods
on ``tests/data/golden_analyze_input.csv``, a fixed 30-variant set with
mixed signs and one outlier, run with ``--seed 11 --bootstrap-draws 200``
from ``tests/data`` (so the JSON's ``input`` field is the bare file name).
A refactor that moves any reported figure changes these bytes. To
regenerate the fixtures after an intended and explained change, run::

    PYTHONPATH=src python tests/test_golden.py --write
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from ivrobust.cli import EXIT_OK, main
from ivrobust.estimators import ALL_METHODS
from ivrobust.simulation import ScenarioSpec, run_study

DATA = Path(__file__).parent / "data"
FIXTURE = DATA / "golden_study.csv"
ANALYZE_INPUT = "golden_analyze_input.csv"
ANALYZE_FORMATS = {"table": "golden_analyze.txt", "csv": "golden_analyze.csv",
                   "json": "golden_analyze.json"}

SPECS = (
    ScenarioSpec(scenario=1, theta=0.1, n=2000, j=25, n_sim=6, seed=4101),
    ScenarioSpec(scenario=2, theta=0.1, prop_invalid=0.3, n=2000, j=25, n_sim=6, seed=4102),
    ScenarioSpec(scenario=3, theta=0.1, prop_invalid=0.3, n=2000, j=25, n_sim=6, seed=4103),
    ScenarioSpec(scenario=4, theta=0.1, prop_invalid=0.3, n=2000, j=25, n_sim=6, seed=4104),
    ScenarioSpec(scenario=1, theta=0.1, n=600, j=2, n_sim=3, seed=4105),
)
BOOTSTRAP_DRAWS = 100


def render() -> str:
    out = io.StringIO()
    for spec in SPECS:
        out.write(f"# scenario={spec.scenario} j={spec.j} n={spec.n} "
                  f"n_sim={spec.n_sim} seed={spec.seed}\n")
        run_study(spec, ALL_METHODS, bootstrap_draws=BOOTSTRAP_DRAWS).to_csv(out)
    return out.getvalue()


def render_analyze(fmt: str) -> str:
    """``analyze``'s standard output, run from ``tests/data`` on the relative input path."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(DATA)
    try:
        with contextlib.redirect_stdout(out):
            code = main(["analyze", ANALYZE_INPUT, "--methods", "all", "--seed", "11",
                         "--bootstrap-draws", "200", "--format", fmt])
    finally:
        os.chdir(cwd)
    assert code == EXIT_OK
    return out.getvalue()


def test_golden_study_csv_unchanged():
    assert render() == FIXTURE.read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", sorted(ANALYZE_FORMATS))
def test_golden_analyze_output_unchanged(fmt):
    assert render_analyze(fmt) == (DATA / ANALYZE_FORMATS[fmt]).read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    DATA.mkdir(exist_ok=True)
    FIXTURE.write_text(render(), encoding="utf-8")
    for fmt, name in ANALYZE_FORMATS.items():
        (DATA / name).write_text(render_analyze(fmt), encoding="utf-8")
