"""Golden seeded study: the report CSV must stay byte-identical.

The fixture ``tests/data/golden_study.csv`` holds the ``SimulationReport``
CSV of small seeded studies (scenarios 1-4 at J = 25 with all 11 methods,
and a J = 2 case where every intercept method fails). A refactor that moves
any reported figure changes these bytes. To regenerate the fixture after an
intended and explained change, run::

    PYTHONPATH=src python tests/test_golden.py --write
"""
from __future__ import annotations

import io
import sys
from pathlib import Path

from ivrobust.estimators import ALL_METHODS
from ivrobust.simulation import ScenarioSpec, run_study

FIXTURE = Path(__file__).parent / "data" / "golden_study.csv"

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


def test_golden_study_csv_unchanged():
    assert render() == FIXTURE.read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(render(), encoding="utf-8")
