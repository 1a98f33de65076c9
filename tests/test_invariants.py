"""On any finite input every estimator returns an Estimate or raises an EstimationError.

The sets are adversarial: 1-7 variants, magnitudes from 1e-300 to 1e300, zero
or tied exposure associations, and outcome associations proportional to them.
"""
from __future__ import annotations

import io
import json
import math
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ivrobust import cli
from ivrobust.estimators import ALL_METHODS, _fit_each, run_methods
from ivrobust.exceptions import EstimationError
from ivrobust.summary_data import SummarySet, write_csv
from ivrobust.wls import Estimate

MAGNITUDE = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99), st.integers(-300, 300))
SIGNED = st.builds(lambda v, sign: sign * v, MAGNITUDE, st.sampled_from([-1.0, 1.0]))


@st.composite
def extreme_sets(draw) -> SummarySet:
    j = draw(st.integers(1, 7))
    pool = draw(st.lists(SIGNED | st.just(0.0), min_size=j, max_size=j))
    if draw(st.booleans()):
        # ties: every beta_x is drawn from the pool's first entries
        picks = draw(st.lists(st.integers(0, min(j, 2) - 1), min_size=j, max_size=j))
        pool = [pool[k] for k in picks]
    if draw(st.booleans()):
        factor = draw(SIGNED)
        beta_y = [factor * b for b in pool]
    else:
        beta_y = draw(st.lists(SIGNED | st.just(0.0), min_size=j, max_size=j))
    assume(all(map(math.isfinite, beta_y)))
    se_x = draw(st.lists(MAGNITUDE, min_size=j, max_size=j))
    se_y = draw(st.lists(MAGNITUDE, min_size=j, max_size=j))
    return SummarySet(pool, se_x, beta_y, se_y)


@settings(max_examples=800, deadline=None)
@given(extreme_sets(), st.sampled_from(["fixed", "multiplicative_random"]),
       st.integers(0, 2 ** 32 - 1))
def test_every_method_returns_an_estimate_or_raises_estimation_error(s, effects, seed):
    for name in ALL_METHODS:
        try:
            est = run_methods(s, (name,), effects=effects, seed=seed, bootstrap_draws=30)[name]
        except EstimationError:
            continue
        assert isinstance(est, Estimate) and math.isfinite(est.theta)


@settings(max_examples=200, deadline=None)
@given(extreme_sets(), st.sampled_from(["fixed", "multiplicative_random"]),
       st.integers(0, 2 ** 32 - 1))
def test_joint_request_gives_each_method_its_single_method_result(s, effects, seed):
    # the robust methods of a joint request share one lockstep S-stage
    # and run_methods returns that result, named for its method, or raises it
    joint = dict(_fit_each(s, ALL_METHODS, effects=effects, seed=seed, bootstrap_draws=30))
    for name, got in joint.items():
        ((_, alone),) = _fit_each(s, (name,), effects=effects, seed=seed, bootstrap_draws=30)
        assert type(got) is type(alone) and _outcome(got) == _outcome(alone)
        try:
            ran = run_methods(s, (name,), effects=effects, seed=seed, bootstrap_draws=30)[name]
        except EstimationError as exc:
            ran = exc
        assert type(ran) is type(alone) and _outcome(ran) == _outcome(alone)
        assert isinstance(ran, EstimationError) or ran.method == name


def _outcome(fit) -> str:
    # an error's message, or an estimate's repr: exact float digits, and equal for NaN fields
    return str(fit) if isinstance(fit, EstimationError) else repr(fit)


@settings(max_examples=300, deadline=None)
@given(extreme_sets(), st.sampled_from(["table", "csv", "json"]))
def test_analyze_exits_with_success_or_precondition_code(s, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "set.csv")
        write_csv(s, path)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(["analyze", path, "--seed", "1", "--bootstrap-draws", "30",
                             "--format", fmt])
    assert code in (cli.EXIT_OK, cli.EXIT_PRECONDITION)
    if fmt == "json" and code == cli.EXIT_OK:
        # strict JSON: Infinity, -Infinity and NaN are not JSON numbers
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def _reject_constant(name: str):
    raise AssertionError(f"analyze --format json printed {name}")
