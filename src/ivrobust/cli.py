"""Command-line interface.

``ivrobust analyze``  runs the estimator family on a summary-data CSV
(columns ``id,beta_x,se_x,beta_y,se_y``) and prints one row per method as a
table, CSV, or JSON.

``ivrobust simulate`` runs the Monte Carlo study for one scenario and prints
the aggregated report (optionally writing it as CSV).

Exit codes: 0 success, 2 malformed input or invalid options, 3 estimator
precondition failures (for example too few variants for an intercept model).
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .estimators import ALL_METHODS, _check_methods, run_methods
from .exceptions import CsvParseError, EstimationError
from .penalization import cochran_q_ivw
from .distributions import chisq_sf
from .simulation import ScenarioSpec, run_study
from .summary_data import harmonize, read_csv
from .wls import Estimate, instrument_strength, inverse_variance_weights, ivw

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3


def _method_list(text: str) -> tuple[str, ...]:
    if text.strip() == "all":
        return ALL_METHODS
    try:
        names = _check_methods(part.strip() for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not names:
        raise argparse.ArgumentTypeError("no methods given")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivrobust",
        description="Causal-effect estimation from summarized variant associations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="estimate causal effects from a summary-data CSV"
    )
    analyze.add_argument("input", help="CSV with header id,beta_x,se_x,beta_y,se_y")
    analyze.add_argument("--methods", type=_method_list, default=ALL_METHODS,
                         metavar="LIST", help="comma-separated method ids or 'all'")
    analyze.add_argument("--effects", choices=["fixed", "multiplicative_random"],
                         default="multiplicative_random",
                         help="SE model for the no-intercept methods")
    analyze.add_argument("--bootstrap-draws", type=int, default=1000, metavar="N",
                         help="parametric bootstrap draws for the median methods")
    analyze.add_argument("--seed", type=int, default=None,
                         help="RNG seed; generated and echoed when omitted")
    analyze.add_argument("--format", choices=["table", "csv", "json"], default="table",
                         help="output format (default table)")

    simulate = sub.add_parser(
        "simulate", help="run the Monte Carlo scenario study"
    )
    simulate.add_argument("--scenario", type=int, choices=[1, 2, 3, 4], required=True)
    simulate.add_argument("--theta", type=float, default=0.0,
                          help="true causal effect (default 0)")
    simulate.add_argument("--prop-invalid", type=float, default=0.0, metavar="P",
                          help="probability a variant is an invalid instrument")
    simulate.add_argument("--n", type=int, default=40_000,
                          help="total individuals per replicate (default 40000)")
    simulate.add_argument("--j", type=int, default=25,
                          help="number of variants (default 25)")
    simulate.add_argument("--one-sample", action="store_true",
                          help="estimate both association sets from the full sample")
    simulate.add_argument("--n-sim", type=int, default=1000,
                          help="number of replicates (default 1000)")
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--methods", type=_method_list, default=ALL_METHODS,
                          metavar="LIST", help="comma-separated method ids or 'all'")
    simulate.add_argument("--bootstrap-draws", type=int, default=1000, metavar="N")
    simulate.add_argument("--threads", type=int, default=1,
                          help="worker processes (report is thread-count invariant)")
    simulate.add_argument("--fixed-invalid-count", action="store_true",
                          help="use exactly round(prop * j) invalid variants per replicate")
    simulate.add_argument("--out", default=None, metavar="PATH",
                          help="also write the report as CSV")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            return _cmd_analyze(args)
        return _cmd_simulate(args)
    except CsvParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except EstimationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def _cmd_analyze(args) -> int:
    data = harmonize(read_csv(args.input))
    seed = args.seed
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (2 ** 32))
        print(f"seed: {seed}", file=sys.stderr)
    results = run_methods(
        data, args.methods, effects=args.effects,
        bootstrap_draws=args.bootstrap_draws, seed=seed,
    )
    diagnostics = _diagnostics(data)
    if args.format == "json":
        payload = {
            "input": args.input,
            "seed": seed,
            "effects": args.effects,
            "diagnostics": diagnostics,
            "estimates": [_estimate_dict(est) for est in results.values()],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        _print_csv(results.values())
    else:
        _print_table(results.values(), diagnostics)
    return EXIT_OK


def _diagnostics(hs) -> dict:
    """I^2 and Cochran's Q; one that raises EstimationError is None, its reason in warnings."""
    out: dict = {"n_variants": hs.j}
    warnings = []
    if hs.j >= 2:
        try:
            out["i_squared"] = instrument_strength(hs)
        except EstimationError as exc:
            out["i_squared"] = None
            warnings.append(f"I^2 unavailable: {exc}")
        out.update(q_statistic=None, q_df=hs.j - 1, q_p_value=None)
        try:
            q = cochran_q_ivw(hs, ivw(hs, inverse_variance_weights(hs)).theta)
            out.update(q_statistic=q.q_total, q_p_value=chisq_sf(q.q_total, q.df_total))
        except EstimationError as exc:
            warnings.append(f"Q unavailable: {exc}")
    out["warnings"] = warnings
    return out


_FIELDS = ("method", "theta", "se", "ci_low", "ci_high", "p_value",
           "intercept", "intercept_se", "intercept_p", "residual_scale",
           "effects_model")


def _estimate_dict(est: Estimate) -> dict:
    return {**{name: getattr(est, name) for name in _FIELDS}, "warnings": list(est.warnings)}


def _print_csv(estimates) -> None:
    import csv as _csv

    writer = _csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(_FIELDS)
    for est in estimates:
        row = []
        for name in _FIELDS:
            value = getattr(est, name)
            row.append("" if value is None else value)
        writer.writerow(row)


def _print_table(estimates, diagnostics: dict) -> None:
    header = (f"{'method':<26} {'estimate':>9} {'se':>8} {'95% CI':>20} "
              f"{'p':>9} {'intercept':>10} {'int p':>9}")
    print(header)
    print("-" * len(header))
    for est in estimates:
        if est.se_reported:
            ci = f"[{est.ci_low:8.4f}, {est.ci_high:8.4f}]"
            se = f"{est.se:8.4f}"
            p = f"{est.p_value:9.3g}"
        else:
            ci = f"{'NA':>20}"
            se = f"{'NA':>8}"
            p = f"{'NA':>9}"
        inter = f"{est.intercept:10.4f}" if est.intercept is not None else f"{'':>10}"
        inter_p = (f"{est.intercept_p:9.3g}" if est.intercept_p is not None
                   else f"{'':>9}")
        print(f"{est.method:<26} {est.theta:9.4f} {se} {ci} {p} {inter} {inter_p}")
    if "i_squared" in diagnostics:
        i2, q = diagnostics["i_squared"], diagnostics["q_statistic"]
        i2_text = "NA" if i2 is None else f"{100 * i2:.1f}%"
        q_text = ("NA" if q is None else
                  f"{q:.2f} (df {diagnostics['q_df']}, p {diagnostics['q_p_value']:.3g})")
        print()
        print(f"variants: {diagnostics['n_variants']}   "
              f"I^2 (instrument strength): {i2_text}   Q: {q_text}")
        for reason in diagnostics["warnings"]:
            print(f"  {reason}")


def _cmd_simulate(args) -> int:
    design = "one_sample" if args.one_sample else "two_sample"
    spec = ScenarioSpec(
        scenario=args.scenario,
        theta=args.theta,
        prop_invalid=args.prop_invalid,
        n=args.n,
        j=args.j,
        design=design,
        n_sim=args.n_sim,
        seed=args.seed,
        fixed_invalid_count=args.fixed_invalid_count,
    )
    report = run_study(spec, args.methods, threads=args.threads,
                       bootstrap_draws=args.bootstrap_draws)
    print(report.to_table())
    if args.out is not None:
        report.to_csv(args.out)
        print(f"report written to {args.out}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
