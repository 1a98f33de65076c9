"""Fast self-check of the benchmark harness at tiny sizes.

Usage, from the repository root::

    python3 bench/selfcheck.py

Runs every workload for one operation (the analyze workload on a J = 25
CSV), untraced and traced, and checks that each metric named in
BENCHMARK.json is emitted with its unit and that the outputs pass their
gates. Then it feeds the gates deliberately broken outputs and checks that
each one is counted as a failed operation, that the run goes on, and that
the command exits non-zero. Last, it checks that the command fails without a
result line in a directory holding only BENCHMARK.json and bench/. Prints
one line per check and exits non-zero if any check fails.
"""
from __future__ import annotations

import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (pins the BLAS threads before numpy loads)

FAILED: list[str] = []

def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILED.append(what)


def tiny_workloads() -> dict:
    return {"study_all": run.Study(run.ALL, 1), "study_nonrobust": run.Study(run.NONROBUST, 1),
            "analyze_wide": run.Analyze(1, j=run.SMALL_J)}


def quiet_measure(workload, seconds: float, trace: bool):
    with redirect_stderr(io.StringIO()) as err:
        result, record, _ = run.measure(workload, seconds, trace)
    return result, record, err.getvalue()


def check_metrics(bench: dict) -> None:
    want = {False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            True: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    check(want[False] == run.END_TO_END, "BENCHMARK.json end_to_end matches run.END_TO_END")
    check(want[True] == run.PER_LAYER, "BENCHMARK.json per_layer matches run.PER_LAYER")
    check([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS")
    for name, workload in tiny_workloads().items():
        workload.warm_up()
        for trace in (False, True):
            result, _, err = quiet_measure(workload, 0.001, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            finite = all(isinstance(v["value"], float) and math.isfinite(v["value"])
                         for v in result["metrics"].values())
            check(got == want[trace] and finite,
                  f"{name} trace={int(trace)}: every metric emitted with its unit")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{name} trace={int(trace)}: outputs pass the gates {err.strip()[-200:]}")


def check_broken_outputs() -> None:
    import ivrobust
    import ivrobust.cli

    real_study, real_methods = ivrobust.run_study, ivrobust.run_methods

    def nan_mean(*args, **kwargs):
        report = real_study(*args, **kwargs)
        row = dataclasses.replace(report.rows[0], mean=math.nan)
        return dataclasses.replace(report, rows=(row,) + report.rows[1:])

    def single_off_by_one_ulp(hs, methods, **kwargs):
        out = real_methods(hs, methods, **kwargs)
        if len(out) == 1:
            (m, est), = out.items()
            out[m] = dataclasses.replace(est, theta=math.nextafter(est.theta, math.inf))
        return out

    def raises(*args, **kwargs):
        raise ValueError("deliberate")

    study = run.Study(run.NONROBUST, 2)
    for patch, trace, label, error in (
            (("run_study", nan_mean), False, "non-finite report mean", "GateFailure"),
            (("run_methods", single_off_by_one_ulp), True, "single-method result one ulp off",
             "GateFailure"),
            (("run_study", raises), False, "bare ValueError", "ValueError")):
        setattr(ivrobust, *patch)
        try:
            result, record, _ = quiet_measure(study, 0.5, trace)
        finally:
            ivrobust.run_study, ivrobust.run_methods = real_study, real_methods
        check(not result["correct"] and result["failed"] > 1
              and record["failure_types"] == {error: result["failed"]},
              f"study gate trips on {label} and the run goes on "
              f"({result['failed']} of {result['attempted']} failed, "
              f"{record['failure_types']})")

    def penalized_ivw_off(hs, methods, **kwargs):
        out = real_methods(hs, methods, **kwargs)
        est = out["penalized_ivw"]
        out["penalized_ivw"] = dataclasses.replace(est, theta=est.theta * (1.0 + 1e-8))
        return out

    ivrobust.cli.run_methods = penalized_ivw_off
    try:
        result, record, _ = quiet_measure(run.Analyze(2, j=run.SMALL_J), 0.001, False)
    finally:
        ivrobust.cli.run_methods = real_methods
    check(not result["correct"] and record["failure_types"] == {"GateFailure": 1},
          "analyze gate trips on penalized_ivw off by 1e-8 relative")

    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        ivrobust.run_study = nan_mean
        try:
            code = run.main(["--workload", "study_nonrobust", "--seed", "3",
                             "--seconds", "0.001", "--trace", "0"])
        finally:
            ivrobust.run_study = real_study
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    check(code != 0 and last["correct"] is False,
          "the command exits non-zero and reports correct=false on a broken output")


def check_bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload",
                           "study_all", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    shutil.rmtree(bare)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"without src/ the command exits {proc.returncode} and prints no result")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.load_package()
    check_metrics(bench)
    check_broken_outputs()
    check_bare_directory()
    print(f"{len(FAILED)} check(s) failed" if FAILED else "all checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
