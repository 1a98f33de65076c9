"""Benchmark of ivrobust: the Monte Carlo study and the summary-data CLI.

Usage, from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Workloads (each a closed loop: one client, one operation at a time,
``threads=1``):

``study_all``
    ``run_study`` at the paper's settings (n = 40,000, J = 25, two-sample,
    theta = 0.1) with all 11 methods, one replicate per operation, cycling
    scenarios 1-4 (``prop_invalid`` = 0.3 for scenarios 2-4). The four MM
    fits dominate a replicate, so this is where ``robust_mm`` work shows.
``study_nonrobust``
    The same specs and seeds with the 7 non-robust methods. Data generation
    and extraction dominate; ``robust_mm`` is bypassed, so a robust-fit
    change must leave it unchanged.
``analyze_wide``
    ``ivrobust analyze --format json`` (``cli.main``) on a generated
    J = 25,000 CSV with ``--methods ivw,egger,penalized_ivw,penalized_egger``:
    mixed-sign exposure associations (harmonize flips about half),
    heterogeneous outcome SEs and 3% outlying variants (penalization
    down-weights them). It runs ``summary_data`` and ``penalization`` at
    large J and bypasses ``simulation`` and ``robust_mm``.

``--trace 0`` prints the end-to-end metrics of the operations (one replicate,
or one analyze call): ``op_cost``, ``setup_s`` (median of several
fresh-interpreter imports of ivrobust plus one warm-up call on a small input)
and ``peak_rss_mb``. Beside them it prints the raw rate ``ops_per_s`` and the
median op time with its sample count.

``op_cost`` is the median over operations of the operation's time divided by
the time of a fixed reference computation on the same core, averaged over
its runs just before and just after the operation: the operation's time in
host-independent units. On a shared host a core's speed switches between an
uncontended and a contended mode, for seconds to minutes at a time, so raw
times and rates move by 10-25% from run to run; the ratio cancels the host's
current speed, so it is the metric a change is gated on. The contended mode
slows numpy-heavy work by about 1.4x and Python object work by about 1.6x,
so each workload divides by a reference of its own kind of work
(:func:`numeric_reference` for the study replicates,
:func:`object_reference` for the analyze call).

``--trace 1`` also runs each operation untraced, then re-drives its pipeline
step by step through the public functions, in the order the program runs
them, with a span around each call, and prints the per-layer metrics. A layer
that a workload bypasses reports 0. Either way each operation's outputs
are checked; a failed check, an exception or a non-zero exit counts as a
failed operation and never aborts the run. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any operation failed. A record with the
environment, the failure types and (with ``--trace 1``) every span is written
under ``.bench_out/``.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP to one thread before numpy loads, here and in every child.
# The workloads are single-client closed loops over small matrices; on a
# 2-core machine a second BLAS thread only competes with the loop and makes
# timings depend on machine load. Both sides of a comparison get the same pin.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

ALL = ("ivw", "egger", "robust_ivw", "robust_egger", "penalized_ivw",
       "penalized_egger", "penalized_robust_ivw", "penalized_robust_egger",
       "simple_median", "weighted_median", "penalized_weighted_median")
NONROBUST = tuple(m for m in ALL if "robust" not in m)
ANALYZE_METHODS = ("ivw", "egger", "penalized_ivw", "penalized_egger")

# (scenario, prop_invalid) cycled by the study workloads, theta = 0.1
SCENARIOS = ((1, 0.0), (2, 0.3), (3, 0.3), (4, 0.3))
BOOTSTRAP_DRAWS = 1000
WIDE_J = 25_000
SMALL_J = 25
SETUP_SAMPLES = 7
REL_TOL = 1e-9

END_TO_END = {"op_cost": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "simulation.generate_ms": "ms",
    "simulation.extract_ms": "ms",
    "simulation.regenerated": "count",
    "simulation.other_ms": "ms",
    "summary_data.read_csv_ms": "ms",
    "summary_data.harmonize_ms": "ms",
    "estimators.run_methods_ms": "ms",
    **{f"estimators.{m}_ms": "ms" for m in ALL},
    "wls.fit_ms": "ms",
    "robust_mm.fit_ms": "ms",
    "robust_mm.m_iterations": "count",
    "robust_mm.exact_fit_pct": "%",
    "robust_mm.nonconverged_pct": "%",
    "robust_mm.se_unavailable_pct": "%",
    "penalization.cochran_q_ms": "ms",
    "penalization.penalized_variants": "count",
    "median_methods.bootstrap_ms": "ms",
    "cli.other_ms": "ms",
    "trace.overhead_pct": "%",
}
# the traced steps that make up one operation, in program order
PIPELINE = ("simulation.generate", "simulation.extract", "summary_data.read_csv",
            "summary_data.harmonize", "estimators.run_methods")


class GateFailure(Exception):
    """An operation's output failed a correctness check."""


def op_seed(seed: int, k: int) -> int:
    """Seed of operation ``k``; the same run seed gives the same inputs."""
    return seed * 100_000 + k


# ---------------------------------------------------------------- tracing

class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []

    def open(self, name: str, op: int) -> int:
        self.spans.append([name, time.perf_counter(), None, None, op])
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()

    def call(self, name: str, parent: int, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([name, start, time.perf_counter(), parent, self.spans[parent][4]])

    def per_op_ms(self) -> dict[str, dict[int, float]]:
        """Milliseconds per span name per op, summed over repeated calls."""
        out: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        for name, start, end, _, op in self.spans:
            if end is not None:
                out[name][op] += 1e3 * (end - start)
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# ------------------------------------------------------------ environment

def blas_info() -> dict:
    """Name, configuration and live thread count of the loaded BLAS."""
    import ctypes

    import numpy as np

    info = {"name": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("", ""), ("scipy_", "64_"), ("", "64_")):
            getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if getter is None:
                continue
            getter.restype = ctypes.c_int
            info["threads"] = getter()
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if config is not None:
                config.restype = ctypes.c_char_p
                info["config"] = config().decode()
            return info
    return info


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "thread_pins": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# --------------------------------------------------------------- workloads

def check_subset_invariance(joint: dict, single: dict) -> None:
    for m, est in joint.items():
        if single[m] != est:
            raise GateFailure(f"{m}: joint and single-method results differ")


def penalty_step(tr: Tracer, parent: int, hs, base_w, stats: Counter):
    """Reference fits, heterogeneity reports and penalized weights, as run_methods forms them."""
    from ivrobust import (
        cochran_q_egger, cochran_q_ivw, egger, ivw, penalize_weights,
    )

    ivw_ref, egger_ref = tr.call("wls.fit", parent, lambda: (ivw(hs, base_w), egger(hs, base_w)))

    def reports():
        rep_ivw = cochran_q_ivw(hs, ivw_ref.theta)
        rep_egger = cochran_q_egger(hs, egger_ref.intercept, egger_ref.theta)
        return (rep_ivw, rep_egger,
                penalize_weights(base_w, rep_ivw), penalize_weights(base_w, rep_egger))

    rep_ivw, rep_egger, pen_ivw, pen_egger = tr.call("penalization.cochran_q", parent, reports)
    stats["penalization.penalized_variants"] += int(
        (rep_ivw.factor_j < 1.0).sum() + (rep_egger.factor_j < 1.0).sum())
    return pen_ivw, pen_egger


class Study:
    """One ``run_study`` replicate per operation."""

    def reference(self, rng) -> float:
        return numeric_reference(rng)

    def __init__(self, methods: tuple[str, ...], seed: int):
        self.methods = methods
        self.seed = seed

    def spec(self, k: int):
        from ivrobust import ScenarioSpec

        scenario, prop = SCENARIOS[k % len(SCENARIOS)]
        return ScenarioSpec(scenario=scenario, theta=0.1, prop_invalid=prop, n=40_000,
                            j=25, design="two_sample", n_sim=1, seed=op_seed(self.seed, k))

    def probe_argv(self) -> list[str]:
        return ["study", ",".join(self.methods), str(op_seed(self.seed, 0))]

    def warm_up(self) -> None:
        self.op(0)

    def op(self, k: int) -> float:
        return self.checked_run(k)[0]

    def checked_run(self, k: int):
        """Seconds taken by one replicate's run_study call, and its checked report."""
        from ivrobust import run_study

        spec = self.spec(k)
        start = time.perf_counter()
        report = run_study(spec, self.methods, threads=1, bootstrap_draws=BOOTSTRAP_DRAWS)
        elapsed = time.perf_counter() - start
        if tuple(r.method for r in report.rows) != self.methods:
            raise GateFailure("report rows do not match the requested methods")
        for r in report.rows:
            if not math.isfinite(r.mean):
                raise GateFailure(f"{r.method}: non-finite mean {r.mean!r}")
            if not 0 <= r.na_count <= spec.n_sim:
                raise GateFailure(f"{r.method}: na_count {r.na_count} outside [0, n_sim]")
        return elapsed, report

    def traced_op(self, k: int, tr: Tracer, stats: Counter) -> None:
        import numpy as np

        from ivrobust import (
            bootstrap_se, cochran_q_ivw, extract_summary, generate_individual_data,
            harmonize, inverse_variance_weights, mm_regress, ratio_estimates,
            run_methods, weighted_median,
        )

        real = tr.open("op.untraced", k)
        _, report = self.checked_run(k)
        tr.close(real)
        stats["simulation.regenerated"] += report.regenerated_datasets

        # one replicate, its streams keyed (seed, replicate, stream) as run_study keys them
        spec = self.spec(k)
        root = tr.open("op.traced", k)
        data_rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(spec.seed, spawn_key=(0, 0))))
        method_seed = np.random.SeedSequence(spec.seed, spawn_key=(0, 1))
        raw = tr.call("simulation.generate", root, generate_individual_data, spec, data_rng)
        study = tr.call("simulation.extract", root, extract_summary, raw, spec.design)
        hs = tr.call("summary_data.harmonize", root, harmonize, study.summary)
        joint = tr.call("estimators.run_methods", root, run_methods, hs, self.methods,
                        seed=method_seed, bootstrap_draws=BOOTSTRAP_DRAWS)
        tr.close(root)

        attrib = tr.open("op.attribution", k)
        single = {m: tr.call(f"estimators.{m}", attrib, run_methods, hs, (m,),
                             seed=method_seed, bootstrap_draws=BOOTSTRAP_DRAWS)[m]
                  for m in self.methods}
        check_subset_invariance(joint, single)
        base_w = inverse_variance_weights(hs)
        pen_ivw, pen_egger = penalty_step(tr, attrib, hs, base_w, stats)
        if "robust_ivw" in self.methods:
            designs = ((base_w, False), (base_w, True), (pen_ivw, False), (pen_egger, True))
            for i, (w, intercept) in enumerate(designs):
                fit, _ = tr.call("robust_mm.fit", attrib, mm_regress, hs, w, intercept=intercept,
                                 seed=np.random.SeedSequence(spec.seed, spawn_key=(0, 2, i)))
                stats["robust_mm.fits"] += 1
                stats["robust_mm.iterations"] += fit.iterations
                stats["robust_mm.exact_fit"] += fit.exact_fit
                stats["robust_mm.nonconverged"] += not fit.converged
                stats["robust_mm.se_unavailable"] += not fit.se_available
        # the three median methods' weights: equal, inverse-variance, penalized
        iv_w = hs.beta_x ** 2 / hs.se_y ** 2
        median_ref = weighted_median(ratio_estimates(hs).theta, iv_w)
        pen_w = iv_w * cochran_q_ivw(hs, median_ref).factor_j
        for i, w in enumerate((np.ones(hs.j), iv_w, pen_w)):
            tr.call("median_methods.bootstrap", attrib, bootstrap_se, hs, w,
                    draws=BOOTSTRAP_DRAWS,
                    seed=np.random.SeedSequence(spec.seed, spawn_key=(0, 3, i)))
        tr.close(attrib)


def wide_inputs(seed: int, j: int) -> dict[str, list]:
    """Summary data with mixed-sign exposure associations and 3% outliers."""
    import numpy as np

    rng = np.random.default_rng([seed, j])
    strength = rng.uniform(0.03, 0.1, j) * rng.choice((-1.0, 1.0), j)
    se_x = rng.uniform(0.004, 0.012, j)
    beta_x = strength + rng.normal(0.0, se_x)
    se_y = np.exp(rng.normal(math.log(0.02), 0.5, j))
    direct = np.where(rng.random(j) < 0.03, rng.uniform(-0.1, 0.1, j), 0.0)
    beta_y = 0.1 * strength + direct + rng.normal(0.0, se_y)
    return {"id": [f"rs{i + 1}" for i in range(j)], "beta_x": beta_x.tolist(),
            "se_x": se_x.tolist(), "beta_y": beta_y.tolist(), "se_y": se_y.tolist()}


def write_inputs(cols: dict[str, list], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,beta_x,se_x,beta_y,se_y\n")
        for row in zip(cols["id"], cols["beta_x"], cols["se_x"], cols["beta_y"], cols["se_y"]):
            fh.write(row[0] + "," + ",".join(repr(v) for v in row[1:]) + "\n")


def reference_estimates(cols: dict[str, list]) -> dict[str, float]:
    """ivw and egger by numpy closed form, penalized_ivw by a stdlib loop."""
    import numpy as np

    bx = np.array(cols["beta_x"])
    sign = np.where(bx < 0.0, -1.0, 1.0)
    x, y = sign * bx, sign * np.array(cols["beta_y"])
    sy = np.array(cols["se_y"])
    w = sy ** -2.0
    theta_ivw = float(np.sum(w * x * y)) / float(np.sum(w * x * x))
    sqw = np.sqrt(w)
    coef = np.linalg.lstsq(np.column_stack([sqw, sqw * x]), sqw * y, rcond=None)[0]
    num, den = [], []
    for xi, yi, si in zip(x.tolist(), y.tolist(), sy.tolist()):
        q = (yi / xi - theta_ivw) ** 2 / (si / xi) ** 2
        factor = min(1.0, 20.0 * math.erfc(math.sqrt(q / 2.0)))
        num.append(factor * xi * yi / si ** 2)
        den.append(factor * xi * xi / si ** 2)
    return {"ivw": theta_ivw, "egger": float(coef[1]),
            "penalized_ivw": math.fsum(num) / math.fsum(den)}


class Analyze:
    """One ``ivrobust analyze --format json`` call per operation."""

    def reference(self, rng) -> float:
        return object_reference(rng)

    def __init__(self, seed: int, j: int = WIDE_J):
        self.seed = seed
        cols = wide_inputs(seed, j)
        OUT.mkdir(exist_ok=True)
        self.csv = OUT / f"analyze-{seed}-{j}.csv"
        write_inputs(cols, self.csv)
        self.expected = reference_estimates(cols)
        self.small_csv = OUT / f"analyze-{seed}-{SMALL_J}.csv"
        write_inputs(wide_inputs(seed, SMALL_J), self.small_csv)

    def probe_argv(self) -> list[str]:
        return ["analyze", str(self.small_csv)]

    def warm_up(self) -> None:
        from ivrobust import cli

        with redirect_stdout(io.StringIO()):
            cli.main(["analyze", str(self.small_csv), "--seed", "0"])

    def argv(self, k: int) -> list[str]:
        return ["analyze", str(self.csv), "--methods", ",".join(ANALYZE_METHODS),
                "--format", "json", "--seed", str(op_seed(self.seed, k))]

    def op(self, k: int) -> float:
        from ivrobust import cli

        out = io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out):
            code = cli.main(self.argv(k))
        elapsed = time.perf_counter() - start
        if code != 0:
            raise GateFailure(f"ivrobust analyze exited {code}")
        thetas = {e["method"]: e["theta"] for e in json.loads(out.getvalue())["estimates"]}
        if tuple(thetas) != ANALYZE_METHODS:
            raise GateFailure(f"estimates for {tuple(thetas)}, expected {ANALYZE_METHODS}")
        for m, ref in self.expected.items():
            if not math.isclose(thetas[m], ref, rel_tol=REL_TOL, abs_tol=0.0):
                raise GateFailure(f"{m}: theta {thetas[m]!r} differs from reference {ref!r}")
        return elapsed

    def traced_op(self, k: int, tr: Tracer, stats: Counter) -> None:
        from ivrobust import harmonize, inverse_variance_weights, read_csv, run_methods

        real = tr.open("op.untraced", k)
        self.op(k)
        tr.close(real)

        # cli analyze: read, run_methods (harmonizes first), diagnostics (harmonizes again)
        root = tr.open("op.traced", k)
        s = tr.call("summary_data.read_csv", root, read_csv, self.csv)
        hs = tr.call("summary_data.harmonize", root, harmonize, s)
        seed = op_seed(self.seed, k)
        joint = tr.call("estimators.run_methods", root, run_methods, hs, ANALYZE_METHODS,
                        seed=seed)
        tr.call("summary_data.harmonize", root, harmonize, s)
        tr.close(root)

        attrib = tr.open("op.attribution", k)
        single = {m: tr.call(f"estimators.{m}", attrib, run_methods, hs, (m,), seed=seed)[m]
                  for m in ANALYZE_METHODS}
        check_subset_invariance(joint, single)
        penalty_step(tr, attrib, hs, inverse_variance_weights(hs), stats)
        tr.close(attrib)


WORKLOADS = {
    "study_all": lambda seed: Study(ALL, seed),
    "study_nonrobust": lambda seed: Study(NONROBUST, seed),
    "analyze_wide": Analyze,
}


# ---------------------------------------------------------------- harness

def measure_setup(workload, failures: Counter) -> float:
    """Median seconds of fresh-interpreter import plus one warm-up call.

    Each probe counts as an attempted operation; a failed one as a failure.
    """
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), *workload.probe_argv()]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            failures["SetupProbeFailed"] += 1
            print(f"set-up probe failed: {proc.stderr.strip()[-300:]}", file=sys.stderr)
            continue
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples) if samples else 0.0


def best_of_three(work) -> float:
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def numeric_reference(rng) -> float:
    """Seconds for a Python arithmetic loop and a numpy draw with a reduction.

    Best of three, on this core, now. Never change it, or the study
    workloads' ``op_cost`` changes scale.
    """
    def work():
        acc = 0
        for i in range(20_000):
            acc += i * i
        draw = rng.standard_normal(100_000)
        return float((draw * draw).sum()) + acc

    return best_of_three(work)


def object_reference(rng) -> float:
    """Seconds for float parsing and small-object allocation, plus the above.

    Best of three, on this core, now. Never change it, or the analyze
    workload's ``op_cost`` changes scale.
    """
    def work():
        acc = 0
        for i in range(10_000):
            acc += i * i
        parsed = [float(str(i) + ".5") for i in range(5_000)]
        pairs = [(i, x) for i, x in enumerate(parsed)]
        draw = rng.standard_normal(100_000)
        return float((draw * draw).sum()) + acc + len(pairs)

    return best_of_three(work)


def run_loop(seconds: float, body) -> tuple[int, list[int], Counter]:
    """Call ``body(k)`` for k = 0, 1, ... until ``seconds`` have passed.

    Returns the number attempted, the ops that completed, and the failures
    by exception type: a failure is counted and the loop goes on.
    ``gc.collect`` runs between operations, outside any timed region.
    """
    done: list[int] = []
    failures: Counter = Counter()
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        gc.collect()
        try:
            body(k)
            done.append(k)
        except Exception as exc:  # noqa: BLE001 - the benchmark must keep running
            failures[type(exc).__name__] += 1
            print(f"op {k} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        k += 1
    return k, done, failures


def untraced_metrics(workload, seconds: float):
    import numpy as np

    rng = np.random.default_rng(0)
    times: list[float] = []
    costs: list[float] = []
    refs = [workload.reference(rng)]

    def body(k: int) -> None:
        elapsed = workload.op(k)
        ref = workload.reference(rng)
        times.append(elapsed)
        costs.append(elapsed / (0.5 * (refs[-1] + ref)))
        refs.append(ref)

    attempted, _, failures = run_loop(seconds, body)
    metrics = {
        "op_cost": statistics.median(costs) if costs else 0.0,
        "setup_s": measure_setup(workload, failures),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"ops_per_s": len(times) / sum(times) if times else 0.0,
             "op_p50_ms": 1e3 * statistics.median(times) if times else 0.0,
             "op_samples": len(times),
             "reference_p50_ms": 1e3 * statistics.median(refs),
             "op_ms": [1e3 * t for t in times], "reference_ms": [1e3 * r for r in refs]}
    return attempted + SETUP_SAMPLES, failures, metrics, extra


def traced_metrics(workload, seconds: float, tr: Tracer):
    stats: Counter = Counter()
    attempted, ops, failures = run_loop(seconds, lambda k: workload.traced_op(k, tr, stats))
    per_op = tr.per_op_ms()

    def p50(name: str) -> float:
        return statistics.median(per_op[name].get(op, 0.0) for op in ops) if ops else 0.0

    def steps(op: int) -> float:
        return sum(per_op[name].get(op, 0.0) for name in PIPELINE)

    # untraced operation time not covered by the traced steps
    other = statistics.median(per_op["op.untraced"][op] - steps(op) for op in ops) if ops else 0.0
    # time inside the traced pipeline but outside its step spans: the tracer's own cost
    traced_total = sum(per_op["op.traced"][op] for op in ops)
    overhead = 100.0 * (traced_total - sum(steps(op) for op in ops)) / traced_total if ops else 0.0
    fits = stats["robust_mm.fits"]

    def per_fit(key: str, scale: float = 1.0) -> float:
        return scale * stats[key] / fits if fits else 0.0

    is_study = isinstance(workload, Study)
    metrics = {
        "simulation.generate_ms": p50("simulation.generate"),
        "simulation.extract_ms": p50("simulation.extract"),
        "simulation.regenerated": stats["simulation.regenerated"],
        "simulation.other_ms": other if is_study else 0.0,
        "summary_data.read_csv_ms": p50("summary_data.read_csv"),
        "summary_data.harmonize_ms": p50("summary_data.harmonize"),
        "estimators.run_methods_ms": p50("estimators.run_methods"),
        **{f"estimators.{m}_ms": p50(f"estimators.{m}") for m in ALL},
        "wls.fit_ms": p50("wls.fit"),
        "robust_mm.fit_ms": p50("robust_mm.fit"),
        "robust_mm.m_iterations": per_fit("robust_mm.iterations"),
        "robust_mm.exact_fit_pct": per_fit("robust_mm.exact_fit", 100.0),
        "robust_mm.nonconverged_pct": per_fit("robust_mm.nonconverged", 100.0),
        "robust_mm.se_unavailable_pct": per_fit("robust_mm.se_unavailable", 100.0),
        "penalization.cochran_q_ms": p50("penalization.cochran_q"),
        "penalization.penalized_variants":
            stats["penalization.penalized_variants"] / len(ops) if ops else 0.0,
        "median_methods.bootstrap_ms": p50("median_methods.bootstrap"),
        "cli.other_ms": 0.0 if is_study else other,
        "trace.overhead_pct": overhead,
    }
    extra = {"traced_ops": len(ops), "untraced_op_p50_ms": p50("op.untraced"),
             "traced_pipeline_p50_ms": p50("op.traced")}
    return attempted, failures, metrics, extra


def measure(workload, seconds: float, trace: bool):
    """Run one measurement; returns (result line, record, tracer)."""
    tr = Tracer()
    if trace:
        attempted, failures, metrics, extra = traced_metrics(workload, seconds, tr)
        units = PER_LAYER
    else:
        attempted, failures, metrics, extra = untraced_metrics(workload, seconds)
        units = END_TO_END
    failed = sum(failures.values())
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {"failed_pct": 100.0 * failed / attempted, "failure_types": dict(failures),
              **extra, "result": result}
    return result, record, tr


def load_package() -> None:
    """Import ivrobust from this checkout's src/ and nowhere else."""
    init = SRC / "ivrobust" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ivrobust

    if Path(ivrobust.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported ivrobust from {ivrobust.__file__}, not {init}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    load_package()
    env = environment()
    print(json.dumps({"environment": env}))
    workload = WORKLOADS[args.workload](args.seed)
    try:
        workload.warm_up()
    except Exception as exc:  # noqa: BLE001 - the measured operations count it
        print(f"warm-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    result, record, tr = measure(workload, args.seconds, bool(args.trace))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "environment": env, **record}, fh, indent=2)
    if args.trace:
        tr.write(OUT / f"{stem}.spans.jsonl")

    for name, m in result["metrics"].items():
        print(f"{args.workload:<16} {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:<16} {'failed_pct':<40} {record['failed_pct']:>14.6g} %"
          f"   ({result['failed']} of {result['attempted']}: "
          f"{record['failure_types'] or 'no failures'})")
    info_units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_samples": "count",
                  "reference_p50_ms": "ms", "traced_ops": "count", "untraced_op_p50_ms": "ms",
                  "traced_pipeline_p50_ms": "ms"}
    for name, unit in info_units.items():
        if name in record:
            print(f"{args.workload:<16} {name:<40} {record[name]:>14.6g} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
