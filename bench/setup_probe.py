"""Time one fresh set-up of ivrobust: the import plus one warm-up call.

Usage (run.py starts it in a fresh interpreter several times)::

    python3 bench/setup_probe.py study METHODS SPEC_SEED
    python3 bench/setup_probe.py analyze SMALL_CSV

The warm-up is one replicate at the study settings, or one analyze call on a
J = 25 CSV; it fills lazy state such as the robust scale's consistency
constant. Prints the elapsed seconds as the last line.
"""
import io
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import ivrobust  # noqa: E402
from ivrobust import cli  # noqa: E402

if sys.argv[1] == "study":
    spec = ivrobust.ScenarioSpec(scenario=1, theta=0.1, n=40_000, j=25, n_sim=1,
                                 seed=int(sys.argv[3]))
    ivrobust.run_study(spec, sys.argv[2].split(","), threads=1)
else:
    with redirect_stdout(io.StringIO()):
        if cli.main(["analyze", sys.argv[2], "--seed", "0"]) != 0:
            raise SystemExit("warm-up analyze call failed")
print(time.perf_counter() - start)
