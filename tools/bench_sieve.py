"""Measure the prime paths of `primes` and `series`, layer by layer and as whole processes.

    PYTHONPATH=src python tools/bench_sieve.py LABEL [--out BENCH_sieve.json] [--ceiling]

Per layer, in this process against whichever slprime the import finds,
it records the time (median of REPS untraced calls) and the tracemalloc
peak (one traced call) of three calls: p_n at the checkpoints of
`primes --n-max 10000000`, partial_sum_primes(0.25, 10**6) and
partial_sum_spectrum(pi^2, 0.25, 10**6).  End to end it runs
`python -m slprime.cli primes --n-max 10000000` and `series --n-max
1000000` REPS times each, as child processes of the same package, and
records wall time and max RSS (ru_maxrss from os.wait4).  --ceiling
adds one run of `primes --n-max 50847534`, pi(10^9), the largest index
the sieve serves.  The run is stored under LABEL in the output JSON,
next to the runs already there, so one file can hold the same harness
run on two checkouts.
"""

from __future__ import annotations

import importlib.util
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from benchmeta import bench_parser, record, run_header

REPS = 5
PRIMES_N = 10_000_000
SERIES_N = 1_000_000
CEILING_N = 50_847_534


def _layer(call, reps: int) -> dict:
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        call()
        walls.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "wall_s": round(statistics.median(walls), 4),
        "wall_s_runs": [round(w, 4) for w in walls],
        "traced_peak_mb": round(peak / 2**20, 2),
    }


def _run_cli(src: Path, args: list[str]) -> tuple[float, float]:
    """(wall s, max RSS MB) of one `python -m slprime.cli ARGS` process on the package in src."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "slprime.cli", *args], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if proc.returncode != 0:
        raise RuntimeError(f"slprime {' '.join(args)} exited {proc.returncode}")
    return wall, usage.ru_maxrss / 1024.0  # KB on Linux


def _process(src: Path, args: list[str], reps: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        runs = [_run_cli(src, [*args, "--out", f"{tmp}/out.csv"]) for _ in range(reps)]
    return {
        "argv": args,
        "wall_s": round(statistics.median(w for w, _ in runs), 4),
        "wall_s_runs": [round(w, 4) for w, _ in runs],
        "max_rss_mb": round(statistics.median(r for _, r in runs), 2),
        "max_rss_mb_runs": [round(r, 2) for _, r in runs],
    }


def measure(primes_n: int = PRIMES_N, series_n: int = SERIES_N, reps: int = REPS,
            ceiling: bool = False) -> dict:
    src = Path(importlib.util.find_spec("slprime").origin).resolve().parents[1]
    # processes first: a child's ru_maxrss includes the RSS of the process it was forked
    # from, so they run before this one imports numpy or sieves anything
    processes = {
        "primes": _process(src, ["primes", "--n-max", str(primes_n)], reps),
        "series": _process(src, ["series", "--n-max", str(series_n)], reps),
    }
    if ceiling:
        processes["primes_ceiling"] = _process(src, ["primes", "--n-max", str(CEILING_N)], 1)

    import numpy  # noqa: F401  slprime imports it lazily; no layer's first call should pay for that
    from slprime.analysis import partial_sum_primes, partial_sum_spectrum
    from slprime.cli import _prime_checkpoints
    from slprime.primes import nth_primes

    checkpoints = _prime_checkpoints(primes_n)
    layers = {
        "checkpoint_reader": _layer(lambda: nth_primes(checkpoints), reps),
        "partial_sum_primes": _layer(lambda: partial_sum_primes(0.25, series_n), reps),
        "partial_sum_spectrum": _layer(
            lambda: partial_sum_spectrum(math.pi**2, 0.25, series_n), reps
        ),
    }
    return {
        **run_header(src / "slprime"),
        "checkpoints": len(checkpoints),
        "layers": layers,
        "processes": processes,
    }


def main(argv) -> int:
    parser = bench_parser(__doc__, "BENCH_sieve.json")
    parser.add_argument("--ceiling", action="store_true",
                        help=f"also run primes --n-max {CEILING_N} once")
    args = parser.parse_args(argv)
    run = measure(ceiling=args.ceiling)
    for name, layer in run["layers"].items():
        print(f"{args.label} {name}: {layer['wall_s']:.4f} s, "
              f"traced peak {layer['traced_peak_mb']:.2f} MB", file=sys.stderr)
    for name, proc in run["processes"].items():
        print(f"{args.label} {name}: {proc['wall_s']:.3f} s, max RSS {proc['max_rss_mb']:.1f} MB",
              file=sys.stderr)
    record(args.out, args.label, run)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
