"""Measure the prime paths of `primes` and `series`, layer by layer and as whole processes.

    PYTHONPATH=src python tools/bench_sieve.py LABEL [--out BENCH_sieve.json]

Per layer, in this process against whichever slprime the import finds,
it times (median of REPS untraced calls) and traces (one call) three
calls: checkpoint_reader, p_n at the checkpoints of `primes --n-max
10000000`; partial_sum_primes(0.25, 10**6); and
partial_sum_spectrum(pi^2, 0.25, 10**6).  End to end it runs `python -m
slprime.cli primes --n-max 10000000` and `series --n-max 1000000`, the
short prime reads of perfbench's cli round (`nonlinear --n-max 1000`,
`incompat --n-max 10000` on the unit string, and `invert` on a 1-piece,
1-restart search) and the long table `spectrum --n-max 100000` on the
unit string, REPS times each, as child processes of the same package.
The children share one bytecode cache, made empty in the harness's
temporary directory (PYTHONPYCACHEPREFIX) and written by the first run
that imports a module, so two checkouts start alike and no run reads or
writes a __pycache__ under src/; the harness's own imports write none.

Besides git_head, python, machine and nproc, it records checkpoints
(their count), layers (wall_s, wall_s_runs and traced_peak_mb per
layer) and processes (argv, wall_s, wall_s_runs, max_rss_mb and
max_rss_mb_runs per process; max RSS is ru_maxrss from os.wait4).
Times are stored unrounded, so a layer that runs in microseconds never
reads 0.  The run is stored under LABEL in the output JSON, next to the
runs already there, so one file can hold the same harness run on two
checkouts.
"""

from __future__ import annotations

import importlib.util
import json
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
# the problems of perfbench's cli round: the unit string and its 1-piece, 1-restart search
DOCS = {
    "unit.json": {
        "interval": {"a": 0.0, "b": 1.0},
        "coefficients": {name: {"breakpoints": [0.0, 1.0], "values": [value]}
                         for name, value in (("s", 1.0), ("q", 0.0), ("r", 1.0))},
        "bc": {"alpha": 0.0, "beta": "pi"},
    },
    "invert.json": {"pieces": 1, "targets": 1, "seed": 42, "restarts": 1, "max_iters": 60},
}
SHORT_READS = {
    "nonlinear": ["nonlinear", "--n-max", "1000"],
    "incompat": ["incompat", "--config", "unit.json", "--n-max", "10000"],
    "invert": ["invert", "--config", "invert.json"],
}
# the long table: 10^5 rows of the unit string's spectrum, written as they are made
LONG_TABLE = ["spectrum", "--config", "unit.json", "--n-max", "100000"]


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
        "wall_s": statistics.median(walls),
        "wall_s_runs": walls,
        "traced_peak_mb": round(peak / 2**20, 2),
    }


def _run_cli(src: Path, work: str, args: list[str]) -> tuple[float, float]:
    """(wall s, max RSS MB) of one `python -m slprime.cli ARGS` process in work."""
    env = {**os.environ, "PYTHONPATH": str(src),
           "PYTHONPYCACHEPREFIX": str(Path(work, "pycache"))}
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # or every run compiles the stdlib and numpy too
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "slprime.cli", *args], env=env,
                            cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if proc.returncode != 0:
        raise RuntimeError(f"slprime {' '.join(args)} exited {proc.returncode}: {err[-500:]!r}")
    return wall, usage.ru_maxrss / 1024.0  # KB on Linux


def _process(src: Path, work: str, args: list[str], reps: int) -> dict:
    runs = [_run_cli(src, work, [*args, "--out", "out.csv"]) for _ in range(reps)]
    return {
        "argv": args,
        "wall_s": statistics.median(w for w, _ in runs),
        "wall_s_runs": [w for w, _ in runs],
        "max_rss_mb": round(statistics.median(r for _, r in runs), 2),
        "max_rss_mb_runs": [round(r, 2) for _, r in runs],
    }


def measure(primes_n: int = PRIMES_N, series_n: int = SERIES_N, reps: int = REPS) -> dict:
    src = Path(importlib.util.find_spec("slprime").origin).resolve().parents[1]
    # processes first: a child's ru_maxrss includes the RSS of the process it was forked
    # from, so they run before this one imports numpy or sieves anything
    with tempfile.TemporaryDirectory() as work:
        for name, doc in DOCS.items():
            Path(work, name).write_text(json.dumps(doc), encoding="utf-8")
        processes = {
            "primes": _process(src, work, ["primes", "--n-max", str(primes_n)], reps),
            "series": _process(src, work, ["series", "--n-max", str(series_n)], reps),
            **{name: _process(src, work, args, reps) for name, args in SHORT_READS.items()},
            "spectrum": _process(src, work, LONG_TABLE, reps),
        }

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
    args = bench_parser(__doc__, "BENCH_sieve.json").parse_args(argv)
    sys.dont_write_bytecode = True  # this process's own imports leave src/ as its children do
    run = measure()
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
