"""Core-speed gauge: a fixed pure-Python reference loop, run in or beside the work.

The bounds were set on a shared 2-core VM whose host cores are
intermittently slow: the same work took anywhere from 1x to 1.9x as long
depending on the second, with process CPU time tracking wall time and no
steal, so neither CPU time nor a longer run removes it.  Normalising by the
reference loop removes most of it from pure-Python work, though not from
numpy work over large arrays.  A figure normalised this way is in seconds
of a core on which the loop takes REF_NOMINAL_S (1 ms), about that VM's
uncontended speed.

Two ways to pair work with the loop:

- reference_seconds() on the same thread, next to each call (spectra);
- Sampler, a separate process that runs a quarter loop every 20 ms and
  logs when and how long, so that work in other processes is divided by
  the mean slowdown over its own time window.  The gauge must share the
  cores the work runs on: the inverse pool keeps both cores busy, and
  set-up probes run under one_core() with the gauge.
  It costs about 1.3% of one core.

    python3 perfbench/gauge.py OUT_FILE    # the sampler process itself
"""

from __future__ import annotations

import contextlib
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

REF_ITERS = 5500  # about 1 ms on an uncontended core of the VM the bounds were set on
REF_NOMINAL_S = 1e-3
SAMPLE_ITERS = REF_ITERS // 4
SAMPLE_PERIOD_S = 0.02


def reference_seconds(iters: int = REF_ITERS) -> float:
    """Wall time of the fixed reference loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(iters):
        x = i * 1e-3
        acc += math.sin(x) * math.cos(x) + math.atan2(x, 1.0 + acc * 1e-9)
    return time.perf_counter() - t0


@contextlib.contextmanager
def one_core():
    """Pin this process, and every process it starts meanwhile, to one core.

    A Sampler started inside then shares that core with the work, so it
    sees the speed the work gets.  Only for work that is one process on one
    thread, which pinning does not change.
    """
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cores)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cores)


class Sampler:
    """Context manager running the sampler process; slowdown(t0, t1) reads its log.

    Times are time.perf_counter() values, which on Linux share one clock
    (CLOCK_MONOTONIC) across processes.
    """

    def __init__(self, work: Path):
        self.path = work / f"gauge-{os.getpid()}.log"
        self.samples: list[tuple[float, float]] = []

    def __enter__(self):
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(self.path)],
            stdout=subprocess.PIPE,
        )
        self.proc.stdout.readline()  # the first sample is logged
        return self

    def __exit__(self, *exc):
        self.proc.terminate()
        self.proc.wait()
        self.proc.stdout.close()
        lines = self.path.read_text(encoding="utf-8").split("\n")[:-1]  # whole lines only
        self.samples = [tuple(float(x) for x in line.split()) for line in lines]
        self.path.unlink()
        return False

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean reference time over [t0, t1] relative to nominal, the slowest 10% dropped.

        The slowest samples are those the scheduler cut into; a window
        shorter than one sample period uses the nearest sample.
        """
        inside = sorted(dt for t, dt in self.samples if t0 <= t <= t1)
        if not inside:
            mid = 0.5 * (t0 + t1)
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        kept = inside[: max(1, math.ceil(0.9 * len(inside)))]
        return statistics.fmean(kept) / (REF_NOMINAL_S * SAMPLE_ITERS / REF_ITERS)


def _sample_forever(path: str) -> None:
    with open(path, "w", encoding="utf-8") as log:
        started = False
        while True:
            dt = reference_seconds(SAMPLE_ITERS)
            log.write(f"{time.perf_counter()!r} {dt!r}\n")
            log.flush()
            if not started:
                print("started", flush=True)
                started = True
            time.sleep(SAMPLE_PERIOD_S)


if __name__ == "__main__":
    _sample_forever(sys.argv[1])
