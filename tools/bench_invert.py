"""Time the inverse search at its default shape on seeds 101-110 and record it.

    PYTHONPATH=src python tools/bench_invert.py LABEL [--out BENCH_invert_lm.json]

Runs search(SearchConfig(seed=s)) for s = 101..110 one after another in
this process (SLPRIME_THREADS=1, so every count is made here and repeats
exactly) against whichever slprime the import finds.  For each seed it
records best/baseline, wall time, evaluations (spectrum solves the search
makes, the q = 0 baseline included) and Jacobians (eigenfunction walks;
0 for a search without them).  The run is stored under LABEL in the
output JSON, next to the runs already there, so one file can hold the
same harness run on two checkouts.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from benchmeta import bench_parser, record, run_header

SEEDS = range(101, 111)


def _counted(module, name, counts):
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return inner(*args, **kwargs)

    setattr(module, name, wrapper)


def measure() -> dict:
    os.environ["SLPRIME_THREADS"] = "1"
    import slprime.inverse as inverse

    counts = {"compute_spectrum": 0, "_jacobian": 0}
    _counted(inverse, "compute_spectrum", counts)
    if hasattr(inverse, "_jacobian"):
        _counted(inverse, "_jacobian", counts)
    inverse.search(inverse.SearchConfig(pieces=1, targets=1, restarts=1, max_iters=1))  # warm-up

    runs = []
    for seed in SEEDS:
        for key in counts:
            counts[key] = 0
        t0 = time.perf_counter()
        res = inverse.search(inverse.SearchConfig(seed=seed))
        wall = time.perf_counter() - t0
        runs.append({
            "seed": seed,
            "best_objective": res.best_objective,
            "baseline_objective": res.baseline_objective,
            "ratio": res.best_objective / res.baseline_objective,
            "wall_s": round(wall, 3),
            "evaluations": counts["compute_spectrum"],
            "jacobians": counts["_jacobian"],
        })
        print(f"seed {seed}: ratio {runs[-1]['ratio']!r} in {wall:.2f} s, "
              f"{runs[-1]['evaluations']} evaluations, {runs[-1]['jacobians']} Jacobians",
              file=sys.stderr)
    package = Path(inverse.__file__).resolve().parent
    return {
        **run_header(package),
        "config": "SearchConfig(seed=s) defaults: 16 pieces, bound 200, 8 targets, 4 restarts",
        "total_wall_s": round(sum(r["wall_s"] for r in runs), 3),
        "runs": runs,
    }


def main(argv) -> int:
    args = bench_parser(__doc__, "BENCH_invert_lm.json").parse_args(argv)
    record(args.out, args.label, measure())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
