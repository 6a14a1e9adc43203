"""Time the inverse search at its default shape on seeds 101-110 and record it.

    PYTHONPATH=src python tools/bench_invert.py LABEL [--out BENCH_invert_lm.json]

Runs search(SearchConfig(seed=s)) for s = 101..110 one after another in
this process (SLPRIME_THREADS=1, so every count is made here and repeats
exactly) against whichever slprime the import finds.  For each seed it
records best/baseline, wall time, evaluations (spectrum solves the search
starts, the q = 0 baseline included, whether or not it finishes them),
theta-scans, the share of them that the root loop passed the windings of
its bracket ends (bracketed_share), and Jacobians (eigenfunction walks).
The run is stored under LABEL in the output JSON, next to the runs
already there, so one file can hold the same harness run on two
checkouts.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from benchmeta import bench_parser, record, run_header

SEEDS = range(101, 111)


def _counted(module, name, counts, key=None):
    """Count each call of module.name under counts[key(args)] (default: name); None skips it."""
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        slot = name if key is None else key(args)
        if slot is not None:
            counts[slot] += 1
        return inner(*args, **kwargs)

    setattr(module, name, wrapper)


def measure() -> dict:
    os.environ["SLPRIME_THREADS"] = "1"
    import slprime.inverse as inverse
    import slprime.spectrum as spectrum

    counts = {"evaluations": 0, "_theta_scan": 0, "bracketed": 0, "_jacobian": 0}
    # every spectrum solve, whole or cut short, starts with index 1
    _counted(spectrum, "eigenvalue", counts, lambda args: "evaluations" if args[1] == 1 else None)
    # a scan passed the windings of its bracket ends (none on a kernel without them)
    _counted(spectrum, "_theta_scan", counts,
             lambda args: "_theta_scan" if args[3:] in ((), (None,)) else "bracketed")
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
            "evaluations": counts["evaluations"],
            "theta_scans": counts["_theta_scan"] + counts["bracketed"],
            "bracketed_share": counts["bracketed"] / (counts["_theta_scan"] + counts["bracketed"]),
            "jacobians": counts["_jacobian"],
        })
        print(f"seed {seed}: ratio {runs[-1]['ratio']!r} in {wall:.2f} s, "
              f"{runs[-1]['evaluations']} evaluations, {runs[-1]['theta_scans']} theta-scans "
              f"({runs[-1]['bracketed_share']:.3f} bracketed), "
              f"{runs[-1]['jacobians']} Jacobians", file=sys.stderr)
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
