"""Time the inverse search at its default shape on seeds 101-110 and record it.

    PYTHONPATH=src python tools/bench_invert.py LABEL [--out BENCH_invert_lm.json]

Runs search(SearchConfig(seed=s)) for s = 101..110 one after another in
this process (SLPRIME_THREADS=1, so every count is made here and repeats
exactly) against whichever slprime the import finds.  For each seed it
records best/baseline, wall time, evaluations (spectrum solves the search
starts, the q = 0 baseline included, whether or not it finishes them),
theta-scans, the share of them passed the windings of two scanned points
around them (bracketed_share: any scan between two scanned points), and
Jacobians (eigenfunction walks).  The run is stored under LABEL in the
output JSON, next to the runs already there, so one file can hold the
same harness run on two checkouts.

Core speed on a shared VM drifts by up to 2x between runs, so each
seed's search is paired with a run of perfbench's reference loop
(perfbench/gauge.py, imported unchanged) just before it, as
tools/bench_scan.py pairs its problems.  wall_norm_s is the search's
time / reference time x REF_NOMINAL_S, its time on a core where the loop
takes 1 ms, and total_norm_s their sum, next to the raw wall_s and
total_wall_s.  One 1 ms loop reads the speed of its moment only, so
wall_norm_s still moves with drift during a search.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
from pathlib import Path

from benchmeta import bench_parser, record, run_header

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from gauge import REF_NOMINAL_S, reference_seconds  # noqa: E402

SEEDS = range(101, 111)


def _counted(module, name, counts, key=None):
    """Count each call of module.name under counts[key(args)] (default: name); None skips it.

    Returns a function that puts the uncounted binding back.
    """
    inner = getattr(module, name)

    def wrapper(*args, **kwargs):
        slot = name if key is None else key(args)
        if slot is not None:
            counts[slot] += 1
        return inner(*args, **kwargs)

    setattr(module, name, wrapper)
    return lambda: setattr(module, name, inner)


def measure(seeds=SEEDS, shape: dict | None = None) -> dict:
    """One search(SearchConfig(seed=s, **shape)) per seed, each after a reference loop run."""
    os.environ["SLPRIME_THREADS"] = "1"
    import slprime.inverse as inverse
    import slprime.spectrum as spectrum

    shape = shape or {}
    counts = {"evaluations": 0, "_theta_scan": 0, "bracketed": 0, "_jacobian": 0}
    restore = [
        # every spectrum solve, whole or cut short, starts with index 1
        _counted(spectrum, "eigenvalue", counts,
                 lambda args: "evaluations" if args[1] == 1 else None),
        # a scan passed two windings (none on a kernel without them)
        _counted(spectrum, "_theta_scan", counts,
                 lambda args: "_theta_scan" if args[3:] in ((), (None,)) else "bracketed"),
        _counted(inverse, "_jacobian", counts),
    ]
    runs = []
    try:
        inverse.search(inverse.SearchConfig(pieces=1, targets=1, restarts=1, max_iters=1))  # warm-up
        for seed in seeds:
            for key in counts:
                counts[key] = 0
            ref = reference_seconds()
            t0 = time.perf_counter()
            res = inverse.search(inverse.SearchConfig(seed=seed, **shape))
            wall = time.perf_counter() - t0
            scans = counts["_theta_scan"] + counts["bracketed"]
            runs.append({
                "seed": seed,
                "best_objective": res.best_objective,
                "baseline_objective": res.baseline_objective,
                "ratio": res.best_objective / res.baseline_objective,
                "wall_s": wall,
                "wall_norm_s": wall / ref * REF_NOMINAL_S,
                "evaluations": counts["evaluations"],
                "theta_scans": scans,
                "bracketed_share": counts["bracketed"] / scans,
                "jacobians": counts["_jacobian"],
            })
            print(f"seed {seed}: ratio {runs[-1]['ratio']!r} in {wall:.2f} s "
                  f"({runs[-1]['wall_norm_s']:.2f} s normalised), "
                  f"{runs[-1]['evaluations']} evaluations, {scans} theta-scans "
                  f"({runs[-1]['bracketed_share']:.3f} bracketed), "
                  f"{runs[-1]['jacobians']} Jacobians", file=sys.stderr)
    finally:
        for undo in restore:
            undo()
    config = dataclasses.asdict(inverse.SearchConfig(**shape))
    del config["seed"]
    package = Path(inverse.__file__).resolve().parent
    return {
        **run_header(package),
        "config": config,  # the SearchConfig fields besides the seed
        "seeds": list(seeds),
        "total_wall_s": sum(r["wall_s"] for r in runs),
        "total_norm_s": sum(r["wall_norm_s"] for r in runs),
        "runs": runs,
    }


def main(argv) -> int:
    args = bench_parser(__doc__, "BENCH_invert_lm.json").parse_args(argv)
    record(args.out, args.label, measure())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
