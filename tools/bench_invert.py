"""Time the inverse search at its default shape on seeds 101-110 and record it.

    PYTHONPATH=src python tools/bench_invert.py LABEL [--out BENCH_invert_lm.json]

Runs search(SearchConfig(seed=s)) for s = 101..110 one after another in
this process (SLPRIME_THREADS=1, so every count is made here and repeats
exactly) against whichever slprime the import finds.  Besides git_head,
python, machine and nproc, it records config (the SearchConfig fields
besides the seed), seeds, total_wall_s, total_norm_s and runs, one per
seed: seed, best_objective, baseline_objective, ratio (best/baseline),
wall_s, evaluations (spectrum solves the search starts, the q = 0
baseline included, whether or not it finishes them), theta_scans,
jacobians (eigenfunction walks), slowdown and wall_norm_s.  The run is
stored under LABEL in the output JSON, next to the runs already there,
so one file can hold the same harness run on two checkouts.

Core speed on a shared VM drifts by up to 2x between runs and within a
3 s search, so the searches run beside perfbench's gauge process
(perfbench/gauge.py Sampler, imported unchanged), which times its
reference loop every 20 ms, as perfbench's inverse workload does.  The
search is one thread here, so it and the gauge are pinned to one core
(gauge.one_core) and the gauge sees the speed the search gets.  Each
seed's slowdown is the gauge's mean over that search's own window, and
wall_norm_s = wall_s / slowdown, its time on a core where the loop takes
1 ms; total_norm_s is their sum, next to the raw wall_s and total_wall_s.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile
import time
from pathlib import Path

from benchmeta import bench_parser, record, run_header

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from gauge import Sampler, one_core  # noqa: E402

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
    """One search(SearchConfig(seed=s, **shape)) per seed, on one core with the gauge process."""
    os.environ["SLPRIME_THREADS"] = "1"
    import slprime.inverse as inverse
    import slprime.spectrum as spectrum

    shape = shape or {}
    counts = {"evaluations": 0, "_theta_scan": 0, "_jacobian": 0}
    restore = [
        # every spectrum solve, whole or cut short, starts with index 1
        _counted(spectrum, "eigenvalue", counts,
                 lambda args: "evaluations" if args[1] == 1 else None),
        _counted(spectrum, "_theta_scan", counts),
        _counted(inverse, "_jacobian", counts),
    ]
    runs, windows = [], []
    try:
        inverse.search(inverse.SearchConfig(pieces=1, targets=1, restarts=1, max_iters=1))  # warm-up
        with (one_core(), tempfile.TemporaryDirectory() as work,
              Sampler(Path(work)) as gauge):
            for seed in seeds:
                for key in counts:
                    counts[key] = 0
                t0 = time.perf_counter()
                res = inverse.search(inverse.SearchConfig(seed=seed, **shape))
                windows.append((t0, time.perf_counter()))
                runs.append({
                    "seed": seed,
                    "best_objective": res.best_objective,
                    "baseline_objective": res.baseline_objective,
                    "ratio": res.best_objective / res.baseline_objective,
                    "wall_s": windows[-1][1] - t0,
                    "evaluations": counts["evaluations"],
                    "theta_scans": counts["_theta_scan"],
                    "jacobians": counts["_jacobian"],
                })
    finally:
        for undo in restore:
            undo()
    for run, window in zip(runs, windows):  # the gauge's log is read once it has stopped
        run["slowdown"] = gauge.slowdown(*window)
        run["wall_norm_s"] = run["wall_s"] / run["slowdown"]
        print(f"seed {run['seed']}: ratio {run['ratio']!r} in {run['wall_s']:.2f} s "
              f"({run['wall_norm_s']:.2f} s normalised), "
              f"{run['evaluations']} evaluations, {run['theta_scans']} theta-scans, "
              f"{run['jacobians']} Jacobians", file=sys.stderr)
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
