"""Time the theta-scan kernel on a recorded spectrum-solve scan stream and record it.

    PYTHONPATH=src python tools/bench_scan.py LABEL [--out BENCH_scan.json]

Its problems are perfbench's spectra_cases for seeds 1-3
(perfbench/workloads.py, imported unchanged), the inputs of perfbench's
spectra workload.  One pass of compute_spectrum over them runs with
spectrum._theta_scan wrapped, which records every scan's arguments, and
with spectrum.eigenvalue wrapped, which counts each call's scans; that
stream is then replayed through shoot._theta_scan, against whichever
slprime the import finds.  Besides git_head, python, machine and nproc,
it records problems, eigenvalues, scans (theta-scans) and
pieces_scanned (piece-scans); scans_per_eigenvalue, the mean over
eigenvalues found, and scans_per_call_p50, _p90 and _max over
eigenvalue calls, the call that finds a finite spectrum's end included;
l0_ns_per_piece, the kernel's ns per piece (median of REPLAYS replays);
and pass_s, the untraced compute_spectrum pass time (median of PASSES
passes).  The run is stored under LABEL in the output JSON, next to the
runs already there, so one file can hold the same harness run on two
checkouts.

Core speed on a shared VM drifts by up to 2x between runs, so each
problem's share of a replay or pass is paired with a run of perfbench's
reference loop (perfbench/gauge.py, imported unchanged) just before it,
as perfbench's spectra workload pairs its calls.  l0_norm_ns_per_piece
and pass_norm_s sum time / reference time x REF_NOMINAL_S over the
problems: times on a core where the loop takes 1 ms.  Each of the four
times is recorded with its runs (l0_ns_per_piece_runs and so on).  The
pairing does not remove all drift: two runs of the same kernel read
435.8 and 465.5 normalised ns per piece (BENCH_scan.json
walk-state-parent and walk-state-change), so a change under about 7%
between two runs is not resolved.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import time
from pathlib import Path

from benchmeta import bench_parser, record, run_header

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402
from gauge import REF_NOMINAL_S, reference_seconds  # noqa: E402

SEEDS = (1, 2, 3)
REPLAYS = 15
PASSES = 7


def problems(count: int | None = None) -> list:
    """[(problem, n_max)] of spectra_cases over SEEDS, or its first count pairs."""
    pairs = ((case.problem, case.n_max)
             for seed in SEEDS for case in workloads.spectra_cases(seed))
    return list(itertools.islice(pairs, count))


def _solve_all(cases) -> int:
    """compute_spectrum over cases; the number of eigenvalues found."""
    from slprime.spectrum import compute_spectrum

    return sum(len(compute_spectrum(prob, n_max).eigenvalues) for prob, n_max in cases)


def _paired(work, chunks) -> tuple[float, float]:
    """(raw, normalised) seconds of work(chunk) over chunks, each after a reference loop run."""
    raw = norm = 0.0
    for chunk in chunks:
        ref = reference_seconds()
        t0 = time.perf_counter()
        work(chunk)
        dt = time.perf_counter() - t0
        raw += dt
        norm += dt / ref * REF_NOMINAL_S
    return raw, norm


def measure(count: int | None = None, replays: int = REPLAYS, passes: int = PASSES) -> dict:
    import slprime.spectrum as spectrum
    from slprime.shoot import _theta_scan as scan

    cases = problems(count)
    stream = []
    per_eigenvalue = []  # theta-scans of each eigenvalue call, found or not
    inner, solve = spectrum._theta_scan, spectrum.eigenvalue

    def recording(*args):
        stream.append(args)
        return inner(*args)

    def counting(*args, **kwargs):
        start = len(stream)
        try:
            return solve(*args, **kwargs)
        finally:
            per_eigenvalue.append(len(stream) - start)

    ends = [0]  # the stream's share of each problem ends at these
    spectrum._theta_scan, spectrum.eigenvalue = recording, counting
    try:
        eigenvalues = 0
        for case in cases:
            eigenvalues += _solve_all([case])
            ends.append(len(stream))
    finally:
        spectrum._theta_scan, spectrum.eigenvalue = inner, solve
    pieces = sum(len(args[0]) for args in stream)  # one entry per piece
    per_eigenvalue.sort()

    def replay(chunk):
        for args in chunk:
            scan(*args)

    chunks = [stream[i:j] for i, j in zip(ends, ends[1:])]
    replay_times = [_paired(replay, chunks) for _ in range(replays)]
    pass_times = [_paired(lambda case: _solve_all([case]), cases) for _ in range(passes)]
    l0_raw = [1e9 * raw / pieces for raw, _ in replay_times]
    l0_norm = [1e9 * norm / pieces for _, norm in replay_times]
    pass_raw = [raw for raw, _ in pass_times]
    pass_norm = [norm for _, norm in pass_times]

    package = Path(spectrum.__file__).resolve().parent
    return {
        **run_header(package),
        "problems": len(cases),
        "eigenvalues": eigenvalues,
        "scans": len(stream),
        "pieces_scanned": pieces,
        "scans_per_eigenvalue": len(stream) / eigenvalues,
        "scans_per_call_p50": per_eigenvalue[len(per_eigenvalue) // 2],
        "scans_per_call_p90": per_eigenvalue[int(0.9 * len(per_eigenvalue))],
        "scans_per_call_max": per_eigenvalue[-1],
        "l0_ns_per_piece": statistics.median(l0_raw),
        "l0_ns_per_piece_runs": [round(x, 1) for x in l0_raw],
        "l0_norm_ns_per_piece": statistics.median(l0_norm),
        "l0_norm_ns_per_piece_runs": [round(x, 1) for x in l0_norm],
        "pass_s": statistics.median(pass_raw),
        "pass_s_runs": [round(x, 4) for x in pass_raw],
        "pass_norm_s": statistics.median(pass_norm),
        "pass_norm_s_runs": [round(x, 4) for x in pass_norm],
    }


def main(argv) -> int:
    args = bench_parser(__doc__, "BENCH_scan.json").parse_args(argv)
    run = measure()
    print(f"{args.label}: {run['l0_ns_per_piece']:.1f} ns/piece, "
          f"{run['scans_per_eigenvalue']:.3f} scans/eigenvalue (p50 {run['scans_per_call_p50']}, "
          f"p90 {run['scans_per_call_p90']}, max {run['scans_per_call_max']}), "
          f"{run['pieces_scanned']} piece-scans, pass {run['pass_s']:.4f} s; normalised "
          f"{run['l0_norm_ns_per_piece']:.1f} ns/piece, pass {run['pass_norm_s']:.4f} s",
          file=sys.stderr)
    record(args.out, args.label, run)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
