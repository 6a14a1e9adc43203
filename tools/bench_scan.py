"""Time the theta-scan kernel on a recorded spectrum-solve scan stream and record it.

    PYTHONPATH=src python tools/bench_scan.py LABEL [--out BENCH_scan.json]

Its problems are perfbench's spectra_cases for seeds 1-3
(perfbench/workloads.py, imported unchanged), the inputs of perfbench's
spectra workload.  One pass of compute_spectrum over them runs with
spectrum._theta_scan wrapped, which records every scan's arguments, and
with spectrum.eigenvalue wrapped, which counts each call's scans; that
stream is then replayed through shoot._theta_scan.  It records the
kernel's ns per piece (median of the replays), theta-scans and
piece-scans, theta-scans per eigenvalue (the mean over eigenvalues
found; p50, p90 and max over eigenvalue calls, the call that finds a
finite spectrum's end included), unchecked_share (the share of problems
whose scan records let the kernel skip the state's size test on every
oscillating piece, and of piece-scans over such records),
bracketed_share (the share of scans, and of piece-scans, passed the
windings of two scanned points around them: any scan between two
scanned points) with the kernel's ns per piece over each kind of scan
replayed alone (by_kind), and the untraced
compute_spectrum pass time (median of the passes), against whichever
slprime the import finds.

It also records the fixed costs that ns per piece misses.
l0_one_piece_ns_per_scan replays every scan of the stream with its
records cut to the first piece and counting (no windings passed): the
per-scan intercept, a kernel call's entry and exit plus one piece.
outside_eigenvalue times passes with spectrum.eigenvalue wrapped by a
clock: the pass time spent outside eigenvalue calls (per-call set-up,
the content hash, the walk itself; the wrapper's own cost lands partly
there), as seconds and as a share of each pass (medians).
bookkeeping times passes with spectrum._theta_scan replaced by a replay
of the recorded results in order, which raises unless each call's
(lam, within) is the recorded one: the pass without the kernel, that is
the walk's bookkeeping plus the replay stub, next to the stub's own cost
(the stub called on the recorded stream alone), both normalised, and
their difference per scan and per index (eigenvalue call).
The run is stored under LABEL in the output JSON, next to the runs
already there, so one file can hold the same harness run on two
checkouts.

Core speed on a shared VM drifts by up to 2x between runs, so each
problem's share of a replay or pass is paired with a run of perfbench's
reference loop (perfbench/gauge.py, imported unchanged) just before it,
as perfbench's spectra workload pairs its calls.  l0_norm_ns_per_piece
and pass_norm_s sum time / reference time x REF_NOMINAL_S over the
problems: times on a core where the loop takes 1 ms, next to the raw
l0_ns_per_piece and pass_s.
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


def _outside_eigenvalue(spectrum, cases) -> tuple[float, float]:
    """(seconds outside eigenvalue calls, pass seconds) of one compute_spectrum pass over cases."""
    solve, inside = spectrum.eigenvalue, [0.0]

    def clocked(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return solve(*args, **kwargs)
        finally:
            inside[0] += time.perf_counter() - t0

    spectrum.eigenvalue = clocked
    try:
        t0 = time.perf_counter()
        _solve_all(cases)
        total = time.perf_counter() - t0
    finally:
        spectrum.eigenvalue = solve
    return total - inside[0], total


def replayer(stream: list, results: list):
    """A stand-in for spectrum._theta_scan that returns results in order.

    Call i must pass the lam and within of stream[i] (a recorded argument
    tuple), or it raises RuntimeError: a replay that drifts from the
    recorded walk measures nothing.
    """
    position = iter(range(len(results)))

    def replay(records, state, lam, within=None):
        i = next(position, len(results))
        if i == len(results) or stream[i][2:] != (lam, within):
            raise RuntimeError(f"scan {i} at lam = {lam!r}, within = {within!r} is not the recorded one")
        return results[i]

    return replay


def measure(count: int | None = None, replays: int = REPLAYS, passes: int = PASSES) -> dict:
    import slprime.shoot as shoot
    import slprime.spectrum as spectrum

    cases = problems(count)
    stream, results = [], []
    per_eigenvalue = []  # theta-scans of each eigenvalue call, found or not
    inner, solve = spectrum._theta_scan, spectrum.eigenvalue

    def recording(*args):
        stream.append(args)
        results.append(inner(*args))
        return results[-1]

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
    # a record's last field is False where the kernel skips the size test
    # after an oscillating piece (a kernel without that flag skips nothing)
    unchecked = [not any(rec[-1] is not False for rec in args[0]) for args in stream]
    unchecked_problems = sum(unchecked[i] for i, j in zip(ends, ends[1:]) if j > i)
    unchecked_pieces = sum(len(args[0]) for args, free in zip(stream, unchecked) if free)
    # a scan is bracketed where it was passed the windings of two scanned
    # points around it (a kernel that takes no such argument has none)
    bracketed = [args[3:] not in ((), (None,)) for args in stream]

    scan = shoot._theta_scan

    def replay(chunk):
        for args in chunk:
            scan(*args)

    chunks = [stream[i:j] for i, j in zip(ends, ends[1:])]
    replay_times = [_paired(replay, chunks) for _ in range(replays)]
    by_kind = {}
    for kind, label in ((False, "counted"), (True, "bracketed")):
        kind_chunks = [[args for args, b in zip(chunk, bracketed[i:j]) if b is kind]
                       for chunk, i, j in zip(chunks, ends, ends[1:])]
        kind_pieces = sum(len(args[0]) for chunk in kind_chunks for args in chunk)
        if kind_pieces:
            times = [_paired(replay, kind_chunks) for _ in range(replays)]
            by_kind[label] = {
                "pieces": kind_pieces,
                "l0_ns_per_piece": statistics.median(1e9 * raw / kind_pieces for raw, _ in times),
                "l0_norm_ns_per_piece": statistics.median(1e9 * norm / kind_pieces for _, norm in times),
            }
    one_piece_chunks = [[(args[0][:1], *args[1:3]) for args in chunk] for chunk in chunks]
    one_piece_times = [_paired(replay, one_piece_chunks) for _ in range(replays)]
    pass_times = [_paired(lambda case: _solve_all([case]), cases) for _ in range(passes)]
    outside = [_outside_eigenvalue(spectrum, cases) for _ in range(passes)]
    replayed, stub = [], []
    try:
        for _ in range(passes):
            spectrum._theta_scan = replayer(stream, results)
            replayed.append(_paired(lambda case: _solve_all([case]), cases)[1])
            alone = replayer(stream, results)
            stub.append(_paired(lambda chunk: [alone(*args) for args in chunk], chunks)[1])
    finally:
        spectrum._theta_scan = inner
    bookkeeping = statistics.median(replayed) - statistics.median(stub)
    l0_raw = [1e9 * raw / pieces for raw, _ in replay_times]
    l0_norm = [1e9 * norm / pieces for _, norm in replay_times]
    pass_raw = [raw for raw, _ in pass_times]
    pass_norm = [norm for _, norm in pass_times]

    package = Path(shoot.__file__).resolve().parent
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
        "unchecked_share": {"problems": unchecked_problems / len(cases),
                            "pieces": unchecked_pieces / pieces},
        "bracketed_share": {"scans": sum(bracketed) / len(stream),
                            "pieces": sum(len(a[0]) for a, b in zip(stream, bracketed) if b) / pieces},
        "by_kind": by_kind,
        "l0_ns_per_piece": statistics.median(l0_raw),
        "l0_ns_per_piece_runs": [round(x, 1) for x in l0_raw],
        "l0_norm_ns_per_piece": statistics.median(l0_norm),
        "l0_norm_ns_per_piece_runs": [round(x, 1) for x in l0_norm],
        "l0_one_piece_ns_per_scan": statistics.median(
            1e9 * raw / len(stream) for raw, _ in one_piece_times),
        "l0_one_piece_norm_ns_per_scan": statistics.median(
            1e9 * norm / len(stream) for _, norm in one_piece_times),
        "outside_eigenvalue": {"s": statistics.median(out for out, _ in outside),
                               "share": statistics.median(out / total for out, total in outside)},
        "bookkeeping": {"pass_norm_s": statistics.median(replayed),
                        "stub_norm_s": statistics.median(stub),
                        "norm_s": bookkeeping,
                        "us_per_scan": 1e6 * bookkeeping / len(stream),
                        "us_per_index": 1e6 * bookkeeping / len(per_eigenvalue)},
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
          f"{run['pieces_scanned']} piece-scans ({run['unchecked_share']['pieces']:.3f} "
          f"unchecked, {run['bracketed_share']['pieces']:.3f} bracketed), "
          f"pass {run['pass_s']:.4f} s ({run['outside_eigenvalue']['share']:.3f} outside "
          f"eigenvalue), {run['l0_one_piece_ns_per_scan']:.0f} ns per 1-piece scan; normalised "
          f"{run['l0_norm_ns_per_piece']:.1f} ns/piece, pass {run['pass_norm_s']:.4f} s, "
          f"bookkeeping {run['bookkeeping']['norm_s']:.4f} s ({run['bookkeeping']['us_per_scan']:.2f} "
          f"us/scan, {run['bookkeeping']['us_per_index']:.2f} us/index; stub "
          f"{run['bookkeeping']['stub_norm_s']:.4f} s)",
          file=sys.stderr)
    record(args.out, args.label, run)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
