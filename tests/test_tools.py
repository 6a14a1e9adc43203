"""The benchmark harnesses under tools/ run and report what they promise."""

import importlib.util
import sys
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_bench_scan_measures_a_small_stream():
    bench_scan = _load("bench_scan")
    import slprime.spectrum as spectrum

    kernel = spectrum._theta_scan
    t0 = time.perf_counter()
    run = bench_scan.measure(count=5, replays=2, passes=1)
    assert time.perf_counter() - t0 < 2.0
    assert spectrum._theta_scan is kernel  # the recording wrapper is gone again
    assert set(run) == {
        "git_head", "python", "machine", "nproc", "problems", "eigenvalues", "scans",
        "pieces_scanned", "scans_per_eigenvalue", "l0_ns_per_piece", "l0_ns_per_piece_runs",
        "pass_s", "pass_s_runs",
    }
    assert run["problems"] == 5 and run["eigenvalues"] > 0
    assert run["scans_per_eigenvalue"] == run["scans"] / run["eigenvalues"] > 1.0
    assert run["pieces_scanned"] >= run["scans"]
    assert run["l0_ns_per_piece"] > 0.0 and len(run["l0_ns_per_piece_runs"]) == 2
    assert run["pass_s"] > 0.0 and len(run["pass_s_runs"]) == 1
