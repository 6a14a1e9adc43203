"""The benchmark harnesses under tools/ run and report what they promise."""

import importlib.util
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    if str(TOOLS) not in sys.path:  # the harnesses import their shared helper from tools/
        sys.path.insert(0, str(TOOLS))
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def test_bench_scan_measures_a_small_stream(monkeypatch):
    bench_scan = _load("bench_scan")
    import slprime.spectrum as spectrum

    # the times are paired with perfbench's own reference loop, not a copy of it
    gauge = sys.modules["gauge"]
    assert Path(gauge.__file__).resolve() == TOOLS.parent / "perfbench" / "gauge.py"
    assert bench_scan.reference_seconds is gauge.reference_seconds
    # and its problems are perfbench's spectra cases, not a copy of their design
    workloads = sys.modules["workloads"]
    assert bench_scan.workloads is workloads
    assert Path(workloads.__file__).resolve() == TOOLS.parent / "perfbench" / "workloads.py"
    first = [(case.problem, case.n_max) for case in workloads.spectra_cases(1)[:5]]
    assert bench_scan.problems(5) == first

    kernel, solve = spectrum._theta_scan, spectrum.eigenvalue
    t0 = time.perf_counter()
    run = bench_scan.measure(count=5, replays=2, passes=1)
    assert time.perf_counter() - t0 < 2.0
    # the recording and counting wrappers are gone again
    assert spectrum._theta_scan is kernel and spectrum.eigenvalue is solve
    assert set(run) == {
        "git_head", "python", "machine", "nproc", "problems", "eigenvalues", "scans",
        "pieces_scanned", "scans_per_eigenvalue", "scans_per_call_p50", "scans_per_call_p90",
        "scans_per_call_max", "l0_ns_per_piece", "l0_ns_per_piece_runs", "l0_norm_ns_per_piece",
        "l0_norm_ns_per_piece_runs", "pass_s", "pass_s_runs", "pass_norm_s", "pass_norm_s_runs",
    }
    assert run["problems"] == 5 and run["eigenvalues"] > 0
    assert run["scans_per_eigenvalue"] == run["scans"] / run["eigenvalues"] > 1.0
    assert 1 <= run["scans_per_call_p50"] <= run["scans_per_call_p90"] <= run["scans_per_call_max"]
    assert run["pieces_scanned"] >= run["scans"]
    for raw, norm, count in (("l0_ns_per_piece", "l0_norm_ns_per_piece", 2),
                             ("pass_s", "pass_norm_s", 1)):
        assert run[raw] > 0.0 and len(run[f"{raw}_runs"]) == count
        assert run[norm] > 0.0 and len(run[f"{norm}_runs"]) == count

    # on a core where the reference loop takes 4 ms, every time counts a quarter
    monkeypatch.setattr(bench_scan, "reference_seconds", lambda: 4.0 * gauge.REF_NOMINAL_S)
    run = bench_scan.measure(count=2, replays=3, passes=2)
    for raw, norm in (("l0_ns_per_piece", "l0_norm_ns_per_piece"), ("pass_s", "pass_norm_s")):
        assert run[norm] == pytest.approx(0.25 * run[raw], rel=1e-12)

def test_bench_invert_measures_a_tiny_search(monkeypatch):
    monkeypatch.setenv("SLPRIME_THREADS", "0")  # measure sets it to 1; undone after the test
    bench_invert = _load("bench_invert")
    import slprime.inverse as inverse
    import slprime.spectrum as spectrum

    # the times are divided by perfbench's own gauge process, not a copy of it
    gauge = sys.modules["gauge"]
    assert Path(gauge.__file__).resolve() == TOOLS.parent / "perfbench" / "gauge.py"
    assert (bench_invert.Sampler, bench_invert.one_core) == (gauge.Sampler, gauge.one_core)

    bindings = (spectrum.eigenvalue, spectrum._theta_scan, inverse._jacobian)
    shape = {"pieces": 2, "targets": 3, "restarts": 1, "max_iters": 3}
    # the gauge is read over each search's own window; where the loop ran
    # 4x slower than nominal, every time counts a quarter
    windows = []
    monkeypatch.setattr(gauge.Sampler, "slowdown",
                        lambda self, t0, t1: windows.append((t0, t1)) or 4.0)
    run = bench_invert.measure(seeds=[5, 6], shape=shape)
    # the counting wrappers are gone again
    assert (spectrum.eigenvalue, spectrum._theta_scan, inverse._jacobian) == bindings
    assert run["seeds"] == [5, 6] and [r["seed"] for r in run["runs"]] == [5, 6]
    assert run["config"] == {**shape, "bound": 200.0}
    assert [t1 - t0 for t0, t1 in windows] == [r["wall_s"] for r in run["runs"]]
    assert windows[0][1] <= windows[1][0]
    for r in run["runs"]:
        assert r["wall_s"] > 0.0 and r["slowdown"] == 4.0
        assert r["wall_norm_s"] == pytest.approx(0.25 * r["wall_s"], rel=1e-12)
        assert r["evaluations"] > 1 and r["theta_scans"] > r["evaluations"] and r["jacobians"] > 0
        assert r["ratio"] == r["best_objective"] / r["baseline_objective"] <= 1.0
    assert run["total_wall_s"] == pytest.approx(sum(r["wall_s"] for r in run["runs"]))
    assert run["total_norm_s"] == pytest.approx(0.25 * run["total_wall_s"], rel=1e-12)


def test_git_head_marks_an_uncommitted_tree_dirty(tmp_path):
    benchmeta = _load("benchmeta")
    assert benchmeta.git_head(tmp_path) is None  # not a checkout

    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], check=True, capture_output=True)

    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "start")
    sha = subprocess.run(["git", "-C", str(tmp_path), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=True).stdout.strip()
    assert benchmeta.git_head(pkg) == sha
    (pkg / "mod.py").write_text("x = 2\n")
    assert benchmeta.git_head(pkg) == sha + "+dirty"
    # every harness takes the same arguments and records the same provenance the same way
    for harness in map(_load, ("bench_invert", "bench_scan", "bench_sieve")):
        for name in ("bench_parser", "run_header", "record"):
            assert getattr(harness, name) is getattr(benchmeta, name), (harness.__name__, name)


def test_record_keeps_the_other_labels(tmp_path):
    benchmeta = _load("benchmeta")
    args = benchmeta.bench_parser("Time a thing.\n\nmore", "BENCH_x.json").parse_args(["parent"])
    assert (args.label, args.out) == ("parent", "BENCH_x.json")
    out = tmp_path / "BENCH_x.json"
    benchmeta.record(out, "parent", {"wall_s": 1.5})
    benchmeta.record(out, "change", {"wall_s": 1.25, "runs": [1, 2]})
    benchmeta.record(out, "parent", {"wall_s": 1.0})
    assert out.read_text(encoding="utf-8") == (
        '{\n  "parent": {\n    "wall_s": 1.0\n  },\n  "change": {\n    "wall_s": 1.25,\n'
        '    "runs": [\n      1,\n      2\n    ]\n  }\n}\n'
    )


def test_bench_sieve_measures_small_runs():
    bench_sieve = _load("bench_sieve")
    run = bench_sieve.measure(primes_n=1000, series_n=1000, reps=1)
    assert set(run) == {"git_head", "python", "machine", "nproc", "checkpoints", "layers",
                        "processes"}
    assert set(run["layers"]) == {"checkpoint_reader", "partial_sum_primes",
                                  "partial_sum_spectrum"}
    for layer in run["layers"].values():
        assert layer["wall_s"] > 0.0 and layer["traced_peak_mb"] > 0.0
    assert run["processes"]["primes"]["argv"] == ["primes", "--n-max", "1000"]
    assert run["processes"]["incompat"]["argv"] == [
        "incompat", "--config", "unit.json", "--n-max", "10000"
    ]
    for proc in run["processes"].values():
        assert proc["wall_s"] > 0.0 and len(proc["max_rss_mb_runs"]) == 1
        assert proc["max_rss_mb"] > 1.0


def test_cli_snapshot_runs_every_subcommand():
    # a subcommand the snapshot never runs would escape the byte-identity oracle
    import argparse

    from slprime.cli import _build_parser

    cli_snapshot = _load("cli_snapshot")
    (sub,) = (a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    run = {argv[0] for argv in cli_snapshot.commands().values() if argv != ["--help"]}
    assert run == set(sub.choices)


def test_cli_snapshot_compare_names_every_change(tmp_path, capsys):
    cli_snapshot = _load("cli_snapshot")
    old, new = tmp_path / "old", tmp_path / "new"
    files = {
        # an eigenvalue moving 2e-11 at lambda = 100 is 0.2 units of max(1e-10, 1e-10)
        "spectrum/out.csv": ("# v1\nn,lambda,residual\n1,1.0,0.0\n2,100.0,1e-12\n",
                             "# v2\nn,lambda,residual\n1,1.0,0.0\n2,100.00000000002,1e-12\n"),
        "spectrum/stdout.txt": ("4 rows\n", "4 rows \n"),
        "invert/out.json": ('{"best": 0.5, "q": [1.0, 2.0]}', '{"best": 0.25, "q": [1.0, 2.0]}'),
        "invert/targets.csv": ("n,achieved_mu\n1,3.0\n", "n,achieved_mu\n1,3.0\n2,5.0\n"),
        "same/out.csv": ("n,p_n\n1,2\n", "n,p_n\n1,2\n"),
        "gone.txt": ("x\n", None),
    }
    for name, texts in files.items():
        for root, text in zip((old, new), texts):
            if text is not None:
                (root / name).parent.mkdir(parents=True, exist_ok=True)
                (root / name).write_text(text)
    assert cli_snapshot.main(["--compare", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"only in {old}: gone.txt",
        "invert/out.json: 1 numeric cells changed, largest relative change 0.5 at $.best",
        "invert/targets.csv: rows added 1, dropped 0, 0 numeric cells changed",
        "spectrum/out.csv: 1 numeric cells changed, largest relative change 2e-13 at "
        "lambda[2], eigenvalues 0.2 tolerance units",
        "spectrum/stdout.txt: differs",
    ]
    assert cli_snapshot.main(["--compare", str(old), str(old)]) == 0
    assert capsys.readouterr().out == "6 files, all identical\n"


def test_cli_snapshot_compare_names_columns_and_compares_the_shared_cells(tmp_path, capsys):
    cli_snapshot = _load("cli_snapshot")
    old, new = tmp_path / "old", tmp_path / "new"
    files = {
        # a dropped column, and lambda[2] moving 5e-11 at lambda = 100 (0.5 units)
        "spectrum/out.csv": ("n,lambda,oscillation,residual\n1,1.0,0,0.0\n2,100.0,1,1e-12\n",
                             "n,lambda,residual\n1,1.0,0.0\n2,100.00000000005,1e-12\n"),
        # an added column, every shared cell equal
        "primes/out.csv": ("n,p_n\n1,2\n2,3\n", "n,p_n,gap\n1,2,\n2,3,1\n"),
        # the last row dropped, and lambda[2] moving 3e-11 (0.3 units) in the row both keep
        "truncated/out.csv": ("n,lambda,residual\n1,1.0,0.0\n2,100.0,1e-12\n3,400.0,0.0\n",
                              "n,lambda,residual\n1,1.0,0.0\n2,100.00000000003,1e-12\n"),
        # a JSON list that grew: its items are keyed by position
        "invert/out.json": ('{"q": [1.0, 2.0]}', '{"q": [1.0, 2.0, 3.0]}'),
    }
    for name, (old_text, new_text) in files.items():
        for root, text in ((old, old_text), (new, new_text)):
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
    assert cli_snapshot.main(["--compare", str(old), str(new)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "invert/out.json: differs in shape",
        "primes/out.csv: added columns gap, 0 numeric cells changed",
        "spectrum/out.csv: dropped columns oscillation, 1 numeric cells changed, largest "
        "relative change 5e-13 at lambda[2], eigenvalues 0.5 tolerance units",
        "truncated/out.csv: rows added 0, dropped 1, 1 numeric cells changed, largest "
        "relative change 3e-13 at lambda[2], eigenvalues 0.3 tolerance units",
    ]


def test_perfbench_tests_pass():
    # perfbench pins private bindings (its REQUIRED_HOOKS), and only its own
    # tests notice a change that breaks one.  They run in a child process:
    # their conftest sets SLPRIME_THREADS in os.environ when imported
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/tests"],
        cwd=TOOLS.parent, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
