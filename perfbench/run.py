"""Layered benchmark for slprime: one seeded workload per run, timed or traced.

    python3 perfbench/run.py --workload spectra|inverse|cli --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N             # the three timed runs in turn

--trace 1 always traces all three workloads in one process, whichever
--workload is named, so that every span lands in one trace and every
layer is exercised.

Run from the root of a source checkout; the package is imported from its
src/ directory.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Lines before it are the
human-readable report (environment, metric meanings, failures).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "misfit_ratio": "ratio",
}

CLI_STEPS = (
    "primes", "series", "nonlinear", "incompat", "order",
    "growth_real", "growth_imag", "spectrum", "invert",
)

PER_LAYER = {
    "shoot.scan.calls": "count",
    "shoot.scan.self_s": "s",
    "shoot.scan.ns_per_piece": "ns",
    "shoot.propagate.calls": "count",
    "shoot.propagate.self_s": "s",
    "spectrum.eigenvalue.calls": "count",
    "spectrum.eigenvalue.self_s": "s",
    "spectrum.scans_per_eig": "count",
    "spectrum.compute_spectrum.calls": "count",
    "spectrum.compute_spectrum.self_s": "s",
    "spectrum.truncated": "count",
    "coeff.content_hash.calls": "count",
    "coeff.self_s": "s",
    "inverse.objective.calls": "count",
    "inverse.objective.ms_per_call": "ms",
    "inverse.objective.self_s": "s",
    "inverse.objective.scans_per_call": "count",
    "inverse.search.self_s": "s",
    "inverse.accepted": "count",
    "inverse.accept_ratio": "ratio",
    "primes.sieve.calls": "count",
    "primes.sieve.self_s": "s",
    "primes.sieve.bytes": "B",
    "primes.nth_prime.calls": "count",
    "nonlinear.invert_map.calls": "count",
    "nonlinear.invert_map.self_s": "s",
    "analysis.incompatibility_report.self_s": "s",
    "analysis.order_estimate.self_s": "s",
    "analysis.growth_check.self_s": "s",
    "analysis.partial_sums.self_s": "s",
    **{f"cli.{step}.wall_s": "s" for step in CLI_STEPS},
    "cli.run.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "slprime").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> str:
    import numpy

    return (
        f"env: git_sha={_git_sha()} src_sha256={_src_digest()} "
        f"python={sys.version.split()[0]} numpy={numpy.__version__} "
        f"nproc={os.cpu_count()} seed={seed}"
    )


def measure_setup(workload: str, seed: int, work: Path) -> tuple[list[float], list[float]]:
    """Set-up seconds of SETUP_SAMPLES fresh interpreters: (normalised, raw).

    A sample is the wall time up to where timing would start, taken on one
    core next to the gauge process and divided by the slowdown it saw.  Over
    ten runs per workload, raw medians spread 20-25% (IQR/median) and the
    normalised ones 4-10%.
    """
    from gauge import Sampler, one_core

    windows = []
    with one_core(), Sampler(work) as gauge:
        for _ in range(SETUP_SAMPLES):
            if workload == "cli":
                argv = [sys.executable, "-m", "slprime.cli", "--help"]
            else:
                argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--setup-probe"]
            t0 = time.perf_counter()
            with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
                first = proc.stdout.readline()
                windows.append((t0, time.perf_counter()))
                rest = proc.stdout.read()
            if proc.returncode != 0 or not (first + rest).strip():
                raise RuntimeError(f"setup probe {argv[1:]} exited with {proc.returncode}")
    raw = [t1 - t0 for t0, t1 in windows]
    return [w / gauge.slowdown(*win) for w, win in zip(raw, windows)], raw


def layer_metrics(tracer, infos) -> tuple[dict, list[str]]:
    import tracer as tracing

    st = tracer.stats()

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return st.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return st.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "shoot.scan.calls": calls("shoot.scan"),
        "shoot.scan.self_s": own("shoot.scan"),
        "shoot.scan.ns_per_piece": 1e9 * ratio(own("shoot.scan"), tracer.work["shoot.scan.pieces"]),
        "shoot.propagate.calls": calls("shoot.propagate"),
        "shoot.propagate.self_s": own("shoot.propagate"),
        "spectrum.eigenvalue.calls": calls("spectrum.eigenvalue"),
        "spectrum.eigenvalue.self_s": own("spectrum.eigenvalue"),
        "spectrum.scans_per_eig": ratio(
            tracer.count_under("shoot.scan", "spectrum.eigenvalue"), calls("spectrum.eigenvalue")
        ),
        "spectrum.compute_spectrum.calls": calls("spectrum.compute_spectrum"),
        "spectrum.compute_spectrum.self_s": own("spectrum.compute_spectrum"),
        "spectrum.truncated": tracer.work["spectrum.truncated"],
        "coeff.content_hash.calls": calls("coeff.content_hash"),
        "coeff.self_s": sum(v[2] for k, v in st.items() if k.startswith("coeff.")),
        "inverse.objective.calls": calls("inverse.objective"),
        "inverse.objective.ms_per_call": 1e3 * ratio(total("inverse.objective"), calls("inverse.objective")),
        "inverse.objective.self_s": own("inverse.objective"),
        "inverse.objective.scans_per_call": ratio(
            tracer.count_under("shoot.scan", "inverse.objective"), calls("inverse.objective")
        ),
        "inverse.search.self_s": own("inverse.search"),
        "inverse.accepted": tracer.work["inverse.accepted"],
        "inverse.accept_ratio": ratio(tracer.work["inverse.accepted"], calls("inverse.objective")),
        "primes.sieve.calls": calls("primes.sieve"),
        "primes.sieve.self_s": own("primes.sieve"),
        "primes.sieve.bytes": tracer.work["primes.sieve.bytes"],
        "primes.nth_prime.calls": calls("primes.nth_prime"),
        "nonlinear.invert_map.calls": calls("nonlinear.invert_map"),
        "nonlinear.invert_map.self_s": own("nonlinear.invert_map"),
        "analysis.incompatibility_report.self_s": own("analysis.incompatibility_report"),
        "analysis.order_estimate.self_s": own("analysis.order_estimate"),
        "analysis.growth_check.self_s": own("analysis.growth_check"),
        "analysis.partial_sums.self_s": own("analysis.partial_sum_primes")
        + own("analysis.partial_sum_spectrum"),
        "cli.run.self_s": own("cli.run"),
    }
    step_walls = {}
    for info in infos.values():
        step_walls.update(info.get("step_walls", {}))
    for step in CLI_STEPS:
        m[f"cli.{step}.wall_s"] = step_walls.get(step, 0.0)
    wall = sum(info["wall"] for info in infos.values())
    m["trace.coverage"] = ratio(tracer.top_level_seconds(), wall)
    spectra = infos.get("spectra")
    m["trace.overhead"] = spectra["wall"] / spectra["untraced_wall"] - 1.0 if spectra else 0.0

    missing_spans = {
        span for span, module, path in tracing.REQUIRED_HOOKS if f"{module}.{path}" in tracer.missing
    }
    missing = sorted(k for k in m if any(k.startswith(span + ".") for span in missing_spans))
    for k in missing:
        m[k] = 0.0
    return m, missing


def accounting(name, info, samples, scans, eig_seconds) -> str:
    """scans x untraced us/scan next to the traced spectrum time (ROADMAP item 1's check)."""
    from slprime import shoot

    if not samples or not hasattr(shoot, "_theta_scan"):
        return f"accounting {name}: no theta-scans sampled"
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for args in samples:
            shoot._theta_scan(*args)
        best = min(best, (time.perf_counter() - t0) / len(samples))
    line = (
        f"accounting {name}: shoot.scan.calls x us/scan = {scans} x {best * 1e6:.3f} us "
        f"(untraced, timed on {len(samples)} sampled scans) = {scans * best:.4f} s; "
        f"traced spectrum.eigenvalue time {eig_seconds:.4f} s"
    )
    if "untraced_wall" in info:
        line += (
            f"; untraced pass {info['untraced_wall']:.4f} s, of which the scans explain "
            f"{scans * best / info['untraced_wall']:.3f}"
        )
    return line


def report_failures(failures, failed, attempted) -> bool:
    """Print failed_frac and the distinct failure messages; True when no output is wrong.

    A call that raised (a crash, such as the ROADMAP item 3 ZeroDivisionError)
    is a failed operation; a result that an oracle rejects is a wrong output
    and makes the run incorrect.
    """
    from workloads import CRASH

    wrong = [m for m in failures if CRASH not in m]
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.6g} "
          f"({len(failures) - len(wrong)} crash and {len(wrong)} wrong-output messages)")
    for msg in list(dict.fromkeys(failures))[:20]:
        print(f"FAILED {msg}")
    return not wrong


def _emit(correct, attempted, failed, metrics, units):
    payload = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(payload), flush=True)


def timed_run(args, name, workloads, work) -> None:
    os.environ.pop("SLPRIME_THREADS", None)  # users' default worker count
    wl = workloads.WORKLOADS[name](args.seed, work)
    wl.warm_up()
    res = wl.timed(args.seconds)
    setup, raw_setup = measure_setup(name, args.seed, work)
    metrics = {"setup_s": statistics.median(setup), **res["metrics"]}
    print(f"workload {name}: {workloads.WHY[name]}")
    print("setup_s is the median of these normalised samples: " + " ".join(f"{x:.4f}" for x in setup))
    print("setup_s raw samples: " + " ".join(f"{x:.4f}" for x in raw_setup))
    for line in res["report"]:
        print(line)
    for name, unit in END_TO_END.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    correct = report_failures(res["failures"], res["failed"], res["attempted"])
    _emit(correct, res["attempted"], res["failed"], metrics, END_TO_END)


def traced_run(args, names, workloads, work) -> None:
    import tracer as tracing

    os.environ["SLPRIME_THREADS"] = "1"  # restarts run in this process, inside the trace
    tracer = tracing.Tracer()
    infos = {}
    for name in names:
        wl = workloads.WORKLOADS[name](args.seed, work / name)
        wl.warm_up()
        before = tracer.stats()
        infos[name] = info = wl.traced(tracer)
        after = tracer.stats()
        print(f"trace {name}: {info['shape']}; traced wall {info['wall']:.4f} s")

        def grown(span, i):
            return after.get(span, (0, 0.0, 0.0))[i] - before.get(span, (0, 0.0, 0.0))[i]

        samples = tracer.samples.pop("shoot.scan", [])
        print(accounting(name, info, samples, grown("shoot.scan", 0), grown("spectrum.eigenvalue", 1)))
    metrics, missing = layer_metrics(tracer, infos)
    print(f"trace.coverage {metrics['trace.coverage']:.4f} of traced wall time is inside spans")
    print("missing hooks: " + (", ".join(sorted(set(tracer.missing))) or "none"))
    print("missing metrics (reported as 0): " + (", ".join(missing) or "none"))
    for name, unit in PER_LAYER.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    attempted = sum(info["attempted"] for info in infos.values())
    failed = sum(info["failed"] for info in infos.values())
    failures = [m for info in infos.values() for m in info["failures"]]
    correct = report_failures(failures, failed, attempted)
    _emit(correct, attempted, failed, metrics, PER_LAYER)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["spectra", "inverse", "cli", "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "slprime" / "__init__.py").is_file():
        print(f"error: no slprime sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import slprime
    import slprime.cli  # noqa: F401  (the cli module is not imported by the package)

    if Path(slprime.__file__).resolve().parent != (SRC / "slprime").resolve():
        print(f"error: imported slprime from {slprime.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            workloads.WORKLOADS[args.workload](args.seed, work).warm_up()
            print("ready", flush=True)
            return 0
        print(f"perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        print(environment(args.seed))
        names = list(workloads.WORKLOADS) if args.workload == "all" or args.trace else [args.workload]
        if args.trace:
            traced_run(args, names, workloads, work)
        else:
            for name in names:  # one report and one JSON line per workload
                timed_run(args, name, workloads, work / name)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
