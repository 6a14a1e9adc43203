"""The benchmark's own checks: oracles reject wrong outputs, self time adds up, seeds matter.

Run with: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import time

import numpy as np
import pytest

import oracles
import tracer as tracing
import workloads


def _perturbed(values, i, factor=1 + 1e-6):
    out = list(values)
    out[i] *= factor
    return out


def test_sign_change_oracle_rejects_a_perturbed_eigenvalue():
    from slprime.spectrum import compute_spectrum

    cases = [c for c in workloads.spectra_cases(5) if c.kind == "random"][:12]
    for case in cases:
        values = compute_spectrum(case.problem, case.n_max).values()
        assert oracles.eigen_misses(case.problem, values) == []
        big = int(np.argmax(np.abs(values)))
        assert oracles.eigen_misses(case.problem, _perturbed(values, big)) == [big]


def test_prufer_count_rejects_a_skipped_eigenvalue():
    from slprime.spectrum import compute_spectrum

    cases = [c for c in workloads.spectra_cases(5) if c.kind == "random"][::16]
    for case in cases:
        spec = compute_spectrum(case.problem, case.n_max + 1)
        assert oracles.index_misses(case.problem, spec.values()) == []
        # skip eigenvalue 4 and relabel: every value is still a root, in order, labelled 1..n
        kept = spec.eigenvalues[:3] + spec.eigenvalues[4:]
        relabelled = tuple(dataclasses.replace(ev, index=i + 1) for i, ev in enumerate(kept))
        bad = dataclasses.replace(spec, eigenvalues=relabelled, n_requested=case.n_max)
        assert oracles.eigen_misses(case.problem, bad.values()) == []
        assert oracles.index_misses(case.problem, bad.values())[0] == 3
        assert any("Prufer count" in m for m in workloads.check_spectrum(case, bad))


def test_closed_form_oracle_rejects_a_perturbed_eigenvalue():
    from slprime.spectrum import compute_spectrum

    case = next(c for c in workloads.spectra_cases(5) if c.kind == "closed")
    spec = compute_spectrum(case.problem, case.n_max)
    assert workloads.check_spectrum(case, spec) == []
    values = _perturbed(spec.values(), 250)
    assert oracles.closed_form_misses(values, case.expected) == [250]
    bad_ev = dataclasses.replace(spec.eigenvalues[250], value=values[250])
    bad = dataclasses.replace(
        spec, eigenvalues=spec.eigenvalues[:250] + (bad_ev,) + spec.eigenvalues[251:]
    )
    assert workloads.check_spectrum(case, bad)


def test_truncation_counts_as_success_only_on_finite_problems():
    from slprime.spectrum import compute_spectrum

    cases = workloads.spectra_cases(3)
    finite = next(c for c in cases if c.kind == "finite")
    spec = compute_spectrum(finite.problem, finite.n_max)
    assert spec.truncated and workloads.check_spectrum(finite, spec) == []
    random = dataclasses.replace(finite, kind="random")
    assert workloads.check_spectrum(random, spec)


def test_independent_sieve_matches_published_primes():
    table, first = oracles.primes_by_index([10, 1000, 1_000_000], keep_first=100)
    assert table == {10: 29, 1000: 7919, 1_000_000: oracles.KNOWN_PRIMES[1_000_000]}
    assert first[:5].tolist() == [2, 3, 5, 7, 11] and first[-1] == 541


@pytest.fixture(scope="module")
def checker(tmp_path_factory):
    from slprime.coeff import unit_problem

    return workloads.CliChecker(tmp_path_factory.mktemp("cli"), unit_problem())


def _write_csv(path, header, rows):
    lines = ["# slprime 0.1.0 config_sha256=0", ",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_cli_checker_rejects_a_wrong_prime(checker):
    step = workloads.Step("primes", [])
    ns = [1, 2, 10, 1000, 1_000_000, 10_000_000]
    rows = [(n, checker.prime(n)) for n in ns]
    _write_csv(checker.work / "primes.csv", ("n", "p_n"), rows)
    assert checker.check(step, 0, "") == []
    rows[3] = (1000, 7927)
    _write_csv(checker.work / "primes.csv", ("n", "p_n"), rows)
    assert checker.check(step, 0, "") == ["primes: p_1000 = 7927"]
    assert checker.check(step, 1, "") != []


def test_cli_checker_rejects_a_flipped_verdict(checker):
    step = workloads.Step("order", [])
    _write_csv(checker.work / "order.csv", ("radius", "log_max_modulus", "used_in_fit"), [(100.0, 3.5, 1)])
    assert checker.check(step, 0, "slope 0.5\nVERDICT: PASS order\n") == []
    assert checker.check(step, 0, "slope 0.5\nVERDICT: FAIL order\n")


def test_search_check_rejects_perturbed_targets_and_traces():
    from slprime.inverse import SearchConfig, search

    result = search(SearchConfig(pieces=2, targets=3, restarts=2, max_iters=3, seed=7))
    primes = workloads._small_primes(3)
    assert workloads.check_search(result, primes) == []
    rows = list(result.per_target)
    rows[1] = dataclasses.replace(rows[1], achieved=rows[1].achieved * (1 + 1e-6))
    assert workloads.check_search(dataclasses.replace(result, per_target=tuple(rows)), primes)
    trace = ((0, 1.0), (1, 2.0))
    assert workloads.check_search(dataclasses.replace(result, trace=(trace,)), primes)


def test_self_time_on_a_synthetic_nested_call(monkeypatch):
    ticks = iter([0, 10, 30, 40, 45, 100])
    monkeypatch.setattr(time, "perf_counter_ns", lambda: next(ticks))
    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda: None)

    def outer_fn():
        inner()
        inner()

    tr.wrap("outer", outer_fn)()
    stats = tr.stats()
    assert stats["outer"] == (1, pytest.approx(100e-9), pytest.approx(75e-9))
    assert stats["inner"] == (2, pytest.approx(25e-9), pytest.approx(25e-9))
    assert tr.count_under("inner", "outer") == 2
    assert tr.top_level_seconds() == pytest.approx(100e-9)


def test_hooks_replace_every_binding_and_report_missing_ones():
    import slprime.coeff
    import slprime.inverse
    import slprime.shoot
    import slprime.spectrum

    scan = slprime.shoot._theta_scan
    solve = slprime.spectrum.compute_spectrum
    tr = tracing.Tracer()
    tr.install([*tracing.REQUIRED_HOOKS, ("shoot.gone", "slprime.shoot", "_no_such_kernel")])
    try:
        assert slprime.spectrum._theta_scan is slprime.shoot._theta_scan is not scan
        assert slprime.inverse.compute_spectrum is slprime.spectrum.compute_spectrum is not solve
        prob = slprime.coeff.unit_problem()
        slprime.inverse.compute_spectrum(prob, 2)
    finally:
        tr.uninstall()
    assert slprime.spectrum._theta_scan is scan and slprime.inverse.compute_spectrum is solve
    assert tr.missing == ["slprime.shoot._no_such_kernel"]
    stats = tr.stats()
    assert stats["spectrum.compute_spectrum"][0] == 1
    assert stats["spectrum.eigenvalue"][0] == 2
    assert stats["coeff.content_hash"][0] == 1
    assert tr.count_under("shoot.scan", "spectrum.eigenvalue") == stats["shoot.scan"][0] > 0


def test_seeds_reach_the_generated_inputs(tmp_path):
    def spectra_key(seed):
        return [
            (c.problem.coeffs.q.values, c.problem.bc.alpha) for c in workloads.spectra_cases(seed)
        ]

    assert spectra_key(1) == spectra_key(1)
    assert spectra_key(1) != spectra_key(2)
    assert [c.seed for c in workloads.inverse_configs(1)] != [c.seed for c in workloads.inverse_configs(2)]
    docs = []
    for seed in (1, 2):
        workloads.cli_inputs(seed, tmp_path / str(seed))
        docs.append((tmp_path / str(seed) / "multi.json").read_text())
    assert docs[0] != docs[1]


def test_spectra_sizes_do_not_depend_on_the_seed():
    def sizes(seed):
        return [
            (c.kind, len(c.problem.coeffs.s.values), c.n_max) for c in workloads.spectra_cases(seed)
        ]

    assert [k for k, _, _ in sizes(1)].count("random") == 128
    assert sizes(1) == sizes(2)


def test_benchmark_json_lists_the_metrics_the_code_prints():
    import json
    from pathlib import Path

    import run

    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in doc["workloads"]} == workloads.WHY
    assert set(workloads.WHY) == set(workloads.WORKLOADS)


def test_exits_without_a_result_when_the_sources_are_absent(tmp_path):
    import shutil
    import subprocess
    import sys

    import run

    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spectra", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""


def test_gauge_slowdown_is_a_trimmed_mean_over_the_window():
    import gauge

    nominal = gauge.REF_NOMINAL_S * gauge.SAMPLE_ITERS / gauge.REF_ITERS
    smp = gauge.Sampler.__new__(gauge.Sampler)
    # ten samples at 1x..10x inside [1, 10], one far outside
    smp.samples = [(float(t), t * nominal) for t in range(1, 11)] + [(100.0, 50 * nominal)]
    assert smp.slowdown(1.0, 10.0) == pytest.approx(5.0)  # 1..9: the slowest tenth dropped
    assert smp.slowdown(99.0, 99.5) == pytest.approx(50.0)  # no sample inside: the nearest


def test_gauge_process_logs_samples_and_stops(tmp_path):
    import gauge

    with gauge.Sampler(tmp_path) as smp:
        t0 = time.perf_counter()
        time.sleep(0.2)
        t1 = time.perf_counter()
    assert smp.proc.returncode is not None
    assert len(smp.samples) >= 3 and smp.slowdown(t0, t1) > 0.0
    assert list(tmp_path.iterdir()) == []


def test_timed_work_is_fixed_by_the_run_length():
    assert [workloads.spectra_pass_count(s) for s in (1, 30, 60)] == [1, 12, 24]
    assert [workloads.inverse_search_count(s) for s in (1, 30, 60)] == [1, 10, 20]
    assert [workloads.cli_round_count(s) for s in (1, 30, 60)] == [1, 3, 6]
