"""Acceptance scoreboard: ten end-to-end checks, one printed line each.

Every test prints `ACCEPTANCE <k> <name>: PASS|FAIL` outside pytest's
capture (so a plain `pytest -v` run shows the scoreboard live) and then
asserts the same conditions, so a FAIL line always comes with a failing
test explaining which clause missed.  Runtime budgets are part of the
criteria and are asserted too.
"""

import math
import statistics
import time

import numpy as np

from slprime.analysis import (
    growth_check,
    order_estimate,
    partial_sum_primes,
    partial_sum_spectrum,
)
from slprime.coeff import constant, make_piecewise, problem, unit_problem, weyl_constant
from slprime.inverse import SearchConfig, search
from slprime.nonlinear import NonlinearProblem, invert_map, nonlinear_spectrum
from slprime.primes import cesaro, nth_prime, pnt_asymptotic
from slprime.spectrum import compute_spectrum

from helpers import random_problem

PI2 = math.pi**2


def _report(capsys, number, name, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'}", flush=True)


def test_01_closed_form_spectra(capsys):
    t0 = time.perf_counter()
    cases = [
        (unit_problem(), lambda n: n * n * PI2),
        (problem(constant(1.0), constant(1.0), constant(1.0)), lambda n: n * n * PI2 + 1.0),
        (problem(constant(1.0), constant(50.0), constant(1.0)), lambda n: n * n * PI2 + 50.0),
        (problem(constant(1.0), constant(0.0), constant(4.0)), lambda n: n * n * PI2 / 4.0),
    ]
    worst = 0.0
    for prob, exact in cases:
        spec = compute_spectrum(prob, 50)
        assert not spec.truncated
        for ev in spec.eigenvalues:
            worst = max(worst, abs(ev.value - exact(ev.index)) / exact(ev.index))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(capsys, 1, "closed-form-spectra", ok)
    assert worst <= 1e-8, f"worst relative error {worst:.3e}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_02_finite_atkinson_spectrum(capsys):
    t0 = time.perf_counter()
    s = make_piecewise([0.0, 1.0, 2.0], [1.0, 0.0])
    q = make_piecewise([0.0, 1.0, 2.0], [0.0, 0.0])
    r = make_piecewise([0.0, 1.0, 2.0], [0.0, 1.0])
    prob = problem(s, q, r, alpha=0.0, beta=math.pi / 2)
    spec = compute_spectrum(prob, 2)
    elapsed = time.perf_counter() - t0
    one_point = len(spec.eigenvalues) == 1 and abs(spec.eigenvalues[0].value - 1.0) <= 1e-8
    noted = spec.truncated and spec.truncation_note.startswith("TRUNCATED at n = 2")
    ok = one_point and noted and elapsed < 1.0
    _report(capsys, 2, "finite-atkinson-spectrum", ok)
    assert one_point, f"expected the one-point spectrum {{1}}, got {spec.values()}"
    assert noted, f"note was {spec.truncation_note!r}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_03_weyl_law(capsys):
    t0 = time.perf_counter()
    probs = [
        unit_problem(),  # C = 1
        problem(constant(1.0), constant(0.0), constant(4.0)),  # C = 2
        problem(constant(1.5), constant(0.0), constant(1.5)),  # C = 1.5
    ]
    worst = 0.0
    consts = []
    for prob in probs:
        c_scale = weyl_constant(prob.coeffs)
        consts.append(round(c_scale, 12))
        spec = compute_spectrum(prob, 200)
        med = statistics.median(
            ev.value / ev.index**2 for ev in spec.eigenvalues if 100 <= ev.index <= 200
        )
        ref = PI2 / c_scale**2
        worst = max(worst, abs(med - ref) / ref)
    elapsed = time.perf_counter() - t0
    ok = len(set(consts)) == 3 and worst <= 0.01 and elapsed < 30.0
    _report(capsys, 3, "weyl-law", ok)
    assert len(set(consts)) == 3, f"scale constants not distinct: {consts}"
    assert worst <= 0.01, f"median lambda_n/n^2 off by {worst:.3%}"
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_04_incompatibility_trend(capsys):
    # checkpoints n = 100 (computed), 10^3 and 10^4 (model n^2 pi^2, which the
    # computed range matches to ~1e-9 relative)
    t0 = time.perf_counter()
    spec = compute_spectrum(unit_problem(), 100)
    lam = {100: spec.eigenvalues[-1].value, 10**3: PI2 * 10**6, 10**4: PI2 * 10**8}
    ratios = [nth_prime(n) / lam[n] for n in (100, 10**3, 10**4)]
    elapsed = time.perf_counter() - t0
    decreasing = ratios[0] > ratios[1] > ratios[2]
    below = ratios[-1] < 1e-4
    ok = decreasing and below and elapsed < 60.0
    _report(capsys, 4, "incompatibility-trend", ok)
    assert decreasing, f"ratios not decreasing: {ratios}"
    # p_10000 / (10^8 pi^2) = 104729 / 9.8696e8 = 1.06113e-4: the trend is
    # right but the value sits just above the 1e-4 line, so this clause fails
    assert below, f"p_n/lambda_n at n=1e4 is {ratios[-1]:.6e}, not < 1e-4"
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_05_nonlinear_spectrum(capsys):
    t0 = time.perf_counter()
    prob = NonlinearProblem(q=constant(0.0))
    rows = nonlinear_spectrum(prob, 100)
    absent_ok = rows[0].lam is None and rows[1].lam is None
    lam_of = {row.index: row.lam for row in rows if row.lam is not None}
    lam_of[10**3] = invert_map(PI2 * 10**6)
    lam_of[10**4] = invert_map(PI2 * 10**8)
    worst = max(
        abs(lam_of[n] / math.log(lam_of[n]) - n) / n for n in (3, 10, 100, 10**4)
    )
    err = {n: abs(lam_of[n] / (n * math.log(n)) - 1.0) for n in (10**3, 10**4)}
    closer = err[10**4] < err[10**3]
    elapsed = time.perf_counter() - t0
    ok = absent_ok and worst <= 1e-9 and closer and elapsed < 5.0
    _report(capsys, 5, "nonlinear-spectrum", ok)
    assert absent_ok, "indices 1 and 2 should have no composed eigenvalue"
    assert worst <= 1e-9, f"lambda/log(lambda) misses its index by {worst:.3e} relative"
    assert closer, f"growth-law errors {err} should improve with n"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_06_prime_asymptotics(capsys):
    t0 = time.perf_counter()
    decades = [10**3, 10**4, 10**5, 10**6]
    pnt_ratio, pnt_err, ces_err = [], [], []
    for n in decades:
        p = nth_prime(n)
        pnt_ratio.append(p / pnt_asymptotic(n))
        pnt_err.append(abs(pnt_asymptotic(n) - p) / p)
        ces_err.append(abs(cesaro(n) - p) / p)
    elapsed = time.perf_counter() - t0
    toward_one = all(a > b > 1.0 for a, b in zip(pnt_ratio, pnt_ratio[1:]))
    ces_ok = max(ces_err) <= 0.05 and all(c < e for c, e in zip(ces_err, pnt_err))
    ok = toward_one and ces_ok and elapsed < 30.0
    _report(capsys, 6, "prime-asymptotics", ok)
    assert toward_one, f"p_n/(n log n) not decreasing toward 1: {pnt_ratio}"
    assert max(ces_err) <= 0.05, f"four-term error up to {max(ces_err):.3%}"
    assert all(c < e for c, e in zip(ces_err, pnt_err)), "four-term must beat n log n"
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_07_order_half(capsys):
    t0 = time.perf_counter()
    slopes = [
        order_estimate(unit_problem()).slope,
        order_estimate(problem(constant(1.0), constant(50.0), constant(1.0))).slope,
    ]
    elapsed = time.perf_counter() - t0
    ok = all(0.4 <= s <= 0.6 for s in slopes) and elapsed < 30.0
    _report(capsys, 7, "order-half", ok)
    assert all(0.4 <= s <= 0.6 for s in slopes), f"slopes {slopes}"
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_08_growth_bound(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(821)
    lams = (1.0, -100.0, 1e6, -1e6, 1e3j, 1e6j)
    worst = math.inf
    all_passed = True
    for _ in range(20):
        prob = random_problem(rng)
        for lam in lams:
            rep = growth_check(prob, lam)
            all_passed = all_passed and rep.passed
            worst = min(worst, rep.min_slack)
    elapsed = time.perf_counter() - t0
    ok = all_passed and elapsed < 30.0
    _report(capsys, 8, "growth-bound", ok)
    assert all_passed, f"worst slack {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_09_series_dichotomy(capsys):
    t0 = time.perf_counter()
    prime_sums = dict(partial_sum_primes(0.25, 10**6))
    ratio = prime_sums[10**6] / prime_sums[10**4]
    model = {m: s for m, s, _ in partial_sum_spectrum(PI2, 0.25, 10**6)}
    increment = model[10**6] - model[10**3]
    tail_bound = math.pi**-1.5 * 10**-1.5 / 0.5
    elapsed = time.perf_counter() - t0
    ok = ratio >= 2.0 and increment <= tail_bound and elapsed < 60.0
    _report(capsys, 9, "series-dichotomy", ok)
    assert ratio >= 2.0, f"prime partial sums grew only {ratio:.3f}x"
    assert increment <= tail_bound, f"{increment:.6f} > analytic tail {tail_bound:.6f}"
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_10_inverse_search(capsys):
    t0 = time.perf_counter()
    small = search(SearchConfig(pieces=1, targets=1, seed=42, restarts=1, max_iters=60))
    big_cfg = SearchConfig(seed=42)  # pieces=16, targets=8, restarts=4
    first = search(big_cfg)
    second = search(big_cfg)
    elapsed = time.perf_counter() - t0

    halved = first.best_objective <= 0.5 * first.baseline_objective
    monotone = all(
        all(a[1] >= b[1] for a, b in zip(restart, restart[1:])) for restart in first.trace
    )
    identical = (
        first.best_q.values == second.best_q.values
        and first.best_objective == second.best_objective
        and first.trace == second.trace
    )
    ok = (
        small.best_objective < 1e-8
        and halved
        and monotone
        and identical
        and elapsed < 600.0
    )
    _report(capsys, 10, "inverse-search", ok)
    assert small.best_objective < 1e-8, f"one-knob objective {small.best_objective:.3e}"
    assert halved, (
        f"best {first.best_objective:.6f} vs baseline {first.baseline_objective:.6f}"
    )
    assert monotone, "per-restart traces must be non-increasing"
    assert identical, "rerun with the same config must be bit-identical"
    assert elapsed < 600.0, f"took {elapsed:.2f}s"
