"""Growth bound, order estimate, incompatibility report, partial-sum dichotomy."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from helpers import random_problem, sieve_edge_indices
from slprime.analysis import (
    growth_check,
    incompatibility_report,
    order_estimate,
    partial_sum_primes,
    partial_sum_spectrum,
    series_verdict,
)
from slprime.coeff import PiecewiseConstant, constant, problem, unit_problem
from slprime.errors import (
    DegenerateModulus,
    EpsilonOutOfRange,
    InsufficientData,
    LimitTooLarge,
    OutOfDomain,
)
from slprime.primes import _SEGMENT, sieve
from slprime.shoot import _propagate_scaled
from slprime.spectrum import Eigenvalue, Spectrum, compute_spectrum

PI2 = math.pi**2


def test_growth_unit_problem_closed_form():
    # lam = -100: W(x) = cosh(20 x), so d/dx log W = 20 tanh(20 x) < 20 = bound
    rep = growth_check(unit_problem(), -100.0)
    assert rep.passed
    assert rep.min_slack >= 0.0
    for x, measured, bound, slack in rep.samples:
        assert bound == pytest.approx(20.0, rel=1e-14)
        assert measured == pytest.approx(20.0 * math.tanh(20.0 * x), abs=1e-12 * bound)


def test_growth_oscillatory_regime_flat():
    # positive lambda on the unit problem: W is constant, derivative 0
    rep = growth_check(unit_problem(), 1e6)
    assert rep.passed
    for _, measured, bound, _ in rep.samples:
        assert abs(measured) < 1e-9 * bound
        assert bound == pytest.approx(2e3, rel=1e-12)


def test_growth_randomized_suite():
    rng = np.random.default_rng(2718)
    lams = (1.0, -100.0, 1e6, -1e6, 1e3j, complex(3e5, 4e5))
    for _ in range(8):
        prob = random_problem(rng, max_pieces=5)
        for lam in lams:
            rep = growth_check(prob, lam)
            assert rep.passed, (prob.content_hash(), lam, rep.min_slack)
            # the bound is a theorem for the exact derivative, not a tolerance
            for x, _, bound, slack in rep.samples:
                assert slack >= -1e-9 * bound, (prob.content_hash(), lam, x, slack)


def _reference_growth_samples(prob, lam, x_samples):
    """growth_check's samples with every sample propagated from a, piece by piece."""

    def state(x_rel):
        pw, ps, pq, pr = [], [], [], []
        acc = 0.0
        for h, s, q, r in zip(widths, svals, qvals, rvals):
            if acc + h < x_rel:
                pw.append(h)
                ps.append(s)
                pq.append(q)
                pr.append(r)
                acc += h
            else:
                tail = x_rel - acc
                if tail > 0.0:
                    pw.append(tail)
                    ps.append(s)
                    pq.append(q)
                    pr.append(r)
                break
        alpha = prob.bc.alpha
        u, v, _ = _propagate_scaled(
            pw, ps, pq, pr, lam, complex(math.sin(alpha)), complex(-math.cos(alpha))
        )
        return u, v

    lam = complex(lam)
    widths, svals, qvals, rvals = prob.coeffs.piece_arrays()
    total = sum(widths)
    sqrt_mod = math.sqrt(abs(lam))
    alloc = [max(1, round(x_samples * h / total)) for h in widths]
    rows = []
    acc = 0.0
    for h, s, q, r, c in zip(widths, svals, qvals, rvals, alloc):
        bound = sqrt_mod * (r + s) + abs(q) / sqrt_mod
        for j in range(c):
            x_rel = acc + (j + 1) * h / (c + 1)
            u, v = state(x_rel)
            # W' = 2 Re(conj(u) v (conj(lam r - q) - s |lam|)), W = |lam| |u|^2 + |v|^2
            w_prime = 2.0 * (u.conjugate() * v * ((lam * r - q).conjugate() - s * abs(lam))).real
            measured = w_prime / (abs(lam) * abs(u) ** 2 + abs(v) ** 2)
            rows.append((prob.interval.a + x_rel, measured, bound, bound - abs(measured)))
        acc += h
    return tuple(rows)


def test_growth_walk_matches_per_point_propagation():
    # carrying the state across each piece once must not change a single bit
    # of the samples, scaled pieces (|Im sqrt z| >= 30) included
    rng = np.random.default_rng(31)
    scaled = 0
    for _ in range(12):
        prob = random_problem(rng, max_pieces=6)
        for lam in (1.0, -100.0, 1e6, complex(-1e6, 3e5), 1e3j):
            rep = growth_check(prob, lam)
            assert rep.samples == _reference_growth_samples(prob, lam, 32), (prob, lam)
            scaled += any(
                abs(cmath.sqrt(s * (lam * r - q) * h * h).imag) >= 30.0
                for h, s, q, r in zip(*prob.coeffs.piece_arrays())
            )
    assert scaled >= 10


def _mp_log_derivatives(prob, lam, xs, dps=30):
    """d/dx log(|lam| |u|^2 + |v|^2) at each x, by mpmath.diff in dps-digit arithmetic.

    The state comes from the trig formulas piece by piece, with no scaling,
    and the derivative from mpmath's own differencing of log W, so neither
    the package's propagator nor its W' formula is involved.
    """
    import mpmath as mp

    with mp.workdps(dps):
        lam = mp.mpc(lam)
        bps = [mp.mpf(x) for x in prob.coeffs.breakpoints]
        pieces = [tuple(mp.mpf(x) for x in row) for row in zip(*prob.coeffs.piece_arrays())]

        def across(u, v, s, q, r, width):
            k = lam * r - q
            w = mp.sqrt(s * k * width * width)
            c, sig = (mp.cos(w), mp.sin(w) / w) if w != 0 else (mp.mpf(1), mp.mpf(1))
            return c * u - s * width * sig * v, k * width * sig * u + c * v

        def log_w(x):
            u, v = mp.sin(mp.mpf(prob.bc.alpha)), -mp.cos(mp.mpf(prob.bc.alpha))
            for x0, x1, (_, s, q, r) in zip(bps, bps[1:], pieces):
                u, v = across(u, v, s, q, r, min(x, x1) - x0)
                if x <= x1:
                    break
            return mp.log(abs(lam) * abs(u) ** 2 + abs(v) ** 2)

        return [float(mp.diff(log_w, mp.mpf(x))) for x in xs]


def test_growth_matches_an_mpmath_derivative_of_log_w():
    # an oracle that shares neither the propagator nor the W' algebra, so a
    # sign or conjugation slip in either shows here
    rng = np.random.default_rng(97)
    for _ in range(4):
        prob = random_problem(rng, max_pieces=5)
        for lam in (-100.0, 1e4j, complex(300.0, 400.0), 1e6):
            rep = growth_check(prob, lam)
            exact = _mp_log_derivatives(prob, lam, [row[0] for row in rep.samples])
            for (x, measured, bound, _), oracle in zip(rep.samples, exact):
                assert abs(measured - oracle) <= 1e-8 * bound, (prob, lam, x, measured, oracle)


def test_growth_guards():
    with pytest.raises(OutOfDomain):
        growth_check(unit_problem(), 0.5)  # |lambda| < 1
    # about 32 samples, each piece its width's share, rounded, and at least one
    prob = problem(*(PiecewiseConstant((0.0, 0.001, 0.5, 1.0), (1.0,) * 3) for _ in range(3)))
    assert len(growth_check(prob, 10.0).samples) == 1 + 16 + 16
    for lam in (math.nan, math.inf, complex(-100.0, math.nan)):
        with pytest.raises(OutOfDomain):
            growth_check(unit_problem(), lam)


def test_order_estimate_unit_problem():
    est = order_estimate(unit_problem())
    assert est.radii == (1e2, 1e3, 1e4, 1e5, 1e6)  # q = 0: R_0 = 100
    assert all(est.used)
    assert 0.45 <= est.slope <= 0.55  # entire of order exactly 1/2
    assert est.verdict == "PASS"
    # the closed-form slope is np.polyfit's up to rounding
    fit = np.polyfit(np.log(est.radii), np.log(est.log_max_modulus), 1)[0]
    assert est.slope == pytest.approx(fit, rel=1e-14)


def test_order_estimate_with_potential():
    prob = problem(
        constant(1.0, 0.0, 1.0), constant(40.0, 0.0, 1.0), constant(1.0, 0.0, 1.0)
    )
    est = order_estimate(prob)
    assert est.radii[0] == 400.0  # ten times the turning point R r = |q|
    assert est.verdict == "PASS"


def test_order_estimate_starts_past_every_turning_point():
    # q = 1e4 dominates u(b; lambda) while R << q: over radii 1e2..1e6 log M(R)
    # barely moved and the slope read 0.2555, a FAIL.  The radii start at
    # 10 |q|/r = 1e5, where log M(R) grows like sqrt(R)
    est = order_estimate(problem(constant(1.0), constant(1e4), constant(1.0)))
    assert est.radii == (1e5, 1e6, 1e7, 1e8, 1e9)
    assert est.slope == pytest.approx(0.4976, abs=1e-4)
    assert est.verdict == "PASS"
    # random_problem(rng 5, allow_zero=True, q_scale=5000)'s fifth document
    # read 0.352 over 1e2..1e6; R_0 = 10 q/r = 17,722 here
    heavy = problem(
        constant(2.4140082696813607, 0.0, 2.0),
        constant(2132.5786412445214, 0.0, 2.0),
        constant(1.2033785748656385, 0.0, 2.0),
        1.9223571523249368, 2.9591917020808585,
    )
    est = order_estimate(heavy)
    assert est.radii[0] == pytest.approx(17721.5939, rel=1e-9)
    assert 0.4 <= est.slope == est.slope_upper <= 0.6
    assert est.verdict == "PASS"


def test_order_estimate_fails_outside_the_band():
    # q = 0, r = 1 and s alternating 1/0: five s = 1 pieces of width 0.002, so
    # C = 0.01, and the s = 0 pieces between them grow like a polynomial in R.
    # log M(R) passes log 10 only at R = 1e5, and the slope reads 0.36
    bps = (0.0, 0.002, 0.2, 0.202, 0.4, 0.402, 0.6, 0.602, 0.8, 0.802, 1.0)
    prob = problem(
        PiecewiseConstant(bps, (1.0, 0.0) * 5),
        PiecewiseConstant(bps, (0.0,) * 10),
        PiecewiseConstant(bps, (1.0,) * 10),
    )
    est = order_estimate(prob)
    assert est.radii == (1e2, 1e3, 1e4, 1e5, 1e6)
    assert est.used == (False, False, False, True, True)
    assert est.slope == pytest.approx(0.3599, abs=1e-4)
    assert est.verdict == "FAIL"


def test_order_estimate_flags_and_guards():
    # Atkinson's document: s = 0 where r = 1 and r = 0 where s = 1, so C = 0
    # and u(b; lambda) = 1 for every lambda; no radius lifts M(R) past 10
    bps = (0.0, 1.0, 2.0)
    atkinson = problem(
        PiecewiseConstant(bps, (1.0, 0.0)),
        PiecewiseConstant(bps, (0.0, 0.0)),
        PiecewiseConstant(bps, (0.0, 1.0)),
        0.0, math.pi / 2,
    )
    with pytest.raises(DegenerateModulus):
        order_estimate(atkinson)
    # a turning point past the float range is named before anything is propagated
    with pytest.raises(OutOfDomain, match="piece 0 on .* overflows the propagator at"):
        order_estimate(problem(constant(1.0), constant(1e300), constant(1e-300)))


# perfbench `cli` documents (cli_inputs seeds 487 and 630): breakpoints, s, q, r, alpha, beta
CLI_SEED_487 = (
    (0.0, 1.9309137987774423, 2.0),
    (0.39616696721586797, 0.19563678076268332),
    (-42.807498892038474, -47.46049210648029),
    (0.4912859730789497, 0.5208866665611495),
    0.17817978198326992, 2.440928835232085,
)
CLI_SEED_630 = (
    (0.0, 0.17899408287397045, 1.7596890696277427, 1.9743075470198777, 2.0),
    (0.9929722878058301, 2.0250170297205816, 0.601371418917966, 1.8235622700677023),
    (-20.178249205270525, -30.354888631874633, -20.19671750733384, -12.280901589939788),
    (2.175580907139062, 0.27322824285569225, 0.1569238472744191, 2.6362172389819887),
    2.7284386521401203, 2.426617263912334,
)

# a random_problem(rng 5, allow_zero=True) document with no eigenvalue 1 at beta = pi, its q
# set to -4 where r > 0 (so R_0 = 100) and to -219.708 on the r = 0 piece, which puts
# u(b; .)'s lowest zero near -102: breakpoints, s, q, r, alpha, beta
MISSING_INDEX = (
    (0.0, 1.1559869794696027, 1.4543796324881226, 2.0),
    (0.9075783351766462, 1.7222983409950379, 1.1265665278704564),
    (-4.0, -4.0, -219.708),
    (0.5622629180423854, 2.731097175671458, 0.0),
    1.9567009202623367, 2.946414787127715,
)


def _stepped(bps, s, q, r, alpha, beta):
    return problem(*(PiecewiseConstant(bps, vals) for vals in (s, q, r)), alpha, beta)


def _circle_max(prob, rad, samples):
    """max log|u(b; lambda)| over `samples` equally spaced points of |lambda| = rad."""
    pieces = prob.coeffs.piece_arrays()
    u0, v0 = complex(math.sin(prob.bc.alpha)), complex(-math.cos(prob.bc.alpha))
    best = -math.inf
    for j in range(samples):
        u, _, ls = _propagate_scaled(*pieces, cmath.rect(rad, 2 * math.pi * j / samples), u0, v0)
        if u:
            best = max(best, math.log(abs(u)) + ls)
    return best


def test_order_estimate_passes_where_circle_samples_failed():
    # 16 samples of each circle read 2.53 at R = 1e2, past the log 10 cut
    # that log|u(b; -1e2)| = 1.56 misses, and fitted a slope of 0.613: FAIL.
    # The radii now start at 10 |q|/r = 911 on piece 0
    est = order_estimate(_stepped(*CLI_SEED_487))
    assert est.radii[0] == pytest.approx(911.148, rel=1e-6)
    assert est.slope == pytest.approx(0.5144, abs=1e-4)
    assert est.slope_upper == pytest.approx(0.5058, abs=1e-4)
    assert est.verdict == "PASS"


def test_order_estimate_passes_on_the_upper_bound():
    # u(b; .)'s lowest zero lies near -102, just past -R_0 = -100: q/r is small
    # where r > 0, and the zeros come from the r = 0 piece.  log|u(b; -100)|
    # dips to 3.28 there, so the lower bound alone climbs too steeply (0.631),
    # and the upper one, shifted by 2|c| past every zero, keeps the order at 1/2
    est = order_estimate(_stepped(*MISSING_INDEX))
    assert est.radii == (1e2, 1e3, 1e4, 1e5, 1e6)
    assert all(est.used)
    assert est.slope == pytest.approx(0.6314, abs=1e-4)
    assert est.slope_upper == pytest.approx(0.4560, abs=1e-4)
    assert est.verdict == "PASS"
    # perfbench `cli` seed 630 read 0.643 on the lower bound over R = 1e2..1e6,
    # below the turning point R r = |q| of piece 2.  From 10 |q|/r = 1287 on,
    # both bounds keep the order at 1/2
    est = order_estimate(_stepped(*CLI_SEED_630))
    assert est.radii[0] == pytest.approx(1287.04, rel=1e-6)
    assert est.slope == pytest.approx(0.5055, abs=1e-4)
    assert est.slope_upper == pytest.approx(0.4980, abs=1e-4)
    assert est.log_max_modulus_upper[0] > est.log_max_modulus[0]
    assert est.verdict == "PASS"


def test_order_bounds_sandwich_the_circle_maximum():
    # log|u(b; -R)| <= max over 64 circle samples <= log|u(b; -R - 2|c|)|
    rng = np.random.default_rng(5)
    for _ in range(30):
        prob = random_problem(rng, allow_zero=False)
        est = order_estimate(prob)
        for rad, lower, upper in zip(est.radii, est.log_max_modulus, est.log_max_modulus_upper):
            m = _circle_max(prob, rad, 64)
            assert lower - 1e-9 * abs(m) <= m <= upper + 1e-9 * abs(m)


def test_order_estimate_finds_the_lowest_zero_past_a_missing_index():
    # r = 0 on the last piece, where u oscillates whatever lambda is: theta(b)
    # never falls below pi, so beta = pi has no eigenvalue 1, yet u(b; .) has
    # negative zeros.  Taking c = 0 there would make the upper bound the
    # lower one, which at R = 1e2 reads 3.28, under the circle's 11.12
    prob = _stepped(*MISSING_INDEX)
    at_pi = problem(prob.coeffs.s, prob.coeffs.q, prob.coeffs.r, prob.bc.alpha, math.pi)
    assert compute_spectrum(at_pi, 1).eigenvalues == ()
    est = order_estimate(prob)
    assert all(up > lo for lo, up in zip(est.log_max_modulus, est.log_max_modulus_upper))
    m = _circle_max(prob, est.radii[0], 64)
    assert est.log_max_modulus[0] < m - 0.5
    assert m <= est.log_max_modulus_upper[0]


def test_order_estimate_reaches_below_lambda_cap():
    # q = -1e13: nu_1 = q + pi^2, far below -lambda_cap = -1e12, and the radii
    # run 1e14..1e18.  The search for c reaches down to the largest radius, so
    # the upper bound at R_0 is log|u(b; -R_0 - 2|nu_1|)|, not one shifted by
    # the zero nearest -lambda_cap (about 2e12)
    prob = problem(constant(1.0), constant(-1e13), constant(1.0))
    est = order_estimate(prob)
    assert est.radii == (1e14, 1e15, 1e16, 1e17, 1e18)
    nu_1 = -1e13 + PI2
    u, _, ls = _propagate_scaled(*prob.coeffs.piece_arrays(), -est.radii[0] + 2.0 * nu_1, 0j, -1 + 0j)
    assert est.log_max_modulus_upper[0] == pytest.approx(math.log(abs(u)) + ls, rel=1e-9)
    assert est.verdict == "PASS"


def test_incompatibility_report_unit_problem():
    spec = compute_spectrum(unit_problem(), 1000)
    rep = incompatibility_report(spec, 1000)
    assert rep.verdict == "PASS"
    ns = [row[0] for row in rep.rows]
    assert ns == list(range(1, 1001))
    # spot-check the n = 1000 row: p_1000 = 7919, lambda = 1e6 pi^2
    n, lam, p, ratio = rep.rows[-1]
    assert p == 7919
    assert lam == pytest.approx(1e6 * PI2, rel=1e-9)
    assert ratio == pytest.approx(7919 / (1e6 * PI2), rel=1e-9)


def test_incompatibility_report_withholds_small_n():
    spec = compute_spectrum(unit_problem(), 60)
    rep = incompatibility_report(spec, 60)
    assert rep.verdict == "INCONCLUSIVE"


def test_incompatibility_report_fails_on_prime_like_spectrum():
    # a spectrum that *is* the primes keeps the ratio at 1: the verdict must flip
    table = sieve(10_000)
    evs = tuple(
        Eigenvalue(index=n, value=float(table.nth(n)), oscillation=n - 1, residual=0.0)
        for n in range(1, 201)
    )
    fake = Spectrum(
        problem_hash="0" * 16,
        eigenvalues=evs,
        n_requested=200,
        truncated=False,
        truncation_note=None,
    )
    rep = incompatibility_report(fake, 200)
    assert rep.verdict == "FAIL"


def test_incompatibility_report_guards():
    spec = compute_spectrum(unit_problem(), 20)
    with pytest.raises(InsufficientData):
        incompatibility_report(spec, 5)
    with pytest.raises(InsufficientData):
        incompatibility_report(spec, 50)  # more rows than eigenvalues


def test_partial_sum_primes_checkpoints_and_oracle():
    rows = partial_sum_primes(0.25, 10**5)
    assert [m for m, _ in rows] == [10**3, 10**4, 10**5]
    # brute-force the 1e3 checkpoint
    table = sieve(8_000)
    brute = math.fsum(float(table.nth(k)) ** -0.75 for k in range(1, 1001))
    assert rows[0][1] == pytest.approx(brute, rel=1e-12)
    # non-decade n_terms lands as a final checkpoint
    rows = partial_sum_primes(0.25, 2_500)
    assert [m for m, _ in rows] == [1000, 2500]
    rows = partial_sum_primes(0.25, 50)
    assert [m for m, _ in rows] == [50]


def test_partial_sum_primes_diverges_in_practice():
    rows = dict(partial_sum_primes(0.25, 10**6))
    assert rows[10**6] / rows[10**4] >= 2.0


def test_series_verdict_clauses():
    # synthetic rows for n_terms = 1e5: the doubling is read from M = 1e3
    primes = ((10**3, 1.0), (10**4, 1.5), (10**5, 2.0))
    model = ((10**3, 0.5, 0.125), (10**4, 0.6, 0.04), (10**5, 0.625, 0.0125))
    assert series_verdict(primes, model) == "PASS"  # both clauses met exactly
    not_increasing = ((10**3, 1.0), (10**4, 2.5), (10**5, 2.4))
    assert series_verdict(not_increasing, model) == "FAIL"
    not_doubled = ((10**3, 1.0), (10**4, 1.5), (10**5, 1.99))
    assert series_verdict(not_doubled, model) == "FAIL"
    past_tail = ((10**3, 0.5, 0.125), (10**4, 0.6, 0.04), (10**5, 0.6251, 0.0125))
    assert series_verdict(primes, past_tail) == "FAIL"
    # at n_terms = 1e6 the anchor is the last checkpoint at or below 1e4
    late = ((10**3, 1.0), (10**4, 1.5), (10**5, 2.5), (10**6, 2.9))
    model6 = (*model, (10**6, 0.625, 0.004))
    assert series_verdict(late, model6) == "FAIL"
    assert series_verdict((*late[:3], (10**6, 3.0)), model6) == "PASS"
    # below n_terms = 1e5 no checkpoint lies at n_terms/100: withheld, whatever the sums
    assert series_verdict(((10**3, 1.0), (2000, 1.2)), model[:2]) == "INCONCLUSIVE"
    assert series_verdict(((10**3, 1.0), (2000, 0.5)), model[:2]) == "INCONCLUSIVE"


def test_partial_sum_spectrum_tail_bound():
    c = PI2
    rows = partial_sum_spectrum(c, 0.25, 10**6)
    final = rows[-1][1]
    for m, s, tail in rows:
        # the remaining increase never exceeds the analytic tail bound
        assert final - s <= tail * (1 + 1e-12)
    # frozen closed-form anchor at M = 1000
    assert rows[0][2] == pytest.approx(math.pi ** -1.5 * 10.0 ** -1.5 / 0.5, rel=1e-12)


def test_streamed_partial_sums_match_one_cumsum_bit_for_bit():
    # the one-table, one-cumsum computation the streamed sums replaced
    table = sieve(8 * _SEGMENT + 1)
    chunk_edges = [k * 2**16 + d for k in (1, 2, 3) for d in (-1, 0, 1)]
    # up to n = 145,969 the primes come from a one-segment bytearray walk
    ns = sorted({1, *sieve_edge_indices(table), *chunk_edges, 145_969, 145_970})
    n_all = np.arange(1, ns[-1] + 1, dtype=np.float64)
    for eps in (0.01, 0.25, 0.49):
        prime_sums = np.cumsum(table.primes[: ns[-1]].astype(np.float64) ** -(0.5 + eps))
        model_sums = np.cumsum((PI2 * n_all**2) ** -(0.5 + eps))
        for n in ns:
            assert partial_sum_primes(eps, n)[-1] == (n, float(prime_sums[n - 1])), (eps, n)
            assert partial_sum_spectrum(PI2, eps, n)[-1][:2] == (n, float(model_sums[n - 1]))


def test_streamed_partial_sums_hold_one_chunk_not_a_table():
    for call in (lambda: partial_sum_primes(0.25, 10**6),
                 lambda: partial_sum_spectrum(PI2, 0.25, 10**6)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 10^6 float64 terms alone are 8 MB
        assert peak < 8 * 2**20, peak


def test_partial_sum_guards():
    with pytest.raises(EpsilonOutOfRange):
        partial_sum_primes(0.0, 100)
    with pytest.raises(EpsilonOutOfRange):
        partial_sum_primes(0.5, 100)
    with pytest.raises(LimitTooLarge):
        partial_sum_primes(0.25, 10**7 + 1)
    with pytest.raises(OutOfDomain):
        partial_sum_spectrum(-1.0, 0.25, 100)
    with pytest.raises(OutOfDomain):
        partial_sum_spectrum(PI2, 0.25, 0)
