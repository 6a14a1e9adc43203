"""Sieve, nth prime, and the two asymptotic expansions."""

import math
import tracemalloc

import numpy as np
import pytest

import slprime.primes as primes_mod
from helpers import sieve_edge_indices, trial_division_primes
from slprime.cli import _prime_checkpoints
from slprime.errors import LimitTooLarge, OutOfDomain
from slprime.primes import (
    PrimeTable,
    cesaro,
    nth_prime,
    nth_primes,
    pnt_asymptotic,
    prime_bounds,
    sieve,
)

SEG = primes_mod._SEGMENT


def single_array_sieve(limit):
    """The sieve before segmentation: one flag array over every odd number up to limit."""
    flags = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = False
    primes = np.flatnonzero(flags).astype(np.int64) * 2 + 1
    primes[0] = 2
    return primes


def test_sieve_matches_trial_division():
    table = sieve(10_000)
    assert table.primes.tolist() == trial_division_primes(10_000)
    # small limits, odd squares and primes among them, hit the sieve's edges
    reference = trial_division_primes(130)
    for limit in range(2, 131):
        assert sieve(limit).primes.tolist() == [p for p in reference if p <= limit], limit


def test_sieve_counts_frozen():
    assert sieve(100).count == 25
    assert sieve(1_000_000).count == 78_498


def test_segmented_sieve_matches_single_array():
    # segment k covers the odd numbers [2 SEG k + 1, 2 SEG (k + 1)); limits
    # around each edge end a segment early, exactly, or one slot into the next.
    # Up to 2 SEG the walk sieves a bytearray, past it numpy bools
    limits = [2 * SEG * k + d for k in (1, 2, 3) for d in (-2, -1, 0, 1, 2)]
    # 2053 is the first prime whose square lies past segment 1; 4_219_999
    # spans three segments with base-prime squares in the last one
    assert 2053**2 // 2 >= 2 * SEG
    limits += [2053**2, 2053**2 + 2, 4_219_999]
    for limit in limits:
        table = sieve(limit)
        assert table.primes.dtype == np.int64
        assert np.array_equal(table.primes, single_array_sieve(limit)), limit


@pytest.mark.parametrize(
    "limit", [2, 3, 15, 27, 169, 2 * 15_015 + 1, 2 * SEG - 1, 2 * SEG + 1, 6 * SEG + 1]
)
def test_segments_flags_equal_a_plain_strike(limit):
    # each segment starts from the wheel pattern with 3 to 13 struck and
    # only p >= 17 strike it; the walk's flags, segment by segment, are
    # those of striking every odd multiple from p^2 on in one array
    # (slot 0, the number 1, stays set for the prime 2)
    want = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if want[i]:
            p = 2 * i + 1
            want[p * p // 2 :: p] = False
    got = []
    for lo, flags in primes_mod._segments(limit):
        assert lo == sum(map(len, got))
        got.append(np.frombuffer(flags, dtype=bool).copy())
    assert np.array_equal(np.concatenate(got), want), limit


def test_only_walks_past_one_segment_sieve_numpy_bools():
    assert [type(flags) for _, flags in primes_mod._segments(2 * SEG)] == [bytearray]
    assert [type(flags) for _, flags in primes_mod._segments(2 * SEG + 1)] == [np.ndarray] * 2
    # p_145969 is the last index whose Rosser bound fits one segment
    bounds = [primes_mod._rosser_bound(n) for n in (145_969, 145_970)]
    assert bounds == [2_097_139, 2_097_154] and bounds[0] < 2 * SEG < bounds[1]
    table = sieve(2 * SEG + 2)
    for n in (1, 145_968, 145_969, 145_970):
        assert nth_primes([1, n]) == [2, int(table.primes[n - 1])], n


def test_nth_primes_large_indices():
    assert nth_primes([10**6, 10**7]) == [15_485_863, 179_424_673]


def test_prime_reads_fail_before_sieving_past_the_ceiling(monkeypatch):
    limits, walks = [], []
    monkeypatch.setattr(
        primes_mod, "sieve", lambda limit: limits.append(limit) or PrimeTable(limit, np.empty(0))
    )
    monkeypatch.setattr(primes_mod, "_segments", lambda limit: walks.append(limit) or iter(()))
    # pi(10^9) = 50,847,534: one index more can never be served
    for n in (50_847_535, 10**8):
        for read in (nth_prime, lambda n: nth_primes([1, n])):
            with pytest.raises(LimitTooLarge, match=f"prime #{n} lies beyond the sieve ceiling"):
                read(n)
    for read in (nth_prime, lambda n: nth_primes([n, 5])):
        with pytest.raises(OutOfDomain, match="prime index must be >= 1, got 0"):
            read(0)
    assert limits == [] and walks == []
    # the last servable index walks to the ceiling itself (not run here: 10^9 numbers)
    nth_primes([50_847_534])
    assert walks == [1_000_000_000] and limits == []


def test_streamed_nth_primes_match_the_table_at_segment_edges():
    table = sieve(8 * SEG + 1)
    edges = sieve_edge_indices(table)
    ns = sorted({*edges, *(k * 2**16 + d for k in (1, 2, 3) for d in (-1, 0, 1))})
    want = [int(table.primes[n - 1]) for n in ns]
    assert nth_primes(ns) == want
    # a walk that stops in the segment holding its only index
    assert [nth_prime(n) for n in edges] == [int(table.primes[n - 1]) for n in edges]
    assert nth_primes([]) == []
    assert nth_primes([3, 3, 4]) == [5, 5, 7]
    with pytest.raises(OutOfDomain, match="ascending"):
        nth_primes([4, 3])


def test_streamed_reads_hold_one_segment_not_a_table():
    checkpoints = _prime_checkpoints(2 * 10**6)
    tracemalloc.start()
    try:
        got = nth_primes(checkpoints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[-1] == 32_452_843
    # the table of the first 2e6 primes alone is 16 MB; one segment is 1 MB of flags
    assert peak < 8 * 2**20, peak


def test_nth_prime_values():
    assert [nth_prime(n) for n in range(1, 11)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert nth_prime(25) == 97
    assert nth_prime(100) == 541
    assert nth_prime(1_000) == 7_919
    assert nth_prime(10_000) == 104_729


def test_prime_bounds_hold_up_to_1e5():
    # Dusart's lo < p_n from n = 2, Rosser-Schoenfeld's p_n < hi from n = 6,
    # elementwise on an index array and one index at a time
    n = np.arange(2, 10**5 + 1)
    p = sieve(primes_mod._rosser_bound(10**5)).primes[1 : 10**5]
    lo, hi = prime_bounds(n)
    assert np.all(lo < p)
    assert np.all(p[4:] < hi[4:])
    assert [int(p[k - 2] < prime_bounds(k)[1]) for k in range(2, 7)] == [0, 0, 0, 0, 1]
    assert prime_bounds(10**5) == pytest.approx((lo[-1], hi[-1]), rel=1e-15)
    with pytest.raises(OutOfDomain):
        prime_bounds(1)


def test_prime_table_nth_bounds():
    table = sieve(30)
    assert table.nth(1) == 2 and table.nth(table.count) == 29
    with pytest.raises(OutOfDomain):
        table.nth(0)
    with pytest.raises(OutOfDomain):
        table.nth(table.count + 1)


def test_guards():
    with pytest.raises(OutOfDomain):
        sieve(1)
    with pytest.raises(LimitTooLarge):
        sieve(2_000_000_000)
    with pytest.raises(OutOfDomain):
        nth_prime(0)
    with pytest.raises(OutOfDomain):
        pnt_asymptotic(1)
    with pytest.raises(OutOfDomain):
        cesaro(2)


def test_pnt_ratio_window_and_decrease():
    # p_n / (n log n) stays in a narrow band and falls toward 1
    ratios = []
    for n in (1_000, 10_000, 100_000, 1_000_000):
        ratios.append(nth_prime(n) / pnt_asymptotic(n))
    assert all(1.10 < rho < 1.20 for rho in ratios), ratios
    assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios


def test_cesaro_beats_plain_asymptotic():
    for n in (1_000, 10_000, 100_000, 1_000_000):
        p = nth_prime(n)
        err_pnt = abs(pnt_asymptotic(n) - p) / p
        err_ces = abs(cesaro(n) - p) / p
        assert err_ces <= 0.05, (n, err_ces)
        assert err_ces < err_pnt, (n, err_ces, err_pnt)


def test_cesaro_frozen_values():
    # independent spot values, computed once from the four-term formula
    assert cesaro(100) == pytest.approx(502.9678172074463, rel=1e-13)
    assert cesaro(1_000) == pytest.approx(7830.649339435743, rel=1e-13)
