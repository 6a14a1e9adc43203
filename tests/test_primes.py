"""Sieve, nth prime, and the two asymptotic expansions."""

import math

import pytest

from helpers import trial_division_primes
from slprime.errors import LimitTooLarge, OutOfDomain
from slprime.primes import PrimeTable, cesaro, nth_prime, pnt_asymptotic, sieve


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


def test_nth_prime_values():
    assert [nth_prime(n) for n in range(1, 11)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert nth_prime(25) == 97
    assert nth_prime(100) == 541
    assert nth_prime(1_000) == 7_919
    assert nth_prime(10_000) == 104_729


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
