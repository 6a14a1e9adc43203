"""Prime generation and the asymptotic approximants used as spectral targets.

p_n ~ n log n by the prime number theorem; the four-term Cesaro refinement

    p_n ~ n log n + n log log n - n + n (log log n - 2) / log n

is what the comparisons against eigenvalue growth actually use, since the
bare n log n undershoots by ~10% even at n = 10^6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LimitTooLarge, OutOfDomain

__all__ = ["PrimeTable", "sieve", "prime_table", "nth_prime", "pnt_asymptotic", "cesaro"]

_SIEVE_MAX = 1_000_000_000


@dataclass
class PrimeTable:
    limit: int
    primes: np.ndarray  # int64, ascending

    @property
    def count(self) -> int:
        return int(self.primes.size)

    def nth(self, n: int) -> int:
        """1-indexed: nth(1) = 2."""
        if not 1 <= n <= self.count:
            raise OutOfDomain(f"table up to {self.limit} holds {self.count} primes, asked for #{n}")
        return int(self.primes[n - 1])


def sieve(limit: int) -> PrimeTable:
    """Eratosthenes up to and including limit, over the odd numbers only."""
    limit = int(limit)
    if limit < 2:
        raise OutOfDomain(f"sieve limit must be >= 2, got {limit}")
    if limit > _SIEVE_MAX:
        raise LimitTooLarge(f"sieve limit {limit} exceeds {_SIEVE_MAX}")
    flags = np.ones((limit + 1) // 2, dtype=bool)  # flags[i] stands for 2i + 1
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = False
    # slot 0 (the number 1) stays set and becomes the prime 2 below
    primes = np.flatnonzero(flags).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return PrimeTable(limit=limit, primes=primes)


def prime_table(n: int) -> PrimeTable:
    """One sieve holding the first n primes (n >= 1).

    Sieves to the Rosser bound p_n < n(log n + log log n), valid for
    n >= 6; the primes below 15 cover n < 6.
    """
    if n < 1:
        raise OutOfDomain(f"prime index must be >= 1, got {n}")
    bound = 15
    if n >= 6:
        ln = math.log(n)
        bound = math.ceil(n * (ln + math.log(ln))) + 10
    table = sieve(min(bound, _SIEVE_MAX))
    if table.count < n:
        raise LimitTooLarge(f"prime #{n} lies beyond the sieve ceiling {_SIEVE_MAX}")
    return table


def nth_prime(n: int) -> int:
    """The n-th prime (n >= 1), 1-indexed: nth_prime(1) = 2."""
    return prime_table(n).nth(n)


def pnt_asymptotic(n: int) -> float:
    """Leading-order p_n ~ n log n (n >= 2)."""
    if n < 2:
        raise OutOfDomain(f"n log n approximant needs n >= 2, got {n}")
    return n * math.log(n)


def cesaro(n: int) -> float:
    """Four-term Cesaro expansion of p_n (n >= 3 so log log n > 0)."""
    if n < 3:
        raise OutOfDomain(f"Cesaro expansion needs n >= 3, got {n}")
    ln = math.log(n)
    lln = math.log(ln)
    return n * (ln + lln - 1.0 + (lln - 2.0) / ln)
