"""Prime generation and the asymptotic approximants used as spectral targets.

p_n ~ n log n by the prime number theorem; the four-term Cesaro refinement

    p_n ~ n log n + n log log n - n + n (log log n - 2) / log n

is what the comparisons against eigenvalue growth actually use, since the
bare n log n undershoots by ~10% even at n = 10^6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import LimitTooLarge, OutOfDomain

if TYPE_CHECKING:
    import numpy as np

__all__ = ["PrimeTable", "sieve", "prime_table", "nth_prime", "pnt_asymptotic", "cesaro"]

_SIEVE_MAX = 1_000_000_000
_PI_SIEVE_MAX = 50_847_534  # pi(10^9)
_SEGMENT = 1 << 20  # odd numbers per sieve segment


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
    """Eratosthenes up to and including limit, over the odd numbers only.

    Segmented (Bays & Hudson, BIT 17, 1977): the odd numbers are sieved
    _SEGMENT = 2^20 at a time, a 1 MB flag block that stays in cache.
    Segment 0 also yields the base primes up to sqrt(limit), since
    sqrt(_SIEVE_MAX) < 2 * _SEGMENT.  Survivors go straight into one
    output buffer sized by pi(x) < 1.25506 x / ln x (Rosser & Schoenfeld,
    x > 1), so memory is the output plus one segment.
    """
    # numpy is imported where arrays are built: commands that build none start without it
    import numpy as np

    limit = int(limit)
    if limit < 2:
        raise OutOfDomain(f"sieve limit must be >= 2, got {limit}")
    if limit > _SIEVE_MAX:
        raise LimitTooLarge(f"sieve limit {limit} exceeds {_SIEVE_MAX}")
    n_odd = (limit + 1) // 2  # slot i stands for 2i + 1
    out = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int64)

    flags = np.ones(min(n_odd, _SEGMENT), dtype=bool)
    for i in range(1, (math.isqrt(2 * flags.size - 1) - 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = False
    base = 2 * np.flatnonzero(flags[1 : (math.isqrt(limit) - 1) // 2 + 1]) + 3
    # slot 0 (the number 1) stays set and becomes the prime 2 below
    count = _emit(flags, 0, out, 0)
    out[0] = 2

    # the odd multiples of p sit at slots p // 2 + k p; strike from p^2 on
    first = base * base // 2
    for lo in range(_SEGMENT, n_odd, _SEGMENT):
        flags = flags[: min(_SEGMENT, n_odd - lo)]
        flags[:] = True
        k = int(np.searchsorted(first, lo + flags.size))
        starts = np.maximum(first[:k], lo + (base[:k] // 2 - lo) % base[:k]) - lo
        for p, start in zip(base[:k].tolist(), starts.tolist()):
            flags[start::p] = False
        count = _emit(flags, lo, out, count)
    return PrimeTable(limit=limit, primes=out[:count])


def _emit(flags: np.ndarray, lo: int, out: np.ndarray, count: int) -> int:
    """Write the numbers of the set slots lo + i into out[count:]; return the new count."""
    import numpy as np

    idx = np.flatnonzero(flags)
    view = out[count : count + idx.size]
    np.multiply(idx, 2, out=view)
    view += 2 * lo + 1
    return count + idx.size


def prime_table(n: int) -> PrimeTable:
    """One sieve holding the first n primes (n >= 1).

    Sieves to the Rosser bound p_n < n(log n + log log n), valid for
    n >= 6; the primes below 15 cover n < 6.  Past pi(_SIEVE_MAX) it
    raises before sieving anything.
    """
    if n < 1:
        raise OutOfDomain(f"prime index must be >= 1, got {n}")
    if n > _PI_SIEVE_MAX:
        raise LimitTooLarge(f"prime #{n} lies beyond the sieve ceiling {_SIEVE_MAX}")
    bound = 15
    if n >= 6:
        ln = math.log(n)
        bound = math.ceil(n * (ln + math.log(ln))) + 10
    return sieve(min(bound, _SIEVE_MAX))


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
