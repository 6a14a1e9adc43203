"""Prime generation and the asymptotic approximants used as spectral targets.

p_n ~ n log n by the prime number theorem; the four-term Cesaro refinement

    p_n ~ n log n + n log log n - n + n (log log n - 2) / log n

is what the comparisons against eigenvalue growth actually use, since the
bare n log n undershoots by ~10% even at n = 10^6.

All primes come from one segment walker, _segments.  Every p_n the
package reads comes from nth_primes, and the partial sums in analysis
stream the same walk: each holds one 1 MB segment however far it reads.
sieve keeps every prime up to a limit, for callers that want the table.
nth_primes up to n = 145,969, a walk of one segment, never imports numpy,
whose import costs more than that sieve (see _segments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import TYPE_CHECKING

from .errors import LimitTooLarge, OutOfDomain

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PrimeTable",
    "sieve",
    "nth_prime",
    "nth_primes",
    "prime_bounds",
    "pnt_asymptotic",
    "cesaro",
]

_SIEVE_MAX = 1_000_000_000
_PI_SIEVE_MAX = 50_847_534  # pi(10^9)
_SEGMENT = 1 << 20  # odd numbers per sieve segment
_WHEEL = 3 * 5 * 7 * 11 * 13  # 15,015: the period over the odd numbers of the primes 3 to 13


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

    The primes of each segment (see _segments) go straight into one
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
    out = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int64)
    count = 0
    for lo, flags in _segments(limit):
        primes = _segment_primes(lo, flags)
        out[count : count + primes.size] = primes
        count += primes.size
    return PrimeTable(limit=limit, primes=out[:count])


def _segments(limit: int):
    """Walk the odd numbers up to limit, yielding (lo, flags) once per sieved segment.

    Segmented (Bays & Hudson, BIT 17, 1977): the odd numbers are sieved
    _SEGMENT = 2^20 at a time, a 1 MB flag block that stays in cache.
    Slot i of a segment stands for 2 (lo + i) + 1 and is set when that
    number is prime, except slot 0 of segment 0, the number 1, which stays
    set and stands for the prime 2.  Segment 0 also yields the base primes
    up to sqrt(limit), since sqrt(_SIEVE_MAX) < 2 * _SEGMENT.  Every
    segment reuses one buffer: read it before asking for the next.

    Each segment starts from the pattern of _wheel, which has the odd
    multiples of 3, 5, 7, 11 and 13 struck, so only primes from 17 on
    strike it.

    A walk that fits one segment (limit <= 2^21) sieves a bytearray and
    never imports numpy.  A longer one sieves numpy bools from segment 0
    on: a bytearray strike needs a zero block per prime (60 KB for p = 17),
    which would raise the max RSS of a long walk such as series over 10^6.
    """
    n_odd = (limit + 1) // 2
    short = n_odd <= _SEGMENT
    wheel = _wheel()
    if short:
        flags = wheel * (n_odd // _WHEEL + 1)
        del flags[n_odd:]
    else:
        import numpy as np

        wheel = np.frombuffer(wheel * 2, dtype=bool)  # from any offset, one period in one slice
        flags = np.empty(_SEGMENT, dtype=bool)
        _tile(flags, wheel, 0)
    # 1 (standing for 2) and the primes 3 to 13 themselves stay set
    head = min(n_odd, 7)
    flags[:head] = [True, True, True, True, False, True, True][:head]
    for i in range(8, (math.isqrt(2 * len(flags) - 1) - 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            flags[p * p // 2 :: p] = bytearray(len(range(p * p // 2, n_odd, p))) if short else False
    if short:
        yield 0, flags
        return
    base = 2 * np.flatnonzero(flags[8 : (math.isqrt(limit) - 1) // 2 + 1]) + 17
    yield 0, flags

    # the odd multiples of p sit at slots p // 2 + k p; strike from p^2 on
    first = base * base // 2
    for lo in range(_SEGMENT, n_odd, _SEGMENT):
        flags = flags[: min(_SEGMENT, n_odd - lo)]
        _tile(flags, wheel, lo)
        k = int(np.searchsorted(first, lo + flags.size))
        starts = np.maximum(first[:k], lo + (base[:k] // 2 - lo) % base[:k]) - lo
        for p, start in zip(base[:k].tolist(), starts.tolist()):
            flags[start::p] = False
        yield lo, flags


def _wheel() -> bytearray:
    """One period of flags over the odd numbers from 1 on, every odd multiple of 3 to 13 struck.

    Slot g stands for 2 g + 1, as in a segment.
    """
    wheel = bytearray(b"\x01") * _WHEEL
    for p in (3, 5, 7, 11, 13):
        wheel[p // 2 :: p] = bytes(len(range(p // 2, _WHEEL, p)))
    return wheel


def _tile(flags: np.ndarray, wheel: np.ndarray, lo: int) -> None:
    """Fill the segment flags at slot lo from two wheel periods, doubling the filled part."""
    done = min(flags.size, _WHEEL)
    flags[:done] = wheel[lo % _WHEEL :][:done]
    while done < flags.size:  # done is a whole number of periods here
        more = min(done, flags.size - done)
        flags[done : done + more] = flags[:more]
        done += more


def _segment_primes(lo: int, flags: np.ndarray | bytearray) -> np.ndarray:
    """The ascending int64 primes of one segment of _segments, whichever its buffer."""
    import numpy as np

    primes = np.flatnonzero(np.frombuffer(flags, dtype=bool)).astype(np.int64, copy=False)
    primes *= 2
    primes += 2 * lo + 1
    if lo == 0:
        primes[0] = 2
    return primes


def prime_bounds(n):
    """(lo, hi) with lo < p_n for n >= 2 and p_n < hi for n >= 6.

    hi = n (ln n + ln ln n) is Rosser & Schoenfeld's upper bound (Illinois
    J. Math. 6, 1962) and lo = hi - n Dusart's lower one (Math. Comp. 68,
    1999).  n is an int, or an array of indices for elementwise bounds.
    """
    if isinstance(n, int):
        if n < 2:
            raise OutOfDomain(f"prime bounds need n >= 2, got {n}")
        ln = math.log(n)
        lln = math.log(ln)
    else:
        import numpy as np

        ln = np.log(n)
        lln = np.log(ln)
    hi = n * (ln + lln)
    return hi - n, hi


def _rosser_bound(n: int) -> int:
    """A sieve limit that holds the first n primes (n >= 1).

    prime_bounds' hi, plus a margin; the primes below 15 cover n < 6.
    Past pi(_SIEVE_MAX) it raises, so no caller sieves anything for an
    index it cannot serve.
    """
    if n < 1:
        raise OutOfDomain(f"prime index must be >= 1, got {n}")
    if n > _PI_SIEVE_MAX:
        raise LimitTooLarge(f"prime #{n} lies beyond the sieve ceiling {_SIEVE_MAX}")
    if n < 6:
        return 15
    return min(math.ceil(prime_bounds(n)[1]) + 10, _SIEVE_MAX)


def nth_primes(ns) -> list[int]:
    """p_n for each of the ascending indices ns (n >= 1), from one streamed walk.

    Each segment's primes are counted, only a segment holding a wanted
    index is turned into primes, and the walk stops at the one holding the
    last.  Memory stays at one 1 MB segment whatever max(ns) is.
    """
    ns = [int(n) for n in ns]
    if not ns:
        return []
    if any(b < a for a, b in zip(ns, ns[1:])):
        raise OutOfDomain("prime indices must be ascending")
    _rosser_bound(ns[0])  # the smallest index meets the same rules as the largest
    out = []
    count = 0  # primes in the segments before this one
    for lo, flags in _segments(_rosser_bound(ns[-1])):
        if isinstance(flags, bytearray):  # a one-segment walk: read without numpy
            primes = list(compress(range(1, 2 * len(flags), 2), flags))
            primes[0] = 2
            return [primes[n - 1] for n in ns]
        import numpy as np  # imported by _segments for a walk this long
        count_here = count + int(np.count_nonzero(flags))
        if ns[len(out)] <= count_here:
            primes = _segment_primes(lo, flags)
            while len(out) < len(ns) and ns[len(out)] <= count_here:
                out.append(int(primes[ns[len(out)] - count - 1]))
            if len(out) == len(ns):
                break
        count = count_here
    return out


def _prime_chunks(n: int):
    """The first n primes (n >= 1) as ascending int64 arrays, one per sieve segment."""
    count = 0
    for lo, flags in _segments(_rosser_bound(n)):
        primes = _segment_primes(lo, flags)[: n - count]
        count += primes.size
        yield primes
        if count == n:
            return


def nth_prime(n: int) -> int:
    """The n-th prime (n >= 1), 1-indexed: nth_prime(1) = 2."""
    return nth_primes([n])[0]


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
