"""Prime sieve tables: the primes, the Moebius function and Chebyshev psi.

The primes come from one segmented sieve of Eratosthenes over the odd
numbers: the base primes p <= sqrt(n) cross off their multiples in one
window of _SEGMENT odd numbers at a time, so a call works in O(sqrt(n))
memory plus one window, and psi keeps no more than that.  An argument past
DEFAULT_SIEVE_LIMIT is refused before anything is allocated.  Everything
here is exact integer arithmetic except for the logarithms of psi.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .errors import DomainError, SieveRangeError

DEFAULT_SIEVE_LIMIT = 10_000_000
# odd numbers per sieve window (128 KB of marks): each window costs one slice per base prime
# p^2 <= its end, so much smaller windows pay more in Python than they save in memory
_SEGMENT = 1 << 17


def _check_range(x: float):
    if x > DEFAULT_SIEVE_LIMIT:
        raise SieveRangeError(f"{x} beyond sieve limit {DEFAULT_SIEVE_LIMIT}")


def _table_size(n) -> int:
    """n as an int, once it passes _check_range: any other n than an integer,
    numpy's included, such as 1e6, 10.0 or nan, is a DomainError."""
    _check_range(n)
    try:
        return operator.index(n)
    except TypeError:
        raise DomainError(f"n must be an integer, not {n!r}") from None


def _prime_segments(n: int):
    """The primes p <= n, ascending, in pieces: [2], then the primes of each
    window of _SEGMENT odd numbers, crossed off by the odd primes p <= sqrt(n)."""
    if n < 2:
        return
    yield np.array([2], dtype=np.intp)
    base = primes_upto(math.isqrt(n))[1:].tolist()
    for lo in range(3, n + 1, 2 * _SEGMENT):
        mark = np.ones(min(_SEGMENT, (n - lo) // 2 + 1), dtype=bool)  # mark[i] is lo + 2i
        hi = lo + 2 * (mark.size - 1)
        for p in base:
            if p * p > hi:
                break
            start = max(p * p, -(-lo // p) * p)
            start += p * (start % 2 == 0)  # the first odd multiple
            mark[(start - lo) // 2 :: p] = False
        yield lo + 2 * np.flatnonzero(mark)


def primes_upto(n: int) -> np.ndarray:
    """The primes p <= n, ascending; empty for n < 2."""
    return np.concatenate([np.empty(0, dtype=np.intp), *_prime_segments(_table_size(n))])


def mobius_table(n: int) -> np.ndarray:
    """mu(h), h = 1..n: each prime p <= sqrt(n) flips its multiples, zeroes p^2's and multiplies
    into rad[h]; a squarefree h with rad[h] != h has one more prime factor, flipped at the end."""
    n = _table_size(n)
    if n < 0:
        raise DomainError("n must be nonnegative")
    mu = np.ones(n, dtype=np.int8)
    rad = np.ones(n, dtype=np.int32)
    for p in primes_upto(math.isqrt(n)).tolist():
        flip = mu[p - 1 :: p]
        np.negative(flip, out=flip)
        rad[p - 1 :: p] *= p
        mu[p * p - 1 :: p * p] = 0
    np.negative(mu, out=mu, where=rad != np.arange(1, n + 1, dtype=np.int32))
    return mu


def chebyshev_psi(x: float) -> float:
    """Sum of Lambda(n) over n <= x, accumulated with exact (fsum) summation;
    fsum is correctly rounded in any grouping, so it takes the logs one sieve window at a time."""
    if not x >= 0:
        raise DomainError("x must be nonnegative")
    _check_range(x)
    xi = int(math.floor(x))
    parts = [math.fsum(itertools.chain.from_iterable(np.log(seg).tolist() for seg in _prime_segments(xi)))]
    # prime powers p^j <= x contribute one extra log p per power
    for p in primes_upto(math.isqrt(xi)).tolist():
        pk = p * p
        while pk <= xi:
            parts.append(math.log(p))
            pk *= p
    return math.fsum(parts)
