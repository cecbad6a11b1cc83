"""Prime sieve tables: the primes, the Moebius function and Chebyshev psi.

Each call sieves afresh up to its own argument, and an argument past
DEFAULT_SIEVE_LIMIT is refused before anything is allocated.  Everything
here is exact integer arithmetic except for the logarithms of psi.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SieveRangeError

DEFAULT_SIEVE_LIMIT = 10_000_000


def _check_range(x: float):
    if x > DEFAULT_SIEVE_LIMIT:
        raise SieveRangeError(f"{x} beyond sieve limit {DEFAULT_SIEVE_LIMIT}")


def primes_upto(n: int) -> np.ndarray:
    """The primes p <= n, ascending, by a boolean sieve of Eratosthenes."""
    _check_range(n)
    mark = np.ones(n + 1, dtype=bool)
    mark[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mark[p]:
            mark[p * p :: p] = False
    return np.flatnonzero(mark)


def mobius_table(n: int) -> np.ndarray:
    """mu(h), h = 1..n: each prime p <= sqrt(n) flips its multiples, zeroes p^2's and multiplies
    into rad[h]; a squarefree h with rad[h] != h has one more prime factor, flipped at the end."""
    _check_range(n)
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
    """Sum of Lambda(n) over n <= x, accumulated with exact (fsum) summation."""
    if x < 0:
        raise ValueError("x must be nonnegative")
    _check_range(x)
    xi = int(math.floor(x))
    primes = primes_upto(xi)
    parts = [math.fsum(np.log(primes.astype(np.float64)).tolist())]
    # prime powers p^j <= x contribute one extra log p per power
    for p in primes[primes <= math.isqrt(xi)].tolist():
        pk = p * p
        while pk <= xi:
            parts.append(math.log(p))
            pk *= p
    return math.fsum(parts)
