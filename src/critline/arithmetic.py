"""Elementary arithmetic functions backed by a smallest-prime-factor sieve.

Everything here is exact integer arithmetic except for logarithms, which
enter only through Lambda(n) and the Chebyshev psi sum.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import SieveRangeError

DEFAULT_SIEVE_LIMIT = 10_000_000


class FactorSieve:
    """Immutable smallest-prime-factor table for 2 <= n <= limit.

    Construction is single-threaded; afterwards all queries are pure and
    safe for unrestricted concurrent use.
    """

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError("sieve limit must be at least 2")
        self.limit = int(limit)
        spf = np.zeros(self.limit + 1, dtype=np.int64)
        for p in range(2, int(math.isqrt(self.limit)) + 1):
            if spf[p] == 0:
                block = spf[p * p :: p]
                block[block == 0] = p
        idx = np.arange(self.limit + 1)
        spf[spf == 0] = idx[spf == 0]
        spf[0] = spf[1] = 0
        self._spf = spf
        self._primes: np.ndarray | None = None
        self._prime_logs: np.ndarray | None = None

    def _check(self, n: int) -> int:
        n = int(n)
        if n < 1 or n > self.limit:
            raise SieveRangeError(f"n={n} outside sieve range [1, {self.limit}]")
        return n

    @property
    def primes(self) -> np.ndarray:
        if self._primes is None:
            idx = np.arange(2, self.limit + 1)
            self._primes = idx[self._spf[2:] == idx]
        return self._primes

    def is_prime(self, n: int) -> bool:
        n = self._check(n)
        return n >= 2 and self._spf[n] == n

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization of n as [(p, multiplicity), ...]."""
        n = self._check(n)
        out = []
        while n > 1:
            p = int(self._spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    def mobius(self, n: int) -> int:
        n = self._check(n)
        result = 1
        while n > 1:
            p = int(self._spf[n])
            n //= p
            if n % p == 0:
                return 0
            result = -result
        return result

    def mobius_table(self, n: int) -> np.ndarray:
        """mu(h) for h = 1..n as an integer array, one factor-table pass per
        prime factor instead of one call per h."""
        n = self._check(n)
        rest = np.arange(1, n + 1)
        mu = np.ones(n, dtype=np.int64)
        live = rest > 1
        while np.any(live):
            p = self._spf[rest[live]]
            rest[live] //= p
            mu[live] *= np.where(rest[live] % p == 0, 0, -1)
            live = rest > 1
        return mu

    def von_mangoldt(self, n: int) -> float:
        n = self._check(n)
        if n == 1:
            return 0.0
        p = int(self._spf[n])
        while n % p == 0:
            n //= p
        return math.log(p) if n == 1 else 0.0

    def euler_phi(self, n: int) -> int:
        n = self._check(n)
        result = n
        for p, _ in self.factorize(n):
            result -= result // p
        return result

    def chebyshev_psi(self, x: float) -> float:
        """Sum of Lambda(n) over n <= x, accumulated with exact (fsum) summation."""
        if x < 0:
            raise ValueError("x must be nonnegative")
        if x > self.limit:
            raise SieveRangeError(f"x={x} beyond sieve limit {self.limit}")
        xi = int(math.floor(x))
        if xi < 2:
            return 0.0
        primes = self.primes
        if self._prime_logs is None:
            self._prime_logs = np.log(primes.astype(np.float64))
        k = int(np.searchsorted(primes, xi, side="right"))
        parts = [math.fsum(self._prime_logs[:k].tolist())]
        # prime powers p^j <= x contribute one extra log p per power
        for p in primes[primes <= math.isqrt(xi)]:
            p = int(p)
            pk = p * p
            while pk <= xi:
                parts.append(math.log(p))
                pk *= p
        return math.fsum(parts)


_sieve_cache: dict[int, FactorSieve] = {}


def default_sieve_limit() -> int:
    return DEFAULT_SIEVE_LIMIT


def get_sieve(limit: int | None = None) -> FactorSieve:
    """Shared sieve instance; built once per limit and cached."""
    limit = default_sieve_limit() if limit is None else int(limit)
    if limit not in _sieve_cache:
        _sieve_cache[limit] = FactorSieve(limit)
    return _sieve_cache[limit]


def mobius(n: int, sieve: FactorSieve | None = None) -> int:
    return (sieve or get_sieve()).mobius(n)


def von_mangoldt(n: int, sieve: FactorSieve | None = None) -> float:
    return (sieve or get_sieve()).von_mangoldt(n)


def chebyshev_psi(x: float, sieve: FactorSieve | None = None) -> float:
    return (sieve or get_sieve()).chebyshev_psi(x)


def euler_phi(n: int, sieve: FactorSieve | None = None) -> int:
    return (sieve or get_sieve()).euler_phi(n)


def divisors(n: int, sieve: FactorSieve | None = None) -> list[int]:
    """All positive divisors of n, ascending."""
    s = sieve or get_sieve()
    divs = [1]
    for p, e in s.factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)
