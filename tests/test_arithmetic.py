"""Sieve-backed arithmetic functions against brute-force oracles."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critline.arithmetic import FactorSieve, divisors, get_sieve
from critline.errors import SieveRangeError


def brute_factorize(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def brute_mobius(n):
    f = brute_factorize(n)
    if any(e > 1 for _, e in f):
        return 0
    return (-1) ** len(f)


class TestFactorSieve:
    def test_limit_validation(self):
        with pytest.raises(ValueError):
            FactorSieve(1)

    def test_factorize_matches_brute_force(self, small_sieve):
        for n in range(2, 2000):
            assert small_sieve.factorize(n) == brute_factorize(n)

    def test_primes(self, small_sieve):
        primes = small_sieve.primes
        assert primes[0] == 2 and primes[1] == 3
        assert all(small_sieve.is_prime(int(p)) for p in primes[:100])
        assert not small_sieve.is_prime(1)

    def test_out_of_range(self, small_sieve):
        with pytest.raises(SieveRangeError):
            small_sieve.factorize(small_sieve.limit + 1)
        with pytest.raises(SieveRangeError):
            small_sieve.mobius(0)

    def test_mobius(self, small_sieve):
        table = small_sieve.mobius_table(1499)
        for n in range(1, 1500):
            assert small_sieve.mobius(n) == table[n - 1] == brute_mobius(n)

    def test_von_mangoldt(self, small_sieve):
        assert small_sieve.von_mangoldt(1) == 0.0
        assert small_sieve.von_mangoldt(8) == pytest.approx(math.log(2))
        assert small_sieve.von_mangoldt(7) == pytest.approx(math.log(7))
        assert small_sieve.von_mangoldt(6) == 0.0
        assert small_sieve.von_mangoldt(12) == 0.0

    def test_euler_phi(self, small_sieve):
        for n in range(1, 300):
            brute = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
            assert small_sieve.euler_phi(n) == brute

    @given(a=st.integers(2, 120), b=st.integers(2, 120))
    @settings(max_examples=60, deadline=None)
    def test_phi_multiplicative(self, a, b):
        s = get_sieve(20000)
        if math.gcd(a, b) == 1:
            assert s.euler_phi(a * b) == s.euler_phi(a) * s.euler_phi(b)

    def test_chebyshev_psi_matches_lambda_sum(self, small_sieve):
        for x in (10, 100.5, 1000):
            direct = math.fsum(
                small_sieve.von_mangoldt(n) for n in range(1, int(x) + 1)
            )
            assert small_sieve.chebyshev_psi(x) == pytest.approx(direct, abs=1e-9)

    def test_chebyshev_psi_small(self, small_sieve):
        assert small_sieve.chebyshev_psi(1.9) == 0.0
        assert small_sieve.chebyshev_psi(2.0) == pytest.approx(math.log(2))

    def test_divisors(self, small_sieve):
        for n in (1, 12, 360, 97):
            brute = [d for d in range(1, n + 1) if n % d == 0]
            assert divisors(n, small_sieve) == brute
