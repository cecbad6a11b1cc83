"""The prime sieve tables against trial-division oracles."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from critline.arithmetic import DEFAULT_SIEVE_LIMIT, chebyshev_psi, mobius_table, primes_upto
from critline.errors import SieveRangeError

from conftest import factorize, mobius

N = 20000


def von_mangoldt(n):
    f = factorize(n)
    return math.log(f[0][0]) if len(f) == 1 else 0.0


class TestFactorSieve:
    """primes_upto, mobius_table and chebyshev_psi, each sieving up to its argument."""

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            chebyshev_psi(-1.0)

    def test_primes(self):
        assert primes_upto(N).tolist() == [n for n in range(2, N + 1) if factorize(n) == [(n, 1)]]
        assert primes_upto(0).tolist() == primes_upto(1).tolist() == []
        assert primes_upto(2).tolist() == [2]
        assert primes_upto(25).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23]

    def test_out_of_range(self):
        # refused before any table is allocated, even where numpy could not allocate one
        for n in (DEFAULT_SIEVE_LIMIT + 1, 1e12, 10**18):
            with pytest.raises(SieveRangeError):
                primes_upto(n)
            with pytest.raises(SieveRangeError):
                mobius_table(n)
            with pytest.raises(SieveRangeError):
                chebyshev_psi(n)
        with pytest.raises(SieveRangeError):
            chebyshev_psi(DEFAULT_SIEVE_LIMIT + 0.5)

    def test_mobius(self):
        assert mobius_table(N).tolist() == [mobius(n) for n in range(1, N + 1)]
        assert mobius_table(1).tolist() == [1]
        assert mobius_table(0).tolist() == []

    def test_mobius_against_per_prime_loop(self):
        # the former table: one strided sign flip for every prime p <= n
        def per_prime(n):
            primes = primes_upto(n)
            mu = np.ones(n, dtype=np.int8)
            for p in primes.tolist():
                flip = mu[p - 1 :: p]
                np.negative(flip, out=flip)
            for p in primes[primes <= math.isqrt(n)].tolist():
                mu[p * p - 1 :: p * p] = 0
            return mu

        for n in (2, 3, 4, 8, 9, 10, 48, 49, 50, 120, 121, 961, 9999, 10000, 10001, 65536, 99856, 100000):
            assert np.array_equal(mobius_table(n), per_prime(n)), n

    def test_von_mangoldt(self):
        # Lambda(n) = psi(n) - psi(n - 1)
        def lam(n):
            return chebyshev_psi(n) - chebyshev_psi(n - 1)

        assert lam(1) == 0.0
        assert lam(8) == pytest.approx(math.log(2))
        assert lam(7) == pytest.approx(math.log(7))
        assert lam(6) == 0.0
        assert lam(12) == 0.0

    def test_chebyshev_psi_matches_lambda_sum(self):
        lam = [von_mangoldt(n) for n in range(1, N + 1)]
        for x in (10, 100.5, 1000, 7919, 7920, 16384, N):
            assert chebyshev_psi(x) == pytest.approx(math.fsum(lam[: int(x)]), rel=1e-15)

    def test_chebyshev_psi_is_the_one_list_sum(self):
        # fsum is correctly rounded in any grouping, so feeding it the logs
        # in pieces gives the sum of one list of every log, bit for bit;
        # 1e6 has 78,498 primes, more than one piece
        def one_list(x):
            xi = int(math.floor(x))
            primes = primes_upto(xi)
            parts = [math.fsum(np.log(primes.astype(np.float64)).tolist())]
            for p in primes[primes <= math.isqrt(xi)].tolist():
                pk = p * p
                while pk <= xi:
                    parts.append(math.log(p))
                    pk *= p
            return math.fsum(parts)

        for x in (2, 1000, 65_537, 1e5, 1e6):
            assert chebyshev_psi(x) == one_list(x), x

    def test_chebyshev_psi_small(self):
        assert chebyshev_psi(0.0) == chebyshev_psi(1.9) == 0.0
        assert chebyshev_psi(2.0) == pytest.approx(math.log(2))


def test_import_leaves_scipy_out():
    """The sieve module needs numpy only: importing it in a fresh
    interpreter loads no scipy."""
    import critline

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(critline.__file__)))
    code = "import sys, critline.arithmetic; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
