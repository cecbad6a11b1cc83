"""The prime sieve tables against trial-division oracles."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from critline.arithmetic import _SEGMENT, DEFAULT_SIEVE_LIMIT, chebyshev_psi, mobius_table, primes_upto
from critline.errors import DomainError, SieveRangeError

from conftest import factorize, mobius

N = 20000
# either side of the first sieve windows' edges, and many windows
SIEVE_NS = (0, 1, 2, 3, 2 * _SEGMENT - 1, 2 * _SEGMENT, 2 * _SEGMENT + 1, 4 * _SEGMENT + 1, 10**6)


def von_mangoldt(n):
    f = factorize(n)
    return math.log(f[0][0]) if len(f) == 1 else 0.0


def one_array_sieve(n):
    """The primes p <= n from one boolean array over 0..n."""
    mark = np.ones(n + 1, dtype=bool)
    mark[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mark[p]:
            mark[p * p :: p] = False
    return np.flatnonzero(mark)


class TestFactorSieve:
    """primes_upto, mobius_table and chebyshev_psi, each sieving up to its argument."""

    def test_limit_validation(self):
        for x in (-1.0, -1e300, math.nan):
            with pytest.raises(DomainError):
                chebyshev_psi(x)
        with pytest.raises(DomainError):
            mobius_table(-5)

    def test_non_integers_are_refused(self):
        """Any n but an integer is a DomainError, an integral float included;
        numpy's integers are integers."""
        for n in (1e6, 10.0, 2.5, math.nan, -1.0, np.float64(7.0)):
            with pytest.raises(DomainError):
                primes_upto(n)
            with pytest.raises(DomainError):
                mobius_table(n)
        assert primes_upto(np.int64(25)).tolist() == primes_upto(25).tolist()
        assert mobius_table(np.int32(30)).tolist() == mobius_table(30).tolist()
        assert primes_upto(np.uint8(2)).tolist() == [2]

    def test_primes(self):
        assert primes_upto(N).tolist() == [n for n in range(2, N + 1) if factorize(n) == [(n, 1)]]
        for n in (-5, -1, 0, 1):
            assert primes_upto(n).dtype == np.intp and primes_upto(n).size == 0, n
        assert primes_upto(2).tolist() == [2]
        assert primes_upto(25).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23]

    def test_primes_match_one_array_sieve(self):
        for n in SIEVE_NS:
            primes, oracle = primes_upto(n), one_array_sieve(n)
            assert primes.dtype == oracle.dtype and np.array_equal(primes, oracle), n

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
        # one sieve window at a time gives the sum of one list of every log,
        # bit for bit
        def one_list(x):
            xi = int(math.floor(x))
            primes = one_array_sieve(xi)
            parts = [math.fsum(np.log(primes.astype(np.float64)).tolist())]
            for p in primes[primes <= math.isqrt(xi)].tolist():
                pk = p * p
                while pk <= xi:
                    parts.append(math.log(p))
                    pk *= p
            return math.fsum(parts)

        for x in (*SIEVE_NS, 1000, 65_537.5, 1e5, DEFAULT_SIEVE_LIMIT):
            assert chebyshev_psi(x) == one_list(x), x

    def test_chebyshev_psi_memory(self):
        # one sieve window and the base primes at a time (1.25 MB traced),
        # where one boolean array over 0..x and its primes take 15.3 MB
        tracemalloc.start()
        try:
            chebyshev_psi(DEFAULT_SIEVE_LIMIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, peak

    def test_chebyshev_psi_small(self):
        assert chebyshev_psi(0.0) == chebyshev_psi(1.9) == 0.0
        assert chebyshev_psi(2.0) == pytest.approx(math.log(2))


def test_import_leaves_scipy_out():
    """scipy is a test-only oracle: in a fresh interpreter no scipy module is
    loaded by the sieve module, by the CLI or by any command below, among
    them every path through log Gamma and psi (the reflected zeta and L, L at
    s = 1, the zero scan's Hardy phase, the AFE).  The same run with scipy
    made unimportable prints the same.  The reflected zeta's value is pinned
    in test_zeta.py::TestZetaLineGrid::test_one_chunk_calls_are_pinned."""
    import critline
    import critline.levinson
    import critline.mollifier

    assert critline.mollifier.Polynomial is critline.levinson.Polynomial
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(critline.__file__)))
    commands = [
        ["constant"],
        ["optimize", "--p-degree", "2", "--q-degree", "2"],
        ["moment", "--T", "200"],
        ["psi", "--x", "1000"],
        ["chars", "--q", "12"],
        ["registry"],
        ["lfun", "--q", "5", "--index", "1", "--s", "0.5+10j"],
        ["lfun", "--q", "5", "--index", "1", "--s", "-2.5+3j"],
        ["lfun", "--q", "5", "--index", "1", "--s", "1"],
        ["zeros", "--tmax", "30"],
        ["zeta", "--s", "-3.5+20j"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "{block}"
        "def scipy_loaded():\n"
        "    return sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod is not None)\n"
        "import critline.arithmetic\n"
        "print(json.dumps(['import', 0, scipy_loaded(), '']))\n"
        "import critline.cli\n"
        f"for argv in {commands!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        status = critline.cli.main(argv)\n"
        "    print(json.dumps([argv[0], status, scipy_loaded(), out.getvalue()]))\n"
        "from critline.zeta import AfeParams, afe_pair\n"
        "value = afe_pair(AfeParams(1e-3, 1e-3, 50.0, 2000))\n"
        "print(json.dumps(['afe_pair', 0, scipy_loaded(), repr(value)]))\n"
    )
    printed = []
    for block in ("", "sys.modules['scipy'] = None  # any scipy import now fails\n"):
        proc = subprocess.run([sys.executable, "-c", code.format(block=block)],
                              capture_output=True, text=True, check=True, env=env)
        runs = [json.loads(line) for line in proc.stdout.splitlines()]
        assert [name for name, *_ in runs] == ["import"] + [argv[0] for argv in commands] + ["afe_pair"]
        for name, status, loaded, _ in runs:
            assert (status, loaded) == (0, []), name
        assert json.loads(runs[-2][3])["zeta"] == {"re": -37.456719829206691, "im": -98.992307129261675}
        printed.append([out for *_, out in runs])
    assert printed[0] == printed[1]
