"""Complex gamma and the upper incomplete gamma against mpmath."""

import cmath

import mpmath as mp
import pytest

from critline.special import complex_gamma, upper_incomplete_gamma
from critline.errors import DomainError, PoleError

mp.mp.dps = 30


class TestComplexGamma:
    def test_against_mpmath(self, rng):
        for _ in range(40):
            s = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
            if abs(s.imag) < 1e-3 and s.real <= 0 and abs(s.real - round(s.real)) < 1e-3:
                continue
            ref = complex(mp.gamma(mp.mpc(s)))
            assert complex_gamma(s) == pytest.approx(ref, rel=1e-12)

    def test_large_imaginary(self):
        s = 2.0 + 300.0j
        ref = complex(mp.gamma(mp.mpc(s)))
        assert complex_gamma(s) == pytest.approx(ref, rel=1e-10)

    def test_poles(self):
        for s in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                complex_gamma(s)


class TestIncompleteGamma:
    def test_against_mpmath(self, rng):
        for _ in range(60):
            s = complex(rng.uniform(-6, 6), rng.uniform(-6, 6))
            x = float(rng.uniform(0.05, 30.0))
            ref = complex(mp.gammainc(mp.mpc(s), x, mp.inf))
            got = upper_incomplete_gamma(s, x)
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_nonpositive_integer_s(self):
        for n in (0, -1, -4):
            for x in (0.3, 2.0, 9.0):
                ref = complex(mp.gammainc(mp.mpf(n), x, mp.inf))
                assert upper_incomplete_gamma(complex(n), x) == pytest.approx(
                    ref, rel=1e-10, abs=1e-14
                )

    def test_complement_identity(self, rng):
        for _ in range(20):
            s = complex(rng.uniform(0.6, 5.0), rng.uniform(-3, 3))
            x = float(rng.uniform(0.1, 10.0))
            lower = mp.gammainc(mp.mpc(s), 0, x)
            ref = complex(mp.gamma(mp.mpc(s)) - lower)
            assert upper_incomplete_gamma(s, x) == pytest.approx(ref, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            upper_incomplete_gamma(1.0, 0.0)

    def test_exponential_special_case(self):
        # Gamma(1, x) = e^{-x}
        for x in (0.5, 3.0, 20.0):
            assert upper_incomplete_gamma(1.0, x) == pytest.approx(cmath.exp(-x))
