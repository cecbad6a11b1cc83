"""Polynomials, the Moebius mollifier, the smoothed zeta combination,
and the two-piece coefficients, against brute-force oracles."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from critline import arithmetic, mollifier
from critline.arithmetic import FactorSieve
from critline.dirichlet import enumerate_characters
from critline.errors import ConstraintError, DomainError, SieveRangeError
from critline.moment import SmoothWeight
from critline.mollifier import (
    MollifierSpec,
    Polynomial,
    WuCoefficientSpec,
    b_polynomial,
    mollifier_line,
    psi_mollifier,
    v_smoothed_zeta,
    wu_coefficient_table,
    wu_coefficients,
)
from critline.zeta import zeta

mp.mp.dps = 25


class TestPolynomial:
    def test_canonical_form(self):
        assert Polynomial((1.0, 2.0, 0.0, 0.0)).coefficients == (1.0, 2.0)
        assert Polynomial(()).coefficients == (0.0,)
        assert Polynomial((0.0,)).degree == 0

    def test_horner_matches_numpy(self, rng):
        coeffs = tuple(rng.uniform(-2, 2, 5))
        p = Polynomial(coeffs)
        for x in rng.uniform(-3, 3, 10):
            assert p(float(x)) == pytest.approx(np.polynomial.polynomial.polyval(x, coeffs))

    def test_array_and_complex_evaluation(self):
        p = Polynomial((1.0, -1.0, 0.5))
        xs = np.array([0.0, 1.0, 2.0])
        assert np.allclose(p(xs), [p(float(x)) for x in xs])
        z = 0.3 + 0.7j
        assert p(z) == pytest.approx(1.0 - z + 0.5 * z * z)

    def test_derivative_and_integral(self):
        p = Polynomial((1.0, 2.0, 3.0))
        assert p.derivative().coefficients == (2.0, 6.0)
        integral = math.fsum(c / (k + 1) for k, c in enumerate(p.coefficients))
        assert integral == pytest.approx(1.0 + 1.0 + 1.0)
        from scipy import integrate

        quad, _ = integrate.quad(p, 0.0, 1.0)
        assert integral == pytest.approx(quad)


class TestMollifierSpec:
    def test_validation(self):
        with pytest.raises(ConstraintError):
            MollifierSpec(1000.0, 0.5, 1.3, Polynomial((0.5, 0.5)))  # P(0) != 0
        with pytest.raises(ConstraintError):
            MollifierSpec(1000.0, 1.5, 1.3, Polynomial((0.0, 1.0)))  # theta out of range
        spec = MollifierSpec(10000.0, 0.5, 1.3, Polynomial((0.0, 1.0)))
        assert spec.m_length == pytest.approx(100.0)
        assert spec.sigma0 < 0.5


class TestPsiMollifier:
    def brute(self, s, spec, sieve):
        total = 0.0 + 0.0j
        m = spec.m_length
        log_m = math.log(m)
        h = 1
        while h <= int(m):
            mu = sieve.mobius(h)
            if mu:
                x = (log_m - math.log(h)) / log_m
                total += mu * spec.p_poly(x) * h ** complex(spec.sigma0 - 0.5 - s)
            h += 1
        return total

    def test_matches_brute_force(self, rng, small_sieve):
        spec = MollifierSpec(10000.0, 0.5, 1.3, Polynomial((0.0, 1.0)))
        for _ in range(50):
            s = complex(rng.uniform(0, 1), rng.uniform(-50, 50))
            got = psi_mollifier(s, spec, small_sieve)
            assert got == pytest.approx(self.brute(s, spec, small_sieve), abs=1e-12)

    def test_single_term_degenerate(self, small_sieve):
        spec = MollifierSpec(4.0, 0.2, 0.5, Polynomial((0.0, 1.0)))  # M < 2
        assert psi_mollifier(0.5, spec, small_sieve) == pytest.approx(1.0)

    def test_conjugation_symmetry(self, small_sieve):
        spec = MollifierSpec(5000.0, 0.4, 1.0, Polynomial((0.0, 1.0)))
        s = 0.45 + 12.0j
        assert psi_mollifier(np.conj(s), spec, small_sieve) == pytest.approx(
            np.conj(psi_mollifier(s, spec, small_sieve))
        )

    def test_sieve_range(self, small_sieve):
        spec = MollifierSpec(10.0**12, 0.5, 1.3, Polynomial((0.0, 1.0)))
        with pytest.raises(SieveRangeError):
            psi_mollifier(0.5, spec, small_sieve)

    def test_line_matches_pointwise(self, rng, small_sieve):
        spec = MollifierSpec(1e6, 0.5, 1.3, Polynomial((0.0, 1.2, -0.2)))
        t = rng.uniform(-3000, 3000, 20)
        line = mollifier_line(0.43, t, spec)
        for k, tk in enumerate(t):
            assert line[k] == pytest.approx(psi_mollifier(0.43 + 1j * tk, spec, small_sieve), rel=1e-12)

    def test_line_on_moment_grid_against_mpmath(self, small_sieve):
        """The T=2000 moment grid is uniform, so mollifier_line reuses one
        phase table across its chunks; 60 sampled ordinates against the
        Moebius sum in 30 digits.  The error is the rounding of t log h,
        about 1e-13 absolute, so it is measured against the sum of the
        terms' moduli, which |psi| can fall well below."""
        t_scale = 2000.0
        lo, hi = SmoothWeight(t_scale).support
        t = np.linspace(lo, hi, int(math.ceil((hi - lo) / 0.05)) + 1)
        spec = MollifierSpec(t_scale, 0.5, 1.3, Polynomial((0.0, 1.2, -0.2)))
        line = mollifier_line(spec.sigma0, t, spec)  # sum of c_h h^{-1/2-it}
        with mp.workdps(30):
            m_len = mp.mpf(t_scale) ** 0.5
            terms = [
                (h, mu * spec.p_poly(float(mp.log(m_len / h) / mp.log(m_len))))
                for h in range(1, int(m_len) + 1)
                if (mu := small_sieve.mobius(h))
            ]
            scale = sum(abs(c) / math.sqrt(h) for h, c in terms)
            for i in np.random.default_rng(8).choice(t.size, 60, replace=False):
                ref = complex(mp.fsum(c * mp.power(h, mp.mpc(-0.5, -t[i])) for h, c in terms))
                assert abs(line[i] - ref) <= 2e-13 * scale


class TestVSmoothedZeta:
    def test_identity_operator(self):
        s = 0.6 + 20.0j
        assert v_smoothed_zeta(s, Polynomial((1.0,)), 8.5) == zeta(s)

    def test_linear_q_against_finite_difference(self):
        s = 0.6 + 20.0j
        log_scale = 8.5
        h = 1e-5
        d1 = (zeta(s + h) - zeta(s - h)) / (2 * h)
        expected = zeta(s) + d1 / log_scale
        got = v_smoothed_zeta(s, Polynomial((1.0, -1.0)), log_scale)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_zero_padding_exact(self):
        s = 0.4 + 15.0j
        a = v_smoothed_zeta(s, Polynomial((1.0, -1.032)), 9.0)
        b = v_smoothed_zeta(s, Polynomial((1.0, -1.032, 0.0, 0.0)), 9.0)
        assert a == b

    def test_published_linear_q_on_shifted_line(self):
        log_t = math.log(1e6)
        sigma0 = 0.5 - 1.116 / log_t
        for t in (20.0, 55.0, 90.0):
            value = v_smoothed_zeta(complex(sigma0, t), Polynomial((1.0, -1.032)), log_t)
            assert np.isfinite(value.real) and np.isfinite(value.imag)

    def test_degree_cap(self):
        with pytest.raises(DomainError):
            v_smoothed_zeta(2.0, Polynomial(tuple([1.0] + [0.1] * 9)), 8.0)


class TestWuCoefficients:
    def make_spec(self, y=10000.0):
        return WuCoefficientSpec(
            p1=Polynomial((0.0, 0.383, 0.492, -0.023, 0.148)),
            p2=Polynomial((0.0, 1.0)),
            p=Polynomial((0.0, 1.55, -1.564, 0.177)),
            y_length=y,
        )

    def test_constraint_validation(self):
        with pytest.raises(ConstraintError):
            WuCoefficientSpec(
                Polynomial((0.1, 0.9)), Polynomial((0.0, 1.0)), Polynomial((0.0, 1.0)), 100.0
            )

    def test_trivial_values(self, small_sieve):
        spec = self.make_spec()
        assert wu_coefficients(1, spec, sieve=small_sieve) == pytest.approx(1.0)
        assert wu_coefficients(4, spec, sieve=small_sieve) == 0.0

    def test_large_prime_reduces_to_p1(self, small_sieve):
        spec = self.make_spec()
        y = spec.y_length
        log_y = math.log(y)
        cutoff = y**0.75
        for n in (1009, 2003, 9973):
            if n > cutoff:
                x = (log_y - math.log(n)) / log_y
                expected = -spec.p1(x)  # mu(prime) = -1, empty prime sum
                assert wu_coefficients(n, spec, sieve=small_sieve) == pytest.approx(expected)

    def test_growth_sanity(self, small_sieve):
        spec = self.make_spec()
        biggest = max(
            abs(wu_coefficients(n, spec, sieve=small_sieve)) for n in range(1, 10001)
        )
        assert biggest < 10000.0**0.1

    def test_modes_differ_only_through_inner_p(self, small_sieve):
        spec = self.make_spec()
        lit = wu_coefficients(6, spec, "literal", small_sieve)
        alt = wu_coefficients(6, spec, "prime-log", small_sieve)
        assert lit != alt  # 6 = 2*3 has small prime divisors below the cutoff
        with pytest.raises(DomainError):
            wu_coefficients(6, spec, "bogus", small_sieve)

    def test_range_error(self, small_sieve):
        spec = self.make_spec(100.0)
        with pytest.raises(SieveRangeError):
            wu_coefficients(101, spec, sieve=small_sieve)

    def test_table_without_sieve_builds_no_default_sieve(self, small_sieve, monkeypatch):
        spec = self.make_spec(100.0)
        expected = wu_coefficient_table(spec, sieve=small_sieve)

        def refuse(limit=None):
            raise AssertionError("the default sieve was requested")

        monkeypatch.setattr(arithmetic, "get_sieve", refuse)
        monkeypatch.setattr(mollifier, "get_sieve", refuse)
        assert wu_coefficient_table(spec) == expected


class TestBPolynomial:
    def test_tiny_y_single_term(self, small_sieve):
        chi = enumerate_characters(1)[0]
        spec = WuCoefficientSpec(
            Polynomial((0.0, 1.0)), Polynomial((0.0, 1.0)), Polynomial((0.0, 1.0)), 1.5
        )
        coeffs = wu_coefficient_table(spec, sieve=small_sieve)
        assert b_polynomial(2.0, chi, coeffs, 1.5) == pytest.approx(coeffs[1])

    def test_matches_mollifier_normalization(self, small_sieve):
        # with a(n) = mu(n) P(x_n), B(s) equals psi(s) after undoing the
        # sigma0 - 1/2 exponent shift
        t_scale, theta, r = 10000.0, 0.5, 1.3
        mspec = MollifierSpec(t_scale, theta, r, Polynomial((0.0, 1.0)))
        wspec = WuCoefficientSpec(
            Polynomial((0.0, 1.0)),
            Polynomial((0.0, 0.0, 1.0)),  # P2 irrelevant: P identically scaled
            Polynomial((0.0, 1.0)),
            t_scale**theta,
        )
        chi = enumerate_characters(1)[0]
        # drop the second piece by zeroing P: a(n) = mu(n) P1(x_n)
        wspec = WuCoefficientSpec(wspec.p1, wspec.p2, Polynomial((0.0,)), wspec.y_length)
        coeffs = wu_coefficient_table(wspec, sieve=small_sieve)
        s = 0.7 + 9.0j
        b_val = b_polynomial(s + (0.5 - mspec.sigma0), chi, coeffs, wspec.y_length)
        psi_val = psi_mollifier(s, mspec, small_sieve)
        assert b_val == pytest.approx(psi_val, abs=1e-12)

    def test_even_in_t_for_real_character(self, small_sieve):
        chi = enumerate_characters(4)[1]  # real character
        spec = WuCoefficientSpec(
            Polynomial((0.0, 1.0)), Polynomial((0.0, 1.0)), Polynomial((0.0, 1.0)), 500.0
        )
        coeffs = wu_coefficient_table(spec, sieve=small_sieve)
        for t in (3.0, 11.5):
            plus = abs(b_polynomial(0.5 + 1j * t, chi, coeffs, 500.0)) ** 2
            minus = abs(b_polynomial(0.5 - 1j * t, chi, coeffs, 500.0)) ** 2
            assert plus == pytest.approx(minus, rel=1e-12)
