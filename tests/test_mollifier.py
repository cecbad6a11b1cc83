"""Polynomials, the Moebius mollifier, the smoothed zeta combination,
and the two-piece coefficients, against brute-force oracles."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from critline.dirichlet import character, enumerate_characters
from critline.errors import ConstraintError, DomainError, SieveRangeError
from critline.moment import SmoothWeight
from critline.mollifier import (
    MollifierSpec,
    Polynomial,
    WuCoefficientSpec,
    b_polynomial,
    mollifier_coefficients,
    mollifier_line,
    _q_operator,
    v_line,
    wu_coefficient_table,
)
from critline.zeta import _dirichlet_jets, _zeta_jet, zeta, zeta_line

from conftest import factorize, mobius

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


def psi_brute(s, spec):
    total = 0.0 + 0.0j
    m = spec.m_length
    log_m = math.log(m)
    h = 1
    while h <= int(m):
        mu = mobius(h)
        if mu:
            x = (log_m - math.log(h)) / log_m
            total += mu * spec.p_poly(x) * h ** complex(spec.sigma0 - 0.5 - s)
        h += 1
    return total


class TestPsiMollifier:

    def test_matches_brute_force(self, rng):
        spec = MollifierSpec(10000.0, 0.5, 1.3, Polynomial((0.0, 1.0)))
        for _ in range(50):
            s = complex(rng.uniform(0, 1), rng.uniform(-50, 50))
            got = mollifier_line(s.real, np.array([s.imag]), spec)[0]
            assert got == pytest.approx(psi_brute(s, spec), abs=1e-12)

    def test_single_term_degenerate(self):
        spec = MollifierSpec(4.0, 0.2, 0.5, Polynomial((0.0, 1.0)))  # M < 2
        assert mollifier_line(0.5, np.array([0.0]), spec)[0] == pytest.approx(1.0)

    def test_conjugation_symmetry(self):
        spec = MollifierSpec(5000.0, 0.4, 1.0, Polynomial((0.0, 1.0)))
        up, down = mollifier_line(0.45, np.array([12.0, -12.0]), spec)
        assert down == pytest.approx(np.conj(up))

    def test_sieve_range(self):
        # M = 1e8 is past the sieve limit: refused before any table is built
        spec = MollifierSpec(1e16, 0.5, 1.3, Polynomial((0.0, 1.0)))
        with pytest.raises(SieveRangeError):
            mollifier_line(0.5, np.array([0.0]), spec)

    def test_line_matches_pointwise(self, rng):
        spec = MollifierSpec(1e6, 0.5, 1.3, Polynomial((0.0, 1.2, -0.2)))
        t = rng.uniform(-3000, 3000, 20)
        line = mollifier_line(0.43, t, spec)
        for k, tk in enumerate(t):
            assert line[k] == pytest.approx(mollifier_line(0.43, np.array([tk]), spec)[0], rel=1e-12)

    def test_line_on_moment_grid_against_mpmath(self):
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
                if (mu := mobius(h))
            ]
            scale = sum(abs(c) / math.sqrt(h) for h, c in terms)
            for i in np.random.default_rng(8).choice(t.size, 60, replace=False):
                ref = complex(mp.fsum(c * mp.power(h, mp.mpc(-0.5, -t[i])) for h, c in terms))
                assert abs(line[i] - ref) <= 2e-13 * scale


def v_zeta(s, q_poly, log_scale):
    """V zeta(s) = Q(-(1/L) d/ds) zeta(s) at one point, from the jet at s."""
    return complex(_q_operator(_zeta_jet(complex(s), q_poly.degree), q_poly, log_scale))


class TestVSmoothedZeta:
    def test_identity_operator(self):
        s = 0.6 + 20.0j
        assert v_zeta(s, Polynomial((1.0,)), 8.5) == zeta(s)

    def test_linear_q_against_finite_difference(self):
        s = 0.6 + 20.0j
        log_scale = 8.5
        h = 1e-5
        d1 = (zeta(s + h) - zeta(s - h)) / (2 * h)
        expected = zeta(s) + d1 / log_scale
        got = v_zeta(s, Polynomial((1.0, -1.0)), log_scale)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_zero_padding_exact(self):
        s = 0.4 + 15.0j
        a = v_zeta(s, Polynomial((1.0, -1.032)), 9.0)
        b = v_zeta(s, Polynomial((1.0, -1.032, 0.0, 0.0)), 9.0)
        assert a == b

    def test_published_linear_q_on_shifted_line(self):
        # the moment's path: V as one Dirichlet series plus Q on the tail's jets
        log_t = math.log(1e6)
        sigma0 = 0.5 - 1.116 / log_t
        q_poly = Polynomial((1.0, -1.032))
        t = np.array([20.0, 55.0, 90.0])
        line = v_line(sigma0, t, q_poly, log_t)
        assert np.all(np.isfinite(line))
        for k, tk in enumerate(t):
            assert line[k] == pytest.approx(v_zeta(complex(sigma0, tk), q_poly, log_t), rel=1e-12)


    @pytest.mark.parametrize("q_poly", [Polynomial((1.0, -1.0)), Polynomial((1.0, -1.1, 0.2, -0.3))])
    def test_one_series_matches_q_on_zeta_jets(self, q_poly):
        """On the T = 2000 moment grid, V summed as one series with
        coefficients Q(log n / L) agrees with Q applied to zeta_line's jets."""
        log_t = math.log(2000.0)
        sigma0 = 0.5 - 1.3 / log_t
        lo, hi = SmoothWeight(2000.0).support
        t = np.linspace(lo, hi, int(math.ceil((hi - lo) / 0.05)) + 1)
        got = v_line(sigma0, t, q_poly, log_t)
        want = _q_operator(zeta_line(sigma0, t, order=q_poly.degree), q_poly, log_t)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))

def wu_oracle(n, spec, mode):
    """a(n) = mu(n) (P1(x_n) + P2(x_n) sum over p | n, p <= y^{3/4} of P(.)),
    one n at a time from the factorization of n."""
    mu = mobius(n)
    if mu == 0:
        return 0.0
    log_y = math.log(spec.y_length) if spec.y_length > 1 else 1.0
    x_n = (log_y - math.log(n)) / log_y
    prime_sum = 0.0
    for p, _ in factorize(n):
        if p <= spec.y_length**0.75:
            prime_sum += spec.p(x_n if mode == "literal" else math.log(p) / log_y)
    return mu * (spec.p1(x_n) + spec.p2(x_n) * prime_sum)


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

    def test_trivial_values(self):
        n, a_n = wu_coefficient_table(self.make_spec())
        assert n[0] == 1.0 and a_n[0] == pytest.approx(1.0)
        assert 4.0 not in n  # mu(4) = 0: only squarefree n are listed

    def test_large_prime_reduces_to_p1(self):
        spec = self.make_spec()
        y = spec.y_length
        log_y = math.log(y)
        cutoff = y**0.75
        table = dict(zip(*wu_coefficient_table(spec)))
        for n in (1009, 2003, 9973):
            if n > cutoff:
                x = (log_y - math.log(n)) / log_y
                expected = -spec.p1(x)  # mu(prime) = -1, empty prime sum
                assert table[n] == pytest.approx(expected)

    def test_growth_sanity(self):
        _, a_n = wu_coefficient_table(self.make_spec())
        assert np.max(np.abs(a_n)) < 10000.0**0.1

    def test_modes_differ_only_through_inner_p(self):
        spec = self.make_spec()
        n, lit = wu_coefficient_table(spec, "literal")
        _, alt = wu_coefficient_table(spec, "prime-log")
        assert lit[n == 6] != alt[n == 6]  # 6 = 2*3 has small prime divisors below the cutoff
        assert lit[n == 9973] == alt[n == 9973]  # a prime past the cutoff: empty prime sum
        with pytest.raises(DomainError):
            wu_coefficient_table(spec, "bogus")

    def test_range_error(self):
        # y = 1e12 would need a 1 TB Moebius table; it is refused before one is built
        for mode in ("literal", "prime-log"):
            with pytest.raises(SieveRangeError):
                wu_coefficient_table(self.make_spec(1e12), mode)

    @pytest.mark.parametrize("mode", ["literal", "prime-log"])
    @pytest.mark.parametrize("y", [1.5, 100.0, 500.0, 1e4])
    def test_table_matches_per_n_oracle(self, y, mode):
        spec = self.make_spec(y)
        n, a_n = wu_coefficient_table(spec, mode)
        squarefree = [k for k in range(1, int(y) + 1) if mobius(k)]
        assert n.tolist() == squarefree
        expected = [wu_oracle(k, spec, mode) for k in squarefree]
        assert np.max(np.abs(a_n - expected)) <= 1e-14

    def test_table_without_sieve_builds_no_default_sieve(self):
        """Both tables and psi at one point, each from a Moebius table sized to
        its own length, against the trial-division oracle."""
        wspec = self.make_spec(100.0)
        mspec = MollifierSpec(1e4, 0.5, 1.3, Polynomial((0.0, 1.2, -0.2)))
        for mode in ("literal", "prime-log"):
            n, a_n = wu_coefficient_table(wspec, mode)
            expected = [wu_oracle(int(k), wspec, mode) for k in n]
            assert np.max(np.abs(a_n - expected)) <= 1e-14
        h, c = mollifier_coefficients(mspec)  # M = 100
        assert h.tolist() == [k for k in range(1, 101) if mobius(k)]
        expected = [mobius(int(k)) * mspec.p_poly(1.0 - math.log(k) / math.log(100.0)) for k in h]
        assert np.max(np.abs(c - expected)) <= 1e-14
        want = psi_brute(0.6 + 17.0j, mspec)
        assert mollifier_line(0.6, np.array([17.0]), mspec)[0] == pytest.approx(want, abs=1e-12)


def direct_b(s, chi, table):
    """B(s, chi) term by term in cmath."""
    return sum(chi(int(n)) * a * cmath.exp(-s * math.log(n)) for n, a in zip(*table))


class TestBPolynomial:
    def test_tiny_y_single_term(self):
        chi = enumerate_characters(1)[0]
        spec = WuCoefficientSpec(
            Polynomial((0.0, 1.0)), Polynomial((0.0, 1.0)), Polynomial((0.0, 1.0)), 1.5
        )
        n, a_n = wu_coefficient_table(spec)
        assert n.tolist() == [1.0]
        assert b_polynomial(2.0, chi, (n, a_n)) == pytest.approx(a_n[0])

    def test_matches_mollifier_normalization(self):
        # with a(n) = mu(n) P(x_n), B(s) equals psi(s) after undoing the
        # sigma0 - 1/2 exponent shift
        t_scale, theta, r = 10000.0, 0.5, 1.3
        mspec = MollifierSpec(t_scale, theta, r, Polynomial((0.0, 1.0)))
        # drop the second piece by zeroing P: a(n) = mu(n) P1(x_n)
        wspec = WuCoefficientSpec(
            Polynomial((0.0, 1.0)), Polynomial((0.0, 0.0, 1.0)), Polynomial((0.0,)), t_scale**theta
        )
        chi = enumerate_characters(1)[0]
        s = 0.7 + 9.0j
        b_val = b_polynomial(s + (0.5 - mspec.sigma0), chi, wu_coefficient_table(wspec))
        assert b_val == pytest.approx(mollifier_line(s.real, np.array([s.imag]), mspec)[0], abs=1e-12)

    def test_even_in_t_for_real_character(self):
        chi = enumerate_characters(4)[1]  # real character
        spec = WuCoefficientSpec(
            Polynomial((0.0, 1.0)), Polynomial((0.0, 1.0)), Polynomial((0.0, 1.0)), 500.0
        )
        table = wu_coefficient_table(spec)
        for t in (3.0, 11.5):
            plus = abs(b_polynomial(0.5 + 1j * t, chi, table)) ** 2
            minus = abs(b_polynomial(0.5 - 1j * t, chi, table)) ** 2
            assert plus == pytest.approx(minus, rel=1e-12)

    def test_complex_character_against_direct_sum(self):
        chi = character(7, 1)  # order 6; index 3 is the real quadratic character
        assert chi(3) == pytest.approx(cmath.exp(1j * math.pi / 3))
        spec = WuCoefficientSpec(
            Polynomial((0.0, 0.383, 0.492, -0.023, 0.148)),
            Polynomial((0.0, 1.0)),
            Polynomial((0.0, 1.55, -1.564, 0.177)),
            2000.0,
        )
        for mode in ("literal", "prime-log"):
            table = wu_coefficient_table(spec, mode)
            scale = float(np.sum(np.abs(table[1]) / np.sqrt(table[0])))
            for s in (0.5 + 3.0j, 0.5 - 41.7j, 0.8 + 250.0j):
                assert abs(b_polynomial(s, chi, table) - direct_b(s, chi, table)) <= 1e-13 * scale

    def test_complex_coefficients_through_the_shared_phase_table(self):
        """chi(n) a_n on a uniform grid of 30,001 ordinates, whose chunks
        share one phase table, at orders 0-2, against the sum at 30 digits
        on 13 of the ordinates.  The error is the rounding of t log n, so
        it is measured against the sum of the terms' moduli."""
        chi = character(7, 1)
        spec = WuCoefficientSpec(
            Polynomial((0.0, 0.383, 0.492, -0.023, 0.148)),
            Polynomial((0.0, 1.0)),
            Polynomial((0.0, 1.55, -1.564, 0.177)),
            2000.0,
        )
        n, a_n = wu_coefficient_table(spec, "prime-log")
        coeff = chi(n.astype(np.int64)) * a_n
        t = np.linspace(700.0, 2300.0, 30001)
        jets = _dirichlet_jets(0.5, t, n, coeff, 2, lambda t_max: math.inf)[0]
        scale = float(np.sum(np.abs(a_n) / np.sqrt(n)))
        with mp.workdps(30):
            logs = [mp.log(int(k)) for k in n]
            for k in range(0, t.size, 2500):
                s = mp.mpf(0.5) + 1j * mp.mpf(t[k])
                terms = [mp.mpc(complex(c)) * mp.exp(-s * lg) for c, lg in zip(coeff, logs)]
                for j in range(3):
                    want = complex(mp.fsum(u * (-lg) ** j for u, lg in zip(terms, logs)) / math.factorial(j))
                    assert abs(jets[j, k] - want) <= 1e-12 * scale
