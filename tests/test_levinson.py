"""The Levinson constant, kappa bound, shifted constant, operator
application, and the published-tuple registry."""

import math
import re
from itertools import zip_longest

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from critline.errors import AccuracyError, ConstraintError, DomainError
from critline.levinson import (
    NODES,
    THETA_MAX,
    LevinsonParams,
    Polynomial,
    ShiftedParams,
    c_constant_exact,
    c_constant_quadrature,
    c_forms,
    kappa_lower_bound,
    published_tuples,
    shifted_c,
)
from critline.optimizer import R_SEARCH_MAX

from conftest import fornberg_weights

BASELINE = LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((1.0, -1.0)), 1.3, 0.5)


# Young's route to c, the reference the closed form is checked against:
# the shifted constant with Q(-(1/L) d/d alpha) Q(-(1/L) d/d beta) applied
# by finite differences, exact as the step goes to 0 with O(h^2) error
def apply_q_operators(
    params: LevinsonParams, t_scale: float, step_scale: float = 0.2
) -> complex:
    """Q(-(1/L) d/d alpha) Q(-(1/L) d/d beta) applied to the shifted
    constant at alpha = beta = -R/L, by central finite-difference stencils.

    Step is step_scale / log T; the stencil is widened past five points
    when deg Q needs it.
    """
    q = params.q_poly
    log_t = math.log(t_scale)
    h = step_scale / log_t
    deg = q.degree
    half = max(2, (deg + 2) // 2 + 1)
    grid = h * np.arange(-half, half + 1, dtype=float)
    # operator coefficients: sum_j q_j (-1/L)^j d^j
    weights = np.zeros(grid.size)
    for j, q_j in enumerate(q.coefficients):
        weights += q_j * (-1.0 / log_t) ** j * fornberg_weights(grid, j)
    base = -params.r_shift / log_t
    m_length = t_scale**params.theta
    total = 0.0 + 0.0j
    for i, da in enumerate(grid):
        for j, db in enumerate(grid):
            shift = ShiftedParams(base + da, base + db, m_length, t_scale)
            total += weights[i] * weights[j] * shifted_c(shift, params.p_poly, params.theta)
    return total


def random_params(rng):
    p_deg = int(rng.integers(1, 5))
    q_deg = int(rng.integers(1, 5))
    p = [0.0] + list(rng.uniform(-1, 1, p_deg))
    p[-1] += 1.0 - sum(p)  # P(1)=1
    q = [1.0] + list(rng.uniform(-1, 1, q_deg))
    return LevinsonParams(
        Polynomial(p), Polynomial(q), float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 0.5))
    )


# the brute-force oracle for the Gram pieces: each integral of a product
# of two polynomials from the exact convolution of their coefficients
def _poly_product_integral(p: Polynomial, q: Polynomial) -> float:
    """Integral over [0,1] of p(u) q(u) du, exact rational-coefficient path."""
    conv = np.convolve(p.coefficients, q.coefficients)
    return math.fsum(c / (k + 1) for k, c in enumerate(conv))


def p_integrals_by_products(p: Polynomial) -> tuple[float, float, float]:
    dp = p.derivative()
    return _poly_product_integral(p, p), _poly_product_integral(p, dp), _poly_product_integral(dp, dp)


# the exact oracle: int_0^1 e^{a v} v^k dv = sum_n a^n / (n! (n + k + 1)),
# summed at 40 digits; its terms are positive for a > 0, and for |a| <= 20
# the alternating ones cancel at most 9 of the 40 digits
def exp_moments(a, m: int) -> list:
    with mp.workdps(40):
        a = mp.mpmathify(a)
        total, term, n = [mp.mpf(0)] * (m + 1), mp.mpf(1), 0
        while n <= abs(a) or abs(term) > mp.eps * abs(total[m]):
            total = [t + term / (n + k + 1) for k, t in enumerate(total)]
            n += 1
            term *= a / n
        return total


def exact_c(params: LevinsonParams) -> float:
    """c from the polynomials' exact products and exp_moments, at 40 digits."""
    with mp.workdps(40):
        p, q = ([mp.mpf(c) for c in poly.coefficients] for poly in (params.p_poly, params.q_poly))
        r, theta = mp.mpf(params.r_shift), mp.mpf(params.theta)
        dp, dq = ([k * c for k, c in enumerate(g)][1:] for g in (p, q))
        f = [theta * (r * a + b) for a, b in zip_longest(q, dq, fillvalue=0)]
        moments = exp_moments(2 * r, 2 * len(q))

        def mul(g, h):
            out = [mp.mpf(0)] * (len(g) + len(h) - 1)
            for i, a in enumerate(g):
                for j, b in enumerate(h):
                    out[i + j] += a * b
            return out

        def integral(g, weights):
            return sum(c * w for c, w in zip(g, weights))

        plain = [mp.mpf(1) / (k + 1) for k in range(2 * len(p))]
        square = integral(mul(f, f), moments) * integral(mul(p, p), plain)
        square += 2 * integral(mul(f, q), moments) * integral(mul(p, dp), plain)
        square += integral(mul(q, q), moments) * integral(mul(dp, dp), plain)
        return float(1 + square / theta)


def random_tuple(rng, p_degree: int, q_degree: int, r: float, theta: float = 0.5) -> LevinsonParams:
    """P(0) = 0, P(1) = 1 and Q(0) = 1, with the other coefficients uniform in [-1, 1)."""
    p = [0.0, *rng.uniform(-1, 1, p_degree)]
    p[-1] += 1.0 - sum(p)
    return LevinsonParams(Polynomial(p), Polynomial([1.0, *rng.uniform(-1, 1, q_degree)]), r, theta)


def check_c(params: LevinsonParams):
    assert c_constant_exact(params) == pytest.approx(exact_c(params), rel=1e-14, abs=0.0)


def check_shifted(shift: ShiftedParams, p: Polynomial, theta: float):
    """shifted_c against the convolution oracle's P integrals and exp_moments' v-integral."""
    pp, ppd, pdpd = p_integrals_by_products(p)
    a, b = complex(shift.alpha), complex(shift.beta)
    log_m, log_t = math.log(shift.m_length), math.log(shift.t_scale)
    iv = complex(exp_moments(-(a + b) * log_t, 0)[0])
    want = 1.0 + (iv / theta) * (a * b * log_m**2 * pp - (a + b) * log_m * ppd + pdpd)
    assert abs(shifted_c(shift, p, theta) - want) <= 1e-14 * abs(want)


def shifted_for(z: complex) -> ShiftedParams:
    """Equal shifts alpha = beta with -(alpha + beta) log T = z, at M = 1e4, T = 1e8."""
    alpha = -z / (2.0 * math.log(1e8))
    return ShiftedParams(alpha, alpha, 1e4, 1e8)


SHIFT_P = Polynomial((0.0, 0.4, 0.6))


class TestExpMonomialIntegral:
    # c's integrals of e^{2Rv} v^k and the shifted constant's of e^{zv} on the
    # node rule, against exp_moments: the cases of the recurrence the rule
    # replaced (a = 2R or z, up to degree 20 in v), and larger R
    def test_against_the_exact_series(self, rng):
        for a in (1e-9, 0.3, 0.49, 2.6):
            for q_degree in (0, 1, 2, 5):
                params = random_tuple(rng, max(1, q_degree), q_degree, a / 2.0)
                check_c(params)
        for z in (1e-9, 0.3, -0.45, 0.49, 2.6, -5.0, 0.002 + 0.001j):
            check_shifted(shifted_for(z), SHIFT_P, 0.5)

    def test_against_mpmath_below_the_degree(self, rng):
        # 2R below the degree 2 deg Q of e^{2Rv} Q^2 and above
        for a in (0.7, 2.6, 9.9, 11.9, 19.9):
            for q_degree in (5, 6, 10):
                params = random_tuple(rng, q_degree, q_degree, a / 2.0, THETA_MAX)
                check_c(params)
        for z in (0.7, 9.9, -9.9, 11.9, 19.9, -19.9, 3.0 + 4.0j, 19.9j):
            check_shifted(shifted_for(z), SHIFT_P, 0.5)

    def test_zero_argument_limit(self):
        # z = 0: the v-integral is 1 to rounding; R -> 0 is test_trivial_collapse
        check_shifted(shifted_for(0.0), SHIFT_P, 0.5)
        check_c(LevinsonParams(SHIFT_P, Polynomial((1.0, -0.7, 0.3)), 5e-10, 0.5))

    def test_accuracy_across_branch_switch(self, rng):
        # where the recurrence switched direction, |a| = 1/2
        for a in (0.4999999, 0.5000001):
            for q_degree in (0, 2, 4):
                params = random_tuple(rng, 3, q_degree, a / 2.0)
                check_c(params)
        for z in (0.4999999, 0.5000001, -0.4999999, -0.5000001):
            check_shifted(shifted_for(z), SHIFT_P, 0.5)

    def test_large_r(self, rng):
        # Q(1) = 1/4 and theta = 1/20 keep c inside the double range up to
        # R = 355, where the nodes' own rounding, times 2R, sets the accuracy;
        # past R = 354.5 the node sum carries e^{2R - 709} outside
        for r in (50.0, 100.0, 300.0, 354.0, 355.0):
            for q_degree in (1, 3, 5):
                params = random_tuple(rng, 3, q_degree, r)
                q = np.array(params.q_poly.coefficients)
                q[-1] += 0.25 - params.q_poly(1.0)
                params = LevinsonParams(params.p_poly, Polynomial(q), r, 0.05)
                assert c_constant_exact(params) == pytest.approx(exact_c(params), rel=5e-13, abs=0.0)

    def test_large_r_with_q_vanishing_at_one(self):
        # P = x, Q = 1 - x loses more of c to the nodes' rounding than the
        # Q(1) = 1/4 tuples above: 7.4e-14 at the optimizer's largest R
        for r in (50.0, 100.0, 200.0, R_SEARCH_MAX):
            params = LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((1.0, -1.0)), r, 0.5)
            assert c_constant_exact(params) == pytest.approx(exact_c(params), rel=1e-13, abs=0.0)

    def test_overflow_refused(self):
        # c of constant --R 400 is about 2.8e343, past the double range; the
        # refusal writes no numpy warning
        params = LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((1.0, -1.0)), 400.0, 0.5)
        with pytest.raises(DomainError, match=re.escape("c at R = 400.0 overflows a double")):
            c_constant_exact(params)


class TestConstraints:
    def test_p_at_zero(self):
        with pytest.raises(ConstraintError):
            LevinsonParams(Polynomial((0.5, 0.5)), Polynomial((1.0,)), 1.0, 0.5)

    def test_p_at_one(self):
        with pytest.raises(ConstraintError):
            LevinsonParams(Polynomial((0.0, 0.7)), Polynomial((1.0,)), 1.0, 0.5)

    def test_q_at_zero(self):
        with pytest.raises(ConstraintError):
            LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((0.9, -1.0)), 1.0, 0.5)

    def test_r_positive(self):
        for r in (0.0, -1.0, math.nan):
            with pytest.raises(ConstraintError, match="R must be positive"):
                LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((1.0,)), r, 0.5)

    def test_theta_range(self):
        with pytest.raises(ConstraintError):
            LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((1.0,)), 1.0, 0.7)
        with pytest.raises(ConstraintError):
            LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((1.0,)), 1.0, 0.572)
        # Conrey's mean-value range reaches 4/7
        LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((1.0,)), 1.0, THETA_MAX)
        assert THETA_MAX == 4.0 / 7.0


class TestCConstant:
    def test_trivial_collapse(self):
        # P = x, Q = 1 as R -> 0: c -> 1 + 1/theta (R = 0 itself is refused)
        params = LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((1.0,)), 1e-12, 0.5)
        assert c_constant_exact(params) == pytest.approx(3.0)
        assert c_constant_quadrature(params) == pytest.approx(3.0, abs=1e-9)

    def test_quadrature_refuses_a_nan_error_estimate(self):
        # at R = 354 both tensor rules overflow: inf - inf leaves a nan estimate
        params = LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((1.0, 5.0)), 354.0, 0.5)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(AccuracyError, match="nan"):
            c_constant_quadrature(params)

    def test_exact_refuses_an_overflowed_c(self):
        # e^{2Rv} at R = 354 is finite on the nodes, but c with Q(1) = 6 is
        # not; the refusal comes without a numpy overflow warning
        params = LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((1.0, 5.0)), 354.0, 0.5)
        with pytest.raises(DomainError, match=re.escape("c at R = 354.0 overflows a double")):
            c_constant_exact(params)

    def test_baseline_value_and_kappa_window(self):
        c = c_constant_exact(BASELINE)
        assert c == pytest.approx(2.3500677761, abs=1e-9)
        kappa = kappa_lower_bound(c, BASELINE.r_shift)
        assert 0.30 < kappa < 0.36

    def test_weights_against_quadrature(self, rng):
        # alpha, beta, gamma, the e^{2Rv}-weighted integrals of F^2, FQ and
        # Q^2 with F = R theta Q + theta Q', by adaptive quadrature, are
        # c_forms at the one row Q, and with the convolution oracle's P
        # integrals they give c_constant_exact
        for _ in range(5):
            params = random_params(rng)
            q, r, theta = params.q_poly, params.r_shift, params.theta
            dq = q.derivative()

            def f(v):
                return r * theta * q(v) + theta * dq(v)

            alpha, beta, gamma = (
                integrate.quad(lambda v: math.exp(2 * r * v) * g(v), 0.0, 1.0, epsabs=1e-14)[0]
                for g in (lambda v: f(v) ** 2, lambda v: f(v) * q(v), lambda v: q(v) ** 2)
            )
            forms = c_forms(q(NODES)[None], dq(NODES)[None], r, theta)
            assert forms.shape == (3, 1, 1)
            assert forms.ravel() == pytest.approx([alpha, beta, gamma], rel=1e-12)
            pp, ppd, pdpd = p_integrals_by_products(params.p_poly)
            want = 1.0 + (alpha * pp + 2.0 * beta * ppd + gamma * pdpd) / theta
            assert c_constant_exact(params) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.5, THETA_MAX])
    def test_forms_at_one_row_match_the_stacked_call(self, theta):
        # c_constant_exact passes Q's one node row as it is; the forms are
        # those of the same row stacked, bit for bit
        for t in published_tuples():
            q = t.q_poly
            for r in (0.1, 1.3, 10.0, 100.0, 300.0, 354.9):
                with np.errstate(over="ignore", invalid="ignore"):
                    row = c_forms(q(NODES), q.derivative()(NODES), r, theta)
                    stacked = c_forms(q(NODES)[None], q.derivative()(NODES)[None], r, theta)
                assert row.shape == (3,)
                np.testing.assert_array_equal(row, stacked.ravel())

    def test_cross_path_agreement(self, rng):
        for _ in range(25):
            params = random_params(rng)
            exact = c_constant_exact(params)
            quad = c_constant_quadrature(params)
            assert abs(exact - quad) <= 1e-9 * max(1.0, abs(exact))

    def test_monotone_in_r(self):
        values = []
        for r in np.linspace(0.1, 3.0, 30):
            params = LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((1.0, -1.0)), float(r), 0.5)
            values.append(c_constant_exact(params))
        assert all(b > a for a, b in zip(values, values[1:]))


class TestGramPiecesAgainstProducts:
    # c_constant_exact and shifted_c read int P^2, int P P', int P'^2 from
    # the node rule; with them from the convolution oracle and the Q side
    # from exp_moments, c must agree to 1e-14
    def test_registry_tuples(self):
        shift = ShiftedParams(-0.05 + 0.01j, -0.05 - 0.02j, 1e4, 1e8)
        for t in published_tuples():
            # the two-piece tuples meet P(0)=0, P(1)=1 through P1 only
            p = t.p1_poly if t.p1_poly is not None else t.p_poly
            check_c(LevinsonParams(p, t.q_poly, t.r_shift, 0.5))
            for piece in (t.p_poly, t.p1_poly, t.p2_poly):
                if piece is not None:
                    check_shifted(shift, piece, 0.5)

    def test_random_c_constant_exact(self, rng):
        for _ in range(120):
            p_deg, q_deg = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            p = [0.0] + list(rng.uniform(-1, 1, p_deg))
            p[-1] += 1.0 - sum(p)  # P(1)=1
            q = Polynomial([1.0] + list(rng.uniform(-1, 1, q_deg)))
            r, theta = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, THETA_MAX))
            check_c(LevinsonParams(Polynomial(p), q, r, theta))

    def test_random_shifted_c(self, rng):
        # any P, P(0) = 0 or not, degree 0 included
        for degree in range(7):
            for _ in range(12):
                p = Polynomial(rng.uniform(-1, 1, degree + 1))
                a, b = rng.uniform(-0.2, 0.2, 4).view(complex)
                check_shifted(ShiftedParams(a, b, 1e4, 1e8), p, float(rng.uniform(0.1, 0.5)))

class TestKappaBound:
    def test_trivial_values(self):
        assert kappa_lower_bound(1.0, 2.0) == 1.0
        assert kappa_lower_bound(math.exp(1.3), 1.3) == pytest.approx(0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            kappa_lower_bound(0.9, 1.0)
        with pytest.raises(DomainError):
            kappa_lower_bound(2.0, 0.0)
        for c in (math.inf, math.nan):  # a c that overflowed
            with pytest.raises(DomainError):
                kappa_lower_bound(c, 1.0)


class TestShiftedC:
    def test_symmetry(self):
        p = Polynomial((0.0, 1.0))
        a = shifted_c(ShiftedParams(3e-4, -2e-4, 1e4, 1e8), p, 0.5)
        b = shifted_c(ShiftedParams(-2e-4, 3e-4, 1e4, 1e8), p, 0.5)
        assert a == b

    def test_zero_shifts(self):
        # both exponentials drop: 1 + (1/theta) d2/dxdy int P(x+u)P(y+u) du
        p = Polynomial((0.0, 1.0))
        got = shifted_c(ShiftedParams(0.0, 0.0, 1e4, 1e8), p, 0.5)
        # for P = x the mixed derivative of the correlation is int 1 du = 1
        assert got == pytest.approx(1.0 + 2.0)

    def test_against_finite_difference(self):
        p = Polynomial((0.0, 0.4, 0.6))
        theta, m_len, t_scale = 0.5, 1e4, 1e8
        log_m, log_t = math.log(m_len), math.log(t_scale)

        def raw(x, y, a, b):
            val, _ = integrate.quad(lambda u: p(x + u) * p(y + u), 0.0, 1.0, epsabs=1e-13)
            iv, _ = integrate.quad(lambda v: math.exp(-v * (a + b) * log_t), 0.0, 1.0)
            return math.exp(-log_m * (b * x + a * y)) * iv * val

        a, b = 2e-4, 1e-4
        h = 1e-4
        mixed = (
            raw(h, h, a, b) - raw(h, -h, a, b) - raw(-h, h, a, b) + raw(-h, -h, a, b)
        ) / (4 * h * h)
        expected = 1.0 + mixed / theta
        got = shifted_c(ShiftedParams(a, b, m_len, t_scale), p, theta)
        assert complex(got).real == pytest.approx(expected, rel=1e-6)
        assert complex(got).imag == pytest.approx(0.0, abs=1e-12)

    def test_shift_magnitude_guard(self):
        # a nan shift was accepted and ended in a ValueError in shifted_c
        for alpha, beta in ((1.0, 0.0), (math.nan, 0.0), (0.0, complex(0.0, math.nan))):
            with pytest.raises(DomainError, match="shifts"):
                ShiftedParams(alpha, beta, 1e4, 1e8)

    def test_length_and_scale_refused_before_log_t(self):
        # T = 1 once divided by log T = 0, and a nan T or M was accepted
        for m_length, t_scale in ((1e4, 1.0), (1e4, 0.5), (1e4, math.nan), (0.5, 1e8), (math.nan, 1e8)):
            with pytest.raises(DomainError, match="M >= 1 and T > 1"):
                ShiftedParams(0.0, 0.0, m_length, t_scale)


class TestQOperatorApplication:
    # Young's route, by finite differences, converges to the closed form
    # with the inner derivative squared
    OTHER = LevinsonParams(
        Polynomial((0.0, 0.4, 0.6)), Polynomial((1.0, -0.7, 0.3, -0.5)), 1.1, 0.45
    )

    def test_matches_squared_functional(self):
        for params in (BASELINE, self.OTHER):
            applied = apply_q_operators(params, 1e8)
            assert complex(applied).imag == pytest.approx(0.0, abs=1e-9)
            assert complex(applied).real == pytest.approx(c_constant_exact(params), abs=2e-3)

    def test_error_fourth_order_in_step(self):
        # the central stencils have at least five points, so the error is
        # O(h^4): halving the step cuts it about 16x, down to steps where
        # rounding (amplified by h^-deg Q) takes over
        for params in (BASELINE, self.OTHER):
            exact = c_constant_exact(params)
            errors = [
                abs(complex(apply_q_operators(params, 1e8, step)).real - exact)
                for step in (0.4, 0.2, 0.1)
            ]
            for coarse, fine in zip(errors, errors[1:]):
                assert 14.0 < coarse / fine < 18.0

    def test_t_stability(self):
        # the assembled constant is scale-free, so successive differences
        # along T in {1e6, 1e8, 1e10} sit at rounding level
        vals = [complex(apply_q_operators(BASELINE, t)).real for t in (1e6, 1e8, 1e10)]
        d1 = abs(vals[1] - vals[0])
        d2 = abs(vals[2] - vals[1])
        assert d1 < 1e-9
        assert d2 <= d1 + 1e-10


class TestRegistry:
    def test_three_entries(self):
        tuples = published_tuples()
        assert len(tuples) == 3
        assert tuples[0].name == "baseline"

    def test_constraints_hold(self):
        for t in published_tuples():
            assert t.q_poly(0.0) == pytest.approx(1.0)
            if t.p1_poly is not None:
                assert t.p1_poly(1.0) == pytest.approx(1.0, abs=1e-12)
                assert t.p1_poly(0.0) == 0.0

    def test_r_values_and_flags(self):
        tuples = {t.name: t for t in published_tuples()}
        assert tuples["baseline"].r_shift == 1.3
        assert tuples["baseline"].claimed_c == 2.35
        assert not tuples["baseline"].not_reproducible_here
        assert tuples["two-piece-kappa"].claimed_bound == 0.4172
        assert tuples["two-piece-kappa-star"].r_shift == 1.116
        assert tuples["two-piece-kappa-star"].claimed_bound == 0.4074
        assert tuples["two-piece-kappa"].not_reproducible_here
        assert tuples["two-piece-kappa-star"].not_reproducible_here

    def test_kappa_in_unit_interval_with_levinson_functional(self):
        # two-piece tuples run through the one-polynomial functional with
        # their P1, the piece carrying the P(1)=1 normalization
        for t in published_tuples():
            p = t.p1_poly if t.p1_poly is not None else t.p_poly
            params = LevinsonParams(p, t.q_poly, t.r_shift, 0.5)
            kappa = kappa_lower_bound(c_constant_exact(params), t.r_shift)
            assert 0.0 < kappa < 1.0

    def test_baseline_c_within_claim(self):
        # 2.35 is quoted to two decimals: the squared baseline c is within
        # half a unit in its last digit (it misses by 7e-5)
        assert abs(c_constant_exact(BASELINE) - 2.35) <= 0.005
