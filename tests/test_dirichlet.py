"""Characters, Gauss sums, and L-functions against
orthogonality relations, counting formulas, and mpmath oracles."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from critline import dirichlet
from critline.dirichlet import (
    character,
    character_table,
    enumerate_characters,
    epsilon_factor,
    gauss_sum,
    induced_primitive,
    l_function,
    xi_completed_l,
)
from critline.errors import DomainError, PoleError

from conftest import mobius

mp.mp.dps = 25


def brute_phi(q):
    return sum(1 for n in range(1, q + 1) if math.gcd(n, q) == 1)


def is_quasiperiod(chi, d):
    """chi = 1 on the units = 1 mod d, tested residue by residue."""
    q = chi.modulus
    if q == 1:
        return True
    for a in range(1, q + 1, d):
        n = a % q
        if n != 1 and chi.phases[n] >= 0 and chi.phases[n] != 0:
            return False
    return True


def brute_conductor(chi):
    q = chi.modulus
    return next(d for d in range(1, q + 1) if q % d == 0 and is_quasiperiod(chi, d))


def mpmath_l(s, chi):
    """Hurwitz-zeta assembly of L(s, chi); the s=1 pole of each term
    cancels in the sum, so average over +-epsilon there."""
    if s == 1.0:
        eps = mp.mpf(10) ** -10
        return complex((mpmath_l(1 + eps, chi) + mpmath_l(1 - eps, chi)) / 2)
    q = chi.modulus
    total = mp.mpc(0)
    for a in range(1, q + 1):
        v = chi(a)
        if abs(v) > 0.5:
            total += mp.mpc(v) * mp.zeta(mp.mpc(s), mp.mpf(a) / q)
    return complex(total * mp.power(q, -mp.mpc(s)))


def mpmath_l_all(q, s):
    """mpmath_l(s, chi) for every chi mod q, from one Hurwitz table."""
    hurwitz = [mp.zeta(mp.mpc(s), mp.mpf(a) / q) for a in range(1, q + 1)]
    scale = mp.power(q, -mp.mpc(s))
    return [
        complex(scale * mp.fsum(mp.mpc(c(a)) * h for a, h in zip(range(1, q + 1), hurwitz)))
        for c in enumerate_characters(q)
    ]


def mpmath_completed_l(s, chi, l_value):
    """(q/pi)^{(s+kappa)/2} Gamma((s+kappa)/2) times an mpmath L(s, chi)."""
    q, a = chi.modulus, (mp.mpc(s) + chi.parity) / 2
    return complex(mp.power(mp.mpf(q) / mp.pi, a) * mp.gamma(a) * l_value)


def mpmath_epsilon(chi):
    """Root number tau(chi) / (i^kappa sqrt(q)), the Gauss sum in mpmath."""
    q = chi.modulus
    tau = mp.fsum(mp.mpc(chi(n)) * mp.expjpi(mp.mpf(2 * n) / q) for n in range(1, q + 1))
    return complex(tau / (mp.j**chi.parity * mp.sqrt(q)))


class TestEnumeration:
    @pytest.mark.parametrize("q", [1, 2, 3, 4, 8, 9, 12, 16, 24, 40, 45])
    def test_count_and_principal_first(self, q):
        chars = enumerate_characters(q)
        assert len(chars) == brute_phi(q)
        assert chars[0].is_principal
        assert [c.index for c in chars] == list(range(len(chars)))

    def test_single_character_matches_enumeration(self):
        for q in range(1, 201):
            chars = enumerate_characters(q)
            for c in chars:
                one = character(q, c.index)
                assert one.index == c.index and one.order_lcm == c.order_lcm
                assert one.conductor == c.conductor
                assert np.array_equal(one.phases, c.phases)
            for index in (-1, len(chars)):
                with pytest.raises(DomainError):
                    character(q, index)

    @pytest.mark.parametrize("q", [5, 8, 12, 21])
    def test_multiplicative_and_orthogonal(self, q):
        chars = enumerate_characters(q)
        phi = len(chars)
        for c in chars:
            for a in range(q):
                for b in range(2, q, 3):
                    assert c(a * b) == pytest.approx(c(a) * c(b), abs=1e-12)
            total = sum(c(n) for n in range(q))
            expected = phi if c.is_principal else 0.0
            assert total == pytest.approx(expected, abs=1e-10)
        # column orthogonality at a fixed non-unit residue
        for n in range(2, q):
            if math.gcd(n, q) == 1:
                col = sum(c(n) for c in chars)
                assert col == pytest.approx(0.0, abs=1e-10)

    def test_conductors_mod_12(self):
        conductors = sorted(c.conductor for c in enumerate_characters(12))
        assert conductors == [1, 3, 4, 12]

    @pytest.mark.parametrize("q", list(range(2, 40)))
    def test_primitive_count_formula(self, q):
        # number of primitive characters mod q = sum over d | q of mu(q/d) phi(d)
        expected = sum(mobius(q // d) * brute_phi(d) for d in range(1, q + 1) if q % d == 0)
        got = sum(1 for c in enumerate_characters(q) if c.is_primitive and not c.is_principal)
        assert got == expected

    def test_conjugate(self):
        for c in enumerate_characters(7):
            cc = c.conjugate()
            for n in range(7):
                assert cc(n) == pytest.approx(np.conj(c(n)), abs=1e-14)
        assert enumerate_characters(7)[1].conjugate().index == 5

    def test_conjugate_index(self):
        for q in range(1, 61):
            chars = enumerate_characters(q)
            for c in chars:
                cc = c.conjugate()
                assert np.array_equal(chars[cc.index].phases, cc.phases)
                assert cc.conductor == c.conductor
                assert cc.conjugate().index == c.index

    def test_induced_primitive(self):
        for c in enumerate_characters(12):
            prim = induced_primitive(c)
            assert prim.modulus == c.conductor
            for n in range(1, 12):
                if math.gcd(n, 12) == 1:
                    assert prim(n) == pytest.approx(c(n), abs=1e-12)


class TestCharacterTable:
    def test_against_brute_force(self):
        for q in range(1, 201):
            table = character_table(q)
            for c in enumerate_characters(q):
                f = brute_conductor(c)
                parity = 0 if c(q - 1) == 1 else 1
                assert c(q - 1) == pytest.approx(1 - 2 * parity, abs=1e-12)
                assert c.conductor == table.conductors[c.index] == f
                assert c.parity == table.parities[c.index] == parity
                assert c.is_primitive == (q == 1 or (not c.is_principal and f == q))

    def test_cached_arrays_are_read_only(self):
        table = character_table(12)
        for arr in (table.phases, table.conductors, enumerate_characters(12)[1].phases,
                    *dirichlet._hurwitz_row(12, 0.5 + 10j)):
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_l_function_warm_and_cold(self):
        points = (0.5 + 10j, 2.0 + 10j, 0.3)
        warm = [[l_function(s, c) for s in points] for c in enumerate_characters(37)]
        again = [[l_function(s, c) for s in points] for c in enumerate_characters(37)]
        character_table.cache_clear()
        dirichlet._hurwitz_row.cache_clear()
        cold = []
        for c in enumerate_characters(37):
            dirichlet._hurwitz_row.cache_clear()
            cold.append([l_function(s, c) for s in points])
        assert warm == again == cold

    def test_oversized_table_refused_before_allocation(self):
        # phi(10^6) * 10^6 = 4e11 entries, 3.2 TB as int64; 10^18 + 9 is
        # refused on its size alone, before it is factored; the prime 2053
        # is the least q past 2^22 entries
        tracemalloc.start()
        try:
            for q in (2053, 10**6, 10**18 + 9):
                with pytest.raises(DomainError, match="character table"):
                    character_table(q)
            with pytest.raises(DomainError, match="character table"):
                character(10**6, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # the prime below it still fits: phi(q) * q just under 2^22
        assert character_table(2039).phases.shape == (2038, 2039)
        character_table.cache_clear()


class TestGaussSums:
    def test_root_row_against_direct_exponentials(self):
        # e(an/q) read from the row of q-th roots at an mod q, against one exp per term
        for q in range(1, 61):
            n = np.arange(q)
            for c in enumerate_characters(q):
                for a in (1, 2, 5, -3):
                    direct = np.sum(c(n) * np.exp(2j * np.pi * a * n / q))
                    assert abs(gauss_sum(c, a) - direct) <= 1e-13 * math.sqrt(q)

    def test_modulus_primitive(self):
        for q in range(2, 51):
            for c in enumerate_characters(q):
                if c.is_primitive and not c.is_principal:
                    assert abs(gauss_sum(c)) == pytest.approx(math.sqrt(q), abs=1e-10)

    def test_separability_coprime(self):
        # chi(n) tau(conj chi) = sum over a of conj(chi)(a) e(an/q) for (n,q)=1
        for q in range(2, 31):
            for c in enumerate_characters(q):
                tau_bar = gauss_sum(c.conjugate())
                for n in range(1, q):
                    if math.gcd(n, q) == 1:
                        assert c(n) * tau_bar == pytest.approx(
                            gauss_sum(c.conjugate(), n), abs=1e-10
                        )

    def test_conjugation_identity(self):
        # conj(tau(chi)) = chi(-1) tau(conj chi)
        for q in range(2, 31):
            for c in enumerate_characters(q):
                lhs = np.conj(gauss_sum(c))
                rhs = c(q - 1) * gauss_sum(c.conjugate())
                assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_full_separability_primitive(self):
        # chi(n) = tau(conj chi)^{-1} sum over a, including non-coprime n
        for q in range(2, 31):
            for c in enumerate_characters(q):
                if c.is_primitive and not c.is_principal:
                    tau_bar = gauss_sum(c.conjugate())
                    for n in range(q):
                        assert c(n) == pytest.approx(
                            gauss_sum(c.conjugate(), n) / tau_bar, abs=1e-10
                        )

    def test_epsilon_unit_modulus(self):
        for q in range(3, 40):
            for c in enumerate_characters(q):
                if c.is_primitive and not c.is_principal:
                    assert abs(epsilon_factor(c)) == pytest.approx(1.0, abs=1e-12)

    def test_epsilon_requires_primitive(self):
        principal = enumerate_characters(6)[0]
        with pytest.raises(DomainError):
            epsilon_factor(principal)


class TestLFunction:
    @pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 12])
    def test_against_mpmath_both_regimes(self, q):
        for c in enumerate_characters(q):
            if c.is_principal:
                continue
            for s in (2.2 + 1.5j, 1.0, 0.5 + 3.0j, -0.7 + 1.0j):
                assert l_function(s, c) == pytest.approx(mpmath_l(s, c), abs=1e-10)

    def test_principal_euler_factors(self):
        c = enumerate_characters(6)[0]
        s = 2.5 + 0.5j
        ref = complex(mp.zeta(mp.mpc(s)))
        for p in (2, 3):
            ref *= 1.0 - p ** complex(-s)
        assert l_function(s, c) == pytest.approx(ref, rel=1e-11)

    def test_principal_pole(self):
        c = enumerate_characters(4)[0]
        with pytest.raises(PoleError):
            l_function(1.0, c)

    def test_imprimitive_stripping(self):
        # chi mod 12 induced from mod 3: L agrees with the Hurwitz oracle
        chars = [c for c in enumerate_characters(12) if c.conductor == 3]
        assert chars
        for s in (0.3 + 2.0j, 0.9):
            assert l_function(s, chars[0]) == pytest.approx(mpmath_l(s, chars[0]), abs=1e-10)

    @pytest.mark.parametrize("q", [5, 12, 37])
    def test_high_on_the_line_and_left_of_it(self, q):
        for s in (0.5 + 30j, 0.5 + 100j, 0.5 + 1000j, -0.5 + 100j):
            for c, ref in zip(enumerate_characters(q), mpmath_l_all(q, s)):
                assert abs(l_function(s, c) - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_principal_and_imprimitive_left_of_the_strip(self):
        chars = enumerate_characters(12)
        imprimitive = [c for c in chars if c.conductor == 3][0]
        for c in (chars[0], imprimitive, enumerate_characters(1)[0], enumerate_characters(10)[0]):
            for s in (-8.0 + 0.5j, -3.5 + 2.0j, -2.0, -0.5 - 7.0j):
                ref = mpmath_l(s, c)
                assert abs(l_function(s, c) - ref) <= 1e-10 * max(1.0, abs(ref))

    def test_reflection_against_mpmath(self):
        # the functional equation for primitive even and odd chi, and for
        # imprimitive chi of either parity with their Euler factors, from
        # Re s = -20 up to |Im s| = 1e3.  At height 1e3 the imaginary part of
        # log Gamma(1-s), about 6e3, alone rounds at about 5e-13 relative, so
        # 1e-12 is near what doubles allow there.  Re s = -20 at Im s = 1e3,
        # mpmath's slowest point, is taken for the primitive pair only
        chars = [character(5, 2), character(7, 1), character(15, 2), character(15, 4)]
        assert [(c.conductor, c.parity) for c in chars] == [(5, 0), (7, 1), (5, 0), (3, 1)]
        points = [-0.5 + 3j, -3.2 + 0.5j, -8.5 - 20j, -20.0 + 1j, -12.5 - 150j, -0.5 - 1000j]
        for c, s in [(c, s) for c in chars for s in points] + [(c, -20.0 + 1000j) for c in chars[:2]]:
            ref = mpmath_l(s, c)
            assert abs(l_function(s, c) - ref) <= 1e-12 * abs(ref)

    def test_trivial_zeros_exact(self):
        # s + kappa even and negative: an exact 0 for every parity, primitive
        # or not; the other parity's integers are not zeros
        for c in (character(5, 2), character(15, 2), enumerate_characters(6)[0]):  # even
            for s in (-2.0, -4.0, -30.0):
                assert l_function(s, c) == 0j
            assert l_function(-3.0, c) != 0j
        for c in (character(7, 1), character(15, 4)):  # odd
            for s in (-1.0, -3.0, -31.0):
                assert l_function(s, c) == 0j
            assert l_function(-2.0, c) != 0j

    def test_overflow_refused(self):
        # |L(-200+0.5i, chi mod 3)| is about 1e396: the reflection overflows
        with pytest.raises(DomainError, match="overflows"):
            l_function(-200.0 + 0.5j, character(3, 1))
        # chi mod 6 induced from mod 3: the gamma factor (about 1e271) is finite,
        # and the Euler factor 1 - chi*(2) 2^{-s} (about 1e54) overflows the product
        with pytest.raises(DomainError, match="overflows"):
            l_function(-180.0 + 0.5j, character(6, 1))

    def test_height_cap_refused_before_the_terms(self):
        chi = character(1, 0)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="certified"):
                l_function(0.5 + 1e300j, chi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_near_one(self):
        # the Hurwitz poles cancel in floating point: up to about 4e-12
        # relative at |s-1| = 1e-4, growing like 1/|s-1| closer in
        for q in (5, 12, 37):
            for s in (1.0 + 1e-4, 1.0 - 1e-4, 1.0 + 1e-4j):
                for c, ref in list(zip(enumerate_characters(q), mpmath_l_all(q, s)))[1:]:
                    assert abs(l_function(s, c) - ref) <= 1e-10 * abs(ref)


def test_hurwitz_head_is_summed_in_blocks():
    """L at height 1e4 mod 97 sums 5e3 Hurwitz terms for each of its 96
    offsets; blocks of m keep that from one dense 96 x 5e3 array (15 MB),
    and the value is the dense sum's to 1e-13."""
    chi = character(97, 1)
    dirichlet._hurwitz_row.cache_clear()
    tracemalloc.start()
    try:
        value = l_function(0.5 + 1e4j, chi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    dense = -0.14726030899342324 + 0.04358722977703884j  # the unblocked sum
    assert abs(value - dense) <= 1e-13 * abs(dense)


class TestCompletedL:
    def test_functional_equation(self, rng):
        for q in (3, 4, 5, 7, 11, 13, 16, 19):
            for c in enumerate_characters(q):
                if not (c.is_primitive and not c.is_principal):
                    continue
                s = complex(rng.uniform(-3, 4), rng.uniform(-4, 4))
                lhs = xi_completed_l(s, c)
                rhs = epsilon_factor(c) * xi_completed_l(1.0 - s, c.conjugate())
                assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("q", [5, 12])
    def test_against_mpmath(self, q):
        for s in (0.3 + 2j, 0.5 + 20j, 0.5 + 60j, -2.5 + 3j):
            for c, l_ref in zip(enumerate_characters(q), mpmath_l_all(q, s)):
                if c.is_primitive and not c.is_principal:
                    ref = mpmath_completed_l(s, c, l_ref)
                    assert xi_completed_l(s, c) == pytest.approx(ref, rel=1e-12)

    def test_overflow_refused(self):
        # (q/pi)^{s/2} Gamma(s/2) at s = 400, q = 5 is about e^{770}
        with pytest.raises(DomainError, match="overflows"):
            xi_completed_l(400.0, character(5, 1))

    def test_finite_far_left(self):
        # L(s, chi) overflows a double here, Lambda does not: about 6.0e294
        # and 3.0e178, against epsilon Lambda(1-s, conj chi) in mpmath
        c = character(5, 1)
        conj = c.conjugate()
        for s in (-301.3, -200.5 + 2j):
            with pytest.raises(DomainError, match="overflows"):
                l_function(s, c)
            ref = mpmath_epsilon(c) * mpmath_completed_l(1 - s, conj, mpmath_l(1 - s, conj))
            assert xi_completed_l(s, c) == pytest.approx(ref, rel=1e-12)

    def test_removable_points(self):
        # a gamma pole on a trivial zero of L, valued by eps Lambda(1-s, conj chi)
        chars = [c for c in enumerate_characters(5) if c.is_primitive and not c.is_principal]
        for c in (next(c for c in chars if c.parity == 0), next(c for c in chars if c.parity == 1)):
            for s in (-c.parity, -c.parity - 2):
                conj = c.conjugate()
                ref = mpmath_epsilon(c) * mpmath_completed_l(1 - s, conj, mpmath_l(1 - s, conj))
                assert xi_completed_l(s, c) == pytest.approx(ref, rel=1e-12)

    def test_requires_primitive(self):
        imprimitive = [c for c in enumerate_characters(12) if c.conductor == 3][0]
        with pytest.raises(DomainError):
            xi_completed_l(1.5, imprimitive)
