"""Zeta engine, xi, Hardy Z, zero scanning, and the shifted approximate
functional equation, checked against mpmath and internal identities."""

import math
import os
import re
import subprocess
import sys
import tracemalloc
import types
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.special import loggamma

import critline.zeta as zeta_module
from critline.errors import ConditioningError, DomainError, PoleError
from critline.moment import SmoothWeight
from critline.zeta import (
    _EM_COEFF,
    _EM_DEGREE,
    _EM_TERMS,
    AfeParams,
    _afe_v_table,
    _dirichlet_jets,
    _em_bracket,
    _em_cut,
    _em_kept,
    _em_tail,
    _em_tail_bound,
    _jet_mul,
    _jet_mul_linear,
    afe_pair,
    afe_x_factor,
    count_critical_zeros,
    hardy_z_line,
    hurwitz_zeta,
    xi_completed,
    zero_count_estimate,
    zeta,
    zeta_derivative,
    zeta_line,
)

mp.mp.dps = 30


def dense_v_table(a, b, t, x):
    """V_{a,b}(x, t) by the trapezoid rule on Re s = 1, |Im s| <= 14, with
    5601 nodes (step 0.005)."""
    y = np.linspace(-14.0, 14.0, 5601)
    s = 1.0 + 1j * y
    weights = np.full(y.size, y[1] - y[0])
    weights[[0, -1]] *= 0.5
    ratio = np.exp(
        -s * math.log(math.pi)
        + loggamma((0.5 + a + s + 1j * t) / 2.0)
        + loggamma((0.5 + b + s - 1j * t) / 2.0)
        - loggamma((0.5 + a + 1j * t) / 2.0)
        - loggamma((0.5 + b - 1j * t) / 2.0)
    )
    kernel = np.exp(s * s) / s * ratio * weights / (2.0 * math.pi)
    log_x = np.log(x)
    return np.concatenate(
        [np.exp(-np.outer(log_x[k : k + 256], s)) @ kernel for k in range(0, x.size, 256)]
    )


class TestZeta:
    def test_against_mpmath(self, rng):
        for _ in range(30):
            s = complex(rng.uniform(-10, 10), rng.uniform(-40, 40))
            if abs(s - 1.0) < 0.05:
                continue
            ref = complex(mp.zeta(mp.mpc(s)))
            assert zeta(s) == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_known_values(self):
        assert zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-14)
        assert zeta(0.0) == pytest.approx(-0.5, rel=1e-13)

    def test_trivial_zeros_exact(self):
        assert zeta(-2.0) == 0.0
        assert zeta(-10.0) == 0.0

    def test_pole(self):
        with pytest.raises(PoleError):
            zeta(1.0)

    def test_high_line(self):
        s = 0.5 + 5000.0j
        ref = complex(mp.zeta(mp.mpc(s)))
        assert zeta(s) == pytest.approx(ref, rel=1e-9)

    def test_overflow_refused(self):
        # |zeta(-401)| is about 1e547; -300 is a trivial zero and stays 0
        for s in (-401.0, -301.0, -350.0 + 2.0j):
            message = f"the functional equation at s = {complex(s)} overflows a double"
            with pytest.raises(DomainError, match=re.escape(message)):
                zeta(s)
        message = "the functional equation at s = (-401+0j) overflows a double"
        with pytest.raises(DomainError, match=re.escape(message)):
            zeta_derivative(-401.0, 1)
        assert zeta(-300.0) == 0.0

    @pytest.mark.parametrize(
        "s, expected",
        [
            (
                -0.5 + 15.3j,
                [
                    "(-0.8016000313843579+1.9175745092830152j)",
                    "(1.7908205047151915-1.3742120575860706j)",
                    "(-1.8257376804331393+0.888581230440105j)",
                    "(1.8733280526685563-0.409474293569414j)",
                ],
            ),
            (
                -3.2 + 0.5j,
                [
                    "(0.008025080788725592+0.004358738497103342j)",
                    "(0.010843609379017089-0.0038155806617366224j)",
                    "(-0.005757225726254183-0.012624769174681541j)",
                    "(-0.02396070725079525-0.010996196314100544j)",
                ],
            ),
            (
                -7.5 - 20.0j,
                [
                    "(8899.575240699742+9367.112526573177j)",
                    "(-14508.059082371947-8165.921576489423j)",
                    "(21532.005243591702+4331.347815295347j)",
                    "(-29381.946603268007+3787.8560687653526j)",
                ],
            ),
            (
                -1.7 + 100.0j,
                [
                    "(491.54651671749104+19.851597070133998j)",
                    "(-1327.0166530199508-55.12242655629181j)",
                    "(3606.6880705828667+162.12638362983296j)",
                    "(-9834.93881288034-501.5426839458869j)",
                ],
            ),
        ],
    )
    def test_reflection_pinned(self, s, expected):
        # zeta and its first three derivatives left of the strip, pinned to
        # the bit: the reflection that also serves L(s, chi) keeps zeta's
        # sum order (q = 1 adds only zeros to the exponent)
        assert [repr(zeta(s))] + [repr(zeta_derivative(s, k)) for k in (1, 2, 3)] == expected

    def test_height_cap_refused_before_the_terms(self):
        # a height past Z_T_MAX would ask np.arange for ~|t| terms
        # (1e300 raised ValueError; 1e9 would take gigabytes)
        tracemalloc.start()
        try:
            for s in (1e300j, 0.5 + 1e9j, 0.5 - 100001j, complex(0.5, math.nan)):
                with pytest.raises(DomainError, match="certified"):
                    zeta(s)
            with pytest.raises(DomainError, match="certified"):
                zeta_line(0.5, np.array([10.0, 1e300]))
            for s in (0.5 + 1e300j, 2.0 - 1e9j):
                with pytest.raises(DomainError, match="certified"):
                    hurwitz_zeta(s, np.array([0.25, 0.5]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert np.isfinite(zeta(0.5 + 1e5j))


class TestZetaLine:
    def test_jets_match_mpmath_derivatives(self):
        t = np.array([35.0, 210.5, 1234.0])
        jets = zeta_line(0.5, t, order=3)
        for i, tv in enumerate(t):
            for j in range(4):
                ref = complex(mp.zeta(mp.mpc(0.5, tv), derivative=j)) / math.factorial(j)
                assert complex(jets[j, i]) == pytest.approx(ref, abs=1e-9)

    def test_off_half_line(self):
        sigma = 0.35
        t = np.array([60.0])
        ref = complex(mp.zeta(mp.mpc(sigma, 60.0)))
        assert complex(zeta_line(sigma, t, 0)[0, 0]) == pytest.approx(ref, rel=1e-11)

    def test_bernoulli_coefficients_are_rounded_once(self):
        """Each Euler-Maclaurin coefficient B_2k/(2k)! is its exact rational
        rounded once (scipy.special.bernoulli's B_4 is 8,275 ulps from -1/30)."""
        b2k = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
               Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798),
               Fraction(-174611, 330), Fraction(854513, 138), Fraction(-236364091, 2730),
               Fraction(8553103, 6), Fraction(-23749461029, 870)]
        assert zeta_module._EM_COEFF.tolist() == [
            float(b / math.factorial(2 * k)) for k, b in enumerate(b2k, 1)]


class TestEulerMaclaurinCut:
    """The head cut N = max(20, ceil(|t|/2)) against Backlund's bound on the
    14-term tail, and against mpmath on both sides of the floor N = 20."""

    def test_tail_bound_matches_mpmath(self):
        for sigma, tv, base in ((0.0, 0.5, 20.0), (0.31, 1144.76, 573.0), (0.5, -1e5, 5e4), (1.5, 40.0, 20.0),
                                (0.25, 3e3, 1500.0 + 1.0 / 7.0)):
            s = mp.mpc(sigma, tv)
            first = mp.bernoulli(30) / mp.factorial(30) * mp.rf(s, 29) * mp.power(base, -s - 29)
            want = abs(s + 29) / (sigma + 29) * abs(first)
            assert abs(_em_tail_bound(sigma, tv, base) - want) <= 1e-10 * want
        assert _em_tail_bound(0.0, 0.0, 20.0) == 0.0  # (s)_29 = 0: the sum is exact

    def test_tail_bound_certifies_the_cut(self):
        """At a fixed N the bound grows with |t|, so its largest value on
        t in (2N-2, 2N], where the cut is N, is at t = 2N, and on [0, 40],
        where the floor N = 20 holds, at t = 40: over all of [0, Z_T_MAX]
        it is the largest at t = 2N, N = 20 .. 50000."""
        for sigma in (0.0, 0.33, 0.5, 1.5):
            assert all(_em_cut(2.0 * n) == n for n in (20, 21, 50000))
            worst = max(_em_tail_bound(sigma, 2.0 * n, n) for n in range(20, 50001))
            assert worst <= 4.3e-12

    @pytest.mark.parametrize("lo, hi, tol", [(20.0, 40.0, 2e-13), (40.0, 1e3, 2e-12), (1e3, 5e3, 3e-11)])
    def test_each_band_matches_mpmath(self, lo, hi, tol):
        """Orders 0-3 at sigma = 0.33, near the moment's sigma0, at 8 points
        of the band, each alone and so at its own cut.  The error is the
        rounding of t log n, which grows with t: on 40 points of (1e3, 5e3]
        it reaches 1.3e-11 at this cut and 1.9e-11 at N = ceil(t)."""
        sigma = 0.33
        for tv in np.linspace(lo, hi, 9)[1:] - 0.125:
            jets = zeta_line(sigma, np.array([tv]), 3)[:, 0]
            for j in range(4):
                want = complex(mp.zeta(mp.mpc(sigma, tv), 1, j)) / math.factorial(j)
                assert abs(jets[j] - want) <= tol * max(abs(want), 1.0)


def _rows_close(a, b, tol):
    """Per jet order, against the row's largest value: a small jet element
    carries the same ~3e-13 absolute rounding as its large neighbours."""
    return np.all(np.abs(a - b).max(axis=1) <= tol * np.abs(b).max(axis=1))


@pytest.fixture(scope="module")
def moment_grid():
    """The T=2000 moment grid: sigma0 = 1/2 - 1.3/log T, step 0.05 over the
    weight's support."""
    lo, hi = SmoothWeight(2000.0).support
    t = np.linspace(lo, hi, int(math.ceil((hi - lo) / 0.05)) + 1)
    return 0.5 - 1.3 / math.log(2000.0), t


class TestZetaLineGrid:
    """Uniform grids reuse one phase table; a one-point call only meets its
    own (a row of ones), so it is an independent oracle."""

    def test_matches_one_point_calls(self, moment_grid):
        sigma, t = moment_grid
        picks = np.random.default_rng(4).choice(t.size, 40, replace=False)
        for order in range(4):
            jets = zeta_line(sigma, t, order)
            for i in picks:
                one = zeta_line(sigma, t[[i]], order)[:, 0]
                assert np.all(np.abs(jets[:, i] - one) <= 1e-10 * np.abs(one))

    def test_matches_mpmath(self, moment_grid):
        sigma, t = moment_grid
        jets = zeta_line(sigma, t, 3)
        for i in np.random.default_rng(5).choice(t.size, 5, replace=False):
            for j in range(4):
                ref = complex(mp.zeta(mp.mpc(sigma, t[i]), 1, j)) / math.factorial(j)
                assert abs(jets[j, i] - ref) <= 1e-10 * abs(ref)

    def test_reused_table_matches_own_table(self, moment_grid):
        """A chunk evaluated alone builds its own table, with the same N and
        base row as inside the grid: only the reused table and its rounding
        correction differ (3e-12 without the correction)."""
        sigma, t = moment_grid
        jets = zeta_line(sigma, t, 3)
        chunk = 256  # zeta_line's default; t is sorted, so chunks are slices
        for c0 in range(chunk, t.size, 17 * chunk):
            own = zeta_line(sigma, t[c0 : c0 + chunk], 3)
            assert _rows_close(jets[:, c0 : c0 + chunk], own, 2e-13)

    def test_stacked_groups_match_own_tables(self):
        """A slice of the T=2e4 moment grid at order 3 stacks three chunks
        per product, so its 24 chunks flush several groups, and its cuts
        cross from the first block of n into the second."""
        lo, hi = SmoothWeight(2e4).support
        t = np.linspace(lo, hi, int(math.ceil((hi - lo) / 0.05)) + 1)[:6000]
        sigma = 0.5 - 1.3 / math.log(2e4)
        jets = zeta_line(sigma, t, 3)
        chunk = 256
        for c0 in (0, 4 * chunk, 11 * chunk, 17 * chunk, 23 * chunk):
            own = zeta_line(sigma, t[c0 : c0 + chunk], 3)
            assert _rows_close(jets[:, c0 : c0 + chunk], own, 2e-13)

    def test_one_point_is_the_direct_head_sum(self):
        """A single point makes one product of its row of ones with the base
        weights, and adds the Euler-Maclaurin tail at its own cut."""
        for sigma, tv, order in ((0.5, 14.134725, 0), (0.31, 1234.5, 3), (2.0, -77.25, 1), (0.8, 3.0, 2)):
            cut = max(20, math.ceil(abs(tv) / 2))
            ln = np.log(np.arange(1.0, cut))
            w = np.empty((ln.size, order + 1))
            w[:, 0] = np.arange(1.0, cut) ** -sigma
            for j in range(1, order + 1):
                w[:, j] = w[:, j - 1] * (-ln) / j
            head = (np.ones((1, ln.size)) @ (w * np.exp(-1j * tv * ln)[:, None]))[0]
            want = head + _em_tail(sigma + 1j * np.array([tv]), np.array([float(cut)]), order)[:, 0]
            assert np.array_equal(zeta_line(sigma, np.array([tv]), order)[:, 0], want)

    def test_one_chunk_calls_are_pinned(self):
        """Scalar zeta, zeta_derivative and one-chunk zeta_line calls return
        right after their direct product, with the bits of the kernel that
        still built the grid's sharing set-up for them (pinned on x86-64
        with numpy's OpenBLAS), over one block of n and over four
        (t = 5e4)."""
        got = [
            zeta(0.5 + 14.134725j),
            zeta(0.5 + 5e4j),
            zeta(-3.5 + 20j),
            zeta_derivative(0.3 + 7.3j, 6),
            *zeta_line(0.5, np.array([1e4 + 0.3]))[:, 0],
            *zeta_line(0.25, np.array([100.0, -100.5, 101.0]), order=2).ravel(),
        ]
        pinned = [
            ("0x1.2fa4623000000p-26", "-0x1.dcd4193200000p-24"),
            ("0x1.45344e0096d63p+1", "0x1.89cab3cb8c689p+0"),
            ("-0x1.2ba75cb9cf050p+5", "-0x1.8bf81f5c2f10fp+6"),
            ("-0x1.6e85d8e985e00p-7", "-0x1.dea1e8af7fc00p-6"),
            ("0x1.29c947d034208p-2", "-0x1.ccbd1473267eep-2"),
            ("0x1.001e57b697d23p+2", "0x1.93e38490da004p-5"),
            ("0x1.13892f86e506dp+1", "0x1.5683e3826cda7p+1"),
            ("-0x1.a607cc1efd1a8p-1", "-0x1.a45cc57829e7ap+0"),
            ("-0x1.c7b3f67cf0e93p+2", "-0x1.8595202e741f0p-2"),
            ("-0x1.1839efdd9e7c3p+1", "-0x1.a7d5110943722p+2"),
            ("0x1.63f5cc532cb97p+2", "0x1.c1549c4702381p+1"),
            ("0x1.297d0c4ab2276p+3", "0x1.f12934a810924p-2"),
            ("0x1.4ac8f92deac2dp+1", "0x1.18b45b792ea6fp+3"),
            ("-0x1.ef4027071b87ap+2", "-0x1.1627e31eff28ap+2"),
        ]
        assert [(v.real.hex(), v.imag.hex()) for v in map(complex, got)] == pinned

    def test_memory_is_flat_in_the_grid_length(self):
        """One phase table per block and one group's stack at a time: a grid
        four times longer at t = 2e4 needs no more working memory, and the
        table is built in place (a broadcast copy of it adds about 32 MB)."""
        peaks = []
        for k in (2048, 8192):
            t = 2e4 + 0.05 * np.arange(k)
            tracemalloc.start()
            try:
                jets = zeta_line(0.4, t, 3)
                peaks.append(tracemalloc.get_traced_memory()[1] - jets.nbytes)
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 48e6
        assert abs(peaks[1] - peaks[0]) <= 1e6

    def test_irregular_chunk_memory_is_bounded(self):
        """An irregular chunk builds its own phase table a block of at most
        _STACK_BYTES at a time: 256 sorted random t near 99,000 (49,525 terms)
        peak near 7 MB, where blocks of 8192 terms peaked near 100 MB."""
        t = np.sort(np.random.default_rng(11).uniform(99000.0, 99050.0, 256))
        tracemalloc.start()
        try:
            zeta_line(0.5, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_reversed_grid_is_bit_identical(self, moment_grid):
        """An ascending grid is summed in place and its reverse is scattered
        back from |t|-sorted order: the two give the same bits."""
        sigma, t = moment_grid
        assert np.array_equal(zeta_line(sigma, t[::-1], 3), zeta_line(sigma, t, 3)[:, ::-1])

    def test_reordered_and_perturbed_grids(self, moment_grid):
        sigma, t = moment_grid
        jets = zeta_line(sigma, t, 3)
        perm = np.random.default_rng(6).permutation(t.size)
        shuffled = zeta_line(sigma, t[perm], 3)
        assert np.all(np.abs(shuffled - jets[:, perm]) <= 1e-12 * np.abs(jets[:, perm]))
        bumped = t.copy()
        bumped[t.size // 3] += 0.0123
        keep = np.arange(t.size) != t.size // 3
        moved = zeta_line(sigma, bumped, 3)[:, keep]
        assert np.all(np.abs(moved - jets[:, keep]) <= 1e-12 * np.abs(jets[:, keep]))
        # -40 .. 60 through t = 0, where chunks mix both signs and each builds
        # its own table; zeta of the conjugate is the conjugate
        half = np.linspace(0.0, 60.0, 1201)
        ref = zeta_line(sigma, half, 3)
        both = zeta_line(sigma, np.concatenate((-half[800:0:-1], half)), 3)
        assert _rows_close(both[:, 800:], ref, 1e-12)
        assert _rows_close(both[:, :800], np.conj(ref[:, 800:0:-1]), 1e-12)


def _tail_oracle(s, base, order):
    """The Euler-Maclaurin tail built at every point on its own: the Horner
    loop in b^{-2} over the Bernoulli corrections at each s, the pole term,
    and the product with b^{-s-x}."""
    s, base = np.broadcast_arrays(np.asarray(s, dtype=complex), np.asarray(base))
    log_b = np.log(base)
    b_pow = np.exp(-s * log_b)
    pow_jet = np.empty((order + 1,) + s.shape, dtype=complex)
    coeff = np.ones_like(log_b)
    for j in range(order + 1):
        pow_jet[j] = b_pow * coeff
        coeff = coeff * (-log_b / (j + 1))
    inv_b2 = 1.0 / (base * base)
    rest = np.zeros_like(pow_jet)
    rest[0] = _EM_COEFF[-1]
    for k in range(_EM_TERMS - 1, 0, -1):
        rest = _jet_mul_linear(_jet_mul_linear(rest, s, 2.0 * k - 1.0), s, 2.0 * k) * inv_b2
        rest[0] += _EM_COEFF[k - 1]
    rest = _jet_mul_linear(rest, s, 0.0) / base
    rest[0] += 0.5
    recip = 1.0 / (s - 1.0)
    pole = base * recip
    for j in range(order + 1):
        rest[j] += pole
        pole = -pole * recip
    return _jet_mul(pow_jet, rest)


def _tail_grouping(sigma, t):
    """The cuts and anchors that zeta_line passes to _em_tail.  Both depend
    on the ordinates alone, so the grid kernel runs over the one term n = 1."""
    _, cuts, lead = _dirichlet_jets(sigma, t, np.ones(1), None, 0, _em_cut)
    return cuts, lead


def _assert_tail_close(sigma, t, orders=range(4)):
    """_em_tail with zeta_line's grouping within 2e-15 relative of the oracle
    at every point and jet row; the oracle runs in blocks of 2^15 points."""
    cuts, lead = _tail_grouping(sigma, t)
    s = sigma + 1j * t
    for order in orders:
        got = _em_tail(s, cuts, order, lead)
        for b0 in range(0, t.size, 1 << 15):
            want = _tail_oracle(s[b0 : b0 + (1 << 15)], cuts[b0 : b0 + (1 << 15)], order)
            assert np.all(np.abs(got[:, b0 : b0 + (1 << 15)] - want) <= 2e-15 * np.abs(want))
    return lead


class TestEulerMaclaurinTail:
    """_em_tail builds the bracket's Taylor coefficients once per anchor and
    shifts them to each point of its group; the oracle builds the bracket at
    every point.  The bound, 2e-15 relative at every point, was fixed before
    measuring."""

    @pytest.mark.parametrize("order", range(4))
    def test_lone_points_are_bit_identical(self, order):
        for sigma in (-0.3, 0.5, 2.0):
            for tv in (0.0, 14.13, 1e3, 9.9e4):
                s, base = np.array([complex(sigma, tv)]), np.array([float(_em_cut(abs(tv)))])
                want = _tail_oracle(s, base, order)
                assert np.array_equal(_em_tail(s, base, order), want)
                assert np.array_equal(_em_tail(s, base, order, np.zeros(1, dtype=int)), want)

    @pytest.mark.parametrize("order", range(4))
    def test_anchors_and_lone_points_in_a_grid_are_bit_identical(self, order):
        """257 points: one chunk of 256 that shares its anchor, and a point
        alone, whose expansion keeps M = order terms at eps = 0."""
        sigma, t = 0.4, 1000.0 + 0.05 * np.arange(257)
        cuts, lead = _tail_grouping(sigma, t)
        heads = lead == np.arange(t.size)
        assert np.flatnonzero(heads).tolist() == [128, 256]
        s = sigma + 1j * t
        got = _em_tail(s, cuts, order, lead)
        assert np.array_equal(got[:, heads], _tail_oracle(s[heads], cuts[heads], order))

    def test_hurwitz_offsets_are_bit_identical(self):
        a = np.linspace(0.025, 1.0, 40)
        for s in (0.5 + 14.13j, 2.0 - 300.0j, -0.3 + 1e3j):
            base = _em_cut(abs(s.imag)) + a
            assert np.array_equal(_em_tail(s, base, 0), _tail_oracle(s, base, 0))

    @pytest.mark.parametrize("t_scale", [1e3, 2e3, 5e3, 2e4])
    def test_moment_grids(self, t_scale):
        lo, hi = SmoothWeight(t_scale).support
        t = np.linspace(lo, hi, int(math.ceil((hi - lo) / 0.05)) + 1)
        lead = _assert_tail_close(0.5 - 1.3 / math.log(t_scale), t)
        assert np.count_nonzero(lead == np.arange(t.size)) == -(-t.size // 256)  # one anchor per chunk

    def test_other_grids(self, moment_grid):
        """A low grid, a grid through t = 0 (whose chunks build their own
        tables, so each point is its own anchor), a shuffled moment grid, and
        256 scattered points near the height cap."""
        _assert_tail_close(0.5, np.linspace(0.1, 60.0, 600))
        _assert_tail_close(0.25, np.linspace(-40.0, 40.0, 801))
        sigma, t = moment_grid
        _assert_tail_close(sigma, t[np.random.default_rng(7).permutation(t.size)])
        _assert_tail_close(0.5, np.sort(np.random.default_rng(11).uniform(99000.0, 99050.0, 256)))

    def test_orders_past_the_bracket_degree(self):
        """At order >= 27 every Taylor coefficient of the bracket is kept."""
        _assert_tail_close(0.3, 500.0 + 0.05 * np.arange(600), orders=(_EM_DEGREE, _EM_DEGREE + 2))

    @pytest.mark.parametrize("t_scale", [1e3, 2e4])
    def test_kept_terms_are_the_first_below_the_bound(self, t_scale):
        """Per anchor, M is the first M >= order at which
        sum_{m > M} C(m, j) |c_m| r^{m-j} <= 2^-60 |c_0| for every j <= order."""
        lo, hi = SmoothWeight(t_scale).support
        t = np.linspace(lo, hi, 12)
        s = 0.5 - 1.3 / math.log(t_scale) + 1j * t
        base = np.array([float(_em_cut(v)) for v in t])
        coeff = _em_bracket(s, base, _EM_DEGREE)
        reach = np.array([0.0, 0.05, 1.0, 6.4, 12.8, 40.0, 6.4, 6.4, 3.2, 0.5, 100.0, 6.4])
        for order in range(4):
            kept = _em_kept(coeff, reach, order)
            for g in range(t.size):
                size = np.abs(coeff[:, g])

                def dropped(top):
                    return max(sum(math.comb(m, j) * size[m] * reach[g] ** (m - j)
                                   for m in range(top + 1, _EM_DEGREE + 1)) for j in range(order + 1))

                assert dropped(kept[g]) <= 2.0**-60 * size[0]
                assert kept[g] == order or dropped(kept[g] - 1) > 2.0**-60 * size[0]
            assert kept[0] == order  # reach 0: a lone point


class TestHurwitzZeta:
    def test_against_mpmath(self):
        offsets = [np.array([0.2, 0.5, 1.0, 3.75]), np.array([0.3 + 2.0j, 1.5 - 40.0j, 6.0 + 0.5j])]
        for s in (2.2 + 1.5j, 0.5 + 3.0j, -0.7 + 1.0j, 3.0, 1.2 - 25.0j):
            for a in offsets:
                got = hurwitz_zeta(s, a)
                for k, a_k in enumerate(a):
                    ref = complex(mp.zeta(mp.mpc(s), mp.mpc(a_k)))
                    assert got[k] == pytest.approx(ref, rel=1e-10)

    def test_pole_and_domain(self):
        with pytest.raises(PoleError):
            hurwitz_zeta(1.0, [0.5])
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, [0.0])

    def test_overflow_refused(self):
        # (1/5)^{-451.5} is about 1e315; it once came back inf and made L nan
        with pytest.raises(DomainError, match=re.escape("hurwitz zeta at s = (451.5+0j) overflows a double")):
            hurwitz_zeta(451.5, np.array([0.2, 0.4]))
        assert np.isfinite(hurwitz_zeta(400.0, np.array([0.2, 0.4]))).all()


class TestZetaDerivative:
    def test_against_mpmath(self):
        for order in (1, 2, 4):
            ref = complex(mp.zeta(mp.mpc(2, 3), derivative=order))
            assert zeta_derivative(2 + 3j, order) == pytest.approx(ref, rel=1e-9)
        # both sides of the reflection, high on the line, and the derivatives
        # at the trivial zeros, where zeta itself vanishes
        points = [complex(sigma, 3.0) for sigma in (-20.0, -10.0, -3.5, -0.5, 0.3, 2.0)]
        for s in points + [-0.7 + 1000.0j, -2.0, -4.0]:
            for order in range(9):
                ref = complex(mp.zeta(mp.mpc(s), derivative=order))
                assert zeta_derivative(s, order) == pytest.approx(ref, rel=1e-10)

    def test_high_order_accuracy_in_strip(self):
        # the accuracy the docstring states: cancellation costs high orders
        # relative digits where the derivative is small (9.0e-11 at order 8)
        for s in (0.3 + 7.3j, 0.3 + 20.0j):
            for order in range(9):
                ref = complex(mp.zeta(mp.mpc(s), 1, order))
                bound = 1e-10 if order <= 6 else 1e-9
                assert abs(zeta_derivative(s, order) - ref) <= bound * abs(ref)

    def test_order_zero_identity(self):
        s = 0.4 + 7.0j
        assert zeta_derivative(s, 0) == zeta(s)

    def test_near_pole_refused(self):
        with pytest.raises(ConditioningError):
            zeta_derivative(1.0005, 1)

    def test_order_cap(self):
        with pytest.raises(DomainError):
            zeta_derivative(2.0, 9)


def mpmath_xi(s):
    """(s-1) pi^{-s/2} Gamma(s/2+1) zeta(s) in mpmath, away from s = 1."""
    s = mp.mpc(s)
    return complex((s - 1) * mp.power(mp.pi, -s / 2) * mp.gamma(s / 2 + 1) * mp.zeta(s))


class TestXi:
    def test_symmetry(self, rng):
        for _ in range(25):
            s = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            assert xi_completed(1.0 - s) == pytest.approx(xi_completed(s), abs=1e-10)

    def test_against_mpmath(self):
        # far up the line xi decays like exp(-pi t / 4); at s = 400 it is ~1e278,
        # and xi(-301) = xi(302) ~ 2.2e192 is finite though zeta(-301) is not
        for s in (0.3 + 5j, -3.3 + 2j, 0.5 + 30j, 0.5 + 60j, 0.5 + 200j, 400.0, -301.0):
            assert xi_completed(s) == pytest.approx(mpmath_xi(s), rel=1e-12)

    def test_special_points(self):
        assert xi_completed(0.0) == pytest.approx(0.5)
        # removable 0 * infinity of the product: the zeta pole and the
        # gamma poles on the trivial zeros, valued by xi(1-s)
        for s in (1.0, -2.0, -4.0):
            assert xi_completed(s) == pytest.approx(mpmath_xi(1.0 - s), rel=1e-12)

    def test_overflow_refused(self):
        # xi(433) ~ 1.5e308 still fits; at 434 the product overflows, at 500
        # the gamma factor's exponential itself; xi(-433) = xi(434)
        assert math.isfinite(xi_completed(433.0).real)
        for s, what in ((434.0, "xi(s)"), (500.0, "xi(s)"), (-433.0, "the functional equation")):
            with pytest.raises(DomainError, match=re.escape(f"{what} at s = {complex(s)} overflows a double")):
                xi_completed(s)


class TestHardyZ:
    def test_real_and_modulus(self):
        t = np.array([5.0, 18.0, 77.3])
        z = hardy_z_line(t)
        assert z.dtype == np.float64
        for i, tv in enumerate(t):
            assert abs(z[i]) == pytest.approx(abs(zeta(0.5 + 1j * tv)), rel=1e-10)

    def test_line_matches_scalar(self):
        t = np.array([10.0, 20.0, 30.0])
        line = hardy_z_line(t)
        for i, tv in enumerate(t):
            assert line[i] == pytest.approx(hardy_z_line(np.array([tv]))[0], rel=1e-10)
        # a uniform grid high up, which shares one phase table; phases near
        # 5e4 rad round to ~1e-11 absolute, so Z near a zero needs abs
        t = np.arange(5000.0, 5030.0, 0.05)
        line = hardy_z_line(t)
        for i in range(0, t.size, 37):
            assert line[i] == pytest.approx(hardy_z_line(t[i : i + 1])[0], rel=1e-10, abs=1e-10)

    def test_sign_and_value_against_siegelz(self):
        # Z(0) = zeta(1/2) < 0; the phase is that of pi^{-s/2} Gamma(s/2) alone
        t = np.array([0.0, 10.0, 20.0, 5000.3])
        z = hardy_z_line(t)
        for i, tv in enumerate(t):
            assert z[i] == pytest.approx(float(mp.siegelz(tv)), rel=1e-10, abs=1e-10)
        assert z[0] == pytest.approx(zeta(0.5).real, rel=1e-12)

    def test_height_cap(self):
        for t in (2e5, math.nan):
            with pytest.raises(DomainError, match="zeta certified only for"):
                hardy_z_line(np.array([t]))


class TestZeroScan:
    def test_first_zeros(self):
        report = count_critical_zeros(0.0, 30.0, 0.05)
        assert report.zero_count == 3
        known_first = 14.134725
        assert report.zeros[0] == pytest.approx(known_first, abs=1e-4)
        assert np.all(np.abs(hardy_z_line(np.array(report.zeros))) < 1e-4)

    def test_first_29_zeros_against_mpmath(self):
        report = count_critical_zeros(0.0, 100.0, 0.05)
        assert report.zero_count == 29
        for k, rho in enumerate(report.zeros, 1):
            assert rho == pytest.approx(float(mp.zetazero(k).imag), abs=1e-6)

    def test_empty_range(self):
        report = count_critical_zeros(5.0, 5.0, 0.1)
        assert report.zero_count == 0

    def test_step_warning(self):
        report = count_critical_zeros(0.0, 10.0, 0.75)
        assert report.step_warning

    def test_validation(self):
        with pytest.raises(DomainError):
            count_critical_zeros(-1.0, 5.0, 0.1)
        with pytest.raises(DomainError):
            count_critical_zeros(0.0, 5.0, 0.0)

    def test_refused_before_the_grid(self, monkeypatch):
        # past the height where Z is certified, or with a nan bound or step,
        # the scan is refused before a grid is built or any Z evaluated
        def unreachable(t):
            raise AssertionError("the scan reached Z")

        monkeypatch.setattr(zeta_module, "hardy_z_line", unreachable)
        tracemalloc.start()
        try:
            # a step of 1e-9 over [0, 100] would ask for 1e11 points (745 GiB)
            cases = [(0.0, 1e5 + 1, 0.05), (0.0, math.nan, 0.05), (0.0, 10.0, math.nan), (0.0, 10.0, math.inf)]
            for t_min, t_max, step in cases + [(0.0, 100.0, 1e-9)]:
                with pytest.raises(DomainError):
                    count_critical_zeros(t_min, t_max, step)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_estimate(self):
        # (T/2pi)log(T/2pi) - T/2pi at T=100
        u = 100.0 / (2 * math.pi)
        assert zero_count_estimate(100.0) == pytest.approx(u * math.log(u) - u)


class TestAfe:
    def test_param_validation(self):
        with pytest.raises(DomainError):
            AfeParams(0.6, 0.0, 50.0)
        with pytest.raises(DomainError):
            AfeParams(0.1, 0.1, 5.0)
        # a negative length would sum nothing and 2.5 would be cut to 2; a nan t
        # or shift would reach numpy as nan
        bad = [(0.1, 0.1, 50.0, -5), (0.1, 0.1, 50.0, 2.5), (0.1, 0.1, 50.0, math.nan), (0.1, 0.1, math.nan, 0)]
        bad += [(0.1, 0.1, math.inf, 0), (math.nan, 0.1, 50.0, 0), (0.1, complex(0.0, math.inf), 50.0, 0)]
        for alpha, beta, t, n in bad:
            with pytest.raises(DomainError):
                AfeParams(alpha, beta, t, n)
        # 0 is the default 10 t; a whole float counts as its integer
        assert AfeParams(0.1, 0.1, 50.0).truncation_length == 500
        assert AfeParams(0.1, 0.1, 50.0, 2000.0).truncation_length == 2000

    def test_pair_cap_refused_before_the_arrays(self):
        # the default N = 10 t = 1e6 has about 1.4e7 (m, n) pairs; t = 1e4
        # once peaked at 88.9 MB in afe_pair
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="pairs"):
                AfeParams(1e-3, 2e-3, 1e5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # 164,414 is the largest N with at most GRID_MAX pairs
        assert AfeParams(1e-3, 2e-3, 50.0, 164_414).truncation_length == 164_414
        with pytest.raises(DomainError, match="pairs"):
            AfeParams(1e-3, 2e-3, 50.0, 164_415)

    def test_degenerate_shift_sum(self):
        with pytest.raises(DomainError, match=re.escape("alpha + beta = 0 degenerates the smoothing prefactor; "
                                                        "use a small offset such as alpha + beta = 1e-6")):
            AfeParams(1e-3, -1e-3, 50.0)

    def test_x_factor_against_mpmath(self):
        a, b, t = 0.1, 0.2, 30.0
        p = AfeParams(a, b, t)
        ref = mp.power(mp.pi, a + b) * (
            mp.gamma((0.5 - a - 1j * t) / 2)
            * mp.gamma((0.5 - b + 1j * t) / 2)
            / mp.gamma((0.5 + a + 1j * t) / 2)
            / mp.gamma((0.5 + b - 1j * t) / 2)
        )
        assert afe_x_factor(p) == pytest.approx(complex(ref), rel=1e-12)

    def test_v_weight_normalization_and_decay(self):
        near_one, far = _afe_v_table([(1e-3, 1e-3)], 50.0, np.array([1.0, 4000.0]))[:, 0]
        assert abs(near_one - 1.0) < 0.1
        assert abs(far) < 1e-4

    @pytest.mark.parametrize(
        "a, b, t", [(1e-3, 1e-3, 50.0), (0.05, -0.02, 30.0), (0.2, 0.1, 100.0)]
    )
    def test_v_table_against_dense_contour(self, a, b, t):
        # 20 nodes per unit height against the 200 per unit height they replaced
        x = np.arange(1.0, 10 * t + 1)
        shifts = [(a, b), (-b, -a)]
        got = _afe_v_table(shifts, t, x)
        want = np.stack([dense_v_table(sa, sb, t, x) for sa, sb in shifts], axis=1)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_assembly_matches_direct_product(self):
        a, b, t = 0.1, 0.2, 30.0
        params = AfeParams(a, b, t, truncation_length=1500)
        direct = zeta(0.5 + a + 1j * t) * zeta(0.5 + b - 1j * t)
        assembled = afe_pair(params)
        assert abs(assembled - direct) / abs(direct) < 1e-3

    def test_truncation_refines(self):
        a, b, t = 1e-3, 1e-3, 50.0
        direct = zeta(0.5 + a + 1j * t) * zeta(0.5 + b - 1j * t)
        coarse = afe_pair(AfeParams(a, b, t, truncation_length=500))
        fine = afe_pair(AfeParams(a, b, t, truncation_length=2000))
        assert abs(fine - direct) < abs(coarse - direct)


def test_submodule_is_not_shadowed():
    """The package binds no names but __version__, so `critline.zeta` is the
    module, not the function of the same name."""
    import critline
    from critline import zeta as imported

    assert zeta_module is imported is sys.modules["critline.zeta"]
    assert zeta_module.zeta_line is zeta_line
    # every other public name on the package is a submodule bound by import
    public = [value for name, value in vars(critline).items() if not name.startswith("_")]
    assert all(isinstance(value, types.ModuleType) for value in public)


def test_import_leaves_mpmath_out():
    """mpmath is a test oracle only, and scipy.integrate is not used at all:
    neither importing the package nor the `constant` command, which runs the
    Gauss-Legendre quadrature oracle c_constant_quadrature, loads either."""
    import critline

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(critline.__file__)))
    code = (
        "import sys, critline, critline.cli; mods = ('mpmath', 'scipy.integrate'); "
        "print([m in sys.modules for m in mods]); "
        "sys.stdout.flush(); code = critline.cli.main(['constant']); "
        "print([m in sys.modules for m in mods], code)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "[False, False]"
    assert lines[-1] == "[False, False] 0"
