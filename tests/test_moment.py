"""Smooth plateau weight and the desk-scale mollified moment."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import critline
from critline.errors import DomainError
from critline.levinson import LevinsonParams
from critline.moment import (
    SmoothWeight,
    _ramp,
    mollified_moment_numeric,
    smooth_weight,
    w_hat_zero,
)
from critline.mollifier import MollifierSpec, Polynomial, mollifier_coefficients

from conftest import fornberg_weights, mobius

BASELINE = LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((1.0, -1.0)), 1.3, 0.5)

# finite-difference bounds max |w^(j)| Delta^j measured for this ramp;
# they are stable under refinement but much larger than (2j)!
DERIVATIVE_BOUNDS = {1: 20.0, 2: 2000.0, 3: 1e5, 4: 2e7}


class TestSmoothWeight:
    def test_defaults(self):
        w = SmoothWeight(5000.0)
        assert w.delta == pytest.approx(5000.0 / math.log(5000.0))
        assert w.plateau == (2500.0, 5000.0)
        lo, hi = w.support
        assert lo >= 5000.0 / 4.0 and hi <= 10000.0

    def test_validation(self):
        # T must exceed 1, and below e^4 ~ 54.6 the ramp T/log T pokes below T/4
        for t_scale in (1.0, 0.5, math.nan, 10.0, 54.0):
            with pytest.raises(DomainError):
                SmoothWeight(t_scale)
        lo, hi = SmoothWeight(55.0).support
        assert 55.0 / 4.0 <= lo and hi <= 110.0

    def test_range_and_plateau(self, rng):
        w = SmoothWeight(5000.0)
        t = rng.uniform(0.0, 10000.0, 500)
        vals = smooth_weight(t, w)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert smooth_weight(3000.0, w) == 1.0
        assert smooth_weight(1000.0, w) == 0.0
        assert smooth_weight(9000.0, w) == 0.0

    def test_ramp_midpoint(self):
        w = SmoothWeight(5000.0)
        mid_left = w.plateau[0] - w.delta / 2.0
        mid_right = w.plateau[1] + w.delta / 2.0
        assert smooth_weight(mid_left, w) == pytest.approx(0.5, abs=1e-12)
        assert smooth_weight(mid_right, w) == pytest.approx(0.5, abs=1e-12)

    def test_ramp_complement_symmetry(self, rng):
        w = SmoothWeight(5000.0)
        lo = w.plateau[0] - w.delta
        for x in rng.uniform(0.0, w.delta, 50):
            total = smooth_weight(lo + x, w) + smooth_weight(lo + w.delta - x, w)
            assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_derivative_bounds(self, order, rng):
        w = SmoothWeight(5000.0)
        d = w.delta
        h = d / 50.0
        grid = h * np.arange(-4, 5)
        weights = fornberg_weights(grid, order)
        worst = 0.0
        for t in rng.uniform(*w.support, 100):
            est = abs(sum(weights[k] * smooth_weight(t + grid[k], w) for k in range(9)))
            worst = max(worst, est * d**order)
        assert worst < DERIVATIVE_BOUNDS[order]

    @pytest.mark.parametrize("t_scale", [1e3, 2e3, 2e4])
    def test_ramps_only_inside_their_width(self, t_scale):
        """The weight evaluates each ramp only where 0 < x < delta; everywhere
        else the product of the two ramps is exactly 0 or 1, so the weight is
        that product to the bit, on the moment grid, at the knots and on scalars."""
        w = SmoothWeight(t_scale)
        lo, hi = w.plateau
        d = w.delta

        def product(t):
            t = np.asarray(t, dtype=float)
            return _ramp(t - (lo - d), d) * _ramp((hi + d) - t, d)

        a, b = w.support
        grid = np.linspace(a, b, int(math.ceil((b - a) / 0.05)) + 1)
        assert np.array_equal(smooth_weight(grid, w), product(grid))
        knots = np.array([lo - d, lo, hi, hi + d])
        near = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf), knots + 1e-3])
        assert np.array_equal(smooth_weight(near, w), product(near))
        assert np.array_equal(smooth_weight(near.reshape(4, 4), w), product(near).reshape(4, 4))
        for t in (*near, 0.0, 3.0 * t_scale):
            got = smooth_weight(float(t), w)
            assert type(got) is float and got == float(product(t))


class TestWHatZero:
    def test_between_indicator_bounds(self):
        w = SmoothWeight(5000.0)
        plateau_len = w.plateau[1] - w.plateau[0]
        val = w_hat_zero(w)
        assert plateau_len <= val <= plateau_len + 2.0 * w.delta

    def test_equals_plateau_plus_delta(self):
        # the symmetric ramp contributes exactly delta/2 on each side
        w = SmoothWeight(5000.0)
        assert w_hat_zero(w) == pytest.approx(
            (w.plateau[1] - w.plateau[0]) + w.delta, rel=1e-8
        )

    def test_default_within_expected_window(self):
        w = SmoothWeight(5000.0)
        val = w_hat_zero(w)
        assert abs(val - 2500.0) <= 5000.0 / math.log(5000.0) + 1e-6


class TestMoment:
    def test_small_t_run_positive(self):
        report = mollified_moment_numeric(BASELINE, 600.0)
        assert report.numeric_moment > 0.0
        assert report.main_term > 0.0
        assert report.ratio == pytest.approx(report.numeric_moment / report.main_term)
        assert not report.refinement_warning
        # the largest Euler-Maclaurin cut, N = ceil(max t / 2) at the top of the support
        assert report.truncation_n == math.ceil(SmoothWeight(600.0).support[1] / 2) == 347
        assert 0.0 < report.tail_bound < 1e-13
        assert mollified_moment_numeric(BASELINE, 600.0) == report

    @pytest.mark.parametrize("t_scale, moment", [(1000.0, 1245.1930864306105), (2000.0, 2460.2407729167708)],
                             ids=["T=1000", "T=2000"])
    def test_baseline_moment_is_pinned(self, t_scale, moment):
        """On the dyadic lattice of nodes, weighed by their exact spacing."""
        assert mollified_moment_numeric(BASELINE, t_scale).numeric_moment == pytest.approx(moment, rel=1e-13, abs=0)

    @pytest.mark.parametrize("t_scale, step", [(600.0, 0.0), (1000.0, 0.0), (2e4, 0.5), (1000.0, 0.049), (55.0, 1.0)])
    def test_nodes_are_exact_multiples_of_the_step(self, t_scale, step, monkeypatch):
        """Each node is t_0 + k grid_step to the bit, every node lies inside
        the support, and the node count is ceil((hi - lo) / step) + 1."""
        seen = []

        def weight(t, spec):
            seen.append(np.array(t))
            return smooth_weight(t, spec)

        monkeypatch.setattr("critline.moment.smooth_weight", weight)
        report = mollified_moment_numeric(BASELINE, t_scale, step)
        (t,) = seen
        weight = SmoothWeight(t_scale)
        lo, hi = weight.support
        assert t.size == report.grid_points == math.ceil((hi - lo) / (step or min(0.05, weight.delta / 20))) + 1
        assert np.array_equal(t, t[0] + np.arange(t.size) * report.grid_step)
        assert lo <= t[0] and t[-1] <= hi
        assert report.grid_step <= (hi - lo) / (t.size - 1)

    def test_peak_memory(self):
        """At T = 2000 the grid kernel's shared phase table is 256 x N
        complex, N = 1132 (4.6 MB); the run's peak is 10.4 MB, and was
        14.6 MB when N was ceil(max t)."""
        tracemalloc.start()
        try:
            mollified_moment_numeric(BASELINE, 2000.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_runtime_guard(self):
        with pytest.raises(DomainError):
            mollified_moment_numeric(BASELINE, 1e5)
        # a negative or non-finite step, or 1.7e8 points at step 1e-7 (58.8 GiB)
        for step in (-0.1, math.nan, math.inf, 1e-7):
            with pytest.raises(DomainError):
                mollified_moment_numeric(BASELINE, 1000.0, step)

    def test_coarse_grid_warning(self):
        report = mollified_moment_numeric(BASELINE, 600.0, grid_step=20.0)
        assert report.refinement_warning

    def test_grid_offset_stability(self):
        a = mollified_moment_numeric(BASELINE, 600.0, grid_step=0.05)
        b = mollified_moment_numeric(BASELINE, 600.0, grid_step=0.049)
        assert a.numeric_moment == pytest.approx(b.numeric_moment, rel=2e-3)

    def test_short_mollifier_builds_no_shared_sieve(self):
        """At T=1000 (M ~ 31.6) the Moebius table is sized to M: the
        coefficients are mu(h) P(log(M/h)/log M) over the squarefree h <= 31."""
        spec = MollifierSpec(1000.0, 0.5, 1.3, BASELINE.p_poly)
        h, c = mollifier_coefficients(spec)
        squarefree = [k for k in range(1, 32) if mobius(k)]
        assert h.tolist() == squarefree
        log_m = math.log(spec.m_length)
        expected = [mobius(k) * spec.p_poly((log_m - math.log(k)) / log_m) for k in squarefree]
        assert c[0] == 1.0
        assert np.max(np.abs(c - expected)) <= 1e-15

    def test_degenerate_mollifier(self):
        # theta tiny: M < 2, psi collapses to 1 and the moment is the
        # smoothed second moment of V alone
        params = LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((1.0, -1.0)), 1.3, 0.05)
        report = mollified_moment_numeric(params, 600.0)
        assert report.ratio > 0.0 and math.isfinite(report.ratio)


def test_moment_loads_no_character_code():
    """The mollifier's sums go through the zeta grid kernel alone, so the
    moment never imports the Dirichlet character module."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(critline.__file__)))
    code = "import sys, critline.moment; print('critline.dirichlet' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert proc.stdout.strip() == "False"
