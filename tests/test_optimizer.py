"""Derivative-free kappa maximization: determinism, feasibility,
dominance, and the R grid-scan oracle."""

import math

import pytest

from critline.errors import ConfigError
from critline.levinson import LevinsonParams, c_constant_exact, kappa_lower_bound
from critline.mollifier import Polynomial
from critline.optimizer import (
    SearchSpace,
    baseline_embedding,
    grid_scan_r,
    optimize_kappa,
)

BASELINE_KAPPA = kappa_lower_bound(
    c_constant_exact(
        LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((1.0, -1.0)), 1.3, 0.5)
    ),
    1.3,
)


class TestSearchSpace:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SearchSpace(0, 1, (0.5, 2.5), 0.5)
        with pytest.raises(ConfigError):
            SearchSpace(1, 1, (2.5, 0.5), 0.5)
        with pytest.raises(ConfigError):
            SearchSpace(1, 1, (-1.0, 2.0), 0.5)
        with pytest.raises(ConfigError):
            SearchSpace(1, 1, (0.5, 2.5), 0.5, restarts=0)
        with pytest.raises(ConfigError):
            SearchSpace(7, 1, (0.5, 2.5), 0.5)

    def test_single_point_r_is_valid(self):
        SearchSpace(1, 1, (1.3, 1.3), 0.5)


class TestGridScan:
    def test_singleton_matches_pipeline(self):
        scan = grid_scan_r(Polynomial((0.0, 1.0)), Polynomial((1.0, -1.0)), 0.5, [1.3])
        assert len(scan) == 1
        assert scan[0][0] == 1.3
        assert scan[0][1] == pytest.approx(BASELINE_KAPPA)

    def test_blow_up_toward_zero(self):
        scan = grid_scan_r(
            Polynomial((0.0, 1.0)), Polynomial((1.0, -1.0)), 0.5, [0.01, 0.1, 0.5]
        )
        kappas = [k for _, k in scan]
        assert kappas[0] < kappas[1] < kappas[2]

    def test_sorted_output(self):
        scan = grid_scan_r(Polynomial((0.0, 1.0)), Polynomial((1.0, -1.0)), 0.5, [2.0, 1.0, 1.5])
        assert [r for r, _ in scan] == [1.0, 1.5, 2.0]

    def test_validation(self):
        with pytest.raises(ConfigError):
            grid_scan_r(Polynomial((0.0, 1.0)), Polynomial((1.0, -1.0)), 0.5, [])


class TestOptimizer:
    def test_determinism(self):
        space = SearchSpace(2, 2, (0.5, 2.5), 0.5, restarts=4, seed=7)
        a = optimize_kappa(space)
        b = optimize_kappa(space)
        assert a.best_kappa == b.best_kappa
        assert a.restart_trace == b.restart_trace
        assert a.best_params == b.best_params

    def test_feasibility_of_report(self):
        # (4,4) at theta=0.45 once reported P(1) = 1 - 2.2e-16
        for space in (
            SearchSpace(3, 2, (0.5, 2.5), 0.5, restarts=4, seed=3),
            SearchSpace(4, 4, (0.5, 2.5), 0.45),
        ):
            report = optimize_kappa(space)
            p, q = report.best_params.p_poly, report.best_params.q_poly
            assert abs(p(0.0)) <= 1e-12
            assert abs(p(1.0) - 1.0) <= 1e-12
            assert math.fsum(p.coefficients) == 1.0
            assert abs(q(0.0) - 1.0) <= 1e-12
            r_lo, r_hi = space.r_range
            assert r_lo <= report.best_params.r_shift <= r_hi

    def test_recomputed_kappa_consistent(self):
        space = SearchSpace(1, 1, (0.5, 2.5), 0.5, restarts=2, seed=1)
        report = optimize_kappa(space)
        recomputed = kappa_lower_bound(
            c_constant_exact(report.best_params), report.best_params.r_shift
        )
        assert report.best_kappa == recomputed

    def test_never_below_baseline(self):
        # restart 0 embeds the baseline, so the report cannot be worse
        space = SearchSpace(1, 1, (0.5, 2.5), 0.5, restarts=2, seed=0)
        report = optimize_kappa(space)
        assert report.best_kappa >= BASELINE_KAPPA - 1e-10

    def test_monotone_dominance_in_degree(self):
        small = optimize_kappa(SearchSpace(1, 1, (0.5, 2.5), 0.5, restarts=3, seed=5))
        large = optimize_kappa(SearchSpace(2, 2, (0.5, 2.5), 0.5, restarts=3, seed=5))
        assert large.best_kappa >= small.best_kappa - 1e-6

    def test_baseline_embedding_decodes_exactly(self):
        space = SearchSpace(3, 3, (0.5, 2.5), 0.5)
        vec = baseline_embedding(space)
        from critline.optimizer import _decode

        params = _decode(vec, space)
        assert params.p_poly.coefficients == (0.0, 1.0)
        assert params.q_poly.coefficients == (1.0, -1.0)
        assert params.r_shift == 1.3

    def test_evaluation_budget_sane(self):
        report = optimize_kappa(SearchSpace(1, 1, (0.5, 2.5), 0.5, restarts=2, seed=2))
        assert report.evaluations < 50000
        assert math.isfinite(report.best_kappa)
