"""Kappa maximization: determinism, feasibility, dominance, the solved P,
pinned optima, and the R grid-scan oracle."""

import math

import numpy as np
import pytest

from critline.errors import ConfigError
from critline.levinson import THETA_MAX, LevinsonParams, c_constant_exact, kappa_lower_bound
from critline.mollifier import Polynomial
from critline.optimizer import (
    SearchSpace,
    _nelder_mead,
    _Objective,
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
        with pytest.raises(ConfigError):
            SearchSpace(1, 1, (0.5, 2.5), 0.572)
        SearchSpace(1, 1, (0.5, 2.5), THETA_MAX)

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
        objective = _Objective(space)
        params = objective.params(baseline_embedding(space))
        q_poly, r = params.q_poly, params.r_shift
        assert q_poly.coefficients == (1.0, -1.0)
        assert r == 1.3
        c = objective.solve(baseline_embedding(space))[3]
        assert c == pytest.approx(c_constant_exact(params), rel=1e-13)
        assert c <= c_constant_exact(LevinsonParams(Polynomial((0.0, 1.0)), q_poly, r, 0.5))

    def test_solved_p_is_the_constrained_minimum(self, rng):
        # perturbing the solved P along P(0)=0, P(1)=1 never lowers c
        space = SearchSpace(4, 3, (0.5, 2.5), 0.5)
        objective = _Objective(space)
        vec = np.array([0.4, 0.2, 1.1])
        params, c = objective.params(vec), objective.solve(vec)[3]
        p_poly, q_poly, r = params.p_poly, params.q_poly, params.r_shift
        for _ in range(20):
            bump = rng.uniform(-0.1, 0.1, 3)
            coeffs = np.array(p_poly.coefficients)
            coeffs[2:] += bump
            coeffs[1] -= bump.sum()
            other = LevinsonParams(Polynomial(coeffs), q_poly, r, 0.5)
            assert c_constant_exact(other) >= c - 1e-12

    def test_solved_p_sums_to_one_exactly(self, rng):
        # without the 2^-40 grid, 1 - sum(higher p) misses P(1) = 1 by an ulp
        # for about one random (Q, R) in twelve
        for p_degree in range(2, 7):
            space = SearchSpace(p_degree, 5, (0.5, 2.5), 0.5)
            objective = _Objective(space)
            for _ in range(60):
                vec = np.append(rng.uniform(-1.0, 1.5, space.q_terms), rng.uniform(0.5, 2.5))
                p_poly = objective.params(vec).p_poly
                assert p_poly.coefficients[0] == 0.0
                assert math.fsum(p_poly.coefficients) == 1.0

    def test_decoded_q_is_admissible(self, rng):
        # Q(0) = 1 exactly and Q(x) + Q(1-x) constant, within deg Q <= q_degree
        x = np.linspace(0.0, 1.0, 11)
        for q_degree in range(1, 7):
            space = SearchSpace(1, q_degree, (0.5, 2.5), 0.5)
            vec = np.append(rng.uniform(-1.0, 1.0, space.q_terms), 1.0)
            q_poly = _Objective(space).params(vec).q_poly
            assert q_poly.coefficients[0] == 1.0
            assert q_poly.degree <= q_degree
            total = q_poly(x) + q_poly(1.0 - x)
            assert np.ptp(total) < 1e-12

    def test_objective_finite_for_every_in_range_r(self, rng):
        # the squared functional gives c > 1, so no in-range point is rejected
        for p_degree, q_degree in ((1, 1), (3, 3), (6, 6)):
            space = SearchSpace(p_degree, q_degree, (0.5, 2.5), 0.5)
            objective = _Objective(space)
            for b in (baseline_embedding(space)[:-1], *rng.uniform(-2.0, 2.0, (4, space.q_terms))):
                for r in np.linspace(0.5, 2.5, 41):
                    assert math.isfinite(objective(np.append(b, r)))
                assert objective(np.append(b, 2.6)) == math.inf

    @pytest.mark.parametrize(
        "theta, degrees, kappa",
        [
            (0.5, (1, 1), 0.347439),  # Levinson's 0.3474
            (0.5, (3, 3), 0.365109),
            (THETA_MAX, (3, 3), 0.408620),  # Conrey's 0.4088 lies between these two
            (THETA_MAX, (4, 5), 0.408953),
        ],
    )
    def test_pinned_optima(self, theta, degrees, kappa):
        report = optimize_kappa(SearchSpace(*degrees, (0.5, 2.5), theta))
        assert report.best_kappa == pytest.approx(kappa, abs=1e-5)

    @pytest.mark.parametrize("theta", [0.5, THETA_MAX])
    def test_closed_form_c_matches_solved_p(self, rng, theta):
        # the objective's 1 + (1/sum y + beta)/theta (read back from -kappa),
        # the solve's c and the exact c of the solved (rounded) P are one number
        for p_degree in range(1, 7):
            for q_degree in range(1, 7):
                space = SearchSpace(p_degree, q_degree, (0.5, 2.5), theta)
                objective = _Objective(space)
                vec = np.append(rng.uniform(-1.0, 1.5, space.q_terms), rng.uniform(0.5, 2.5))
                closed = math.exp(vec[-1] * (1.0 + objective(vec)))
                solved = objective.solve(vec)[3]
                exact = c_constant_exact(objective.params(vec))
                assert solved == pytest.approx(closed, rel=1e-12)
                assert exact == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.5, THETA_MAX])
    def test_default_runs_converge(self, theta):
        # the benchmark's degrees, default restarts: every restart meets the
        # 1e-8 diameter well inside max_iter
        for degree in (1, 2, 3, 4):
            space = SearchSpace(degree, degree, (0.5, 2.5), theta)
            assert optimize_kappa(space).converged == space.restarts

    def test_nelder_mead_reports_the_iteration_cap(self):
        def bowl(x):
            return float(x @ x)

        _, _, converged = _nelder_mead(bowl, np.array([1.0, -2.0]), 0.5, max_iter=5)
        assert not converged
        vec, val, converged = _nelder_mead(bowl, np.array([1.0, -2.0]), 0.5)
        assert converged
        assert val < 1e-15 and np.max(np.abs(vec)) < 1e-7

    def test_evaluation_budget_sane(self):
        report = optimize_kappa(SearchSpace(1, 1, (0.5, 2.5), 0.5, restarts=2, seed=2))
        assert report.evaluations < 50000
        assert math.isfinite(report.best_kappa)
