"""Kappa maximization: determinism, feasibility, dominance, the solved P
and Q, pinned optima, the parent search's table, and the R grid-scan
oracle."""

import math

import numpy as np
import pytest

from critline.errors import ConfigError
import critline.optimizer as optimizer_module
from critline.levinson import THETA_MAX, LevinsonParams, c_constant_exact, hankel_pieces, kappa_lower_bound
from critline.mollifier import Polynomial
from critline.optimizer import SearchSpace, _Objective, grid_scan_r, optimize_kappa

BASELINE_KAPPA = kappa_lower_bound(
    c_constant_exact(
        LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((1.0, -1.0)), 1.3, 0.5)
    ),
    1.3,
)

# kappa from the 8-restart Nelder-Mead search this one replaced, on r_range
# (0.5, 2.5): row deg P - 1, column deg Q - 1 (an even deg Q adds no term)
PARENT_KAPPA = {
    0.5: (
        (0.34743924137303706, 0.34743924137303706, 0.35861669709397537, 0.35861669709397537, 0.35938679076890145, 0.35938679076890145),
        (0.3556427799449451, 0.3556427799449451, 0.36465346797562526, 0.36465346797562526, 0.3653456909142774, 0.3653456909142774),
        (0.3562676392573416, 0.3562676392573416, 0.36510897052380975, 0.36510897052380975, 0.3657953866996696, 0.3657953866996696),
        (0.3562685577132466, 0.3562685577132466, 0.3651095158876182, 0.3651095158876182, 0.3657959245989876, 0.3657959245989876),
        (0.35626857459149175, 0.35626857459149175, 0.3651095257638013, 0.3651095257638013, 0.36579593433935154, 0.36579593433935154),
        (0.3562685746003502, 0.3562685746003502, 0.36510952576801814, 0.36510952576801814, 0.36579593434350666, 0.36579593434350666),
    ),
    THETA_MAX: (
        (0.39112956366935536, 0.39112956366935536, 0.39999808359145717, 0.39999808359145717, 0.4003961125475136, 0.4003961125475136),
        (0.40139144040998664, 0.40139144040998664, 0.4079996670852164, 0.4079996670852164, 0.40833623591140844, 0.40833623591140844),
        (0.4021917474536938, 0.4021917474536938, 0.40862018738121175, 0.40862018738121175, 0.40895213572640543, 0.40895213572640543),
        (0.40219318529179016, 0.40219318529179016, 0.4086211325024076, 0.4086211325024076, 0.4089530723761152, 0.4089530723761152),
        (0.40219321213763326, 0.40219321213763326, 0.4086211499160274, 0.4086211499160274, 0.40895308963159205, 0.40895308963159205),
        (0.4021932121548597, 0.4021932121548597, 0.4086211499254859, 0.4086211499254859, 0.4089530896409507, 0.4089530896409507),
    ),
}


def decode(objective, b, r):
    """Q's coefficients for the odd-symmetric weights b, and the Q form's pieces at R."""
    q = np.asarray(b, dtype=float) @ objective.basis
    q[0] = 1.0
    return q, hankel_pieces(objective.basis.shape[1], float(r))


class TestSearchSpace:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SearchSpace(0, 1, (0.5, 2.5), 0.5)
        with pytest.raises(ConfigError):
            SearchSpace(1, 1, (2.5, 0.5), 0.5)
        with pytest.raises(ConfigError):
            SearchSpace(1, 1, (-1.0, 2.0), 0.5)
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
        space = SearchSpace(2, 2, (0.5, 2.5), 0.5)
        a = optimize_kappa(space)
        b = optimize_kappa(space)
        assert a == b

    def test_feasibility_of_report(self):
        # (4,4) at theta=0.45 once reported P(1) = 1 - 2.2e-16
        for space in (
            SearchSpace(3, 2, (0.5, 2.5), 0.5),
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
        space = SearchSpace(1, 1, (0.5, 2.5), 0.5)
        report = optimize_kappa(space)
        recomputed = kappa_lower_bound(
            c_constant_exact(report.best_params), report.best_params.r_shift
        )
        assert report.best_kappa == recomputed

    def test_never_below_baseline(self, monkeypatch):
        # R = 1.3, clamped into the range, is always evaluated from Q = 1 - x,
        # so the report is never below P = x, Q = 1 - x there
        evaluated = []
        kappa = _Objective.kappa
        monkeypatch.setattr(_Objective, "kappa", lambda objective, r: evaluated.append(r) or kappa(objective, r))
        for r_range in ((0.5, 2.5), (1.5, 2.5), (0.5, 1.0)):
            r = min(max(1.3, r_range[0]), r_range[1])
            baseline = LevinsonParams(Polynomial((0.0, 1.0)), Polynomial((1.0, -1.0)), r, 0.5)
            evaluated.clear()
            report = optimize_kappa(SearchSpace(1, 1, r_range, 0.5))
            assert r in evaluated
            assert report.best_kappa >= kappa_lower_bound(c_constant_exact(baseline), r) - 1e-12

    def test_monotone_dominance_in_degree(self):
        small = optimize_kappa(SearchSpace(1, 1, (0.5, 2.5), 0.5))
        large = optimize_kappa(SearchSpace(2, 2, (0.5, 2.5), 0.5))
        assert large.best_kappa >= small.best_kappa - 1e-6

    @pytest.mark.parametrize("theta", [0.5, THETA_MAX])
    def test_not_below_the_parent_search(self, theta):
        # at every degree pair the table holds, within rounding of kappa
        for p_degree in range(1, 7):
            for q_degree in range(1, 7):
                report = optimize_kappa(SearchSpace(p_degree, q_degree, (0.5, 2.5), theta))
                assert report.best_kappa >= PARENT_KAPPA[theta][p_degree - 1][q_degree - 1] - 1e-12

    def test_baseline_embedding_decodes_exactly(self):
        # the sweeps start from the baseline's Q = 1 - x, whose solved P is at
        # least as good as P = x
        space = SearchSpace(3, 3, (0.5, 2.5), 0.5)
        objective = _Objective(space)
        assert Polynomial(objective.start).coefficients == (1.0, -1.0)
        y, c = objective.solve(objective.start, *hankel_pieces(objective.start.size, 1.3))
        params = objective.params(objective.start, y, 1.3)
        assert params.q_poly.coefficients == (1.0, -1.0)
        assert c == pytest.approx(c_constant_exact(params), rel=1e-13)
        assert c <= c_constant_exact(LevinsonParams(Polynomial((0.0, 1.0)), params.q_poly, 1.3, 0.5))
        assert objective.kappa(1.3) >= kappa_lower_bound(c, 1.3)

    def test_solved_p_is_the_constrained_minimum(self, rng):
        # perturbing the solved P along P(0)=0, P(1)=1 never lowers c
        space = SearchSpace(4, 3, (0.5, 2.5), 0.5)
        objective = _Objective(space)
        q, pieces = decode(objective, [0.4, 0.2], 1.1)
        y, c = objective.solve(q, *pieces)
        params = objective.params(q, y, 1.1)
        p_poly, q_poly, r = params.p_poly, params.q_poly, params.r_shift
        for _ in range(20):
            bump = rng.uniform(-0.1, 0.1, 3)
            coeffs = np.array(p_poly.coefficients)
            coeffs[2:] += bump
            coeffs[1] -= bump.sum()
            other = LevinsonParams(Polynomial(coeffs), q_poly, r, 0.5)
            assert c_constant_exact(other) >= c - 1e-12

    @pytest.mark.parametrize("theta", [0.5, THETA_MAX])
    def test_solved_q_is_the_constrained_minimum(self, rng, theta):
        # for a fixed P, perturbing the solved Q's odd-symmetric weights never
        # lowers c_constant_exact
        for p_degree, q_degree in ((1, 1), (3, 3), (4, 6)):
            space = SearchSpace(p_degree, q_degree, (0.5, 2.5), theta)
            objective = _Objective(space)
            r = float(rng.uniform(0.5, 2.5))
            _, pieces = decode(objective, rng.uniform(-1.0, 1.5, space.q_terms), r)
            y = rng.uniform(0.1, 1.0, p_degree)
            p_poly = Polynomial((0.0, *(y / y.sum())))
            q = objective.solve_q(y, *pieces)
            best = c_constant_exact(LevinsonParams(p_poly, Polynomial(q), r, theta))
            for _ in range(10):
                other = q + rng.uniform(-0.05, 0.05, space.q_terms) @ objective.basis
                assert c_constant_exact(LevinsonParams(p_poly, Polynomial(other), r, theta)) >= best - 1e-12

    def test_sweeps_never_raise_c(self, rng):
        # each solve is exact, so c falls from sweep to sweep, to rounding: the
        # Hankel form of a degree-5 Q evaluates c to about 1e-13
        for p_degree, q_degree in ((2, 1), (3, 5), (6, 6)):
            space = SearchSpace(p_degree, q_degree, (0.5, 2.5), THETA_MAX)
            objective = _Objective(space)
            pieces = hankel_pieces(objective.start.size, float(rng.uniform(0.5, 2.5)))
            y, c = objective.solve(objective.start, *pieces)
            for _ in range(12):
                y, c_next = objective.solve(objective.solve_q(y, *pieces), *pieces)
                assert c_next <= c * (1.0 + 1e-12)
                c = c_next

    def test_solved_p_sums_to_one_exactly(self, rng):
        # without the 2^-40 grid, 1 - sum(higher p) misses P(1) = 1 by an ulp
        # for about one random (Q, R) in twelve
        for p_degree in range(2, 7):
            space = SearchSpace(p_degree, 5, (0.5, 2.5), 0.5)
            objective = _Objective(space)
            for _ in range(60):
                r = float(rng.uniform(0.5, 2.5))
                q, pieces = decode(objective, rng.uniform(-1.0, 1.5, space.q_terms), r)
                p_poly = objective.params(q, objective.solve(q, *pieces)[0], r).p_poly
                assert p_poly.coefficients[0] == 0.0
                assert math.fsum(p_poly.coefficients) == 1.0

    def test_decoded_q_is_admissible(self, rng):
        # the solved Q: Q(0) = 1 exactly and Q(x) + Q(1-x) constant, within deg Q <= q_degree
        x = np.linspace(0.0, 1.0, 11)
        for q_degree in range(1, 7):
            space = SearchSpace(3, q_degree, (0.5, 2.5), 0.5)
            objective = _Objective(space)
            pieces = hankel_pieces(objective.start.size, float(rng.uniform(0.5, 2.5)))
            q_poly = Polynomial(objective.solve_q(rng.uniform(0.1, 1.0, 3), *pieces))
            assert q_poly.coefficients[0] == 1.0
            assert q_poly.degree <= q_degree
            total = q_poly(x) + q_poly(1.0 - x)
            assert np.ptp(total) < 1e-12

    def test_objective_finite_for_every_in_range_r(self):
        # the squared functional gives c > 1, so every in-range R has a kappa
        for p_degree, q_degree in ((1, 1), (3, 3), (6, 6)):
            objective = _Objective(SearchSpace(p_degree, q_degree, (0.5, 2.5), 0.5))
            for r in np.linspace(0.5, 2.5, 41):
                assert math.isfinite(objective.kappa(float(r)))
                assert objective.found[float(r)][3]

    @pytest.mark.parametrize(
        "theta, degrees, kappa",
        [
            (0.5, (1, 1), 0.347439),  # Levinson's 0.3474
            (0.5, (3, 3), 0.365109),
            (THETA_MAX, (3, 3), 0.408620),  # Conrey's 0.4088 lies between these two
            (THETA_MAX, (4, 5), 0.408953),
            (THETA_MAX, (2, 1), 0.401391),  # Conrey's simple-zero 0.4013
        ],
    )
    def test_pinned_optima(self, theta, degrees, kappa):
        report = optimize_kappa(SearchSpace(*degrees, (0.5, 2.5), theta))
        assert report.best_kappa == pytest.approx(kappa, abs=1e-5)

    @pytest.mark.parametrize("theta", [0.5, THETA_MAX])
    def test_closed_form_c_matches_solved_p(self, rng, theta):
        # the solve's 1 + (1/sum y + beta)/theta and the exact c of the solved
        # (rounded) P are one number
        for p_degree in range(1, 7):
            for q_degree in range(1, 7):
                space = SearchSpace(p_degree, q_degree, (0.5, 2.5), theta)
                objective = _Objective(space)
                r = float(rng.uniform(0.5, 2.5))
                q, pieces = decode(objective, rng.uniform(-1.0, 1.5, space.q_terms), r)
                y, solved = objective.solve(q, *pieces)
                exact = c_constant_exact(objective.params(q, y, r))
                assert exact == pytest.approx(solved, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.5, THETA_MAX])
    def test_default_runs_converge(self, theta):
        # the benchmark's degrees: every R's sweeps stop falling well inside
        # MAX_SWEEPS
        for degree in (1, 2, 3, 4):
            space = SearchSpace(degree, degree, (0.5, 2.5), theta)
            assert optimize_kappa(space).converged is True

    def test_sweep_cap_is_reported(self, monkeypatch):
        # (3,3) needs more than one sweep at every R
        monkeypatch.setattr(optimizer_module, "MAX_SWEEPS", 1)
        assert optimize_kappa(SearchSpace(3, 3, (0.5, 2.5), 0.5)).converged is False

    def test_evaluation_budget_sane(self):
        report = optimize_kappa(SearchSpace(1, 1, (0.5, 2.5), 0.5))
        assert report.evaluations < 1000
        assert math.isfinite(report.best_kappa)
