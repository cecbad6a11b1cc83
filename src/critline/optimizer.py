"""Maximization of the kappa lower bound over the shaping polynomials and
the shift R, at fixed theta.

Q is searched over Q = 1 + sum b_j ((1-2x)^{2j-1} - 1), j <= ceil(q_degree/2):
Q(0) = 1 exactly and Q(x) + Q(1-x) is constant.  At fixed R, c is a
quadratic form in P for fixed Q and in Q for fixed P, so one small linear
solve gives each exactly; from Q = 1 - x they alternate until c stops
falling.  kappa at the best (P, Q) is then a function of R alone, taken on a
fixed grid and refined by golden section around the best node.  R = 1.3,
clamped into the range, is always evaluated, so the result is never below
P = x, Q = 1 - x there.  Nothing is random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .levinson import THETA_MAX, LevinsonParams, c_constant_exact, kappa_lower_bound
from .levinson import gram_pieces, hankel_pieces, hankel_weights
from .mollifier import Polynomial

# largest R searched: e^{2R} stays below 1e261, so the Q weights and the P
# solve stay well inside the double range (e^{2R} itself overflows past 354.9)
R_SEARCH_MAX = 300.0
R_GRID = 17  # nodes of the fixed R grid
R_TOL = 1e-8  # width at which golden section stops
SWEEP_TOL = 1e-15  # relative fall in c below which the sweeps stop
MAX_SWEEPS = 100  # an R whose sweeps reach this count is reported as not converged


@dataclass(frozen=True)
class SearchSpace:
    p_degree: int
    q_degree: int
    r_range: tuple[float, float]
    theta: float

    def __post_init__(self):
        if self.p_degree < 1 or self.q_degree < 1:
            raise ConfigError("polynomial degrees must be at least 1")
        if self.p_degree > 6 or self.q_degree > 6:
            raise ConfigError("degrees above 6 are not supported")
        r_lo, r_hi = self.r_range
        if not (0.0 < r_lo <= r_hi <= R_SEARCH_MAX):
            raise ConfigError(f"r_range must satisfy 0 < r_min <= r_max <= {R_SEARCH_MAX:g}")
        if not 0.0 < self.theta <= THETA_MAX:
            raise ConfigError("theta must lie in (0, 4/7]")

    @property
    def q_terms(self) -> int:
        return (self.q_degree + 1) // 2


@dataclass(frozen=True)
class OptimizationReport:
    best_params: LevinsonParams
    best_kappa: float
    evaluations: int  # P/Q sweeps over all R
    converged: bool  # every R's sweeps stopped falling within MAX_SWEEPS


def _q_basis(q_terms: int) -> np.ndarray:
    """Row j: (1-2x)^{2j+1} - 1, padded to 2 q_terms; no constant term, so Q(0) = 1 exactly."""
    basis = np.zeros((q_terms, 2 * q_terms))
    for j in range(q_terms):
        n = 2 * j + 1
        basis[j, 1 : n + 1] = [math.comb(n, k) * (-2.0) ** k for k in range(1, n + 1)]
    return basis


class _Objective:
    """The best (P, Q) and kappa at each R, from arrays built once per space."""

    def __init__(self, space: SearchSpace):
        self.space = space
        self.evaluations = 0
        self.basis = _q_basis(space.q_terms)
        self.start = np.zeros(self.basis.shape[1])
        self.start[:2] = 1.0, -1.0  # Q = 1 - x, the baseline's
        self.gram = np.array([g[1:, 1:] for g in gram_pieces(space.p_degree)])  # P(0) = 0: no constant term
        self.found: dict[float, tuple] = {}  # R -> (kappa, q, y, converged)

    def solve(self, q: np.ndarray, hankel: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, float]:
        """(y, minimal c) for Q's coefficients q, with hankel_pieces' (H, M) at R.

        With P = sum p_i x^i and P(1) = 1, int P P' = 1/2, so c - 1 is
        (p'(alpha A + gamma B)p + beta) / theta on gram_pieces' P(0) = 0 block;
        the best P is y / sum y, y = (alpha A + gamma B)^{-1} 1, and the
        minimal c is 1 + (1/sum y + beta) / theta.
        """
        alpha, beta, gamma = hankel_weights(q, hankel, m, self.space.theta)
        gram_a, gram_b = self.gram
        y = np.linalg.solve(alpha * gram_a + gamma * gram_b, np.ones(len(gram_a)))
        return y, 1.0 + (1.0 / float(y.sum()) + beta) / self.space.theta

    def solve_q(self, y: np.ndarray, hankel: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The best admissible Q's coefficients for P = y / sum y.

        c - 1 = q K q / theta with K = theta^2 (int P^2) M H M^T
        + theta sym(M H) + (int P'^2) H; over q = e_0 + b @ basis its minimum
        is the solution of (basis K basis^T) b = -basis K e_0.
        """
        theta = self.space.theta
        p = y / y.sum()
        pp, pdpd = self.gram @ p @ p
        mh = m @ hankel
        form = self.basis @ (theta**2 * pp * mh @ m.T + 0.5 * theta * (mh + mh.T) + pdpd * hankel)
        q = np.linalg.solve(form @ self.basis.T, -form[:, 0]) @ self.basis
        q[0] = 1.0
        return q

    def kappa(self, r: float) -> float:
        """kappa at the best (P, Q) for R: P and Q solves alternate from
        Q = 1 - x until c stops falling."""
        if r not in self.found:
            pieces = hankel_pieces(self.basis.shape[1], r)
            q = self.start
            y, c = self.solve(q, *pieces)
            converged = False
            for _ in range(MAX_SWEEPS):
                self.evaluations += 1
                q_next = self.solve_q(y, *pieces)
                y_next, c_next = self.solve(q_next, *pieces)
                if not c_next < c * (1.0 - SWEEP_TOL):
                    converged = True
                    break
                q, y, c = q_next, y_next, c_next
            self.found[r] = (kappa_lower_bound(c, r), q, y, converged)
        return self.found[r][0]

    def params(self, q: np.ndarray, y: np.ndarray, r: float) -> LevinsonParams:
        """(P, Q, R) for Q's coefficients q and the solved y, with P(1) = 1 exact."""
        p = y / y.sum()
        # higher coefficients on a 2^-40 grid: below 2^12 in size, their sum and
        # p_1 = 1 - sum are then exact, so P(1) = 1 holds in floating point too
        p[1:] = np.round(p[1:] * 2.0**40) / 2.0**40
        p[0] = 1.0 - float(np.sum(p[1:]))
        return LevinsonParams(Polynomial((0.0, *p)), Polynomial(q), r, self.space.theta)


def optimize_kappa(space: SearchSpace) -> OptimizationReport:
    """Best kappa bound over the space: the best R of a fixed grid, refined
    by golden section on the bracket of its two neighbours."""
    objective = _Objective(space)
    r_lo, r_hi = space.r_range
    objective.kappa(min(max(1.3, r_lo), r_hi))  # the baseline's R
    grid = np.linspace(r_lo, r_hi, R_GRID)
    best = max(range(R_GRID), key=lambda i: objective.kappa(float(grid[i])))
    lo, hi = float(grid[max(best - 1, 0)]), float(grid[min(best + 1, R_GRID - 1)])
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    while hi - lo > R_TOL:
        if objective.kappa(a) >= objective.kappa(b):
            hi, b = b, a
            a = hi - shrink * (hi - lo)
        else:
            lo, a = a, b
            b = lo + shrink * (hi - lo)
    r = max(objective.found, key=objective.kappa)
    _, q, y, _ = objective.found[r]
    params = objective.params(q, y, r)
    # report kappa recomputed from the exact pipeline, not the cached value
    kappa = kappa_lower_bound(c_constant_exact(params), r)
    converged = all(found[3] for found in objective.found.values())
    return OptimizationReport(params, kappa, objective.evaluations, converged)


def grid_scan_r(
    p_poly: Polynomial, q_poly: Polynomial, theta: float, r_grid
) -> list[tuple[float, float]]:
    """kappa at each grid R for fixed polynomials, sorted by R."""
    r_grid = sorted(float(r) for r in r_grid)
    if not r_grid or r_grid[0] <= 0.0:
        raise ConfigError("R grid must be nonempty and positive")
    out = []
    for r in r_grid:
        c = c_constant_exact(LevinsonParams(p_poly, q_poly, r, theta))
        out.append((r, kappa_lower_bound(c, r)))
    return out
