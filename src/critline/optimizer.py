"""Maximization of the kappa lower bound over the shaping polynomials and
the shift R, at fixed theta.

P = sum p_i x^i (i <= p_degree) and Q = 1 + sum b_j ((1-2x)^{2j+1} - 1)
(j < ceil(q_degree/2)): P(0) = 0, Q(0) = 1 and Q(x) + Q(1-x) is constant.
Their values on levinson's Gauss-Legendre nodes are built once per space;
c_forms turns Q's into three small forms in Q's coordinates (1, b) per R.
At fixed R, c is a quadratic form in P for fixed Q and in Q for fixed P,
so each is solved exactly: Q by one small linear solve, P in the common
eigenbasis of P's two Gram matrices.  They alternate until c stops falling,
from Q = 1 - x at the first R and from the nearest solved R's Q after it.
kappa at the best (P, Q) is then a function of R alone, taken on a fixed
grid and refined by golden section around the best node.  R = 1.3, clamped
into the range, is evaluated first, so the result is never below P = x,
Q = 1 - x there.  Nothing is random.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .levinson import (
    NODES, THETA_MAX, WEIGHTS, LevinsonParams, Polynomial, c_constant_exact, c_forms, kappa_lower_bound)

# largest R searched: the weights w e^{2Rx} of the forms stay below e^600,
# far inside the double range, which e^{2Rx} leaves near R = 355
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
    """The best (P, Q) and kappa at each R, from node values built once per space."""

    def __init__(self, space: SearchSpace):
        self.space = space
        self.evaluations = 0
        self.basis = _q_basis(space.q_terms)  # b @ basis: Q's monomials, for the report
        self.start = 0.5 * np.eye(space.q_terms)[0]  # Q = 1 - x, the baseline's
        k = np.arange(1.0, space.p_degree + 1.0)[:, None]  # P(0) = 0: int x^i x^j, int (x^i)'(x^j)'
        self.gram = np.array([v @ (WEIGHTS * v).T for v in (NODES**k, k * NODES ** (k - 1.0))])
        # the pair's common eigenbasis: M' A M = I and M' B M = diag(lambda), with g = M' 1
        lower_inv = np.linalg.inv(np.linalg.cholesky(self.gram[0]))
        self.eigenvalues, vectors = np.linalg.eigh(lower_inv @ self.gram[1] @ lower_inv.T)
        self.eigenbasis = lower_inv.T @ vectors
        self.ones_in_basis = self.eigenbasis.sum(axis=0)
        odd, line = 2.0 * np.arange(space.q_terms)[:, None] + 1.0, 1.0 - 2.0 * NODES
        self.q_values = np.vstack([np.ones_like(NODES), line**odd - 1.0])  # Q's coordinates (1, b)
        self.q_slopes = np.vstack([np.zeros_like(NODES), -2.0 * odd * line ** (odd - 1.0)])
        self.found: dict[float, tuple] = {}  # R -> (kappa, b, y, converged)

    def solve(self, b: np.ndarray, forms: np.ndarray) -> tuple[np.ndarray, float]:
        """(y, minimal c) for Q's weights b, with the c_forms of R.

        With P(1) = 1, int P P' = 1/2, so c - 1 is (p'(alpha A + gamma B)p
        + beta) / theta for the forms (alpha, beta, gamma) at (1, b) and the
        Gram matrices (A, B): the best P is y / sum y, y = (alpha A + gamma
        B)^{-1} 1, and the minimal c is 1 + (1/sum y + beta) / theta.  In
        the pair's eigenbasis M, y = M (g / (alpha + gamma lambda)) and
        sum y = sum g^2 / (alpha + gamma lambda), with no linear solve.
        """
        u = np.concatenate(([1.0], b))
        alpha, beta, gamma = forms @ u @ u
        scaled = self.ones_in_basis / (alpha + gamma * self.eigenvalues)
        return self.eigenbasis @ scaled, 1.0 + (1.0 / float(self.ones_in_basis @ scaled) + beta) / self.space.theta

    def solve_q(self, y: np.ndarray, forms: np.ndarray) -> np.ndarray:
        """The best admissible Q's weights b for P = y / sum y, with the c_forms of R.

        c - 1 = u K u / theta over u = (1, b), with K = (int P^2) FF + FQ
        + (int P'^2) QQ; its minimum is the solution of K_bb b = -K_b1.
        """
        p = y / y.sum()
        pp, pdpd = self.gram @ p @ p
        form = pp * forms[0] + forms[1] + pdpd * forms[2]
        return np.linalg.solve(form[1:, 1:], -form[1:, 0])

    def kappa(self, r: float) -> float:
        """kappa at the best (P, Q) for R: P and Q solves alternate until c
        stops falling, from the Q of the nearest R already solved, or from
        Q = 1 - x at the first."""
        if r not in self.found:
            forms = c_forms(self.q_values, self.q_slopes, r, self.space.theta)
            b = self.found[min(self.found, key=lambda known: abs(known - r))][1] if self.found else self.start
            y, c = self.solve(b, forms)
            converged = False
            for _ in range(MAX_SWEEPS):
                self.evaluations += 1
                b_next = self.solve_q(y, forms)
                y_next, c_next = self.solve(b_next, forms)
                if not c_next < c * (1.0 - SWEEP_TOL):
                    converged = True
                    break
                b, y, c = b_next, y_next, c_next
            self.found[r] = (kappa_lower_bound(c, r), b, y, converged)
        return self.found[r][0]

    def params(self, b: np.ndarray, y: np.ndarray, r: float) -> LevinsonParams:
        """(P, Q, R) for Q's weights b and the solved y, with P(1) = 1 and Q(0) = 1 exact."""
        q = b @ self.basis
        q[0] = 1.0
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
    _, b, y, _ = objective.found[r]
    params = objective.params(b, y, r)
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
