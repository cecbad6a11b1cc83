"""Maximization of the kappa lower bound over the shaping polynomials and
the shift R, at fixed theta.

The simplex searches only (b_1..b_k, R), with k = ceil(q_degree/2) and
Q = 1 + sum b_j ((1-2x)^{2j-1} - 1): Q(0) = 1 exactly and Q(x) + Q(1-x) is
constant.  For each (Q, R), c is a quadratic form in P, so the best P of
degree <= p_degree with P(0) = 0 and P(1) = 1 comes from one small linear
solve, with the minimal c in closed form, on arrays built once per search
space.  The descent is deterministic given the seed; restart 0 always embeds
the baseline point so enlarging the space can never lose ground.  The report
counts the restarts that met the stopping rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .levinson import THETA_MAX, LevinsonParams, c_constant_exact, gram_pieces, hankel_weights, kappa_lower_bound
from .mollifier import Polynomial

# largest R searched: e^{2R} stays below 1e261, so the Q weights and the P
# solve stay well inside the double range (e^{2R} itself overflows past 354.9)
R_SEARCH_MAX = 300.0


@dataclass(frozen=True)
class SearchSpace:
    p_degree: int
    q_degree: int
    r_range: tuple[float, float]
    theta: float
    restarts: int = 8
    seed: int = 0

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
        if not 1 <= self.restarts <= 64:
            raise ConfigError("restarts must lie in 1..64")

    @property
    def q_terms(self) -> int:
        return (self.q_degree + 1) // 2


@dataclass(frozen=True)
class OptimizationReport:
    best_params: LevinsonParams
    best_kappa: float
    evaluations: int
    restart_trace: tuple[tuple[int, float], ...]
    converged: int  # restarts whose simplex shrank below the diameter tolerance


def _q_basis(q_terms: int) -> np.ndarray:
    """Row j: (1-2x)^{2j+1} - 1, padded to 2 q_terms; no constant term, so Q(0) = 1 exactly."""
    basis = np.zeros((q_terms, 2 * q_terms))
    for j in range(q_terms):
        n = 2 * j + 1
        basis[j, 1 : n + 1] = [math.comb(n, k) * (-2.0) ** k for k in range(1, n + 1)]
    return basis


class _Objective:
    """-kappa at (b, R) with the best P, from arrays built once per space."""

    def __init__(self, space: SearchSpace):
        self.space = space
        self.evaluations = 0
        self.basis = _q_basis(space.q_terms)
        size = self.basis.shape[1]
        self.deriv = np.diag(np.arange(1.0, size), -1)  # q @ deriv holds Q'
        self.index = np.add.outer(np.arange(size), np.arange(size))
        self.gram = [g[1:, 1:] for g in gram_pieces(space.p_degree)]  # P(0) = 0: no constant term

    def solve(self, vec: np.ndarray) -> tuple[np.ndarray, float, np.ndarray, float] | None:
        """(Q's coefficients, R, y, minimal c) at (b, R), or None for R out of range.

        With P = sum p_i x^i and P(1) = 1, int P P' = 1/2, so c - 1 is
        (p'(alpha A + gamma B)p + beta) / theta on gram_pieces' P(0) = 0 block;
        the best P is y / sum y, y = (alpha A + gamma B)^{-1} 1, and the
        minimal c is 1 + (1/sum y + beta) / theta.
        """
        r = float(vec[-1])
        if not self.space.r_range[0] <= r <= self.space.r_range[1]:
            return None
        q = vec[:-1] @ self.basis
        q[0] = 1.0
        alpha, beta, gamma = hankel_weights(q, q @ self.deriv, r, self.space.theta, self.index)
        gram_a, gram_b = self.gram
        y = np.linalg.solve(alpha * gram_a + gamma * gram_b, np.ones(len(gram_a)))
        return q, r, y, 1.0 + (1.0 / float(y.sum()) + beta) / self.space.theta

    def __call__(self, vec: np.ndarray) -> float:
        self.evaluations += 1
        solved = self.solve(vec)
        return math.inf if solved is None else -kappa_lower_bound(solved[3], solved[1])

    def params(self, vec: np.ndarray) -> LevinsonParams:
        """The best (P, Q, R) at an in-range (b, R), with P(1) = 1 exact."""
        q, r, y, _ = self.solve(vec)
        p = y / y.sum()
        # higher coefficients on a 2^-40 grid: below 2^12 in size, their sum and
        # p_1 = 1 - sum are then exact, so P(1) = 1 holds in floating point too
        p[1:] = np.round(p[1:] * 2.0**40) / 2.0**40
        p[0] = 1.0 - float(np.sum(p[1:]))
        return LevinsonParams(Polynomial((0.0, *p)), Polynomial(q), r, self.space.theta)


def _nelder_mead(f, start: np.ndarray, scale: float, max_iter=4000) -> tuple[np.ndarray, float, bool]:
    """Simplex descent on one (n+1, n) array: reflection 1, expansion 2,
    contraction 0.5, shrink 0.5; True once the diameter drops below 1e-8."""
    n = start.size
    pts = np.tile(start, (n + 1, 1))
    for i in range(n):
        pts[i + 1, i] += scale if start[i] == 0.0 else 0.1 * scale * (1.0 + abs(start[i]))
    vals = np.array([f(p) for p in pts])
    for _ in range(max_iter):
        order = np.argsort(vals, kind="stable")
        pts, vals = pts[order], vals[order]
        if np.max(np.abs(pts[1:] - pts[0])) < 1e-8:
            return pts[0], float(vals[0]), True
        centroid = np.mean(pts[:-1], axis=0)
        refl = centroid + (centroid - pts[-1])
        f_refl = f(refl)
        if f_refl < vals[0]:
            expd = centroid + 2.0 * (centroid - pts[-1])
            f_expd = f(expd)
            if f_expd < f_refl:
                pts[-1], vals[-1] = expd, f_expd
            else:
                pts[-1], vals[-1] = refl, f_refl
        elif f_refl < vals[-2]:
            pts[-1], vals[-1] = refl, f_refl
        else:
            contr = centroid + 0.5 * (pts[-1] - centroid)
            f_contr = f(contr)
            if f_contr < vals[-1]:
                pts[-1], vals[-1] = contr, f_contr
            else:
                pts[1:] = pts[0] + 0.5 * (pts[1:] - pts[0])
                vals[1:] = [f(p) for p in pts[1:]]
    best = int(np.argsort(vals, kind="stable")[0])
    return pts[best], float(vals[best]), False


def baseline_embedding(space: SearchSpace) -> np.ndarray:
    """Q=1-x (b_1 = 1/2) and R=1.3, with R clamped into the search
    interval; the solved P is at least as good as P=x."""
    vec = np.zeros(space.q_terms + 1)
    vec[0] = 0.5
    r_lo, r_hi = space.r_range
    vec[-1] = min(max(1.3, r_lo), r_hi)
    return vec


def optimize_kappa(space: SearchSpace) -> OptimizationReport:
    """Best kappa bound over the space; deterministic given the seed."""
    objective = _Objective(space)
    rng = np.random.default_rng(space.seed)
    r_lo, r_hi = space.r_range
    best_vec = None
    best_val = math.inf
    trace = []
    converged = 0
    for restart in range(space.restarts):
        if restart == 0:
            start = baseline_embedding(space)
        else:
            start = np.append(rng.uniform(-0.5, 1.5, space.q_terms), rng.uniform(r_lo, r_hi))
        vec, val, done = _nelder_mead(objective, start, scale=0.5)
        converged += done
        trace.append((restart, -val if math.isfinite(val) else math.nan))
        if val < best_val:
            best_vec, best_val = vec, val
    params = objective.params(best_vec)
    # report kappa recomputed from the exact pipeline, not the cached value
    kappa = kappa_lower_bound(c_constant_exact(params), params.r_shift)
    return OptimizationReport(params, kappa, objective.evaluations, tuple(trace), converged)


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
