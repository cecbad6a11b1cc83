"""Maximization of the kappa lower bound over the shaping polynomials and
the shift R, at fixed theta.

The simplex searches only (b_1..b_k, R), with k = ceil(q_degree/2) and
Q = 1 + sum b_j ((1-2x)^{2j-1} - 1): Q(0) = 1 exactly and Q(x) + Q(1-x) is
constant.  For each (Q, R), c is a quadratic form in P, so the best P of
degree <= p_degree with P(0) = 0 and P(1) = 1 comes from one small linear
solve.  The descent is deterministic given the seed; restart 0 always
embeds the baseline point so enlarging the space can never lose ground.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .levinson import THETA_MAX, LevinsonParams, c_constant_exact, kappa_lower_bound, q_weights
from .mollifier import Polynomial


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
        if not (0.0 < r_lo <= r_hi):
            raise ConfigError("r_range must satisfy 0 < r_min <= r_max")
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


def _decode(vec: np.ndarray, space: SearchSpace) -> tuple[Polynomial, float] | None:
    r = float(vec[-1])
    r_lo, r_hi = space.r_range
    if not (r_lo <= r <= r_hi):
        return None
    q = np.zeros(2 * space.q_terms)
    q[0] = 1.0
    for j, b in enumerate(vec[:-1]):
        n = 2 * j + 1  # b ((1-2x)^n - 1): the constant terms cancel, so Q(0) = 1 exactly
        q[1 : n + 1] += [b * math.comb(n, k) * (-2.0) ** k for k in range(1, n + 1)]
    return Polynomial(q), r


def _solve_p(q_poly: Polynomial, r: float, theta: float, degree: int) -> tuple[Polynomial, float]:
    """The P of the given degree bound that minimizes c(P, Q, R, theta)
    under P(0) = 0 and P(1) = 1, and that minimal c.

    With P = sum p_i x^i and P(1) = 1, int P P' = 1/2, so c - 1 is
    (p'(alpha A + gamma B)p + beta) / theta on the Gram matrices
    A_ij = int x^{i+j} and B_ij = int ij x^{i+j-2}; the constrained
    minimizer is proportional to (alpha A + gamma B)^{-1} 1.
    """
    alpha, beta, gamma = q_weights(q_poly, r, theta)
    i = np.arange(1.0, degree + 1.0)
    gram = alpha / (i[:, None] + i + 1.0) + gamma * np.outer(i, i) / (i[:, None] + i - 1.0)
    y = np.linalg.solve(gram, np.ones(degree))
    p = y / y.sum()
    # higher coefficients on a 2^-40 grid: below 2^12 in size, their sum and
    # p_1 = 1 - sum are then exact, so P(1) = 1 holds in floating point too
    p[1:] = np.round(p[1:] * 2.0**40) / 2.0**40
    p[0] = 1.0 - float(np.sum(p[1:]))
    c = 1.0 + (float(p @ gram @ p) + beta) / theta
    return Polynomial((0.0, *p)), c


class _Objective:
    def __init__(self, space: SearchSpace):
        self.space = space
        self.evaluations = 0

    def __call__(self, vec: np.ndarray) -> float:
        self.evaluations += 1
        decoded = _decode(vec, self.space)
        if decoded is None:
            return math.inf
        q_poly, r = decoded
        _, c = _solve_p(q_poly, r, self.space.theta, self.space.p_degree)
        return -kappa_lower_bound(c, r)


def _nelder_mead(f, start: np.ndarray, scale: float, max_iter: int = 4000) -> tuple[np.ndarray, float]:
    """Simplex descent: reflection 1, expansion 2, contraction 0.5,
    shrink 0.5; stops when the simplex diameter drops below 1e-8."""
    n = start.size
    pts = [start.copy()]
    for i in range(n):
        p = start.copy()
        p[i] += scale if p[i] == 0.0 else 0.1 * scale * (1.0 + abs(p[i]))
        pts.append(p)
    vals = [f(p) for p in pts]
    for _ in range(max_iter):
        order = np.argsort(vals, kind="stable")
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        diam = max(np.max(np.abs(p - pts[0])) for p in pts[1:])
        if diam < 1e-8:
            break
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
                for i in range(1, n + 1):
                    pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
                    vals[i] = f(pts[i])
    order = np.argsort(vals, kind="stable")
    return pts[order[0]], vals[order[0]]


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
    for restart in range(space.restarts):
        if restart == 0:
            start = baseline_embedding(space)
        else:
            start = np.append(rng.uniform(-0.5, 1.5, space.q_terms), rng.uniform(r_lo, r_hi))
        vec, val = _nelder_mead(objective, start, scale=0.5)
        trace.append((restart, -val if math.isfinite(val) else math.nan))
        if val < best_val:
            best_vec, best_val = vec, val
    q_poly, r = _decode(best_vec, space)
    p_poly, _ = _solve_p(q_poly, r, space.theta, space.p_degree)
    params = LevinsonParams(p_poly, q_poly, r, space.theta)
    # report kappa recomputed from the exact pipeline, not the cached value
    kappa = kappa_lower_bound(c_constant_exact(params), r)
    return OptimizationReport(params, kappa, objective.evaluations, tuple(trace))


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
