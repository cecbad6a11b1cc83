"""Derivative-free maximization of the kappa lower bound over polynomial
coefficients and the shift R, at fixed theta.

Constraints are enforced by parametrization: the free vector is
(p_2..p_d, q_1..q_d, R) with p_1 = 1 - sum of the higher p's, so P(0)=0,
P(1)=1 and Q(0)=1 hold exactly for every candidate.  The simplex descent
is deterministic given the seed; restart 0 always embeds the baseline
point so enlarging the space can never lose ground.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .levinson import LevinsonParams, c_constant_exact, kappa_lower_bound
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
        if not 0.0 < self.theta <= 0.5:
            raise ConfigError("theta must lie in (0, 1/2]")
        if not 1 <= self.restarts <= 64:
            raise ConfigError("restarts must lie in 1..64")

    @property
    def dimension(self) -> int:
        return (self.p_degree - 1) + self.q_degree + 1


@dataclass(frozen=True)
class OptimizationReport:
    best_params: LevinsonParams
    best_kappa: float
    evaluations: int
    restart_trace: tuple[tuple[int, float], ...]


def _decode(vec: np.ndarray, space: SearchSpace) -> LevinsonParams | None:
    # free P coefficients on a 2^-40 grid: below 2^12 in size, their sum and
    # p_1 = 1 - sum are then exact, so P(1) = 1 holds in floating point too
    p_free = np.round(vec[: space.p_degree - 1] * 2.0**40) / 2.0**40
    q_free = vec[space.p_degree - 1 : -1]
    r = float(vec[-1])
    r_lo, r_hi = space.r_range
    if not (r_lo <= r <= r_hi):
        return None
    p_coeffs = (0.0, 1.0 - float(np.sum(p_free)), *p_free)
    q_coeffs = (1.0, *q_free)
    return LevinsonParams(Polynomial(p_coeffs), Polynomial(q_coeffs), r, space.theta)


class _Objective:
    def __init__(self, space: SearchSpace):
        self.space = space
        self.evaluations = 0

    def __call__(self, vec: np.ndarray) -> float:
        self.evaluations += 1
        params = _decode(vec, self.space)
        if params is None:
            return math.inf
        c = c_constant_exact(params)
        if c <= 1.0:
            # the linear functional can be driven through c=1, where the
            # bound formula stops meaning anything; treat as infeasible
            return math.inf
        return -kappa_lower_bound(c, params.r_shift)


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
    """P=x, Q=1-x, R=1.3 written in the free-coefficient parametrization,
    with R clamped into the search interval."""
    vec = np.zeros(space.dimension)
    vec[space.p_degree - 1] = -1.0  # q_1
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
            start = np.concatenate(
                [
                    rng.uniform(-1.5, 1.5, space.p_degree - 1),
                    rng.uniform(-2.0, 1.0, space.q_degree),
                    [rng.uniform(r_lo, r_hi)],
                ]
            )
        vec, val = _nelder_mead(objective, start, scale=0.5)
        trace.append((restart, -val if math.isfinite(val) else math.nan))
        if val < best_val:
            best_vec, best_val = vec, val
    params = _decode(best_vec, space)
    # report kappa recomputed from the exact pipeline, not the cached value
    kappa = kappa_lower_bound(c_constant_exact(params), params.r_shift)
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
        params = LevinsonParams(p_poly, q_poly, r, theta)
        c = c_constant_exact(params)
        kappa = kappa_lower_bound(c, r) if c >= 1.0 else math.nan
        out.append((r, kappa))
    return out
