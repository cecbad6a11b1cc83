"""Direct numerical verification of the smoothed mollified second moment.

The integral of w(t) |V psi(sigma0 + i t)|^2 over a smooth plateau
weight is compared against c(P,Q,R,theta) times the weight mass.  V zeta
and psi are each one Dirichlet series summed by the zeta grid kernel, V's
with coefficients Q(log n / L) and zeta's Euler-Maclaurin tail, which is
the only path fast enough for the ~1e5 grid points involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .levinson import LevinsonParams, c_constant_exact
from .mollifier import MollifierSpec, mollifier_line, v_line
from .zeta import GRID_MAX, _em_cut, _em_tail_bound


@dataclass(frozen=True)
class SmoothWeight:
    """The paper's C-infinity plateau weight at scale T: 1 on (T/2, T),
    exp(-1/x) ramps of width delta = T / log T on both sides, 0 outside
    the support.  T must exceed 1, and the support must lie in [T/4, 2T],
    which refuses every T below e^4 (about 54.6)."""

    t_scale: float

    def __post_init__(self):
        if not self.t_scale > 1.0:  # refuses nan too
            raise DomainError("t_scale must exceed 1")
        lo, hi = self.support
        if not (lo >= self.t_scale / 4.0 and hi <= 2.0 * self.t_scale):
            raise DomainError("support must stay inside [T/4, 2T]")

    @property
    def delta(self) -> float:
        return self.t_scale / math.log(self.t_scale)

    @property
    def plateau(self) -> tuple[float, float]:
        return (self.t_scale / 2.0, self.t_scale)

    @property
    def support(self) -> tuple[float, float]:
        return (self.plateau[0] - self.delta, self.plateau[1] + self.delta)


def _ramp(x: np.ndarray, delta: float) -> np.ndarray:
    """Smooth 0-to-1 transition on [0, delta] with r(x) + r(delta-x) = 1."""
    x = np.asarray(x, dtype=float)
    f = np.where(x > 0.0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
    g = np.where(delta - x > 0.0, np.exp(-1.0 / np.maximum(delta - x, 1e-300)), 0.0)
    total = f + g
    return np.divide(f, total, out=np.zeros_like(f), where=total > 0.0)


def smooth_weight(t, spec: SmoothWeight):
    """w(t), the product of the rising and the falling ramp; accepts scalars or arrays."""
    t_arr = np.asarray(t, dtype=float)
    lo, hi = spec.plateau
    d = spec.delta
    flat = np.atleast_1d(t_arr)
    rise, fall = flat - (lo - d), (hi + d) - flat
    # each ramp is exactly 1 past its width and 0 at or below 0, so it is
    # evaluated only inside its width, where the other ramp is exactly 1
    out = ((rise > 0.0) & (fall > 0.0)).astype(float)
    for x in (rise, fall):
        inside = (x > 0.0) & (x < d)
        out[inside] = _ramp(x[inside], d)
    return float(out[0]) if np.ndim(t) == 0 else out


def w_hat_zero(spec: SmoothWeight) -> float:
    """Integral of w: plateau length + delta, since the ramp symmetry
    r(x) + r(delta - x) = 1 makes the two ramps together contribute delta."""
    return (spec.plateau[1] - spec.plateau[0]) + spec.delta


@dataclass(frozen=True)
class MomentReport:
    numeric_moment: float
    main_term: float
    ratio: float
    grid_points: int
    t_scale: float
    grid_step: float
    truncation_n: int  # the largest Euler-Maclaurin cut N of the zeta head sums
    tail_bound: float  # Backlund's bound on zeta's tail at sigma0, the top ordinate and N
    refinement_warning: bool = False


def _v_psi_squared(t: np.ndarray, params: LevinsonParams, spec: MollifierSpec) -> np.ndarray:
    """|V psi(sigma0 + i t)|^2 on a grid: V zeta and psi each one Dirichlet
    series on the grid kernel, V's with zeta's Euler-Maclaurin tail."""
    v = v_line(spec.sigma0, t, params.q_poly, spec.log_scale)
    psi = mollifier_line(spec.sigma0, t, spec)
    return np.abs(v * psi) ** 2


def mollified_moment_numeric(
    params: LevinsonParams, t_scale: float, grid_step: float = 0.0
) -> MomentReport:
    """Composite trapezoid quadrature of w |V psi|^2 against the main
    term c(P,Q,R,theta) * what(0).  A grid_step of 0 picks min(0.05,
    delta/20); a negative or non-finite step, or a grid past GRID_MAX
    points, is refused before the grid is built."""
    if t_scale > 2e4:
        raise DomainError("t_scale capped at 2e4 for desk-scale runtime")
    if not 0.0 <= grid_step < math.inf:  # refuses nan too
        raise DomainError("grid step must be finite and >= 0 (0 picks the default)")
    weight = SmoothWeight(t_scale)
    delta = weight.delta
    if grid_step == 0.0:
        grid_step = min(0.05, delta / 20.0)
    warning = grid_step > delta / 10.0
    lo, hi = weight.support
    if not (hi - lo) / grid_step <= GRID_MAX - 1:
        raise DomainError(f"a moment grid at step {grid_step:g} exceeds {GRID_MAX} points")
    n_pts = int(math.ceil((hi - lo) / grid_step)) + 1
    t = np.linspace(lo, hi, n_pts)
    spec = MollifierSpec(t_scale, params.theta, params.r_shift, params.p_poly)
    integrand = smooth_weight(t, weight) * _v_psi_squared(t, params, spec)
    # numpy's pairwise reduction keeps the sum deterministic
    step = t[1] - t[0]
    numeric = step * (np.sum(integrand) - 0.5 * (integrand[0] + integrand[-1]))
    main = c_constant_exact(params) * w_hat_zero(weight)
    return MomentReport(
        numeric_moment=float(numeric),
        main_term=float(main),
        ratio=float(numeric / main),
        grid_points=n_pts,
        t_scale=t_scale,
        grid_step=float(step),
        truncation_n=_em_cut(hi),
        tail_bound=_em_tail_bound(spec.sigma0, hi, _em_cut(hi)),
        refinement_warning=warning,
    )
