"""The mollified-moment constant c(P,Q,R,theta), the kappa lower bound,
its shifted two-variable generalization, the registry of published
polynomial tuples, and Polynomial, the type of P and Q; numpy alone.

c is Conrey's functional, with the inner x-derivative squared.  Every
integral over [0,1] in c, and the v-integral of the shifted constant, is
one sum over the same 80-node Gauss-Legendre rule (NODES, WEIGHTS), with
the polynomials evaluated on the nodes; _gauss_legendre builds it, and the
quadrature oracle's rules, once each.  c_forms alone builds c's three
node forms in Q: c_constant_exact reads c from them at one Q, and the
optimizer's sweeps at every Q of its basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import AccuracyError, ConstraintError, DomainError, finite

# the range of Conrey's mean-value theorem (Conrey 1989)
THETA_MAX = 4.0 / 7.0
QUADRATURE_BOUND = 1e-8  # see c_constant_quadrature


@cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [0, 1], n even: nodes (1 + t)/2 at the
    roots t of P_n, by four Newton steps from Tricomi's initial roots t > 0,
    mirrored; weights 1/((1 - t^2) P_n'(t)^2), within 1.4e-14 of 40-digit
    ones for n = 80."""
    k = np.arange(1.0, n // 2 + 1.0)
    t = (1.0 - 1.0 / (8.0 * n**2) + 1.0 / (8.0 * n**3)) * np.cos(np.pi * (4.0 * k - 1.0) / (4.0 * n + 2.0))
    for step in range(5):  # the fifth takes P_n' at the final roots
        below, p = np.ones_like(t), t
        for j in range(1, n):  # Bonnet's recurrence
            below, p = p, ((2.0 * j + 1.0) * t * p - j * below) / (j + 1.0)
        slope = n * (t * p - below) / (t * t - 1.0)
        t = t - p / slope if step < 4 else t
    weights = 1.0 / ((1.0 - t * t) * slope**2)
    return 0.5 * (np.concatenate((-t, t[::-1])) + 1.0), np.concatenate((weights, weights[::-1]))


# the one rule on [0, 1] for c's integrals, exact for polynomials of degree below 160
NODES, WEIGHTS = _gauss_legendre(80)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending coefficients in canonical form."""

    coefficients: tuple[float, ...]

    def __init__(self, coefficients):
        coeffs = [float(c) for c in coefficients]
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0.0]
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, x):
        x = np.asarray(x) if np.ndim(x) else x
        acc = np.zeros(np.shape(x), dtype=np.result_type(x, float)) if np.ndim(x) else 0.0
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial(tuple(k * c for k, c in enumerate(self.coefficients) if k > 0))


@dataclass(frozen=True)
class LevinsonParams:
    p_poly: Polynomial
    q_poly: Polynomial
    r_shift: float
    theta: float

    def __post_init__(self):
        if abs(self.p_poly(0.0)) > 1e-12:
            raise ConstraintError("P(0)=0 violated")
        if abs(self.p_poly(1.0) - 1.0) > 1e-12:
            raise ConstraintError("P(1)=1 violated")
        if abs(self.q_poly(0.0) - 1.0) > 1e-12:
            raise ConstraintError("Q(0)=1 violated")
        if not self.r_shift > 0.0:
            raise ConstraintError("R must be positive")
        if not 0.0 < self.theta <= THETA_MAX:
            raise ConstraintError("theta must lie in (0, 4/7]")


def _p_integrals(p: Polynomial) -> tuple[float, float, float]:
    """int P^2, int P P' and int P'^2 over [0,1], from P and P' on the nodes."""
    values, slopes = p(NODES), p.derivative()(NODES)
    return WEIGHTS @ (values * values), WEIGHTS @ (values * slopes), WEIGHTS @ (slopes * slopes)


def _weight_shift(r: float) -> float:
    return max(0.0, 2.0 * r - 709.0)  # h: e^{2Rv - h} stays inside the double range up to v = 1


def c_forms(q_values: np.ndarray, q_slopes: np.ndarray, r: float, theta: float) -> np.ndarray:
    """Conrey's node forms (A, B, G), stacked over the rows of Q's node values and slopes, or at one 1-D row.

    The inner x-derivative at x=0, R theta P(u)Q(v) + P'(u)Q(v) + theta P(u)Q'(v),
    is P(u)F(v) + P'(u)Q(v) with F = theta (R Q + Q'); A, B and G are the node
    sums of w e^{2Rv - h} F F, F Q (symmetrized) and Q Q, h = max(0, 2R - 709).
    """
    f = theta * (r * q_values + q_slopes)
    weighted = WEIGHTS * np.exp(2.0 * r * NODES - _weight_shift(r))
    fq = f @ (weighted * q_values).T
    return np.array([f @ (weighted * f).T, 0.5 * (fq + fq.T), q_values @ (weighted * q_values).T])


def c_constant_exact(params: LevinsonParams) -> float:
    """c(P,Q,R,theta) = 1 + e^h (A int P^2 + 2 B int P P' + G int P'^2) / theta, Conrey's
    functional, from c_forms at the one row Q; h = 0 up to R = 354.5, and only a c
    past the double range is refused."""
    p, q, r, theta = params.p_poly, params.q_poly, params.r_shift, params.theta
    pp, ppd, pdpd = _p_integrals(p)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        a, b, g = c_forms(q(NODES), q.derivative()(NODES), r, theta)
        c = 1.0 + float(np.exp(_weight_shift(r))) * (float(pp * a + 2.0 * ppd * b + pdpd * g) / theta)
    return finite(c, f"c at R = {r}")


def c_constant_quadrature(params: LevinsonParams) -> float:
    """Quadrature oracle for the same double integral of the squared inner
    derivative: a tensor Gauss-Legendre rule, its 48-node value, with the
    gap to the 24-node value as the error estimate.  An estimate above
    QUADRATURE_BOUND = 1e-8 raises AccuracyError.

    The inner x-derivative is taken by a fourth-order five-point central
    difference; the second-order h=1e-6 stencil loses too much to
    rounding against the 1e-9 cross-path agreement this must support.
    """
    p, q, r, theta = params.p_poly, params.q_poly, params.r_shift, params.theta
    h = 1e-3

    def tensor_rule(nodes: int) -> float:
        x, w = _gauss_legendre(nodes)
        acc = np.zeros((nodes, nodes))
        for weight, offset in zip((1.0, -8.0, 8.0, -1.0), (-2.0 * h, -h, h, 2.0 * h)):
            acc += weight * math.exp(r * theta * offset) * np.outer(p(x + offset), q(x + theta * offset))
        return float(w @ (acc / (12.0 * h)) ** 2 @ (w * np.exp(2.0 * r * x)))

    value = tensor_rule(48)
    err = abs(value - tensor_rule(24))
    if not err <= QUADRATURE_BOUND:  # refuses a nan estimate too
        raise AccuracyError(f"quadrature error estimate {err:.3e} exceeds {QUADRATURE_BOUND}")
    return 1.0 + value / theta


def kappa_lower_bound(c_value: float, r_shift: float) -> float:
    """kappa >= 1 - log(c)/R."""
    if not 1.0 <= c_value < math.inf:  # refuses nan, and a c that overflowed
        raise DomainError(f"c must be finite and at least 1, got {c_value}")
    if r_shift <= 0.0:
        raise DomainError("R must be positive")
    return 1.0 - math.log(c_value) / r_shift


@dataclass(frozen=True)
class ShiftedParams:
    alpha: complex
    beta: complex
    m_length: float
    t_scale: float

    def __post_init__(self):
        if not (self.m_length >= 1.0 and self.t_scale > 1.0):  # refuses nan too, before log T
            raise DomainError("need M >= 1 and T > 1")
        log_t = math.log(self.t_scale)
        if not (abs(complex(self.alpha)) <= 10.0 / log_t and abs(complex(self.beta)) <= 10.0 / log_t):
            raise DomainError("shifts must stay within 10 / log T")


def shifted_c(shift: ShiftedParams, p_poly: Polynomial, theta: float) -> complex:
    """Two-variable shifted constant c(alpha, beta).

    The mixed derivative of M^{-beta x - alpha y} G(x, y) at the origin
    yields alpha beta log^2 M times the P-square integral, minus
    (alpha + beta) log M times the P P' integral, plus the P'-square
    integral, all weighted by the v-integral of T^{-v(alpha+beta)}.
    """
    # Young's range; LevinsonParams allows Conrey's wider one
    if not 0.0 < theta <= 0.5:
        raise DomainError("theta must lie in (0, 1/2]")
    a, b = complex(shift.alpha), complex(shift.beta)
    log_m = math.log(shift.m_length)
    log_t = math.log(shift.t_scale)
    iv = WEIGHTS @ np.exp(-(a + b) * log_t * NODES)
    pp, ppd, pdpd = _p_integrals(p_poly)
    return 1.0 + (iv / theta) * (a * b * log_m**2 * pp - (a + b) * log_m * ppd + pdpd)


@dataclass(frozen=True)
class PublishedTuple:
    """A published (P or P1/P2/P, Q, R) choice with its claimed bound."""

    name: str
    q_poly: Polynomial
    r_shift: float
    claimed_bound: float
    source: str
    p_poly: Polynomial | None = None
    p1_poly: Polynomial | None = None
    p2_poly: Polynomial | None = None
    claimed_c: float | None = None
    not_reproducible_here: bool = False


def published_tuples() -> list[PublishedTuple]:
    """The baseline tuple and the two refined two-piece tuples.

    The refined tuples optimize a functional whose main term is not
    assembled in this package, so their claimed bounds carry the
    not_reproducible_here flag; polynomial text is kept verbatim in the
    source field.
    """
    baseline = PublishedTuple(
        name="baseline",
        p_poly=Polynomial((0.0, 1.0)),
        q_poly=Polynomial((1.0, -1.0)),
        r_shift=1.3,
        claimed_bound=0.35,
        claimed_c=2.35,
        source="P(x)=x, Q(x)=1-x, R=1.3, theta=0.5",
    )
    # Q(x)=1-0.642x-1.227(x^2/2-x^3/3)-5.178(x^3/3-x^4/2+x^5/5)
    q_kappa = Polynomial(
        (
            1.0,
            -0.642,
            -1.227 / 2.0,
            1.227 / 3.0 - 5.178 / 3.0,
            5.178 / 2.0,
            -5.178 / 5.0,
        )
    )
    # P1(x)=x-0.617x(1-x)-0.125x^2(1-x)-0.148x^3(1-x)
    p1_kappa = Polynomial((0.0, 1.0 - 0.617, 0.617 - 0.125, 0.125 - 0.148, 0.148))
    kappa_tuple = PublishedTuple(
        name="two-piece-kappa",
        p1_poly=p1_kappa,
        p2_poly=Polynomial((0.0, 1.0)),
        p_poly=Polynomial((0.0, 1.55, -1.564, 0.177)),
        q_poly=q_kappa,
        r_shift=1.3,
        claimed_bound=0.4172,
        not_reproducible_here=True,
        source=(
            "Q(x)=1-0.642x-1.227(x^2/2-x^3/3)-5.178(x^3/3-x^4/2+x^5/5), "
            "P1(x)=x-0.617x(1-x)-0.125x^2(1-x)-0.148x^3(1-x), P2(x)=x, "
            "P(x)=1.55x-1.564x^2+0.177x^3, R=1.3"
        ),
    )
    p1_star = Polynomial((0.0, 1.0 - 0.525, 0.525 - 0.183, 0.183 - 0.085, 0.085))
    star_tuple = PublishedTuple(
        name="two-piece-kappa-star",
        p1_poly=p1_star,
        p2_poly=Polynomial((0.0, 1.0)),
        p_poly=Polynomial((0.0, 0.838, -0.938, -0.084)),
        q_poly=Polynomial((1.0, -1.032)),
        r_shift=1.116,
        claimed_bound=0.4074,
        not_reproducible_here=True,
        source=(
            "Q(x)=1-1.032x, P1(x)=x-0.525x(1-x)-0.183x^2(1-x)-0.085x^3(1-x), "
            "P2(x)=x, P(x)=0.838x-0.938x^2-0.084x^3, R=1.116"
        ),
    )
    return [baseline, kappa_tuple, star_tuple]
