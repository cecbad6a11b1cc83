"""The mollified-moment constant c(P,Q,R,theta), the kappa lower bound,
its shifted two-variable generalization, and the registry of published
polynomial tuples.

c is Conrey's functional, with the inner x-derivative squared.  For fixed
(Q, R, theta) it is a quadratic form in P, and for fixed (P, R, theta) one
in Q.  P's Gram matrices come from gram_pieces, the one builder that
c_constant_exact, shifted_c and the optimizer share; Q's come from
hankel_pieces, which c_constant_exact and the optimizer share, from one
vector of exponential-monomial integrals; that vector comes from a
recurrence that runs upward for the orders k <= |a| and downward
(self-correcting) for the rest.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ConstraintError, DomainError
from .mollifier import Polynomial

# the range of Conrey's mean-value theorem (Conrey 1989)
THETA_MAX = 4.0 / 7.0
QUADRATURE_BOUND = 1e-8  # see c_constant_quadrature


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


def exp_monomial_integral(a: complex, m: int) -> np.ndarray:
    """I_k(a) = integral over [0,1] of e^{a v} v^k dv for k = 0..m, as one
    vector: real for real a, complex otherwise.

    The upward recurrence I_k = (e^a - k I_{k-1}) / a scales an error by
    k/|a| and the downward I_{k-1} = (e^a - a I_k) / k by |a|/k, so each
    runs where its factor is below 1: upward for k <= |a|, and downward
    above, from a crude seed whose error dies on the way down.  Below
    |a| = 1/2 all of it is downward, since I_0 = (e^a - 1)/a cancels.
    """
    if m < 0:
        raise DomainError("monomial degree must be nonnegative")
    if a == 0:
        return 1.0 / np.arange(1.0, m + 2.0)
    is_complex = isinstance(a, complex)
    try:
        ea = cmath.exp(a) if is_complex else math.exp(a)
    except OverflowError:  # Re a past about 709.78
        raise DomainError(f"e^({a}) overflows a double") from None
    out = np.empty(m + 1, dtype=complex if is_complex else float)
    up = min(m + 1, int(abs(a)) + 1) if abs(a) >= 0.5 else 0  # I_0 .. I_{up-1} upward
    val = (ea - 1.0) / a
    for k in range(up):
        out[k] = val
        val = (ea - (k + 1) * val) / a
    if up > m:  # |a| >= m: no order is left for the downward run
        return out
    top = m + 40 + int(2.0 * abs(a))
    val = ea / (top + 1.0)  # any O(1/top) seed works; errors die downward
    for k in range(top, up, -1):
        val = (ea - a * val) / k
        if k <= m + 1:
            out[k - 1] = val
    return out


def gram_pieces(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gram matrices of c's quadratic form in P = sum p_i x^i:
    A_ij = int x^{i+j} and B_ij = int (x^i)'(x^j)' = ij / (i+j-1) over
    [0,1], for i, j = 0..degree."""
    i = np.arange(degree + 1.0)
    k = i[1:]  # row and column 0 of B vanish
    return 1.0 / (i[:, None] + i + 1.0), np.pad(np.outer(k, k) / (k[:, None] + k - 1.0), (1, 0))


def _p_integrals(p: Polynomial) -> tuple[float, float, float]:
    """int P^2, int P P' = (P(1)^2 - P(0)^2) / 2 and int P'^2 over [0,1]."""
    coeffs = np.array(p.coefficients)
    gram_a, gram_b = gram_pieces(p.degree)
    return float(coeffs @ gram_a @ coeffs), 0.5 * (p(1.0) ** 2 - p(0.0) ** 2), float(coeffs @ gram_b @ coeffs)


def hankel_pieces(size: int, r_shift: float) -> tuple[np.ndarray, np.ndarray]:
    """(H, M) for c's quadratic form in Q = sum q_i x^i, i < size, at R:
    H_ij = I_{i+j} of e^{2Rv}, and M = R + d/dx acting on coefficient rows,
    so that f = theta q M holds the coefficients of F = theta (R Q + Q')."""
    hankel = exp_monomial_integral(2.0 * r_shift, 2 * size - 2)[np.add.outer(np.arange(size), np.arange(size))]
    return hankel, r_shift * np.eye(size) + np.diag(np.arange(1.0, size), -1)


def hankel_weights(q: np.ndarray, hankel: np.ndarray, m: np.ndarray, theta: float):
    """(alpha, beta, gamma) = fHf, fHq and qHq, the integrals over [0,1] of
    e^{2Rv} times F^2, F Q and Q^2, for Q's coefficients q and hankel_pieces'
    (H, M)."""
    f = theta * (q @ m)
    hq = hankel @ q
    return f @ hankel @ f, f @ hq, q @ hq


def q_weights(q_poly: Polynomial, r_shift: float, theta: float) -> tuple[float, float, float]:
    """hankel_weights for a Polynomial Q: all three from one moment vector
    I_0..I_{2 deg Q} of e^{2Rv}."""
    q = np.asarray(q_poly.coefficients, dtype=float)
    return tuple(float(w) for w in hankel_weights(q, *hankel_pieces(q.size, float(r_shift)), theta))


def c_constant_exact(params: LevinsonParams) -> float:
    """Closed-form c(P,Q,R,theta), Conrey's functional.

    The inner x-derivative at x=0, R theta P(u)Q(v) + P'(u)Q(v)
    + theta P(u)Q'(v), is P(u)F(v) + P'(u)Q(v); its square against e^{2Rv}
    is alpha int P^2 + 2 beta int P P' + gamma int P'^2 (see q_weights and
    gram_pieces).  A c past the double range raises DomainError.
    """
    pp, ppd, pdpd = _p_integrals(params.p_poly)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        alpha, beta, gamma = q_weights(params.q_poly, params.r_shift, params.theta)
    c = 1.0 + (alpha * pp + 2.0 * beta * ppd + gamma * pdpd) / params.theta
    if not math.isfinite(c):
        raise DomainError(f"c at R = {params.r_shift} overflows a double")
    return c


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
        x, w = np.polynomial.legendre.leggauss(nodes)
        x, w = 0.5 * (x + 1.0), 0.5 * w  # on [0, 1]
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
    iv = exp_monomial_integral(-(a + b) * log_t, 0)[0]
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
