"""Mollifying Dirichlet polynomials and the smoothed zeta combination.

psi_mollifier is the classical Moebius-weighted polynomial of length
M = T^theta with a shaping polynomial P; v_smoothed_zeta applies a
polynomial in -(1/L) d/ds to zeta; the two-piece coefficients a(n)
extend the plain Moebius weight with a second shape carried by small
prime divisors.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .arithmetic import FactorSieve, default_sieve_limit, get_sieve
from .errors import ConditioningError, ConstraintError, DomainError, SieveRangeError
from .zeta import _dirichlet_jets, _zeta_jet


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


def _require(cond: bool, message: str):
    if not cond:
        raise ConstraintError(message)


@dataclass(frozen=True)
class MollifierSpec:
    """Mollifier parameters: length M = T^theta, line sigma0 = 1/2 - R/L."""

    t_scale: float
    theta: float
    r_shift: float
    p_poly: Polynomial

    def __post_init__(self):
        _require(0.0 < self.theta < 1.0, "theta must lie in (0, 1)")
        _require(self.t_scale > 1.0, "t_scale must exceed 1")
        _require(self.r_shift > 0.0, "r_shift must be positive")
        _require(abs(self.p_poly(0.0)) <= 1e-12, "shape polynomial needs P(0)=0")
        _require(abs(self.p_poly(1.0) - 1.0) <= 1e-12, "shape polynomial needs P(1)=1")

    @property
    def m_length(self) -> float:
        return self.t_scale**self.theta

    @property
    def log_scale(self) -> float:
        return math.log(self.t_scale)

    @property
    def sigma0(self) -> float:
        return 0.5 - self.r_shift / self.log_scale


def mollifier_coefficients(spec: MollifierSpec, sieve: FactorSieve | None = None):
    """(h, mu(h) P(log(M/h)/log M)) table over squarefree h <= M.

    Without an explicit sieve, mu comes from a factor table sized to M,
    so a short mollifier never builds the shared default sieve.
    """
    m_len = spec.m_length
    if m_len > (sieve.limit if sieve else default_sieve_limit()):
        raise SieveRangeError(f"mollifier length {m_len:.3g} beyond sieve range")
    h_max = int(math.floor(m_len))
    mu = (sieve or FactorSieve(max(2, h_max))).mobius_table(h_max)
    h = np.flatnonzero(mu) + 1.0
    log_m = math.log(m_len)
    # h=1 always sits at the full-strength end P(1)=1, even when M -> 1
    x_h = (log_m - np.log(h)) / log_m if log_m > 0.0 else np.ones_like(h)
    return h, mu[mu != 0] * spec.p_poly(x_h)


def _all_terms(t_max: float) -> float:
    """Cut for the grid kernel past every term: psi is a finite sum."""
    return math.inf


def psi_mollifier(s: complex, spec: MollifierSpec, sieve: FactorSieve | None = None) -> complex:
    """psi(s) = sum over squarefree h <= M of mu(h) h^{sigma0 - 1/2 - s} P(log(M/h)/log M).

    The one-point view of mollifier_line, with the factor table of an
    explicit sieve when one is given.
    """
    h, coeff = mollifier_coefficients(spec, sieve)
    s = complex(s)
    jets, _ = _dirichlet_jets(s.real - spec.sigma0 + 0.5, np.array([s.imag]), h, coeff, 0, _all_terms)
    return complex(jets[0, 0])


def mollifier_line(sigma: float, t: np.ndarray, spec: MollifierSpec) -> np.ndarray:
    """Vectorized psi(sigma + i t) over an ordinate grid: the Dirichlet
    polynomial with coefficients mu(h) P(.) h^{sigma0 - 1/2}, summed by the
    grid kernel that zeta_line uses."""
    h, coeff = mollifier_coefficients(spec)
    return _dirichlet_jets(sigma - spec.sigma0 + 0.5, t, h, coeff, 0, _all_terms)[0][0]


def _q_operator(jets: np.ndarray, q_poly: Polynomial, log_scale: float) -> np.ndarray:
    """Q(-(1/L) d/ds) applied to zeta jets: sum_j q_j (-1/L)^j j! jets[j]."""
    out = np.zeros(jets.shape[1:], dtype=complex)
    fact = 1.0
    for j, q_j in enumerate(q_poly.coefficients):
        if j > 0:
            fact *= j
        out += q_j * (-1.0 / log_scale) ** j * fact * jets[j]
    return out


def v_smoothed_zeta(s: complex, q_poly: Polynomial, log_scale: float) -> complex:
    """V(s): the polynomial Q applied to the operator -(1/L) d/ds, acting on zeta."""
    s = complex(s)
    if q_poly.degree > 8:
        raise DomainError("smoothing polynomial degree capped at 8")
    if log_scale <= 0:
        raise DomainError("log scale must be positive")
    if abs(s - 1.0) < 1e-3:
        raise ConditioningError("zeta derivative too close to the pole at s=1")
    return complex(_q_operator(_zeta_jet(s, q_poly.degree), q_poly, log_scale))


@dataclass(frozen=True)
class WuCoefficientSpec:
    """Two-piece coefficient shapes with mollifier length y."""

    p1: Polynomial
    p2: Polynomial
    p: Polynomial
    y_length: float

    def __post_init__(self):
        _require(abs(self.p1(0.0)) <= 1e-12, "P1(0)=0 required")
        _require(abs(self.p2(0.0)) <= 1e-12, "P2(0)=0 required")
        _require(abs(self.p(0.0)) <= 1e-12, "P(0)=0 required")
        _require(abs(self.p1(1.0) - 1.0) <= 1e-12, "P1(1)=1 required")
        _require(self.y_length >= 1.0, "y_length must be at least 1")


def wu_coefficients(
    n: int,
    spec: WuCoefficientSpec,
    mode: str = "literal",
    sieve: FactorSieve | None = None,
) -> float:
    """a(n) = mu(n) (P1(x_n) + P2(x_n) sum over p | n, p <= y^{3/4} of P(.)).

    mode 'literal' evaluates the inner P at the same x_n = log(y/n)/log y
    for every prime divisor; mode 'prime-log' evaluates it at
    log(p)/log y instead.  Both are exposed because the first makes the
    summand independent of p, which reads like a transcription slip, but
    neither reading is asserted as canonical.
    """
    if mode not in ("literal", "prime-log"):
        raise DomainError(f"unknown mode {mode!r}")
    n = int(n)
    if n < 1 or n > spec.y_length:
        raise SieveRangeError(f"n={n} outside [1, y={spec.y_length:.6g}]")
    s = sieve or get_sieve()
    mu = s.mobius(n)
    if mu == 0:
        return 0.0
    log_y = math.log(spec.y_length) if spec.y_length > 1 else 1.0
    x_n = (log_y - math.log(n)) / log_y if log_y else 1.0
    cutoff = spec.y_length**0.75
    prime_sum = 0.0
    for p, _ in s.factorize(n):
        if p <= cutoff:
            prime_sum += spec.p(x_n if mode == "literal" else math.log(p) / log_y)
    return mu * (spec.p1(x_n) + spec.p2(x_n) * prime_sum)


def b_polynomial(s: complex, chi, coeffs: dict[int, float], y_length: float) -> complex:
    """B(s, chi) = sum over n <= y of chi(n) a(n) n^{-s}, exact finite sum."""
    total = 0.0 + 0.0j
    for n, a_n in coeffs.items():
        if n <= y_length and a_n != 0.0:
            total += chi(n) * a_n * cmath.exp(-complex(s) * math.log(n))
    return total


def wu_coefficient_table(
    spec: WuCoefficientSpec, mode: str = "literal", sieve: FactorSieve | None = None
) -> dict[int, float]:
    """All a(n) for n <= y, skipping the zeros at non-squarefree n.

    Without an explicit sieve the factor table is sized to y, so a short
    table never builds the shared default sieve.
    """
    n_max = int(math.floor(spec.y_length))
    sieve = sieve or FactorSieve(max(2, n_max))
    out = {}
    for n in range(1, n_max + 1):
        a_n = wu_coefficients(n, spec, mode, sieve)
        if a_n != 0.0:
            out[n] = a_n
    return out
