"""Mollifying Dirichlet polynomials and the smoothed zeta combination.

Both mollifiers are coefficient tables (n, a_n) over the squarefree
n <= y from one builder, with x_n = log(y/n)/log y: the classical one
of length M = T^theta has a_n = mu(n) P(x_n), and Wu's two-piece one adds
a second shape carried by the small prime divisors of n.  mollifier_line
sums the classical table on an ordinate grid, one point included, and
b_polynomial a table twisted by a character at one point, each as one
zeta grid-kernel call that keeps every term.  v_line is the smoothed
V zeta = Q(-(1/L) d/ds) zeta that the moment multiplies by psi: its head is
one Dirichlet series with coefficients Q(log n / L), and _q_operator applies
Q to the jets of the Euler-Maclaurin tail alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import mobius_table, primes_upto
from .errors import ConstraintError, DomainError
from .levinson import Polynomial
from .zeta import _dirichlet_jets, _em_head, _em_tail


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


def _coefficient_table(length: float, p1: Polynomial, p2=None, p=None, mode: str = "literal"):
    """(n, a_n) over the squarefree n <= length, with x_n = log(length/n)/log(length):
    a_n = mu(n) P1(x_n), plus mu(n) P2(x_n) sum over p | n, p <= length^{3/4}
    of P(.) when P2 is given.

    mu comes from one Moebius table sized to the length, which refuses a
    length past the sieve limit before anything is allocated.  Only the
    squarefree n carry x_n and the polynomials; the prime-divisor sum is
    one strided add per prime below the cutoff on a full-length array,
    counting those primes in mode 'literal', where every summand is P(x_n).
    """
    n_max = int(math.floor(length))
    mu = mobius_table(n_max)
    keep = mu != 0
    n = np.flatnonzero(keep) + 1.0
    log_len = math.log(length)
    # n=1 always sits at the full-strength end P1(1)=1, even when length -> 1
    x = (log_len - np.log(n)) / log_len if log_len > 0.0 else np.ones_like(n)
    shape = p1(x)
    if p2 is not None:
        inner = np.zeros(n_max)
        for prime in primes_upto(int(length**0.75)).tolist():
            inner[prime - 1 :: prime] += 1.0 if mode == "literal" else p(math.log(prime) / log_len)
        inner = inner[keep]
        shape = shape + p2(x) * (inner * p(x) if mode == "literal" else inner)
    return n, mu[keep] * shape


def mollifier_coefficients(spec: MollifierSpec):
    """(h, mu(h) P(log(M/h)/log M)) table over squarefree h <= M."""
    return _coefficient_table(spec.m_length, spec.p_poly)


def wu_coefficient_table(spec: WuCoefficientSpec, mode: str = "literal"):
    """Wu's two-piece coefficients as a table (n, a_n) over squarefree n <= y:
    a(n) = mu(n) (P1(x_n) + P2(x_n) sum over p | n, p <= y^{3/4} of P(.)).

    mode 'literal' evaluates the inner P at the same x_n = log(y/n)/log y
    for every prime divisor; mode 'prime-log' evaluates it at
    log(p)/log y instead.  Both are exposed because the first makes the
    summand independent of p, which reads like a transcription slip, but
    neither reading is asserted as canonical.
    """
    if mode not in ("literal", "prime-log"):
        raise DomainError(f"unknown mode {mode!r}")
    return _coefficient_table(spec.y_length, spec.p1, spec.p2, spec.p, mode)


def _finite_line(sigma: float, t: np.ndarray, n: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """sum coeff_n n^{-sigma-it} on an ordinate grid: one grid-kernel call
    whose cut keeps every term of the finite sum."""
    return _dirichlet_jets(sigma, t, n, coeff, 0, lambda t_max: math.inf)[0][0]


def b_polynomial(s: complex, chi, table) -> complex:
    """B(s, chi) = sum of chi(n) a_n n^{-s} over a coefficient table (n, a_n), an exact finite sum."""
    s, (n, a_n) = complex(s), table
    return complex(_finite_line(s.real, np.array([s.imag]), n, chi(n.astype(np.int64)) * a_n)[0])


def mollifier_line(sigma: float, t: np.ndarray, spec: MollifierSpec) -> np.ndarray:
    """psi(sigma + i t) = sum over squarefree h <= M of mu(h) h^{sigma0 - 1/2 - sigma - it}
    P(log(M/h)/log M) over an ordinate grid, summed by the grid kernel that
    zeta_line uses."""
    h, coeff = mollifier_coefficients(spec)
    return _finite_line(sigma - spec.sigma0 + 0.5, t, h, coeff)


def _q_operator(jets: np.ndarray, q_poly: Polynomial, log_scale: float) -> np.ndarray:
    """Q(-(1/L) d/ds) applied to jets: sum_j q_j (-1/L)^j j! jets[j]."""
    out = np.zeros(jets.shape[1:], dtype=complex)
    fact = 1.0
    for j, q_j in enumerate(q_poly.coefficients):
        if j > 0:
            fact *= j
        out += q_j * (-1.0 / log_scale) ** j * fact * jets[j]
    return out


def v_line(sigma: float, t: np.ndarray, q_poly: Polynomial, log_scale: float) -> np.ndarray:
    """V zeta(sigma + i t) = Q(-(1/L) d/ds) zeta(s) over an ordinate grid, L = log_scale.

    Q(-(1/L) d/ds) n^{-s} = Q(log n / L) n^{-s}, so the head is one
    Dirichlet series with coefficients Q(log n / L) over zeta_line's terms
    and cuts, summed by the grid kernel at order 0; _q_operator applies Q
    to the Euler-Maclaurin tail's jets alone.
    """
    t = np.asarray(t, dtype=float)
    head, cuts, lead = _em_head(sigma, t, lambda n: q_poly(np.log(n) / log_scale), 0)
    return head[0] + _q_operator(_em_tail(sigma + 1j * t, cuts, q_poly.degree, lead), q_poly, log_scale)
