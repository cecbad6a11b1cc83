"""Dirichlet characters, Gauss sums, theta series, and L-functions.

Characters are represented by exact phase exponents over the lcm of the
cyclic component orders, so conductor and parity computations are exact
integer tests rather than floating comparisons.  For Re(s) >= 0 an
L-value is one call of the Euler-Maclaurin zeta.hurwitz_zeta over all
residues a/q; for Re(s) < 0 the functional equation of the inducing
primitive character reflects it there.  The incomplete-gamma
continuation of the completed L stays as an independent path of
xi_completed_l, a reference for the functional equation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sps

from .errors import DomainError
from .zeta import hurwitz_zeta


def _factor(q: int) -> list[tuple[int, int]]:
    """Prime factorization of q by trial division.

    Kept apart from arithmetic.FactorSieve on purpose: character and
    L-value queries never need more than sqrt(q) divisions, and must not
    build the default 1e7 sieve.
    """
    out = []
    d = 2
    while d * d <= q:
        if q % d == 0:
            e = 0
            while q % d == 0:
                q //= d
                e += 1
            out.append((d, e))
        d += 1
    if q > 1:
        out.append((q, 1))
    return out


def _primitive_root(p: int, e: int) -> int:
    """Primitive root modulo p^e for odd prime p."""
    phi_p = p - 1
    factors = [f for f, _ in _factor(phi_p)]
    g = 2
    while any(pow(g, phi_p // f, p) == 1 for f in factors):
        g += 1
    if e == 1:
        return g
    # a root mod p lifts to p^e unless g^(p-1) = 1 mod p^2
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _component_dlogs(q: int):
    """Cyclic decomposition of (Z/q)^*: per-component orders and dlog tables.

    Each table maps n (mod q, coprime to q) to the component exponent; the
    power-of-two part splits as {+-1} x <5> for 2^e with e >= 3.
    """
    orders: list[int] = []
    tables: list[np.ndarray] = []
    for p, e in _factor(q):
        pe = p**e
        if p == 2:
            if e == 1:
                continue
            if e == 2:
                order = 2
                local = {1: 0, 3: 1}
                orders.append(order)
            else:
                half = pe // 4
                local_sign = {}
                local_five = {}
                val = 1
                for k in range(half):
                    local_sign[val] = 0
                    local_five[val] = k
                    local_sign[pe - val] = 1
                    local_five[pe - val] = k
                    val = val * 5 % pe
                orders.extend([2, half])
                for local in (local_sign, local_five):
                    tab = np.full(q, -1, dtype=np.int64)
                    for n in range(1, q, 2):
                        tab[n] = local[n % pe]
                    tables.append(tab)
                continue
        else:
            order = pe // p * (p - 1)
            g = _primitive_root(p, e)
            local = {}
            val = 1
            for k in range(order):
                local[val] = k
                val = val * g % pe
            orders.append(order)
        tab = np.full(q, -1, dtype=np.int64)
        for n in range(q):
            if math.gcd(n, q) == 1:
                tab[n] = local[n % pe]
        tables.append(tab)
    return orders, tables


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod q stored as exact phase exponents.

    phases[n] holds k with chi(n) = exp(2 pi i k / order_lcm), or -1 when
    gcd(n, q) > 1.
    """

    modulus: int
    order_lcm: int
    phases: np.ndarray = field(repr=False)
    index: int = 0

    def __call__(self, n):
        n = np.asarray(n) % self.modulus
        p = self.phases[n]
        val = np.where(p >= 0, np.exp(2j * np.pi * np.maximum(p, 0) / self.order_lcm), 0.0)
        return complex(val) if val.ndim == 0 else val

    def values(self) -> np.ndarray:
        return self(np.arange(self.modulus))

    @property
    def is_principal(self) -> bool:
        return bool(np.all(self.phases[self.phases >= 0] == 0))

    @property
    def parity(self) -> int:
        """0 for even characters (chi(-1)=1), 1 for odd."""
        if self.modulus <= 2:
            return 0
        return 0 if self.phases[self.modulus - 1] == 0 else 1

    @property
    def conductor(self) -> int:
        # least divisor d of q with chi trivial on units congruent to 1 mod d
        q = self.modulus
        low = [d for d in range(1, math.isqrt(q) + 1) if q % d == 0]
        return next(d for d in sorted(set(low + [q // d for d in low])) if _is_quasiperiod(self, d))

    @property
    def is_primitive(self) -> bool:
        if self.modulus == 1:
            return True
        return not self.is_principal and self.conductor == self.modulus

    def conjugate(self) -> "DirichletCharacter":
        conj = np.where(self.phases > 0, self.order_lcm - self.phases, self.phases)
        return DirichletCharacter(self.modulus, self.order_lcm, conj, self.index)


def _is_quasiperiod(chi: DirichletCharacter, d: int) -> bool:
    q = chi.modulus
    if q == 1:
        return True
    for a in range(1, q + 1, d):
        n = a % q
        if n != 1 and chi.phases[n] >= 0 and chi.phases[n] != 0:
            return False
    return True


def _unit_group(q: int):
    """(orders, dlog tables on the units, lcm of the orders, unit mask) of (Z/q)^*."""
    if q < 1:
        raise DomainError("modulus must be positive")
    orders, tables = _component_dlogs(q)
    coprime = np.array([math.gcd(n, q) == 1 for n in range(q)])
    return orders, [tab[coprime] for tab in tables], math.lcm(*orders), coprime


def _character(q: int, group, index: int) -> DirichletCharacter:
    """The character whose component exponents are the mixed-radix digits
    of index, the last component varying fastest."""
    orders, tables, lcm, coprime = group
    acc = np.zeros(int(coprime.sum()), dtype=np.int64)
    rest = index
    for order, tab in zip(reversed(orders), reversed(tables)):
        rest, digit = divmod(rest, order)
        acc += digit * tab * (lcm // order)
    phases = np.full(q, -1, dtype=np.int64)
    phases[coprime] = acc % lcm
    return DirichletCharacter(q, lcm, phases, index)


def character(q: int, index: int) -> DirichletCharacter:
    """The character enumerate_characters(q)[index], built on its own."""
    group = _unit_group(q)
    count = math.prod(group[0])
    if not 0 <= index < count:
        raise DomainError(f"character index outside 0..{count - 1}")
    return _character(q, group, index)


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, principal first."""
    group = _unit_group(q)
    return [_character(q, group, index) for index in range(math.prod(group[0]))]


def induced_primitive(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character of conductor f inducing chi."""
    f = chi.conductor
    if f == chi.modulus:
        return chi
    q = chi.modulus
    phases = np.full(f, -1, dtype=np.int64)
    for n in range(f):
        if math.gcd(n, f) != 1:
            continue
        m = n
        while math.gcd(m, q) != 1:  # lift n mod f to a unit mod q
            m += f
        phases[n] = chi.phases[m % q]
    return DirichletCharacter(f, chi.order_lcm, phases, -1)


def gauss_sum(chi: DirichletCharacter, a: int = 1) -> complex:
    """tau_a(chi) = sum over n mod q of chi(n) e(an/q)."""
    q = chi.modulus
    n = np.arange(q)
    return complex(np.sum(chi(n) * np.exp(2j * np.pi * a * n / q)))


def epsilon_factor(chi: DirichletCharacter) -> complex:
    """Root number tau(chi) / (i^kappa sqrt(q)); unit modulus when primitive."""
    if chi.modulus == 1:
        return 1.0 + 0.0j
    if not chi.is_primitive:
        raise DomainError("root number defined for primitive characters only")
    return gauss_sum(chi) / (1j**chi.parity * math.sqrt(chi.modulus))


def theta_nu(z: complex, chi: DirichletCharacter, include_character: bool = True) -> complex:
    """Weighted theta series sum of chi(n) n^kappa exp(-pi n^2 z / q).

    include_character=False drops the chi(n) factor, leaving the bare
    n^kappa heat kernel over the same modulus.
    """
    z = complex(z)
    if z.real <= 0:
        raise DomainError("theta series needs Re(z) > 0")
    q = chi.modulus
    kappa = chi.parity
    total = 0.0 + 0.0j
    for n in range(1, 10000):
        damp = cmath.exp(-math.pi * n * n * z / q)
        term = (chi(n) if include_character else 1.0) * n**kappa * damp
        total += term
        if abs(damp) * (n + 1) ** kappa < 1e-18 * max(1.0, abs(total)):
            break
    return total


def xi_completed_l(s: complex, chi: DirichletCharacter, path: str = "continued") -> complex:
    """Completed L: (q/pi)^{(s+kappa)/2} Gamma((s+kappa)/2) L(s, chi).

    Entire for primitive non-principal chi and satisfies
    xi(s, chi) = epsilon(chi) xi(1-s, conj chi).  The continued path sums
    incomplete-gamma tails of the split theta integral and works at any s;
    the direct path multiplies the factors and needs Hurwitz summation.
    """
    s = complex(s)
    if not chi.is_primitive or chi.is_principal:
        raise DomainError("completed L defined for primitive non-principal characters")
    q = chi.modulus
    kappa = chi.parity
    if path == "direct":
        pref = cmath.exp((s + kappa) / 2.0 * math.log(q / math.pi))
        return pref * complex(sps.gamma((s + kappa) / 2.0)) * l_function(s, chi)
    if path != "continued":
        raise DomainError(f"unknown path {path!r}")
    from .special import upper_incomplete_gamma

    eps = epsilon_factor(chi)
    chi_bar = chi.conjugate()
    total = 0.0 + 0.0j
    for n in range(1, 400):
        x = math.pi * n * n / q
        weight = float(n) ** kappa
        base = math.log(q / (math.pi * n * n))
        term = chi(n) * weight * cmath.exp((s + kappa) / 2.0 * base) * (
            upper_incomplete_gamma((s + kappa) / 2.0, x)
        ) + eps * chi_bar(n) * weight * cmath.exp((1.0 - s + kappa) / 2.0 * base) * (
            upper_incomplete_gamma((1.0 - s + kappa) / 2.0, x)
        )
        total += term
        if x > 36.0 and abs(term) < 1e-17 * max(1.0, abs(total)):
            break
    return total


def l_function(s: complex, chi: DirichletCharacter) -> complex:
    """L(s, chi) anywhere in the plane (pole only at s=1 for principal chi).

    Re(s) >= 0: q^{-s} sum over residues a in 1..q of chi(a) zeta(s, a/q),
    one hurwitz_zeta call; at s = 1 the Hurwitz poles cancel for
    non-principal chi and their constant terms give -(1/q) sum chi(a)
    psi(a/q).  Re(s) < 0: the functional equation of the inducing
    primitive chi* mod f maps onto L(1-s, conj chi*), times the Euler
    factors 1 - chi*(p) p^{-s} of the primes dividing q but not f.

    Near s = 1 the Hurwitz poles still cancel, in floating point: the
    relative error grows like 4e-16/|s-1|, to about 4e-12 at
    |s-1| = 1e-4, 2e-10 at 1e-6 and 4e-8 at 1e-8 (q <= 97).
    """
    s = complex(s)
    q = chi.modulus
    if s.real < 0.0:
        prim = induced_primitive(chi)
        f, kappa = prim.modulus, prim.parity
        if s.imag == 0.0 and s.real == round(s.real) and int(s.real + kappa) % 2 == 0:
            return 0j  # trivial zero: a pole of Gamma((s+kappa)/2)
        gamma_ratio = sps.loggamma((1.0 - s + kappa) / 2.0) - sps.loggamma((s + kappa) / 2.0)
        val = epsilon_factor(prim) * l_function(1.0 - s, prim.conjugate())
        val *= cmath.exp((0.5 - s) * math.log(f / math.pi) + gamma_ratio)
        for p, _ in _factor(q):
            if f % p != 0:
                val *= 1.0 - prim(p) * cmath.exp(-s * math.log(p))
        return val
    residues = np.arange(1, q + 1)
    residues = residues[chi.phases[residues % q] >= 0]
    weights = chi(residues)
    if s == 1.0 and not chi.is_principal:
        return complex(-np.sum(weights * sps.psi(residues / q)) / q)
    return cmath.exp(-s * math.log(q)) * complex(np.sum(weights * hurwitz_zeta(s, residues / q)))
