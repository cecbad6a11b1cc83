"""Dirichlet characters, Gauss sums, and L-functions.

Characters are represented by exact phase exponents over the lcm of the
cyclic component orders, so conductor and parity computations are exact
integer tests rather than floating comparisons.  All characters mod q come
from one read-only phi(q) x q table (character_table): one broadcast of
the mixed-radix character digits against the discrete logarithms of the
units gives every phase row, and one mask per divisor d of q (the units
= 1 mod d) gives every conductor.  character(q, i) and
enumerate_characters(q) slice it; values are looked up in a row of roots
of unity.  For Re(s) >= 0 an L-value is q^{-s} times the sum of chi(a)
zeta(s, a/q) over the units a in 1..q, and the Hurwitz row of one (q, s)
serves every character mod q; for Re(s) < 0 the functional equation of
the inducing primitive character reflects it there.  Tables, root rows
and Hurwitz rows sit in LRU caches of 16 entries, enough for the
characters of a few moduli at a few s; a table of more than 2^22 entries
(32 MiB) is refused before it is built, so the table cache stays under
512 MiB.  The completed L multiplies that L-value by its gamma factor.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sps

from .errors import DomainError
from .zeta import hurwitz_zeta

_CACHE_SIZE = 16
_TABLE_ENTRIES = 1 << 22  # the largest phi(q) * q character table


def _factor(q: int) -> list[tuple[int, int]]:
    """Prime factorization of q by trial division: character and L-value
    queries factor one modulus at a time and need at most sqrt(q) divisions."""
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

    tables[k][n] is the exponent of n (mod q, read on the units only) in
    component k; the power-of-two part splits as {+-1} x <5> for 2^e with
    e >= 2, the <5> part being trivial at 4.
    """
    orders: list[int] = []
    tables: list[np.ndarray] = []
    residues = np.arange(q)
    for p, e in _factor(q):
        pe = p**e
        if pe == 2:
            continue
        if p == 2:
            half = pe // 4
            powers = np.array([pow(5, k, pe) for k in range(half)], dtype=np.int64)
            sign, five = np.zeros(pe, dtype=np.int64), np.zeros(pe, dtype=np.int64)
            sign[pe - powers] = 1
            five[powers] = five[pe - powers] = np.arange(half)
            parts = [(2, sign), (half, five)]
        else:
            order = pe // p * (p - 1)
            local = np.zeros(pe, dtype=np.int64)
            g = _primitive_root(p, e)
            local[[pow(g, k, pe) for k in range(order)]] = np.arange(order)
            parts = [(order, local)]
        for order, local in parts:
            if order > 1:
                orders.append(order)
                tables.append(local[residues % pe])
    return orders, tables


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _roots_of_unity(order: int) -> np.ndarray:
    """exp(2 pi i k / order) for k = 0..order-1, then the 0 that phase -1 indexes."""
    return _frozen(np.append(np.exp(2j * np.pi * np.arange(order) / order), 0.0))


@dataclass(frozen=True)
class DirichletCharacter:
    """A Dirichlet character mod q stored as exact phase exponents.

    phases[n] holds k with chi(n) = exp(2 pi i k / order_lcm), or -1 when
    gcd(n, q) > 1.  index is the character's row in character_table(q),
    or -1 for one built outside it (induced_primitive); conductor is the
    least f | q such that chi is induced from a character mod f.
    """

    modulus: int
    order_lcm: int
    phases: np.ndarray = field(repr=False)
    index: int
    conductor: int

    def __call__(self, n):
        val = _roots_of_unity(self.order_lcm)[self.phases[np.asarray(n) % self.modulus]]
        return complex(val) if val.ndim == 0 else val

    def values(self) -> np.ndarray:
        return self(np.arange(self.modulus))

    @property
    def is_principal(self) -> bool:
        return bool(np.all(self.phases[self.phases >= 0] == 0))

    @property
    def parity(self) -> int:
        """0 for even characters (chi(-1)=1), 1 for odd."""
        return int(self.phases[-1] != 0)

    @property
    def is_primitive(self) -> bool:
        # the principal character mod q > 1 has conductor 1
        return self.conductor == self.modulus

    def conjugate(self) -> "DirichletCharacter":
        """The conjugate character: negated phases, and the index whose
        mixed-radix digits are the negated digits of this one's."""
        conj = np.where(self.phases > 0, self.order_lcm - self.phases, self.phases)
        index = self.index
        if index >= 0:
            rest, index, stride = index, 0, 1
            for order in reversed(character_table(self.modulus).orders):
                rest, digit = divmod(rest, order)
                index += -digit % order * stride
                stride *= order
        return DirichletCharacter(self.modulus, self.order_lcm, conj, index, self.conductor)


@dataclass(frozen=True)
class CharacterTable:
    """Every character mod q at once.

    Row i of phases is character i: its component exponents are the
    mixed-radix digits of i over orders, the last component varying
    fastest.  phases and conductors are read-only.
    """

    modulus: int
    orders: tuple[int, ...]
    order_lcm: int
    phases: np.ndarray = field(repr=False)
    conductors: np.ndarray = field(repr=False)

    @property
    def parities(self) -> np.ndarray:
        """0 for even characters (chi(-1)=1), 1 for odd."""
        return (self.phases[:, -1] != 0).astype(np.int64)

    def character(self, index: int) -> DirichletCharacter:
        f = int(self.conductors[index])
        return DirichletCharacter(self.modulus, self.order_lcm, self.phases[index], index, f)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def character_table(q: int) -> CharacterTable:
    """The phi(q) x q phase table of the characters mod q, with their conductors."""
    if q < 1:
        raise DomainError("modulus must be positive")
    # q alone bounds the table first, so a huge q is never factored
    if q > _TABLE_ENTRIES or math.prod(p ** (e - 1) * (p - 1) for p, e in _factor(q)) * q > _TABLE_ENTRIES:
        raise DomainError(f"the phi(q) x q character table of q = {q} exceeds {_TABLE_ENTRIES} entries")
    orders, tables = _component_dlogs(q)
    lcm, count = math.lcm(*orders), math.prod(orders)
    radix = np.array(orders, dtype=np.int64)
    digits = np.arange(count)[:, None] // (count // np.cumprod(radix)) % radix
    n = np.arange(q)
    units = np.gcd(n, q) == 1
    dlogs = np.array(tables, dtype=np.int64).reshape(len(orders), q)[:, units]
    phases = np.full((count, q), -1, dtype=np.int64)
    phases[:, units] = digits * (lcm // radix) @ dlogs % lcm
    # the least divisor d of q with chi = 1 on the units = 1 mod d; the
    # divisors run downwards so that the least one is written last
    conductors = np.empty(count, dtype=np.int64)
    for d in (d for d in range(q, 0, -1) if q % d == 0):
        conductors[np.all(phases[:, units & (n % d == 1 % d)] == 0, axis=1)] = d
    return CharacterTable(q, tuple(orders), lcm, _frozen(phases), _frozen(conductors))


def character(q: int, index: int) -> DirichletCharacter:
    """The character enumerate_characters(q)[index]."""
    table = character_table(q)
    count = len(table.phases)
    if not 0 <= index < count:
        raise DomainError(f"character index outside 0..{count - 1}")
    return table.character(index)


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All phi(q) characters mod q, principal first."""
    table = character_table(q)
    return [table.character(index) for index in range(len(table.phases))]


def induced_primitive(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character of conductor f inducing chi."""
    f = chi.conductor
    if f == chi.modulus:
        return chi
    # every unit mod q reduces to a unit mod f, and chi is constant on each class
    units = np.flatnonzero(chi.phases >= 0)
    phases = np.full(f, -1, dtype=np.int64)
    phases[units % f] = chi.phases[units]
    return DirichletCharacter(f, chi.order_lcm, phases, -1, f)


def gauss_sum(chi: DirichletCharacter, a: int = 1) -> complex:
    """tau_a(chi) = sum over n mod q of chi(n) e(an/q), each e(an/q) read
    from the row of q-th roots of unity at an mod q."""
    q = chi.modulus
    n = np.arange(q)
    return complex((chi(n) * _roots_of_unity(q)[a % q * n % q]).sum())


def epsilon_factor(chi: DirichletCharacter) -> complex:
    """Root number tau(chi) / (i^kappa sqrt(q)); unit modulus when primitive."""
    if chi.modulus == 1:
        return 1.0 + 0.0j
    if not chi.is_primitive:
        raise DomainError("root number defined for primitive characters only")
    return gauss_sum(chi) / (1j**chi.parity * math.sqrt(chi.modulus))


def xi_completed_l(s: complex, chi: DirichletCharacter) -> complex:
    """Completed L: Lambda(s, chi) = (q/pi)^{(s+kappa)/2} Gamma((s+kappa)/2) L(s, chi).

    Entire for primitive non-principal chi, with
    Lambda(s, chi) = epsilon(chi) Lambda(1-s, conj chi).  The gamma and
    (q/pi) factors are taken as one exponential of log-gamma, so neither
    overflows on its own.  At s = -kappa, -kappa-2, ... the product is a
    removable 0 * infinity (a gamma pole on a trivial zero of L), and
    there alone the value is epsilon(chi) Lambda(1-s, conj chi).  A value
    past the double range is a DomainError.
    """
    s = complex(s)
    if not chi.is_primitive or chi.is_principal:
        raise DomainError("completed L defined for primitive non-principal characters")
    a = (s + chi.parity) / 2.0
    if a.imag == 0.0 and a.real <= 0.0 and a.real == round(a.real):
        return epsilon_factor(chi) * xi_completed_l(1.0 - s, chi.conjugate())
    log_factor = a * math.log(chi.modulus / math.pi) + complex(sps.loggamma(a))
    try:
        val = cmath.exp(log_factor) * l_function(s, chi)
    except OverflowError:  # cmath.exp past Re 709.78; a product overflows to inf instead
        val = complex(math.inf)
    if not cmath.isfinite(val):
        raise DomainError(f"Lambda(s, chi) at s = {s} overflows a double")
    return val


def l_function(s: complex, chi: DirichletCharacter) -> complex:
    """L(s, chi) anywhere in the plane (pole only at s=1 for principal chi).

    Re(s) >= 0: q^{-s} sum over the units a in 1..q of chi(a) zeta(s, a/q),
    from the Hurwitz row of (q, s) that every chi mod q shares; at s = 1
    the Hurwitz poles cancel for non-principal chi and their constant
    terms give -(1/q) sum chi(a) psi(a/q).  Re(s) < 0: the functional equation of the inducing
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
        try:
            val *= cmath.exp((0.5 - s) * math.log(f / math.pi) + gamma_ratio)
            for p, _ in _factor(q):
                if f % p != 0:
                    val *= 1.0 - prim(p) * cmath.exp(-s * math.log(p))
        except OverflowError:  # cmath.exp past Re 709.78; a product overflows to inf instead
            val = complex(math.inf)
        if not cmath.isfinite(val):
            raise DomainError(f"L(s, chi) at s = {s} overflows a double")
        return val
    if s == 1.0 and not chi.is_principal:
        residues = np.flatnonzero(chi.phases >= 0)  # q >= 3 here: no unit is q itself
        return complex(-np.sum(chi(residues) * sps.psi(residues / q)) / q)
    residues, row = _hurwitz_row(q, s)
    return cmath.exp(-s * math.log(q)) * complex(np.sum(chi(residues) * row))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _hurwitz_row(q: int, s: complex) -> tuple[np.ndarray, np.ndarray]:
    """The units a in 1..q and zeta(s, a/q), shared by every chi mod q."""
    residues = np.arange(1, q + 1)
    residues = _frozen(residues[np.gcd(residues, q) == 1])
    return residues, _frozen(hurwitz_zeta(s, residues / q))
