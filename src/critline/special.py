"""Complex gamma and the upper incomplete gamma for complex order.

Gamma delegates to scipy's complex implementation (reflection plus
Lanczos/Stirling internally); the upper incomplete gamma is computed here
with the classic series/continued-fraction split at x = |s| + 1.
"""

from __future__ import annotations

import cmath
import math

from scipy import special as sps

from .errors import AccuracyError, DomainError, PoleError


def _is_nonpositive_integer(s: complex, tol: float = 0.0) -> bool:
    return s.imag == 0.0 and s.real <= 0.0 and abs(s.real - round(s.real)) <= tol


def complex_gamma(s: complex) -> complex:
    """Gamma(s) for complex s; raises at the poles s = 0, -1, -2, ..."""
    s = complex(s)
    if _is_nonpositive_integer(s):
        raise PoleError(f"gamma pole at s={s}")
    if abs(s.imag) > 200.0 or abs(s.real) > 170.0:
        # large arguments: go through log-gamma to dodge overflow
        return cmath.exp(complex(sps.loggamma(s)))
    return complex(sps.gamma(s))


def _lower_gamma_series(s: complex, x: float, max_terms: int = 800) -> complex:
    """gamma(s, x) = x^s e^{-x} sum_k x^k / (s (s+1) ... (s+k))."""
    term = 1.0 / s
    total = term
    for k in range(1, max_terms):
        term *= x / (s + k)
        total += term
        if abs(term) < 1e-18 * abs(total):
            return total * cmath.exp(s * math.log(x) - x)
    raise AccuracyError(f"lower gamma series failed to converge (s={s}, x={x})")


def _upper_gamma_cf(s: complex, x: float, max_terms: int = 2000) -> complex:
    """Continued fraction for Gamma(s, x), modified Lentz iteration."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, max_terms):
        a = -i * (i - s)
        b += 2.0
        d = a * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + a / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h * cmath.exp(s * math.log(x) - x)
    raise AccuracyError(f"incomplete gamma continued fraction stalled (s={s}, x={x})")


def upper_incomplete_gamma(s: complex, x: float) -> complex:
    """Gamma(s, x) = integral_x^inf t^{s-1} e^{-t} dt for x > 0, complex s.

    Continued fraction for x >= |s| + 1, series complement otherwise; the
    series branch lifts Re(s) above 1/2 first so Gamma(s) is pole-free.
    """
    s = complex(s)
    x = float(x)
    if x <= 0.0:
        raise DomainError(f"upper incomplete gamma needs x > 0, got {x}")
    if x >= abs(s) + 1.0:
        return _upper_gamma_cf(s, x)
    if s.imag == 0.0 and s.real <= 0.0 and s.real == round(s.real):
        # the upward lift divides by s; nonpositive integers go through
        # the exponential integral Gamma(0, x) = E1(x) instead
        g = complex(sps.exp1(x))
        for j in range(1, int(-s.real) + 1):
            g = (g - math.exp(-x) * x**-j) / (-j)
        return g
    if s.real < 0.5:
        # Gamma(s, x) = (Gamma(s+1, x) - x^s e^{-x}) / s, iterated upward
        lift = int(math.ceil(0.5 - s.real))
        top = upper_incomplete_gamma(s + lift, x)
        for j in range(lift - 1, -1, -1):
            sj = s + j
            top = (top - cmath.exp(sj * math.log(x) - x)) / sj
        return top
    return complex_gamma(s) - _lower_gamma_series(s, x)
