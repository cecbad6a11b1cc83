"""Independent checks of every operation's output.

Nothing here compares against a stored copy of an earlier output.  Values
are checked against mpmath (a test oracle that critline never imports),
against the benchmark's own sieve and quadrature, or against properties the
method must have.  The checks run after the timed passes.

``Checker.check(op, output)`` returns ``None`` when the output is correct,
or ``(reason, fault)``: ``fault`` names a known program fault that explains
the failure, and is ``None`` for a failure nothing known explains.
"""

from __future__ import annotations

import functools
import importlib
import math
import random

import mpmath
import numpy as np
from scipy import integrate

from workloads import OpError, cli_request, loads

mpmath.mp.dps = 20

# faults the program is known to have; a failing operation is charged to
# one only when its output is what the faulty computation gives
LINEAR_FUNCTIONAL = "linear-functional"
KNOWN_FAULTS = {
    LINEAR_FUNCTIONAL: (
        "levinson.c_constant_exact and c_constant_quadrature integrate the inner "
        "derivative R*theta*P(u)Q(v) + P'(u)Q(v) + theta*P(u)Q'(v) linearly; Conrey's c "
        "integrates its square (ROADMAP item 1)"
    ),
}

# the rebuild agrees with the program to 5e-16; the tolerance leaves room
# for a program that evaluates the same integrand another way, to the 1e-12
# accuracy zeta_line promises, while a wrong term moves it by far more
MOMENT_REBUILD_TOL = 1e-10


class Failure(Exception):
    """A check failed: args are (reason,) or (reason, known fault)."""


def _cli_json(output) -> dict:
    if isinstance(output, OpError):
        raise Failure(f"request raised {output.message}")
    code, text = output
    if code != 0:
        raise Failure(f"exit code {code}: {text.strip()[:200]}")
    return loads(text)


def _c(value: dict) -> complex:
    return complex(value["re"], value["im"])


def _rel(a, b) -> float:
    return abs(complex(a) - complex(b)) / abs(complex(b))


def _close(what: str, got, want, tol: float):
    err = _rel(got, want)
    if not err <= tol:
        raise Failure(f"{what}: {complex(got)!r} vs reference {complex(want)!r}, relative error {err:.3e} > {tol:g}")


# ---------------------------------------------------------------------------
# the benchmark's own arithmetic


def primes_upto(n: int) -> np.ndarray:
    mark = np.ones(n + 1, dtype=bool)
    mark[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mark[p]:
            mark[p * p :: p] = False
    return np.flatnonzero(mark)


@functools.lru_cache(maxsize=None)
def mobius_table(n: int) -> tuple[int, ...]:
    mu = [1] * (n + 1)
    mu[0] = 0
    for p in primes_upto(max(n, 2)).tolist():
        for k in range(p, n + 1, p):
            mu[k] = -mu[k]
        for k in range(p * p, n + 1, p * p):
            mu[k] = 0
    return tuple(mu)


def totient(n: int) -> int:
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def primitive_count(q: int) -> int:
    """Number of primitive characters mod q: sum over d | q of mu(q/d) phi(d)."""
    mu = mobius_table(q)
    return sum(mu[q // d] * totient(d) for d in range(1, q + 1) if q % d == 0)


def chebyshev_psi(x: int) -> float:
    """Sum of log p over prime powers p^k <= x."""
    primes = primes_upto(x)
    logs = np.log(primes.astype(float)).tolist()
    extra = []
    for p in primes[primes <= math.isqrt(x)].tolist():
        pk = p * p
        while pk <= x:
            extra.append(math.log(p))
            pk *= p
    return math.fsum(logs + extra)


@functools.lru_cache(maxsize=None)
def conrey_c(p: tuple, q: tuple, r: float, theta: float, squared: bool = True) -> float:
    """c = 1 + (1/theta) * double integral over [0,1]^2 of
    e^{2Rv} (R theta P(u)Q(v) + P'(u)Q(v) + theta P(u)Q'(v))^k, k = 2 (Conrey's
    functional) or k = 1 (the linear form), by scipy dblquad."""
    pp, qq = np.polynomial.Polynomial(p), np.polynomial.Polynomial(q)
    dp, dq = pp.deriv(), qq.deriv()

    def integrand(v, u):
        inner = r * theta * pp(u) * qq(v) + dp(u) * qq(v) + theta * pp(u) * dq(v)
        return math.exp(2.0 * r * v) * (inner * inner if squared else inner)

    value, _ = integrate.dblquad(integrand, 0.0, 1.0, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    return 1.0 + value / theta


def _constant_verdict(what: str, got: float, p, q, r, theta, tol: float = 1e-8):
    """Check a program c against Conrey's c; charge a mismatch to the
    linear-functional fault when the program c is the linear form."""
    want = conrey_c(tuple(p), tuple(q), float(r), float(theta))
    if _rel(got, want) <= tol:
        return
    linear = conrey_c(tuple(p), tuple(q), float(r), float(theta), squared=False)
    message = f"{what}: c={got!r} vs Conrey's c={want!r} (relative {_rel(got, want):.3e})"
    if _rel(got, linear) <= tol:
        raise Failure(message + f"; it is the linear form {linear!r}", LINEAR_FUNCTIONAL)
    raise Failure(message)


# ---------------------------------------------------------------------------


def _ramp(x, delta):
    f = mpmath.exp(-1 / x)
    return f / (f + mpmath.exp(-1 / (delta - x)))


def _module(name: str):
    return importlib.import_module(f"critline.{name}")


class Checker:
    """Checks for one run; the seed chooses the moment's sample ordinates."""

    def __init__(self, seed: int, ops):
        self.seed = seed
        self._psi = {}
        self._hurwitz = {}

    def check(self, op, output):
        try:
            getattr(self, f"_check_{op.kind}")(op, output)
        except Failure as exc:
            return (exc.args[0], exc.args[1] if len(exc.args) > 1 else None)
        return None

    def _rng(self, op) -> random.Random:
        return random.Random(f"{self.seed}:{op.kind}:{op.key}")

    # moment -----------------------------------------------------------------

    def _check_moment(self, op, output):
        rep = _cli_json(output)
        prm = op.params
        t_scale, r, theta = prm["T"], prm["R"], prm["theta"]
        log_t = math.log(t_scale)
        delta = t_scale / log_t
        lo, hi = t_scale / 2.0 - delta, t_scale + delta
        step = min(0.05, delta / 20.0)
        if rep["grid_points"] != math.ceil((hi - lo) / step) + 1:
            raise Failure(f"grid_points {rep['grid_points']} for support [{lo}, {hi}] at step {step}")
        if not (math.isfinite(rep["numeric_moment"]) and rep["numeric_moment"] > 0.0):
            raise Failure(f"numeric moment {rep['numeric_moment']!r}")
        moment, zeta, mollifier = _module("moment"), _module("zeta"), _module("mollifier")
        weight = moment.SmoothWeight(t_scale)
        _close("w_hat(0) against plateau length + delta", moment.w_hat_zero(weight),
               t_scale / 2.0 + delta, 1e-8)

        rng = self._rng(op)
        ts = [rng.uniform(lo + 1.0, t_scale / 2.0 - 1.0), rng.uniform(t_scale / 2.0 + 1.0, t_scale - 1.0),
              rng.uniform(t_scale + 1.0, hi - 1.0)]
        sigma0 = 0.5 - r / log_t
        order = len(prm["Q"]) - 1
        jets = zeta.zeta_line(sigma0, np.array(ts), order=order, factor=1.0)
        for k, t in enumerate(ts):
            s = mpmath.mpc(sigma0, t)
            for j in range(order + 1):
                want = mpmath.zeta(s, 1, j) / math.factorial(j)
                _close(f"zeta_line jet {j} at t={t:.6f}", jets[j, k], want, 1e-9)

        spec = mollifier.MollifierSpec(t_scale, theta, r, mollifier.Polynomial(prm["P"]))
        line = mollifier.mollifier_line(sigma0, np.array(ts), spec)
        m_len = mpmath.mpf(t_scale) ** theta
        h_max = int(math.floor(t_scale**theta))
        mu = mobius_table(h_max)
        shape = np.polynomial.Polynomial(prm["P"])
        for k, t in enumerate(ts):
            want = mpmath.fsum(
                mu[h] * mpmath.power(h, mpmath.mpc(-0.5, -t)) * shape(float(mpmath.log(m_len / h) / mpmath.log(m_len)))
                for h in range(1, h_max + 1) if mu[h]
            )
            _close(f"mollifier_line at t={t:.6f}", line[k], want, 1e-9)

        w = moment.smooth_weight(np.array(ts), weight)
        plateau_lo, plateau_hi = weight.plateau
        for k, t in enumerate(ts):
            if t < plateau_lo:
                want = _ramp(mpmath.mpf(t) - (plateau_lo - delta), delta)
            elif t > plateau_hi:
                want = _ramp((plateau_hi + delta) - mpmath.mpf(t), delta)
            else:
                want = 1
            _close(f"smooth_weight at t={t:.6f}", w[k], want, 1e-9)

        # the whole integral again, from the public pieces checked above,
        # combined and summed by the benchmark's own code
        grid = np.linspace(lo, hi, rep["grid_points"])
        jets = zeta.zeta_line(sigma0, grid, order=order, factor=1.0)
        v = sum(q_j * (-1.0 / log_t) ** j * math.factorial(j) * jets[j] for j, q_j in enumerate(prm["Q"]))
        f = moment.smooth_weight(grid, weight) * np.abs(v * mollifier.mollifier_line(sigma0, grid, spec)) ** 2
        rebuilt = (grid[1] - grid[0]) * (math.fsum(f) - 0.5 * (f[0] + f[-1]))
        _close("numeric moment against its rebuild", rep["numeric_moment"], rebuilt, MOMENT_REBUILD_TOL)

        if op.key == "T=1000":
            argv = list(op.target[1]) + ["--step", repr(step / 2.0)]
            half = _cli_json(cli_request(argv))
            _close("numeric moment at step h against h/2", rep["numeric_moment"], half["numeric_moment"], 1e-8)

    # zeros ------------------------------------------------------------------

    def _check_zeros(self, op, output):
        rep = _cli_json(output)
        tmin, tmax = op.params["tmin"], op.params["tmax"]
        zeros = rep["zeros"]
        expected = int(mpmath.nzeros(tmax)) - (int(mpmath.nzeros(tmin)) if tmin > 0 else 0)
        if rep["zero_count"] != len(zeros) or len(zeros) != expected:
            raise Failure(f"{len(zeros)} zeros (zero_count {rep['zero_count']}) in [{tmin}, {tmax}], "
                          f"mpmath.nzeros gives {expected}")
        for a, b in zip(zeros, zeros[1:]):
            if not b - a > 4e-6:
                raise Failure(f"zeros {a!r} and {b!r} are not distinct")
        if zeros and not (tmin < zeros[0] and zeros[-1] <= tmax):
            raise Failure(f"zeros outside [{tmin}, {tmax}]")
        for rho in zeros:
            # mpmath's float context first; arbitrary precision where it is unclear
            lo, hi = mpmath.fp.siegelz(rho - 2e-6), mpmath.fp.siegelz(rho + 2e-6)
            if not (lo * hi < 0 and min(abs(lo), abs(hi)) > 1e-9):
                lo, hi = mpmath.siegelz(rho - 2e-6), mpmath.siegelz(rho + 2e-6)
            if not lo * hi < 0:
                raise Failure(f"mpmath.siegelz has no sign change across {rho!r} +- 2e-6")

    _check_zeros_low = _check_zeros_high = _check_zeros

    # kappa ------------------------------------------------------------------

    def _check_optimize(self, op, output):
        rep = _cli_json(output)
        best = rep["best_params"]
        p, q, r, theta = best["P"], best["Q"], best["R"], best["theta"]
        if p[0] != 0.0 or math.fsum(p) != 1.0 or q[0] != 1.0:
            raise Failure(f"constraints violated: P(0)={p[0]!r}, P(1)={math.fsum(p)!r}, Q(0)={q[0]!r}")
        kappa = rep["best_kappa"]
        # kappa = 1 - log(c)/R, so c > 1 exactly when kappa < 1
        if not kappa < 1.0:
            raise Failure(f"kappa {kappa!r} implies c <= 1")
        levinson, mollifier = _module("levinson"), _module("mollifier")
        start = levinson.LevinsonParams(mollifier.Polynomial((0.0, 1.0)), mollifier.Polynomial((1.0, -1.0)),
                                        1.3, theta)
        kappa_start = levinson.kappa_lower_bound(levinson.c_constant_exact(start), 1.3)
        if not kappa >= kappa_start:
            raise Failure(f"kappa {kappa!r} below the baseline-embedding start point {kappa_start!r}")

    def _check_constant(self, op, output):
        rep = _cli_json(output)
        prm = op.params
        for field in ("c_exact", "c_quadrature"):
            _constant_verdict(field, rep[field], prm["P"], prm["Q"], prm["R"], prm["theta"])
        c = math.exp(prm["R"] * (1.0 - rep["kappa_bound"]))
        _constant_verdict("c implied by kappa_bound", c, prm["P"], prm["Q"], prm["R"], prm["theta"])

    def _check_grid_scan_r(self, op, output):
        if isinstance(output, OpError):
            raise Failure(f"request raised {output.message}")
        prm = op.params
        if [r for r, _ in output] != sorted(prm["R"]):
            raise Failure(f"grid rows {[r for r, _ in output]} do not match the requested R grid")
        for r, kappa in output:
            c = math.exp(r * (1.0 - kappa))
            _constant_verdict(f"c implied by kappa at R={r}", c, prm["P"], prm["Q"], r, prm["theta"])

    # pointwise --------------------------------------------------------------

    def _check_zeta(self, op, output):
        rep = _cli_json(output)
        s = op.params["s"]
        if _c(rep["s"]) != s:
            raise Failure(f"echoed s {rep['s']} is not the requested {s!r}")
        _close(f"zeta({s})", _c(rep["zeta"]), mpmath.zeta(mpmath.mpc(s.real, s.imag)), 1e-10)

    def _check_zeta_derivative(self, op, output):
        if isinstance(output, OpError):
            raise Failure(f"request raised {output.message}")
        s, k = op.params["s"], op.params["order"]
        _close(f"zeta^({k})({s})", output, mpmath.zeta(mpmath.mpc(s.real, s.imag), 1, k), 1e-10)

    def _check_lfun(self, op, output):
        rep = _cli_json(output)
        q, index, s = op.params["q"], op.params["index"], op.params["s"]
        value = _c(rep["l"])
        if (rep["q"], rep["index"], _c(rep["s"])) != (q, index, s):
            raise Failure(f"echoed request {rep['q']}, {rep['index']}, {rep['s']} differs")
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise Failure(f"L({s}) = {value!r}")
        if s.real > 1.0:
            # |L(s, chi)| lies between zeta(2 sigma)/zeta(sigma) and zeta(sigma)
            lo = float(mpmath.zeta(2 * s.real) / mpmath.zeta(s.real))
            if not lo <= abs(value) <= float(mpmath.zeta(s.real)):
                raise Failure(f"|L({s})| = {abs(value)!r} outside the Euler-product bounds")
        chi = _module("dirichlet").enumerate_characters(q)[index]
        chi_values = [complex(v) for v in chi.values()]
        want = self._l_value(q, s, chi_values, mpmath.fp)
        if not _rel(value, want) <= 1e-10:
            # double precision is not enough where L is small: decide at 20 digits
            want = self._l_value(q, s, chi_values, mpmath.mp)
            _close(f"L({s}, chi_{q},{index})", value, want, 1e-10)

    def _l_value(self, q: int, s: complex, chi_values: list[complex], ctx):
        """L(s, chi) = q^-s sum over a of chi(a) zeta(s, a/q), with mpmath's
        Hurwitz zeta in context ``ctx``; the Hurwitz values of one (q, s)
        serve every character mod q."""
        key = (q, s, ctx is mpmath.fp)
        if key not in self._hurwitz:
            z = ctx.mpc(s.real, s.imag)
            self._hurwitz[key] = [ctx.zeta(z, ctx.mpf(a) / q) for a in range(1, q + 1)]
        total = ctx.fsum(chi_values[a % q] * h for a, h in zip(range(1, q + 1), self._hurwitz[key]))
        return ctx.power(q, -ctx.mpc(s.real, s.imag)) * total

    def _check_chars(self, op, output):
        rep = _cli_json(output)
        q = op.params["q"]
        rows = rep["characters"]
        if rep["count"] != totient(q) or len(rows) != totient(q):
            raise Failure(f"{rep['count']} characters mod {q}, phi({q}) = {totient(q)}")
        divisors = [d for d in range(1, q + 1) if q % d == 0]
        conductors = [row["conductor"] for row in rows]
        for d in divisors:
            # characters of conductor d are induced by the primitive ones mod d
            if conductors.count(d) != primitive_count(d):
                raise Failure(f"{conductors.count(d)} characters mod {q} of conductor {d}, "
                              f"expected {primitive_count(d)}")
        if len(conductors) != sum(conductors.count(d) for d in divisors):
            raise Failure(f"a conductor does not divide {q}")
        if any(row["primitive"] != (row["conductor"] == q) for row in rows):
            raise Failure("primitive flag disagrees with the conductor")
        odd = sum(row["parity"] for row in rows)
        if odd != (totient(q) // 2 if q > 2 else 0):
            raise Failure(f"{odd} odd characters mod {q}")

    def _check_gauss(self, op, output):
        if isinstance(output, OpError):
            raise Failure(f"request raised {output.message}")
        q = op.params["q"]
        if len(output) != totient(q):
            raise Failure(f"{len(output)} Gauss sums mod {q}, phi({q}) = {totient(q)}")
        table = np.array([chi.values() for chi in _module("dirichlet").enumerate_characters(q)])
        units = np.array([math.gcd(n, q) == 1 for n in range(q)])
        primitive = np.ones(len(table), dtype=bool)
        for d in range(1, q):
            if q % d == 0:
                # chi is induced from modulus d when it is 1 on units = 1 mod d
                sel = units & (np.arange(q) % d == 1 % d)
                primitive &= ~np.all(np.abs(table[:, sel] - 1.0) < 1e-9, axis=1)
        for k in np.flatnonzero(primitive):
            _close(f"|tau(chi_{q},{k})|", abs(output[k]), math.sqrt(q), 1e-10)

    def _check_psi(self, op, output):
        rep = _cli_json(output)
        x = op.params["x"]
        if x not in self._psi:
            self._psi[x] = chebyshev_psi(x)
        _close(f"psi({x})", rep["psi"], self._psi[x], 1e-12)

    def _check_afe(self, op, output):
        if isinstance(output, OpError):
            raise Failure(f"request raised {output.message}")
        a, b, t = op.params["alpha"], op.params["beta"], op.params["t"]
        want = mpmath.zeta(mpmath.mpc(0.5 + a, t)) * mpmath.zeta(mpmath.mpc(0.5 + b, -t))
        _close(f"afe_pair at t={t}", output, want, 1e-3)

