"""Riemann zeta with analytic continuation, the completed xi function,
Hardy's Z, critical-line zero scanning, and the shifted approximate
functional equation for the product of two zeta values.

The single zeta engine is Euler-Maclaurin summation with Bernoulli
corrections, whose coefficients B_2k/(2k)! are rounded once from exact
rationals.  Values and derivatives are truncated-Taylor jets in a shift x:
every zeta, zeta^(k) and Hurwitz zeta value adds the same remainder jet
(_em_tail) to a head sum cut at _em_cut, N = max(20, ceil(|Im s|/2)), where
Backlund's bound on the remainder is at most 4.2e-12 for Re(s) >= 0;
Re(s) < 0 is reached by applying the functional equation to the jets.  The
remainder's bracket of Bernoulli corrections is a polynomial in s for each
N, so a chunk that shares the grid's phase table expands it once, at its
middle point, and every chunk of one shape shifts it to its points by one
product with a shared table of the offsets' powers (_em_tail).  Every
finite Dirichlet sum, zeta's heads, the moment's V zeta and the mollifier's
psi and B(s, chi), is one _dirichlet_jets call, real or complex coefficients
alike: per block of n, one phase table and one product per fixed group of
chunks, added in place into the |t|-sorted jets.  On an exact grid, whose
chunks all have the table's offsets to the bit (the moment's nodes lie on a
dyadic lattice for this), the products carry no rounding-correction column.
Complex log Gamma and psi (_loggamma, _digamma), for the reflection, xi,
Hardy's Z and the AFE, are numpy's own: Stirling's series with the same exact
Bernoulli numbers, one vectorized path for a point or a line.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConditioningError, DomainError, PoleError, finite


def _bernoulli(terms: int) -> list[Fraction]:
    """The exact Bernoulli numbers B_2k for k = 1 .. terms, from
    sum_{k <= m} C(m+1, k) B_k = 0 (m >= 1, B_0 = 1)."""
    b = [Fraction(1)]
    for m in range(1, 2 * terms + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b[2::2]


_EM_TERMS = 14
_B2K = _bernoulli(_EM_TERMS + 1)
# B_2k/(2k)!, each rounded once, of the _EM_TERMS corrections and of the first omitted one (B_30/30!)
_EM_COEFF, (_EM_OMITTED,) = np.split(
    np.array([float(b / math.factorial(2 * k)) for k, b in enumerate(_B2K, 1)]), [_EM_TERMS])
_EM_DEGREE = 2 * _EM_TERMS - 1  # of the tail's bracket, a polynomial in s + x (_em_bracket)
_EM_DROP = 2.0**-60  # the bracket's terms a shared expansion may drop, relative to it (_em_kept)
_EM_FACTOR = 0.5  # head terms per unit of max|t| (_em_cut)
# grid kernel: ordinates per |t|-sorted chunk, most terms per block of a phase table,
# and the byte budget of a group's stacked base weights, a direct table or a Hurwitz block
_CHUNK = 256
_NBLOCK = 8192
_STACK_BYTES = 2 << 20
# largest |t| at which zeta, Hurwitz zeta and Hardy's Z, and so a zero
# scan, are certified
Z_T_MAX = 1e5
# most points in one zero scan or moment grid: a scan of [0, Z_T_MAX] at the
# default step 0.05 has 2,000,001
GRID_MAX = 2_000_001
# log Gamma and psi move a point w with |w| < _GAMMA_SHIFT up by whole steps to
# Re w >= _GAMMA_SHIFT, then take Stirling's series in 1/w^2: rows B_2k/(2k(2k-1))
# (log Gamma) and B_2k/(2k) (psi) for k = 8 down to 1, as np.polyval reads them;
# at |w| = 7 they leave at most 4e-16 of log Gamma and 1.1e-15 of psi
_GAMMA_SHIFT = 7.0
_STIRLING = np.array([[float(_B2K[k - 1] / (2 * k * (2 * k - 1))) for k in range(8, 0, -1)],
                      [float(_B2K[k - 1] / (2 * k)) for k in range(8, 0, -1)]])
_HALF_LOG_2PI = 0.918938533204672742  # log(2 pi)/2 rounded once; math.log(2.0 * math.pi) / 2 is 1 ulp above


# ---------------------------------------------------------------------------
# log Gamma and psi, vectorized over any array of points


def _stirling_point(z: np.ndarray):
    """Where log Gamma and psi take Stirling's series, for z flattened:
    whether Re z < 0 (left, reflected to 1 - z), the point w = 1 - z there
    and z elsewhere, moved up by n whole steps as _GAMMA_SHIFT asks, and for
    the moved points (idx) their steps w + k, k < n (on marks k < n)."""
    left = z.real < 0.0
    w = np.where(left, 1.0 - z, z)
    n = np.where(np.abs(w) < _GAMMA_SHIFT, np.ceil(_GAMMA_SHIFT - w.real), 0.0)  # 0 for nan
    idx = np.flatnonzero(n)
    k = np.arange(n.max(initial=0.0))
    return left, w + n, idx, w[idx, None] + k, k < n[idx, None]


def _loggamma(z) -> np.ndarray:
    """log Gamma(z) over an array of complex z, in scipy.special.loggamma's
    branch: the analytic continuation from the positive axis, cut on the
    negative real axis, Im z = +0 and -0 taking the limits from above and
    below.  As log Gamma(conj z) = conj log Gamma(z), Im z < 0 is folded up.
    Stirling's series at the point w + n of _stirling_point, less
    log w(w+1)...(w+n-1) taken as half the log of the product of the squared
    moduli plus i times the sum of the arguments (no branch to track), is
    log Gamma(w); for Re z < 0, where w = 1 - z,
    log Gamma(z) = log pi - log sin(pi z) - log Gamma(1 - z) with
    log sin(pi z) = pi y - i pi x + log(1 - e^{2 pi i z}) - log 2 + i pi/2,
    the logarithm analytic on Im z > 0 that is 0 at z = 1/2, so no multiple
    of 2 pi i is added; e^{2 pi i z} takes x mod 1, so that a point near a
    negative integer keeps its digits.  Poles give inf or nan."""
    z = np.asarray(z, dtype=complex)
    shape, z = z.shape, z.reshape(-1)
    lower = np.signbit(z.imag)
    z = np.where(lower, z.conj(), z)
    left, w, idx, steps, on = _stirling_point(z)
    inv = 1.0 / w
    out = (w - 0.5) * np.log(w) - w + _HALF_LOG_2PI + inv * np.polyval(_STIRLING[0], inv / w)
    x, y = steps.real, steps.imag
    log_moduli = 0.5 * np.log(np.where(on, x * x + y * y, 1.0).prod(axis=1))
    out[idx] -= log_moduli + 1j * np.where(on, np.arctan2(y, x), 0.0).sum(axis=1)
    r = z[left]
    e = 2j * math.pi * (r.real - np.round(r.real)) - 2.0 * math.pi * r.imag
    log_sin = math.pi * r.imag - 1j * math.pi * r.real + np.log(-np.expm1(e)) + complex(-math.log(2.0), 0.5 * math.pi)
    out[left] = math.log(math.pi) - log_sin - out[left]
    return np.where(lower, out.conj(), out).reshape(shape)


def _digamma(z) -> np.ndarray:
    """psi(z) = Gamma'(z)/Gamma(z) over an array of z, real for real z: the
    derivative of _loggamma's series, less 1/w + ... + 1/(w+n-1) for a moved
    point, and psi(1 - z) - pi cot(pi z) for Re z < 0."""
    z = np.asarray(z)
    shape, z = z.shape, z.reshape(-1)
    left, w, idx, steps, on = _stirling_point(z)
    inv = 1.0 / w
    out = np.log(w) - 0.5 * inv - inv * inv * np.polyval(_STIRLING[1], inv * inv)
    out[idx] -= (1.0 / np.where(on, steps, np.inf)).sum(axis=1)
    r = z[left]
    out[left] -= math.pi / np.tan(math.pi * (r - np.round(r.real)))
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# jets: truncated Taylor expansions in the shift x, stored as coefficient
# rows f^{(j)}/j! of shape (order+1, n_points)


def _jet_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    order = a.shape[0] - 1
    out = np.zeros_like(a)
    for j in range(order + 1):
        for i in range(j + 1):
            out[j] += a[i] * b[j - i]
    return out


def _jet_mul_linear(a: np.ndarray, s: np.ndarray, c: float) -> np.ndarray:
    """Multiply jet a by the linear factor (s + x + c)."""
    out = a * (s + c)
    out[1:] += a[:-1]
    return out


def _jet_exp(a: np.ndarray) -> np.ndarray:
    """Jet of exp(f) from the jet of f, by k e_k = sum_i i f_i e_{k-i}."""
    out = np.zeros_like(a)
    out[0] = np.exp(a[0])
    for k in range(1, a.shape[0]):
        out[k] = sum(i * a[i] * out[k - i] for i in range(1, k + 1)) / k
    return out


def _em_bracket(s, base, order: int) -> np.ndarray:
    """Jets in x of the bracket 1/2 + sum_k B_2k/(2k)! (s+x)_{2k-1} b^{1-2k},
    in Horner form in b^{-2} with (s+x)_{2k+1} = (s+x)_{2k-1} (s+x+2k-1)(s+x+2k):
    a polynomial of degree _EM_DEGREE in s + x, whose row j reads no higher row."""
    inv_b2 = 1.0 / (base * base)
    rest = np.zeros((order + 1,) + s.shape, dtype=complex)
    rest[0] = _EM_COEFF[-1]
    for k in range(_EM_TERMS - 1, 0, -1):
        rest = _jet_mul_linear(_jet_mul_linear(rest, s, 2.0 * k - 1.0), s, 2.0 * k) * inv_b2
        rest[0] += _EM_COEFF[k - 1]
    rest = _jet_mul_linear(rest, s, 0.0) / base
    rest[0] += 0.5
    return rest


def _shift_table(x: np.ndarray, rows: int, order: int) -> np.ndarray:
    """C(m, j) x^{m-j}, shape (rows, order+1, x.size), 0 for j > m: what the
    Taylor coefficient c_m of a polynomial adds to its jet row j <= order at
    the shift x, with x's powers as repeated products (1, then 0, at x = 0)."""
    comb = np.array([[math.comb(m, j) for j in range(order + 1)] for m in range(rows)], dtype=float)
    power = np.maximum(np.arange(rows)[:, None] - np.arange(order + 1), 0)  # m - j, 0 where C(m, j) = 0
    return comb[:, :, None] * np.vander(x, rows, increasing=True).T[power]


def _em_kept(coeff: np.ndarray, reach: np.ndarray, order: int) -> np.ndarray:
    """Per anchor (a column c_m of the bracket's Taylor coefficients), the
    first M >= order with sum_{m > M} C(m, j) |c_m| reach^{m-j} <= 2^-60 |c_0|
    for every jet row j <= order: M = order at reach 0."""
    size = np.abs(coeff)
    terms = _shift_table(reach, coeff.shape[0], order) * size[:, None, :]
    dropped = np.cumsum(terms[::-1], axis=0)[::-1]  # row M: the sum over m >= M
    ok = np.all(dropped[order + 1 :] <= _EM_DROP * size[0], axis=1)  # dropping m > M, M = order .. rows-2
    return order + np.argmax(np.vstack([ok, np.ones(size.shape[1], dtype=bool)]), axis=0)  # M = rows-1 drops none


def _em_shifted(s, base, order: int, lead) -> np.ndarray:
    """The bracket's jets at the points of a line s, expanded at each anchor
    lead[i] to _EM_DEGREE and shifted to its group (_em_tail).

    In the |t|-sorted order of _dirichlet_jets each group is a run of points,
    and the runs of one length whose anchor sits at one place take their
    offsets eps_k = s - s_c from the first such run: on an exact grid these
    are every such run's own, to the bit, and otherwise they differ by the
    rounding of t.  Per run shape, one product of the anchors' coefficients
    c_m with one table C(m, j) eps_k^{m-j} gives every point's jets
    sum_m c_m (eps_k + x)^m.  At eps_k = 0, at an anchor or a lone point,
    every term but c_j is 0, so it keeps the bracket's own bits."""
    idx = np.argsort(np.abs(s.imag), kind="stable")  # _dirichlet_jets' order
    pos = np.empty_like(idx)
    pos[idx] = np.arange(s.size)
    starts = np.flatnonzero(np.diff(lead[idx], prepend=-1))  # each run's first place in that order
    anchors = lead[idx[starts]]
    sizes, at = np.diff(starts, append=s.size), pos[anchors] - starts  # each run's length, its anchor's place
    _, first, kind = np.unique(sizes * s.size + at, return_index=True, return_inverse=True)
    tables = [s[idx[starts[r] : starts[r] + sizes[r]]] - s[anchors[r]] for r in first]  # eps per run shape
    coeff = _em_bracket(s[anchors], base[anchors], max(order, _EM_DEGREE))
    kept = _em_kept(coeff, np.array([np.abs(eps).max() for eps in tables])[kind], order)
    top = kept.max()
    coeff[np.arange(coeff.shape[0])[:, None] > kept] = 0.0  # each group's dropped terms
    pieces, where = [], []
    for k, eps in enumerate(tables):
        runs = np.flatnonzero(kind == k)
        table = _shift_table(eps, top + 1, order).reshape(top + 1, -1)
        jets = (coeff[: top + 1, runs].T @ table).reshape(runs.size, order + 1, -1)
        pieces.append(jets.transpose(1, 0, 2).reshape(order + 1, -1))
        where.append((starts[runs, None] + np.arange(eps.size)).ravel())
    col = np.empty_like(idx)
    col[np.concatenate(where)] = np.arange(s.size)  # each sorted point's column in the pieces
    return np.concatenate(pieces, axis=1).take(col[pos], axis=1)


def _em_tail(s, base, order: int, lead=None) -> np.ndarray:
    """Euler-Maclaurin remainder of sum (m+a)^{-s-x} cut at base b = N + a.

    Jets in x of b^{1-s-x}/(s+x-1) + b^{-s-x}/2 plus the _EM_TERMS
    Bernoulli corrections B_2k/(2k)! (s+x)_{2k-1} b^{-s-x-2k+1}, with
    shape (order+1,) + the broadcast shape of s and b.

    The bracket (_em_bracket) is a polynomial in s + x for each b.  For a
    line of points s, lead[i] is the anchor s_c of point i's group, which
    shares b, as _dirichlet_jets returns it; a point with lead[i] = i
    (every point, when lead is None) is an anchor.  The bracket's Taylor
    coefficients c_m are built once per anchor, and each point takes its
    jets sum_m c_m (eps + x)^m, eps = s - s_c, keeping c_0 .. c_M for the
    first M >= order whose dropped terms are bounded below 2^-60 of the
    bracket (_em_kept): one product per shape of group, of the anchors'
    c_m with one shared table of eps's powers (_em_shifted).  An anchor and
    a lone point (M = order) get the bracket's own rows, to the bit; a call
    of lone points builds no table.  b^{-s-x}, the pole term b/(s+x-1) and
    their product with the bracket stay per point.
    """
    s, base = np.broadcast_arrays(np.asarray(s, dtype=complex), np.asarray(base))
    if lead is None or np.array_equal(lead, np.arange(s.size)):  # eps = 0 and M = order everywhere
        rest = _em_bracket(s, base, order)
    else:
        rest = _em_shifted(s, base, order, lead)
    log_b = np.log(base)
    b_pow = np.exp(-s * log_b)
    pow_jet = np.empty((order + 1,) + s.shape, dtype=complex)  # b^{-s-x}
    coeff = np.ones_like(log_b)
    for j in range(order + 1):
        pow_jet[j] = b_pow * coeff
        coeff = coeff * (-log_b / (j + 1))
    recip = 1.0 / (s - 1.0)
    pole = base * recip
    for j in range(order + 1):
        rest[j] += pole
        pole = -pole * recip
    return _jet_mul(pow_jet, rest)


def _em_tail_bound(sigma: float, t: float, base: float) -> float:
    """Backlund's bound on the error of _em_tail's value at s = sigma + it
    and base b (Edwards 1974, 6.4): |s+29|/(sigma+29) times the first
    omitted term |B_30/30! (s)_29 b^{-s-29}|, for sigma > -29."""
    s, k = complex(sigma, t), 2 * _EM_TERMS + 1
    with np.errstate(divide="ignore"):  # (s)_29 = 0 at s = 0, -1, .., -28, where the sum is exact
        log_poch = float(np.log(np.abs(s + np.arange(k))).sum())
    return abs(s + k) / (sigma + k) * abs(_EM_OMITTED) * math.exp(log_poch - (sigma + k) * math.log(base))


def _em_cut(t_max: float, factor: float = _EM_FACTOR) -> int:
    """Euler-Maclaurin truncation N = max(20, ceil(factor * t_max)) of a
    chunk of ordinates with largest |t| = t_max; at the default factor 1/2,
    _em_tail_bound is at most 4.2e-12 for sigma >= 0 (at sigma = 0, t = 1e5)."""
    return max(20, int(math.ceil(factor * t_max)))


def _log_weights(w0: np.ndarray, lnb: np.ndarray, cols: int) -> np.ndarray:
    """Columns w0 (-log n)^j / j! for j < cols, given log n, in w0's dtype."""
    w = np.empty((lnb.size, cols), dtype=w0.dtype)
    w[:, 0] = w0
    for j in range(1, cols):
        w[:, j] = w[:, j - 1] * (-lnb) / j
    return w


def _direct_jets(tc: np.ndarray, n: np.ndarray, w0: np.ndarray, order: int, terms: int) -> np.ndarray:
    """One chunk's jets at the ordinates tc over its first `terms` n, from its
    own phase table: one exponential per point and term, one product per block
    of at most _NBLOCK terms and _STACK_BYTES (larger ones fall out of cache)."""
    jets = np.zeros((order + 1, tc.size), dtype=complex)
    step = max(1, min(_NBLOCK, _STACK_BYTES // (16 * tc.size)))  # terms per block
    for b0 in range(0, terms, step):
        lnb = np.log(n[b0 : min(b0 + step, terms)])
        own = np.exp(-1j * np.outer(tc - tc[0], lnb))
        w = _log_weights(w0[b0 : b0 + lnb.size], lnb, order + 1)
        jets += (own @ (w * np.exp(-1j * tc[0] * lnb)[:, None])).T
    return jets


def _dirichlet_jets(sigma, t, n, coeff, order: int, cut, chunk: int = _CHUNK):
    """Jets sum_n coeff_n n^{-sigma-it} (-log n)^j / j! for j <= order.

    n holds ascending positive terms and coeff their weights (None for all
    ones).  The ordinates are taken in |t|-sorted chunks of the given size,
    and a chunk sums the terms n < cut(max|t| of the chunk); cut must not
    decrease with max|t|.  Returns the jets, of shape (order+1, len(t)),
    every point's cut, and every point's anchor for _em_tail (lead): the
    middle point of its chunk (the last, for a last chunk shorter than half)
    if the chunk shares the phase table below, the point itself otherwise
    (None for a call of one chunk: every point).

    The sum of a chunk with base ordinate t_c and offsets d_k = t_k - t_c
    is the phase table D[k, n] = n^{-i d_k} times the base weights
    W_c[n, j] = w_j(n) n^{-i t_c}, w_j(n) = coeff_n n^{-sigma} (-log n)^j / j!.
    On a uniform grid every chunk has the same offsets up to the rounding
    already in t, so one D, from the first chunk's offsets, serves them all.
    It is built once per block of _NBLOCK terms, row r a + b
    (r = ceil(sqrt(chunk))) as n^{-i d_{ra}} n^{-i d_b}: 2r exponentials per
    term instead of one per row.  A chunk shares D when its offsets are
    within 4 ulp of its max|t| of D's.  On an exact grid, such as the
    moment's lattice, every sharing chunk's offsets are D's to the bit, and
    W_c has the order+1 columns of the jets.  Otherwise the differences e_k
    are corrected to first order, n^{-i e_k} = 1 - i e_k log n: W_c carries
    one more column, and i (j+1) e_k times the order-(j+1) sum is added to
    the order-j one (to about 1e-14 relative).  The sharing chunks go in
    fixed groups whose W_c, each zero past its chunk's cut, fill at most
    _STACK_BYTES side by side and no more columns than D has rows; each
    group is one product D @ [W_c1 | W_c2 | ...], so memory stays flat
    however long the grid is.  The group's product takes its e_k correction,
    if any, in place, from the group's own ordinates, and is added into
    the jets, held in |t|-sorted order, by one add for the whole group; when
    that order is t's own (an ascending grid with t >= 0, as in the moment
    and the zero scan) those jets are returned as they are, otherwise they
    are scattered back once.  Any other chunk (irregular or crossing t = 0)
    goes through _direct_jets, and a call of one chunk returns from there
    before any of the sharing set-up is built.
    """
    t = np.asarray(t, dtype=float)
    idx = np.argsort(np.abs(t), kind="stable")
    count = -(-t.size // chunk)
    # the |t|-sorted ordinates, one row per chunk, the last row padded with nan
    ts = np.full(count * chunk, np.nan)
    ts[: t.size] = t[idx]
    ts = ts.reshape(count, chunk)
    tops = np.fmax.reduce(np.abs(ts), axis=1)  # max|t| per chunk; fmax skips the padding
    chunk_cuts = np.array([cut(top) for top in tops], dtype=float)
    cuts = np.empty(t.size)
    cuts[idx] = np.repeat(chunk_cuts, chunk)[: t.size]
    terms, base_t = np.searchsorted(n, chunk_cuts), ts[:, 0]
    w0 = n**-sigma if coeff is None else coeff * n**-sigma
    if count <= 1:  # nothing to share
        jets = np.zeros((order + 1, t.size), dtype=complex)
        if count:
            jets[:, idx] = _direct_jets(ts[0, : t.size], n, w0, order, int(terms[0]))
        return jets, cuts, None
    side = math.isqrt(chunk - 1) + 1
    delta = ts[0] - base_t[0]
    coarse, fine = delta[::side], delta[:side]
    ref = (coarse[:, None] + fine).ravel()[:chunk]
    shift = ts - base_t[:, None] - ref  # e_k, nan in the last chunk's padding
    share = np.fmax.reduce(np.abs(shift), axis=1) <= 4.0 * np.spacing(tops)
    # the correction column only where a sharing chunk's offsets are not D's to the bit
    cols = order + 1 + bool(np.fmax.reduce(np.abs(shift[share]), axis=None, initial=0.0))
    # the jets in |t|-sorted order, one row of `chunk` columns per chunk
    out = np.zeros((order + 1, count, chunk), dtype=complex)
    for c in np.flatnonzero(~share):
        tc = ts[c, : t.size - c * chunk]
        out[:, c, : tc.size] = _direct_jets(tc, n, w0, order, int(terms[c]))
    width = min(_NBLOCK, terms[share].max(initial=0))
    table = np.empty((coarse.size * fine.size, width), dtype=complex)
    per = max(1, min(chunk, _STACK_BYTES // (16 * max(width, 1))) // cols)  # chunks per group
    for b0 in range(0, terms[share].max(initial=0), _NBLOCK):
        lnb = np.log(n[b0 : b0 + _NBLOCK])
        w = _log_weights(w0[b0 : b0 + lnb.size], lnb, cols)
        ms = np.minimum(lnb.size, terms - b0)  # each chunk's terms in this block
        live = np.flatnonzero((ms > 0) & share)  # never empty below the largest shared cut
        m = ms[live].max()
        np.multiply(
            np.exp(-1j * np.outer(coarse, lnb[:m]))[:, None],
            np.exp(-1j * np.outer(fine, lnb[:m])),
            out=table.reshape(coarse.size, fine.size, width)[:, :, :m],
        )
        stacks = np.empty(m * per * cols, complex)  # one group's stacked W_c, reused by every group
        for g0 in range(0, live.size, per):
            group = live[g0 : g0 + per]
            m = ms[group].max()
            stack = stacks[: m * group.size * cols].reshape(m, -1, cols)
            phase = np.multiply.outer(lnb[:m], -1j * base_t[group], out=stack[:, :, 0])
            np.exp(phase, out=phase)  # n^{-i t_c}, in W_c's first column until the last product
            phase[np.arange(m)[:, None] >= ms[group]] = 0.0  # past each chunk's cut
            for j in range(cols - 1, -1, -1):
                np.multiply(w[:m, None, j], phase, out=stack[:, :, j])
            prod = (table[:chunk, :m] @ stack.reshape(m, -1)).reshape(chunk, group.size, cols)
            if cols > order + 1:  # in place: row j reads row j+1 before it changes
                e_k = shift[group].T
                for j in range(order + 1):
                    prod[:, :, j] += 1j * (j + 1) * e_k * prod[:, :, j + 1]
            rows = slice(group[0], group[-1] + 1) if group[-1] - group[0] < group.size else group
            out[:, rows] += prod[:, :, : order + 1].transpose(2, 1, 0)
    jets = out.reshape(order + 1, -1)[:, : t.size]
    # a sharing chunk's points take its middle point as their anchor, any other point itself
    middle = np.minimum(np.arange(count) * chunk + chunk // 2, t.size - 1)
    lead = np.empty(t.size, dtype=np.intp)
    lead[idx] = idx[np.where(np.repeat(share, chunk), np.repeat(middle, chunk), np.arange(count * chunk))[: t.size]]
    if np.array_equal(idx, np.arange(t.size)):  # t ascending in |t|: already in place
        return jets, cuts, lead
    unsorted = np.empty_like(jets)
    unsorted[:, idx] = jets
    return unsorted, cuts, lead


def _em_head(sigma, t, weight, order: int, factor: float = _EM_FACTOR, chunk: int = _CHUNK):
    """Euler-Maclaurin head sums along a line: the jets of
    sum_{n < N} weight(n) n^{-sigma-it} (-log n)^j / j! (weight None for
    all ones), each chunk cut at N = _em_cut(its max|t|, factor), every
    point's N, and its anchor for _em_tail (lead, from _dirichlet_jets).
    |t| above Z_T_MAX is refused before any term is built."""
    t = np.asarray(t, dtype=float)
    t_top = np.abs(t).max(initial=0.0)
    if not t_top <= Z_T_MAX:  # refuses nan too, before the terms are built
        raise DomainError(f"zeta certified only for |t| <= {Z_T_MAX:g}")
    n = np.arange(1.0, _em_cut(t_top, factor))
    coeff = None if weight is None else weight(n)
    return _dirichlet_jets(sigma, t, n, coeff, order, lambda top: _em_cut(top, factor), chunk)


def zeta_line(
    sigma: float,
    t: np.ndarray,
    order: int = 0,
    factor: float = _EM_FACTOR,
    chunk: int = _CHUNK,
) -> np.ndarray:
    """Euler-Maclaurin jets of zeta along a horizontal line.

    Returns an array of shape (order+1, len(t)) whose j-th row holds
    zeta^{(j)}(sigma + i t) / j!.  The ordinates are taken in |t|-sorted
    chunks of `chunk` points; each chunk sums n < N with
    N = max(20, ceil(factor * max|t|)) of the chunk and adds the
    Euler-Maclaurin remainder at N, whose 14 Bernoulli corrections leave
    at most 4.2e-12 by Backlund's bound at the default factor 1/2 (_em_cut),
    below the head's own rounding; a chunk that shares the phase table
    below builds their bracket once, at its middle point, and shifts it to
    its points by one product per chunk shape (_em_tail).  Every
    caller in the package uses the defaults; `factor` and `chunk` remain
    settable because the perfbench harness passes and reads them.

    The head sums are one _dirichlet_jets call.  On a uniform grid every
    chunk shares one phase table per block of n, built from the first
    chunk's offsets, and the chunks go in fixed groups, as many as
    _STACK_BYTES holds, of one matrix product each, added in place into
    the |t|-sorted jets; a grid whose offsets repeat to the bit (nodes
    k h on a dyadic lattice, as the moment's) needs no correction column
    in those products, and any other uniform grid (np.linspace, np.arange)
    carries one.  Irregular and sign-crossing chunks, and a call of one
    chunk such as one point, build their own tables, at most _STACK_BYTES
    at a time.

    |t| above Z_T_MAX is refused before any term is built.  Near the cap,
    against mpmath at 93 points (31 evenly spaced t in [99000, 1e5] at each
    sigma in {1/4, 1/2, 3/2}), the absolute error is at most 2.5e-9 and the
    relative error at most 1.0e-9 where |zeta| >= 0.1 (6.0e-9 over all 93).
    """
    t = np.asarray(t, dtype=float)
    jets, cuts, lead = _em_head(sigma, t, None, order, factor, chunk)
    return jets + _em_tail(sigma + 1j * t, cuts, order, lead)


def hurwitz_zeta(s: complex, a) -> np.ndarray:
    """Hurwitz zeta(s, a) = sum over m >= 0 of (m + a)^{-s}, s != 1.

    Vectorized over an array of real or complex offsets a with Re(a) > 0:
    the terms m < N = _em_cut(|Im s|) = max(20, ceil(|Im s|/2)), zeta's cut,
    summed in blocks of m that hold at most _STACK_BYTES across all
    offsets, plus the remainder at N + a.  |Im s| above Z_T_MAX is refused
    before any array is built; a value past the double range, such as
    (1/5)^{-s} at s = 451.5, is refused after.  Near the cap, against
    mpmath at 90 points (Im s in [99000, 1e5], Re s in {1/4, 1/2, 3/2},
    a in {1/7, 1/3, 2/3, 0.9, 1}), the relative error is at most 6.1e-10
    (5.4e-10 at N = ceil|Im s|: rounding, not truncation)."""
    s = complex(s)
    if s == 1.0:
        raise PoleError("hurwitz zeta pole at s=1")
    if not abs(s.imag) <= Z_T_MAX:  # refuses nan too, before the terms are built
        raise DomainError(f"hurwitz zeta certified only for |Im s| <= {Z_T_MAX:g}")
    a = np.asarray(a)
    if np.any(np.real(a) <= 0.0):
        raise DomainError("hurwitz zeta needs Re(a) > 0")
    n_cut = _em_cut(abs(s.imag))
    step = max(1, _STACK_BYTES // (16 * max(a.size, 1)))  # terms per block
    head = np.zeros(a.shape, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        for m0 in range(0, n_cut, step):
            m = np.arange(m0, min(m0 + step, n_cut), dtype=float)
            head += np.sum(np.exp(-s * np.log(m + a[..., None])), axis=-1)
        return finite(head + _em_tail(s, n_cut + a, 0)[0], f"hurwitz zeta at s = {s}")


def _reflect(s: complex, kappa: int, reflected: np.ndarray, log_q: float, log_scale: complex = 0.0) -> np.ndarray:
    """Jets in x of e^{log_scale} X(s+x) F(1-s-x), given those of F(1-s-x).

    X(w) = q^{1/2-w} 2^w pi^{w-1} sin(pi (w+kappa)/2) Gamma(1-w) is the factor
    of F(w) = X(w) F(1-w) for zeta (q = 1, kappa = 0) and, with the root number,
    for L(w, chi), chi primitive mod q of parity kappa.  The sine is a jet scaled
    by e^{-h}, h = pi |Im s| / 2; h and log_scale join the log of the other
    factors before one exponential.  Trivial zeros (s real, s + kappa even) give
    an exact 0; a value past the double range is a DomainError.
    """
    order = reflected.shape[0] - 1
    z = 0.5 * math.pi * (s + kappa)
    h = abs(z.imag)
    # log of q^{1/2-w} 2^w pi^{w-1} Gamma(1-w), w = s + x; the x^k coefficient of
    # log Gamma(1-s-x) is zeta(k, 1-s)/k for k >= 2
    log_jet = np.zeros(order + 1, dtype=complex)
    log_jet[0] = s * math.log(2.0) + (s - 1.0) * math.log(math.pi) + _loggamma(1.0 - s)
    log_jet[0] += (0.5 - s) * log_q + log_scale + h
    if order >= 1:
        log_jet[1] = math.log(2.0 * math.pi) - log_q - _digamma(1.0 - s)
    for k in range(2, order + 1):
        log_jet[k] = hurwitz_zeta(k, 1.0 - s) / k
    up, down = cmath.exp(1j * z - h), cmath.exp(-1j * z - h)
    sin_z, cos_z = (up - down) / 2j, (up + down) / 2.0
    cycle = (sin_z, cos_z, -sin_z, -cos_z)  # d^j/dz^j sin z
    sine = np.array(
        [cycle[j % 4] * (0.5 * math.pi) ** j / math.factorial(j) for j in range(order + 1)]
    )
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        jet = _jet_mul(_jet_mul(_jet_exp(log_jet), sine), reflected)
    if s.imag == 0.0 and s.real == round(s.real) and int(s.real + kappa) % 2 == 0:
        jet[0] = 0.0  # trivial zeros
    return finite(jet, f"the functional equation at s = {s}")


def _zeta_jet(s: complex, order: int) -> np.ndarray:
    """[zeta^{(j)}(s) / j! for j = 0..order] for any s != 1; Re(s) < 0 reflects through _reflect."""
    if s.real >= 0.0:
        return zeta_line(s.real, np.array([s.imag]), order)[:, 0]
    sign = (-1.0) ** np.arange(order + 1)
    return _reflect(s, 0, sign * zeta_line(1.0 - s.real, np.array([-s.imag]), order)[:, 0], 0.0)


def zeta(s: complex) -> complex:
    """zeta(s) for any complex s != 1.

    Re(s) >= 0: Euler-Maclaurin with N = max(20, ceil(|Im s|/2)), as in
    the moment; Re(s) < 0: the functional equation zeta(s) = X(s) zeta(1-s).
    """
    s = complex(s)
    if s == 1.0:
        raise PoleError("zeta pole at s=1")
    return complex(_zeta_jet(s, 0)[0])


def zeta_derivative(s: complex, order: int) -> complex:
    """zeta^{(order)}(s), read from the Euler-Maclaurin jet at s.

    Evaluation closer than 1e-3 to the pole at s=1 is refused as too
    ill-conditioned.  High orders lose relative accuracy in the strip,
    where the derivative is small next to the Euler-Maclaurin terms it
    sums: against mpmath at 0.3+7.3i the relative error is 1.1e-11 at
    order 6, 3.4e-11 at order 7 and 9.0e-11 at order 8 (1.1e-12 at order 8
    at 0.3+20i); at 2+3i every order up to 8 is within 1e-13.
    """
    s = complex(s)
    if order < 0 or order > 8:
        raise DomainError("derivative order must be in 0..8")
    if abs(s - 1.0) < 1e-3:
        raise ConditioningError("zeta derivative too close to the pole at s=1")
    return math.factorial(order) * complex(_zeta_jet(s, order)[order])


def xi_completed(s: complex) -> complex:
    """Completed xi(s) = (s-1) pi^{-s/2} Gamma(s/2+1) zeta(s); entire, xi(s) = xi(1-s).

    The gamma/pi factor is taken as one exponential of log-gamma, so it
    neither overflows nor underflows on its own (xi(400) ~ 1.2e278); for
    Re(s) < 0 it and s-1 join the exponent of _reflect, so xi(-301) ~ 2.2e192
    is finite though zeta(-301) is not.  At s = 1 and s = -2, -4, ... the
    product is a removable 0 * infinity (the zeta pole; the gamma poles at
    the trivial zeros), and there alone the value is xi(1-s).  A value past
    the double range (s >= 434 or s <= -433 on the real axis) is a DomainError.
    """
    s = complex(s)
    if s.imag == 0.0 and (s.real == 1.0 or (s.real <= -2.0 and s.real % 2.0 == 0.0)):
        return xi_completed(1.0 - s)
    # s Gamma(s/2)/2 = Gamma(s/2 + 1) absorbs the s=0 pole
    log_factor = complex(_loggamma(s / 2.0 + 1.0)) - s / 2.0 * math.log(math.pi)
    if s.real < 0.0:
        return complex(_reflect(s, 0, _zeta_jet(1.0 - s, 0), 0.0, log_factor + cmath.log(s - 1.0))[0])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        return finite(complex((s - 1.0) * np.exp(log_factor) * zeta(s)), f"xi(s) at s = {s}")


def _hardy_phase(t: np.ndarray) -> np.ndarray:
    """e^{i theta(t)}, the phase of pi^{-s/2} Gamma(s/2) at s = 1/2+it."""
    s = 0.5 + 1j * np.asarray(t, dtype=float)
    return np.exp(1j * np.imag(_loggamma(s / 2.0) - s / 2.0 * math.log(math.pi)))


def hardy_z_line(t: np.ndarray) -> np.ndarray:
    """Hardy's Z(t) = e^{i theta(t)} zeta(1/2+it) over an ordinate grid: real, with zeta(1/2)'s sign at 0."""
    t = np.asarray(t, dtype=float)
    line = zeta_line(0.5, t, 0)[0]  # refuses a height past Z_T_MAX or nan before the phase is built
    vals = _hardy_phase(t) * line
    residual = np.abs(vals.imag).max(initial=0.0)
    if residual >= 1e-6:
        raise ConditioningError(f"Z(t) imaginary residual {residual:.3e} signals accuracy loss")
    return vals.real


def zero_count_estimate(t_max: float) -> float:
    """Refined Riemann-von Mangoldt shape (T/2pi) log(T/2pi) - T/2pi."""
    if t_max <= 0:
        return 0.0
    u = t_max / (2.0 * math.pi)
    return u * math.log(u) - u


@dataclass(frozen=True)
class ZeroScanReport:
    t_min: float
    t_max: float
    step: float
    zero_count: int
    zeros: tuple[float, ...]
    estimate_n_t: float
    step_warning: bool = False


def count_critical_zeros(t_min: float, t_max: float, step: float) -> ZeroScanReport:
    """Scan Z(t) on a grid, then bisect all sign changes together to 1e-6.

    The range must lie in [0, Z_T_MAX], where Z is certified, and the grid
    must have at most GRID_MAX points; both are checked before the grid is
    built.  A step above 0.5 risks missing close zero pairs and is flagged
    in the report rather than rejected.
    """
    # written as not (...) so that a nan bound or step is refused too
    if not (0 <= t_min <= t_max <= Z_T_MAX and 0 < step < math.inf):
        raise DomainError(f"need 0 <= t_min <= t_max <= {Z_T_MAX:g} and step > 0")
    if not (t_max + step * 0.5 - t_min) / step <= GRID_MAX:  # np.arange's length below
        raise DomainError(f"a scan of [{t_min:g}, {t_max:g}] at step {step:g} exceeds {GRID_MAX} points")
    warning = step > 0.5
    if t_max == t_min:
        return ZeroScanReport(t_min, t_max, step, 0, (), zero_count_estimate(t_max), warning)
    grid = np.arange(t_min, t_max + step * 0.5, step)
    if grid[-1] > t_max:
        grid[-1] = t_max
    z = hardy_z_line(grid)
    flips = np.nonzero(np.sign(z[:-1]) * np.sign(z[1:]) < 0)[0]
    lo, hi, z_lo = grid[flips], grid[flips + 1], z[flips]
    # halve every bracket wider than 1e-6 together, one Z grid per halving
    while (live := np.flatnonzero(hi - lo > 1e-6)).size:
        mid = 0.5 * (lo[live] + hi[live])
        z_mid = hardy_z_line(mid)
        left = (z_lo[live] < 0) != (z_mid < 0)
        hi[live[left]] = mid[left]
        lo[live[~left]], z_lo[live[~left]] = mid[~left], z_mid[~left]
        hit = z_mid == 0.0  # an exact zero closes its bracket
        lo[live[hit]] = hi[live[hit]] = mid[hit]
    zeros = tuple(float(v) for v in 0.5 * (lo + hi))
    return ZeroScanReport(
        t_min, t_max, step, len(zeros), zeros, zero_count_estimate(t_max), warning
    )


# ---------------------------------------------------------------------------
# approximate functional equation for zeta(1/2+a+it) zeta(1/2+b-it)


@dataclass(frozen=True)
class AfeParams:
    alpha: complex
    beta: complex
    t: float
    truncation_length: int = 0  # 0 means the default 10 t

    def __post_init__(self):
        a, b = complex(self.alpha), complex(self.beta)
        # each check written as not (...) so that a nan is refused too
        if not (a.real < 0.5 and b.real < 0.5 and cmath.isfinite(a) and cmath.isfinite(b)):
            raise DomainError("shifts must be finite with Re(alpha), Re(beta) < 1/2")
        if a + b == 0:
            raise DomainError("alpha + beta = 0 degenerates the smoothing prefactor; "
                              "use a small offset such as alpha + beta = 1e-6")
        if not 10.0 <= self.t < math.inf:
            raise DomainError("afe assembly certified only for finite t >= 10")
        if not (self.truncation_length >= 0 and self.truncation_length % 1 == 0):
            raise DomainError("truncation_length must be a whole number >= 0 (0 means 10 t)")
        n = int(self.truncation_length or 10 * self.t)
        # afe_pair's (m, n) pairs with mn <= N number sum_m N // m, counted in O(sqrt N)
        root = math.isqrt(n)
        if 2 * sum(n // m for m in range(1, root + 1)) - root * root > GRID_MAX:
            raise DomainError(f"truncation length {n} gives more than {GRID_MAX} (m, n) pairs")
        object.__setattr__(self, "truncation_length", n)


def _gamma_ratio_weight(s, a: complex, b: complex, t: float):
    return np.exp(
        -s * math.log(math.pi)
        + _loggamma((0.5 + a + s + 1j * t) / 2.0)
        + _loggamma((0.5 + b + s - 1j * t) / 2.0)
        - _loggamma((0.5 + a + 1j * t) / 2.0)
        - _loggamma((0.5 + b - 1j * t) / 2.0)
    )


def _afe_v_table(shifts, t: float, x: np.ndarray) -> np.ndarray:
    """V_{a,b}(x, t) at the points x, one column per (a, b) in shifts, by
    contour quadrature on Re s = 1.

    The contour is cut at |Im s| = 14, where exp(1 - y^2) is below 1e-80,
    and carries 20 trapezoid nodes per unit of height (281 nodes).  The
    integrand is analytic and decays like exp(-y^2), so the trapezoid
    error falls off exponentially with the node spacing: at alpha = beta
    = 1e-3, t = 50, x = 1..2000, step 0.1 differs from step 0.005 (5601
    nodes) by at most 1.8e-13 where |V| is about 1, which is rounding;
    the discretisation error first shows at step 0.25 (1.2e-11) and is
    3.5e-6 at step 0.5.  The factor exp(-s log x) is built once for all
    columns.
    The quadratic prefactor in the smoothing function splits into the
    even kernel handled here plus an odd multiple of s whose summed
    contribution cancels exactly between the two assembled sums (up to
    residues of size exp(-t^2)); dropping it avoids a 1/(a+b)^2
    amplification that would destroy the conditioning of the assembly.
    """
    y = np.linspace(-14.0, 14.0, 281)
    s = 1.0 + 1j * y
    weights = np.full(y.size, y[1] - y[0])
    weights[[0, -1]] *= 0.5
    even = np.exp(s * s) / s * weights / (2.0 * math.pi)
    kernels = np.stack([even * _gamma_ratio_weight(s, a, b, t) for a, b in shifts], axis=1)
    log_x = np.log(np.asarray(x, dtype=float))
    out = np.empty((log_x.size, len(shifts)), dtype=complex)
    for b0 in range(0, log_x.size, 256):
        out[b0 : b0 + 256] = np.exp(-np.outer(log_x[b0 : b0 + 256], s)) @ kernels
    return out


def afe_x_factor(params: AfeParams) -> complex:
    """The gamma-ratio reflection factor multiplying the second sum: the
    V-weight's gamma ratio at s = -(alpha + beta)."""
    a, b = complex(params.alpha), complex(params.beta)
    return complex(_gamma_ratio_weight(-(a + b), a, b, params.t))


def afe_pair(params: AfeParams) -> complex:
    """Assemble the shifted approximate functional equation.

    Returns the truncated two-sum right-hand side approximating
    zeta(1/2+alpha+it) zeta(1/2+beta-it).  It sums the pairs mn <= N,
    about N log N of them; AfeParams refuses an N with more than GRID_MAX
    (N = 164,414 is the largest, a 145 MiB peak), so t above about 1.6e4
    needs an explicit shorter truncation_length.
    """
    a, b, t = complex(params.alpha), complex(params.beta), params.t
    n_max = int(params.truncation_length)
    x = np.arange(1, n_max + 1, dtype=float)
    v_one, v_two = _afe_v_table([(a, b), (-b, -a)], t, x).T
    # every pair (m, n) with mn <= n_max: m repeated n_max // m times,
    # n counting 1, 2, ... within each run of m
    counts = n_max // np.arange(1, n_max + 1)
    m = np.repeat(x, counts)
    n = np.arange(m.size) - np.repeat(np.cumsum(counts) - counts, counts) + 1.0
    prod = (m * n).astype(int) - 1
    phase = np.exp(-1j * t * (np.log(m) - np.log(n)))
    total = np.sum(m ** (-0.5 - a) * n ** (-0.5 - b) * phase * v_one[prod])
    total += afe_x_factor(params) * np.sum(m ** (-0.5 + b) * n ** (-0.5 + a) * phase * v_two[prod])
    return complex(total)
