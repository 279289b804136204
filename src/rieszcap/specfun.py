"""Gauss hypergeometric functions behind the closed forms of this package.

Gamma, digamma, Pochhammer and incomplete-beta values come from ``math``
and ``scipy.special``.  The 2F1 routines stay here because scipy cannot
do what two of them do:

- :func:`hyp2f1_1mz` takes w = 1-z itself, so an argument within rounding
  of z = 1 (the axis potential as R -> 1, the oracle's ring kernel as its
  two rings meet) keeps its distance to 1;
- :func:`hyp2f1_regularized` sums 2F1/Gamma(c) for every real c, the
  non-positive integers included, vectorized over z; it also sums a signed
  cap density's D F(z) + sum_i B_i [F(z) - F((1-g_i) z)] as one series.

:func:`hyp2f1_1mz` is a scalar loop of its own: a scalar call costs several
times as much through the vectorized series, and the oracle makes many.
Sources: Abramowitz & Stegun ch. 15, DLMF ch. 15.  Everything is pure and
reentrant.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import poch, psi, rgamma

__all__ = [
    "ConvergenceError",
    "hyp2f1_1mz",
    "hyp2f1_regularized",
]

_SERIES_TOL = 1e-16
_SERIES_MAX_TERMS = 100_000
_BLOCK_ELEMENTS = 1 << 15  # terms x points computed at once by a vectorised series


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to reach its tolerance."""


def _block_terms(points: int) -> int:
    """Terms per block for a series summed over ``points`` arguments at once:
    64, fewer when the points are many, so a block stays within
    _BLOCK_ELEMENTS values."""
    return max(4, min(64, _BLOCK_ELEMENTS // max(points, 1)))


def _is_nonpositive_integer(x: float, eps: float = 1e-12) -> bool:
    return x < eps and abs(x - round(x)) < eps


def _series_2f1(a: float, b: float, c: float, z: float) -> float:
    # plain Gauss series; caller guarantees convergence (|z| < 1 or a
    # terminating series, c not a non-positive integer).  Two extra small
    # terms guard against a single coefficient passing through zero.
    term = 1.0
    total = 1.0
    small = 0
    for n in range(_SERIES_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
        if abs(term) <= _SERIES_TOL * abs(total):
            small += 1
            if small >= 3:
                return total
        else:
            small = 0
    raise ConvergenceError(f"2F1 series stalled at a={a} b={b} c={c} z={z}")


def _hyp2f1_log_case(a: float, b: float, m: int, w: float) -> float:
    # c = a + b + m with integer m >= 0 and w = 1-z in (0, 0.3]:
    # A&S 15.3.10 (m=0) / 15.3.11 (m>0), series in w with log terms.
    lw = math.log(w)
    total = 0.0
    if m > 0:
        s1 = 0.0
        for n in range(m):
            s1 += (poch(a, n) * poch(b, n)
                   / (math.factorial(n) * poch(1.0 - m, n))) * w ** n
        total += (math.gamma(m) * math.gamma(a + b + m)
                  / (math.gamma(a + m) * math.gamma(b + m)) * s1)
    s2 = 0.0
    coef = 1.0 / math.factorial(m)  # (a+m)_n (b+m)_n / (n! (n+m)!)
    small = 0
    n = 0
    while n < _SERIES_MAX_TERMS:
        bracket = (lw - psi(n + 1.0) - psi(n + m + 1.0)
                   + psi(a + n + m) + psi(b + n + m))
        s2 += coef * bracket * w ** n
        # gauge by coef, not the term: the psi bracket can cross zero
        if abs(coef) * (abs(bracket) + 2.0) * w ** n <= _SERIES_TOL * max(abs(s2), 1e-300):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
        coef *= (a + m + n) * (b + m + n) / ((n + 1.0) * (n + m + 1.0))
        n += 1
    else:
        raise ConvergenceError(f"2F1 log-case series stalled at a={a} b={b} m={m} w={w}")
    sign = -1.0 if m % 2 else 1.0
    total -= sign * math.gamma(a + b + m) / (math.gamma(a) * math.gamma(b)) * w ** m * s2
    return total


def hyp2f1_1mz(a: float, b: float, c: float, w: float) -> float:
    """2F1(a, b; c; 1-w) evaluated from w = 1-z directly, 0 <= w <= 1.

    Callers close to z = 1 (e.g. the axis potential as R -> 1) lose the
    distance to 1 when they round z itself; passing w keeps full accuracy.
    At w = 0 this is the Gauss summation value (requires c - a - b > 0);
    above w = 0.3, or for a or b a non-positive integer, the Gauss series in
    z = 1-w; otherwise A&S 15.3.6 (15.3.10/15.3.11 for integer c-a-b), whose
    two terms cancel to ~1e-16/delta when c-a-b is within delta < 1e-5 of a
    nonzero integer.  c must not be a non-positive integer.
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"hyp2f1_1mz requires 0 <= w <= 1, got {w}")
    if _is_nonpositive_integer(a) or _is_nonpositive_integer(b):
        return _series_2f1(a, b, c, 1.0 - w)  # terminating series
    m = math.fsum((c, -a, -b))  # rounded once: Gamma(m) magnifies its error by 1/m
    if w == 0.0:
        if m <= 0.0:
            raise ValueError("2F1 diverges at z = 1 for c - a - b <= 0")
        return math.gamma(c) * math.gamma(m) / (math.gamma(c - a) * math.gamma(c - b))
    if w > 0.3:
        return _series_2f1(a, b, c, 1.0 - w)
    if abs(m - round(m)) > 1e-8:
        t1 = (math.gamma(c) * math.gamma(m) / (math.gamma(c - a) * math.gamma(c - b))
              * _series_2f1(a, b, 1.0 - m, w))
        t2 = (math.gamma(c) * math.gamma(-m) / (math.gamma(a) * math.gamma(b))
              * w ** m * _series_2f1(c - a, c - b, 1.0 + m, w))
        return t1 + t2
    mi = int(round(m))
    if mi < 0:
        # Euler transformation flips the sign of c-a-b
        return w ** m * hyp2f1_1mz(c - a, c - b, c, w)
    return _hyp2f1_log_case(a, b, mi, w)


def hyp2f1_regularized(a, b, c, z, scale=1.0, pairs=(), *, one_minus_z=None):
    """Regularized Gauss function: sum (a)_n (b)_n z^n / (Gamma(n+c) n!).

    Well defined for every real c; terms whose Gamma(n+c) sits at a pole
    contribute exactly zero, so non-positive integer c is fine (the sum
    then starts at n = 1-c).  Evaluated by its own series, never as
    2F1/Gamma(c).  `z` may be a scalar or ndarray with 0 <= z < 1.

    With a ``scale`` D and ``pairs`` (B_i, g_i), 0 <= g_i <= 1, it returns

        D F(z) + sum_i B_i [F(z) - F((1-g_i) z)]

    as one series whose n-th term is F's times D + sum_i B_i (1 - (1-g_i)^n),
    so no two sums cancel however small g_i is.

    Above z = 0.999 each term runs through :func:`hyp2f1_1mz` on 1 - z, and
    on 1 - (1-g_i) z = (1-z) + g_i z for the pairs, whose differences are
    taken directly.  ``one_minus_z``, when given, is that 1 - z formed by the
    caller without cancellation (a z rounded near 1 has lost it); it has z's
    shape.

    The series stops when three consecutive terms are small at all points of
    z at once, so a caller that needs one cap's bits passes one cap per call.
    """
    z_arr = np.asarray(z, dtype=float)
    if np.any((z_arr < 0.0) | (z_arr >= 1.0)):
        raise ValueError("hyp2f1_regularized requires 0 <= z < 1")
    scalar = z_arr.ndim == 0
    zv = np.atleast_1d(z_arr)
    wv = 1.0 - zv if one_minus_z is None else np.atleast_1d(np.asarray(one_minus_z, dtype=float))

    near_one = zv > 0.999
    if np.any(near_one):
        # the direct series needs ~37/(1-z) terms here, past the term cap;
        # c is finite-Gamma in every caller that can reach this region, so
        # the transformation-based 2F1 is safe (and still reported if not)
        if _is_nonpositive_integer(c):
            raise ConvergenceError(
                "regularized 2F1 with non-positive integer c cannot be summed for z > 0.999")
        rg = rgamma(c)
        out = np.empty_like(zv)
        zn, wn = zv[near_one], wv[near_one]
        f = np.array([hyp2f1_1mz(a, b, c, float(w)) * rg for w in wn])
        out[near_one] = scale * f
        for B, g in pairs:
            # (1-g) z stays comparable to 1-z, so this difference does not cancel
            out[near_one] += B * (f - hyp2f1_regularized(a, b, c, (1.0 - g) * zn,
                                                         one_minus_z=wn + g * zn))
        if np.any(~near_one):
            out[~near_one] = hyp2f1_regularized(a, b, c, zv[~near_one], scale, pairs)
        return float(out[0]) if scalar else out.reshape(z_arr.shape)

    if _is_nonpositive_integer(c):
        n_start = int(round(1.0 - c))  # first index with n + c = 1
    else:
        n_start = 0
    # the weight of term n is scale + sum_i B_i (1 - (1-g_i)^n); g_i = 1 is taken as
    # the double below it, as any 1 - g_i < 2^-53 moves a weight by under an ulp
    B, g = np.reshape(np.asarray(pairs, dtype=float), (-1, 2)).T
    log_c2 = np.log1p(-np.minimum(g, 1.0 - 2.0 ** -53))
    weights = lambda k: scale - np.expm1(np.multiply.outer(k, log_c2)) @ B

    # seed term t_{n_start} = (a)_n (b)_n z^n / (n! Gamma(n+c))
    seed = poch(a, n_start) * poch(b, n_start) / math.factorial(n_start)
    seed *= rgamma(n_start + c)
    term = seed * zv ** n_start
    total = term * weights(float(n_start))
    small = 0
    n = n_start
    block = _block_terms(zv.size)
    # a block of terms at a time; the stopping rule (three consecutive terms
    # below tol * max|total|) is applied term by term inside the block
    while n - n_start < _SERIES_MAX_TERMS:
        k = n + np.arange(block + 1, dtype=float)
        ratio = (a + k) / (k + 1.0) * ((b + k) / (k + c))  # term n+1 over term n, times z
        plain = term * np.cumprod(ratio[:block, None] * zv, axis=0)
        # a plain sum skips the weighting pass (about a sixth of its time)
        terms = plain * weights(k[1:])[:, None] if pairs or scale != 1.0 else plain
        totals = total + np.cumsum(terms, axis=0)
        settled = (np.abs(terms).max(axis=1)
                   <= _SERIES_TOL * np.maximum(np.abs(totals).max(axis=1), 1e-300))
        for j, ok in enumerate(settled):
            small = small + 1 if ok else 0
            if small >= 3:
                # the terms past the stop, summed as the geometric tail of the
                # next term ratio (their sum, ~tol/(1-z), is the truncation error)
                rho = ratio[j + 1] * zv
                tail = np.where(np.abs(rho) < 1.0, terms[j] * rho / (1.0 - rho), 0.0)
                total = totals[j] + tail
                return float(total[0]) if scalar else total.reshape(z_arr.shape)
        term, total = plain[-1], totals[-1]
        n += block
    raise ConvergenceError(
        f"regularized 2F1 series stalled at a={a} b={b} c={c} max z={np.max(zv)}")
