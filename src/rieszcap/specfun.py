"""Gauss hypergeometric functions behind the closed forms of this package.

Gamma, digamma, Pochhammer and incomplete-beta values come from ``math``
and ``scipy.special``.  Two 2F1 routines stay here because scipy cannot do
what they do:

- :func:`hyp2f1_1mz` takes w = 1-z itself, so an argument within rounding
  of z = 1 (the axis potential as R -> 1, the oracle's ring kernel as its
  two rings meet) keeps its distance to 1;
- :func:`hyp2f1_regularized` gives the cap densities' 2F1(1, b; c; z)/Gamma(c),
  0 < c <= 1, in closed form through the regularized incomplete beta
  (DLMF 8.17.8, 8.17.20), vectorized over z and read from 1 - z; it also
  forms a signed cap density's D F(z) + sum_i B_i [F(z) - F((1-g_i) z)]
  from nonnegative parts, so no two values cancel however small g_i is.

:func:`hyp2f1_1mz` is a scalar loop of its own, as the oracle makes many
scalar calls.  Sources: Abramowitz & Stegun ch. 15, DLMF ch. 8 and 15.
Everything is pure and reentrant.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc, poch, psi, rgamma

__all__ = [
    "ConvergenceError",
    "hyp2f1_1mz",
    "hyp2f1_regularized",
]

_SERIES_TOL = 1e-16
_SERIES_MAX_TERMS = 100_000
_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)  # the brace's rule for I_z - I_z' on [-1, 1]


class ConvergenceError(RuntimeError):
    """A series or quadrature failed to reach its tolerance."""


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
    """Regularized Gauss function F(z) = 2F1(1, b; c; z)/Gamma(c), 0 < c <= 1, in
    closed form through the regularized incomplete beta (DLMF 8.17.8 with 8.17.20):

        F(z) = 1/Gamma(c) + K p(z) I_z(c, e),  e = b + 1 - c,  K = Gamma(e)/Gamma(b),
        p(z) = z^{1-c} (1-z)^{-e}.

    ``z`` is a number or an ndarray, 0 <= z < 1; an a other than 1 or a c
    outside (0, 1] raises ValueError.  ``one_minus_z``, of z's shape, is 1 - z
    formed by the caller without cancellation (a z rounded near 1 has lost it).

    With a ``scale`` D and ``pairs`` (B_i, g_i), 0 <= g_i <= 1 (g_i = 1 taken
    as the double below it), it returns the brace

        D F(z) + sum_i B_i [F(z) - F(z_i')],   z_i' = (1-g_i) z,  1 - z_i' = (1-z) + g_i z.

    Each difference is K [(p(z) - p(z_i')) I_z + p(z_i') (I_z - I_{z_i'})]: 1/Gamma(c)
    cancels exactly, and both parts are nonnegative.  p(z) - p(z_i') comes from
    expm1 of its log1p log-ratio.  I_z - I_{z_i'}, when g_i < 1/2 and g_i z < 1 - z,
    comes from a 32-point Gauss-Legendre rule in y on [0, g_i] of
    z^c (1-y)^{c-1} ((1-z) + z y)^{e-1} / B(c, e), whose singularities lie
    beyond the interval's length from it; elsewhere the first part outweighs
    the rounding of I_z - I_{z_i'} taken as it stands.  At each point the sum
    takes the grouping with the smaller sum of absolute parts: the one above,
    or Phi F(z) - sum_i B_i F(z_i') with Phi = D + sum_i B_i.
    """
    if a != 1.0 or not 0.0 < c <= 1.0:
        raise ValueError(f"hyp2f1_regularized needs a = 1 and 0 < c <= 1, got a={a}, c={c}")
    shape = np.shape(z)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any((z < 0.0) | (z >= 1.0)):
        raise ValueError("hyp2f1_regularized requires 0 <= z < 1")
    w = 1.0 - z if one_minus_z is None else np.atleast_1d(np.asarray(one_minus_z, dtype=float))
    e = b + 1.0 - c
    K, rg = math.exp(math.lgamma(e) - math.lgamma(b)), float(rgamma(c))
    # p = z^{1-c} w^{-e}, w^{-e} as w^c w^{-(b+1)}: exact exponents, which |log w| would magnify
    power = lambda x, gap: x ** (1.0 - c) * gap ** c * gap ** -(b + 1.0)
    p, I = power(z, w), betainc(c, e, z)
    F = rg + K * p * I
    out, parts = scale * F, np.abs(scale * F)
    if pairs:
        phi = math.fsum([scale, *(B for B, _ in pairs)])
        by_phi, phi_parts = phi * F, np.abs(phi * F)
        for B, g in pairs:
            g = min(g, 1.0 - 2.0 ** -53)
            zg, wg = (1.0 - g) * z, w + g * z
            pg, Ig = power(zg, wg), betainc(c, e, zg)
            dp = -p * np.expm1((1.0 - c) * math.log1p(-g) - e * np.log1p(g * z / w))  # p - pg
            KdI = K * (I - Ig)
            near = (g < 0.5) & (g * z < w)
            if np.any(near):  # K / B(c, e) = b / Gamma(c)
                y, zn = g / 2.0 * (1.0 + _GL_X), z[near]
                gap = w[near][:, None] + zn[:, None] * y
                KdI[near] = (b * rg * g / 2.0 * zn ** c
                             * ((gap ** b * gap ** -c) @ ((1.0 - y) ** (c - 1.0) * _GL_W)))
            diff = dp * K * I + pg * KdI  # F(z) - F(zg), two nonnegative parts
            out, parts = out + B * diff, parts + abs(B) * diff
            Fg = rg + K * pg * Ig
            by_phi, phi_parts = by_phi - B * Fg, phi_parts + abs(B) * Fg
        out = np.where(parts <= phi_parts, out, by_phi)
    return float(out[0]) if shape == () else out.reshape(shape)
