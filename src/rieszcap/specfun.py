"""Scalar special functions backing every closed form in this package.

All routines are implemented from scratch on top of ``math``/``numpy`` so
the potential-theory formulas do not inherit untested behaviour from an
external special-function library; the test suite checks each one against
independent series and quadrature oracles.  Classical sources: Abramowitz &
Stegun ch. 6 and 15, DLMF ch. 5/8/15, Numerical Recipes sec. 6.4.

Everything is pure and reentrant.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "ConvergenceError",
    "log_gamma",
    "gamma",
    "rgamma",
    "digamma",
    "pochhammer",
    "hyp2f1",
    "hyp2f1_1mz",
    "hyp2f1_regularized",
    "beta_inc",
    "beta_inc_reg",
]

EULER_GAMMA = 0.577215664901532860606512090082

_HALF_LOG_2PI = 0.918938533204672741780329736406

# Godfrey's g=7, n=9 Lanczos coefficients (as used by GSL / Boost).
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Bernoulli terms B_{2n}/(2n(2n-1)) of the Stirling series.
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

_SERIES_TOL = 1e-16
_SERIES_MAX_TERMS = 100_000


class ConvergenceError(RuntimeError):
    """A series or continued fraction failed to reach its tolerance."""


def _is_nonpositive_integer(x: float, eps: float = 1e-12) -> bool:
    return x < eps and abs(x - round(x)) < eps


def _two_product(a: float, b: float) -> tuple[float, float]:
    # Dekker/Veltkamp exact product: a*b = p + err.
    p = a * b
    s = 134217729.0 * a  # 2^27 + 1
    ah = s - (s - a)
    al = a - ah
    s = 134217729.0 * b
    bh = s - (s - b)
    bl = b - bh
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def _lgamma_stirling(x: float) -> float:
    # x >= 13.  The dominant (x-1/2)log(x) term is assembled in compensated
    # arithmetic and log(x) gets one Newton refinement, otherwise plain
    # rounding already exceeds the 1e-13 contract near x ~ 170.
    y0 = math.log(x)
    corr = x * math.exp(-y0) - 1.0
    p, perr = _two_product(x - 0.5, y0)
    pc = (x - 0.5) * corr
    series = 0.0
    t = 1.0 / x
    tt = t * t
    for coef in _STIRLING:
        series += coef * t
        t *= tt
    return math.fsum([p, perr, pc, -x, _HALF_LOG_2PI, series])


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0.

    Lanczos (g=7) below x=13, compensated Stirling above; the relative
    error of exp(log_gamma(x)) against Gamma(x) stays below 1e-13 on
    [1e-3, 170].
    """
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    if x >= 13.0:
        return _lgamma_stirling(x)
    if x < 0.5:
        # reflection keeps the Lanczos argument away from 0
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, 9):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (z + 0.5) * math.log(t) - t + math.log(acc)


def gamma(x: float) -> float:
    """Gamma(x) for real non-pole x (negative non-integers via reflection)."""
    if x > 0.0:
        if x > 171.6:
            raise OverflowError(f"gamma({x}) overflows a double")
        return math.exp(log_gamma(x))
    if _is_nonpositive_integer(x):
        raise ValueError(f"gamma pole at x = {x}")
    # Gamma(x) Gamma(1-x) = pi / sin(pi x)
    return math.pi / (math.sin(math.pi * x) * math.exp(log_gamma(1.0 - x)))


def rgamma(x: float) -> float:
    """1/Gamma(x); entire, exactly 0 at the poles x = 0, -1, -2, ..."""
    if _is_nonpositive_integer(x):
        return 0.0
    if x > 0.0:
        if x > 171.6:
            return 0.0  # underflow: Gamma overflows, reciprocal is ~0
        return math.exp(-log_gamma(x))
    return math.sin(math.pi * x) * math.exp(log_gamma(1.0 - x)) / math.pi


def digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x), x > 0; recurrence + asymptotic series."""
    if not x > 0.0:
        raise ValueError(f"digamma requires x > 0, got {x}")
    value = 0.0
    while x < 10.0:
        value -= 1.0 / x
        x += 1.0
    r = 1.0 / x
    value += math.log(x) - 0.5 * r
    r2 = r * r
    # psi(x) ~ log x - 1/(2x) - sum B_{2n}/(2n x^{2n})
    value -= r2 * (1.0 / 12.0 - r2 * (1.0 / 120.0 - r2 * (1.0 / 252.0 - r2 * (
        1.0 / 240.0 - r2 * (1.0 / 132.0 - r2 * (691.0 / 32760.0 - r2 / 12.0))))))
    return value


def pochhammer(a: float, n: int) -> float:
    """Rising factorial (a)_n = a (a+1) ... (a+n-1), with (a)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    out = 1.0
    for k in range(n):
        out *= a + k
    return out


def _series_2f1(a: float, b: float, c: float, z: float) -> float:
    # plain Gauss series; caller guarantees convergence (|z| < 1, c not a
    # non-positive integer).  Two extra small terms guard against a single
    # coefficient passing through zero.
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
            s1 += (pochhammer(a, n) * pochhammer(b, n)
                   / (math.factorial(n) * pochhammer(1.0 - m, n))) * w ** n
        total += gamma(m) * gamma(a + b + m) / (gamma(a + m) * gamma(b + m)) * s1
    s2 = 0.0
    coef = 1.0 / math.factorial(m)  # (a+m)_n (b+m)_n / (n! (n+m)!)
    small = 0
    n = 0
    while n < _SERIES_MAX_TERMS:
        bracket = (lw - digamma(n + 1.0) - digamma(n + m + 1.0)
                   + digamma(a + n + m) + digamma(b + n + m))
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
    total -= sign * gamma(a + b + m) / (gamma(a) * gamma(b)) * w ** m * s2
    return total


def hyp2f1(a: float, b: float, c: float, z: float) -> float:
    """Gauss hypergeometric function 2F1(a, b; c; z) for real z, |z| < 1.

    Strategy: direct series for z <= 0.7 (and down to -0.7), Pfaff
    transformation for z < -0.7, and the 1-z linear transformations
    (A&S 15.3.6, or 15.3.10/15.3.11 when c-a-b is an integer) for
    z > 0.7.  When c-a-b lies within delta < 1e-5 of a nonzero integer
    the two 15.3.6 terms cancel to ~1e-16/delta; exact integers take the
    dedicated log-series branch.

    Raises ValueError for |z| >= 1 and for c a non-positive integer (use
    :func:`hyp2f1_regularized` there, which stays finite).
    """
    if _is_nonpositive_integer(a) or _is_nonpositive_integer(b):
        # terminating series: a polynomial in z, valid for every z
        n_top = int(round(-min(a, b)))
        total = 1.0
        term = 1.0
        for k in range(n_top):
            term *= (a + k) * (b + k) / ((c + k) * (k + 1.0)) * z
            total += term
        return total
    if _is_nonpositive_integer(c):
        raise ValueError(
            f"2F1 pole: c = {c} is a non-positive integer; use hyp2f1_regularized")
    if abs(z) >= 1.0:
        raise ValueError(f"hyp2f1 requires |z| < 1, got z = {z}")
    if z == 0.0:
        return 1.0
    if z < -0.7:
        # Pfaff: maps (-1, -0.7) into (0.41, 0.5)
        return (1.0 - z) ** (-a) * hyp2f1(a, c - b, c, z / (z - 1.0))
    if z <= 0.7:
        return _series_2f1(a, b, c, z)
    return hyp2f1_1mz(a, b, c, 1.0 - z)


def hyp2f1_1mz(a: float, b: float, c: float, w: float) -> float:
    """2F1(a, b; c; 1-w) evaluated from w = 1-z directly, 0 <= w < 1.

    Callers close to z = 1 (e.g. the axis potential as R -> 1) lose the
    distance to 1 when they round z itself; passing w keeps full accuracy.
    At w = 0 this is the Gauss summation value (requires c - a - b > 0).
    """
    if not 0.0 <= w < 1.0:
        raise ValueError(f"hyp2f1_1mz requires 0 <= w < 1, got {w}")
    if _is_nonpositive_integer(a) or _is_nonpositive_integer(b):
        return hyp2f1(a, b, c, 1.0 - w)  # terminating series
    m = c - a - b
    if w == 0.0:
        if m <= 0.0:
            raise ValueError("2F1 diverges at z = 1 for c - a - b <= 0")
        return gamma(c) * gamma(m) / (gamma(c - a) * gamma(c - b))
    if w > 0.3:
        return _series_2f1(a, b, c, 1.0 - w)
    if abs(m - round(m)) > 1e-8:
        t1 = gamma(c) * gamma(m) / (gamma(c - a) * gamma(c - b)) * _series_2f1(a, b, 1.0 - m, w)
        t2 = (gamma(c) * gamma(-m) / (gamma(a) * gamma(b))
              * w ** m * _series_2f1(c - a, c - b, 1.0 + m, w))
        return t1 + t2
    mi = int(round(m))
    if mi < 0:
        # Euler transformation flips the sign of c-a-b
        return w ** m * hyp2f1_1mz(c - a, c - b, c, w)
    return _hyp2f1_log_case(a, b, mi, w)


def hyp2f1_regularized(a, b, c, z):
    """Regularized Gauss function: sum (a)_n (b)_n z^n / (Gamma(n+c) n!).

    Well defined for every real c; terms whose Gamma(n+c) sits at a pole
    contribute exactly zero, so non-positive integer c is fine (the sum
    then starts at n = 1-c).  Evaluated by its own series, never as
    2F1/Gamma(c).  `z` may be a scalar or ndarray with |z| < 1; positive z
    gives a positive-term series, negative z alternates but stays stable.
    """
    z_arr = np.asarray(z, dtype=float)
    if np.any(np.abs(z_arr) >= 1.0):
        raise ValueError("hyp2f1_regularized requires |z| < 1")
    scalar = z_arr.ndim == 0
    zv = np.atleast_1d(z_arr)

    near_one = np.abs(zv) > 0.999
    if np.any(near_one):
        # the direct series needs ~37/(1-z) terms here, past the term cap;
        # c is finite-Gamma in every caller that can reach this region, so
        # the transformation-based 2F1 is safe (and still reported if not)
        if _is_nonpositive_integer(c):
            raise ConvergenceError(
                "regularized 2F1 with non-positive integer c cannot be summed for |z| > 0.999")
        rg = rgamma(c)
        out = np.empty_like(zv)
        out[near_one] = [hyp2f1(a, b, c, float(zz)) * rg for zz in zv[near_one]]
        if np.any(~near_one):
            out[~near_one] = hyp2f1_regularized(a, b, c, zv[~near_one])
        return float(out[0]) if scalar else out.reshape(z_arr.shape)

    if _is_nonpositive_integer(c):
        n_start = int(round(1.0 - c))  # first index with n + c = 1
    else:
        n_start = 0

    # seed term t_{n_start} = (a)_n (b)_n z^n / (n! Gamma(n+c))
    seed = pochhammer(a, n_start) * pochhammer(b, n_start) / math.factorial(n_start)
    seed *= rgamma(n_start + c)
    term = seed * zv ** n_start
    total = term.copy()
    small = 0
    n = n_start
    while n - n_start < _SERIES_MAX_TERMS:
        term = term * ((a + n) * (b + n) / ((n + 1.0) * (n + c))) * zv
        total += term
        n += 1
        scale = np.max(np.abs(total))
        if np.max(np.abs(term)) <= _SERIES_TOL * max(scale, 1e-300):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    else:
        raise ConvergenceError(
            f"regularized 2F1 series stalled at a={a} b={b} c={c} max|z|={np.max(np.abs(zv))}")
    return float(total[0]) if scalar else total.reshape(z_arr.shape)


def _beta_cont_frac(a: float, b: float, x: float) -> float:
    # modified Lentz evaluation of the NR continued fraction for I(x;a,b)
    max_it, eps, fpmin = 500, 3e-16, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_it + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ConvergenceError(f"incomplete beta continued fraction stalled at a={a} b={b} x={x}")


def beta_inc_reg(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta I(x; a, b), continued-fraction evaluation.

    Uses the symmetry I(x;a,b) = 1 - I(1-x;b,a) with the direct branch
    taken for x < a/(a+b), which keeps both continued fractions inside
    their guaranteed convergence region.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValueError(f"beta_inc_reg requires a, b > 0, got a={a} b={b}")
    if x < 0.0 or x > 1.0:
        raise ValueError(f"beta_inc_reg requires 0 <= x <= 1, got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x)
                     + log_gamma(a + b) - log_gamma(a) - log_gamma(b))
    if x < a / (a + b):
        return front * _beta_cont_frac(a, b, x) / a
    return 1.0 - front * _beta_cont_frac(b, a, 1.0 - x) / b


def beta_inc(x: float, a: float, b: float) -> float:
    """Unregularized incomplete beta B(x; a, b) = int_0^x v^{a-1}(1-v)^{b-1} dv."""
    return beta_inc_reg(x, a, b) * math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))
