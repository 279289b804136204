"""Geometry and baseline potential theory of the unit d-sphere.

Rotationally invariant fields reduce everything to the height coordinate
u in [-1, 1]: the surface measure decomposes as

    d sigma_d = (omega_{d-1}/omega_d) (1-u^2)^{d/2-1} du d sigma_{d-1},

and all potentials become 1-d integrals against the Funk-Hecke ring kernel
``kappa``.  Measures are normalized against the unit surface measure
sigma_d throughout, and quadrature weights include the full surface factor
(omega ratio and Jacobian), so plain weight sums are sigma_d masses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dsterf
from scipy.special import psi

from rieszcap.specfun import ConvergenceError, hyp2f1

__all__ = [
    "Params",
    "CapMeasure",
    "RadialQuadrature",
    "omega_ratio",
    "sphere_energy",
    "kappa",
    "axis_dist2",
    "build_quadrature",
    "integrate_radial",
]

_EXC_TOL = 1e-12  # how close s must be to d-2 to count as the exceptional case
_RULE_CACHE_SIZE = 128  # distinct (order, alpha, beta) Gauss-Jacobi rules kept per process
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_SERIES_TERMS = 64  # endpoint-series terms: ample for the node nearest x = 1
_NEWTON_STEPS = 8  # Newton passes before a rule build gives up
_STEPS_PER_TABLE = 64  # recurrence steps whose per-node coefficients are laid out at once
_NEWTON_SETTLED = 1e-8  # relative step after which one more correction is exact to rounding
_RADIAL_TOL = 1e-12  # agreement of two successive orders that settles integrate_radial
_RADIAL_FIRST_ORDER = 64  # the first Gauss-Jacobi order integrate_radial tries
_RADIAL_MAX_ORDER = 8192  # the order at which integrate_radial gives up


@dataclass(frozen=True)
class Params:
    """Sphere dimension and interaction kernel.

    Either a Riesz kernel |x-y|^(-s) with 0 < s < d (pass ``s``), or the
    logarithmic kernel log(1/|x-y|) (pass ``log=True``).  Cap-level results
    gate their own sub-regimes: d-2 <= s < d for the Riesz cap formulas
    (s = d-2 with d >= 3 is the boundary case, where balayage grows a ring
    charge), and d = 2 for the logarithmic cap case.
    """

    d: int
    s: float | None = None
    log: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or self.d < 2:
            raise ValueError(f"need integer dimension d >= 2, got {self.d}")
        if self.log == (self.s is not None):
            raise ValueError("specify exactly one of s=... or log=True")
        if self.s is not None and not 0.0 < self.s < self.d:
            raise ValueError(f"Riesz exponent must satisfy 0 < s < d, got s={self.s}, d={self.d}")

    @property
    def in_cap_regime(self) -> bool:
        """True when d-2 < s < d strictly (generic cap formulas apply)."""
        return self.s is not None and self.d - 2 + _EXC_TOL < self.s < self.d

    @property
    def is_exceptional(self) -> bool:
        """True when s = d-2 with d >= 3 (balayage grows a boundary atom)."""
        return self.s is not None and self.d >= 3 and abs(self.s - (self.d - 2)) <= _EXC_TOL


def _dim(params: Params | int) -> int:
    return params.d if isinstance(params, Params) else int(params)


def omega_ratio(params: Params | int) -> float:
    """omega_d / omega_{d-1} = sqrt(pi) Gamma(d/2) / Gamma((d+1)/2).

    Equals the full height integral of (1-u^2)^{d/2-1}.  Accepts a bare
    dimension too, since the ratio makes sense for d >= 1.
    """
    d = _dim(params)
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return math.sqrt(math.pi) * math.exp(math.lgamma(d / 2.0) - math.lgamma((d + 1) / 2.0))


def surface_factor(params: Params | int) -> float:
    """omega_{d-1} / omega_d, the constant in the sigma_d decomposition."""
    return 1.0 / omega_ratio(params)


def sphere_energy(params: Params) -> float:
    """Continuous kernel energy of the whole sphere.

    Riesz:        W_s = Gamma(d) Gamma((d-s)/2) / (2^s Gamma(d/2) Gamma(d-s/2)),
    logarithmic:  W_0 = (psi(d) - psi(d/2))/2 - log 2,

    the latter being d/ds W_s at s=0 (for d=2 it equals 1/2 - log 2).
    """
    d = params.d
    if params.log:
        return 0.5 * (psi(float(d)) - psi(d / 2.0)) - math.log(2.0)
    s = params.s
    # Params already guarantees 0 < s < d
    return math.exp(math.lgamma(float(d)) + math.lgamma((d - s) / 2.0)
                    - s * math.log(2.0) - math.lgamma(d / 2.0) - math.lgamma(d - s / 2.0))


def axis_dist2(u, R: float):
    """Squared distance from a sphere point at height u to the axis point R*p,
    as (R-1)^2 + 2R(1-u): two nonnegative terms, so no cancellation as R and
    u approach 1."""
    return (R - 1.0) ** 2 + 2.0 * R * (1.0 - u)


def kappa(u: float, xi: float, params: Params) -> float:
    """sigma_{d-1}-average of the kernel between the rings at heights u and xi.

    Riesz branch (A&S 15.3.1 applied to the ring integral):

        kappa(u, xi) = (1-lo)^{-s/2} (1+hi)^{-s/2}
                       2F1(s/2, 1-(d-s)/2; d/2; (1+lo)(1-hi)/((1-lo)(1+hi)))

    with lo = min(u, xi), hi = max(u, xi); symmetric by construction.
    Logarithmic branch: -log(1 - u*xi + |xi - u|)/2.  At u = xi the value
    is finite only for s < d-1 (Gauss summation); s >= d-1 raises there.
    """
    if params.log:
        return -0.5 * math.log(1.0 - u * xi + abs(xi - u))
    d, s = params.d, params.s
    lo, hi = (u, xi) if u <= xi else (xi, u)
    if lo == hi:
        if s >= d - 1:
            raise ValueError("kappa is singular at u = xi for s >= d-1")
        # 2F1 at z=1 by Gauss summation; c-a-b = d-1-s > 0
        val = math.exp(math.lgamma(d / 2.0) + math.lgamma(d - 1.0 - s)
                       - math.lgamma((d - s) / 2.0) - math.lgamma(d - 1.0 - s / 2.0))
        return (1.0 - lo * lo) ** (-s / 2.0) * val
    z = (1.0 + lo) * (1.0 - hi) / ((1.0 - lo) * (1.0 + hi))
    return ((1.0 - lo) * (1.0 + hi)) ** (-s / 2.0) * hyp2f1(s / 2.0, 1.0 - (d - s) / 2.0, d / 2.0, z)


@dataclass(frozen=True)
class RadialQuadrature:
    """Gauss-Jacobi nodes/weights on [-1, t] for the surface-weighted integral

        sum_i w_i f(u_i)  ~=  (omega_{d-1}/omega_d) *
            int_{-1}^t f(u) (1-u)^{d/2-1} (1+u)^{left} (t-u)^{se} du.

    With the default left exponent d/2-1 and se = 0 the weight is exactly
    the sigma_d surface factor, so the plain weight sum is the sigma_d mass
    of the cap (= 1 at t = 1).  Exact for f polynomial of degree <= 2n-1
    against the (1+u)^left (t-u)^se part; the (1-u)^{d/2-1} factor is
    analytic on [-1, t] for t < 1 and folded into the weights (merged into
    the right-endpoint exponent when t = 1).  The arrays are rescaled from a
    [-1, 1] rule that is built once per process for each (order, alpha,
    beta) and shared; they are the caller's own to modify.

    That rule (:func:`_jacobi_rule`) is computed here, not by scipy: Newton
    on Golub-Welsch seeds, with every node held as its distance to its
    endpoint.  Its weights give the moments of (1-x)^alpha (1+x)^beta to
    ~1e-14 relative for alpha, beta in (-1, 2] and orders up to 4096, so a
    singular exponent near -1 (s -> d-2) costs no accuracy.  Nodes reach
    ``f`` as heights u, so they carry absolute rounding ~1e-16 near the
    endpoints.
    """

    nodes: np.ndarray
    weights: np.ndarray
    t: float

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        vals = np.asarray(f(self.nodes), dtype=float)
        return float(np.dot(self.weights, vals))


# --- Gauss-Jacobi rules on [-1, 1] ------------------------------------------
#
# Double-double helpers (Dekker 1971): a pair (hi, lo) stands for hi + lo.
# They make the recurrence coefficients below correctly rounded; coefficients
# rounded a few times each shift the computed polynomial by ~n*eps, enough to
# cost the weights two digits at order 4096.

def _two_sum(a, b):
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    p = a * b
    ca, cb = _SPLIT * a, _SPLIT * b
    ah, bh = ca - (ca - a), cb - (cb - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(x, y):
    s, e = _two_sum(x[0], y[0])
    e = e + (x[1] + y[1])
    h = s + e
    return h, e - (h - s)


def _dd_mul(x, y):
    p, e = _two_prod(x[0], y[0])
    e = e + (x[0] * y[1] + x[1] * y[0])
    h = p + e
    return h, e - (h - p)


def _dd_div(x, y):
    # x / y rounded to double
    q = x[0] / y[0]
    p, e = _two_prod(q, y[0])
    return q + (((x[0] - p) - e) + x[1] - q * y[1]) / y[0]


def _recurrence(n: int, a, b):
    """Coefficients of the normalised Jacobi recurrence in Reinsch's form.

    With p_k = P_k^(a,b)(1-y) / P_k^(a,b)(1) and D_k = p_k - p_{k-1}:

        D_1 = r y,   D_k = C_k D_{k-1} - A_k y p_{k-1},   p_k = p_{k-1} + D_k,

        A_k = (2k+s-1)(2k+s) / (2(k+s)(k+a)),
        C_k = (k-1)(k+b-1)(2k+s) / ((k+s)(2k+s-2)(k+a)),   r = -(s+2)/(2(a+1)),

    s = a+b.  Every rounding of this form is relative to y, so the distance to
    x = 1 survives however small it is (Reinsch's modification of the
    three-term recurrence).  ``a`` and ``b`` are double-double columns, one
    row per exponent pair; returns r (rows x 1) and A, C (rows x n-1) for
    k = 2..n, each correctly rounded.
    """
    k = np.arange(2.0, n + 1.0)
    zero = np.zeros_like(k)
    s = _dd_add(a, b)

    def plus(j, g):  # j + g for an integer-valued j
        return _dd_add((j, np.zeros_like(j)), g)

    two_k_s = plus(2.0 * k, s)
    den = _dd_mul(plus(k, s), plus(k, a))
    coef_a = _dd_div(_dd_mul(plus(2.0 * k - 1.0, s), two_k_s), (2.0 * den[0], 2.0 * den[1]))
    coef_c = _dd_div(_dd_mul(_dd_mul((k - 1.0, zero), plus(k - 1.0, b)), two_k_s),
                     _dd_mul(den, plus(2.0 * k - 2.0, s)))
    a1 = plus(np.ones_like(a[0]), a)
    r = -_dd_div(plus(np.full_like(a[0], 2.0), s), (2.0 * a1[0], 2.0 * a1[1]))
    return r, coef_a, coef_c


def _endpoint_series(n: int, a: float, b: float, y: float) -> tuple[float, float]:
    # P_n^(a,b)(1-y) / P_n^(a,b)(1) = 2F1(-n, n+a+b+1; a+1; y/2) and its
    # y-derivative.  At the node nearest x = 1 the terms stay O(1), so the sum
    # carries no cancellation beyond that of the root itself.
    j = np.arange(1.0, min(n, _SERIES_TERMS) + 1.0)
    terms = np.cumprod((j - 1.0 - n) * (n + a + b + j) / ((a + j) * j) * (0.5 * y))
    return 1.0 + float(terms.sum()), float((j * terms).sum()) / y


def _golub_welsch_nodes(n: int, alpha: float, beta: float) -> np.ndarray:
    # eigenvalues of the Jacobi matrix: starting points for Newton, accurate
    # to ~eps in x and so to ~eps/(1-|x|) in the endpoint distance
    s = alpha + beta
    k = np.arange(1.0, n)
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (s + 2.0)
    diag[1:] = (beta - alpha) * (beta + alpha) / ((2.0 * k + s) * (2.0 * k + s + 2.0))
    off2 = np.empty(n - 1)
    off2[0] = 4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + s) ** 2 * (3.0 + s))  # (1+s)/(1+s) cancelled
    k = k[1:]
    off2[1:] = 4.0 * k * (k + alpha) * (k + beta) * (k + s) / (
        (2.0 * k + s) ** 2 * (2.0 * k + s + 1.0) * (2.0 * k + s - 1.0))
    x, info = dsterf(diag, np.sqrt(off2))
    if info != 0:
        raise ConvergenceError(f"Jacobi matrix eigenvalues failed (dsterf info {info})")
    return x


def _polish_top(n: int, a: float, b: float, y: float) -> tuple[float, float]:
    # Newton on the endpoint series for the node nearest x = 1 of P_n^(a,b);
    # returns its distance y and P_{n-1}^(a+1,b+1)(1-y) / P_{n-1}^(a+1,b+1)(1)
    for _ in range(_NEWTON_STEPS):
        if not y > 0.0:  # a seed or step at or past the endpoint (y underflows as alpha -> -1)
            break
        p, dp = _endpoint_series(n, a, b, y)
        step = p / dp
        y -= step
        if abs(step) <= _NEWTON_SETTLED * y:
            return y, _endpoint_series(n - 1, a + 1.0, b + 1.0, y)[0]
    raise ConvergenceError(f"Gauss-Jacobi endpoint node did not settle: n={n}, a={a!r}, b={b!r}")


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def _jacobi_rule(order: int, alpha: float,
                 beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Jacobi rule on [-1, 1] for (1-x)^alpha (1+x)^beta, as the
    arrays (1-x, 1+x, w) in increasing x.

    Nodes with x >= 0 are held as y = 1-x and solved as zeros of
    P_n^(alpha,beta)(1-y); nodes with x < 0 as y = 1+x, zeros of
    P_n^(beta,alpha)(1-y).  So no node's distance to its endpoint is ever
    formed by cancellation (the idea of Hale & Townsend, SIAM J. Sci. Comput.
    35 (2013) A652).  In each half:

    - Newton starts from the Golub-Welsch eigenvalues and evaluates the
      polynomials by the Reinsch-form recurrence of :func:`_recurrence`, all
      nodes at once; the node nearest the endpoint uses
      :func:`_endpoint_series` instead.
    - The weight is 1/((1-x^2) P_n'(x)^2) up to a constant, with
      P_n' = (n+alpha+beta+1)/2 P_{n-1}^(alpha+1,beta+1), which stays well
      away from zero at the nodes, and 1-x^2 = y(2-y).

    The two halves are put on one scale by the exact ratio of their
    normalisations, and the weights are scaled to the exact total mass
    2^(alpha+beta+1) B(alpha+1, beta+1).  Moments of degree <= 3 match their
    Beta values to ~1e-14 relative for alpha, beta in (-1, 2] and n <= 4096
    (tests/test_sphere.py).  The build is deterministic, so a cached rule
    equals a fresh one bit for bit; the arrays are shared between callers
    and therefore read-only.
    """
    n = order
    if n < 2:
        raise ValueError(f"Gauss-Jacobi order must be >= 2, got {n}")
    x0 = _golub_welsch_nodes(n, alpha, beta)
    frames = ((alpha, beta, 1.0 - x0[x0 >= 0.0][::-1]), (beta, alpha, 1.0 + x0[x0 < 0.0]))
    a_f = np.array([[alpha], [beta]])
    b_f = np.array([[beta], [alpha]])

    # bulk nodes of both halves, padded to one width with a harmless y = 1/2
    width = max(1, max(len(y) for _, _, y in frames) - 1)
    y = np.full((2, width), 0.5)
    valid = np.zeros((2, width), dtype=bool)
    for i, (_, _, yf) in enumerate(frames):
        y[i, :len(yf[1:])] = yf[1:]
        valid[i, :len(yf[1:])] = True

    # rows: p for both halves, then q = P_{n-1}^(a+1,b+1) for both halves
    a1, b1 = _two_sum(alpha, 1.0), _two_sum(beta, 1.0)
    a_dd = (np.array([[alpha], [beta], [a1[0]], [b1[0]]]), np.array([[0.0], [0.0], [a1[1]], [b1[1]]]))
    b_dd = (np.array([[beta], [alpha], [b1[0]], [a1[0]]]), np.array([[0.0], [0.0], [b1[1]], [a1[1]]]))
    r, coef_a, coef_c = _recurrence(n, a_dd, b_dd)
    coef_a, coef_c = np.ascontiguousarray(coef_a.T), np.ascontiguousarray(coef_c.T)
    row = np.repeat(np.arange(4), width)  # the coefficient row of each flattened entry
    for _ in range(_NEWTON_STEPS):
        yy = np.concatenate([y, y]).ravel()
        d = r[row, 0] * yy
        p = 1.0 + d
        t = np.empty_like(yy)
        for k0 in range(0, n - 1, _STEPS_PER_TABLE):
            # per-entry coefficients for a block of steps: no broadcasting in the loop
            tab_a = coef_a[k0:k0 + _STEPS_PER_TABLE].take(row, axis=1)
            tab_c = coef_c[k0:k0 + _STEPS_PER_TABLE].take(row, axis=1)
            for k in range(len(tab_a)):
                if k0 + k == n - 2:
                    q = p[2 * width:].reshape(2, width).copy()
                np.multiply(tab_a[k], yy, out=t)
                np.multiply(t, p, out=t)
                np.multiply(d, tab_c[k], out=d)
                np.subtract(d, t, out=d)
                np.add(p, d, out=p)
        p = p[:2 * width].reshape(2, width)
        # Newton step in y: P_n' = n(n+a+b+1)/(2(a+1)) P_n(1)/P_{n-1}^(a+1,b+1)(1) q
        step = np.divide(2.0 * (a_f + 1.0) * p, n * (n + a_f + b_f + 1.0) * q,
                         out=np.zeros_like(y), where=valid)
        if np.all(np.abs(step) <= _NEWTON_SETTLED * y):
            break
        y = y + step
    else:
        raise ConvergenceError(f"Gauss-Jacobi nodes did not settle: n={n}, alpha={alpha!r}, beta={beta!r}")
    # q at the stepped node from its Jacobi equation: (1-x^2) q' = (a-b+(a+b+2)x) q - 2(a+1) p
    dq = ((a_f - b_f + (a_f + b_f + 2.0) * (1.0 - y)) * q - 2.0 * (a_f + 1.0) * p) / (y * (2.0 - y))
    q = q - dq * step
    y = y + step

    raw = []
    for i, (a, b, yf) in enumerate(frames):
        if len(yf) == 0:
            raw.append((yf, yf))
            continue
        top_y, top_q = _polish_top(n, a, b, float(yf[0]))
        yi = np.concatenate([[top_y], y[i, valid[i]]])
        qi = np.concatenate([[top_q], q[i, valid[i]]])
        raw.append((yi, 1.0 / (yi * (2.0 - yi) * qi * qi)))
    (y_right, v_right), (y_left, v_left) = raw
    # P_{n-1}^(alpha+1,beta+1)(1) / P_{n-1}^(beta+1,alpha+1)(1), squared
    k = np.arange(1.0, n)
    v_left = v_left * math.exp(2.0 * float(np.sum(np.log1p((alpha - beta) / (k + beta + 1.0)))))
    one_minus_x = np.concatenate([2.0 - y_left, y_right[::-1]])
    one_plus_x = np.concatenate([y_left, (2.0 - y_right)[::-1]])
    w = np.concatenate([v_left, v_right[::-1]])
    mass = 2.0 ** (alpha + beta + 1.0) * math.exp(
        math.lgamma(alpha + 1.0) + math.lgamma(beta + 1.0) - math.lgamma(alpha + beta + 2.0))
    w *= mass / math.fsum(w)
    for arr in (one_minus_x, one_plus_x, w):
        arr.flags.writeable = False
    return one_minus_x, one_plus_x, w


def _jacobi_exponents(t: float, params: Params, singular_exponent: float,
                      left_exponent: float | None) -> tuple[float, float]:
    # (alpha, beta): the (t-u) and (1+u) exponents of the cap rule
    beta = (params.d / 2.0 - 1.0) if left_exponent is None else float(left_exponent)
    alpha = float(singular_exponent)
    if t == 1.0:
        alpha += params.d / 2.0 - 1.0  # (1-u) and (t-u) coincide
    return alpha, beta


def build_quadrature(t: float, params: Params, order: int,
                     singular_exponent: float = 0.0, *,
                     left_exponent: float | None = None) -> RadialQuadrature:
    """Build the cap quadrature described on :class:`RadialQuadrature`.

    ``singular_exponent`` is the (t-u) endpoint exponent (e.g. (s-d)/2 for
    the balayage densities); ``left_exponent`` overrides the (1+u)
    exponent, default d/2-1.  The [-1, 1] Gauss-Jacobi rule comes from a
    bounded per-process cache keyed by (order, alpha, beta); only the
    rescaling to [-1, t] runs on every call.
    """
    if not -1.0 < t <= 1.0:
        raise ValueError(f"cap height must lie in (-1, 1], got {t}")
    if order < 4:
        raise ValueError("order >= 4 required")
    d = params.d
    alpha, beta = _jacobi_exponents(t, params, singular_exponent, left_exponent)
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError(f"Jacobi exponents must exceed -1, got ({alpha}, {beta})")
    one_minus_x, one_plus_x, w = _jacobi_rule(order, alpha, beta)
    half = (1.0 + t) / 2.0
    u = -1.0 + half * one_plus_x
    scale = half ** (alpha + beta + 1.0) / omega_ratio(params)
    weights = w * scale
    if t < 1.0:
        # 1-u as two nonnegative terms
        weights = weights * ((1.0 - t) + half * one_minus_x) ** (d / 2.0 - 1.0)
    return RadialQuadrature(nodes=u, weights=weights, t=float(t))


def integrate_radial(f: Callable[[np.ndarray], np.ndarray], t: float, params: Params,
                     singular_exponent: float = 0.0, *,
                     left_exponent: float | None = None) -> float:
    """Surface-weighted cap integral with order doubling from 64 until two
    successive Gauss-Jacobi results agree to 1e-12 (mixed absolute/relative).

    Raises :class:`ConvergenceError` naming t, the Jacobi exponents, the last
    order and the last difference when order 8192 is reached first.
    """
    order, tol = _RADIAL_FIRST_ORDER, _RADIAL_TOL
    prev = build_quadrature(t, params, order, singular_exponent,
                            left_exponent=left_exponent).integrate(f)
    diff = math.nan
    while order < _RADIAL_MAX_ORDER:
        order *= 2
        cur = build_quadrature(t, params, order, singular_exponent,
                               left_exponent=left_exponent).integrate(f)
        diff = abs(cur - prev)
        if diff <= tol * max(1.0, abs(cur)):
            return cur
        prev = cur
    alpha, beta = _jacobi_exponents(t, params, singular_exponent, left_exponent)
    raise ConvergenceError(
        f"radial quadrature did not settle below order {order}: t={t!r}, "
        f"Jacobi exponents (alpha, beta) = ({alpha!r}, {beta!r}), "
        f"last |cur - prev| = {diff:.3e} (tol {tol:.1e})")


@dataclass(frozen=True)
class CapMeasure:
    """A (possibly signed) measure on the cap u <= t.

    The absolutely continuous part has density
    regular_part(u) * (t-u)^singular_exponent against sigma_d (the form the
    cap quadrature integrates; regular_part is called with float arrays of
    heights); ``boundary_coeff`` multiplies the unit
    uniform measure on the ring u = t.  ``phi`` is the constant weighted
    potential on the cap of an equilibrium measure (None for a balayage
    measure), and ``mass`` the total mass once computed (None otherwise).
    """

    t: float
    regular_part: Callable[[np.ndarray], np.ndarray]
    singular_exponent: float = 0.0
    boundary_coeff: float = 0.0
    phi: float | None = None
    mass: float | None = None

    def radial_density(self, u):
        """Density of the absolutely continuous part at height u <= t (u < t
        when the edge is singular, singular_exponent < 0)."""
        u_arr = np.asarray(u, dtype=float)
        singular = self.singular_exponent < 0.0
        if np.any(u_arr >= self.t if singular else u_arr > self.t):
            raise ValueError(f"density needs u {'<' if singular else '<='} t = {self.t}")
        out = np.asarray(self.regular_part(u_arr)) * (self.t - u_arr) ** self.singular_exponent
        return float(out) if out.ndim == 0 else out

    def with_mass(self, params: Params) -> "CapMeasure":
        """This measure with ``mass`` set: the cap integral plus the ring charge."""
        interior = integrate_radial(self.regular_part, self.t, params, self.singular_exponent)
        return replace(self, mass=interior + self.boundary_coeff)
