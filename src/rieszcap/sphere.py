"""Geometry and baseline potential theory of the unit d-sphere.

Rotationally invariant fields reduce everything to the height coordinate
u in [-1, 1]: the surface measure decomposes as

    d sigma_d = (omega_{d-1}/omega_d) (1-u^2)^{d/2-1} du d sigma_{d-1},

and all potentials become 1-d integrals against the Funk-Hecke ring kernel
``kappa``.  Measures are normalized against the unit surface measure
sigma_d throughout, and quadrature weights include the full surface factor
(omega ratio and Jacobian), so plain weight sums are sigma_d masses.

The masses and moments of a cap measure (:class:`CapMeasure`) come from
one tanh-sinh rule that does not depend on s (:func:`_cap_integral`): its
edge power (t-u)^a is split off in closed form, and its step halves until
the step-2h rule, the even-indexed nodes, agrees.  H shares that rule's
nodes (:func:`rieszcap.cap_riesz.h`).

The Gauss-Jacobi rules (:func:`build_quadrature`, :func:`integrate_radial`)
serve the rows of ||eps_t|| only (``eps_norm``, ``phi`` and phi-curves).
The caller names the height of the integrand's nearest singularity; the
Bernstein ellipse through it sets, a priori, the power-of-two order whose
error bound 4 mu M rho^{1-2n}/(rho-1) meets 1e-12.  Only when no order up
to 8192 does (a singularity within ~1e-6 of the cap edge, relative to the
cap) do the orders double until two results agree.  Integrals come in
batches of rows, one per cap height; rows that share a rule share its build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg.lapack import dsterf
from scipy.special import psi

from rieszcap.specfun import ConvergenceError, hyp2f1_1mz

__all__ = [
    "Params",
    "CapMeasure",
    "Nodes",
    "omega_ratio",
    "sphere_energy",
    "kappa",
    "axis_dist2",
    "build_quadrature",
    "integrate_radial",
]

_EXC_TOL = 1e-12  # how close s must be to d-2 to count as the exceptional case
_RULE_CACHE_SIZE = 384  # (order, alpha, beta) rules kept per process, 24 * order bytes each
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_SERIES_TERMS = 64  # endpoint-series terms: ample for the node nearest x = 1
_NEWTON_STEPS = 8  # Newton passes before a rule build gives up
_STEPS_PER_TABLE = 64  # recurrence steps whose per-node coefficients are laid out at once
_NEWTON_SETTLED = 1e-8  # relative step after which one more correction is exact to rounding
_RADIAL_TOL = 1e-12  # error bound (doubling: successive agreement) settling integrate_radial
_RULE_EPS = 2e-14  # relative weight error of two Gauss-Jacobi rules (moments ~1e-14 each);
                   # also the rounding floor of a tanh-sinh cap integral, relative to sum w|f|
_RADIAL_FIRST_ORDER = 64  # the first Gauss-Jacobi order integrate_radial tries
_RADIAL_MAX_ORDER = 8192  # the order at which integrate_radial gives up
_CHUNK_NODES = 65536  # nodes evaluated at once: rows sharing a rule run in chunks of this size
_TS_STEP = 0.08  # the tanh-sinh step at level 0; level j halves it j times
_TS_LEVELS = 4  # tanh-sinh levels a cap integral may take, h = 0.08 down to 0.01
_TS_TOL = 1e-14  # a level settles when (I_h - I_2h)^2 / max(1, |I|) <= this * max(1, |I|)


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
    return _gap_dist2(1.0 - u, R)


def _gap_dist2(gap, R):
    # axis_dist2 from the distance gap = 1-u itself, as a cap rule's nodes hold it
    return (R - 1.0) ** 2 + 2.0 * R * gap


def kappa(u: float, xi: float, params: Params) -> float:
    """sigma_{d-1}-average of the kernel between the rings at heights u and xi.

    Riesz branch (A&S 15.3.1 applied to the ring integral):

        kappa(u, xi) = (1-lo)^{-s/2} (1+hi)^{-s/2}
                       2F1(s/2, 1-(d-s)/2; d/2; (1+lo)(1-hi)/((1-lo)(1+hi)))

    with lo = min(u, xi), hi = max(u, xi); symmetric by construction.  The
    2F1 takes 1 - z = 2(hi-lo)/((1-lo)(1+hi)) formed as such, so rings a few
    ulps apart keep their distance.  Logarithmic branch:
    -log(1 - u*xi + |xi - u|)/2.  At u = xi the value is finite only for
    s < d-1 (Gauss summation); s >= d-1 raises there.
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
    # 1 - z rounds to 1 + ulp when a ring sits at a pole (z = 0)
    w = min(1.0, 2.0 * (hi - lo) / ((1.0 - lo) * (1.0 + hi)))
    return ((1.0 - lo) * (1.0 + hi)) ** (-s / 2.0) * hyp2f1_1mz(s / 2.0, 1.0 - (d - s) / 2.0, d / 2.0, w)


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


_RULES: dict = {}  # (order, alpha, beta) -> rule, least recently used first


def _jacobi_rules(order: int, pairs) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Gauss-Jacobi rules on [-1, 1] for (1-x)^alpha (1+x)^beta, one per pair
    (alpha, beta), as read-only arrays (1-x, 1+x, w) in increasing x, from a
    bounded per-process cache that builds what it lacks in one pass of
    :func:`_gauss_jacobi`.  alpha > beta reflects the (beta, alpha) rule."""
    keys = [(order, a, b) for a, b in pairs]
    lacking = dict.fromkeys((order, min(k[1:]), max(k[1:])) for k in keys if k not in _RULES)
    build = [k[1:] for k in lacking if k not in _RULES]  # the alpha <= beta rules to build
    _RULES.update(zip(((order, a, b) for a, b in build), _gauss_jacobi(order, build) if build else ()))
    rules = []
    for key in keys:
        rule = _RULES.pop(key, None)
        if rule is None:  # alpha > beta: the (beta, alpha) rule under x -> -x
            one_minus_x, one_plus_x, w = _RULES[key[0], key[2], key[1]]
            rule = tuple(np.ascontiguousarray(a[::-1]) for a in (one_plus_x, one_minus_x, w))
            for arr in rule:
                arr.flags.writeable = False
        _RULES[key] = rule  # now the most recently used
        rules.append(rule)
    while len(_RULES) > _RULE_CACHE_SIZE:
        del _RULES[next(iter(_RULES))]
    return rules


def _gauss_jacobi(order: int, pairs: list[tuple[float, float]]
                  ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The read-only Gauss-Jacobi rules of :func:`_jacobi_rules`, one per
    (alpha, beta) of ``pairs``, built in one pass.

    Nodes with x >= 0 are held as y = 1-x and solved as zeros of
    P_n^(alpha,beta)(1-y); nodes with x < 0 as y = 1+x, zeros of
    P_n^(beta,alpha)(1-y).  So no node's distance to its endpoint is ever
    formed by cancellation (the idea of Hale & Townsend, SIAM J. Sci. Comput.
    35 (2013) A652).  In each half:

    - Newton starts from the Golub-Welsch eigenvalues (Golub & Welsch, Math.
      Comp. 23 (1969) 221) and evaluates the polynomials by the Reinsch-form
      recurrence of :func:`_recurrence`; the node nearest the endpoint uses
      :func:`_endpoint_series` instead.
    - The weight is 1/((1-x^2) P_n'(x)^2) up to a constant, with
      P_n' = (n+alpha+beta+1)/2 P_{n-1}^(alpha+1,beta+1), which stays well
      away from zero at the nodes, and 1-x^2 = y(2-y).

    The start values, the endpoint nodes and the weights are formed pair by
    pair; the recurrence and the Newton passes run once over the bulk nodes of
    every pair, as their cost is mostly per call.  A settled pair takes no more
    Newton steps, and each node's arithmetic is elementwise, so every rule is
    bit for bit its pair's one-pair build.  The two halves are put on one
    scale by the exact ratio of their normalisations, and the weights are
    scaled to the exact total mass 2^(alpha+beta+1) B(alpha+1, beta+1).
    Moments of degree <= 3 match their Beta values to ~1e-14 relative for
    alpha, beta in (-1, 2] and n <= 4096 (tests/test_sphere.py).
    """
    n = order
    if n < 2:
        raise ValueError(f"Gauss-Jacobi order must be >= 2, got {n}")
    frames = []  # (a, b, y) of each half: a pair's x >= 0 half, then its x < 0 half
    for alpha, beta in pairs:
        x0 = _golub_welsch_nodes(n, alpha, beta)
        frames += [(alpha, beta, 1.0 - x0[x0 >= 0.0][::-1]), (beta, alpha, 1.0 + x0[x0 < 0.0])]
    halves = len(frames)
    a_f, b_f = np.array([[a, b] for a, b, _ in frames]).T[:, :, None]  # columns, one row per half

    # bulk nodes of every half, padded to one width with a harmless y = 1/2
    width = max(1, max(len(y) for _, _, y in frames) - 1)
    y = np.full((halves, width), 0.5)
    valid = np.zeros((halves, width), dtype=bool)
    for i, (_, _, yf) in enumerate(frames):
        y[i, :len(yf[1:])] = yf[1:]
        valid[i, :len(yf[1:])] = True

    # rows: p of every half, then q = P_{n-1}^(a+1,b+1) of every half
    (a1, a1_lo), (b1, b1_lo), zero = _two_sum(a_f, 1.0), _two_sum(b_f, 1.0), np.zeros_like(a_f)
    a_dd = (np.concatenate([a_f, a1]), np.concatenate([zero, a1_lo]))
    b_dd = (np.concatenate([b_f, b1]), np.concatenate([zero, b1_lo]))
    r, coef_a, coef_c = _recurrence(n, a_dd, b_dd)
    coef_a, coef_c = np.ascontiguousarray(coef_a.T), np.ascontiguousarray(coef_c.T)
    p, q, step = np.empty_like(y), np.empty_like(y), np.empty_like(y)
    live = np.arange(halves)  # the halves of the pairs still taking Newton steps
    for _ in range(_NEWTON_STEPS):
        m, y_live = len(live), y[live]
        row = np.repeat(np.concatenate([live, halves + live]), width)  # coefficient row of each entry
        yy = np.concatenate([y_live, y_live]).ravel()
        d = r[row, 0] * yy
        pk = 1.0 + d
        t = np.empty_like(yy)
        for k0 in range(0, n - 1, _STEPS_PER_TABLE):
            # per-entry coefficients for a block of steps: no broadcasting in the loop
            tab_ay = coef_a[k0:k0 + _STEPS_PER_TABLE].take(row, axis=1) * yy  # A_k y
            tab_c = coef_c[k0:k0 + _STEPS_PER_TABLE].take(row, axis=1)
            for k in range(len(tab_ay)):
                if k0 + k == n - 2:
                    q[live] = pk[m * width:].reshape(m, width)
                np.multiply(tab_ay[k], pk, out=t)
                np.multiply(d, tab_c[k], out=d)
                np.subtract(d, t, out=d)
                np.add(pk, d, out=pk)
        p[live] = pk[:m * width].reshape(m, width)
        # Newton step in y: P_n' = n(n+a+b+1)/(2(a+1)) P_n(1)/P_{n-1}^(a+1,b+1)(1) q
        a_l, b_l = a_f[live], b_f[live]
        step[live] = np.divide(2.0 * (a_l + 1.0) * p[live], n * (n + a_l + b_l + 1.0) * q[live],
                               out=np.zeros_like(y_live), where=valid[live])
        settled = np.all(np.abs(step[live]) <= _NEWTON_SETTLED * y_live, axis=1)
        live = live[~np.repeat(settled.reshape(-1, 2).all(axis=1), 2)]  # both halves of a pair
        if not len(live):
            break
        y[live] = y[live] + step[live]
    else:
        raise ConvergenceError(f"Gauss-Jacobi nodes did not settle: n={n}, "
                               f"(alpha, beta) = {pairs[live[0] // 2]}")
    # q at the stepped node from its Jacobi equation: (1-x^2) q' = (a-b+(a+b+2)x) q - 2(a+1) p
    dq = ((a_f - b_f + (a_f + b_f + 2.0) * (1.0 - y)) * q - 2.0 * (a_f + 1.0) * p) / (y * (2.0 - y))
    q = q - dq * step
    y = y + step

    raw = []  # (y, unscaled weight) of each half, the endpoint node first
    for i, (a, b, yf) in enumerate(frames):
        if len(yf) == 0:
            raw.append((yf, yf))
            continue
        top_y, top_q = _polish_top(n, a, b, float(yf[0]))
        yi = np.concatenate([[top_y], y[i, valid[i]]])
        qi = np.concatenate([[top_q], q[i, valid[i]]])
        raw.append((yi, 1.0 / (yi * (2.0 - yi) * qi * qi)))
    rules = []
    for (alpha, beta), (y_right, v_right), (y_left, v_left) in zip(pairs, raw[::2], raw[1::2]):
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
        rules.append((one_minus_x, one_plus_x, w))
    return rules


def _jacobi_exponents(t: float, params: Params, singular_exponent: float,
                      left_exponent: float | None) -> tuple[float, float]:
    # (alpha, beta): the (t-u) and (1+u) exponents of the cap rule
    beta = (params.d / 2.0 - 1.0) if left_exponent is None else float(left_exponent)
    alpha = float(singular_exponent)
    if t == 1.0:
        alpha += params.d / 2.0 - 1.0  # (1-u) and (t-u) coincide
    return alpha, beta


class Nodes(NamedTuple):
    """Cap rule nodes on [-1, t]: heights u and their distances 1+u, t-u and
    1-u, each formed from the rule's endpoint distances without cancellation
    (1-u as (1-t) + (t-u), two nonnegative terms)."""

    u: np.ndarray
    one_plus_u: np.ndarray
    t_minus_u: np.ndarray
    one_minus_u: np.ndarray


def _tanh_sinh(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # the tanh-sinh rule x_k = tanh(v_k), v_k = pi/2 sinh(k h), h = 0.08 2^-level, |k h| <= 3.2
    # (Takahasi & Mori, Publ. RIMS 9 (1974) 721-741): its nodes on [-1, 1] as 1 + x and 1 - x
    # (down to 4e-17), and its weights h dx/dk; the even-indexed nodes are the step-2h rule
    h = _TS_STEP / 2 ** level
    k = h * np.arange(-40 * 2 ** level, 40 * 2 ** level + 1)
    v = math.pi / 2.0 * np.sinh(k)
    w = h * math.pi / 2.0 * np.cosh(k) / np.cosh(v) ** 2
    return np.exp(v) / np.cosh(v), np.exp(-v) / np.cosh(v), w


_TS_RULES = tuple(_tanh_sinh(level) for level in range(_TS_LEVELS))


def _tanh_sinh_nodes(t: float, gap: float, level: int = 0) -> tuple[Nodes, np.ndarray]:
    """Tanh-sinh nodes and weights (nodes, w) on [-1, t], t <= 1, with
    sum w f(nodes) ~= int_{-1}^t f(u) du: (panels, n) arrays, one row per panel.

    The nodes are held as their distances 1+u, t-u and 1-u = (1-t) + (t-u), each
    formed without cancellation.  ``gap`` is how far the integrand's nearest
    singularity lies beyond t; when it lies within (1+t)/17 of t, panels graded
    toward t at t - gap 4^j keep it away from all but the last panel's end.
    """
    cuts = [0.0]  # the panel edges as distances below t: 0, gap 4^j while the singularity is near
    while 0.0 < gap and gap + cuts[-1] < (1.0 + t - cuts[-1]) / 17.0:
        cuts.append(gap * 4.0 ** (len(cuts) - 1))
    ends = cuts + [1.0 + t]  # each panel's 1+u at its left end, t-u at its right, half length
    left, right, half = np.array([(1.0 + t - hi, lo, (hi - lo) / 2.0)
                                  for lo, hi in zip(ends, ends[1:])]).T[:, :, None]
    plus, minus, w = _TS_RULES[level]
    one_plus_u, t_minus_u = left + half * plus, right + half * minus
    return Nodes(-1.0 + one_plus_u, one_plus_u, t_minus_u, (1.0 - t) + t_minus_u), half * w


def _cap_integral(t: float, a: float, gap: float, f: Callable[[Nodes], np.ndarray],
                  params: Params) -> tuple[float, float, int]:
    """(I, e, level): I = int_{-1}^t f(u) (t-u)^a (omega_{d-1}/omega_d) (1-u^2)^{d/2-1} du,
    its error estimate e, and the tanh-sinh level that settled it, t in (-1, 1], a > -1.

    With G = f times the surface factor, an edge exponent a < 0 is split off in
    closed form: I = G(t) (1+t)^{a+1}/(a+1) + int (t-u)^a (G(u) - G(t)) du, whose
    integrand behaves like (t-u)^{a+1} at the edge, so a -> -1 costs nothing.
    The integral runs on :func:`_tanh_sinh_nodes` (``gap`` as there) at step
    h = 0.08 2^-j; its even-indexed nodes give the step-2h value at no cost.
    e is (I_h - I_2h)^2 / max(1, |I|), the error of a rule that converges
    double-exponentially once I_2h has, plus a rounding floor of 2e-14 of
    |G(t)| (1+t)^{a+1}/(a+1) + sum w |integrand|.  When its first part exceeds
    1e-14 max(1, |I|) the step halves, down to h = 0.01; past that,
    :class:`ConvergenceError` names t, a and e.
    """
    d, om = params.d, omega_ratio(params)

    def g(nodes):  # f times the surface factor, which is 1/om at d = 2
        out = f(nodes) / om
        return out if d == 2 else out * (nodes.one_plus_u * nodes.one_minus_u) ** (d / 2.0 - 1.0)

    edge = (t, 1.0 + t, 0.0, 1.0 - t)
    for level in range(_TS_LEVELS):
        nodes, w = _tanh_sinh_nodes(t, gap, level)
        if a < 0.0:  # G(t) rides along as one more node
            vals = g(Nodes(*(np.append(x, y) for x, y in zip(nodes, edge))))
            g_t, vals = float(vals[-1]), vals[:-1].reshape(w.shape)
        else:
            g_t, vals = 0.0, g(nodes)
        closed = g_t * (1.0 + t) ** (a + 1.0) / (a + 1.0)
        part = w * (vals - g_t) * nodes.t_minus_u ** a
        fine, coarse = float(part.sum()), 2.0 * float(part[:, ::2].sum())
        value = closed + fine
        size = max(1.0, abs(value))
        e = (fine - coarse) ** 2 / size
        if e <= _TS_TOL * size:
            return value, e + _RULE_EPS * (abs(closed) + float(np.abs(part).sum())), level
    raise ConvergenceError(f"cap integral did not settle down to tanh-sinh step "
                           f"{_TS_STEP / 2 ** level}: t={t!r}, edge exponent a={a!r}, "
                           f"error estimate {e:.3e}")


def build_quadrature(t: float | np.ndarray, params: Params, order: int,
                     singular_exponent: float = 0.0, *,
                     left_exponent: float | None = None) -> tuple[Nodes, np.ndarray]:
    """Gauss-Jacobi nodes and weights (nodes, w) on [-1, t] for the
    surface-weighted integral (the rows of ||eps_t|| only, through
    :func:`integrate_radial`; cap masses take :func:`_cap_integral`)

        sum_i w_i f(u_i)  ~=  (omega_{d-1}/omega_d) *
            int_{-1}^t f(u) (1-u)^{d/2-1} (1+u)^{left} (t-u)^{se} du,

    at a height t (arrays of n nodes) or at each of a list or array of
    heights (one row per height, all below 1 or all at 1).  The (t-u)
    endpoint exponent se is ``singular_exponent`` (e.g. (s-d)/2 for the
    balayage densities); ``left_exponent`` overrides the (1+u) exponent,
    default d/2-1.

    With the default left exponent and se = 0 the weight is exactly the
    sigma_d surface factor, so the plain weight sum is the sigma_d mass of
    the cap (= 1 at t = 1).  Exact for f polynomial of degree <= 2n-1
    against the (1+u)^left (t-u)^se part; the (1-u)^{d/2-1} factor is
    analytic on [-1, t] for t < 1 and folded into the weights (merged into
    the right-endpoint exponent when t = 1).  The folded factor's branch
    point u = 1 therefore limits the rule's convergence like a singularity
    of f: :func:`integrate_radial` sizes the order n from the nearer of the
    two, so that its error bound, 4 (weight sum) max|f| rho^{1-2n}/(rho-1),
    meets 1e-12.  The arrays are rescaled, by broadcasting, from a [-1, 1]
    rule that a bounded per-process cache keeps for each (order, alpha,
    beta); they are the caller's own to modify.

    That rule (:func:`_jacobi_rules`) is computed here, not by scipy: Newton
    on Golub-Welsch seeds, with every node held as its distance to its
    endpoint.  Its weights give the moments of (1-x)^alpha (1+x)^beta to
    ~1e-14 relative for alpha, beta in (-1, 2] and orders up to 4096, so a
    singular exponent near -1 (s -> d-2) costs no accuracy.  The
    :class:`Nodes` keep those distances: 1+u = half (1+x) and t-u =
    half (1-x), half = (1+t)/2, are one rounding each, so an integrand
    formed from them sees no node rounded past an endpoint.
    """
    ts, shape = _entries(t)
    lo, hi = min(ts), max(ts)
    if not (-1.0 < lo and hi <= 1.0):
        raise ValueError(f"cap heights must lie in (-1, 1], got {t}")
    if order < 4:
        raise ValueError("order >= 4 required")
    if lo < 1.0 == hi:
        raise ValueError("one rule serves heights all below 1 or all at 1")
    alpha, beta = _jacobi_exponents(ts[0], params, singular_exponent, left_exponent)
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError(f"Jacobi exponents must exceed -1, got ({alpha}, {beta})")
    one_minus_x, one_plus_x, w = _jacobi_rules(order, [(alpha, beta)])[0]
    om = omega_ratio(params)
    # per-row scalars in Python floats, rounded as for one cap (numpy's vector pow can differ),
    # in t's shape: they broadcast against the rule into one row of nodes per height
    cols = np.array([((1.0 + t) / 2.0, ((1.0 + t) / 2.0) ** (alpha + beta + 1.0) / om, 1.0 - t)
                     for t in ts]).reshape(shape + (3,))
    half, scale, gap = cols[..., :1], cols[..., 1:2], cols[..., 2:]
    one_plus_u, t_minus_u = half * one_plus_x, half * one_minus_x
    one_minus_u = gap + t_minus_u  # two nonnegative terms
    weights = w * scale
    if ts[0] < 1.0 and params.d > 2:  # the factor is 1 at d = 2
        weights = weights * one_minus_u ** (params.d / 2.0 - 1.0)
    return Nodes(-1.0 + one_plus_u, one_plus_u, t_minus_u, one_minus_u), weights


def _axis_pole_height(R: float) -> float:
    """Height 1 + (R-1)^2/(2R) = (R^2+1)/(2R) at which axis_dist2(u, R)
    vanishes: the singularity of an axis charge's kernel in u, beyond u = 1."""
    return 1.0 + (R - 1.0) ** 2 / (2.0 * R)


def _bernstein_rho_minus_one(t: float, height: float) -> float:
    # rho - 1 of the Bernstein ellipse through the singularity at ``height``,
    # on [-1, t] mapped to [-1, 1]: x_s = 1 + delta beyond the nearer end and
    # rho = x_s + sqrt(x_s^2 - 1), with delta formed without cancellation;
    # 0 for a height inside the interval
    if height > t:
        delta = 2.0 * (height - t) / (1.0 + t)
    elif height < -1.0:
        delta = 2.0 * (-1.0 - height) / (1.0 + t)
    else:
        return 0.0
    return delta + math.sqrt(delta * (2.0 + delta))


def _truncation(rho_m1: float, order: int) -> float:
    # 4 rho^(1-2n) / (rho-1), in logarithms so that no power overflows
    if rho_m1 <= 0.0:
        return math.inf
    return 4.0 * math.exp((1.0 - 2.0 * order) * math.log1p(rho_m1) - math.log(rho_m1))


def _one_rule(f, ts: list[float], params: Params, singular_exponent: float,
              left_exponent: float | None, heights: list[float]):
    """(values, bounds, orders) of the rows of :func:`integrate_radial`, bound
    NaN for a row settled by doubling.  A row's order is the least power of two
    n >= 64 with scale * 4 rho^(1-2n)/(rho-1) <= tol, scale = mu M / max(1, |I|)
    (1 before the first build).  A rule whose bound misses is followed by the
    order its measured scale asks for, unless the weights' rounding floor alone
    misses (an integral far below sum_i w_i |f(u_i)|); then, as when no order
    <= 8192 can settle the row, its order doubles from 64."""
    rho = [_bernstein_rho_minus_one(t, h) for t, h in zip(ts, heights)]
    values, bounds, orders = [math.nan] * len(ts), [math.nan] * len(ts), [0] * len(ts)
    todo = [(i, _RADIAL_FIRST_ORDER, 1.0, None) for i in range(len(ts))]  # prev: when doubling
    while todo:
        groups = {}
        for i, order, scale, prev in sorted(todo):  # each group's rows ascend
            if prev is None:
                while (order <= _RADIAL_MAX_ORDER
                       and scale * _truncation(rho[i], order) > _RADIAL_TOL):
                    order *= 2
                if order > _RADIAL_MAX_ORDER:  # no order meets the bound: double instead
                    order, prev = _RADIAL_FIRST_ORDER, math.nan
            groups.setdefault((order, ts[i] == 1.0), []).append((i, prev))
        todo = []
        for (order, _), rows in groups.items():
            # f is called on node arrays of about _CHUNK_NODES nodes at most
            step = max(1, _CHUNK_NODES // order)
            for chunk in (rows[lo:lo + step] for lo in range(0, len(rows), step)):
                idx = [i for i, _ in chunk]
                nodes, w = build_quadrature([ts[i] for i in idx], params, order,
                                            singular_exponent, left_exponent=left_exponent)
                # the rows ascend, so a chunk without gaps is a slice (and gathers nothing)
                run = idx[-1] + 1 - idx[0] == len(idx)
                vals = f(nodes, slice(idx[0], idx[-1] + 1) if run else np.array(idx))
                abs_vals = np.abs(vals)
                # np.vecdot sums each row as np.dot would that row alone, bit for bit
                for (i, prev), value, mass, top, weighted in zip(
                        chunk, np.vecdot(w, vals).tolist(), w.sum(axis=1).tolist(),
                        abs_vals.max(axis=1).tolist(), np.vecdot(w, abs_vals).tolist()):
                    size, mass_m = max(1.0, abs(value)), mass * top
                    floor = _RULE_EPS * weighted
                    if prev is None:  # the a-priori rule, settled by its bound
                        bound = mass_m * _truncation(rho[i], order) + floor
                        if bound <= _RADIAL_TOL * size:
                            values[i], bounds[i], orders[i] = value, bound, order
                        elif floor <= _RADIAL_TOL * size:  # the order its measured scale asks for
                            todo.append((i, order * 2, mass_m / size, None))
                        else:  # the rounding floor does not fall with the order
                            todo.append((i, _RADIAL_FIRST_ORDER, 0.0, math.nan))
                    elif abs(value - prev) <= _RADIAL_TOL * size:  # doubling: two orders agree
                        values[i], orders[i] = value, order
                    elif order < _RADIAL_MAX_ORDER:
                        todo.append((i, order * 2, 0.0, value))
                    else:
                        exponents = _jacobi_exponents(ts[i], params, singular_exponent,
                                                      left_exponent)
                        raise ConvergenceError(
                            f"radial quadrature did not settle below order {order}: t={ts[i]!r}, "
                            f"Jacobi exponents (alpha, beta) = {exponents!r}, "
                            f"last |cur - prev| = {abs(value - prev):.3e} (tol {_RADIAL_TOL:.1e})")
    return values, bounds, orders


def integrate_radial(f: Callable[[Nodes, np.ndarray], np.ndarray], t: float | np.ndarray,
                     params: Params, singular_exponent: float = 0.0, *,
                     left_exponent: float | None = None,
                     singular_height: float | np.ndarray) -> float | np.ndarray:
    """Surface-weighted cap integrals, one per height of ``t`` (a row), each
    from one Gauss-Jacobi rule whose order is set a priori by the row
    integrand's nearest singularity: the direct and complement rows of
    ||eps_t|| (``eps_norm``, ``phi`` and phi-curves), and nothing else.
    ``f(nodes, rows)`` returns the integrand of the rows ``rows`` (ascending
    indices into the flattened t, or a slice) at their (rows, n)
    :class:`Nodes`, as an array.  The result has t's shape, each row's value
    bit for bit what the row gives alone.

    ``singular_height`` (one, or an array of t's shape) is the height of the
    integrand's nearest singularity outside [-1, t] (math.inf for an entire
    one).  For t < 1 it counts the factor (1-u)^{d/2-1} that
    :func:`build_quadrature` folds into the weights, so it is at most 1
    there unless d is even.  On the rule's interval mapped to [-1, 1] that
    height lies at x_s, the focus of the Bernstein ellipse E_rho,
    rho = |x_s| + sqrt(x_s^2 - 1).  If f is analytic inside E_rho with
    |f| <= M there, its Chebyshev coefficients obey |a_k| <= 2 M rho^{-k}
    (Trefethen, *Approximation Theory and Approximation Practice*, Thm 8.1).
    An n-point Gauss rule integrates T_k exactly for k < 2n, and for k >= 2n
    the rule and the integral each give at most mu in modulus, mu the
    (positive) rule mass.  Summing 2 mu * 2 M rho^{-k} over k >= 2n gives

        |I - I_n| <= 4 mu M rho^{1-2n} / (rho - 1),

    the weighted form of ATAP Thm 19.3 (Trefethen, "Is Gauss quadrature
    better than Clenshaw-Curtis?", SIAM Rev. 50 (2008) 67-87).  M is
    unbounded when the singularity lies on E_rho itself, so the largest |f|
    at the nodes stands in for it; the sweep's oracle test checks the bound
    so formed against doubled orders on every call-site family
    (tests/test_sweep.py).  A rounding floor covers the weights' own error,
    2e-14 of sum_i w_i |f(u_i)|; the nodes add none, as f reads its distances
    to the endpoints from :class:`Nodes`, each one rounding of the rule's own.
    The one power-of-two order n >= 64 whose bound meets 1e-12 (mixed
    absolute/relative) is built; see :func:`_one_rule`.

    When no order up to 8192 meets a row's bound (a singularity within ~1e-6
    of the cap edge relative to its length, a height inside the cap, or a
    rounding floor above the tolerance), its orders double
    from 64 until two results agree to 1e-12; :class:`ConvergenceError`
    names its t, the Jacobi exponents, the last order and difference.
    """
    ts = _entries(t)[0]
    heights, h_shape = _entries(singular_height)
    return _like(t, _one_rule(f, ts, params, singular_exponent, left_exponent,
                              heights if h_shape else heights * len(ts))[0])


def _entries(x) -> tuple[list[float], tuple[int, ...]]:
    # the entries of a number, list or array as Python floats, with its shape
    if isinstance(x, np.ndarray):
        return x.ravel().tolist(), x.shape
    return (x, (len(x),)) if isinstance(x, list) else ([float(x)], ())


def _like(x, values: list[float]):
    # values in the form of x: an array of its shape, a list, or one float
    if isinstance(x, np.ndarray):
        return np.array(values).reshape(x.shape)
    return values if isinstance(x, list) else values[0]


@dataclass(frozen=True)
class CapMeasure:
    """A (possibly signed) measure on the cap u <= t.

    The absolutely continuous part has density
    regular_part(u) * (t-u)^singular_exponent against sigma_d (regular_part
    is called with the :class:`Nodes` of a float array of heights);
    ``boundary_coeff`` multiplies the unit uniform measure on the ring u = t.
    ``phi`` is the constant weighted potential on the cap of an equilibrium
    measure (None for a balayage measure), and ``mass`` the total mass once
    computed (None otherwise).  ``singular_height`` is the height of
    regular_part's nearest singularity outside the cap, the (1-u)^{d/2-1}
    surface factor included for t < 1: it sets the panel grading of the cap
    integrals (:func:`_cap_integral`), graded toward t when it lies within
    (1+t)/17 of t.
    """

    t: float
    regular_part: Callable[[Nodes], np.ndarray]
    singular_exponent: float = 0.0
    boundary_coeff: float = 0.0
    phi: float | None = None
    mass: float | None = None
    singular_height: float = field(kw_only=True)

    def radial_density(self, u):
        """Density of the absolutely continuous part at height u <= t (u < t
        when the edge is singular, singular_exponent < 0)."""
        u_arr = np.asarray(u, dtype=float)
        singular = self.singular_exponent < 0.0
        if np.any(u_arr >= self.t if singular else u_arr > self.t):
            raise ValueError(f"density needs u {'<' if singular else '<='} t = {self.t}")
        t_minus_u = self.t - u_arr
        out = np.asarray(self.regular_part(Nodes(u_arr, 1.0 + u_arr, t_minus_u, 1.0 - u_arr)))
        out = out * t_minus_u ** self.singular_exponent
        return float(out) if out.ndim == 0 else out

    def _integral(self, f: Callable[[Nodes], np.ndarray], params: Params) -> float:
        # int f d(the absolutely continuous part), on the s-free tanh-sinh rule
        return _cap_integral(self.t, self.singular_exponent, self.singular_height - self.t, f,
                             params)[0]

    def with_mass(self, params: Params) -> "CapMeasure":
        """This measure with ``mass`` set: the cap integral plus the ring charge.

        The integral takes the tanh-sinh rule of :func:`_cap_integral`, which
        splits off the edge power in closed form, and raises
        :class:`ConvergenceError` when no step down to 0.01 settles it."""
        return replace(self, mass=self._integral(self.regular_part, params) + self.boundary_coeff)

    def moment(self, k: int, params: Params) -> float:
        """int u^k d(this measure), the ring charge included; the integral is
        taken as in :meth:`with_mass`."""
        interior = self._integral(lambda nodes: nodes.u ** k * self.regular_part(nodes), params)
        return interior + self.boundary_coeff * self.t ** k
