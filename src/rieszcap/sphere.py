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
from scipy.special import psi, roots_jacobi

from rieszcap.specfun import ConvergenceError, hyp2f1

__all__ = [
    "Params",
    "CapMeasure",
    "RadialQuadrature",
    "omega_ratio",
    "sphere_energy",
    "kappa",
    "boundary_potential",
    "kelvin_image_height",
    "axis_dist2",
    "build_quadrature",
    "integrate_radial",
]

_EXC_TOL = 1e-12  # how close s must be to d-2 to count as the exceptional case
_RULE_CACHE_SIZE = 128  # distinct (order, alpha, beta) Gauss-Jacobi rules kept per process


@dataclass(frozen=True)
class Params:
    """Sphere dimension and interaction kernel.

    Either a Riesz kernel |x-y|^(-s) with 0 < s < d (pass ``s``), or the
    logarithmic kernel log(1/|x-y|) (pass ``log=True``).  Cap-level results
    gate their own sub-regimes: d-2 < s < d for the generic cap formulas,
    s = d-2 with d >= 3 for the boundary-atom case, and d = 2 for the
    logarithmic cap case.
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
    def is_log(self) -> bool:
        return self.log

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
    if params.is_log:
        return 0.5 * (psi(float(d)) - psi(d / 2.0)) - math.log(2.0)
    s = params.s
    # Params already guarantees 0 < s < d
    return math.exp(math.lgamma(float(d)) + math.lgamma((d - s) / 2.0)
                    - s * math.log(2.0) - math.lgamma(d / 2.0) - math.lgamma(d - s / 2.0))


def axis_dist2(u, R: float):
    """Squared distance from a sphere point at height u to the axis point R*p."""
    return R * R - 2.0 * R * u + 1.0


def kappa(u: float, xi: float, params: Params) -> float:
    """sigma_{d-1}-average of the kernel between the rings at heights u and xi.

    Riesz branch (A&S 15.3.1 applied to the ring integral):

        kappa(u, xi) = (1-lo)^{-s/2} (1+hi)^{-s/2}
                       2F1(s/2, 1-(d-s)/2; d/2; (1+lo)(1-hi)/((1-lo)(1+hi)))

    with lo = min(u, xi), hi = max(u, xi); symmetric by construction.
    Logarithmic branch: -log(1 - u*xi + |xi - u|)/2.  At u = xi the value
    is finite only for s < d-1 (Gauss summation); s >= d-1 raises there.
    """
    if params.is_log:
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


def boundary_potential(t: float, xi: float, params: Params) -> float:
    """Potential of the unit ring measure on u = t at kernel exponent s = d-2.

        (1-t)^{1-d/2} (1+xi)^{1-d/2}   for xi >= t,
        (1+t)^{1-d/2} (1-xi)^{1-d/2}   for xi <  t.
    """
    if not params.is_exceptional:
        raise ValueError("boundary_potential needs s = d-2 with d >= 3")
    e = 1.0 - params.d / 2.0
    if xi >= t:
        return (1.0 - t) ** e * (1.0 + xi) ** e
    return (1.0 + t) ** e * (1.0 - xi) ** e


def kelvin_image_height(u: float, R: float) -> float:
    """Height of the Kelvin image (inversion centred at R*p, radius
    sqrt(R^2-1)) of the sphere point at height u:

        1 + u* = (R+1)^2 (1-u) / (R^2 - 2 R u + 1).

    The sphere maps to itself; u = 1/R stays fixed, the poles swap.
    """
    if R <= 1.0:
        raise ValueError("kelvin_image_height needs R > 1")
    return (R + 1.0) ** 2 * (1.0 - u) / axis_dist2(u, R) - 1.0


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
    """

    nodes: np.ndarray
    weights: np.ndarray
    t: float

    def integrate(self, f: Callable[[np.ndarray], np.ndarray]) -> float:
        vals = np.asarray(f(self.nodes), dtype=float)
        return float(np.dot(self.weights, vals))


@functools.lru_cache(maxsize=_RULE_CACHE_SIZE)
def _jacobi_rule(order: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Jacobi rule on [-1, 1] for (1-x)^alpha (1+x)^beta; roots_jacobi is
    # deterministic, so a cached rule equals a fresh one bit for bit.  The
    # arrays are shared between callers and therefore read-only.
    x, w = roots_jacobi(order, alpha, beta)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


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
    x, w = _jacobi_rule(order, alpha, beta)
    half = (1.0 + t) / 2.0
    u = -1.0 + half * (x + 1.0)
    scale = half ** (alpha + beta + 1.0) / omega_ratio(params)
    weights = w * scale
    if t < 1.0:
        weights = weights * (1.0 - u) ** (d / 2.0 - 1.0)
    return RadialQuadrature(nodes=u, weights=weights, t=float(t))


def integrate_radial(f: Callable[[np.ndarray], np.ndarray], t: float, params: Params,
                     singular_exponent: float = 0.0, *,
                     left_exponent: float | None = None,
                     tol: float = 1e-10, order: int = 64,
                     max_order: int = 8192) -> float:
    """Surface-weighted cap integral with order doubling until two successive
    Gauss-Jacobi results agree to ``tol`` (mixed absolute/relative).

    Raises :class:`ConvergenceError` naming t, the Jacobi exponents, the last
    order and the last difference when ``max_order`` is reached first.
    """
    prev = build_quadrature(t, params, order, singular_exponent,
                            left_exponent=left_exponent).integrate(f)
    diff = math.nan
    while order < max_order:
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
        """Density of the absolutely continuous part at height u."""
        u_arr = np.asarray(u, dtype=float)
        out = np.asarray(self.regular_part(u_arr)) * (self.t - u_arr) ** self.singular_exponent
        return float(out) if out.ndim == 0 else out

    def with_mass(self, params: Params) -> "CapMeasure":
        """This measure with ``mass`` set: the cap integral plus the ring charge."""
        interior = integrate_radial(self.regular_part, self.t, params,
                                    self.singular_exponent, tol=1e-12)
        return replace(self, mass=interior + self.boundary_coeff)
