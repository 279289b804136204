"""Geometry and baseline potential theory of the unit d-sphere.

Rotationally invariant fields reduce everything to the height coordinate
u in [-1, 1]: the surface measure decomposes as

    d sigma_d = (omega_{d-1}/omega_d) (1-u^2)^{d/2-1} du d sigma_{d-1},

and all potentials become 1-d integrals against the Funk-Hecke ring kernel
``kappa``.  Measures are normalized against the unit surface measure
sigma_d throughout, and cap integrals multiply in the full surface factor
(omega ratio and Jacobian), so the integral of 1 is a sigma_d mass.

Every cap integral runs on one tanh-sinh rule that does not depend on s
(:func:`_tanh_sinh_nodes`): the masses and moments of a cap measure
(:meth:`CapMeasure.moment`), H (:func:`rieszcap.cap_riesz.h`) and the rows
of ||eps_t|| (:func:`rieszcap.cap_riesz.eps_norm`).  Nodes are held as their
distances to the ends of the cap, and panels are graded toward the cap edge
when a singularity lies near it.  The moments and eps_t's rows settle by one
driver (:func:`_cap_integrals`): it splits an edge power at either end off in
closed form and halves the step of a batch of integrals until the step-2h
rule, the even-indexed nodes, agrees.  H takes the first step alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import beta, psi

from rieszcap.specfun import ConvergenceError, hyp2f1_1mz

__all__ = [
    "Params",
    "CapMeasure",
    "Nodes",
    "omega_ratio",
    "sphere_energy",
    "kappa",
    "axis_dist2",
]

_RULE_EPS = 2e-14  # rounding floor of a tanh-sinh integral, relative to sum w|f|
_TS_STEP = 0.08  # the tanh-sinh step at level 0; level j halves it j times
_TS_LEVELS = 4  # tanh-sinh levels a cap integral may take, h = 0.08 down to 0.01
_TS_TOL = 1e-14  # a level settles when (I_h - I_2h)^2 / max(1, |I|) <= this * max(1, |I|)


@dataclass(frozen=True)
class Params:
    """Sphere dimension and interaction kernel, one of the three the cap formulas take.

    Either a Riesz kernel |x-y|^(-s) (pass ``s``) or the logarithmic kernel
    log(1/|x-y|) (pass ``log=True``), one function per cap quantity of
    :mod:`rieszcap.cap_riesz` for all three: d-2 < s < d with a positive edge
    exponent 1-(d-s)/2 (at d = 2: s > 2^-53); s = d-2, a point, where balayage
    grows a ring charge (every double above it is d-2 < s < d); and the log
    kernel at d = 2, the s -> 0+ limit, which they take as the s = d-2 point of
    d = 2 with exponent 0 and W = 1.  Any other kernel raises ValueError here.
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
        if not (self.is_exceptional or self.s is not None and 1.0 - (self.d - self.s) / 2.0 > 0.0):
            limit = "; its s -> 0+ limit is the log kernel" if self.d == 2 and not self.log else ""
            raise ValueError(f"no cap solver for {self}: cap formulas need d-2 <= s < d "
                             f"or the log kernel at d = 2{limit}")

    @property
    def exponent(self) -> float:
        """The exponent the cap formulas read: s, or 0 for the log kernel, its s -> 0+ limit."""
        return 0.0 if self.log else self.s

    @cached_property
    def balayage_constant(self) -> float:
        """W_s in the cap formulas (:func:`sphere_energy`, computed once), or 1 for log."""
        return 1.0 if self.log else sphere_energy(self)

    @property
    def is_exceptional(self) -> bool:
        """True at exponent d-2 (s = d-2 with d >= 3, or log at d = 2): balayage grows a ring."""
        return self.exponent == self.d - 2


def omega_ratio(d: int) -> float:
    """omega_d / omega_{d-1} = sqrt(pi) Gamma(d/2) / Gamma((d+1)/2), for d >= 1.

    Equals the full height integral of (1-u^2)^{d/2-1}.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return math.sqrt(math.pi) * math.exp(math.lgamma(d / 2.0) - math.lgamma((d + 1) / 2.0))


def surface_factor(d: int) -> float:
    """omega_{d-1} / omega_d, the constant in the sigma_d decomposition."""
    return 1.0 / omega_ratio(d)


def sphere_energy(params: Params) -> float:
    """Continuous kernel energy of the whole sphere.

    Riesz:        W_s = Gamma(d) Gamma((d-s)/2) / (2^s Gamma(d/2) Gamma(d-s/2))
                      = B((d-s)/2, d/2) / (2^s B(d/2, d/2)),
    logarithmic:  W_0 = (psi(d) - psi(d/2))/2 - log 2,

    the latter being d/ds W_s at s=0 (for d=2 it equals 1/2 - log 2).  The
    ratio of two beta functions rounds less than the exp of a sum of log
    gammas, and stays finite up to d = 1000.
    """
    d = params.d
    if params.log:
        return 0.5 * (psi(float(d)) - psi(d / 2.0)) - math.log(2.0)
    s = params.s
    # Params already guarantees 0 < s < d
    return float(beta((d - s) / 2.0, d / 2.0) / (2.0 ** s * beta(d / 2.0, d / 2.0)))


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


def _tanh_sinh_nodes(t, gap, level: int = 0) -> tuple[Nodes, np.ndarray, np.ndarray]:
    """Tanh-sinh nodes and weights on [-1, t], t <= 1, at a height t or at each
    of a 1-d array of heights, ``gap`` a number or one per height: (nodes, w,
    owner), (panels, n) arrays with one row per panel, and the index of the
    height each panel row belongs to.  A height's sum of w f(nodes) over its
    rows approximates int_{-1}^t f(u) du.

    The nodes are held as their distances 1+u, t-u and 1-u = (1-t) + (t-u), each
    formed without cancellation.  ``gap`` is how far the integrand's nearest
    singularity lies beyond t; when it lies within (1+t)/17 of t, panels graded
    toward t at t - gap 4^j keep it away from all but the last panel's end.
    Every other height takes one panel, and a height's rows are bit for bit
    those it gets alone.
    """
    t, gap = np.array(t, dtype=float, ndmin=1), np.asarray(gap, dtype=float)
    one_plus_t = 1.0 + t
    near = ((0.0 < gap) & (gap < one_plus_t / 17.0)).nonzero()[0].tolist()
    owner, half, one_minus_t = np.arange(len(t)), one_plus_t / 2.0, 1.0 - t
    left = right = 0.0  # a lone panel starts at 1+u = 0 and ends at t-u = 0
    if near:
        counts, panels = np.ones(len(t), dtype=int), []
        for i in near:
            x, g = float(t[i]), float(gap[i] if gap.ndim else gap)
            cuts = [0.0]  # panel edges as distances below t: 0, gap 4^j while the pole is near
            while g + cuts[-1] < (1.0 + x - cuts[-1]) / 17.0:
                cuts.append(g * 4.0 ** (len(cuts) - 1))
            ends = cuts + [1.0 + x]  # a panel's 1+u at its left end, t-u at its right, half length
            panels += [(1.0 + x - hi, lo, (hi - lo) / 2.0) for lo, hi in zip(ends, ends[1:])]
            counts[i] = len(ends) - 1
        owner, graded = owner.repeat(counts), (counts > 1).repeat(counts)
        half, one_minus_t = half[owner], one_minus_t[owner]
        left, right = np.zeros((2, len(owner), 1))
        left[graded, 0], right[graded, 0], half[graded] = np.array(panels).T
    half, one_minus_t = half[:, None], one_minus_t[:, None]
    plus, minus, w = _TS_RULES[level]
    one_plus_u, t_minus_u = left + half * plus, right + half * minus
    one_minus_u = one_minus_t + t_minus_u
    return Nodes(-1.0 + one_plus_u, one_plus_u, t_minus_u, one_minus_u), half * w, owner


def _cap_integrals(t: np.ndarray, gap: np.ndarray, f, power: float, left: bool,
                   describe: Callable[[int], str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(I, e, level) of a batch of cap integrals, one per entry of the 1-d array t,
    each bit for bit what it gives alone: the values, their error estimates and
    the tanh-sinh levels that settled them.  Row i is

        I_i = int_{-1}^{t_i} f(u) |u - c_i|^{power-1} du,   c_i = -1 if ``left`` else t_i,

    t_i in (-1, 1].  ``f(nodes, rows)`` receives the (panels, n) :class:`Nodes` of
    :func:`_tanh_sinh_nodes` (``gap`` as there) and the batch index of each panel
    row, a (panels, 1) column.  A power below 1 is split off in closed form,

        I_i = f(c_i) (1+t_i)^power/power + int (f(u) - f(c_i)) |u - c_i|^{power-1} du,

    whose integrand behaves like |u - c_i|^power at the edge, so power -> 0 costs
    nothing; f(c_i) rides along as one more node on each panel row.

    The step starts at h = 0.08, and the even-indexed nodes give the step-2h
    value at no cost.  e is (I_h - I_2h)^2 / max(1, |I|), the error of a rule
    that converges double-exponentially once I_2h has, plus a rounding floor
    of 2e-14 of |closed part| + sum w |f|.  The rows whose first part exceeds
    1e-14 max(1, |I|) take half the step, down to h = 0.01; past that,
    :class:`ConvergenceError` names ``describe(i)`` of the first unsettled row
    and its estimate.
    """
    todo, split = np.arange(len(t)), power < 1.0
    for level in range(_TS_LEVELS):
        x = t[todo]
        nodes, w, owner = _tanh_sinh_nodes(x, gap[todo], level)
        rows = todo[owner][:, None]
        if split:  # each panel row takes its height's edge c as one more node
            at = x[owner][:, None]
            edge = (np.full_like(at, -1.0), np.zeros_like(at), 1.0 + at, np.full_like(at, 2.0)) \
                if left else (at, 1.0 + at, np.zeros_like(at), 1.0 - at)
            vals = f(Nodes(*(np.concatenate(pair, axis=1) for pair in zip(nodes, edge))), rows)
            f_c, vals = vals[:, -1:], vals[:, :-1]
            closed = np.empty(len(todo))
            closed[owner] = f_c[:, 0]  # every panel row of a height holds the same f(c)
            closed = closed * (1.0 + x) ** power / power
            part = w * (vals - f_c)
        else:
            closed, part = np.zeros(len(todo)), w * f(nodes, rows)
        if power != 1.0:
            part = part * (nodes.one_plus_u if left else nodes.t_minus_u) ** (power - 1.0)

        def sums(y):  # per row: its own panel rows in order, added to 0.0, as when it is alone
            return np.bincount(owner, y.sum(axis=1), len(todo))

        fine, coarse = sums(part), 2.0 * sums(part[:, ::2])
        value = closed + fine
        size = np.maximum(1.0, np.abs(value))
        e = (fine - coarse) ** 2 / size
        estimate = e + _RULE_EPS * (np.abs(closed) + sums(np.abs(part)))
        if level == 0:
            values, estimates, levels = value, estimate, np.zeros(len(t), dtype=int)
        else:  # the unsettled rows are written again at the next level
            values[todo], estimates[todo], levels[todo] = value, estimate, level
        settled = e <= _TS_TOL * size
        if settled.all():
            return values, estimates, levels
        todo, e = todo[~settled], e[~settled]
    raise ConvergenceError(f"integral did not settle down to tanh-sinh step "
                           f"{_TS_STEP / 2 ** level}: {describe(int(todo[0]))}, "
                           f"error estimate {e[0]:.3e}")


@dataclass(frozen=True)
class CapMeasure:
    """A (possibly signed) measure on the cap u <= t.

    The absolutely continuous part has density
    regular_part(u) * (t-u)^singular_exponent against sigma_d (regular_part
    is called with the :class:`Nodes` of a float array of heights, of any shape);
    ``boundary_coeff`` multiplies the unit uniform measure on the ring u = t.
    ``charges`` are the axis charges ((R_j, c_j), ...) the measure was swept
    from, and ``phi`` the constant K of its weighted potential
    U^mu + sum_j c_j |x - R_j p|^{-s} on the cap (None for the log kernel's
    balayages, which carry no closed form of it); ``params`` is the kernel it
    belongs to.  ``gap`` is how far regular_part's nearest singularity lies
    beyond t, the (1-u)^{d/2-1} surface factor included for t < 1, formed
    without rounding it through a height: it sets the panel grading of the
    cap integrals (:func:`_cap_integrals`), graded toward t when it lies
    within (1+t)/17 of t.
    """

    t: float
    regular_part: Callable[[Nodes], np.ndarray]
    singular_exponent: float = 0.0
    boundary_coeff: float = 0.0
    phi: float | None = None
    gap: float = field(kw_only=True)
    params: Params = field(kw_only=True)
    charges: tuple[tuple[float, float], ...] = field(default=(), kw_only=True)

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

    def density_samples(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n evenly spaced cap heights, min(1e-9, (1+t)/4) inside each end, and their density."""
        gap = min(1e-9, (1.0 + self.t) / 4.0)
        us = np.linspace(-1.0 + gap, self.t - gap, n)
        return us, self.radial_density(us)

    @cached_property
    def mass(self) -> float:
        """The total mass, ring charge included: :meth:`moment` 0."""
        return self.moment(0)

    def moment(self, k: int) -> float:
        """int u^k d(this measure), the ring charge included.  The cap integral of
        u^k regular_part times the surface factor (omega_{d-1}/omega_d) (1-u^2)^{d/2-1}
        against (t-u)^singular_exponent takes :func:`_cap_integrals` with power
        singular_exponent + 1, which rounds as the density's edge exponent
        c = 1-(d-s)/2 does, so the edge power split off in closed form matches it;
        it raises :class:`ConvergenceError` when no step down to 0.01 settles it."""
        t, a, d = self.t, self.singular_exponent, self.params.d
        om, e = omega_ratio(d), d / 2.0 - 1.0

        def f(nodes, rows):  # the surface factor is 1/om at d = 2
            out = nodes.u ** k * self.regular_part(nodes) / om
            return out if d == 2 else out * (nodes.one_plus_u * nodes.one_minus_u) ** e

        interior = _cap_integrals(np.array([t]), np.array([self.gap]), f, a + 1.0, False,
                                  lambda i: f"t={t!r}, edge exponent a={a!r}")[0]
        return float(interior[0]) + self.boundary_coeff * t ** k
