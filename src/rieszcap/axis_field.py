"""The support solver for external fields of charges on the positive axis.

A finite positive atom measure lambda = sum_i m_i delta_{R_i p} drives the
field Q(x) = sum_i m_i |x - R_i p|^{-s} (or the log analogue); a point
charge is the one-atom case.  Everything superposes: the balayage of
lambda is the mass-weighted sum of the single-charge balayages.  All three
kernel regimes run one algorithm on H, increasing from H(-1) = 0, with
Delta(t) = W (1 - H(t))/||nu_t||: H(1) <= 1 gives the full sphere; else
Newton on log H in log(1+t) finds the root t0 of H = 1, and eta_t0 is
assembled and certified by its mass.  H and that mass run on one tanh-sinh
rule that does not depend on s, so a solve builds no quadrature rule.  The
whole sphere is the cap t = 1; for s = d-1 and q = 1 the charge distance
where H(1) = 1 is :func:`newtonian_distance`.  Every kernel shares H, H' and
eta_t (:mod:`rieszcap.cap_riesz`), each one formula that reads the kernel's
constants from :class:`rieszcap.sphere.Params`.  A continuous lambda should be
pre-discretized by the caller (any quadrature of d lambda(R) against these
formulas is exact for its own nodes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

from scipy import optimize

from rieszcap import cap_riesz
from rieszcap.point_field import AxisMeasure
from rieszcap.specfun import ConvergenceError
from rieszcap.sphere import CapMeasure, Params

__all__ = [
    "AxisMeasure",
    "CapSolution",
    "axis_solve_t",
    "newtonian_distance",
]

_MASS_TOL = 1e-10  # |mass(eta_t0) - 1| above which a solve raises: mass(eta_t) = 1 identically


@dataclass(frozen=True)
class CapSolution:
    """Solved extremal support: the extremal measure eta_t0 and the branch
    taken; t0, Phi(t0), the kernel and the field are read from eta_t0.  ``delta_evals``
    counts H's evaluations, H(1) included; ``t0_error`` is the last Newton step in t."""

    equilibrium: CapMeasure
    solved_by: str  # "interior_root" or "boundary_t_equals_1"
    delta_evals: int = 1
    t0_error: float = 0.0

    @property
    def t0(self) -> float:
        """Height of the support cap."""
        return self.equilibrium.t

    @property
    def phi_at_t0(self) -> float:
        """The functional at t0, the weighted potential on the support."""
        return self.equilibrium.phi

    @property
    def field(self) -> AxisMeasure:
        """The field as the caller gave it: the charges eta_t0 was swept from."""
        return AxisMeasure(self.equilibrium.charges)


def axis_solve_t(lam: AxisMeasure, params: Params) -> CapSolution:
    """Find the extremal support cap for an axis-supported field.

    H(1) <= 1 (Delta(1) >= 0) in the regime (d-2 < s < d, s = d-2 with d >= 3,
    or logarithmic with d = 2) returns t0 = 1 with the whole-sphere signed
    equilibrium.  Otherwise Newton on log H, convex in x = log(1+t), from x = 0
    and clipped at x = log 2 finds H(t0) = 1; an iterate left of t0 after one
    right of it, by more than the stopping tolerance, raises ConvergenceError.
    eta_t0 carries no ring charge, and a mass of eta_t0 off 1 (its value at
    every t) by over 1e-10 raises ConvergenceError (:func:`_certified`).
    """
    h, slope, eta = cap_riesz.h, cap_riesz.h_slope, cap_riesz.eta_measure
    if h(1.0, lam, params) <= 1.0:
        t0, solved_by, evals, step = 1.0, "boundary_t_equals_1", 1, 0.0
    else:
        t, right = 0.0, False  # right: an iterate has landed right of t0, where H > 1
        for evals in range(2, 102):  # H evaluations, H(1) included
            h_t, h_dt = float(h(t, lam, params)), float(slope(t, lam, params))
            x = math.log1p(t) - math.log(h_t) * h_t / ((1.0 + t) * h_dt)
            step = t - min(math.expm1(x), 1.0)
            if abs(step) <= 1e-14 + 8.9e-16 * abs(t):
                break
            if right and h_t < 1.0:
                raise ConvergenceError(f"log H is not convex in log(1+t): H({t!r}) = {h_t!r} < 1")
            right, t = right or h_t > 1.0, t - step
        else:
            raise ConvergenceError(f"Newton on log H did not settle: last step {step!r} at t = {t!r}")
        t0, solved_by = t - step, "interior_root"
    measure = _certified(replace(eta(t0, lam, params), boundary_coeff=0.0))
    return CapSolution(equilibrium=measure, solved_by=solved_by, delta_evals=evals,
                       t0_error=abs(step))


def _certified(eta: CapMeasure) -> CapMeasure:
    """eta_t itself; a mass off 1, its value at every t, by over 1e-10 raises."""
    if not abs(eta.mass - 1.0) <= _MASS_TOL:
        raise ConvergenceError(f"mass(eta_t) - 1 = {float(eta.mass) - 1.0!r} at t = {eta.t!r}")
    return eta


def newtonian_distance(d: int) -> float:
    """rho_+ = R - 1 for the Newtonian kernel s = d-1 and q = 1: the charge distance where
    :func:`axis_solve_t`'s whole-sphere test H(1) <= 1 flips, by Brent on H(1) - 1 over
    rho in [1, 2], which P(d; .) of :mod:`rieszcap.point_field` brackets and certifies."""
    h = partial(cap_riesz.h, params=Params(d=d, s=d - 1.0))
    return float(optimize.brentq(lambda rho: h(1.0, AxisMeasure([(1.0 + rho, 1.0)])) - 1.0,
                                 1.0, 2.0, xtol=1e-15, rtol=8.9e-16))
