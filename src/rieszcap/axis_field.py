"""The support solver for external fields of charges on the positive axis.

A finite positive atom measure lambda = sum_i m_i delta_{R_i p} drives the
field Q(x) = sum_i m_i |x - R_i p|^{-s} (or the log analogue); a point
charge is the one-atom case.  Everything superposes: the balayage of
lambda is the mass-weighted sum of the single-charge balayages.  All three
kernel regimes run one algorithm on H, increasing from H(-1) = 0, with
Delta(t) = W (1 - H(t))/||nu_t||: H(1) <= 1 gives the full sphere; else
Newton on log H in log(1+t) finds the root t0 of H = 1, and eta_t0 is
assembled.  The whole sphere is the cap t = 1.  The regime modules supply
only the formulas (see :class:`Regime`).  A continuous lambda should be
pre-discretized by the caller (any quadrature of d lambda(R) against these
formulas is exact for its own nodes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

from rieszcap import cap_exceptional, cap_riesz
from rieszcap.point_field import AxisMeasure
from rieszcap.specfun import ConvergenceError
from rieszcap.sphere import _RADIAL_FIRST_ORDER, CapMeasure, Params, _jacobi_exponents, _jacobi_rules

__all__ = [
    "AxisMeasure",
    "CapSolution",
    "Regime",
    "regime",
    "axis_solve_t",
]

_MASS_TOL = 1e-10  # |mass(eta_t0) - 1| above which a solve raises: mass(eta_t) = 1 identically


class Regime(NamedTuple):
    """The formulas one kernel regime supplies, bound to its parameters.

    ``phi(t, field)`` is the cap functional and ``h(t, field)`` the increasing
    positive function H with Delta = W (1 - H)/||nu_t||, so that H(t0) = 1, at
    t or each entry of an array t (bit for bit), ``slope(t, field)`` H'(t) for
    t in (-1, 1), ``eta(t, field)`` the signed cap equilibrium for t in (-1, 1] (mass
    not computed, ``phi`` set; eta_1 is the signed equilibrium of the whole
    sphere), and ``potential(xi, eta, field)`` its closed-form weighted potential.
    The Riesz range d-2 <= s < d runs one set of formulas; at s = d-2 its
    ``eta`` carries a ring charge.  ``column`` names the functional in
    phi-curve output.  ``families`` are the (singular, left) exponents of the
    cap integrals whose rules depend on s (none for log, fixed at d = 2).
    """

    column: str
    phi: Callable[[float, AxisMeasure], float]
    h: Callable[[float, AxisMeasure], float]
    slope: Callable[[float, AxisMeasure], float]
    eta: Callable[[float, AxisMeasure], CapMeasure]
    potential: Callable[[float, CapMeasure, AxisMeasure], float]
    families: tuple[tuple[float, float | None], ...]


def regime(params: Params) -> Regime:
    """The formulas for d-2 < s < d, s = d-2 with d >= 3, or log with d = 2."""
    ce, cr = cap_exceptional, cap_riesz
    if params.log:
        ce._require_log(params)
        column, fns, families = "F0", (ce.log_f0_functional, ce.log_h, ce.log_h_slope,
                                       ce.log_etabar, ce.log_eta_potential), ()
    elif params.in_cap_regime or params.is_exceptional:
        fns = cr.phi, cr.h, cr.h_slope, cr.eta_measure, cr.eta_potential
        column, families = "phibar" if params.is_exceptional else "phi", cr._families(params)
    else:
        raise ValueError(f"no cap solver for d={params.d}, s={params.s}")
    return Regime(column, *(partial(f, params=params) for f in fns), families)


@dataclass(frozen=True)
class CapSolution:
    """Solved extremal support: the extremal measure eta_t0 (with its mass) and
    the branch taken; t0 and Phi(t0) are read from eta_t0.  ``delta_evals`` counts
    H's evaluations, H(1) included; ``t0_error`` is the last Newton step in t."""

    equilibrium: CapMeasure
    solved_by: str  # "interior_root" or "boundary_t_equals_1"
    field: AxisMeasure
    params: Params
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


def axis_solve_t(lam: AxisMeasure, params: Params) -> CapSolution:
    """Find the extremal support cap for an axis-supported field.

    H(1) <= 1 (Delta(1) >= 0) in the regime (d-2 < s < d, s = d-2 with d >= 3,
    or logarithmic with d = 2) returns t0 = 1 with the whole-sphere signed
    equilibrium.  Otherwise Newton on log H, convex in x = log(1+t), from x = 0
    and clipped at x = log 2 finds H(t0) = 1; an iterate left of t0 after one
    right of it, by more than the stopping tolerance, raises ConvergenceError.
    eta_t0 carries no ring charge, and a mass of eta_t0 off 1 (its value at
    every t) by over 1e-10 raises ConvergenceError.
    """
    lam = lam.folded(params)
    form = regime(params)
    if form.h(1.0, lam) <= 1.0:
        t0, solved_by, evals, step = 1.0, "boundary_t_equals_1", 1, 0.0
    else:
        # the first-order rules of every cap integral of the solve, in one build pass
        _jacobi_rules(_RADIAL_FIRST_ORDER, [_jacobi_exponents(0.0, params, *f) for f in form.families])
        t, right = 0.0, False  # right: an iterate has landed right of t0, where H > 1
        for evals in range(2, 102):  # H evaluations, H(1) included
            h_t = float(form.h(t, lam))
            x = math.log1p(t) - math.log(h_t) * h_t / ((1.0 + t) * float(form.slope(t, lam)))
            step = t - min(math.expm1(x), 1.0)
            if abs(step) <= 1e-14 + 8.9e-16 * abs(t):
                break
            if right and h_t < 1.0:
                raise ConvergenceError(f"log H is not convex in log(1+t): H({t!r}) = {h_t!r} < 1")
            right, t = right or h_t > 1.0, t - step
        else:
            raise ConvergenceError(f"Newton on log H did not settle: last step {step!r} at t = {t!r}")
        t0, solved_by = t - step, "interior_root"
    measure = replace(form.eta(t0, lam), boundary_coeff=0.0).with_mass(params)
    if not abs(measure.mass - 1.0) <= _MASS_TOL:
        raise ConvergenceError(f"mass(eta_t0) - 1 = {measure.mass - 1.0!r} at t0 = {t0!r}")
    return CapSolution(equilibrium=measure, solved_by=solved_by, field=lam, params=params,
                       delta_evals=evals, t0_error=abs(step))
