"""The support solver for external fields of charges on the positive axis.

A finite positive atom measure lambda = sum_i m_i delta_{R_i p} drives the
field Q(x) = sum_i m_i |x - R_i p|^{-s} (or the log analogue); a point
charge is the one-atom case.  Everything superposes: the balayage of
lambda is the mass-weighted sum of the single-charge balayages.  All three
kernel regimes run one algorithm: the sign of Delta(1) decides whether the
support is the full sphere; otherwise Delta(t) is bracketed on a grid and
its root t0 polished by Brent iteration; then eta_t0 is assembled.  The
whole sphere is the cap t = 1.  The regime modules supply only the formulas
(see :class:`Regime`).  A continuous lambda should be pre-discretized by
the caller (any quadrature of d lambda(R) against these formulas is exact
for its own nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
from scipy import optimize

from rieszcap import cap_exceptional, cap_riesz
from rieszcap.point_field import AxisMeasure, field_potential_on_axis
from rieszcap.sphere import CapMeasure, Params, axis_dist2, sphere_energy

__all__ = [
    "AxisMeasure",
    "CapSolution",
    "Regime",
    "regime",
    "axis_sphere_equilibrium",
    "cap_measure",
    "axis_solve_t",
]


def axis_sphere_equilibrium(lam: AxisMeasure, params: Params) -> CapMeasure:
    """Signed equilibrium on the whole sphere for the axis field: the cap
    measure at t = 1, with the whole sphere's functional value as ``phi``.

    Riesz (0 < s < d): density (1/W_s)(F_s(S^d) - sum m_i (R_i^2-1)^{d-s}
    rho_i^{s-2d}), where F_s(S^d) = W_s + int U_s^sigma(R) d lambda(R).
    Logarithmic (d=2): the same form at s = 0 with W = 1 and 1+||lambda||
    in place of F_s(S^d), while ``phi`` is F_0(S^2).  The density at the
    north pole has the sign of Delta(1), which decides whether the extremal
    support is the whole sphere.
    """
    lam = lam.folded(params)
    atoms = lam.atoms
    d = params.d
    if params.is_log:
        s, W, level = 0.0, 1.0, 1.0 + lam.total_mass
        F = cap_exceptional.log_f0_functional(1.0, lam, params)
    else:
        s, W = params.s, sphere_energy(params)
        F = level = W + sum(m * field_potential_on_axis(R, params) for R, m in atoms)

    def density(u):
        u_arr = np.asarray(u, dtype=float)
        out = level * np.ones_like(u_arr)
        for R, m in atoms:
            out = out - m * (R * R - 1.0) ** (d - s) * axis_dist2(u_arr, R) ** (s / 2.0 - d)
        out = out / W
        return float(out) if out.ndim == 0 else out

    return CapMeasure(t=1.0, regular_part=density, phi=F)


class Regime(NamedTuple):
    """The formulas one kernel regime supplies, bound to its parameters.

    ``phi(t, field)`` is the cap functional, ``delta(t, field)`` the
    function whose root is the support height, ``eta(t, field)`` the signed
    cap equilibrium for -1 < t < 1 (mass not computed, ``phi`` set), and
    ``potential(xi, eta, field)`` its closed-form weighted potential.
    Both Riesz regimes share ``phi`` and ``delta``; s = d-2 supplies only its
    ``eta`` (with a ring charge) and ``potential``.  ``column`` names the
    functional in phi-curve output.
    """

    column: str
    phi: Callable[[float, AxisMeasure], float]
    delta: Callable[[float, AxisMeasure], float]
    eta: Callable[[float, AxisMeasure], CapMeasure]
    potential: Callable[[float, CapMeasure, AxisMeasure], float]


def regime(params: Params) -> Regime:
    """The formulas for d-2 < s < d, s = d-2 with d >= 3, or log with d = 2."""
    ce, cr = cap_exceptional, cap_riesz
    if params.is_log:
        ce._require_log(params)
        column, fns = "F0", (ce.log_f0_functional, ce.log_delta, ce.log_etabar,
                             ce.log_eta_potential)
    elif params.is_exceptional:
        column, fns = "phibar", (cr.phi, cr.delta, ce.etabar_measure, ce.etabar_potential)
    elif params.in_cap_regime:
        column, fns = "phi", (cr.phi, cr.delta, cr.eta_measure, cr.eta_potential)
    else:
        raise ValueError(f"no cap solver for d={params.d}, s={params.s}")
    return Regime(column, *(partial(f, params=params) for f in fns))


def cap_measure(lam: AxisMeasure, t: float, params: Params) -> CapMeasure:
    """The signed cap equilibrium eta_t at a height t in (-1, 1], with its
    functional value as ``phi`` (mass not computed).  eta_1 is the signed
    equilibrium of the whole sphere."""
    if t == 1.0:
        return axis_sphere_equilibrium(lam, params)
    return regime(params).eta(t, lam)


@dataclass(frozen=True)
class CapSolution:
    """Solved extremal support: cap height t0, functional value Phi(t0),
    the extremal measure eta_t0 (with its mass) and the branch taken."""

    t0: float
    phi_at_t0: float
    equilibrium: CapMeasure
    solved_by: str  # "interior_root" or "boundary_t_equals_1"
    field: AxisMeasure
    params: Params


def _solve_bracketed(delta) -> float:
    # Delta > 0 near t = -1 and Delta(1) < 0: bracket the sign change on a grid
    prev = -1.0 + 1e-9
    for tk in np.linspace(-1.0 + 2.0 / 65.0, 1.0, 64):
        if delta(float(tk)) <= 0.0:
            return float(optimize.brentq(delta, prev, float(tk), xtol=1e-14, rtol=8.9e-16))
        prev = float(tk)
    raise RuntimeError("Delta did not change sign on the bracket grid")


def axis_solve_t(lam: AxisMeasure, params: Params) -> CapSolution:
    """Find the extremal support cap for an axis-supported field.

    A nonnegative Delta(1) of the regime (d-2 < s < d, s = d-2 with d >= 3,
    or logarithmic with d = 2) returns t0 = 1 with the whole-sphere signed
    equilibrium; otherwise the unique interior root of Delta is bracketed
    and refined.  At the root Delta(t0) = 0, so eta_t0 carries no
    ring charge.
    """
    lam = lam.folded(params)
    form = regime(params)
    if form.delta(1.0, lam) >= 0.0:
        t0, solved_by = 1.0, "boundary_t_equals_1"
    else:
        t0 = _solve_bracketed(lambda t: form.delta(t, lam))
        solved_by = "interior_root"
    measure = replace(cap_measure(lam, t0, params), boundary_coeff=0.0).with_mass(params)
    return CapSolution(t0=t0, phi_at_t0=measure.phi, equilibrium=measure,
                       solved_by=solved_by, field=lam, params=params)
