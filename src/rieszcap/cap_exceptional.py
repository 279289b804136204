"""Boundary kernel regimes: s = d-2 with d >= 3, and the planar log case.

At s = d-2 the balayage measures acquire a component uniformly distributed
on the cap boundary ring: writing beta_t for the unit ring measure at
height t,

    nubar_t  = sigma_d|_cap + W_{d-2} (1-t)/2 (1-t^2)^{d/2-1} beta_t,
    epsbar_t = (R^2-1)^2 / (W_{d-2} (R^2-2Ru+1)^{d/2+1}) sigma_d|_cap
               + (1-t)/2 (R+1)^2/r^d (1-t^2)^{d/2-1} beta_t,

and the signed equilibrium etabar_t carries a ring charge that vanishes
exactly at the optimal height t0, where the density also stays strictly
positive at the edge (unlike the d-2 < s < d regime).  Their norms, Phi
and Delta are the s -> (d-2)+ limits in :mod:`rieszcap.cap_riesz`; s = d-2
supplies only etabar_t, with its ring charge, and its potential.  The planar
logarithmic case d = 2 has mass-preserving balayage and fully closed
forms, including t0 = min{1, (R^2 - 2Rq + 1)/(2R(1+q))}.
"""

from __future__ import annotations

import math

import numpy as np

from rieszcap.cap_riesz import _edge, eps_density, nu_density, phi
from rieszcap.point_field import AxisMeasure, _exterior
from rieszcap.sphere import CapMeasure, Params, axis_dist2, integrate_radial, sphere_energy

__all__ = [
    "nubar",
    "epsbar",
    "etabar_measure",
    "nubar_potential",
    "epsbar_potential",
    "etabar_potential",
    "weakstar_gap",
    "gamma_s_norm",
    "log_delta",
    "log_etabar",
    "log_cap_energy",
    "log_f0_functional",
    "log_eta_potential",
]

def _require_exceptional(params: Params) -> None:
    if not params.is_exceptional:
        raise ValueError(f"this operation needs s = d-2 with d >= 3, "
                         f"got d={params.d}, s={params.s}")


def _require_log(params: Params) -> None:
    if not (params.is_log and params.d == 2):
        raise ValueError(f"the logarithmic cap case is stated for d = 2, got {params}")


# ---------------------------------------------------------------------------
# s = d-2


def nubar(t: float, params: Params) -> CapMeasure:
    """Balayage of the uniform measure at s = d-2: interior density 1 plus
    a ring atom of weight W_{d-2} (1-t)/2 (1-t^2)^{d/2-1}."""
    _require_exceptional(params)
    d = params.d
    W = sphere_energy(params)
    bcoef = W * (1.0 - t) / 2.0 * (1.0 - t * t) ** (d / 2.0 - 1.0) if t < 1.0 else 0.0
    return CapMeasure(t=t, regular_part=np.ones_like, boundary_coeff=bcoef).with_mass(params)


def epsbar(t: float, R: float, params: Params) -> CapMeasure:
    """Balayage of a unit charge at R*p, R > 1, at s = d-2."""
    _require_exceptional(params)
    d, R = params.d, _exterior(R)
    W = sphere_energy(params)
    r2 = axis_dist2(t, R)

    def interior(u):
        return (R * R - 1.0) ** 2 / (W * axis_dist2(u, R) ** (d / 2.0 + 1.0))

    bcoef = ((1.0 - t) / 2.0 * (R + 1.0) ** 2 / r2 ** (d / 2.0)
             * (1.0 - t * t) ** (d / 2.0 - 1.0)) if t < 1.0 else 0.0
    return CapMeasure(t=t, regular_part=interior, boundary_coeff=bcoef).with_mass(params)


def etabar_measure(t: float, field: AxisMeasure, params: Params) -> CapMeasure:
    """Signed cap equilibrium at s = d-2 (mass not computed): interior density
    (1/W)[Phi - sum_i m_i (R_i^2-1)^2/(R_i^2-2R_i u+1)^{d/2+1}], ring charge
    (1-t)/2 (1-t^2)^{d/2-1} Delta(t) (sign flips at t0), with Phi and Delta
    those of :mod:`rieszcap.cap_riesz` at s = d-2."""
    _require_exceptional(params)
    field = field.folded(params)
    d = params.d
    W = sphere_energy(params)
    pv = phi(t, field, params)

    def interior(u):
        out = pv * np.ones_like(u)
        for R, m in field.atoms:
            out = out - m * (R * R - 1.0) ** 2 / axis_dist2(u, R) ** (d / 2.0 + 1.0)
        return out / W

    bcoef = ((1.0 - t) / 2.0 * (1.0 - t * t) ** (d / 2.0 - 1.0)
             * (pv - _edge(t, field, params))) if t < 1.0 else 0.0
    return CapMeasure(t=t, regular_part=interior, boundary_coeff=bcoef, phi=pv)


def nubar_potential(xi: float, t: float, params: Params) -> float:
    """U^{nubar_t}: W_{d-2} on the cap, W_{d-2}(1+t)^{d/2-1}(1+xi)^{1-d/2}
    above it (strictly smaller there)."""
    _require_exceptional(params)
    W = sphere_energy(params)
    if xi <= t:
        return W
    e = params.d / 2.0 - 1.0
    return W * (1.0 + t) ** e * (1.0 + xi) ** (-e)


def epsbar_potential(xi: float, t: float, R: float, params: Params) -> float:
    """U^{epsbar_t} of a unit charge at a = R*p, R > 1: |z-a|^{2-d} on the
    cap, r^{2-d}(1+t)^{d/2-1}(1+xi)^{1-d/2} above it."""
    _require_exceptional(params)
    d, R = params.d, _exterior(R)
    if xi <= t:
        return axis_dist2(xi, R) ** ((2.0 - d) / 2.0)
    e = d / 2.0 - 1.0
    return axis_dist2(t, R) ** ((2.0 - d) / 2.0) * (1.0 + t) ** e * (1.0 + xi) ** (-e)


def etabar_potential(xi: float, eta: CapMeasure, field: AxisMeasure, params: Params) -> float:
    """Weighted potential U^{etabar_t} + Q at height xi, from the balayage
    decomposition etabar_t = (Phi/W) nubar_t - sum_i m_i epsbar_t^i:

        (Phi/W) U^{nubar_t} - sum_i m_i U^{epsbar_t^i} + sum_i m_i |x-a_i|^{2-d}

    (``eta`` from :func:`etabar_measure`); Phi(t) on the cap.
    """
    d, t = params.d, eta.t
    out = eta.phi / sphere_energy(params) * nubar_potential(xi, t, params)
    for R, m in field.folded(params).atoms:
        out += m * (axis_dist2(xi, R) ** ((2.0 - d) / 2.0)
                    - epsbar_potential(xi, t, R, params))
    return out


def gamma_s_norm(t: float, s: float, d: int) -> float:
    """Mass of the edge-concentrating kernel gamma_s as s decreases to d-2:

        sin(pi(1-(d-s)/2)) / (pi(1-(d-s)/2)) * (1+t)^{1-(d-s)/2},

    bounded by 2 and tending to 1.
    """
    e = 1.0 - (d - s) / 2.0
    return math.sin(math.pi * e) / (math.pi * e) * (1.0 + t) ** e


def weakstar_gap(t: float, s_values, R: float, params: Params):
    """Moment gaps quantifying the weak* convergence nu_{t,s} -> nubar_t and
    eps_{t,s} -> epsbar_t (unit charge at R*p, R > 1) as s decreases to d-2.

    For each s, computes |int u^k d nu_{t,s} - int u^k d nubar_t| and the
    eps analogue for k = 0..3; returns a list of dicts with keys
    's', 'nu', 'eps'.  Decay along s -> (d-2)+ is the caller's assertion.
    """
    _require_exceptional(params)
    d = params.d
    nb = nubar(t, params)
    eb = epsbar(t, R, params)

    def bar_moment(measure: CapMeasure, k: int) -> float:
        interior = integrate_radial(lambda u: measure.radial_density(u) * u ** k,
                                    t, params, tol=1e-12)
        return interior + measure.boundary_coeff * t ** k

    out = []
    for s in s_values:
        if not (d - 2 < s < d):
            raise ValueError(f"weak* path requires d-2 < s < d, got s={s}")
        ps = Params(d=d, s=float(s))
        rec = {"s": float(s), "nu": np.empty(4), "eps": np.empty(4)}
        for k in range(4):
            # the Jacobi rule loses digits as its exponent approaches -1
            # (s -> d-2), so ask only for what the gap comparison needs
            mom_nu = integrate_radial(
                lambda u: u ** k * nu_density(u, t, ps) * (t - u) ** ((d - s) / 2.0),
                t, ps, singular_exponent=(s - d) / 2.0, tol=2e-9)
            rec["nu"][k] = abs(mom_nu - bar_moment(nb, k))
            mom_eps = integrate_radial(
                lambda u: u ** k * eps_density(u, t, R, ps) * (t - u) ** ((d - s) / 2.0),
                t, ps, singular_exponent=(s - d) / 2.0, tol=2e-9)
            rec["eps"][k] = abs(mom_eps - bar_moment(eb, k))
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# logarithmic case, d = 2


def log_cap_energy(t: float) -> float:
    """Logarithmic energy of the cap: W_0(Sigma_t) = (1+t)/4 - log(2)/2
    - log(1+t)/2 (the cap's equilibrium measure is nubar_{t,0})."""
    if not -1.0 < t <= 1.0:
        raise ValueError("cap height must lie in (-1, 1]")
    return (1.0 + t) / 4.0 - 0.5 * math.log(2.0) - 0.5 * math.log1p(t)


def log_delta(t: float, field: AxisMeasure, params: Params) -> float:
    """Delta(t) = (1+||lambda||) / sum_i m_i (R_i+1)^2/r_i(t)^2 - 1, which has
    the sign of the ring charge of etabar_{t,0}; its root is t0.  Affine in t
    for a point charge, so Brent iteration lands on the closed form
    t0 = (R^2 - 2Rq + 1) / (2R(1+q)) to rounding."""
    _require_log(params)
    return (1.0 + field.total_mass) / _edge(t, field, params) - 1.0


def log_etabar(t: float, field: AxisMeasure, params: Params) -> CapMeasure:
    """Signed logarithmic cap equilibrium (1+||lambda||) nubar_{t,0} - sum_i
    m_i epsbar_{t,0}^i; the ring charge (1-t)/2 Delta(t) vanishes exactly at
    t0.  Unit mass; ``phi`` is F_0(Sigma_t)."""
    field = field.folded(params)
    total = field.total_mass

    def interior(u):
        out = (1.0 + total) * np.ones_like(u)
        for R, m in field.atoms:
            out = out - m * (R * R - 1.0) ** 2 / axis_dist2(u, R) ** 2
        return out

    bcoef = (1.0 - t) / 2.0 * (1.0 + total - _edge(t, field, params)) if t < 1.0 else 0.0
    return CapMeasure(t=t, regular_part=interior, boundary_coeff=bcoef,
                      phi=log_f0_functional(t, field, params), mass=1.0)


def log_f0_functional(t: float, field: AxisMeasure, params: Params) -> float:
    """Closed form of the cap functional F_0(Sigma_t) = W_0(Sigma_t)
    + int Q d mu_cap for the logarithmic axis field (d = 2):

        (1+||lambda||)(1+t)/4 - log(2)/2 - log(1+t)/2
        + sum_i m_i [ (R_i-1)^2 log(R_i^2-2R_i t+1)
                      - (R_i+1)^2 log((R_i+1)^2) ] / (8 R_i).
    """
    _require_log(params)
    if not -1.0 < t <= 1.0:
        raise ValueError("cap height must lie in (-1, 1]")
    field = field.folded(params)
    out = ((1.0 + field.total_mass) * (1.0 + t) / 4.0
           - 0.5 * math.log(2.0) - 0.5 * math.log1p(t))
    for R, m in field.atoms:
        out += m * ((R - 1.0) ** 2 * math.log(axis_dist2(t, R))
                    - (R + 1.0) ** 2 * math.log((R + 1.0) ** 2)) / (8.0 * R)
    return out


def log_eta_potential(xi: float, eta: CapMeasure, field: AxisMeasure, params: Params) -> float:
    """Weighted logarithmic potential of the signed cap equilibrium
    (``eta`` from :func:`log_etabar`): F_0(Sigma_t) on the cap, and off it

        F_0(Sigma_t) + log((1+t)/(1+xi))/2 + sum_i (m_i/2) log(r_i^2/rho_i^2).
    """
    _require_log(params)
    t, f0 = eta.t, eta.phi
    if xi <= t:
        return f0
    return (f0 + 0.5 * math.log((1.0 + t) / (1.0 + xi))
            + sum(0.5 * m * math.log(axis_dist2(t, R) / axis_dist2(xi, R))
                  for R, m in field.folded(params).atoms))
