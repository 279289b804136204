"""Boundary kernel regimes: s = d-2 with d >= 3, and the planar log case.

At s = d-2 the balayage measures acquire a component uniformly distributed
on the cap boundary ring: writing beta_t for the unit ring measure at
height t,

    nubar_t  = sigma_d|_cap + W_{d-2} (1-t)/2 (1-t^2)^{d/2-1} beta_t,
    epsbar_t = (R^2-1)^2 / (W_{d-2} (R^2-2Ru+1)^{d/2+1}) sigma_d|_cap
               + (1-t)/2 (R+1)^2/r^d (1-t^2)^{d/2-1} beta_t,

and the signed equilibrium etabar_t carries a ring charge that vanishes
exactly at the optimal height t0, where the density also stays strictly
positive at the edge (unlike the d-2 < s < d regime).  All three measures,
their potentials and the norms, Phi and H are the s -> (d-2)+ limits in
:mod:`rieszcap.cap_riesz`, built by the same constructors as for s > d-2;
this module measures the weak* convergence of that limit.  The planar
logarithmic case d = 2 has mass-preserving balayage and fully closed forms,
including t0 = min{1, (R^2 - 2Rq + 1)/(2R(1+q))}.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from rieszcap.cap_riesz import eps_measure, nu_measure
from rieszcap.point_field import AxisMeasure
from rieszcap.sphere import CapMeasure, Params, _axis_pole_height, _gap_dist2, axis_dist2

__all__ = [
    "weakstar_gap",
    "gamma_s_norm",
    "log_h",
    "log_h_slope",
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
    if not (params.log and params.d == 2):
        raise ValueError(f"the logarithmic cap case is stated for d = 2, got {params}")


# ---------------------------------------------------------------------------
# s = d-2


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
    eps analogue for k = 0..3, ring charges included; returns a list of
    dicts with keys 's', 'nu', 'eps'.  Decay along s -> (d-2)+ is the
    caller's assertion.
    """
    _require_exceptional(params)
    d = params.d

    nb, eb = nu_measure(t, params), eps_measure(t, R, params)
    out = []
    for s in s_values:
        if not (d - 2 < s < d):
            raise ValueError(f"weak* path requires d-2 < s < d, got s={s}")
        ps = Params(d=d, s=float(s))
        nu, eps = nu_measure(t, ps), eps_measure(t, R, ps)
        rec = {"s": float(s), "nu": np.empty(4), "eps": np.empty(4)}
        for k in range(4):
            rec["nu"][k] = abs(nu.moment(k, ps) - nb.moment(k, params))
            rec["eps"][k] = abs(eps.moment(k, ps) - eb.moment(k, params))
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


def _per_height(fn):
    # fn(t, ...) at a number t, or at each entry of an array t as a Python float:
    # math's rounding, so that each entry is the one-height call bit for bit
    @functools.wraps(fn)
    def each(t, *args, **kwargs):
        if not isinstance(t, np.ndarray):
            return fn(t, *args, **kwargs)
        return np.array([fn(x, *args, **kwargs) for x in t.ravel().tolist()]).reshape(t.shape)
    return each


def log_h(t: float, field: AxisMeasure, params: Params) -> float:
    """H(t) = sum_i m_i 2 R_i (1+t)/r_i(t)^2 = sum_i m_i (R_i+1)^2/r_i^2 - ||lambda||, t a number or
    an array: H(-1) = 0, and etabar_{t,0}'s ring charge is (1-t)/2 (1 - H(t)), so H(t0) = 1."""
    _require_log(params)
    return sum(m * 2.0 * R * (1.0 + t) / axis_dist2(t, R) for R, m in field.folded(params).atoms)


def log_h_slope(t: float, field: AxisMeasure, params: Params) -> float:
    """H'(t) = sum_i m_i 2 R_i (R_i+1)^2/r_i(t)^4."""
    return sum(m * 2.0 * R * (R + 1.0) ** 2 / axis_dist2(t, R) ** 2
               for R, m in field.folded(params).atoms)


def log_etabar(t: float, field: AxisMeasure, params: Params) -> CapMeasure:
    """Signed logarithmic cap equilibrium (1+||lambda||) nubar_{t,0} - sum_i
    m_i epsbar_{t,0}^i for t in (-1, 1]; the ring charge (1-t)/2 (1 - H(t))
    vanishes exactly at t0 and at t = 1.  Unit mass; ``phi`` is F_0(Sigma_t).
    The density is singular only at the atoms' heights (R_i^2+1)/(2R_i): at
    d = 2 the cap rule folds in no surface factor."""
    field = field.folded(params)
    total = field.total_mass

    def interior(nodes):
        out = (1.0 + total) * np.ones_like(nodes.u)
        for R, m in field.atoms:
            out = out - m * (R * R - 1.0) ** 2 / _gap_dist2(nodes.one_minus_u, R) ** 2
        return out

    bcoef = (1.0 - t) / 2.0 * (1.0 - log_h(t, field, params)) if t < 1.0 else 0.0
    height = min((_axis_pole_height(R) for R, _ in field.atoms), default=math.inf)
    return CapMeasure(t=t, regular_part=interior, boundary_coeff=bcoef,
                      phi=log_f0_functional(t, field, params), mass=1.0, singular_height=height)


@_per_height
def log_f0_functional(t: float, field: AxisMeasure, params: Params) -> float:
    """Closed form of the cap functional F_0(Sigma_t) = W_0(Sigma_t)
    + int Q d mu_cap for the logarithmic axis field (d = 2), t a number or array:

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
