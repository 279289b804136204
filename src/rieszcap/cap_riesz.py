"""Equilibrium on spherical caps for the Riesz kernel range d-2 <= s < d.

The balayage of the uniform measure and of the external point charge onto
the cap Sigma_t = {u <= t} have explicit densities built from a
regularized Gauss function.  Their norms combine into

    Phi_s(t) = W_s (1 + q ||eps_t||) / ||nu_t||,

whose unique minimizer t0 over (-1, 1] is the height of the extremal
support cap, found as the root of

    Delta(t) = Phi_s(t) - q (R+1)^{d-s} / (R^2 - 2 R t + 1)^{d/2}

when an interior root exists and t0 = 1 otherwise.  The signed cap
equilibrium eta_t and its weighted potential have closed forms on and off
the cap; eta_{t0} is the extremal measure.

The norms, Phi_s and Delta hold on d-2 <= s < d (at s = d-2 as the limits
s -> (d-2)+); the densities, eta_t and the potentials need d-2 < s < d, and
:mod:`rieszcap.cap_exceptional` supplies eta_t at s = d-2 and its potential.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc

from rieszcap.point_field import AxisMeasure, _exterior, field_potential_on_axis
from rieszcap.specfun import hyp2f1_regularized
from rieszcap.sphere import CapMeasure, Params, axis_dist2, integrate_radial, omega_ratio, \
    sphere_energy

__all__ = [
    "nu_density",
    "eps_density",
    "nu_norm",
    "eps_norm",
    "phi",
    "delta",
    "eta_measure",
    "eta_potential",
    "nu_potential",
    "eps_potential",
]


def _require_cap_regime(params: Params, ring: bool = False) -> None:
    # ring=True also admits s = d-2 (formulas that hold through the limit)
    if not (params.in_cap_regime or ring and params.is_exceptional):
        bound = "<=" if ring else "<"
        raise ValueError(f"cap formulas need d-2 {bound} s < d, got d={params.d}, s={params.s}")


def nu_density(u, t: float, params: Params):
    """Density of the uniform measure's balayage onto the cap, at height u:

        nu_t'(u) = Gamma(d/2)/Gamma(d-s/2) ((1-t)/(1-u))^{d/2}
                   ((t-u)/(1-t))^{(s-d)/2} 2F1reg(1, d/2; 1-(d-s)/2; (t-u)/(1-u)).

    Blows up like (t-u)^{(s-d)/2} at the cap edge; u >= t is rejected.
    """
    _require_cap_regime(params)
    u_arr = np.asarray(u, dtype=float)
    if np.any(u_arr >= t):
        raise ValueError("nu_density needs u < t")
    if t == 1.0:
        # balayage onto the whole sphere is the uniform measure itself
        ones = np.ones_like(u_arr)
        return float(ones) if ones.ndim == 0 else ones
    return _balayage_density(u_arr, t, params, 1.0, 1.0)


def _balayage_density(u_arr, t: float, params: Params, scale: float, c2: float):
    # scale Gamma(d/2)/Gamma(d-s/2) ((1-t)/(1-u))^{d/2} ((t-u)/(1-t))^{(s-d)/2}
    #   2F1reg(1, d/2; 1-(d-s)/2; c2 (t-u)/(1-u))
    d, s = params.d, params.s
    w = (t - u_arr) / (1.0 - u_arr)
    pref = scale * math.exp(math.lgamma(d / 2.0) - math.lgamma(d - s / 2.0))
    out = (pref * ((1.0 - t) / (1.0 - u_arr)) ** (d / 2.0)
           * ((t - u_arr) / (1.0 - t)) ** ((s - d) / 2.0)
           * hyp2f1_regularized(1.0, d / 2.0, 1.0 - (d - s) / 2.0, c2 * w))
    return float(out) if out.ndim == 0 else out


def eps_density(u, t: float, R: float, params: Params):
    """Density of the balayage of a unit charge at R*p, R > 1, onto the cap:

        eps_t'(u) = (1/W_s) Gamma(d/2)/Gamma(d-s/2) (R+1)^{d-s}/r^d
                    ((1-t)/(1-u))^{d/2} ((t-u)/(1-t))^{(s-d)/2}
                    2F1reg(1, d/2; 1-(d-s)/2; ((R-1)^2/r^2)(t-u)/(1-u)),

    with r^2 = R^2 - 2 R t + 1.  Same edge singularity as nu_t'.  At t = 1
    it is the whole sphere's (R^2-1)^{d-s} rho^{s-2d} / W_s, rho^2 = R^2 - 2 R u + 1,
    which has no edge and is defined at u = 1 too.
    """
    _require_cap_regime(params)
    R = _exterior(R)
    u_arr = np.asarray(u, dtype=float)
    d, s = params.d, params.s
    if t == 1.0:
        out = ((R * R - 1.0) ** (d - s) * axis_dist2(u_arr, R) ** (s / 2.0 - d)
               / sphere_energy(params))
        return float(out) if out.ndim == 0 else out
    if np.any(u_arr >= t):
        raise ValueError("eps_density needs u < t")
    r2 = axis_dist2(t, R)
    scale = (R + 1.0) ** (d - s) / r2 ** (d / 2.0) / sphere_energy(params)
    return _balayage_density(u_arr, t, params, scale, (R - 1.0) ** 2 / r2)


def nu_norm(t: float, params: Params) -> float:
    """||nu_t|| = I((1+t)/2; s/2, d - s/2) (regularized incomplete beta).

    The symmetric form of 1 - I((1-t)/2; d - s/2, s/2) (DLMF 8.17.4), which
    would lose digits to the subtraction.
    """
    _require_cap_regime(params, ring=True)
    if t >= 1.0:
        return 1.0
    if t <= -1.0:
        return 0.0
    return betainc(params.s / 2.0, params.d - params.s / 2.0, (1.0 + t) / 2.0)


def eps_norm(t: float, R: float, params: Params) -> float:
    """||eps_t|| of a unit charge at R*p, R > 1, by quadrature of its
    one-dimensional integral form:

        C (R+1)^{d-s}/W_s int_{-1}^t (1+u)^{s/2-1} (1-u)^{d-s/2-1}
                                      (R^2-2Ru+1)^{-d/2} du,

    C = 2^{1-d} Gamma(d) / (Gamma(d-s/2) Gamma(s/2)).
    At t = 1 it is the closed form U_s^sigma(R)/W_s of the whole sphere.
    Near t = 1 it is that value minus the integral over [t, 1], whose smooth
    factor is singular min(1+t, (R-1)^2/(2R)) beyond t (at u = -1 and
    u = (R^2+1)/(2R)); this form is used when that distance over 1-t exceeds
    the direct form's, 1-t (its branch point u = 1) over 1+t.
    """
    _require_cap_regime(params, ring=True)
    R = _exterior(R)
    if t <= -1.0:
        return 0.0
    if t == 1.0:
        return field_potential_on_axis(R, params) / sphere_energy(params)
    d, s = params.d, params.s
    const = (math.exp((1.0 - d) * math.log(2.0) + math.lgamma(float(d))
                      - math.lgamma(d - s / 2.0) - math.lgamma(s / 2.0))
             * (R + 1.0) ** (d - s) / sphere_energy(params) * omega_ratio(params))
    if min(1.0 + t, (R - 1.0) ** 2 / (2.0 * R)) * (1.0 + t) > (1.0 - t) ** 2:
        # the rule on [-1, -t] in v = -u supplies (1-v)^{d/2-1} (1+v)^{d-s/2-1}
        # / omega_ratio and the integrand the rest, (1-v)^{(s-d)/2} r(-v)^{-d}
        f = lambda v: (1.0 - v) ** ((s - d) / 2.0) * axis_dist2(-v, R) ** (-d / 2.0)
        val = integrate_radial(f, -t, params, left_exponent=d - s / 2.0 - 1.0)
        return eps_norm(1.0, R, params) - const * val
    # the rule supplies (1+u)^{s/2-1} (1-u)^{d/2-1} / omega_ratio and the
    # integrand the rest, (1-u)^{(d-s)/2} (R^2-2Ru+1)^{-d/2}
    f = lambda u: (1.0 - u) ** ((d - s) / 2.0) * axis_dist2(u, R) ** (-d / 2.0)
    return const * integrate_radial(f, t, params, left_exponent=s / 2.0 - 1.0)


def phi(t: float, field: AxisMeasure, params: Params) -> float:
    """Mhaskar-Saff functional of the cap: W_s (1 + sum_i m_i ||eps_t^i||)/||nu_t||,
    with ||eps_t^i|| the per-unit-charge norm of atom i; d-2 <= s < d."""
    _require_cap_regime(params, ring=True)
    if t <= -1.0:
        raise ValueError("phi diverges at t = -1 (the cap degenerates to a point)")
    W = sphere_energy(params)
    eps = sum(m * eps_norm(t, R, params) for R, m in field.folded(params).atoms)
    return W * (1.0 + eps) / nu_norm(t, params)


def _edge(t: float, field: AxisMeasure, params: Params) -> float:
    # sum_i m_i (R_i+1)^{d-s} / r_i(t)^d, the competing term in Delta(t) (s = 0 for log)
    d, s = params.d, 0.0 if params.log else params.s
    return sum(m * (R + 1.0) ** (d - s) / axis_dist2(t, R) ** (d / 2.0)
               for R, m in field.folded(params).atoms)


def delta(t: float, field: AxisMeasure, params: Params) -> float:
    """Delta(t) = Phi_s(t) - sum_i m_i (R_i+1)^{d-s} / r_i(t)^d; its root is t0."""
    return phi(t, field, params) - _edge(t, field, params)


def eta_measure(t: float, field: AxisMeasure, params: Params) -> CapMeasure:
    """The signed cap equilibrium eta_t for t in (-1, 1] (mass not computed).

    At t = 1, the whole sphere, the density is regular up to the pole:

        eta_1'(u) = Phi_s(1)/W_s - sum_i m_i eps_1'^i(u),

    whose value at u = 1 has the sign of Delta(1).  For t < 1 it is
    (t-u)^{(s-d)/2} regular(u) against sigma_d, where

        eta_t'(u) = (1/W_s) Gamma(d/2)/Gamma(d-s/2) ((1-t)/(1-u))^{d/2}
                    ((t-u)/(1-t))^{(s-d)/2} { Phi_s(t) 2F1reg(1, d/2; 1-(d-s)/2; w)
                    - sum_i B_i 2F1reg(1, d/2; 1-(d-s)/2; c_i^2 w) },

    w = (t-u)/(1-u), B_i = m_i (R_i+1)^{d-s}/r_i^d, c_i^2 = (R_i-1)^2/r_i^2.
    The brace is rearranged into Delta(t)*2F1reg(w) + sum_i B_i [2F1reg(w) -
    2F1reg(c_i^2 w)], which avoids the near-total cancellation of the 2F1
    values when t is close to t0; :func:`rieszcap.specfun.hyp2f1_regularized`
    sums it as one series, given Delta(t) and the pairs (B_i, 1 - c_i^2).
    """
    _require_cap_regime(params)
    field = field.folded(params)
    d, s = params.d, params.s
    phi_t = phi(t, field, params)
    if t == 1.0:
        W = sphere_energy(params)

        def whole(u):
            out = phi_t / W
            for R, m in field.atoms:
                out = out - m * eps_density(u, 1.0, R, params)
            return out

        return CapMeasure(t=1.0, regular_part=whole, phi=phi_t)
    delta_t = phi_t - _edge(t, field, params)
    pref0 = math.exp(math.lgamma(d / 2.0) - math.lgamma(d - s / 2.0)) / sphere_energy(params)
    # (B_i, 1 - c_i^2), the second formed as 2 R_i (1-t) / r_i^2 without cancellation
    pairs = [(m * (R + 1.0) ** (d - s) / axis_dist2(t, R) ** (d / 2.0),
              2.0 * R * (1.0 - t) / axis_dist2(t, R)) for R, m in field.atoms]

    def regular(u):
        u_arr = np.asarray(u, dtype=float)
        w = (t - u_arr) / (1.0 - u_arr)
        acc = hyp2f1_regularized(1.0, d / 2.0, 1.0 - (d - s) / 2.0, w, delta_t, pairs)
        out = (pref0 * ((1.0 - t) / (1.0 - u_arr)) ** (d / 2.0)
               * (1.0 - t) ** ((d - s) / 2.0) * acc)
        return out if np.ndim(out) else float(out)

    return CapMeasure(t=t, regular_part=regular, singular_exponent=(s - d) / 2.0, phi=phi_t)


def nu_potential(xi: float, t: float, params: Params) -> float:
    """Potential of nu_t at height xi: W_s on the cap, and

        W_s I((1+t)/(1+xi); s/2, (d-s)/2)

    above it (strictly below W_s there).
    """
    _require_cap_regime(params)
    W = sphere_energy(params)
    if xi <= t:
        return W
    return W * betainc(params.s / 2.0, (params.d - params.s) / 2.0, (1.0 + t) / (1.0 + xi))


def eps_potential(xi: float, t: float, R: float, params: Params) -> float:
    """Potential of eps_t of a unit charge at a = R*p, R > 1, at height xi:
    |z-a|^{-s} on the cap, rho^{-s} I((rho^2/r^2)(1+t)/(1+xi); s/2, (d-s)/2)
    above it."""
    _require_cap_regime(params)
    s, R = params.s, _exterior(R)
    rho2 = axis_dist2(xi, R)
    if xi <= t:
        return rho2 ** (-s / 2.0)
    r2 = axis_dist2(t, R)
    x = (rho2 / r2) * (1.0 + t) / (1.0 + xi)
    return rho2 ** (-s / 2.0) * betainc(s / 2.0, (params.d - params.s) / 2.0, x)


def eta_potential(xi: float, eta: CapMeasure, field: AxisMeasure, params: Params) -> float:
    """Weighted potential U^{eta_t} + Q at height xi: Phi_s(t) on the cap and

        Phi_s(t) + sum_i m_i rho_i^{-s} I((R_i+1)^2 (xi-t)/(r_i^2 (1+xi)); (d-s)/2, s/2)
                 - Phi_s(t) I((xi-t)/(1+xi); (d-s)/2, s/2)

    above it, rho_i^2 = R_i^2 - 2 R_i xi + 1 (``eta`` from :func:`eta_measure`).
    """
    t, phi_t = eta.t, eta.phi
    if xi <= t:
        return phi_t
    d, s = params.d, params.s
    charges = sum(
        m * axis_dist2(xi, R) ** (-s / 2.0)
        * betainc((d - s) / 2.0, s / 2.0,
                  min(1.0, (R + 1.0) ** 2 * (xi - t) / (axis_dist2(t, R) * (1.0 + xi))))
        for R, m in field.folded(params).atoms)
    return phi_t + charges - phi_t * betainc((d - s) / 2.0, s / 2.0, (xi - t) / (1.0 + xi))
