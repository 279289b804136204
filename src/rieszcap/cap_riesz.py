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

Everything holds on d-2 <= s < d, at s = d-2 as the limit s -> (d-2)+.
nu_t, eps_t and eta_t are one CapMeasure constructor with different
coefficients; at s = d-2 each has the whole sphere's density on every cap
plus a ring charge on the cap edge, and the potentials are the betainc
forms with (d-s)/2 = 1.
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
    "nu_measure",
    "eps_measure",
    "nu_norm",
    "eps_norm",
    "phi",
    "delta",
    "eta_measure",
    "eta_potential",
    "nu_potential",
    "eps_potential",
]


def _require_cap_regime(params: Params) -> None:
    if not (params.in_cap_regime or params.is_exceptional):
        raise ValueError(f"cap formulas need d-2 <= s < d, got d={params.d}, s={params.s}")


def _cap_measure(t: float, params: Params, K: float, charges, *, contraction: float = 1.0,
                 pairs=(), phi: float | None = None) -> CapMeasure:
    """The measure (K/W_s) nu_t - sum_j c_j eps_t^{R_j} for charges ((R_j, c_j), ...),
    R_j > 1, on the cap t in (-1, 1]; d-2 <= s < d (mass not computed).

    With B_j = (R_j+1)^{d-s}/r_j^d, r_j^2 = R_j^2 - 2 R_j t + 1, at t = 1 or
    s = d-2 the density is the whole sphere's

        K/W_s - sum_j c_j (R_j^2-1)^{d-s} rho_j^{s-2d} / W_s,   rho_j^2 = R_j^2 - 2 R_j u + 1,

    and s = d-2 adds the ring charge (1-t)/2 (1-t^2)^{d/2-1} (K - sum_j c_j B_j)
    on the edge.  Otherwise the density is (t-u)^{(s-d)/2} times

        Gamma(d/2)/(Gamma(d-s/2) W_s) ((1-t)/(1-u))^{d/2} (1-t)^{(d-s)/2}
            { K F(w) - sum_j c_j B_j F(((R_j-1)^2/r_j^2) w) },

    w = (t-u)/(1-u), F = 2F1reg(1, d/2; 1-(d-s)/2; .).  The brace is summed
    as (K - sum_j c_j B_j) F(contraction w) plus the ``pairs`` of
    :func:`rieszcap.specfun.hyp2f1_regularized`; the caller picks the two so
    that they equal it.
    """
    _require_cap_regime(params)
    if not -1.0 < t <= 1.0:
        raise ValueError(f"cap height must lie in (-1, 1], got {t}")
    d, s = params.d, params.s
    W = sphere_energy(params)
    net = K - _edge(t, charges, params)
    if t == 1.0 or params.is_exceptional:
        def whole(u):
            out = np.full(np.shape(u), K / W)
            for R, c in charges:
                out = out - c * ((R * R - 1.0) ** (d - s) * axis_dist2(u, R) ** (s / 2.0 - d) / W)
            return out

        ring = (1.0 - t) / 2.0 * (1.0 - t * t) ** (d / 2.0 - 1.0) * net if t < 1.0 else 0.0
        return CapMeasure(t=t, regular_part=whole, boundary_coeff=ring, phi=phi)
    pref = math.exp(math.lgamma(d / 2.0) - math.lgamma(d - s / 2.0)) / W

    def regular(u):
        u_arr = np.asarray(u, dtype=float)
        w = (t - u_arr) / (1.0 - u_arr)
        acc = hyp2f1_regularized(1.0, d / 2.0, 1.0 - (d - s) / 2.0, contraction * w, net, pairs)
        out = (pref * ((1.0 - t) / (1.0 - u_arr)) ** (d / 2.0)
               * (1.0 - t) ** ((d - s) / 2.0) * acc)
        return out if np.ndim(out) else float(out)

    return CapMeasure(t=t, regular_part=regular, singular_exponent=(s - d) / 2.0, phi=phi)


def nu_measure(t: float, params: Params) -> CapMeasure:
    """Balayage nu_t of the uniform measure onto the cap, t in (-1, 1].

    For d-2 < s < d and t < 1 its density is

        nu_t'(u) = Gamma(d/2)/Gamma(d-s/2) ((1-t)/(1-u))^{d/2}
                   ((t-u)/(1-t))^{(s-d)/2} 2F1reg(1, d/2; 1-(d-s)/2; (t-u)/(1-u)),

    which blows up like (t-u)^{(s-d)/2} at the edge.  At s = d-2 it is 1
    on the cap plus a ring charge W_{d-2} (1-t)/2 (1-t^2)^{d/2-1}; at t = 1
    it is the uniform measure itself.
    """
    return _cap_measure(t, params, sphere_energy(params), ())


def eps_measure(t: float, R: float, params: Params) -> CapMeasure:
    """Balayage eps_t of a unit charge at R*p, R > 1, onto the cap, t in (-1, 1].

    For d-2 < s < d and t < 1 its density is

        eps_t'(u) = (1/W_s) Gamma(d/2)/Gamma(d-s/2) (R+1)^{d-s}/r^d
                    ((1-t)/(1-u))^{d/2} ((t-u)/(1-t))^{(s-d)/2}
                    2F1reg(1, d/2; 1-(d-s)/2; ((R-1)^2/r^2)(t-u)/(1-u)),

    r^2 = R^2 - 2 R t + 1.  At t = 1, and on every cap at s = d-2, it is the
    whole sphere's (R^2-1)^{d-s} rho^{s-2d} / W_s, rho^2 = R^2 - 2 R u + 1;
    s = d-2 adds the ring charge (1-t)/2 (1-t^2)^{d/2-1} (R+1)^2/r^d.
    """
    R = _exterior(R)
    # a contraction, not a pair with B = -1, whose term weights B (1 + expm1(...))
    # cancel when (R-1)^2/r^2 is small
    return _cap_measure(t, params, 0.0, ((R, -1.0),), contraction=(R - 1.0) ** 2 / axis_dist2(t, R))


def nu_norm(t: float, params: Params) -> float:
    """||nu_t|| = I((1+t)/2; s/2, d - s/2) (regularized incomplete beta).

    The symmetric form of 1 - I((1-t)/2; d - s/2, s/2) (DLMF 8.17.4), which
    would lose digits to the subtraction.
    """
    _require_cap_regime(params)
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
    _require_cap_regime(params)
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
    _require_cap_regime(params)
    if t <= -1.0:
        raise ValueError("phi diverges at t = -1 (the cap degenerates to a point)")
    W = sphere_energy(params)
    eps = sum(m * eps_norm(t, R, params) for R, m in field.folded(params).atoms)
    return W * (1.0 + eps) / nu_norm(t, params)


def _edge(t: float, atoms, params: Params) -> float:
    # sum_i m_i (R_i+1)^{d-s} / r_i(t)^d over exterior atoms (R_i, m_i), the
    # competing term in Delta(t) (s = 0 for log)
    d, s = params.d, 0.0 if params.log else params.s
    return sum(m * (R + 1.0) ** (d - s) / axis_dist2(t, R) ** (d / 2.0) for R, m in atoms)


def delta(t: float, field: AxisMeasure, params: Params) -> float:
    """Delta(t) = Phi_s(t) - sum_i m_i (R_i+1)^{d-s} / r_i(t)^d; its root is t0."""
    return phi(t, field, params) - _edge(t, field.folded(params).atoms, params)


def eta_measure(t: float, field: AxisMeasure, params: Params) -> CapMeasure:
    """The signed cap equilibrium eta_t = (Phi_s(t)/W_s) nu_t - sum_i m_i eps_t^i
    for t in (-1, 1] (mass not computed; ``phi`` is Phi_s(t)).

    At t = 1, the whole sphere, its density is regular up to the pole, and its
    value at u = 1 has the sign of Delta(1).  At s = d-2 every cap has that
    density with Phi_s(t) for Phi_s(1), plus the ring charge
    (1-t)/2 (1-t^2)^{d/2-1} Delta(t) on its edge, which vanishes at t0.  For
    d-2 < s < d and t < 1 the brace of :func:`_cap_measure`,

        Phi_s(t) 2F1reg(w) - sum_i B_i 2F1reg(c_i^2 w),   B_i = m_i (R_i+1)^{d-s}/r_i^d,

    c_i^2 = (R_i-1)^2/r_i^2, is rearranged into Delta(t)*2F1reg(w) + sum_i
    B_i [2F1reg(w) - 2F1reg(c_i^2 w)], which avoids the near-total
    cancellation of the 2F1 values when t is close to t0;
    :func:`rieszcap.specfun.hyp2f1_regularized` sums it as one series, given
    Delta(t) and the pairs (B_i, 1 - c_i^2).
    """
    _require_cap_regime(params)
    field = field.folded(params)
    d, s = params.d, params.s
    phi_t = phi(t, field, params)
    # (B_i, 1 - c_i^2), the second formed as 2 R_i (1-t) / r_i^2 without cancellation
    pairs = [(m * (R + 1.0) ** (d - s) / axis_dist2(t, R) ** (d / 2.0),
              2.0 * R * (1.0 - t) / axis_dist2(t, R)) for R, m in field.atoms]
    return _cap_measure(t, params, phi_t, field.atoms, pairs=pairs, phi=phi_t)


def nu_potential(xi: float, t: float, params: Params) -> float:
    """Potential of nu_t at height xi: W_s on the cap, and

        W_s I((1+t)/(1+xi); s/2, (d-s)/2)

    above it (strictly below W_s there); at s = d-2 that is
    W_{d-2} ((1+t)/(1+xi))^{d/2-1}, since I(x; a, 1) = x^a.
    """
    _require_cap_regime(params)
    W = sphere_energy(params)
    if xi <= t:
        return W
    return W * betainc(params.s / 2.0, (params.d - params.s) / 2.0, (1.0 + t) / (1.0 + xi))


def eps_potential(xi: float, t: float, R: float, params: Params) -> float:
    """Potential of eps_t of a unit charge at a = R*p, R > 1, at height xi:
    |z-a|^{-s} on the cap, rho^{-s} I((rho^2/r^2)(1+t)/(1+xi); s/2, (d-s)/2)
    above it (r^{2-d} ((1+t)/(1+xi))^{d/2-1} at s = d-2)."""
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
    At s = d-2, where I(x; 1, b) = 1 - (1-x)^b, this is the potential of
    (Phi/W) nubar_t - sum_i m_i epsbar_t^i plus Q, ring charge included.
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
