"""Equilibrium on spherical caps for the Riesz kernel range d-2 <= s < d.

The balayage of the uniform measure and of the external point charge onto
the cap Sigma_t = {u <= t} have explicit densities built from a
regularized Gauss function.  Their norms combine into

    Phi_s(t) = W_s (1 + q ||eps_t||) / ||nu_t||,

whose unique minimizer t0 over (-1, 1] is the height of the extremal
support cap, the root of

    Delta(t) = Phi_s(t) - q (R+1)^{d-s} / (R^2 - 2 R t + 1)^{d/2} = W_s (1 - H(t)) / ||nu_t||

when an interior root exists and t0 = 1 otherwise; H is a positive integral
(:func:`h`).  The signed cap equilibrium eta_t and its weighted potential
have closed forms on and off the cap; eta_{t0} is the extremal measure.

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
from rieszcap.sphere import CapMeasure, Params, _axis_pole_height, _entries, _gap_dist2, _like, \
    axis_dist2, integrate_radial, omega_ratio, sphere_energy

__all__ = [
    "nu_measure",
    "eps_measure",
    "nu_norm",
    "eps_norm",
    "phi",
    "h",
    "h_slope",
    "eta_measure",
    "eta_potential",
    "nu_potential",
    "eps_potential",
]


def _require_cap_regime(params: Params) -> None:
    if not (params.in_cap_regime or params.is_exceptional):
        raise ValueError(f"cap formulas need d-2 <= s < d, got d={params.d}, s={params.s}")


def _families(params: Params) -> tuple[tuple[float, float | None], ...]:
    # (singular, left) exponents of the direct and complement ||eps_t|| and eta_t's mass, t < 1
    d, s = params.d, params.s
    return ((0.0, s / 2.0 - 1.0), (0.0, d - s / 2.0 - 1.0),
            (0.0 if params.is_exceptional else (s - d) / 2.0, None))


def _cap_measure(t: float, params: Params, K: float, net: float, charges, *,
                 contraction=(1.0, 0.0), pairs=(), phi: float | None = None) -> CapMeasure:
    """The measure (K/W_s) nu_t - sum_j c_j eps_t^{R_j} for charges ((R_j, c_j), ...),
    R_j > 1, on the cap t in (-1, 1]; d-2 <= s < d (mass not computed).

    With B_j = (R_j+1)^{d-s}/r_j^d, r_j^2 = R_j^2 - 2 R_j t + 1, the caller
    passes the net charge net = K - sum_j c_j B_j, formed without cancellation.
    At t = 1 or s = d-2 the density is the whole sphere's

        K/W_s - sum_j c_j (R_j^2-1)^{d-s} rho_j^{s-2d} / W_s,   rho_j^2 = R_j^2 - 2 R_j u + 1,

    and s = d-2 adds the ring charge (1-t)/2 (1-t^2)^{d/2-1} net on the
    edge.  Otherwise the density is (t-u)^{(s-d)/2} times

        Gamma(d/2)/(Gamma(d-s/2) W_s) ((1-t)/(1-u))^{d/2} (1-t)^{(d-s)/2}
            { K F(w) - sum_j c_j B_j F(((R_j-1)^2/r_j^2) w) },

    w = (t-u)/(1-u), F = 2F1reg(1, d/2; 1-(d-s)/2; .).  The brace is summed
    as net F(c w) plus the ``pairs`` of
    :func:`rieszcap.specfun.hyp2f1_regularized`; the caller picks the two so
    that they equal it, and passes ``contraction`` as (c, 1-c), each formed
    without cancellation.  F's argument reaches the near-one route with its
    complement 1 - c w = (1-c) + c (1-t)/(1-u), which does not cancel.

    Its ``singular_height`` is u = 1 for t < 1 (a branch point of the regular
    part and of the surface factor the cap rule folds in), and at t = 1 the
    lowest charge height (R_j^2+1)/(2R_j) > 1.
    """
    _require_cap_regime(params)
    if not -1.0 < t <= 1.0:
        raise ValueError(f"cap height must lie in (-1, 1], got {t}")
    d, s = params.d, params.s
    c, gap = contraction
    W = sphere_energy(params)
    height = 1.0 if t < 1.0 else min((_axis_pole_height(R) for R, _ in charges), default=math.inf)
    if t == 1.0 or params.is_exceptional:
        def whole(nodes):
            out = np.full(np.shape(nodes.u), K / W)
            for R, c in charges:
                rho2 = _gap_dist2(nodes.one_minus_u, R)
                out = out - c * ((R * R - 1.0) ** (d - s) * rho2 ** (s / 2.0 - d) / W)
            return out

        ring = (1.0 - t) / 2.0 * (1.0 - t * t) ** (d / 2.0 - 1.0) * net if t < 1.0 else 0.0
        return CapMeasure(t=t, regular_part=whole, boundary_coeff=ring, phi=phi,
                          singular_height=height)
    pref = math.exp(math.lgamma(d / 2.0) - math.lgamma(d - s / 2.0)) / W

    def regular(nodes):
        w, rest = nodes.t_minus_u / nodes.one_minus_u, (1.0 - t) / nodes.one_minus_u  # w and 1 - w
        acc = hyp2f1_regularized(1.0, d / 2.0, 1.0 - (d - s) / 2.0, c * w, net, pairs,
                                 one_minus_z=gap + c * rest)
        return pref * rest ** (d / 2.0) * (1.0 - t) ** ((d - s) / 2.0) * acc

    return CapMeasure(t=t, regular_part=regular, singular_exponent=_families(params)[2][0], phi=phi,
                      singular_height=height)


def nu_measure(t: float, params: Params) -> CapMeasure:
    """Balayage nu_t of the uniform measure onto the cap, t in (-1, 1].

    For d-2 < s < d and t < 1 its density is

        nu_t'(u) = Gamma(d/2)/Gamma(d-s/2) ((1-t)/(1-u))^{d/2}
                   ((t-u)/(1-t))^{(s-d)/2} 2F1reg(1, d/2; 1-(d-s)/2; (t-u)/(1-u)),

    which blows up like (t-u)^{(s-d)/2} at the edge.  At s = d-2 it is 1
    on the cap plus a ring charge W_{d-2} (1-t)/2 (1-t^2)^{d/2-1}; at t = 1
    it is the uniform measure itself.
    """
    return _cap_measure(t, params, sphere_energy(params), sphere_energy(params), ())


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
    r2 = axis_dist2(t, R)
    return _cap_measure(t, params, 0.0, (R + 1.0) ** (params.d - params.s) / r2 ** (params.d / 2.0),
                        ((R, -1.0),), contraction=((R - 1.0) ** 2 / r2, 2.0 * R * (1.0 - t) / r2))


def nu_norm(t: float | np.ndarray, params: Params) -> float | np.ndarray:
    """||nu_t|| = I((1+t)/2; s/2, d - s/2) (regularized incomplete beta), t in [-1, 1].

    The symmetric form of 1 - I((1-t)/2; d - s/2, s/2) (DLMF 8.17.4), which
    would lose digits to the subtraction.
    """
    _require_cap_regime(params)
    return betainc(params.s / 2.0, params.d - params.s / 2.0, (1.0 + t) / 2.0)


def eps_norm(t: float | np.ndarray, R: float | np.ndarray, params: Params) -> float | np.ndarray:
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
    ``t`` and ``R`` broadcast together, each pair a row: the rows of each
    form make one batch of :func:`rieszcap.sphere.integrate_radial`.
    """
    return _eps_rows(t, R, params, by_parts=False)


def _eps_rows(t, R, params: Params, by_parts: bool):
    # eps_norm's rows, or with by_parts those of G = ||nu_t|| e(t)/W_s - ||eps_t|| (see h)
    _require_cap_regime(params)
    (ts, shape), (Rs, R_shape), form = _entries(t), _entries(R), t  # form: that of the result
    if shape != R_shape:
        form, R = np.broadcast_arrays(t, R)
        (ts, _), (Rs, _) = _entries(form), _entries(R)
    d, s = params.d, params.s
    W, om = sphere_energy(params), omega_ratio(params)
    c0 = math.exp((1.0 - d) * math.log(2.0) + math.lgamma(float(d))
                  - math.lgamma(d - s / 2.0) - math.lgamma(s / 2.0))
    out, forms = [], ([], [])  # the whole-sphere values, and the rows of each form
    for x, r in zip(ts, map(_exterior, Rs)):
        beyond = (r - 1.0) ** 2 / (2.0 * r)  # how far the charge's height lies above u = 1
        complement = x == 1.0 or min(1.0 + x, beyond) * (1.0 + x) > (1.0 - x) ** 2
        out.append(field_potential_on_axis(r, params) / W if complement else 0.0)
        if by_parts and complement:  # G: ||nu_t|| e(t)/W_s less the whole sphere's, plus the integral
            out[-1] = (nu_norm(x, params) * (r + 1.0) ** (d - s) / axis_dist2(x, r) ** (d / 2.0) / W
                       - out[-1])
        if -1.0 < x < 1.0:  # index, rule height, constant, singular height, R
            forms[complement].append((len(out) - 1, -x if complement else x,
                                      c0 * (r + 1.0) ** (d - s) / W * om,
                                      -1.0 - beyond if complement and 1.0 + x > beyond else 1.0, r))
    # the direct rule supplies (1+u)^{s/2-1} (1-u)^{d/2-1} / omega_ratio, the
    # integrand (1-u)^{(d-s)/2} r(u)^{-d}, singular at u = 1; the complement's, on
    # [-1, -t] in v = -u, (1-v)^{d/2-1} (1+v)^{d-s/2-1} / omega_ratio, and the
    # integrand (1-v)^{(s-d)/2} r(-v)^{-d}, singular at v = 1 and v = -(R^2+1)/(2R)
    for complement, rows in enumerate(forms):
        if not rows:
            continue
        idx, heights, consts, singular, radii = zip(*rows)
        radii = np.array(radii)[:, None]
        power = (s - d) / 2.0 if complement else (d - s) / 2.0
        # v = u, or -u in the complement: its 1-v, and r(u)^2 from 1-u, which is 1+v there
        f = lambda nodes, j: nodes.one_minus_u ** power * _gap_dist2(
            nodes.one_plus_u if complement else nodes.one_minus_u, radii[j]) ** (-d / 2.0)
        if by_parts and not complement:  # r(t)^{-d} - r(u)^{-d} = -r(t)^{-d} expm1(-(d/2) log1p(.))
            r2 = axis_dist2(np.array(heights)[:, None], radii)
            f = lambda nodes, j: nodes.one_minus_u ** power * -r2[j] ** (-d / 2.0) * np.expm1(
                -d / 2.0 * np.log1p(2.0 * radii[j] * nodes.t_minus_u / r2[j]))
        singular_exponent, left = _families(params)[complement]
        vals = integrate_radial(f, list(heights), params, singular_exponent, left_exponent=left,
                                singular_height=list(singular))
        for i, const, val in zip(idx, consts, vals):
            # near t = 1: the whole sphere's value minus the integral over [t, 1] (G: plus)
            out[i] = out[i] + (const * val if by_parts else -const * val) if complement else const * val
    return _like(form, out)


def _atom_sum(t, field: AxisMeasure, params: Params, by_parts: bool):
    # sum_i m_i (atom i's _eps_rows) at each height of t: each (height, atom) pair a row of one batch
    ts, atoms = _entries(t)[0], field.folded(params).atoms
    rows = iter(_eps_rows([x for x in ts for _ in atoms], [R for _ in ts for R, _ in atoms],
                          params, by_parts))
    return _like(t, [sum(m * next(rows) for _, m in atoms) for _ in ts])


def phi(t: float | np.ndarray, field: AxisMeasure, params: Params) -> float | np.ndarray:
    """Mhaskar-Saff functional of the cap: W_s (1 + sum_i m_i ||eps_t^i||)/||nu_t||,
    with ||eps_t^i|| the per-unit-charge norm of atom i; d-2 <= s < d.  Every
    (height, atom) pair of an array or a number t is a row of one eps_norm batch."""
    _require_cap_regime(params)
    if min(_entries(t)[0]) <= -1.0:
        raise ValueError("phi diverges at t = -1 (the cap degenerates to a point)")
    return sphere_energy(params) * (1.0 + _atom_sum(t, field, params, False)) / nu_norm(t, params)


def h(t: float | np.ndarray, field: AxisMeasure, params: Params) -> float | np.ndarray:
    """H(t) = sum_i m_i (1/W_s) int_{-1}^t ||nu_u||' (e_i(t) - e_i(u)) du, e_i = (R_i+1)^{d-s}/r_i^d,
    at a number or an array t in [-1, 1]: positive, increasing from H(-1) = 0.  By parts,
    Delta(t) = Phi_s(t) - sum_i m_i e_i(t) = W_s (1 - H(t))/||nu_t||, so H(t0) = 1, and H(1) <= 1
    gives the whole sphere.  The rows are those of :func:`phi`, on eps_norm's rules."""
    _require_cap_regime(params)
    return _atom_sum(t, field, params, True)


def h_slope(t: float, field: AxisMeasure, params: Params) -> float:
    """H'(t) = ||nu_t|| sum_i m_i e_i'(t)/W_s, e_i'(t) = d R_i (R_i+1)^{d-s}/r_i(t)^{d+2}, for
    t in (-1, 1): no quadrature, as the integrand of G_i vanishes at u = t."""
    d, s = params.d, params.s
    return nu_norm(t, params) / sphere_energy(params) * sum(
        m * d * R * (R + 1.0) ** (d - s) / axis_dist2(t, R) ** (d / 2.0 + 1.0)
        for R, m in field.folded(params).atoms)


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
    Delta(t) = W_s (1 - H(t))/||nu_t|| (see :func:`h`) and the pairs (B_i, 1 - c_i^2).
    """
    _require_cap_regime(params)
    field = field.folded(params)
    d, s = params.d, params.s
    phi_t = phi(t, field, params)
    net = sphere_energy(params) * (1.0 - h(t, field, params)) / nu_norm(t, params)
    # (B_i, 1 - c_i^2), the second formed as 2 R_i (1-t) / r_i^2 without cancellation
    pairs = [(m * (R + 1.0) ** (d - s) / axis_dist2(t, R) ** (d / 2.0),
              2.0 * R * (1.0 - t) / axis_dist2(t, R)) for R, m in field.atoms]
    return _cap_measure(t, params, phi_t, net, field.atoms, pairs=pairs, phi=phi_t)


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
