"""Equilibrium on spherical caps for the Riesz kernel range d-2 <= s < d and the log kernel.

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
forms with (d-s)/2 = 1.  Each measure records the charges it was swept from, and
balayage fixes the potential of each piece on the cap, so one formula,
:func:`weighted_potential`, gives the potential of every one of them.

The planar log kernel, the s -> 0+ limit at d = 2, is the s = d-2 point there:
with s = 0 and W = 1 (``Params.exponent``, ``Params.balayage_constant``) nu_t,
eps_t, ||nu_t||, H, H' and eta_t serve it too; its functional F_0(Sigma_t)
and eta_t's weighted potential are closed forms, the log branches of
:func:`phi` and :func:`weighted_potential`.  So each quantity a solve or a
curve reads is one function for all three kernels, and none checks its kernel,
as :class:`rieszcap.sphere.Params` admits no other; ||eps_t|| is a Riesz form,
and of the log measures only eta_t carries the constant of its potential.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc

from rieszcap.point_field import AxisMeasure, _axis_height, field_potential_on_axis
from rieszcap.specfun import hyp2f1_regularized
from rieszcap.sphere import CapMeasure, Params, _cap_integrals, _gap_dist2, _tanh_sinh_nodes, \
    axis_dist2

__all__ = [
    "nu_measure",
    "eps_measure",
    "nu_norm",
    "eps_norm",
    "phi",
    "log_cap_energy",
    "h",
    "h_slope",
    "eta_measure",
    "weighted_potential",
]


def _require_heights(x, what: str, name: str = "t") -> None:
    # x a number or an array of heights on the sphere; one off [-1, 1], nan included, raises
    if not (-1.0 <= x <= 1.0 if isinstance(x, float) else np.all((-1.0 <= x) & (x <= 1.0))):
        raise ValueError(f"{what} needs -1 <= {name} <= 1, got {x}")


def _require_cap_height(t) -> None:
    # t a number or an array of cap heights; one off (-1, 1], nan included, raises
    if not (-1.0 < t <= 1.0 if isinstance(t, float) else np.all((-1.0 < t) & (t <= 1.0))):
        raise ValueError(f"cap height must lie in (-1, 1], got {t}")


def _cap_measure(t: float, params: Params, K: float, net: float, charges, *,
                 contraction=(1.0, 0.0), pairs=(), phi: float | None = None) -> CapMeasure:
    """The measure (K/W_s) nu_t - sum_j c_j eps_t^{R_j} for charges ((R_j, c_j), ...),
    R_j != 1, on the cap t in (-1, 1] of the kernel ``params``, d-2 <= s < d.

    With B_j = (R_j+1)^{d-s}/r_j^d, r_j^2 = R_j^2 - 2 R_j t + 1, the caller
    passes the net charge net = K - sum_j c_j B_j, formed without cancellation.
    At t = 1 or s = d-2 the density is the whole sphere's

        K/W_s - sum_j c_j |(R_j-1)(R_j+1)|^{d-s} rho_j^{s-2d} / W_s,  rho_j^2 = R_j^2 - 2 R_j u + 1,

    and s = d-2 adds the ring charge (1-t)/2 (1-t^2)^{d/2-1} net on the
    edge.  Otherwise the density is (t-u)^{(s-d)/2} times

        Gamma(d/2)/(Gamma(d-s/2) W_s) ((1-t)/(1-u))^{d/2} (1-t)^{(d-s)/2}
            { K F(w) - sum_j c_j B_j F(((R_j-1)^2/r_j^2) w) },

    w = (t-u)/(1-u), F = 2F1reg(1, d/2; 1-(d-s)/2; .).  With a = 1, F has the
    closed form (DLMF 8.17.8 with 8.17.20)

        F(z) = 1/Gamma(c) + Gamma(d-s/2)/Gamma(d/2) z^{(d-s)/2} (1-z)^{s/2-d} I_z(c, d-s/2),

    c = 1-(d-s)/2, through the regularized incomplete beta of ||nu_t||.  The
    brace is net F(c w) plus the ``pairs`` of
    :func:`rieszcap.specfun.hyp2f1_regularized`, which forms each pair's
    F(z) - F(z') from nonnegative parts and takes, per point, the grouping
    (this one, or (net + sum B) F(z) - sum B F(z')) whose absolute parts sum
    less; the caller picks net and pairs so that they equal the brace, and
    passes ``contraction`` as (c, 1-c), each formed without cancellation.  F
    reads its 1 - c w as (1-c) + c (1-t)/(1-u), which does not cancel.

    The log kernel is the s = d-2 form at d = 2 (``exponent`` 0, W = 1).

    The measure records its ``charges`` and, as its ``phi``, K: balayage makes
    U^{nu_t} = W_s and U^{eps_t^R} = |x - R p|^{-s} on the cap, so K is the
    constant of its :func:`weighted_potential` there.  The log kernel keeps the
    ``phi`` passed, F_0(Sigma_t) from :func:`eta_measure` or else None.

    Its ``gap`` is 1-t for t < 1 (u = 1 is a branch point of the regular part
    and of the surface factor the cap integral multiplies in), and at t = 1
    how far the lowest charge height (R_j^2+1)/(2R_j) lies beyond t,
    (1-t) + (R_j-1)^2/(2R_j) as H forms it; at s = d-2 with d = 2 it is that
    at every t, as d = 2 has no surface factor.
    """
    _require_cap_height(t)
    d, s, W = params.d, params.exponent, params.balayage_constant
    c, gap = contraction
    beyond = 0.0 if t < 1.0 and not (params.is_exceptional and d == 2) else min(
        ((R - 1.0) ** 2 / (2.0 * R) for R, _ in charges), default=math.inf)
    kept = dict(phi=phi if params.log else K, gap=(1.0 - t) + beyond, params=params,
                charges=charges)
    if t == 1.0 or params.is_exceptional:
        def whole(nodes):
            out = np.full(np.shape(nodes.u), K / W)
            for R, c in charges:
                rho2 = _gap_dist2(nodes.one_minus_u, R)
                out = out - c * (abs((R - 1.0) * (R + 1.0)) ** (d - s) * rho2 ** (s / 2.0 - d) / W)
            return out

        ring = (1.0 - t) / 2.0 * (1.0 - t * t) ** (d / 2.0 - 1.0) * net if t < 1.0 else 0.0
        return CapMeasure(t=t, regular_part=whole, boundary_coeff=ring, **kept)
    pref = math.exp(math.lgamma(d / 2.0) - math.lgamma(d - s / 2.0)) / W

    def regular(nodes):
        w, rest = nodes.t_minus_u / nodes.one_minus_u, (1.0 - t) / nodes.one_minus_u  # w and 1 - w
        acc = hyp2f1_regularized(1.0, d / 2.0, 1.0 - (d - s) / 2.0, c * w, net, pairs,
                                 one_minus_z=gap + c * rest)
        return pref * rest ** (d / 2.0) * (1.0 - t) ** ((d - s) / 2.0) * acc

    return CapMeasure(t=t, regular_part=regular, singular_exponent=(s - d) / 2.0, **kept)


def nu_measure(t: float, params: Params) -> CapMeasure:
    """Balayage nu_t of the uniform measure onto the cap, t in (-1, 1].

    For d-2 < s < d and t < 1 its density is

        nu_t'(u) = Gamma(d/2)/Gamma(d-s/2) ((1-t)/(1-u))^{d/2}
                   ((t-u)/(1-t))^{(s-d)/2} 2F1reg(1, d/2; 1-(d-s)/2; (t-u)/(1-u)),

    which blows up like (t-u)^{(s-d)/2} at the edge.  At s = d-2 it is 1
    on the cap plus a ring charge W (1-t)/2 (1-t^2)^{d/2-1}; at t = 1
    it is the uniform measure itself.
    """
    return _cap_measure(t, params, params.balayage_constant, params.balayage_constant, ())


def eps_measure(t: float, R: float, params: Params) -> CapMeasure:
    """Balayage eps_t of a unit charge at R*p, R != 1, onto the cap, t in (-1, 1].

    For d-2 < s < d and t < 1 its density is

        eps_t'(u) = (1/W_s) Gamma(d/2)/Gamma(d-s/2) (R+1)^{d-s}/r^d
                    ((1-t)/(1-u))^{d/2} ((t-u)/(1-t))^{(s-d)/2}
                    2F1reg(1, d/2; 1-(d-s)/2; ((R-1)^2/r^2)(t-u)/(1-u)),

    r^2 = R^2 - 2 R t + 1.  At t = 1, and on every cap at s = d-2, it is the
    whole sphere's |R^2-1|^{d-s} rho^{s-2d} / W_s, rho^2 = R^2 - 2 R u + 1;
    s = d-2 adds the ring charge (1-t)/2 (1-t^2)^{d/2-1} (R+1)^2/r^d.
    """
    R, d = _axis_height(R), params.d
    # a contraction, not a pair with B = -1, whose term weights B (1 + expm1(...))
    # cancel when (R-1)^2/r^2 is small
    r2 = axis_dist2(t, R)
    return _cap_measure(t, params, 0.0, (R + 1.0) ** (d - params.exponent) / r2 ** (d / 2.0),
                        ((R, -1.0),), contraction=((R - 1.0) ** 2 / r2, 2.0 * R * (1.0 - t) / r2))


def nu_norm(t: float | np.ndarray, params: Params) -> float | np.ndarray:
    """||nu_t|| = I((1+t)/2; s/2, d - s/2) (regularized incomplete beta), t in [-1, 1];
    for the log kernel (s = 0) it is 1 on t > -1.

    The symmetric form of 1 - I((1-t)/2; d - s/2, s/2) (DLMF 8.17.4), which
    would lose digits to the subtraction.
    """
    _require_heights(t, "||nu_t||")
    return betainc(params.exponent / 2.0, params.d - params.exponent / 2.0, (1.0 + t) / 2.0)


def eps_norm(t: float | np.ndarray, R: float | np.ndarray, params: Params) -> float | np.ndarray:
    """||eps_t|| of a unit charge at R*p, R != 1, t in [-1, 1], by quadrature of
    its one-dimensional integral form:

        C (R+1)^{d-s}/W_s int_{-1}^t (1+u)^{s/2-1} G(u) du,   G(u) = (1-u)^{d-s/2-1} r(u)^{-d},

    r(u)^2 = R^2 - 2Ru + 1, C = 2^{1-d} Gamma(d) / (Gamma(d-s/2) Gamma(s/2)).
    At t = 1 it is the closed form U_s^sigma(R)/W_s of the whole sphere.
    Below 1 the integral is a row of :func:`rieszcap.sphere._cap_integrals` with
    power s/2 at the left edge u = -1, graded toward t with gap 1-t (G's branch
    point u = 1 lies nearer than the charge's height); for s < 2 that splits off
    G(-1) (1+t)^{s/2}/(s/2) in closed form, so s -> 0 costs nothing, and a row
    that does not settle names t and R.  ``t`` and ``R`` broadcast together, and
    each pair is a row of one batch, bit for bit what the row gives alone.
    """
    if params.log:  # a Riesz form: the log kernel's functional is phi's closed form
        raise ValueError(f"no cap solver for {params} in eps_norm: cap formulas need d-2 <= s < d")
    ts, Rs = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(R, dtype=float))
    shape, ts, Rs = ts.shape, ts.ravel(), Rs.ravel()
    for r in set(Rs.tolist()):
        _axis_height(r)
    d, s, W = params.d, params.exponent, params.balayage_constant
    _require_heights(ts, "eps_norm")
    out = np.zeros(len(ts))
    top = np.flatnonzero(ts == 1.0)
    out[top] = [field_potential_on_axis(r, params) / W for r in Rs[top].tolist()]
    rows = np.flatnonzero((-1.0 < ts) & (ts < 1.0))
    if len(rows):
        x, radii = ts[rows], Rs[rows]

        def g(nodes, rows):
            return nodes.one_minus_u ** (d - s / 2.0 - 1.0) \
                * _gap_dist2(nodes.one_minus_u, radii[rows]) ** (-d / 2.0)

        values = _cap_integrals(x, 1.0 - x, g, s / 2.0, True,
                                lambda i: f"t={float(x[i])!r}, R={float(radii[i])!r}")[0]
        c0 = math.exp((1.0 - d) * math.log(2.0) + math.lgamma(float(d))
                      - math.lgamma(d - s / 2.0) - math.lgamma(s / 2.0))
        out[rows] = c0 * (radii + 1.0) ** (d - s) / W * values
    return out.reshape(shape)[()]


def phi(t: float | np.ndarray, field: AxisMeasure, params: Params) -> float | np.ndarray:
    """Mhaskar-Saff functional of the cap: W_s (1 + sum_i m_i ||eps_t^i||)/||nu_t||,
    with ||eps_t^i|| the per-unit-charge norm of atom i; d-2 <= s < d.  Every
    (height, atom) pair of a number or an array t is a row of one eps_norm batch,
    height-major, and each height's masses add in atom order.

    For the log kernel it is the closed form of F_0(Sigma_t) = W_0(Sigma_t)
    + int Q d mu_cap (d = 2),

        W_0(Sigma_t) + ||lambda|| (1+t)/4
        + sum_i m_i [ (R_i-1)^2 log(R_i^2-2R_i t+1)
                      - (R_i+1)^2 log((R_i+1)^2) ] / (8 R_i),

    W_0(Sigma_t) from :func:`log_cap_energy`.
    """
    atoms = field.atoms
    ts = np.asarray(t, dtype=float)
    if np.any(ts <= -1.0):
        raise ValueError("phi diverges at t = -1 (the cap degenerates to a point)")
    if params.log:
        out = log_cap_energy(t) + field.total_mass * (1.0 + t) / 4.0
        for R, m in atoms:
            out += m * ((R - 1.0) ** 2 * np.log(axis_dist2(t, R))
                        - (R + 1.0) ** 2 * math.log((R + 1.0) ** 2)) / (8.0 * R)
        return out
    n = len(atoms)
    rows = eps_norm(ts.ravel().repeat(n), np.tile([R for R, _ in atoms], ts.size), params)
    eps = sum(m * rows[i::n] for i, (_, m) in enumerate(atoms)).reshape(ts.shape)
    return params.balayage_constant * (1.0 + eps) / nu_norm(t, params)


def log_cap_energy(t: float | np.ndarray) -> float | np.ndarray:
    """Logarithmic energy of the cap at a height t, or at each entry of an array t:
    W_0(Sigma_t) = (1+t)/4 - log(2)/2 - log(1+t)/2 (the cap's equilibrium measure
    is nubar_{t,0})."""
    _require_cap_height(t)
    return (1.0 + t) / 4.0 - 0.5 * math.log(2.0) - 0.5 * np.log1p(t)


def _slope(one_plus, one_minus, atoms, params: Params):
    # W_s H' = ||nu_u|| sum_i m_i e_i'(u) at heights u given as their distances 1+u and 1-u
    d, s = params.d, params.exponent
    return betainc(s / 2.0, d - s / 2.0, one_plus / 2.0) * sum(
        m * d * R * (R + 1.0) ** (d - s) * _gap_dist2(one_minus, R) ** (-d / 2.0 - 1.0)
        for R, m in atoms)


def h(t: float | np.ndarray, field: AxisMeasure, params: Params) -> float | np.ndarray:
    """H(t) = (1/W_s) int_{-1}^t ||nu_u|| sum_i m_i e_i'(u) du, the integral of :func:`h_slope`,
    at a number or at each entry of an array t in [-1, 1] (bit for bit the one-height call):
    positive, increasing from H(-1) = 0.  By parts, Delta(t) = Phi_s(t) - sum_i m_i e_i(t)
    = W_s (1 - H(t))/||nu_t||, e_i = (R_i+1)^{d-s}/r_i^d, so H(t0) = 1, and H(1) <= 1 gives
    the whole sphere.  H(1) is the closed form sum_i m_i (e_i(1) - U^sigma(R_i))/W_s.

    Below 1 the integrand holds neither t nor a rule that depends on s: the 81-node
    tanh-sinh rule at step 0.08 of :func:`rieszcap.sphere._tanh_sinh_nodes`, which the cap
    masses and :func:`eps_norm` share, its nodes held as their distances 1+u and
    1-u = (1-t) + (t-u).  When the lowest pole height p = (R^2+1)/(2R) lies within
    (1+t)/17 of t, panels graded toward t at t - (p-t) 4^j keep it away.  H takes that
    one step, with no error estimate.  For the log kernel H is exact at every t.
    """
    _require_heights(t, "H")
    atoms = field.atoms
    if params.log:  # ||nu_u|| = W = 1: H = sum_i m_i (e_i(t) - e_i(-1)), e_i = (R_i+1)^2/r_i^2
        return sum(m * 2.0 * R * (1.0 + t) / axis_dist2(t, R) for R, m in atoms)
    d, s, W = params.d, params.exponent, params.balayage_constant
    ts, out = np.asarray(t, dtype=float), []
    # one height at a time: a solve calls H on single heights, which a batch over
    # heights in numpy would make slower
    for x in ts.ravel().tolist():
        if x == 1.0:
            out.append(sum(m * ((R + 1.0) ** (d - s) / axis_dist2(x, R) ** (d / 2.0) / W
                                - field_potential_on_axis(R, params) / W) for R, m in atoms))
            continue
        gap = (1.0 - x) + min((R - 1.0) ** 2 / (2.0 * R) for R, _ in atoms)  # p - t
        nodes, w, _ = _tanh_sinh_nodes(x, gap)
        f = w * _slope(nodes.one_plus_u, nodes.one_minus_u, atoms, params)
        out.append(float(f.sum()) / W)
    return np.reshape(out, ts.shape) if ts.ndim else out[0]


def h_slope(t: float, field: AxisMeasure, params: Params) -> float:
    """H'(t) = ||nu_t|| sum_i m_i e_i'(t)/W_s, e_i'(t) = d R_i (R_i+1)^{d-s}/r_i(t)^{d+2},
    for t in (-1, 1): the integrand of :func:`h`, in closed form."""
    _require_heights(t, "H'")
    return _slope(1.0 + t, 1.0 - t, field.atoms, params) / params.balayage_constant


def eta_measure(t: float, field: AxisMeasure, params: Params) -> CapMeasure:
    """The signed cap equilibrium eta_t = (Phi_s(t)/W_s) nu_t - sum_i m_i eps_t^i
    for t in (-1, 1], with ``charges`` the field's atoms and ``phi`` Phi_s(t), the
    constant K that :func:`_cap_measure` records.  Phi_s(t) is Delta(t) + sum_i B_i,
    B_i below, so eta_t takes one H evaluation and no quadrature of :func:`phi`.

    At t = 1, the whole sphere, its density is regular up to the pole, and its
    value at u = 1 has the sign of Delta(1).  At s = d-2 every cap has that
    density with Phi_s(t) for Phi_s(1), plus the ring charge
    (1-t)/2 (1-t^2)^{d/2-1} Delta(t) on its edge, which vanishes at t0.  For
    d-2 < s < d and t < 1 the brace of :func:`_cap_measure`,

        Phi_s(t) 2F1reg(w) - sum_i B_i 2F1reg(c_i^2 w),   B_i = m_i (R_i+1)^{d-s}/r_i^d,

    c_i^2 = (R_i-1)^2/r_i^2, is rearranged into Delta(t)*2F1reg(w) + sum_i
    B_i [2F1reg(w) - 2F1reg(c_i^2 w)], which avoids the near-total
    cancellation of the 2F1 values when t is close to t0, given
    Delta(t) = W_s (1 - H(t))/||nu_t|| (see :func:`h`) and the pairs (B_i, 1 - c_i^2).
    :func:`rieszcap.specfun.hyp2f1_regularized` evaluates it through the
    incomplete beta I_z(1-(d-s)/2, d-s/2) (DLMF 8.17.8, 8.17.20), each
    difference from two nonnegative parts, and takes at each point the
    grouping, this one or the first, whose absolute parts sum less.

    For the log kernel (s = 0, W = 1) the density's level is 1 + ||lambda||, and
    ``phi``, passed to :func:`_cap_measure`, is F_0(Sigma_t) (:func:`phi`), the
    weighted potential on the cap.
    """
    d, s = params.d, params.exponent
    net = params.balayage_constant * (1.0 - h(t, field, params)) / nu_norm(t, params)
    # (B_i, 1 - c_i^2), the second formed as 2 R_i (1-t) / r_i^2 without cancellation
    pairs = [(m * (R + 1.0) ** (d - s) / axis_dist2(t, R) ** (d / 2.0),
              2.0 * R * (1.0 - t) / axis_dist2(t, R)) for R, m in field.atoms]
    level = math.fsum([net, *(B for B, _ in pairs)])
    return _cap_measure(t, params, level, net, field.atoms, pairs=pairs,
                        phi=phi(t, field, params) if params.log else None)


def weighted_potential(xi: float | np.ndarray, mu: CapMeasure) -> float | np.ndarray:
    """U^mu + sum_j c_j |x - R_j p|^{-s} for a cap measure mu swept from its ``charges``
    ((R_j, c_j), ...), at a height xi or at each entry of an array xi: K = ``mu.phi``
    on the cap and

        K + sum_j c_j rho_j^{-s} I((R_j+1)^2 (xi-t)/(r_j^2 (1+xi)); (d-s)/2, s/2)
          - K I((xi-t)/(1+xi); (d-s)/2, s/2)

    above it, rho_j^2 = R_j^2 - 2 R_j xi + 1 (ring charge included at s = d-2).
    So U^{nu_t} is nu_t's, U^{eps_t} is eps_t's plus rho^{-s}, and eta_t's is
    U^{eta_t} + Q.  For the log kernel it is K = F_0(Sigma_t), which only eta_t
    carries (None raises), on the cap and, off it,

        K + log((1+t)/(1+xi))/2 + sum_j (c_j/2) log(r_j^2/rho_j^2).
    """
    params, t, K = mu.params, mu.t, mu.phi
    xi = np.asarray(xi, dtype=float)
    _require_heights(xi, "weighted_potential", "xi")
    if K is None:
        raise ValueError("cap formulas need phi, None here: log's F_0 comes from eta_measure")
    out, above = np.full(xi.shape, K), xi > t
    x = xi[above]
    if params.log:
        out[above] = (K + 0.5 * np.log((1.0 + t) / (1.0 + x))
                      + sum(0.5 * c * np.log(axis_dist2(t, R) / axis_dist2(x, R))
                            for R, c in mu.charges))
        return out[()]
    d, s = params.d, params.exponent
    charges = sum(
        c * axis_dist2(x, R) ** (-s / 2.0)
        * betainc((d - s) / 2.0, s / 2.0,
                  np.minimum(1.0, (R + 1.0) ** 2 * (x - t) / (axis_dist2(t, R) * (1.0 + x))))
        for R, c in mu.charges)
    out[above] = K + charges - K * betainc((d - s) / 2.0, s / 2.0, (x - t) / (1.0 + x))
    return out[()]
