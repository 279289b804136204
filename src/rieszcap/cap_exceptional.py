"""The log kernel's cap functional and potential, and the weak* helpers of s = d-2.

The s = d-2 balayage formulas, with the ring charge that nubar_t, epsbar_t
and etabar_t carry on the cap boundary, live in :mod:`rieszcap.cap_riesz`
as the s -> (d-2)+ limits of its constructors.  The planar log kernel is
that point at d = 2 (s = 0, W = 1), so its nubar_t, epsbar_t, H, H' and
etabar_t come from there too, with mass-preserving balayage and
t0 = min{1, (R^2 - 2Rq + 1)/(2R(1+q))}.  This module holds what log does not
share (its cap energy, the functional F_0 and the weighted potential) and
measures the weak* convergence of the limit (:func:`weakstar_gap`,
:func:`gamma_s_norm`), at d = 2 against the log kernel.
"""

from __future__ import annotations

import math

import numpy as np

from rieszcap.cap_riesz import eps_measure, nu_measure
from rieszcap.point_field import AxisMeasure
from rieszcap.sphere import CapMeasure, Params, axis_dist2

__all__ = [
    "weakstar_gap",
    "gamma_s_norm",
    "log_cap_energy",
    "log_f0_functional",
    "log_eta_potential",
]


def _require(params: Params, log: bool = False) -> None:
    # s = d-2: with d >= 3, or the log kernel at d = 2; ``log`` admits only the latter
    if not params.is_exceptional or (log and not params.log):
        what = ("the logarithmic cap case is stated for d = 2" if log
                else "this operation needs s = d-2 with d >= 3, or the log kernel at d = 2")
        raise ValueError(f"{what}, got {params}")


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
    eps_{t,s} -> epsbar_t (unit charge at R*p, R != 1) as s decreases to d-2,
    nubar_t and epsbar_t those of ``params``: s = d-2, or the log kernel at d = 2.

    For each s, computes |int u^k d nu_{t,s} - int u^k d nubar_t| and the
    eps analogue for k = 0..3, ring charges included; returns a list of
    dicts with keys 's', 'nu', 'eps'.  Decay along s -> (d-2)+ is the
    caller's assertion.
    """
    _require(params)
    d = params.d

    nb, eb = nu_measure(t, params), eps_measure(t, R, params)
    nb_k, eb_k = [nb.moment(k) for k in range(4)], [eb.moment(k) for k in range(4)]
    out = []
    for s in s_values:
        if not (d - 2 < s < d):
            raise ValueError(f"weak* path requires d-2 < s < d, got s={s}")
        ps = Params(d=d, s=float(s))
        nu, eps = nu_measure(t, ps), eps_measure(t, R, ps)
        rec = {"s": float(s), "nu": np.empty(4), "eps": np.empty(4)}
        for k in range(4):
            rec["nu"][k] = abs(nu.moment(k) - nb_k[k])
            rec["eps"][k] = abs(eps.moment(k) - eb_k[k])
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# logarithmic case, d = 2


def log_cap_energy(t: float | np.ndarray) -> float | np.ndarray:
    """Logarithmic energy of the cap at a height t, or at each entry of an array t:
    W_0(Sigma_t) = (1+t)/4 - log(2)/2 - log(1+t)/2 (the cap's equilibrium measure
    is nubar_{t,0})."""
    if not np.all((-1.0 < t) & (t <= 1.0)):
        raise ValueError("cap height must lie in (-1, 1]")
    return (1.0 + t) / 4.0 - 0.5 * math.log(2.0) - 0.5 * np.log1p(t)


def log_f0_functional(t: float | np.ndarray, field: AxisMeasure, params: Params
                      ) -> float | np.ndarray:
    """Closed form of the cap functional F_0(Sigma_t) = W_0(Sigma_t)
    + int Q d mu_cap for the logarithmic axis field (d = 2), t a number or array:

        W_0(Sigma_t) + ||lambda|| (1+t)/4
        + sum_i m_i [ (R_i-1)^2 log(R_i^2-2R_i t+1)
                      - (R_i+1)^2 log((R_i+1)^2) ] / (8 R_i),

    W_0(Sigma_t) from :func:`log_cap_energy`.
    """
    _require(params, log=True)
    out = log_cap_energy(t) + field.total_mass * (1.0 + t) / 4.0
    for R, m in field.atoms:
        out += m * ((R - 1.0) ** 2 * np.log(axis_dist2(t, R))
                    - (R + 1.0) ** 2 * math.log((R + 1.0) ** 2)) / (8.0 * R)
    return out


def log_eta_potential(xi: float | np.ndarray, eta: CapMeasure, field: AxisMeasure,
                      params: Params) -> float | np.ndarray:
    """Weighted logarithmic potential of the signed cap equilibrium at a height xi,
    or at each entry of an array xi (``eta`` the log regime's, whose ``phi`` is
    F_0(Sigma_t); see :func:`rieszcap.axis_field.regime`): F_0(Sigma_t) on the cap,
    and off it

        F_0(Sigma_t) + log((1+t)/(1+xi))/2 + sum_i (m_i/2) log(r_i^2/rho_i^2).
    """
    _require(params, log=True)
    t, f0 = eta.t, eta.phi
    xi = np.asarray(xi, dtype=float)
    out, above = np.full(xi.shape, f0), xi > t
    x = xi[above]
    out[above] = (f0 + 0.5 * np.log((1.0 + t) / (1.0 + x))
                  + sum(0.5 * m * np.log(axis_dist2(t, R) / axis_dist2(x, R))
                        for R, m in field.atoms))
    return out[()]
