"""The weak* helpers of s = d-2: how the d-2 < s < d balayages tend to their limit.

The s = d-2 balayage formulas, with the ring charge that nubar_t, epsbar_t
and etabar_t carry on the cap boundary, live in :mod:`rieszcap.cap_riesz`
as the s -> (d-2)+ limits of its constructors.  The planar log kernel is
that point at d = 2 (s = 0, W = 1), so its nubar_t, epsbar_t, H, H',
etabar_t, functional F_0 and weighted potential come from there too, with
mass-preserving balayage and t0 = min{1, (R^2 - 2Rq + 1)/(2R(1+q))}.  This
module measures the weak* convergence of the limit (:func:`weakstar_gap`,
:func:`gamma_s_norm`), at d = 2 against the log kernel.
"""

from __future__ import annotations

import math

import numpy as np

from rieszcap.cap_riesz import eps_measure, nu_measure
from rieszcap.sphere import Params

__all__ = [
    "weakstar_gap",
    "gamma_s_norm",
]


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
    if not params.is_exceptional:
        raise ValueError("this operation needs s = d-2 with d >= 3, or the log kernel at d = 2, "
                         f"got {params}")
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
