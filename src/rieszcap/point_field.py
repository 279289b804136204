"""External fields of positive charges on the polar axis.

A finite positive atom measure lambda = sum_i m_i delta_{R_i p} drives the
field Q(x) = sum_i m_i |x - R_i p|^{-s} (or the log analogue); a point
charge q at a = R*p is the one-atom measure.  The field potential of the
uniform measure on the axis is a Gauss hypergeometric value.  The distance
question for the Newtonian kernel s = d-1 comes down to one polynomial root
(the golden ratio when d = 2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

from scipy import optimize

from rieszcap.specfun import hyp2f1, hyp2f1_1mz
from rieszcap.sphere import Params

__all__ = [
    "AxisMeasure",
    "field_potential_on_axis",
    "gonchar_polynomial",
    "gonchar_root",
]


@dataclass(frozen=True)
class AxisMeasure:
    """Finite positive measure on the axis: atoms ((R_1, m_1), ...).

    All masses must be positive and finite, and every height must satisfy
    0 < R < inf, R != 1.  Atoms with R < 1 are accepted for Riesz kernels
    and mapped to the equivalent exterior problem by inversion (see
    :meth:`folded`).
    """

    atoms: tuple[tuple[float, float], ...]

    def __init__(self, atoms: Iterable[tuple[float, float]]):
        atoms = tuple((float(R), float(m)) for R, m in atoms)
        if not atoms:
            raise ValueError("axis measure needs at least one atom")
        for R, m in atoms:
            if not 0.0 < m < math.inf:
                raise ValueError(f"charges must be positive and finite, got {m}")
            if not 0.0 < R < math.inf or R == 1.0:
                raise ValueError(f"axis height must satisfy 0 < R < inf, R != 1, got R={R}")
        object.__setattr__(self, "atoms", atoms)

    @property
    def total_mass(self) -> float:
        return sum(m for _, m in self.atoms)

    def folded(self, params: Params) -> AxisMeasure:
        """The same field with every atom at R > 1 (Riesz kernels only).

        The field of (m, R) with R < 1 equals the field of (m R'^s, R') with
        R' = 1/R exactly, since |x - (1/R')p| = |x - R'p| / R' on the
        sphere.  The logarithmic kernel rejects R < 1: the same map shifts
        the field by a constant, which changes the functional values.
        """
        if all(R > 1.0 for R, _ in self.atoms):
            return self
        if params.log:
            raise ValueError("logarithmic fields require R > 1 (inversion shifts the field "
                             "by a constant; supply the exterior charge directly)")
        return AxisMeasure(
            (R, m) if R > 1.0 else (1.0 / R, m * (1.0 / R) ** params.s) for R, m in self.atoms)


def _exterior(R: float) -> float:
    # the per-unit-charge formulas take an exterior height; only field-level
    # functions fold interior atoms (with their mass factor R'^s)
    if not 1.0 < R < math.inf:
        raise ValueError(f"per-unit-charge formulas need an exterior height 1 < R < inf, "
                         f"got R={R}; fold the field first")
    return R


@functools.lru_cache
def field_potential_on_axis(R: float, params: Params) -> float:
    """Potential of the uniform measure at the axis point a = R*p, R > 1:

        U_s^sigma(a) = (R+1)^{-s} 2F1(s/2, d/2; d; 4R/(R+1)^2)
                     = R^{-s} 2F1(s/2, (s-d+1)/2; (d+1)/2; 1/R^2)   (A&S 15.3.17).

    The second is summed directly for 1/R^2 <= 0.7; the first, used nearer the
    sphere, is summed in 1-z, whose two terms cancel as (d-s)/2 nears an
    integer.  Cached, since every Delta(t) of a solve needs it.
    """
    if params.log:
        raise ValueError("field_potential_on_axis covers 0 < s < d Riesz kernels")
    d, s, R = params.d, params.s, _exterior(R)
    z = 1.0 / (R * R)
    if z <= 0.7:
        return R ** (-s) * hyp2f1(s / 2.0, (s - d + 1.0) / 2.0, (d + 1.0) / 2.0, z)
    # 1 - z = ((R-1)/(R+1))^2 computed directly: z itself rounds to 1 as R -> 1
    w = ((R - 1.0) / (R + 1.0)) ** 2
    return (R + 1.0) ** (-s) * hyp2f1_1mz(s / 2.0, d / 2.0, float(d), w)


def gonchar_polynomial(d: int, rho: float) -> float:
    """P(d; rho) = (rho^d - 2 - rho)(rho+1)^{d-1} + rho^d.

    Its unique positive root is the critical sphere-to-charge distance for
    the Newtonian kernel s = d-1 with q = 1.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    return (rho ** d - 2.0 - rho) * (rho + 1.0) ** (d - 1) + rho ** d


def gonchar_root(d: int) -> float:
    """The unique positive root of P(d; .), bracketed in (1, 2].

    P(d;1) = 1 - 2^d < 0 and P(d;2) > 0, so plain Brent iteration on [1, 2]
    converges; refined to ~1e-15 in rho.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    return float(optimize.brentq(lambda r: gonchar_polynomial(d, r), 1.0, 2.0,
                                 xtol=1e-15, rtol=8.9e-16))
