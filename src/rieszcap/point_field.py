"""External fields of positive charges on the polar axis.

A finite positive atom measure lambda = sum_i m_i delta_{R_i p} drives the
field Q(x) = sum_i m_i |x - R_i p|^{-s} (or the log analogue); a point
charge q at a = R*p is the one-atom measure.  The field potential of the
uniform measure on the axis is a Gauss hypergeometric value.  For the
Newtonian kernel s = d-1 and q = 1 the critical charge distance is where the
solver's whole-sphere test H(1) = 1 flips (the golden ratio when d = 2); the
polynomial P(d; rho) vanishes there and certifies it.

A charge may sit on either side of the sphere.  On the sphere
|x - R p| = R |x - p/R| (the Kelvin transform of Riesz potentials; Landkof,
Foundations of Modern Potential Theory, 1972, ch. IV), so the field of a
charge m at R is that of m R^{-s} at 1/R.  Every per-unit-charge formula of
the package is written in a form that R -> 1/R leaves unchanged once the
charge is scaled by R^{-s}, f(R) = R^{-s} f(1/R), and takes the charge where
it lies.  For the log kernel the field of m at R is that of m at 1/R plus the
constant -m log R, which the closed forms carry into F.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

from rieszcap.specfun import _series_2f1, hyp2f1_1mz
from rieszcap.sphere import Params

__all__ = [
    "AxisMeasure",
    "field_potential_on_axis",
    "gonchar_polynomial",
]


@dataclass(frozen=True)
class AxisMeasure:
    """Finite positive measure on the axis: atoms ((R_1, m_1), ...).

    All masses must be positive and finite, and every height must satisfy
    0 < R < inf, R != 1: a charge may sit on either side of the sphere.
    """

    atoms: tuple[tuple[float, float], ...]

    def __init__(self, atoms: Iterable[tuple[float, float]]):
        atoms = tuple((float(R), float(m)) for R, m in atoms)
        if not atoms:
            raise ValueError("axis measure needs at least one atom")
        for R, m in atoms:
            if not 0.0 < m < math.inf:
                raise ValueError(f"charges must be positive and finite, got {m}")
            _axis_height(R)
        object.__setattr__(self, "atoms", atoms)

    @property
    def total_mass(self) -> float:
        return sum(m for _, m in self.atoms)


def _axis_height(R: float) -> float:
    # the one height rule: a charge off the sphere, on either side of it
    if not 0.0 < R < math.inf or R == 1.0:
        raise ValueError(f"axis height must satisfy 0 < R < inf, R != 1, got R={R}")
    return R


@functools.lru_cache
def field_potential_on_axis(R: float, params: Params) -> float:
    """Potential of the uniform measure at the axis point a = R*p, R != 1:

        U_s^sigma(a) = (R+1)^{-s} 2F1(s/2, d/2; d; 4R/(R+1)^2)
                     = R^{-s} 2F1(s/2, (s-d+1)/2; (d+1)/2; 1/R^2)   (A&S 15.3.17),

    the second for R > 1; for R < 1 it is 2F1(s/2, (s-d+1)/2; (d+1)/2; R^2),
    R^{-s} times its value at 1/R.  The plain Gauss series sums it while its
    argument is at most 0.9; the first form, Kelvin-invariant as written and
    used nearer the sphere, is summed in 1-z, whose two terms cancel as
    (d-s)/2 nears an integer.  Cached: only H(1) and ||eps_1|| call it, and a
    whole-sphere solve forms H(1) twice (its test and eta_1), as fixed cases
    that recur do.
    """
    if params.log:
        raise ValueError("field_potential_on_axis covers 0 < s < d Riesz kernels")
    d, s, R = params.d, params.s, _axis_height(R)
    z, scale = (1.0 / (R * R), R ** (-s)) if R > 1.0 else (R * R, 1.0)
    if z <= 0.9:
        return scale * _series_2f1(s / 2.0, (s - d + 1.0) / 2.0, (d + 1.0) / 2.0, z)
    # 1 - z = ((R-1)/(R+1))^2 computed directly: z itself rounds to 1 as R -> 1
    w = ((R - 1.0) / (R + 1.0)) ** 2
    return (R + 1.0) ** (-s) * hyp2f1_1mz(s / 2.0, d / 2.0, float(d), w)


def gonchar_polynomial(d: int, rho: float) -> float:
    """P(d; rho) = (rho^d - 2 - rho)(rho+1)^{d-1} + rho^d.

    Its unique positive root, bracketed by P(d; 1) < 0 < P(d; 2), is the
    critical sphere-to-charge distance for the Newtonian kernel s = d-1 with
    q = 1 (:func:`rieszcap.axis_field.newtonian_distance` finds it from H(1)).
    """
    if d < 2:
        raise ValueError("need d >= 2")
    return (rho ** d - 2.0 - rho) * (rho + 1.0) ** (d - 1) + rho ** d

