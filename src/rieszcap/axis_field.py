"""The support solver for external fields of charges on the positive axis.

A finite positive atom measure lambda = sum_i m_i delta_{R_i p} drives the
field Q(x) = sum_i m_i |x - R_i p|^{-s} (or the log analogue); a point
charge is the one-atom case.  Everything superposes: the balayage of
lambda is the mass-weighted sum of the single-charge balayages.  All three
kernel regimes run one algorithm: the sign of Delta(1) decides whether the
support is the full sphere; otherwise safeguarded Newton steps on Delta
find its root t0 on (-1, 1], where Delta changes sign; then eta_t0 is
assembled.  The whole sphere is the cap t = 1.  The regime modules supply
only the formulas (see :class:`Regime`).  A continuous lambda should be
pre-discretized by the caller (any quadrature of d lambda(R) against these
formulas is exact for its own nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

from rieszcap import cap_exceptional, cap_riesz
from rieszcap.point_field import AxisMeasure
from rieszcap.specfun import ConvergenceError
from rieszcap.sphere import _RADIAL_FIRST_ORDER, CapMeasure, Params, _jacobi_exponents, _jacobi_rules

__all__ = [
    "AxisMeasure",
    "CapSolution",
    "Regime",
    "regime",
    "axis_solve_t",
]

_LOWER = -1.0 + 1e-9  # the lower end of the root bracket
_MASS_TOL = 1e-10  # |mass(eta_t0) - 1| above which a solve raises: mass(eta_t) = 1 identically


class Regime(NamedTuple):
    """The formulas one kernel regime supplies, bound to its parameters.

    ``phi(t, field)`` is the cap functional and ``delta(t, field)`` the function
    whose root is the support height, at t or each entry of an array t (bit for
    bit), ``slope(t, delta_t, field)`` Delta'(t) for t in (-1, 1) given delta_t =
    Delta(t), ``eta(t, field)`` the signed cap equilibrium for t in (-1, 1] (mass
    not computed, ``phi`` set; eta_1 is the signed equilibrium of the whole
    sphere), and ``potential(xi, eta, field)`` its closed-form weighted potential.
    The Riesz range d-2 <= s < d runs one set of formulas; at s = d-2 its
    ``eta`` carries a ring charge.  ``column`` names the functional in
    phi-curve output.  ``families`` are the (singular, left) exponents of the
    cap integrals whose rules depend on s (none for log, fixed at d = 2).
    """

    column: str
    phi: Callable[[float, AxisMeasure], float]
    delta: Callable[[float, AxisMeasure], float]
    slope: Callable[[float, float, AxisMeasure], float]
    eta: Callable[[float, AxisMeasure], CapMeasure]
    potential: Callable[[float, CapMeasure, AxisMeasure], float]
    families: tuple[tuple[float, float | None], ...]


def regime(params: Params) -> Regime:
    """The formulas for d-2 < s < d, s = d-2 with d >= 3, or log with d = 2."""
    ce, cr = cap_exceptional, cap_riesz
    if params.log:
        ce._require_log(params)
        column, fns, families = "F0", (ce.log_f0_functional, ce.log_delta, ce.log_delta_slope,
                                       ce.log_etabar, ce.log_eta_potential), ()
    elif params.in_cap_regime or params.is_exceptional:
        fns = cr.phi, cr.delta, cr.delta_slope, cr.eta_measure, cr.eta_potential
        column, families = "phibar" if params.is_exceptional else "phi", cr._families(params)
    else:
        raise ValueError(f"no cap solver for d={params.d}, s={params.s}")
    return Regime(column, *(partial(f, params=params) for f in fns), families)


@dataclass(frozen=True)
class CapSolution:
    """Solved extremal support: the extremal measure eta_t0 (with its mass) and
    the branch taken; t0 and Phi(t0) are read from eta_t0.  ``delta_evals`` counts
    Delta's evaluations, Delta(1) included; ``t0_error`` is the last |Delta/Delta'|."""

    equilibrium: CapMeasure
    solved_by: str  # "interior_root" or "boundary_t_equals_1"
    field: AxisMeasure
    params: Params
    delta_evals: int = 1
    t0_error: float = 0.0

    @property
    def t0(self) -> float:
        """Height of the support cap."""
        return self.equilibrium.t

    @property
    def phi_at_t0(self) -> float:
        """The functional at t0, the weighted potential on the support."""
        return self.equilibrium.phi


def axis_solve_t(lam: AxisMeasure, params: Params) -> CapSolution:
    """Find the extremal support cap for an axis-supported field.

    A nonnegative Delta(1) of the regime (d-2 < s < d, s = d-2 with d >= 3,
    or logarithmic with d = 2) returns t0 = 1 with the whole-sphere signed
    equilibrium.  Otherwise Delta > 0 as t -> -1 and Delta(1) < 0, and Newton
    steps on Delta from t = 0, bisecting where a step would leave the sign
    bracket (-1 + 1e-9, 1), find its unique interior root; a bracket that
    collapses onto its lower end, where Delta <= 0, raises ConvergenceError.
    At the root Delta(t0) = 0, so eta_t0 carries no ring charge.  A mass of
    eta_t0 off 1 (its value at every t) by over 1e-10 raises ConvergenceError.
    """
    lam = lam.folded(params)
    form = regime(params)
    delta_at_one = form.delta(1.0, lam)
    if delta_at_one >= 0.0:
        t0, solved_by, evals, step = 1.0, "boundary_t_equals_1", 1, 0.0
    else:
        # the first-order rules of every cap integral of the solve, in one build pass
        _jacobi_rules(_RADIAL_FIRST_ORDER, [_jacobi_exponents(0.0, params, *f) for f in form.families])
        lo, hi, t = _LOWER, 1.0, 0.0
        for evals in range(2, 102):  # Delta evaluations, Delta(1) included (bisection needs < 50)
            delta_t = float(form.delta(t, lam))
            if t == _LOWER and delta_t <= 0.0:
                raise ConvergenceError(f"Delta({t!r}) = {delta_t!r} <= 0: t0 lies below the bracket")
            lo, hi = (t, hi) if delta_t > 0.0 else (lo, t)
            step = delta_t / float(form.slope(t, delta_t, lam))
            tol = 1e-14 + 8.9e-16 * abs(t)
            if hi - lo <= tol and lo == _LOWER != t:
                t = _LOWER  # the bracket collapsed onto its unevaluated lower end
            elif hi - lo <= tol or abs(step) <= tol:
                break
            else:
                t = t - step if lo < t - step < hi else 0.5 * (lo + hi)
        else:
            raise ConvergenceError(f"Newton on Delta did not settle: bracket ({lo!r}, {hi!r})")
        t0, solved_by = min(max(t - step, lo), hi), "interior_root"
    measure = replace(form.eta(t0, lam), boundary_coeff=0.0).with_mass(params)
    if not abs(measure.mass - 1.0) <= _MASS_TOL:
        raise ConvergenceError(f"mass(eta_t0) - 1 = {measure.mass - 1.0!r} at t0 = {t0!r}")
    return CapSolution(equilibrium=measure, solved_by=solved_by, field=lam, params=params,
                       delta_evals=evals, t0_error=abs(step))
