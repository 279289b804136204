"""Independent verification machinery.

Nothing here reuses the closed forms it checks: potentials are rebuilt by
adaptive quadrature of the ring kernel against the measure's density, the
Gauss variational inequalities are tested pointwise on a height grid, and a
projected-descent particle gas on S^2 provides a discrete stand-in for the
continuous minimization (support height and radial histogram are compared
against the analytic cap solution).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np
from scipy import integrate

from rieszcap.axis_field import AxisMeasure, CapSolution
from rieszcap.specfun import ConvergenceError
from rieszcap.sphere import CapMeasure, Params, kappa, surface_factor

__all__ = [
    "VariationalReport",
    "ParticleSystem",
    "external_field",
    "potential_of",
    "check_variational",
    "minimize_particles",
    "empirical_support_height",
]


def external_field(xi, field: AxisMeasure, params: Params):
    """Q at height xi from the field's own atoms, without inversion:
    sum_i m_i rho_i^{-s}, or -sum_i m_i log(rho_i) for the log kernel, where
    rho_i^2 = (R_i-1)^2 + 2 R_i (1-xi) = |x - R_i p|^2.  Vectorized over xi."""
    xi_arr = np.asarray(xi, dtype=float)
    out = np.zeros_like(xi_arr)
    for R, m in field.atoms:
        rho2 = (R - 1.0) ** 2 + 2.0 * R * (1.0 - xi_arr)
        out = out + m * (-0.5 * np.log(rho2) if params.log else rho2 ** (-params.s / 2.0))
    return float(out) if out.ndim == 0 else out


def potential_of(measure: CapMeasure, xi: float, params: Params) -> float:
    """U^mu at height xi by adaptive quadrature of the ring kernel:

        (omega_{d-1}/omega_d) int_{-1}^t kappa(u, xi) density(u)
                                          (1-u^2)^{d/2-1} du
        + boundary_coeff * kappa(t, xi),

    split at u = xi when xi lies inside the cap (kappa has an integrable
    singularity there for s >= d-1).  Raises ConvergenceError when the
    quadrature cannot certify ~1e-7 accuracy.
    """
    t, density, bcoef = measure.t, measure.radial_density, measure.boundary_coeff
    d = params.d

    def f(u: float) -> float:
        return density(u) * kappa(u, xi, params) * (1.0 - u * u) ** (d / 2.0 - 1.0)

    cuts = [(-1.0, xi), (xi, t)] if -1.0 < xi < t else [(-1.0, t)]
    total = 0.0
    err = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for a, b in cuts:
            val, e = integrate.quad(f, a, b, epsabs=1e-10, epsrel=1e-10, limit=400)
            total += val
            err += e
    scale = max(1.0, abs(total))
    if err > 1e-6 * scale:
        raise ConvergenceError(f"potential quadrature error {err:.2e} at xi={xi}")
    out = surface_factor(d) * total
    if bcoef:
        out += bcoef * kappa(t, xi, params)
    return out


@dataclass(frozen=True)
class VariationalReport:
    """Grid check of the Gauss variational inequalities for a cap solution.

    ``max_violation_on_support`` is the largest |U + Q - F| over cap
    heights, ``min_margin_off_support`` the smallest U + Q - F above the
    cap (negative values flag a violated inequality), and ``min_density``
    the smallest interior density sample, or the ring charge when that is
    nonzero and smaller (negative values flag a signed measure posing as an
    extremal one).
    """

    F_estimate: float
    max_violation_on_support: float
    min_margin_off_support: float
    min_density: float


def check_variational(solution: CapSolution, grid_size: int = 41) -> VariationalReport:
    """Evaluate U^{eta} + Q - F on a height grid for a solved (or deliberately
    mis-solved) cap measure and report the extremes."""
    params = solution.params
    t0 = solution.t0
    F = solution.phi_at_t0
    measure = solution.equilibrium
    field = solution.field
    grid = np.linspace(-1.0 + 1e-9, 1.0 - 1e-12, grid_size)
    max_violation = 0.0
    min_margin = math.inf
    for xi in grid:
        val = potential_of(measure, float(xi), params) \
            + float(external_field(float(xi), field, params)) - F
        if xi <= t0:
            max_violation = max(max_violation, abs(val))
        else:
            min_margin = min(min_margin, val)
    if not np.isfinite(min_margin):
        min_margin = 0.0  # full-sphere support: nothing off the cap
    gap = min(1e-9, (1.0 + t0) / 4.0)  # the samples' distance to each end of the cap
    us = np.linspace(-1.0 + gap, t0 - gap, 500)
    dens = np.asarray(measure.radial_density(us), dtype=float)
    if measure.boundary_coeff:
        dens = np.append(dens, measure.boundary_coeff)
    return VariationalReport(
        F_estimate=F,
        max_violation_on_support=float(max_violation),
        min_margin_off_support=float(min_margin),
        min_density=float(np.min(dens)),
    )


@dataclass
class ParticleSystem:
    """A discrete charge gas on S^2 with its descent bookkeeping."""

    points: np.ndarray
    params: Params
    field: AxisMeasure
    step_init: float
    backtrack_factor: float
    energies: list = dataclass_field(default_factory=list)

    @property
    def heights(self) -> np.ndarray:
        return self.points[:, 2]


def _pairs(x: np.ndarray, params: Params):
    """Kernel values k_ij and gradient weights w_ij of every pair of points,
    both from one Gram matrix (diagonals zero).

    With d2_ij = |x_i - x_j|^2 = 2 - 2 x_i.x_j, the kernel is d2^{-s/2} (or
    -log(d2)/2) and w_ij = s k_ij / d2_ij (or 1 / d2_ij), so that
    grad_i k(x_i, x_j) = -w_ij (x_i - x_j).  Returns None when two points
    coincide (an off-diagonal d2 <= 0).
    """
    # -2 x^T is a separate array, so numpy calls gemm, not the syrk of
    # x @ x.T, which is about twice as slow with three columns
    d2 = x @ (-2.0 * x.T)
    d2 += 2.0
    np.fill_diagonal(d2, 1.0)
    if d2.min() <= 0.0:
        return None
    if params.log:
        k = np.log(d2)
        k *= -0.5
        w = np.reciprocal(d2, out=d2)
    else:
        k = np.power(d2, -params.s / 2.0)
        w = np.divide(k, d2, out=d2)
        w *= params.s
    np.fill_diagonal(k, 0.0)
    np.fill_diagonal(w, 0.0)
    return k, w


def _energy(x: np.ndarray, params: Params, field):
    """The discrete weighted energy of the points x and the gradient weights
    of their pairs; (inf, None) when two points coincide."""
    pairs = _pairs(x, params)
    if pairs is None:
        return math.inf, None
    k, w = pairs
    n = x.shape[0]
    q_vals = external_field(x[:, 2], field, params)
    return float(np.sum(k) / n ** 2 + 2.0 / n * np.sum(q_vals)), w


def _gradient(x: np.ndarray, w: np.ndarray, params: Params, field) -> np.ndarray:
    """Gradient of the discrete energy in R^3, from the pair weights w of x:
    the pair part is -(2/n^2) (x_i sum_j w_ij - (W x)_i)."""
    n = x.shape[0]
    grad = -(2.0 / n ** 2) * (x * np.sum(w, axis=1)[:, None] - w @ x)
    # external field gradient; the field acts through |x - R p|
    for R, m in field.atoms:
        a = np.array([0.0, 0.0, R])
        da = x - a
        da2 = np.sum(da * da, axis=1)
        if params.log:
            grad += (2.0 / n) * m * (-da / da2[:, None])
        else:
            s = params.s
            grad += (2.0 / n) * m * (-s) * da2[:, None] ** (-(s + 2.0) / 2.0) * da
    return grad


def minimize_particles(n: int, params: Params, field, seed: int,
                       iters: int = 400) -> ParticleSystem:
    """Projected descent for the discrete weighted energy

        (1/n^2) sum_{i != j} k(x_i, x_j) + (2/n) sum_i Q(x_i)

    on S^2.  Steps renormalize to the sphere; backtracking halves the step
    until the energy does not increase and each accepted step may double it
    again.  The energy and the gradient share one pair matrix: the weights
    computed with an accepted trial's energy give the next step's gradient,
    so each trial costs one n x n pair computation.  Deterministic for a
    given seed; raises after too many halvings.
    """
    if params.d != 2:
        raise ValueError("the particle oracle runs on S^2 only")
    if n < 50:
        raise ValueError("need at least 50 particles")
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    step_init = 0.1 / n
    backtrack = 0.5
    system = ParticleSystem(points=x, params=params, field=field,
                            step_init=step_init, backtrack_factor=backtrack)
    energy, w = _energy(x, params, field)
    system.energies.append(energy)
    step = step_init
    for _ in range(iters):
        grad = _gradient(x, w, params, field)
        accepted = False
        for _ in range(60):
            x_new = x - step * grad
            x_new /= np.linalg.norm(x_new, axis=1, keepdims=True)
            e_new, w_new = _energy(x_new, params, field)
            if e_new <= energy:
                accepted = True
                break
            step *= backtrack
        if not accepted:
            raise RuntimeError(
                f"descent stalled: energy {energy:.12g}, step {step:.3e}, "
                f"gradient norm {np.linalg.norm(grad):.3e}")
        x, energy, w = x_new, e_new, w_new
        system.energies.append(energy)
        step *= 2.0  # regrow towards the stability ceiling; backtracking trims it
    system.points = x
    return system


def empirical_support_height(system: ParticleSystem) -> float:
    """Support-edge estimate from the particle heights: the 95th percentile
    linearly extrapolated through the 90th (2 q95 - q90), which hits the true
    edge exactly for a locally uniform height distribution.

    The extremal density eta_t0 vanishes like (t0 - u)^{1/2} at the edge, so
    under that law the estimate is biased low: 0.465 against t0 = 0.505 on
    ``scenarios/reference_particles.json``.  The planned replacement is the
    Kolmogorov distance between the empirical height CDF and the cumulative
    mass of eta_t0.
    """
    h = np.sort(system.heights)
    q90, q95 = np.quantile(h, [0.90, 0.95])
    return float(2.0 * q95 - q90)
