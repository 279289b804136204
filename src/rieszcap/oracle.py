"""Independent verification machinery.

Nothing here reuses the closed forms it checks: potentials are rebuilt by
adaptive quadrature of the ring kernel against the measure's density, the
Gauss variational inequalities are tested pointwise on a height grid, and a
projected-descent particle gas on S^2 provides a discrete stand-in for the
continuous minimization; its heights and a support-height estimate are what
it reports.  The descent's energy and gradient come from one fused pass over
the pairs: row strips of one workspace, each with one Gram gemm for the
squared distances, one energy gemv, and the Riesz kernel as exp2 of log2.
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


def potential_of(measure: CapMeasure, xi: float) -> float:
    """U^mu at height xi by adaptive quadrature of the ring kernel:

        (omega_{d-1}/omega_d) int_{-1}^t kappa(u, xi) density(u)
                                          (1-u^2)^{d/2-1} du
        + boundary_coeff * kappa(t, xi),

    split at u = xi when xi lies inside the cap (kappa has an integrable
    singularity there for s >= d-1).  Raises ConvergenceError when the
    quadrature cannot certify ~1e-7 accuracy.
    """
    t, density, bcoef = measure.t, measure.radial_density, measure.boundary_coeff
    params, d = measure.params, measure.params.d

    def f(u: float) -> float:
        return density(u) * kappa(u, xi, params) * (1.0 - u * u) ** (d / 2.0 - 1.0)

    cuts = [(-1.0, xi), (xi, t)] if -1.0 < xi < t else [(-1.0, t)]
    total = err = 0.0
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
    measure, field, t0, F = solution.equilibrium, solution.field, solution.t0, solution.phi_at_t0
    params = measure.params
    grid = np.linspace(-1.0 + 1e-9, 1.0 - 1e-12, grid_size)
    max_violation, min_margin = 0.0, math.inf
    for xi in grid:
        val = potential_of(measure, float(xi)) \
            + float(external_field(float(xi), field, params)) - F
        if xi <= t0:
            max_violation = max(max_violation, abs(val))
        else:
            min_margin = min(min_margin, val)
    if not np.isfinite(min_margin):
        min_margin = 0.0  # full-sphere support: nothing off the cap
    dens = np.asarray(measure.density_samples(500)[1], dtype=float)
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
    energies: list = dataclass_field(default_factory=list)
    energy_evals: int = 0  # pair evaluations, rejected trials included

    @property
    def heights(self) -> np.ndarray:
        return self.points[:, 2]


_STRIP = 128  # rows per strip of the pair sums; 64 to 200 run equally fast
# For coincident unit vectors d2 = [x | 1].[-2x | 2] is rounding alone (u = eps/2).
# |x|^2 is within 6u of 1, so the exact 2 - 2|x|^2 is within 12u of 0; the
# products -2 x_k^2 round by 2u in all, and BLAS sums the 4 terms, of magnitudes
# adding to 4, in some order within 3u * 4 = 12u.  So |d2| <= 26u = 13 eps, and a
# d2 <= 16 eps (distance 6e-8) has no correct digit.
_D2_FLOOR = 16.0 * np.finfo(float).eps


def _workspace(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two strip buffers of :func:`_pairs` for n points, and its column weights ev."""
    return np.empty((2, _STRIP * n)), np.where(np.arange(n) < _STRIP, 1.0, 2.0)


def _pairs(x: np.ndarray, params: Params, work: tuple[np.ndarray, np.ndarray]):
    """The pair sum sum_{i != j} k(x_i, x_j) and the n x (D+1) sums [W x | W 1]
    of the gradient weights for x of width D, or None when two points coincide
    (a d2 at or below the Gram form's rounding floor).  With d2_ij = 2 - 2 x_i.x_j,
    k is d2^{-s/2} (or -log(d2)/2) and w_ij = s k_ij / d2_ij (or 1 / d2_ij), so
    grad_i k(x_i, x_j) = -w_ij (x_i - x_j).  Strips of rows i0:i0+m against
    columns i0:n, in the two buffers of ``work`` (:func:`_workspace`), form each
    unordered pair once: the left m x m block holds both orders, the rest stands
    for (i, j), (j, i), which the weights ev of ``work`` (1 on the first _STRIP
    columns, 2 after) count in one gemv.  Each strip forms d2 in one gemm of
    [x | 1] against [-2x | 2] (not the slower syrk of one operand), takes
    d2^{-s/2} as exp2(-s/2 log2 d2), and leaves the constants -1/2 and s to the sums.
    """
    n, (bufs, ev) = x.shape[0], work
    ones = np.ones((n, 1))
    x1, yt = np.hstack([x, ones]), np.hstack([-2.0 * x, 2.0 * ones]).T
    acc, total = np.zeros_like(x1), 0.0
    for i0 in range(0, n, _STRIP):
        m, c = min(_STRIP, n - i0), n - i0
        d2, k = (buf[:m * c].reshape(m, c) for buf in bufs)
        np.matmul(x1[i0:i0 + m], yt[:, i0:], out=d2)
        np.fill_diagonal(d2, 1.0)
        if d2.min() <= _D2_FLOOR:
            return None
        if params.log:
            np.log(d2, out=k)
            w = np.reciprocal(d2, out=d2)
        else:
            np.log2(d2, out=k)
            k *= -params.s / 2.0
            w = np.divide(np.exp2(k, out=k), d2, out=d2)
        np.fill_diagonal(k, 0.0)
        np.fill_diagonal(w, 0.0)
        total += np.sum(k @ ev[:c])
        acc[i0:i0 + m] += w @ x1[i0:]
        acc[i0 + m:] += w[:, m:].T @ x1[i0:i0 + m]
    if params.log:
        return -0.5 * total, acc
    acc *= params.s
    return total, acc


def _energy(x: np.ndarray, params: Params, field, work):
    """The discrete weighted energy of the points x and the gradient
    accumulator of their pairs; (inf, None) when two points coincide."""
    pairs = _pairs(x, params, work)
    if pairs is None:
        return math.inf, None
    n, q_sum = x.shape[0], np.sum(external_field(x[:, 2], field, params))
    return float(pairs[0] / n ** 2 + 2.0 / n * q_sum), pairs[1]


def _gradient(x: np.ndarray, acc: np.ndarray, params: Params, field) -> np.ndarray:
    """Gradient of the discrete energy in R^3, from the pair accumulator
    [W x | W 1] of x: the pair part is -(2/n^2) (x_i sum_j w_ij - (W x)_i)."""
    n = x.shape[0]
    grad = -(2.0 / n ** 2) * (x * acc[:, 3:] - acc[:, :3])
    # external field gradient; the field acts through |x - R p|
    for R, m in field.atoms:
        da = x - np.array([0.0, 0.0, R])
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
    again.  The energy and the gradient share one pass over the pairs: the
    weight sums of an accepted trial give the next step's gradient, so each
    trial forms every unordered pair once, in row strips of one workspace.
    Deterministic for a given seed; raises after too many halvings.
    """
    if params.d != 2:
        raise ValueError("the particle oracle runs on S^2 only")
    if n < 50:
        raise ValueError("need at least 50 particles")
    x = np.random.default_rng(seed).normal(size=(n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    work = _workspace(n)
    energy, acc = _energy(x, params, field, work)
    system = ParticleSystem(points=x, params=params, field=field, energies=[energy], energy_evals=1)
    step = 0.1 / n
    for _ in range(iters):
        grad = _gradient(x, acc, params, field)
        for _ in range(60):
            x_new = x - step * grad
            x_new /= np.linalg.norm(x_new, axis=1, keepdims=True)
            e_new, acc_new = _energy(x_new, params, field, work)
            system.energy_evals += 1
            if e_new <= energy:
                break
            step *= 0.5
        else:
            raise RuntimeError(
                f"descent stalled: energy {energy:.12g}, step {step:.3e}, "
                f"gradient norm {np.linalg.norm(grad):.3e}")
        x, energy, acc = x_new, e_new, acc_new
        system.energies.append(energy)
        step *= 2.0  # regrow towards the stability ceiling; backtracking trims it
    system.points = x
    return system


def empirical_support_height(system: ParticleSystem) -> float:
    """Support-edge estimate from the particle heights: the 95th percentile
    linearly extrapolated through the 90th (2 q95 - q90), which hits the true
    edge exactly for a locally uniform height distribution.

    The extremal density eta_t0 vanishes like (t0 - u)^{1/2} at the edge, so
    under that law the estimate is biased low: 0.42-0.48, as rounding steers
    the descent, against t0 = 0.505 on ``scenarios/reference_particles.json``.
    The planned replacement is the Kolmogorov distance between the empirical
    height CDF and the cumulative mass of eta_t0.
    """
    h = np.sort(system.heights)
    q90, q95 = np.quantile(h, [0.90, 0.95])
    return float(2.0 * q95 - q90)
