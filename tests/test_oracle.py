"""The particle descent of ``rieszcap.oracle`` against direct pairwise sums,
and its variational check on solved and mis-solved caps."""

import math

import numpy as np
import pytest

from rieszcap import cli, oracle
from rieszcap.axis_field import CapSolution, axis_solve_t, regime
from rieszcap.point_field import AxisMeasure
from rieszcap.sphere import Params

N_GRAD = 200
N_ENERGY = 60

POINT = AxisMeasure([(1.3, 1.0)])
# the Riesz axis field has one atom inside the sphere; log fields need R > 1
RIESZ_AXIS = AxisMeasure([(1.6, 0.5), (0.7, 0.5)])
LOG_AXIS = AxisMeasure([(1.6, 0.5), (2.5, 0.5)])

CASES = [pytest.param(Params(d=2, s=s), field, id=f"s{s}-{name}")
         for s in (0.5, 1.0, 1.5) for name, field in (("point", POINT), ("axis", RIESZ_AXIS))]
CASES += [pytest.param(Params(d=2, log=True), field, id=f"log-{name}")
          for name, field in (("point", POINT), ("axis", LOG_AXIS))]


def sphere_points(n, seed=5):
    x = np.random.default_rng(seed).normal(size=(n, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def kernel(r2, params):
    return -0.5 * math.log(r2) if params.log else r2 ** (-params.s / 2.0)


def reference_gradient(x, params, field):
    """The gradient from the n x n x 3 difference tensor."""
    n = x.shape[0]
    diff = x[:, None, :] - x[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    np.fill_diagonal(d2, 1.0)
    w = 1.0 / d2 if params.log else params.s * d2 ** (-(params.s + 2.0) / 2.0)
    np.fill_diagonal(w, 0.0)
    grad = -(2.0 / n ** 2) * np.einsum("ij,ijk->ik", w, diff)
    for R, m in field.atoms:
        da = x - np.array([0.0, 0.0, R])
        da2 = np.sum(da * da, axis=1)[:, None]
        wa = 1.0 / da2 if params.log else params.s * da2 ** (-(params.s + 2.0) / 2.0)
        grad -= (2.0 / n) * m * wa * da
    return grad


def reference_energy(x, params, field):
    """(1/n^2) sum_{i != j} k(x_i, x_j) + (2/n) sum_i Q(x_i), term by term."""
    n = len(x)
    pts = [tuple(map(float, p)) for p in x]
    pair = sum(kernel(math.dist(p, q) ** 2, params)
               for i, p in enumerate(pts) for j, q in enumerate(pts) if i != j)
    ext = sum(m * kernel(math.dist(p, (0.0, 0.0, R)) ** 2, params)
              for p in pts for R, m in field.atoms)
    return pair / n ** 2 + 2.0 / n * ext


@pytest.mark.parametrize("params, field", CASES)
def test_gradient_matches_difference_tensor(params, field):
    x = sphere_points(N_GRAD)
    _, w = oracle._energy(x, params, field)
    got = oracle._gradient(x, w, params, field)
    want = reference_gradient(x, params, field)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("params, field", CASES)
def test_energy_matches_pairwise_sum(params, field):
    x = sphere_points(N_ENERGY)
    got, _ = oracle._energy(x, params, field)
    want = reference_energy(x, params, field)
    assert abs(got - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("params, field", CASES)
def test_tangential_gradient_matches_central_differences(params, field):
    # move one particle along a great circle through its own tangent gradient
    x = sphere_points(N_GRAD)
    energy, w = oracle._energy(x, params, field)
    grad = oracle._gradient(x, w, params, field)
    h = 1e-5
    for i in (0, 57, 123):
        g_tan = grad[i] - (grad[i] @ x[i]) * x[i]
        v = g_tan / np.linalg.norm(g_tan)

        def moved(t):
            y = x.copy()
            y[i] = math.cos(t) * x[i] + math.sin(t) * v
            return oracle._energy(y, params, field)[0]

        slope = (moved(h) - moved(-h)) / (2.0 * h)
        assert slope == pytest.approx(g_tan @ v, rel=1e-6)


@pytest.mark.parametrize("params", [Params(d=2, s=1.0), Params(d=2, log=True)],
                         ids=["riesz", "log"])
def test_coincident_points_have_infinite_energy(params):
    x = sphere_points(N_ENERGY)
    x[7] = x[3]
    assert oracle._pairs(x, params) is None
    assert oracle._energy(x, params, POINT) == (math.inf, None)


@pytest.mark.parametrize("params, field", [(Params(d=2, s=1.4), RIESZ_AXIS),
                                           (Params(d=2, log=True), POINT)],
                         ids=["riesz", "log"])
def test_descent_is_deterministic_and_monotone(params, field):
    first = oracle.minimize_particles(60, params, field, seed=3, iters=20)
    second = oracle.minimize_particles(60, params, field, seed=3, iters=20)
    assert first.energies == second.energies
    assert np.array_equal(first.points, second.points)
    assert len(first.energies) == 21
    assert np.all(np.diff(first.energies) <= 0.0)
    assert first.step_init == 0.1 / 60 and first.backtrack_factor == 0.5
    assert np.allclose(np.linalg.norm(first.points, axis=1), 1.0, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# the variational check

TOL = 1e-5  # the verify task's default tolerance
VERIFY_FIELD = AxisMeasure([(1.5, 1.0)])
VERIFY_PARAMS = [pytest.param(Params(d=3, s=1.0), id="d3-s1"),
                 pytest.param(Params(d=4, s=2.0), id="d4-s2"),
                 pytest.param(Params(d=2, log=True), id="log")]


@pytest.mark.parametrize("d, kernel", [(3, {"type": "riesz", "s": 1.0}), (2, {"type": "log"})],
                         ids=["d3-s1", "log"])
def test_verify_task_passes_on_solved_cap(tmp_path, d, kernel):
    cfg = {"name": "v", "task": "verify", "d": d, "kernel": kernel, "grid": 5,
           "field": {"type": "point", "q": 1.0, "R": 1.5}}
    assert cli.run_scenario(cfg, tmp_path)["passed"] is True


def mis_solved(params, shift):
    """The regime's eta at t0 + shift, with its mass and ring charge, posing as a solution."""
    t = axis_solve_t(VERIFY_FIELD, params).t0 + shift
    eta = regime(params).eta(t, VERIFY_FIELD).with_mass(params)
    return CapSolution(t0=t, phi_at_t0=eta.phi, equilibrium=eta, solved_by="interior_root",
                       field=VERIFY_FIELD, params=params)


@pytest.mark.parametrize("params", VERIFY_PARAMS)
def test_cap_too_small_is_flagged_by_the_margin(params):
    report = oracle.check_variational(mis_solved(params, -0.1), grid_size=9)
    assert report.max_violation_on_support <= TOL
    assert report.min_margin_off_support < -TOL


@pytest.mark.parametrize("params", VERIFY_PARAMS)
def test_cap_too_large_is_flagged_by_its_negative_ring(params):
    # above t0 the potential inequalities all hold on the grid; only the
    # negative ring charge shows that eta is signed
    sol = mis_solved(params, 0.1)
    report = oracle.check_variational(sol, grid_size=9)
    assert report.max_violation_on_support <= TOL
    assert report.min_margin_off_support >= -TOL
    assert report.min_density == sol.equilibrium.boundary_coeff < -TOL
