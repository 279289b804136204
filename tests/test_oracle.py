"""The particle descent of ``rieszcap.oracle`` against direct pairwise sums,
and its variational check on solved and mis-solved caps."""

import json
import math

import mpmath as mp
import numpy as np
import pytest

from rieszcap import cli, oracle
from rieszcap.axis_field import CapSolution, axis_solve_t
from rieszcap.cap_riesz import eta_measure
from rieszcap.point_field import AxisMeasure
from rieszcap.sphere import Params

N_GRAD = 200
N_ENERGY = 60

POINT = AxisMeasure([(1.3, 1.0)])
# the Riesz axis field has one atom inside the sphere
RIESZ_AXIS = AxisMeasure([(1.6, 0.5), (0.7, 0.5)])
LOG_AXIS = AxisMeasure([(1.6, 0.5), (2.5, 0.5)])

CASES = [pytest.param(Params(d=2, s=s), field, id=f"s{s}-{name}")
         for s in (0.5, 1.0, 1.5) for name, field in (("point", POINT), ("axis", RIESZ_AXIS))]
CASES += [pytest.param(Params(d=2, log=True), field, id=f"log-{name}")
          for name, field in (("point", POINT), ("axis", LOG_AXIS))]


def sphere_points(n, seed=5):
    x = np.random.default_rng(seed).normal(size=(n, 3))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def energy(x, params, field):
    return oracle._energy(x, params, field, oracle._workspace(len(x)))


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


def dense_energy(x, params, field):
    """The energy from the full n x n matrix of squared distances."""
    n = len(x)
    diff = x[:, None, :] - x[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    np.fill_diagonal(d2, 1.0)
    k = -0.5 * np.log(d2) if params.log else d2 ** (-params.s / 2.0)
    np.fill_diagonal(k, 0.0)
    ext = 0.0
    for R, m in field.atoms:
        da2 = np.sum((x - np.array([0.0, 0.0, R])) ** 2, axis=1)
        ext += m * np.sum(-0.5 * np.log(da2) if params.log else da2 ** (-params.s / 2.0))
    return np.sum(k) / n ** 2 + 2.0 / n * ext


@pytest.mark.parametrize("params, field", CASES)
def test_gradient_matches_difference_tensor(params, field):
    x = sphere_points(N_GRAD)
    _, acc = energy(x, params, field)
    got = oracle._gradient(x, acc, params, field)
    want = reference_gradient(x, params, field)
    assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("params, field", CASES)
def test_energy_matches_pairwise_sum(params, field):
    x = sphere_points(N_ENERGY)
    got, _ = energy(x, params, field)
    want = reference_energy(x, params, field)
    assert abs(got - want) <= 1e-13 * abs(want)


# below, at and across the strip height of 128 rows; at n = 129 the last strip
# is one row, whose pairs the energy weights count once
STRIP_CASES = [pytest.param(Params(d=2, s=0.5), RIESZ_AXIS, id="s0.5"),
               pytest.param(Params(d=2, s=1.37), POINT, id="s1.37"),
               pytest.param(Params(d=2, s=0.05), POINT, id="s0.05"),
               pytest.param(Params(d=2, log=True), LOG_AXIS, id="log")]


@pytest.mark.parametrize("n", [99, 100, 101, 128, 129, 257, 801])
@pytest.mark.parametrize("params, field", STRIP_CASES)
def test_strip_sums_match_the_dense_pair_matrix(params, field, n):
    x = sphere_points(n, seed=n)
    got, acc = energy(x, params, field)
    want = dense_energy(x, params, field)
    assert abs(got - want) <= 1e-13 * abs(want)
    grad = oracle._gradient(x, acc, params, field)
    want = reference_gradient(x, params, field)
    assert np.max(np.abs(grad - want)) <= 1e-9 * np.max(np.abs(want))


@pytest.mark.parametrize("params", [Params(d=2, s=0.05), Params(d=2, s=1.37),
                                    Params(d=2, s=1.95), Params(d=2, log=True)],
                         ids=["s0.05", "s1.37", "s1.95", "log"])
def test_near_coincident_pair_kernel_against_40_digit_mpmath(params):
    # two points 1e-7 apart in angle: d2 = 2 - 2 cos(1e-7) ~ 1e-14, just above the
    # floor; with x0 = e_1 and x1 in the e_1 e_2 plane the Gram form 2 - 2 c is
    # exact, so the pair sum, both orders of one pair, tests the kernel at d2 alone
    c = math.cos(1e-7)
    x = np.array([[1.0, 0.0, 0.0], [c, math.sqrt(1.0 - c * c), 0.0]])
    total, _ = oracle._pairs(x, params, oracle._workspace(2))
    with mp.workdps(40):
        d2 = 2 - 2 * mp.mpf(c)
        want = -mp.log(d2) / 2 if params.log else d2 ** (-mp.mpf(params.s) / 2)
        assert abs(mp.mpf(total / 2.0) - want) <= 1e-14 * abs(want)


@pytest.mark.parametrize("params, field", CASES)
def test_tangential_gradient_matches_central_differences(params, field):
    # move one particle along a great circle through its own tangent gradient
    x = sphere_points(N_GRAD)
    _, acc = energy(x, params, field)
    grad = oracle._gradient(x, acc, params, field)
    h = 1e-5
    for i in (0, 57, 123):
        g_tan = grad[i] - (grad[i] @ x[i]) * x[i]
        v = g_tan / np.linalg.norm(g_tan)

        def moved(t):
            y = x.copy()
            y[i] = math.cos(t) * x[i] + math.sin(t) * v
            return energy(y, params, field)[0]

        slope = (moved(h) - moved(-h)) / (2.0 * h)
        assert slope == pytest.approx(g_tan @ v, rel=1e-6)


@pytest.mark.parametrize("params", [Params(d=2, s=1.0), Params(d=2, log=True)],
                         ids=["riesz", "log"])
def test_coincident_points_have_infinite_energy(params):
    x = sphere_points(N_ENERGY)
    x[7] = x[3]
    assert oracle._pairs(x, params, oracle._workspace(N_ENERGY)) is None
    assert energy(x, params, POINT) == (math.inf, None)
    # 2 - 2 x.x of a repeated point rounds to +2.2e-16 at n = 60 and to
    # +4.4e-16 at n = 101 and 257; at n = 801 the pair spans two strips
    for n in (60, 101, 257, 801):
        x = sphere_points(n, seed=n)
        x[n - 1] = x[0]
        assert oracle._pairs(x, params, oracle._workspace(n)) is None
        assert energy(x, params, POINT) == (math.inf, None)


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
    assert np.allclose(np.linalg.norm(first.points, axis=1), 1.0, rtol=0, atol=1e-15)


def test_descent_across_strips_is_deterministic_and_monotone():
    # 257 points make three strips, the last of one row
    params, field = Params(d=2, s=1.2), RIESZ_AXIS
    first = oracle.minimize_particles(257, params, field, seed=8, iters=20)
    second = oracle.minimize_particles(257, params, field, seed=8, iters=20)
    assert first.energies == second.energies
    assert np.array_equal(first.points, second.points)
    assert len(first.energies) == 21
    assert np.all(np.diff(first.energies) <= 0.0)
    assert first.energy_evals == second.energy_evals >= 21


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


@pytest.mark.parametrize("grid", [5, 41])
def test_verify_task_passes_on_the_whole_sphere(tmp_path, grid):
    # R = 3 leaves the whole sphere as the support at d = 3, s = 1.5: every grid
    # height lies on the cap, and nothing is left off it for a margin
    cfg = {"name": "v", "task": "verify", "d": 3, "kernel": {"type": "riesz", "s": 1.5},
           "grid": grid, "field": {"type": "point", "q": 1.0, "R": 3.0}}
    assert cli.run_scenario(cfg, tmp_path)["passed"] is True
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["t0"] == 1.0 and report["min_margin_off_support"] == 0.0
    assert report["max_violation_on_support"] <= 1e-7
    assert report["min_density"] > 0.0


def mis_solved(params, shift):
    """eta_measure at t0 + shift, with its ring charge, posing as a solution."""
    t = axis_solve_t(VERIFY_FIELD, params).t0 + shift
    return CapSolution(equilibrium=eta_measure(t, VERIFY_FIELD, params), solved_by="interior_root")


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


@pytest.mark.parametrize("a", [-0.5, 0.0, 0.505, 0.9])
@pytest.mark.parametrize("n", [200, 801])
def test_empirical_support_height_of_evenly_spaced_heights(a, n):
    # a locally uniform height law: the extrapolated 2 q95 - q90 is its edge a
    # to within one spacing, whatever order the particles come in
    heights = np.random.default_rng(n).permutation(np.linspace(-1.0, a, n))
    points = np.column_stack([np.sqrt(1.0 - heights ** 2), np.zeros(n), heights])
    system = oracle.ParticleSystem(points=points, params=Params(d=2, s=1.0), field=POINT)
    assert abs(oracle.empirical_support_height(system) - a) <= (1.0 + a) / (n - 1)
