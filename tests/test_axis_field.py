import math

import numpy as np
import pytest
from scipy import integrate

pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")

from rieszcap.axis_field import (
    AxisMeasure,
    axis_Q,
    axis_sphere_equilibrium,
    axis_solve_t,
)
from rieszcap.cap_exceptional import log_f0_functional
from rieszcap.point_field import PointCharge
from rieszcap.sphere import Params, axis_dist2, kappa, surface_factor

P21 = Params(d=2, s=1.0)
PLOG = Params(d=2, log=True)


def test_axis_measure_validation():
    with pytest.raises(ValueError):
        AxisMeasure([])
    with pytest.raises(ValueError):
        AxisMeasure([(2.0, 0.0)])
    with pytest.raises(ValueError):
        AxisMeasure([(1.0, 1.0)])
    lam = AxisMeasure([(2.0, 1.0), (3.0, 0.5)])
    assert lam.total_mass == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# the field itself


def test_axis_q_single_atom_reduces_to_point_charge():
    lam = AxisMeasure([(2.0, 0.7)])
    for xi in (-0.5, 0.0, 0.9):
        assert axis_Q(xi, lam, P21) == pytest.approx(
            0.7 * axis_dist2(xi, 2.0) ** -0.5, rel=1e-14)


def test_axis_q_superposition_exact():
    lam1 = AxisMeasure([(2.0, 0.7)])
    lam2 = AxisMeasure([(3.0, 1.1)])
    both = AxisMeasure([(2.0, 0.7), (3.0, 1.1)])
    xi = np.linspace(-1.0, 1.0, 11)
    np.testing.assert_allclose(axis_Q(xi, both, P21),
                               axis_Q(xi, lam1, P21) + axis_Q(xi, lam2, P21), rtol=0)


def test_axis_q_log_zero_at_unit_distance():
    # atom at R=2 seen from the North Pole: |p - 2p| = 1, so the log field vanishes
    lam = AxisMeasure([(2.0, 1.0)])
    assert axis_Q(1.0, lam, PLOG) == pytest.approx(0.0, abs=1e-15)


def test_axis_q_inversion_reduction():
    # atom at 1/R with mass m == atom at R with mass m R^s
    s = 1.3
    p = Params(d=3, s=s)
    inner = AxisMeasure([(0.5, 0.8)])
    outer = AxisMeasure([(2.0, 0.8 * 2.0 ** s)])
    for xi in (-0.7, 0.2, 0.95):
        assert axis_Q(xi, inner, p) == pytest.approx(axis_Q(xi, outer, p), rel=1e-13)


# ---------------------------------------------------------------------------
# whole-sphere signed equilibrium


def test_axis_sphere_equilibrium_single_atom_matches_point_field():
    lam = AxisMeasure([(3.0, 1.0)])
    eq = axis_sphere_equilibrium(lam, P21)
    point = axis_sphere_equilibrium(PointCharge(q=1.0, R=3.0), P21)
    for u in (-1.0, -0.2, 0.5, 1.0):
        assert eq.density(u) == pytest.approx(point.density(u), rel=1e-12)


def test_axis_sphere_equilibrium_mass():
    lam = AxisMeasure([(2.0, 0.5), (4.0, 1.5), (1.5, 0.2)])
    p = Params(d=3, s=1.4)
    eq = axis_sphere_equilibrium(lam, p)
    val, err = integrate.quad(lambda u: eq.density(u) * (1.0 - u * u) ** 0.5, -1.0, 1.0,
                              epsabs=1e-12, epsrel=1e-11)
    assert surface_factor(3) * val == pytest.approx(1.0, abs=1e-9)


def test_axis_log_margin_proper_cap():
    # single atom (R, m) = (2, 0.5): margin 1.5 - 0.5*(3/1)^2 = -3 < 0
    lam = AxisMeasure([(2.0, 0.5)])
    eq = axis_sphere_equilibrium(lam, PLOG)
    assert eq.support_margin == pytest.approx(1.5 - 0.5 * 9.0, rel=1e-13)
    assert eq.support_margin < 0.0
    sol = axis_solve_t(lam, PLOG)
    assert sol.t0 < 1.0


# ---------------------------------------------------------------------------
# support solves: single atoms reduce to the point-charge solvers


def test_axis_solve_single_atom_riesz():
    lam = AxisMeasure([(1.3, 1.0)])
    sol_axis = axis_solve_t(lam, P21)
    sol_point = axis_solve_t(PointCharge(q=1.0, R=1.3), P21)
    assert sol_axis.t0 == pytest.approx(sol_point.t0, abs=1e-12)
    assert sol_axis.phi_at_t0 == pytest.approx(sol_point.phi_at_t0, rel=1e-12)
    us = np.linspace(-1.0, sol_point.t0 - 1e-6, 50)
    np.testing.assert_allclose(sol_axis.equilibrium.radial_density(us),
                               sol_point.equilibrium.radial_density(us),
                               rtol=1e-10, atol=1e-12)


def test_axis_solve_single_atom_exceptional():
    p = Params(d=3, s=1.0)
    lam = AxisMeasure([(2.0, 1.0)])
    sol_axis = axis_solve_t(lam, p)
    sol_point = axis_solve_t(PointCharge(q=1.0, R=2.0), p)
    assert sol_axis.t0 == pytest.approx(sol_point.t0, abs=1e-12)
    assert sol_axis.phi_at_t0 == pytest.approx(sol_point.phi_at_t0, rel=1e-12)


def test_axis_solve_single_atom_log():
    lam = AxisMeasure([(2.0, 1.0)])
    sol_axis = axis_solve_t(lam, PLOG)
    sol_point = axis_solve_t(PointCharge(q=1.0, R=2.0), PLOG)
    assert sol_axis.t0 == pytest.approx(1.0 / 8.0, abs=1e-12)
    assert sol_axis.phi_at_t0 == pytest.approx(sol_point.phi_at_t0, rel=1e-12)
    assert sol_axis.equilibrium.mass == pytest.approx(1.0, abs=1e-10)


def test_axis_solve_log_boundary_density_positive():
    lam = AxisMeasure([(2.0, 1.0), (3.0, 0.4)])
    sol = axis_solve_t(lam, PLOG)
    t = sol.t0
    # closed-form boundary limit: int (R+1)^2 2R(1-t) / (R^2-2Rt+1)^2 d lambda,
    # positive since r^2 - (R-1)^2 = 2R(1-t) > 0
    expected = sum(m * (R + 1.0) ** 2 * 2.0 * R * (1.0 - t) / axis_dist2(t, R) ** 2
                   for R, m in lam.atoms)
    assert sol.equilibrium.radial_density(t) == pytest.approx(expected, rel=1e-10)
    assert expected > 0.0


def test_axis_solve_three_atoms_mass_and_sign():
    lam = AxisMeasure([(1.4, 0.6), (2.0, 0.3), (2.5, 0.8)])
    p = Params(d=2, s=1.0)
    sol = axis_solve_t(lam, p)
    assert sol.solved_by == "interior_root"
    assert sol.equilibrium.mass == pytest.approx(1.0, abs=1e-8)
    us = np.linspace(-1.0 + 1e-9, sol.t0 - 1e-9, 500)
    dens = sol.equilibrium.radial_density(us)
    assert np.all(dens > -1e-10)


def test_axis_density_single_sign_change_for_wrong_caps():
    # at t above t_lambda the density turns negative near the edge, with at
    # most one sign change on the cap (monotone-coefficient argument)
    rng = np.random.default_rng(77)
    p = Params(d=2, s=1.0)
    for _ in range(3):
        Rs = np.sort(rng.uniform(1.2, 3.0, size=3))
        ms = rng.uniform(0.2, 1.0, size=3)
        lam = AxisMeasure([(float(R), float(m)) for R, m in zip(Rs, ms)])
        sol = axis_solve_t(lam, p)
        if sol.t0 >= 0.99:
            continue
        t_bad = sol.t0 + 0.1 * (1.0 - sol.t0)
        # rebuild the signed equilibrium at the wrong cap height
        from rieszcap.cap_riesz import eps_norm, nu_norm
        from rieszcap.sphere import sphere_energy
        W = sphere_energy(p)
        atoms = lam.atoms
        eps = sum(m * eps_norm(t_bad, PointCharge(q=1.0, R=R), p) for R, m in atoms)
        phi_t = W * (1.0 + eps) / nu_norm(t_bad, p)
        us = np.linspace(-1.0 + 1e-9, t_bad - 1e-9, 400)
        dens = np.zeros_like(us)
        # superpose per-atom signed equilibria sharing the common phi value
        # eta' = (phi/W) nu' - sum m_i eps'_i
        from rieszcap.cap_riesz import eps_density, nu_density
        dens = (phi_t / W) * nu_density(us, t_bad, p)
        for R, m in atoms:
            dens = dens - m * eps_density(us, t_bad, PointCharge(q=1.0, R=R), p)
        signs = np.sign(dens)
        changes = int(np.sum(signs[:-1] != signs[1:]))
        assert changes <= 1
        assert dens[-1] < 0.0


def test_axis_weighted_potential_constancy():
    lam = AxisMeasure([(1.5, 0.5), (2.2, 0.7)])
    p = Params(d=2, s=1.0)
    sol = axis_solve_t(lam, p)
    t = sol.t0
    dens = sol.equilibrium.radial_density

    def weighted(xi):
        def f(u):
            return dens(u) * kappa(u, xi, p)

        pieces = []
        if xi < t:
            pieces.append(integrate.quad(f, -1.0, xi, epsabs=1e-11, epsrel=1e-10,
                                         limit=400)[0])
            pieces.append(integrate.quad(f, xi, t, epsabs=1e-11, epsrel=1e-10,
                                         limit=400)[0])
        else:
            pieces.append(integrate.quad(f, -1.0, t, epsabs=1e-11, epsrel=1e-10,
                                         limit=400)[0])
        return surface_factor(2) * sum(pieces) + float(axis_Q(xi, lam, p))

    vals = [weighted(xi) for xi in np.linspace(-0.9, t - 0.05, 8)]
    assert max(vals) - min(vals) < 1e-6 * abs(np.mean(vals))
    assert np.mean(vals) == pytest.approx(sol.phi_at_t0, rel=1e-6)


def test_axis_f0_single_atom_matches_point_version():
    lam = AxisMeasure([(2.0, 1.0)])
    charge = PointCharge(q=1.0, R=2.0)
    for t in (-0.5, 0.125, 0.8):
        assert log_f0_functional(t, lam) == pytest.approx(
            log_f0_functional(t, charge), rel=1e-13)


def test_axis_f0_derivative_vanishes_at_solution():
    lam = AxisMeasure([(2.0, 1.0), (1.6, 0.5)])
    sol = axis_solve_t(lam, PLOG)
    h = 1e-6
    deriv = (log_f0_functional(sol.t0 + h, lam)
             - log_f0_functional(sol.t0 - h, lam)) / (2.0 * h)
    assert abs(deriv) < 1e-6
    vals = [log_f0_functional(t, lam) for t in (-0.9, -0.99, -0.999)]
    assert vals[0] < vals[1] < vals[2]


def test_axis_weakstar_eps_gap_decay():
    # moment gaps of the axis balayage vs its s=d-2 limit decay as s -> 1+
    d = 3
    lam = AxisMeasure([(2.0, 0.6), (3.0, 0.4)])
    pd2 = Params(d=d, s=1.0)
    t = 0.0
    from rieszcap.cap_exceptional import epsbar
    from rieszcap.cap_riesz import eps_density
    from rieszcap.sphere import integrate_radial

    def bar_moment(k):
        out = 0.0
        for R, m in lam.atoms:
            e = epsbar(t, PointCharge(q=1.0, R=R), pd2)
            interior = integrate_radial(lambda u: e.radial_density(u) * u ** k, t, pd2,
                                        tol=1e-11)
            out += m * (interior + e.boundary_coeff * t ** k)
        return out

    for k in (0, 1):
        gaps = []
        for s in (1.5, 1.2, 1.05):
            ps = Params(d=d, s=s)
            mom = 0.0
            for R, m in lam.atoms:
                mom += m * integrate_radial(
                    lambda u: u ** k * eps_density(u, t, PointCharge(q=1.0, R=R), ps)
                    * (t - u) ** ((d - s) / 2.0),
                    t, ps, singular_exponent=(s - d) / 2.0, tol=2e-9)
            gaps.append(abs(mom - bar_moment(k)))
        assert gaps[0] > gaps[1] > gaps[2]


def test_axis_full_support_branch():
    lam = AxisMeasure([(6.0, 0.05)])
    sol = axis_solve_t(lam, P21)
    assert sol.t0 == 1.0
    assert sol.solved_by == "boundary_t_equals_1"
    assert sol.equilibrium.mass == pytest.approx(1.0, abs=1e-9)
