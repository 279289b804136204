import math

import numpy as np
import pytest
from scipy import integrate

pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")

from rieszcap import cap_exceptional, cap_riesz, sphere
from rieszcap.axis_field import (
    AxisMeasure,
    CapSolution,
    axis_solve_t,
)
from rieszcap.oracle import external_field
from rieszcap.point_field import field_potential_on_axis
from rieszcap.sphere import Params, axis_dist2, kappa, sphere_energy, surface_factor

P21 = Params(d=2, s=1.0)
PLOG = Params(d=2, log=True)


def test_solve_computes_w_s_once(monkeypatch):
    # W_s is the kernel's balayage_constant, computed once per Params: a two-atom
    # solve read it from sphere_energy 16 times when every cap formula called it
    energy, calls = sphere.sphere_energy, []

    def counted(params):
        calls.append(params)
        return energy(params)

    for module in (sphere, cap_riesz):
        monkeypatch.setattr(module, "sphere_energy", counted, raising=False)
    sol = axis_solve_t(AxisMeasure([(1.6, 0.8), (2.5, 0.3)]), Params(d=3, s=1.5))
    assert sol.solved_by == "interior_root" and len(calls) == 1


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
        assert external_field(xi, lam, P21) == pytest.approx(
            0.7 * axis_dist2(xi, 2.0) ** -0.5, rel=1e-14)


def test_axis_q_superposition_exact():
    lam1 = AxisMeasure([(2.0, 0.7)])
    lam2 = AxisMeasure([(3.0, 1.1)])
    both = AxisMeasure([(2.0, 0.7), (3.0, 1.1)])
    xi = np.linspace(-1.0, 1.0, 11)
    np.testing.assert_allclose(external_field(xi, both, P21),
                               external_field(xi, lam1, P21) + external_field(xi, lam2, P21), rtol=0)


def test_axis_q_log_zero_at_unit_distance():
    # atom at R=2 seen from the North Pole: |p - 2p| = 1, so the log field vanishes
    lam = AxisMeasure([(2.0, 1.0)])
    assert external_field(1.0, lam, PLOG) == pytest.approx(0.0, abs=1e-15)


def test_axis_q_inversion_reduction():
    # atom at 1/R with mass m == atom at R with mass m R^s
    s = 1.3
    p = Params(d=3, s=s)
    inner = AxisMeasure([(0.5, 0.8)])
    outer = AxisMeasure([(2.0, 0.8 * 2.0 ** s)])
    for xi in (-0.7, 0.2, 0.95):
        assert external_field(xi, inner, p) == pytest.approx(external_field(xi, outer, p), rel=1e-13)


# ---------------------------------------------------------------------------
# whole-sphere signed equilibrium


def test_axis_sphere_equilibrium_single_atom_matches_point_field():
    lam = AxisMeasure([(3.0, 1.0)])
    eq = cap_riesz.eta_measure(1.0, lam, P21)
    point = cap_riesz.eta_measure(1.0, AxisMeasure([(3.0, 1.0)]), P21)
    for u in (-1.0, -0.2, 0.5, 1.0):
        assert eq.radial_density(u) == pytest.approx(point.radial_density(u), rel=1e-12)


def test_axis_sphere_equilibrium_mass():
    lam = AxisMeasure([(2.0, 0.5), (4.0, 1.5), (1.5, 0.2)])
    p = Params(d=3, s=1.4)
    eq = cap_riesz.eta_measure(1.0, lam, p)
    val, err = integrate.quad(lambda u: eq.radial_density(u) * (1.0 - u * u) ** 0.5, -1.0, 1.0,
                              epsabs=1e-12, epsrel=1e-11)
    assert surface_factor(3) * val == pytest.approx(1.0, abs=1e-9)


WHOLE_SPHERE_FIELDS = {
    "exterior": AxisMeasure([(6.0, 0.05)]),
    "near": AxisMeasure([(1.5, 0.8)]),
    "two_atoms": AxisMeasure([(2.0, 0.3), (5.0, 0.4)]),
    "interior_atom": AxisMeasure([(0.5, 0.2), (4.0, 0.1)]),
}


WHOLE_SPHERE_PARAMS = {"riesz_2_1": Params(d=2, s=1.0), "riesz_3_1.5": Params(d=3, s=1.5),
                       "riesz_4_3.2": Params(d=4, s=3.2), "exceptional_3": Params(d=3, s=1.0),
                       "exceptional_4": Params(d=4, s=2.0), "log": PLOG}


@pytest.mark.parametrize("kernel, name", [
    (kernel, name) for kernel in WHOLE_SPHERE_PARAMS for name in WHOLE_SPHERE_FIELDS])
def test_regime_eta_at_one_is_the_whole_sphere_equilibrium(kernel, name):
    # eta_1 of every regime: no ring, the closed-form density
    # (Phi(1) - sum_i m_i |R_i^2-1|^{d-s} rho_i^{s-2d}) / W of the atoms where
    # they lie, and a pole value with the sign of Delta(1)
    params, lam = WHOLE_SPHERE_PARAMS[kernel], WHOLE_SPHERE_FIELDS[name]
    eta = cap_riesz.eta_measure(1.0, lam, params)
    assert eta.t == 1.0
    assert eta.boundary_coeff == 0.0
    atoms = lam.atoms
    d = params.d
    if params.log:
        s, W, level = 0.0, 1.0, 1.0 + lam.total_mass
    else:
        s = params.s
        W = sphere_energy(params)
        level = W + sum(m * field_potential_on_axis(R, params) for R, m in atoms)
        assert eta.phi == pytest.approx(level, rel=1e-14)
    us = np.linspace(-1.0, 1.0, 41)
    expected = (level - sum(m * abs(R * R - 1.0) ** (d - s) * axis_dist2(us, R) ** (s / 2.0 - d)
                            for R, m in atoms)) / W
    np.testing.assert_allclose(eta.radial_density(us), expected, rtol=1e-13,
                               atol=1e-13 * np.max(np.abs(expected)))
    assert np.sign(eta.radial_density(1.0)) == np.sign(1.0 - cap_riesz.h(1.0, lam, params))


def test_axis_log_margin_proper_cap():
    # single atom (R, m) = (2, 0.5): pole density 1.5 - 0.5*(3/1)^2 = -3 < 0 (W = 1)
    lam = AxisMeasure([(2.0, 0.5)])
    eq = cap_riesz.eta_measure(1.0, lam, PLOG)
    assert eq.radial_density(1.0) == pytest.approx(1.5 - 0.5 * 9.0, rel=1e-13)
    assert cap_riesz.h(1.0, lam, PLOG) > 1.0
    sol = axis_solve_t(lam, PLOG)
    assert sol.t0 < 1.0


# ---------------------------------------------------------------------------
# support solves: single atoms reduce to the point-charge solvers


def test_axis_solve_single_atom_riesz():
    lam = AxisMeasure([(1.3, 1.0)])
    sol_axis = axis_solve_t(lam, P21)
    sol_point = axis_solve_t(AxisMeasure([(1.3, 1.0)]), P21)
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
    sol_point = axis_solve_t(AxisMeasure([(2.0, 1.0)]), p)
    assert sol_axis.t0 == pytest.approx(sol_point.t0, abs=1e-12)
    assert sol_axis.phi_at_t0 == pytest.approx(sol_point.phi_at_t0, rel=1e-12)


def test_axis_solve_single_atom_log():
    lam = AxisMeasure([(2.0, 1.0)])
    sol_axis = axis_solve_t(lam, PLOG)
    sol_point = axis_solve_t(AxisMeasure([(2.0, 1.0)]), PLOG)
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
        eps = sum(m * eps_norm(t_bad, R, p) for R, m in atoms)
        phi_t = W * (1.0 + eps) / nu_norm(t_bad, p)
        us = np.linspace(-1.0 + 1e-9, t_bad - 1e-9, 400)
        dens = np.zeros_like(us)
        # superpose per-atom signed equilibria sharing the common phi value
        # eta' = (phi/W) nu' - sum m_i eps'_i
        from rieszcap.cap_riesz import eps_measure, nu_measure
        dens = (phi_t / W) * nu_measure(t_bad, p).radial_density(us)
        for R, m in atoms:
            dens = dens - m * eps_measure(t_bad, R, p).radial_density(us)
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
        return surface_factor(2) * sum(pieces) + float(external_field(xi, lam, p))

    vals = [weighted(xi) for xi in np.linspace(-0.9, t - 0.05, 8)]
    assert max(vals) - min(vals) < 1e-6 * abs(np.mean(vals))
    assert np.mean(vals) == pytest.approx(sol.phi_at_t0, rel=1e-6)


def test_axis_f0_single_atom_matches_point_version():
    lam = AxisMeasure([(2.0, 1.0)])
    charge = AxisMeasure([(2.0, 1.0)])
    for t in (-0.5, 0.125, 0.8):
        assert cap_riesz.phi(t, lam, PLOG) == pytest.approx(
            cap_riesz.phi(t, charge, PLOG), rel=1e-13)


def test_axis_f0_derivative_vanishes_at_solution():
    lam = AxisMeasure([(2.0, 1.0), (1.6, 0.5)])
    sol = axis_solve_t(lam, PLOG)
    h = 1e-6
    deriv = (cap_riesz.phi(sol.t0 + h, lam, PLOG)
             - cap_riesz.phi(sol.t0 - h, lam, PLOG)) / (2.0 * h)
    assert abs(deriv) < 1e-6
    vals = [cap_riesz.phi(t, lam, PLOG) for t in (-0.9, -0.99, -0.999)]
    assert vals[0] < vals[1] < vals[2]


def test_axis_weakstar_eps_gap_decay():
    # moment gaps of the axis balayage vs its s=d-2 limit decay as s -> 1+
    d = 3
    lam = AxisMeasure([(2.0, 0.6), (3.0, 0.4)])
    pd2 = Params(d=d, s=1.0)
    t = 0.0
    from rieszcap.cap_riesz import eps_measure

    def moment(params, k):
        # int u^k d(sum_i m_i eps_t^i), ring charges included
        out = 0.0
        for R, m in lam.atoms:
            out += m * eps_measure(t, R, params).moment(k)
        return out

    for k in (0, 1):
        gaps = [abs(moment(Params(d=d, s=s), k) - moment(pd2, k)) for s in (1.5, 1.2, 1.05)]
        assert gaps[0] > gaps[1] > gaps[2]


def test_axis_full_support_branch():
    lam = AxisMeasure([(6.0, 0.05)])
    sol = axis_solve_t(lam, P21)
    assert sol.t0 == 1.0
    assert sol.solved_by == "boundary_t_equals_1"
    assert sol.equilibrium.mass == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# the Newton solve: H' in closed form, and strong fields (t0 -> -1)

SLOPE_PARAMS = {f"riesz_{d}": Params(d=d, s=d - 1.2) for d in (2, 3, 4, 5)} | {
    "exceptional_3": Params(d=3, s=1.0), "exceptional_4": Params(d=4, s=2.0), "log": PLOG}
SLOPE_FIELDS = {
    "one_atom": AxisMeasure([(1.5, 1.0)]),
    "three_atoms": AxisMeasure([(0.7, 0.3), (1.3, 0.5), (2.5, 1.0)]),  # one inside the sphere
    "three_exterior_atoms": AxisMeasure([(1.7, 0.3), (1.3, 0.5), (2.5, 1.0)]),
}


@pytest.mark.parametrize("kernel, name", [(kernel, "one_atom") for kernel in SLOPE_PARAMS]
                         + [(kernel, "three_atoms") for kernel in SLOPE_PARAMS]
                         + [("log", "three_exterior_atoms")])
def test_delta_slope_matches_central_differences(kernel, name):
    params, lam, h = SLOPE_PARAMS[kernel], SLOPE_FIELDS[name], 1e-6
    for t in (-0.9, -0.3, 0.3, 0.9, 0.99):
        slope = cap_riesz.h_slope(t, lam, params)
        central = (cap_riesz.h(t + h, lam, params) - cap_riesz.h(t - h, lam, params)) / (2.0 * h)
        assert abs(slope - central) <= 1e-7 * abs(slope), (t, slope, central)


def test_log_point_charge_solve_lands_on_the_closed_form():
    # H is closed form; Newton on log H in log(1+t) takes a few steps, H(1) included
    q, R = 1.0, 2.0
    sol = axis_solve_t(AxisMeasure([(R, q)]), PLOG)
    assert sol.delta_evals <= 12
    assert sol.t0 == pytest.approx((R * R - 2.0 * R * q + 1.0) / (2.0 * R * (1.0 + q)), abs=1e-15)


def test_strong_fields_solve_with_unit_mass():
    # t0 -> -1 as q grows (1 + t0 = 6.8e-13 at (2, .5, 3), q = 1e16): H is a
    # positive integral, so no difference of two numbers of size q e(t) enters
    # the solve or eta_t0's net charge
    for d, s, R in ((2, 0.5, 3.0), (3, 1.5, 1.5), (4, 2.5, 1.2)):
        for q in (1e4, 1e8, 1e12, 1e14, 1e16):
            sol = axis_solve_t(AxisMeasure([(R, q)]), Params(d=d, s=s))
            assert sol.solved_by == "interior_root" and -1.0 < sol.t0 < 0.0
            assert abs(sol.equilibrium.mass - 1.0) <= 1e-10, (d, s, R, q, sol.equilibrium.mass)


def test_charges_within_1e8_of_the_sphere_solve():
    # (R-1)^2 < 1e-16 r^2 rounds eta's pair argument 2R(1-t)/r^2 to 1: its
    # weights must stay finite, and t0 must stay near its value at |R-1| = 1e-7
    for d, s in ((2, 1.0), (3, 1.5)):
        params = Params(d=d, s=s)
        for sign in (1.0, -1.0):
            near = axis_solve_t(AxisMeasure([(1.0 + sign * 1e-7, 1.0)]), params).t0
            for gap in (1e-8, 1e-12):
                sol = axis_solve_t(AxisMeasure([(1.0 + sign * gap, 1.0)]), params)
                assert abs(sol.equilibrium.mass - 1.0) <= 1e-14, (d, s, sign * gap)
                assert abs(sol.t0 - near) <= 1e-6, (d, s, sign * gap, sol.t0, near)


# ---------------------------------------------------------------------------
# charges on either side of the sphere: the Kelvin-invariant per-charge forms


@pytest.mark.parametrize("params", [Params(d=2, s=1.0), Params(d=3, s=1.0), PLOG],
                         ids=["riesz", "exceptional", "log"])
def test_interior_atom_solves_as_its_exterior_fold(params):
    # (R, m) with R < 1 is the field of (1/R, m R^{-s}) on the sphere, and for
    # the log kernel that of (1/R, m) plus the constant -m log R, which F takes
    s = 0.0 if params.log else params.s
    inner = AxisMeasure([(0.6, 0.6), (2.0, 0.3)])
    outer = AxisMeasure([(1.0 / 0.6, 0.6 * 0.6 ** -s), (2.0, 0.3)])
    shift = -0.6 * math.log(0.6) if params.log else 0.0
    sol_in, sol_out = axis_solve_t(inner, params), axis_solve_t(outer, params)
    assert sol_in.solved_by == sol_out.solved_by == "interior_root"
    assert sol_in.t0 == pytest.approx(sol_out.t0, rel=0, abs=1e-13)
    assert sol_in.phi_at_t0 == pytest.approx(sol_out.phi_at_t0 + shift, rel=1e-13)
    us = np.linspace(-1.0 + 1e-9, sol_out.t0 - 1e-3, 50)
    np.testing.assert_allclose(sol_in.equilibrium.radial_density(us),
                               sol_out.equilibrium.radial_density(us), rtol=1e-13, atol=1e-13)
    potential = cap_riesz.weighted_potential
    for xi in (-0.5, sol_out.t0 + 0.05, 0.9):
        assert potential(xi, sol_in.equilibrium) == pytest.approx(
            potential(xi, sol_out.equilibrium) + shift, rel=1e-13)


def u_eps(xi, t, R, params):
    """U^{eps_t}(xi): the weighted potential of eps_t (the charge -1 at R) plus
    |x - R p|^{-s}; both parts are Kelvin-invariant."""
    return (cap_riesz.weighted_potential(xi, cap_riesz.eps_measure(t, R, params))
            + axis_dist2(xi, R) ** (-params.s / 2.0))


@pytest.mark.parametrize("params", [Params(d=2, s=1.0), Params(d=3, s=1.0), PLOG],
                         ids=["riesz", "exceptional", "log"])
def test_solution_field_is_the_one_eta_was_swept_from(params):
    # eta_t0 records its charges, so a solution's field cannot differ from the one
    # its weighted potential reads: CapSolution takes no field of its own
    lam = AxisMeasure([(0.6, 0.6), (2.0, 0.3)])
    sol = axis_solve_t(lam, params)
    assert sol.field == lam and sol.equilibrium.charges == lam.atoms
    with pytest.raises(TypeError):
        CapSolution(equilibrium=sol.equilibrium, solved_by=sol.solved_by, field=lam)


# name: (params, the per-unit-charge formula as a function of R); s = d-2 runs
# epsbar_t, its ring charge and its potential through the Riesz cap formulas,
# and t = 1 the whole sphere's closed forms
P315, P31 = Params(d=3, s=1.5), Params(d=3, s=1.0)
PER_UNIT = {
    "field_potential_on_axis": (P315, lambda R: field_potential_on_axis(R, P315)),
    "eps_density": (P315, lambda R: cap_riesz.eps_measure(0.2, R, P315).radial_density(0.0)),
    "eps_mass": (P315, lambda R: cap_riesz.eps_measure(0.2, R, P315).mass),
    "eps_whole_density": (P315, lambda R: cap_riesz.eps_measure(1.0, R, P315).radial_density(0.0)),
    "eps_norm": (P315, lambda R: cap_riesz.eps_norm(0.2, R, P315)),
    "eps_whole_norm": (P315, lambda R: cap_riesz.eps_norm(1.0, R, P315)),
    "eps_potential": (P315, lambda R: u_eps(0.5, 0.2, R, P315)),
    "epsbar": (P31, lambda R: [cap_riesz.eps_measure(0.2, R, P31).radial_density(0.0),
                               cap_riesz.eps_measure(0.2, R, P31).boundary_coeff]),
    "epsbar_potential": (P31, lambda R: u_eps(0.5, 0.2, R, P31)),
    "weakstar_gap": (P31, lambda R: cap_exceptional.weakstar_gap(0.0, [1.5], R, P31)),
}


@pytest.mark.parametrize("R", [1.0, 0.0, -0.5])
@pytest.mark.parametrize("name", list(PER_UNIT))
def test_per_unit_formulas_reject_heights_off_the_rule(name, R):
    # the one height rule: 0 < R < inf, R != 1
    with pytest.raises(ValueError, match="axis height"):
        PER_UNIT[name][1](R)


@pytest.mark.parametrize("R", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("name", [name for name in PER_UNIT if name != "weakstar_gap"])
def test_per_unit_formulas_are_kelvin_invariant(name, R):
    # |x - R p| = R |x - p/R| on the sphere: a unit charge at R < 1 acts as
    # R^{-s} unit charges at 1/R, in every per-unit-charge formula
    params, f = PER_UNIT[name]
    np.testing.assert_allclose(f(R), R ** -params.s * np.asarray(f(1.0 / R)), rtol=1e-13)


def test_weakstar_gap_takes_an_interior_charge():
    # it compares measures at two values of s, which scale by different powers
    # of R, so only that it takes R < 1
    for rec in PER_UNIT["weakstar_gap"][1](0.5):
        assert np.all(np.isfinite(rec["nu"])) and np.all(np.isfinite(rec["eps"]))
