import math

import numpy as np
import pytest
from scipy import integrate

pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")

from rieszcap.axis_field import axis_solve_t, regime
from rieszcap.cap_exceptional import (
    gamma_s_norm,
    log_cap_energy,
    log_eta_potential,
    log_etabar,
    log_f0_functional,
    weakstar_gap,
)
from rieszcap.cap_riesz import (
    eps_measure,
    eps_norm,
    eps_potential,
    eta_measure,
    nu_measure,
    nu_norm,
    nu_potential,
    phi,
)
from rieszcap.point_field import AxisMeasure
from rieszcap.sphere import CapMeasure, Params, axis_dist2, kappa, sphere_energy, surface_factor

P31 = Params(d=3, s=1.0)
PLOG = Params(d=2, log=True)
C12 = AxisMeasure([(2.0, 1.0)])


def log_cap_measures(t: float, R: float) -> tuple[CapMeasure, CapMeasure]:
    """The pair (nubar_{t,0}, epsbar_{t,0}) of logarithmic balayages onto the
    cap, for a unit charge at R*p; both have total mass exactly 1 (log
    balayage preserves mass)."""
    r2 = axis_dist2(t, R)
    nu = CapMeasure(t=t, regular_part=np.ones_like, boundary_coeff=(1.0 - t) / 2.0, mass=1.0)

    def eps_interior(u):
        return (R * R - 1.0) ** 2 / axis_dist2(u, R) ** 2

    eps = CapMeasure(t=t, regular_part=eps_interior,
                     boundary_coeff=(1.0 - t) / 2.0 * (R + 1.0) ** 2 / r2, mass=1.0)
    return nu, eps


def ring_potential_quadrature(measure, xi, params):
    """U^mu(xi) for a boundary-atom measure, by direct quadrature of kappa."""
    d, t = params.d, measure.t

    def f(u):
        return measure.radial_density(u) * kappa(u, xi, params) \
            * (1.0 - u * u) ** (d / 2.0 - 1.0)

    pieces = []
    if xi < t:
        pieces.append(integrate.quad(f, -1.0, xi, epsabs=1e-11, epsrel=1e-10, limit=400))
        pieces.append(integrate.quad(f, xi, t, epsabs=1e-11, epsrel=1e-10, limit=400))
    else:
        pieces.append(integrate.quad(f, -1.0, t, epsabs=1e-11, epsrel=1e-10, limit=400))
    val = surface_factor(d) * sum(p[0] for p in pieces)
    return val + measure.boundary_coeff * kappa(t, xi, params)


def cap_sigma_mass(density, d, t):
    val, err = integrate.quad(lambda u: density(u) * (1.0 - u * u) ** (d / 2.0 - 1.0),
                              -1.0, t, epsabs=1e-12, epsrel=1e-11, limit=300)
    assert err < 1e-8 * max(1.0, abs(val))
    return surface_factor(d) * val


# ---------------------------------------------------------------------------
# balayage measures at s = d-2


def test_nubar_reduces_to_sigma_at_t1():
    m = nu_measure(1.0, P31).with_mass(P31)
    assert m.boundary_coeff == 0.0
    assert m.mass == pytest.approx(1.0, abs=1e-12)


def test_nubar_norm_closed_form_matches_mass():
    for t in (-0.3, 0.2, 0.7):
        m = nu_measure(t, P31).with_mass(P31)
        assert nu_norm(t, P31) == pytest.approx(m.mass, abs=1e-10)


def test_nubar_norm_quadrature():
    d = 3
    W = sphere_energy(P31)
    for t in (-0.5, 0.0, 0.6):
        direct, err = integrate.quad(
            lambda u: (1.0 + u) ** (d / 2.0 - 2.0) * (1.0 - u) ** (d / 2.0), -1.0, t,
            epsabs=1e-13, epsrel=1e-12)
        assert nu_norm(t, P31) == pytest.approx((d - 2) / 4.0 * W * direct, rel=1e-10)


def test_nubar_potential_off_cap():
    d, t = 3, 0.2
    W = sphere_energy(P31)
    m = nu_measure(t, P31)
    for xi in (0.5, 0.8):
        closed = nu_potential(xi, t, P31)
        assert closed == pytest.approx(W * (1.0 + t) ** (d / 2.0 - 1.0)
                                       * (1.0 + xi) ** (1.0 - d / 2.0), rel=1e-13)
        assert closed < W
        assert ring_potential_quadrature(m, xi, P31) == pytest.approx(closed, abs=1e-6)
    # on the cap the potential is the sphere energy
    for xi in (-0.6, 0.0):
        assert ring_potential_quadrature(m, xi, P31) == pytest.approx(W, abs=1e-6)


def test_epsbar_balayage_potential():
    d, t, R = 3, 0.2, 2.0
    m = eps_measure(t, R, P31)
    for xi in (-0.7, -0.1, 0.15):
        assert ring_potential_quadrature(m, xi, P31) == pytest.approx(
            axis_dist2(xi, R) ** ((2.0 - d) / 2.0), abs=1e-6)
    for xi in (0.4, 0.9):
        closed = eps_potential(xi, t, R, P31)
        assert ring_potential_quadrature(m, xi, P31) == pytest.approx(closed, abs=1e-6)
        assert closed < axis_dist2(xi, R) ** ((2.0 - d) / 2.0)


def test_epsbar_norm_quadrature():
    d, R = 3, 2.0
    for t in (-0.4, 0.3):
        direct, err = integrate.quad(
            lambda u: (1.0 + u) ** (d / 2.0 - 2.0) * (1.0 - u) ** (d / 2.0)
            * axis_dist2(u, R) ** (-d / 2.0), -1.0, t, epsabs=1e-13, epsrel=1e-12)
        expected = (d - 2) / 4.0 * (R + 1.0) ** 2 * direct
        assert eps_norm(t, R, P31) == pytest.approx(expected, rel=1e-10)
        assert eps_measure(t, R, P31).with_mass(P31).mass == pytest.approx(expected, abs=1e-10)


def test_epsbar_t1_consistency():
    m = eps_measure(1.0, 2.0, P31)
    assert m.boundary_coeff == 0.0
    d, s, R = 3, 1.0, 2.0
    W = sphere_energy(P31)
    for u in (-0.5, 0.5):
        full = (R * R - 1.0) ** (d - s) * axis_dist2(u, R) ** (s / 2.0 - d) / W
        assert m.radial_density(u) == pytest.approx(full, rel=1e-13)


# ---------------------------------------------------------------------------
# the optimal cap


def test_solve_t0_exceptional_reference():
    sol = axis_solve_t(C12, P31)
    assert sol.solved_by == "interior_root"
    # scratch solve of the exceptional equilibrium condition (d=3,q=1,R=2)
    assert sol.t0 == pytest.approx(0.34940700375655837, abs=1e-9)
    # boundary charge of etabar vanishes at t0
    ring = regime(P31).eta(sol.t0, C12).with_mass(P31)
    assert abs(ring.boundary_coeff) < 1e-10
    # interior density strictly positive at the cap edge
    edge = sol.equilibrium.radial_density(sol.t0 - 1e-12)
    assert edge > 0.1
    assert sol.equilibrium.mass == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("d, q, R, ref", [
    (3, 1.0, 2.0, 0.34940700375689078708),
    (3, 0.5, 1.2, 0.34864620022216720727),
    (4, 1.0, 1.5, 0.28675241440931083081),
    (5, 2.0, 2.5, 0.66419620126316977056),
    (3, 3.0, 1.1, -0.29924843719945750586),
], ids=["d3-q1-R2", "d3-q0.5-R1.2", "d4-q1-R1.5", "d5-q2-R2.5", "d3-q3-R1.1"])
def test_solve_t0_exceptional_against_30_digit_references(d, q, R, ref):
    # references: mpmath at 30 digits (bench/t0_reference.py); the bound is
    # twice the xtol of the Brent solve
    sol = axis_solve_t(AxisMeasure([(R, q)]), Params(d=d, s=float(d - 2)))
    assert sol.solved_by == "interior_root"
    assert abs(sol.t0 - ref) <= 2e-14


def test_etabar_ring_charge_sign_structure():
    sol = axis_solve_t(C12, P31)
    below = regime(P31).eta(sol.t0 - 0.2, C12).with_mass(P31)
    above = regime(P31).eta(sol.t0 + 0.2, C12).with_mass(P31)
    assert below.boundary_coeff > 0.0
    assert above.boundary_coeff < 0.0


def test_etabar_mass_is_one():
    for t in (-0.2, 0.349407, 0.8):
        m = regime(P31).eta(t, C12).with_mass(P31)
        assert m.mass == pytest.approx(1.0, abs=1e-9)


def test_phibar_matches_weighted_potential_on_cap():
    # U^{etabar} + Q is constant = Phibar on the cap
    t = 0.1
    m = regime(P31).eta(t, C12).with_mass(P31)
    pv = phi(t, C12, P31)
    q, R = 1.0, 2.0
    for xi in (-0.8, -0.3, 0.05):
        val = (ring_potential_quadrature(m, xi, P31)
               + q * axis_dist2(xi, R) ** ((2.0 - 3.0) / 2.0))
        assert val == pytest.approx(pv, abs=2e-6)


def test_exceptional_full_support_branch():
    far = AxisMeasure([(4.0, 0.05)])
    sol = axis_solve_t(far, P31)
    assert sol.t0 == 1.0
    assert sol.solved_by == "boundary_t_equals_1"
    assert sol.equilibrium.mass == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# weak* convergence


def test_gamma_s_norm_bounds():
    for s in (1.5, 1.2, 1.05, 1.01):
        v = gamma_s_norm(0.0, s, 3)
        assert 0.0 < v <= 2.0
    assert gamma_s_norm(0.0, 1.0 + 1e-9, 3) == pytest.approx(1.0, abs=1e-6)


def test_weakstar_moment_gaps_decay():
    recs = weakstar_gap(0.0, [1.5, 1.2, 1.05, 1.01], 2.0, P31)
    for k in range(4):
        nu_gaps = [r["nu"][k] for r in recs]
        eps_gaps = [r["eps"][k] for r in recs]
        assert all(a > b for a, b in zip(nu_gaps, nu_gaps[1:])), nu_gaps
        assert all(a > b for a, b in zip(eps_gaps, eps_gaps[1:])), eps_gaps
    # f = 1 gaps are norm gaps
    ps = Params(d=3, s=1.5)
    assert recs[0]["nu"][0] == pytest.approx(abs(nu_norm(0.0, ps) - nu_norm(0.0, P31)),
                                             abs=1e-8)


# ---------------------------------------------------------------------------
# logarithmic case


def test_log_cap_measures_unit_mass():
    nu, eps = log_cap_measures(0.3, 2.0)
    assert nu.mass == 1.0 and eps.mass == 1.0
    # numeric verification of the stated masses
    for m in (nu, eps):
        interior = cap_sigma_mass(lambda u: float(m.radial_density(u)), 2, m.t)
        assert interior + m.boundary_coeff == pytest.approx(1.0, abs=1e-10)


def test_log_cap_energy_value():
    t = 0.3
    expected = (1.0 + t) / 4.0 - math.log(2.0) / 2.0 - 0.5 * math.log(1.0 + t)
    assert log_cap_energy(t) == pytest.approx(expected, rel=1e-14)


def test_log_nubar_potential_off_cap():
    # U_0^{nubar_{t,0}} off the cap = W_0(Sigma_t) + log((1+t)/(1+xi))/2
    p = Params(d=2, log=True)
    t = 0.3
    nu, _ = log_cap_measures(t, 2.0)
    for xi in (0.5, 0.9):
        got = ring_potential_quadrature(nu, xi, p)
        assert got == pytest.approx(log_cap_energy(t)
                                    + 0.5 * math.log((1.0 + t) / (1.0 + xi)), abs=1e-8)
    for xi in (-0.5, 0.1):
        assert ring_potential_quadrature(nu, xi, p) == pytest.approx(log_cap_energy(t),
                                                                     abs=1e-8)


def test_log_solve_t0_closed_form():
    sol = axis_solve_t(C12, PLOG)
    assert sol.t0 == pytest.approx(1.0 / 8.0, abs=1e-15)
    edge = sol.equilibrium.radial_density(sol.t0)
    assert edge == pytest.approx(14.0 / 9.0, abs=1e-13)
    # remark formula for the edge value
    q, R = 1.0, 2.0
    assert edge == pytest.approx((1.0 + q) / q * (4.0 * q * R - (R - 1.0) ** 2)
                                 / (R + 1.0) ** 2, abs=1e-13)
    assert sol.equilibrium.mass == pytest.approx(1.0, abs=1e-10)


def test_log_solve_t0_full_support_condition():
    # (R+1)^2 >= 4R(1+q) forces t0 = 1
    weak = AxisMeasure([(5.0, 0.05)])
    assert (5.0 + 1.0) ** 2 >= 4.0 * 5.0 * 1.05
    sol = axis_solve_t(weak, PLOG)
    assert sol.t0 == 1.0
    assert sol.solved_by == "boundary_t_equals_1"


def test_log_t0_matches_bisection_of_equilibrium_relation():
    # 1 + q = q (R+1)^2 / (R^2 - 2Rt + 1) solved independently
    from scipy import optimize
    for (q, R) in [(1.0, 2.0), (0.7, 1.6), (2.5, 3.0)]:
        charge = AxisMeasure([(R, q)])
        sol = axis_solve_t(charge, PLOG)
        if sol.t0 < 1.0:
            root = optimize.bisect(
                lambda t: 1.0 + q - q * (R + 1.0) ** 2 / axis_dist2(t, R),
                -1.0 + 1e-12, 1.0, xtol=1e-14)
            assert sol.t0 == pytest.approx(root, abs=1e-12)


def test_log_f0_functional_shape():
    charge = C12
    sol = axis_solve_t(charge, PLOG)
    h = 1e-6
    deriv = (log_f0_functional(sol.t0 + h, charge, PLOG)
             - log_f0_functional(sol.t0 - h, charge, PLOG)) / (2.0 * h)
    assert abs(deriv) < 1e-6
    assert log_f0_functional(sol.t0 - 0.1, charge, PLOG) > sol.phi_at_t0
    assert log_f0_functional(sol.t0 + 0.1, charge, PLOG) > sol.phi_at_t0
    vals = [log_f0_functional(t, charge, PLOG) for t in (-0.9, -0.99, -0.999)]
    assert vals[0] < vals[1] < vals[2]


def test_log_f0_against_quadrature():
    # F_0 = W_0(Sigma_t) + int Q d mu_cap with mu_cap = nubar_{t,0}
    charge = C12
    (R, q), = charge.atoms
    for t in (-0.4, 0.125, 0.6):
        interior = cap_sigma_mass(lambda u: -0.5 * q * math.log(axis_dist2(u, R)), 2, t)
        ring = (1.0 - t) / 2.0 * (-0.5 * q * math.log(axis_dist2(t, R)))
        expected = log_cap_energy(t) + interior + ring
        assert log_f0_functional(t, charge, PLOG) == pytest.approx(expected, abs=1e-8)


def test_log_weighted_potential_off_cap():
    charge = C12
    (R, q), = charge.atoms
    p = Params(d=2, log=True)
    t = 0.125
    m = log_etabar(t, charge, p)
    for xi in (0.5, 0.9):
        direct = (ring_potential_quadrature(m, xi, p)
                  - 0.5 * q * math.log(axis_dist2(xi, R)))
        assert direct == pytest.approx(log_eta_potential(xi, m, charge, p), abs=1e-6)
    for xi in (-0.5, 0.0):
        direct = (ring_potential_quadrature(m, xi, p)
                  - 0.5 * q * math.log(axis_dist2(xi, R)))
        assert direct == pytest.approx(log_f0_functional(t, charge, p), abs=1e-6)


def test_log_etabar_ring_sign_structure():
    charge = C12
    t0 = axis_solve_t(charge, PLOG).t0
    assert log_etabar(t0 - 0.2, charge, PLOG).boundary_coeff > 0.0
    assert abs(log_etabar(t0, charge, PLOG).boundary_coeff) < 1e-14
    assert log_etabar(t0 + 0.2, charge, PLOG).boundary_coeff < 0.0


def test_gating():
    with pytest.raises(ValueError):
        nu_measure(0.0, Params(d=4, s=1.0))
    with pytest.raises(ValueError):
        weakstar_gap(0.0, [1.5], 2.0, Params(d=3, s=1.5))
    with pytest.raises(ValueError):
        eta_measure(0.0, C12, Params(d=4, s=1.0))
    with pytest.raises(ValueError):
        axis_solve_t(AxisMeasure([(0.5, 1.0)]), PLOG)
