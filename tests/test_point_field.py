import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, optimize

from rieszcap import cap_riesz, point_field
from rieszcap.axis_field import axis_solve_t, newtonian_distance
from rieszcap.oracle import external_field
from rieszcap.point_field import (
    AxisMeasure,
    field_potential_on_axis,
    gonchar_polynomial,
)
from rieszcap.sphere import Params, axis_dist2, sphere_energy, surface_factor

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
PLOG = Params(d=2, log=True)


def sigma_integral(f, d, lo=-1.0, hi=1.0):
    """Height integral against the unit surface measure."""
    val, err = integrate.quad(lambda u: f(u) * (1.0 - u * u) ** (d / 2.0 - 1.0), lo, hi,
                              epsabs=1e-13, epsrel=1e-12, limit=300)
    assert err < 1e-9 * max(1.0, abs(val))
    return surface_factor(d) * val


# ---------------------------------------------------------------------------
# charge bookkeeping


def test_point_charge_validation():
    with pytest.raises(ValueError):
        AxisMeasure([(2.0, 0.0)])
    with pytest.raises(ValueError):
        AxisMeasure([(1.0, 1.0)])
    with pytest.raises(ValueError):
        AxisMeasure([(-0.5, 1.0)])


def test_inversion_normalization_is_exact_at_field_level():
    # q|x - (1/R')p|^{-s} == q R'^s |x - R'p|^{-s} on the sphere: the field of
    # charges inside the sphere, summed where they lie, is that of their images
    params = Params(d=3, s=1.7)
    inner = AxisMeasure([(0.4, 0.8), (0.9, 0.3), (3.0, 0.5)])
    outer = AxisMeasure([(2.5, 0.8 * 2.5 ** 1.7), (1.0 / 0.9, 0.3 * 0.9 ** -1.7), (3.0, 0.5)])
    us = np.array([-0.9, 0.0, 0.7, 1.0])
    np.testing.assert_allclose(external_field(us, inner, params),
                               external_field(us, outer, params), rtol=1e-13)


def test_inversion_shifts_the_log_field_by_a_constant():
    # -log|x - R p| = -log|x - p/R| - log R on the sphere: the images keep their
    # masses, and the field moves by -sum_i m_i log R_i over the interior atoms
    inner = AxisMeasure([(0.4, 0.8), (0.9, 0.3), (3.0, 0.5)])
    outer = AxisMeasure([(2.5, 0.8), (1.0 / 0.9, 0.3), (3.0, 0.5)])
    us = np.array([-0.9, 0.0, 0.7, 1.0])
    shift = -0.8 * math.log(0.4) - 0.3 * math.log(0.9)
    np.testing.assert_allclose(external_field(us, inner, PLOG),
                               external_field(us, outer, PLOG) + shift, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# field potential on the axis


def test_field_potential_newtonian_mean_value():
    # d=2, s=1: harmonic mean-value property gives exactly 1/R
    for R in (1.2, 2.0, 5.0):
        got = field_potential_on_axis(R, Params(d=2, s=1.0))
        assert got == pytest.approx(1.0 / R, rel=1e-12)


def test_field_potential_limits_to_sphere_energy():
    # convergence rate is O((R-1)^{d-s}), so check the trend plus the limit
    for (d, s) in [(2, 1.3), (3, 1.6), (4, 2.1)]:
        params = Params(d=d, s=s)
        W = sphere_energy(params)
        diffs = [abs(field_potential_on_axis(1.0 + eps, params) - W)
                 for eps in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert diffs[0] > diffs[1] > diffs[2] > diffs[3]
        assert diffs[3] < 1e-5


def test_field_potential_against_quadrature():
    d, s, R = 3, 1.2, 1.7
    params = Params(d=d, s=s)
    expected = sigma_integral(lambda u: axis_dist2(u, R) ** (-s / 2.0), d)
    got = field_potential_on_axis(R, params)
    assert got == pytest.approx(expected, rel=1e-11)


@pytest.mark.parametrize("d", range(2, 7))
def test_field_potential_against_30_digit_mpmath(d):
    # (d-s)/2 near an integer makes the two terms of the 1-z transformation
    # cancel; the quadratic transformation's series avoids them for 1/R^2 <= 0.9,
    # and for R^2 <= 0.9 inside the sphere, where the reference form holds as it is
    worst = {True: 0.0, False: 0.0}  # keyed by min(R^2, 1/R^2) <= 0.9
    with mp.workdps(30):
        for f in (0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 0.98):
            s = d - 2 + 2 * f
            for R in (1.0001, 1.01, 1.08, 1.1, 1.12, 1.18, 1.5, 2.0, 3.0, 10.0,
                      0.1, 0.5, 0.9, 0.94, 0.96, 0.99, 0.9999):
                sm, Rm = mp.mpf(s), mp.mpf(R)
                ref = (Rm + 1) ** (-sm) * mp.hyp2f1(sm / 2, mp.mpf(d) / 2, d, 4 * Rm / (Rm + 1) ** 2)
                err = float(abs(field_potential_on_axis(R, Params(d=d, s=s)) / ref - 1))
                far = min(R * R, 1.0 / (R * R)) <= 0.9
                worst[far] = max(worst[far], err)
    assert worst[True] <= 3e-15
    assert worst[False] <= 1e-14


def test_field_potential_evaluated_once_per_atom(monkeypatch):
    calls = []
    for name in ("_series_2f1", "hyp2f1_1mz"):
        fn = getattr(point_field, name)
        monkeypatch.setattr(point_field, name, lambda *a, fn=fn: calls.append(a) or fn(*a))
    field_potential_on_axis.cache_clear()
    sol = axis_solve_t(AxisMeasure([(6.0, 0.05), (8.0, 0.05)]), Params(d=2, s=1.0))
    assert sol.solved_by == "boundary_t_equals_1"
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# signed density on the sphere


def test_density_uniform_without_charge():
    params = Params(d=3, s=1.5)
    eq = cap_riesz.eta_measure(1.0, AxisMeasure([(2.0, 1e-14)]), params)
    for u in (-1.0, 0.0, 1.0):
        assert eq.radial_density(u) == pytest.approx(1.0, abs=1e-12)


def test_density_minimum_at_north_pole():
    params = Params(d=2, s=1.0)
    charge = AxisMeasure([(1.5, 1.0)])
    us = np.linspace(-1.0, 1.0, 201)
    dens = cap_riesz.eta_measure(1.0, charge, params).radial_density(us)
    assert np.argmin(dens) == len(us) - 1


def test_density_total_mass_one():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 8:
        d = int(rng.integers(2, 5))
        s = float(rng.uniform(0.3, d - 0.2))
        q = float(rng.uniform(0.2, 3.0))
        R = float(rng.uniform(1.1, 4.0))
        charge = AxisMeasure([(R, q)])
        if s < d - 2:
            # s < d-2 lies outside every solvable regime
            with pytest.raises(ValueError, match="no cap solver"):
                Params(d=d, s=s)
            continue
        params = Params(d=d, s=s)
        mass = sigma_integral(cap_riesz.eta_measure(1.0, charge, params).radial_density, d)
        assert mass == pytest.approx(1.0, abs=1e-9)
        checked += 1


def test_density_d2_value_through_mass_identity():
    # spec reference point: d=2, s=1, q=1, R=3; check the u=-1 value by
    # removing it from the mass identity computed by quadrature
    params = Params(d=2, s=1.0)
    charge = AxisMeasure([(3.0, 1.0)])
    density = cap_riesz.eta_measure(1.0, charge, params).radial_density
    val = density(-1.0)
    # direct formula assembled from independently tested pieces
    W = sphere_energy(params)
    U = field_potential_on_axis(3.0, params)
    expected = 1.0 + U / W - (9.0 - 1.0) ** 1.0 / (W * (16.0) ** (1.5))
    assert val == pytest.approx(expected, rel=1e-12)
    assert sigma_integral(density, 2) == pytest.approx(1.0, abs=1e-10)


def test_balayage_mass_identity():
    # int (R^2-1)^{d-s} |x-a|^{s-2d} dsigma = U_s^sigma(a)
    d, s, q, R = 3, 2.2, 1.7, 1.9
    params = Params(d=d, s=s)
    lhs = sigma_integral(
        lambda u: (R * R - 1.0) ** (d - s) * axis_dist2(u, R) ** (s / 2.0 - d), d)
    assert lhs == pytest.approx(field_potential_on_axis(R, params), rel=1e-10)


# ---------------------------------------------------------------------------
# support margin


def margin_at_one(params, field):
    # Delta(1) = W_s (1 - H(1)); for log, 1 - H(1), which has the log Delta(1)'s sign
    return params.balayage_constant * (1.0 - cap_riesz.h(1.0, field, params))


def test_margin_zero_iff_density_zero_at_pole():
    # Delta(1) = W * (whole-sphere density at the pole) for d-2 < s < d and
    # s = d-2, one atom or two; the log Delta(1) has the pole density's sign
    fields = [AxisMeasure([(R, 1.0)]) for R in (1.3, 2.0, 3.5)]
    fields += [AxisMeasure([(1.4, 0.6), (3.0, 0.9)]), AxisMeasure([(5.0, 0.05)])]
    for params in (Params(d=3, s=1.4), Params(d=3, s=1.0), Params(d=4, s=2.0)):
        W = sphere_energy(params)
        for field in fields:
            margin = margin_at_one(params, field)
            pole = cap_riesz.eta_measure(1.0, field, params).radial_density(1.0)
            assert margin == pytest.approx(W * pole, rel=1e-10, abs=1e-12)
    plog = Params(d=2, log=True)
    signs = set()
    for field in fields:
        margin = margin_at_one(plog, field)
        assert np.sign(margin) == np.sign(cap_riesz.eta_measure(1.0, field, plog).radial_density(1.0))
        signs.add(np.sign(margin))
    assert signs == {-1.0, 1.0}


def test_margin_sign_flip_at_golden_ratio():
    params = Params(d=2, s=1.0)
    rho = GOLDEN
    margin = lambda R: margin_at_one(params, AxisMeasure([(R, 1.0)]))
    at = margin(1.0 + rho)
    below = margin(1.0 + rho - 1e-6)
    above = margin(1.0 + rho + 1e-6)
    assert abs(at) < 1e-12
    assert below < 0.0 < above


def test_margin_series_form():
    # Pochhammer series of the criterion right-hand side
    d, s, R = 3, 2.5, 2.0
    params = Params(d=d, s=s)
    z = 4.0 * R / (R + 1.0) ** 2
    series = 0.0
    ratio = 1.0   # (s/2)_k / (d)_k
    coef = 1.0    # (d/2)_k z^k / k!
    for k in range(2000):
        series += (1.0 - ratio) * coef
        ratio *= (s / 2.0 + k) / (d + k)
        coef *= (d / 2.0 + k) * z / (k + 1.0)
    series *= (R + 1.0) ** (-s)
    q = 1.3
    closed = (R + 1.0) ** (d - s) / (R - 1.0) ** d - field_potential_on_axis(R, params)
    assert closed == pytest.approx(series, rel=1e-10)
    assert margin_at_one(params, AxisMeasure([(R, q)])) / q == pytest.approx(
        sphere_energy(params) / q - series, rel=1e-10)


def test_signed_equilibrium_bundle():
    params = Params(d=2, s=1.0)
    charge = AxisMeasure([(3.0, 1.0)])
    eq = cap_riesz.eta_measure(1.0, charge, params)
    assert eq.phi == pytest.approx(sphere_energy(params) + 1.0 / 3.0, rel=1e-12)
    assert margin_at_one(params, charge) > 0.0
    atom = AxisMeasure([(3.0, 1.0)])
    assert eq.radial_density(0.0) == pytest.approx(
        cap_riesz.eta_measure(1.0, atom, params).radial_density(0.0))


def test_weighted_potential_constant_on_sphere():
    # quadrature of U^eta + Q over heights varies by < 1e-6 relative
    d, s, q, R = 2, 1.0, 1.0, 3.0
    params = Params(d=d, s=s)
    charge = AxisMeasure([(R, q)])
    from rieszcap.sphere import kappa
    density = cap_riesz.eta_measure(1.0, charge, params).radial_density

    def weighted(xi):
        val, err = integrate.quad(
            lambda u: density(u) * kappa(u, xi, params)
            * (1.0 - u * u) ** (d / 2.0 - 1.0),
            -1.0, 1.0, points=[xi], epsabs=1e-11, epsrel=1e-10, limit=300)
        return surface_factor(d) * val + q * axis_dist2(xi, R) ** (-s / 2.0)

    vals = [weighted(xi) for xi in np.linspace(-0.95, 0.95, 20)]
    spread = (max(vals) - min(vals)) / abs(np.mean(vals))
    assert spread < 1e-6
    eq = cap_riesz.eta_measure(1.0, charge, params)
    assert np.mean(vals) == pytest.approx(eq.phi, rel=1e-7)


# ---------------------------------------------------------------------------
# Gonchar distance polynomial


def test_gonchar_polynomial_golden_ratio_root():
    assert gonchar_polynomial(2, GOLDEN) == pytest.approx(0.0, abs=1e-12)


def test_gonchar_polynomial_negative_at_one():
    for d in range(2, 13):
        assert gonchar_polynomial(d, 1.0) < 0.0
        assert gonchar_polynomial(d, 2.0) >= 0.0


def test_gonchar_polynomial_expansion_consistency():
    # expanded form: sum_m C(d-1,m) rho^{m+d} - sum_m [C(d,m)+C(d-1,m)] rho^m
    rng = np.random.default_rng(31)
    for d in (2, 3, 5, 8):
        for rho in rng.uniform(0.5, 2.5, size=5):
            expanded = sum(math.comb(d - 1, m) * rho ** (m + d) for m in range(d)) \
                - sum((math.comb(d, m) + math.comb(d - 1, m)) * rho ** m for m in range(d))
            assert gonchar_polynomial(d, float(rho)) == pytest.approx(expanded, rel=1e-11)


def test_gonchar_polynomial_descartes_single_sign_change():
    for d in range(2, 13):
        coeffs = [math.comb(d - 1, m) for m in range(d)]          # rho^{m+d}
        coeffs = [-(math.comb(d, m) + math.comb(d - 1, m)) for m in range(d)] + coeffs
        signs = [math.copysign(1, c) for c in coeffs if c != 0]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert changes == 1


def test_newton_distance_golden_ratio():
    assert newtonian_distance(2) == pytest.approx(GOLDEN, abs=1e-12)


def test_newton_distance_d3_residual():
    r = newtonian_distance(3)
    assert 1.0 < r <= 2.0
    assert abs(gonchar_polynomial(3, r)) < 1e-10
    # bisection oracle on P, which did not produce r
    lo, hi = 1.0, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if gonchar_polynomial(3, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    assert r == pytest.approx(0.5 * (lo + hi), abs=1e-13)


def test_newton_distance_log3_asymptotics():
    vals = [d * (newtonian_distance(d) - 1.0) for d in (50, 100, 200)]
    gaps = [abs(v - math.log(3.0)) for v in vals]
    assert gaps[0] > gaps[1] > gaps[2]
    assert all(v > math.log(3.0) for v in vals)  # monotone approach from above


def test_margin_root_agrees_with_newton_distance():
    # the support-margin zero in R sits exactly at R = 1 + rho_+ for s = d-1, q = 1
    for d in (2, 3):
        params = Params(d=d, s=float(d - 1))
        root_R = optimize.brentq(
            lambda R: margin_at_one(params, AxisMeasure([(R, 1.0)])),
            1.0 + 1e-9, 6.0, xtol=1e-13)
        assert root_R == pytest.approx(1.0 + newtonian_distance(d), abs=1e-10)


@pytest.mark.parametrize("d", range(2, 9))
def test_solver_branch_flips_at_newton_distance(d):
    # rho_+ is the solver's own whole-sphere test: just beyond 1 + rho_+ the
    # support is the sphere, just inside it the cap edge sits ~1e-9 below 1
    params, R = Params(d=d, s=d - 1.0), 1.0 + newtonian_distance(d)
    far = axis_solve_t(AxisMeasure([(R * (1.0 + 1e-12), 1.0)]), params)
    assert far.solved_by == "boundary_t_equals_1" and far.t0 == 1.0
    near = axis_solve_t(AxisMeasure([(R * (1.0 - 1e-9), 1.0)]), params)
    assert near.solved_by == "interior_root"
    assert 0.0 < 1.0 - near.t0 <= 2e-9
    assert abs(near.equilibrium.mass - 1.0) <= 1e-14
