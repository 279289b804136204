import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

pytestmark = pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")

from rieszcap.axis_field import axis_solve_t
from rieszcap.cap_riesz import (
    eps_measure,
    eps_norm,
    eta_measure,
    h,
    h_slope,
    nu_measure,
    nu_norm,
    phi,
    weighted_potential,
)
from rieszcap.point_field import AxisMeasure, field_potential_on_axis
from rieszcap.specfun import hyp2f1_regularized
from rieszcap.sphere import CapMeasure, Nodes, Params, axis_dist2, kappa, \
    sphere_energy, surface_factor

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

P21 = Params(d=2, s=1.0)
C13 = AxisMeasure([(1.3, 1.0)])


def delta(t, field, params):
    # Delta(t) = Phi_s(t) - sum_i m_i e_i(t), from H as the package forms it
    return sphere_energy(params) * (1.0 - h(t, field, params)) / nu_norm(t, params)


def u_nu(xi, t, params):
    """U^{nu_t}(xi): the weighted potential of nu_t, which was swept from no charge."""
    return weighted_potential(xi, nu_measure(t, params))


def u_eps(xi, t, R, params):
    """U^{eps_t}(xi): the weighted potential of eps_t (the charge -1 at R) plus |x - R p|^{-s}."""
    return (weighted_potential(xi, eps_measure(t, R, params))
            + axis_dist2(xi, R) ** (-params.s / 2.0))


def cap_sigma_integral(f, d, t, edge_exponent=0.0):
    """Quadrature of f against sigma_d over the cap, QAGS on the raw form."""
    val, err = integrate.quad(
        lambda u: f(u) * (1.0 - u * u) ** (d / 2.0 - 1.0), -1.0, t,
        epsabs=1e-12, epsrel=1e-11, limit=400)
    assert err < 1e-7 * max(1.0, abs(val))
    return surface_factor(d) * val


def cap_potential(density, t, xi, params, boundary_coeff=0.0):
    """U^mu(xi) by direct splitting quadrature; independent of closed forms."""
    d = params.d

    def f(u):
        return density(u) * kappa(u, xi, params) * (1.0 - u * u) ** (d / 2.0 - 1.0)

    if xi < t:
        v1, e1 = integrate.quad(f, -1.0, xi, epsabs=1e-11, epsrel=1e-10, limit=400)
        v2, e2 = integrate.quad(f, xi, t, epsabs=1e-11, epsrel=1e-10, limit=400)
        val = v1 + v2
    else:
        val, e1 = integrate.quad(f, -1.0, t, epsabs=1e-11, epsrel=1e-10, limit=400)
    out = surface_factor(d) * val
    if boundary_coeff:
        out += boundary_coeff * kappa(t, xi, params)
    return out


# ---------------------------------------------------------------------------
# densities


def test_nu_density_edge_scaling():
    # nu'(u) (t-u)^{(d-s)/2} approaches a finite positive limit at the edge
    d, s, t = 3, 1.8, 0.4
    p = Params(d=d, s=s)
    scaled = []
    for k in (3, 5, 7, 9):
        u = t - 10.0 ** (-k)
        scaled.append(nu_measure(t, p).radial_density(u) * (t - u) ** ((d - s) / 2.0))
    limit = (math.exp(math.lgamma(d / 2.0) - math.lgamma(d - s / 2.0))
             * ((1.0 - t)) ** (d / 2.0) / (1.0 - t) ** (d / 2.0)
             * (1.0 - t) ** ((d - s) / 2.0)
             / math.gamma(1.0 - (d - s) / 2.0))
    diffs = [abs(v - limit) for v in scaled]
    assert diffs[0] > diffs[-1]
    assert scaled[-1] == pytest.approx(limit, rel=1e-5)
    assert all(v > 0 for v in scaled)


def test_nu_density_j_representation():
    # independent route: nu' = 1 + J_t with J_t given by an Euler integral
    d, s, t, u = 2, 1.0, 0.0, -0.5
    p = Params(d=d, s=s)

    def j_integral():
        x = (1.0 - t) / (1.0 - u)
        val, err = integrate.quad(
            lambda v: v ** (d / 2.0 - 1.0) * (1.0 - v) ** ((d - s) / 2.0)
            * (1.0 - x * v) ** (-1.0), 0.0, 1.0, epsabs=1e-13, epsrel=1e-12)
        assert err < 1e-10
        pref = 1.0 / (math.gamma((d - s) / 2.0) * math.gamma(1.0 - (d - s) / 2.0))
        return (pref * x ** (d / 2.0) * ((t - u) / (1.0 - t)) ** ((s - d) / 2.0) * val)

    assert nu_measure(t, p).radial_density(u) == pytest.approx(1.0 + j_integral(), rel=1e-10)


def test_nu_density_rejects_outside():
    # a singular edge needs u < t; a bounded one admits u = t, never u > t
    with pytest.raises(ValueError):
        nu_measure(0.5, P21).radial_density(0.5)
    with pytest.raises(ValueError):
        nu_measure(0.5, P21).radial_density(np.array([0.0, 0.6]))
    ring = nu_measure(0.5, Params(d=3, s=1.0))
    assert ring.radial_density(0.5) == pytest.approx(1.0, rel=1e-15)
    with pytest.raises(ValueError):
        ring.radial_density(0.6)


def test_eps_density_argument_bound():
    # the 2F1 argument carries the contraction factor (R-1)^2/r^2 < 1
    d, s, t, R = 3, 1.5, 0.2, 2.0
    r2 = axis_dist2(t, R)
    assert (R - 1.0) ** 2 < r2


def test_eps_density_balayage_property():
    # U^{eps_t} equals the point potential |z-a|^{-s} on the cap
    d, s, R, t = 3, 1.5, 2.0, 0.2
    p = Params(d=d, s=s)
    dens = eps_measure(t, R, p).radial_density
    for xi in (-0.8, -0.4, 0.0, 0.1, 0.19):
        got = cap_potential(dens, t, xi, p)
        assert got == pytest.approx(axis_dist2(xi, R) ** (-s / 2.0), abs=2e-6)


def test_eps_density_t1_matches_full_sphere_balayage():
    d, s, R = 3, 1.5, 2.0
    p = Params(d=d, s=s)
    W = sphere_energy(p)
    for u in (-0.9, 0.0, 0.7):
        full = (R * R - 1.0) ** (d - s) * axis_dist2(u, R) ** (s / 2.0 - d) / W
        assert eps_measure(1.0, R, p).radial_density(u) == pytest.approx(full, rel=1e-12)
        # interior t approaches the same values from below
        assert eps_measure(1.0 - 1e-4, R, p).radial_density(u) == pytest.approx(full, rel=2e-2)
    assert nu_measure(1.0, p).radial_density(0.3) == 1.0


def test_nu_balayage_property():
    # U^{nu_t} = W_s on the cap, smaller above it
    d, s, t = 2, 1.2, 0.3
    p = Params(d=d, s=s)
    W = sphere_energy(p)
    dens = nu_measure(t, p).radial_density
    for xi in (-0.7, -0.2, 0.15, 0.29):
        assert cap_potential(dens, t, xi, p) == pytest.approx(W, abs=2e-6)
    for xi in (0.5, 0.9):
        assert cap_potential(dens, t, xi, p) < W


# ---------------------------------------------------------------------------
# norms


def test_norms_phi_delta_gate_includes_s_equal_d_minus_2():
    # s < d-2 is refused where it is built, before nu_norm, eps_norm, phi or h runs
    with pytest.raises(ValueError, match="no cap solver"):
        Params(d=3, s=0.5)
    ring = Params(d=3, s=1.0)
    assert 0.0 < nu_norm(0.2, ring) < 1.0
    assert math.isfinite(h(0.2, C13, ring))
    with pytest.raises(ValueError):
        phi(-1.0, C13, ring)
    # eta_t at s = d-2: the whole sphere's density plus a ring charge on the edge
    eta = eta_measure(0.2, C13, ring)
    assert isinstance(eta, CapMeasure) and eta.singular_exponent == 0.0
    assert eta.boundary_coeff != 0.0
    # (Phi - (R^2-1)^2 / rho^{d+2}) / W at u = 0, where rho^2 = R^2 + 1
    assert eta.radial_density(0.0) == pytest.approx(
        (eta.phi - 0.69 ** 2 / 2.69 ** 2.5) / sphere_energy(ring), rel=1e-14)
    assert eta_measure(1.0, C13, ring).boundary_coeff == 0.0
    assert math.isfinite(weighted_potential(0.5, eta))


CAP_FORMULAS = {
    "phi": lambda p: phi(0.2, C13, p),
    "eps_norm": lambda p: eps_norm(0.2, 1.3, p),
    # the potentials of nu_t, eps_t and eta_t (plus Q), each by weighted_potential
    "nu_potential": lambda p: u_nu(0.5, 0.2, p),
    "eps_potential": lambda p: u_eps(0.5, 0.2, 1.3, p),
    # eta's own kernel, swapped for the one under test
    "eta_potential": lambda p: weighted_potential(
        0.5, replace(eta_measure(0.2, C13, P21), params=p)),
}
LOG_TAKES = {"phi", "eta_potential"}  # F_0 and eta's potential have log forms


@pytest.mark.parametrize("name, kernel", [
    pytest.param(name, kernel, id=f"{name}-{kid}") for name in CAP_FORMULAS
    for kid, kernel in (("log", dict(d=2, log=True)), ("d4-s1", dict(d=4, s=1.0)))
    if not (kid == "log" and name in LOG_TAKES)])
def test_riesz_formulas_refuse_other_kernels(name, kernel):
    # the log kernel shares the s = d-2 cap measures, its functional and eta's
    # potential, not ||eps_t|| or the potentials of nu_t and eps_t, whose log
    # measures carry no phi; s < d-2 has no cap formula, and Params refuses it
    with pytest.raises(ValueError, match="cap formulas need"):
        CAP_FORMULAS[name](Params(**kernel))


KERNELS = [pytest.param(Params(d=3, s=1.5), id="riesz"), pytest.param(Params(d=3, s=1.0), id="s=d-2"),
           pytest.param(Params(d=2, log=True), id="log")]
AXIS2 = AxisMeasure([(1.6, 0.8), (0.7, 0.3)])


@pytest.mark.parametrize("params", KERNELS + [pytest.param(Params(d=2, s=1e-13), id="d2-s1e-13")])
@pytest.mark.parametrize("t", [-0.9, -0.5, 0.0, 0.2, 0.8, 0.99, 1.0])
def test_eta_phi_is_the_functional(params, t):
    # eta_t carries Phi(t), the weighted potential on its cap: for log the closed form
    # F_0 bit for bit; for d-2 <= s < d it is Delta(t) + sum_i B_i from H's rule
    # against W (1 + ||lambda eps_t||)/||nu_t|| from eps_t's rows, within 6.3e-15 here
    # (at d = 2, s = 1e-13 eps_t's rows keep their digits as s -> 0)
    eta = eta_measure(t, AXIS2, params)
    if params.log:
        assert eta.phi == phi(t, AXIS2, params)
    else:
        assert eta.phi == pytest.approx(phi(t, AXIS2, params), rel=1e-13, abs=0.0)
    xis = np.array([-1.0, (t - 1.0) / 2.0, t])
    assert np.all(weighted_potential(xis, eta) == eta.phi)


OFF_SPHERE = [1.5, -1.5, math.nan, np.array([0.5, 1.5])]
HEIGHT_FORMULAS = {
    "h": lambda x, p: h(x, AXIS2, p),
    "h_slope": lambda x, p: h_slope(x, AXIS2, p),
    "nu_norm": lambda x, p: nu_norm(x, p),
    "eta_potential": lambda x, p: weighted_potential(x, eta_measure(0.2, AXIS2, p)),
    "nu_potential": lambda x, p: u_nu(x, 0.2, p),
    "eps_potential": lambda x, p: u_eps(x, 0.2, 1.6, p),
    "eps_norm": lambda x, p: eps_norm(x, 1.6, p),
}


@pytest.mark.parametrize("x", OFF_SPHERE, ids=["1.5", "-1.5", "nan", "array"])
@pytest.mark.parametrize("name, params", [
    pytest.param(name, kernel.values[0], id=f"{name}-{kernel.id}")
    for name in HEIGHT_FORMULAS for kernel in KERNELS
    if not (kernel.id == "log" and name in CAP_FORMULAS and name not in LOG_TAKES)])
def test_heights_off_the_sphere_raise(name, params, x):
    # a height or xi off [-1, 1] reads as no value: H's log branch returned -10.0
    # at t = 1.5, and nu_t's potential 0.417 at xi = 1.5 (the potentials of nu_t
    # and eps_t and eps_norm refuse the log kernel, test_riesz_formulas_refuse_other_kernels)
    with pytest.raises(ValueError, match=r"needs -1 <= (t|xi) <= 1"):
        HEIGHT_FORMULAS[name](x, params)


CAP_HEIGHT_FORMULAS = {
    "nu_potential": lambda t: u_nu(0.5, t, Params(d=3, s=1.5)),
    "eps_potential": lambda t: u_eps(0.5, t, 1.3, Params(d=3, s=1.5)),
}


@pytest.mark.parametrize("t", [1.5, -1.0, -2.0, math.nan], ids=["1.5", "-1", "-2", "nan"])
@pytest.mark.parametrize("name", CAP_HEIGHT_FORMULAS)
def test_cap_heights_off_the_cap_range_raise(name, t):
    # the cap height of a balayage lies in (-1, 1], which _cap_measure checks: nu_t's
    # potential read W = 0.863 at t = 1.5, 0.0 at t = -1 and nan at t = -2
    with pytest.raises(ValueError, match=r"cap height must lie in \(-1, 1\]"):
        CAP_HEIGHT_FORMULAS[name](t)


def test_balayage_measures_at_s_equal_d_minus_2_carry_a_ring():
    # nubar_t: density 1 plus W (1-t)/2 (1-t^2)^{d/2-1} on the edge; epsbar_t:
    # the whole sphere's density plus (1-t)/2 (R+1)^2/r^d (1-t^2)^{d/2-1}
    d, t, R = 4, 0.2, 1.3
    ring = Params(d=d, s=d - 2.0)
    W = sphere_energy(ring)
    nu, eps = nu_measure(t, ring), eps_measure(t, R, ring)
    assert nu.singular_exponent == eps.singular_exponent == 0.0
    us = np.array([-0.9, 0.0, t])
    assert np.all(nu.radial_density(us) == 1.0)
    np.testing.assert_allclose(eps.radial_density(us),
                               (R * R - 1.0) ** 2 * axis_dist2(us, R) ** (-d / 2.0 - 1.0) / W,
                               rtol=1e-15)
    bulge = (1.0 - t) / 2.0 * (1.0 - t * t) ** (d / 2.0 - 1.0)
    assert nu.boundary_coeff == pytest.approx(W * bulge, rel=1e-15)
    assert eps.boundary_coeff == pytest.approx((R + 1.0) ** 2 / axis_dist2(t, R) ** (d / 2.0)
                                               * bulge, rel=1e-15)
    assert nu_measure(1.0, ring).boundary_coeff == eps_measure(1.0, R, ring).boundary_coeff == 0.0


def test_nu_norm_endpoints():
    assert nu_norm(1.0, P21) == 1.0
    assert nu_norm(-1.0, P21) == 0.0


def test_nu_norm_closed_vs_quadrature():
    d, s, t = 2, 1.0, 0.0
    p = Params(d=d, s=s)
    const = 2.0 ** (1 - d) * math.gamma(float(d)) / (math.gamma(d - s / 2.0)
                                                     * math.gamma(s / 2.0))
    direct, err = integrate.quad(
        lambda u: (1.0 + u) ** (s / 2.0 - 1.0) * (1.0 - u) ** (d - s / 2.0 - 1.0), -1.0, t)
    assert nu_norm(t, p) == pytest.approx(const * direct, rel=1e-10)
    assert nu_norm(t, p) == pytest.approx(
        cap_sigma_integral(nu_measure(t, p).radial_density, d, t), rel=1e-8)
    # the masses of nu_t and eps_t by the cap quadrature, ring charges included
    for d in (2, 3, 4, 5):
        for s in ([d - 2.0] if d >= 3 else []) + [d - 1.4, d - 0.3]:
            p = Params(d=d, s=s)
            for t in (-0.5, 0.3, 0.9, 1.0):
                assert abs(nu_measure(t, p).mass - nu_norm(t, p)) <= 1e-12
                for R in (1.3, 3.0):
                    got = eps_measure(t, R, p).mass
                    assert abs(got - eps_norm(t, R, p)) <= 1e-12, (d, s, t, R)


@pytest.mark.parametrize("k", [6, 8, 10, 12])
@pytest.mark.parametrize("d, s", [(2, 1.0), (3, 1.0), (4, 2.0), (3, 1.7)])
def test_whole_sphere_eps_mass_near_the_sphere(d, s, k):
    # R = 1 + 10^-k puts the charge's pole (R-1)^2/(2R) beyond u = 1, below
    # ulp(1) from k = 8 on: the cap rule takes that gap as such, not from a
    # rounded height, and the density takes R^2 - 1 as (R-1)(R+1)
    p, R = Params(d=d, s=s), 1.0 + 10.0 ** -k
    assert abs(eps_measure(1.0, R, p).mass - eps_norm(1.0, R, p)) <= 1e-13


def test_nu_norm_random_cross_checks():
    rng = np.random.default_rng(101)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        s = float(rng.uniform(d - 2 + 0.05, d - 0.05))
        t = float(rng.uniform(-0.9, 0.95))
        p = Params(d=d, s=s)
        const = math.exp((1 - d) * math.log(2.0) + math.lgamma(float(d))
                         - math.lgamma(d - s / 2.0) - math.lgamma(s / 2.0))
        direct, err = integrate.quad(
            lambda u: (1.0 + u) ** (s / 2.0 - 1.0) * (1.0 - u) ** (d - s / 2.0 - 1.0),
            -1.0, t, epsabs=1e-13, epsrel=1e-12)
        assert nu_norm(t, p) == pytest.approx(const * direct, abs=1e-9)


@pytest.mark.parametrize("d", range(2, 13))
def test_nu_norm_against_40_digit_mpmath(d):
    # I((1+t)/2; s/2, d-s/2) at 40 digits; the complement form
    # 1 - I((1-t)/2; d-s/2, s/2) misses this by up to ~1e-13
    rng = np.random.default_rng(d)
    with mp.workdps(40):
        for s, t in zip(rng.uniform(d - 2, d, size=20), rng.uniform(-0.9, 0.9, size=20)):
            s, t = float(s), float(t)
            if s <= 0.0:
                continue
            ref = mp.betainc(mp.mpf(s) / 2, d - mp.mpf(s) / 2, 0, (1 + mp.mpf(t)) / 2,
                             regularized=True)
            got = nu_norm(t, Params(d=d, s=s))
            assert abs(got / ref - 1) <= 1e-14, (s, t)


def test_eps_norm_endpoints_and_monotonicity():
    d, s, R = 3, 1.5, 2.0
    p = Params(d=d, s=s)
    assert eps_norm(-1.0, R, p) == 0.0
    vals = [eps_norm(t, R, p) for t in (-0.5, 0.0, 0.5)]
    assert vals[0] < vals[1] < vals[2]
    for t in (1.5, np.array([0.5, -1.5])):  # no height outside the sphere reads as a norm
        with pytest.raises(ValueError, match="-1 <= t <= 1"):
            eps_norm(t, R, p)


HEIGHTS = (-0.5, 0.5, 0.99, 1.0 - 4e-8, 1.0 - 1e-12)
EPS_NORM_CASES = [  # (d, s, R, heights)
    (2, 1.0, 2.618, HEIGHTS), (3, 2.4, 1.7, HEIGHTS), (4, 2.3, 1.2, HEIGHTS), (3, 1.0, 1.1, HEIGHTS),
    (5, 3.2, 3.0, HEIGHTS),
    # charges within 3e-7 of the sphere, with t within 1.1e-6 of the pole
    (4, 3.9734767560083855, 1.0000000167305272, (0.999999923485185,)),
    (3, 1.3418928503481116, 1.0000002756255286, (0.9999988982917943,)),
    (5, 3 + 2.0 ** -26, 1.0000833322055374, (0.9999999999823347,)),  # s just above d-2
    (2, 0.02, 1.5, (-0.5,)),  # the left edge power (1+u)^{-0.99}
    # s -> 0 at d = 2: the closed part divides by the power s/2 itself, not (s/2 - 1) + 1
    (2, 1e-13, 1.5, (-0.5, 0.3)), (2, 1e-10, 0.7, (0.3,)),
]


@pytest.mark.parametrize("d, s, R, heights", EPS_NORM_CASES,
                         ids=[f"d{d}-s{s}-R{R}" for d, s, R, _ in EPS_NORM_CASES])
def test_eps_norm_against_30_digit_mpmath(d, s, R, heights):
    # heights from -0.5 up to 1e-12 below the pole, where the integrand's branch
    # point at u = 1 lies 1-t beyond the cap edge.  The reference takes
    # 1 + u = y^{2/s} on [-1, min(t, 0)], which leaves no singular factor there,
    # and splits [0, t] at t - (1-t) 2^j toward the edge
    with mp.workdps(30):
        dm, sm, Rm = mp.mpf(d), mp.mpf(s), mp.mpf(R)
        W = mp.gamma(dm) * mp.gamma((dm - sm) / 2) / (
            2 ** sm * mp.gamma(dm / 2) * mp.gamma(dm - sm / 2))
        C = 2 ** (1 - dm) * mp.gamma(dm) / (mp.gamma(dm - sm / 2) * mp.gamma(sm / 2))
        g = lambda u: (1 - u) ** (dm - sm / 2 - 1) * (Rm * Rm - 2 * Rm * u + 1) ** (-dm / 2)
        for t in heights:
            tm = mp.mpf(t)
            top = (1 + min(tm, 0)) ** (sm / 2)
            integral = 2 / sm * mp.quad(lambda y: g(y ** (2 / sm) - 1), [0, top])
            if t > 0:
                cuts, gap = [tm], 1 - tm
                while tm - 2 * gap > 0:
                    gap *= 2
                    cuts.append(tm - gap)
                integral += mp.quad(lambda u: (1 + u) ** (sm / 2 - 1) * g(u), [0] + cuts[::-1])
            ref = C * (Rm + 1) ** (dm - sm) / W * integral
            assert abs(eps_norm(t, R, Params(d=d, s=s)) / ref - 1) <= 1e-14, t


def test_eps_norm_t1_equals_axis_potential_ratio():
    for (d, s, R) in [(2, 1.0, 1.5), (3, 1.7, 2.0), (4, 2.5, 1.2), (3, 1.0, 1.1), (2, 0.5, 1.5)]:
        p = Params(d=d, s=s)
        expected = field_potential_on_axis(R, p) / sphere_energy(p)
        assert eps_norm(1.0, R, p) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("d, k, t", [(2, 30, 0.99999), (2, 37, 0.9995), (2, 37, 0.99999),
                                     (4, 30, 0.99999), (4, 37, 0.9995), (4, 37, 0.99999)])
def test_nu_mass_keeps_its_edge_as_s_decreases_to_d_minus_2(d, k, t):
    # s = d-2+2^-k puts c = 1-(d-s)/2 at 2^-(k+1): F must keep its whole value
    # where 1 - w is within 1e-3 of the edge, not half of it
    p = Params(d=d, s=d - 2.0 + 2.0 ** -k)
    assert abs(nu_measure(t, p).mass - nu_norm(t, p)) <= 1e-13


def test_eps_mass_keeps_its_edge_mass_at_c_near_zero():
    # c = 2^-40 is no non-positive integer: F's 1/Gamma(c) term holds the edge mass
    p = Params(d=3, s=1.0 + 2.0 ** -39)
    assert abs(eps_measure(0.3, 1.5, p).mass - eps_norm(0.3, 1.5, p)) <= 1e-13


NEAR_D_MINUS_2 = [(2, 30, 0.9995), (4, 30, 0.9995), (4, 37, 0.99), (4, 39, 0.3), (5, 39, 0.5)]


@pytest.mark.parametrize("d, k, t", NEAR_D_MINUS_2, ids=[f"{d}-{k}-{t}" for d, k, t in NEAR_D_MINUS_2])
def test_cap_masses_settle_as_s_decreases_to_d_minus_2(d, k, t):
    # the edge exponent (s-d)/2 within 2^-(k+1) of -1, the cap near the pole and
    # not: the masses of nu_t and eps_t (R = 1.5) match their norms, and at
    # 2^-39 they stay where 2^-38 puts them
    p = Params(d=d, s=d - 2.0 + 2.0 ** -k)
    nu, eps = nu_measure(t, p).mass, eps_measure(t, 1.5, p).mass
    assert abs(nu - nu_norm(t, p)) <= 1e-13
    assert abs(eps - eps_norm(t, 1.5, p)) <= 1e-13
    if k == 39:
        p38 = Params(d=d, s=d - 2.0 + 2.0 ** -38)
        assert abs(nu - nu_measure(t, p38).mass) <= 1e-10
        assert abs(eps - eps_measure(t, 1.5, p38).mass) <= 1e-10


def test_eps_mass_settles_near_the_pole():
    # 1 - t = 1e-6: the surface factor's branch point at u = 1 and the charge's
    # pole 1.2e-3 beyond it sit close to the cap edge
    p, t = Params(d=3, s=1.0), 1.0 - 1e-6
    assert abs(eps_measure(t, 1.05, p).mass - eps_norm(t, 1.05, p)) <= 1e-12


def h_reference(t, atoms, params):
    """24-digit H(t) = (1/W) int_{-1}^t ||nu_u|| sum_i m_i e_i'(u) du for exterior
    atoms, in v = 1 + u on panels graded toward t, each scaled to O(1) (mp.quad's
    tolerance is absolute)."""
    with mp.workdps(24):
        d, s, top, bottom = mp.mpf(params.d), mp.mpf(params.s), 1 + mp.mpf(t), 1 - mp.mpf(t)
        W = (mp.gamma(d) * mp.gamma((d - s) / 2)
             / (2 ** s * mp.gamma(d / 2) * mp.gamma(d - s / 2)))
        nu = lambda v: (mp.betainc(s / 2, d - s / 2, 0, v / 2, regularized=True) if v < 1 else
                        1 - mp.betainc(d - s / 2, s / 2, 0, (bottom + top - v) / 2, regularized=True))
        f = lambda v: nu(v) * mp.fsum(
            m * d * R * (R + 1) ** (d - s)
            / ((R - 1) ** 2 + 2 * R * (bottom + top - v)) ** (d / 2 + 1)
            for R, m in map(lambda a: map(mp.mpf, a), atoms))
        gap = min(bottom + (mp.mpf(R) - 1) ** 2 / (2 * mp.mpf(R)) for R, _ in atoms)
        ends, k = [top], 0
        while top - gap * 4 ** k > gap * 4 ** k:
            ends.append(top - gap * 4 ** k)
            k += 1
        ends = ends[::-1]
        total = 0
        for a, b in zip([mp.mpf(0)] + ends, ends):
            scale = (b - a) * f(b)
            total += scale * mp.quad(lambda y: f(a + (b - a) * y) * (b - a) / scale, [0, 1])
        return total / W


@pytest.mark.parametrize("params", [Params(d=2, s=1.0), Params(d=4, s=2.0), Params(d=5, s=4.4)],
                         ids=["d2", "d4-s2", "d5"])
def test_h_against_24_digit_mpmath(params):
    # charges from 1e-12 to 2 beyond the sphere, and caps from 1e-14 to 1e-9 short of
    # either pole: panels graded toward t keep a pole near the edge away from the rule
    for R in (1.0 + 1e-12, 1.0 + 1e-8, 1.0001, 1.05, 3.0):
        for t in (-1.0 + 1e-14, -0.5, 0.3, 0.99, 1.0 - 1e-6, 1.0 - 1e-9):
            ref = h_reference(t, [(R, 1.0)], params)
            assert abs(h(t, AxisMeasure([(R, 1.0)]), params) / ref - 1) <= 2e-15, (R, t)


# ---------------------------------------------------------------------------
# phi and the support solve


def test_phi_no_charge_reduction():
    d, s, t = 2, 1.0, 0.3
    p = Params(d=d, s=s)
    tiny = AxisMeasure([(2.0, 1e-15)])
    assert phi(t, tiny, p) == pytest.approx(sphere_energy(p) / nu_norm(t, p), rel=1e-16 + 1e-10)


def test_phi_at_one_is_sphere_functional():
    p = Params(d=3, s=1.6)
    q, R = 1.4, 1.8
    expected = sphere_energy(p) + q * field_potential_on_axis(R, p)
    assert phi(1.0, AxisMeasure([(R, q)]), p) == pytest.approx(expected, rel=1e-10)


def test_phi_divergence_towards_minus_one():
    p, charge = P21, C13
    vals = [phi(t, charge, p) for t in (-0.9, -0.99, -0.999)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 30.0  # ||nu_t|| ~ (1+t)^{1/2} for d=2, s=1, so phi blows up


def test_solve_t0_reference_scenario():
    sol = axis_solve_t(C13, P21)
    assert sol.solved_by == "interior_root"
    # scratch mpmath solve of Delta(t)=0 for d=2,s=1,q=1,R=1.3
    assert sol.t0 == pytest.approx(0.504812246499216, abs=1e-9)
    delta = phi(sol.t0, C13, P21) - 1.0 * (1.3 + 1.0) / axis_dist2(sol.t0, 1.3)
    assert abs(delta) < 1e-10
    assert sol.equilibrium.mass == pytest.approx(1.0, abs=1e-8)
    assert sol.phi_at_t0 == pytest.approx(1.669705822734136, rel=1e-9)


def test_solve_t0_golden_boundary_case():
    p = Params(d=2, s=1.0)
    field = AxisMeasure([(1.0 + GOLDEN, 1.0)])
    sol = axis_solve_t(field, p)
    assert sol.t0 == 1.0
    assert sol.solved_by == "boundary_t_equals_1"
    assert sol.equilibrium.mass == pytest.approx(1.0, abs=1e-9)
    # equality case: Delta(1) is zero to rounding
    assert abs(delta(1.0, field, p)) < 1e-12


def test_solve_t0_boundary_iff_margin():
    p = Params(d=2, s=1.0)
    just_below = axis_solve_t(AxisMeasure([(1.0 + GOLDEN - 0.05, 1.0)]), p)
    just_above = axis_solve_t(AxisMeasure([(1.0 + GOLDEN + 1e-4, 1.0)]), p)
    assert just_below.solved_by == "interior_root"
    assert just_below.t0 < 1.0
    assert just_above.solved_by == "boundary_t_equals_1"


def test_solve_t0_phi_derivative_sign_change():
    sol = axis_solve_t(C13, P21)
    h = 1e-5
    dphi = (phi(sol.t0 + h, C13, P21) - phi(sol.t0 - h, C13, P21)) / (2.0 * h)
    assert abs(dphi) < 1e-4
    assert phi(sol.t0 - 0.05, C13, P21) > sol.phi_at_t0
    assert phi(sol.t0 + 0.05, C13, P21) > sol.phi_at_t0


def test_eta_density_sign_pattern_around_t0():
    sol = axis_solve_t(C13, P21)
    t0 = sol.t0
    # at t0: nonnegative everywhere, -> 0 at the edge
    us = np.linspace(-1.0, t0 - 1e-9, 400)
    eta = eta_measure(t0, C13, P21)
    dens = eta.radial_density(us)
    assert np.all(dens > -1e-10)
    edge = eta.radial_density(t0 - 1e-10)
    assert abs(edge) < 1e-4
    # below t0: strictly positive near the edge
    t_lo = t0 - 0.2
    assert eta_measure(t_lo, C13, P21).radial_density(t_lo - 1e-6) > 0.0
    # above t0: negative near the edge
    t_hi = t0 + 0.2
    assert eta_measure(t_hi, C13, P21).radial_density(t_hi - 1e-6) < 0.0


@pytest.mark.parametrize("c2", [0.9, 0.999999])
def test_eta_tail_vector_equals_scalar(c2):
    # eta_t's tail F(w) - F(c2 w) at d = 2, s = 1, summed through one pair
    # (1, 1 - c2): an element past the w > 0.999 switch must not pull the
    # others off the cancellation-free series (c2 -> 1 as t -> 1)
    tail = lambda w: hyp2f1_regularized(1.0, 1.0, 0.5, w, 0.0, [(1.0, 1.0 - c2)])
    w = np.array([1e-9, 1e-6, 1e-3, 0.5, 0.9995])
    vec = tail(w)
    scalar = np.array([tail(float(x)) for x in w])
    assert np.all(np.abs(vec - scalar) <= 1e-14 * np.abs(scalar))


ETA_FIELDS = [[(1.5, 1.0)], [(3.0, 0.4), (1.2, 0.2)], [(10.0, 2.0)]]


def eta_regular_reference(t, u, atoms, params):
    """50-digit regular part of eta_t at height u from the float inputs.
    Delta(t) is taken as the package computes it, W_s (1 - H(t))/||nu_t||:
    its rounding is the brace's own input, which no summation can repair."""
    dt = delta(t, AxisMeasure(atoms), params)
    with mp.workdps(50):
        t, u, d, s = mp.mpf(t), mp.mpf(u), mp.mpf(params.d), mp.mpf(params.s)
        c = 1 - (d - s) / 2
        F = lambda z: mp.hyp2f1(1, d / 2, c, z) * mp.rgamma(c)
        w = (t - u) / (1 - u)
        brace = mp.mpf(dt) * F(w)
        for R, m in atoms:
            R = mp.mpf(R)
            r2 = R * R - 2 * R * t + 1
            brace += m * (R + 1) ** (d - s) / r2 ** (d / 2) * (F(w) - F((R - 1) ** 2 / r2 * w))
        pref = mp.gamma(d / 2) / mp.gamma(d - s / 2) / mp.mpf(sphere_energy(params))
        return float(pref * ((1 - t) / (1 - u)) ** (d / 2) * (1 - t) ** ((d - s) / 2) * brace)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("t, tol", [(-0.5, 1e-14), (0.3, 1e-14), (0.9, 1e-14), (0.999, 5e-12),
                                     (1 - 1e-6, 5e-12)])
def test_eta_regular_part_against_mpmath(t, tol, d):
    # curves of 12 heights from 1e-12 below the edge down to the pole, spaced
    # geometrically; at t = 0.999 also evenly, which puts most w = (t-u)/(1-u)
    # in (0.99, 0.9995), where the series runs longest before the w > 0.999
    # switch.  The error is taken against each curve's largest value: the
    # brace cancels where eta_t changes sign.
    curves = [t - np.geomspace(1e-12, t + 1.0 - 1e-9, 12)]
    if t > 0.99:
        curves.append(np.linspace(t - 1e-12, -1.0 + 1e-9, 12))
    for f in (0.05, 0.3, 0.7, 0.95):
        params = Params(d=d, s=d - 2 + 2 * f)
        for atoms in ETA_FIELDS:
            eta = eta_measure(t, AxisMeasure(atoms), params)
            for us in curves:
                ref = np.array([eta_regular_reference(t, u, atoms, params) for u in us])
                err = np.max(np.abs(eta.regular_part(Nodes(us, 1 + us, t - us, 1 - us)) - ref))
                assert err <= tol * np.max(np.abs(ref)), (f, atoms)


def test_eta_mass_identity_random():
    rng = np.random.default_rng(55)
    for _ in range(5):
        d = int(rng.integers(2, 5))
        s = float(rng.uniform(d - 2 + 0.1, d - 0.1))
        q = float(rng.uniform(0.3, 2.0))
        R = float(rng.uniform(1.1, 3.0))
        t = float(rng.uniform(-0.5, 0.9))
        p = Params(d=d, s=s)
        dens = eta_measure(t, AxisMeasure([(R, q)]), p).radial_density
        mass = cap_sigma_integral(dens, d, t)
        assert mass == pytest.approx(1.0, abs=1e-7)


def test_eta_consistent_with_nu_eps_combination():
    d, s, q, R, t = 3, 1.5, 0.8, 1.7, 0.25
    p = Params(d=d, s=s)
    charge = AxisMeasure([(R, q)])
    phi_t = phi(t, charge, p)
    W = sphere_energy(p)
    for u in (-0.9, -0.3, 0.2):
        combo = ((phi_t / W) * nu_measure(t, p).radial_density(u)
                 - q * eps_measure(t, R, p).radial_density(u))
        assert eta_measure(t, charge, p).radial_density(u) == pytest.approx(combo, rel=1e-9)


# ---------------------------------------------------------------------------
# potentials


def test_closed_form_off_cap_potentials():
    d, s, t, R = 2, 1.2, 0.3, 1.6
    p = Params(d=d, s=s)
    for xi in (0.45, 0.7, 0.95):
        got = cap_potential(nu_measure(t, p).radial_density, t, xi, p)
        assert got == pytest.approx(u_nu(xi, t, p), abs=1e-6)
        got = cap_potential(eps_measure(t, R, p).radial_density, t, xi, p)
        assert got == pytest.approx(u_eps(xi, t, R, p), abs=1e-6)
    # off-cap deficiency
    for xi in (0.5, 0.8):
        assert u_nu(xi, t, p) < sphere_energy(p)
        assert u_eps(xi, t, R, p) < axis_dist2(xi, R) ** (-s / 2.0)


def test_weighted_potential_continuity_and_inequality():
    sol = axis_solve_t(C13, P21)
    t0 = sol.t0
    eta = eta_measure(t0, C13, P21)
    assert weighted_potential(t0, eta) == pytest.approx(sol.phi_at_t0, rel=1e-12)
    # just outside the cap the potential exceeds the functional value
    for xi in (t0 + 1e-3, t0 + 0.1, 0.9):
        assert weighted_potential(xi, eta) > sol.phi_at_t0


def test_weighted_potential_against_quadrature():
    d, s, q, R = 2, 1.0, 1.0, 1.3
    p = Params(d=d, s=s)
    charge = AxisMeasure([(R, q)])
    t = 0.35
    eta = eta_measure(t, charge, p)
    for xi in (0.6, 0.85):
        direct = cap_potential(eta.radial_density, t, xi, p) + q * axis_dist2(xi, R) ** (-s / 2.0)
        assert direct == pytest.approx(weighted_potential(xi, eta), abs=1e-6)


@pytest.mark.parametrize("d, s", [(5, 4.8), (4, 3.8), (3, 1.5), (2, 0.5)])
@pytest.mark.parametrize("t", [-0.5, 0.3])
def test_balayage_potentials_at_the_cap_edge_against_40_digit_mpmath(d, s, t):
    # just above the cap, against the paper's forms W I((1+t)/(1+xi); s/2, (d-s)/2) and
    # rho^{-s} (I((rho^2/r^2)(1+t)/(1+xi); s/2, (d-s)/2) - 1), taken at 40 digits: the
    # forms in (1+t)/(1+xi), which rounds to 1 one ulp above t, were 2.7e-2 (nu_t)
    # and 3.0e-2 (eps_t) off at d = 5, s = 4.8, t = 0.3
    p = Params(d=d, s=s)
    with mp.workdps(40):
        dm, sm, tm = mp.mpf(d), mp.mpf(s), mp.mpf(t)
        W = mp.gamma(dm) * mp.gamma((dm - sm) / 2) / (
            2 ** sm * mp.gamma(dm / 2) * mp.gamma(dm - sm / 2))
        reg = lambda x: mp.betainc(sm / 2, (dm - sm) / 2, 0, x, regularized=True)
        for xi in (float(np.nextafter(t, 2.0)), t + 1e-9):
            xm = mp.mpf(xi)
            got = weighted_potential(xi, nu_measure(t, p))
            want = W * reg((1 + tm) / (1 + xm))
            assert abs(got / float(want) - 1.0) <= 1e-14, (xi, got, want)
            for R in (0.6, 1.3):
                Rm = mp.mpf(R)
                rho2, r2 = Rm ** 2 - 2 * Rm * xm + 1, Rm ** 2 - 2 * Rm * tm + 1
                got = weighted_potential(xi, eps_measure(t, R, p))
                want = rho2 ** (-sm / 2) * (reg(rho2 / r2 * (1 + tm) / (1 + xm)) - 1)
                assert abs(got / float(want) - 1.0) <= 1e-14, (xi, R, got, want)


@pytest.mark.parametrize("params", KERNELS[:2])
def test_eta_weighted_potential_is_linear_in_its_balayages(params):
    # weighted(eta_t) = (Phi/W) weighted(nu_t) - sum_i m_i weighted(eps_t^i): off the
    # cap to 1e-13, and on it each is its own phi (Phi, W and 0) bit for bit
    W = sphere_energy(params)
    for t in (-0.6, 0.2, 0.7):
        eta, nu = eta_measure(t, AXIS2, params), nu_measure(t, params)
        eps = [(m, eps_measure(t, R, params)) for R, m in AXIS2.atoms]
        on, off = np.linspace(-1.0, t, 9), np.linspace(t + 1e-6, 1.0, 17)
        assert np.all(weighted_potential(on, eta) == eta.phi)
        assert np.all(weighted_potential(on, nu) == nu.phi) and nu.phi == W
        for _, e in eps:
            assert np.all(weighted_potential(on, e) == e.phi) and e.phi == 0.0
        combo = eta.phi / W * weighted_potential(off, nu) - sum(
            m * weighted_potential(off, e) for m, e in eps)
        np.testing.assert_allclose(weighted_potential(off, eta), combo, rtol=1e-13, atol=0.0)


def test_weighted_potential_of_a_log_balayage_raises_value_error():
    # of the log measures only eta_t carries its constant, F_0; nubar_t gave a TypeError
    # from numpy arithmetic on its phi, None
    with pytest.raises(ValueError, match="eta_measure"):
        weighted_potential(0.5, nu_measure(0.2, Params(d=2, log=True)))


def test_phi_unimodal_on_grid():
    ts = np.linspace(-0.95, 1.0, 200)
    vals = np.array([phi(float(t), C13, P21) for t in ts])
    sol = axis_solve_t(C13, P21)
    k = int(np.argmin(vals))
    assert abs(ts[k] - sol.t0) < 0.02
    assert np.all(np.diff(vals[: k + 1]) < 0.0)
    assert np.all(np.diff(vals[k + 1:]) > 0.0)
    assert np.all(vals >= sol.phi_at_t0 - 1e-12)


# ---------------------------------------------------------------------------
# edge diagnostic


def test_edge_derivative_diagnostic():
    sol = axis_solve_t(C13, P21)
    assert abs(-delta(sol.t0, C13, P21)) < 1e-10
    assert -delta(sol.t0 - 0.2, C13, P21) < 0.0
    assert -delta(sol.t0 + 0.2, C13, P21) > 0.0


PHI_BATCH = [  # Riesz d = 2..5, s = d-2, log; four atoms, one of them at R < 1
    (Params(d=2, s=0.6), AxisMeasure([(1.5, 1.0)])),
    (Params(d=3, s=1.7), AxisMeasure([(1.2, 0.5), (2.5, 0.3)])),
    (Params(d=4, s=3.1), AxisMeasure([(1.3, 2.0)])),
    (Params(d=5, s=3.4), AxisMeasure([(1.1, 1.0), (2.0, 0.3)])),
    (Params(d=3, s=1.0), AxisMeasure([(2.0, 0.6), (3.0, 0.4)])),
    (Params(d=4, s=2.0), AxisMeasure([(1.4, 1.0)])),
    (Params(d=2, log=True), AxisMeasure([(2.0, 1.0), (3.0, 0.4)])),
    (Params(d=3, s=1.5), AxisMeasure([(1.5, 1.0), (0.8, 0.2), (3.0, 1.0), (1.05, 0.1)])),
]


@pytest.mark.parametrize("params, field", PHI_BATCH,
                         ids=["d2", "d3", "d4", "d5", "d3-s1", "d4-s2", "log", "four-atoms"])
def test_phi_batch_equals_per_point_calls(params, field, monkeypatch):
    # 200 heights up to t = 1 (the closed form): phi integrates every (height,
    # atom) row below 1 in one eps_norm batch on the tanh-sinh rule; the weighted
    # potential on the CLI's 200-point grid, both sides of the cap, is one call too
    from rieszcap import cap_riesz
    batches, integrals = [], cap_riesz._cap_integrals
    monkeypatch.setattr(cap_riesz, "_cap_integrals",
                        lambda t, *a: batches.append(len(t)) or integrals(t, *a))
    ts = np.linspace(-0.999, 1.0, 200)
    for fn in (cap_riesz.phi, cap_riesz.h):
        batches.clear()
        batch = fn(ts, field, params)
        rows = list(batches)
        assert np.array_equal(batch, [fn(float(t), field, params) for t in ts])
        if fn is cap_riesz.phi:
            atoms = len(field.atoms)
            assert rows == ([] if params.log else [199 * atoms])
    assert ts[-1] == 1.0
    eta, xis = eta_measure(0.2, field, params), np.linspace(-1.0 + 1e-6, 1.0 - 1e-9, 200)
    batch = weighted_potential(xis, eta)
    assert np.array_equal(batch, [weighted_potential(float(xi), eta) for xi in xis])
    assert np.all(batch[xis <= 0.2] == eta.phi) and np.all(batch[xis > 0.2] != eta.phi)


# ---------------------------------------------------------------------------
# eta_t's Phi_s(t) = Delta(t) + sum_i B_i


def test_eta_measure_makes_no_phi_quadrature(monkeypatch):
    # eta_t reads Phi_s(t) off its one H batch; a solve never evaluates phi
    from rieszcap import cap_riesz
    cases = [(params, field, phi(0.2, field, params)) for params, field in PHI_BATCH[:6]]

    def no_phi(*args, **kwargs):
        raise AssertionError("phi was evaluated")

    monkeypatch.setattr(cap_riesz, "phi", no_phi)
    for params, field, expected in cases:
        assert eta_measure(0.2, field, params).phi == pytest.approx(expected, rel=1e-13)
        assert axis_solve_t(field, params).solved_by == "interior_root"


@pytest.mark.parametrize("exceptional", [False, True], ids=["d-2<s<d", "s=d-2"])
def test_delta_plus_pair_weights_is_phi(exceptional):
    # the identity eta_t rests on, on seeded fields (atoms on both sides, q up to 1e3)
    rng = np.random.default_rng(23)
    for _ in range(12):
        d = int(rng.integers(3 if exceptional else 2, 6))
        s = d - 2.0 if exceptional else float(rng.uniform(d - 2 + 0.05, d - 0.05))
        params = Params(d=d, s=s)
        atoms = [(float(rng.choice([rng.uniform(0.3, 0.9), rng.uniform(1.1, 3.0)])),
                  float(10.0 ** rng.uniform(-1.0, 3.0))) for _ in range(int(rng.integers(1, 3)))]
        field = AxisMeasure(atoms)
        t0 = axis_solve_t(field, params).t0
        for t in {t0, max(t0 - 0.2, -0.99), min(t0 + 0.2, 1.0)}:
            expected = phi(t, field, params)
            assert eta_measure(t, field, params).phi == pytest.approx(expected, rel=1e-13), (
                d, s, atoms, t)
