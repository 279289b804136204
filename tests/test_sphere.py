import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.special import betainc

from rieszcap import sphere
from rieszcap.sphere import (
    Params,
    axis_dist2,
    build_quadrature,
    integrate_radial,
    kappa,
    omega_ratio,
    sphere_energy,
    surface_factor,
)
from rieszcap.specfun import ConvergenceError, hyp2f1_1mz


def test_params_validation():
    Params(d=2, s=1.0)
    Params(d=3, log=True)
    with pytest.raises(ValueError):
        Params(d=1, s=0.5)
    with pytest.raises(ValueError):
        Params(d=2, s=2.0)
    with pytest.raises(ValueError):
        Params(d=2, s=-0.1)
    with pytest.raises(ValueError):
        Params(d=2)
    with pytest.raises(ValueError):
        Params(d=2, s=1.0, log=True)


def test_params_regime_flags():
    assert Params(d=2, s=1.0).in_cap_regime
    assert Params(d=3, s=2.5).in_cap_regime
    assert not Params(d=3, s=1.0).in_cap_regime
    assert Params(d=3, s=1.0).is_exceptional
    assert not Params(d=2, s=0.5).is_exceptional  # d=2 has no s=d-2 Riesz case
    assert Params(d=2, log=True).log


# ---------------------------------------------------------------------------
# omega ratio


def test_omega_ratio_small_dimensions():
    assert omega_ratio(2) == pytest.approx(2.0, rel=1e-14)
    assert omega_ratio(1) == pytest.approx(math.pi, rel=1e-14)


def test_omega_ratio_d4_against_quadrature():
    direct, err = integrate.quad(lambda u: (1.0 - u * u), -1.0, 1.0)
    assert err < 1e-12
    assert direct == pytest.approx(4.0 / 3.0, rel=1e-13)
    assert omega_ratio(4) == pytest.approx(direct, rel=1e-12)


def test_omega_ratio_general_quadrature():
    for d in (3, 5, 8):
        direct, err = integrate.quad(lambda u: (1.0 - u * u) ** (d / 2.0 - 1.0), -1.0, 1.0)
        assert omega_ratio(d) == pytest.approx(direct, rel=1e-9)
        assert surface_factor(d) == pytest.approx(1.0 / direct, rel=1e-9)


# ---------------------------------------------------------------------------
# sphere energy


def test_sphere_energy_known_values():
    assert sphere_energy(Params(d=2, s=1.0)) == pytest.approx(1.0, rel=1e-14)
    assert sphere_energy(Params(d=2, log=True)) == pytest.approx(0.5 - math.log(2.0),
                                                                 rel=1e-13)


def test_sphere_energy_monte_carlo_d3():
    rng = np.random.default_rng(1)
    n = 200_000
    x = rng.normal(size=(n, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    y = rng.normal(size=(n, 4))
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    dist = np.linalg.norm(x - y, axis=1)
    s = 1.5
    samples = dist ** (-s)
    est = samples.mean()
    se = samples.std(ddof=1) / math.sqrt(n)
    assert abs(sphere_energy(Params(d=3, s=s)) - est) < 3.0 * se


def test_sphere_energy_log_is_riesz_derivative():
    # finite difference of W_s at s -> 0+ matches the logarithmic energy
    for d in (2, 3, 5):
        h = 1e-6
        fd = (sphere_energy(Params(d=d, s=h)) - 1.0) / h  # W_0 energy of the sphere is 1
        assert fd == pytest.approx(sphere_energy(Params(d=d, log=True)), abs=1e-5)


@pytest.mark.parametrize("d", range(2, 13))
def test_gamma_closed_forms_against_40_digit_mpmath(d):
    # W_s, W_log, omega_d/omega_{d-1}, kappa on the diagonal (s < d-1) and
    # the Gauss sum 2F1(s/2, d/2; d; 1), each against its Gamma form in mpmath
    rng = np.random.default_rng(d)
    with mp.workdps(40):
        G, D = mp.gamma, mp.mpf(d)
        log_ref = (mp.digamma(D) - mp.digamma(D / 2)) / 2 - mp.log(2)
        assert abs(sphere_energy(Params(d=d, log=True)) - log_ref) <= 1e-14
        assert abs(omega_ratio(d) / (mp.sqrt(mp.pi) * G(D / 2) / G((D + 1) / 2)) - 1) <= 1e-14
        # s = 0.995 d puts c-a-b = (d-s)/2 of the Gauss sum near 0, where
        # Gamma(c-a-b) magnifies any rounding of that difference
        for s in [*rng.uniform(d - 2, d, size=20), 0.995 * d]:
            s = float(s)
            if s <= 0.0:
                continue
            S = mp.mpf(s)
            gauss = G(D) * G((D - S) / 2) / (G(D / 2) * G(D - S / 2))
            assert abs(sphere_energy(Params(d=d, s=s)) / (gauss / 2 ** S) - 1) <= 1e-14, s
            assert abs(hyp2f1_1mz(s / 2.0, d / 2.0, float(d), 0.0) / gauss - 1) <= 1e-14, s
        for s, u in zip(rng.uniform(0.0, d - 1, size=20), rng.uniform(-0.9, 0.9, size=20)):
            s, u = float(s), float(u)
            if s <= 0.0:
                continue
            S = mp.mpf(s)
            ref = ((1 - mp.mpf(u) ** 2) ** (-S / 2) * G(D / 2) * G(D - 1 - S)
                   / (G((D - S) / 2) * G(D - 1 - S / 2)))
            assert abs(kappa(u, u, Params(d=d, s=s)) / ref - 1) <= 1e-14, (s, u)


def test_sphere_energy_domain():
    with pytest.raises(ValueError):
        Params(d=3, s=3.0)  # s = d rejected at the Params level


# ---------------------------------------------------------------------------
# kappa


def chord2(u: float, v: float, theta: float) -> float:
    """Squared chord distance between sphere points at heights u, v whose
    ring coordinates differ by the angle theta."""
    su = math.sqrt(max(0.0, 1.0 - u * u))
    sv = math.sqrt(max(0.0, 1.0 - v * v))
    return max(0.0, 2.0 - 2.0 * (u * v + su * sv * math.cos(theta)))


def kappa_angle_oracle(u, xi, params):
    """Ring-to-ring kernel average, integrated directly over the ring angle."""
    d = params.d
    const = math.exp(math.lgamma(d / 2.0) - math.lgamma((d - 1) / 2.0)) / math.sqrt(math.pi)

    def f(theta):
        r2 = chord2(u, xi, theta)
        if params.log:
            return -0.5 * math.log(r2) * math.sin(theta) ** (d - 2) * const
        return r2 ** (-params.s / 2.0) * math.sin(theta) ** (d - 2) * const

    val, err = integrate.quad(f, 0.0, math.pi, epsabs=1e-12, epsrel=1e-11, limit=200)
    assert err < 1e-8 * max(1.0, abs(val))
    return val


def test_kappa_south_pole():
    for (d, s, xi) in [(2, 1.0, 0.3), (3, 1.5, -0.2), (4, 2.2, 0.8)]:
        p = Params(d=d, s=s)
        assert kappa(-1.0, xi, p) == pytest.approx((2.0 * (1.0 + xi)) ** (-s / 2.0),
                                                   rel=1e-12)


def test_kappa_s_equals_d_branch():
    # closed form at s = d from the terminating series:
    # kappa(t, v) = 1 / (2 (v-t) (1+v)^{d/2-1} (1-t)^{d/2-1}) for v > t
    for d in (3, 4):
        t, v = 0.1, 0.6
        # s = d lies outside Params' Riesz range; evaluate the formula via
        # the generic branch at s = d - 1e-12 and compare
        p = Params(d=d, s=d - 1e-12)
        expected = 1.0 / (2.0 * (v - t) * (1.0 + v) ** (d / 2.0 - 1.0)
                          * (1.0 - t) ** (d / 2.0 - 1.0))
        assert kappa(t, v, p) == pytest.approx(expected, rel=1e-9)


def test_kappa_log_closed_form():
    p = Params(d=2, log=True)
    assert kappa(0.0, 0.5, p) == pytest.approx(-0.5 * math.log(1.5), rel=1e-14)
    assert kappa(0.0, 0.5, p) == pytest.approx(kappa_angle_oracle(0.0, 0.5, p), rel=1e-10)


def test_kappa_against_angle_quadrature():
    cases = [(2, 1.0, -0.4, 0.7), (2, 0.5, 0.2, -0.6), (3, 1.5, 0.0, 0.5),
             (3, 1.0, -0.7, 0.4), (4, 2.0, 0.3, 0.9), (5, 3.5, -0.2, 0.1)]
    for d, s, u, xi in cases:
        p = Params(d=d, s=s)
        assert kappa(u, xi, p) == pytest.approx(kappa_angle_oracle(u, xi, p), rel=1e-8)


def test_kappa_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        s = float(rng.uniform(0.2, d - 0.1))
        u, xi = (float(v) for v in rng.uniform(-0.95, 0.95, size=2))
        if abs(u - xi) < 1e-3:
            continue
        p = Params(d=d, s=s)
        assert kappa(u, xi, p) == pytest.approx(kappa(xi, u, p), rel=1e-11)


def test_kappa_convex_in_xi():
    # finite-difference second derivative nonnegative away from u
    p = Params(d=3, s=1.8)
    u = -0.5
    h = 1e-3
    for xi in np.linspace(0.0, 0.9, 10):
        second = (kappa(u, xi + h, p) - 2.0 * kappa(u, xi, p) + kappa(u, xi - h, p)) / h**2
        assert second >= -1e-6


def test_kappa_coincidence_point():
    p = Params(d=4, s=1.5)  # s < d-1: finite on the diagonal
    val = kappa(0.3, 0.3, p)
    near = kappa(0.3, 0.3 + 1e-9, p)
    assert val == pytest.approx(near, rel=1e-5)
    with pytest.raises(ValueError):
        kappa(0.3, 0.3, Params(d=2, s=1.5))  # s >= d-1 diverges at u = xi


@pytest.mark.parametrize("near_one", [False, True], ids=["generic", "R-and-u-near-1"])
def test_axis_dist2_against_40_digit_mpmath(near_one):
    # R^2 - 2Ru + 1 cancels as R, u -> 1 (1.5e-8 relative on the second row);
    # (R-1)^2 + 2R(1-u) adds two nonnegative terms
    rng = np.random.default_rng(41)
    n = 20_000
    if near_one:
        R = 1.0 + 10.0 ** rng.uniform(-9.0, -1.0, n)
        u = 1.0 - 10.0 ** rng.uniform(-9.0, -1.0, n)
    else:
        R = 10.0 ** rng.uniform(-0.7, 0.7, n)  # both sides of the sphere
        u = rng.uniform(-1.0, 1.0, n)
    got = axis_dist2(u, R)
    with mp.workdps(40):
        worst = max(abs(mp.mpf(float(g)) / ((mp.mpf(float(r)) - 1) ** 2
                                          + 2 * mp.mpf(float(r)) * (1 - mp.mpf(float(x)))) - 1)
                    for g, r, x in zip(got, R, u))
    assert worst <= 4.4e-16


# ---------------------------------------------------------------------------
# radial quadrature


def test_quadrature_full_sphere_mass():
    # default weights reproduce the sigma_d normalization at t = 1
    for d in (2, 3, 5):
        q = build_quadrature(1.0, Params(d=d, s=d / 2.0), order=32)
        assert float(np.sum(q.weights)) == pytest.approx(1.0, abs=1e-12)
        assert np.all(q.nodes > -1.0) and np.all(q.nodes < 1.0)


def test_quadrature_cap_mass_invariant():
    d, t = 3, 0.4
    p = Params(d=d, s=1.5)
    q = build_quadrature(t, p, order=48)
    direct, err = integrate.quad(lambda u: (1.0 - u * u) ** (d / 2.0 - 1.0), -1.0, t)
    assert float(np.sum(q.weights)) == pytest.approx(surface_factor(d) * direct, rel=1e-12)


def test_quadrature_nu_norm_closed_form():
    # int_{-1}^{t} (1+u)^{s/2-1} (1-u)^{d-s/2-1} du has a closed incomplete-beta
    # form; the left-exponent quadrature must hit it to 1e-10
    for (d, s, t) in [(2, 1.0, 0.0), (3, 1.5, 0.5), (4, 2.5, -0.3), (3, 2.9, 0.9)]:
        p = Params(d=d, s=s)
        q = build_quadrature(t, p, order=60, left_exponent=s / 2.0 - 1.0)
        got = omega_ratio(p) * q.integrate(lambda u: (1.0 - u) ** ((d - s) / 2.0))
        closed = (betainc(s / 2.0, d - s / 2.0, (1.0 + t) / 2.0)
                  * math.exp(math.lgamma(s / 2.0) + math.lgamma(d - s / 2.0)
                             - math.lgamma(float(d)) + (d - 1.0) * math.log(2.0)))
        assert got == pytest.approx(closed, rel=1e-10)


def test_quadrature_endpoint_singular_integrand():
    # (t-u)^{(s-d)/2} with d=2, s=1 integrates finitely; compare adaptive quad
    d, s, t = 2, 1.0, 0.2
    p = Params(d=d, s=s)
    got = integrate_radial(lambda u: np.ones_like(u), t, p, singular_exponent=(s - d) / 2.0)
    direct, err = integrate.quad(lambda u: (t - u) ** ((s - d) / 2.0), -1.0, t,
                                 epsabs=1e-12, epsrel=1e-11)
    assert got == pytest.approx(surface_factor(d) * direct, rel=1e-9)


def test_quadrature_polynomial_exactness():
    # degree <= 2*order-1 polynomials are integrated exactly against the
    # (1+u)^beta (t-u)^alpha part (even d keeps the smooth factor polynomial)
    d, s, t = 4, 3.0, 0.6
    p = Params(d=d, s=s)
    order = 6
    q = build_quadrature(t, p, order=order, singular_exponent=(s - d) / 2.0)
    coeffs = np.array([0.3, -1.2, 0.9, 2.0, -0.7])  # degree 4 <= 2*6-1-(d/2-1)
    f = lambda u: np.polyval(coeffs, u)
    direct, err = integrate.quad(
        lambda u: np.polyval(coeffs, u) * (1.0 - u * u) ** (d / 2.0 - 1.0)
        * (t - u) ** ((s - d) / 2.0), -1.0, t, epsabs=1e-13, epsrel=1e-12)
    assert q.integrate(f) == pytest.approx(surface_factor(d) * direct, rel=1e-11)


def test_quadrature_validation():
    p = Params(d=2, s=1.0)
    with pytest.raises(ValueError):
        build_quadrature(-1.0, p, 16)
    with pytest.raises(ValueError):
        build_quadrature(1.2, p, 16)
    with pytest.raises(ValueError):
        build_quadrature(0.5, p, 2)
    with pytest.raises(ValueError):
        build_quadrature(0.5, p, 16, singular_exponent=-1.5)


# ---------------------------------------------------------------------------
# the per-process cache of [-1, 1] Gauss-Jacobi rules

RULE_CASES = [  # (params, order, singular exponent, left exponent, t)
    (Params(d=2, s=1.0), 64, -0.5, None, 0.3),
    (Params(d=3, s=1.5), 128, -0.75, None, -0.6),
    (Params(d=4, s=2.5), 32, 0.0, 0.25, 0.9),
    (Params(d=5, s=3.7), 256, 0.0, None, 1.0),
    (Params(d=3, s=1.0), 64, 1.0, -0.5, 1.0),
]


def fresh_quadrature(params, order, se, left, t):
    # build_quadrature's rescaling applied to a rule built just now, past the cache
    d = params.d
    beta = d / 2.0 - 1.0 if left is None else left
    alpha = se + (d / 2.0 - 1.0 if t == 1.0 else 0.0)
    one_minus_x, one_plus_x, w = sphere._jacobi_rule.__wrapped__(order, alpha, beta)
    half = (1.0 + t) / 2.0
    u = -1.0 + half * one_plus_x
    weights = w * (half ** (alpha + beta + 1.0) / omega_ratio(params))
    if t < 1.0:
        weights = weights * ((1.0 - t) + half * one_minus_x) ** (d / 2.0 - 1.0)
    return u, weights


@pytest.mark.parametrize("case", RULE_CASES)
def test_cached_rule_is_bit_identical_to_fresh_build(case):
    params, order, se, left, t = case
    for _ in range(2):  # the first build may fill the cache, the second reads it
        q = build_quadrature(t, params, order, se, left_exponent=left)
        u, weights = fresh_quadrature(params, order, se, left, t)
        assert np.array_equal(q.nodes, u) and np.array_equal(q.weights, weights)


def test_cached_rule_arrays_are_read_only():
    for arr in sphere._jacobi_rule(48, -0.25, 0.5):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


RULE_ALPHAS = (-0.995, -0.98, -0.95, -0.75, -0.5, 0.0, 0.5, 2.0)
RULE_BETAS = (-0.75, 0.0, 0.5, 1.5, 2.0)


@pytest.mark.parametrize("n", [64, 256, 1024, 4096])
def test_jacobi_rule_moments_match_beta_values(n):
    # int (1-x)^alpha (1+x)^beta (1 -+ x)^k dx = 2^(alpha+beta+k+1) B(., .), k = 0..3,
    # from the rule's own endpoint distances (1-x rounded from x would cost
    # the node nearest x = 1 its digits)
    mp.mp.dps = 30
    worst = 0.0
    for alpha in RULE_ALPHAS:
        for beta in RULE_BETAS:
            one_minus_x, one_plus_x, w = sphere._jacobi_rule.__wrapped__(n, alpha, beta)
            assert np.all(np.diff(one_plus_x) > 0.0) and np.all(w > 0.0)
            assert_allclose(one_minus_x + one_plus_x, 2.0, rtol=0, atol=4.5e-16)
            for k in range(4):
                for dist, (a, b) in ((one_minus_x, (alpha + k, beta)), (one_plus_x, (alpha, beta + k))):
                    exact = mp.mpf(2) ** (a + b + 1) * mp.beta(a + 1, b + 1)
                    err = abs(float((math.fsum(w * dist ** k) - exact) / exact))
                    worst = max(worst, err)
    assert worst <= 1e-14


def test_writing_into_a_rule_leaves_the_next_build_alone():
    params, order, se, left, t = RULE_CASES[0]
    q = build_quadrature(t, params, order, se, left_exponent=left)
    q.nodes[:] = 0.0
    q.weights[:] = 0.0
    again = build_quadrature(t, params, order, se, left_exponent=left)
    u, weights = fresh_quadrature(params, order, se, left, t)
    assert np.array_equal(again.nodes, u) and np.array_equal(again.weights, weights)


def test_repeated_build_is_a_cache_hit():
    p = Params(d=3, s=2.2)
    build_quadrature(0.1, p, 96, -0.4)
    before = sphere._jacobi_rule.cache_info()
    build_quadrature(-0.7, p, 96, -0.4)  # another cap, the same [-1, 1] rule
    after = sphere._jacobi_rule.cache_info()
    assert after.hits == before.hits + 1 and after.misses == before.misses


def test_unsettled_quadrature_names_the_integral(monkeypatch):
    # an integrand that never settles: the error reports where and how far
    p = Params(d=2, s=1.0)
    monkeypatch.setattr(sphere, "_RADIAL_MAX_ORDER", 256)
    with pytest.raises(ConvergenceError) as info:
        integrate_radial(lambda u: np.sign(np.sin(1e4 * u)), 0.25, p, -0.5)
    msg = str(info.value)
    assert "order 256" in msg and "t=0.25" in msg and "(-0.5, 0.0)" in msg
    assert "|cur - prev| = " in msg
