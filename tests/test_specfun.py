import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.special import betainc, hyp2f1, poch, psi, rgamma

from rieszcap import specfun
from rieszcap.specfun import hyp2f1_1mz, hyp2f1_regularized

mp.mp.dps = 40


# ---------------------------------------------------------------------------
# the library routines behind the closed forms: math.lgamma, scipy.special's
# psi, poch and betainc, checked against the same oracles as before


def gamma_by_quadrature(x):
    """Independent Gamma oracle: defining integral, recursion kept out."""
    val, err = integrate.quad(lambda t: t ** (x - 1.0) * math.exp(-t), 0.0, np.inf,
                              epsabs=1e-14, epsrel=1e-13, limit=400)
    assert err < 1e-11 * val
    return val


def test_log_gamma_trivial_points():
    assert math.lgamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert math.lgamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)


def test_log_gamma_7_3_against_product_recursion():
    # Gamma(7.3) = 6.3 * 5.3 * ... * 1.3 * Gamma(1.3), base value by quadrature
    base = gamma_by_quadrature(1.3)
    expected = math.log(base) + sum(math.log(1.3 + k) for k in range(6))
    assert math.lgamma(7.3) == pytest.approx(expected, abs=5e-12)


def test_digamma_known_values():
    assert psi(1.0) == pytest.approx(-np.euler_gamma, abs=1e-13)
    assert psi(0.5) == pytest.approx(-np.euler_gamma - 2.0 * math.log(2.0), abs=1e-13)
    # recurrence psi(x+1) = psi(x) + 1/x from psi(1)
    assert psi(5.0) == pytest.approx(-np.euler_gamma + 1.0 + 0.5 + 1.0 / 3.0 + 0.25,
                                     abs=1e-13)


def test_digamma_absolute_error():
    rng = np.random.default_rng(7)
    for x in rng.uniform(1e-3, 60.0, size=200):
        assert abs(psi(float(x)) - float(mp.digamma(float(x)))) < 1e-12


def test_pochhammer_recurrence():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = float(rng.uniform(-5.0, 5.0))
        n = int(rng.integers(0, 51))
        assert_allclose(poch(a, n + 1), poch(a, n) * (a + n), rtol=1e-13)
    assert poch(3.7, 0) == 1.0


# ---------------------------------------------------------------------------
# hyp2f1_1mz, from w = 1-z


def series_200(a, b, c, z):
    """Direct 200-term Gauss series, the bare-hands oracle."""
    total, term = 1.0, 1.0
    for n in range(200):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
    return total


def test_hyp2f1_empty_series():
    assert hyp2f1_1mz(0.3, 2.2, 1.7, 1.0) == 1.0


def test_hyp2f1_log_identity():
    # 2F1(1,1;2;z) = -log(1-z)/z
    assert hyp2f1_1mz(1.0, 1.0, 2.0, 0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-13)


def test_hyp2f1_against_series_oracle():
    assert hyp2f1_1mz(0.5, 1.0, 1.5, 0.75) == pytest.approx(series_200(0.5, 1.0, 1.5, 0.25),
                                                            rel=1e-13)


def test_hyp2f1_transformation_consistency():
    # direct summation still converges above the 0.7 switch point; the
    # transformed evaluation must agree with brute force
    for (a, b, c) in [(0.5, 1.0, 2.0), (1.25, 1.0, 1.5), (0.5, 1.5, 3.0), (1.5, 1.0, 1.5)]:
        for z in (0.72, 0.8, 0.85):
            brute, term = 1.0, 1.0
            for n in range(4000):
                term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
                brute += term
            assert hyp2f1_1mz(a, b, c, 1.0 - z) == pytest.approx(brute, rel=1e-11)


def test_hyp2f1_gauss_summation_trend():
    # 2F1(a,b;c;1-eps) -> Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b)) for c-a-b > 0
    a, b, c = 0.4, 0.7, 2.0
    limit = math.gamma(c) * math.gamma(c - a - b) / (math.gamma(c - a) * math.gamma(c - b))
    errs = [abs(hyp2f1_1mz(a, b, c, eps) - limit) for eps in (1e-2, 1e-4, 1e-6)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-4  # convergence rate is O(eps^{c-a-b}) = O(eps^0.9)


def test_hyp2f1_1mz_domain():
    # w = 1 (z = 0) is the empty series; w outside [0, 1] is refused
    assert hyp2f1_1mz(0.5, 0.5, 1.5, 1.0) == 1.0
    for w in (-1e-300, -0.5, 1.0 + 2.0 ** -52, 2.0):
        with pytest.raises(ValueError):
            hyp2f1_1mz(0.5, 0.5, 1.5, w)


# ---------------------------------------------------------------------------
# hyp2f1_regularized


def test_regularized_trivial():
    assert hyp2f1_regularized(1.0, 2.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_regularized_nonpositive_c():
    # the closed form covers a = 1 and 0 < c <= 1, the cap densities' range; any
    # other a or c, the non-positive integers included, is refused
    for a, b, c in [(1.0, 2.0, 0.0), (0.7, 1.1, -2.0), (1.0, 1.5, -0.5), (0.5, 1.0, 0.5),
                    (1.0, 1.0, 1.5)]:
        with pytest.raises(ValueError):
            hyp2f1_regularized(a, b, c, 0.3)


def test_regularized_matches_unregularized():
    c = 0.5
    expected = hyp2f1_1mz(1.0, 1.0, c, 0.75) / math.gamma(c)
    assert hyp2f1_regularized(1.0, 1.0, c, 0.25) == pytest.approx(expected, rel=1e-12)


def test_regularized_vectorized():
    z = np.array([0.0, 0.1, 0.55, 0.3, 0.9])
    vec = hyp2f1_regularized(1.0, 1.5, 0.5, z)
    scal = [hyp2f1_regularized(1.0, 1.5, 0.5, float(zi)) for zi in z]
    assert_allclose(vec, scal, rtol=1e-13)


def brace_reference(b, c, w, D, pairs):
    """40-digit D F(z) + sum_i B_i [F(z) - F((1-g_i) z)] at z = 1 - w, and the
    smaller sum of absolute parts of its two groupings (that one, and
    Phi F(z) - sum_i B_i F((1-g_i) z) with Phi = D + sum_i B_i)."""
    with mp.workdps(40):
        F = lambda x: mp.hyp2f1(1, b, c, x) * mp.rgamma(c)
        z = 1 - mp.mpf(w)
        Fz = F(z)
        value, d_parts, phi_parts = D * Fz, abs(D * Fz), abs((D + mp.fsum(B for B, _ in pairs)) * Fz)
        for B, g in pairs:
            Fg = F((1 - mp.mpf(g)) * z)
            value += B * (Fz - Fg)
            d_parts += abs(B * (Fz - Fg))
            phi_parts += abs(B * Fg)
        return value, min(d_parts, phi_parts)


@pytest.mark.parametrize("seed", range(4))
def test_brace_against_40_digit_mpmath(seed):
    # 4 x 80 seeded cap braces: b = d/2, c = (s-d+2)/2 with s - d + 2 from 2^-38
    # up to 1.95, 1 - z from 1e-7, g_i from 1e-13, and D of both signs, a third
    # of them with Phi = D + sum_i B_i down to 1e-12 of sum_i B_i (where only the
    # Phi grouping keeps the digits); each within 1e-14 of its parts' absolute sum
    rng = np.random.default_rng(100 + seed)
    for _ in range(80):
        d = int(rng.integers(2, 6))
        gap = 1.95 * 2.0 ** -rng.uniform(0.0, 38.0) if rng.random() < 0.5 else rng.uniform(0.01, 1.95)
        c = float(gap) / 2.0
        w = float(10.0 ** rng.uniform(-7.0, 0.0))
        pairs = [(float(10.0 ** rng.uniform(-2.0, 3.0)), float(10.0 ** rng.uniform(-13.0, 0.0)))
                 for _ in range(int(rng.integers(1, 3)))]
        D = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 2.0))
        if rng.random() < 1.0 / 3.0:
            D = -math.fsum(B for B, _ in pairs) * (1.0 - 10.0 ** rng.uniform(-12.0, 0.0))
        got = hyp2f1_regularized(1.0, d / 2.0, c, 1.0 - w, D, pairs, one_minus_z=w)
        value, parts = brace_reference(d / 2.0, c, w, D, pairs)
        assert abs(got - value) <= 1e-14 * parts, (d, c, w, D, pairs)


@pytest.mark.parametrize("d, s", [(3, 2.0), (5, 4.0)])
def test_regularized_at_integer_c_minus_a_minus_b(d, s):
    # c - a - b = s/2 - d is an integer here, where 2F1's connection formula
    # takes its log case; the closed form has no case of its own
    b, c = d / 2.0, 1.0 - (d - s) / 2.0
    ws = 10.0 ** -np.arange(0.0, 9.5, 0.5)
    got = hyp2f1_regularized(1.0, b, c, 1.0 - ws, one_minus_z=ws)
    brace = hyp2f1_regularized(1.0, b, c, 1.0 - ws, -0.3, [(2.0, 1e-3), (0.5, 0.7)], one_minus_z=ws)
    for w, value, pair_value in zip(ws, got, brace):
        ref, parts = brace_reference(b, c, w, 1.0, [])
        assert abs(value - ref) <= 1e-14 * parts, w
        ref, parts = brace_reference(b, c, w, -0.3, [(2.0, 1e-3), (0.5, 0.7)])
        assert abs(pair_value - ref) <= 1e-14 * parts, w


def test_regularized_domain():
    # 0 <= z < 1: every cap density's argument (t-u)/(1-u) is nonnegative
    for z in (1.0, -1e-300, -0.3):
        with pytest.raises(ValueError):
            hyp2f1_regularized(1.0, 1.0, 1.0, z)


# ---------------------------------------------------------------------------
# incomplete beta (scipy.special.betainc, argument order a, b, x)


def test_beta_inc_reg_endpoints_and_uniform():
    assert betainc(2.3, 4.5, 0.0) == 0.0
    assert betainc(2.3, 4.5, 1.0) == 1.0
    assert betainc(1.0, 1.0, 0.5) == pytest.approx(0.5, rel=1e-14)


def test_beta_inc_reg_functional_equation():
    rng = np.random.default_rng(11)
    for _ in range(60):
        a, b = rng.uniform(0.1, 8.0, size=2)
        x = float(rng.uniform(0.0, 1.0))
        lhs = betainc(float(a), float(b), x)
        rhs = 1.0 - betainc(float(b), float(a), 1.0 - x)
        assert abs(lhs - rhs) < 1e-12


def test_beta_inc_reg_against_quadrature():
    rng = np.random.default_rng(13)
    for _ in range(25):
        a, b = (float(v) for v in rng.uniform(0.2, 6.0, size=2))
        x = float(rng.uniform(0.05, 0.95))
        num, err = integrate.quad(lambda v: v ** (a - 1.0) * (1.0 - v) ** (b - 1.0), 0.0, x,
                                  epsabs=1e-13, epsrel=1e-12)
        den = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        assert betainc(a, b, x) == pytest.approx(num / den, rel=2e-11, abs=1e-13)
        assert betainc(a, b, x) * den == pytest.approx(num, rel=2e-11, abs=1e-13)


def test_beta_inc_reg_monotone():
    xs = np.linspace(0.0, 1.0, 101)
    vals = [betainc(0.7, 2.4, float(x)) for x in xs]
    assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
    assert vals[0] == 0.0 and vals[-1] == 1.0


# ---------------------------------------------------------------------------
# Appell F1 Euler integral


def appell_f1_euler(alpha: float, beta: float, gam: float, x: float, y: float) -> float:
    """Euler-integral value used only by the integral-identity test.

    For parameters alpha, beta, gam > 0 with beta + gam > alpha, 0 < x < 1
    and |y| < 1, returns

        Gamma(beta)/(Gamma(beta+gam-alpha) Gamma(alpha)) * x^{beta+gam-1}
        * (1-x)^{gam-alpha} * (1-x y)^{-beta}
        * int_0^1 v^{beta+gam-alpha-1} (1-v)^{alpha-1} (1-x v)^{beta-gam}
                  (1 - v x(1-y)/(1-x y))^{-beta} dv

    by adaptive quadrature; this is an Appell F1 in its Euler representation.
    Not part of the public closed-form surface.
    """
    if not (alpha > 0.0 and beta > 0.0 and gam > 0.0):
        raise ValueError("appell_f1_euler requires positive parameters")
    if beta + gam <= alpha:
        raise ValueError("appell_f1_euler requires beta + gamma > alpha")
    if not (0.0 < x < 1.0 and abs(y) < 1.0):
        raise ValueError("appell_f1_euler requires 0 < x < 1 and |y| < 1")
    zz = x * (1.0 - y) / (1.0 - x * y)

    def integrand(v: float) -> float:
        return (v ** (beta + gam - alpha - 1.0) * (1.0 - v) ** (alpha - 1.0)
                * (1.0 - x * v) ** (beta - gam) * (1.0 - zz * v) ** (-beta))

    val, err = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-11, epsrel=1e-11, limit=300)
    if err > 1e-9 * max(abs(val), 1.0):
        raise specfun.ConvergenceError("appell_f1_euler quadrature did not converge")
    pref = math.exp(math.lgamma(beta) - math.lgamma(beta + gam - alpha) - math.lgamma(alpha))
    return (pref * x ** (beta + gam - 1.0) * (1.0 - x) ** (gam - alpha)
            * (1.0 - x * y) ** (-beta) * val)


def euler_lhs(alpha, beta, gam, x, y):
    """Left-hand integral, evaluated directly by adaptive quadrature."""

    def f(u):
        return (u ** (beta - 1.0) * (x - u) ** (gam - 1.0) * (1.0 - u) ** (-alpha)
                * hyp2f1(alpha, beta, gam, y * (x - u) / (1.0 - u)) * rgamma(gam))

    val, err = integrate.quad(f, 0.0, x, epsabs=1e-12, epsrel=1e-11, limit=300)
    assert err < 1e-8 * max(1.0, abs(val))
    return val


def test_appell_specific_tuple():
    lhs = euler_lhs(0.7, 1.2, 0.9, 0.4, 0.3)
    assert appell_f1_euler(0.7, 1.2, 0.9, 0.4, 0.3) == pytest.approx(lhs, abs=1e-8)


def test_appell_y_zero_degeneracy():
    # at y = 0 the 2F1 factor collapses to 1/Gamma(gam) on the left side
    alpha, beta, gam, x = 0.8, 1.4, 1.1, 0.35
    direct, err = integrate.quad(
        lambda u: u ** (beta - 1.0) * (x - u) ** (gam - 1.0) * (1.0 - u) ** (-alpha),
        0.0, x, epsabs=1e-13, epsrel=1e-12)
    assert err < 1e-9
    assert appell_f1_euler(alpha, beta, gam, x, 0.0) == pytest.approx(
        direct / math.gamma(gam), rel=1e-9)


def test_appell_small_x_beta_scaling():
    # as x -> 0 both sides behave like x^{beta+gam-1} Gamma(beta)/Gamma(beta+gam)
    alpha, beta, gam, y = 0.6, 1.3, 0.8, 0.25
    x = 1e-5
    leading = x ** (beta + gam - 1.0) * math.gamma(beta) / math.gamma(beta + gam)
    assert appell_f1_euler(alpha, beta, gam, x, y) == pytest.approx(leading, rel=1e-3)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_appell_identity_random_tuples():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 20:
        alpha, beta, gam = (float(v) for v in rng.uniform(0.2, 1.8, size=3))
        if beta + gam <= alpha + 0.05:
            continue
        x = float(rng.uniform(0.05, 0.9))
        y = float(rng.uniform(0.0, 0.9))
        lhs = euler_lhs(alpha, beta, gam, x, y)
        rhs = appell_f1_euler(alpha, beta, gam, x, y)
        assert abs(lhs - rhs) < 1e-8, (alpha, beta, gam, x, y)
        checked += 1


def test_appell_domain():
    with pytest.raises(ValueError):
        appell_f1_euler(2.0, 0.5, 0.5, 0.4, 0.3)  # beta+gamma <= alpha
    with pytest.raises(ValueError):
        appell_f1_euler(0.5, 0.5, 0.5, 1.5, 0.3)


# ---------------------------------------------------------------------------
# convergence failure is reported, not silent


def test_convergence_error_type_exists():
    assert issubclass(specfun.ConvergenceError, RuntimeError)
