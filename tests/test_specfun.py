import math

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.special import betainc, poch, psi

from rieszcap import specfun
from rieszcap.specfun import hyp2f1, hyp2f1_regularized

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
# hyp2f1


def series_200(a, b, c, z):
    """Direct 200-term Gauss series, the bare-hands oracle."""
    total, term = 1.0, 1.0
    for n in range(200):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total += term
    return total


def test_hyp2f1_empty_series():
    assert hyp2f1(0.3, 2.2, 1.7, 0.0) == 1.0


def test_hyp2f1_log_identity():
    # 2F1(1,1;2;z) = -log(1-z)/z
    assert hyp2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(2.0 * math.log(2.0), rel=1e-13)


def test_hyp2f1_against_series_oracle():
    assert hyp2f1(0.5, 1.0, 1.5, 0.25) == pytest.approx(series_200(0.5, 1.0, 1.5, 0.25),
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
            assert hyp2f1(a, b, c, z) == pytest.approx(brute, rel=1e-11)


def test_hyp2f1_negative_argument():
    a, b, c = 0.7, 1.3, 2.1
    for z in (-0.9, -0.75, -0.3):
        assert hyp2f1(a, b, c, z) == pytest.approx(series_200(a, b, c, z), rel=1e-12)


def test_hyp2f1_gauss_summation_trend():
    # 2F1(a,b;c;1-eps) -> Gamma(c)Gamma(c-a-b)/(Gamma(c-a)Gamma(c-b)) for c-a-b > 0
    a, b, c = 0.4, 0.7, 2.0
    limit = math.gamma(c) * math.gamma(c - a - b) / (math.gamma(c - a) * math.gamma(c - b))
    errs = [abs(hyp2f1(a, b, c, 1.0 - eps) - limit) for eps in (1e-2, 1e-4, 1e-6)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-4  # convergence rate is O(eps^{c-a-b}) = O(eps^0.9)


def test_hyp2f1_domain_errors():
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, 1.5, 1.0)
    with pytest.raises(ValueError):
        hyp2f1(0.5, 0.5, 1.5, -1.2)
    with pytest.raises(ValueError, match="regularized"):
        hyp2f1(0.5, 0.5, 0.0, 0.3)
    with pytest.raises(ValueError, match="regularized"):
        hyp2f1(0.5, 0.5, -2.0, 0.3)


def test_hyp2f1_polynomial_case():
    # negative-integer a terminates: valid even at |z| > 1
    assert hyp2f1(-2.0, 1.5, 0.5, 3.0) == pytest.approx(
        1.0 + (-2.0) * 1.5 / 0.5 * 3.0 + ((-2.0) * (-1.0) * 1.5 * 2.5 / (0.5 * 1.5) / 2.0) * 9.0)


# ---------------------------------------------------------------------------
# hyp2f1_regularized


def reg_series_oracle(a, b, c, z, nterms=400):
    """Term-by-term summation with explicit pole skipping, in mp arithmetic."""
    total = mp.mpf(0)
    for n in range(nterms):
        if c + n <= 0 and abs((c + n) - round(c + n)) < 1e-12:
            continue  # 1/Gamma at a pole: the term vanishes
        total += (mp.rf(a, n) * mp.rf(b, n) / mp.factorial(n)
                  * mp.rgamma(c + n) * mp.mpf(z) ** n)
    return float(total)


def test_regularized_trivial():
    assert hyp2f1_regularized(0.9, 2.0, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)


def test_regularized_nonpositive_c():
    # c = 0: the n = 0 term vanishes and the sum starts at n = 1
    got = hyp2f1_regularized(1.0, 2.0, 0.0, 0.3)
    assert got == pytest.approx(reg_series_oracle(1.0, 2.0, 0.0, 0.3), rel=1e-12)
    got = hyp2f1_regularized(0.7, 1.1, -2.0, 0.4)
    assert got == pytest.approx(reg_series_oracle(0.7, 1.1, -2.0, 0.4), rel=1e-12)


def test_regularized_matches_unregularized():
    c = 1.5
    expected = hyp2f1(0.5, 1.0, c, 0.25) / math.gamma(c)
    assert hyp2f1_regularized(0.5, 1.0, c, 0.25) == pytest.approx(expected, rel=1e-12)


def test_regularized_vectorized():
    z = np.array([0.0, 0.1, 0.55, -0.3, 0.9])
    vec = hyp2f1_regularized(1.0, 1.5, 0.5, z)
    scal = [hyp2f1_regularized(1.0, 1.5, 0.5, float(zi)) for zi in z]
    assert_allclose(vec, scal, rtol=1e-13)


def reg_reference(a, b, c, z):
    """40-digit regularized 2F1; at c = -m it is (a)_{m+1} (b)_{m+1} z^{m+1}
    / (m+1)! 2F1(a+m+1, b+m+1; m+2; z) (DLMF 15.2.3_5)."""
    z = mp.mpf(z)
    if c <= 0 and c == int(c):
        m = int(-c)
        return float(mp.rf(a, m + 1) * mp.rf(b, m + 1) * z ** (m + 1) / mp.factorial(m + 1)
                     * mp.hyp2f1(a + m + 1, b + m + 1, m + 2, z))
    return float(mp.hyp2f1(a, b, c, z) * mp.rgamma(c))


@pytest.mark.parametrize("a, b, c", [(1.0, 2.0, -1.0), (1.0, 2.0, -2.0), (1.0, 2.5, -0.5),
                                     (1.0, 1.5, 0.3)])
def test_regularized_negative_argument_against_mpmath(a, b, c):
    # the alternating series in z cancels as z -> -1; Pfaff's z/(z-1) does not
    z = np.linspace(-0.999, 0.0, 200)[:-1]
    ref = np.array([reg_reference(a, b, c, zz) for zz in z])
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(hyp2f1_regularized(a, b, c, z) - ref)) <= 1e-13 * scale
    scalar = np.array([hyp2f1_regularized(a, b, c, float(zz)) for zz in z])
    assert np.max(np.abs(scalar - ref)) <= 1e-13 * scale


def test_regularized_domain():
    with pytest.raises(ValueError):
        hyp2f1_regularized(1.0, 1.0, 1.0, 1.0)


def test_regularized_pairs_need_nonnegative_argument():
    # pairs are summed term by term in z itself; Pfaff's map would change the terms
    z = np.array([0.2, -0.1])
    with pytest.raises(ValueError):
        hyp2f1_regularized(1.0, 1.5, 0.5, z, 0.5, [(1.0, 0.3)])
    assert hyp2f1_regularized(1.0, 1.5, 0.5, z, 0.5) == pytest.approx(
        0.5 * hyp2f1_regularized(1.0, 1.5, 0.5, z), rel=1e-15)


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
                * hyp2f1_regularized(alpha, beta, gam, y * (x - u) / (1.0 - u)))

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
        y = float(rng.uniform(-0.9, 0.9))
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
