import math

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from rieszcap import sphere
from rieszcap.cap_riesz import eps_norm
from rieszcap.sphere import (
    CapMeasure,
    Params,
    axis_dist2,
    kappa,
    omega_ratio,
    sphere_energy,
    surface_factor,
)
from rieszcap.specfun import ConvergenceError, hyp2f1_1mz


def cap_kernel(d, s=None):
    """Params(d, s), or the log kernel when s is None, if a cap formula takes it
    (s >= d-2, or log at d = 2); otherwise None, after asserting the refusal."""
    if (d == 2) if s is None else s >= d - 2:
        return Params(d=d, s=s, log=s is None)
    with pytest.raises(ValueError, match="no cap solver"):
        Params(d=d, s=s, log=s is None)
    return None


def test_params_validation():
    Params(d=2, s=1.0)
    with pytest.raises(ValueError, match="no cap solver.*d = 2"):
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
    # every Params is d-2 < s < d, or is_exceptional (s = d-2, or log at d = 2)
    assert not Params(d=2, s=1.0).is_exceptional
    assert not Params(d=3, s=2.5).is_exceptional
    with pytest.raises(ValueError, match="no cap solver"):
        Params(d=4, s=1.0)
    assert Params(d=3, s=1.0).is_exceptional
    assert not Params(d=2, s=0.5).is_exceptional  # d=2 has no s=d-2 Riesz case
    for d in (3, 4, 5, 8):  # s = d-2 is a point: the next double up is d-2 < s < d
        above = Params(d=d, s=math.nextafter(d - 2.0, math.inf))
        assert not above.is_exceptional
        assert Params(d=d, s=d - 2.0).is_exceptional
    # at d = 2, 2 - 2^-53 rounds to 2: the edge exponent 1-(d-s)/2 is 0, in no regime
    with pytest.raises(ValueError, match="log kernel"):
        Params(d=2, s=2.0 ** -53)
    assert Params(d=2, log=True).log


@pytest.mark.parametrize("d, s", [(2, 2.0 ** -52), (2, 1.99), (3, 1.0),
                                  (3, math.nextafter(1.0, 2.0)), (2, None),
                                  *((d, d - 2.0) for d in range(3, 9))],
                         ids=["d2-2^-52", "d2-1.99", "d3-1", "d3-ulp-above-1", "d2-log",
                              *(f"d{d}-{d - 2}" for d in range(3, 9))])
def test_params_admits_the_cap_kernels(d, s):
    # d-2 < s < d with a positive edge exponent, s = d-2, and the log kernel at d = 2
    p = Params(d=d, s=s, log=s is None)
    assert p.is_exceptional == (s is None or s == d - 2.0) and 0.0 < p.balayage_constant < math.inf


@pytest.mark.parametrize("d, s, match", [
    (3, math.nextafter(1.0, 0.0), "no cap solver"), (4, 1.0, "no cap solver"),
    (5, 2.9, "no cap solver"), (2, 2.0 ** -53, "no cap solver.*log kernel$"),
    (3, None, "no cap solver.*log kernel at d = 2$")],
    ids=["d3-ulp-below-1", "d4-1", "d5-2.9", "d2-2^-53", "d3-log"])
def test_params_refuses_kernels_no_cap_formula_takes(d, s, match):
    with pytest.raises(ValueError, match=match) as err:
        Params(d=d, s=s, log=s is None)
    assert "cap formulas need d-2 <= s < d or the log kernel at d = 2" in str(err.value)


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
    # (at d >= 3 neither kernel has a cap formula, and Params refuses both)
    for d in (2, 3, 5):
        h = 1e-6
        riesz, log = cap_kernel(d, h), cap_kernel(d)
        if d > 2:
            assert riesz is None and log is None
            continue
        fd = (sphere_energy(riesz) - 1.0) / h  # W_0 energy of the sphere is 1
        assert fd == pytest.approx(sphere_energy(log), abs=1e-5)


@pytest.mark.parametrize("d", range(2, 13))
def test_gamma_closed_forms_against_40_digit_mpmath(d):
    # W_s, W_log, omega_d/omega_{d-1}, kappa on the diagonal (s < d-1) and
    # the Gauss sum 2F1(s/2, d/2; d; 1), each against its Gamma form in mpmath
    rng = np.random.default_rng(d)
    with mp.workdps(40):
        G, D = mp.gamma, mp.mpf(d)
        log_ref = (mp.digamma(D) - mp.digamma(D / 2)) / 2 - mp.log(2)
        if (log := cap_kernel(d)) is not None:  # the log kernel constructs at d = 2 only
            assert abs(sphere_energy(log) - log_ref) <= 1e-14
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
            if s <= 0.0 or (p := cap_kernel(d, s)) is None:  # s < d-2: refused
                continue
            S = mp.mpf(s)
            ref = ((1 - mp.mpf(u) ** 2) ** (-S / 2) * G(D / 2) * G(D - 1 - S)
                   / (G((D - S) / 2) * G(D - 1 - S / 2)))
            assert abs(kappa(u, u, p) / ref - 1) <= 1e-14, (s, u)


def test_sphere_energy_rounding_against_40_digit_mpmath():
    # W_s at four (d, s) where a sum of log gammas rounds badly, and on a seeded
    # grid of d <= 5
    rng = np.random.default_rng(5)
    cases = [(5, 3.61), (5, 3.44), (4, 2.08), (5, 3.88)]
    for d in range(2, 6):
        cases += [(d, float(s)) for s in rng.uniform(max(0.0, d - 2), d, size=100) if s > 0.0]
    with mp.workdps(40):
        for k, (d, s) in enumerate(cases):
            S, D = mp.mpf(s), mp.mpf(d)
            ref = mp.gamma(D) * mp.gamma((D - S) / 2) / (2 ** S * mp.gamma(D / 2) * mp.gamma(D - S / 2))
            bound = 4.5e-16 if k < 4 else 8e-16
            assert abs(sphere_energy(Params(d=d, s=s)) / ref - 1) <= bound, (d, s)


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
        if abs(u - xi) < 1e-3 or (p := cap_kernel(d, s)) is None:  # s < d-2: refused
            continue
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
    p = Params(d=4, s=2.2)  # s < d-1: finite on the diagonal
    val = kappa(0.3, 0.3, p)
    near = kappa(0.3, 0.3 + 1e-9, p)
    assert val == pytest.approx(near, rel=1e-5)
    with pytest.raises(ValueError):
        kappa(0.3, 0.3, Params(d=2, s=1.5))  # s >= d-1 diverges at u = xi


@pytest.mark.parametrize("d, s", [(2, 0.5), (3, 1.5), (4, 2.4), (5, 3.3), (3, 1.0), (4, 2.0),
                                  (4, 2.99)])
def test_kappa_near_the_diagonal_against_40_digit_mpmath(d, s):
    # rings 1e-10 to 1e-2 apart put the 2F1 argument z within that of 1;
    # 1 - z formed from the ring heights keeps kappa's digits, and rings one
    # ulp apart (z rounds to 1) still give a finite kernel
    p = Params(d=d, s=s)
    with mp.workdps(40):
        S = mp.mpf(s)
        for xi in (-0.9, -0.3, 0.3, 0.9):
            for gap in (1e-10, 1e-8, 1e-6, 1e-4, 1e-2):
                for u in (xi - gap, xi + gap):
                    lo, hi = sorted((mp.mpf(u), mp.mpf(xi)))
                    z = (1 + lo) * (1 - hi) / ((1 - lo) * (1 + hi))
                    ref = (((1 - lo) * (1 + hi)) ** (-S / 2)
                           * mp.hyp2f1(S / 2, 1 - (d - S) / 2, mp.mpf(d) / 2, z))
                    assert abs(kappa(u, xi, p) / ref - 1) <= 1e-13, (xi, u)
            assert 0.0 < kappa(xi, math.nextafter(xi, 1.0), p) < math.inf, xi


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
# cap integrals on the tanh-sinh rule


def cap_integral(t, a, gap, d):
    # int_{-1}^t (t-u)^a (omega_{d-1}/omega_d) (1-u^2)^{d/2-1} du, one row of the driver
    def f(nodes, rows):
        return surface_factor(d) * (nodes.one_plus_u * nodes.one_minus_u) ** (d / 2.0 - 1.0)
    return sphere._cap_integrals(np.array([t]), np.array([gap]), f, a + 1.0, False, str)[0][0]


def test_quadrature_full_sphere_mass():
    # the cap integral of 1 at t = 1 is the sigma_d mass of the sphere, and the
    # nodes keep their distances to both poles positive
    for d in (2, 3, 5):
        assert cap_integral(1.0, 0.0, math.inf, d) == pytest.approx(1.0, abs=1e-12)
    nodes, _, _ = sphere._tanh_sinh_nodes(1.0, math.inf)
    assert np.all(nodes.one_plus_u > 0.0) and np.all(nodes.one_minus_u > 0.0)


def test_quadrature_cap_mass_invariant():
    d, t = 3, 0.4
    got = cap_integral(t, 0.0, 1.0 - t, d)
    direct, err = integrate.quad(lambda u: (1.0 - u * u) ** (d / 2.0 - 1.0), -1.0, t)
    assert got == pytest.approx(surface_factor(d) * direct, rel=1e-12)


def test_quadrature_endpoint_singular_integrand():
    # (t-u)^{(s-d)/2} with d=2, s=1 integrates finitely; compare adaptive quad
    d, s, t = 2, 1.0, 0.2
    got = cap_integral(t, (s - d) / 2.0, math.inf, d)
    direct, err = integrate.quad(lambda u: (t - u) ** ((s - d) / 2.0), -1.0, t,
                                 epsabs=1e-12, epsrel=1e-11)
    assert got == pytest.approx(surface_factor(d) * direct, rel=1e-9)


def per_row(fns):
    # the integrand f(nodes, rows) of a batch whose row i integrates fns[i] over [-1, t_i]
    def f(nodes, rows):
        return np.stack([fns[i](u) for i, u in zip(rows[:, 0], nodes.u)])
    return f


def test_batch_rows_take_their_own_paths_to_their_one_row_values():
    # one batch holding a row that settles at the first step, a row that
    # oscillates until the step has halved twice, and a row graded toward a
    # pole 1e-3 beyond its edge: each row's value is the one that row gives
    # alone, bit for bit, and every value meets quad
    fns = [lambda u: 1.0 + u, lambda u: np.cos(40.0 * u), lambda u: 1.0 / (0.901 - u)]
    ts, gaps = np.array([0.3, 0.5, 0.9]), np.array([math.inf, math.inf, 1e-3])
    values, estimates, levels = sphere._cap_integrals(ts, gaps, per_row(fns), 1.0, False, str)
    assert levels.tolist() == [0, 2, 0]
    for i, fn in enumerate(fns):
        one = sphere._cap_integrals(ts[i:i + 1], gaps[i:i + 1], per_row([fn]), 1.0, False, str)
        assert (one[0][0], one[1][0], one[2][0]) == (values[i], estimates[i], levels[i])
        direct, err = integrate.quad(fn, -1.0, ts[i], epsabs=1e-13, epsrel=1e-13, limit=200)
        assert abs(values[i] - direct) <= 1e-12 * max(1.0, abs(direct)), i


def test_batch_row_that_cannot_settle_names_its_t():
    fns = [lambda u: 1.0 + u, lambda u: np.sign(np.sin(1e4 * u))]
    with pytest.raises(ConvergenceError) as info:
        sphere._cap_integrals(np.array([0.3, 0.25]), np.array([math.inf, math.inf]),
                              per_row(fns), 1.0, False, lambda i: f"row {i}")
    assert "row 1" in str(info.value) and "step 0.01" in str(info.value)


def test_unsettled_quadrature_names_the_integral(monkeypatch):
    # an eps_t row that never settles (no estimate meets a negative tolerance):
    # the error reports the step, the cap height, the charge and the estimate
    monkeypatch.setattr(sphere, "_TS_TOL", -1.0)
    with pytest.raises(ConvergenceError) as info:
        eps_norm(np.array([0.3, 0.25]), 1.5, Params(d=3, s=1.5))
    msg = str(info.value)
    assert "step 0.01" in msg and "t=0.3" in msg and "R=1.5" in msg and "estimate" in msg


def test_unsettled_cap_mass_names_its_edge():
    # a density that never settles: every step down to h = 0.01 misses, and the
    # error reports the cap height, the edge exponent and the last estimate
    m = CapMeasure(t=0.25, regular_part=lambda nodes: np.sign(np.sin(1e4 * nodes.u)),
                   singular_exponent=-0.25, gap=0.75, params=Params(d=3, s=1.5))
    with pytest.raises(ConvergenceError) as info:
        m.mass
    msg = str(info.value)
    assert "step 0.01" in msg and "t=0.25" in msg and "a=-0.25" in msg and "estimate" in msg
