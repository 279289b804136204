"""Solver sweep across the paper's parameter range, and the 30-digit t0 references.

Every solve ends in the mass certificate of CapMeasure.with_mass, a cap
integral whose edge exponent (s-d)/2 nears -1 as s -> d-2.  It runs on a
tanh-sinh rule that does not depend on s, with the edge power split off in
closed form, so a solve builds no Gauss-Jacobi rule; its error estimate is
checked here against the rule at half the step.  The Gauss-Jacobi rules of
||eps_t||'s rows are sized by their nearest singularity, and their error
bound is checked against the doubled order.
"""

import json
import math
import statistics
from pathlib import Path

import numpy as np
import pytest

from rieszcap import axis_field, cap_exceptional, cap_riesz, sphere
from rieszcap.axis_field import axis_solve_t
from rieszcap.point_field import AxisMeasure
from rieszcap.specfun import ConvergenceError
from rieszcap.sphere import Params, build_quadrature

SWEEP = [(d, d - 2 + 2 * f, R) for d in (2, 3, 4, 5) for f in (0.02, 0.1, 0.3, 0.5, 0.7, 0.9)
         for R in (1.1, 1.5, 3.0)]
# 30-digit roots of Delta for d = 2, s = 1, q = 1, from bench/t0_reference._terms
# with a bracketing solve on [0.99999, 1 - 1e-14]; the critical R is 1 + golden ratio
T0_R_2_61803 = 0.9999982966008790597985761
T0_R_2_6180339 = 0.9999999620992703723025914
EDGES = [  # t0 -> 1 at d = 2, s = 1 (with a 30-digit t0 where known); s = d-2; log
    (Params(d=2, s=1.0), 2.6, None),
    (Params(d=2, s=1.0), 2.615, None),
    (Params(d=2, s=1.0), 2.61803, T0_R_2_61803),
    (Params(d=2, s=1.0), 2.6180339, T0_R_2_6180339),
    (Params(d=2, s=1.0), 2.61803398, None),
    (Params(d=3, s=1.0), 1.5, None),
    (Params(d=2, log=True), 1.5, None),
]
# a point charge outside, two atoms, and a charge inside the sphere (solved by inversion)
NEAR_EXCEPTIONAL_FIELDS = ([(1.5, 1.0)], [(1.2, 0.3), (2.5, 1.0)], [(0.7, 0.5)])
REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "t0_reference.json").read_text())["cases"]


def assert_unit_mass(sol):
    assert abs(sol.equilibrium.mass - 1.0) <= 1e-10, (sol.t0, sol.equilibrium.mass)


@pytest.mark.parametrize("d, s, R", SWEEP, ids=[f"d{d}-s{s:.2f}-R{R}" for d, s, R in SWEEP])
def test_sweep_solves_with_unit_mass(d, s, R):
    assert_unit_mass(axis_solve_t(AxisMeasure([(R, 1.0)]), Params(d=d, s=s)))


@pytest.mark.parametrize("params, R, t0_ref", EDGES,
                         ids=["t0-0.99", "t0-0.999", "t0-1-2e-6", "t0-1-4e-8", "t0-1-4e-9",
                              "s-eq-d-2", "log"])
def test_sweep_edges_solve_with_unit_mass(params, R, t0_ref):
    sol = axis_solve_t(AxisMeasure([(R, 1.0)]), params)
    assert sol.solved_by == "interior_root"
    assert_unit_mass(sol)
    assert t0_ref is None or abs(sol.t0 - t0_ref) <= 2e-14


@pytest.mark.parametrize("k", [16, 24, 32, 36, 38, 39])
@pytest.mark.parametrize("d", [3, 4, 5])
def test_solves_with_unit_mass_as_s_decreases_to_d_minus_2(d, k):
    # s - d + 2 = 2^-k is above the 1e-12 that counts as s = d-2, so these run
    # the d-2 < s < d formulas with eta's edge exponent (s-d)/2 within 2^-(k+1) of -1;
    # 2^-39 lies just above that 1e-12
    for atoms in NEAR_EXCEPTIONAL_FIELDS:
        assert_unit_mass(axis_solve_t(AxisMeasure(atoms), Params(d=d, s=d - 2 + 2.0 ** -k)))


@pytest.mark.parametrize("q", [1e8, 1e10, 1e12])
@pytest.mark.parametrize("d, s, R", [(2, 0.5, 3.0), (3, 1.5, 1.5)])
def test_strong_fields_pass_the_mass_certificate_or_raise(d, s, R, q):
    # t0 near -1, a small cap: a solve returns mass(eta_t0) within 1e-10 of 1
    # or raises ConvergenceError, never a degraded answer and no other error
    try:
        sol = axis_solve_t(AxisMeasure([(R, q)]), Params(d=d, s=s))
    except ConvergenceError:
        return
    assert_unit_mass(sol)


def test_mass_certificate_raises_past_its_bound(monkeypatch):
    # mass(eta_t) = 1 identically; a mass outside the bound, here one that no
    # mass meets, is reported
    assert_unit_mass(axis_solve_t(AxisMeasure([(1.5, 1.0)]), Params(d=3, s=1.5)))
    monkeypatch.setattr(axis_field, "_MASS_TOL", -1.0)
    with pytest.raises(ConvergenceError, match="mass"):
        axis_solve_t(AxisMeasure([(1.5, 1.0)]), Params(d=3, s=1.5))


def test_delta_changes_sign_at_one_minus_4e8():
    # H - 1, which has the sign of -Delta, brackets the reference root within 1e-12
    field, params = AxisMeasure([(2.6180339, 1.0)]), Params(d=2, s=1.0)
    assert cap_riesz.h(T0_R_2_6180339 - 1e-12, field, params) < 1.0
    assert cap_riesz.h(T0_R_2_6180339 + 1e-12, field, params) > 1.0


def test_interior_solves_take_few_delta_evaluations(monkeypatch):
    # Newton on log H in log(1+t) from t = 0; regime() reads cap_riesz.h at call
    # time.  The solve counts H(1) and its iterates; eta_t0 evaluates H(t0) once more
    calls = []
    h = cap_riesz.h
    monkeypatch.setattr(cap_riesz, "h", lambda *a, **k: calls.append(a[0]) or h(*a, **k))
    counts = []
    for d, s, R in SWEEP:
        calls.clear()
        sol = axis_solve_t(AxisMeasure([(R, 1.0)]), Params(d=d, s=s))
        assert sol.delta_evals == len(calls) - 1 and calls[-1] == sol.t0
        if sol.solved_by == "interior_root":
            counts.append(sol.delta_evals)
            # log H is convex in log(1+t): every iterate after t = 0 lies on one side of t0
            after = np.array(calls[2:-1]) - sol.t0
            tol = 1e-14 + 8.9e-16 * abs(sol.t0)
            assert np.all(after >= -tol) or np.all(after <= tol), (d, s, R, after)
    assert statistics.median(counts) <= 7 and max(counts) <= 12, counts


def test_t0_edge_cases_sit_near_one():
    for R, lo in ((2.6, 0.99), (2.615, 0.998)):
        t0 = axis_solve_t(AxisMeasure([(R, 1.0)]), Params(d=2, s=1.0)).t0
        assert lo < t0 < 1.0


@pytest.mark.parametrize("case", REFERENCES, ids=[f"d{c['d']}-s{c['s']}-q{c['q']}-R{c['R']}"
                                                  for c in REFERENCES])
def test_t0_matches_30_digit_reference(case):
    # the bound of test_solve_t0_exceptional_against_30_digit_references:
    # twice the stopping tolerance of the Newton solve, which reports its
    # last step in t as t0's error estimate
    sol = axis_solve_t(AxisMeasure([(case["R"], case["q"])]), Params(d=case["d"], s=case["s"]))
    assert abs(sol.t0 - float(case["t0"])) <= 2e-14
    assert sol.t0_error <= 1e-14


@pytest.mark.parametrize("params, R, solved_by",
                         [(Params(d=3, s=1.7), 1.5, "interior_root"),
                          (Params(d=2, s=1.0), 1.5, "interior_root"),
                          (Params(d=5, s=4.5), 3.0, "boundary_t_equals_1")],
                         ids=["interior", "interior-d2", "whole-sphere"])
def test_solve_builds_one_rule_per_integral_family(params, R, solved_by, monkeypatch):
    # H and eta's mass both run on the tanh-sinh rule that does not depend on s:
    # a solve, interior or whole-sphere, calls _gauss_jacobi zero times
    built, build = [], sphere._gauss_jacobi
    monkeypatch.setattr(sphere, "_RULES", {})
    monkeypatch.setattr(sphere, "_gauss_jacobi",
                        lambda order, pairs: built.extend(pairs) or build(order, pairs))
    assert axis_solve_t(AxisMeasure([(R, 1.0)]), params).solved_by == solved_by
    assert built == []


COLD = [Params(d=2, s=1.0), Params(d=3, s=1.7), Params(d=4, s=2.9), Params(d=5, s=3.6),
        Params(d=3, s=1.0), Params(d=4, s=2.0)]


def _solve_record(params):
    # t0, Phi(t0), mass and density samples of the point-charge solve at R = 1.5
    sol = axis_solve_t(AxisMeasure([(1.5, 1.0)]), params)
    assert sol.solved_by == "interior_root"
    u = sol.t0 - (1.0 + sol.t0) * np.linspace(0.01, 0.99, 9)
    return sol.t0, sol.phi_at_t0, sol.equilibrium.mass, sol.equilibrium.radial_density(u).tolist()


@pytest.mark.parametrize("params", COLD, ids=[f"d{p.d}-s{p.s}" for p in COLD])
def test_cold_solve_builds_its_rules_in_one_pass(params, monkeypatch):
    # with the Gauss-Jacobi cache empty, a solve at a new s requests no rule at
    # all, and its answer is bit for bit that of a repeated (warm) solve
    requests, rules = [], sphere._jacobi_rules
    monkeypatch.setattr(sphere, "_RULES", {})
    monkeypatch.setattr(sphere, "_jacobi_rules",
                        lambda order, pairs: requests.append(pairs) or rules(order, pairs))
    cold = _solve_record(params)
    assert requests == [] and sphere._RULES == {}
    assert _solve_record(params) == cold


ORACLE_T = (-0.5, 0.3, 0.9, 0.99, 1.0)


def test_one_rule_bound_holds_against_doubled_order(monkeypatch):
    # every Gauss-Jacobi cap integral, the rows of ||eps_t||'s two forms, on the
    # sweep grid as one batch per form over the heights ORACLE_T: every row's
    # a-priori rule agrees with the rule of twice its order within the bound it
    # reports, and that bound meets the 1e-12 tolerance
    seen = set()

    def checked(f, t, params, singular_exponent=0.0, *, left_exponent=None, singular_height):
        ts, _ = sphere._entries(t)
        heights, shape = sphere._entries(singular_height)
        heights = heights if shape else heights * len(ts)
        values, bounds, orders = sphere._one_rule(f, ts, params, singular_exponent,
                                                  left_exponent, heights)
        for i, (x, value, bound, order) in enumerate(zip(ts, values, bounds, orders)):
            # on [-1, t], or in v = -u on [-1, -t]
            name = "direct eps" if left_exponent == params.s / 2.0 - 1.0 else "complement eps"
            assert not math.isnan(bound), (name, x, params, heights[i])  # no doubling
            nodes, w = build_quadrature([x], params, 2 * order, singular_exponent,
                                        left_exponent=left_exponent)
            doubled = float(w[0] @ f(nodes, np.array([i]))[0])
            assert abs(value - doubled) <= bound <= 1e-12 * max(1.0, abs(value)), (name, x, params)
            seen.add(name)
        return values[0] if np.ndim(t) == 0 else np.array(values)

    monkeypatch.setattr(cap_riesz, "integrate_radial", checked)
    ts = np.array(ORACLE_T)
    for d, s, R in SWEEP:
        cap_riesz.eps_norm(ts, R, Params(d=d, s=s))
    assert seen == {"direct eps", "complement eps"}, seen


def test_cap_mass_estimate_holds_against_half_step(monkeypatch):
    # every cap mass of nu_t, eps_t, eta_t and the log etabar_t, on the sweep grid
    # at the heights ORACLE_T, settles at the first step, h = 0.08, and agrees with
    # the rule at half that step within the estimate it reports, which meets 1e-12
    seen, measure, integral = set(), [""], sphere._cap_integral

    def checked(t, a, gap, f, params):
        value, estimate, level = integral(t, a, gap, f, params)
        assert level == 0, (measure[0], t, params)
        with pytest.MonkeyPatch.context() as half_step:
            half_step.setattr(sphere, "_TS_RULES", sphere._TS_RULES[1:2])
            half_step.setattr(sphere, "_TS_LEVELS", 1)
            half = integral(t, a, gap, f, params)[0]
        assert abs(value - half) <= estimate <= 1e-12 * max(1.0, abs(value)), (measure[0], t, params)
        seen.add(measure[0] + (" mass at t = 1" if t == 1.0 else " mass"))
        return value, estimate, level

    monkeypatch.setattr(sphere, "_cap_integral", checked)
    for d, s, R in SWEEP:
        p = Params(d=d, s=s)
        for t in ORACLE_T:
            measure[0] = "nu/eps"
            cap_riesz.nu_measure(t, p).with_mass(p)
            cap_riesz.eps_measure(t, R, p).with_mass(p)
            eta = cap_riesz.eta_measure(t, AxisMeasure([(R, 1.0)]), p)
            measure[0] = "eta"
            eta.with_mass(p)
    plog = Params(d=2, log=True)
    measure[0] = "log"
    for R in (1.1, 1.5, 3.0):
        for t in ORACLE_T:
            cap_exceptional.log_etabar(t, AxisMeasure([(R, 1.0)]), plog).with_mass(plog)
    assert seen == {"nu/eps mass", "nu/eps mass at t = 1", "eta mass", "eta mass at t = 1",
                    "log mass", "log mass at t = 1"}, seen


HIGH_D = [(d, d - f) for d in (24, 32, 48, 64) for f in (2.0, 1.9, 1.0, 0.1)]


@pytest.mark.parametrize("d, s", HIGH_D, ids=[f"d{d}-s{s}" for d, s in HIGH_D])
def test_high_dimension_solves_with_unit_mass(d, s):
    # the surface factor (1-u^2)^{d/2-1} narrows as d grows, and the cap masses
    # halve their tanh-sinh step until they settle: from d = 24 on, some take h = 0.04
    for R, q in ((1.5, 1.0), (3.0, 10.0), (0.6, 0.5)):
        sol = axis_solve_t(AxisMeasure([(R, q)]), Params(d=d, s=s))
        assert abs(sol.equilibrium.mass - 1.0) <= 1e-13, (R, q, sol.t0, sol.equilibrium.mass)
