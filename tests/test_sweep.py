"""Solver sweep across the paper's parameter range, and the 30-digit t0 references.

Every solve ends in the mass certificate of CapMeasure.mass, a cap
integral whose edge exponent (s-d)/2 nears -1 as s -> d-2.  It runs on a
tanh-sinh rule that does not depend on s, with the edge power split off in
closed form; so do the rows of ||eps_t||, with their left edge power
(1+u)^{s/2-1} split off.  The error estimates of both are checked here
against the rule at half the step.
"""

import json
import statistics
from pathlib import Path

import numpy as np
import pytest

from rieszcap import axis_field, cap_riesz, cli, sphere
from rieszcap.axis_field import axis_solve_t
from rieszcap.point_field import AxisMeasure
from rieszcap.specfun import ConvergenceError
from rieszcap.sphere import Params

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
# a point charge outside, two atoms, and a charge inside the sphere (taken where it lies)
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


# s = d-2+2^-k; 2^-52 is one ulp above d-2 only at d = 3 (3 + 2^-52 rounds to 3)
NEAR_EXCEPTIONAL_K = [(d, k) for k in (16, 24, 32, 36, 38, 39, 40, 44, 48, 51) for d in (3, 4, 5)]
NEAR_EXCEPTIONAL_K.append((3, 52))


@pytest.mark.parametrize("d, k", NEAR_EXCEPTIONAL_K,
                         ids=[f"{d}-{k}" for d, k in NEAR_EXCEPTIONAL_K])
def test_solves_with_unit_mass_as_s_decreases_to_d_minus_2(d, k):
    # every double above d-2 runs the d-2 < s < d formulas, eta's edge exponent (s-d)/2
    # within 2^-(k+1) of -1, and t0 comes down to the s = d-2 height tbar0 at a rate
    # of 0.19-0.48 (s - d + 2) on these fields
    for atoms in NEAR_EXCEPTIONAL_FIELDS:
        field = AxisMeasure(atoms)
        sol = axis_solve_t(field, Params(d=d, s=d - 2 + 2.0 ** -k))
        gap = sol.t0 - axis_solve_t(field, Params(d=d, s=float(d - 2))).t0
        assert abs(sol.equilibrium.mass - 1.0) <= 1e-14, (atoms, sol.equilibrium.mass)
        assert -4e-16 <= gap <= 0.6 * 2.0 ** -k + 4e-16, (atoms, gap)


@pytest.mark.parametrize("d", [3, 4, 5, 8])
def test_s_at_d_minus_2_plus_1e_12_takes_the_riesz_formulas(d, tmp_path):
    # the double nearest d-2+1e-12 lies above d-2: its edge exponent 1-(d-s)/2 is
    # positive, so it has the d-2 < s < d formulas and no ring charge
    params, field = Params(d=d, s=d - 2 + 1e-12), AxisMeasure([(1.5, 1.0)])
    assert params.s > d - 2 and not params.is_exceptional
    cli.run_scenario({"name": "case", "task": "phi-curve", "d": d,
                      "kernel": {"type": "riesz", "s": params.s},
                      "field": {"type": "point", "q": 1.0, "R": 1.5}, "grid": 2}, tmp_path)
    assert (tmp_path / "case_phi.csv").read_text().splitlines()[0] == "t,phi"
    sol = axis_solve_t(field, params)
    assert abs(sol.equilibrium.mass - 1.0) <= 1e-14
    assert 0.0 < sol.t0 - axis_solve_t(field, Params(d=d, s=d - 2.0)).t0 < 1e-12


@pytest.mark.parametrize("s", [1e-12, 1e-13, 2.0 ** -52], ids=["1e-12", "1e-13", "2^-52"])
def test_d2_riesz_solves_down_to_2_pow_minus_52_next_to_the_log_t0(s):
    # s -> 0+ at d = 2 tends to the log kernel: t0(s) - t0_log = 0.550 s to first order
    field = AxisMeasure([(1.5, 1.0)])
    sol = axis_solve_t(field, Params(d=2, s=s))
    assert abs(sol.equilibrium.mass - 1.0) <= 1e-14
    assert abs(sol.t0 - axis_solve_t(field, Params(d=2, log=True)).t0) <= 0.6 * s + 4e-16


@pytest.mark.parametrize("s", [2.0 ** -53, 1e-17, 1e-300], ids=["2^-53", "1e-17", "1e-300"])
def test_d2_riesz_below_2_pow_minus_52_names_the_log_kernel(s):
    # 2 - s rounds to 2 there, and so eta's edge exponent 1-(d-s)/2 to 0
    # Params refuses the kernel, before any solve
    with pytest.raises(ValueError, match="log kernel"):
        Params(d=2, s=s)


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
    # Newton on log H in log(1+t) from t = 0; axis_solve_t reads cap_riesz.h at call
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


ORACLE_T = (-0.5, 0.3, 0.9, 0.99, 1.0)


def test_eps_row_estimate_holds_against_half_step(monkeypatch):
    # every row of ||eps_t||, on the sweep grid and at s = d-2, as one batch over
    # the heights ORACLE_T: each settles at the first step, h = 0.08, and agrees
    # with the rule at half that step within the estimate it reports, which
    # meets 1e-12
    seen, integrals = [], sphere._cap_integrals

    def checked(t, gap, f, power, left, describe):
        values, estimates, levels = integrals(t, gap, f, power, left, describe)
        assert not levels.any(), (t, levels)
        with pytest.MonkeyPatch.context() as half_step:
            half_step.setattr(sphere, "_TS_RULES", sphere._TS_RULES[1:2])
            half_step.setattr(sphere, "_TS_LEVELS", 1)
            half = integrals(t, gap, f, power, left, describe)[0]
        bound = 1e-12 * np.maximum(1.0, np.abs(values))
        assert np.all(np.abs(values - half) <= estimates) and np.all(estimates <= bound), t
        seen.extend(t.tolist())
        return values, estimates, levels

    monkeypatch.setattr(cap_riesz, "_cap_integrals", checked)
    ts = np.array(ORACLE_T)
    grid = SWEEP + [(d, d - 2.0, R) for d in (3, 4, 5) for R in (1.1, 1.5, 3.0)]
    for d, s, R in grid:
        cap_riesz.eps_norm(ts, R, Params(d=d, s=s))
    assert len(seen) == len(grid) * (len(ORACLE_T) - 1)  # t = 1 is the closed form


def test_cap_mass_estimate_holds_against_half_step(monkeypatch):
    # every cap mass of nu_t, eps_t, eta_t and the log etabar_t, on the sweep grid
    # at the heights ORACLE_T, settles at the first step, h = 0.08, and agrees with
    # the rule at half that step within the estimate it reports, which meets 1e-12
    seen, measure, integrals = set(), [""], sphere._cap_integrals

    def checked(t, gap, f, power, left, describe):
        values, estimates, levels = integrals(t, gap, f, power, left, describe)
        value, estimate, level = values[0], estimates[0], levels[0]
        assert level == 0, (measure[0], t, power)
        with pytest.MonkeyPatch.context() as half_step:
            half_step.setattr(sphere, "_TS_RULES", sphere._TS_RULES[1:2])
            half_step.setattr(sphere, "_TS_LEVELS", 1)
            half = integrals(t, gap, f, power, left, describe)[0][0]
        assert abs(value - half) <= estimate <= 1e-12 * max(1.0, abs(value)), (measure[0], t, power)
        seen.add(measure[0] + (" mass at t = 1" if t[0] == 1.0 else " mass"))
        return values, estimates, levels

    monkeypatch.setattr(sphere, "_cap_integrals", checked)
    for d, s, R in SWEEP:
        p = Params(d=d, s=s)
        for t in ORACLE_T:
            measure[0] = "nu/eps"
            cap_riesz.nu_measure(t, p).mass
            cap_riesz.eps_measure(t, R, p).mass
            eta = cap_riesz.eta_measure(t, AxisMeasure([(R, 1.0)]), p)
            measure[0] = "eta"
            eta.mass
    plog = Params(d=2, log=True)
    measure[0] = "log"
    for R in (1.1, 1.5, 3.0):
        for t in ORACLE_T:
            cap_riesz.eta_measure(t, AxisMeasure([(R, 1.0)]), plog).mass
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
