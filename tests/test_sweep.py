"""Solver sweep across the paper's parameter range, and the 30-digit t0 references.

Every solve ends in the mass certificate of CapMeasure.with_mass, a cap
integral at tol 1e-12 whose Jacobi exponent (s-d)/2 nears -1 as s -> d-2.
"""

import json
from pathlib import Path

import pytest

from rieszcap.axis_field import axis_solve_t
from rieszcap.point_field import AxisMeasure
from rieszcap.sphere import Params

SWEEP = [(d, d - 2 + 2 * f, R) for d in (2, 3, 4, 5) for f in (0.02, 0.1, 0.3, 0.5, 0.7, 0.9)
         for R in (1.1, 1.5, 3.0)]
EDGES = [  # t0 -> 1 at d = 2, s = 1; s = d-2; log
    (Params(d=2, s=1.0), 2.6),
    (Params(d=2, s=1.0), 2.615),
    (Params(d=3, s=1.0), 1.5),
    (Params(d=2, log=True), 1.5),
]
REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "t0_reference.json").read_text())["cases"]


def assert_unit_mass(sol):
    assert abs(sol.equilibrium.mass - 1.0) <= 1e-10, (sol.t0, sol.equilibrium.mass)


@pytest.mark.parametrize("d, s, R", SWEEP, ids=[f"d{d}-s{s:.2f}-R{R}" for d, s, R in SWEEP])
def test_sweep_solves_with_unit_mass(d, s, R):
    assert_unit_mass(axis_solve_t(AxisMeasure([(R, 1.0)]), Params(d=d, s=s)))


@pytest.mark.parametrize("params, R", EDGES, ids=["t0-0.99", "t0-0.999", "s-eq-d-2", "log"])
def test_sweep_edges_solve_with_unit_mass(params, R):
    sol = axis_solve_t(AxisMeasure([(R, 1.0)]), params)
    assert sol.solved_by == "interior_root"
    assert_unit_mass(sol)


def test_t0_edge_cases_sit_near_one():
    for R, lo in ((2.6, 0.99), (2.615, 0.998)):
        t0 = axis_solve_t(AxisMeasure([(R, 1.0)]), Params(d=2, s=1.0)).t0
        assert lo < t0 < 1.0


@pytest.mark.parametrize("case", REFERENCES, ids=[f"d{c['d']}-s{c['s']}-q{c['q']}-R{c['R']}"
                                                  for c in REFERENCES])
def test_t0_matches_30_digit_reference(case):
    # the bound of test_solve_t0_exceptional_against_30_digit_references:
    # twice the xtol of the Brent solve
    sol = axis_solve_t(AxisMeasure([(case["R"], case["q"])]), Params(d=case["d"], s=case["s"]))
    assert abs(sol.t0 - float(case["t0"])) <= 2e-14
