import json
from pathlib import Path

import numpy as np
import pytest

from rieszcap import cli
from rieszcap.axis_field import axis_solve_t, regime
from rieszcap.cap_exceptional import log_eta_potential, log_etabar
from rieszcap.cap_riesz import eta_measure, eta_potential, phi
from rieszcap.point_field import AxisMeasure
from rieszcap.sphere import Params

GRID = 9
T_FIXED = 0.3


def scenario(task, d, kernel, field, **extra):
    return {"name": "case", "task": task, "d": d, "kernel": kernel, "field": field,
            "cap": {"mode": "fixed", "value": T_FIXED}, "grid": GRID, **extra}


RIESZ = ({"type": "riesz", "s": 1.2}, Params(d=2, s=1.2), AxisMeasure([(1.6, 0.8)]), 2)
EXCEPTIONAL = ({"type": "riesz", "s": 1.0}, Params(d=3, s=1.0), AxisMeasure([(2.0, 1.0)]), 3)
LOG = ({"type": "log"}, Params(d=2, log=True), AxisMeasure([(2.0, 1.0)]), 2)


def point(charge):
    (R, q), = charge.atoms
    return {"type": "point", "q": q, "R": R}


def read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def run_potential(tmp_path, case):
    kernel, params, charge, d = case
    cli.run_scenario(scenario("potential", d, kernel, point(charge)), tmp_path)
    _, pot = read_csv(tmp_path / "case_potential.csv")
    _, dens = read_csv(tmp_path / "case_density.csv")
    assert len(pot) == GRID and len(dens) == GRID
    return pot, dens


def assert_rel(got, want):
    assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


# ---------------------------------------------------------------------------
# curve rows against direct per-point calls of the public formulas


def test_riesz_curves_match_public_functions(tmp_path):
    pot, dens = run_potential(tmp_path, RIESZ)
    _, params, charge, _ = RIESZ
    F = phi(T_FIXED, charge, params)
    eta = eta_measure(T_FIXED, charge, params)
    for xi, val, f_col in pot:
        assert_rel(val, eta_potential(float(xi), eta, charge, params))
        assert_rel(f_col, F)
    for u, val, ring in dens:
        assert_rel(val, eta.radial_density(float(u)))
        assert ring == 0.0


def test_exceptional_density_matches_etabar(tmp_path):
    _, dens = run_potential(tmp_path, EXCEPTIONAL)
    _, params, charge, _ = EXCEPTIONAL
    m = regime(params).eta(T_FIXED, charge).with_mass(params)
    for u, val, ring in dens:
        assert_rel(val, m.radial_density(float(u)))
        assert_rel(ring, m.boundary_coeff)
    summary = json.loads(json.dumps(cli.run_scenario(
        scenario("density", 3, EXCEPTIONAL[0], point(charge)), tmp_path)))
    assert_rel(summary["F"], phi(T_FIXED, charge, params))


def test_exceptional_potential_matches_oracle(tmp_path):
    # the s = d-2 weighted potential against quadrature of the ring kernel,
    # on caps with a ring charge, where betainc(1, d/2-1, x) is 1 - (1-x)^{d/2-1}
    from rieszcap import oracle
    _, _, charge, _ = EXCEPTIONAL
    for d in (3, 4, 5):
        params = Params(d=d, s=float(d - 2))
        cfg = scenario("potential", d, {"type": "riesz", "s": d - 2.0}, point(charge), grid=3)
        cli.run_scenario(cfg, tmp_path)
        _, pot = read_csv(tmp_path / "case_potential.csv")
        m = regime(params).eta(T_FIXED, charge).with_mass(params)
        assert abs(m.boundary_coeff) > 1e-3
        for xi, val, _ in pot:
            direct = (oracle.potential_of(m, float(xi), params)
                      + float(oracle.external_field(float(xi), charge, params)))
            assert val == pytest.approx(direct, rel=1e-9)


def test_log_curves_match_public_functions(tmp_path):
    pot, dens = run_potential(tmp_path, LOG)
    _, params, charge, _ = LOG
    m = log_etabar(T_FIXED, charge, params)
    for xi, val, _ in pot:
        assert_rel(val, log_eta_potential(float(xi), m, charge, params))
    for u, val, ring in dens:
        assert_rel(val, m.radial_density(float(u)))
        assert_rel(ring, m.boundary_coeff)


def test_phi_curve_matches_public_functions(tmp_path):
    kernel, params, charge, d = RIESZ
    cfg = scenario("phi-curve", d, kernel, point(charge), grid=4)
    cli.run_scenario(cfg, tmp_path)
    header, rows = read_csv(tmp_path / "case_phi.csv")
    assert header == ["t", "phi"]
    for t, val in rows:
        assert_rel(val, phi(float(t), charge, params))


# ---------------------------------------------------------------------------
# determinism and exit codes


def test_rerun_is_byte_identical(tmp_path):
    cfg = scenario("potential", 2, RIESZ[0], point(RIESZ[2]))
    cfg["cap"] = {"mode": "solve"}
    first, second = tmp_path / "a", tmp_path / "b"
    cli.run_scenario(dict(cfg), first)
    cli.run_scenario(dict(cfg), second)
    names = sorted(p.name for p in first.iterdir())
    assert names == ["case_density.csv", "case_potential.csv"]
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def write_scenario(tmp_path, cfg):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return path


def test_main_exit_codes(tmp_path, capsys):
    ok = scenario("solve-support", 2, LOG[0], point(LOG[2]))
    assert cli.main(["run", str(write_scenario(tmp_path, ok))]) == 0
    assert json.loads((tmp_path / "case.json").read_text())["t0"] == pytest.approx(0.125)
    bad = dict(ok, task="nonsense")
    assert cli.main(["run", str(write_scenario(tmp_path, bad))]) == 2
    # the critical distance needs d >= 2: a numeric failure
    assert cli.main(["newton-distance", "--d", "1"]) == 3
    capsys.readouterr()


def test_rule_underflow_near_s_equal_d_minus_2_exits_0_or_3(tmp_path, capsys):
    # s - (d-2) = 2^-36: the mass certificate's Jacobi exponent (s-d)/2 sits
    # 7e-12 above -1, where the rule's endpoint distance underflows to 0
    cfg = {"name": "case", "task": "solve-support", "d": 3,
           "kernel": {"type": "riesz", "s": 1.0 + 2.0 ** -36},
           "field": {"type": "point", "q": 1.0, "R": 1.5}, "grid": GRID}
    assert cli.main(["run", str(write_scenario(tmp_path, cfg)), "--out", str(tmp_path)]) in (0, 3)
    capsys.readouterr()


def test_strong_field_small_cap_exits_0(tmp_path, capsys):
    # q = 1e14 puts t0 within 3e-11 of -1: the solve settles with unit mass,
    # and the density samples keep inside the cap, a gap of (1+t0)/4 from each end
    cfg = {"name": "case", "task": "solve-support", "d": 2, "kernel": {"type": "riesz", "s": 0.5},
           "field": {"type": "point", "q": 1e14, "R": 3.0}}
    assert cli.main(["run", str(write_scenario(tmp_path, cfg)), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "case.json").read_text())
    assert abs(payload["mass"] - 1.0) <= 1e-10
    us, dens = np.array(payload["density_samples"]).T
    assert len(us) == 50 and np.all(np.isfinite(dens)) and np.all(dens > 0.0)
    assert np.all((-1.0 < us) & (us < payload["t0"])) and np.all(np.diff(us) > 0.0)


def test_newton_distance_command(tmp_path, capsys):
    assert cli.main(["newton-distance", "--d", "2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("rho_plus(d=2) = 1.618033988749")
    payload = json.loads((tmp_path / "newton_distance_d2.json").read_text())
    assert payload["rho_plus"] == pytest.approx((1.0 + 5.0 ** 0.5) / 2.0, rel=1e-15)


@pytest.mark.parametrize("change", [
    {"cap": 0.3},
    {"cap": {"mode": "fixed"}},
    {"d": 2.7},
    {"grid": "abc"},
    {"grid": -3},
    {"kernel": {"type": "riesz", "s": True}},
    {"field": {"type": "point", "q": True, "R": 2.0}},
    {"field": {"type": "point", "q": 1.0, "R": "1.5"}},
    {"field": {"type": "axis", "atoms": [[1.5, True]]}},
    {"field": {"type": "point", "q": 1.0, "R": float("inf")}},
])
def test_malformed_scenario_exits_2(tmp_path, capsys, change):
    cfg = dict(scenario("density", 2, LOG[0], point(LOG[2])), **change)
    assert cli.main(["run", str(write_scenario(tmp_path, cfg))]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_non_object_scenario_exits_2_with_overrides(tmp_path, capsys):
    path = write_scenario(tmp_path, [1, 2])
    assert cli.main(["run", str(path), "--grid", "5"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# axis fields take every curve task


@pytest.mark.parametrize("case", [RIESZ, EXCEPTIONAL, LOG], ids=["riesz", "exceptional", "log"])
@pytest.mark.parametrize("task", ["density", "potential", "phi-curve"])
def test_one_atom_axis_field_matches_point_field(tmp_path, case, task):
    kernel, _, charge, d = case
    atom = {"type": "axis", "atoms": [list(a) for a in charge.atoms]}
    for field, sub in ((point(charge), "point"), (atom, "axis")):
        cli.run_scenario(scenario(task, d, kernel, field, grid=4), tmp_path / sub)
    names = sorted(p.name for p in (tmp_path / "point").iterdir())
    assert names and names == sorted(p.name for p in (tmp_path / "axis").iterdir())
    for name in names:
        assert (tmp_path / "point" / name).read_bytes() == (tmp_path / "axis" / name).read_bytes()


def test_committed_axis_scenarios_run(tmp_path, capsys):
    paths = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("axis_*.json"))
    assert len(paths) == 9
    for path in paths:
        assert cli.main(["run", str(path), "--grid", "5", "--out", str(tmp_path)]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# solve-support samples, out-of-range input, committed scenarios


FULL = AxisMeasure([(3.0, 0.05)])  # whole-sphere support in all three regimes


@pytest.mark.parametrize("case, charge, branch", [
    (RIESZ, RIESZ[2], "interior_root"), (EXCEPTIONAL, EXCEPTIONAL[2], "interior_root"),
    (LOG, LOG[2], "interior_root"), (RIESZ, FULL, "boundary_t_equals_1"),
    (EXCEPTIONAL, FULL, "boundary_t_equals_1"), (LOG, FULL, "boundary_t_equals_1"),
], ids=["riesz", "exceptional", "log", "riesz-full", "exceptional-full", "log-full"])
def test_solve_support_samples_match_per_point_density(tmp_path, case, charge, branch):
    # the density samples come from one vectorised call; each must equal the
    # scalar evaluation at its height
    kernel, params, _, d = case
    cli.run_scenario(scenario("solve-support", d, kernel, point(charge), grid=50), tmp_path)
    payload = json.loads((tmp_path / "case.json").read_text())
    assert payload["solved_by"] == branch
    assert len(payload["density_samples"]) == 50
    sol = axis_solve_t(charge, params)
    for u, val in payload["density_samples"]:
        want = sol.equilibrium.radial_density(float(u))
        assert abs(val - want) <= 1e-14 * abs(want)


def test_particles_with_too_few_points_exits_2(tmp_path, capsys):
    cfg = dict(scenario("particles", 2, RIESZ[0], point(RIESZ[2])), n=10, iters=3)
    assert cli.main(["run", str(write_scenario(tmp_path, cfg))]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_particles_off_s2_exits_2(tmp_path, capsys):
    cfg = dict(scenario("particles", 3, EXCEPTIONAL[0], point(EXCEPTIONAL[2])), n=60, iters=3)
    assert cli.main(["run", str(write_scenario(tmp_path, cfg))]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_particles_rerun_is_byte_identical(tmp_path):
    cfg = dict(scenario("particles", 2, RIESZ[0], point(RIESZ[2])), n=60, iters=20, seed=4)
    path = write_scenario(tmp_path, cfg)
    first, second = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", str(path), "--out", str(first)]) == 0
    assert cli.main(["run", str(path), "--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == ["case.json", "case_heights.csv"]
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_exceptional_phi_curve_near_the_sphere_reaches_t1(tmp_path):
    # the grid ends at t = 1, where ||eps_1|| has a closed form
    cfg = scenario("phi-curve", 3, EXCEPTIONAL[0], {"type": "point", "q": 1.0, "R": 1.1},
                   grid=200)
    assert cli.main(["run", str(write_scenario(tmp_path, cfg))]) == 0
    header, rows = read_csv(tmp_path / "case_phi.csv")
    assert header == ["t", "phibar"]
    assert rows.shape == (200, 2) and np.all(np.isfinite(rows))


@pytest.mark.parametrize("d, kernel", [(3, {"type": "riesz", "s": 0.5}), (3, {"type": "log"})],
                         ids=["riesz-below-d-2", "log-d3"])
def test_kernel_outside_the_regimes_exits_2(tmp_path, capsys, d, kernel):
    # d = 3, s = 0.5 with this field has a proper cap, which no regime solves
    cfg = scenario("solve-support", d, kernel, {"type": "point", "q": 1.0, "R": 1.2})
    assert cli.main(["run", str(write_scenario(tmp_path, cfg))]) == 2
    assert capsys.readouterr().err.startswith("error: ")


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
# minutes of oracle quadrature and particle descent: not tier-1 material
SLOW_SCENARIOS = {"reference_verify", "reference_particles"}


@pytest.mark.parametrize("path", [
    pytest.param(p, id=p.stem) for p in sorted(SCENARIOS.glob("*.json")) if p.stem not in SLOW_SCENARIOS])
def test_committed_scenario_runs(tmp_path, path):
    cli.run_scenario(json.loads(path.read_text()), tmp_path)


def test_committed_particle_scenario_runs_briefly(tmp_path):
    # reference_particles with 20 descent steps in place of its 2,500
    cfg = json.loads((SCENARIOS / "reference_particles.json").read_text())
    cfg["iters"] = 20
    cli.run_scenario(cfg, tmp_path)
    payload = json.loads((tmp_path / "reference_particles.json").read_text())
    assert payload["energy_monotone"] is True and payload["iters"] == 20
    _, heights = read_csv(tmp_path / "reference_particles_heights.csv")
    assert heights.shape == (cfg["n"], 1) and np.all(np.abs(heights) <= 1.0)


def test_phi_curve_batches_its_cap_integrals(tmp_path, monkeypatch):
    # a 200-point Riesz phi-curve integrates every (height, atom) row in one
    # batch per eps_norm form: a few integrate_radial calls per atom, not 200
    from rieszcap import cap_riesz
    calls, integrate_radial = [], cap_riesz.integrate_radial
    monkeypatch.setattr(cap_riesz, "integrate_radial",
                        lambda *a, **k: calls.append(a[1]) or integrate_radial(*a, **k))
    atoms = [[1.5, 0.5], [2.5, 0.7]]
    cfg = {"name": "curve", "task": "phi-curve", "d": 3, "kernel": {"type": "riesz", "s": 1.5},
           "field": {"type": "axis", "atoms": atoms}, "grid": 200}
    cli.run_scenario(cfg, tmp_path)
    assert 0 < len(calls) <= 4 * len(atoms)
    assert sum(len(t) for t in calls) == 2 * 199  # every height below 1, each atom


def test_csv_rows_are_the_bytes_of_per_value_formatting(tmp_path):
    # one %-format per row writes what _fmt gives value by value: signed zeros,
    # infinities, NaN, subnormals, Python floats and ints, and np.float64
    special = [0.0, -0.0, float("inf"), -float("inf"), float("nan"), 5e-324, -2.5e-310,
               2.2250738585072014e-308, 1.0 / 3.0, -1e300, 2, 0.1]
    values = special + [np.float64(x) for x in special]
    values += np.random.default_rng(7).standard_normal(200).tolist()
    values += list(np.random.default_rng(8).uniform(-1e-300, 1e-300, 200))  # np.float64
    rows = list(zip(values[0::3], values[1::3], values[2::3]))
    cli._write_csv(tmp_path / "rows.csv", ["a", "b", "c"], rows)
    expected = "\n".join(["a,b,c"] + [",".join(cli._fmt(v) for v in row) for row in rows]) + "\n"
    assert (tmp_path / "rows.csv").read_bytes() == expected.encode()
