import json
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from rieszcap import cli
from rieszcap.axis_field import axis_solve_t
from rieszcap.cap_riesz import eta_measure, phi, weighted_potential
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
        assert_rel(val, weighted_potential(float(xi), eta))
        assert_rel(f_col, F)
    for u, val, ring in dens:
        assert_rel(val, eta.radial_density(float(u)))
        assert ring == 0.0


def test_exceptional_density_matches_etabar(tmp_path):
    _, dens = run_potential(tmp_path, EXCEPTIONAL)
    _, params, charge, _ = EXCEPTIONAL
    m = eta_measure(T_FIXED, charge, params)
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
        m = eta_measure(T_FIXED, charge, params)
        assert abs(m.boundary_coeff) > 1e-3
        for xi, val, _ in pot:
            direct = (oracle.potential_of(m, float(xi))
                      + float(oracle.external_field(float(xi), charge, params)))
            assert val == pytest.approx(direct, rel=1e-9)


def test_log_curves_match_public_functions(tmp_path):
    pot, dens = run_potential(tmp_path, LOG)
    _, params, charge, _ = LOG
    m = eta_measure(T_FIXED, charge, params)
    for xi, val, _ in pot:
        assert_rel(val, weighted_potential(float(xi), m))
    for u, val, ring in dens:
        assert_rel(val, m.radial_density(float(u)))
        assert_rel(ring, m.boundary_coeff)


@pytest.mark.parametrize("case", [RIESZ, EXCEPTIONAL, LOG], ids=["riesz", "s=d-2", "log"])
def test_potential_curve_is_one_call(tmp_path, monkeypatch, case):
    # the 200-point potential curve is one batch call of the kernel's potential
    kernel, params, charge, d = case
    calls, potential = [], cli.cap_riesz.weighted_potential
    monkeypatch.setattr(cli.cap_riesz, "weighted_potential",
                        lambda xi, *a: calls.append(np.shape(xi)) or potential(xi, *a))
    cli.run_scenario(scenario("potential", d, kernel, point(charge), grid=200), tmp_path)
    assert calls == [(200,)]
    _, pot = read_csv(tmp_path / "case_potential.csv")
    assert len(pot) == 200


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
    # the critical distance needs d >= 2: an option off its range
    assert cli.main(["newton-distance", "--d", "1"]) == 2
    capsys.readouterr()


def test_rule_underflow_near_s_equal_d_minus_2_exits_0_or_3(tmp_path, capsys):
    # s - (d-2) = 2^-36 puts the mass certificate's edge exponent (s-d)/2
    # 7e-12 above -1; the cap integral splits that edge power off in closed
    # form, so the solve exits 0
    cfg = {"name": "case", "task": "solve-support", "d": 3,
           "kernel": {"type": "riesz", "s": 1.0 + 2.0 ** -36},
           "field": {"type": "point", "q": 1.0, "R": 1.5}, "grid": GRID}
    assert cli.main(["run", str(write_scenario(tmp_path, cfg)), "--out", str(tmp_path)]) == 0
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


@pytest.mark.parametrize("d", [3, 4, 5, 6, 7, 8, 50, 100, 200, 400])
def test_newton_distance_residual_is_relative(tmp_path, capsys, d):
    # the residual is P(d; rho_+) over the size of its terms, so a root within
    # an ulp reads small at every d; rho_+ agrees with P's 60-digit root
    assert cli.main(["newton-distance", "--d", str(d), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / f"newton_distance_d{d}.json").read_text())
    assert sorted(payload) == ["d", "polynomial_residual", "rho_plus"] and payload["d"] == d
    assert abs(payload["polynomial_residual"]) <= 1e-12
    with mp.workdps(60):
        root = mp.findroot(lambda x: (x ** d - 2 - x) + x ** d / (x + 1) ** (d - 1),
                           mp.mpf(payload["rho_plus"]))
        assert abs(payload["rho_plus"] - root) <= 1e-15


@pytest.mark.parametrize("d", [1, 0, -3])
def test_newton_distance_below_d_2_exits_2(tmp_path, capsys, d):
    # --d 1 exited 3 as a numeric failure; a setting off its range exits 2
    assert cli.main(["newton-distance", "--d", str(d), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: newton-distance needs --d >= 2, got {d}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["../x", "a/b", "", ".."], ids=["up-x", "a-b", "empty", "up"])
def test_scenario_name_must_be_a_plain_file_name(tmp_path, capsys, name):
    # "../escaped" with --out out/sub exited 0 and wrote out/escaped.json: a name
    # that is not a plain file name exits 2 before anything is written
    cfg = dict(scenario("solve-support", 2, RIESZ[0], point(RIESZ[2])), name=name)
    path = write_scenario(tmp_path, cfg)
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "out" / "sub"
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: name must be a plain file name, got {name!r}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_newton_distance_is_no_scenario_task(tmp_path, capsys):
    # the subcommand is the one entry point; a scenario naming the task is refused
    cfg = {"name": "case", "task": "newton-distance", "d": 2, "newton_d": 2}
    assert cli.main(["run", str(write_scenario(tmp_path, cfg)), "--out", str(tmp_path)]) == 2
    assert "unknown task 'newton-distance'" in capsys.readouterr().err


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


@pytest.mark.parametrize("task, change, flags", [
    ("particles", {"iters": -5}, []),
    ("particles", {"iters": 0}, []),
    ("particles", {"seed": -1}, []),
    ("particles", {}, ["--seed", "-1"]),
    ("verify", {}, ["--tol", "nan"]),
    ("verify", {}, ["--tol", "-1"]),
    ("verify", {}, ["--tol", "inf"]),
    ("verify", {"tol": 0.0}, []),
], ids=["iters-5", "iters0", "seed-1", "seed-1-flag", "tol-nan", "tol-1", "tol-inf", "tol0"])
def test_settings_off_their_range_exit_2(tmp_path, capsys, task, change, flags):
    # iters -5 wrote an undescended gas with a vacuous energy_monotone and exit 0,
    # seed -1 exited 3 from numpy, and tol nan or -1 exited 0 with "passed": false
    # (nan written as NaN, which is not strict JSON)
    # verify runs the oracle, which takes s < d-1
    kernel = RIESZ[0] if task == "particles" else {"type": "riesz", "s": 0.5}
    cfg = dict(scenario(task, 2, kernel, point(RIESZ[2])), n=60, **change)
    out = tmp_path / "out"
    assert cli.main(["run", str(write_scenario(tmp_path, cfg)), "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(out.iterdir())


def test_particles_off_s2_exits_2(tmp_path, capsys):
    cfg = dict(scenario("particles", 3, EXCEPTIONAL[0], point(EXCEPTIONAL[2])), n=60, iters=3)
    assert cli.main(["run", str(write_scenario(tmp_path, cfg))]) == 2
    assert capsys.readouterr().err.startswith("error: ")


INTERIOR_LOG = {"type": "point", "q": 1.0, "R": 0.6}


@pytest.mark.parametrize("task", ["solve-support", "density", "potential", "phi-curve", "verify"])
def test_interior_log_charge_exits_0(tmp_path, task):
    # a log charge at R = 0.6 is the one at 1/0.6 plus the constant -log 0.6 in
    # the field: the same cap (t0 = 1/15), and F shifted by -log 0.6
    outputs = []
    for R in (0.6, 1.0 / 0.6):
        cfg = scenario(task, 2, LOG[0], dict(INTERIOR_LOG, R=R), cap={"mode": "solve"},
                       grid=41, tol=1e-5)
        out = tmp_path / str(R)
        assert cli.main(["run", str(write_scenario(tmp_path, cfg)), "--out", str(out)]) == 0
        outputs.append(out)
    inner, outer = outputs
    shift = -np.log(0.6)
    if task in ("solve-support", "verify"):
        got, want = (json.loads((out / "case.json").read_text()) for out in outputs)
        assert abs(got["t0"] - 1.0 / 15.0) <= 1e-15 and abs(got["t0"] - want["t0"]) <= 1e-15
    if task == "solve-support":
        assert abs(got["phi_at_t0"] - (want["phi_at_t0"] + shift)) <= 1e-14
    if task == "verify":
        assert got["passed"] is True
    if task in ("density", "potential"):
        (_, got), (_, want) = (read_csv(out / "case_density.csv") for out in outputs)
        np.testing.assert_allclose(got[:, 1], want[:, 1], rtol=1e-13)
    if task == "potential":
        (_, got), (_, want) = (read_csv(out / "case_potential.csv") for out in outputs)
        np.testing.assert_allclose(got[:, 1:], want[:, 1:] + shift, rtol=0, atol=1e-14)
    if task == "phi-curve":
        (_, got), (_, want) = (read_csv(out / "case_phi.csv") for out in outputs)
        np.testing.assert_allclose(got[:, 1], want[:, 1] + shift, rtol=0, atol=1e-14)


def test_particles_take_an_interior_log_charge(tmp_path, capsys):
    # the particle gas sums the field as given
    cfg = dict(scenario("particles", 2, LOG[0], INTERIOR_LOG), n=50, iters=3)
    assert cli.main(["run", str(write_scenario(tmp_path, cfg))]) == 0
    assert json.loads((tmp_path / "case.json").read_text())["energy_monotone"] is True


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
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if kernel["type"] == "log":
        assert "d = 2" in err


@pytest.mark.parametrize("s, code", [(1e-13, 0), (2.0 ** -53, 2), (1e-17, 2)],
                         ids=["1e-13", "2^-53", "1e-17"])
def test_d2_riesz_near_0_solves_or_names_the_log_kernel(tmp_path, capsys, s, code):
    # 0 < s < 2 is the Riesz range at d = 2, down to where 1-(d-s)/2 rounds to 0
    cfg = {"name": "case", "task": "solve-support", "d": 2, "kernel": {"type": "riesz", "s": s},
           "field": {"type": "point", "q": 1.0, "R": 1.5}, "grid": GRID}
    assert cli.main(["run", str(write_scenario(tmp_path, cfg)), "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert "log kernel" in err if code == 2 else err == ""


@pytest.mark.parametrize("d, s, t, code", [(5, 3.2, 1.0 - 1e-6, 3), (3, 1.0, 0.9999, 3),
                                           (4, 3.5, 0.999, 0)],
                         ids=["mass-off-4.7e-2", "mass-off-4.0e-10", "mass-off-7.7e-11"])
def test_fixed_cap_eta_carries_the_mass_certificate(tmp_path, capsys, d, s, t, code):
    # a charge 1e-4 from the sphere: eta_t's two parts cancel near the pole, and an
    # eta_t whose mass is off 1 by over 1e-10 is a numeric failure, not an artifact
    near = {"type": "point", "q": 1.0, "R": 1.0001}
    cfg = scenario("density", d, {"type": "riesz", "s": s}, near, cap={"mode": "fixed", "value": t})
    assert cli.main(["run", str(write_scenario(tmp_path, cfg)), "--out", str(tmp_path)]) == code
    err = capsys.readouterr().err
    if code == 3:
        assert err.startswith("numeric-failure: mass(eta_t) - 1 = ") and f"at t = {t!r}" in err
    assert (tmp_path / "case_density.csv").exists() == (code == 0)


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
    assert payload["energy_evals"] >= 21
    _, heights = read_csv(tmp_path / "reference_particles_heights.csv")
    assert heights.shape == (cfg["n"], 1) and np.all(np.abs(heights) <= 1.0)


def test_phi_curve_batches_its_cap_integrals(tmp_path, monkeypatch):
    # a 200-point Riesz phi-curve integrates every (height, atom) row in one
    # eps_norm batch on the tanh-sinh rule, not 200
    from rieszcap import cap_riesz
    calls, integrals = [], cap_riesz._cap_integrals
    monkeypatch.setattr(cap_riesz, "_cap_integrals",
                        lambda t, *a: calls.append(len(t)) or integrals(t, *a))
    atoms = [[1.5, 0.5], [2.5, 0.7]]
    cfg = {"name": "curve", "task": "phi-curve", "d": 3, "kernel": {"type": "riesz", "s": 1.5},
           "field": {"type": "axis", "atoms": atoms}, "grid": 200}
    cli.run_scenario(cfg, tmp_path)
    assert calls == [2 * 199]  # every height below 1, each atom


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


def test_csv_constant_columns_are_the_bytes_of_per_value_formatting(tmp_path):
    # a column that holds one value on every row is formatted once per file
    rows = [(0.1, -0.0), (float("nan"), 5e-324), (np.float64(1.0 / 3.0), 2)]
    for const in (0.0, -0.0, float("inf"), float("nan"), -2.5e-310, 1.0 / 3.0, np.float64(-1e300)):
        cli._write_csv(tmp_path / "rows.csv", ["a", "b", "c"], rows, [const])
        expected = "\n".join(["a,b,c"] + ["%.17g,%.17g,%.17g" % (*row, const) for row in rows])
        assert (tmp_path / "rows.csv").read_bytes() == (expected + "\n").encode()


@pytest.mark.parametrize("case", [RIESZ, EXCEPTIONAL, LOG], ids=["riesz", "s=d-2", "log"])
def test_curve_csvs_are_per_row_formatting(tmp_path, case):
    # every row of the three curve kinds reads as %.17g of each value, and the
    # constant columns hold F and boundary_coeff
    kernel, params, charge, d = case
    summary = cli.run_scenario(scenario("potential", d, kernel, point(charge)), tmp_path)
    cli.run_scenario(scenario("phi-curve", d, kernel, point(charge)), tmp_path)
    if case is EXCEPTIONAL:  # the fixed cap carries a ring charge: a nonzero column
        assert summary["boundary_coeff"] != 0.0
    for kind, constant in (("potential", summary["F"]),
                           ("density", summary["boundary_coeff"]), ("phi", None)):
        lines = (tmp_path / f"case_{kind}.csv").read_text().splitlines()
        assert len(lines) == GRID + 1
        for line in lines[1:]:
            cells = line.split(",")
            assert cells == ["%.17g" % float(v) for v in cells]
            assert constant is None or cells[-1] == "%.17g" % constant
