"""Command-line front end: scenario files in, CSV/JSON artifacts out.

One scenario JSON per invocation; outputs are deterministic (17 significant
digits, fixed key order, no timestamps) so reruns are byte-identical.

Scenario schema::

    {
      "name": "fig1_below",                  # basename for output files
      "task": "density" | "potential" | "phi-curve" | "solve-support"
              | "verify" | "particles" | "newton-distance",
      "d": 2,                                # integer >= 2
      "kernel": {"type": "riesz", "s": 0.5} | {"type": "log"},
      "field":  {"type": "point", "q": 1.0, "R": 1.5}
              | {"type": "axis", "atoms": [[R1, m1], [R2, m2], ...]},
      "cap":    {"mode": "solve"}            # use the solved support height
              | {"mode": "fixed", "value": 0.2}
              | {"mode": "offset", "value": -0.2},   # relative to solved t0
      "grid": 200,          # positive integer: curve resolution / verification grid
      "tol": 1e-5,          # verification tolerance
      "seed": 0, "n": 800, "iters": 2500,    # particles task (d = 2; integers, n >= 50;
                                             #   default seed 0, n 800, iters 2000)
      "newton_d": 2                          # newton-distance task
    }

Every task takes either field type; a point charge is the one-atom axis
field.  ``density`` and ``potential`` evaluate the signed cap equilibrium
eta_t at the cap height, ``phi-curve`` the regime's cap functional (phi,
phibar or F0) on a height grid in one batched call.  Curve tasks write ``<name>_potential.csv``
(xi, weighted potential, F), ``<name>_density.csv`` (u, density,
boundary_coeff) and ``<name>_phi.csv``; scalar tasks write ``<name>.json``.
Exit codes: 0 success, 2 malformed scenario (a kernel outside the three
solvable regimes d-2 < s < d, s = d-2 with d >= 3 and log with d = 2
included), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from rieszcap import oracle, point_field
from rieszcap.axis_field import AxisMeasure, axis_solve_t, regime
from rieszcap.specfun import ConvergenceError
from rieszcap.sphere import CapMeasure, Params

__all__ = ["main", "run_scenario", "ScenarioError"]


class ScenarioError(ValueError):
    """Malformed scenario configuration."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _number(val, what: str, kind: type = float):
    # val as an int or a float; JSON booleans and strings are neither
    allowed = (int, float) if kind is float else int
    if isinstance(val, bool) or not isinstance(val, allowed):
        raise ScenarioError(f"{what} must be {kind.__name__}, got {val!r}")
    return kind(val)


def _value(cfg: dict, key: str, kind: type, default=None):
    return _number(cfg.get(key, default), key, kind)


def _grid(cfg: dict, default: int) -> int:
    n = _value(cfg, "grid", int, default)
    if n < 1:
        raise ScenarioError(f"grid must be positive, got {n}")
    return n


def _parse_params(cfg: dict) -> Params:
    d = _value(cfg, "d", int)
    try:
        kernel = cfg["kernel"]
        ktype = kernel["type"]
        if ktype == "riesz":
            params = Params(d=d, s=_number(kernel["s"], "s"))
        elif ktype == "log":
            params = Params(d=d, log=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"missing or malformed kernel: {exc}") from exc
    if ktype not in ("riesz", "log"):
        raise ScenarioError(f"unknown kernel type {ktype!r}")
    try:
        regime(params)  # one of the three solvable kernel regimes
    except ValueError as exc:
        raise ScenarioError(f"unsupported kernel: {exc}") from exc
    return params


def _parse_field(cfg: dict) -> AxisMeasure:
    try:
        fcfg = cfg["field"]
        ftype = fcfg["type"]
    except (KeyError, TypeError) as exc:
        raise ScenarioError(f"missing or malformed field: {exc}") from exc
    try:
        if ftype == "point":
            return AxisMeasure([(_number(fcfg["R"], "R"), _number(fcfg["q"], "q"))])
        if ftype == "axis":
            return AxisMeasure([(_number(R, "R"), _number(m, "m")) for R, m in fcfg["atoms"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad field: {exc}") from exc
    raise ScenarioError(f"unknown field type {ftype!r}")


def _scenario_eta(cfg: dict, field: AxisMeasure, params: Params) -> CapMeasure:
    # eta_t at the scenario's cap height: the extremal measure when solved
    cap = cfg.get("cap", {"mode": "solve"})
    if not isinstance(cap, dict):
        raise ScenarioError(f"cap must be an object, got {cap!r}")
    mode = cap.get("mode", "solve")
    if mode not in ("solve", "fixed", "offset"):
        raise ScenarioError(f"unknown cap mode {mode!r}")
    if mode == "solve":
        return axis_solve_t(field, params).equilibrium
    t = _value(cap, "value", float)
    if mode == "offset":
        t += axis_solve_t(field, params).t0
    if not -1.0 < t <= 1.0:
        raise ScenarioError(f"cap height {t} outside (-1, 1]")
    return regime(params).eta(t, field)


def _write_csv(path: Path, header: list[str], rows) -> None:
    # one %-format per row tuple: the bytes of _fmt, value by value
    line = ",".join(["%.17g"] * len(header))
    path.write_text("\n".join([",".join(header)] + [line % row for row in rows]) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _task_cap_curves(cfg, field, params, out_dir: Path, name: str) -> dict:
    # density: eta_t on a height grid of the cap; potential: also the
    # weighted potential on a height grid of the sphere
    n = _grid(cfg, 200)
    eta = _scenario_eta(cfg, field, params)
    files = []
    if cfg["task"] == "potential":
        potential = regime(params).potential
        xis = np.linspace(-1.0 + 1e-6, 1.0 - 1e-9, n)
        _write_csv(out_dir / f"{name}_potential.csv", ["xi", "weighted_potential", "F"],
                   [(xi, potential(float(xi), eta, field), eta.phi) for xi in xis])
        files.append(f"{name}_potential.csv")
    gap = min(1e-9, (1.0 + eta.t) / 4.0)  # the samples' distance to each end of the cap
    us = np.linspace(-1.0 + gap, eta.t - gap, n)
    _write_csv(out_dir / f"{name}_density.csv", ["u", "density", "boundary_coeff"],
               zip(us, eta.radial_density(us), [eta.boundary_coeff] * n))
    files.append(f"{name}_density.csv")
    return {"t": eta.t, "F": eta.phi, "boundary_coeff": eta.boundary_coeff, "files": files}


def _task_phi_curve(cfg, field, params, out_dir: Path, name: str) -> dict:
    form = regime(params)
    ts = np.linspace(-0.999, 1.0, _grid(cfg, 200))
    _write_csv(out_dir / f"{name}_phi.csv", ["t", form.column], zip(ts, form.phi(ts, field)))
    return {"files": [f"{name}_phi.csv"]}


def _task_solve_support(cfg, field, params, out_dir: Path, name: str) -> dict:
    n = _grid(cfg, 50)
    sol = axis_solve_t(field, params)
    gap = min(1e-9, (1.0 + sol.t0) / 4.0)  # the samples' distance to each end of the cap
    us = np.linspace(-1.0 + gap, sol.t0 - gap, n)
    samples = [[float(u), float(v)] for u, v in zip(us, sol.equilibrium.radial_density(us))]
    payload = {
        "t0": sol.t0,
        "phi_at_t0": sol.phi_at_t0,
        "solved_by": sol.solved_by,
        "mass": sol.equilibrium.mass,
        "boundary_coeff": sol.equilibrium.boundary_coeff,
        "density_samples": samples,
    }
    _write_json(out_dir / f"{name}.json", payload)
    return {"t0": sol.t0, "files": [f"{name}.json"]}


def _task_verify(cfg, field, params, out_dir: Path, name: str) -> dict:
    tol = _value(cfg, "tol", float, 1e-5)
    grid = _grid(cfg, 41)
    sol = axis_solve_t(field, params)
    report = oracle.check_variational(sol, grid_size=grid)
    passed = (report.max_violation_on_support <= tol
              and report.min_margin_off_support >= -tol
              and report.min_density >= -tol)
    payload = {
        "t0": sol.t0,
        "F_estimate": report.F_estimate,
        "max_violation_on_support": report.max_violation_on_support,
        "min_margin_off_support": report.min_margin_off_support,
        "min_density": report.min_density,
        "tolerance": tol,
        "passed": bool(passed),
    }
    _write_json(out_dir / f"{name}.json", payload)
    return {"passed": passed, "files": [f"{name}.json"]}


def _task_particles(cfg, field, params, out_dir: Path, name: str) -> dict:
    if params.d != 2:
        raise ScenarioError(f"particles runs on S^2 only (d = 2), got d={params.d}")
    n = _value(cfg, "n", int, 800)
    if n < 50:
        raise ScenarioError(f"particles needs n >= 50, got {n}")
    iters = _value(cfg, "iters", int, 2000)
    seed = _value(cfg, "seed", int, 0)
    system = oracle.minimize_particles(n, params, field, seed=seed, iters=iters)
    est = oracle.empirical_support_height(system)
    rows = [(h,) for h in np.sort(system.heights)]
    _write_csv(out_dir / f"{name}_heights.csv", ["height"], rows)
    payload = {
        "n": n, "iters": iters, "seed": seed,
        "empirical_support_height": est,
        "final_energy": system.energies[-1],
        "energy_monotone": bool(np.all(np.diff(np.asarray(system.energies)) <= 0.0)),
    }
    _write_json(out_dir / f"{name}.json", payload)
    return {"empirical_support_height": est,
            "files": [f"{name}.json", f"{name}_heights.csv"]}


def _task_newton_distance(cfg, out_dir: Path, name: str) -> dict:
    d = _value(cfg, "newton_d", int, cfg.get("d", 2))
    rho = point_field.gonchar_root(d)
    residual = point_field.gonchar_polynomial(d, rho)
    payload = {"d": d, "rho_plus": rho, "polynomial_residual": residual}
    if out_dir is not None:
        _write_json(out_dir / f"{name}.json", payload)
    return payload


_TASK_RUNNERS = {"density": _task_cap_curves, "potential": _task_cap_curves,
                 "phi-curve": _task_phi_curve, "solve-support": _task_solve_support,
                 "verify": _task_verify, "particles": _task_particles}
_TASKS = (*_TASK_RUNNERS, "newton-distance")


def run_scenario(cfg: dict, out_dir: Path) -> dict:
    """Execute one scenario dict; returns a small result summary."""
    if not isinstance(cfg, dict):
        raise ScenarioError("scenario must be a JSON object")
    task = cfg.get("task")
    if task not in _TASKS:
        raise ScenarioError(f"unknown task {task!r}; expected one of {_TASKS}")
    name = str(cfg.get("name", "scenario"))
    out_dir.mkdir(parents=True, exist_ok=True)
    if task == "newton-distance":
        return _task_newton_distance(cfg, out_dir, name)
    params = _parse_params(cfg)
    return _TASK_RUNNERS[task](cfg, _parse_field(cfg), params, out_dir, name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rieszcap",
        description="equilibrium measures on spheres under axis external fields")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario JSON file")
    p_run.add_argument("scenario", type=Path)
    p_run.add_argument("--out", type=Path, default=None,
                       help="output directory (default: alongside the scenario)")
    p_run.add_argument("--tol", type=float, default=None, help="override tolerance")
    p_run.add_argument("--grid", type=int, default=None, help="override grid size")
    p_run.add_argument("--seed", type=int, default=None, help="override RNG seed")

    p_newton = sub.add_parser("newton-distance",
                              help="critical charge distance for s = d-1, q = 1")
    p_newton.add_argument("--d", type=int, required=True)
    p_newton.add_argument("--out", type=Path, default=None)

    args = parser.parse_args(argv)

    try:
        if args.command == "newton-distance":
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
            payload = _task_newton_distance({"newton_d": args.d}, args.out,
                                            f"newton_distance_d{args.d}")
            print(f"rho_plus(d={args.d}) = {_fmt(payload['rho_plus'])} "
                  f"(residual {_fmt(payload['polynomial_residual'])})")
            return 0

        try:
            cfg = json.loads(args.scenario.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ScenarioError(f"cannot read scenario: {exc}") from exc
        overrides = {"tol": args.tol, "grid": args.grid, "seed": args.seed}
        if isinstance(cfg, dict):  # anything else is rejected by run_scenario
            cfg.update({key: val for key, val in overrides.items() if val is not None})
        out_dir = args.out if args.out is not None else args.scenario.parent
        summary = run_scenario(cfg, out_dir)
        print(json.dumps(summary, sort_keys=True, default=str))
        return 0
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, ValueError, RuntimeError, OverflowError) as exc:
        print(f"numeric-failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
