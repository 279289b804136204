"""Command-line front end: scenario files in, CSV/JSON artifacts out.

One scenario JSON per invocation; outputs are deterministic (17 significant
digits, fixed key order, no timestamps) so reruns are byte-identical.

Scenario schema::

    {
      "name": "fig1_below",                  # basename for output files, no path
      "task": "density" | "potential" | "phi-curve" | "solve-support"
              | "verify" | "particles",
      "d": 2,                                # integer >= 2
      "kernel": {"type": "riesz", "s": 0.5} | {"type": "log"},
      "field":  {"type": "point", "q": 1.0, "R": 1.5}
              | {"type": "axis", "atoms": [[R1, m1], [R2, m2], ...]},
      "cap":    {"mode": "solve"}            # use the solved support height
              | {"mode": "fixed", "value": 0.2}
              | {"mode": "offset", "value": -0.2},   # relative to solved t0
      "grid": 200,          # positive integer: curve resolution / verification grid
      "tol": 1e-5,          # verification tolerance, finite and > 0
      "seed": 0, "n": 800, "iters": 2500     # particles task (d = 2; integers seed >= 0,
                                             #   n >= 50, iters >= 1; default 0, 800, 2000)
    }

Every task takes either field type; a point charge is the one-atom axis
field.  ``density`` and ``potential`` evaluate the signed cap equilibrium
eta_t at the cap height, ``phi-curve`` the kernel's cap functional (its
column phi, phibar at s = d-2, or F0 for log); each curve is one call of its
:mod:`rieszcap.cap_riesz` formula, which takes every kernel, on the whole
height grid.  Curve tasks write ``<name>_potential.csv`` (xi, weighted
potential U^{eta_t} + Q, F), ``<name>_density.csv`` (u, density,
boundary_coeff) and ``<name>_phi.csv``; scalar tasks write ``<name>.json``
(one line, keys sorted).  Exit codes: 0 success, 2 malformed scenario or option
(a setting off its range above, a name that is not a plain file name,
``newton-distance --d`` below 2, or a kernel that :class:`rieszcap.sphere.Params`
refuses, outside d-2 < s < d, s = d-2 with d >= 3 and log with d = 2, where at
d = 2 s <= 2^-53 names the log kernel as its s -> 0+ limit),
3 numeric failure (a fixed or offset cap whose eta_t fails the mass
certificate included).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from rieszcap import cap_riesz, oracle, point_field
from rieszcap.axis_field import AxisMeasure, _certified, axis_solve_t, newtonian_distance
from rieszcap.specfun import ConvergenceError
from rieszcap.sphere import CapMeasure, Params

__all__ = ["main", "run_scenario", "ScenarioError"]


class ScenarioError(ValueError):
    """Malformed scenario configuration or command-line option."""


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


def _count(cfg: dict, key: str, default: int, least: int = 1) -> int:
    n = _value(cfg, key, int, default)
    if n < least:
        raise ScenarioError(f"{key} must be at least {least}, got {n}")
    return n


def _parse_params(cfg: dict) -> Params:
    d = _value(cfg, "d", int)
    try:
        kernel = cfg["kernel"]
        ktype = kernel["type"]
        if ktype == "riesz":
            return Params(d=d, s=_number(kernel["s"], "s"))
        if ktype == "log":
            return Params(d=d, log=True)
    except (KeyError, TypeError, ValueError) as exc:  # Params refuses a kernel no cap formula takes
        raise ScenarioError(f"no usable kernel: {exc}") from exc
    raise ScenarioError(f"unknown kernel type {ktype!r}")


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
    return _certified(cap_riesz.eta_measure(t, field, params))


def _write_csv(path: Path, header: list[str], rows, constants=()) -> None:
    # one %-format per row tuple: the bytes of _fmt, value by value; the last
    # columns hold the same values on every row, formatted once into the line
    line = ",".join(["%.17g"] * (len(header) - len(constants)) + [_fmt(v) for v in constants])
    path.write_text("\n".join([",".join(header)] + [line % row for row in rows]) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


def _task_cap_curves(cfg, field, params, out_dir: Path, name: str) -> dict:
    # density: eta_t on a height grid of the cap; potential: also the
    # weighted potential on a height grid of the sphere
    n = _count(cfg, "grid", 200)
    eta = _scenario_eta(cfg, field, params)
    files = []
    if cfg["task"] == "potential":
        xis = np.linspace(-1.0 + 1e-6, 1.0 - 1e-9, n)
        _write_csv(out_dir / f"{name}_potential.csv", ["xi", "weighted_potential", "F"],
                   zip(xis, cap_riesz.weighted_potential(xis, eta)), [eta.phi])
        files.append(f"{name}_potential.csv")
    _write_csv(out_dir / f"{name}_density.csv", ["u", "density", "boundary_coeff"],
               zip(*eta.density_samples(n)), [eta.boundary_coeff])
    files.append(f"{name}_density.csv")
    return {"t": eta.t, "F": eta.phi, "boundary_coeff": eta.boundary_coeff, "files": files}


def _task_phi_curve(cfg, field, params, out_dir: Path, name: str) -> dict:
    column = "F0" if params.log else "phibar" if params.is_exceptional else "phi"
    ts = np.linspace(-0.999, 1.0, _count(cfg, "grid", 200))
    _write_csv(out_dir / f"{name}_phi.csv", ["t", column],
               zip(ts, cap_riesz.phi(ts, field, params)))
    return {"files": [f"{name}_phi.csv"]}


def _task_solve_support(cfg, field, params, out_dir: Path, name: str) -> dict:
    n = _count(cfg, "grid", 50)
    sol = axis_solve_t(field, params)
    samples = [[float(u), float(v)] for u, v in zip(*sol.equilibrium.density_samples(n))]
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
    if not 0.0 < tol < math.inf:
        raise ScenarioError(f"tol must be finite and positive, got {tol}")
    grid = _count(cfg, "grid", 41)
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
    n, iters = _count(cfg, "n", 800, 50), _count(cfg, "iters", 2000)
    seed = _count(cfg, "seed", 0, 0)
    system = oracle.minimize_particles(n, params, field, seed=seed, iters=iters)
    est = oracle.empirical_support_height(system)
    _write_csv(out_dir / f"{name}_heights.csv", ["height"], [(h,) for h in np.sort(system.heights)])
    payload = {
        "n": n, "iters": iters, "seed": seed,
        "empirical_support_height": est,
        "final_energy": system.energies[-1],
        "energy_evals": system.energy_evals,
        "energy_monotone": bool(np.all(np.diff(np.asarray(system.energies)) <= 0.0)),
    }
    _write_json(out_dir / f"{name}.json", payload)
    return {"empirical_support_height": est,
            "files": [f"{name}.json", f"{name}_heights.csv"]}


_TASKS = {"density": _task_cap_curves, "potential": _task_cap_curves,
          "phi-curve": _task_phi_curve, "solve-support": _task_solve_support,
          "verify": _task_verify, "particles": _task_particles}


def run_scenario(cfg: dict, out_dir: Path) -> dict:
    """Execute one scenario dict; returns a small result summary."""
    if not isinstance(cfg, dict):
        raise ScenarioError("scenario must be a JSON object")
    task = cfg.get("task")
    if task not in _TASKS:
        raise ScenarioError(f"unknown task {task!r}; expected one of {tuple(_TASKS)}")
    name = str(cfg.get("name", "scenario"))
    if name in ("", ".", "..") or any(sep and sep in name for sep in ("/", os.sep, os.altsep)):
        raise ScenarioError(f"name must be a plain file name, got {name!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    params, field = _parse_params(cfg), _parse_field(cfg)
    return _TASKS[task](cfg, field, params, out_dir, name)


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
            if args.d < 2:
                raise ScenarioError(f"newton-distance needs --d >= 2, got {args.d}")
            d, rho = args.d, newtonian_distance(args.d)
            # P(d; rho) relative to the size of its terms: it did not produce rho
            size = (rho ** d + 2.0 + rho) * (rho + 1.0) ** (d - 1) + rho ** d
            residual = point_field.gonchar_polynomial(d, rho) / size
            if args.out is not None:
                args.out.mkdir(parents=True, exist_ok=True)
                _write_json(args.out / f"newton_distance_d{d}.json",
                            {"d": d, "rho_plus": rho, "polynomial_residual": residual})
            print(f"rho_plus(d={d}) = {_fmt(rho)} (residual {_fmt(residual)})")
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
