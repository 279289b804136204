"""Output checks that decide whether a bench operation succeeded.

``check(item, summary, out_dir)`` inspects the artifacts one
``run_scenario`` call wrote and returns ``(outcome, detail, diag)``:

* ``"ok"``       -- the output passes every check;
* ``"rejected"`` -- the program itself reported failure (a verify report
  with ``passed: false``);
* ``"wrong"``    -- the program returned normally but an artifact fails an
  independent check (cap height, mass, density sign, t0 reference, CSV
  shape, energy monotonicity).

``diag`` carries accuracy diagnostics: ``t0_ref_err``, ``mass_err`` and
``max_violation`` where they apply.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

MASS_TOL = 1e-9       # |mass(eta_t0) - 1|
DENSITY_TOL = 1e-9    # density samples >= -DENSITY_TOL * max(1, max |sample|)
T0_REF_TOL = 1e-10    # |t0 - 30-digit reference|

_CURVE_FILES = {
    "density": ("_density.csv",),
    "potential": ("_potential.csv", "_density.csv"),
    "phi-curve": ("_phi.csv",),
}


def _csv_rows(path: Path) -> list[list[float]]:
    lines = path.read_text().splitlines()
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def _solve_support(item, out_dir, name):
    payload = json.loads((out_dir / f"{name}.json").read_text())
    t0, mass = payload["t0"], payload["mass"]
    diag = {"mass_err": abs(mass - 1.0)}
    if not -1.0 < t0 <= 1.0:
        return "wrong", f"t0 = {t0} outside (-1, 1]", diag
    if not diag["mass_err"] <= MASS_TOL:
        return "wrong", f"|mass - 1| = {diag['mass_err']:.3g}", diag
    dens = [v for _, v in payload["density_samples"]]
    if len(dens) != item["cfg"].get("grid", 50) or not all(map(math.isfinite, dens)):
        return "wrong", "density samples missing or not finite", diag
    floor = -DENSITY_TOL * max(1.0, max(abs(v) for v in dens))
    if min(dens) < floor:
        return "wrong", f"negative density sample {min(dens):.3g}", diag
    if "t0_ref" in item:
        diag["t0_ref_err"] = abs(t0 - float(item["t0_ref"]))
        if not diag["t0_ref_err"] <= T0_REF_TOL:
            return "wrong", f"t0 misses the reference by {diag['t0_ref_err']:.3g}", diag
    return "ok", "", diag


def _verify(item, out_dir, name):
    payload = json.loads((out_dir / f"{name}.json").read_text())
    diag = {"max_violation": payload["max_violation_on_support"]}
    if payload["passed"] is not True:
        return "rejected", (f"verify failed: violation {payload['max_violation_on_support']:.3g},"
                            f" margin {payload['min_margin_off_support']:.3g},"
                            f" density {payload['min_density']:.3g}"), diag
    return "ok", "", diag


def _particles(item, out_dir, name):
    payload = json.loads((out_dir / f"{name}.json").read_text())
    if payload["energy_monotone"] is not True:
        return "wrong", "particle energy not monotone", {}
    heights = _csv_rows(out_dir / f"{name}_heights.csv")
    n = item["cfg"]["n"]
    if len(heights) != n or not all(-1.0 <= h[0] <= 1.0 for h in heights):
        return "wrong", "particle heights missing or off the sphere", {}
    return "ok", "", {}


def _curve(item, out_dir, name):
    grid = item["cfg"].get("grid", 200)
    for suffix in _CURVE_FILES[item["cfg"]["task"]]:
        path = out_dir / f"{name}{suffix}"
        if not path.is_file():
            return "wrong", f"missing {path.name}", {}
        rows = _csv_rows(path)
        if len(rows) != grid or not all(math.isfinite(v) for row in rows for v in row):
            return "wrong", f"{path.name}: expected {grid} finite rows", {}
    return "ok", "", {}


_CHECKS = {"solve-support": _solve_support, "verify": _verify,
           "particles": _particles, "density": _curve, "potential": _curve,
           "phi-curve": _curve}


def check(item: dict, summary: dict, out_dir: Path):
    """Classify one finished operation; see the module docstring."""
    cfg = item["cfg"]
    name = str(cfg.get("name", "scenario"))
    for fname in summary.get("files", []):
        if not (out_dir / fname).is_file():
            return "wrong", f"summary names missing file {fname}", {}
    return _CHECKS[cfg["task"]](item, out_dir, name)
