"""Seeded scenario generators for the four bench workloads.

A workload is an endless sequence of *rounds*.  Every round holds the same
strata (one scenario dict per stratum slot), so a run that executes whole
rounds always sees the same mix of regimes, branches and tasks; only the
parameters inside each stratum change with the seed.  Round ``k`` of seed
``n`` depends on nothing else, so any prefix of rounds is reproducible.

Random draws cover the parts of the parameter range where the program's
cost and outcome vary smoothly.  The corners where they jump (cap exponents
near s = d-2, caps near the whole sphere, generic verify on S^2) are fixed
cases, the same for every seed, so that their cost and their known failures
show in every run without making runs of different seeds disagree.

Each item is ``{"stratum", "regime", "branch", "key", "cfg"}`` (plus
``t0_ref`` for the reference cases); only ``cfg`` is handed to the program.
``branch`` ("full", "interior" or "none") and the support height used to
stratify draws are computed here with scipy, not with the package under test.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

from scipy import integrate, optimize
from scipy.special import betainc, gammaln, hyp2f1

F_SAFE = 0.5      # generic draws use s = d-2+2f with f in [F_SAFE, 1) ...
T0_MAX = 0.95     # ... and a support height t0 <= T0_MAX
# solve_sweep draws two generic interior cases per d in each band of t0, which
# mostly sets the solve cost (one on each side of the sphere)
SWEEP_T0 = ((-1.0, 0.4), (0.4, 0.75), (0.75, T0_MAX))
F_NEAR = 0.15     # the s -> d-2 stratum draws f in (0.01, F_NEAR]
# Fixed cases (d, s, q, R), the same for every seed and cycled by round index,
# cover the corners where a random draw would make the cost erratic:
# f in (F_NEAR, F_SAFE), where cap quadrature fails for some exponents only,
BAND = ((2, 0.4, 1.0, 1.3), (3, 1.5, 0.5, 1.2), (4, 2.6, 2.0, 1.6),
        (5, 3.7, 1.0, 1.4), (2, 0.6, 0.3, 0.75), (3, 1.9, 4.0, 2.2))
# and t0 = 0.98 (near the critical charge), where the cost grows like 1/(1-t0).
NEAR_CRITICAL = ((2, 1.2, 0.1788, 1.5), (3, 2.2, 0.5885, 2.0),
                 (4, 3.4, 0.01793, 1.3), (5, 4.5, 8.805, 2.5))
# generic verify on S^2 below and above s = d-1: fixed, because oracle cost
# over nearby parameters ranges from seconds to minutes
VERIFY_GENERIC = (("riesz_s_below_d-1", 2, 0.95, 0.7, 1.6),
                  ("riesz_s_above_d-1", 2, 1.35, 0.7, 1.6))
# The s = d-2 phi-curve fails for some fields at d = 3 (R near 1) and not for
# others, so d = 3 is a fixed case there and the seeded s = d-2 curves use d = 4, 5.
PHIBAR_FIXED = (3, 1, 1.0, 1.1)
# reference_verify as ``rieszcap run --grid 5`` runs it: its committed grid of
# 41 heights costs 36-55 s per operation, too long for repeated runs; the
# known violation sits at the first height, which every grid keeps
REFERENCE_VERIFY_GRID = 5
GRID_CURVE = 200
MID_T0 = (0.4, 0.6)  # caps like the paper's figures: seeded generic curves, s -> d-2 solves
# phi-curves per round; the s = d-2 ones are the largest group of similar
# cost, so the median operation time of a round falls among them
PHI_CURVES = {"riesz": 2, "exceptional": 4, "log": 1}
PARTICLE_N = 800
PARTICLE_ITERS = 30


# ---------------------------------------------------------------------------
# closed-form branch prediction (independent of the package)

def _energy(d: int, s: float) -> float:
    return math.exp(gammaln(d) + gammaln((d - s) / 2.0) - s * math.log(2.0)
                    - gammaln(d / 2.0) - gammaln(d - s / 2.0))


def _exterior(atoms, s):
    """Fold atoms with R < 1 onto R > 1 (Riesz kernels only)."""
    return [(R, m) if R > 1.0 else (1.0 / R, m * R ** -s) for R, m in atoms]


def riesz_margin(d: int, s: float, atoms) -> float:
    """Whole-sphere margin for a Riesz axis field; >= 0 means t0 = 1."""
    atoms = _exterior(atoms, s)
    F = _energy(d, s) + sum(
        m * (R + 1.0) ** -s * hyp2f1(s / 2.0, d / 2.0, d, 4.0 * R / (R + 1.0) ** 2)
        for R, m in atoms)
    return F - sum(m * (R + 1.0) ** (d - s) / (R - 1.0) ** d for R, m in atoms)


def log_margin(atoms) -> float:
    """Whole-sphere margin for a logarithmic axis field on S^2."""
    total = sum(m for _, m in atoms)
    return 1.0 + total - sum(m * (R + 1.0) ** 2 / (R - 1.0) ** 2 for R, m in atoms)


def branch_of(d: int, s: float | None, atoms) -> str:
    margin = log_margin(atoms) if s is None else riesz_margin(d, s, atoms)
    return "full" if margin >= 0.0 else "interior"


def riesz_t0_estimate(d: int, s: float, atoms) -> float:
    """Support height of a generic Riesz axis field to ~1e-6: the root of
    Delta(t) = W (1 + sum m ||eps_t||) / ||nu_t|| - sum m (R+1)^(d-s)/r(t)^d,
    with ||nu_t|| from betainc and ||eps_t|| by quad with an algebraic
    endpoint weight.  Only used to steer draws away from t0 -> 1."""
    atoms = _exterior(atoms, s)
    if riesz_margin(d, s, atoms) >= 0.0:
        return 1.0
    W = _energy(d, s)
    c = math.exp((1.0 - d) * math.log(2.0) + gammaln(d) - gammaln(d - s / 2.0)
                 - gammaln(s / 2.0)) / W

    def delta(t):
        nu = 1.0 - betainc(d - s / 2.0, s / 2.0, (1.0 - t) / 2.0)
        eps = 0.0
        for R, m in atoms:
            f = lambda u: (1.0 - u) ** (d - s / 2.0 - 1.0) * (R * R - 2.0 * R * u + 1.0) ** (-d / 2.0)
            val = integrate.quad(f, -1.0, t, weight="alg", wvar=(s / 2.0 - 1.0, 0.0),
                                 epsabs=0.0, epsrel=1e-10, limit=200)[0]
            eps += m * c * (R + 1.0) ** (d - s) * val
        edge = sum(m * (R + 1.0) ** (d - s) / (R * R - 2.0 * R * t + 1.0) ** (d / 2.0)
                   for R, m in atoms)
        return W * (1.0 + eps) / nu - edge

    return optimize.brentq(delta, -1.0 + 1e-6, 1.0, xtol=1e-7)


# ---------------------------------------------------------------------------
# draws

def _q(rng) -> float:
    return 10.0 ** rng.uniform(-1.0, 1.0)


def _r_out(rng) -> float:
    return 1.0 + 10.0 ** rng.uniform(math.log10(0.05), math.log10(3.0))


def _kernel(s):
    return {"type": "log"} if s is None else {"type": "riesz", "s": s}


def _item(stratum, d, s, atoms, cfg_extra, regime=None):
    regime = regime or ("log" if s is None else
                        "exceptional" if s == d - 2 else "riesz")
    if len(atoms) == 1:
        field = {"type": "point", "q": atoms[0][1], "R": atoms[0][0]}
    else:
        field = {"type": "axis", "atoms": [[R, m] for R, m in atoms]}
    cfg = {"d": d, "kernel": _kernel(s), "field": field}
    cfg.update(cfg_extra)
    return {"stratum": stratum, "regime": regime, "branch": branch_of(d, s, atoms),
            "key": [d, s, regime], "cfg": cfg}


def _draw(rng, d, s_of, branch, n_atoms=1, inner=True, t0_band=(-1.0, T0_MAX),
          max_tries=10_000):
    """Draw (s, atoms) with the requested whole-sphere branch.  ``s_of``
    draws the exponent (None for log); ``inner`` allows atoms with R < 1.
    Generic Riesz interior draws also need t0 inside ``t0_band``."""
    for _ in range(max_tries):
        s = s_of(rng)
        atoms = []
        for _ in range(n_atoms):
            R = _r_out(rng)
            if inner and s is not None and rng.random() < 0.5:
                R = 1.0 / R
            atoms.append((R, _q(rng) / n_atoms))
        if branch_of(d, s, atoms) != branch:
            continue
        if (branch == "interior" and s is not None and s != d - 2
                and not t0_band[0] <= riesz_t0_estimate(d, s, atoms) <= t0_band[1]):
            continue
        return s, atoms
    raise RuntimeError(f"no {branch} draw for d={d} after {max_tries} tries")


def _generic(d, lo=F_SAFE, hi=1.0):
    return lambda rng: d - 2.0 + 2.0 * rng.uniform(lo, hi)


def _fixed(stratum, case, cfg_extra):
    d, s, q, R = case
    return _item(stratum, d, s, [(R, q)], cfg_extra)


def _named(items, prefix):
    # committed scenarios keep their own names
    for k, item in enumerate(items):
        if "name" not in item["cfg"]:
            item["cfg"] = {"name": f"{prefix}_{k:02d}_{item['stratum']}", **item["cfg"]}
    return items


# ---------------------------------------------------------------------------
# workloads

def _solve_sweep(rng, k, ctx):
    task = {"task": "solve-support", "grid": 50}
    items = []
    for d in (2, 3, 4, 5):
        for j, band in enumerate(SWEEP_T0 * 2):
            s, atoms = _draw(rng, d, _generic(d), "interior", inner=(d + j + k) % 2 == 1,
                             t0_band=band)
            items.append(_item("generic_interior", d, s, atoms, task))
        s, atoms = _draw(rng, d, _generic(d, 0.0), "full", inner=(d + k) % 2 == 0)
        items.append(_item("generic_full", d, s, atoms, task))
    d = 2 + k % 4
    s, atoms = _draw(rng, d, _generic(d, 0.01, F_NEAR), "interior", t0_band=MID_T0)
    items.append(_item("near_exceptional", d, s, atoms, task))
    items.append(_fixed("band_fixed", BAND[k % len(BAND)], task))
    items.append(_fixed("near_critical", NEAR_CRITICAL[k % len(NEAR_CRITICAL)], task))
    d = 3 + k % 3
    for branch in ("interior", "full"):
        s, atoms = _draw(rng, d, lambda r: d - 2, branch)
        items.append(_item(f"exceptional_{branch}", d, s, atoms, task))
        s, atoms = _draw(rng, 2, lambda r: None, branch)
        items.append(_item(f"log_{branch}", 2, s, atoms, task))
    regime = ("riesz", "exceptional", "log")[k % 3]
    d = {"riesz": 2 + k % 4, "exceptional": 3 + k % 3, "log": 2}[regime]
    s_of = {"riesz": _generic(d), "exceptional": lambda r: d - 2,
            "log": lambda r: None}[regime]
    s, atoms = _draw(rng, d, s_of, "interior", n_atoms=rng.choice((2, 3, 4)))
    items.append(_item(f"axis_{regime}", d, s, atoms, task))
    ref = ctx["t0_reference"][k % len(ctx["t0_reference"])]
    item = _fixed("t0_reference", (ref["d"], ref["s"], ref["q"], ref["R"]), task)
    item["t0_ref"] = ref["t0"]
    items.append(item)
    return items


def _figure_curves(rng, k, ctx):
    items = []
    for cfg in ctx["figures"]:
        s = cfg["kernel"].get("s")
        fld = cfg["field"]
        item = _item("figure", cfg["d"], s, [(fld["R"], fld["q"])], {})
        item["cfg"] = dict(cfg)
        items.append(item)
    curve = lambda task: {"task": task, "grid": GRID_CURVE, "cap": {"mode": "solve"}}
    phi = _fixed("exceptional_phi-curve_fixed", PHIBAR_FIXED, curve("phi-curve"))
    phi["branch"] = "none"
    items.append(phi)
    regimes = (("riesz", 2 + k % 4, _generic(2 + k % 4)),
               ("exceptional", 4 + k % 2, lambda r: 2 + k % 2),
               ("log", 2, lambda r: None))
    for regime, d, s_of in regimes:
        tasks = ("potential", "density") + ("phi-curve",) * PHI_CURVES[regime]
        for task in tasks:
            s, atoms = _draw(rng, d, s_of, "interior", inner=False, t0_band=MID_T0)
            item = _item(f"{regime}_{task}", d, s, atoms, curve(task))
            if task == "phi-curve":
                item["branch"] = "none"
            items.append(item)
    return items


def _verify_oracle(rng, k, ctx):
    items = []
    cfg = ctx["reference_verify"]
    fld = cfg["field"]
    item = _item("reference_verify", cfg["d"], cfg["kernel"]["s"], [(fld["R"], fld["q"])], {})
    item["cfg"] = {**cfg, "grid": REFERENCE_VERIFY_GRID}
    items.append(item)
    for stratum, *case in VERIFY_GENERIC:
        items.append(_fixed(stratum, case, {"task": "verify", "grid": 3, "tol": 1e-5}))
    full = {"task": "verify", "grid": 41, "tol": 1e-5}
    for j in range(2):
        d = 3 + (k + j) % 3
        s, atoms = _draw(rng, d, lambda r: d - 2, "interior")
        items.append(_item("exceptional", d, s, atoms, full))
        s, atoms = _draw(rng, d, lambda r: d - 2, "interior", n_atoms=rng.choice((2, 3, 4)))
        items.append(_item("axis_exceptional", d, s, atoms, full))
    s, atoms = _draw(rng, 2, lambda r: None, "interior")
    items.append(_item("log", 2, s, atoms, full))
    s, atoms = _draw(rng, 2, lambda r: None, "interior", n_atoms=rng.choice((2, 3, 4)))
    items.append(_item("axis_log", 2, s, atoms, full))
    return items


def _particles(rng, k, ctx):
    items = []
    for regime, s_of in (("riesz", lambda r: r.uniform(0.5, 1.5)), ("log", lambda r: None)) * 6:
        s, atoms = _draw(rng, 2, s_of, "interior", inner=False)
        items.append(_item(regime, 2, s, atoms,
                           {"task": "particles", "n": PARTICLE_N,
                            "iters": PARTICLE_ITERS, "seed": rng.randrange(2 ** 31)}))
    return items


MAKERS = {"solve_sweep": _solve_sweep, "figure_curves": _figure_curves,
          "verify_oracle": _verify_oracle, "particles": _particles}


class Workload:
    """Round generator of one workload for one seed."""

    def __init__(self, name: str, seed: int, root: Path):
        if name not in MAKERS:
            raise ValueError(f"unknown workload {name!r}; expected one of {list(MAKERS)}")
        self.name = name
        self.seed = int(seed)
        scen = root / "scenarios"
        bench = Path(__file__).resolve().parent
        self._ctx = {
            "figures": [json.loads(p.read_text()) for p in sorted(scen.glob("fig[12]_*.json"))],
            "reference_verify": json.loads((scen / "reference_verify.json").read_text()),
            "t0_reference": json.loads((bench / "t0_reference.json").read_text())["cases"],
        }
        if len(self._ctx["figures"]) != 6:
            raise FileNotFoundError(f"expected six fig1_*/fig2_* scenarios in {scen}")

    def round(self, k: int) -> list[dict]:
        rng = random.Random(f"{self.name}:{self.seed}:{k}")
        return _named(MAKERS[self.name](rng, k, self._ctx), f"r{k:04d}")
