#!/usr/bin/env python3
"""Closed-loop benchmark of ``rieszcap.cli.run_scenario``.

    python3 bench/run.py --workload solve_sweep --seed 1 --seconds 5 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 5

One process runs one workload: it imports the package from ``src/`` of the
checkout, generates the workload's scenario dicts from the seed, then runs
whole rounds of scenarios one after another (no warm-up) until ``--seconds``
have passed, checking every output.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
first runs untraced for half the time, then wraps every public function of
the package (see ``tracer.py``) for the same number of fresh rounds; the
ratio of the two throughputs is the tracing overhead.  ``--workload all``
runs every workload in its own process and prints one row per workload.

Details of every run (seed, input and artifact digests, environment,
traffic mix, per-operation records) go to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

SETUP_START = time.perf_counter()
BLAS_THREADS = 1  # fixed, at most nproc; OpenBLAS would pick its own otherwise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import copy  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import check  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import MAKERS, Workload  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_ROUNDS = 4        # rounds generated (and digested) before the first operation
SETUP_REPEATS = 2       # extra set-ups in child processes; setup_s is the median
P90_MIN_OPS = 100       # op_ms_p90 only with at least ten samples beyond it
FAIL_KINDS = ("ConvergenceError", "ValueError", "RuntimeError", "ScenarioError")
MODULES = ("specfun", "sphere", "point_field", "cap_riesz", "cap_exceptional",
           "axis_field", "oracle", "cli")
SOLVERS = ("cap_riesz.solve_t0", "cap_exceptional.solve_t0_exceptional",
           "cap_exceptional.log_solve_t0", "axis_field.axis_solve_t")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "ok_frac": "ratio", "peak_rss_mb": "MB"}
EXTRA_UNITS = {"op_ms_p50": "ms", "fail_frac": "ratio", "op_ms_p90": "ms"}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(MAKERS) + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(workload: str, seed: int):
    """Import the package from the checkout and generate the first rounds."""
    sys.path.insert(0, str(ROOT / "src"))
    from rieszcap import cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"rieszcap imported from {cli.__file__}, not from {ROOT / 'src'}")
    wl = Workload(workload, seed, ROOT)
    rounds = [wl.round(k) for k in range(SETUP_ROUNDS)]
    return cli, wl, rounds, time.perf_counter() - SETUP_START


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Runner:
    """Runs rounds of one workload and keeps one record per operation."""

    def __init__(self, cli, wl, rounds, work_dir: Path):
        self.cli, self.wl, self.rounds = cli, wl, rounds
        self.work_dir = work_dir
        self.records: list[dict] = []
        self.gen_s = 0.0  # generating rounds past the set-up ones, kept out of the loop time

    def round(self, k: int) -> list[dict]:
        t = time.perf_counter()
        while len(self.rounds) <= k:
            self.rounds.append(self.wl.round(len(self.rounds)))
        self.gen_s += time.perf_counter() - t
        return self.rounds[k]

    def run(self, first: int, seconds: float, rounds: int | None = None):
        """Whole rounds from ``first``: exactly ``rounds`` of them, or else
        until ``seconds`` have passed (at least one).  Returns (next round,
        wall seconds, records of this pass)."""
        start, gen0 = time.perf_counter(), self.gen_s
        elapsed = lambda: time.perf_counter() - start - (self.gen_s - gen0)
        n0 = len(self.records)
        k = first
        while True:
            for item in self.round(k):
                self.records.append(self._op(k, item))
            k += 1
            if k - first == rounds or (rounds is None and elapsed() >= seconds):
                break
        return k, elapsed(), self.records[n0:]

    def _op(self, k: int, item: dict) -> dict:
        op_dir = self.work_dir / f"{len(self.records):05d}"
        rec = {"round": k, "stratum": item["stratum"], "regime": item["regime"],
               "branch": item["branch"], "key": item["key"], "task": item["cfg"]["task"],
               "name": item["cfg"]["name"], "kind": "", "detail": "", "diag": {}}
        t = time.perf_counter()
        try:
            summary = self.cli.run_scenario(copy.deepcopy(item["cfg"]), op_dir)
        except Exception as exc:  # a failed operation is counted, not fatal
            rec["ms"] = 1e3 * (time.perf_counter() - t)
            rec.update(outcome="raised", kind=type(exc).__name__, detail=str(exc)[:300])
        else:
            rec["ms"] = 1e3 * (time.perf_counter() - t)
            try:
                rec["outcome"], rec["detail"], rec["diag"] = check(item, summary, op_dir)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                rec.update(outcome="wrong", detail=f"unreadable output: {exc!r}"[:300])
        files = sorted(op_dir.iterdir()) if op_dir.is_dir() else []
        rec["bytes"] = sum(f.stat().st_size for f in files)
        rec["artifacts"] = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
        shutil.rmtree(op_dir, ignore_errors=True)
        return rec


# ---------------------------------------------------------------------------
# metrics

def _ops_per_s(records, wall):
    return sum(r["outcome"] == "ok" for r in records) / wall


def end_to_end(records, wall, setup_times) -> dict:
    ok = sum(r["outcome"] == "ok" for r in records)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ok / wall,
        "ok_frac": ok / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def extra_end_to_end(records) -> dict:
    """Printed and stored, but not end-to-end metrics of BENCHMARK.json:
    fail_frac can be 0, the 90th percentile needs at least 100 operations,
    and the median operation time of a mixed round moves with the host's
    speed by more than any bound."""
    ms = [r["ms"] for r in records]
    out = {"op_ms_p50": statistics.median(ms),
           "fail_frac": sum(r["outcome"] != "ok" for r in records) / len(records)}
    if len(records) >= P90_MIN_OPS:
        out["op_ms_p90"] = statistics.quantiles(ms, n=10)[8]
    return out


def _size_fns():
    def arg(i, key, default=0):
        return lambda a, kw, r: kw[key] if key in kw else (a[i] if len(a) > i else default)

    full = lambda a, kw, r: float(r is not None and r.solved_by == "boundary_t_equals_1")
    points = arg(3, "z")
    sizes = {"sphere.build_quadrature": arg(2, "order"),
             "specfun.hyp2f1_regularized": lambda a, kw, r: np.size(points(a, kw, r)),
             "oracle.minimize_particles": arg(4, "iters", 400)}
    sizes.update({name: full for name in SOLVERS})
    return sizes


LAYER_UNITS = {
    "specfun.hyp2f1.calls": "count", "specfun.hyp2f1.self_pct": "%",
    "specfun.hyp2f1_regularized.points": "count", "specfun.hyp2f1_regularized.self_pct": "%",
    "specfun.beta_inc_reg.calls": "count", "specfun.beta_inc_reg.self_pct": "%",
    "sphere.build_quadrature.calls": "count", "sphere.build_quadrature.nodes": "count",
    "sphere.build_quadrature.self_pct": "%",
    "sphere.integrate_radial.calls": "count", "sphere.integrate_radial.rules_per_call": "ratio",
    "sphere.integrate_radial.raised": "count",
    "sphere.kappa.calls": "count", "sphere.kappa.self_pct": "%",
    "point_field.full_support_margin.calls": "count",
    "solve.full_sphere_share": "ratio",
    "cap_riesz.phi.calls_per_solve": "ratio", "cap_riesz.eps_norm.self_pct": "%",
    "cap_riesz.eta_density.calls": "count", "cap_riesz.eta_density.self_pct": "%",
    "cap_riesz.weighted_potential.calls": "count",
    "cap_riesz.weighted_potential.self_pct": "%",
    "cap_exceptional.phibar.calls": "count", "cap_exceptional.epsbar_norm.self_pct": "%",
    "cap_exceptional.etabar.calls": "count",
    "axis_field.axis_solve_t.calls": "count", "axis_field.axis_solve_t.self_pct": "%",
    "oracle.potential_of.calls": "count", "oracle.potential_of.self_pct": "%",
    "oracle.minimize_particles.iters_per_s": "1/s",
    "oracle.external_field.calls_per_iter": "ratio",
    "cli.run_scenario.self_pct": "%", "cli.bytes_written": "B",
    **{f"fail.{kind}": "count" for kind in FAIL_KINDS},
    "fail.other_error": "count", "fail.check": "count", "fail.time_pct": "%",
    "solve.t0_ref_err_max": "1", "solve.mass_err_max": "1", "verify.max_violation": "1",
    "trace.ops_per_s": "1/s", "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_pct": "%", "trace.spans": "count",
}


def per_layer(spans, records, wall, untraced_ops_per_s) -> dict:
    names = [str(n) for n in spans["names"]]
    nid, parent = spans["name_id"], spans["parent"]
    size, raised = spans["size"], spans["raised"].astype(bool)
    selfs = self_times(spans["start"], spans["end"], parent)
    dur = spans["end"] - spans["start"]

    def mask(name):
        return nid == names.index(name) if name in names else np.zeros(len(nid), bool)

    def under(child, par):  # spans of ``child`` whose direct parent is a ``par`` span
        m = mask(child) & (parent >= 0)
        return int(np.sum(mask(par)[parent[m]]))

    def calls(name):
        return int(mask(name).sum())

    def self_pct(name):
        return 100.0 * float(selfs[mask(name)].sum()) / wall

    def ratio(num, den):
        return float(num) / den if den else 0.0

    solves = np.zeros(len(nid), bool)
    for name in SOLVERS:
        solves |= mask(name)
    solves &= ~raised
    iters = float(size[mask("oracle.minimize_particles")].sum())
    radial_ok = int((mask("sphere.integrate_radial") & ~raised).sum())
    failed = [r for r in records if r["outcome"] != "ok"]
    kinds = Counter(r["kind"] if r["outcome"] == "raised" else "check" for r in failed)
    diag = lambda key: max([r["diag"].get(key, 0.0) for r in records] + [0.0])
    traced_ops = _ops_per_s(records, wall)
    m = {}
    for name in ("specfun.hyp2f1", "specfun.beta_inc_reg", "sphere.kappa",
                 "cap_riesz.eta_density", "cap_riesz.weighted_potential",
                 "axis_field.axis_solve_t", "oracle.potential_of"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_pct"] = self_pct(name)
    m.update({
        "specfun.hyp2f1_regularized.points": float(size[mask("specfun.hyp2f1_regularized")].sum()),
        "specfun.hyp2f1_regularized.self_pct": self_pct("specfun.hyp2f1_regularized"),
        "sphere.build_quadrature.calls": calls("sphere.build_quadrature"),
        "sphere.build_quadrature.nodes": float(size[mask("sphere.build_quadrature")].sum()),
        "sphere.build_quadrature.self_pct": self_pct("sphere.build_quadrature"),
        "sphere.integrate_radial.calls": calls("sphere.integrate_radial"),
        "sphere.integrate_radial.rules_per_call": ratio(
            under("sphere.build_quadrature", "sphere.integrate_radial"), radial_ok),
        "sphere.integrate_radial.raised": int((mask("sphere.integrate_radial") & raised).sum()),
        "point_field.full_support_margin.calls": calls("point_field.full_support_margin"),
        "solve.full_sphere_share": ratio(size[solves].sum(), solves.sum()),
        "cap_riesz.phi.calls_per_solve": ratio(under("cap_riesz.phi", "cap_riesz.solve_t0"),
                                               calls("cap_riesz.solve_t0")),
        "cap_riesz.eps_norm.self_pct": self_pct("cap_riesz.eps_norm"),
        "cap_exceptional.phibar.calls": calls("cap_exceptional.phibar"),
        "cap_exceptional.epsbar_norm.self_pct": self_pct("cap_exceptional.epsbar_norm"),
        "cap_exceptional.etabar.calls": calls("cap_exceptional.etabar"),
        "oracle.minimize_particles.iters_per_s": ratio(
            iters, float(dur[mask("oracle.minimize_particles")].sum())),
        "oracle.external_field.calls_per_iter": ratio(
            under("oracle.external_field", "oracle.minimize_particles"), iters),
        "cli.run_scenario.self_pct": self_pct("cli.run_scenario"),
        "cli.bytes_written": sum(r["bytes"] for r in records),
        **{f"fail.{kind}": kinds.get(kind, 0) for kind in FAIL_KINDS},
        "fail.other_error": sum(v for k, v in kinds.items()
                                if k not in FAIL_KINDS and k != "check"),
        "fail.check": kinds.get("check", 0),
        "fail.time_pct": 100.0 * sum(r["ms"] for r in failed) / 1e3 / wall,
        "solve.t0_ref_err_max": diag("t0_ref_err"),
        "solve.mass_err_max": diag("mass_err"),
        "verify.max_violation": diag("max_violation"),
        "trace.ops_per_s": traced_ops,
        "trace.untraced_ops_per_s": untraced_ops_per_s,
        "trace.overhead_pct": 100.0 * (ratio(untraced_ops_per_s, traced_ops) - 1.0),
        "trace.spans": len(nid),
    })
    assert set(m) == set(LAYER_UNITS)
    return m


# ---------------------------------------------------------------------------
# records

def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy", "mpmath")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
    }


def traffic(records) -> dict:
    """Regime mix, predicted branch share and distinct (d, s, regime) keys of
    the operations run; caching claims name these properties."""
    n = len(records)
    branches = Counter(r["branch"] for r in records)
    return {
        "operations": n,
        "regime_mix": {k: v / n for k, v in sorted(Counter(r["regime"] for r in records).items())},
        "task_mix": {k: v / n for k, v in sorted(Counter(r["task"] for r in records).items())},
        "full_sphere_share": branches["full"] / n,
        "interior_root_share": branches["interior"] / n,
        "distinct_d_s_regime": len({json.dumps(r["key"]) for r in records}),
        "strata": dict(sorted(Counter(r["stratum"] for r in records).items())),
    }


def _setup_repeats(args) -> list[float]:
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.split()[-1]))
    return out


def _run_one(args) -> int:
    cli, wl, rounds, setup_s = _setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    tag = f"{args.workload}-s{args.seed}"
    work_dir = OUT / "work" / f"{tag}-{os.getpid()}"
    runner = Runner(cli, wl, rounds, work_dir)
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace,
              "inputs_digest": _digest([[it["cfg"] for it in r] for r in rounds[:SETUP_ROUNDS]])}
    try:
        if args.trace:
            half, wall0, plain = runner.run(0, args.seconds / 2.0)
            tracer = Tracer()
            tracer.install([importlib.import_module(f"rieszcap.{m}") for m in MODULES],
                           _size_fns())
            try:
                _, wall, records = runner.run(half, 0.0, rounds=half)
            finally:
                tracer.uninstall()
            spans = tracer.arrays()
            metrics = per_layer(spans, records, wall, _ops_per_s(plain, wall0))
            units = LAYER_UNITS
            OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
            np.savez(OUT / "results" / f"{tag}-spans.npz", **spans)
        else:
            _, wall, records = runner.run(0, args.seconds)
            setup_times = [setup_s] + _setup_repeats(args)
            metrics = end_to_end(records, wall, setup_times)
            units = END_TO_END
            result["setup_times_s"] = setup_times
            result["extra"] = extra_end_to_end(records)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    records_all = runner.records
    first_round = [r["artifacts"] for r in records_all if r["round"] == 0]
    result.update({
        "environment": environment(),
        "traffic": traffic(records),
        "artifacts_digest_round0": _digest(first_round),
        "loop_wall_s": wall,
        "rounds": sorted({r["round"] for r in records}),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "records": records_all,
    })
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}-t{args.trace}.json").write_text(json.dumps(result, indent=1))
    for k, v in metrics.items():
        print(f"{args.workload:14s} {k:42s} {v:14.6g} {units[k]}")
    for k, v in result.get("extra", {}).items():
        print(f"{args.workload:14s} {k:42s} {v:14.6g} {EXTRA_UNITS[k]}")
    print(json.dumps({
        "correct": not any(r["outcome"] == "wrong" for r in records_all),
        "attempted": len(records_all),
        "failed": sum(r["outcome"] != "ok" for r in records_all),
        "metrics": result["metrics"]}))
    return 0


def _run_all(args) -> int:
    """Each workload in a fresh process; one row per workload."""
    status = 0
    rows = []
    for name in MAKERS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        res = json.loads((OUT / "results" / f"{name}-s{args.seed}-t{args.trace}.json").read_text())
        cells = {k: (v["value"], v["unit"]) for k, v in last["metrics"].items()}
        for k, v in res.get("extra", {}).items():
            cells[k] = (v, EXTRA_UNITS[k])
        rows.append((name, last, cells))
    for name, last, cells in rows:
        print(f"[{name}] attempted={last['attempted']} failed={last['failed']} "
              f"correct={last['correct']}")
        print("  " + "  ".join(f"{k}={v:.6g} {u}" for k, (v, u) in cells.items()))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
