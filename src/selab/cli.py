"""Batch experiment runner.

``selab run plan.json [--threads N] [--assert] [--out DIR]`` parses a JSON
plan, dispatches to the library modules, and writes CSV checkpoint tables
plus a JSON summary.  ``selab selftest`` runs quick oracle suites.  Output
bytes (CSV) are a pure function of the plan.
"""

from __future__ import annotations

import argparse
import copy
import csv
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, empirical, ledger, rng, rotation, sources, spectral
from .fields import (DiscreteField, GaussianField, MovingAverageField,
                     UniformField)

EXPERIMENTS = ("stats", "gc", "fclt", "rw-asym", "rotation", "counterexample",
               "variance", "selftest")

STATS_HEADER = ledger.CSV_HEADER


class PlanError(ValueError):
    pass


def _require(obj: dict, path: str, allowed: set[str], required: set[str]) -> None:
    for key in obj:
        if key not in allowed:
            raise PlanError(f"unknown key \"{path}.{key}\"")
    for key in required:
        if key not in obj:
            raise PlanError(f"missing key \"{path}.{key}\"")


def _fraction(text, path: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise PlanError(f"bad fraction at \"{path}\": {exc}") from None


def _parse_cf(obj: dict, path: str) -> rotation.ContinuedFraction:
    if not isinstance(obj, dict):
        raise PlanError(f"\"{path}\" must be an object")
    _require(obj, path, {"coeffs", "periodic"}, set())
    try:
        return rotation.ContinuedFraction(coeffs=obj.get("coeffs", ()),
                                          periodic=obj.get("periodic", ()))
    except ValueError as exc:
        raise PlanError(f"bad continued fraction at \"{path}\": {exc}") from None


def _parse_point(obj, path: str) -> int:
    if isinstance(obj, dict):
        _require(obj, path, {"seed"}, {"seed"})
        return rotation.point_from_seed(int(obj["seed"]))
    return rotation.fraction_to_fp(_fraction(obj, path))


def parse_source(obj: dict, path: str = "$.source"):
    if not isinstance(obj, dict) or "variant" not in obj:
        raise PlanError(f"\"{path}\" must be an object with a \"variant\"")
    variant = obj["variant"]
    try:
        if variant == "rw":
            _require(obj, path, {"variant", "atoms", "simple", "seed"}, {"seed"})
            dist = (sources.simple_walk(int(obj["simple"])) if "simple" in obj
                    else sources.StepDistribution(obj["atoms"]))
            return sources.RandomWalkSource(dist, int(obj["seed"]))
        if variant == "coboundary":
            _require(obj, path, {"variant", "atoms", "seed"}, {"atoms", "seed"})
            return sources.CoboundarySource(sources.StepDistribution(obj["atoms"]),
                                            int(obj["seed"]))
        if variant == "window":
            _require(obj, path, {"variant", "inner", "r", "table", "seed"},
                     {"inner", "r", "table", "seed"})
            table = {tuple(int(x) for x in k.split(",")): tuple(v)
                     for k, v in obj["table"].items()}
            return sources.WindowFunctional(obj["inner"], int(obj["r"]),
                                            table, int(obj["seed"]))
        if variant == "explicit":
            _require(obj, path, {"variant", "sites", "path"}, set())
            if "sites" in obj:
                return sources.ExplicitSource(obj["sites"])
            lines = Path(obj["path"]).read_text().splitlines()
            sites = [tuple(int(x) for x in ln.split()) for ln in lines if ln.strip()]
            return sources.ExplicitSource(sites)
        if variant == "rotation":
            _require(obj, path, {"variant", "cf", "f", "x"}, {"cf", "x"})
            f_obj = obj.get("f")
            if f_obj is None:
                f = rotation.StepFunction.square_wave()
            else:
                _require(f_obj, path + ".f", {"breakpoints", "values"},
                         {"breakpoints", "values"})
                f = rotation.StepFunction(
                    [_fraction(b, path + ".f.breakpoints") for b in f_obj["breakpoints"]],
                    f_obj["values"])
            return rotation.RotationCocycle(_parse_cf(obj["cf"], path + ".cf"),
                                            f, _parse_point(obj["x"], path + ".x"))
        if variant == "special-flow":
            _require(obj, path, {"variant", "cf", "levels", "lambda_indices", "x"},
                     {"cf", "levels", "x"})
            cf = _parse_cf(obj["cf"], path + ".cf")
            levels = int(obj["levels"])
            lam = obj.get("lambda_indices")
            if lam is None:
                lam = rotation.minimal_lambda_indices(cf, levels)
            cfg = rotation.SpecialFlowConfig(cf, levels, lam,
                                             _parse_point(obj["x"], path + ".x"))
            return rotation.SpecialFlowSource(cfg)
    except PlanError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise PlanError(f"bad source at \"{path}\": {exc}") from None
    raise PlanError(f"unknown source variant \"{variant}\" at \"{path}.variant\"")


def parse_field(obj: dict, path: str = "$.field"):
    if not isinstance(obj, dict) or "variant" not in obj:
        raise PlanError(f"\"{path}\" must be an object with a \"variant\"")
    variant = obj["variant"]
    try:
        if variant == "uniform":
            _require(obj, path, {"variant"}, set())
            return UniformField()
        if variant == "gaussian":
            _require(obj, path, {"variant", "mu", "sigma"}, set())
            return GaussianField(float(obj.get("mu", 0.0)),
                                 float(obj.get("sigma", 1.0)))
        if variant == "discrete":
            _require(obj, path, {"variant", "atoms"}, {"atoms"})
            return DiscreteField(obj["atoms"])
        if variant == "ma":
            _require(obj, path, {"variant", "weights", "sigma"}, {"weights"})
            return MovingAverageField(obj["weights"],
                                      float(obj.get("sigma", 1.0)))
    except PlanError:
        raise
    except (ValueError, TypeError) as exc:
        raise PlanError(f"bad field at \"{path}\": {exc}") from None
    raise PlanError(f"unknown field variant \"{variant}\" at \"{path}.variant\"")


_PLAN_KEYS = {
    "stats": ({"experiment", "source", "n", "checkpoints", "seed"},
              {"source", "n"}),
    "gc": ({"experiment", "source", "field", "n", "checkpoints", "replicates",
            "seed_base"}, {"source", "field", "n", "replicates", "seed_base"}),
    "fclt": ({"experiment", "source", "field", "n", "grid", "replicates",
              "seed_base", "quenched"},
             {"source", "field", "n", "grid", "replicates", "seed_base"}),
    "rw-asym": ({"experiment", "source", "checkpoints", "replicates",
                 "seed_base"}, {"source", "checkpoints", "replicates",
                                "seed_base"}),
    "rotation": ({"experiment", "source", "checkpoints"},
                 {"source", "checkpoints"}),
    "counterexample": ({"experiment", "source", "budget"}, {"source"}),
    "variance": ({"experiment", "source", "field", "n", "replicates",
                  "seed_base", "kmax"},
                 {"source", "field", "n", "replicates", "seed_base"}),
    "selftest": ({"experiment"}, set()),
}


def parse_plan(text: str) -> dict:
    """Validate the JSON plan; returns the parsed dict with built objects
    under private keys.  Unknown keys are rejected with a path-qualified
    message."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise PlanError("plan must be a JSON object")
    exp = obj.get("experiment")
    if exp not in EXPERIMENTS:
        raise PlanError(f"\"$.experiment\" must be one of {EXPERIMENTS}")
    allowed, required = _PLAN_KEYS[exp]
    _require(obj, "$", allowed, required | {"experiment"})
    plan = dict(obj)
    if "source" in obj:
        plan["_source"] = parse_source(obj["source"])
    if "field" in obj:
        plan["_field"] = parse_field(obj["field"])
    for key in ("n", "replicates", "seed_base", "seed", "budget", "kmax"):
        if key in obj and (not isinstance(obj[key], int) or isinstance(obj[key], bool)):
            raise PlanError(f"\"$.{key}\" must be an integer")
    if exp == "fclt" and plan["replicates"] < 100:
        raise PlanError("replicates < 100: the jackknife and percentile "
                        "estimates need at least 100 replicates")
    return plan


def _threads(cli_value: int | None) -> int:
    if cli_value is not None:
        return max(1, cli_value)
    env = os.environ.get("SELAB_THREADS")
    return max(1, int(env)) if env else 1


def _pmap(fn, items, threads: int) -> list:
    """Apply fn over items; deterministic order regardless of thread count."""
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _checkpoints(plan: dict, n: int) -> list[int]:
    cps = plan.get("checkpoints")
    if cps is None:
        cps = sorted({max(1, n // 10**k) for k in range(4)})
    cps = [int(c) for c in cps]
    if any(b <= a for a, b in zip(cps, cps[1:])) or cps[-1] > n:
        raise PlanError("\"$.checkpoints\" must be strictly increasing and <= n")
    return cps


def _checkpoint_ledgers(source, checkpoints: list[int]) -> list:
    """One ledger snapshot (a shallow copy) per checkpoint.

    Blocks from ``sources.stream`` hold min(steps to the next checkpoint,
    max(4096, distinct sites so far)) steps: the trajectory is never held
    whole, and each block costs about as much as re-sorting the sites.
    """
    led = ledger.LocalTimeLedger(source.d)
    it = itertools.chain.from_iterable(sources.stream(source))
    snaps = []
    for c in checkpoints:
        while led.n < c:
            size = min(c - led.n, max(4096, led.range_card))
            block = np.fromiter(itertools.islice(it, size * source.d),
                                dtype=np.int64)
            if block.size < size * source.d:
                raise PlanError("source exhausted before the last checkpoint")
            led.record_block(block.reshape(size, source.d))
        snaps.append(copy.copy(led))
    return snaps


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])


# --------------------------------------------------------------------------
# experiment runners: each returns (csv files, summary dict, checks dict)


def _run_stats(plan, threads):
    n = plan["n"]
    cps = _checkpoints(plan, n)
    rows = [led.snapshot_row()
            for led in _checkpoint_ledgers(plan["_source"], cps)]
    summary = {"final": dict(zip(STATS_HEADER, rows[-1])),
               "op": "ledger.LocalTimeLedger.snapshot_row"}
    checks = {}
    if len(rows) >= 3 and rows[0][0] >= 16:
        rep = ledger.condition_report([(r[0], r[1], r[2], r[5]) for r in rows])
        summary["condition_report"] = {
            "beta_fit": rep.beta_fit, "fclt_flag": rep.fclt_flag,
            "pqd_flag": rep.pqd_flag, "final_m2_over_v": rep.final_m2_over_v,
            "zeta_note": rep.zeta_note, "op": "ledger.condition_report"}
    return {"stats.csv": (STATS_HEADER, rows)}, summary, checks


def _run_gc(plan, threads):
    n, reps = plan["n"], plan["replicates"]
    cps = _checkpoints(plan, n)
    field = plan["_field"]
    leds = dict(zip(cps, _checkpoint_ledgers(plan["_source"], cps)))

    def one(rep: int):
        fseed = rng.derive(plan["seed_base"], "field", rep)
        return [(rep, c, empirical.sup_deviation(
            empirical.sampled_ecdf(field, fseed, leds[c]), field))
            for c in cps]

    rows = [r for chunk in _pmap(one, range(reps), threads) for r in chunk]
    finals = [r[2] for r in rows if r[1] == cps[-1]]
    firsts = {r[0]: r[2] for r in rows if r[1] == cps[0]}
    improved = sum(1 for r in rows
                   if r[1] == cps[-1] and r[2] < firsts[r[0]])
    summary = {"final_sup_deviation_max": max(finals),
               "replicates_improved": improved,
               "op": "empirical.sup_deviation"}
    checks = {"decay": improved >= math.ceil(0.9 * reps)}
    return {"gc.csv": (("field_rep", "n", "sup_deviation"), rows)}, summary, checks


def _run_fclt(plan, threads):
    res = empirical.mc_fclt(plan["_field"], plan["_source"], plan["n"],
                            plan["grid"], plan["replicates"],
                            plan["seed_base"],
                            quenched=plan.get("quenched", True))
    rows = []
    ok = True
    g = res.grid.size
    for i in range(g):
        for j in range(i, g):
            est, se, tgt = res.cov[i, j], res.cov_stderr[i, j], res.cov_target[i, j]
            rows.append((res.grid[i], res.grid[j], est, se, tgt))
            if abs(est - tgt) > 3 * se:
                ok = False
    sup95 = float(np.quantile(res.sup_sample, 0.95))
    summary = {"n": res.n, "v": res.v, "m2_over_v": res.m2_over_v,
               "sup_95th_percentile": sup95, "quenched": res.quenched,
               "op": "empirical.mc_fclt"}
    checks = {"covariance_within_3_stderr": ok}
    return {"fclt.csv": (("s", "t", "cov", "stderr", "target"), rows)}, summary, checks


def _run_rw_asym(plan, threads):
    import dataclasses
    src = plan["_source"]
    cps = [int(c) for c in plan["checkpoints"]]
    reps = plan["replicates"]

    def one(rep: int):
        cfg = dataclasses.replace(src, seed=rng.derive(plan["seed_base"],
                                                       "walk", rep))
        coords = sources.generate(cfg, cps[-1])
        ts = ledger.trajectory_stats(coords)
        return [(rep,) + ts.row(c) for c in cps]

    rows = [r for chunk in _pmap(one, range(reps), threads) for r in chunk]
    slopes = []
    for rep in range(reps):
        pts = [(math.log(r[1]), math.log(r[3])) for r in rows if r[0] == rep]
        slopes.append(float(np.polyfit([p[0] for p in pts],
                                       [p[1] for p in pts], 1)[0]))
    summary = {"log_v_slopes": slopes, "op": "ledger.trajectory_stats"}
    return {"rw_asym.csv": (("rep",) + STATS_HEADER, rows)}, summary, {}


def _run_rotation(plan, threads):
    src = plan["_source"]
    cps = [int(c) for c in plan["checkpoints"]]
    rows = [led.snapshot_row() for led in _checkpoint_ledgers(src, cps)]
    norm = [r[2] * math.sqrt(math.log(r[0])) / r[0] ** 2 for r in rows]
    summary = {"v_sqrtlog_over_n2": norm,
               "near_breakpoint_hits": getattr(src, "near_hits", 0),
               "op": "ledger.LocalTimeLedger.snapshot_row"}
    return {"rotation.csv": (STATS_HEADER, rows)}, summary, {}


def _run_counterexample(plan, threads):
    src = plan["_source"]
    budget = plan.get("budget", 10**8)
    sched = rotation.counterexample_ratio_schedule(src.config, budget)
    heights = src.config.tower_heights()
    floors = rotation.ratio_floors(src.config)
    rows = [(cp.level, cp.n, cp.m, cp.v, cp.ratio) for cp in sched]
    # the floor and M = 1 + h_level are proven only at record checkpoints,
    # where no higher level was met earlier
    records = [cp for i, cp in enumerate(sched)
               if all(e.level < cp.level for e in sched[:i])]
    above_floor = all(Fraction(cp.m * cp.m, cp.v) >= floors[cp.level - 1]
                      for cp in records)
    m_exact = all(cp.m == 1 + heights[cp.level - 1] for cp in records)
    summary = {"levels_reported": len(sched),
               "ratios": [cp.ratio for cp in sched],
               "ratio_floors": [float(f) for f in floors],
               "op": "rotation.counterexample_ratio_schedule"}
    checks = {"ratios_ge_floor": above_floor,
              "final_ratio_ge_half": sched[-1].ratio >= 0.5,
              "m_equals_tower_height_plus_1": m_exact}
    return {"counterexample.csv": (("level", "n", "M", "V", "m2_over_v"),
                                   rows)}, summary, checks


def _run_variance(plan, threads):
    src = plan["_source"]
    if not isinstance(src, sources.RandomWalkSource):
        raise PlanError("variance experiment needs a random-walk source")
    rep = spectral.transient_variance_report(
        src.dist, plan["_field"], plan["n"], plan["replicates"],
        plan["seed_base"], kmax=plan.get("kmax", 200))
    summary = {"comparison": rep.record(),
               "finite_n_mean": rep.finite_n_mean,
               "op": "spectral.transient_variance_report"}
    checks = {"positive": rep.positive,
              "defect_small": abs(rep.defect_estimate)
              <= 0.05 * rep.series_prediction}
    rows = [(rep.mc_estimate, rep.mc_stderr, rep.series_prediction,
             rep.tail_bound, rep.defect_estimate, rep.positive)]
    return {"variance.csv": (("mc_estimate", "mc_stderr", "series_prediction",
                              "tail_bound", "defect_estimate", "positive"),
                             rows)}, summary, checks


def run_selftest() -> dict:
    """Small oracle suite: the block-fed ledger against the quadratic oracle,
    convergent quality, the grid Parseval identity, and the axis-split
    return series against the Fourier grid."""
    results = {}
    ok = True
    for trial in range(20):
        d = 1 + trial % 2
        cfg = sources.RandomWalkSource(sources.simple_walk(d), seed=1000 + trial)
        coords = sources.generate(cfg, 300)
        led = ledger.LocalTimeLedger(d)
        # blocks of 1..64 steps, so most of them meet a nonempty prior
        cuts = np.cumsum(1 + (64 * rng.uniforms(2000 + trial, 300)).astype(int))
        for block in np.split(coords, cuts[cuts < coords.shape[0]]):
            led.record_block(block)
        v, m, counts = ledger.brute_force_stats(coords)
        led.rescan()
        if (v, m) != (led.self_intersections, led.max_count) or counts != led.counts:
            ok = False
    results["ledger_vs_brute_force"] = ok
    cf = rotation.ContinuedFraction.golden()
    alpha = cf.convergent(40)
    conv_ok = all(abs(alpha - Fraction(p, q)) < Fraction(1, q * q)
                  for p, q in cf.convergents(20))
    results["convergent_quality"] = conv_ok
    led = ledger.LocalTimeLedger(1)
    led.record_many([(i % 7,) for i in range(30)])
    pars = abs(spectral.kernel_grid_mean(led, 13) - led.self_intersections)
    results["parseval"] = pars < 1e-6 * led.self_intersections
    rs_err = 0.0
    for d in (2, 3):
        law = sources.simple_walk(d)
        lags = [(0,) * d, (1,) + (0,) * (d - 1)]
        want = spectral._requested_lags(law, 30, lags)
        rs_err = max(rs_err, float(np.max(np.abs(
            spectral._axis_probs(law, 30, want)
            - spectral._grid_probs(law, 30, want)))))
    results["return_series"] = rs_err <= 1e-15
    results["ok"] = all(results.values())
    return results


_RUNNERS = {"stats": _run_stats, "gc": _run_gc, "fclt": _run_fclt,
            "rw-asym": _run_rw_asym, "rotation": _run_rotation,
            "counterexample": _run_counterexample, "variance": _run_variance}


def run_plan(plan: dict, out_dir: Path, threads: int = 1) -> tuple[dict, dict]:
    """Execute a parsed plan; writes artifacts, returns (summary, checks)."""
    start = time.monotonic()
    exp = plan["experiment"]
    if exp == "selftest":
        files, checks = {}, run_selftest()
        summary = {"selftest": checks}
        checks = {"selftest": checks["ok"]}
    else:
        files, summary, checks = _RUNNERS[exp](plan, threads)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in files.items():
        _write_csv(out_dir / name, header, rows)
    echo = {k: v for k, v in plan.items() if not k.startswith("_")}
    summary_doc = {"plan": echo, "version": __version__,
                   "wall_time_s": time.monotonic() - start,
                   "summary": summary, "checks": checks}
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary_doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return summary, checks


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="selab",
        description="Empirical processes sampled along lattice sequences: "
                    "batch experiments with deterministic artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a JSON experiment plan",
                          description="CSV columns: stats/rotation use "
                          + ",".join(STATS_HEADER)
                          + "; see each runner's docstring for the rest.")
    runp.add_argument("plan", help="path to the plan JSON")
    runp.add_argument("--threads", type=int, default=None,
                      help="worker threads (default: SELAB_THREADS or 1)")
    runp.add_argument("--assert", dest="assert_mode", action="store_true",
                      help="exit 2 if any condition check fails")
    runp.add_argument("--out", default=None, help="output directory")
    sub.add_parser("selftest", help="run the quick oracle suites")
    args = parser.parse_args(argv)

    if args.command == "selftest":
        results = run_selftest()
        for name, value in results.items():
            print(f"{name}: {'ok' if value else 'FAIL'}")
        return 0 if results["ok"] else 1

    try:
        plan = parse_plan(Path(args.plan).read_text())
    except (OSError, PlanError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_dir = Path(args.out) if args.out else Path(args.plan).with_suffix("")
    try:
        summary, checks = run_plan(plan, out_dir, _threads(args.threads))
    except (PlanError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, value in checks.items():
        print(f"{name}: {'ok' if value else 'FAIL'}")
    print(f"artifacts written to {out_dir}")
    if args.assert_mode and not all(checks.values()):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
