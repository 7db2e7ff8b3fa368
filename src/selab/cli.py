"""Batch experiment runner.

``selab run plan.json [--threads N] [--assert] [--out DIR]`` parses a JSON
plan, dispatches to the library modules, and writes CSV checkpoint tables
plus a JSON summary; ``--threads`` maps rw-asym's walks over a thread pool,
and every other experiment runs on one thread.  ``selab selftest`` runs the
oracle checks of :mod:`selab.selftest` on fixed inputs; the tier-1 tests
drive the same checks.  Output bytes (CSV) are a pure function of the plan.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from collections.abc import Callable, Set
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, empirical, ledger, rng, rotation, sources, spectral
from .fields import (DiscreteField, GaussianField, MovingAverageField,
                     UniformField)

STATS_HEADER = ledger.CSV_HEADER


class PlanError(ValueError):
    pass


def _require(obj: dict, path: str, allowed: set[str], required: set[str]) -> None:
    """Raise on the first unknown, then the first missing key, in sorted
    order: set order varies with string hashing from process to process."""
    for key in sorted(obj):
        if key not in allowed:
            raise PlanError(f"unknown key \"{path}.{key}\"")
    for key in sorted(required):
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
        return rotation.ContinuedFraction(
            coeffs=_ints(obj.get("coeffs", ()), path + ".coeffs"),
            periodic=_ints(obj.get("periodic", ()), path + ".periodic"))
    except ValueError as exc:
        raise PlanError(f"bad continued fraction at \"{path}\": {exc}") from None


def _int(x, path: str) -> int:
    """x, which must be an integer (:func:`sources.is_int`)."""
    if not sources.is_int(x):
        raise PlanError(f"\"{path}\" must be an integer")
    return x


def _seed(x, path: str) -> int:
    """A seed, which must lie in [0, 2^64): ``rng`` reduces it mod 2^64."""
    if not (sources.is_int(x) and 0 <= x <= rng.MASK64):
        raise PlanError(f"\"{path}\" must be an integer in [0, 2^64)")
    return x


def _ints(xs, path: str) -> list[int]:
    return [_int(x, path) for x in xs]


def _atoms(obj: dict, path: str) -> list:
    return [(_ints(a, path + ".atoms"), p) for a, p in obj["atoms"]]


def _parse_point(obj, path: str) -> int:
    if isinstance(obj, dict):
        _require(obj, path, {"seed"}, {"seed"})
        return rotation.point_from_seed(_seed(obj["seed"], path + ".seed"))
    return rotation.fraction_to_fp(_fraction(obj, path))


def parse_source(obj: dict, path: str = "$.source"):
    if not isinstance(obj, dict) or "variant" not in obj:
        raise PlanError(f"\"{path}\" must be an object with a \"variant\"")
    variant = obj["variant"]

    def seed() -> int:
        return _seed(obj["seed"], path + ".seed")

    try:
        if variant == "rw":
            _require(obj, path, {"variant", "atoms", "simple", "seed"}, {"seed"})
            dist = (sources.simple_walk(_int(obj["simple"], path + ".simple"))
                    if "simple" in obj
                    else sources.StepDistribution(_atoms(obj, path)))
            return sources.RandomWalkSource(dist, seed())
        if variant == "coboundary":
            _require(obj, path, {"variant", "atoms", "seed"}, {"atoms", "seed"})
            return sources.CoboundarySource(
                sources.StepDistribution(_atoms(obj, path)), seed())
        if variant == "window":
            _require(obj, path, {"variant", "inner", "r", "table", "seed"},
                     {"inner", "r", "table", "seed"})
            inner = [(_int(a, path + ".inner"), p) for a, p in obj["inner"]]
            table = {tuple(int(x) for x in k.split(",")):
                     _ints(v, path + ".table") for k, v in obj["table"].items()}
            return sources.WindowFunctional(inner, _int(obj["r"], path + ".r"),
                                            table, seed())
        if variant == "explicit":
            _require(obj, path, {"variant", "sites", "path"}, set())
            if "sites" in obj:
                return sources.ExplicitSource(
                    _ints(s, path + ".sites") for s in obj["sites"])
            lines = Path(obj["path"]).read_text().splitlines()
            return sources.ExplicitSource(map(int, ln.split())
                                          for ln in lines if ln.strip())
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
                    _ints(f_obj["values"], path + ".f.values"))
            return rotation.RotationCocycle(_parse_cf(obj["cf"], path + ".cf"),
                                            f, _parse_point(obj["x"], path + ".x"))
        if variant == "special-flow":
            _require(obj, path, {"variant", "cf", "levels", "lambda_indices", "x"},
                     {"cf", "levels", "x"})
            cf = _parse_cf(obj["cf"], path + ".cf")
            levels = _int(obj["levels"], path + ".levels")
            lam = obj.get("lambda_indices")
            if lam is None:
                lam = rotation.minimal_lambda_indices(cf, levels)
            else:
                lam = _ints(lam, path + ".lambda_indices")
            return rotation.SpecialFlowSource(cf, levels, lam,
                                              _parse_point(obj["x"], path + ".x"))
    except PlanError:
        raise
    except (ValueError, LookupError, TypeError, AttributeError, OSError) as exc:
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


def parse_plan(text: str) -> dict:
    """Validate the JSON plan against its experiment's row of
    :data:`EXPERIMENTS`; returns the parsed dict with built objects under
    private keys.  Unknown keys are rejected with a path-qualified message."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise PlanError("plan must be a JSON object")
    exp, names = obj.get("experiment"), tuple(EXPERIMENTS)
    if exp not in names:  # a tuple: exp may be unhashable
        raise PlanError(f"\"$.experiment\" must be one of {names}")
    row = EXPERIMENTS[exp]
    keys = row.required | row.optional
    _require(obj, "$", keys | {"experiment"}, row.required)
    plan = dict(obj)
    if "source" in obj:
        plan["_source"] = parse_source(obj["source"])
    if "field" in obj:
        plan["_field"] = parse_field(obj["field"])
        if row.fields and obj["field"]["variant"] not in row.fields:
            raise PlanError(f"\"$.field.variant\" must be one of "
                            f"{', '.join(row.fields)} for this {exp} plan")
    for key in ("n", "replicates", "budget", "kmax"):
        if key in obj:
            _int(obj[key], f"$.{key}")
    for key, least in (("n", 1), ("budget", 1), ("kmax", 0)):
        if obj.get(key, least) < least:
            raise PlanError(f"\"$.{key}\" must be at least {least}")
    if "seed_base" in obj:
        _seed(obj["seed_base"], "$.seed_base")
    if "replicates" in obj and obj["replicates"] < row.min_replicates:
        raise PlanError(f"replicates < {row.min_replicates} at \"$.replicates\": "
                        f"{exp} needs at least {row.min_replicates}")
    if "checkpoints" in keys:
        plan["_checkpoints"] = _checkpoints(obj)
    if "grid" in keys:
        _check_fclt(obj)
    # an annealed run draws a fresh walk per replicate
    needs = _SEEDED if obj.get("quenched") is False else row.variants
    if needs and obj["source"]["variant"] not in needs:
        raise PlanError(f"\"$.source.variant\" must be one of "
                        f"{', '.join(needs)} for this {exp} plan")
    return plan


def _check_fclt(obj: dict) -> None:
    grid = obj["grid"]
    if (not isinstance(grid, list) or not grid
            or not all(isinstance(s, (int, float)) and not isinstance(s, bool)
                       and math.isfinite(s) for s in grid)
            or any(b <= a for a, b in zip(grid, grid[1:]))):
        raise PlanError("\"$.grid\" must be a nonempty, strictly increasing "
                        "list of finite numbers")
    if not isinstance(obj.get("quenched", True), bool):
        raise PlanError("\"$.quenched\" must be true or false")


def _checkpoints(obj: dict) -> list[int]:
    """The plan's checkpoints, by default n / 10^k for k < 4, validated for
    the runners, which advance one ledger through them in order."""
    n = obj.get("n")
    cps = obj.get("checkpoints")
    if cps is None:
        cps = sorted({max(1, n // 10**k) for k in range(4)})
    if (not isinstance(cps, list) or not cps
            or not all(sources.is_int(c) and c >= 1 for c in cps)
            or any(b <= a for a, b in zip(cps, cps[1:]))
            or (n is not None and cps[-1] > n)):
        raise PlanError("\"$.checkpoints\" must be a nonempty, strictly "
                        "increasing list of positive integers"
                        + (", none above n" if n is not None else ""))
    return cps


def _threads(cli_value: int | None) -> int:
    """--threads, else SELAB_THREADS, else 1; at most one per core."""
    if cli_value is None:
        env = os.environ.get("SELAB_THREADS")
        cli_value = int(env) if env else 1
    return max(1, min(cli_value, os.cpu_count() or 1))


def _pmap(fn, items, threads: int) -> list:
    """Apply fn over items; deterministic order regardless of thread count."""
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            # numpy scalars as Python numbers: numpy 2 reprs np.float64(0.5)
            row = [x.item() if isinstance(x, np.generic) else x for x in row]
            w.writerow([repr(x) if isinstance(x, float) else x for x in row])


# --------------------------------------------------------------------------
# experiment runners, one per row of EXPERIMENTS


def _feed(cur, checkpoints: list[int]) -> tuple[list, dict]:
    """:func:`ledger.feed`'s ledgers, and its problem sizes and its time,
    ``feed_s``, for a summary (:func:`run_plan` moves ``feed_s`` out)."""
    start = time.perf_counter()
    leds, blocks = ledger.feed(cur, checkpoints)
    return leds, {"n": leds[-1].n,
                  "distinct_sites": [led.range_card for led in leds],
                  "ledger_blocks": blocks,
                  "feed_s": time.perf_counter() - start}


def _run_stats(plan, threads):
    leds, sizes = _feed(sources.cursor(plan["_source"]), plan["_checkpoints"])
    rows = [led.snapshot_row() for led in leds]
    summary = {"final": dict(zip(STATS_HEADER, rows[-1])), **sizes,
               "op": "ledger.LocalTimeLedger.snapshot_row"}
    if len(rows) >= 3 and rows[0][0] >= 16:
        rep = ledger.condition_report([led.checkpoint() for led in leds])
        summary["condition_report"] = dict(dataclasses.asdict(rep),
                                           op="ledger.condition_report")
    return {"stats.csv": (STATS_HEADER, rows)}, summary, {}


def _run_gc(plan, threads):
    reps, cps = plan["replicates"], plan["_checkpoints"]
    field = plan["_field"]
    leds, sizes = _feed(sources.cursor(plan["_source"]), cps)
    ecdfs = empirical.SampledEcdfs(field, leds)  # built once per run
    # the object holds what the replicates read: the sites' coordinates
    # go with the ledgers
    max_local_time = leds[-1].max_count
    del leds
    # on one thread: on 2 cores a second one made gc-rw3 no faster
    devs = [[empirical.sup_deviation(e, field) for e in ecdfs(
        rng.derive(plan["seed_base"], "field", rep))] for rep in range(reps)]
    rows = [(rep, c, dev) for rep, row in enumerate(devs)
            for c, dev in zip(cps, row)]
    improved = sum(row[-1] < row[0] for row in devs)
    summary = {"final_sup_deviation_max": max(row[-1] for row in devs),
               "replicates_improved": improved, **sizes,
               "hash_prefixes": ecdfs.sites.prefixes,
               "max_local_time": max_local_time,
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
    if isinstance(plan["_field"], DiscreteField):
        summary["sup_law"] = ("not applicable: the Kolmogorov law of sup |Y| "
                              "needs a continuous F, and the field has atoms")
    checks = {"covariance_within_3_stderr": ok}
    return {"fclt.csv": (("s", "t", "cov", "stderr", "target"), rows)}, summary, checks


def _run_rw_asym(plan, threads):
    src, cps, reps = plan["_source"], plan["_checkpoints"], plan["replicates"]

    def one(rep: int):  # (rows, slope of log V against log n, sizes)
        cfg = dataclasses.replace(src, seed=rng.derive(plan["seed_base"],
                                                       "walk", rep))
        leds, sizes = _feed(sources.cursor(cfg), cps)
        rows = [(rep,) + led.snapshot_row() for led in leds]
        slope = ledger.ls_slope([math.log(r[1]) for r in rows],
                                [math.log(r[3]) for r in rows])
        return rows, slope, sizes

    done = _pmap(one, range(reps), threads)
    rows = [r for chunk, _, _ in done for r in chunk]
    summary = {"log_v_slopes": [slope for _, slope, _ in done],
               "n": cps[-1],
               **{key: [s[key] for _, _, s in done] for key in
                  ("distinct_sites", "ledger_blocks", "feed_s")},
               "op": "ledger.LocalTimeLedger.snapshot_row"}
    return {"rw_asym.csv": (("rep",) + STATS_HEADER, rows)}, summary, {}


def _run_rotation(plan, threads):
    cur = sources.cursor(plan["_source"])
    leds, sizes = _feed(cur, plan["_checkpoints"])
    rows = [led.snapshot_row() for led in leds]
    norm = [r[2] * math.sqrt(math.log(r[0])) / r[0] ** 2 for r in rows]
    summary = {"v_sqrtlog_over_n2": norm,
               "near_breakpoint_hits": getattr(cur, "near_hits", 0), **sizes,
               "op": "ledger.LocalTimeLedger.snapshot_row"}
    return {"rotation.csv": (STATS_HEADER, rows)}, summary, {}


def _run_counterexample(plan, threads):
    src = plan["_source"]
    budget = plan.get("budget", 10**8)
    sched = rotation.counterexample_ratio_schedule(src, budget)
    heights = src.tower_heights()
    floors = rotation.ratio_floors(src)
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
    rep = spectral.transient_variance_report(
        plan["_source"].dist, plan["_field"], plan["n"], plan["replicates"],
        plan["seed_base"], kmax=plan.get("kmax", 200))
    record = rep.record()
    summary = {"comparison": record,
               "finite_n_mean": rep.finite_n_mean,
               "n": rep.n, "replicates": rep.replicates, "route": rep.route,
               "op": "spectral.transient_variance_report"}
    checks = {"positive": rep.positive,
              "defect_small": abs(rep.defect_estimate)
              <= 0.05 * rep.series_prediction}
    return {"variance.csv": (tuple(record), [tuple(record.values())])}, \
        summary, checks


def run_selftest() -> dict:
    """:func:`selab.selftest.run`, imported only when the suites run."""
    from . import selftest
    return selftest.run()


def _run_selftest(plan, threads):
    results = run_selftest()
    return {}, {"selftest": results}, {"selftest": results["ok"]}


class Experiment(NamedTuple):
    """A row of :data:`EXPERIMENTS`: the runner, returning (csv files, summary,
    checks), the plan keys it requires and allows besides ``experiment``, the
    least replicates, the source variants it can read and the field
    variants its targets hold for (empty: any)."""

    run: Callable[[dict, int], tuple[dict, dict, dict]]
    required: Set[str]
    optional: Set[str] = frozenset()
    min_replicates: int = 0
    variants: tuple[str, ...] = ()
    fields: tuple[str, ...] = ()


# The schedule needs a special flow's towers, the series a step law, fresh
# walks a seed to replace; the Monte Carlo standard error of variance two
# replicates, the jackknife and percentile estimates of fclt a hundred;
# fclt's target F(min(s, t)) - F(s) F(t) holds for i.i.d. fields only.
_SEEDED = ("rw", "coboundary", "window")
_REPS = {"replicates", "seed_base"}
EXPERIMENTS = {
    "stats": Experiment(_run_stats, {"source", "n"}, {"checkpoints"}),
    "gc": Experiment(_run_gc, {"source", "field", "n"} | _REPS,
                     {"checkpoints"}, min_replicates=1),
    "fclt": Experiment(_run_fclt, {"source", "field", "n", "grid"} | _REPS,
                       {"quenched"}, min_replicates=100,
                       fields=("uniform", "gaussian", "discrete")),
    "rw-asym": Experiment(_run_rw_asym, {"source", "checkpoints"} | _REPS,
                          min_replicates=1, variants=_SEEDED),
    "rotation": Experiment(_run_rotation, {"source", "checkpoints"}),
    "counterexample": Experiment(_run_counterexample, {"source"}, {"budget"},
                                 variants=("special-flow",)),
    "variance": Experiment(_run_variance, {"source", "field", "n"} | _REPS,
                           {"kmax"}, min_replicates=2, variants=("rw",)),
    "selftest": Experiment(_run_selftest, frozenset()),
}


_STATUS = "/proc/self/status"


def _peak_rss_mb() -> float | None:
    """The process's peak resident set (VmHWM) in MB, or None where
    :data:`_STATUS` does not give it."""
    try:
        with open(_STATUS) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def run_plan(plan: dict, out_dir: Path, threads: int = 1) -> tuple[dict, dict]:
    """Execute a parsed plan; writes artifacts, returns (summary, checks)."""
    start = time.monotonic()
    files, summary, checks = EXPERIMENTS[plan["experiment"]].run(plan, threads)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in files.items():
        _write_csv(out_dir / name, header, rows)
    echo = {k: v for k, v in plan.items() if not k.startswith("_")}
    # timings beside wall_time_s: the summary returned is a function of the
    # plan alone
    timings = {"feed_s": summary.pop("feed_s")} if "feed_s" in summary else {}
    summary_doc = {"plan": echo, "version": __version__,
                   "wall_time_s": time.monotonic() - start, **timings,
                   "peak_rss_mb": _peak_rss_mb(),
                   "summary": summary, "checks": checks}
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary_doc, fh, indent=2, sort_keys=True,
                  default=lambda x: x.item() if isinstance(x, np.generic)
                  else str(x))
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
                      help="worker threads for rw-asym's walks; other "
                      "experiments run on one (default: SELAB_THREADS or 1)")
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
