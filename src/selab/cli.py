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
import dataclasses
import json
import math
import os
import sys
import time
from bisect import bisect_right
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
    for key in ("n", "replicates", "budget", "kmax"):
        if key in obj:
            _int(obj[key], f"$.{key}")
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


def _checkpoint_ledgers(cur, checkpoints: list[int]) -> list:
    """One ledger snapshot (a shallow copy) per checkpoint, fed by the
    source cursor ``cur``.

    Blocks hold min(steps to the next checkpoint, max(4096, distinct sites
    so far)) steps: the trajectory is never held whole, and each block
    costs about as much as re-sorting the sites.
    """
    led = ledger.LocalTimeLedger(cur.d)
    snaps = []
    for c in checkpoints:
        while led.n < c:
            size = min(c - led.n, max(4096, led.range_card))
            block = cur.take(size)
            if len(block) < size:
                raise PlanError("source exhausted before the last checkpoint")
            led.record_block(block)
        snaps.append(copy.copy(led))
    return snaps


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


def _run_stats(plan, threads):
    leds = _checkpoint_ledgers(sources.cursor(plan["_source"]),
                               plan["_checkpoints"])
    rows = [led.snapshot_row() for led in leds]
    summary = {"final": dict(zip(STATS_HEADER, rows[-1])),
               "op": "ledger.LocalTimeLedger.snapshot_row"}
    if len(rows) >= 3 and rows[0][0] >= 16:
        rep = ledger.condition_report([led.checkpoint() for led in leds])
        summary["condition_report"] = dict(dataclasses.asdict(rep),
                                           op="ledger.condition_report")
    return {"stats.csv": (STATS_HEADER, rows)}, summary, {}


def _run_gc(plan, threads):
    reps, cps = plan["replicates"], plan["_checkpoints"]
    field = plan["_field"]
    leds = _checkpoint_ledgers(sources.cursor(plan["_source"]), cps)
    ecdfs = empirical.SampledEcdfs(field, leds)  # built once, read by threads

    def sups(rep):
        seed = rng.derive(plan["seed_base"], "field", rep)
        return [empirical.sup_deviation(e, field) for e in ecdfs(seed)]

    devs = _pmap(sups, range(reps), threads)
    rows = [(rep, c, dev) for rep, row in enumerate(devs)
            for c, dev in zip(cps, row)]
    improved = sum(row[-1] < row[0] for row in devs)
    summary = {"final_sup_deviation_max": max(row[-1] for row in devs),
               "replicates_improved": improved,
               "distinct_sites": [led.range_card for led in leds],
               "hash_prefixes": ecdfs.sites.prefixes,
               "max_local_time": leds[-1].max_count,
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
    why = {DiscreteField: "a continuous F, and the field has atoms",
           MovingAverageField: "i.i.d. values, and the moving-average field "
                               "is dependent"}.get(type(plan["_field"]))
    if why:
        summary["sup_law"] = ("not applicable: the Kolmogorov law of sup |Y| "
                              f"needs {why}")
    checks = {"covariance_within_3_stderr": ok}
    return {"fclt.csv": (("s", "t", "cov", "stderr", "target"), rows)}, summary, checks


def _run_rw_asym(plan, threads):
    src, cps, reps = plan["_source"], plan["_checkpoints"], plan["replicates"]

    def one(rep: int):  # (rows, slope of log V against log n)
        cfg = dataclasses.replace(src, seed=rng.derive(plan["seed_base"],
                                                       "walk", rep))
        rows = [(rep,) + led.snapshot_row()
                for led in _checkpoint_ledgers(sources.cursor(cfg), cps)]
        return rows, float(np.polyfit([math.log(r[1]) for r in rows],
                                      [math.log(r[3]) for r in rows], 1)[0])

    done = _pmap(one, range(reps), threads)
    rows = [r for chunk, _ in done for r in chunk]
    summary = {"log_v_slopes": [slope for _, slope in done],
               "op": "ledger.LocalTimeLedger.snapshot_row"}
    return {"rw_asym.csv": (("rep",) + STATS_HEADER, rows)}, summary, {}


def _run_rotation(plan, threads):
    cur = sources.cursor(plan["_source"])
    rows = [led.snapshot_row()
            for led in _checkpoint_ledgers(cur, plan["_checkpoints"])]
    norm = [r[2] * math.sqrt(math.log(r[0])) / r[0] ** 2 for r in rows]
    summary = {"v_sqrtlog_over_n2": norm,
               "near_breakpoint_hits": getattr(cur, "near_hits", 0),
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
               "op": "spectral.transient_variance_report"}
    checks = {"positive": rep.positive,
              "defect_small": abs(rep.defect_estimate)
              <= 0.05 * rep.series_prediction}
    return {"variance.csv": (tuple(record), [tuple(record.values())])}, \
        summary, checks


def run_selftest() -> dict:
    """Small oracle suite: the block-fed ledger against the quadratic oracle
    and the exact rational Sigma M_k / k^2, the local-time kernel through
    the rank pre-step of its key sort, convergent quality, the grid
    Parseval identity, the axis-split return series against the Fourier
    grid, the two-limb rotation orbit against the 128-bit scalar loop, the
    prefix-grouped site hash against the flat one, the replicate-batched
    field analyzers against one replicate at a time, the guide-table step
    draws against a binary search, and the variance Monte Carlo's key walk
    against the route through the sites."""
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
        pqd = sum(Fraction(m_k / (k * k)) for k, m_k in enumerate(
            ledger.trajectory_stats(coords).m.tolist(), start=1))
        if ((v, m) != (led.self_intersections, led.max_count)
                or counts != led.counts or led.pqd_partial_sum != float(pqd)):
            ok = False
    results["ledger_vs_brute_force"] = ok
    results["local_times"] = _selftest_local_times()
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
    results["source_blocks"] = _selftest_source_blocks()
    results["site_hash"] = _selftest_site_hash()
    results["field_batches"] = _selftest_field_batches()
    results["step_draws"] = _selftest_step_draws()
    results["variance_keys"] = _selftest_variance_keys()
    results["ok"] = all(results.values())
    return results


def _selftest_local_times(n: int = 300) -> bool:
    """``local_time_block`` against the quadratic oracle on a walk over
    {0, 2^55}: its keys leave no room for a 9-bit row index, so the sort
    takes the rank pre-step.  The stable order comes from ``np.sort``, whose
    SIMD kernel numpy picks per CPU."""
    coords = (rng.uniforms(4000, n) < 0.5).astype(np.int64)[:, None] << 55
    occ, sites, times = ledger.local_time_block(coords)
    v, m, counts = ledger.brute_force_stats(coords)
    return (int(np.sum(2 * occ - 1)), int(occ.max())) == (v, m) and list(
        zip(map(tuple, sites.tolist()), times.tolist())) == list(counts.items())


def _selftest_site_hash(n: int = 3000) -> bool:
    """A d = 3 walk's ``rng.Sites``, which hashes each distinct
    (x, y)-prefix once per seed, against the flat fold of the raw
    coordinates under a few seeds."""
    coords = sources.generate(
        sources.RandomWalkSource(sources.simple_walk(3), 31), n)
    sites = rng.Sites(coords)
    return sites.prefixes < n and all(
        np.array_equal(rng.hash_sites(seed, sites),
                       rng.hash_sites(seed, coords))
        for seed in (0, 1, rng.derive(7, "field", 0), rng.MASK64))


def _selftest_field_batches() -> bool:
    """Batched gc and fclt outputs against one replicate and checkpoint at
    a time, with ECDFs built apart from the batched path: local times by
    ``np.unique`` over the trajectory, values hashed from the coordinates
    per seed (the batched path reuses each site's seed-free hash words), a
    stable sort, atoms summed by ``bincount`` into a validated
    ``WeightedEcdf``, then ``sup_deviation``.  gc on five fields (the
    moving-average one, and a discrete law listed in decreasing order, whose
    values the key sort must repair), over a walk and over the same walk
    held at one site for 2600 steps, a local time past the key's 11 bits;
    fclt covariances and sups on the uniform and discrete fields, with the
    bridge n (F_n(s) - F(s)) / sqrt(V_n) read off the same ECDFs."""
    src = sources.RandomWalkSource(sources.simple_walk(2), 21)
    traj = sources.generate(src, 3000)
    held = np.concatenate([traj[:400], np.repeat(traj[399:400], 2600, axis=0)])

    def ecdf(field, seed, n, traj=traj):  # (F_n, sqrt V_n), first n steps
        sites, counts = np.unique(traj[:n], axis=0, return_counts=True)
        x = field.site_values(seed, sites)
        order = np.argsort(x, kind="stable")
        xs = x[order]
        new = np.concatenate([[True], xs[1:] != xs[:-1]])
        w = np.bincount(np.cumsum(new) - 1, weights=counts[order]) / n
        return (empirical.WeightedEcdf(values=xs[new], weights=w),
                math.sqrt(counts @ counts))

    seeds = [rng.derive(5, "field", rep) for rep in range(100)]
    iid = (UniformField(), DiscreteField([(0, 0.5), (1, 0.2), (2, 0.3)]))
    ok = True
    gc_fields = iid + (DiscreteField([(2, 0.3), (1, 0.2), (0, 0.5)]),
                       GaussianField(), MovingAverageField([1, .5, .25]))
    for walk, coords in ((src, traj),
                         (sources.ExplicitSource(held.tolist()), held)):
        for field in gc_fields:
            plan = {"_source": walk, "_field": field, "n": 3000,
                    "_checkpoints": [30, 300, 3000], "replicates": 7,
                    "seed_base": 5}
            rows = [(rep, c, empirical.sup_deviation(
                        ecdf(field, seed, c, coords)[0], field))
                    for rep, seed in enumerate(seeds[:7])
                    for c in (30, 300, 3000)]
            ok = ok and _run_gc(plan, 1)[0]["gc.csv"][1] == rows
    grid = np.array([0.5, 1.0])
    for field in iid:
        res = empirical.mc_fclt(field, src, 3000, grid, 100, 5)
        fits = [ecdf(field, seed, 3000) for seed in seeds]
        ys = np.array([(e(grid) - field.cdf(grid)) * 3000 / root_v
                       for e, root_v in fits])
        sups = [empirical.sup_deviation(e, field) * 3000 / root_v
                for e, root_v in fits]
        p = (ys[:, :, None] * ys[:, None, :]).sum(axis=0)
        mean = ys.mean(axis=0)
        ok = (ok and np.array_equal(res.cov, p / 100 - np.outer(mean, mean))
              and res.sup_sample.tolist() == sups)
    return ok


def _selftest_step_draws() -> bool:
    """Each law's guide-table inverse cdf against ``np.searchsorted`` of its
    running sums, the last set to 1, at the uniforms where a lookup could
    slip: every threshold, the floats either side of it, 0 and 1 - 2^-53,
    plus hashed ones.  The laws: a d = 3 simple walk, a window alphabet with
    a zero-probability symbol, and a discrete field with two clustered tiny
    atoms, its values out of order, drawn through ``quantile``."""
    window = sources.WindowFunctional(
        [(0, 0.2), (1, 0.0), (2, 0.5), (3, 0.3)], 1,
        {(a,): (a,) for a in range(4)}, 0)
    field = DiscreteField([(2, 0.3), (-1, 1e-12), (0.5, 1e-12),
                           (1.5, 0.7 - 2e-12)])
    walk = sources.simple_walk(3)
    ok = True
    for draw, probs, values in (
            (walk.inverse_cdf, walk.probs(), np.arange(6)),
            (window.inverse_cdf, [p for _, p in window.inner], np.arange(4)),
            (field.quantile, [p for _, p in field.atoms],
             np.array([v for v, _ in field.atoms]))):
        cum = np.cumsum(probs)
        u = np.concatenate([cum, np.nextafter(cum, 0), np.nextafter(cum, 1),
                            [0.0, 1 - 2.0**-53], rng.uniforms(5000, 1000)])
        u = u[u < 1]
        cum[-1] = 1.0
        want = values[np.searchsorted(cum, u, side="right")]
        ok = ok and np.array_equal(draw(u.copy()), want)
    return ok


def _selftest_variance_keys(n: int = 5000) -> bool:
    """The quadratic form of a d = 3 walk read off its packed keys, as the
    variance Monte Carlo reads it, against the route through the sites:
    ``generate``, ``local_time_block`` and the packed lag sums, under a
    Gaussian and a moving-average field."""
    cfg = sources.RandomWalkSource(sources.simple_walk(3), 51)
    _, sites, times = ledger.local_time_block(sources.generate(cfg, n))
    return all(spectral._walk_quadratic_form(cfg, n, field)
               == spectral._quadratic_form_arrays(sites, times, field, 3)
               for field in (GaussianField(), MovingAverageField([1, .5, .25])))


def _selftest_source_blocks(n: int = 2000) -> bool:
    """The two-limb orbit and the cocycle cursor, fed blocks of 1..64
    steps, against a step-by-step loop on 128-bit ints: orbit points, sums
    and near-breakpoint hits."""
    f = rotation.StepFunction([0, Fraction(1, 5), Fraction(1, 2),
                               Fraction(4, 5)], [1, -2, 2, -1])
    bps = f.breakpoints_fp() + [rotation.ONE]
    ok = True
    for k in range(3):
        rc = rotation.RotationCocycle(rotation.ContinuedFraction.golden(), f,
                                      rotation.point_from_seed(k))
        alpha = rc.alpha_fp
        pos, total, near, points, sums = rc.x_fp, 0, 0, [], []
        for _ in range(n):
            total += f.values[bisect_right(bps, pos) - 1]
            near += any(abs(pos - b) < rotation.NEAR_THRESHOLD for b in bps)
            points.append(pos)
            sums.append(total)
            pos = (pos + alpha) % rotation.ONE
        cuts = np.cumsum(1 + (64 * rng.uniforms(3000 + k, n)).astype(int))
        bounds = [0, *cuts[cuts < n].tolist(), n]
        cur = rc.cursor()
        for a, b in zip(bounds, bounds[1:]):
            hi, lo = rotation._orbit(points[a], alpha, b - a)
            orbit = [(h << 64) | l for h, l in zip(hi.tolist(), lo.tolist())]
            ok = (ok and orbit == points[a:b]
                  and cur.take(b - a)[:, 0].tolist() == sums[a:b])
        ok = ok and cur.near_hits == near
    return ok


def _run_selftest(plan, threads):
    results = run_selftest()
    return {}, {"selftest": results}, {"selftest": results["ok"]}


class Experiment(NamedTuple):
    """A row of :data:`EXPERIMENTS`: the runner, returning (csv files, summary,
    checks), the plan keys it requires and allows besides ``experiment``, the
    least replicates and the source variants it can read (empty: any)."""

    run: Callable[[dict, int], tuple[dict, dict, dict]]
    required: Set[str]
    optional: Set[str] = frozenset()
    min_replicates: int = 0
    variants: tuple[str, ...] = ()


# The schedule needs a special flow's towers, the series a step law, fresh
# walks a seed to replace; the Monte Carlo standard error of variance two
# replicates, the jackknife and percentile estimates of fclt a hundred.
_SEEDED = ("rw", "coboundary", "window")
_REPS = {"replicates", "seed_base"}
EXPERIMENTS = {
    "stats": Experiment(_run_stats, {"source", "n"}, {"checkpoints"}),
    "gc": Experiment(_run_gc, {"source", "field", "n"} | _REPS,
                     {"checkpoints"}, min_replicates=1),
    "fclt": Experiment(_run_fclt, {"source", "field", "n", "grid"} | _REPS,
                       {"quenched"}, min_replicates=100),
    "rw-asym": Experiment(_run_rw_asym, {"source", "checkpoints"} | _REPS,
                          min_replicates=1, variants=_SEEDED),
    "rotation": Experiment(_run_rotation, {"source", "checkpoints"}),
    "counterexample": Experiment(_run_counterexample, {"source"}, {"budget"},
                                 variants=("special-flow",)),
    "variance": Experiment(_run_variance, {"source", "field", "n"} | _REPS,
                           {"kmax"}, min_replicates=2, variants=("rw",)),
    "selftest": Experiment(_run_selftest, frozenset()),
}


def run_plan(plan: dict, out_dir: Path, threads: int = 1) -> tuple[dict, dict]:
    """Execute a parsed plan; writes artifacts, returns (summary, checks)."""
    start = time.monotonic()
    files, summary, checks = EXPERIMENTS[plan["experiment"]].run(plan, threads)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in files.items():
        _write_csv(out_dir / name, header, rows)
    echo = {k: v for k, v in plan.items() if not k.startswith("_")}
    summary_doc = {"plan": echo, "version": __version__,
                   "wall_time_s": time.monotonic() - start,
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
