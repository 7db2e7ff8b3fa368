"""Workloads of the selab benchmark: plan builders and output checks.

Each workload turns a benchmark seed into one ``selab run`` plan.  The plan
seeds are hashed from (workload, benchmark seed), so the same benchmark seed
always gives the same plan and the program only ever sees the plan.

Every run's CSV output is checked against an independent route that the
parent computes once per plan:

* ``rotation-golden``: every checkpoint row against
  ``ledger.trajectory_stats(sources.generate(...))``; integer columns exact,
  float columns to 1e-12 relative.
* ``gc-rw3``: the table's shape, and three replicates recomputed from
  ``np.unique`` local times and a direct sup |F_n - F| over sorted values.
* ``variance-rw3``: ``mc_estimate`` and ``mc_stderr`` recomputed from
  sum N^2 = V_n of each replicate walk (the Gaussian field is i.i.d., so the
  quadratic form is sigma^2 V_n).

On top of that, the CSV bytes of a plan listed in ``digests.json`` must
equal the recorded digest, and every run of a plan must write the same bytes
as the first run of that plan.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1

# 2 G(3) - 1 for the simple walk on Z^3, from Watson's closed form
# G(3) = sqrt(6) / (32 pi^3) Gamma(1/24) Gamma(5/24) Gamma(7/24) Gamma(11/24)
# = 1.516386059 (Watson 1939).  The limit of V_n / n for that walk.
WATSON_2G_MINUS_1 = 2.032772118

STATS_HEADER = ["n", "M", "V", "range", "m2_over_v", "pqd_partial_sum"]
# variance.csv columns that ROADMAP item 4 is meant to change; they are
# scored by series_abs_error instead of the digest
VARIANCE_SERIES_COLUMNS = ("series_prediction", "tail_bound",
                           "defect_estimate", "positive")
REL_TOL = 1e-12

DIGESTS = Path(__file__).with_name("digests.json")


def plan_seed(workload: str, seed: int, label: str) -> int:
    h = hashlib.blake2b(f"{workload}/{seed}/{label}".encode(), digest_size=4)
    return int.from_bytes(h.digest(), "little")


def decades(n: int) -> list[int]:
    cps, c = [], 10
    while c < n:
        cps.append(c)
        c *= 10
    return cps + [n]


# Sizes: (full, quick).  A full run takes 2-14 s on a 2-core box, so an
# invocation holds several.  Quick sizes exist for the benchmark's own tests;
# their timings are not comparable with full runs.
SIZES = {
    "gc-rw3": ({"n": 200_000, "replicates": 40},
               {"n": 3000, "replicates": 10}),
    "variance-rw3": ({"n": 20_000, "replicates": 50, "kmax": 200},
                     {"n": 300, "replicates": 60, "kmax": 40}),
    "rotation-golden": ({"n": 1_000_000}, {"n": 5000}),
}

# check verdicts that run_plan must return for each workload
EXPECTED_CHECKS = {
    "gc-rw3": {"decay": True},
    "variance-rw3": {"positive": True, "defect_small": True},
    "rotation-golden": {},
}

WORKLOADS = tuple(SIZES)


def make_plan(workload: str, seed: int, quick: bool = False) -> dict:
    size = SIZES[workload][1 if quick else 0]
    s1 = plan_seed(workload, seed, "source")
    s2 = plan_seed(workload, seed, "seed_base")
    n = size["n"]
    if workload == "gc-rw3":
        return {"experiment": "gc",
                "source": {"variant": "rw", "simple": 3, "seed": s1},
                "field": {"variant": "uniform"}, "n": n,
                "checkpoints": [n // 100, n // 10, n],
                "replicates": size["replicates"], "seed_base": s2}
    if workload == "variance-rw3":
        return {"experiment": "variance",
                "source": {"variant": "rw", "simple": 3, "seed": s1},
                "field": {"variant": "gaussian"}, "n": n,
                "replicates": size["replicates"], "seed_base": s2,
                "kmax": size["kmax"]}
    if workload == "rotation-golden":
        return {"experiment": "rotation",
                "source": {"variant": "rotation", "cf": {"periodic": [1]},
                           "x": {"seed": s1}},
                "checkpoints": decades(n)}
    raise KeyError(workload)


def plan_key(plan: dict) -> str:
    return hashlib.sha256(json.dumps(plan, sort_keys=True).encode()).hexdigest()


def _read_csv(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text())))


def output_file(plan: dict) -> str:
    return plan["experiment"] + ".csv"


def digest_files(out_dir: Path, plan: dict) -> dict[str, str]:
    """sha256 of the run's CSV; variance.csv without its series columns."""
    name = output_file(plan)
    if name == "variance.csv":
        rows = _read_csv(out_dir / name)
        keep = [i for i, h in enumerate(rows[0])
                if h not in VARIANCE_SERIES_COLUMNS]
        data = "\n".join(",".join(r[i] for i in keep) for r in rows).encode()
    else:
        data = (out_dir / name).read_bytes()
    return {name: hashlib.sha256(data).hexdigest()}


def recorded_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


# --------------------------------------------------------------------------
# independent references, computed once per plan by the parent process


def reference(workload: str, plan: dict):
    from selab import cli, fields, ledger, rng, sources
    if workload == "rotation-golden":
        cps = plan["checkpoints"]
        src = cli.parse_source(plan["source"])
        ts = ledger.trajectory_stats(sources.generate(src, cps[-1]))
        return [ts.row(c) for c in cps]
    if workload == "gc-rw3":
        src = cli.parse_source(plan["source"])
        coords = sources.generate(src, plan["n"])
        reps = plan["replicates"]
        sampled = sorted({0, reps // 2, reps - 1})
        field = fields.UniformField()
        ref = {}
        for c in plan["checkpoints"]:
            sites, counts = np.unique(coords[:c], axis=0, return_counts=True)
            for rep in sampled:
                x = field.site_values(rng.derive(plan["seed_base"], "field", rep),
                                      sites)
                ref[(rep, c)] = _uniform_sup_deviation(x, counts, c)
        return ref
    if workload == "variance-rw3":
        dist = sources.simple_walk(3)
        n, reps = plan["n"], plan["replicates"]
        vals = np.empty(reps)
        for rep in range(reps):
            cfg = sources.RandomWalkSource(
                dist, rng.derive(plan["seed_base"], "walk", rep))
            _, counts = np.unique(sources.generate(cfg, n), axis=0,
                                  return_counts=True)
            vals[rep] = int(np.sum(counts * counts)) / n
        return (float(vals.mean()),
                float(vals.std(ddof=1) / math.sqrt(reps)))
    raise KeyError(workload)


def _uniform_sup_deviation(x: np.ndarray, counts: np.ndarray, n: int) -> float:
    """sup_s |F_n(s) - s| for local-time weights over Uniform[0, 1) values."""
    order = np.argsort(x)
    xs = x[order]
    upper = np.cumsum(counts[order]) / n
    lower = upper - counts[order] / n
    return float(max(np.max(upper - xs), np.max(xs - lower)))


def check_outputs(workload: str, plan: dict, ref, out_dir: Path) -> list[str]:
    """Problems found in one run's CSVs (empty when the run is correct)."""
    rows = _read_csv(out_dir / output_file(plan))
    if workload == "rotation-golden":
        return _check_stats(rows, ref)
    if workload == "gc-rw3":
        return _check_gc(rows, plan, ref)
    if workload == "variance-rw3":
        return _check_variance(rows, ref)
    raise KeyError(workload)


def _check_stats(rows, ref) -> list[str]:
    if rows[0] != STATS_HEADER:
        return [f"header {rows[0]}"]
    if len(rows) - 1 != len(ref):
        return [f"{len(rows) - 1} rows, expected {len(ref)}"]
    problems = []
    for got, want in zip(rows[1:], ref):
        ints_ok = [int(g) for g in got[:4]] == list(want[:4])
        floats_ok = all(_close(float(g), w) for g, w in zip(got[4:], want[4:]))
        if not (ints_ok and floats_ok):
            problems.append(f"row n={got[0]}: {got} != {list(want)}")
    return problems


def _check_gc(rows, plan, ref) -> list[str]:
    if rows[0] != ["field_rep", "n", "sup_deviation"]:
        return [f"header {rows[0]}"]
    cps = plan["checkpoints"]
    keys = [(rep, c) for rep in range(plan["replicates"]) for c in cps]
    body = rows[1:]
    if [(int(r[0]), int(r[1])) for r in body] != keys:
        return ["rows are not (replicate, checkpoint) in order"]
    problems = []
    for (rep, c), r in zip(keys, body):
        dev = float(r[2])
        if not 0.0 < dev <= 1.0:
            problems.append(f"sup_deviation {dev} out of (0, 1] at {rep},{c}")
        want = ref.get((rep, c))
        if want is not None and abs(dev - want) > REL_TOL:
            problems.append(f"sup_deviation {dev} != {want} at {rep},{c}")
    return problems


def _check_variance(rows, ref) -> list[str]:
    header = rows[0]
    if header != ["mc_estimate", "mc_stderr", *VARIANCE_SERIES_COLUMNS]:
        return [f"header {header}"]
    rec = dict(zip(header, rows[1]))
    mc, stderr = ref
    problems = []
    if not _close(float(rec["mc_estimate"]), mc):
        problems.append(f"mc_estimate {rec['mc_estimate']} != {mc}")
    if not _close(float(rec["mc_stderr"]), stderr):
        problems.append(f"mc_stderr {rec['mc_stderr']} != {stderr}")
    return problems


def series_abs_error(out_dir: Path, plan: dict) -> float:
    """|series_prediction - sigma^2 (2 G(3) - 1)| from a variance run."""
    rows = _read_csv(out_dir / "variance.csv")
    pred = float(dict(zip(rows[0], rows[1]))["series_prediction"])
    sigma = float(plan["field"].get("sigma", 1.0))
    return abs(pred - sigma * sigma * WATSON_2G_MINUS_1)
