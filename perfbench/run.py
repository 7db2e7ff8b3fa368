"""selab benchmark: ``selab run`` workloads timed end to end, one fresh
process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --record-digests

Workloads are defined in ``plans.py``.  The benchmark seed is hashed into
the plan's own seeds, and every run of one invocation executes that same
plan: a child process (``child.py``) starts Python, imports ``selab.cli``
from ``src/``, parses the plan and calls ``cli.run_plan(..., threads=1)``
with BLAS pinned to one thread.  Runs repeat, one at a time, for about
``--seconds``; each is checked by ``plans.check_outputs``
and by the digests of ``digests.json``.  A run fails on a non-zero exit, a
check verdict other than the expected one, or wrong output.

With ``--trace 0`` the metrics are medians over the runs that passed:

* ``wall_s``: time in ``run_plan``, CSV and summary writes included;
* ``setup_s``: process launch until the plan is parsed;
* ``peak_rss_mb``: peak resident set (``VmHWM``) of the run process.

A run gives one sample, and an invocation has fewer than ten, so no
percentile above the median is reported.  With ``--trace 1`` the first half
of ``--seconds`` runs untraced and the rest traced (``tracer.py``); the
metrics are the per-layer figures of the traced runs, plus
``trace.overhead_s`` (median traced minus median untraced ``wall_s``) and
``spectral.series_abs_error``.

``--quick`` swaps in tiny plans for the benchmark's own tests; its numbers
are not comparable with full runs.  The last line of stdout is the JSON
result; the lines before it, and ``.perfbench/results/``, carry each
sample, the check problems and the environment.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import plans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "SELAB_THREADS": "1"}
# every invocation must end within 180 s; leave room for the checks
TIME_LIMIT_S = 165.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "sources.steps": "count", "sources.self_s": "s", "sources.steps_per_s": "1/s",
    "ledger.steps": "count", "ledger.calls_per_step": "ratio",
    "ledger.self_s": "s", "ledger.distinct_sites": "count",
    "rng.words": "count", "rng.ns_per_word": "ns",
    "rotation.steps": "count", "rotation.self_s": "s",
    "rotation.steps_per_s": "1/s",
    "empirical.ledger_arrays.calls": "count",
    "empirical.rebuilds_per_ledger": "ratio", "empirical.self_s": "s",
    "fields.sites": "count", "fields.sites_per_s": "1/s",
    "spectral.return_series_s": "s", "spectral.grid_points": "count",
    "spectral.mc_s": "s", "spectral.series_abs_error": "abs",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


@dataclass
class Context:
    workload: str
    plan: dict
    ref: object
    work: Path
    expected_digests: dict | None
    env: dict
    first_digests: dict | None = None


@dataclass
class Op:
    traced: bool
    seconds: float
    result: dict | None
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.result is not None and not self.problems


def build() -> None:
    """Byte-compile the checkout's selab and make it importable here."""
    pkg = SRC / "selab"
    if not (pkg / "cli.py").is_file():
        raise SystemExit(f"error: no selab sources at {pkg}")
    if not compileall.compile_dir(str(pkg), quiet=1):
        raise SystemExit(f"error: selab sources at {pkg} do not compile")
    sys.path.insert(0, str(SRC))


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **PINNED)


def prepare(workload: str, seed: int, quick: bool, digests: dict) -> Context:
    plan = plans.make_plan(workload, seed, quick)
    work = WORK / (workload + ("-quick" if quick else ""))
    work.mkdir(parents=True, exist_ok=True)
    (work / "plan.json").write_text(json.dumps(plan, indent=1) + "\n")
    recorded = digests.get(plans.plan_key(plan))
    return Context(workload, plan, plans.reference(workload, plan), work,
                   recorded["files"] if recorded else None, child_env())


def run_op(ctx: Context, traced: bool, timeout: float) -> Op:
    """One fresh-process run of the plan, checked."""
    out = ctx.work / "out"
    shutil.rmtree(out, ignore_errors=True)
    trace_file = str(ctx.work / "spans.npz") if traced else "-"
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(ctx.work / "plan.json"),
             str(out), repr(launched), trace_file],
            env=ctx.env, cwd=ROOT, capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        return Op(traced, time.monotonic() - launched, None,
                  [f"timed out after {timeout:.0f} s"])
    seconds = time.monotonic() - launched
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return Op(traced, seconds, None,
                  [f"exit code {proc.returncode}: {' | '.join(tail)}"])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return Op(traced, seconds, result, check_run(ctx, out, result))


def check_run(ctx: Context, out: Path, result: dict) -> list[str]:
    """Problems with one finished run: where selab came from, the check
    verdicts, the CSV contents, and the CSV bytes."""
    problems = []
    if not Path(result["selab_file"]).resolve().is_relative_to(SRC.resolve()):
        problems.append(f"selab imported from {result['selab_file']}")
    expected = plans.EXPECTED_CHECKS[ctx.workload]
    if result["checks"] != expected:
        problems.append(f"check verdicts {result['checks']} != {expected}")
    try:
        problems += plans.check_outputs(ctx.workload, ctx.plan, ctx.ref, out)
        digests = plans.digest_files(out, ctx.plan)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return problems + [f"unreadable output: {exc!r}"]
    if ctx.expected_digests is not None and digests != ctx.expected_digests:
        problems.append(f"CSV digests {digests} != recorded "
                        f"{ctx.expected_digests}")
    if ctx.first_digests is None:
        ctx.first_digests = digests
    elif digests != ctx.first_digests:
        problems.append("CSV bytes differ from the first run of this plan")
    if ctx.workload == "variance-rw3":
        result["series_abs_error"] = plans.series_abs_error(out, ctx.plan)
    return problems


def run_until(ctx: Context, ops: list[Op], traced: bool, t0: float,
              budget: float) -> None:
    """Run ops back to back until ``budget`` seconds after t0; the last op
    starts only if it should be at least half done by then."""
    longest = 0.0
    while True:
        elapsed = time.monotonic() - t0
        op = run_op(ctx, traced, timeout=max(10.0, TIME_LIMIT_S - elapsed))
        ops.append(op)
        longest = max(longest, op.seconds)
        elapsed = time.monotonic() - t0
        if (elapsed + longest / 2 > budget
                or elapsed + longest > TIME_LIMIT_S):
            return


def median_of(ops: list[Op], key: str) -> float:
    return statistics.median(op.result[key] for op in ops)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool, digests: dict) -> dict:
    ctx = prepare(workload, seed, quick, digests)
    ops: list[Op] = []
    t0 = time.monotonic()
    run_until(ctx, ops, False, t0, seconds / 2 if trace else seconds)
    if trace:
        run_until(ctx, ops, True, t0, seconds)

    untraced = [op for op in ops if not op.traced]
    traced = [op for op in ops if op.traced]
    timed = [op for op in untraced if op.ok] or [op for op in untraced
                                                 if op.result]
    if not timed or (trace and not any(op.result for op in traced)):
        for op in ops:
            print(f"failed run: {op.problems}", file=sys.stderr)
        raise SystemExit(f"error: no {workload} run produced a result")

    e2e = {name: median_of(timed, name) for name in END_TO_END}
    if trace:
        done = [op for op in traced if op.ok] or [op for op in traced
                                                  if op.result]
        layers = {name: statistics.median(op.result["layers"][name]
                                          for op in done)
                  for name in done[0].result["layers"]}
        layers["trace.overhead_s"] = median_of(done, "wall_s") - e2e["wall_s"]
        layers["spectral.series_abs_error"] = (
            median_of(done, "series_abs_error")
            if workload == "variance-rw3" else 0.0)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    failed = sum(not op.ok for op in ops)
    return {"workload": workload, "seed": seed, "quick": quick,
            "trace": trace, "plan": ctx.plan,
            "median_of": len(done) if trace else len(timed),
            "samples": [{"traced": op.traced, "ok": op.ok,
                         "problems": op.problems, "result": op.result}
                        for op in ops],
            "correct": failed == 0, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def environment() -> dict:
    import numpy
    import scipy
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = ((index / f).read_text().strip()
                             for f in ("level", "type", "size"))
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    with open("/proc/cpuinfo") as fh:
        model = next((line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")), None)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_build": {k: blas.get(k) for k in ("name", "version",
                                                    "openblas configuration")},
            "child_thread_env": PINNED,
            "git_commit": git_commit()}


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def print_summary(summary: dict) -> None:
    print(f"{summary['workload']} seed={summary['seed']} "
          f"trace={int(summary['trace'])} quick={int(summary['quick'])}: "
          f"ops_failed/ops_total = {summary['failed']}/{summary['attempted']}; "
          f"metrics are medians of {summary['median_of']} run(s)")
    for name, m in summary["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    errors = [s["result"]["series_abs_error"] for s in summary["samples"]
              if s["result"] and "series_abs_error" in s["result"]]
    if errors and not summary["trace"]:
        print(f"  {'series_abs_error':32s} {statistics.median(errors):>16.6g} "
              "abs (per_layer: spectral.series_abs_error)")
    for s in summary["samples"]:
        r = s["result"] or {}
        tag = "traced" if s["traced"] else "run"
        print(f"  {tag}: ok={s['ok']} wall_s={r.get('wall_s')} "
              f"setup_s={r.get('setup_s')} peak_rss_mb={r.get('peak_rss_mb')} "
              f"series_abs_error={r.get('series_abs_error')} "
              f"blas_threads={(r.get('blas') or {}).get('threads')} "
              f"problems={s['problems']}")


def save(summary: dict, env: dict) -> None:
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = (f"{summary['workload']}{'-quick' if summary['quick'] else ''}"
            f"-seed{summary['seed']}-trace{int(summary['trace'])}.json")
    (results / name).write_text(json.dumps(dict(summary, environment=env),
                                           indent=1) + "\n")


def record_digests() -> None:
    """Write digests.json from one checked run of each default-seed plan."""
    table = {}
    for quick in (False, True):
        for workload in plans.WORKLOADS:
            ctx = prepare(workload, plans.DEFAULT_SEED, quick, {})
            op = run_op(ctx, False, timeout=TIME_LIMIT_S)
            if not op.ok:
                raise SystemExit(f"error: {workload} quick={quick}: {op.problems}")
            table[plans.plan_key(ctx.plan)] = {
                "workload": workload, "quick": quick,
                "files": plans.digest_files(ctx.work / "out", ctx.plan)}
            print(f"recorded {workload} quick={quick}")
    plans.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=plans.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=plans.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny plans for the benchmark's own tests")
    parser.add_argument("--record-digests", action="store_true",
                        help="record CSV digests of the default-seed plans")
    args = parser.parse_args(argv)

    build()
    if args.record_digests:
        record_digests()
        return 0
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    digests = plans.recorded_digests()
    names = plans.WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    for name in names:
        summary = measure(name, args.seed, args.seconds, bool(args.trace),
                          args.quick, digests)
        save(summary, env)
        print_summary(summary)
        summaries[name] = summary
    if args.workload == "all":
        print(json.dumps({name: {k: s[k] for k in ("correct", "attempted",
                                                   "failed", "metrics")}
                          for name, s in summaries.items()}))
    else:
        s = summaries[args.workload]
        print(json.dumps({k: s[k] for k in ("correct", "attempted", "failed",
                                            "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
