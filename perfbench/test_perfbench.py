"""Tests of the benchmark itself, on the quick plans.

    python3 -m pytest perfbench -q

Quick timings are not comparable with full runs and are not checked here.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import plans
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_benchmark(dest: Path, with_sources: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in BENCH["workloads"]] == list(plans.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_quick_run_reports_every_metric(workload, trace):
    proc = bench(ROOT, "--workload", workload, "--seed", str(plans.DEFAULT_SEED),
                 "--seconds", "1", "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else 1)
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in declared}
            == {k: v["unit"] for k, v in result["metrics"].items()})
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_quick_variance_reports_the_series_defect():
    proc = bench(ROOT, "--workload", "variance-rw3", "--seconds", "1",
                 "--trace", "1", "--quick")
    assert proc.returncode == 0, proc.stderr
    error = last_json(proc)["metrics"]["spectral.series_abs_error"]["value"]
    assert error > 0.05  # the geometric tail underestimates the series


def test_quick_digests_are_recorded_for_the_default_seed():
    recorded = plans.recorded_digests()
    for quick in (False, True):
        for workload in plans.WORKLOADS:
            plan = plans.make_plan(workload, plans.DEFAULT_SEED, quick)
            assert plans.plan_key(plan) in recorded, (workload, quick)


@pytest.mark.parametrize("seed", [plans.DEFAULT_SEED, 7])
def test_perturbed_csv_is_a_failed_op(tmp_path, seed):
    """A selab whose CSV floats are off by one part in 1e9 fails every run,
    through the digests at the default seed and the independent checks at
    any other seed."""
    copy_benchmark(tmp_path, with_sources=True)
    cli = tmp_path / "src" / "selab" / "cli.py"
    text = cli.read_text()
    exact = "repr(x) if isinstance(x, float) else x"
    assert exact in text
    cli.write_text(text.replace(exact,
                                "repr(x * (1 + 1e-9)) if isinstance(x, float) else x"))
    proc = bench(tmp_path, "--workload", "all", "--seed", str(seed),
                 "--seconds", "1", "--quick")
    assert proc.returncode == 0, proc.stderr
    for workload, result in last_json(proc).items():
        assert not result["correct"], workload
        assert result["failed"] == result["attempted"] >= 1, workload


def test_without_sources_exits_nonzero_without_a_result(tmp_path):
    copy_benchmark(tmp_path, with_sources=False)
    proc = bench(tmp_path, "--workload", plans.WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
