import json
import subprocess
import sys

import pytest

from selab.cli import PlanError, main, parse_plan, run_plan, run_selftest


def write_plan(tmp_path, obj, name="plan.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return p


STATS_PLAN = {"experiment": "stats",
              "source": {"variant": "explicit", "sites": [[0], [1], [0], [1]]},
              "n": 4, "checkpoints": [2, 4]}


def test_parse_minimal_stats_plan():
    plan = parse_plan(json.dumps({"experiment": "stats",
                                  "source": {"variant": "rw", "simple": 1,
                                             "seed": 1},
                                  "n": 1000}))
    assert plan["experiment"] == "stats"
    assert plan["_source"].d == 1


def test_parse_rejects_unknown_key():
    with pytest.raises(PlanError, match=r"\$\.stride"):
        parse_plan(json.dumps(dict(STATS_PLAN, stride=3)))
    with pytest.raises(PlanError, match=r"\$\.source\.foo"):
        parse_plan(json.dumps({"experiment": "stats", "n": 4,
                               "source": {"variant": "explicit",
                                          "sites": [[0]], "foo": 1}}))


def test_parse_rejects_bad_special_flow():
    plan = {"experiment": "counterexample",
            "source": {"variant": "special-flow", "cf": {"periodic": [1]},
                       "levels": 1, "lambda_indices": [4, 5], "x": "0"}}
    with pytest.raises(PlanError, match="growth"):
        parse_plan(json.dumps(plan))


def test_parse_rejects_small_fclt():
    plan = {"experiment": "fclt",
            "source": {"variant": "rw", "simple": 1, "seed": 1},
            "field": {"variant": "uniform"}, "n": 100, "grid": [0.5],
            "replicates": 10, "seed_base": 1}
    with pytest.raises(PlanError, match="replicates < 100"):
        parse_plan(json.dumps(plan))


def test_parse_errors_are_path_qualified():
    with pytest.raises(PlanError, match=r"\$\.experiment"):
        parse_plan(json.dumps({"experiment": "nope"}))
    with pytest.raises(PlanError, match=r"\$\.n"):
        parse_plan(json.dumps({"experiment": "stats", "n": "many",
                               "source": {"variant": "rw", "simple": 1,
                                          "seed": 0}}))


def test_stats_run_writes_expected_csv(tmp_path):
    plan = parse_plan(json.dumps(STATS_PLAN))
    run_plan(plan, tmp_path / "out")
    rows = (tmp_path / "out" / "stats.csv").read_text().splitlines()
    assert rows[0] == "n,M,V,range,m2_over_v,pqd_partial_sum"
    assert rows[2].startswith("4,2,8,2,")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["summary"]["final"]["V"] == 8
    assert summary["plan"]["experiment"] == "stats"


def test_run_is_byte_deterministic(tmp_path):
    plan_obj = {"experiment": "stats",
                "source": {"variant": "rw", "simple": 2, "seed": 11},
                "n": 3000, "checkpoints": [100, 1000, 3000]}
    out = []
    for name in ("a", "b"):
        run_plan(parse_plan(json.dumps(plan_obj)), tmp_path / name)
        out.append((tmp_path / name / "stats.csv").read_bytes())
    assert out[0] == out[1]


def test_cli_main_run_and_exit_codes(tmp_path, capsys):
    plan = write_plan(tmp_path, STATS_PLAN)
    assert main(["run", str(plan), "--out", str(tmp_path / "o")]) == 0
    bad = write_plan(tmp_path, dict(STATS_PLAN, stride=1), "bad.json")
    assert main(["run", str(bad)]) == 1
    short = write_plan(tmp_path, dict(STATS_PLAN, n=5, checkpoints=[2, 5]),
                       "short.json")
    assert main(["run", str(short), "--out", str(tmp_path / "s")]) == 1
    assert main(["run", str(tmp_path / "missing.json")]) == 1


def test_cli_assert_mode_exit_code(tmp_path):
    # a 2-level schedule ends on the level-2 checkpoint, ratio 0.4317 < 1/2,
    # so final_ratio_ge_half fails -> 2; the ratios still clear their floors
    plan = write_plan(tmp_path, {
        "experiment": "counterexample",
        "source": {"variant": "special-flow", "cf": {"periodic": [1]},
                   "levels": 2, "x": "0"},
        "budget": 10**7})
    code = main(["run", str(plan), "--assert", "--out", str(tmp_path / "o")])
    assert code == 2
    rows = (tmp_path / "o" / "counterexample.csv").read_text().splitlines()
    assert rows[0] == "level,n,M,V,m2_over_v"
    assert len(rows) == 3
    doc = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert [k for k, ok in doc["checks"].items() if not ok] \
        == ["final_ratio_ge_half"]
    assert doc["checks"]["ratios_ge_floor"] is True
    assert doc["summary"]["ratio_floors"] == [36 / 41, 196 / 1371]


def test_cli_counterexample_three_levels_pass(tmp_path):
    plan = write_plan(tmp_path, {
        "experiment": "counterexample",
        "source": {"variant": "special-flow", "cf": {"periodic": [1]},
                   "levels": 3, "x": "0"}})
    code = main(["run", str(plan), "--assert", "--out", str(tmp_path / "o")])
    assert code == 0
    doc = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert doc["checks"] == {"ratios_ge_floor": True,
                             "final_ratio_ge_half": True,
                             "m_equals_tower_height_plus_1": True}


def test_cli_counterexample_levels_out_of_order_pass(tmp_path):
    # from x = 1/40 the orbit meets level 2 before level 1, so the level-1
    # checkpoint is no record and its M exceeds 1 + h_1
    plan = write_plan(tmp_path, {
        "experiment": "counterexample",
        "source": {"variant": "special-flow", "cf": {"periodic": [1]},
                   "levels": 3, "x": "1/40"}})
    code = main(["run", str(plan), "--assert", "--out", str(tmp_path / "o")])
    assert code == 0
    rows = (tmp_path / "o" / "counterexample.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["2", "1", "3"]
    assert rows[2].split(",")[2] == "14"


def test_cli_variance_plan_comparison_record(tmp_path):
    plan = write_plan(tmp_path, {
        "experiment": "variance",
        "source": {"variant": "rw", "simple": 3, "seed": 1},
        "field": {"variant": "uniform"}, "n": 5000, "replicates": 5,
        "seed_base": 2, "kmax": 40})
    assert main(["run", str(plan), "--out", str(tmp_path / "v")]) == 0
    summary = json.loads((tmp_path / "v" / "summary.json").read_text())
    rec = summary["summary"]["comparison"]
    assert set(rec) == {"mc_estimate", "mc_stderr", "series_prediction",
                        "tail_bound", "defect_estimate", "positive"}
    assert rec["positive"] is True


def test_cli_fclt_plan_threads_env(tmp_path, monkeypatch):
    plan = write_plan(tmp_path, {
        "experiment": "fclt",
        "source": {"variant": "rw", "simple": 2, "seed": 4},
        "field": {"variant": "uniform"}, "n": 300, "grid": [0.25, 0.75],
        "replicates": 120, "seed_base": 9})
    monkeypatch.setenv("SELAB_THREADS", "2")
    assert main(["run", str(plan), "--out", str(tmp_path / "f")]) == 0
    rows = (tmp_path / "f" / "fclt.csv").read_text().splitlines()
    assert rows[0] == "s,t,cov,stderr,target"
    assert len(rows) == 4  # upper triangle of a 2x2 grid


def test_cli_gc_threads_deterministic(tmp_path):
    plan_obj = {"experiment": "gc",
                "source": {"variant": "rw", "simple": 2, "seed": 6},
                "field": {"variant": "uniform"}, "n": 2000,
                "checkpoints": [100, 2000], "replicates": 6, "seed_base": 3}
    outs = []
    for name, threads in (("t1", 1), ("t4", 4)):
        plan = parse_plan(json.dumps(plan_obj))
        run_plan(plan, tmp_path / name, threads=threads)
        outs.append((tmp_path / name / "gc.csv").read_bytes())
    assert outs[0] == outs[1]


def test_selftest_passes():
    results = run_selftest()
    assert results["ok"]
    assert results["ledger_vs_brute_force"]
    assert results["return_series"]


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "selab.cli", "selftest"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ledger_vs_brute_force: ok" in proc.stdout


def test_cli_short_variance_plan_compares_with_the_finite_n_mean(tmp_path):
    # at n = 300 the Monte Carlo mean of V_n/n sits near the exact finite-n
    # mean 1.887, about 0.15 below the n -> oo limit
    plan = parse_plan(json.dumps({
        "experiment": "variance",
        "source": {"variant": "rw", "simple": 3, "seed": 1},
        "field": {"variant": "gaussian"}, "n": 300, "replicates": 60,
        "seed_base": 2, "kmax": 40}))
    summary, checks = run_plan(plan, tmp_path)
    assert checks == {"positive": True, "defect_small": True}
    rec = summary["comparison"]
    assert abs(summary["finite_n_mean"] - 1.887) < 2e-3
    assert rec["defect_estimate"] == rec["mc_estimate"] - summary["finite_n_mean"]
