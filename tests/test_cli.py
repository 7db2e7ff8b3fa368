import dataclasses
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selab import cli, empirical, ledger, rng, rotation, sources
from selab.cli import PlanError, main, parse_plan, run_plan, run_selftest
from selab.selftest import dict_local_times


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
    with pytest.raises(PlanError, match="separation"):
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


def test_rw_asym_rejects_unsorted_checkpoints():
    with pytest.raises(PlanError, match="checkpoints"):
        parse_plan(json.dumps({
            "experiment": "rw-asym", "checkpoints": [100, 10],
            "replicates": 1, "seed_base": 0,
            "source": {"variant": "rw", "simple": 1, "seed": 0}}))


RW1 = {"variant": "rw", "simple": 1, "seed": 0}
CHECKPOINT_PLANS = {
    "stats": {"source": RW1, "n": 100},
    "gc": {"source": RW1, "field": {"variant": "uniform"}, "n": 100,
           "replicates": 2, "seed_base": 0},
    "rw-asym": {"source": RW1, "replicates": 1, "seed_base": 0},
    "rotation": {"source": {"variant": "rotation", "cf": {"periodic": [1]},
                            "x": "0"}},
}


@pytest.mark.parametrize("exp", sorted(CHECKPOINT_PLANS))
@pytest.mark.parametrize("cps", [[100, 10], [], [1.5, 3], [True, 5], [0],
                                 [5, 5], "10"])
def test_parse_rejects_bad_checkpoints(exp, cps):
    # unsorted checkpoints were skipped by the one advancing ledger, an
    # empty list escaped as an IndexError, floats and bools were truncated
    # to a row at n = 1, and [0] failed only once the run had started
    plan = dict(CHECKPOINT_PLANS[exp], experiment=exp, checkpoints=cps)
    with pytest.raises(PlanError, match=r"\$\.checkpoints"):
        parse_plan(json.dumps(plan))
    plan["checkpoints"] = [10, 100]
    assert parse_plan(json.dumps(plan))["_checkpoints"] == [10, 100]


@pytest.mark.parametrize("exp", ["stats", "gc"])
def test_parse_rejects_checkpoints_above_n(exp):
    plan = dict(CHECKPOINT_PLANS[exp], experiment=exp, checkpoints=[10, 101])
    with pytest.raises(PlanError, match=r"\$\.checkpoints"):
        parse_plan(json.dumps(plan))


def test_parse_rejects_the_stats_seed():
    # the source carries the seed; a top-level one was never read
    with pytest.raises(PlanError, match=r"unknown key \"\$\.seed\""):
        parse_plan(json.dumps(dict(STATS_PLAN, seed=3)))


@pytest.mark.parametrize("exp, reps", [("gc", 0), ("rw-asym", 0),
                                       ("variance", 1)])
def test_parse_rejects_too_few_replicates(exp, reps):
    # gc with 0 divided by zero, rw-asym with 0 wrote a header-only table,
    # variance with 1 reported a nan stderr beside defect_small: ok
    plan = {"experiment": exp, "source": {"variant": "rw", "simple": 3,
                                          "seed": 1},
            "replicates": reps, "seed_base": 0}
    if exp != "rw-asym":
        plan.update(field={"variant": "uniform"}, n=100)
    if exp != "variance":
        plan.update(checkpoints=[10, 100])
    with pytest.raises(PlanError, match=r"\$\.replicates"):
        parse_plan(json.dumps(plan))
    plan["replicates"] = reps + 1
    parse_plan(json.dumps(plan))


@pytest.mark.parametrize("lam", [None, [2, 3]])
def test_parse_rejects_special_flow_past_a_finite_expansion(lam):
    # [0; 2, 3] has the denominators 2 and 7 only: no index gives a second
    # level, and an index past the expansion has no denominator
    src = {"variant": "special-flow", "cf": {"coeffs": [2, 3]},
           "levels": 1, "x": "0"}
    if lam:
        src["lambda_indices"] = lam
    with pytest.raises(PlanError, match=r"\$\.source"):
        parse_plan(json.dumps({"experiment": "counterexample",
                               "source": src}))


ROTATION = {"variant": "rotation", "cf": {"periodic": [1]}, "x": "0"}
FLOW = {"variant": "special-flow", "cf": {"periodic": [1]}, "levels": 1,
        "x": "0"}
FCLT = {"experiment": "fclt", "field": {"variant": "uniform"}, "n": 100,
        "grid": [0.5], "replicates": 100, "seed_base": 1}
SOURCE_PLANS = {
    "counterexample": {"experiment": "counterexample"},
    "variance": {"experiment": "variance", "field": {"variant": "uniform"},
                 "n": 100, "replicates": 2, "seed_base": 0},
    "rw-asym": {"experiment": "rw-asym", "checkpoints": [10],
                "replicates": 1, "seed_base": 0},
    "annealed fclt": dict(FCLT, quenched=False),
}


@pytest.mark.parametrize("kind, bad, good", [
    ("counterexample", RW1, FLOW),
    ("variance", {"variant": "coboundary", "atoms": [[[1, 0, 0], 1.0]],
                  "seed": 0}, RW1),
    ("rw-asym", ROTATION, RW1),
    ("rw-asym", {"variant": "explicit", "sites": [[0]] * 10}, RW1),
    ("rw-asym", FLOW, RW1),
    ("annealed fclt", ROTATION, RW1),
])
def test_parse_rejects_sources_the_runner_cannot_read(tmp_path, kind, bad,
                                                      good):
    # counterexample on a walk escaped as an AttributeError, rw-asym and
    # annealed fclt on an unseeded source as a TypeError, and variance
    # failed only once the run had started
    plan = dict(SOURCE_PLANS[kind], source=bad)
    with pytest.raises(PlanError, match=r"\$\.source\.variant"):
        parse_plan(json.dumps(plan))
    assert main(["run", str(write_plan(tmp_path, plan)),
                 "--out", str(tmp_path / "o")]) == 1
    parse_plan(json.dumps(dict(plan, source=good)))


def test_quenched_fclt_reads_any_source():
    parse_plan(json.dumps(dict(FCLT, source=ROTATION)))


@pytest.mark.parametrize("grid", [[], [0.5, 0.5], [0.5, 0.2], [0.5, "0.7"],
                                  [True], [float("nan")], [0.1, float("inf")],
                                  0.5])
def test_parse_rejects_bad_fclt_grid(grid):
    # an empty grid wrote a header-only fclt.csv and reported the covariance
    # check ok, and a repeated point wrote repeated rows
    plan = dict(FCLT, source=RW1, grid=grid)
    with pytest.raises(PlanError, match=r"\$\.grid"):
        parse_plan(json.dumps(plan))
    parse_plan(json.dumps(dict(plan, grid=[-1, 0.5, 2])))


def test_parse_rejects_a_quenched_flag_that_is_not_a_boolean():
    with pytest.raises(PlanError, match=r"\$\.quenched"):
        parse_plan(json.dumps(dict(FCLT, source=RW1, quenched="false")))


def test_parse_rejects_an_experiment_that_is_not_a_name():
    with pytest.raises(PlanError, match=r"\$\.experiment"):
        parse_plan(json.dumps({"experiment": ["stats"]}))


WINDOW = {"variant": "window", "inner": [[0, 0.5], [1, 0.5]], "r": 2,
          "table": {"0,0": [1], "0,1": [0], "1,0": [0], "1,1": [-1]},
          "seed": 3}
STEP_F = {"breakpoints": ["0", "1/5", "1/2", "4/5"], "values": [1, -2, 2, -1]}


def test_parse_builds_each_source_as_its_constructor_does(tmp_path):
    def built(source):
        return parse_plan(json.dumps(dict(STATS_PLAN, source=source)))["_source"]

    assert built(WINDOW) == sources.WindowFunctional(
        [(0, 0.5), (1, 0.5)], 2,
        {(0, 0): (1,), (0, 1): (0,), (1, 0): (0,), (1, 1): (-1,)}, 3)
    path = tmp_path / "sites.txt"
    path.write_text("0 0\n1 0\n\n 0 -1\n")
    assert built({"variant": "explicit", "path": str(path)}) \
        == sources.ExplicitSource([(0, 0), (1, 0), (0, -1)])
    got = built(dict(ROTATION, f=STEP_F))
    want = rotation.RotationCocycle(
        rotation.ContinuedFraction(periodic=[1]),
        rotation.StepFunction([Fraction(0), Fraction(1, 5), Fraction(1, 2),
                               Fraction(4, 5)], [1, -2, 2, -1]), 0)
    assert (got.f, got.alpha_fp, got.x_fp) == (want.f, want.alpha_fp, want.x_fp)
    assert np.array_equal(got.generate(200), want.generate(200))


GC_PLAN = dict(CHECKPOINT_PLANS["gc"], experiment="gc")


@pytest.mark.parametrize("key, bad, where", [
    ("source", dict(WINDOW, table=[["0,0", [1]]]), r"\$\.source"),
    ("source", dict(WINDOW, table={"0,x": [1]}), r"\$\.source"),
    ("source", dict(WINDOW, table={"0,0": [1]}), r"\$\.source"),
    ("source", dict(ROTATION, f=dict(STEP_F, values=[1, 1, 1, 1])),
     r"\$\.source"),
    ("source", dict(ROTATION, f=dict(STEP_F, breakpoints=["0", "1/x"])),
     r"\$\.source\.f\.breakpoints"),
    ("source", dict(ROTATION, f={"breakpoints": ["0"]}),
     r"\$\.source\.f\.values"),
    ("field", {"variant": "gaussian", "sigma": "wide"}, r"\$\.field"),
    ("field", {"variant": "discrete", "atoms": [[0, 2.0]]}, r"\$\.field"),
    ("field", {"variant": "cauchy"}, r"\$\.field\.variant"),
])
def test_parse_rejects_bad_sources_and_fields(tmp_path, key, bad, where):
    # a window table given as a list escaped as an AttributeError
    plan = dict(GC_PLAN, **{key: bad})
    with pytest.raises(PlanError, match=where):
        parse_plan(json.dumps(plan))
    assert main(["run", str(write_plan(tmp_path, plan)),
                 "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("key, source", [
    ("simple", dict(RW1, simple=2.5)),
    ("simple", dict(RW1, simple=True)),
    ("seed", dict(RW1, seed=1.9)),
    ("seed", dict(RW1, seed="3")),
    ("seed", dict(RW1, seed=-1)),
    ("seed", dict(RW1, seed=2**64)),
    ("atoms", {"variant": "rw", "atoms": [[[1.5], 0.5], [[-1], 0.5]],
               "seed": 0}),
    ("seed", {"variant": "coboundary", "atoms": [[[1], 1.0]], "seed": True}),
    ("r", dict(WINDOW, r=1.5)),
    ("inner", dict(WINDOW, inner=[[0.5, 0.5], [1, 0.5]])),
    ("table", dict(WINDOW, table=dict(WINDOW["table"], **{"0,0": [1.5]}))),
    ("sites", {"variant": "explicit", "sites": [[0, 0.5]]}),
    ("cf.periodic", dict(ROTATION, cf={"periodic": [1.5]})),
    ("f.values", dict(ROTATION, f=dict(STEP_F, values=[1.5, -2, 2, -1.5]))),
    ("x.seed", dict(ROTATION, x={"seed": 0.5})),
    ("x.seed", dict(ROTATION, x={"seed": -2})),
    ("levels", dict(FLOW, levels=1.5)),
    ("lambda_indices", dict(FLOW, lambda_indices=[4.0, 9.5])),
], ids=lambda x: x if isinstance(x, str) else "")
def test_parse_rejects_source_integers_it_would_cut(key, source):
    # each ran as the integer below it, or, for seeds outside [0, 2^64), as
    # the seed they equal mod 2^64
    with pytest.raises(PlanError, match=re.escape(f'"$.source.{key}"')):
        parse_plan(json.dumps(dict(STATS_PLAN, source=source)))


@pytest.mark.parametrize("seed_base", [-1, 2**64, 1.5])
def test_parse_rejects_a_seed_base_outside_the_seed_range(seed_base):
    with pytest.raises(PlanError, match=r"\$\.seed_base"):
        parse_plan(json.dumps(dict(GC_PLAN, seed_base=seed_base)))
    seeds = parse_plan(json.dumps(dict(GC_PLAN, seed_base=2**64 - 1,
                                       source=dict(RW1, seed=2**64 - 1))))
    assert seeds["_source"].seed == seeds["seed_base"] == 2**64 - 1


def test_parse_rejects_explicit_files_it_cannot_read(tmp_path):
    # a missing file escaped parse_plan as a FileNotFoundError
    bad = tmp_path / "bad.txt"
    bad.write_text("0 0\n0 x\n")
    for path in (bad, tmp_path / "missing.txt"):
        plan = dict(STATS_PLAN, source={"variant": "explicit",
                                        "path": str(path)})
        with pytest.raises(PlanError, match=r"\$\.source"):
            parse_plan(json.dumps(plan))
        assert main(["run", str(write_plan(tmp_path, plan)),
                     "--out", str(tmp_path / "o")]) == 1


def test_threads_are_at_most_one_per_core(monkeypatch):
    # replicates-many threads were started for a --threads at or above
    # replicates; this checks the count without starting a pool
    cores = os.cpu_count() or 1
    monkeypatch.delenv("SELAB_THREADS", raising=False)
    assert cli._threads(None) == 1
    assert cli._threads(0) == 1
    assert cli._threads(10**6) == cores
    monkeypatch.setenv("SELAB_THREADS", str(10**6))
    assert cli._threads(None) == cores
    assert cli._threads(1) == 1


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


@pytest.mark.parametrize("n, route", [(23_167, "keys"), (23_168, "sites")])
def test_cli_variance_summary_reports_the_route(tmp_path, n, route):
    # the d = 4 simple walk under a three-weight field (margin 2) walks in
    # key space while (2 (n + 2) + 1)^4 < 2^62, up to n = 23 167
    plan = write_plan(tmp_path, {
        "experiment": "variance",
        "source": {"variant": "rw", "simple": 4, "seed": 1},
        "field": {"variant": "ma", "weights": [1.0, 0.5, 0.25]}, "n": n,
        "replicates": 2, "seed_base": 3, "kmax": 10})
    assert main(["run", str(plan), "--out", str(tmp_path / "v")]) == 0
    summary = json.loads((tmp_path / "v" / "summary.json").read_text())
    assert {k: summary["summary"][k] for k in ("route", "n", "replicates")} \
        == {"route": route, "n": n, "replicates": 2}
    header = (tmp_path / "v" / "variance.csv").read_text().splitlines()[0]
    assert header == ("mc_estimate,mc_stderr,series_prediction,tail_bound,"
                      "defect_estimate,positive")


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


def test_gc_threads_share_one_build_of_the_sites(tmp_path, monkeypatch):
    # the prefix check, the sites' hash words and the packed local times
    # are built once per run, at any thread count
    plan_obj = {"experiment": "gc",
                "source": {"variant": "rw", "simple": 3, "seed": 6},
                "field": {"variant": "uniform"}, "n": 20000,
                "checkpoints": [200, 2000, 20000], "replicates": 10,
                "seed_base": 3}
    built, init = [], rng.Sites.__init__
    monkeypatch.setattr(rng.Sites, "__init__",
                        lambda sites, coords: built.append(1)
                        or init(sites, coords))
    outs = []
    for threads in (1, 2):
        built.clear()
        summary, _ = run_plan(parse_plan(json.dumps(plan_obj)),
                              tmp_path / str(threads), threads=threads)
        assert len(built) == 1
        outs.append((tmp_path / str(threads) / "gc.csv").read_bytes())
    assert outs[0] == outs[1]
    # problem sizes, against np.unique over the trajectory
    coords = sources.generate(parse_plan(json.dumps(plan_obj))["_source"],
                              20000)
    counts = [np.unique(coords[:c], axis=0, return_counts=True)[1]
              for c in plan_obj["checkpoints"]]
    assert summary["distinct_sites"] == [len(c) for c in counts]
    assert summary["max_local_time"] == int(counts[-1].max())
    sites = np.unique(coords, axis=0)
    assert summary["hash_prefixes"] == len(np.unique(sites[:, :-1], axis=0))


def test_rw_asym_slopes_fit_each_replicates_rows(tmp_path):
    plan = parse_plan(json.dumps({
        "experiment": "rw-asym", "source": {"variant": "rw", "simple": 2,
                                            "seed": 0},
        "checkpoints": [10, 100, 1000], "replicates": 3, "seed_base": 2}))
    summary, _ = run_plan(plan, tmp_path, threads=2)
    rows = [r.split(",") for r in
            (tmp_path / "rw_asym.csv").read_text().splitlines()[1:]]
    want = [np.polyfit([np.log(int(r[1])) for r in rows if r[0] == str(rep)],
                       [np.log(int(r[3])) for r in rows if r[0] == str(rep)],
                       1)[0] for rep in range(3)]
    assert summary["log_v_slopes"] == pytest.approx(want, rel=1e-12)
    assert len(set(summary["log_v_slopes"])) == 3


@st.composite
def feed_sources(draw):
    """A random walk that mostly holds (d = 1 or 2), an explicit source
    over a few sites, or a golden rotation cocycle: few distinct sites, so
    the dict and brute-force oracles stay cheap past BLOCK steps."""
    kind = draw(st.sampled_from(["rw", "explicit", "rotation"]))
    seed = draw(st.integers(0, 2**64 - 1))
    n = draw(st.integers(ledger.BLOCK + 1, ledger.BLOCK + 800))
    if kind == "rotation":
        return rotation.RotationCocycle(
            rotation.ContinuedFraction.golden(),
            rotation.StepFunction.square_wave(),
            rotation.point_from_seed(seed)), n
    d = draw(st.integers(1, 2))
    if kind == "explicit":
        words = (4 * rng.uniforms(seed, n * d)).astype(np.int64) - 1
        return sources.ExplicitSource(words.reshape(n, d).tolist()), n
    moves = sources.simple_walk(d).atoms
    law = sources.StepDistribution([((0,) * d, 0.99)] + [
        (a, 0.01 / len(moves)) for a, _ in moves])
    return sources.RandomWalkSource(law, seed), n


@given(feed_sources(), st.data())
@settings(max_examples=10, deadline=None)
def test_feed_snapshots_survive_the_reused_work_array(src_n, data):
    # checkpoints on both sides of BLOCK; every block takes the work array,
    # which later blocks overwrite after each snapshot is taken
    src, n = src_n
    below = data.draw(st.integers(1, ledger.BLOCK - 1))
    cps = sorted({below, data.draw(st.integers(below + 1, n)), n})
    snaps, _ = cli._checkpoint_ledgers(sources.cursor(src), cps)
    coords = sources.generate(src, n)
    for led, c in zip(snaps, cps):
        sites = [tuple(s) for s in coords[:c].tolist()]
        counts, v, m = dict_local_times(sites)
        pqd = float(sum(Fraction(m_k / (k * k))
                        for k, m_k in enumerate(m, start=1)))
        assert list(map(tuple, led.sites.tolist())) == list(counts)
        assert led.local_times.tolist() == list(counts.values())
        assert led.snapshot_row() == (c, m[-1], v[-1], len(counts),
                                      m[-1] ** 2 / v[-1], pqd)
        assert ledger.brute_force_stats(sites, 1024) == (v[-1], m[-1], counts)


def test_rw_asym_csv_bytes_do_not_depend_on_the_threads(tmp_path):
    # each walk feeds its ledgers through a work array of its own; by the
    # last checkpoint the sites outnumber BLOCK, and the blocks allocate
    plan_obj = {"experiment": "rw-asym",
                "source": {"variant": "rw", "simple": 3, "seed": 0},
                "checkpoints": [1000, 10000, 40000], "replicates": 4,
                "seed_base": 7}
    outs = []
    for threads in (1, 2):
        summary, _ = run_plan(parse_plan(json.dumps(plan_obj)),
                              tmp_path / str(threads), threads=threads)
        outs.append((tmp_path / str(threads) / "rw_asym.csv").read_bytes())
    assert outs[0] == outs[1]
    assert all(sites[-1] > ledger.BLOCK for sites in summary["distinct_sites"])


def _feed_blocks(coords, cps) -> int:
    """Blocks of min(steps to the next checkpoint, max(BLOCK, distinct
    sites so far)) steps, the sites counted by ``np.unique``."""
    n, blocks = 0, 0
    for c in cps:
        while n < c:
            seen = len(np.unique(coords[:n], axis=0))
            n += min(c - n, max(ledger.BLOCK, seen))
            blocks += 1
    return blocks


@pytest.mark.parametrize("plan_obj", [
    {"experiment": "stats", "source": {"variant": "rw", "simple": 3,
                                       "seed": 4},
     "n": 60000, "checkpoints": [100, 20000, 60000]},
    {"experiment": "rotation",
     "source": {"variant": "rotation", "cf": {"periodic": [1]},
                "x": {"seed": 3}},
     "checkpoints": [10, 1000, 100000]},
    {"experiment": "rw-asym", "source": {"variant": "rw", "simple": 1,
                                         "seed": 0},
     "checkpoints": [10, 20000, 40000], "replicates": 2, "seed_base": 5}])
def test_feed_summaries_report_the_problem_sizes(tmp_path, plan_obj):
    plan = parse_plan(json.dumps(plan_obj))
    summary, _ = run_plan(plan, tmp_path)
    cps = plan["_checkpoints"]
    srcs = [plan["_source"]]
    if plan_obj["experiment"] == "rw-asym":
        srcs = [dataclasses.replace(srcs[0], seed=rng.derive(5, "walk", rep))
                for rep in range(2)]
    want_sites, want_blocks = [], []
    for src in srcs:
        coords = sources.generate(src, cps[-1])
        want_sites.append([len(np.unique(coords[:c], axis=0)) for c in cps])
        want_blocks.append(_feed_blocks(coords, cps))
    if len(srcs) == 1:
        want_sites, want_blocks = want_sites[0], want_blocks[0]
    assert summary["n"] == cps[-1]
    assert summary["distinct_sites"] == want_sites
    assert summary["ledger_blocks"] == want_blocks


def test_numpy_scalars_are_written_as_plain_numbers(tmp_path, monkeypatch):
    def runner(plan, threads):
        row = (np.float64(-0.5), np.int64(3), np.bool_(True))
        summary = {"x": np.float64(0.25), "k": np.int64(7),
                   "flag": np.bool_(False)}
        return {"stats.csv": (("x", "k", "flag"), [row])}, summary, {}
    monkeypatch.setitem(cli.EXPERIMENTS, "stats",
                        cli.EXPERIMENTS["stats"]._replace(run=runner))
    run_plan(parse_plan(json.dumps(STATS_PLAN)), tmp_path)
    assert (tmp_path / "stats.csv").read_text().splitlines()[1] == "-0.5,3,True"
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["summary"] == {"x": 0.25, "k": 7, "flag": False}


@pytest.mark.parametrize("field, applies", [({"variant": "uniform"}, True),
                                            ({"variant": "discrete",
                                              "atoms": [[0, 0.5], [1, 0.5]]},
                                             False),
                                            ({"variant": "ma",
                                              "weights": [1, 1]}, False)])
def test_fclt_sup_law_not_applicable_with_atoms(tmp_path, field, applies):
    plan = parse_plan(json.dumps({
        "experiment": "fclt", "source": {"variant": "rw", "simple": 1,
                                         "seed": 4},
        "field": field, "n": 200, "grid": [0.5], "replicates": 100,
        "seed_base": 9}))
    summary, _ = run_plan(plan, tmp_path)
    assert ("sup_law" not in summary) == applies


def test_rotation_plan_summary_does_not_depend_on_earlier_runs(tmp_path):
    # from x = 0 the first orbit point sits on the breakpoint 0: one near hit
    # per realization, however often the parsed plan runs
    plan = parse_plan(json.dumps({
        "experiment": "rotation",
        "source": {"variant": "rotation", "cf": {"periodic": [1]}, "x": "0"},
        "checkpoints": [10, 100]}))
    first = run_plan(plan, tmp_path / "a")
    second = run_plan(plan, tmp_path / "b")
    assert first == second
    assert first[0]["near_breakpoint_hits"] == 1


def test_selftest_passes():
    results = run_selftest()
    assert results["ok"]
    assert results["ledger_vs_brute_force"]
    assert results["local_times"]
    assert results["return_series"]
    assert results["source_blocks"]
    assert results["site_hash"]
    assert results["field_batches"]
    assert results["step_draws"]
    assert results["variance_keys"]


def _sup_without_the_left_gap(ecdf, field):
    """``empirical.sup_deviation`` with its F(v-) - F_n(v-) term dropped."""
    return float(np.max(ecdf.cumulative() - field.cdf(ecdf.values)))


def test_selftest_fails_when_the_sup_drops_its_left_gap(monkeypatch,
                                                        capsys):
    # main prints each entry of run_selftest() and exits 1 unless "ok"
    monkeypatch.setattr(empirical, "sup_deviation", _sup_without_the_left_gap)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "field_batches: FAIL" in out and "ok: FAIL" in out
    assert "site_hash: ok" in out


# rng.mix64_array with the last shift of the mixer at 30 in place of 31
MIXER_WITH_SHIFT_30 = """
import sys
import numpy as np
from selab import cli, rng

def mix(z):
    for shift, mult in ((30, rng._M1), (27, rng._M2), (30, 0)):
        z ^= z >> np.uint64(shift)
        if mult:
            z *= np.uint64(mult)
    return z

rng.mix64_array = mix
results = cli.run_selftest()
print(sys.flags.optimize, results["site_hash"], results["ok"])
"""


def test_selftest_fails_under_a_mixer_with_its_last_shift_at_30():
    # under python -O, which would strip any assert from the checks
    out = _fresh_python(MIXER_WITH_SHIFT_30, PYTHONOPTIMIZE="1")
    assert out.split() == ["1", "False", "False"]


def _fresh_python(code: str, **env) -> str:
    """stdout of ``python -c code`` in a new process importing this selab."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src, **env))
    return proc.stdout


def test_importing_the_cli_loads_no_scipy():
    out = _fresh_python("import sys, selab.cli; print(sorted(m for m in "
                        "sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_importing_the_cli_leaves_the_selftest_unloaded():
    out = _fresh_python("import sys, selab.cli; "
                        "print('selab.selftest' in sys.modules)")
    assert out.strip() == "False"


def test_plan_errors_do_not_depend_on_string_hashing():
    # at hash seeds 0, 1 and 3 set order named three different missing keys
    code = ("from selab.cli import PlanError, parse_plan\n"
            "try:\n    parse_plan('{\"experiment\": \"gc\"}')\n"
            "except PlanError as exc:\n    print(exc)")
    messages = {_fresh_python(code, PYTHONHASHSEED=seed)
                for seed in ("0", "1", "3")}
    assert messages == {'missing key "$.field"\n'}


def test_benchmark_names_are_still_there():
    # perfbench/tracer.py patches named functions of selab and
    # perfbench/plans.py recomputes each workload through selab: deleting
    # or renaming one of those names breaks the benchmark, not this package
    bench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    code = (f"import sys; sys.path.insert(0, {bench!r})\n"
            "import plans, tracer\n"
            "tracer.Tracer().install()\n"
            "for w in plans.WORKLOADS:\n"
            "    plans.reference(w, plans.make_plan(w, 1, quick=True))\n"
            "print(len(plans.WORKLOADS))")
    assert _fresh_python(code).strip() == "3"


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
