"""Acceptance suite: one test (one PASS/FAIL line under pytest -v) per
criterion.  Tolerances and scales are fixed; every run is fully seeded."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from selab import (CoboundarySource, ExplicitSource, LocalTimeLedger,
                   RandomWalkSource, StepDistribution, WindowFunctional,
                   brute_force_stats, condition_report, generate,
                   kernel_grid_mean, mc_fclt, phi, quadratic_form,
                   return_series, sampled_ecdf, simple_walk, sup_deviation,
                   trajectory_stats, transient_variance_report)
from selab.fields import MovingAverageField, UniformField
from selab.rotation import (ContinuedFraction, RotationCocycle,
                            SpecialFlowSource, StepFunction,
                            counterexample_ratio_schedule,
                            minimal_lambda_indices, point_from_seed)

GOLDEN = ContinuedFraction.golden()


@pytest.fixture(scope="module")
def d3_series():
    # the series behind the transient-normalization criterion
    return return_series(simple_walk(3), 200, [(0, 0, 0), (1, 0, 0)])


@pytest.fixture(scope="module")
def fclt_result():
    # shared by the covariance and bridge-sup criteria
    return mc_fclt(UniformField(), RandomWalkSource(simple_walk(2), seed=5),
                   n=10**4, grid=[0.25, 0.5, 0.75], replicates=2000,
                   seed_base=99)


def _mixed_source(i: int):
    d = 1 + i % 2
    kind = i % 4
    if kind == 0:
        return RandomWalkSource(simple_walk(d), seed=1000 + i)
    if kind == 1:
        atoms = [(tuple([j] + [0] * (d - 1)), 0.2) for j in range(5)]
        return CoboundarySource(StepDistribution(atoms), seed=1000 + i)
    if kind == 2:
        table = {(0, 0): tuple([0] * d), (0, 1): tuple([1] * d),
                 (1, 0): tuple([-1] * d), (1, 1): tuple([0] * d)}
        return WindowFunctional([(0, 0.5), (1, 0.5)], 2, table, seed=1000 + i)
    rw = generate(RandomWalkSource(simple_walk(d), seed=2000 + i), 400)
    return ExplicitSource([tuple(r) for r in rw.tolist()])


def test_criterion_01_oracle_equivalence():
    start = time.monotonic()
    for i in range(100):
        n = 500 + (i * 37) % 1501
        src = _mixed_source(i)
        if isinstance(src, ExplicitSource):
            n = min(n, len(src.sites))
        coords = generate(src, n)
        led = LocalTimeLedger(coords.shape[1])
        led.record_many(map(tuple, coords))
        v, m, counts = brute_force_stats(coords)
        assert (v, m) == (led.self_intersections, led.max_count)
        assert counts == led.counts
    assert time.monotonic() - start < 5.0


def test_criterion_02_coboundary_limit():
    law = StepDistribution([((i,), 0.1) for i in range(10)])
    for seed in range(10):
        ts = trajectory_stats(generate(CoboundarySource(law, seed=seed), 10**5))
        ratio = ts.v[-1] / 10**10
        assert abs(ratio - 0.1) <= 0.01, f"seed {seed}: V/n^2 = {ratio}"


def test_criterion_03_transient_normalization(d3_series):
    predict = 1 + 2 * d3_series.partial_sum((0, 0, 0), with_tail=True)
    for seed in range(10):
        ts = trajectory_stats(
            generate(RandomWalkSource(simple_walk(3), seed=200 + seed), 10**6))
        ratio = ts.v[-1] / 10**6
        assert abs(ratio - predict) <= 0.05 * predict, \
            f"seed {seed}: V/n = {ratio}, series predicts {predict}"


def test_criterion_04_d1_recurrent_rate():
    cps = [10**4, 31623, 10**5, 316228, 10**6]
    xs = [math.log(c) for c in cps]
    for seed in range(31, 36):
        ts = trajectory_stats(
            generate(RandomWalkSource(simple_walk(1), seed=seed), 10**6))
        slope = float(np.polyfit(xs, [math.log(ts.v[c - 1]) for c in cps], 1)[0])
        assert 1.40 <= slope <= 1.60, f"seed {seed}: slope {slope}"


def test_criterion_05_d2_rates():
    bound = 2 * math.log(10**6) ** 2 / math.pi
    for seed in range(102, 107):
        ts = trajectory_stats(
            generate(RandomWalkSource(simple_walk(2), seed=seed), 10**6))
        r6 = ts.v[10**6 - 1] / (10**6 * math.log(10**6))
        r5 = ts.v[10**5 - 1] / (10**5 * math.log(10**5))
        assert 0.8 <= r6 / r5 <= 1.3, f"seed {seed}: ratio {r6 / r5}"
        assert ts.m[-1] <= bound, f"seed {seed}: M {ts.m[-1]} > {bound}"


def test_criterion_06_rotation_growth():
    checkpoints = (10**3, 10**4, 10**5, 10**6)
    for xseed in range(5):
        rc = RotationCocycle(GOLDEN, StepFunction.square_wave(),
                             point_from_seed(xseed))
        ts = trajectory_stats(rc.generate(10**6))
        norms = [ts.v[n - 1] * math.sqrt(math.log(n)) / n**2
                 for n in checkpoints]
        assert max(norms) / min(norms) <= 3.0, f"x seed {xseed}: {norms}"
        for n in checkpoints:
            assert ts.m[n - 1] <= 4 * n / math.sqrt(math.log(n)), \
                f"x seed {xseed}: M_{n} = {ts.m[n - 1]}"


def test_criterion_07_glivenko_cantelli_decay():
    coords = generate(RandomWalkSource(simple_walk(3), seed=301), 10**6)
    led_small = LocalTimeLedger.from_trajectory(coords[:1000])
    led_big = LocalTimeLedger.from_trajectory(coords)
    field = UniformField()
    passed = 0
    for fseed in range(10):
        early = sup_deviation(sampled_ecdf(field, fseed, led_small), field)
        late = sup_deviation(sampled_ecdf(field, fseed, led_big), field)
        passed += (late < 0.02 and late < early)
    assert passed >= 9, f"only {passed}/10 field seeds show the decay"


def test_criterion_08_fclt_covariance(fclt_result):
    res = fclt_result
    # precondition of the theorem: M^2/V negligible, checked via the report
    rows = []
    for n in (100, 1000, 10**4):
        led = LocalTimeLedger.from_trajectory(
            generate(RandomWalkSource(simple_walk(2), seed=5), n))
        rows.append(led.checkpoint())
    assert condition_report(rows).fclt_flag
    dev = np.abs(res.cov - res.cov_target)
    assert np.all(dev <= 3 * res.cov_stderr), \
        f"max deviation {dev.max()} vs stderr {res.cov_stderr.max()}"


def _bridge_sup_95_quantile() -> float:
    # independent oracle: solve P(sup|bridge| <= x) = 0.95 with the
    # alternating exponential series 1 - 2 sum (-1)^(k-1) exp(-2 k^2 x^2)
    def cdf(x: float) -> float:
        return 1 - 2 * sum((-1) ** (k - 1) * math.exp(-2 * k * k * x * x)
                           for k in range(1, 101))
    lo, hi = 0.5, 3.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if cdf(mid) < 0.95:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_criterion_09_bridge_sup_law(fclt_result):
    target = _bridge_sup_95_quantile()
    assert abs(target - 1.3581) < 5e-4  # sanity on the oracle itself
    q95 = float(np.quantile(fclt_result.sup_sample, 0.95))
    assert abs(q95 - target) <= 0.10, f"95th pct {q95} vs {target}"


def _ratio_floor_oracle(cfg):
    """L_n = t_n^2 / (t_n^2 + q_n + sum_{m<n} (q_n |J_m| + 2)(t_m^2 - 1)),
    t_m = 1 + h_m: the first visit to J_n comes before base step q_n, and
    Denjoy-Koksma caps the earlier visits to each J_m."""
    qs = cfg.denominators()
    tops = [1 + h for h in cfg.tower_heights()]
    lengths = [Fraction(3, qs[m]) - Fraction(3, qs[m + 1])
               for m in range(cfg.levels)]
    floors = []
    for n in range(cfg.levels):
        v_bound = tops[n] ** 2 + qs[n] + sum(
            (qs[n] * lengths[m] + 2) * (tops[m] ** 2 - 1) for m in range(n))
        floors.append(Fraction(tops[n] ** 2) / v_bound)
    return floors


def test_criterion_10_counterexample_schedule():
    # The construction forces M^2/V up to a per-level floor L_n -> 1; it
    # does not make the ratios monotone (level 1 sits above a high floor
    # because no tower precedes it, level 2 near a low one).
    lam = minimal_lambda_indices(GOLDEN, 3)
    cfg = SpecialFlowSource(GOLDEN, 3, lam, 0)
    sched = counterexample_ratio_schedule(cfg, budget=10**8)
    assert len(sched) >= 3
    heights = cfg.tower_heights()
    qs = cfg.denominators()
    floors = _ratio_floor_oracle(cfg)
    path = generate(cfg, max(cp.n for cp in sched))[:, 0]
    for cp in sched:
        top = 1 + heights[cp.level - 1]
        assert cp.m == top, f"level {cp.level}: M = {cp.m}, expected {top}"
        _, counts = np.unique(path[:cp.n], return_counts=True)
        assert (cp.m, cp.v) == (counts.max(), int((counts ** 2).sum())), \
            f"level {cp.level}: recount of the first {cp.n} flow steps"
        _, before = np.unique(path[:cp.n - 1], return_counts=True)
        assert before.max() < top, \
            f"level {cp.level}: local time {top} reached before step {cp.n}"
        assert cp.base_step < qs[cp.level - 1]
        assert Fraction(cp.m ** 2, cp.v) >= floors[cp.level - 1], \
            f"level {cp.level}: ratio {cp.ratio} below floor " \
            f"{float(floors[cp.level - 1])}"
    assert sched[-1].ratio >= 0.5, f"final ratio {sched[-1].ratio}"
    deep = SpecialFlowSource(GOLDEN, 5, minimal_lambda_indices(GOLDEN, 5), 0)
    deep_floors = _ratio_floor_oracle(deep)[1:]
    assert all(a < b for a, b in zip(deep_floors, deep_floors[1:])), \
        [float(f) for f in deep_floors]
    assert 0 < 1 - deep_floors[-1] < Fraction(1, 10**8)


def test_criterion_11_spectral_identities():
    start = time.monotonic()
    field = UniformField()
    for i in range(20):
        d = 1 + i % 2
        led = LocalTimeLedger.from_trajectory(
            generate(RandomWalkSource(simple_walk(d), seed=500 + i), 150))
        coords = np.array(list(led.counts.keys()))
        diameter = int((coords.max(axis=0) - coords.min(axis=0)).max())
        q = diameter + 1 + i % 3
        mean = kernel_grid_mean(led, q)
        assert abs(mean - led.self_intersections) \
            <= 1e-9 * led.self_intersections
        qf = quadratic_form(led, field)
        assert qf == pytest.approx(led.self_intersections / 12, rel=1e-12)
    pm1 = StepDistribution([((1,), 0.5), ((-1,), 0.5)])
    ts = np.random.default_rng(7).uniform(0.01, 0.99, size=100)
    for t in ts:
        assert abs(phi(pm1, [t]) - 1 / math.tan(math.pi * t) ** 2) < 1e-10
    assert time.monotonic() - start < 5.0


def test_criterion_12_transient_variance_positivity():
    rep = transient_variance_report(
        simple_walk(3), MovingAverageField([1.0, 1.0]), n=10**5,
        replicates=50, seed_base=1234)
    assert rep.positive and rep.mc_estimate > 0
    assert abs(rep.mc_estimate - rep.series_prediction) \
        <= 0.05 * rep.series_prediction, \
        f"MC {rep.mc_estimate} vs series {rep.series_prediction}"
    assert abs(rep.defect_estimate) <= 0.05 * rep.series_prediction, \
        f"defect {rep.defect_estimate}"
