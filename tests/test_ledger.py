import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selab import (LocalTimeLedger, brute_force_stats, condition_report,
                   dispersion_bound, range_lower_bound, subset_lower_bound,
                   trajectory_stats)

site_lists = st.lists(
    st.tuples(st.integers(-8, 8), st.integers(-8, 8)), min_size=1, max_size=120)


def replay(sites):
    led = LocalTimeLedger(len(sites[0]))
    led.record_many(sites)
    return led


def test_streaming_recursion_example():
    # 0,1,0,1: two sites visited twice each
    led = replay([(0,), (1,), (0,), (1,)])
    assert led.snapshot_row()[:4] == (4, 2, 8, 2)
    assert led.m2_over_v == 0.5


def test_single_site_repeated():
    led = replay([(3, 3)] * 10)
    assert led.self_intersections == 100
    assert led.max_count == 10
    assert led.range_card == 1


def test_pqd_partial_sum():
    led = replay([(0,), (0,)])
    assert led.pqd_partial_sum == pytest.approx(1 / 1 + 2 / 4)


def test_dimension_and_overflow_errors():
    led = LocalTimeLedger(2)
    with pytest.raises(ValueError):
        led.record((1,))
    with pytest.raises(OverflowError):
        led.record((1 << 63, 0))
    with pytest.raises(ValueError):
        LocalTimeLedger(0)


@given(site_lists)
@settings(max_examples=60, deadline=None)
def test_invariant_chain(sites):
    led = replay(sites)
    n, m, v = led.n, led.max_count, led.self_intersections
    assert n <= v <= n * m <= n * n
    assert led.range_card <= n
    led.rescan()


@given(site_lists)
@settings(max_examples=40, deadline=None)
def test_streaming_matches_brute_force_and_vectorized(sites):
    led = replay(sites)
    v, m, counts = brute_force_stats(sites)
    assert (v, m) == (led.self_intersections, led.max_count)
    assert counts == led.counts
    ts = trajectory_stats(sites)
    assert int(ts.v[-1]) == v
    assert int(ts.m[-1]) == m
    assert int(ts.range_card[-1]) == led.range_card
    assert float(ts.pqd[-1]) == pytest.approx(led.pqd_partial_sum, rel=1e-12)


@given(site_lists, site_lists)
@settings(max_examples=40, deadline=None)
def test_self_intersections_superadditive(a, b):
    led_a, led_b, led_ab = replay(a), replay(b), replay(a + b)
    assert (led_ab.self_intersections
            >= led_a.self_intersections + led_b.self_intersections)


@given(site_lists)
@settings(max_examples=40, deadline=None)
def test_subset_and_range_bounds(sites):
    led = replay(sites)
    subset = list(led.counts.keys())[: max(1, len(led.counts) // 2)]
    assert subset_lower_bound(led, subset) <= led.self_intersections
    assert range_lower_bound(led) <= led.self_intersections


def test_subset_bound_tight_witness():
    led = replay([(0,), (1,), (0,), (1,)])
    assert subset_lower_bound(led, [(0,), (1,)]) == Fraction(8)
    assert led.self_intersections == 8


def test_subset_bound_errors():
    led = replay([(0,)])
    with pytest.raises(ValueError):
        subset_lower_bound(led, [])
    with pytest.raises(ValueError):
        subset_lower_bound(led, [(0, 0)])


def test_dispersion_bound_constant_sequence():
    b = dispersion_bound([(5,)] * 20)
    assert b.sigma == 0.0
    assert b.bound <= 400  # V is exactly n^2 here
    assert b.bound == max((1 - lam**-2) ** 2 * 400 for lam in b.LAMBDAS)


@given(st.lists(st.tuples(st.integers(-50, 50)), min_size=2, max_size=200))
@settings(max_examples=40, deadline=None)
def test_dispersion_bound_below_v(sites):
    led = replay(sites)
    b = dispersion_bound(sites)
    assert b.bound <= led.self_intersections + 1e-9 * led.self_intersections
    assert b.best_lambda in b.LAMBDAS


def test_dispersion_bound_needs_1d():
    with pytest.raises(ValueError):
        dispersion_bound([(0, 0)])


def _walk_checkpoints(ns, rho):
    # synthetic checkpoints with V = n^2/(log n)^rho and M ~ sqrt(V)/log n
    rows = []
    pqd = 0.0
    for n in ns:
        v = n * n / math.log(n) ** rho
        m = int(math.sqrt(v) / math.log(n))
        pqd += m / n**2 * 0  # keep a convergent-looking tail below
        rows.append((n, max(m, 1), v, 2.0 - 1.0 / n))
    return rows


def test_condition_report_flags():
    rows = _walk_checkpoints([10**2, 10**3, 10**4, 10**5], rho=1.0)
    rep = condition_report(rows)
    assert rep.beta_fit == pytest.approx(1.0, abs=0.05)
    assert rep.fclt_flag  # ratios shrink like 1/log^... and end below 0.1
    assert rep.pqd_flag


def test_condition_report_preconditions():
    rows = _walk_checkpoints([100, 1000, 10000], rho=1.0)
    with pytest.raises(ValueError):
        condition_report(rows[:2])
    with pytest.raises(ValueError):
        condition_report([rows[1], rows[0], rows[2]])
    with pytest.raises(ValueError):
        condition_report([(8, 1, 8, 0.1)] + [(r[0], r[1], r[2], 0.2) for r in rows[1:]])


def test_condition_report_flags_negative():
    # V ~ n^2: clustering so heavy that no flag should fire
    rows = [(n, n, n * n, 1.0 + 0.4 * i) for i, n in enumerate([100, 1000, 10**4])]
    rep = condition_report(rows)
    assert not rep.fclt_flag
    assert not rep.pqd_flag
    assert rep.beta_fit == pytest.approx(0.0, abs=1e-9)


def test_from_trajectory_matches_record_many():
    traj = np.array([[0, 1], [2, 3], [0, 1], [4, 4], [0, 1]])
    a = LocalTimeLedger.from_trajectory(traj)
    b = LocalTimeLedger(2)
    b.record_many(map(tuple, traj))
    assert a.counts == b.counts
    assert a.snapshot_row()[:5] == b.snapshot_row()[:5]
    assert a.pqd_partial_sum == pytest.approx(b.pqd_partial_sum, rel=1e-12)


# sites whose raw coordinate spread needs more than 62 bits of key
EXTREME_TRAJECTORIES = [
    [(-(1 << 62),), (1 << 62,), (-(1 << 62),)],
    [(-(1 << 63), 0), ((1 << 63) - 1, 5), (-(1 << 63), 0), (0, 0),
     ((1 << 63) - 1, 5), ((1 << 63) - 1, 5)],
]


def _dict_oracle(sites):
    counts, v, m = {}, [], []
    for s in sites:
        counts[s] = counts.get(s, 0) + 1
        v.append(sum(c * c for c in counts.values()))
        m.append(max(counts.values()))
    return counts, v, m


@pytest.mark.parametrize("sites", EXTREME_TRAJECTORIES)
def test_extreme_coordinates_in_every_route(sites):
    counts, v, m = _dict_oracle(sites)
    led = LocalTimeLedger(len(sites[0]))
    for s in sites:
        led.record(s)
    bulk = LocalTimeLedger.from_trajectory(sites)
    for got in (led, bulk):
        assert got.counts == counts
        assert (got.self_intersections, got.max_count) == (v[-1], m[-1])
    ts = trajectory_stats(sites)
    assert ts.v.tolist() == v
    assert ts.m.tolist() == m
    assert brute_force_stats(sites) == (v[-1], m[-1], counts)


coordinates = st.one_of(st.integers(-3, 3),
                        st.sampled_from([-(1 << 63), (1 << 63) - 1, 1 << 62]))


@given(st.lists(st.tuples(coordinates, coordinates), min_size=1,
                max_size=80),
       st.lists(st.integers(1, 30), min_size=1, max_size=80))
@settings(max_examples=60, deadline=None)
def test_record_block_splits_agree_with_brute_force(sites, sizes):
    led = LocalTimeLedger(2)
    bounds = np.cumsum([0] + sizes + [len(sites)])
    for a, b in zip(bounds[:-1], bounds[1:]):
        led.record_block(np.array(sites[a:b], dtype=np.int64).reshape(-1, 2))
    v, m, counts = brute_force_stats(sites)
    assert (led.n, led.self_intersections, led.max_count, led.range_card) \
        == (len(sites), v, m, len(counts))
    assert led.counts == counts
    assert [tuple(s) for s in led.sites.tolist()] == list(dict.fromkeys(sites))
    # sequential compensated sum of M_k / k^2, term by term
    total = comp = 0.0
    for k, m_k in enumerate(_dict_oracle(sites)[2], start=1):
        term = m_k / (k * k) - comp
        new = total + term
        comp = (new - total) - term
        total = new
    assert led.pqd_partial_sum == total
