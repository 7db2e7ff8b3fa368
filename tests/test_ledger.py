import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from selab import (LocalTimeLedger, RandomWalkSource, brute_force_stats,
                   condition_report, generate, ledger, rng, simple_walk,
                   sources, trajectory_stats)
from selab.fields import MovingAverageField
from selab.ledger import (exact_sum, key_local_times, key_strides,
                          local_time_block, pack_sites, run_starts, sort_keys)
from selab.selftest import (dict_local_times, feed_snapshots, ledger_blocks,
                            takes_rank_pre_step)

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


def test_pqd_partial_sum_is_exact_for_long_block_splits():
    # many blocks: a sum rounded at every block boundary drifts by ulps
    coords = generate(RandomWalkSource(simple_walk(1), seed=3), 20000)
    m = trajectory_stats(coords).m.tolist()
    exact = float(sum(Fraction(m_k / (k * k))
                      for k, m_k in enumerate(m, start=1)))
    sizes = np.random.default_rng(5).integers(1, 64, size=20000)
    for cuts in ([], np.arange(1, 20000), np.cumsum(sizes)):
        led = LocalTimeLedger(1)
        for block in np.split(coords, [c for c in cuts if c < 20000]):
            led.record_block(block)
        assert led.pqd_partial_sum == exact


def test_dimension_and_overflow_errors():
    led = LocalTimeLedger(2)
    with pytest.raises(ValueError):
        led.record((1,))
    with pytest.raises(OverflowError):
        led.record((1 << 63, 0))
    with pytest.raises(ValueError):
        LocalTimeLedger(0)


@pytest.mark.parametrize("sites", [
    [[1.5, 2]], np.array([[1.5, 2.0]]), np.array([[2.0, 2.0]]),
    np.array([[True, False]]), [(True, False)], [(0, 1), (2.5, 3)]],
    ids=["float-list", "float-array", "whole-float-array", "bool-array",
         "bool-list", "float-in-int-list"])
def test_non_integer_coordinates_are_refused(sites):
    # each was cut to int64, so a site 1.5 was read as the site 1
    with pytest.raises(ValueError, match="integers"):
        LocalTimeLedger.from_trajectory(sites)
    with pytest.raises(ValueError, match="integers"):
        ledger.pack_sites(sites)
    with pytest.raises(ValueError, match="integers"):
        rng.hash_sites(1, sites)
    with pytest.raises(ValueError, match="integers"):
        rng.Sites(sites)
    with pytest.raises(ValueError, match="integers"):
        MovingAverageField((1.0, 0.5)).site_values(1, sites)


@pytest.mark.parametrize("sites", [
    np.array([[1 << 63, 0]], dtype=np.uint64), [1 << 63], [(1 << 63, 0)],
    [(1 << 64, 0)], [(-(1 << 63) - 1, 0)]],
    ids=["uint64-array", "uint64-list", "float64-list", "object-list",
         "below-int64"])
def test_coordinates_outside_int64_overflow(sites):
    # a uint64 coordinate of 2^63 or more wrapped to a negative one
    with pytest.raises(OverflowError):
        LocalTimeLedger.from_trajectory(sites)
    with pytest.raises(OverflowError):
        rng.hash_sites(1, sites)


def test_integer_coordinates_of_any_width_are_read_exactly():
    top = (1 << 63) - 1
    for sites in (np.array([[top, 0]], dtype=np.uint64), [(top, -5)],
                  np.array([[-3, 7]], dtype=np.int8), []):
        coords = ledger.as_coords(sites)
        assert coords.dtype == np.int64
        assert coords.tolist() == (np.array(sites, dtype=object).reshape(
            coords.shape).tolist())


@given(site_lists)
@settings(max_examples=60, deadline=None)
def test_invariant_chain(sites):
    led = replay(sites)
    n, m, v = led.n, led.max_count, led.self_intersections
    assert n <= v <= n * m <= n * n
    assert led.range_card <= n


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


def cauchy_schwarz_bound(led, subset):
    """(sum of the local times on A)^2 / |A| <= V_n, by Cauchy-Schwarz."""
    counts = led.counts
    hits = sum(counts.get(tuple(s), 0) for s in subset)
    return Fraction(hits * hits, len(subset))


@given(site_lists)
@settings(max_examples=40, deadline=None)
def test_subset_and_range_bounds(sites):
    led = replay(sites)
    subset = list(led.counts.keys())[: max(1, len(led.counts) // 2)]
    assert cauchy_schwarz_bound(led, subset) <= led.self_intersections
    # A = the visited range: n^2 / |range| <= V
    assert cauchy_schwarz_bound(led, led.counts) \
        == Fraction(led.n**2, led.range_card) <= led.self_intersections


def test_subset_bound_tight_witness():
    led = replay([(0,), (1,), (0,), (1,)])
    assert cauchy_schwarz_bound(led, [(0,), (1,)]) == Fraction(8)
    assert led.self_intersections == 8


DISPERSION_LAMBDAS = (1.5, 2.0, 3.0, 4.0)


def dispersion_bound(sites):
    """(sigma, bound, lam) for a 1-D sequence of standard deviation sigma:
    Chebyshev puts n (1 - lam^-2) steps on the 2 lam sigma + 1 sites within
    lam sigma of the mean, so Cauchy-Schwarz gives V_n >= bound, the largest
    (1 - lam^-2)^2 n^2 / (2 lam sigma + 1) over the multipliers lam."""
    z = np.asarray(sites, dtype=np.float64)[:, 0]
    n, sigma = z.size, float(np.sqrt(np.mean((z - z.mean()) ** 2)))
    bound, lam = max(((1 - lam**-2) ** 2 * n * n / (2 * lam * sigma + 1), lam)
                     for lam in DISPERSION_LAMBDAS)
    return sigma, bound, lam


def test_dispersion_bound_constant_sequence():
    sigma, bound, _ = dispersion_bound([(5,)] * 20)
    assert sigma == 0.0
    assert bound <= 400  # V is exactly n^2 here
    assert bound == max((1 - lam**-2) ** 2 * 400 for lam in DISPERSION_LAMBDAS)


@given(st.lists(st.tuples(st.integers(-50, 50)), min_size=2, max_size=200))
@settings(max_examples=40, deadline=None)
def test_dispersion_bound_below_v(sites):
    led = replay(sites)
    _, bound, lam = dispersion_bound(sites)
    assert bound <= led.self_intersections + 1e-9 * led.self_intersections
    assert lam in DISPERSION_LAMBDAS


@pytest.mark.parametrize("d", (1, 3))
def test_empty_block_keeps_the_state(d):
    empty = np.empty((0, d), dtype=np.int64)
    occ, sites, times = local_time_block(empty)
    assert (occ.shape, sites.shape, times.shape) == ((0,), (0, d), (0,))
    prior = generate(RandomWalkSource(simple_walk(d), 2), 50)
    _, prior_sites, prior_times = local_time_block(prior)
    led = LocalTimeLedger.from_trajectory(prior)
    led.record_block(empty)
    assert led.n == 50
    assert np.array_equal(led.sites, prior_sites)
    assert np.array_equal(led.local_times, prior_times)
    ts = trajectory_stats(empty)
    assert all(a.shape == (0,) for a in (ts.occupation, ts.v, ts.m,
                                          ts.range_card, ts.pqd))


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
    assert a.pqd_partial_sum == b.pqd_partial_sum


# sites whose raw coordinate spread needs more than 62 bits of key
EXTREME_TRAJECTORIES = [
    [(-(1 << 62),), (1 << 62,), (-(1 << 62),)],
    [(-(1 << 63), 0), ((1 << 63) - 1, 5), (-(1 << 63), 0), (0, 0),
     ((1 << 63) - 1, 5), ((1 << 63) - 1, 5)],
]


@pytest.mark.parametrize("sites", EXTREME_TRAJECTORIES)
def test_extreme_coordinates_in_every_route(sites):
    counts, v, m = dict_local_times(sites)
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
    assert ledger_blocks(np.array(sites, dtype=np.int64), np.cumsum(sizes))


@given(st.integers(1, 6), st.integers(1 << 25, 1 << 45),
       st.lists(st.integers(-2, 2), min_size=1, max_size=60),
       st.lists(st.integers(1, 8), min_size=1, max_size=60))
@settings(max_examples=80, deadline=None)
def test_pqd_partial_sum_is_exact_far_along_the_sequence(head, start, sites,
                                                         sizes):
    """The carried sum against the exact Fraction sum when the terms reach
    indices k >= 2^25: after a head block (S ~ 1) the step count jumps to
    ``start``, so the later terms M_k / k^2 lie 50 or more bits below S."""
    led = LocalTimeLedger(1)
    led.record_block(np.zeros((head, 1), dtype=np.int64))
    led.n = start  # only the step count jumps: terms are M_k / k^2 from here
    bounds = np.cumsum([0] + sizes + [len(sites)])
    for a, b in zip(bounds[:-1], bounds[1:]):
        led.record_block(np.array(sites[a:b], dtype=np.int64).reshape(-1, 1))
    m = dict_local_times([0] * head + sites)[2]
    ks = [*range(1, head + 1), *range(start + 1, start + len(sites) + 1)]
    # the ledger's float64 terms: m / (k * k) with k * k rounded past 2^53
    exact = sum(Fraction(m_k / (float(k) * float(k))) for k, m_k in zip(ks, m))
    assert led.pqd_partial_sum == float(exact)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50))
@settings(max_examples=200, deadline=None)
def test_exact_sum_is_the_exact_sum(terms):
    total = exact_sum(np.array(terms, dtype=np.float64))
    assert total == sum(map(Fraction, terms))


def test_exact_sum_rounds_a_near_tie_correctly():
    # 1 + 2^-53 is a tie, rounded down to 1; anything above it rounds up
    terms = np.array([1.0, 2.0**-53, 2.0**-300])
    assert float(exact_sum(terms)) == 1.0 + 2.0**-52
    assert float(exact_sum(terms[:2])) == 1.0


@st.composite
def key_arrays(draw):
    """int64 keys with many ties, spread over the room left by a row index
    of ib bits, or at 2^(63 - ib) and above, where the rank pre-step runs."""
    n = draw(st.integers(0, 600))
    ib = (n - 1).bit_length()
    room = 1 << (63 - ib)
    lo, hi = draw(st.sampled_from([(0, 5), (0, room - 1),
                                   (min(room, 1 << 62), 1 << 62)]))
    pool = draw(st.lists(st.integers(lo, hi), min_size=1, max_size=max(n, 1)))
    pick = np.random.default_rng(draw(st.integers(0, 2**32))).integers(
        0, len(pool), n)
    return np.array(pool, dtype=np.int64)[pick]


@given(key_arrays())
@settings(max_examples=150, deadline=None)
def test_sort_keys_is_the_stable_argsort(key):
    want = np.argsort(key, kind="stable")
    order, sorted_key = sort_keys(key.copy())
    assert order.dtype == sorted_key.dtype == np.int64
    assert np.array_equal(order, want)
    assert np.array_equal(sorted_key, key[want])


@given(key_arrays())
@settings(max_examples=100, deadline=None)
def test_key_local_times_are_the_unique_keys_and_counts(key):
    for signed in (key, -key):
        keys, times = key_local_times(signed.copy())
        want_keys, want_times = np.unique(signed, return_counts=True)
        assert np.array_equal(keys, want_keys)
        assert np.array_equal(times, want_times)


def test_key_strides_are_balanced_digits_within_62_bits():
    assert key_strides([21] * 3) == (441, 21, 1)
    assert key_strides([1]) == (1,)
    # width 2^31 - 1 fits two axes in 62 bits, width 2^31 + 1 does not
    assert key_strides([(1 << 31) - 1] * 2) == ((1 << 31) - 1, 1)
    assert key_strides([(1 << 31) + 1] * 2) is None
    # each site with every |z_j| <= 2 has its own key as balanced digits of
    # width 5, of size at most (width^d - 1) / 2
    sites = np.array(list(itertools.product(range(-2, 3), repeat=3)))
    keys = sites @ np.array(key_strides([5] * 3))
    assert np.unique(keys).size == len(sites)
    assert np.abs(keys).max() == (5**3 - 1) // 2


@st.composite
def near_lines(draw):
    """(xs, ys): 2 to 12 points on distinct integer abscissae of size up to
    10^6, on a line of slope 0.1 to 10 in size, each ordinate moved off it
    by at most 10^-4 of the slope."""
    xs = draw(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=12,
                       unique=True))
    slope = draw(st.floats(0.1, 10)) * draw(st.sampled_from([1, -1]))
    base = draw(st.floats(-100, 100))
    noise = draw(st.lists(st.floats(-1e-4, 1e-4), min_size=len(xs),
                          max_size=len(xs)))
    return ([float(x) for x in xs],
            [base + slope * (x + e) for x, e in zip(xs, noise)])


@given(near_lines())
@settings(max_examples=300, deadline=None)
def test_ls_slope_is_the_exact_slope_within_ten_ulps(case):
    xs, ys = case
    x, y = list(map(Fraction, xs)), list(map(Fraction, ys))
    mx, my = sum(x) / len(x), sum(y) / len(y)
    dx, dy = [a - mx for a in x], [b - my for b in y]
    sxy = sum(a * b for a, b in zip(dx, dy))
    exact = sxy / sum(a * a for a in dx)
    # each S_xy term is rounded three times (two differences from the
    # means, a product), each S_xx term twice, each sum once and the
    # quotient once; the points lie so close to their line that
    # sum |dx dy| is within 0.1 % of |S_xy|, so these give a relative
    # error under 8.01 * 2^-53, and the rounded means add under 2^-53:
    # under 10 * 2^-53 relative, which is under 10 ulps
    assert (sum(abs(a * b) for a, b in zip(dx, dy))
            <= Fraction(1001, 1000) * abs(sxy))
    got = ledger.ls_slope(xs, ys)
    assert abs(Fraction(got) - exact) <= 10 * math.ulp(float(exact))


@st.composite
def site_sets(draw):
    """(rows, r): up to 12 sites of Z^d, d <= 4, with coordinates near 0,
    near the 62-bit edge or at the int64 extremes, so that the offset
    layout and the rank route both occur, and a lag radius r <= 2."""
    d = draw(st.integers(1, 4))
    pool = draw(st.lists(st.one_of(
        st.integers(-3, 3), st.sampled_from([-(1 << 63), (1 << 63) - 1,
                                             1 << 62, 1 << 61, 1 << 20])),
        min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*[st.sampled_from(pool)] * d),
                         min_size=1, max_size=12))
    return rows, draw(st.integers(0, 2))


# widths of 2^20 + 1: 3 x 21 bits, but a product below 2^61; one axis
# 2^61 + 1 wide, just inside 2^62; and ranks with copies past the int64 ends
@given(site_sets())
@example(([(0, 0, 0), (1 << 20, 1 << 20, 1 << 20)], 0))
@example(([(0, 0, 0), (1 << 20, 1 << 20, 1 << 20), (1, 0, 0)], 1))
@example(([(0,), (1 << 61,)], 1))
@example(([(-(1 << 63), 0), ((1 << 63) - 1, 1), ((1 << 63) - 2, 0)], 2))
@settings(max_examples=150, deadline=None)
def test_pack_sites_keys_are_exact_and_lags_are_offsets(case):
    rows, r = case
    coords = np.array(rows, dtype=np.int64)
    cols = list(zip(*rows))
    widths = [max(c) - min(c) + 1 for c in cols]
    key, layout = pack_sites(coords)
    offsets = math.prod(widths) <= 1 << 62
    if offsets:
        assert layout.ranks is None
        assert layout.strides == key_strides(widths)
    else:  # the dense ranks of each axis
        assert layout.strides == key_strides([len(set(c)) for c in cols])
    assert all(0 <= k < 1 << 62 for k in key.tolist())
    for (a, k), (b, m) in itertools.combinations(zip(rows, key.tolist()), 2):
        assert (a == b) == (k == m)
    want = np.lexsort(coords.T[::-1])
    assert np.array_equal(sort_keys(key.copy())[0], want)
    # a lag moves a site onto the layout when every moved coordinate is in
    # its axis's span (offsets) or among its axis's values (ranks), and the
    # moved key is a site's exactly when the moved site is that site
    digits = {}
    for lag in itertools.product(range(-r, r + 1), repeat=len(cols)):
        kept, moved = layout.shift(key, lag, digits)
        copies = [tuple(x + h for x, h in zip(row, lag)) for row in rows]
        assert kept.tolist() == [
            all(min(c) <= x <= max(c) if offsets else x in c
                for x, c in zip(copy, cols)) for copy in copies]
        assert all(0 <= m < 1 << 62 for m in moved.tolist())
        for copy, m in zip(itertools.compress(copies, kept), moved.tolist()):
            for row, k in zip(rows, key.tolist()):
                assert (m == k) == (copy == row)


sorted_arrays = st.one_of(
    st.lists(st.one_of(st.integers(-3, 3),
                       st.sampled_from([-(1 << 63), (1 << 63) - 1])),
             max_size=40).map(lambda v: np.sort(np.array(v, dtype=np.int64))),
    st.lists(st.one_of(st.sampled_from([-1.5, -0.0, 0.0, 2.0]),
                       st.floats(allow_nan=False)),
             max_size=40).map(lambda v: np.sort(np.array(v, dtype=np.float64))))


@given(sorted_arrays)
@example(np.array([], dtype=np.int64))
@example(np.array([], dtype=np.float64))
@example(np.array([7], dtype=np.int64))
@example(np.array([0.5]))
@example(np.full(5, -(1 << 63), dtype=np.int64))
@example(np.full(5, 2.5))
@settings(max_examples=150, deadline=None)
def test_run_starts_flags_the_first_of_each_run(xs):
    want = np.zeros(xs.size, dtype=bool)
    want[np.unique(xs, return_index=True)[1]] = True
    got = run_starts(xs)
    assert got.dtype == bool
    assert np.array_equal(got, want)


# spreads that fit the direct 62-bit packing but leave no room in the keys
# for a row index of 9 bits or more: blocks of 257 steps and up take the
# rank pre-step of sort_keys
WIDE_KEY_SITES = [[(0,), (1 << 55,)], [(0, 0), (1 << 27, 1 << 27)]]


@pytest.mark.parametrize("pair", WIDE_KEY_SITES)
@pytest.mark.parametrize("seed", range(3))
def test_block_splits_through_the_rank_pre_step(pair, seed):
    gen = np.random.default_rng(seed)
    coords = np.array(pair, dtype=np.int64)[gen.integers(0, 2, 700)]
    assert takes_rank_pre_step(coords)
    cuts = np.cumsum(gen.integers(1, 400, size=8))
    assert ledger_blocks(coords, [])
    assert ledger_blocks(coords, cuts[cuts < len(coords)])


def test_feed_memory_is_its_sites():
    # a d = 3 walk of 2e5 steps visits about 1.3e5 sites: the feed's traced
    # peak must be the sites, their local times and their index, at most
    # 96 bytes per site, plus block-sized scratch
    cur = sources.cursor(RandomWalkSource(simple_walk(3), 1))
    tracemalloc.start()
    try:
        snaps, _ = ledger.feed(cur, [2000, 20000, 200000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    k = snaps[-1].range_card
    assert k > 130_000
    assert peak < 96 * k + 64 * ledger.BLOCK


@st.composite
def feeds(draw):
    """(source, checkpoints, block): a walk in d = 1 .. 3 whose spread
    outgrows its key layout, or an explicit source over sites near 0, near
    the 62-bit edge and at the int64 ends, where the layout grows, falls
    back to exact widths or takes dense ranks; blocks of 1 .. 40 steps, so
    the feed crosses many blocks, runs and run merges."""
    seed = draw(st.integers(0, 2**64 - 1))
    n = draw(st.integers(1, 400))
    if draw(st.booleans()):
        src = RandomWalkSource(simple_walk(draw(st.integers(1, 3))), seed)
    else:
        pool = draw(st.lists(st.one_of(
            st.integers(-3, 3), st.sampled_from([-(1 << 63), (1 << 63) - 1,
                                                 1 << 62, 1 << 61])),
            min_size=1, max_size=6))
        d = draw(st.integers(1, 3))
        pick = (len(pool) * rng.uniforms(seed, n * d)).astype(int)
        src = sources.ExplicitSource(
            np.array(pool, dtype=np.int64)[pick].reshape(n, d).tolist())
    cps = sorted(set(draw(st.lists(st.integers(1, n), max_size=4))) | {n})
    return src, cps, draw(st.integers(1, 40))


@given(feeds())
# the first block lays axis 1 out over [-1, 3); (0, 3) is one past its end,
# where its digit would give the key of (1, -1), met in the same block
@example((sources.ExplicitSource([(0, 0), (0, 1), (1, -1), (0, 3)]), [4], 2))
@example((sources.ExplicitSource([(-(1 << 63), 0), ((1 << 63) - 1, 5), (0, 0),
                                  (1, 0), (-(1 << 63), 0), (1 << 62, 1)]),
          [2, 4, 6], 2))
@settings(max_examples=80, deadline=None)
def test_feed_snapshots_match_a_dict_through_runs_and_layouts(case):
    src, cps, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ledger, "BLOCK", block)
        assert feed_snapshots(src, cps)


def test_snapshots_and_fed_ledgers_are_read_only():
    # a snapshot holds a view of the live ledger's sites and no runs: it
    # refuses a block, and the ledger it was taken from, fed on, leaves the
    # snapshot's sites and local times as they were; so does the last
    # ledger of a feed
    coords = generate(RandomWalkSource(simple_walk(2), 6), 3000)
    led = LocalTimeLedger(2)
    led.record_block(coords[:1000])
    snap = led.snapshot()
    with pytest.raises(ValueError, match="read-only"):
        snap.record_block(coords[2000:])
    led.record_block(coords[1000:2000])
    for got, rows in ((led, coords[:2000]), (snap, coords[:1000])):
        counts, v, m = dict_local_times([tuple(s) for s in rows.tolist()])
        assert list(got.counts.items()) == list(counts.items())
        assert (got.self_intersections, got.max_count) == (v[-1], m[-1])
    snaps, _ = ledger.feed(
        sources.cursor(RandomWalkSource(simple_walk(2), 6)), [1000, 3000])
    for fed in snaps:
        with pytest.raises(ValueError, match="read-only"):
            fed.record_block(coords[:1])
        with pytest.raises(ValueError, match="read-only"):
            fed.record_block(coords[:0])


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=50),
       st.integers(1, 7))
@settings(max_examples=150, deadline=None)
def test_exact_sum_in_pieces_is_the_exact_sum(terms, piece):
    # the bincount sums are exact below 2^26 terms a piece; pieces of a few
    # terms run the loop that joins them
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ledger, "_PIECE", piece)
        total = exact_sum(np.array(terms, dtype=np.float64))
    assert total == sum(map(Fraction, terms))


@st.composite
def pushed_runs(draw):
    """(runs, numbers, block): 2 .. 4 runs of distinct sorted int64 keys in
    push order, each placed wholly before the keys pushed so far, wholly
    after them or among them; a first-visit number for every key; and
    merge pieces of 1 .. 7 entries."""
    runs, used = [], set()
    for _ in range(draw(st.integers(2, 4))):
        raw = sorted(draw(st.sets(st.integers(0, 1000), min_size=1,
                                  max_size=40)))
        if used:
            lo, hi = min(used), max(used)
            place = draw(st.sampled_from(["before", "after", "among"]))
            if place == "before":
                raw = [x - raw[-1] - 1 + lo for x in raw]
            elif place == "after":
                raw = [x - raw[0] + 1 + hi for x in raw]
            else:  # spread over the keys so far, between and beyond them
                raw = [lo - 2 + x * (hi - lo + 4) // 1000 for x in raw]
            raw = sorted(set(raw) - used) or [hi + 1]
        used |= set(raw)
        runs.append(np.array(raw, dtype=np.int64))
    total = sum(r.size for r in runs)
    numbers = np.array(draw(st.permutations(range(total))), dtype=np.int32)
    return runs, numbers, draw(st.integers(1, 7))


@given(pushed_runs())
# a newer run wholly before, wholly after and among an older one twice
# as long, so that each merges
@example(([np.arange(10, 20), np.arange(0, 5)], np.arange(15, dtype=np.int32),
          3))
@example(([np.arange(0, 10), np.arange(10, 15)], np.arange(15, dtype=np.int32),
          3))
@example(([np.arange(0, 20, 2), np.arange(-1, 21, 4)],
          np.arange(16, dtype=np.int32)[::-1].copy(), 2))
@settings(max_examples=150, deadline=None)
def test_pushed_runs_merge_in_place_into_sorted_runs(case):
    # each run of the index must hold the keys of the pushed runs that
    # merged into it, as np.sort orders them, each carrying its number;
    # and each run must be at least _RATIO times as long as the next
    runs, numbers, block = case
    led = LocalTimeLedger(1)
    led.reserve(numbers.size)
    starts = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ledger, "BLOCK", block)
        for keys in runs:
            k = led._k
            starts.append(k)
            led._keys[k:k + keys.size] = keys
            led._nums[k:k + keys.size] = numbers[k:k + keys.size]
            led._k = k + keys.size
            led._push(k)
            bounds = led._runs + [led._k]
            assert set(led._runs) <= set(starts)
            for a, b in zip(bounds[:-1], bounds[1:]):
                keys_in = np.concatenate([r for r, s in zip(runs, starts)
                                          if a <= s < b])
                order = np.argsort(keys_in)
                assert led._keys[a:b].tolist() == keys_in[order].tolist()
                assert led._nums[a:b].tolist() == numbers[a:b][order].tolist()
            sizes = np.diff(bounds)
            assert all(sizes[:-1] >= ledger._RATIO * sizes[1:])
