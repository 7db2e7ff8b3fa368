from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selab import LocalTimeLedger, generate, ledger, rotation, stream
from selab.rotation import (ContinuedFraction, LevelCheckpoint,
                            RotationCocycle, SpecialFlowSource, StepFunction,
                            counterexample_ratio_schedule, fraction_to_fp,
                            minimal_lambda_indices, point_from_seed,
                            ratio_floors, NEAR_THRESHOLD, ONE)
from selab.selftest import cocycle_blocks, cocycle_by_steps, garbage

GOLDEN = ContinuedFraction.golden()


def eval_fraction(f, x):
    """f(x) in exact rationals, pieces left-closed right-open."""
    return f.values[bisect_right(f.breakpoints, Fraction(x) % 1) - 1]


def total_variation(f):
    return sum(abs(v2 - v1) for v1, v2 in zip(f.values, f.values[1:]))


def birkhoff_sums(rc, depth):
    """[(q_k, S_{q_k} f(x))] for k = 1..depth: S_q is the cocycle's site at
    index q - 1."""
    qs = [q for _, q in rc.cf.convergents(depth)]
    z = generate(rc, qs[-1])[:, 0]
    return [(q, int(z[q - 1])) for q in qs]


def test_convergent_recursion_golden():
    # Fibonacci numerators/denominators
    assert GOLDEN.convergents(6) == [(1, 1), (1, 2), (2, 3), (3, 5),
                                     (5, 8), (8, 13)]


def test_convergent_quality():
    alpha = GOLDEN.convergent(60)  # far deeper than anything tested
    for p, q in GOLDEN.convergents(25):
        assert abs(alpha - Fraction(p, q)) < Fraction(1, q * q)


def test_deep_convergent_threshold():
    p, q = GOLDEN.deep_convergent(1 << 64)
    assert q >= 1 << 64
    assert Fraction(p, q) != 0


def test_finite_expansions_end_the_recursion():
    cf = ContinuedFraction(coeffs=[2, 3])  # 3/7
    assert cf.deep_convergent() == (3, 7)
    assert cf.convergents(2) == [(1, 2), (3, 7)]
    with pytest.raises(IndexError):
        cf.convergents(3)
    with pytest.raises(IndexError):  # q = 2, 7: no second index
        minimal_lambda_indices(cf, 1)
    # long enough for two levels, the golden indices
    assert minimal_lambda_indices(ContinuedFraction(coeffs=[1] * 30), 2) \
        == (4, 9, 20)


def test_continued_fraction_validation():
    with pytest.raises(ValueError):
        ContinuedFraction()
    with pytest.raises(ValueError):
        ContinuedFraction(coeffs=[0])
    finite = ContinuedFraction(coeffs=[2, 3])
    assert finite.convergents(2) == [(1, 2), (3, 7)]
    with pytest.raises(IndexError):
        finite.convergents(3)


def test_step_function_basics():
    f = StepFunction.square_wave()
    assert f.mean() == 0
    assert total_variation(f) == 2
    assert eval_fraction(f, Fraction(0)) == 1
    assert eval_fraction(f, Fraction(1, 2)) == -1  # left-closed right-open
    assert eval_fraction(f, Fraction(499, 1000)) == 1
    with pytest.raises(ValueError):
        StepFunction([Fraction(1, 4)], [1])  # must start at 0
    with pytest.raises(ValueError):
        StepFunction([Fraction(0), Fraction(0)], [1, -1])


def test_cocycle_requires_zero_mean():
    lopsided = StepFunction([Fraction(0), Fraction(1, 4)], [1, -1])
    with pytest.raises(ValueError):
        RotationCocycle(GOLDEN, lopsided, 0)


def test_cocycle_matches_exact_rational_oracle():
    f = StepFunction.square_wave()
    x = Fraction(1, 3)
    rc = RotationCocycle(GOLDEN, f, fraction_to_fp(x))
    alpha = Fraction(*rc.cf.deep_convergent())
    zs = rc.generate(400)[:, 0]
    pos, s = x, 0
    for k in range(400):
        s += eval_fraction(f, pos)
        assert s == zs[k]
        pos = (pos + alpha) % 1


def test_cocycle_stream_matches_generate():
    rc = RotationCocycle(GOLDEN, StepFunction.square_wave(), point_from_seed(5))
    bulk = RotationCocycle(GOLDEN, StepFunction.square_wave(),
                           point_from_seed(5)).generate(200)
    it = rc.stream()
    assert all(next(it)[0] == bulk[i, 0] for i in range(200))


def test_denjoy_koksma_bound():
    # |S_q f(x)| <= Var(f) at every convergent denominator q
    f = StepFunction.square_wave()
    for xseed in range(4):
        sums = birkhoff_sums(
            RotationCocycle(GOLDEN, f, point_from_seed(xseed)), 16)
        assert all(abs(s) <= total_variation(f) for _, s in sums)
    # also for a non-golden angle
    cf = ContinuedFraction(periodic=(2,))  # sqrt(2) - 1
    sums = birkhoff_sums(RotationCocycle(cf, f, point_from_seed(9)), 12)
    assert all(abs(s) <= 2 for _, s in sums)


def test_three_distance_lemma():
    # gaps between consecutive orbit points take at most 3 distinct values
    alpha = GOLDEN.convergent(40)
    for n in (10, 50, 200):
        pts = sorted((k * alpha) % 1 for k in range(n))
        gaps = {b - a for a, b in zip(pts, pts[1:])}
        gaps.add((pts[0] + 1) - pts[-1])
        assert len(gaps) <= 3


def test_minimal_lambda_indices_golden():
    lam = minimal_lambda_indices(GOLDEN, 3)
    assert lam == (4, 9, 20, 43)
    src = SpecialFlowSource(GOLDEN, 3, lam, 0)
    assert src.denominators() == [5, 55, 10946, 701408733]
    assert src.tower_heights() == [5, 13, 1216]


def test_special_flow_config_validation():
    with pytest.raises(ValueError, match="separation"):
        SpecialFlowSource(GOLDEN, 1, (4, 5), 0)  # q=5 then 8 < 3*5 < 2*5^2
    with pytest.raises(ValueError, match="separation"):
        SpecialFlowSource(GOLDEN, 1, (4, 7), 0)  # q=21 < 2*25
    with pytest.raises(ValueError):
        SpecialFlowSource(GOLDEN, 2, (4, 9), 0)  # too few indices
    with pytest.raises(ValueError):
        SpecialFlowSource(GOLDEN, 1, (1, 9), 0)  # q_first = 1 < 4
    SpecialFlowSource(GOLDEN, 1, (4, 9), 0)  # minimal two-level prefix is fine


def test_special_flow_local_times_are_roof_values():
    src = SpecialFlowSource(GOLDEN, 1, (4, 9), 0)
    led = LocalTimeLedger(1)
    it = stream(src)
    for _ in range(200):
        led.record(next(it))
    # every fully traversed site has local time equal to its roof value
    pos = src.x_fp
    for m in range(1, led.range_card):  # skip the possibly unfinished last site
        assert led.counts[(m,)] == src.roof(pos)
        pos = (pos + src.alpha_fp) & (ONE - 1)


def test_special_flow_sites_nondecreasing_unit_steps():
    src = SpecialFlowSource(GOLDEN, 1, (4, 9), fraction_to_fp(Fraction(2, 5)))
    it = stream(src)
    sites = [next(it)[0] for _ in range(300)]
    assert sites[0] == 1
    assert all(b - a in (0, 1) for a, b in zip(sites, sites[1:]))


def test_counterexample_schedule_golden_small():
    cfg = SpecialFlowSource(GOLDEN, 2, (4, 9, 20), 0)
    sched = counterexample_ratio_schedule(cfg, budget=10**7)
    assert [cp.level for cp in sched] == [1, 2]
    heights = cfg.tower_heights()
    for cp in sched:
        assert cp.m == 1 + heights[cp.level - 1]
        assert cp.v >= cp.n  # ledger invariant carried through
    # deterministic first-visit bookkeeping for x = 0
    assert sched[0].n == 8 and sched[0].v == 38
    assert sched[1].n == 62 and sched[1].v == 454
    # exact floors: (1+5)^2 / (36 + 5) and, with |J_1| = 6/11,
    # (1+13)^2 / (196 + 55 + (55 * 6/11 + 2) * 35)
    floors = ratio_floors(cfg)
    assert floors == [Fraction(36, 41), Fraction(196, 1371)]
    assert all(Fraction(cp.m ** 2, cp.v) >= floors[cp.level - 1]
               for cp in sched)


def test_counterexample_budget_error():
    cfg = SpecialFlowSource(GOLDEN, 2, (4, 9, 20), 0)
    with pytest.raises(RuntimeError, match="budget"):
        counterexample_ratio_schedule(cfg, budget=10)


# ---------------------------------------------------------------------------
# block paths against step-by-step loops on 128-bit ints

ANGLES = (GOLDEN, ContinuedFraction(periodic=(2,)),
          ContinuedFraction(coeffs=(3, 1, 4), periodic=(1, 5, 9)))
STEP_FUNCTIONS = (StepFunction.square_wave(),
                  StepFunction([0, Fraction(1, 5), Fraction(1, 2),
                                Fraction(4, 5)], [1, -2, 2, -1]))
LOW_LIMB = (1 << 64) - 1


def flow_oracle(src, n):
    levels = list(zip(src.intervals_fp(), src.tower_heights()))
    pos, tower, out = src.x_fp, 0, []
    while len(out) < n:
        tower += 1
        roof = 1 + sum(h for (a, b), h in levels if a <= pos < b)
        out.extend([tower] * min(roof, n - len(out)))
        pos = (pos + src.alpha_fp) % ONE
    return out


def take_in_blocks(cur, n, sizes):
    parts, taken = [], 0
    for size in sizes:
        size = min(size, n - taken)
        parts.append(cur.take(size))
        taken += size
    parts.append(cur.take(n - taken))
    return np.concatenate(parts)


@st.composite
def circle_points(draw, breakpoints, alpha):
    """Seeded points and the carry edges: a low limb of 2^64 - 1, a point
    on a breakpoint or within (or just outside) 2^28 of one, and a point
    whose j-th successor lands on a breakpoint."""
    seeded = point_from_seed(draw(st.integers(0, 2**32)))
    b = draw(st.sampled_from(breakpoints + [ONE]))
    return draw(st.sampled_from([
        seeded, seeded | LOW_LIMB, b % ONE,
        (b - draw(st.integers(1, NEAR_THRESHOLD))) % ONE,
        (b + draw(st.integers(0, NEAR_THRESHOLD))) % ONE,
        (b - draw(st.integers(1, 2000)) * alpha) % ONE]))


@given(st.data(), st.sampled_from(ANGLES), st.sampled_from(STEP_FUNCTIONS),
       st.integers(1, 2000), st.lists(st.integers(0, 300), max_size=12))
@settings(max_examples=60, deadline=None)
def test_cocycle_blocks_match_the_128_bit_loop(data, cf, f, n, sizes):
    alpha = cf.angle_fixed_point()
    x = data.draw(circle_points(f.breakpoints_fp(), alpha))
    rc = RotationCocycle(cf, f, x)
    cuts = np.minimum(np.cumsum(sizes, dtype=np.int64), n).tolist()
    assert cocycle_blocks(rc, cuts + [n])
    assert np.array_equal(take_in_blocks(rc.cursor(), n, sizes),
                          generate(rc, n))


@given(st.integers(0, 2**64 - 1), st.integers(1, ledger.BLOCK + 300),
       st.integers(1, ledger.BLOCK + 300))
@settings(max_examples=8, deadline=None)
def test_cocycle_blocks_over_garbage_match_the_128_bit_loop(seed, first,
                                                            second):
    f = StepFunction([0, Fraction(1, 5), Fraction(1, 2)], [2, -3, 1])
    rc = RotationCocycle(GOLDEN, f, point_from_seed(seed))
    sums, near = cocycle_by_steps(rc, first + second)
    cur = rc.cursor()
    out = np.empty((5, max(first, second)), dtype=np.int64)
    assert cur.take(first, out=out)[:, 0].tolist() == sums[:first]
    out[...] = garbage(out.shape)
    assert cur.take(second, out=out)[:, 0].tolist() == sums[first:]
    assert cur.near_hits == near


def test_cocycle_near_hits_at_the_threshold():
    f = StepFunction.square_wave()
    half = fraction_to_fp(Fraction(1, 2))
    for x, hits in ((0, 1), (half - NEAR_THRESHOLD + 1, 1),
                    (half - NEAR_THRESHOLD, 0), (half + NEAR_THRESHOLD - 1, 1),
                    (half + NEAR_THRESHOLD, 0), (ONE - NEAR_THRESHOLD + 1, 1),
                    (ONE - NEAR_THRESHOLD, 0)):
        cur = RotationCocycle(GOLDEN, f, x).cursor()
        cur.take(1)
        assert cur.near_hits == hits, x


@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(1, 2)])
def test_cocycle_started_on_a_breakpoint(x):
    # the cursor tests each breakpoint on the high limb; 1/3's high limb
    # ties its breakpoint's and the low limb decides, and 1/2's low limb is
    # 0.  Both starts are near hits, found from the high limb alone
    f = StepFunction([0, Fraction(1, 3), Fraction(1, 2)], [1, 4, -2])
    rc = RotationCocycle(GOLDEN, f, fraction_to_fp(x))
    sums, near = cocycle_by_steps(rc, 300)
    assert sums[0] == (4 if x == Fraction(1, 3) else -2) and near >= 1
    for cuts in ([300], [1, 3, 8, 300]):
        assert cocycle_blocks(rc, cuts)


@given(st.sampled_from(ANGLES), st.integers(1, 3), st.integers(0, 50),
       st.integers(1, 3000), st.lists(st.integers(0, 800), max_size=12))
@settings(max_examples=40, deadline=None)
def test_special_flow_blocks_match_the_tower_loop(cf, levels, xseed, n, sizes):
    src = SpecialFlowSource(cf, levels, minimal_lambda_indices(cf, levels),
                            0 if xseed == 0 else point_from_seed(xseed))
    got = take_in_blocks(src.cursor(), n, sizes)
    assert got[:, 0].tolist() == flow_oracle(src, n)
    assert np.array_equal(got, generate(src, n))


def test_special_flow_cursor_walks_a_57_bit_tower_in_small_blocks():
    cfg = SpecialFlowSource(GOLDEN, 5, minimal_lambda_indices(GOLDEN, 5), 0)
    top = cfg.tower_heights()[-1]
    assert top.bit_length() == 57
    # start on the innermost interval: the first tower has 1 + top steps
    src = SpecialFlowSource(
        GOLDEN, 5, cfg.lambda_indices, cfg.intervals_fp()[-1][0])
    cur = src.cursor()
    assert cur.take(3).tolist() == [[1]] * 3
    assert cur.take(5000).shape == (5000, 1)
    assert set(cur.take(7)[:, 0].tolist()) == {1}


@pytest.mark.parametrize("levels,lam", [
    (6, minimal_lambda_indices(GOLDEN, 6)),  # h_6 has 121 bits
    (1, (93, 188)),                          # h_1 = q_93 > 2^63
])
def test_special_flow_cursor_takes_towers_beyond_int64(levels, lam):
    cfg = SpecialFlowSource(GOLDEN, levels, lam, 0)
    assert cfg.tower_heights()[-1] >= 1 << 63
    for x in (0, cfg.intervals_fp()[-1][0]):  # off and on the tallest tower
        src = SpecialFlowSource(GOLDEN, levels, lam, x)
        got = take_in_blocks(src.cursor(), 3000, [1, 7, 500, 0, 64])
        assert got[:, 0].tolist() == flow_oracle(src, 3000)
        assert np.array_equal(got, generate(src, 3000))


# ---------------------------------------------------------------------------
# the bulk orbit walks of the schedule and of the cocycle against the
# step-by-step loops they replaced

ORBIT_BLOCKS = (7, 1000, rotation._ORBIT_BLOCK)


def schedule_oracle(src, budget):
    """One base point at a time: its roof and level, then n, V, M."""
    intervals = src.intervals_fp()
    seen, out = set(), []
    pos, n, v, m, j = src.x_fp, 0, 0, 0, 0
    while len(out) < src.levels:
        r = src.roof(pos)
        level = next((k for k, (a, b) in enumerate(intervals, start=1)
                      if a <= pos < b), 0)
        n += r
        v += r * r
        m = max(m, r)
        if level and level not in seen:
            seen.add(level)
            out.append(LevelCheckpoint(level=level, n=n, base_step=j, m=m,
                                       v=v))
        if n > budget:
            if len(seen) < 2:
                raise RuntimeError("budget")
            break
        pos = (pos + src.alpha_fp) % ONE
        j += 1
    return out


def birkhoff_oracle(cocycle, length, pos):
    """S_length f(pos) = sum_{j<length} f(pos + j*alpha), point by point."""
    s = 0
    for _ in range(length):
        s += cocycle.f.values[bisect_right(cocycle._bps, pos) - 1]
        pos = (pos + cocycle.alpha_fp) % ONE
    return s


@pytest.mark.parametrize("block", ORBIT_BLOCKS)
@pytest.mark.parametrize("cf", ANGLES)
@pytest.mark.parametrize("levels", (1, 2, 3))
def test_schedule_blocks_match_the_step_loop(monkeypatch, block, cf, levels):
    monkeypatch.setattr(rotation, "_ORBIT_BLOCK", block)
    lam = minimal_lambda_indices(cf, levels)
    probe = SpecialFlowSource(cf, levels, lam, 0)
    # x = 0, seeded points, and starts on the edges of the outer and the
    # innermost interval
    starts = [0, point_from_seed(3), point_from_seed(8),
              probe.intervals_fp()[0][0], probe.intervals_fp()[-1][1] - 1]
    for x in starts:
        cfg = SpecialFlowSource(cf, levels, lam, x)
        full = schedule_oracle(cfg, 10**12)
        budgets = {1, 10**12} | {cp.n + d for cp in full for d in (-1, 0, 1)}
        for budget in sorted(budgets):
            try:
                want = schedule_oracle(cfg, budget)
            except RuntimeError:
                with pytest.raises(RuntimeError, match="budget"):
                    counterexample_ratio_schedule(cfg, budget)
                continue
            assert counterexample_ratio_schedule(cfg, budget) == want, \
                (x, budget)


@pytest.mark.parametrize("block", ORBIT_BLOCKS)
def test_denjoy_koksma_matches_the_step_loop(block):
    # S_q at the denominators, from one take and from takes of ``block``
    for cf in ANGLES:
        depth = max(k for k in range(1, 30)
                    if cf.convergents(k)[-1][1] <= 3000)
        for f in STEP_FUNCTIONS:
            for x in (0, point_from_seed(1), point_from_seed(2),
                      fraction_to_fp(Fraction(1, 2))):
                rc = RotationCocycle(cf, f, x)
                want = [(q, birkhoff_oracle(rc, q, rc.x_fp))
                        for _, q in cf.convergents(depth)]
                assert birkhoff_sums(rc, depth) == want
                n = want[-1][0]
                z = take_in_blocks(rc.cursor(), n, [block] * (n // block))
                assert [(q, int(z[q - 1, 0])) for q, _ in want] == want
