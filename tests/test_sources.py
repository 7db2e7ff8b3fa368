
from bisect import bisect_right
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selab import (CoboundarySource, ContinuedFraction, ExplicitSource,
                   RandomWalkSource, RotationCocycle, SpecialFlowSource,
                   StepDistribution, StepFunction, WindowFunctional, classify,
                   cursor, generate, minimal_lambda_indices, rng, simple_walk,
                   stream)
from selab.selftest import garbage


def test_step_distribution_validation():
    with pytest.raises(ValueError):
        StepDistribution([])
    with pytest.raises(ValueError):
        StepDistribution([((0,), 0.5), ((1,), 0.6)])
    with pytest.raises(ValueError):
        StepDistribution([((0,), 0.5), ((0,), 0.5)])
    with pytest.raises(ValueError):
        StepDistribution([((0,), 1.0), ((1, 2), 0.0)])


GOLDEN = ContinuedFraction(periodic=(1,))
LAM1 = minimal_lambda_indices(GOLDEN, 1)

# each constructor with one integer field set to x, and a valid value of x
INTEGER_FIELDS = {
    "step-atom": (lambda x: StepDistribution([((x,), 0.5), ((-1,), 0.5)]), 2),
    "explicit-site": (lambda x: ExplicitSource([(0,), (x,)]), 2),
    "window-symbol": (lambda x: WindowFunctional(
        [(x, 0.5), (1, 0.5)], 1, {(x,): (1,), (1,): (0,)}, 0), 2),
    "window-output": (lambda x: WindowFunctional(
        [(0, 0.5), (1, 0.5)], 1, {(0,): (x,), (1,): (0,)}, 0), 2),
    "window-length": (lambda x: WindowFunctional(
        [(0, 1.0)], x, {(0, 0): (1,)}, 0), 2),
    "step-function-value": (lambda x: StepFunction([0], [x]), 2),
    "cf-coeff": (lambda x: ContinuedFraction(coeffs=[x]), 2),
    "cf-periodic": (lambda x: ContinuedFraction(periodic=[x]), 2),
    "flow-levels": (lambda x: SpecialFlowSource(
        GOLDEN, x, minimal_lambda_indices(GOLDEN, 2), 0), 2),
    "flow-lambda-index": (lambda x: SpecialFlowSource(
        GOLDEN, 1, (LAM1[0], x), 0), LAM1[1]),
}


@pytest.mark.parametrize("build, good", INTEGER_FIELDS.values(),
                         ids=INTEGER_FIELDS.keys())
def test_constructors_reject_non_integers(build, good):
    # int() would cut 2.5 to 2 and read "2" as 2: another source, silently
    build(good)
    build(np.int64(good))
    for bad in (good + 0.5, float(good), np.float64(good), str(good)):
        with pytest.raises(ValueError, match="not an integer"):
            build(bad)


def test_constructors_reject_bools():
    with pytest.raises(ValueError, match="not an integer"):
        StepDistribution([((True,), 0.5), ((-1,), 0.5)])
    with pytest.raises(ValueError, match="not an integer"):
        ExplicitSource([(0,), (np.int64(1), False)])


def test_simple_walk_law():
    d3 = simple_walk(3)
    assert len(d3.atoms) == 6
    assert d3.is_symmetric()
    assert np.allclose(d3.mean(), 0)
    assert np.allclose(d3.covariance(), np.eye(3) / 3)


def test_random_walk_golden_vector():
    cfg = RandomWalkSource(simple_walk(1), seed=42)
    assert generate(cfg, 10)[:, 0].tolist() == [-1, 0, 1, 2, 3, 2, 3, 2, 3, 2]
    cfg2 = RandomWalkSource(simple_walk(2), seed=7)
    assert generate(cfg2, 3).tolist() == [[-1, 0], [0, 0], [0, -1]]


def test_generate_reproducible_and_prefix_stable():
    cfg = RandomWalkSource(simple_walk(2), seed=5)
    a = generate(cfg, 200)
    b = generate(cfg, 200)
    assert np.array_equal(a, b)
    assert np.array_equal(generate(cfg, 50), a[:50])


def test_stream_matches_generate():
    for cfg in (RandomWalkSource(simple_walk(2), seed=3),
                CoboundarySource(StepDistribution(
                    [((i,), 0.25) for i in range(4)]), seed=3),
                WindowFunctional([(0, 0.5), (1, 0.5)], 2,
                                 {(0, 0): (0,), (0, 1): (1,),
                                  (1, 0): (-1,), (1, 1): (2,)}, seed=9)):
        bulk = generate(cfg, 100)
        it = stream(cfg)
        assert all(tuple(next(it)) == tuple(bulk[i]) for i in range(100))


def test_coboundary_golden_and_bounded():
    law = StepDistribution([((i,), 0.25) for i in range(4)])
    cfg = CoboundarySource(law, seed=3)
    z = generate(cfg, 8)[:, 0]
    assert z.tolist() == [0, 2, 2, 0, 0, 2, 0, 3]
    big = generate(cfg, 5000)[:, 0]
    assert z[0] == 0
    assert big.min() >= -3 and big.max() <= 3  # confined to support - support


def test_window_r1_identity_reduces_to_walk():
    # same seed, same uniform stream, atom order aligned: bitwise equality
    atoms = [((1,), 0.5), ((-1,), 0.5)]
    walk = RandomWalkSource(StepDistribution(atoms), seed=2024)
    window = WindowFunctional([(0, 0.5), (1, 0.5)], 1,
                              {(0,): (1,), (1,): (-1,)}, seed=2024)
    assert np.array_equal(generate(walk, 500), generate(window, 500))


def test_window_validation():
    with pytest.raises(ValueError):
        WindowFunctional([(0, 0.5), (1, 0.5)], 2, {(0, 0): (1,)}, seed=1)
    with pytest.raises(ValueError):
        WindowFunctional([(0, 1.0)], 0, {(): (1,)}, seed=1)


def test_window_two_step_example():
    # g counts ascents of a fair bit stream
    cfg = WindowFunctional([(0, 0.5), (1, 0.5)], 2,
                           {(0, 0): (0,), (0, 1): (1,),
                            (1, 0): (0,), (1, 1): (0,)}, seed=4)
    z = generate(cfg, 3000)[:, 0]
    assert np.all(np.diff(z) >= 0)
    assert abs(z[-1] / 3000 - 0.25) < 0.05  # P(ascent) = 1/4


def test_explicit_source():
    cfg = ExplicitSource([(0,), (1,), (0,), (1,)])
    assert generate(cfg, 4)[:, 0].tolist() == [0, 1, 0, 1]
    with pytest.raises(ValueError):
        generate(cfg, 5)
    with pytest.raises(ValueError):
        ExplicitSource([])


def test_classify_cases():
    assert classify(simple_walk(1)).recurrence == "recurrent"
    assert classify(simple_walk(2)).recurrence == "recurrent"
    assert classify(simple_walk(3)).recurrence == "transient"
    assert classify(simple_walk(1)).aperiodic
    assert classify(simple_walk(2)).aperiodic
    # single atom: degenerate deterministic drift
    drift = StepDistribution([((1, 0), 1.0)])
    assert classify(drift) == type(classify(drift))("deterministic-excluded", False)
    # centered but nonzero mean-free walk on 2Z: not aperiodic
    even = StepDistribution([((2,), 0.5), ((-2,), 0.5)])
    assert not classify(even).aperiodic
    assert classify(even).recurrence == "recurrent"
    # drifting two-atom law in d=1: transient
    biased = StepDistribution([((1,), 0.75), ((-1,), 0.25)])
    assert classify(biased).recurrence == "transient"
    assert classify(biased).aperiodic
    # three-atom centered aperiodic planar walk
    tri = StepDistribution([((1, 0), 1 / 3), ((0, 1), 1 / 3), ((-1, -1), 1 / 3)])
    assert classify(tri).recurrence == "recurrent"
    assert classify(tri).aperiodic


def test_classify_lower_dimensional_centered_laws_are_recurrent():
    # a centered walk is recurrent iff its support spans at most a plane,
    # whatever the ambient dimension
    line = StepDistribution([((1, 0, 0), 0.5), ((-1, 0, 0), 0.5)])
    assert classify(line).recurrence == "recurrent"
    plane = StepDistribution([((1, 0, 0), 0.25), ((-1, 0, 0), 0.25),
                              ((0, 1, 0), 0.25), ((0, -1, 0), 0.25)])
    assert classify(plane).recurrence == "recurrent"
    assert not classify(plane).aperiodic
    # the simple walk of Z^3 inside Z^4 spans three dimensions
    space = StepDistribution([((a, b, c, 0), p) for (a, b, c), p
                              in simple_walk(3).atoms])
    assert classify(space).recurrence == "transient"


def test_step_frequencies_match_law():
    law = StepDistribution([((0,), 0.2), ((1,), 0.5), ((5,), 0.3)])
    cfg = RandomWalkSource(law, seed=77)
    steps = np.diff(generate(cfg, 20000)[:, 0])
    for atom, p in [(0, 0.2), (1, 0.5), (5, 0.3)]:
        assert abs(np.mean(steps == atom) - p) < 0.02


@given(st.integers(0, 2**32), st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_walk_increments_in_support(seed, d):
    cfg = RandomWalkSource(simple_walk(d), seed=seed)
    z = generate(cfg, 64)
    steps = np.diff(np.vstack([np.zeros(d, dtype=np.int64), z]), axis=0)
    support = {tuple(a) for a, _ in simple_walk(d).atoms}
    assert all(tuple(s) in support for s in steps)


def take_in_blocks(cur, n, sizes, out=None):
    """Concatenated cursor blocks of the given sizes (the last one cut or
    stretched so that n sites come out).  With a work array ``out``, each
    block is drawn into it over fresh garbage, and copied out of it."""
    parts, taken = [], 0
    for size in sizes:
        size = min(size, n - taken)
        if out is not None:
            out[...] = garbage(out.shape)
        block = cur.take(size, out=out)
        parts.append(block if out is None else block.copy())
        taken += size
    parts.append(cur.take(n - taken, out=out))
    return np.concatenate(parts)


def _pick(probs, u):
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return bisect_right(cum.tolist(), u)


def per_step_oracle(config, n):
    """The realization one uniform_at draw at a time, on Python ints."""
    if isinstance(config, ExplicitSource):
        return [list(s) for s in config.sites[:n]]
    if isinstance(config, WindowFunctional):
        probs = [p for _, p in config.inner]
        sym = [config.inner[_pick(probs, rng.uniform_at(config.seed, j))][0]
               for j in range(n + config.r - 1)]
        table = dict(config.table)
        steps = [table[tuple(sym[k:k + config.r])] for k in range(n)]
    else:
        law = config.dist if isinstance(config, RandomWalkSource) else config.law
        probs = [p for _, p in law.atoms]
        draws = [law.atoms[_pick(probs, rng.uniform_at(config.seed, k))][0]
                 for k in range(n)]
        if isinstance(config, CoboundarySource):
            return [[a - b for a, b in zip(psi, draws[0])] for psi in draws]
        steps = draws
    pos, out = [0] * config.d, []
    for step in steps:
        pos = [p + c for p, c in zip(pos, step)]
        out.append(pos)
    return out


@st.composite
def walk_type_sources(draw):
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**64 - 1))
    kind = draw(st.sampled_from(["walk", "coboundary", "window", "explicit"]))
    vectors = st.tuples(*[st.integers(-2, 2)] * d)
    if kind == "explicit":
        return ExplicitSource(draw(st.lists(vectors, min_size=1, max_size=300)))
    if kind == "window":
        r = draw(st.integers(1, 3))
        inner = [(a, w) for a, w in enumerate(
            draw(st.lists(st.integers(1, 5), min_size=2, max_size=3)))]
        total = sum(w for _, w in inner)
        words = product([a for a, _ in inner], repeat=r)
        table = {w: draw(vectors) for w in words}
        return WindowFunctional([(a, w / total) for a, w in inner], r, table,
                                seed)
    atoms = draw(st.lists(vectors, min_size=2, max_size=5, unique=True))
    weights = draw(st.lists(st.integers(0, 5), min_size=len(atoms),
                            max_size=len(atoms)).filter(any))
    law = StepDistribution([(a, w / sum(weights))
                            for a, w in zip(atoms, weights)])
    if kind == "walk":
        return RandomWalkSource(law, seed)
    return CoboundarySource(law, seed)


@given(walk_type_sources(), st.integers(1, 300),
       st.lists(st.integers(0, 70), max_size=12))
@settings(max_examples=80, deadline=None)
def test_cursor_blocks_match_generate_and_per_step_oracle(config, n, sizes):
    if isinstance(config, ExplicitSource):
        n = min(n, len(config.sites))
    got = take_in_blocks(cursor(config), n, sizes)
    assert got.dtype == np.int64 and got.shape == (n, config.d)
    assert np.array_equal(got, generate(config, n))
    assert got.tolist() == per_step_oracle(config, n)
    reused = np.empty((config.d + 4, n), dtype=np.int64)
    assert np.array_equal(take_in_blocks(cursor(config), n, sizes, reused),
                          got)


def test_explicit_cursor_runs_short_at_the_end():
    cur = cursor(ExplicitSource([(0,), (1,), (2,)]))
    assert cur.take(2).tolist() == [[0], [1]]
    assert cur.take(5).tolist() == [[2]]
    assert cur.take(5).shape == (0, 1)


def test_cumulative_cursors_leave_their_config_arrays_untouched():
    # take adds the carried position to a block's first step in place, so
    # a block must be a fresh array, never a view of the law's support or
    # table, the window's lookup table or the cocycle's values
    law = StepDistribution([((3, 0), 0.5), ((0, -2), 0.25), ((1, 1), 0.25)])
    window = WindowFunctional([(0, 0.5), (1, 0.5)], 1,
                              {(0,): (5,), (1,): (-3,)}, seed=4)
    cocycle = RotationCocycle(ContinuedFraction.golden(),
                              StepFunction.square_wave(), 0)
    tables = [(t.start.copy(), t.thresholds.copy())
              for t in (law.inverse_cdf, window.inverse_cdf)]
    for config in (RandomWalkSource(law, 9), window, cocycle):
        before = generate(config, 50)
        cur = cursor(config)
        blocks = [cur.take(k) for k in (1, 1, 3, 45)]
        assert np.array_equal(np.concatenate(blocks), before)
        assert np.array_equal(generate(config, 50), before)
    assert cur._vals.tolist() == [1, -1]
    assert all(np.array_equal(t.start, start)
               and np.array_equal(t.thresholds, thresholds)
               for t, (start, thresholds)
               in zip((law.inverse_cdf, window.inverse_cdf), tables))
