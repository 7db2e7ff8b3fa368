
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selab import (CoboundarySource, ExplicitSource, RandomWalkSource,
                   StepDistribution, WindowFunctional, classify, generate,
                   simple_walk, stream)


def test_step_distribution_validation():
    with pytest.raises(ValueError):
        StepDistribution([])
    with pytest.raises(ValueError):
        StepDistribution([((0,), 0.5), ((1,), 0.6)])
    with pytest.raises(ValueError):
        StepDistribution([((0,), 0.5), ((0,), 0.5)])
    with pytest.raises(ValueError):
        StepDistribution([((0,), 1.0), ((1, 2), 0.0)])


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
