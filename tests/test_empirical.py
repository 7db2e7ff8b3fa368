import itertools
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selab import (ExplicitSource, LocalTimeLedger, RandomWalkSource,
                   bridge_values, generate, ledger_covariance, mc_fclt,
                   sampled_ecdf, simple_walk, sup_deviation, trajectory_stats)
from selab import cli, empirical, ledger, rng, sources
from selab.cli import parse_plan
from selab.empirical import WeightedEcdf
from selab.fields import (DiscreteField, GaussianField, MovingAverageField,
                          UniformField)
from selab.selftest import ecdf_from_scratch, fclt_replicates


def make_ledger(sites):
    led = LocalTimeLedger(len(sites[0]))
    led.record_many(sites)
    return led


def bridge_sup(field, field_seed, led):
    """Exact sup_s |Y_n(s)| = sup_s |F_n(s) - F(s)| n / sqrt(V_n)."""
    dev = sup_deviation(sampled_ecdf(field, field_seed, led), field)
    return dev * led.n / math.sqrt(led.self_intersections)


def test_weighted_ecdf_evaluation():
    e = WeightedEcdf(np.array([0.2, 0.5]), np.array([0.25, 0.75]))
    assert list(e([0.0, 0.2, 0.3, 0.5, 1.0])) == [0.0, 0.25, 0.25, 1.0, 1.0]
    with pytest.raises(ValueError):
        WeightedEcdf(np.array([0.5, 0.2]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        WeightedEcdf(np.array([0.2, 0.5]), np.array([0.5, 0.4]))


def test_sampled_ecdf_weights_are_local_time_fractions():
    led = make_ledger([(0,), (1,), (0,), (2,)])
    field = DiscreteField([(0.0, 0.5), (1.0, 0.5)])
    e = sampled_ecdf(field, 99, led)
    assert e.weights.sum() == pytest.approx(1.0)
    # on the probability scale: the ECDF holds atom v of the law at F(v)
    x = field.cdf(field.site_values(99, np.array([[0], [1], [2]])))
    # site 0 carries weight 1/2, the others 1/4
    for v, w in zip(e.values, e.weights):
        expect = sum({0: 0.5, 1: 0.25, 2: 0.25}[s] for s in range(3)
                     if x[s] == v)
        assert w == pytest.approx(expect)


def test_sup_deviation_matches_dense_scan():
    led = make_ledger([(k % 17,) for k in range(60)])
    field = UniformField()
    e = sampled_ecdf(field, 3, led)
    dense = np.linspace(0, 1, 200001)
    scan = float(np.max(np.abs(e(dense) - field.cdf(dense))))
    exact = sup_deviation(e, field)
    assert exact >= scan - 1e-12
    assert exact <= scan + 1e-4  # grid misses the jump by at most 1/200000


@pytest.mark.parametrize("atoms", [[(0, 0.5), (1, 0.5)],
                                   [(-1, 0.2), (0.5, 0.3), (2, 0.5)]])
def test_sup_deviation_at_atoms_matches_direct_evaluation(atoms):
    # |F_n - F| is a step function between the jumps of F_n and of F, so
    # its values at every jump point, at the midpoints between them and
    # beyond both ends give the exact supremum
    n = 20000
    coords = generate(RandomWalkSource(simple_walk(3), seed=7), n)
    field = DiscreteField(atoms)
    sites, counts = np.unique(coords, axis=0, return_counts=True)
    x = field.site_values(123, sites)
    jumps = np.union1d(x, [v for v, _ in atoms])
    pts = np.concatenate([[jumps[0] - 1], jumps, (jumps[1:] + jumps[:-1]) / 2,
                          [jumps[-1] + 1]])
    f_n = np.array([counts[x <= s].sum() for s in pts]) / n
    f = np.array([sum(p for v, p in atoms if v <= s) for s in pts])
    exact = float(np.abs(f_n - f).max())
    led = LocalTimeLedger.from_trajectory(coords)
    assert sup_deviation(sampled_ecdf(field, 123, led), field) == \
        pytest.approx(exact, abs=1e-12)
    assert bridge_sup(field, 123, led) == pytest.approx(
        exact * n / math.sqrt(led.self_intersections), abs=1e-9)
    assert exact < 0.02  # the old F(v) - F_n(v-) term read up to 0.5


def test_bridge_covariance_identity_by_enumeration():
    # two sites with local times 2 and 1, a two-atom field: enumerate the
    # whole field distribution and compare with F(min) - F(s)F(t)
    led = make_ledger([(0,), (1,), (0,)])
    field = DiscreteField([(0.0, 0.5), (1.0, 0.5)])
    v = led.self_intersections  # 5
    grid = [0.0, 0.5, 1.0]
    f = field.cdf(grid)
    counts = {(0,): 2, (1,): 1}
    cov = np.zeros((3, 3))
    for vals in itertools.product([0.0, 1.0], repeat=2):
        p = 0.25
        y = np.array([sum(c * ((x <= s) - fs)
                          for (x, c) in zip(vals, counts.values()))
                      for s, fs in zip(grid, f)]) / math.sqrt(v)
        cov += p * np.outer(y, y)
    assert np.allclose(cov, ledger_covariance(field, led, grid), atol=1e-12)


def test_bridge_values_zero_mean_over_replicates():
    led = make_ledger([(k % 11, (3 * k) % 7) for k in range(80)])
    field = UniformField()
    ys = np.array([bridge_values(field, seed, led, [0.3, 0.7])
                   for seed in range(4000)])
    assert np.allclose(ys.mean(axis=0), 0.0, atol=0.02)
    target = ledger_covariance(field, led, [0.3, 0.7])
    emp = ys.T @ ys / len(ys)
    assert np.allclose(emp, target, atol=0.02)


def test_bridge_sup_consistent_with_grid():
    led = make_ledger([(k % 13,) for k in range(50)])
    field = UniformField()
    sup = bridge_sup(field, 8, led)
    grid = np.linspace(0, 1, 20001)
    approx = np.abs(bridge_values(field, 8, led, grid)).max()
    assert sup >= approx - 1e-9
    assert sup <= approx + 0.05


def test_mc_fclt_replicate_floor():
    with pytest.raises(ValueError, match="100"):
        mc_fclt(UniformField(), RandomWalkSource(simple_walk(1), 1), 100,
                [0.5], replicates=10, seed_base=0)


def test_mc_fclt_quenched_small_run():
    res = mc_fclt(UniformField(), RandomWalkSource(simple_walk(2), 3), 400,
                  [0.25, 0.5, 0.75], replicates=400, seed_base=17)
    assert res.quenched
    assert np.all(np.abs(res.cov - res.cov_target) <= 4 * res.cov_stderr)
    assert np.all(res.sup_sample >= 0)
    assert res.v >= res.n


def test_mc_fclt_annealed_differs_from_quenched():
    args = (UniformField(), RandomWalkSource(simple_walk(1), 3), 200,
            [0.5])
    q = mc_fclt(*args, replicates=120, seed_base=5, quenched=True)
    a = mc_fclt(*args, replicates=120, seed_base=5, quenched=False)
    assert not np.allclose(q.cov, a.cov)


def test_lil_margins_bounded_walk():
    # |sum_{k<n} (1{X_{z_k} <= s} - F(s))| / sqrt(2 V_n log log n) at each
    # checkpoint n; the summands are bounded by K = 1, so the last margin
    # stays below K (1 + delta) = 1.5
    field, s, checkpoints = UniformField(), 0.5, [100, 1000, 10000]
    coords = generate(RandomWalkSource(simple_walk(1), 2), checkpoints[-1])
    centered = ((field.site_values(7, coords) <= s).astype(np.float64)
                - float(field.cdf(s)))
    partial = np.cumsum(centered)
    v = trajectory_stats(coords).v
    margins = [abs(partial[c - 1]) / (math.sqrt(v[c - 1])
                                      * math.sqrt(2 * math.log(math.log(c))))
               for c in checkpoints]
    assert len(margins) == 3
    assert margins[-1] <= 1.5


# --------------------------------------------------------------------------
# the replicate-batched path against a per-replicate, per-checkpoint oracle

ORACLE_FIELDS = [UniformField(), GaussianField(0.5, 2.0),
                 DiscreteField([(0.0, 0.3), (1.0, 0.5), (2.5, 0.2)]),
                 # decreasing atoms: the atom indices are not in value
                 # order, which the ECDF's atoms must be
                 DiscreteField([(2.5, 0.2), (1.0, 0.5), (0.0, 0.3)]),
                 MovingAverageField([1.0, 0.5, 0.25])]


@settings(max_examples=30, deadline=None)
@given(d=st.integers(1, 4), field=st.sampled_from(ORACLE_FIELDS),
       walk_seed=st.integers(0, 2**32), n=st.integers(1, 400), data=st.data())
def test_batched_sup_deviations_match_per_checkpoint_oracle(d, field,
                                                            walk_seed, n,
                                                            data):
    coords = generate(RandomWalkSource(simple_walk(d), walk_seed), n)
    cps = sorted(data.draw(st.sets(st.integers(1, n), min_size=1,
                                   max_size=4)))
    leds = [LocalTimeLedger.from_trajectory(coords[:c]) for c in cps]
    seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=1,
                               max_size=6))
    ecdfs = empirical.SampledEcdfs(field, leds)
    got = [[sup_deviation(e, field) for e in ecdfs(s)] for s in seeds]
    assert got == [[ecdf_from_scratch(field, s, coords[:c])[2] for c in cps]
                   for s in seeds]


def test_sampled_ecdfs_builds_the_words_once(monkeypatch):
    # the sites' seed-free coordinate words are mixed once per call: the
    # d - 1 prefix axes at the P distinct (d - 1)-prefixes, the last axis at
    # the n sites.  Each seed then mixes (d - 1) P + 2 n words: the d - 1
    # seed-keyed prefix folds, then the last fold and the final mix
    d, cps = 3, (30, 300, 3000)
    coords = generate(RandomWalkSource(simple_walk(d), 11), cps[-1])
    leds = [LocalTimeLedger.from_trajectory(coords[:c]) for c in cps]
    seeds = [rng.derive(2, "field", rep) for rep in range(40)]
    field = UniformField()
    sites = np.unique(coords, axis=0)
    n, p = len(sites), len(np.unique(sites[:, :-1], axis=0))
    assert p < n
    calls = []
    mix, hash_sites = rng.mix64_array, rng.hash_sites
    monkeypatch.setattr(rng, "mix64_array",
                        lambda z: calls.append(z.size) or mix(z))
    monkeypatch.setattr(rng, "hash_sites",
                        lambda *a: calls.append("hash") or hash_sites(*a))
    ecdfs = empirical.SampledEcdfs(field, leds)
    got = [[sup_deviation(e, field) for e in ecdfs(s)] for s in seeds]
    assert calls == ([p] * (d - 1) + [n]
                     + (["hash"] + [p] * (d - 1) + [n, n]) * len(seeds))
    monkeypatch.undo()
    assert got == [[ecdf_from_scratch(field, s, coords[:c])[2] for c in cps]
                   for s in seeds]


def probability_values(field, seed, sites):
    """The field's values at the sites on the probability scale of its
    ECDF: the sites' uniforms, or F(X) for the moving average."""
    if isinstance(field, MovingAverageField):
        return field.cdf(field.site_values(seed, sites))
    return rng.site_uniforms(seed, sites)


def one_site_sup(field, seed, site):
    """sup |F_n - F| when F_n jumps from 0 to 1 at the site's value v:
    max(1 - F(v), F(v-)), F(v-) = F(v) but for a discrete law, where it is
    F of the float below v."""
    if isinstance(field, DiscreteField):
        v = field.site_values(seed, np.array([site]))
        return max(1.0 - field.cdf(v)[0],
                   field.cdf(np.nextafter(v, -np.inf))[0])
    u = probability_values(field, seed, np.array([site]))[0]
    return max(1.0 - u, u)


@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_one_atom_ecdf_sup_is_exact(field):
    # one site: F_n jumps from 0 to 1 at its value v, so the sup is
    # max(1 - F(v), F(v-)) exactly
    for led in (make_ledger([(4, -2)]), make_ledger([(4, -2)] * 5)):
        e = sampled_ecdf(field, 17, led)
        if isinstance(field, DiscreteField):  # every atom, one of weight 1
            assert e.weights.size == len(field.atoms)
            assert sorted(e.weights.tolist()) == [0.0] * (e.weights.size
                                                         - 1) + [1.0]
        else:
            assert e.weights.tolist() == [1.0]
        assert sup_deviation(e, field) == one_site_sup(field, 17, (4, -2))


@pytest.mark.parametrize("atoms", [[(0.0, 0.6), (1.0, 0.4)],
                                   [(1.0, 0.4), (0.0, 0.6)]])
def test_discrete_sup_reads_the_atoms_no_site_drew(atoms):
    # a site that draws the atom at 1 leaves F_n(0) = 0 against F(0) = 0.6:
    # the sup sits at an atom of no weight
    field, drew = DiscreteField(atoms), set()
    for seed in range(40):
        led = make_ledger([(seed, 0)] * 3)
        drew.add(float(field.site_values(seed, np.array([[seed, 0]]))[0]))
        assert sup_deviation(sampled_ecdf(field, seed, led), field) == \
            one_site_sup(field, seed, (seed, 0))
    assert drew == {0.0, 1.0}


@settings(max_examples=12, deadline=None)
@given(d=st.integers(1, 4), field=st.sampled_from(ORACLE_FIELDS),
       walk_seed=st.integers(0, 2**32), n=st.integers(1, 200),
       seed_base=st.integers(0, 2**32), quenched=st.booleans(),
       grid=st.lists(st.floats(-2, 3), min_size=1, max_size=3))
def test_batched_fclt_matches_per_replicate_oracle(d, field, walk_seed, n,
                                                   seed_base, quenched, grid):
    src = RandomWalkSource(simple_walk(d), walk_seed)
    assert fclt_replicates(field, src, n, grid, 100, seed_base, quenched)


def value_route_sup(field, seed, coords):
    """(sup |F_n - F|, max |F(x) - u|) by the values x = q(u) of the
    sites' uniforms u through the quantile, sorted, and F(x) through the
    cdf, with the sup over the jumps of F_n(x) - F(x) and F(x) - F_n(x-)."""
    sites, counts = np.unique(coords, axis=0, return_counts=True)
    u, x = rng.site_uniforms(seed, sites), field.site_values(seed, sites)
    assert np.unique(x).size == np.unique(u).size  # q ties no two sites
    order = np.argsort(x, kind="stable")
    xs, cs = x[order], counts[order]
    cum = np.cumsum(cs / len(coords))
    f = field.cdf(xs)
    below = np.concatenate([[0.0], cum[:-1]])
    return (float(np.maximum(cum - f, f - below).max()),
            float(np.abs(field.cdf(x) - u).max()))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 3), walk_seed=st.integers(0, 2**32),
       n=st.integers(1, 2000), mu=st.floats(-2, 2), sigma=st.floats(0.25, 4),
       seed=st.integers(0, 2**64 - 1), data=st.data())
def test_gaussian_sup_is_the_value_routes_within_its_round_trip(
        d, walk_seed, n, mu, sigma, seed, data):
    # Both sups are maxima, over the same jumps, of fl(G_i - a_i) and
    # fl(a_i - G_{i-1}), with the same partial sums G of the local times
    # and a_i = u_i (the ECDF of the uniforms) or F(q(u_i)) (the value
    # route): u <= F(s) exactly when q(u) <= s, so the two orders agree
    # but where u lies within the round trip's error of a neighbour.  Each
    # exact difference lies in [-1, 1], where one rounding errs by at most
    # 2^-54, so a term moves by at most |F(q(u_i)) - u_i| + 2^-53, and the
    # max by no more: |sup - value route| <= max_i |F(q(u_i)) - u_i| +
    # 2^-53.  (u = 0, which the quantile clips to 2^-53, is in the max.)
    field = GaussianField(mu, sigma)
    coords = generate(RandomWalkSource(simple_walk(d), walk_seed), n)
    cps = sorted(data.draw(st.sets(st.integers(1, n), min_size=1,
                                   max_size=3)))
    leds = [LocalTimeLedger.from_trajectory(coords[:c]) for c in cps]
    for c, e in zip(cps, empirical.SampledEcdfs(field, leds)(seed)):
        want, round_trip = value_route_sup(field, seed, coords[:c])
        assert abs(sup_deviation(e, field) - want) <= round_trip + 2**-53


@pytest.mark.parametrize("field", ORACLE_FIELDS)
def test_local_times_past_the_key_bits_match_the_oracle(field):
    # a key holds min(local time, 2047) in its low 11 bits; three sites are
    # held for 3000, 2047 and 2500 steps, so they take the sentinel, and
    # the sorted keys must hand them their true local times in key order
    walk = generate(RandomWalkSource(simple_walk(2), 4), 600)
    coords = np.concatenate([walk[:200], np.repeat(walk[199:200], 3000, 0),
                             walk[200:400], np.repeat(walk[399:400], 2047, 0),
                             walk[400:], np.repeat(walk[10:11], 2500, 0)])
    cps = (150, 3300, len(coords) - 2500, len(coords))
    leds = [LocalTimeLedger.from_trajectory(coords[:c]) for c in cps]
    assert leds[-1].max_count >= 3000
    ecdfs = empirical.SampledEcdfs(field, leds)
    for seed in range(12):
        got = ecdfs(seed)
        assert [sup_deviation(e, field) for e in got] == \
            [ecdf_from_scratch(field, seed, coords[:c])[2] for c in cps]
        if isinstance(field, DiscreteField):
            continue  # its atoms' local times are summed, not sorted
        # the key route and the value route give the same atoms, bit for bit
        by_values = ecdfs.from_values(
            probability_values(field, seed, ecdfs.sites))
        assert all(np.array_equal(a.values, b.values)
                   and np.array_equal(a.weights, b.weights)
                   for a, b in zip(got, by_values))


@pytest.mark.parametrize("field", [{"variant": "uniform"},
                                   {"variant": "gaussian", "sigma": 2.0},
                                   {"variant": "discrete",
                                    "atoms": [[0, 0.3], [1, 0.7]]}])
def test_gc_on_an_iid_field_sorts_keys_not_values(field, monkeypatch):
    # an i.i.d. field's ECDFs come from its sites' uniforms: a continuous
    # law's from sorted hash keys, calling neither its quantile nor its
    # cdf, and a discrete law's from per-atom sums, with no key sort and
    # one cdf call for its atoms.  No site-order values are built and no
    # float array is argsorted
    plan = parse_plan(json.dumps({
        "experiment": "gc", "source": {"variant": "rw", "simple": 3,
                                       "seed": 2},
        "field": field, "n": 5000, "checkpoints": [50, 500, 5000],
        "replicates": 5, "seed_base": 1}))
    calls = []

    def count(owner, name):
        f = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **kw: calls.append(name)
                            or f(*a, **kw))
    for name in ("site_values", "quantile", "cdf"):
        count(type(plan["_field"]), name)
    count(empirical.SampledEcdfs, "_from_keys")
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, *args, **kw: calls.append(
        np.asarray(a).dtype.kind) or argsort(a, *args, **kw))
    rows = cli._run_gc(plan, 1)[0]["gc.csv"][1]
    assert len(rows) == 15
    assert not {"site_values", "quantile", "f"} & set(calls)
    discrete = field["variant"] == "discrete"
    assert calls.count("cdf") == discrete
    assert ("_from_keys" in calls) != discrete


@pytest.mark.parametrize("piece", [1, 7, 1000])
def test_piecewise_sweeps_move_no_bit(monkeypatch, piece):
    # sup_deviation's cumulative sums, the ECDF's order and tie checks and
    # the mixer all run in pieces; at any piece size each sup is the same
    # float as that of the one-pass oracle
    coords = generate(RandomWalkSource(simple_walk(3), 11), 3000)
    cps = (30, 300, 3000)
    leds = [LocalTimeLedger.from_trajectory(coords[:c]) for c in cps]
    monkeypatch.setattr(empirical, "_PIECE", piece)
    monkeypatch.setattr(rng, "_PIECE", piece)
    for field in (UniformField(), GaussianField(),
                  DiscreteField([(0, 0.5), (1, 0.2), (2, 0.3)])):
        ecdfs = empirical.SampledEcdfs(field, leds)
        for seed in (1, 2):
            assert [sup_deviation(e, field) for e in ecdfs(seed)] == [
                ecdf_from_scratch(field, seed, coords[:c])[2] for c in cps]


def test_sampled_ecdfs_let_the_ledgers_sites_go():
    # an i.i.d. field's object keeps its hash words and the local times:
    # once the fed ledgers are dropped, their sites are freed.  The moving
    # average hashes shifted coordinates per seed, so it keeps them, and
    # either field still matches the oracle
    walk, cps = RandomWalkSource(simple_walk(3), 5), [30, 300, 3000]
    coords = generate(walk, cps[-1])
    for field in (UniformField(), MovingAverageField([1.0, 0.5])):
        leds, _ = ledger.feed(sources.cursor(walk), cps)
        sites = weakref.ref(leds[-1]._sites)
        ecdfs = empirical.SampledEcdfs(field, leds)
        del leds
        assert (sites() is None) == (field == UniformField())
        for seed in (1, 2):
            assert [sup_deviation(e, field) for e in ecdfs(seed)] == [
                ecdf_from_scratch(field, seed, coords[:c])[2] for c in cps]
