"""Oracle checks: each one compares a fast route of selab with an
independent oracle, on its inputs, and returns a bool.  :func:`run`
(``selab selftest``) drives them on fixed inputs and the tier-1 tests on
hypothesis inputs.  No oracle calls the code it checks, and no check
asserts, so ``python -O`` keeps them all."""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np

from . import empirical, ledger, rng, rotation, sources, spectral
from .fields import (DiscreteField, GaussianField, MovingAverageField,
                     UniformField)


def dict_local_times(sites) -> tuple[dict, list[int], list[int]]:
    """(local times in first-visit order, [V_1 ..], [M_1 ..]) of hashable
    sites, one step at a time in a dict."""
    counts, v, m = {}, [], []
    for s in sites:
        counts[s] = counts.get(s, 0) + 1
        v.append(sum(c * c for c in counts.values()))
        m.append(max(counts.values()))
    return counts, v, m


def scalar_hash(seed: int, site) -> int:
    """A site's hash word, folded one scalar ``mix64`` at a time."""
    h = rng.mix64(seed ^ rng._GAMMA)
    for j, c in enumerate(site):
        h = rng.mix64(h ^ rng.mix64((c & rng.MASK64) + (j + 1) * rng._GAMMA))
    return rng.mix64(h)


def edge_uniforms(probs) -> np.ndarray:
    """Every threshold, the floats either side of it, 0 and 1 - 2^-53, and
    a block of hashed uniforms, all in [0, 1)."""
    cum = np.cumsum(probs)
    u = np.concatenate([cum, np.nextafter(cum, 0), np.nextafter(cum, 1),
                        [0.0, 1 - 2.0**-53], rng.uniforms(77, 500)])
    return u[u < 1]


def searchsorted_draws(probs, u) -> np.ndarray:
    """The atom indices by binary search: the running sums, the last set
    to 1, searched from the right."""
    return np.searchsorted(np.append(np.cumsum(probs)[:-1], 1.0), u, "right")


def cocycle_by_steps(rc, n: int) -> tuple[list[int], int]:
    """(partial sums of f, near-breakpoint count) along a rotation's orbit,
    one 128-bit step at a time."""
    bps = rc.f.breakpoints_fp()
    pos, total, near, sums = rc.x_fp, 0, 0, []
    for _ in range(n):
        total += rc.f.values[bisect_right(bps, pos) - 1]
        near += any(abs(pos - b) < rotation.NEAR_THRESHOLD
                    for b in bps + [rotation.ONE])
        sums.append(total)
        pos = (pos + rc.alpha_fp) % rotation.ONE
    return sums, near


def ecdf_from_scratch(field, seed: int, coords):
    """(atoms, F_n at them, sup |F_n - F|, V_n) along coords: ``np.unique``
    local times, a stable sort of the site values, ``bincount`` atoms, and
    the sup of F_n(v) - F(v) and F(v-) - F_n(v-) over the jumps v.  A
    continuous law's values are its sites' uniforms u, whose cdf is the
    identity (q(u) <= s exactly when u <= F(s), so F_n(s) = G_n(F(s))), or
    the moving average's F(X); a discrete law's F(v-) is F(float below v)."""
    sites, counts = np.unique(coords, axis=0, return_counts=True)
    discrete = isinstance(field, DiscreteField)
    x = (field.site_values(seed, sites) if discrete
         else field.cdf(field.site_values(seed, sites))
         if isinstance(field, MovingAverageField)
         else rng.site_uniforms(seed, sites))
    order = np.argsort(x, kind="stable")
    xs, cs = x[order], counts[order]
    new = np.concatenate([[True], xs[1:] != xs[:-1]])
    cum = np.cumsum(np.bincount(np.cumsum(new) - 1, weights=cs) / len(coords))
    values, below = xs[new], np.concatenate([[0.0], cum[:-1]])
    f, left = ((field.cdf(values), field.cdf(np.nextafter(values, -np.inf)))
               if discrete else (values, values))
    sup = float(np.maximum(cum - f, left - below).max())
    return values, cum, sup, int(counts @ counts)


def coordinate_quadratic_form(cfg, n: int, field) -> float:
    """A walk's quadratic form through ``generate`` and its sites."""
    _, sites, times = ledger.local_time_block(sources.generate(cfg, n))
    return spectral._quadratic_form_arrays(sites, times, field, cfg.d)


def ledger_blocks(coords, cuts) -> bool:
    """A ledger fed the (n, d) coords split at ``cuts``,
    ``trajectory_stats`` and ``brute_force_stats`` against
    :func:`dict_local_times`, with the exact sum of the rounded
    M_k / k^2."""
    coords = np.asarray(coords, dtype=np.int64)
    sites = [tuple(s) for s in coords.tolist()]
    counts, v, m = dict_local_times(sites)
    led = ledger.LocalTimeLedger(coords.shape[1])
    for block in np.split(coords, cuts):
        led.record_block(block)
    ts = ledger.trajectory_stats(coords)
    pqd = sum(Fraction(m_k / (k * k)) for k, m_k in enumerate(m, start=1))
    return ((led.n, led.self_intersections, led.max_count, led.range_card)
            == (len(sites), v[-1], m[-1], len(counts))
            and list(led.counts.items()) == list(counts.items())  # in order
            and led.pqd_partial_sum == float(pqd)
            and (ts.v.tolist(), ts.m.tolist()) == (v, m)
            and ledger.brute_force_stats(sites, 1024) == (v[-1], m[-1], counts))


def feed_snapshots(src, cps) -> bool:
    """``ledger.feed``'s snapshots of the source at the checkpoints ``cps``
    against a dict of local times advanced one step at a time: the sites
    and local times in first-visit order, n, V, M, the range and the exact
    sum of the rounded M_k / k^2."""
    snaps, _ = ledger.feed(sources.cursor(src), cps)
    want, counts, m, pqd = [], {}, 0, Fraction(0)
    for k, site in enumerate(map(tuple, sources.generate(src, cps[-1])
                                 .tolist()), start=1):
        counts[site] = counts.get(site, 0) + 1
        m = max(m, counts[site])
        pqd += Fraction(m / (k * k))
        if k in cps:
            v = sum(c * c for c in counts.values())
            want.append((list(counts.items()),
                         (k, m, v, len(counts), m * m / v, float(pqd))))
    return [(list(led.counts.items()), led.snapshot_row())
            for led in snaps] == want


def spans(cuts, n: int) -> list[tuple[int, int]]:
    """The blocks [a, b) of n steps split at the nondecreasing ``cuts``."""
    return list(zip([0, *cuts], [*cuts, n]))


def takes_rank_pre_step(coords) -> bool:
    """Whether ``sort_keys`` ranks the coords' packed keys before sorting."""
    key = ledger.pack_sites(np.asarray(coords, dtype=np.int64))[0]
    return int(key.max()) >> (63 - (key.size - 1).bit_length()) > 0


def step_draws(draw, probs, values=None) -> bool:
    """``draw`` at :func:`edge_uniforms` against :func:`searchsorted_draws`:
    ``np.intp`` atom indices, or (``draw`` a quantile) their ``values``."""
    u = edge_uniforms(probs)
    got, want = draw(u.copy()), searchsorted_draws(probs, u)
    if values is None:
        return got.dtype == np.intp and np.array_equal(got, want)
    return np.array_equal(got, np.asarray(values)[want])


def site_hash(coords, seed: int) -> bool:
    """``hash_sites`` and ``site_uniforms``, flat and through one ``Sites``
    twice, against :func:`scalar_hash`; and ``Sites.prefixes``."""
    coords = np.asarray(coords, dtype=np.int64)
    rows, words = coords.tolist(), rng.Sites(coords)
    want = [scalar_hash(seed, site) for site in rows]
    u = [(h >> 11) * 2.0**-53 for h in want]
    return (words.prefixes == len({tuple(s[:-1]) for s in rows})
            and all(rng.hash_sites(seed, route).tolist() == want
                    and rng.site_uniforms(seed, route).tolist() == u
                    for route in (coords, words, words)))


def cocycle_blocks(rc, cuts) -> bool:
    """A cursor's sums and ``_orbit``'s points x + j alpha mod 2^128 in the
    blocks that end at the nondecreasing ``cuts`` (the last one n)."""
    sums, near = cocycle_by_steps(rc, cuts[-1])
    x, alpha, ok, cur = rc.x_fp, rc.alpha_fp, True, rc.cursor()
    for a, b in spans(cuts[:-1], cuts[-1]):
        hi, lo = rotation._orbit((x + a * alpha) % rotation.ONE, alpha, b - a)
        block = cur.take(b - a)
        ok = (ok and block.dtype == np.int64 and block.shape == (b - a, 1)
              and block[:, 0].tolist() == sums[a:b]
              and [(h << 64) | l for h, l in zip(hi.tolist(), lo.tolist())]
              == [(x + j * alpha) % rotation.ONE for j in range(a, b)])
    return ok and cur.near_hits == near


def return_series_routes(law, kmax: int, lags) -> bool:
    """The axis-split return probabilities against the Fourier grid's."""
    want = spectral._requested_lags(law, kmax, lags)
    return bool(np.max(np.abs(spectral._axis_probs(law, kmax, want)
                              - spectral._grid_probs(law, kmax, want)))
                <= 1e-15)


def variance_keys(law, n: int, field, seeds) -> bool:
    """The variance Monte Carlo's walks of the law, the seeds in order
    through one loop built once, against the coordinate route."""
    forms = spectral._WalkForms(law, n, field)
    return all(forms(seed) == coordinate_quadratic_form(
        sources.RandomWalkSource(law, seed), n, field) for seed in seeds)


def gc_rows(walk, field, cps, replicates: int, seed_base: int) -> bool:
    """``cli._run_gc``'s rows against :func:`ecdf_from_scratch`'s sups."""
    from .cli import _run_gc
    coords = sources.generate(walk, cps[-1])
    plan = {"_source": walk, "_field": field, "n": cps[-1], "_checkpoints": cps,
            "replicates": replicates, "seed_base": seed_base}
    return _run_gc(plan, 1)[0]["gc.csv"][1] == [
        (rep, c, ecdf_from_scratch(
            field, rng.derive(seed_base, "field", rep), coords[:c])[2])
        for rep in range(replicates) for c in cps]


def fclt_replicates(field, src, n: int, grid, replicates: int,
                    seed_base: int, quenched: bool = True) -> bool:
    """``mc_fclt``'s sups and covariance against one replicate at a time,
    the bridge n (F_n - F) / sqrt(V_n) read off :func:`ecdf_from_scratch`."""
    res = empirical.mc_fclt(field, src, n, grid, replicates, seed_base,
                            quenched=quenched)
    grid, coords = np.asarray(grid, dtype=np.float64), sources.generate(src, n)
    at = grid if isinstance(field, DiscreteField) else field.cdf(grid)
    ys, sups = [], []
    for rep in range(replicates):
        if not quenched:
            coords = sources.generate(dataclasses.replace(
                src, seed=rng.derive(seed_base, "trajectory", rep)), n)
        values, cum, sup, v = ecdf_from_scratch(
            field, rng.derive(seed_base, "field", rep), coords)
        fn = np.append(0.0, cum)[np.searchsorted(values, at, "right")]
        ys.append((fn - field.cdf(grid)) * n / math.sqrt(v))
        sups.append(sup * n / math.sqrt(v))
    ys, mean = np.array(ys), np.mean(ys, axis=0)
    p = (ys[:, :, None] * ys[:, None, :]).sum(axis=0)
    return (np.array_equal(res.sup_sample, sups) and np.array_equal(
        res.cov, p / replicates - np.outer(mean, mean)))


def _cuts(seed: int, n: int) -> list[int]:  # blocks of 1..64 steps
    cuts = np.cumsum(1 + (64 * rng.uniforms(seed, n)).astype(int))
    return cuts[cuts < n].tolist()


def run() -> dict:
    """The suites in order, each true when its input takes the route that
    it names and its checks hold, and ``ok``."""
    cf = rotation.ContinuedFraction.golden()
    f = rotation.StepFunction([0, Fraction(1, 5), Fraction(1, 2),
                               Fraction(4, 5)], [1, -2, 2, -1])
    # one split straddles BLOCK, and one has a block longer than it
    n, top = ledger.BLOCK + 600, ledger.BLOCK
    splits = [[top - 300, top + 300], [200]]
    around_block = (any(a < top < b for a, b in spans(splits[0], n))
                    and any(b - a > top for a, b in spans(splits[1], n)))
    long_rc = rotation.RotationCocycle(cf, f, rotation.point_from_seed(9))
    z = long_rc.generate(n)
    res = {"ledger_vs_brute_force": around_block and all(ledger_blocks(
        sources.generate(sources.RandomWalkSource(
            sources.simple_walk(1 + t % 2), 1000 + t), 300),
        _cuts(2000 + t, 300)) for t in range(20)) and all(
        ledger_blocks(np.hstack([z, z % 3]), cuts) for cuts in splits)}
    # a d = 3 walk past two BLOCKs, its sites in several runs, and sites at
    # the int64 ends, which only dense ranks pack
    ends = [(-(1 << 63), 0), ((1 << 63) - 1, 5), (0, 0), (1, -(1 << 63))]
    res["feed"] = feed_snapshots(sources.RandomWalkSource(
        sources.simple_walk(3), 41), [100, top + 7, 2 * top + 500]) and \
        feed_snapshots(sources.ExplicitSource(
            ends[int(4 * u)] for u in rng.uniforms(42, 400)), [3, 40, 400])
    wide = (rng.uniforms(4000, 300) < 0.5).astype(np.int64)[:, None] << 55
    res["local_times"] = takes_rank_pre_step(wide) and ledger_blocks(wide, [])
    res["convergent_quality"] = all(abs(cf.convergent(40) - Fraction(p, q))
                                    < Fraction(1, q * q)
                                    for p, q in cf.convergents(20))
    led = ledger.LocalTimeLedger.from_trajectory([(i % 7,) for i in range(30)])
    v = led.self_intersections
    res["parseval"] = abs(spectral.kernel_grid_mean(led, 13) - v) < 1e-6 * v
    res["return_series"] = all(return_series_routes(
        sources.simple_walk(d), 30, [(0,) * d, (1,) + (0,) * (d - 1)])
        for d in (2, 3))
    res["source_blocks"] = around_block and all(cocycle_blocks(
        rotation.RotationCocycle(cf, f, rotation.point_from_seed(k)),
        _cuts(3000 + k, 2000) + [2000]) for k in range(3)) and all(
        cocycle_blocks(long_rc, cuts + [n]) for cuts in splits)
    # a d = 3 walk, whose sites share (x, y)-prefixes
    coords = sources.generate(
        sources.RandomWalkSource(sources.simple_walk(3), 31), 3000)
    res["site_hash"] = (len({(x, y) for x, y, _ in coords.tolist()}) < 3000
                        and all(site_hash(coords, seed) for seed in
                                (0, 1, rng.derive(7, "field", 0), rng.MASK64)))
    src = sources.RandomWalkSource(sources.simple_walk(2), 21)
    traj = sources.generate(src, 3000)
    # held at one site for 2600 steps: a local time past the key's 11 bits
    held = np.concatenate([traj[:400], np.repeat(traj[399:400], 2600, 0)])
    iid = (UniformField(), DiscreteField([(0, 0.5), (1, 0.2), (2, 0.3)]))
    lagged = (GaussianField(), MovingAverageField([1, .5, .25]))
    # a discrete law listed in decreasing order, not in its value order
    fields = iid + lagged + (DiscreteField([(2, 0.3), (1, 0.2), (0, 0.5)]),)
    res["field_batches"] = (
        np.unique(held, axis=0, return_counts=True)[1].max() >= 2047
        and all(gc_rows(walk, field, [30, 300, 3000], 7, 5) for field in fields
                for walk in (src, sources.ExplicitSource(held.tolist())))
        and all(fclt_replicates(field, src, 3000, [.5, 1.], 100, 5)
                for field in (*iid, GaussianField())))
    window = sources.WindowFunctional([(0, .2), (1, 0.), (2, .5), (3, .3)], 1,
                                      {(a,): (a,) for a in range(4)}, 0)
    # two clustered tiny atoms, the values out of order
    values, probs = zip((2, .3), (-1, 1e-12), (.5, 1e-12), (1.5, .7 - 2e-12))
    walk = sources.simple_walk(3)
    res["step_draws"] = (
        step_draws(walk.inverse_cdf, walk.probs())
        and step_draws(window.inverse_cdf, [p for _, p in window.inner])
        and step_draws(DiscreteField(zip(values, probs)).quantile, probs,
                       values))
    # a three-weight field widens the n = 5000 walk's keys by 2 per side;
    # the second seed's walk is drawn over the first's
    res["variance_keys"] = ledger.key_strides([10_005] * 3) is not None and all(
        variance_keys(walk, 5000, field, [51, 52]) for field in lagged)
    res["ok"] = all(res.values())
    return res
