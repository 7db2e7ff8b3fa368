"""Empirical distribution functions sampled along a lattice trajectory.

The sampled empirical cdf after n steps weights each distinct visited site
by its local time:  F_n(s) = (1/n) * sum_sites N_n(site) 1{X_site <= s}.
The associated bridge uses sqrt(V_n) normalization,

    Y_n(s) = (1/sqrt(V_n)) * sum_sites N_n(site) (1{X_site <= s} - F(s)),

whose covariance over field randomness, for a fixed trajectory, is exactly
F(min(s, t)) - F(s) F(t).

Every ECDF here is on the probability scale.  An i.i.d. field with a
continuous law F takes the value q(u) at a site with uniform u, and q(u) <=
s exactly when u <= F(s): so F_n(s) = G_n(F(s)) for the local-time-weighted
ECDF G_n of the uniforms, the field's ECDF, whose build and sup evaluate
neither q nor F.  The moving average's is the ECDF of F(X).  A discrete
law's holds every atom a, in value order, at F(a).

Replicates (field seeds) go through one batched path, :class:`SampledEcdfs`,
built once over nested checkpoint ledgers: per seed and ledger, a continuous
i.i.d. law sorts one uint64 key per site (its uniform above its local time),
a discrete law sums the local times per atom by one weighted ``bincount``,
and the moving average restricts one sort of its F(X); equal values merge
into one atom.  The ``gc`` runner and :func:`mc_fclt` map one object over
their seeds, and :func:`mc_fclt` reads its bridge n (G_n(F(s)) - F(s)) /
sqrt(V_n) off the ECDF it takes the sup of;
:func:`sampled_ecdf` is the one-seed, one-ledger call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import rng, sources
from .fields import DiscreteField
from .ledger import LocalTimeLedger, feed, run_starts


@dataclass(frozen=True)
class WeightedEcdf:
    """Right-continuous step cdf with atoms at ``values``, some of weight 0.
    A sampled ECDF's values are on the probability scale (u, F(X) or F at
    an atom), so it gives F_n(s) at ``field.cdf(s)``, not at s."""

    values: np.ndarray   # nondecreasing
    weights: np.ndarray  # nonnegative, summing to 1

    def __post_init__(self):
        if self.values.shape != self.weights.shape or self.values.ndim != 1:
            raise ValueError("values and weights must be 1-d of equal length")
        if np.any(np.diff(self.values) < 0):
            raise ValueError("values must be nondecreasing")
        if np.any(self.weights < 0) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be nonnegative and sum to 1")

    def cumulative(self) -> np.ndarray:
        return np.cumsum(self.weights)

    def __call__(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        idx = np.searchsorted(self.values, s, side="right")
        cum = np.concatenate([[0.0], self.cumulative()])
        return cum[idx]


def ledger_arrays(ledger: LocalTimeLedger) -> tuple[np.ndarray, np.ndarray]:
    """(distinct sites, their local times), first-visit order."""
    return ledger.sites, ledger.local_times


# entries per piece of the sweeps over an ECDF: temporaries of 128 KiB
_PIECE = 1 << 14
_SATURATED = 0x7FF       # local times from here on share one key value
_LOW = np.uint64(_SATURATED)  # a key's low 11 bits: the saturated local time
_HIGH = ~_LOW                 # its high 53 bits: the site's uniform


class SampledEcdfs:
    """Per field seed, the sampled ECDF at each of nested checkpoint ledgers.

    ``ledgers`` are snapshots of one trajectory, in increasing n, so each
    one's sites are a prefix of the last one's (first-visit order).  Built
    once: the sites' seed-free hash words, each ledger's n and local times
    (also packed into 11 bits for a continuous law; float64 for a discrete
    one, whose atoms it sorts by value) and, for an i.i.d. law, two arrays
    of the largest ledger's size.  No ledger is kept, and site coordinates
    only for the moving average, which hashes shifted ones.
    """

    def __init__(self, field, ledgers: Sequence[LocalTimeLedger]):
        coords, _ = ledger_arrays(ledgers[-1])
        if any(led.n == 0 or not _is_prefix(led.sites, coords)
               for led in ledgers):
            raise ValueError("ledgers must be nonempty, each one's sites a "
                             "prefix of the last one's")
        self.field = field
        self.sites = rng.Sites(coords)  # the seed-free hash words
        self._ledgers = [(led.n, led.local_times) for led in ledgers]
        if not hasattr(field, "quantile"):  # the moving average
            self.sites.coords = coords
            return
        # the hash words, and the key route's counts or the atom indices
        self._words = np.empty(coords.shape[0], dtype=np.uint64)
        self._ints = np.empty(coords.shape[0], dtype=np.intp)
        if isinstance(field, DiscreteField):  # value order, sorted in Python
            order = sorted(range(len(field.atoms)), key=field.atoms.__getitem__)
            self._atoms = np.array(order), field.cdf(
                [field.atoms[i][0] for i in order])
            # bincount's weights, converted once (exact below 2^53)
            self._ledgers = [(n, t.astype(np.float64)) for n, t in self._ledgers]
        else:  # the local times saturated into uint16, the saturated sites
            self._ledgers = [(n, t, np.minimum(t, _SATURATED, casting="unsafe",
                                               out=np.empty(t.size, np.uint16)),
                              np.flatnonzero(t >= _SATURATED))
                             for n, t in self._ledgers]

    def __call__(self, seed: int) -> list[WeightedEcdf]:
        """The ECDFs of the field under ``seed``, one per ledger.

        A site's uniform is the top 53 bits of its hash word h.  For a
        continuous law, per ledger the key (h & ~0x7FF) | min(local time,
        0x7FF) is sorted: its high bits sort the uniforms and its low bits
        carry the weights along, with no argsort and no gather.  The last
        ledger sorts in place in the hash array and counts into the integer
        array, both this object's, so the next call overwrites the last
        ECDF of this one.  A discrete law writes its atom indices into the
        integer array and sums the local times per atom by a weighted
        ``bincount`` (exact integers in float64); the moving average sorts
        F(X) (:meth:`from_values`).
        """
        if self.sites.coords is not None:
            return self.from_values(self.field.cdf(
                self.field.site_values(seed, self.sites)))
        h = rng.hash_sites(seed, self.sites, self._words)
        if isinstance(self.field, DiscreteField):
            order, f = self._atoms
            idx = self.field.inverse_cdf(rng.word_uniforms(
                h, out=h.view(np.float64)), out=self._ints)
            return [WeightedEcdf(f, np.bincount(
                idx[:times.size], weights=times, minlength=order.size)[order]
                / n) for n, times in self._ledgers]
        ecdfs = []
        for i, (n, times, low, big) in enumerate(self._ledgers):
            last = i == len(self._ledgers) - 1  # the largest: it takes h
            key = (np.bitwise_and(h, _HIGH, out=h) if last
                   else h[:low.size] & _HIGH)
            ecdfs.append(self._from_keys(key, n, times, low, big,
                                         self._ints if last else None))
        return ecdfs

    def _from_keys(self, key: np.ndarray, n: int, times: np.ndarray,
                   low: np.ndarray, big: np.ndarray,
                   counts: np.ndarray | None) -> WeightedEcdf:
        """The ECDF of n steps from the keys, sorted in place: the counts
        go into one int64 array, ``counts`` if given, and the uniforms
        over the keys."""
        key |= low
        if big.size:  # local times of 2047 or more
            big_times = times[big][np.argsort(key[big])]
        key.sort()
        # below 2^11: the same values as int64
        cs = np.bitwise_and(key, _LOW, out=None if counts is None else
                            counts.view(np.uint64)).view(np.int64)
        if big.size:
            # in key order, as the sorted keys hold them; sites with equal
            # keys have equal uniforms, so the merge sums them in any order
            cs[cs == _SATURATED] = big_times
        return _merged_ecdf(rng.word_uniforms(key, out=key.view(np.float64)),
                            cs, n)

    def from_values(self, x: np.ndarray) -> list[WeightedEcdf]:
        """The ECDFs of the probability-scale values ``x`` at the last
        ledger's sites: one argsort, and each earlier ledger takes the
        order restricted to its prefix of the sites."""
        order = np.argsort(x)
        ecdfs = []
        for n, times, *_ in self._ledgers:
            o = order if times.size == x.size else order[order < times.size]
            ecdfs.append(_merged_ecdf(x[o], times[o], n))
        return ecdfs


def sampled_ecdf(field, field_seed: int, ledger: LocalTimeLedger) -> WeightedEcdf:
    """Empirical cdf of the field along the trajectory in the ledger, on
    the probability scale: its value at ``field.cdf(s)`` is F_n(s)."""
    return SampledEcdfs(field, [ledger])(field_seed)[0]


def _is_prefix(sites: np.ndarray, coords: np.ndarray) -> bool:
    """Whether ``sites`` are the first rows of ``coords``: at once where
    they are a view of them, as a feed's snapshots are."""
    k = len(sites)
    if k > len(coords):
        return False
    head = coords[:k]
    return ((sites.ctypes.data, sites.strides, sites.shape)
            == (head.ctypes.data, head.strides, head.shape)
            or np.array_equal(sites, head))


def _any_tie(xs: np.ndarray) -> bool:
    """Whether xs[i + 1] == xs[i] for some i, in ``_PIECE``-entry pieces,
    so that no temporary is as long as xs."""
    return any(np.equal(w[1:], w[:-1]).any() for w in (
        xs[a:a + _PIECE + 1] for a in range(0, xs.size - 1, _PIECE)))


def _merged_ecdf(xs: np.ndarray, cs: np.ndarray, n: int) -> WeightedEcdf:
    """The ECDF with weight cs[i] / n at xs[i], for nondecreasing xs and
    int64 weights cs, which the weights overwrite.  Equal values merge into
    one atom, whose integer weights sum exactly in any order."""
    if _any_tie(xs):
        starts = np.flatnonzero(run_starts(xs))
        xs, cs = xs[starts], np.add.reduceat(cs, starts)
    ecdf = object.__new__(WeightedEcdf)  # valid by construction: no checks
    object.__setattr__(ecdf, "values", xs)
    object.__setattr__(ecdf, "weights", np.divide(cs, n,
                                                  out=cs.view(np.float64)))
    return ecdf


def sup_deviation(ecdf: WeightedEcdf, field) -> float:
    """Exact sup_s |F_n(s) - F(s)|, read off the ECDF on the probability
    scale with no cdf call.  A discrete law's F_n and F are flat between
    its atoms: the sup is the max over them of |F_n(a) - F(a)|.  A
    continuous law's is sup_u |G_n(u) - u|; on [u_i, u_{i+1}) G_n is flat,
    so it is max over jumps u of max(G_n(u) - u, u - G_n(u-)).

    The jumps are swept in ``_PIECE``-entry pieces, so that no temporary
    is as long as the ECDF.  Each piece's cumulative sum starts from the
    last sum before it, added to the piece's first weight, so every G_n(u)
    is the same float as that of one cumulative sum over all the weights:
    ``np.cumsum`` adds in order.
    """
    if isinstance(field, DiscreteField):
        return float(np.abs(ecdf.cumulative() - ecdf.values).max())
    sup, before = -np.inf, 0.0  # G_n(u-) at the piece's first jump
    for a in range(0, ecdf.values.size, _PIECE):
        cum = ecdf.weights[a:a + _PIECE].copy()
        cum[0] += before
        np.cumsum(cum, out=cum)
        u = ecdf.values[a:a + _PIECE]
        # u - G_n(u-), with G_n(u-) the sum before each jump
        below = max(u[0] - before, (u[1:] - cum[:-1]).max(initial=-np.inf))
        sup = max(sup, below, (cum - u).max())
        before = float(cum[-1])
    return float(sup)


def bridge_values(field, field_seed: int, ledger: LocalTimeLedger,
                  grid: Sequence[float]) -> np.ndarray:
    """Y_n on the grid for one field realization over the fixed ledger."""
    return _bridge(sampled_ecdf(field, field_seed, ledger), ledger,
                   field.cdf(np.asarray(grid, dtype=np.float64)))


def _bridge(ecdf: WeightedEcdf, ledger: LocalTimeLedger,
            f: np.ndarray) -> np.ndarray:
    """Y_n = n (G_n(F) - F) / sqrt(V_n) at the grid's cdf values f, in the
    sup's order of operations."""
    return (ecdf(f) - f) * ledger.n / math.sqrt(ledger.self_intersections)


def ledger_covariance(field, ledger: LocalTimeLedger,
                      grid: Sequence[float]) -> np.ndarray:
    """Exact Cov(Y(s), Y(t)) over field randomness for the fixed ledger:
    F(min(s,t)) - F(s) F(t) when the field is i.i.d. over sites."""
    grid = np.asarray(grid, dtype=np.float64)
    f = field.cdf(grid)
    return np.minimum(f[:, None], f[None, :]) - f[:, None] * f[None, :]


@dataclass(frozen=True)
class FcltResult:
    grid: np.ndarray
    cov: np.ndarray           # Monte Carlo covariance of the bridge
    cov_stderr: np.ndarray    # delete-one jackknife standard errors
    cov_target: np.ndarray    # F(min) - F F for the fixed ledger
    sup_sample: np.ndarray    # per-replicate exact sup |Y_n|
    n: int
    v: int
    m2_over_v: float
    quenched: bool


def mc_fclt(field, source_config, n: int, grid: Sequence[float],
            replicates: int, seed_base: int, quenched: bool = True) -> FcltResult:
    """Monte Carlo bridge statistics over independent field realizations.

    In quenched mode (default) one trajectory is fed from the source's
    cursor (:func:`ledger.feed`) and held fixed across all replicates;
    otherwise each replicate feeds a fresh trajectory too.  Field seeds are split deterministically from
    ``seed_base``, so results are reproducible and order-independent.
    """
    if replicates < 100:
        raise ValueError("need at least 100 replicates")
    grid = np.asarray(grid, dtype=np.float64)
    f = field.cdf(grid)

    def make_ledger(rep: int) -> LocalTimeLedger:
        cfg = source_config
        if not quenched:
            cfg = _reseed(source_config, rng.derive(seed_base, "trajectory", rep))
        return feed(sources.cursor(cfg), [n])[0][-1]

    seeds = [rng.derive(seed_base, "field", rep) for rep in range(replicates)]
    first = make_ledger(0)
    # quenched: one ledger for every seed; annealed: a fresh one per seed
    runs = ([(first, seeds)] if quenched else
            ((first if rep == 0 else make_ledger(rep), [seed])
             for rep, seed in enumerate(seeds)))
    ys, sups = [], []
    for led, batch in runs:
        ecdfs = SampledEcdfs(field, [led])
        for seed in batch:
            ecdf, = ecdfs(seed)
            ys.append(_bridge(ecdf, led, f))
            dev = sup_deviation(ecdf, field)
            sups.append(dev * led.n / math.sqrt(led.self_intersections))
    ys, sups = np.array(ys), np.array(sups)

    # covariance and delete-one jackknife from sums, with no BLAS product
    r = replicates
    s1 = ys.sum(axis=0)
    prods = ys[:, :, None] * ys[:, None, :]
    p = prods.sum(axis=0)
    mean = s1 / r
    cov = p / r - np.outer(mean, mean)
    theta_i = ((p[None] - prods) / (r - 1)
               - ((s1[None, :, None] - ys[:, :, None])
                  * (s1[None, None, :] - ys[:, None, :])) / (r - 1) ** 2)
    stderr = np.sqrt((r - 1) / r * ((theta_i - theta_i.mean(axis=0)) ** 2).sum(axis=0))

    return FcltResult(grid=grid, cov=cov, cov_stderr=stderr,
                      cov_target=ledger_covariance(field, first, grid),
                      sup_sample=sups, n=first.n, v=first.self_intersections,
                      m2_over_v=first.m2_over_v, quenched=quenched)


def _reseed(config, seed: int):
    if hasattr(config, "seed"):
        return replace(config, seed=seed)
    raise ValueError("annealed mode needs a seedable source")
