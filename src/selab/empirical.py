"""Empirical distribution functions sampled along a lattice trajectory.

The sampled empirical cdf after n steps weights each distinct visited site
by its local time:  F_n(s) = (1/n) * sum_sites N_n(site) 1{X_site <= s}.
The associated bridge uses sqrt(V_n) normalization,

    Y_n(s) = (1/sqrt(V_n)) * sum_sites N_n(site) (1{X_site <= s} - F(s)),

whose covariance over field randomness, for a fixed trajectory, is exactly
F(min(s, t)) - F(s) F(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng, sources
from .ledger import LocalTimeLedger, trajectory_stats


@dataclass(frozen=True)
class WeightedEcdf:
    """Right-continuous step cdf with atoms at ``values`` (sorted unique)."""

    values: np.ndarray   # strictly increasing
    weights: np.ndarray  # positive, summing to 1

    def __post_init__(self):
        if self.values.shape != self.weights.shape or self.values.ndim != 1:
            raise ValueError("values and weights must be 1-d of equal length")
        if np.any(np.diff(self.values) <= 0):
            raise ValueError("values must be strictly increasing")
        if np.any(self.weights <= 0) or abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must be positive and sum to 1")

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


def sampled_ecdf(field, field_seed: int, ledger: LocalTimeLedger) -> WeightedEcdf:
    """Empirical cdf of the field along the trajectory in the ledger."""
    if ledger.n == 0:
        raise ValueError("empty ledger")
    coords, counts = ledger_arrays(ledger)
    x = field.site_values(field_seed, coords)
    return weighted_ecdf_from_samples(x, counts, ledger.n)


def weighted_ecdf_from_samples(x: np.ndarray, counts: np.ndarray,
                               n: int) -> WeightedEcdf:
    order = np.argsort(x, kind="stable")
    xs, cs = x[order], counts[order]
    uniq_mask = np.empty(xs.size, dtype=bool)
    uniq_mask[0] = True
    np.not_equal(xs[1:], xs[:-1], out=uniq_mask[1:])
    group = np.cumsum(uniq_mask) - 1
    w = np.zeros(group[-1] + 1)
    np.add.at(w, group, cs.astype(np.float64))
    return WeightedEcdf(values=xs[uniq_mask], weights=w / n)


def sup_deviation(ecdf: WeightedEcdf, field) -> float:
    """Exact sup_s |F_n(s) - F(s)|, evaluated at the empirical jump points.

    Between consecutive jumps F_n is flat and F nondecreasing, so the
    supremum is attained (or approached one-sidedly) at a jump: it is
    max over jumps v of max(F_n(v) - F(v), F(v) - F_n(v-)).
    """
    cum = ecdf.cumulative()
    f = field.cdf(ecdf.values)
    below = np.concatenate([[0.0], cum[:-1]])
    return float(np.maximum(cum - f, f - below).max())


def bridge_values(field, field_seed: int, ledger: LocalTimeLedger,
                  grid: Sequence[float]) -> np.ndarray:
    """Y_n on the grid for one field realization over the fixed ledger."""
    coords, counts = ledger_arrays(ledger)
    x = field.site_values(field_seed, coords)
    grid = np.asarray(grid, dtype=np.float64)
    indic = (x[:, None] <= grid[None, :]).astype(np.float64)
    num = counts @ (indic - field.cdf(grid)[None, :])
    return num / math.sqrt(ledger.self_intersections)


def bridge_sup(field, field_seed: int, ledger: LocalTimeLedger) -> float:
    """Exact sup_s |Y_n(s)| for one field realization (continuous F)."""
    ecdf = sampled_ecdf(field, field_seed, ledger)
    dev = sup_deviation(ecdf, field)
    return dev * ledger.n / math.sqrt(ledger.self_intersections)


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

    In quenched mode (default) one trajectory is generated from the source
    and held fixed across all replicates; otherwise each replicate draws a
    fresh trajectory too.  Field seeds are split deterministically from
    ``seed_base``, so results are reproducible and order-independent.
    """
    if replicates < 100:
        raise ValueError("need at least 100 replicates")
    grid = np.asarray(grid, dtype=np.float64)

    def make_ledger(rep: int) -> LocalTimeLedger:
        cfg = source_config
        if not quenched:
            cfg = _reseed(source_config, rng.derive(seed_base, "trajectory", rep))
        return LocalTimeLedger.from_trajectory(sources.generate(cfg, n))

    shared = make_ledger(0) if quenched else None
    g = grid.size
    ys = np.empty((replicates, g))
    sups = np.empty(replicates)
    for rep in range(replicates):
        led = shared if quenched else make_ledger(rep)
        fseed = rng.derive(seed_base, "field", rep)
        ys[rep] = bridge_values(field, fseed, led, grid)
        sups[rep] = bridge_sup(field, fseed, led)

    mean = ys.mean(axis=0)
    cov = ys.T @ ys / replicates - np.outer(mean, mean)

    # delete-one jackknife for every covariance entry
    r = replicates
    s1 = ys.sum(axis=0)
    prods = ys[:, :, None] * ys[:, None, :]
    p = prods.sum(axis=0)
    theta_i = ((p[None] - prods) / (r - 1)
               - ((s1[None, :, None] - ys[:, :, None])
                  * (s1[None, None, :] - ys[:, None, :])) / (r - 1) ** 2)
    stderr = np.sqrt((r - 1) / r * ((theta_i - theta_i.mean(axis=0)) ** 2).sum(axis=0))

    led_for_target = shared if quenched else make_ledger(0)
    return FcltResult(grid=grid, cov=cov, cov_stderr=stderr,
                      cov_target=ledger_covariance(field, led_for_target, grid),
                      sup_sample=sups, n=led_for_target.n,
                      v=led_for_target.self_intersections,
                      m2_over_v=led_for_target.m2_over_v, quenched=quenched)


def _reseed(config, seed: int):
    if hasattr(config, "seed"):
        import dataclasses
        return dataclasses.replace(config, seed=seed)
    raise ValueError("annealed mode needs a seedable source")


@dataclass(frozen=True)
class LilCheck:
    checkpoints: tuple[int, ...]
    margins: tuple[float, ...]  # |sum (1{X<=s} - F(s))| / (sqrt(V) (2 loglog n)^(1/2))
    bound: float                 # K * (1 + delta) for the field's bound K

    @property
    def ok(self) -> bool:
        return self.margins[-1] <= self.bound


def lil_margins(field, field_seed: int, source_config, s: float,
                checkpoints: Sequence[int], delta: float = 0.5) -> LilCheck:
    """Law-of-the-iterated-logarithm margins for centered indicator sums.

    At each checkpoint n the statistic is |sum_{k<n} (1{X_{z_k} <= s} -
    F(s))| normalized by sqrt(2 V_n log log n); for bounded summands the
    limsup is at most the bound K, so the final margin is compared to
    K (1 + delta).
    """
    checkpoints = tuple(sorted(int(c) for c in checkpoints))
    if checkpoints[0] < 16:
        raise ValueError("checkpoints must start at n >= 16")
    n_max = checkpoints[-1]
    coords = sources.generate(source_config, n_max)
    x = field.site_values(field_seed, coords)
    f = float(np.asarray(field.cdf(s)))
    centered = (x <= s).astype(np.float64) - f
    partial = np.cumsum(centered)
    v = trajectory_stats(coords).v
    margins = []
    for c in checkpoints:
        denom = math.sqrt(v[c - 1]) * math.sqrt(2 * math.log(math.log(c)))
        margins.append(abs(partial[c - 1]) / denom)
    k = 1.0  # indicator summands are bounded by 1
    return LilCheck(checkpoints=checkpoints, margins=tuple(margins),
                    bound=k * (1 + delta))
