"""Occupation statistics for integer lattice trajectories.

For a sequence z_0, z_1, ... of sites in Z^d the ledger tracks, after n
steps, the local times N_n(site), the maximal local time M_n, the number of
self-intersections V_n = sum N_n(site)^2, and the cardinality of the visited
range.  Its state is two arrays, the distinct sites in first-visit order and
their local times, which ``record_block`` advances a block of steps at a
time; ``counts`` is a read-only {site: local time} view built from them.
Every local time in the package comes from one vectorized kernel,
:func:`local_time_block`, and the statistics follow the step recursion

    V_n = V_{n-1} + 2 * N_{n-1}(z_n) + 1
    M_n = max(M_{n-1}, N_{n-1}(z_n) + 1)

It also accumulates the series sum_k M_k / k^2, whose convergence is one of
the sufficient conditions checked by :func:`condition_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

Site = tuple[int, ...]

CSV_HEADER = ("n", "M", "V", "range", "m2_over_v", "pqd_partial_sum")


class LocalTimeLedger:
    """Exact bookkeeping of local times along a trajectory, fed in blocks.

    ``sites`` (k, d) holds the distinct sites in first-visit order and
    ``local_times`` (k,) their local times.  A block replaces both arrays
    instead of writing into them, so a shallow copy is a snapshot.
    """

    __slots__ = ("d", "n", "sites", "local_times", "max_count",
                 "self_intersections", "_pqd_sum", "_pqd_comp")

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        self.n = 0
        self.sites = np.empty((0, d), dtype=np.int64)
        self.local_times = np.empty(0, dtype=np.int64)
        self.max_count = 0
        self.self_intersections = 0
        self._pqd_sum = 0.0
        self._pqd_comp = 0.0  # Kahan compensation

    def record_block(self, coords: Sequence[Sequence[int]] | np.ndarray) -> None:
        """Append a (b, d) block of steps."""
        coords = _as_coords(coords)
        if coords.shape[0] == 0:
            return
        if coords.shape[1] != self.d:
            raise ValueError(f"site has {coords.shape[1]} coordinates, "
                             f"expected {self.d}")
        occ, self.sites, self.local_times = local_time_block(
            coords, self.sites, self.local_times)
        self.self_intersections += int(np.sum(2 * occ - 1))
        running_m = np.maximum(np.maximum.accumulate(occ), self.max_count)
        self.max_count = int(running_m[-1])
        # compensated accumulation of M_k / k^2, term by term
        total, comp = self._pqd_sum, self._pqd_comp
        for k, m in enumerate(running_m.tolist(), start=self.n + 1):
            term = m / (k * k) - comp
            new = total + term
            comp = (new - total) - term
            total = new
        self._pqd_sum, self._pqd_comp = total, comp
        self.n += coords.shape[0]

    def record(self, site: Sequence[int]) -> None:
        self.record_block([tuple(site)])

    def record_many(self, sites: Iterable[Sequence[int]]) -> None:
        self.record_block(list(sites))

    @classmethod
    def from_trajectory(cls, sites: Sequence[Sequence[int]] | np.ndarray
                        ) -> "LocalTimeLedger":
        """The whole trajectory as one block."""
        coords = _as_coords(sites)
        led = cls(coords.shape[1])
        led.record_block(coords)
        return led

    @property
    def counts(self) -> Mapping[Site, int]:
        """Read-only {site: local time} view, in first-visit order."""
        return MappingProxyType(dict(zip(map(tuple, self.sites.tolist()),
                                         self.local_times.tolist())))

    @property
    def range_card(self) -> int:
        return int(self.local_times.size)

    @property
    def pqd_partial_sum(self) -> float:
        return self._pqd_sum

    @property
    def m2_over_v(self) -> float:
        if self.n == 0:
            raise ValueError("empty ledger")
        return self.max_count**2 / self.self_intersections

    def checkpoint(self) -> tuple[int, int, int, float]:
        """(n, M, V, pqd_partial_sum) -- the condition-report row."""
        return (self.n, self.max_count, self.self_intersections, self._pqd_sum)

    def snapshot_row(self) -> tuple[int, int, int, int, float, float]:
        """One CSV row: n, M, V, range, m2_over_v, pqd_partial_sum."""
        return (self.n, self.max_count, self.self_intersections,
                self.range_card, self.m2_over_v, self._pqd_sum)

    def rescan(self) -> None:
        """Recompute every statistic from the state arrays; raise on drift."""
        t = self.local_times
        distinct = np.unique(pack_sites(self.sites)[0]).size == t.size
        if not distinct or (int(np.sum(t * t)), int(t.max(initial=0)),
                            int(t.sum())) != (self.self_intersections,
                                              self.max_count, self.n):
            raise AssertionError("ledger self-check failed: the running "
                                 "statistics disagree with a full rescan")


def _as_coords(sites: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    coords = np.asarray(sites, dtype=np.int64)
    if coords.ndim == 1:
        coords = coords[:, None]
    return coords


def _key_bits(widths: Sequence[int]) -> int:
    return sum(max(1, w - 1).bit_length() for w in widths)


def pack_sites(coords: np.ndarray, margin: int = 0
               ) -> tuple[np.ndarray, tuple[int, ...]]:
    """Injectively pack (n, d) int64 coordinates into int64 keys.

    Returns the keys and the axis strides, key = sum_j (z_j - min_j z_j +
    margin) stride_j.  ``margin`` widens each axis so that sites shifted by
    up to ``margin`` in every coordinate share the strides: a lag becomes
    the key offset sum_j lag_j stride_j.  Offsets are formed only once they
    are known to fit in 62 bits; with ``margin`` 0 and a wider spread each
    axis packs the dense rank of its coordinate instead.
    """
    coords = _as_coords(coords)
    n, d = coords.shape
    # per column: a min over axis 0 of an (n, d) array is ~20x slower
    lo = [int(coords[:, j].min()) if n else 0 for j in range(d)]
    widths = [int(coords[:, j].max()) - lo[j] + 1 + 2 * margin if n else 1
              for j in range(d)]
    if _key_bits(widths) <= 62:
        cols = [coords[:, j] - lo[j] + margin for j in range(d)]
    elif margin == 0:
        ranks = [np.unique(coords[:, j], return_inverse=True) for j in range(d)]
        widths = [values.size for values, _ in ranks]
        cols = [inverse.reshape(-1) for _, inverse in ranks]
    if _key_bits(widths) > 62:
        raise OverflowError("site spread too large to pack into int64 keys")
    strides = [1] * d
    for j in range(d - 2, -1, -1):
        strides[j] = strides[j + 1] * widths[j + 1]
    key = np.zeros(n, dtype=np.int64)
    for j in range(d):
        key = key * widths[j] + cols[j]
    return key, tuple(strides)


def local_time_block(coords: Sequence[Sequence[int]] | np.ndarray,
                     sites: np.ndarray | None = None,
                     times: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the local times (sites, times) by a block of steps.

    ``sites`` (k, d) and ``times`` (k,) are the prior state, the distinct
    sites in first-visit order and their local times (None: empty).
    Returns ``(occupation, sites, times)``: occupation[i] is the local time
    of coords[i] just after step i, and the state gains the block's new
    sites in first-visit order.  A stable sort of the packed keys puts each
    prior site ahead of its group of equal steps, so a cumulative sum of
    the weights (prior local time, then 1 per step) gives the local times.
    """
    coords = _as_coords(coords)
    k = 0 if times is None else times.size
    both = np.concatenate([sites, coords]) if k else coords
    total = both.shape[0]
    key, _ = pack_sites(both)
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    new_group = np.empty(total, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new_group[1:])
    weight = np.ones(total, dtype=np.int64)
    if k:
        weight[:k] = times
    weight = weight[order]
    cum = np.cumsum(weight)
    before = cum - weight
    # `before` is nondecreasing, so this carries each group's start value
    group_base = np.maximum.accumulate(np.where(new_group, before, 0))
    occ_sorted = cum - group_base
    occ = np.empty(total, dtype=np.int64)
    occ[order] = occ_sorted
    # each site's final local time, stored at the row of its first visit
    starts = np.flatnonzero(new_group)
    final = np.zeros(total, dtype=np.int64)
    final[order[starts]] = occ_sorted[np.append(starts[1:], total) - 1]
    firsts = final > 0
    return occ[k:], both[firsts], final[firsts]


def brute_force_stats(sites: Sequence[Sequence[int]] | np.ndarray,
                      block: int = 4096) -> tuple[int, int, dict[Site, int]]:
    """Independent O(n^2) oracle for (V_n, M_n, local-time table).

    V is obtained by counting ordered coincident pairs (i, j) with
    z_i == z_j, not from the ledger recursion.
    """
    coords = _as_coords(sites)
    n = coords.shape[0]
    key, _ = pack_sites(coords)
    v = 0
    for start in range(0, n, block):
        chunk = key[start:start + block]
        v += int(np.count_nonzero(chunk[:, None] == key[None, :]))
    counts: dict[Site, int] = {}
    for row in coords:
        t = tuple(int(x) for x in row)
        counts[t] = counts.get(t, 0) + 1
    m = max(counts.values(), default=0)
    return v, m, counts


@dataclass(frozen=True)
class TrajectoryStats:
    """Per-step occupation statistics for a whole trajectory at once."""

    occupation: np.ndarray  # occupation[k] = N_{k+1}(z_k), count incl. step k
    v: np.ndarray           # V_1..V_n
    m: np.ndarray           # M_1..M_n
    range_card: np.ndarray
    pqd: np.ndarray         # partial sums of M_k / k^2

    def row(self, n: int) -> tuple[int, int, int, int, float, float]:
        i = n - 1
        return (n, int(self.m[i]), int(self.v[i]), int(self.range_card[i]),
                float(self.m[i]) ** 2 / float(self.v[i]), float(self.pqd[i]))


def trajectory_stats(sites: Sequence[Sequence[int]] | np.ndarray) -> TrajectoryStats:
    """Vectorized equivalent of replaying the trajectory through a ledger:
    one :func:`local_time_block` on an empty prior."""
    occ, _, _ = local_time_block(sites)
    n = occ.size
    v = np.cumsum(2 * occ - 1)
    m = np.maximum.accumulate(occ)
    rng = np.cumsum(occ == 1)
    k = np.arange(1, n + 1, dtype=np.float64)
    pqd = np.cumsum(m / (k * k))
    return TrajectoryStats(occ, v, m, rng, pqd)


def subset_lower_bound(ledger: LocalTimeLedger,
                       subset: Iterable[Sequence[int]]) -> Fraction:
    """Cauchy-Schwarz lower bound (sum of local times on A)^2 / |A| <= V."""
    sites = {tuple(s) for s in subset}
    if not sites:
        raise ValueError("subset must be nonempty")
    for s in sites:
        if len(s) != ledger.d:
            raise ValueError("subset site dimension mismatch")
    hits = sum(ledger.counts.get(s, 0) for s in sites)
    return Fraction(hits * hits, len(sites))


def range_lower_bound(ledger: LocalTimeLedger) -> Fraction:
    """n^2 / |range| <= V (the subset bound applied to the visited range)."""
    if ledger.n == 0:
        raise ValueError("empty ledger")
    return Fraction(ledger.n * ledger.n, ledger.range_card)


@dataclass(frozen=True)
class DispersionBound:
    """Lower bound on V_n for one-dimensional sequences from their spread.

    ``bound`` maximizes (1 - lam^-2)^2 n^2 / (2 lam sigma + 1) over the
    sampled multipliers; ``stated_constant`` and ``proof_constant`` are the
    two classical constants (n^2 / (9 sigma) vs (9/80) n^2 / sigma) implied
    at lam = 2 for sigma >= 1.
    """

    n: int
    mean: float
    sigma: float
    bound: float
    best_lambda: float
    stated_constant: float = 1.0 / 9.0
    proof_constant: float = 9.0 / 80.0

    LAMBDAS = (1.5, 2.0, 3.0, 4.0)


def dispersion_bound(sites: Sequence[Sequence[int]] | np.ndarray) -> DispersionBound:
    coords = _as_coords(sites)
    if coords.shape[1] != 1:
        raise ValueError("dispersion bound applies to one-dimensional sequences")
    z = coords[:, 0].astype(np.float64)
    n = z.size
    if n == 0:
        raise ValueError("empty trajectory")
    mean = float(z.mean())
    sigma = float(np.sqrt(np.mean((z - mean) ** 2)))
    best, best_lam = -math.inf, None
    for lam in DispersionBound.LAMBDAS:
        val = (1 - lam**-2) ** 2 * n * n / (2 * lam * sigma + 1)
        if val > best:
            best, best_lam = val, lam
    return DispersionBound(n=n, mean=mean, sigma=sigma, bound=best,
                           best_lambda=best_lam)


@dataclass(frozen=True)
class ConditionReport:
    """Diagnostics deciding which limit theorems the trajectory supports."""

    beta_fit: float      # LS slope of log(n^2/V) against log(log n)
    fclt_flag: bool      # M^2/V strictly decreasing at the end and small
    pqd_flag: bool       # sum M_k/k^2 increments shrinking geometrically
    final_m2_over_v: float
    zeta_note: str


def condition_report(checkpoints: Sequence[tuple[int, int, int, float]]
                     ) -> ConditionReport:
    """Evaluate sufficient-condition diagnostics from ledger checkpoints.

    Each checkpoint is (n, M, V, pqd_partial_sum); at least three are
    required, with strictly increasing n and the first n >= 16 so that
    log(log n) is comfortably positive.
    """
    if len(checkpoints) < 3:
        raise ValueError("need at least 3 checkpoints")
    ns = [c[0] for c in checkpoints]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("checkpoint sizes must be strictly increasing")
    if ns[0] < 16:
        raise ValueError("first checkpoint must have n >= 16")

    x = np.array([math.log(math.log(n)) for n, _, _, _ in checkpoints])
    y = np.array([math.log(n * n / v) for n, _, v, _ in checkpoints])
    slope = float(np.polyfit(x, y, 1)[0])

    ratios = [m * m / v for _, m, v, _ in checkpoints[-3:]]
    fclt = ratios[0] > ratios[1] > ratios[2] and ratios[2] < 0.1

    sums = [c[3] for c in checkpoints[-3:]]
    d1, d2 = sums[1] - sums[0], sums[2] - sums[1]
    if d1 < 0 or d2 < 0:
        raise ValueError("pqd partial sums must be nondecreasing")
    pqd = (d2 == 0.0) or (d1 > 0 and d2 / d1 < 0.9)

    if slope > 2:
        note = "n^2/V grows faster than (log n)^2: strong clustering decay"
    elif slope > 1:
        note = "n^2/V grows faster than log n"
    else:
        note = "n^2/V growth below log n: weak-dependence criteria may fail"

    final = checkpoints[-1]
    return ConditionReport(beta_fit=slope, fclt_flag=fclt, pqd_flag=pqd,
                           final_m2_over_v=final[1] ** 2 / final[2],
                           zeta_note=note)
