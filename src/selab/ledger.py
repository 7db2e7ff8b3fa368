"""Occupation statistics for integer lattice trajectories.

For a sequence z_0, z_1, ... of sites in Z^d the ledger tracks, after n
steps, the local times N_n(site), the maximal local time M_n, the number of
self-intersections V_n = sum N_n(site)^2, and the cardinality of the visited
range.  Its state is two arrays, the distinct sites in first-visit order and
their local times, which ``record_block`` advances a block of steps at a
time, its temporaries written into a work array that a feed may size once
for many blocks; ``counts`` is a read-only {site: local time} view built
from them.
The ledger's local times come from one vectorized kernel,
:func:`local_time_block`: :func:`pack_sites` packs each site into one int64
key, and :func:`sort_keys`, the package's one stable key sort, groups equal
keys.  :func:`key_strides` is the one key layout, which ``pack_sites`` and
the variance Monte Carlo's walk drawn as keys share, and :func:`run_starts`
the one grouper of sorted runs.  Where only the final local times are read
(the variance Monte Carlo), :func:`key_local_times` groups a walk's keys
after one plain sort.  The statistics follow the step recursion

    V_n = V_{n-1} + 2 * N_{n-1}(z_n) + 1
    M_n = max(M_{n-1}, N_{n-1}(z_n) + 1)

It also accumulates S_n = sum_{k<=n} M_k / k^2, whose convergence is one of
the sufficient conditions checked by :func:`condition_report`.  Its terms
are float64 quotients, equal to Python's ``m / (k * k)`` while k^2 is exact
(k < 2^26.5, about 9.49e7) and within a relative 2^-52 of M_k / k^2 beyond.
Their sum is carried exactly, as one Python int and a power of two:
:func:`exact_sum` splits a block's terms into 53-bit integers and
exponents and adds them per exponent in int64.  ``pqd_partial_sum`` reads
the carry back by one correctly rounded int division, so it is the
correctly rounded sum of the terms for every n and any block split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

Site = tuple[int, ...]

CSV_HEADER = ("n", "M", "V", "range", "m2_over_v", "pqd_partial_sum")

# steps per block wherever a feed picks the split: long enough that the
# ~60 short numpy calls of a block cost little per step, short enough that
# a feed's work array (128 KiB per row of int64 steps) adds little to the
# peak RSS
BLOCK = 1 << 14


class LocalTimeLedger:
    """Exact bookkeeping of local times along a trajectory, fed in blocks.

    ``sites`` (k, d) holds the distinct sites in first-visit order and
    ``local_times`` (k,) their local times.  A block replaces both arrays
    instead of writing into them, so a shallow copy is a snapshot.
    """

    __slots__ = ("d", "n", "sites", "local_times", "max_count",
                 "self_intersections", "_pqd_sum", "_pqd_num", "_pqd_exp")

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
        self._pqd_num, self._pqd_exp = 0, 0  # the exact sum: num * 2^exp

    def record_block(self, coords: Sequence[Sequence[int]] | np.ndarray,
                     work: np.ndarray | None = None) -> None:
        """Append a (b, d) block of steps.

        ``work``, an int64 array of shape (4, k + b) or wider, k the
        distinct sites so far, takes every block-sized temporary: those of
        :func:`local_time_block`, then the running max, the k, the terms
        M_k / k^2 and :func:`exact_sum`'s split.  A feed sizes it once for
        many blocks; by default the block allocates its own.
        """
        coords = _as_coords(coords)
        b = coords.shape[0]
        if b == 0:
            return
        if coords.shape[1] != self.d:
            raise ValueError(f"site has {coords.shape[1]} coordinates, "
                             f"expected {self.d}")
        if work is None:
            work = np.empty((4, self.range_card + b), dtype=np.int64)
        occ, self.sites, self.local_times = local_time_block(
            coords, self.sites, self.local_times, work)
        # the occupation is in row 3, and rows 0 .. 2 are free again
        self.self_intersections += 2 * int(occ.sum()) - b
        running_m = np.maximum.accumulate(occ, out=work[1, :b])
        np.maximum(running_m, self.max_count, out=running_m)
        self.max_count = int(running_m[-1])
        k = np.add(np.arange(b), self.n + 1, out=work[0, :b].view(np.float64))
        k *= k
        num, exp = exact_sum(np.divide(running_m, k, out=k), work[1:])
        if exp < self._pqd_exp:
            self._pqd_num <<= self._pqd_exp - exp
            self._pqd_exp = exp
        self._pqd_num += num << (exp - self._pqd_exp)
        # every term is at most 1, so exp < 0
        self._pqd_sum = self._pqd_num / (1 << -self._pqd_exp)
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


def exact_sum(terms: np.ndarray, work: np.ndarray | None = None
              ) -> tuple[int, int]:
    """(num, exp) with num * 2^exp the exact sum of finite float64 terms.

    ``np.frexp`` splits each term into a 53-bit integer and an exponent.
    The integers are added per exponent in int64, in two halves of 27 and
    26 bits, so no per-exponent sum overflows below 2^36 terms; a Horner
    pass over the exponents joins the sums into one Python int.  ``work``,
    an int64 array of shape (3, terms.size) or wider, takes the mantissas,
    the exponents and the integers; by default they are allocated.
    """
    terms = np.asarray(terms, dtype=np.float64)
    n = terms.size
    if work is None:
        work = np.empty((3, n), dtype=np.int64)
    mant, exp, ints = work[0, :n].view(np.float64), work[1, :n], work[2, :n]
    np.frexp(terms, out=(mant, exp))
    mant *= 2.0**53
    np.copyto(ints, mant, casting="unsafe")  # term = ints * 2^(exp - 53)
    low = int(exp.min(initial=0))
    exp -= low
    sums = np.zeros((2, int(exp.max(initial=0)) + 1), dtype=np.int64)
    np.add.at(sums[0], exp, np.right_shift(ints, 26, out=mant.view(np.int64)))
    np.add.at(sums[1], exp, np.bitwise_and(ints, (1 << 26) - 1, out=ints))
    num = 0
    for hi, lo in zip(sums[0, ::-1].tolist(), sums[1, ::-1].tolist()):
        num = (num << 1) + (hi << 26) + lo
    return num, low - 53


def _as_coords(sites: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    coords = np.asarray(sites, dtype=np.int64)
    if coords.ndim == 1:
        coords = coords[:, None]
    return coords


def key_strides(widths: Sequence[int]) -> tuple[int, ...] | None:
    """Mixed-radix strides, axis 0 the most significant: stride_j =
    prod_{i > j} width_i, or None where prod width_i > 2^62.  Digits
    0 <= c_j < width_j, or balanced digits |c_j| <= (width_j - 1) / 2 of
    odd widths, then give each site its own key sum_j c_j stride_j, and
    every such key and every lag offset between two such sites fits in
    int64."""
    if math.prod(widths) > 1 << 62:
        return None
    return tuple(math.prod(widths[j + 1:]) for j in range(len(widths)))


def pack_sites(coords: np.ndarray, margin: int = 0
               ) -> tuple[np.ndarray, tuple[int, ...]]:
    """Injectively pack (n, d) int64 coordinates into int64 keys.

    Returns the keys and the axis strides, key = sum_j (z_j - min_j z_j +
    margin) stride_j, from :func:`key_strides` at widths spread_j + 1 +
    2 margin.  ``margin`` widens each axis so that sites shifted by up to
    ``margin`` in every coordinate share the strides: a lag becomes the
    key offset sum_j lag_j stride_j.  Where those widths do not fit in 62
    bits, ``margin`` 0 packs the dense rank of each axis's coordinate
    instead, with the counts of distinct values as widths; a nonzero
    ``margin``, or ranks that do not fit either, raise.
    """
    return _pack_parts([_as_coords(coords)], margin, None)


def _pack_parts(parts: Sequence[np.ndarray], margin: int,
                out: np.ndarray | None) -> tuple[np.ndarray, tuple[int, ...]]:
    """:func:`pack_sites` of the (n_i, d) arrays ``parts`` as if joined
    along axis 0, without joining them; the keys are written into ``out``
    if given."""
    d = parts[0].shape[1]
    n = sum(len(part) for part in parts)
    # per axis, the nonempty parts' columns; per column: a min over axis 0
    # of an (n, d) array is ~20x slower
    cols = [[part[:, j] for part in parts if len(part)] for j in range(d)]
    lo = [min(int(c.min()) for c in col) if n else 0 for col in cols]
    widths = [max(int(c.max()) for c in col) - lo[j] + 1 + 2 * margin
              if n else 1 for j, col in enumerate(cols)]
    strides = key_strides(widths)
    if strides is None and margin == 0:
        ranks = [np.unique(np.concatenate(col), return_inverse=True)
                 for col in cols]
        widths = [values.size for values, _ in ranks]
        cols = [[inverse.reshape(-1)] for _, inverse in ranks]
        lo = [0] * d
        strides = key_strides(widths)
    if strides is None:
        raise OverflowError("site spread too large to pack into int64 keys")
    key = np.empty(n, dtype=np.int64) if out is None else out[:n]
    start = 0
    for part in zip(*cols):
        # Horner steps in place: int64 wraps, and wraps associatively, so
        # the steps may pass its ends while every key lands in [0, 2^62]
        seg = np.subtract(part[0], lo[0], out=key[start:start + len(part[0])])
        for j in range(1, d):
            seg *= widths[j]
            seg += part[j]
            seg -= lo[j]
        start += len(seg)
    if margin:
        key += margin * sum(strides)
    return key, strides


def sort_keys(key: np.ndarray, out: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """(order, key[order]) with ``order`` the stable argsort of nonnegative
    int64 keys, from one unstable in-place ``ndarray.sort``.

    Each key is shifted left by ib = (size - 1).bit_length() bits and its
    row index is ORed in: the packed keys are distinct and sort by (key,
    row), which is the stable order, so any sort gives it.  Keys of
    2^(63 - ib) or more leave no room for the index and are first replaced
    by their dense ranks.  ``key`` is overwritten: it is packed in place and
    left holding the sorted keys, which are returned.  ``order`` is written
    into ``out`` if given.
    """
    n = key.size
    ib = (n - 1).bit_length()
    values = None
    if n and int(key.max()) >> (63 - ib):
        if 2 * ib > 63:
            raise OverflowError("too many keys to tag with their row index")
        values, key = np.unique(key, return_inverse=True)
    key <<= ib
    key |= np.arange(n, dtype=np.int64)
    key.sort()
    order = np.bitwise_and(key, (1 << ib) - 1, out=out)
    key >>= ib
    return order, key if values is None else values[key]


def run_starts(xs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Flags of the first element of each run of equal values in a sorted
    1-d array (none for an empty one), into the bool array ``out`` if
    given."""
    first = np.empty(xs.size, dtype=bool) if out is None else out
    first[:1] = True
    np.not_equal(xs[1:], xs[:-1], out=first[1:])
    return first


def key_local_times(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct keys in increasing order, their local times) of the keys
    of a block of steps, from one unstable in-place ``ndarray.sort``: the
    distinct keys start the runs of equal sorted keys, and each local time
    is the length of its run.  ``key`` is left sorted.  Beside the two
    outputs only the run flags and starts are allocated: in a replicate
    loop each further temporary adds to what glibc trims off the heap top
    and faults back in."""
    key.sort()
    starts = np.flatnonzero(run_starts(key))
    # each run ends where the next one starts, the last one at the end
    times = np.empty_like(starts)
    np.subtract(starts[1:], starts[:-1], out=times[:-1])
    times[-1:] = key.size - starts[-1:]
    return key[starts], times


def local_time_block(coords: Sequence[Sequence[int]] | np.ndarray,
                     sites: np.ndarray | None = None,
                     times: np.ndarray | None = None,
                     work: np.ndarray | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the local times (sites, times) by a block of steps.

    ``sites`` (k, d) and ``times`` (k,) are the prior state, the distinct
    sites in first-visit order and their local times (None: empty).
    Returns ``(occupation, sites, times)``: occupation[i] is the local time
    of coords[i] just after step i, and the state gains the block's new
    sites in first-visit order.  :func:`sort_keys` gives the stable order
    of the packed keys from an unstable sort, as each key carries its row
    index in its low bits.  That order puts each prior site ahead of its
    group of equal steps, and the steps in time order, so a cumulative sum
    of the weights (prior local time, then 1 per step) gives the local
    times, and the first row of a group is the site's first visit.

    ``work``, an int64 array of shape (4, k + b) or wider that a feed sizes
    once for many blocks, takes every (k + b)-sized temporary: row 0 the
    keys, then the weights in key order and each site's final local time;
    row 1 the order; row 2 the weights, their sums and the occupation in
    key order; row 3 the run flags and then the occupation, which is
    returned as a view of it.  By default one such array is allocated, and
    the occupation copied out of it.  The prior sites and the block are
    packed where they lie, and the new state arrays are always fresh.
    """
    coords = _as_coords(coords)
    b, d = coords.shape
    if not b:  # no steps: the prior state as it is
        if times is None:
            sites, times = coords, np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=np.int64), sites, times
    k = 0 if times is None else times.size
    total = k + b
    rows = (np.empty((4, total), dtype=np.int64) if work is None
            else work[:, :total])
    key, _ = _pack_parts([sites, coords] if k else [coords], 0, rows[0])
    order, sorted_key = sort_keys(key, out=rows[1])
    new_group = run_starts(sorted_key, out=rows[3].view(bool)[:total])
    starts = np.flatnonzero(new_group)
    weight = rows[2]
    weight[k:] = 1
    if k:
        weight[:k] = times
    weight = np.take(weight, order, out=rows[0], mode="clip")
    cum = np.cumsum(weight, out=rows[2])
    # the sums before each row are nondecreasing, so a running max of their
    # values at group starts carries each group's start value
    base = np.subtract(cum, weight, out=weight)
    base *= new_group
    np.maximum.accumulate(base, out=base)
    occ_sorted = np.subtract(cum, base, out=cum)
    occ = rows[3]  # over the run flags, which are read no more
    occ[order] = occ_sorted
    # each site's final local time, stored at the row of its first visit
    final = rows[0]
    final.fill(0)
    final[order[starts]] = occ_sorted[np.append(starts[1:], total) - 1]
    firsts = np.flatnonzero(np.greater(final, 0,
                                       out=rows[1].view(bool)[:total]))
    # every prior site heads its group, so firsts starts with 0 .. k - 1
    new_sites = coords.take(firsts[k:] - k, axis=0)
    occ = occ[k:] if work is not None else occ[k:].copy()
    return (occ, np.concatenate([sites, new_sites]) if k else new_sites,
            final[firsts])


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
    """Per-step statistics from one :func:`local_time_block` on an empty
    prior, the vectorized reference route beside the ledger.  ``pqd`` is a
    plain ``np.cumsum`` of the ledger's terms, off by up to (n - 1) 2^-53
    S_n at step n, to first order."""
    occ, _, _ = local_time_block(sites)
    n = occ.size
    v = np.cumsum(2 * occ - 1)
    m = np.maximum.accumulate(occ)
    rng = np.cumsum(occ == 1)
    k = np.arange(1, n + 1, dtype=np.float64)
    pqd = np.cumsum(m / (k * k))
    return TrajectoryStats(occ, v, m, rng, pqd)


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
