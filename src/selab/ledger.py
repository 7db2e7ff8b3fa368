"""Occupation statistics for integer lattice trajectories.

For a sequence z_0, z_1, ... of sites in Z^d the ledger tracks, after n
steps, the local times N_n(site), the maximal local time M_n, the number of
self-intersections V_n = sum N_n(site)^2, and the cardinality of the visited
range.  Its memory is its sites: the distinct sites in an array that blocks
only append to, in first-visit order, their local times beside them, and an
index of log-structured sorted runs (O'Neil et al., "The log-structured
merge-tree", Acta Informatica 33, 1996) of the sites' packed int64 keys and
int32 first-visit numbers.  The runs are adjacent segments, oldest first,
of two arrays reserved beside the sites, so the index holds one entry per
site and no more.  ``record_block`` sorts a block's keys once and looks
them up in each run by ``searchsorted``; the block's new sites are appended
and their keys form a new run at the index's end, and runs of like size
merge in place, the older run's entries moved back to front to their final
rows and the newer run's scattered in, so no block re-packs, re-sorts or
copies the prior sites and no merge allocates the merged run.
:func:`feed` advances one ledger through a source's checkpoints in blocks
of at most :data:`BLOCK` steps, and a checkpoint's snapshot is a view of
the sites' prefix and a copy of the local times.

A ledger packs its keys in one layout (:func:`key_strides`) and rebuilds it
only when a block leaves it: each axis that a block leaves doubles its
width, and where 62 bits cannot hold the widths every axis takes the dense
ranks of its coordinates instead.  Both layouts order the sites
lexicographically, so a rebuild re-packs the runs where they lie and sorts
nothing.  :func:`pack_sites` packs a site array in one shot, in a layout of
its own whose :meth:`_Layout.shift` moves keys by a lag; :func:`sort_keys`
is the package's one stable key sort, :func:`run_starts` the one grouper of
sorted runs and :func:`find_keys` the one lookup.  :func:`local_time_block`
computes a whole trajectory's local times in one shot, the reference route
of :func:`trajectory_stats` beside the ledger, and :func:`key_local_times`
groups a walk's keys after one plain sort where only the final local times
are read (the variance Monte Carlo).  The statistics follow the step
recursion

    V_n = V_{n-1} + 2 * N_{n-1}(z_n) + 1
    M_n = max(M_{n-1}, N_{n-1}(z_n) + 1)

It also accumulates S_n = sum_{k<=n} M_k / k^2, whose convergence is one of
the sufficient conditions checked by :func:`condition_report`.  Its terms
are float64 quotients, equal to Python's ``m / (k * k)`` while k^2 is exact
(k < 2^26.5, about 9.49e7) and within a relative 2^-52 of M_k / k^2 beyond.
Their sum is carried exactly, as one Python int and a power of two:
:func:`exact_sum` splits a block's terms into 53-bit integers and
exponents and adds them per exponent.  ``pqd_partial_sum`` reads the carry
back by one correctly rounded int division, so it is the correctly rounded
sum of the terms for every n and any block split.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

Site = tuple[int, ...]

CSV_HEADER = ("n", "M", "V", "range", "m2_over_v", "pqd_partial_sum")

# steps per block wherever a feed picks the split: long enough that the
# ~60 short numpy calls of a block cost little per step, short enough that
# a feed's work array (128 KiB per row of int64 steps) and a block's other
# temporaries add little to the peak RSS
BLOCK = 1 << 14

# terms per bincount in exact_sum: each half-mantissa is below 2^27, so
# the sums of fewer than 2^26 of them are exact in float64
_PIECE = 1 << 26

# each run of a ledger's index is at least this many times as long as the
# next: a block looks up its keys in at most log_4(k) + 1 runs, and each
# site is merged about 1.5 times per factor of 4 that the sites grow
_RATIO = 4


class LocalTimeLedger:
    """Exact bookkeeping of local times along a trajectory, fed in blocks.

    ``sites`` (k, d) holds the distinct sites in first-visit order, the
    first k rows of an array that blocks only append to, and
    ``local_times`` (k,) their local times.  The index is the first k rows
    of two arrays of the same reserve, ``_keys`` (int64) and ``_nums``
    (int32 first-visit numbers, int64 past 2^31 rows): a run of sorted keys
    starts at each row of ``_runs``, oldest first, and ends where the next
    one starts, each run at least ``_RATIO`` times as long as the next.  A
    :meth:`snapshot` has no index; it builds one, in arrays of its own, if
    it is fed.
    """

    __slots__ = ("d", "n", "max_count", "self_intersections", "_k", "_sites",
                 "_times", "_keys", "_nums", "_runs", "_layout", "_lo", "_hi",
                 "_pqd_sum", "_pqd_num", "_pqd_exp")

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = d
        self.n = 0
        self.max_count = 0
        self.self_intersections = 0
        self._k = 0
        self._sites = np.empty((0, d), dtype=np.int64)
        self._times = np.empty(0, dtype=np.int64)
        self._keys = np.empty(0, dtype=np.int64)
        self._nums = np.empty(0, dtype=np.int32)
        self._runs: list[int] | None = []
        self._layout = None
        self._lo = self._hi = None  # each axis's bounds over the sites
        self._pqd_sum = 0.0
        self._pqd_num, self._pqd_exp = 0, 0  # the exact sum: num * 2^exp

    @property
    def sites(self) -> np.ndarray:
        return self._sites[:self._k]

    @property
    def local_times(self) -> np.ndarray:
        return self._times[:self._k]

    def reserve(self, rows: int) -> None:
        """Room for ``rows`` distinct sites and their index entries.  The
        arrays are ``np.empty``, so their pages are touched only as sites
        are written."""
        if rows > self._times.size:
            k = self._k
            sites = np.empty((rows, self.d), dtype=np.int64)
            times = np.empty(rows, dtype=np.int64)
            sites[:k], times[:k] = self.sites, self.local_times
            keys, nums = _index_arrays(rows)
            if self._runs is not None:
                keys[:k], nums[:k] = self._keys[:k], self._nums[:k]
            self._sites, self._times = sites, times
            self._keys, self._nums = keys, nums

    def snapshot(self) -> "LocalTimeLedger":
        """The ledger as it stands: its sites a view of this one's, whose
        rows later blocks never rewrite, its local times a copy, and no
        index."""
        snap = copy.copy(self)
        snap._sites, snap._times = self.sites, self.local_times.copy()
        snap._keys = snap._nums = snap._runs = None
        return snap

    def record_block(self, coords: Sequence[Sequence[int]] | np.ndarray,
                     work: np.ndarray | None = None) -> None:
        """Append a (b, d) block of steps.

        ``work``, an int64 array of shape (4, b) or wider, takes every
        block-sized temporary: those of :meth:`_occupation`, then the
        running max, the k, the terms M_k / k^2 and :func:`exact_sum`'s
        split.  A feed sizes it once for many blocks; by default the block
        allocates its own.
        """
        coords = _as_coords(coords)
        b = coords.shape[0]
        if b == 0:
            return
        if coords.shape[1] != self.d:
            raise ValueError(f"site has {coords.shape[1]} coordinates, "
                             f"expected {self.d}")
        if work is None:
            work = np.empty((4, b), dtype=np.int64)
        occ = self._occupation(coords, work[:, :b])
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
        self.n += b

    def _occupation(self, coords: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Advance the sites and local times by the (b, d) block ``coords``
        and return its occupation: the local time of each step's site just
        after the step.

        :func:`sort_keys` gives the stable order of the block's keys, which
        puts the steps of each site together and in time order.  Each
        group's key is looked up in the runs, newest first, until found;
        the sites found nowhere are new, appended in the order of their groups' first rows, and their
        keys form a new run.  Along a group the occupation counts on from
        the site's prior local time, as a cumulative sum of steps of 1 with
        a jump at each group's start.  ``rows`` (4, b): row 0 the keys,
        row 1 the order, row 2 the steps and their sums, row 3 the run
        flags and then the occupation, which is returned as a view of it.
        """
        b = coords.shape[0]
        cols = [coords[:, j] for j in range(self.d)]
        lo, hi = [int(c.min()) for c in cols], [int(c.max()) for c in cols]
        if self._runs is None:  # a snapshot
            self._index()
        if self._lo is not None:
            lo = [min(a, c) for a, c in zip(self._lo, lo)]
            hi = [max(a, c) for a, c in zip(self._hi, hi)]
        self._lo, self._hi = lo, hi
        if self._layout is None or not self._layout.fits(cols, lo, hi):
            self._relayout(cols)
        order, key = sort_keys(self._layout.pack(cols, rows[0]), out=rows[1])
        starts = np.flatnonzero(run_starts(key, out=rows[3].view(bool)[:b]))
        key = key[starts]
        site = np.full(key.size, -1, dtype=np.int64)
        new = np.arange(key.size)  # the groups not found yet
        ends = self._runs[1:] + [self._k]
        for r, e in zip(reversed(self._runs), reversed(ends)):  # newest first
            at, hit = find_keys(self._keys[r:e], key[new])
            site[new[hit]] = self._nums[r:e][at[hit]]
            new = new[~hit]
        if new.size:
            # the new sites' first rows, in visit order
            by_visit, first = sort_keys(order[starts[new]])
            k, m = self._k, new.size
            if k + m > self._times.size:
                self.reserve(max(k + m, 2 * self._times.size))
            np.take(coords, first, axis=0, out=self._sites[k:k + m],
                    mode="clip")
            self._times[k:k + m] = 0
            site[new[by_visit]] = np.arange(k, k + m)
            self._k = k + m
            np.take(key, new, out=self._keys[k:k + m], mode="clip")
            self._nums[k:k + m] = site[new]
            self._push(k)
        prior = self._times[site]
        length = np.subtract(np.append(starts[1:], b), starts)
        self._times[site] = prior + length
        step = rows[2]
        step.fill(1)
        # a group starts at prior + 1, after the last group's prior + length
        jump = prior + 1
        jump[1:] -= prior[:-1] + length[:-1]
        step[starts] = jump
        occ = rows[3]  # over the run flags, which are read no more
        occ[order] = np.cumsum(step, out=step)
        return occ

    def _push(self, start: int) -> None:
        """Make the index's rows from ``start`` on, sorted keys, a run; then
        merge the last two runs while the one before the last is less than
        ``_RATIO`` times as long as the last."""
        runs, end = self._runs, self._k
        runs.append(start)
        while len(runs) > 1 and (runs[-1] - runs[-2]
                                 < _RATIO * (end - runs[-1])):
            self._merge(runs[-2], runs.pop(), end)

    def _merge(self, a: int, b: int, c: int) -> None:
        """Merge the runs in rows [a, b) and [b, c) of the index in place.

        The keys of two runs differ.  With at_j the number of older keys
        below the newer key j, that entry goes to row a + at_j + j, and the
        older entries fill the other rows in order.  The newer entries past
        every older one are in place already, and so are the older entries
        below every newer one.  The other newer entries are copied out, and
        the older ones are placed back to front, ``BLOCK`` at a time: a
        piece of them and the newer entries whose at_j fall in it fill a
        window of rows after every older entry not yet read, the newer ones
        where their at_j put them and the piece in the rest.  Beside the
        index the merge holds the copied entries, their at_j and
        piece-sized temporaries.
        """
        keys, nums = self._keys, self._nums
        at = np.searchsorted(keys[a:b], keys[b:c])  # nondecreasing
        # the older rows from the first at_j on, in pieces, and the number
        # of at_j below each piece's first row and below the older end
        cuts = list(range(int(at[0]), b - a, BLOCK)) + [b - a]
        below = np.searchsorted(at, cuts).tolist()
        new_keys = keys[b:b + below[-1]].copy()
        new_nums = nums[b:b + below[-1]].copy()
        for p, q, lo, hi in reversed(list(zip(cuts, cuts[1:], below,
                                              below[1:]))):
            start = a + p + lo  # the window: rows start .. a + q + hi - 1
            new_rows = at[lo:hi] + np.arange(a + lo, a + hi)
            free = np.ones(q - p + hi - lo, dtype=bool)
            free[new_rows - start] = False
            old_rows = np.flatnonzero(free)
            old_rows += start
            keys[old_rows], nums[old_rows] = (keys[a + p:a + q].copy(),
                                              nums[a + p:a + q].copy())
            keys[new_rows], nums[new_rows] = new_keys[lo:hi], new_nums[lo:hi]

    def _packed(self, sites: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The keys of the sites numbered ``sites`` under the layout, into
        ``out``, BLOCK sites at a time."""
        for a in range(0, sites.size, BLOCK):
            part = self._sites.take(sites[a:a + BLOCK], axis=0)
            self._layout.pack(list(part.T), out[a:a + BLOCK])
        return out

    def _index(self) -> None:
        """Index a ledger that has none, a snapshot: its sites as one run,
        in arrays of its own."""
        k = self._k
        self._keys, self._nums = _index_arrays(self._times.size)
        keys = self._packed(np.arange(k), self._keys[:k])
        order = np.argsort(keys)
        keys[:], self._nums[:k] = keys[order], order
        self._runs = [0] if k else []

    def _relayout(self, cols: list[np.ndarray]) -> None:
        """A layout for the sites and the block's columns ``cols``, and
        the index re-packed in it where it lies.  An axis that holds the
        bounds within half its width keeps its digits; any other doubles
        the larger of its old width and its bounds' span, centred on them.  Where that passes 62
        bits the bounds themselves are the widths, and where they do too,
        the dense ranks of each axis's coordinates."""
        old, lo, hi, k = self._layout, self._lo, self._hi, self._k
        offsets = old is not None and old.ranks is None
        axes = []
        for j, (a, b) in enumerate(zip(lo, hi)):
            if (offsets and old.lo[j] <= a and b < old.lo[j] + old.widths[j]
                    and 2 * (b - a + 1) <= old.widths[j]):
                axes.append((old.lo[j], old.widths[j]))
                continue
            w = 2 * max(b - a + 1, old.widths[j] if offsets else 0)
            axes.append((a - (w - (b - a + 1)) // 2, w))
        if math.prod(w for _, w in axes) > 1 << 62:
            axes = [(a, b - a + 1) for a, b in zip(lo, hi)]
        if math.prod(w for _, w in axes) <= 1 << 62:
            self._layout = _Layout([min(max(a, -1 << 63), (1 << 63) - w)
                                    for a, w in axes], [w for _, w in axes])
        else:
            self._layout = _Layout.ranked([np.unique(np.concatenate(
                [self._sites[:k, j], c])) for j, c in enumerate(cols)])
        self._packed(self._nums[:k], self._keys[:k])

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
        return self._k

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


def _index_arrays(rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Empty key and first-visit number arrays for an index of ``rows``
    entries: the numbers are below ``rows``, so int32 while that fits,
    which saves a third of the index's bytes."""
    return (np.empty(rows, dtype=np.int64),
            np.empty(rows, dtype=np.int32 if rows <= 1 << 31 else np.int64))


class _Layout:
    """A key layout: site z gets the key sum_j c_j stride_j (``strides``,
    :func:`key_strides` of ``widths``), with the digit c_j = z_j - lo_j
    in [0, width_j), or, given ``ranks``, the rank of z_j among the sorted
    distinct coordinates ranks[j].  Either way the keys order the sites
    lexicographically, axis 0 first."""

    __slots__ = ("lo", "widths", "ranks", "strides")

    def __init__(self, lo: list[int], widths: list[int],
                 ranks: list[np.ndarray] | None = None):
        self.strides = key_strides(widths)
        if self.strides is None:
            raise OverflowError("site spread too large to pack into int64 "
                                "keys")
        self.lo, self.widths, self.ranks = lo, widths, ranks

    @classmethod
    def ranked(cls, ranks: list[np.ndarray]) -> "_Layout":
        return cls([0] * len(ranks), [r.size for r in ranks], ranks)

    def fits(self, cols: list[np.ndarray], lo: list[int], hi: list[int]
             ) -> bool:
        """Whether every site with the columns ``cols``, within the
        per-axis bounds [lo, hi], has a key."""
        if self.ranks is None:
            return all(a <= b and c < a + w for a, w, b, c
                       in zip(self.lo, self.widths, lo, hi))
        return all(find_keys(r, c)[1].all() for r, c in zip(self.ranks, cols))

    def pack(self, cols: list[np.ndarray], out: np.ndarray) -> np.ndarray:
        """The keys of the sites with the columns ``cols``, by Horner steps
        in place in ``out``: int64 wraps, and wraps associatively, so the
        steps may pass its ends while every key lands in [0, 2^62]."""
        if self.ranks is not None:
            cols = [np.searchsorted(r, c) for r, c in zip(self.ranks, cols)]
        key = np.subtract(cols[0], self.lo[0], out=out)
        for j in range(1, len(cols)):
            key *= self.widths[j]
            key += cols[j]
            key -= self.lo[j]
        return key

    def shift(self, keys: np.ndarray, lag: Sequence[int], digits: dict
              ) -> tuple[np.ndarray, np.ndarray]:
        """(kept, moved): the flags of the sites with the keys ``keys``
        whose copy moved by ``lag`` is on the layout, and those copies' keys.
        Each moved axis's digit, key // stride_j % width_j, is read once into
        ``digits`` for every call on the same keys.  At offsets a copy is kept
        iff 0 <= digit + lag_j < width_j; at ranks iff ranks[j][digit] +
        lag_j is in ranks[j] and, as every site is, in int64."""
        kept, moved, delta = np.ones(keys.size, dtype=bool), keys, 0
        for j, h in enumerate(lag):
            if not h:
                continue
            ranks = None if self.ranks is None else self.ranks[j]
            # past the axis's span no copy is kept: h * stride_j and the
            # int64 bounds below would leave int64
            if abs(h) >= (self.widths[j] if ranks is None
                          else int(ranks[-1]) - int(ranks[0]) + 1):
                return np.zeros(keys.size, dtype=bool), keys[:0]
            if j not in digits:
                digits[j] = keys // self.strides[j] % self.widths[j]
            c = digits[j]
            if ranks is None:
                kept &= (-h <= c) & (c < self.widths[j] - h)
                delta += h * self.strides[j]
                continue
            z, top = ranks[c], (1 << 63) - 1
            kept &= (z <= top - h) if h > 0 else (z >= -top - 1 - h)
            # int64 adds wrap, so h mod 2^64 moves the kept ones exactly
            z += np.int64((h + top + 1) % (1 << 64) - top - 1)
            at, hit = find_keys(ranks, z)
            kept &= hit
            moved = moved + (at - c) * self.strides[j]
        moved = moved[kept]  # a copy, which the offsets then move in place
        moved += delta
        return kept, moved


def feed(cursor, checkpoints: Sequence[int]
         ) -> tuple[list[LocalTimeLedger], int]:
    """One ledger per checkpoint, fed from the source cursor ``cursor``
    (``sources.Cursor``), and the number of blocks fed.

    Blocks hold min(steps to the next checkpoint, ``BLOCK``) steps, so the
    trajectory is never held whole and a block's cost does not grow with
    the sites before it.  The ledger reserves one row per step up to the
    last checkpoint, touched only as sites are written, and the feed owns
    one int64 work array of d + 4 rows and up to BLOCK columns: each block
    is drawn into its first d rows, and the cursor and the ledger take
    their scratch from the 4 rows after them (``sources.Cursor``,
    :meth:`LocalTimeLedger.record_block`).  Each checkpoint but the last
    takes a :meth:`LocalTimeLedger.snapshot`; the last one is the ledger
    itself, without its index.  No snapshot holds a view of the work
    array.  A source that runs out first raises ValueError.
    """
    d = cursor.d
    led = LocalTimeLedger(d)
    led.reserve(checkpoints[-1])
    work = np.empty((d + 4, min(BLOCK, checkpoints[-1])), dtype=np.int64)
    snaps, blocks = [], 0
    for c in checkpoints:
        while led.n < c:
            size = min(c - led.n, BLOCK)
            block = cursor.take(size, out=work)
            if len(block) < size:
                raise ValueError("source exhausted before the last "
                                 "checkpoint")
            led.record_block(block, work[d:])
            blocks += 1
        snaps.append(led.snapshot() if c < checkpoints[-1] else led)
    # read no more: the snapshots' sites are its own
    led._keys = led._nums = led._runs = None
    return snaps, blocks


def exact_sum(terms: np.ndarray, work: np.ndarray | None = None
              ) -> tuple[int, int]:
    """(num, exp) with num * 2^exp the exact sum of finite float64 terms.

    ``np.frexp`` splits each term into a 53-bit mantissa and an exponent,
    and each mantissa into a high half of 27 bits and a low half of 26,
    both integers held in float64.  ``np.bincount`` adds the halves per
    exponent, exactly while a call has fewer than 2^26 terms, so longer
    terms go in pieces of ``_PIECE``; a Horner pass over the exponents joins
    the sums into one Python int.  ``work``, an int64 array of shape
    (3, terms.size) or wider, takes the mantissas, the exponents and the
    high halves; by default they are allocated.
    """
    terms = np.asarray(terms, dtype=np.float64)
    n = terms.size
    if work is None:
        work = np.empty((3, n), dtype=np.int64)
    mant, exp, high = (work[0, :n].view(np.float64), work[1, :n],
                       work[2, :n].view(np.float64))
    np.frexp(terms, out=(mant, exp))
    mant *= 2.0**27  # term = mant * 2^(exp - 27), 26 bits after the point
    np.floor(mant, out=high)
    mant -= high  # exact: the fraction, a multiple of 2^-26
    mant *= 2.0**26
    low = int(exp.min(initial=0))
    exp -= low
    size = int(exp.max(initial=0)) + 1
    sums = [0] * size
    for a in range(0, n, _PIECE):
        part = slice(a, a + _PIECE)
        for e, (hi, lo) in enumerate(zip(
                np.bincount(exp[part], high[part], size).tolist(),
                np.bincount(exp[part], mant[part], size).tolist())):
            sums[e] += (int(hi) << 26) + int(lo)
    num = 0
    for s in reversed(sums):
        num = (num << 1) + s
    return num, low - 53


def ls_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """The least-squares slope of ``ys`` on ``xs`` in closed form, S_xy /
    S_xx about the means, each sum correctly rounded (``math.fsum``): no
    LAPACK call, so no bit depends on the BLAS kernel."""
    mx, my = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    return (math.fsum((a - mx) * (b - my) for a, b in zip(xs, ys))
            / math.fsum((a - mx) ** 2 for a in xs))


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


def pack_sites(coords: np.ndarray) -> tuple[np.ndarray, _Layout]:
    """Injectively pack (n, d) int64 coordinates into int64 keys in
    [0, 2^62), in the lexicographic order of the sites.

    Returns the keys and their :class:`_Layout`, which carries the strides:
    key = sum_j (z_j - min_j z_j) stride_j, from :func:`key_strides` at
    widths spread_j + 1, or, where those do not fit in 62 bits, the same
    sum over the dense rank of each axis's coordinate, with the counts of
    distinct values as widths; ranks that do not fit either raise.  A lag
    moves the keys by :meth:`_Layout.shift`.
    """
    coords = _as_coords(coords)
    n = coords.shape[0]
    # per column: a min over axis 0 of an (n, d) array is ~20x slower
    cols = [coords[:, j] for j in range(coords.shape[1])]
    lo = [int(c.min()) if n else 0 for c in cols]
    widths = [int(c.max()) - a + 1 if n else 1 for c, a in zip(cols, lo)]
    if key_strides(widths) is None:
        layout = _Layout.ranked([np.unique(c) for c in cols])
    else:
        layout = _Layout(lo, widths)
    return layout.pack(cols, np.empty(n, dtype=np.int64)), layout


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
    for a in range(0, n, BLOCK):  # counters of at most BLOCK entries
        key[a:a + BLOCK] |= np.arange(a, min(a + BLOCK, n))
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


def find_keys(keys: np.ndarray, values: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """(at, hit): each of ``values`` is in the increasing array ``keys``
    (nonempty unless ``values`` is) iff ``hit``, at row ``at``."""
    at = np.searchsorted(keys, values)
    np.minimum(at, keys.size - 1, out=at)
    return at, keys[at] == values


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


def local_time_block(coords: Sequence[Sequence[int]] | np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(occupation, sites, times) of a whole trajectory in one shot, the
    reference route of :func:`trajectory_stats` beside the ledger's runs:
    occupation[i] is the local time of coords[i] just after step i, and
    ``sites`` (k, d) and ``times`` (k,) are the distinct sites in
    first-visit order and their local times.  :func:`sort_keys` gives the
    stable order of the :func:`pack_sites` keys, which puts the steps of
    each site together and in time order, so the occupation counts 1, 2,
    ... along each group, and a group's first row is the site's first
    visit."""
    coords = _as_coords(coords)
    b = coords.shape[0]
    order, key = sort_keys(pack_sites(coords)[0])
    starts = np.flatnonzero(run_starts(key))
    times = np.diff(starts, append=b)
    occ = np.empty(b, dtype=np.int64)
    occ[order] = np.arange(1, b + 1) - np.repeat(starts, times)
    first = order[starts]
    by_visit = np.argsort(first)
    return occ, coords[first[by_visit]], times[by_visit]


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
    """Per-step statistics from one :func:`local_time_block`, the
    vectorized reference route beside the ledger.  ``pqd`` is a
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

    slope = ls_slope([math.log(math.log(n)) for n, _, _, _ in checkpoints],
                     [math.log(n * n / v) for n, _, v, _ in checkpoints])

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
