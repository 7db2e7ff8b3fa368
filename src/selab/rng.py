"""Counter-based deterministic randomness.

Every random quantity in the package is a pure function of a 64-bit seed and
an integer counter (or a lattice site), computed with a splitmix64-style bit
mixer.  That makes replicate streams splittable without coordination and lets
site-keyed values be evaluated lazily, in any order, on scalars or numpy
arrays.

A site's hash folds its coordinates in axis order, so a site set hashed
under many seeds (:class:`Sites`) is grouped once by its first d - 1
coordinates: per seed the hash then costs d - 1 mixer passes over the
distinct prefixes, one gather and 2 passes over the sites.

A finite law draws its atoms from uniforms through :class:`InverseCdf`,
one exact guide-table inverse of its cumulative probabilities.
"""

from __future__ import annotations

import numpy as np

from .ledger import _as_coords, pack_sites, run_starts, sort_keys

MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

_U_GAMMA = np.uint64(_GAMMA)
_U_M1 = np.uint64(_M1)
_U_M2 = np.uint64(_M2)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)

_INV53 = float(2.0**-53)


def mix64(z: int) -> int:
    """Finalizing 64-bit mixer (splitmix64 output function)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


# words per piece of mix64_array: its temporary is 128 KiB
_PIECE = 1 << 14


def mix64_array(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64`, in place: the writable 1-d uint64 array
    ``z`` is overwritten with its mix and returned.  It is mixed in pieces
    of ``_PIECE`` words, through one temporary of that size."""
    t = np.empty(min(z.size, _PIECE), dtype=np.uint64)
    for a in range(0, z.size, _PIECE):
        p = z[a:a + _PIECE]
        s = t[:p.size]
        np.right_shift(p, _U30, out=s)
        p ^= s
        p *= _U_M1
        np.right_shift(p, _U27, out=s)
        p ^= s
        p *= _U_M2
        np.right_shift(p, _U31, out=s)
        p ^= s
    return z


def derive(seed: int, *parts: int | str) -> int:
    """Derive a child seed from a parent seed and a label path.

    Parts may be small strings (stream names) or integers (replicate
    indices); the result is a pure function of the arguments.
    """
    h = mix64((seed ^ _GAMMA) & MASK64)
    for p in parts:
        if isinstance(p, str):
            for b in p.encode():
                h = mix64(h ^ b)
        else:
            h = mix64((h ^ p) & MASK64)
    return h


def uniform_at(seed: int, index: int) -> float:
    """The index-th uniform in [0, 1) of the stream keyed by ``seed``."""
    h = mix64((seed + (index + 1) * _GAMMA) & MASK64)
    return (h >> 11) * _INV53


def uniforms(seed: int, count: int, offset: int = 0,
             out: np.ndarray | None = None) -> np.ndarray:
    """Vector of uniforms ``[uniform_at(seed, offset + i) for i < count]``.

    The counter words i gamma + seed + (offset + 1) gamma mod 2^64 are
    mixed in place and read by :func:`word_uniforms` in place.  ``out``, a
    float64 array of ``count`` entries, holds the words and then the
    uniforms, and is returned; by default it is a fresh one.  The counters
    i and the mixer's temporary are the other arrays."""
    u = np.empty(count) if out is None else out
    h = np.multiply(np.arange(count, dtype=np.uint64), _U_GAMMA,
                    out=u.view(np.uint64))
    h += np.uint64((seed + (offset + 1) * _GAMMA) & MASK64)
    return word_uniforms(mix64_array(h), out=u)


def word_uniforms(h: np.ndarray, out: np.ndarray | None = None
                  ) -> np.ndarray:
    """The uniform (h >> 11) * 2^-53 in [0, 1) of each uint64 word of h:
    its top 53 bits, so the low 11 bits are free to carry other data.  The
    shifted words are below 2^53, so their int64 view converts exactly.
    ``out``, a float64 array of h's size, receives them (h's own memory
    may be it, and is then overwritten)."""
    shifted = np.right_shift(h, _U11,
                             out=None if out is None else out.view(np.uint64))
    return np.multiply(shifted.view(np.int64), _INV53, out=out)


def _axis_words(column: np.ndarray, j: int,
                out: np.ndarray | None = None) -> np.ndarray:
    """The seed-free word mix64(c + (j + 1) * gamma) of each coordinate c
    on axis j, into the uint64 array ``out`` if given."""
    return mix64_array(np.add(column.view(np.uint64),
                              np.uint64((j + 1) * _GAMMA & MASK64), out=out))


def _fold(h: np.ndarray, words) -> np.ndarray:
    """Fold each word array into the state h in place: h = mix64(h ^ w)."""
    for w in words:
        h ^= w
        mix64_array(h)
    return h


class Sites:
    """Lattice sites, grouped for hashing under many seeds.

    :func:`hash_sites` folds the seed-free word mix64(c_j + (j + 1) * gamma)
    of each coordinate c_j into a seed-keyed state, axis 0 first, so sites
    that share their first d - 1 coordinates share the first d - 1 folds.
    Built once per site set from the (n, d) int64 coordinates (a 1-d array
    is n sites of Z): the sites are grouped by that prefix through
    :func:`ledger.sort_keys`; ``head`` holds the d - 1 prefix axes' words at
    the ``prefixes`` distinct prefixes, ``prefix`` each site's prefix index
    and ``last`` each site's last-axis word.  No word depends on the seed,
    and the words are all that :func:`hash_sites` reads: the object keeps
    no coordinates, so the caller's may be freed once it is built.
    ``coords`` is None unless the caller sets it, as the moving-average
    field's route does, which hashes shifted copies of them per seed.
    Beside ``prefix`` and ``last`` the grouping takes one n-sized int64
    temporary, the order, and the run flags: the prefix numbers are
    counted in the sorted keys' memory, which then holds ``last``.
    """

    def __init__(self, coords):
        coords = _as_coords(coords)
        self.coords = None
        n, d = coords.shape
        head = coords[:, :-1]
        if n and d > 1:
            order, key = sort_keys(pack_sites(head)[0])
            new = run_starts(key)
            self.prefix = np.empty(n, dtype=np.int64)
            self.prefix[order] = np.subtract(np.cumsum(new, out=key), 1,
                                             out=key)
            head = head[order[new]]
        else:  # d = 1 or no sites: the sites, if any, share one prefix
            self.prefix = np.zeros(n, dtype=np.int64)
            head, key = head[:min(n, 1)], np.empty(n, dtype=np.int64)
        self.prefixes = head.shape[0]
        self.head = [_axis_words(head[:, j], j) for j in range(d - 1)]
        self.last = _axis_words(coords[:, -1], d - 1, key.view(np.uint64))

    def __len__(self) -> int:
        return self.last.size


def hash_sites(seed: int, sites, out: np.ndarray | None = None
               ) -> np.ndarray:
    """Hash sites to uint64 words, keyed by seed, into the uint64 array
    ``out`` if given.

    From h = mix64(seed ^ gamma), each axis j's word w_j (see
    :class:`Sites`) is folded in as h = mix64(h ^ w_j), and the result is
    mix64(h).  A :class:`Sites` runs the d - 1 prefix folds once per
    distinct prefix, gathers them to the sites and runs the last fold and
    the final mix there: (d - 1) P + 2 n mixed words for P prefixes.  An
    array of coordinates is hashed flat, d + 1 passes over the sites after
    their d word passes.  Pure in (seed, coordinates): the same site always
    hashes to the same word no matter how or when it is visited.
    """
    h0 = mix64(seed ^ _GAMMA)
    if isinstance(sites, Sites):
        head = _fold(np.full(sites.prefixes, h0, dtype=np.uint64), sites.head)
        # mode "clip": every index is in range, and "raise" would buffer out
        h = np.take(head, sites.prefix, out=out, mode="clip")
        words = [sites.last]
    else:
        coords = _as_coords(sites)
        h = np.empty(coords.shape[0], dtype=np.uint64) if out is None else out
        h.fill(h0)
        words = (_axis_words(coords[:, j], j) for j in range(coords.shape[1]))
    return mix64_array(_fold(h, words))


def site_uniforms(seed: int, sites) -> np.ndarray:
    """Uniforms in [0, 1), one per site, keyed purely by (seed, site)."""
    return word_uniforms(hash_sites(seed, sites))


class InverseCdf:
    """Exact inverse cdf of a finite law: a guide table (Chen & Asau 1974).

    For probabilities p_0 .. p_{K-1} with running sums c_i, the last taken
    as 1, ``inverse(u)`` gives each u in [0, 1) the atom index
    ``np.searchsorted(c, u, side="right")``: the number of thresholds
    c_0 .. c_{K-2} at or below u.  Thresholds past 1 (probabilities that
    sum a little over 1) are never at or below u, so they count for none.

    The unit interval is cut into 2^B buckets.  u * 2^B only moves the
    exponent, so its floor is u's bucket b exactly, and ``start[b]``
    counts the thresholds at or below b / 2^B.  Any other threshold at or
    below u lies in (b, b + 1) / 2^B; ``passes`` is the most thresholds any
    bucket holds there, and as many passes of ``idx += u >= t[idx]`` over
    the sorted, equally scaled thresholds t, ended by inf, step idx onto
    the count.  Equal thresholds (zero-probability atoms) are counted as
    searchsorted counts them, one pass each.  B is the least value from
    log2 K up at which no bucket holds two thresholds, else the least one
    up to log2 K + 4 with the fewest passes.  A law builds its table once;
    the thresholds are its sequential ``np.cumsum``, the very floats that
    searchsorted would be given.
    """

    def __init__(self, probs):
        th = np.cumsum(probs, dtype=np.float64)[:-1]
        low = (th.size + 1).bit_length()
        self.passes = th.size + 1  # more than any bucket can hold
        for bits in range(low, low + 5):
            edges = np.arange(2**bits + 1) / 2**bits  # exact
            start = np.searchsorted(th, edges[:-1], side="right")
            passes = int(np.max(np.searchsorted(th, edges[1:], side="left")
                                - start))
            if passes < self.passes:  # equal thresholds never split
                self.passes, self.scale, self.start = passes, 2.0**bits, start
            if passes <= 1:
                break
        self.thresholds = np.append(th * self.scale, np.inf)

    def __call__(self, u: np.ndarray, out: np.ndarray | None = None
                 ) -> np.ndarray:
        """Atom indices of the uniforms u in [0, 1).  u is overwritten: it
        is scaled by 2^B in place, and the buckets become the indices in
        place.  ``out``, an intp array of u's shape, receives the indices
        and is returned; by default it is a fresh one.  Each pass gathers
        its thresholds into one temporary array."""
        u *= self.scale
        idx = np.empty(u.shape, np.intp) if out is None else out
        np.copyto(idx, u, casting="unsafe")  # the floor: u >= 0
        # each output reads only its own index; "clip" (a no-op on these
        # in-range indices) writes to out directly, where "raise" would
        # write to a copy of it
        np.take(self.start, idx, out=idx, mode="clip")
        for _ in range(self.passes):
            idx += u >= np.take(self.thresholds, idx)
        return idx
