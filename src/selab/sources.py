"""Generators of stationary site sequences on Z^d.

Every source is a frozen configuration; realizations are pure functions of
(config, seed).  Each variant has one generation path, a block path:
:func:`cursor` returns a cursor whose ``take(count)`` draws the next
``count`` sites as a (count, d) int64 array.  The randomness is
counter-based, so the block at any offset is a pure function of (seed,
offset) and any split into blocks gives the same sites.  :func:`generate`
is one block from a fresh cursor, and :func:`stream` is an adapter that
yields the cursor's blocks as tuples, one site at a time.  A random walk's
draws can also be read as packed site keys, with no sites: :func:`walk_keys`
takes the same uniforms and atom indices as the cursor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import rng

Site = tuple[int, ...]


def is_int(x) -> bool:
    """Whether x is an integer: a Python or numpy int, and not a bool.

    The one rule of the package, shared with the plan parser: ``int`` would
    cut a float such as 1.5 to 1, and a cut atom or site would silently
    describe another source."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def as_int(x) -> int:
    """x as a Python int; ValueError unless :func:`is_int` holds."""
    if not is_int(x):
        raise ValueError(f"{x!r} is not an integer")
    return int(x)


def _check_probs(probs: Sequence[float]) -> None:
    if any(p < 0 for p in probs):
        raise ValueError("probabilities must be nonnegative")
    if abs(sum(probs) - 1.0) > 1e-12:
        raise ValueError(f"probabilities sum to {sum(probs)}, expected 1")


@dataclass(frozen=True)
class StepDistribution:
    """Finitely supported probability law on Z^d.

    Atom order is preserved as given: sampling inverts the cumulative
    probabilities in that order, so two laws with the same atom list produce
    identical draws from identical uniform streams.  The inverse is
    :attr:`inverse_cdf`, one guide table per law built on first use: each
    uniform u in [0, 1) draws the atom ``np.searchsorted(cum, u, "right")``
    of the running sums cum, the last set to 1, exactly (see
    :class:`rng.InverseCdf`), zero-probability atoms included.
    """

    atoms: tuple[tuple[Site, float], ...]

    def __init__(self, atoms: Iterable[tuple[Sequence[int], float]]):
        atoms = tuple((tuple(map(as_int, a)), float(p)) for a, p in atoms)
        if not atoms:
            raise ValueError("need at least one atom")
        d = len(atoms[0][0])
        if any(len(a) != d for a, _ in atoms):
            raise ValueError("all atoms must have the same dimension")
        if len({a for a, _ in atoms}) != len(atoms):
            raise ValueError("duplicate atoms")
        _check_probs([p for _, p in atoms])
        object.__setattr__(self, "atoms", atoms)

    @property
    def d(self) -> int:
        return len(self.atoms[0][0])

    def support(self) -> np.ndarray:
        return np.array([a for a, _ in self.atoms], dtype=np.int64)

    def probs(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms])

    def mean(self) -> np.ndarray:
        return self.probs() @ self.support().astype(np.float64)

    def covariance(self) -> np.ndarray:
        x = self.support().astype(np.float64) - self.mean()
        return (x * self.probs()[:, None]).T @ x

    def is_centered(self) -> bool:
        return bool(np.all(np.abs(self.mean()) < 1e-15))

    def radius(self) -> int:
        return int(np.abs(self.support()).max())

    def is_symmetric(self) -> bool:
        table = dict(self.atoms)
        return all(table.get(tuple(-c for c in a)) == p for a, p in self.atoms)

    @cached_property
    def inverse_cdf(self) -> rng.InverseCdf:
        return rng.InverseCdf(self.probs())


def simple_walk(d: int) -> StepDistribution:
    """Nearest-neighbour law: +-e_i each with probability 1/(2d)."""
    atoms = []
    for i in range(d):
        for s in (1, -1):
            a = [0] * d
            a[i] = s
            atoms.append((tuple(a), 1.0 / (2 * d)))
    return StepDistribution(atoms)


@dataclass(frozen=True)
class Classification:
    recurrence: str  # "recurrent" | "transient" | "deterministic-excluded"
    aperiodic: bool


def _extgcd(a: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (abs(a), (1 if a >= 0 else -1), 0)
    g, s, t = _extgcd(b, a % b)
    return (g, t, s - (a // b) * t)


def lattice_basis(vectors, d: int) -> list[list[int] | None]:
    """Echelon basis of the lattice a set of integer vectors generates.

    Row j is None or a generator whose first nonzero entry sits at position
    j.  Unimodular row operations keep the lattice; its rank is the number
    of rows that are not None.
    """
    basis: list[list[int] | None] = [None] * d
    for v in vectors:
        v = [int(c) for c in v]
        for j in range(d):
            if v[j] == 0:
                continue
            b = basis[j]
            if b is None:
                basis[j] = v
                break
            g, s, t = _extgcd(b[j], v[j])
            new_b = [s * bi + t * vi for bi, vi in zip(b, v)]
            v = [(b[j] // g) * vi - (v[j] // g) * bi for bi, vi in zip(b, v)]
            basis[j] = new_b
    return basis


def lattice_index(basis: list[list[int] | None]) -> int:
    """Index in Z^d of the lattice of an echelon basis; 0 below full rank."""
    if any(b is None for b in basis):
        return 0
    return abs(math.prod(b[j] for j, b in enumerate(basis)))


def lattice_contains(basis: list[list[int] | None], x) -> bool:
    """Whether the integer vector x lies in the lattice of an echelon basis."""
    x = [int(c) for c in x]
    for j, b in enumerate(basis):
        if x[j] == 0:
            continue
        if b is None or x[j] % b[j]:
            return False
        f = x[j] // b[j]
        x = [xi - f * bi for xi, bi in zip(x, b)]
    return True


def classify(dist: StepDistribution) -> Classification:
    """Recurrence/aperiodicity classification of the random walk with law mu.

    The walk is ruled out as degenerate when the law is a single atom;
    aperiodic means the support generates Z^d (walk not confined to a
    coset of a proper sublattice).  A centered walk is recurrent iff its
    support spans at most two dimensions, whatever d is (Chung-Fuchs), and
    any walk with nonzero mean is transient.
    """
    atoms = [(a, p) for a, p in dist.atoms if p > 0]
    d = dist.d
    if len(atoms) == 1:
        return Classification("deterministic-excluded", False)
    basis = lattice_basis([a for a, _ in atoms], d)
    aperiodic = lattice_index(basis) == 1
    rank = sum(b is not None for b in basis)
    if dist.is_centered() and rank <= 2:
        rec = "recurrent"
    else:
        rec = "transient"
    return Classification(rec, aperiodic)


# ---------------------------------------------------------------------------
# source configurations


@dataclass(frozen=True)
class RandomWalkSource:
    """z_k = zeta_0 + ... + zeta_k with i.i.d. steps of the given law."""
    dist: StepDistribution
    seed: int

    @property
    def d(self) -> int:
        return self.dist.d


@dataclass(frozen=True)
class CoboundarySource:
    """z_k = psi_k - psi_0 with psi_j i.i.d. of the given law (z_0 = 0).

    Bounded realization: the sequence never leaves support - support.
    """
    law: StepDistribution
    seed: int

    @property
    def d(self) -> int:
        return self.law.d


@dataclass(frozen=True)
class WindowFunctional:
    """z_k = sum_{j<=k} g(xi_j, ..., xi_{j+r-1}) over an i.i.d. symbol stream.

    ``table`` must assign a Z^d increment to every word of length r over the
    alphabet.  With r = 1 and g the identity this is exactly a random walk.
    """
    inner: tuple[tuple[int, float], ...]  # alphabet symbol -> probability
    r: int
    table: tuple[tuple[tuple[int, ...], Site], ...]
    seed: int

    def __init__(self, inner, r, table, seed):
        inner = tuple((as_int(a), float(p)) for a, p in inner)
        _check_probs([p for _, p in inner])
        table = tuple((tuple(map(as_int, w)), tuple(map(as_int, s)))
                      for w, s in (table.items() if isinstance(table, dict) else table))
        r = as_int(r)
        if r < 1:
            raise ValueError("window length must be >= 1")
        words = {w for w, _ in table}
        alphabet = [a for a, _ in inner]
        need = len(alphabet) ** r
        if len(words) != len(table):
            raise ValueError("duplicate words in table")
        if len(words) != need:
            raise ValueError(f"table must cover all {need} words of length {r}")
        d = len(table[0][1])
        if any(len(s) != d for _, s in table):
            raise ValueError("table outputs must share one dimension")
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "seed", seed)

    @property
    def d(self) -> int:
        return len(self.table[0][1])

    @cached_property
    def inverse_cdf(self) -> rng.InverseCdf:
        """The alphabet's symbol indices from uniforms."""
        return rng.InverseCdf([p for _, p in self.inner])


@dataclass(frozen=True)
class ExplicitSource:
    """Replays a fixed finite site list; generation past the end errors."""
    sites: tuple[Site, ...]

    def __init__(self, sites):
        sites = tuple(tuple(map(as_int, s)) for s in sites)
        if not sites:
            raise ValueError("explicit source needs at least one site")
        if any(len(s) != len(sites[0]) for s in sites):
            raise ValueError("sites must share one dimension")
        object.__setattr__(self, "sites", sites)

    @property
    def d(self) -> int:
        return len(self.sites[0])


SourceConfig = (RandomWalkSource | CoboundarySource | WindowFunctional |
                ExplicitSource)


class Cursor:
    """A position in one realization; ``take`` draws the next block of sites.

    ``block(offset, count)`` gives the sites (or, when ``cumulative``, the
    steps) at indices offset .. offset + count - 1 as a (count, d) int64
    array, a pure function of (config, offset); the cursor carries only the
    offset and the last position, so any split into blocks gives the same
    sites.  A finite source returns a short block once it runs out.  A
    cumulative block must be a fresh array: ``take`` adds the carried
    position to its first step in place, then sums it.  int64 addition
    wraps, and wraps associatively, so the sites are those of adding the
    position to every partial sum.
    """

    def __init__(self, d: int, block, cumulative: bool):
        self.d = d
        self.offset = 0
        self._block = block
        self._pos = np.zeros(d, dtype=np.int64) if cumulative else None

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` sites as a (count, d) int64 array."""
        out = self._block(self.offset, count)
        if self._pos is not None and len(out):
            out[0] += self._pos
            out = np.cumsum(out, axis=0)
            self._pos = out[-1].copy()
        self.offset += len(out)
        return out


def _atom_indices(law: StepDistribution, seed: int, offset: int, count: int,
                  work: np.ndarray | None = None) -> np.ndarray:
    """The atom indices of i.i.d. draws offset .. offset + count - 1 of the
    law: :func:`rng.uniforms` through the law's guide table.  ``work``, a
    float64 array of shape (2, count), takes the counter words and then
    the uniforms in row 0, and the indices (as intp) in row 1; by default
    each is a fresh array."""
    # rng.uniforms is looked up per call, so wrappers installed on it see
    # every draw
    u, idx = (None, None) if work is None else (work[0], work[1].view(np.intp))
    return law.inverse_cdf(rng.uniforms(seed, count, offset, out=u), idx)


def _law_block(law: StepDistribution, seed: int, table: np.ndarray):
    """Blocks of i.i.d. draws of the law, each read off the per-atom
    ``table``, the atoms' coordinates (``law.support()``).  :func:`walk_keys`
    reads the same atom indices off the atoms' keys, so both draw the same
    steps."""
    return lambda offset, count: np.take(
        table, _atom_indices(law, seed, offset, count), axis=0)


def walk_keys(config: RandomWalkSource, n: int, strides: Sequence[int],
              work: np.ndarray) -> np.ndarray:
    """The keys sum_j z_j stride_j of the first n sites of a random walk,
    without the sites.

    Packing is linear, so the key of z_k = zeta_0 + ... + zeta_k is the
    running sum of the steps' keys: one int64 key per atom, drawn with the
    cursor's own uniforms and atom indices, gathered over the indices in
    place, and one cumulative sum in place.  The strides must give every
    site within n steps, and each site a field lag away, an exact key, as
    :func:`ledger.key_strides` does at width 2 (n * radius + margin) + 1
    per axis.  ``work``, a float64 array of shape (2, n) that a caller
    sizes once for many walks, holds the draw (see :func:`_atom_indices`),
    and the keys returned are its row 1, written over the indices.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    law = config.dist
    atom_keys = law.support() @ np.array(strides, dtype=np.int64)
    keys = _atom_indices(law, config.seed, 0, n, work)
    # each output reads only its own index, as in rng.InverseCdf
    np.take(atom_keys, keys, out=keys, mode="clip")
    return np.cumsum(keys, out=keys)


def _window_block(config: WindowFunctional):
    """Steps g(xi_k, ..., xi_{k+r-1}) through a lookup table indexed by the
    base-|alphabet| code of each window of symbol indices."""
    sym_pos = {a: i for i, (a, _) in enumerate(config.inner)}
    base, r = len(sym_pos), config.r
    lut = np.empty((base ** r, config.d), dtype=np.int64)
    for w, s in config.table:
        c = 0
        for x in w:
            c = c * base + sym_pos[x]
        lut[c] = s

    def block(offset, count):
        sym = config.inverse_cdf(rng.uniforms(config.seed, count + r - 1,
                                              offset))
        code = np.zeros(count, dtype=np.int64)
        for j in range(r):
            code = code * base + sym[j:j + count]
        return lut[code]
    return block


def cursor(config):
    """A fresh :class:`Cursor` (or a rotation source's own cursor) at the
    start of the realization."""
    if isinstance(config, RandomWalkSource):
        dist = config.dist
        return Cursor(config.d, _law_block(dist, config.seed, dist.support()),
                      True)
    if isinstance(config, CoboundarySource):
        psi = _law_block(config.law, config.seed, config.law.support())
        psi0 = psi(0, 1)[0]
        return Cursor(config.d, lambda offset, count: psi(offset, count) - psi0,
                      False)
    if isinstance(config, WindowFunctional):
        return Cursor(config.d, _window_block(config), True)
    if isinstance(config, ExplicitSource):
        sites = np.array(config.sites, dtype=np.int64)
        return Cursor(config.d,
                      lambda offset, count: sites[offset:offset + count], False)
    # rotation-driven sources live in selab.rotation; duck-type on cursor()
    make = getattr(config, "cursor", None)
    if make is not None:
        return make()
    raise TypeError(f"unknown source config {type(config).__name__}")


def generate(config, n: int) -> np.ndarray:
    """First n sites of the realization as an (n, d) int64 array."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = cursor(config).take(n)
    if len(out) < n:
        raise ValueError(f"source exhausted: has {len(out)} sites, "
                         f"{n} requested")
    return out


_STREAM_BLOCK = 4096


def stream(config) -> Iterator[Site]:
    """Yield the realization site by site, as tuples of ints.

    An adapter over :func:`cursor` blocks, so the first n yields equal
    ``generate(config, n)``; it ends only where a finite source runs out.
    """
    cur = cursor(config)
    while True:
        block = cur.take(_STREAM_BLOCK)
        yield from map(tuple, block.tolist())
        if len(block) < _STREAM_BLOCK:
            return
