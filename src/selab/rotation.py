"""Irrational rotations, step-function cocycles and special flows.

Angles and circle points are 128-bit fixed-point integers (value / 2^128),
so orbits of length 10^6 stay exact to ~2^-108 even for angles given only
through their continued fraction.  The rotation angle itself is replaced by
a deep convergent p/q with q >= 2^64; orbits shorter than q are identical
to the irrational orbit at this resolution.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, cycle, islice
from typing import Iterator, Sequence

import numpy as np

from . import rng, sources

FIXED_BITS = 128
ONE = 1 << FIXED_BITS
_FP_MASK = ONE - 1
NEAR_THRESHOLD = 1 << (FIXED_BITS - 100)  # ~2^-100 of the circle


class ContinuedFraction:
    """Continued fraction [0; a_1, a_2, ...] of an angle in (0, 1)."""

    def __init__(self, coeffs: Sequence[int] = (), periodic: Sequence[int] = ()):
        coeffs = tuple(map(sources.as_int, coeffs))
        periodic = tuple(map(sources.as_int, periodic))
        if not coeffs and not periodic:
            raise ValueError("need at least one partial quotient")
        if any(a < 1 for a in coeffs + periodic):
            raise ValueError("partial quotients must be positive integers")
        self._coeffs = coeffs
        self._periodic = periodic

    @classmethod
    def golden(cls) -> "ContinuedFraction":
        """[0; 1, 1, 1, ...] = (sqrt(5) - 1) / 2."""
        return cls(periodic=(1,))

    def _convergents(self) -> Iterator[tuple[int, int]]:
        """(p_1, q_1), (p_2, q_2), ... via the standard recursion
        q_k = a_k q_{k-1} + q_{k-2} started from (p_0, q_0) = (0, 1),
        (p_{-1}, q_{-1}) = (1, 0); ends with a finite expansion."""
        p_prev, q_prev, p, q = 1, 0, 0, 1
        for a in chain(self._coeffs, cycle(self._periodic)):
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
            yield p, q

    def convergents(self, depth: int) -> list[tuple[int, int]]:
        """[(p_1, q_1), ..., (p_depth, q_depth)]."""
        out = list(islice(self._convergents(), depth))
        if len(out) < depth:
            raise IndexError(f"only {len(out)} partial quotients available")
        return out

    def convergent(self, depth: int) -> Fraction:
        p, q = self.convergents(depth)[-1]
        return Fraction(p, q)

    def deep_convergent(self, min_q: int = 1 << 64) -> tuple[int, int]:
        """First convergent with denominator >= min_q (or the deepest one
        available for a finite expansion)."""
        p, q = 0, 1
        conv = self._convergents()
        while q < min_q and (pq := next(conv, None)):
            p, q = pq
        return p, q

    def angle_fixed_point(self, min_q: int = 1 << 64) -> int:
        p, q = self.deep_convergent(min_q)
        return (p << FIXED_BITS) // q


def fraction_to_fp(x: Fraction) -> int:
    x = Fraction(x)
    if not 0 <= x < 1:
        raise ValueError("circle points live in [0, 1)")
    return (x.numerator << FIXED_BITS) // x.denominator


def point_from_seed(seed: int) -> int:
    """A reproducible 128-bit circle point derived from a seed."""
    hi = rng.derive(seed, "circle-point", 0)
    lo = rng.derive(seed, "circle-point", 1)
    return ((hi << 64) | lo) & _FP_MASK


@dataclass(frozen=True)
class StepFunction:
    """Integer-valued step function on [0, 1) with pieces [b_i, b_{i+1}).

    Breakpoints are exact rationals, the first must be 0; evaluation is
    left-closed right-open everywhere.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[int, ...]

    def __init__(self, breakpoints, values):
        breakpoints = tuple(Fraction(b) for b in breakpoints)
        values = tuple(map(sources.as_int, values))
        if len(breakpoints) != len(values) or not values:
            raise ValueError("need matching nonempty breakpoints and values")
        if breakpoints[0] != 0:
            raise ValueError("first breakpoint must be 0")
        if any(not 0 <= b < 1 for b in breakpoints):
            raise ValueError("breakpoints must lie in [0, 1)")
        if any(b2 <= b1 for b1, b2 in zip(breakpoints, breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "values", values)

    @classmethod
    def square_wave(cls) -> "StepFunction":
        """+1 on [0, 1/2), -1 on [1/2, 1); zero mean, total variation 2."""
        return cls([Fraction(0), Fraction(1, 2)], [1, -1])

    def mean(self) -> Fraction:
        bps = list(self.breakpoints) + [Fraction(1)]
        return sum((Fraction(v) * (b2 - b1)
                    for v, b1, b2 in zip(self.values, bps, bps[1:])),
                   Fraction(0))

    def breakpoints_fp(self) -> list[int]:
        return [fraction_to_fp(b) for b in self.breakpoints]


_M64 = (1 << 64) - 1
_ORBIT_BLOCK = 1 << 16  # orbit points per block of a bulk walk


def _orbit(start: int, alpha: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """start + j * alpha mod 2^128 for j < count, as (hi, lo) uint64 limbs.

    The low limb wraps mod 2^64; it carries into the high limb exactly when
    it decreases, because each step adds less than 2^64 to it.
    """
    j = np.arange(count, dtype=np.uint64)
    lo = np.uint64(start & _M64) + j * np.uint64(alpha & _M64)
    carry = np.zeros(count, dtype=np.uint64)
    np.cumsum(lo[1:] < lo[:-1], dtype=np.uint64, out=carry[1:])
    hi = np.uint64(start >> 64) + j * np.uint64(alpha >> 64) + carry
    return hi, lo


def _at_least(hi: np.ndarray, lo: np.ndarray, v: int) -> np.ndarray:
    """Mask of orbit points >= v, for 0 <= v <= ONE."""
    if v >= ONE:
        return np.zeros(hi.shape, dtype=bool)
    v_hi, v_lo = np.uint64(v >> 64), np.uint64(v & _M64)
    return (hi > v_hi) | ((hi == v_hi) & (lo >= v_lo))


def _in_interval(hi: np.ndarray, lo: np.ndarray, a: int, b: int) -> np.ndarray:
    """Mask of orbit points in [a, b), for 0 <= a <= b <= ONE."""
    return _at_least(hi, lo, a) & ~_at_least(hi, lo, b)


class RotationCocycle:
    """Source emitting z_k = sum_{j<=k} f(x + j*alpha mod 1), k = 0, 1, ...

    One-dimensional lattice sequence; requires f to have exact zero mean
    (otherwise the sums drift and the sequence is a walk, not a cocycle).
    Its cursors count ``near_hits``, the evaluations within ~2^-100 of a
    breakpoint, where the fixed-point orbit could disagree with the
    irrational one.
    """

    d = 1

    def __init__(self, cf: ContinuedFraction, f: StepFunction, x_fp: int):
        if f.mean() != 0:
            raise ValueError(f"step function must have zero mean, got {f.mean()}")
        self.cf = cf
        self.f = f
        self.alpha_fp = cf.angle_fixed_point()
        self.x_fp = x_fp & _FP_MASK
        self._bps = f.breakpoints_fp()
        self._vals = f.values

    def cursor(self) -> "CocycleCursor":
        return CocycleCursor(self)

    def generate(self, n: int) -> np.ndarray:
        return self.cursor().take(n)

    def stream(self) -> Iterator[tuple[int]]:
        return sources.stream(self)


class CocycleCursor(sources.Cursor):
    """Block path of a :class:`RotationCocycle`: the steps f(x + j*alpha)
    from the orbit as two uint64 limbs and the pieces of f by limb compares,
    summed by :class:`sources.Cursor`; ``near_hits`` counts this
    realization's evaluations near a breakpoint.

    Each breakpoint b is tested on the high limb alone, hi > b_hi.  That is
    exact except where hi = b_hi, and such a point lies within 2^64 of b,
    so its high limb is in the range of b's near interval.  One unsigned
    compare per near interval, (hi - first) <= last - first (an equality
    where first = last), marks the points whose high limb is in such a
    range: a superset of the near points and of the ties.  Only these rare
    points get the exact two-limb compares, for their piece and the near
    count.
    """

    def __init__(self, cocycle: RotationCocycle):
        super().__init__(1, self._steps, True)
        self.near_hits = 0
        self._x = cocycle.x_fp
        self._alpha = cocycle.alpha_fp
        self._bps = cocycle._bps[1:]  # the first breakpoint is 0
        self._bp_hi = [np.uint64(b >> 64) for b in self._bps]
        self._vals = np.array(cocycle._vals, dtype=np.int64)
        # |pos - b| < NEAR_THRESHOLD, as intervals clipped to the circle
        self._near = [(max(b - NEAR_THRESHOLD + 1, 0),
                       min(b + NEAR_THRESHOLD, ONE))
                      for b in cocycle._bps + [ONE]]
        # the high limbs of each near interval: first, last - first
        self._near_hi = [(np.uint64(a >> 64),
                          np.uint64(((b - 1) >> 64) - (a >> 64)))
                         for a, b in self._near]

    def _steps(self, offset: int, count: int) -> np.ndarray:
        hi, lo = _orbit((self._x + offset * self._alpha) & _FP_MASK,
                        self._alpha, count)
        mask = np.empty(count, dtype=bool)
        piece = np.zeros(count, dtype=np.intp)
        for b_hi in self._bp_hi:
            piece += np.greater(hi, b_hi, out=mask)
        rare, spread = np.zeros(count, dtype=bool), None
        for first, width in self._near_hi:
            if width:
                spread = np.subtract(hi, first, out=spread)
                np.less_equal(spread, width, out=mask)
            else:
                np.equal(hi, first, out=mask)
            rare |= mask
        rare = np.flatnonzero(rare)
        if rare.size:
            r_hi, r_lo = hi[rare], lo[rare]
            exact = np.zeros(rare.size, dtype=np.intp)
            near = np.zeros(rare.size, dtype=bool)
            for b in self._bps:
                exact += _at_least(r_hi, r_lo, b)
            for a, b in self._near:
                near |= _in_interval(r_hi, r_lo, a, b)
            piece[rare] = exact
            self.near_hits += int(np.count_nonzero(near))
        return self._vals[piece].reshape(count, 1)


# ---------------------------------------------------------------------------
# special flow over a rotation


def minimal_lambda_indices(cf: ContinuedFraction, levels: int) -> tuple[int, ...]:
    """Greedy smallest indices satisfying the special-flow constraints;
    raises IndexError when a finite expansion runs out first."""
    indices: list[int] = []
    qs: list[int] = []
    for k, (_, q) in enumerate(cf._convergents(), start=1):
        if len(indices) > levels:
            break
        n = len(indices) + 1
        need = 4 if n == 1 else max(3 * qs[-1], n * qs[-1] ** 2)
        if q >= need:
            indices.append(k)
            qs.append(q)
    if len(indices) <= levels:
        raise IndexError(f"only {len(indices)} of {levels + 1} lambda indices "
                         "before the expansion ends")
    return tuple(indices)


@dataclass(frozen=True)
class SpecialFlowSource:
    """Flow under a roof of towers over thinning intervals near 0, as the
    sequence of basis-visit counts along its orbit.

    The roof is phi = 1 + sum_{n=1..levels} floor(q_{lam_n} / n^2) * 1_{J_n}
    with J_n = [3/q_{lam_{n+1}}, 3/q_{lam_n}), so ``lambda_indices`` has
    ``levels + 1`` entries (the last one only sets the innermost endpoint).
    Constraints checked: separation, q_{lam_n} >= n q_{lam_{n-1}}^2 for
    n >= 2, and q_{lam_1} >= 4 so J_1 is inside (0, 1).  They imply growth,
    q_{lam_{n+1}} > 3 q_{lam_n}: as q_{lam_n} >= 4, q_{lam_{n+1}} >= (n+1)
    q_{lam_n}^2 >= 8 q_{lam_n}.  Growth is |J_n| > 2/q_{lam_n}, which
    forces an orbit visit within q_{lam_n} steps.

    z_k counts how many of the first k flow steps start a new pass over the
    basis, so z is 1 at the first step and increases by 1 after every roof
    climb.  Local times reproduce the roof: N(m) = phi(x + (m-1) alpha).
    """

    cf: ContinuedFraction
    levels: int
    lambda_indices: tuple[int, ...]
    x_fp: int

    d = 1

    def __init__(self, cf, levels, lambda_indices, x_fp):
        levels = sources.as_int(levels)
        lambda_indices = tuple(map(sources.as_int, lambda_indices))
        if levels < 1:
            raise ValueError("need at least one level")
        if len(lambda_indices) != levels + 1:
            raise ValueError(f"need {levels + 1} lambda indices for "
                             f"{levels} levels (one extra for the innermost "
                             "interval endpoint)")
        if any(b <= a for a, b in zip(lambda_indices, lambda_indices[1:])):
            raise ValueError("lambda indices must be strictly increasing")
        conv = cf.convergents(max(lambda_indices))
        qs = [conv[i - 1][1] for i in lambda_indices]
        if qs[0] < 4:
            raise ValueError("q at the first lambda index must be >= 4")
        for n in range(2, levels + 2):
            if qs[n - 1] < n * qs[n - 2] ** 2:
                raise ValueError(f"separation condition failed at level {n}: "
                                 f"{qs[n - 1]} < {n} * {qs[n - 2]}^2")
        object.__setattr__(self, "cf", cf)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "lambda_indices", lambda_indices)
        object.__setattr__(self, "x_fp", int(x_fp) & _FP_MASK)
        object.__setattr__(self, "_qs", tuple(qs))
        # per level: J_n as fixed-point [lo, hi) and the tower height on it
        object.__setattr__(self, "_levels", tuple(
            (((3 * ONE) // qs[n], (3 * ONE) // qs[n - 1]), qs[n - 1] // (n * n))
            for n in range(1, levels + 1)))
        # the angle's convergent must be far deeper than any q we index
        object.__setattr__(self, "alpha_fp",
                           cf.angle_fixed_point(max(1 << 64, qs[-1] ** 2)))

    def denominators(self) -> list[int]:
        return list(self._qs)

    def tower_heights(self) -> list[int]:
        """floor(q_{lam_n} / n^2) for n = 1..levels (extra roof height on J_n)."""
        return [h for _, h in self._levels]

    def intervals_fp(self) -> list[tuple[int, int]]:
        return [iv for iv, _ in self._levels]

    def roof(self, pos_fp: int) -> int:
        return 1 + sum(h for (lo, hi), h in self._levels if lo <= pos_fp < hi)

    def cursor(self) -> "FlowCursor":
        return FlowCursor(self)


class FlowCursor:
    """Block path of a :class:`SpecialFlowSource`.

    A block of ``count`` steps needs at most ``count`` base points, since
    every roof is at least 1.  Each tower height is clipped to the block
    before the towers are laid out with ``np.repeat``, so no block holds
    more than ``count`` steps and no int64 overflows, however tall the
    towers are.  The unfinished tower is carried as a Python int, from the
    exact roof (heights reach 2^57 at five golden levels, 2^121 at six).
    """

    d = 1

    def __init__(self, src: SpecialFlowSource):
        self._alpha = src.alpha_fp
        self._pos = src.x_fp  # base point of the next tower
        self._towers = 0  # towers started, = the current site
        self._left = 0    # steps still due on the current tower
        self._levels = src._levels
        self._roof = src.roof

    def take(self, count: int) -> np.ndarray:
        head = min(self._left, count)
        self._left -= head
        rest = count - head
        if rest == 0:
            return np.full((count, 1), self._towers, dtype=np.int64)
        hi, lo = _orbit(self._pos, self._alpha, rest)
        reps = np.ones(rest, dtype=np.int64)
        for (a, b), h in self._levels:
            reps[_in_interval(hi, lo, a, b)] += min(h, rest)
        np.minimum(reps, rest, out=reps)
        ends = np.cumsum(reps)
        k = int(np.searchsorted(ends, rest))  # the tower this block ends in
        reps = reps[:k + 1]
        reps[k] -= ends[k] - rest
        self._left = (self._roof((self._pos + k * self._alpha) & _FP_MASK)
                      - int(reps[k]))
        first = self._towers + 1
        self._towers += k + 1
        self._pos = (self._pos + (k + 1) * self._alpha) & _FP_MASK
        out = np.empty((count, 1), dtype=np.int64)
        out[:head] = first - 1
        out[head:, 0] = np.repeat(np.arange(first, self._towers + 1), reps)
        return out


@dataclass(frozen=True)
class LevelCheckpoint:
    level: int
    n: int        # flow steps taken when the first climb of J_level ends
    base_step: int  # rotation orbit index of the first visit to J_level
    m: int
    v: int

    @property
    def ratio(self) -> float:
        return self.m * self.m / self.v


def counterexample_ratio_schedule(src: SpecialFlowSource,
                                  budget: int = 10**8) -> list[LevelCheckpoint]:
    """First-visit checkpoints of the special flow's M^2/V ratio.

    Walks the base rotation orbit in ``_orbit`` blocks, with the flow-time
    statistics n = sum phi, V = sum phi^2 and M = max phi.  When the orbit
    first enters the level-n interval, the checkpoint is taken at the flow
    step on which that first roof climb completes.  The walk stops on the
    base step where n first exceeds ``budget``, its checkpoint included,
    and raises if fewer than two levels have reported by then.  The roof
    is 1 + h_m on J_m and 1 elsewhere, so n, V and M are exact Python ints
    formed from per-level visit counts, where they are needed only.

    When no higher level is met before level n (in particular when the
    levels are met in increasing order), the level-n checkpoint satisfies
    base_step < q_{lam_n}, M = 1 + floor(q_{lam_n} / n^2) and
    M^2 / V >= ``ratio_floors(src)[n - 1]``, a floor that tends to 1.
    The ratios themselves are not monotone in the level: no tower precedes
    level 1, so its ratio sits near 1, while level 2's tower is diluted by
    the level-1 towers before it (golden, x = 0: 0.947, 0.432, 0.920).
    """
    heights = src.tower_heights()
    intervals = src.intervals_fp()
    visits = [0] * src.levels  # per level, before the current block
    out: list[LevelCheckpoint] = []
    pos, start = src.x_fp, 0
    while True:
        hi, lo = _orbit(pos, src.alpha_fp, _ORBIT_BLOCK)
        inside = [_in_interval(hi, lo, a, b) for a, b in intervals]

        def at(i: int, level: int = 0) -> LevelCheckpoint:
            """n, V and M after the block's orbit point i."""
            tally = [(h, c + int(np.count_nonzero(mask[:i + 1])))
                     for h, c, mask in zip(heights, visits, inside)]
            steps = start + i + 1
            return LevelCheckpoint(
                level=level, n=steps + sum(h * c for h, c in tally),
                base_step=start + i,
                m=1 + max((h for h, c in tally if c), default=0),
                v=steps + sum((h * h + 2 * h) * c for h, c in tally))

        firsts = sorted((int(np.argmax(mask)), level)
                        for level, mask in enumerate(inside, start=1)
                        if not visits[level - 1] and mask.any())
        stop = _ORBIT_BLOCK - 1
        if len(out) + len(firsts) == src.levels:
            stop = firsts[-1][0]
        crossed = at(stop).n > budget
        if crossed:  # n grows with i: the first point past the budget
            stop = bisect_right(range(stop), budget, key=lambda i: at(i).n)
        out += [at(i, level) for i, level in firsts if i <= stop]
        if crossed and len(out) < 2:
            raise RuntimeError(f"step budget {budget} exhausted before "
                               "level 2 reported")
        if crossed or len(out) == src.levels:
            return out
        visits = [c + int(np.count_nonzero(mask))
                  for c, mask in zip(visits, inside)]
        pos = (pos + _ORBIT_BLOCK * src.alpha_fp) & _FP_MASK
        start += _ORBIT_BLOCK


def ratio_floors(src: SpecialFlowSource) -> list[Fraction]:
    """Exact lower bounds L_n on M^2/V at the level-n checkpoint, n = 1..levels.

    Valid when no level above n is met before level n.  With q = q_{lam_n},
    t_m = 1 + floor(q_{lam_m} / m^2) the roof on J_m and j_n the first
    base visit to J_n:

    * j_n < q, because |J_n| > 2/q and q consecutive orbit points leave
      gaps shorter than 2/q (three-gap theorem);
    * by Denjoy-Koksma, J_m holds at most q |J_m| + 2 of the first q
      orbit points;

    so V <= t_n^2 + q + sum_{m<n} (q |J_m| + 2)(t_m^2 - 1) while M = t_n.
    The separation condition q_{lam_n} >= n q_{lam_{n-1}}^2 makes
    1 - L_n = O(n^4 / q_{lam_n}) + O(n^3 / q_{lam_{n-1}}), so L_n -> 1.
    """
    qs = src.denominators()
    tops = [1 + h for h in src.tower_heights()]
    lengths = [Fraction(3, qs[m]) - Fraction(3, qs[m + 1])
               for m in range(src.levels)]
    floors = []
    for n in range(src.levels):
        below = sum(((qs[n] * lengths[m] + 2) * (tops[m] ** 2 - 1)
                     for m in range(n)), Fraction(0))
        floors.append(tops[n] ** 2 / (tops[n] ** 2 + qs[n] + below))
    return floors
