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
from typing import Iterator, Sequence

import numpy as np

from . import rng

FIXED_BITS = 128
ONE = 1 << FIXED_BITS
_FP_MASK = ONE - 1
NEAR_THRESHOLD = 1 << (FIXED_BITS - 100)  # ~2^-100 of the circle


class ContinuedFraction:
    """Continued fraction [0; a_1, a_2, ...] of an angle in (0, 1)."""

    def __init__(self, coeffs: Sequence[int] = (), periodic: Sequence[int] = ()):
        coeffs = tuple(int(a) for a in coeffs)
        periodic = tuple(int(a) for a in periodic)
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

    def coeff(self, k: int) -> int:
        """Partial quotient a_k, 1-indexed."""
        if k < 1:
            raise ValueError("k must be >= 1")
        if k <= len(self._coeffs):
            return self._coeffs[k - 1]
        if not self._periodic:
            raise IndexError(f"only {len(self._coeffs)} partial quotients available")
        return self._periodic[(k - 1 - len(self._coeffs)) % len(self._periodic)]

    def convergents(self, depth: int) -> list[tuple[int, int]]:
        """[(p_1, q_1), ..., (p_depth, q_depth)] via the standard recursion
        q_k = a_k q_{k-1} + q_{k-2} started from (p_0, q_0) = (0, 1),
        (p_{-1}, q_{-1}) = (1, 0)."""
        p_prev, q_prev = 1, 0
        p, q = 0, 1
        out = []
        for k in range(1, depth + 1):
            a = self.coeff(k)
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
            out.append((p, q))
        return out

    def convergent(self, depth: int) -> Fraction:
        p, q = self.convergents(depth)[-1]
        return Fraction(p, q)

    def deep_convergent(self, min_q: int = 1 << 64) -> tuple[int, int]:
        """First convergent with denominator >= min_q (or the deepest one
        available for a finite expansion)."""
        p_prev, q_prev = 1, 0
        p, q = 0, 1
        k = 0
        while q < min_q:
            k += 1
            try:
                a = self.coeff(k)
            except IndexError:
                if k == 1:
                    raise
                break
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
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
        values = tuple(int(v) for v in values)
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

    def total_variation(self) -> int:
        return sum(abs(v2 - v1) for v1, v2 in zip(self.values, self.values[1:]))

    def breakpoints_fp(self) -> list[int]:
        return [fraction_to_fp(b) for b in self.breakpoints]

    def eval_fraction(self, x: Fraction) -> int:
        x = Fraction(x) % 1
        return self.values[bisect_right(self.breakpoints, x) - 1]


class RotationCocycle:
    """Source emitting z_k = sum_{j<=k} f(x + j*alpha mod 1), k = 0, 1, ...

    One-dimensional lattice sequence; requires f to have exact zero mean
    (otherwise the sums drift and the sequence is a walk, not a cocycle).
    ``near_hits`` counts evaluations within ~2^-100 of a breakpoint, where
    the fixed-point orbit could disagree with the irrational one.
    """

    d = 1

    def __init__(self, cf: ContinuedFraction, f: StepFunction,
                 x_fp: int, min_q: int = 1 << 64):
        if f.mean() != 0:
            raise ValueError(f"step function must have zero mean, got {f.mean()}")
        self.cf = cf
        self.f = f
        self.alpha_fp = cf.angle_fixed_point(min_q)
        self.x_fp = x_fp & _FP_MASK
        self._bps = f.breakpoints_fp()
        self._vals = f.values
        self.near_hits = 0

    def _near(self, pos: int) -> bool:
        for b in self._bps + [ONE]:
            if abs(pos - b) < NEAR_THRESHOLD:
                return True
        return False

    def generate(self, n: int) -> np.ndarray:
        out = np.empty((n, 1), dtype=np.int64)
        pos = self.x_fp
        alpha = self.alpha_fp
        bps, vals = self._bps, self._vals
        two = len(bps) == 2
        b1 = bps[1] if two else None
        s = 0
        near = 0
        for k in range(n):
            if two:
                s += vals[0] if pos < b1 else vals[1]
            else:
                s += vals[bisect_right(bps, pos) - 1]
            if self._near(pos):
                near += 1
            out[k, 0] = s
            pos = (pos + alpha) & _FP_MASK
        self.near_hits += near
        return out

    def stream(self) -> Iterator[tuple[int]]:
        pos = self.x_fp
        s = 0
        while True:
            s += self._vals[bisect_right(self._bps, pos) - 1]
            if self._near(pos):
                self.near_hits += 1
            yield (s,)
            pos = (pos + self.alpha_fp) & _FP_MASK

    def birkhoff_sum(self, length: int, x_fp: int | None = None) -> int:
        """S_length f(x) = sum_{j<length} f(x + j*alpha), without the
        cumulative emission."""
        pos = self.x_fp if x_fp is None else (x_fp & _FP_MASK)
        s = 0
        for _ in range(length):
            s += self._vals[bisect_right(self._bps, pos) - 1]
            pos = (pos + self.alpha_fp) & _FP_MASK
        return s


def denjoy_koksma_check(cf: ContinuedFraction, f: StepFunction,
                        x_fp: int, depth: int) -> list[tuple[int, int]]:
    """Birkhoff sums of a zero-mean step function at denominator times.

    Returns [(q_k, S_{q_k} f(x))] for k = 1..depth; every |S_{q_k}| is
    bounded by the total variation of f.
    """
    cocycle = RotationCocycle(cf, f, x_fp)
    qs = [q for _, q in cf.convergents(depth)]
    out = []
    pos = x_fp & _FP_MASK
    s = 0
    steps = 0
    for q in qs:
        s += cocycle.birkhoff_sum(q - steps, pos)
        pos = (x_fp + q * cocycle.alpha_fp) & _FP_MASK
        steps = q
        out.append((q, s))
    return out


# ---------------------------------------------------------------------------
# special flow over a rotation


@dataclass(frozen=True)
class SpecialFlowConfig:
    """Flow under a roof of towers over thinning intervals near 0.

    The roof is phi = 1 + sum_{n=1..levels} floor(q_{lam_n} / n^2) * 1_{J_n}
    with J_n = [3/q_{lam_{n+1}}, 3/q_{lam_n}), so ``lambda_indices`` has
    ``levels + 1`` entries (the last one only sets the innermost endpoint).
    Constraints checked: q_{lam_{n+1}} >= 3 q_{lam_n}; q_{lam_n} >= n *
    q_{lam_{n-1}}^2 for n >= 2; q_{lam_1} >= 4 so J_1 is inside (0, 1);
    each |J_n| > 2/q_{lam_n}, which forces an orbit visit within q_{lam_n}
    steps.
    """

    cf: ContinuedFraction
    levels: int
    lambda_indices: tuple[int, ...]
    x_fp: int

    def __init__(self, cf, levels, lambda_indices, x_fp):
        levels = int(levels)
        lambda_indices = tuple(int(i) for i in lambda_indices)
        if levels < 1:
            raise ValueError("need at least one level")
        if len(lambda_indices) != levels + 1:
            raise ValueError(f"need {levels + 1} lambda indices for "
                             f"{levels} levels (one extra for the innermost "
                             "interval endpoint)")
        if any(b <= a for a, b in zip(lambda_indices, lambda_indices[1:])):
            raise ValueError("lambda indices must be strictly increasing")
        qs = _denominators_at(cf, lambda_indices)
        if qs[0] < 4:
            raise ValueError("q at the first lambda index must be >= 4")
        for n in range(1, levels + 1):
            if qs[n] < 3 * qs[n - 1]:
                raise ValueError(f"growth condition failed at level {n}: "
                                 f"{qs[n]} < 3 * {qs[n - 1]}")
        for n in range(2, levels + 2):
            if qs[n - 1] < n * qs[n - 2] ** 2:
                raise ValueError(f"separation condition failed at level {n}: "
                                 f"{qs[n - 1]} < {n} * {qs[n - 2]}^2")
        for n in range(1, levels + 1):
            if Fraction(3, qs[n - 1]) - Fraction(3, qs[n]) <= Fraction(2, qs[n - 1]):
                raise ValueError(f"interval at level {n} not longer than "
                                 f"2/q_lambda_{n}")
        object.__setattr__(self, "cf", cf)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "lambda_indices", lambda_indices)
        object.__setattr__(self, "x_fp", int(x_fp) & _FP_MASK)

    def denominators(self) -> list[int]:
        return _denominators_at(self.cf, self.lambda_indices)

    def tower_heights(self) -> list[int]:
        """floor(q_{lam_n} / n^2) for n = 1..levels (extra roof height on J_n)."""
        qs = self.denominators()
        return [qs[n - 1] // (n * n) for n in range(1, self.levels + 1)]

    def intervals_fp(self) -> list[tuple[int, int]]:
        qs = self.denominators()
        return [((3 * ONE) // qs[n], (3 * ONE) // qs[n - 1])
                for n in range(1, self.levels + 1)]


def _denominators_at(cf: ContinuedFraction, indices: Sequence[int]) -> list[int]:
    conv = cf.convergents(max(indices))
    return [conv[i - 1][1] for i in indices]


def minimal_lambda_indices(cf: ContinuedFraction, levels: int) -> tuple[int, ...]:
    """Greedy smallest indices satisfying the special-flow constraints."""
    indices: list[int] = []
    qs: list[int] = []
    k = 0
    p_prev, q_prev = 1, 0
    q = 1
    while len(indices) < levels + 1:
        k += 1
        a = cf.coeff(k)  # raises IndexError when a finite expansion runs out
        q, q_prev = a * q + q_prev, q
        n = len(indices) + 1
        if n == 1:
            need = 4
        else:
            need = max(3 * qs[-1], n * qs[-1] ** 2)
        if q >= need:
            indices.append(k)
            qs.append(q)
    return tuple(indices)


class SpecialFlowSource:
    """Sequence of basis-visit counts along the special flow orbit.

    z_k counts how many of the first k flow steps start a new pass over the
    basis, so z is 1 at the first step and increases by 1 after every roof
    climb.  Local times reproduce the roof: N(m) = phi(x + (m-1) alpha).
    """

    d = 1

    def __init__(self, config: SpecialFlowConfig, min_q: int | None = None):
        self.config = config
        qs = config.denominators()
        # the angle's convergent must be far deeper than any q we index
        self.alpha_fp = config.cf.angle_fixed_point(
            min_q if min_q is not None else max(1 << 64, qs[-1] ** 2))
        self._intervals = config.intervals_fp()
        self._heights = config.tower_heights()

    def roof(self, pos_fp: int) -> int:
        r = 1
        for (lo, hi), h in zip(self._intervals, self._heights):
            if lo <= pos_fp < hi:
                r += h
        return r

    def roof_level(self, pos_fp: int) -> int:
        """Level n whose interval J_n contains the point, or 0."""
        for n, (lo, hi) in enumerate(self._intervals, start=1):
            if lo <= pos_fp < hi:
                return n
        return 0

    def stream(self) -> Iterator[tuple[int]]:
        pos = self.config.x_fp
        m = 0
        while True:
            m += 1
            for _ in range(self.roof(pos)):
                yield (m,)
            pos = (pos + self.alpha_fp) & _FP_MASK

    def generate(self, n: int) -> np.ndarray:
        out = np.empty((n, 1), dtype=np.int64)
        k = 0
        for site in self.stream():
            out[k, 0] = site[0]
            k += 1
            if k == n:
                return out
        raise AssertionError("unreachable")


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


def counterexample_ratio_schedule(config: SpecialFlowConfig,
                                  budget: int = 10**8) -> list[LevelCheckpoint]:
    """First-visit checkpoints of the special flow's M^2/V ratio.

    Walks the base rotation orbit, maintaining the flow-time statistics
    n = sum phi, V = sum phi^2, M = max phi.  When the orbit first enters
    the level-n interval, the checkpoint is taken at the flow step on which
    that first roof climb completes.  Raises if the step budget runs out
    before level 2 reports.

    When no higher level is met before level n (in particular when the
    levels are met in increasing order), the level-n checkpoint satisfies
    base_step < q_{lam_n}, M = 1 + floor(q_{lam_n} / n^2) and
    M^2 / V >= ``ratio_floors(config)[n - 1]``, a floor that tends to 1.
    The ratios themselves are not monotone in the level: no tower precedes
    level 1, so its ratio sits near 1, while level 2's tower is diluted by
    the level-1 towers before it (golden, x = 0: 0.947, 0.432, 0.920).
    """
    src = SpecialFlowSource(config)
    seen = [False] * (config.levels + 1)
    out: list[LevelCheckpoint] = []
    pos = config.x_fp
    n = v = m = 0
    j = 0
    while len(out) < config.levels:
        r = src.roof(pos)
        level = src.roof_level(pos)
        n += r
        v += r * r
        m = max(m, r)
        if level > 0 and not seen[level]:
            seen[level] = True
            out.append(LevelCheckpoint(level=level, n=n, base_step=j, m=m, v=v))
        if n > budget:
            if sum(seen) < 2:
                raise RuntimeError(f"step budget {budget} exhausted before "
                                   "level 2 reported")
            break
        pos = (pos + src.alpha_fp) & _FP_MASK
        j += 1
    return out


def ratio_floors(config: SpecialFlowConfig) -> list[Fraction]:
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
    qs = config.denominators()
    tops = [1 + h for h in config.tower_heights()]
    lengths = [Fraction(3, qs[m]) - Fraction(3, qs[m + 1])
               for m in range(config.levels)]
    floors = []
    for n in range(config.levels):
        below = sum(((qs[n] * lengths[m] + 2) * (tops[m] ** 2 - 1)
                     for m in range(n)), Fraction(0))
        floors.append(tops[n] ** 2 / (tops[n] ** 2 + qs[n] + below))
    return floors
