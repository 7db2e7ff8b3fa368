"""Fourier-side quantities: occupation kernels, characteristic functions,
return-probability series and the transient variance prediction.

The lag sums sum_r N(r + lag) N(r) of a quadratic form take one route: the
sites are packed once (:func:`ledger.pack_sites`) and their keys sorted
once, and each lag moves the keys' digits (:meth:`ledger._Layout.shift`).

The return-probability series P(Z_k = l), k <= kmax, is exact along one of
two routes, chosen from the law's atoms:

* axis split, for laws whose atoms each move at most one coordinate (every
  simple walk, every 1-D law, lazy walks): the k steps are shared among the
  axes with binomial weights and the per-axis 1-D convolution powers are
  merged, O(d kmax^2) per lag with no grid;
* Fourier grid, for any other law: P(Z_k = l) is a trigonometric polynomial
  of degree <= k r for support radius r, so averaging
  psi(t)^k e^{-2 pi i <l, t>} over the rank-G product grid reproduces it
  whenever G > kmax r + |l|_inf (no aliasing).  The grid is swept one
  axis-0 slice at a time, and only half of the slices: psi(-t) is the
  conjugate of psi(t).

The sum over k > kmax is estimated, not bounded: by the leading local-CLT
term, summed in closed form over the times the walk can be at l, for
centered laws (decay k^(-d/2)), and by a geometric fit to the last terms for
laws with a drift (exponential decay).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import rng, sources
from .ledger import (LocalTimeLedger, as_coords, find_keys, key_local_times,
                     key_strides, ls_slope, pack_sites, sort_keys)
from .sources import RandomWalkSource, StepDistribution, classify

Site = tuple[int, ...]


def kernel_from_ledger(ledger: LocalTimeLedger, t_points) -> np.ndarray:
    """K_n(t) = |sum_sites N(site) e^{2 pi i <site, t>}|^2 on given points."""
    t_points = np.atleast_2d(np.asarray(t_points, dtype=np.float64))
    phase = np.exp(2j * np.pi * (t_points @ ledger.sites.T.astype(np.float64)))
    return np.abs(phase @ ledger.local_times.astype(np.float64)) ** 2


def kernel_grid_mean(ledger: LocalTimeLedger, q: int) -> float:
    """Mean of K_n over the rank-q grid {0, 1/q, ..., (q-1)/q}^d.

    Equals V_n exactly as soon as q exceeds the diameter of the visited
    range in every coordinate (Parseval for the discrete torus).
    """
    pts = np.indices((q,) * ledger.d).reshape(ledger.d, -1).T / q
    return float(kernel_from_ledger(ledger, pts).mean())


def lag_correlation(coords: np.ndarray, counts: np.ndarray,
                    lag: Sequence[int]) -> int:
    """sum_r N(r + lag) N(r) over the visited range (distinct sites
    ``coords``, one count each); ValueError unless ``lag`` has one entry
    per axis."""
    coords = as_coords(coords)
    if len(lag) != coords.shape[1]:
        raise ValueError(f"lag has {len(lag)} entries, expected "
                         f"{coords.shape[1]}")
    if len(counts) != coords.shape[0]:
        raise ValueError(f"{len(counts)} counts for {coords.shape[0]} sites")
    return _lag_correlations(coords, counts, [lag])[0]


def _lag_correlations(coords, counts, lags) -> list[int]:
    """:func:`lag_correlation` at each lag, from one :func:`pack_sites`
    and one :func:`sort_keys` of the sites, each moved axis's digits read
    once for the layout's shifts.  Lag 0 alone, sum N^2, needs neither."""
    lags = [tuple(int(c) for c in lag) for lag in lags]
    counts = np.asarray(counts)
    if not any(map(any, lags)):
        return _lag_sums(None, counts, lags, None)
    key, layout = pack_sites(coords)
    order, keys = sort_keys(key)
    return _lag_sums(keys, counts[order], lags,
                     partial(layout.shift, keys, digits={}))


def _lag_sums(keys, counts, lags, shift) -> list[int]:
    """sum_r N(r + lag) N(r) for each lag, from the distinct sites' keys in
    increasing order and their local times: lag 0 is sum N^2, and any other
    lag :func:`_matched_sum` of ``shift(lag)``, whose moved keys must be a
    site's key exactly when the moved copy is that site."""
    return [_matched_sum(keys, counts, *shift(lag)) if any(lag)
            else int(np.sum(counts * counts)) for lag in lags]


def _matched_sum(keys, counts, kept, moved) -> int:
    """sum N(r) N(r + lag) over the sites r flagged (or sliced) by ``kept``
    whose moved keys ``moved``, those of r + lag, match one of the
    increasing ``keys``, with N in ``counts``."""
    at, hit = find_keys(keys, moved)
    return int(np.sum(counts[kept][hit] * counts[at[hit]]))


def quadratic_form(ledger: LocalTimeLedger, field) -> float:
    """sum_lags cov(lag) * sum_r N(r + lag) N(r), the exact sampling
    variance numerator of sum N(site) X(site) for the fixed ledger."""
    return _quadratic_form_arrays(ledger.sites, ledger.local_times, field,
                                  ledger.d)


def _field_lags(field, d: int) -> list[Site]:
    window = getattr(field, "window", 0)
    return [(h,) + (0,) * (d - 1) for h in range(-window, window + 1)]


def _covariance_lags(field, d: int) -> list[Site]:
    return [lag for lag in _field_lags(field, d)
            if field.covariance(lag) != 0.0]


def _contract(field, lags, corrs) -> float:
    total = 0.0
    for lag, corr in zip(lags, corrs):
        total += field.covariance(lag) * corr
    return total


def _quadratic_form_arrays(coords, counts, field, d: int) -> float:
    lags = _covariance_lags(field, d)
    return _contract(field, lags, _lag_correlations(coords, counts, lags))


class _WalkForms:
    """:func:`quadratic_form` of the first n sites of walks of one law
    under one field, one seed per call, read off the walks' keys: no site
    array and no per-step occupation.

    Every site within n steps has |z_j| <= n r, r the law's radius, and a
    field lag moves it by at most the margin max |lag|, so
    :func:`ledger.key_strides` at width 2 (n r + margin) + 1 per axis
    packs every site and every shifted site as balanced digits (``route``
    "keys"), and a lag is a key offset.  :func:`sources.walk_keys` draws
    the keys into one work array sized here, which every call overwrites,
    one sort in :func:`key_local_times` gives the distinct keys and their
    local times as fresh arrays, and :func:`_lag_sums` the lags.  Where
    width^d > 2^62 (the d = 4 simple walk from n = 23 168 on, at margin 2)
    the sites are generated and packed by :func:`pack_sites` instead
    (``route`` "sites"), and the same sort and layout shifts as
    :func:`quadratic_form`'s follow.  Each lag sum is an integer that does
    not depend on the packing, so both routes give the value of
    :func:`quadratic_form` bit for bit.
    """

    def __init__(self, dist: StepDistribution, n: int, field):
        self.dist, self.n, self.field = dist, n, field
        self.lags = _covariance_lags(field, dist.d)
        margin = max((abs(c) for lag in self.lags for c in lag), default=0)
        width = 2 * (n * dist.radius() + margin) + 1
        self.strides = key_strides([width] * dist.d)
        self.route = "sites" if self.strides is None else "keys"
        self._work = None if self.strides is None else np.empty((2, n))

    def __call__(self, seed: int) -> float:
        cfg = RandomWalkSource(self.dist, seed)
        if self.strides is None:
            key, layout = pack_sites(sources.generate(cfg, self.n))
            keys, times = key_local_times(key)
            shift = partial(layout.shift, keys, digits={})
        else:
            keys, times = key_local_times(sources.walk_keys(
                cfg, self.n, self.strides, self._work))
            shift = partial(_offset_shift, keys, self.strides)
        return _contract(self.field, self.lags,
                         _lag_sums(keys, times, self.lags, shift))


def _offset_shift(keys, strides, lag) -> tuple[slice, np.ndarray]:
    """A lag as the key offset sum_j lag_j stride_j, for every site."""
    return slice(None), keys + sum(c * s for c, s in zip(lag, strides))


def psi(dist: StepDistribution, t: Sequence[float]) -> complex:
    """Characteristic function psi(t) = sum_a p_a e^{2 pi i <a, t>}."""
    t = np.asarray(t, dtype=np.float64)
    sup = dist.support().astype(np.float64)
    return complex(np.sum(dist.probs() * np.exp(2j * np.pi * (sup @ t))))


def phi(dist: StepDistribution, t: Sequence[float]) -> float:
    """Re[(1 + psi) / (1 - psi)], with the value 0 at t = 0 by convention.

    Raises when psi(t) = 1 at a nonzero grid point, which signals a
    periodic (non-aperiodic) law.
    """
    t = np.asarray(t, dtype=np.float64)
    if np.all(np.mod(t, 1.0) == 0.0):
        return 0.0
    z = psi(dist, t)
    if abs(1 - z) < 1e-12:
        raise ValueError(f"psi(t) = 1 at t = {tuple(t)}: law is not aperiodic")
    return ((1 + z) / (1 - z)).real


@dataclass(frozen=True)
class ReturnSeries:
    """P(Z_k = l) for k = 0..kmax at the requested lags (and their
    negatives), with a per-lag estimate of the tail sum over k > kmax."""

    kmax: int
    lags: tuple[Site, ...]
    probs: np.ndarray  # shape (len(lags), kmax + 1)
    tails: np.ndarray  # per-lag tail estimate for sum_{k > kmax}

    def _row(self, lag: Site) -> int:
        return self.lags.index(tuple(lag))

    def partial_sum(self, lag: Site, with_tail: bool = True) -> float:
        i = self._row(lag)
        s = float(self.probs[i, 1:].sum())
        return s + (float(self.tails[i]) if with_tail else 0.0)

    def i_value(self, lag: Site) -> float:
        """I(l) = -1{l=0} + sum_{k>=0} [P(Z_k=l) + P(Z_k=-l)], tails included."""
        lag = tuple(lag)
        neg = tuple(-c for c in lag)
        i, j = self._row(lag), self._row(neg)
        s = float(self.probs[i].sum() + self.probs[j].sum())
        s += float(self.tails[i] + self.tails[j])
        if all(c == 0 for c in lag):
            s -= 1.0
        return s


def _geometric_fit(p: np.ndarray) -> tuple[int, float, float, int] | None:
    """(last k, P_k there, per-step ratio, step gap) of a geometric fit to
    the last ~10 nonzero terms; None when fewer than 3 terms are nonzero."""
    # ignore grid round-off: exact zeros come back as ~1e-17
    nz = np.flatnonzero(p[1:] > 1e-13) + 1
    if nz.size < 3:
        return None
    ks = nz[-10:]
    vals = p[ks]
    # each log libm's, so no bit depends on the BLAS kernel
    slope = ls_slope(ks.tolist(), [math.log(v) for v in vals.tolist()])
    gap = int(round(np.diff(ks).mean()))
    return int(ks[-1]), float(vals[-1]), math.exp(slope), max(gap, 1)


def _geometric_tail(p: np.ndarray) -> float:
    """Extrapolate sum_{k > kmax} from the last ~10 nonzero terms."""
    fit = _geometric_fit(p)
    if fit is None:
        return 0.0
    _, last, rho_step, gap = fit
    if rho_step >= 1.0:
        return math.inf
    r = rho_step**gap
    return float(last * r / (1 - r))


def _clt_law(dist: StepDistribution):
    """(an atom a, a basis of the lattice L of support differences, its
    index p, the local-CLT prefactor p det(2 pi Sigma)^(-1/2)); p = 0 and
    a NaN prefactor when L has lower rank."""
    support = dist.support()[dist.probs() > 0]
    basis = sources.lattice_basis(support[1:] - support[0], dist.d)
    period = sources.lattice_index(basis)
    if period == 0:
        return support[0], basis, 0, math.nan
    pref = period / math.sqrt(np.linalg.det(2 * math.pi * dist.covariance()))
    return support[0], basis, period, pref


def _clt_classes(dist: StepDistribution, lags: Sequence[Site]):
    """For each lag l and each residue r mod p of the times k with l in
    k a + L (see :func:`_clt_law`), yield (index of l, r, l' Sigma^-1 l / 2)."""
    a0, basis, period, _ = _clt_law(dist)
    cov = dist.covariance()
    for li, lag in enumerate(lags):
        x = np.array(lag)
        c = 0.5 * float(x @ np.linalg.solve(cov, x))
        for r in range(period):
            if sources.lattice_contains(basis, x - r * a0):
                yield li, r, c


def _clt_terms(dist: StepDistribution, lags: Sequence[Site],
               ks: np.ndarray) -> np.ndarray:
    """The leading local-CLT term of P(Z_k = l) (see :func:`_clt_tails`) at
    the times ks, 0 at times k with l outside k a + L; the law must be
    genuinely d-dimensional."""
    _, _, period, pref = _clt_law(dist)
    out = np.zeros((len(lags), ks.size))
    k = ks.astype(np.float64)
    for li, r, c in _clt_classes(dist, lags):
        on = ks % period == r
        out[li, on] = pref * k[on] ** (-dist.d / 2) * np.exp(-c / k[on])
    return out


# (2j)! / B_2j for j = 1..12: the Euler-Maclaurin coefficients of Cephes
_ZETA_A = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
           -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
           1.1646782814350067249e14, -4.5979787224074726105e15,
           1.8152105401943546773e17, -7.1661652561756670113e18)


def hurwitz_zeta(x: float, q: float) -> float:
    """sum_{k >= 0} (k + q)^-x for x > 1 and q > 0.

    A line-for-line port of Cephes' ``zeta`` (Moshier), which
    ``scipy.special.zeta`` evaluates, in the same float operations, so the
    two agree bit for bit: the terms k = 0, 1, ... are summed directly
    until k >= 9 and q + k > 9, stopping early once a term is below 2^-53
    of the sum, then up to 12 Euler-Maclaurin corrections follow; for
    q > 1e8 it is the two leading terms of the asymptotic expansion (DLMF
    25.11.43).
    """
    if q > 1e8:
        return (1 / (x - 1) + 1 / (2 * q)) * q ** (1 - x)
    s = q ** -x
    a, i, b = q, 0, 0.0
    while i < 9 or a <= 9.0:
        i += 1
        a += 1.0
        b = a ** -x
        s += b
        if abs(b / s) < 2.0**-53:
            return s
    w = a
    s += b * w / (x - 1.0)
    s -= 0.5 * b
    a, k = 1.0, 0.0
    for coef in _ZETA_A:
        a *= x + k
        b /= w
        t = a * b / coef
        s = s + t
        if abs(t / s) < 2.0**-53:
            return s
        k += 1.0
        a *= x + k
        b /= w
        k += 1.0
    return s


def _clt_tails(dist: StepDistribution, kmax: int,
               lags: Sequence[Site]) -> np.ndarray:
    """Leading local-CLT term of sum_{k > kmax} P(Z_k = l), centered laws.

    With L the lattice generated by the differences of the support, p its
    index in Z^d and a any atom, the walk at time k lives on k a + L, and
    there P(Z_k = l) = p (2 pi k)^(-d/2) det(Sigma)^(-1/2)
    exp(-l' Sigma^-1 l / 2k) + o(k^(-d/2)) (Lawler & Limic, Random Walk: A
    Modern Introduction, 2010).  On each residue class k = p j + r that
    reaches l, expanding the exponential in powers of 1/k sums the term in
    closed form through Hurwitz zeta functions.  The sum diverges for
    d <= 2 (recurrence); a law that is not genuinely d-dimensional has no
    estimate (NaN).
    """
    _, _, period, pref = _clt_law(dist)
    if period == 0:
        return np.full(len(lags), math.nan)
    s = dist.d / 2
    tails = np.zeros(len(lags))
    for li, r, c in _clt_classes(dist, lags):
        if s <= 1:
            tails[li] = math.inf
            continue
        # sum_{k = p j + r > kmax} k^-s e^{-c/k}: terms with k < 4c one
        # by one, the rest by 30 terms of the expansion (c/k <= 1/4)
        j0 = (kmax - r) // period + 1
        j1 = max(j0, math.ceil((4 * c - r) / period))
        k = period * np.arange(j0, j1) + r
        head = float(np.sum(k ** -s * np.exp(-c / k)))
        n = np.arange(30)
        coef = np.cumprod(np.concatenate(([1.0], -c / n[1:])))
        zeta = np.array([hurwitz_zeta(x, j1 + r / period)
                         for x in (s + n).tolist()])
        tail = float(np.sum(coef * period ** -(s + n) * zeta))
        tails[li] += pref * (head + tail)
    return tails


def _terms_beyond(dist: StepDistribution, series: ReturnSeries,
                  ks: np.ndarray) -> np.ndarray:
    """Estimates of P(Z_k = l) at times ks > kmax for every lag of the
    series: the leading local-CLT term for centered laws, the geometric fit
    of :func:`_geometric_tail` continued for laws with a drift."""
    if dist.is_centered():
        return _clt_terms(dist, series.lags, ks)
    out = np.zeros((len(series.lags), ks.size))
    for i, row in enumerate(series.probs):
        fit = _geometric_fit(row)
        if fit is not None:
            last_k, last, rho_step, gap = fit
            on = (ks - last_k) % gap == 0
            out[i, on] = last * rho_step ** (ks[on] - last_k)
    return out


def _requested_lags(dist: StepDistribution, kmax: int,
                    lags: Sequence[Sequence[int]]) -> list[Site]:
    """The lags and their negatives, once each, checked against the reach."""
    want: list[Site] = []
    for lag in lags:
        lag = tuple(int(c) for c in lag)
        if len(lag) != dist.d:
            raise ValueError("lag dimension mismatch")
        for cand in (lag, tuple(-c for c in lag)):
            if cand not in want:
                want.append(cand)
    radius = max(dist.radius(), 1)
    if any(abs(c) > kmax * radius for lag in want for c in lag):
        raise ValueError("lag outside the reachable range for kmax")
    return want


def _axis_probs(dist: StepDistribution, kmax: int,
                want: Sequence[Site]) -> np.ndarray:
    """P(Z_k = l) for a law whose atoms each move at most one coordinate.

    Such a step picks axis j with weight w_j and moves along it by a 1-D
    law mu_j; the zero atom counts as a lazy step on axis 0.  Each axis
    gives the 1-D series a_j(m) = P_{mu_j}(S_m = l_j) by direct
    convolution, and axes merge two at a time: with q = W_A / (W_A + W_B),
    c(k) = sum_m C(k, m) q^m (1 - q)^(k - m) a(m) b(k - m).  Axes of one
    law share one series, and each axis gathers its rows at its merge.
    """
    d = dist.d
    lags = np.array(want, dtype=np.int64)
    weights = np.zeros(d)
    kernels = [{} for _ in range(d)]
    for a, p in dist.atoms:
        j = next((i for i, c in enumerate(a) if c != 0), 0)
        weights[j] += p
        kernels[j][a[j]] = kernels[j].get(a[j], 0.0) + p
    # the distinct targets: a series row's bits depend on its target only
    targets = sorted(set(lags.ravel().tolist()))
    at = {t: i for i, t in enumerate(targets)}
    series, out, w_out = {}, None, 0.0  # series: one per (kernel, weight)
    for j in np.flatnonzero(weights):  # the walk never moves along the rest
        law = tuple(sorted(kernels[j].items())), weights[j]
        if law not in series:
            series[law] = _one_axis_series(kernels[j], weights[j], kmax,
                                           np.array(targets))
        rows = series[law][[at[t] for t in lags[:, j].tolist()]]
        out = rows if out is None else _binomial_merge(
            out, rows, w_out / (w_out + weights[j]))
        w_out += weights[j]
    still = weights == 0.0
    return out * np.all(lags[:, still] == 0, axis=1)[:, None]


def _one_axis_series(kernel: dict[int, float], weight: float, kmax: int,
                     targets: np.ndarray) -> np.ndarray:
    """P(S_m = t) for m = 0..kmax and each target t, S a 1-D walk with step
    law kernel / weight: each step adds shifted multiples of the last, tap
    by tap, into a buffer reused across m, and no BLAS dot rounds the sums.
    The taps go in decreasing offset, the order in which ``np.convolve``
    summed a kernel of radius up to 5, so those series keep their bits."""
    r = max(abs(o) for o in kernel)
    width = 2 * kmax * r + 1
    # each tap's source: the mass at i moves to i + o
    (first, p0), *rest = [(slice(r - o, r - o + width), p / weight) for o, p
                          in sorted(kernel.items(), reverse=True) if p]
    inside = (-kmax * r <= targets) & (targets <= kmax * r)
    idx = np.where(inside, targets + (kmax + 1) * r, 0)
    # the sites -kmax r .. kmax r, with r zeros beside each end, which the
    # taps read and never write
    vec, step = np.zeros(width + 2 * r), np.zeros(width + 2 * r)
    vec[(kmax + 1) * r] = 1.0
    out = np.empty((targets.size, kmax + 1))
    out[:, 0] = vec[idx]
    for m in range(1, kmax + 1):
        live = np.multiply(vec[first], p0, out=step[r:r + width])
        for moved, p in rest:
            live += p * vec[moved]
        vec, step = step, vec
        out[:, m] = vec[idx]
    out[~inside] = 0.0
    return out


def _binomial_merge(a: np.ndarray, b: np.ndarray, q: float) -> np.ndarray:
    """c[:, k] = sum_m P(Bin(k, q) = m) a[:, m] b[:, k - m].  The products
    are summed over m by numpy's own reduction: a BLAS matrix-vector
    product would round the sums by the OpenBLAS kernel."""
    out = np.empty_like(a)
    pmf = np.ones(1)
    for k in range(a.shape[1]):
        if k:
            # Pascal's rule: positive terms only, no cancellation
            pmf = np.append(0.0, q * pmf) + np.append((1 - q) * pmf, 0.0)
        prod = a[:, :k + 1] * b[:, k::-1]
        prod *= pmf
        out[:, k] = prod.sum(axis=1)
    return out


def _grid_probs(dist: StepDistribution, kmax: int,
                want: Sequence[Site]) -> np.ndarray:
    """P(Z_k = l) by averaging psi^k e^{-2 pi i <l, t>} over a Fourier grid.

    P(Z_k = x) vanishes for |x|_inf > k r, so the rank-G grid with
    G = kmax r + max |l|_inf + 1 aliases no mass onto the requested lags.
    The grid is swept one axis-0 slice at a time: for each slice and k one
    matrix-vector product sums psi^k against the phases on axes 1..d-1 of
    every group of lags that agree there, and one contraction along axis 0
    finishes each lag.  psi(-t) is the conjugate of psi(t), so the slices
    past G/2 are conjugates of swept ones; a symmetric law has a real psi.
    The products are ``np.einsum`` reductions, not BLAS ones, so the series
    does not depend on the kernel OpenBLAS picks for the CPU.
    """
    d = dist.d
    g = (kmax * max(dist.radius(), 1)
         + max(abs(c) for lag in want for c in lag) + 1)
    lags = np.array(want, dtype=np.int64)
    rests, group = np.unique(lags[:, 1:], axis=0, return_inverse=True)
    rest_grid = np.indices((g,) * (d - 1)).reshape(d - 1, g ** (d - 1))
    support = dist.support()
    atom_rest = np.exp(2j * np.pi * (support[:, 1:] @ rest_grid) / g)
    atom_0 = dist.probs() * np.exp(
        2j * np.pi * np.outer(np.arange(g), support[:, 0]) / g)
    lag_rest = np.exp(-2j * np.pi * (rests @ rest_grid) / g)
    re, im = lag_rest.real, lag_rest.imag
    symmetric = dist.is_symmetric()
    # real rows giving Re and Im of sum_t psi^k e^{-2 pi i <l, t>} on axes
    # 1..d-1, for a real psi or a complex one read as (re, im) pairs
    if symmetric:
        phases = np.concatenate([re, im])
    else:
        pairs = [np.stack([re, -im], -1), np.stack([im, re], -1)]
        phases = np.concatenate(pairs).reshape(2 * len(rests), -1)
    swept = g // 2 + 1
    sums = np.zeros((len(phases), kmax + 1, g))
    for i in range(swept):
        slice_psi = np.einsum("a,ab->b", atom_0[i], atom_rest)
        if symmetric:
            slice_psi = slice_psi.real.copy()
        w = np.ones_like(slice_psi)
        for k in range(kmax + 1):
            sums[:, k, i] = np.einsum("rl,l->r", phases, w.view(np.float64))
            w *= slice_psi
    sums = sums[:len(rests)] + 1j * sums[len(rests):]
    sums[:, :, swept:] = np.conj(sums[:, :, g - swept:0:-1])
    lag_0 = np.exp(-2j * np.pi * np.outer(lags[:, 0], np.arange(g)) / g)
    out = np.einsum("lki,li->lk", sums[group], lag_0).real / g**d
    return np.clip(out, 0.0, 1.0)


def return_series(dist: StepDistribution, kmax: int,
                  lags: Sequence[Sequence[int]] = ((0,),)) -> ReturnSeries:
    """Exact convolution-power probabilities, plus a tail estimate.

    A law whose atoms each move at most one coordinate (every simple walk,
    every 1-D law, lazy walks) takes the binomial axis split; any other law
    the Fourier grid.  Centered laws get the local-CLT tail, laws with a
    drift (exponential decay) a geometric fit to the last terms.
    """
    if kmax < 0:
        raise ValueError("kmax must be >= 0")
    want = _requested_lags(dist, kmax, lags)
    if all(sum(c != 0 for c in a) <= 1 for a, _ in dist.atoms):
        out = _axis_probs(dist, kmax, want)
    else:
        out = _grid_probs(dist, kmax, want)
    if dist.is_centered():
        tails = _clt_tails(dist, kmax, want)
    else:
        tails = np.array([_geometric_tail(row) for row in out])
    return ReturnSeries(kmax=kmax, lags=tuple(want), probs=out, tails=tails)


@dataclass(frozen=True)
class TransientVarianceReport:
    mc_estimate: float
    mc_stderr: float
    series_prediction: float
    # sum_lags |cov(lag)| (tail(lag) + tail(-lag)): the size of the
    # extrapolated part of the prediction, not a proven error bound
    tail_bound: float
    # E[V_n(field)] / n at the report's n, the mean the Monte Carlo estimates
    finite_n_mean: float
    defect_estimate: float
    positive: bool
    n: int
    replicates: int
    # "keys" where the replicates walked in packed-key space, "sites" where
    # they took the pack_sites fallback
    route: str

    def record(self) -> dict:
        return {
            "mc_estimate": self.mc_estimate,
            "mc_stderr": self.mc_stderr,
            "series_prediction": self.series_prediction,
            "tail_bound": self.tail_bound,
            "defect_estimate": self.defect_estimate,
            "positive": self.positive,
        }


def transient_variance_report(dist: StepDistribution, field, n: int,
                              replicates: int, seed_base: int,
                              kmax: int = 200) -> TransientVarianceReport:
    """Two independent routes to V_n(field)/n for a transient walk.

    Route (a): Monte Carlo over walk realizations of the exact quadratic
    form (field covariance contracted against lag correlations of the
    local times), divided by n.  Each replicate walks in packed-key space
    (:class:`_WalkForms`): one draw, one cumulative sum and one key sort,
    with no site array and no per-step occupation, into working arrays
    sized once per call.  Route (b):
    the return-probability series, both at the report's n,

        E[V_n] / n = sum_lags cov(lag) [1{lag=0} + sum_{k=1}^{n-1} (1 - k/n)
                     (P(Z_k = lag) + P(Z_k = -lag))],

    exact for k <= kmax and from the estimated terms beyond, and as the
    n -> oo limit sum_lags cov(lag) I(lag) (``series_prediction``).  The
    defect estimate is (a) minus the finite-n mean.
    """
    cls = classify(dist)
    if cls.recurrence != "transient":
        raise ValueError(f"law is {cls.recurrence}, need transient")
    d = dist.d
    # the local-CLT terms of a centered law need det(Sigma) > 0; centered,
    # its support spans what its differences span
    if dist.is_centered() and _clt_law(dist)[2] == 0:
        raise ValueError("law is not genuinely d-dimensional: its support "
                         f"spans fewer than {d} dimensions")
    lags = _field_lags(field, d)
    series = return_series(dist, kmax, lags)
    ks = np.arange(1, n)
    exact = ks <= series.kmax
    probs = np.concatenate([series.probs[:, ks[exact]],
                            _terms_beyond(dist, series, ks[~exact])], axis=1)
    weights = 1 - ks / n
    prediction = 0.0
    tail_bound = 0.0
    finite = 0.0
    for lag in lags:
        c = field.covariance(lag)
        if c == 0.0:
            continue
        prediction += c * series.i_value(lag)
        i, j = series.lags.index(lag), series.lags.index(tuple(-x for x in lag))
        tail_bound += abs(c) * float(series.tails[i] + series.tails[j])
        finite += c * (all(x == 0 for x in lag)
                       + math.fsum(weights * (probs[i] + probs[j])))
    forms = _WalkForms(dist, n, field)
    vals = np.empty(replicates)
    for rep in range(replicates):
        vals[rep] = forms(rng.derive(seed_base, "walk", rep)) / n
    mc = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(replicates))
    return TransientVarianceReport(
        mc_estimate=mc, mc_stderr=stderr, series_prediction=prediction,
        tail_bound=tail_bound, finite_n_mean=finite,
        defect_estimate=mc - finite,
        positive=prediction > 0, n=n, replicates=replicates,
        route=forms.route)
