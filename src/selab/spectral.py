"""Fourier-side quantities: occupation kernels, characteristic functions,
return-probability series and the transient variance prediction.

The return-probability series P(Z_k = l), k <= kmax, is exact along one of
two routes, chosen from the law's atoms:

* axis split, for laws whose atoms each move at most one coordinate (every
  simple walk, every 1-D law, lazy walks): the k steps are shared among the
  axes with binomial weights and the per-axis 1-D convolution powers are
  merged, O(d kmax^2) per lag with no grid;
* Fourier grid, for any other law: P(Z_k = l) is a trigonometric polynomial
  of degree <= k r for support radius r, so averaging
  psi(t)^k e^{-2 pi i <l, t>} over the rank-G product grid reproduces it
  whenever G > kmax r + |l|_inf (no aliasing).

The sum over k > kmax is estimated, not bounded: by the leading local-CLT
term, summed in closed form over the times the walk can be at l, for
centered laws (decay k^(-d/2)), and by a geometric fit to the last terms for
laws with a drift (exponential decay).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import zeta

from . import rng, sources
from .ledger import LocalTimeLedger, local_time_block, pack_sites
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
    axes = [np.arange(q) / q] * ledger.d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    return float(kernel_from_ledger(ledger, pts).mean())


def lag_correlation(coords: np.ndarray, counts: np.ndarray,
                    lag: Sequence[int]) -> int:
    """sum_r N(r + lag) N(r) over the visited range."""
    lag = tuple(int(c) for c in lag)
    margin = max((abs(c) for c in lag), default=0)
    key, strides = pack_sites(coords, margin)
    order = np.argsort(key)
    key_s, cnt_s = key[order], np.asarray(counts)[order]
    offset = sum(c * s for c, s in zip(lag, strides))
    shifted = key_s + offset
    idx = np.searchsorted(key_s, shifted)
    idx_c = np.clip(idx, 0, key_s.size - 1)
    match = key_s[idx_c] == shifted
    return int(np.sum(cnt_s[match] * cnt_s[idx_c[match]]))


def quadratic_form(ledger: LocalTimeLedger, field) -> float:
    """sum_lags cov(lag) * sum_r N(r + lag) N(r), the exact sampling
    variance numerator of sum N(site) X(site) for the fixed ledger."""
    return _quadratic_form_arrays(ledger.sites, ledger.local_times, field,
                                  ledger.d)


def _field_lags(field, d: int) -> list[Site]:
    window = getattr(field, "window", 0)
    lags = []
    for h in range(-window, window + 1):
        lag = [0] * d
        lag[0] = h
        lags.append(tuple(lag))
    return lags


def _quadratic_form_arrays(coords, counts, field, d: int) -> float:
    total = 0.0
    for lag in _field_lags(field, d):
        c = field.covariance(lag)
        if c != 0.0:
            total += c * lag_correlation(coords, counts, lag)
    return total


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


def phi_lambda(dist: StepDistribution, t: Sequence[float], lam: float) -> float:
    """(1 - lam^2 |psi|^2) / |1 - lam psi|^2 for 0 < lam < 1."""
    if not 0 < lam < 1:
        raise ValueError("lam must be in (0, 1)")
    z = psi(dist, t)
    return (1 - lam**2 * abs(z) ** 2) / abs(1 - lam * z) ** 2


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

    def i_value(self, lag: Site, with_tail: bool = True) -> float:
        """I(l) = -1{l=0} + sum_{k>=0} [P(Z_k=l) + P(Z_k=-l)], truncated."""
        lag = tuple(lag)
        neg = tuple(-c for c in lag)
        i, j = self._row(lag), self._row(neg)
        s = float(self.probs[i].sum() + self.probs[j].sum())
        if with_tail:
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
    slope = np.polyfit(ks.astype(np.float64), np.log(vals), 1)[0]
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


def _clt_terms(dist: StepDistribution, lags: Sequence[Site],
               ks: np.ndarray) -> np.ndarray:
    """The leading local-CLT term of P(Z_k = l) (see :func:`_clt_tails`) at
    the times ks, 0 at times k with l outside k a + L."""
    a0, basis, period, pref = _clt_law(dist)
    if period == 0:
        return np.full((len(lags), ks.size), math.nan)
    out = np.zeros((len(lags), ks.size))
    cov = dist.covariance()
    k = ks.astype(np.float64)
    for li, lag in enumerate(lags):
        x = np.array(lag)
        c = 0.5 * float(x @ np.linalg.solve(cov, x))
        for r in range(period):
            if sources.lattice_contains(basis, x - r * a0):
                on = ks % period == r
                out[li, on] = pref * k[on] ** (-dist.d / 2) * np.exp(-c / k[on])
    return out


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
    a0, basis, period, pref = _clt_law(dist)
    if period == 0:
        return np.full(len(lags), math.nan)
    cov = dist.covariance()
    s = dist.d / 2
    tails = np.zeros(len(lags))
    for li, lag in enumerate(lags):
        x = np.array(lag)
        c = 0.5 * float(x @ np.linalg.solve(cov, x))
        for r in range(period):
            if not sources.lattice_contains(basis, x - r * a0):
                continue
            if s <= 1:
                tails[li] = math.inf
                break
            # sum_{k = p j + r > kmax} k^-s e^{-c/k}: terms with k < 4c one
            # by one, the rest by 30 terms of the expansion (c/k <= 1/4)
            j0 = (kmax - r) // period + 1
            j1 = max(j0, math.ceil((4 * c - r) / period))
            k = period * np.arange(j0, j1) + r
            head = float(np.sum(k ** -s * np.exp(-c / k)))
            n = np.arange(30)
            coef = np.cumprod(np.concatenate(([1.0], -c / n[1:])))
            tail = float(np.sum(coef * period ** -(s + n)
                                * zeta(s + n, j1 + r / period)))
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
    c(k) = sum_m C(k, m) q^m (1 - q)^(k - m) a(m) b(k - m).
    """
    d = dist.d
    lags = np.array(want, dtype=np.int64)
    weights = np.zeros(d)
    kernels = [{} for _ in range(d)]
    for a, p in dist.atoms:
        j = next((i for i, c in enumerate(a) if c != 0), 0)
        weights[j] += p
        kernels[j][a[j]] = kernels[j].get(a[j], 0.0) + p
    out, w_out = None, 0.0
    for j in range(d):
        if weights[j] == 0.0:
            continue  # the walk never moves along axis j
        series = _one_axis_series(kernels[j], weights[j], kmax, lags[:, j])
        if out is None:
            out = series
        else:
            out = _binomial_merge(out, series, w_out / (w_out + weights[j]))
        w_out += weights[j]
    still = weights == 0.0
    return out * np.all(lags[:, still] == 0, axis=1)[:, None]


def _one_axis_series(kernel: dict[int, float], weight: float, kmax: int,
                     targets: np.ndarray) -> np.ndarray:
    """P(S_m = t) for m = 0..kmax and each target t, S a 1-D walk with step
    law kernel / weight."""
    r = max(abs(o) for o in kernel)
    kern = np.zeros(2 * r + 1)
    for o, p in kernel.items():
        kern[r + o] += p / weight
    width = 2 * kmax * r + 1
    inside = np.abs(targets) <= kmax * r
    idx = np.where(inside, targets + kmax * r, 0)
    vec = np.zeros(width)
    vec[kmax * r] = 1.0
    out = np.empty((targets.size, kmax + 1))
    for m in range(kmax + 1):
        if m:
            vec = np.convolve(vec, kern, mode="same")
        out[:, m] = vec[idx] * inside
    return out


def _binomial_merge(a: np.ndarray, b: np.ndarray, q: float) -> np.ndarray:
    """c[:, k] = sum_m P(Bin(k, q) = m) a[:, m] b[:, k - m]."""
    out = np.empty_like(a)
    pmf = np.ones(1)
    for k in range(a.shape[1]):
        if k:
            # Pascal's rule: positive terms only, no cancellation
            pmf = np.append(0.0, q * pmf) + np.append((1 - q) * pmf, 0.0)
        out[:, k] = (a[:, :k + 1] * b[:, k::-1]) @ pmf
    return out


def _grid_probs(dist: StepDistribution, kmax: int,
                want: Sequence[Site]) -> np.ndarray:
    """P(Z_k = l) by averaging psi^k e^{-2 pi i <l, t>} over a Fourier grid.

    P(Z_k = x) vanishes for |x|_inf > k r, so the rank-G grid with
    G = kmax r + max |l|_inf + 1 aliases no mass onto the requested lags.
    Lags along later axes are grouped so the grid is swept once.
    """
    d = dist.d
    radius = max(dist.radius(), 1)
    g = kmax * radius + max(abs(c) for lag in want for c in lag) + 1

    support = dist.support()
    probs = dist.probs()
    symmetric = dist.is_symmetric()

    # group the requested lags by their coordinates on axes 1..d-1
    rest_groups: list[tuple[tuple[int, ...], list[int]]] = []
    lag_group = []
    for li, lag in enumerate(want):
        rest = lag[1:]
        for gi, (r, members) in enumerate(rest_groups):
            if r == rest:
                members.append(li)
                lag_group.append(gi)
                break
        else:
            rest_groups.append((rest, [li]))
            lag_group.append(len(rest_groups) - 1)

    # per-slice coordinates on axes 1..d-1
    if d > 1:
        axes = [np.arange(g)] * (d - 1)
        mesh = np.meshgrid(*axes, indexing="ij")
        rest_coords = np.stack([m.ravel() for m in mesh], axis=1)  # (g^(d-1), d-1)
    else:
        rest_coords = np.zeros((1, 0), dtype=np.int64)
    slice_size = rest_coords.shape[0]

    # atom phases on the slice (independent of the axis-0 grid index)
    atom_rest = np.empty((len(support), slice_size), dtype=np.complex128)
    for ai, a in enumerate(support):
        phase = np.zeros(slice_size)
        for j in range(1, d):
            phase = phase + a[j] * rest_coords[:, j - 1]
        atom_rest[ai] = np.exp(2j * np.pi * phase / g)

    group_weights = []
    for rest, _ in rest_groups:
        if all(c == 0 for c in rest):
            group_weights.append(None)  # weight identically 1
        else:
            phase = np.zeros(slice_size)
            for j, c in enumerate(rest):
                phase = phase + c * rest_coords[:, j]
            group_weights.append(np.exp(-2j * np.pi * phase / g))

    half = symmetric
    i1_range = range(g // 2 + 1) if half else range(g)
    n_groups = len(rest_groups)
    sums = np.zeros((n_groups, kmax + 1, g), dtype=np.complex128)
    for i1 in i1_range:
        slice_psi = np.zeros(slice_size, dtype=np.complex128)
        for ai, a in enumerate(support):
            slice_psi += probs[ai] * np.exp(2j * np.pi * a[0] * i1 / g) * atom_rest[ai]
        if symmetric:
            slice_psi = slice_psi.real.astype(np.float64)
        w = np.ones_like(slice_psi)
        for gi in range(n_groups):
            gw = group_weights[gi]
            sums[gi, 0, i1] = w.sum() if gw is None else (w * gw).sum()
        for k in range(1, kmax + 1):
            w = w * slice_psi
            for gi in range(n_groups):
                gw = group_weights[gi]
                sums[gi, k, i1] = w.sum() if gw is None else (w * gw).sum()
    if half:
        for i1 in range(g // 2 + 1, g):
            sums[:, :, i1] = np.conj(sums[:, :, g - i1])

    i1_grid = np.arange(g)
    out = np.empty((len(want), kmax + 1))
    for li, lag in enumerate(want):
        gi = lag_group[li]
        w1 = np.exp(-2j * np.pi * lag[0] * i1_grid / g)
        vals = (sums[gi] @ w1).real / g**d
        out[li] = np.clip(vals, 0.0, 1.0)

    return out


def return_series(dist: StepDistribution, kmax: int,
                  lags: Sequence[Sequence[int]] = ((0,),)) -> ReturnSeries:
    """Exact convolution-power probabilities, plus a tail estimate.

    A law whose atoms each move at most one coordinate (every simple walk,
    every 1-D law, lazy walks) takes the binomial axis split; any other law
    the Fourier grid.  Centered laws get the local-CLT tail, laws with a
    drift (exponential decay) a geometric fit to the last terms.
    """
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
                              kmax: int = 200,
                              series: ReturnSeries | None = None
                              ) -> TransientVarianceReport:
    """Two independent routes to V_n(field)/n for a transient walk.

    Route (a): Monte Carlo over walk realizations of the exact quadratic
    form (field covariance contracted against lag correlations of the
    local times), divided by n.  Route (b): the return-probability series,
    both at the report's n,

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
    if series is None:
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
        prediction += c * series.i_value(lag, with_tail=True)
        i, j = series.lags.index(lag), series.lags.index(tuple(-x for x in lag))
        tail_bound += abs(c) * float(series.tails[i] + series.tails[j])
        finite += c * (all(x == 0 for x in lag)
                       + float(weights @ (probs[i] + probs[j])))
    vals = np.empty(replicates)
    for rep in range(replicates):
        cfg = RandomWalkSource(dist, rng.derive(seed_base, "walk", rep))
        _, sites, times = local_time_block(sources.generate(cfg, n))
        vals[rep] = _quadratic_form_arrays(sites, times, field, d) / n
    mc = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(replicates))
    return TransientVarianceReport(
        mc_estimate=mc, mc_stderr=stderr, series_prediction=prediction,
        tail_bound=tail_bound, finite_n_mean=finite,
        defect_estimate=mc - finite,
        positive=prediction > 0, n=n, replicates=replicates)
