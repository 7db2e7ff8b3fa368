import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from selab import ledger, rng, sources, spectral
from selab import (LocalTimeLedger, RandomWalkSource, StepDistribution,
                   kernel_from_ledger, kernel_grid_mean, lag_correlation, phi,
                   psi, quadratic_form, return_series, simple_walk,
                   transient_variance_report)
from selab.fields import GaussianField, MovingAverageField, UniformField
from selab.selftest import (coordinate_quadratic_form, return_series_routes,
                            variance_keys)

PM1 = StepDistribution([((1,), 0.5), ((-1,), 0.5)])
# G(3) - 1 for the simple walk on Z^3 from Watson's closed form
# G(3) = sqrt(6) / (32 pi^3) Gamma(1/24) Gamma(5/24) Gamma(7/24) Gamma(11/24)
WATSON_G3_MINUS_1 = (math.sqrt(6) / (32 * math.pi**3) * math.gamma(1 / 24)
                     * math.gamma(5 / 24) * math.gamma(7 / 24)
                     * math.gamma(11 / 24) - 1)


def make_ledger(sites):
    led = LocalTimeLedger(len(sites[0]))
    led.record_many(sites)
    return led


def test_kernel_at_zero_is_n_squared():
    led = make_ledger([(k % 5, k % 3) for k in range(40)])
    assert float(kernel_from_ledger(led, [(0.0, 0.0)])[0]) == pytest.approx(
        40.0**2)


def test_kernel_grid_mean_parseval():
    led = make_ledger([(k % 6,) for k in range(25)])
    # diameter 5 < q = 7: the grid mean is exactly V
    assert kernel_grid_mean(led, 7) == pytest.approx(
        led.self_intersections, rel=1e-12)
    # q = 4 <= diameter: aliasing, mean exceeds V here
    assert kernel_grid_mean(led, 4) != pytest.approx(
        led.self_intersections, rel=1e-6)


def test_lag_correlation_small():
    led = make_ledger([(0,), (1,), (0,), (3,)])
    coords = np.array(list(led.counts.keys()), dtype=np.int64)
    counts = np.array(list(led.counts.values()), dtype=np.int64)
    assert lag_correlation(coords, counts, (0,)) == 6  # 4 + 1 + 1
    assert lag_correlation(coords, counts, (1,)) == 2  # N(1)N(0)
    assert lag_correlation(coords, counts, (-1,)) == 2
    assert lag_correlation(coords, counts, (2,)) == 1  # N(3)N(1)
    # (0, 0) + (0, 3) is no site: a pack margin below 3 aliases it to (1, 0)
    assert lag_correlation([[0, 0], [1, 0]], [1, 1], (0, 3)) == 0
    # a d = 2 walk against sum_r N(r + lag) N(r) over a dict of local times
    sites = np.cumsum(np.random.default_rng(3).integers(-1, 2, (400, 2)), axis=0)
    table = Counter(map(tuple, sites.tolist()))
    coords = np.array(list(table), dtype=np.int64)
    counts = np.array(list(table.values()), dtype=np.int64)
    for lag in ((0, 0), (1, 0), (-1, 2)):
        want = sum(n * table.get((r[0] + lag[0], r[1] + lag[1]), 0)
                   for r, n in table.items())
        assert lag_correlation(coords, counts, lag) == want


def test_quadratic_form_iid_is_variance_times_v():
    led = make_ledger([(k % 4, (k * 7) % 5) for k in range(60)])
    f = UniformField()
    assert quadratic_form(led, f) == pytest.approx(
        led.self_intersections / 12, rel=1e-12)


def test_quadratic_form_moving_average_window():
    led = make_ledger([(0,), (1,), (0,)])
    f = MovingAverageField([1.0, 1.0])  # cov 2 at lag 0, 1 at lags +-1
    # lag corr: 0 -> 5, +-1 -> 2 each
    assert quadratic_form(led, f) == pytest.approx(2 * 5 + 1 * 2 + 1 * 2)


def test_quadratic_form_sorts_the_sites_once(monkeypatch):
    # every lag of a moving-average field from one pack and one key sort;
    # an i.i.d. field (lag 0 only) needs neither
    sites = np.cumsum(np.random.default_rng(4).integers(-1, 2, (3000, 3)),
                      axis=0)
    led = LocalTimeLedger.from_trajectory(sites)
    calls = []
    for name in ("pack_sites", "sort_keys"):
        fn = getattr(spectral, name)
        monkeypatch.setattr(spectral, name, lambda *a, fn=fn, name=name:
                            calls.append(name) or fn(*a))
    field = MovingAverageField([1.0, 0.5, 0.25, 0.1])
    got = quadratic_form(led, field)
    assert calls == ["pack_sites", "sort_keys"]
    table = Counter(map(tuple, sites.tolist()))
    want = 0.0
    for h in range(-3, 4):
        want += field.covariance((h, 0, 0)) * sum(
            n * table.get((r[0] + h,) + r[1:], 0) for r, n in table.items())
    assert got == want
    calls.clear()
    assert quadratic_form(led, GaussianField(0.0, 2.0)) == \
        4.0 * led.self_intersections
    assert calls == []


def test_quadratic_form_packs_keys_that_fit_62_bits():
    # each axis is B + 1 wide: (B + 1)^3 < 2^61, though the per-axis bit
    # lengths of B + 1 add up to 63
    big = 1 << 20
    sites = [(0, 0, 0), (big, big, big), (1, 0, 0), (big - 1, big, big)]
    led = LocalTimeLedger.from_trajectory(sites)
    field = MovingAverageField([1.0, 1.0])
    table = Counter(sites)
    want = 0.0
    for h in (-1, 0, 1):
        want += field.covariance((h, 0, 0)) * sum(
            n * table.get((r[0] + h,) + r[1:], 0) for r, n in table.items())
    assert want == 12.0  # 2 * 4 from lag 0, 2 from each of lags +-1
    assert quadratic_form(led, field) == want
    # the sites take the offset layout, not the dense ranks
    layout = ledger.pack_sites(np.array(sites))[1]
    assert layout.ranks is None
    assert layout.strides == ledger.key_strides([big + 1] * 3)


@st.composite
def walk_laws(draw):
    """Laws on Z^d, d <= 4, of radius <= 2: zero-probability atoms, a lazy
    (zero) atom and a drift all occur."""
    d = draw(st.integers(1, 4))
    r = draw(st.integers(1, 2))
    atoms = draw(st.lists(st.tuples(*[st.integers(-r, r)] * d), min_size=1,
                          max_size=6, unique=True))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(atoms),
                            max_size=len(atoms)).filter(any))
    return StepDistribution([(a, w / sum(weights))
                             for a, w in zip(atoms, weights)])


fields_up_to_window_3 = st.one_of(
    st.just(GaussianField(0.0, 2.0)),
    st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1,
             max_size=3).filter(any).map(MovingAverageField))


@given(walk_laws(), fields_up_to_window_3, st.integers(1, 400),
       st.integers(0, 2**64 - 1))
@settings(max_examples=80, deadline=None)
def test_key_walk_matches_the_coordinate_route(law, field, n, seed):
    assert variance_keys(law, n, field, [seed])


@st.composite
def reused_walk_laws(draw):
    """A lazy, an asymmetric or a radius-2 law on Z^d, d <= 3."""
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["lazy", "asymmetric", "radius-2"]))
    axes = [tuple(s * (i == j) for j in range(d)) for i in range(d)
            for s in (1, -1)]
    if kind == "radius-2":
        axes += [tuple(2 * c for c in a) for a in axes]
    weights = draw(st.lists(st.integers(1, 4), min_size=len(axes),
                            max_size=len(axes)))
    if kind != "asymmetric":  # each axis's +- pair shares its weight
        weights = [weights[i - i % 2] for i in range(len(axes))]
    if kind == "lazy":
        axes.append((0,) * d)
        weights.append(draw(st.integers(1, 8)))
    return StepDistribution([(a, w / sum(weights))
                             for a, w in zip(axes, weights)])


@given(reused_walk_laws(), fields_up_to_window_3, st.integers(1, 300),
       st.lists(st.integers(0, 2**64 - 1), min_size=2, max_size=3,
                unique=True))
@settings(max_examples=40, deadline=None)
def test_reused_key_walk_buffers_leak_nothing_between_seeds(law, field, n,
                                                            seeds):
    # one walker per seed order, its arrays drawn over by every seed
    assert spectral._WalkForms(law, n, field).route == "keys"
    for order in (seeds, seeds[::-1], seeds + seeds[:1]):
        assert variance_keys(law, n, field, order)


def test_key_walk_falls_back_to_the_sites_past_62_bits():
    # the d = 4 simple walk's keys need (2 (n + margin) + 1)^4 < 2^62, so at
    # n = 30 000 the sites are generated and packed
    assert ledger.key_strides([60_001] * 4) is None
    for field in (GaussianField(), MovingAverageField([1.0, 0.5, 0.25])):
        assert variance_keys(simple_walk(4), 30_000, field, [8])


# the d = 4 simple walk under a three-weight field (margin 2) takes the key
# walk while (2 (n + 2) + 1)^4 < 2^62, that is up to n = 23 167
@pytest.mark.parametrize("n, route", [
    (23_167, {"walk_keys": 3, "key_local_times": 3}),
    (23_168, {"generate": 3, "pack_sites": 3, "key_local_times": 3})])
def test_variance_replicates_sort_once_and_skip_the_occupation(
        monkeypatch, n, route):
    calls = Counter()
    for module, name in ((sources, "generate"), (sources, "walk_keys"),
                         (spectral, "pack_sites"), (spectral, "sort_keys"),
                         (spectral, "key_local_times"),
                         (ledger, "local_time_block")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name:
                            calls.update([name]) or fn(*a))
    field = MovingAverageField([1.0, 0.5, 0.25])
    rep = transient_variance_report(simple_walk(4), field, n, 3, seed_base=2,
                                    kmax=10)
    assert calls == route
    walks = [RandomWalkSource(simple_walk(4), rng.derive(2, "walk", r))
             for r in range(3)]
    vals = np.array([coordinate_quadratic_form(cfg, n, field) / n
                     for cfg in walks])
    assert rep.mc_estimate == float(vals.mean())


def test_psi_and_phi_pm1_walk():
    ts = np.random.default_rng(1).uniform(0.01, 0.99, size=100)
    for t in ts:
        assert psi(PM1, [t]) == pytest.approx(math.cos(2 * math.pi * t))
        assert phi(PM1, [t]) == pytest.approx(1 / math.tan(math.pi * t) ** 2,
                                              abs=1e-10)
    assert phi(PM1, [0.0]) == 0.0


def test_phi_rejects_periodic_law():
    law_2z = StepDistribution([((2,), 0.5), ((-2,), 0.5)])
    with pytest.raises(ValueError, match="aperiodic"):
        phi(law_2z, [0.5])


def phi_lambda(dist, t, lam):
    """Re[(1 + lam psi) / (1 - lam psi)] = (1 - lam^2 |psi|^2) /
    |1 - lam psi|^2, the Abel-regularised phi, for 0 < lam < 1."""
    z = psi(dist, t)
    return (1 - lam**2 * abs(z) ** 2) / abs(1 - lam * z) ** 2


def test_phi_lambda_monotone_approach():
    ts = [0.13, 0.31, 0.47]
    for t in ts:
        target = phi(PM1, [t])
        errs = [abs(phi_lambda(PM1, [t], lam) - target)
                for lam in (0.9, 0.99, 0.999)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.01 * max(1.0, abs(target))


def test_return_series_d1_exact_central_binomials():
    rs = return_series(PM1, 8, [(0,), (2,)])
    p0 = rs.probs[rs.lags.index((0,))]
    assert p0[0] == pytest.approx(1.0)
    assert p0[1] == pytest.approx(0.0, abs=1e-12)
    assert p0[2] == pytest.approx(0.5)
    assert p0[4] == pytest.approx(6 / 16)
    assert p0[6] == pytest.approx(20 / 64)
    p2 = rs.probs[rs.lags.index((2,))]
    assert p2[2] == pytest.approx(0.25)
    assert p2[4] == pytest.approx(4 / 16)


def _convolution_powers(law, kmax):
    """P(Z_k = x) for k = 1..kmax on the box |x|_inf <= kmax, by dense
    convolution."""
    box = np.zeros((2 * kmax + 1,) * law.d)
    box[(kmax,) * law.d] = 1.0
    for _ in range(kmax):
        nxt = np.zeros_like(box)
        for a, p in law.atoms:
            # support radius stays below kmax, so np.roll never wraps mass
            nxt += p * np.roll(box, a, axis=tuple(range(law.d)))
        box = nxt
        yield box


def test_return_series_matches_direct_convolution_d2():
    axis_law = StepDistribution([((1, 0), 0.4), ((-1, 0), 0.2),
                                 ((0, 1), 0.3), ((0, -1), 0.1)])
    # diagonal atoms take the Fourier grid
    diagonal_law = StepDistribution([((1, 1), 0.3), ((-1, 0), 0.25),
                                     ((0, -1), 0.2), ((0, 0), 0.1),
                                     ((-1, -1), 0.15)])
    kmax = 6
    for law in (axis_law, diagonal_law):
        rs = return_series(law, kmax, [(0, 0), (1, 0), (0, -1)])
        for k, box in enumerate(_convolution_powers(law, kmax), start=1):
            for lag in [(0, 0), (1, 0), (0, -1)]:
                want = box[kmax + lag[0], kmax + lag[1]]
                got = rs.probs[rs.lags.index(lag)][k]
                assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("law", [
    # symmetric fcc-type law: the 12 steps +-e_i +-e_j
    StepDistribution([(tuple(s * (i == a) + t * (i == b) for i in range(3)),
                       1 / 12) for a, b in ((0, 1), (0, 2), (1, 2))
                      for s in (1, -1) for t in (1, -1)]),
    StepDistribution([((1, 1, 0), 0.2), ((-1, 0, 0), 0.15), ((0, -1, 0), 0.15),
                      ((0, 1, 1), 0.2), ((0, 0, -1), 0.1),
                      ((-1, -1, -1), 0.2)]),
])
def test_return_series_matches_direct_convolution_d3(law):
    # seven lags in five groups by their coordinates on axes 1 and 2
    kmax = 6
    rs = return_series(law, kmax, [(0, 0, 0), (1, 0, 0), (0, 1, 1),
                                   (1, -1, 0)])
    assert len(rs.lags) == 7
    for k, box in enumerate(_convolution_powers(law, kmax), start=1):
        for lag in rs.lags:
            want = box[tuple(kmax + c for c in lag)]
            got = rs.probs[rs.lags.index(lag)][k]
            assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("law, lags", [
    (PM1, [(0,), (3,)]),
    # lazy, asymmetric, radius 2
    (StepDistribution([((-2,), 0.1), ((0,), 0.3), ((1,), 0.6)]),
     [(0,), (-3,)]),
    (simple_walk(2), [(0, 0), (1, 1)]),
    (StepDistribution([((1, 0), 0.4), ((-1, 0), 0.2), ((0, 1), 0.3),
                       ((0, -1), 0.1)]), [(0, 0), (2, -1)]),
    (simple_walk(3), [(0, 0, 0), (1, 0, 0)]),
    # lazy asymmetric walk in Z^3 with a radius-2 axis and an unused atom
    (StepDistribution([((0, 0, 0), 0.2), ((2, 0, 0), 0.1), ((-1, 0, 0), 0.2),
                       ((0, 1, 0), 0.15), ((0, -1, 0), 0.15),
                       ((0, 0, 1), 0.2), ((0, 0, -1), 0.0)]),
     [(0, 0, 0), (1, -1, 2)]),
    # never moves along axis 1
    (StepDistribution([((1, 0), 0.5), ((-1, 0), 0.5)]), [(0, 0), (1, 1)]),
])
def test_axis_route_matches_grid_route(law, lags):
    assert return_series_routes(law, 24, lags)


@pytest.mark.parametrize("law, series", [
    (simple_walk(3), 1),
    # axes 0 and 2 share a kernel and a weight, axis 1 has its own
    (StepDistribution([((1, 0, 0), 0.15), ((-1, 0, 0), 0.15),
                       ((0, 1, 0), 0.3), ((0, -1, 0), 0.1),
                       ((0, 0, 1), 0.15), ((0, 0, -1), 0.15)]), 2),
])
def test_axes_that_share_a_law_share_one_series(monkeypatch, law, series):
    # one series per distinct (kernel, weight), and every probability keeps
    # the bits of one series per axis merged in axis order
    want = spectral._requested_lags(law, 24, [(0, 0, 0), (1, -1, 2)])
    lags, per_axis = np.array(want), None
    weights = [sum(p for a, p in law.atoms if a[j]) for j in range(3)]
    for j in range(3):
        axis = spectral._one_axis_series({a[j]: p for a, p in law.atoms
                                          if a[j]}, weights[j], 24, lags[:, j])
        w = sum(weights[:j])
        per_axis = axis if j == 0 else spectral._binomial_merge(
            per_axis, axis, w / (w + weights[j]))
    calls, one_axis = [], spectral._one_axis_series
    monkeypatch.setattr(spectral, "_one_axis_series",
                        lambda *a: calls.append(a) or one_axis(*a))
    assert spectral._axis_probs(law, 24, want).tobytes() == per_axis.tobytes()
    assert len(calls) == series
    assert return_series_routes(law, 24, [(0, 0, 0), (1, -1, 2)])


def test_return_series_reproduces_watson_g3():
    rs = return_series(simple_walk(3), 200, [(0, 0, 0), (1, 0, 0)])
    assert abs(rs.partial_sum((0, 0, 0)) - WATSON_G3_MINUS_1) < 2e-4
    # G(e_1) = G(0) - 1; visits to a neighbour fall on odd times only
    assert abs(rs.partial_sum((1, 0, 0)) - WATSON_G3_MINUS_1) < 2e-4
    # the tail carries about a tenth of the sum at kmax = 200
    assert rs.tails[rs.lags.index((0, 0, 0))] > 0.04


def test_return_series_deterministic_drift_never_returns():
    drift = StepDistribution([((1,), 1.0)])
    rs = return_series(drift, 10, [(0,)])
    assert np.all(rs.probs[rs.lags.index((0,))][1:] == pytest.approx(0.0,
                                                                     abs=1e-12))
    assert rs.tails[rs.lags.index((0,))] == 0.0


def test_return_series_partial_sums_monotone():
    rs = return_series(simple_walk(2), 40, [(0, 0)])
    p = rs.probs[rs.lags.index((0, 0))]
    assert np.all(p >= -1e-15)
    assert rs.partial_sum((0, 0), with_tail=False) >= 0
    # the planar walk is recurrent: its return series diverges
    assert math.isinf(rs.partial_sum((0, 0)))


def test_return_series_of_a_lower_dimensional_law_has_no_tail_estimate():
    # +-e_1 in Z^3 has a singular covariance, so the local-CLT tail has no
    # value; the terms are still the 1-D central binomials
    law = StepDistribution([((1, 0, 0), 0.5), ((-1, 0, 0), 0.5)])
    rs = return_series(law, 10, [(0, 0, 0), (2, 0, 0)])
    assert np.isnan(rs.tails).all()
    assert rs.probs[rs.lags.index((0, 0, 0)), 4] == pytest.approx(6 / 16)
    assert rs.probs[rs.lags.index((-2, 0, 0)), 4] == pytest.approx(4 / 16)


def test_transient_variance_requires_transient():
    with pytest.raises(ValueError, match="transient"):
        transient_variance_report(simple_walk(2), UniformField(), 100, 10, 1)


@pytest.mark.parametrize("law", [
    StepDistribution([((1, 0, 0), 0.5), ((-1, 0, 0), 0.5)]),
    StepDistribution([((1, 0, 0), 0.25), ((-1, 0, 0), 0.25),
                      ((0, 1, 0), 0.25), ((0, -1, 0), 0.25)]),
    StepDistribution([((a, b, c, 0), p) for (a, b, c), p
                      in simple_walk(3).atoms]),
])
def test_transient_variance_rejects_lower_dimensional_laws(law):
    with pytest.raises(ValueError, match="recurrent|dimensional"):
        transient_variance_report(law, UniformField(), 100, 10, 1, kmax=10)


def test_transient_variance_needs_a_step():
    with pytest.raises(ValueError, match="n must be >= 1"):
        transient_variance_report(simple_walk(3), UniformField(), 0, 2, 1,
                                  kmax=10)


def test_transient_variance_small_run():
    rs = return_series(simple_walk(3), 60, [(0, 0, 0)])
    rep = transient_variance_report(simple_walk(3), UniformField(), 20000, 8,
                                    seed_base=5, kmax=60)
    assert rep.positive
    assert rep.series_prediction == pytest.approx(
        rs.i_value((0, 0, 0)) / 12, rel=1e-12)
    assert abs(rep.defect_estimate) < 0.1 * rep.series_prediction


@pytest.mark.filterwarnings("error")
def test_lag_correlation_at_the_int64_edge():
    top = (1 << 63) - 1
    assert lag_correlation([[top - 1], [top]], [1, 1], (1,)) == 1
    assert lag_correlation([[-top - 1], [-top]], [2, 3], (-1,)) == 6
    # the copies are 2^63, which no int64 trajectory visits, and
    # -2^63 + 1, which is not among the sites: both have N = 0
    assert lag_correlation([[-top - 1], [top]], [1, 1], (1,)) == 0


def _dict_lag_correlation(sites, counts, lag) -> int:
    """sum_r N(r + lag) N(r) over a Counter of Python-int sites: no int64,
    so a copy past the int64 ends is simply a site that is not there."""
    table = Counter()
    for site, count in zip(sites, counts):
        table[tuple(site)] += count
    return sum(n * table[tuple(x + h for x, h in zip(r, lag))]
               for r, n in table.items())


TOP = (1 << 63) - 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sites, counts, lag", [
    ([[-TOP - 1], [TOP]], [1, 1], (1,)),
    ([[-TOP - 1], [TOP]], [1, 1], (-1,)),
    ([[-TOP - 1], [TOP], [TOP - 1]], [1, 2, 3], (1,)),
    ([[-TOP - 1], [-TOP], [TOP]], [2, 3, 5], (-1,)),
    ([[-TOP - 1], [TOP]], [4, 7], (2,)),
    ([[TOP, 0], [0, -TOP - 1], [TOP - 1, 0], [1, -TOP - 1]], [1, 2, 3, 4],
     (1, 0)),
    ([[TOP, 0], [0, -TOP - 1], [TOP - 1, 0], [0, -TOP]], [1, 2, 3, 4],
     (0, -1))])
def test_lag_correlation_drops_copies_past_the_int64_ends(sites, counts, lag):
    assert lag_correlation(sites, counts, lag) == _dict_lag_correlation(
        sites, counts, lag)


@st.composite
def lagged_site_sets(draw):
    """(sites, counts, lag): up to 10 distinct sites of Z^d, d <= 4, with
    coordinates near 0, near the 62-bit edge or at the int64 ends, so that
    both layouts occur, and a lag on any axes, small, past 2^63 or wider
    than every axis (2^64)."""
    d = draw(st.integers(1, 4))
    pool = draw(st.lists(st.one_of(
        st.integers(-3, 3), st.sampled_from([-TOP - 1, -TOP, TOP, TOP - 1,
                                             1 << 62, 1 << 61])),
        min_size=1, max_size=4))
    sites = draw(st.lists(st.tuples(*[st.sampled_from(pool)] * d),
                          min_size=1, max_size=10, unique=True))
    counts = draw(st.lists(st.integers(1, 9), min_size=len(sites),
                           max_size=len(sites)))
    lag = draw(st.tuples(*[st.one_of(
        st.integers(-3, 3), st.sampled_from([TOP, -TOP - 1, 2 * TOP + 1,
                                             -2 * TOP - 1, 1 << 64]))] * d))
    return sites, counts, lag


# ranks on both axes, moved along the second, by 2^64 - 1 (an int64 end
# to the other) and by 2^64, past every axis
@given(lagged_site_sets())
@example(([(0, -TOP - 1), (0, TOP), (1, 0)], [2, 3, 5], (0, 2 * TOP + 1)))
@example(([(0, -TOP - 1), (0, TOP), (1, 0)], [2, 3, 5], (0, 1 << 64)))
@example(([(0, -TOP - 1), (1, TOP), (1, 0)], [2, 3, 5], (1, 2 * TOP + 1)))
@settings(max_examples=200, deadline=None)
def test_lag_correlation_moves_every_axis_under_both_layouts(case):
    sites, counts, lag = case
    assert lag_correlation(sites, counts, lag) == _dict_lag_correlation(
        sites, counts, lag)


def test_lag_correlation_through_the_rank_pre_step():
    # the keys reach 2^61, so a 2-bit row index shifted in beside them would
    # wrap the top key past 2^63 and part it from its neighbour
    sites, counts = [[0], [(1 << 61) - 2], [(1 << 61) - 1]], [2, 3, 5]
    assert lag_correlation(sites, counts, (1,)) == 15
    assert lag_correlation(sites, counts, (-1,)) == 15
    assert lag_correlation(sites, counts, (2,)) == 0


def _dict_quadratic_form(sites, field) -> float:
    """sum_lags cov(lag) sum_r N(r + lag) N(r) over a Counter of the sites,
    with Python ints for coordinates: no packing and no int64."""
    table = Counter(map(tuple, sites))
    total = 0.0
    for lag in spectral._field_lags(field, len(sites[0])):
        c = field.covariance(lag)
        if c != 0.0:
            total += c * sum(
                n * table.get(tuple(x + h for x, h in zip(r, lag)), 0)
                for r, n in table.items())
    return total


@pytest.mark.parametrize("sites, field", [
    # margin 1 widens the spread 2^62 past 62 bits
    ([(0,), (2**62,), (1,)], MovingAverageField([1.0, 1.0])),
    ([(0,), (2**62,), (1,), (2**62 - 1,), (2**62,), (-3,)],
     MovingAverageField([1.0, 0.5, 0.25])),
    ([(0, 5), (-(2**40), 5), (1, 5), (2**40, -(2**30)), (2**40 + 2, -(2**30)),
      (0, 5)], MovingAverageField([1.0, 0.0, 0.5, 0.25])),
    # shifted copies reach the int64 ends without leaving int64
    ([(-(2**63) + 1,), (2**63 - 2,), (-(2**63) + 2,)],
     MovingAverageField([1.0, 1.0])),
    # and past them
    ([(-(2**63),), (2**63 - 1,), (2**63 - 2,), (-(2**63),), (2**63 - 1,)],
     MovingAverageField([1.0, 0.5, 0.25]))])
def test_quadratic_form_past_62_bits_matches_a_dict(sites, field):
    led = LocalTimeLedger.from_trajectory(sites)
    assert quadratic_form(led, field) == _dict_quadratic_form(sites, field)
    # the first case by hand: 2 * 3 from lag 0, 1 from each of lags +-1
    assert _dict_quadratic_form([(0,), (2**62,), (1,)],
                                MovingAverageField([1.0, 1.0])) == 8.0


def _enumerated_variance(field, n: int) -> float:
    """E[sum_{i,j<n} cov(z_i - z_j)] / n over all 6^n simple-walk paths."""
    steps = np.array([a for a, _ in simple_walk(3).atoms])
    paths = np.array(list(itertools.product(range(6), repeat=n)))
    z = np.cumsum(steps[paths], axis=1)  # (6^n, n, 3)
    diff = z[:, :, None, :] - z[:, None, :, :]
    total = 0.0
    for lag in spectral._field_lags(field, 3):
        c = field.covariance(lag)
        if c != 0.0:
            total += c * np.count_nonzero(np.all(diff == lag, axis=-1))
    return total / (6**n * n)


@pytest.mark.parametrize("field", [UniformField(),
                                   MovingAverageField([1.0, 0.5, 0.25])])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_finite_n_variance_matches_path_enumeration(field, n):
    # kmax = n - 1 where the field's lags allow: every term is exact
    rep = transient_variance_report(simple_walk(3), field, n, 2, seed_base=1,
                                    kmax=max(n - 1, 2))
    assert rep.finite_n_mean == pytest.approx(_enumerated_variance(field, n),
                                              rel=1e-12)
    assert rep.defect_estimate == rep.mc_estimate - rep.finite_n_mean


def test_finite_n_variance_beyond_kmax_uses_the_clt_terms():
    # E[V_n]/n of the d=3 simple walk at n = 300 is 1.887, well below the
    # n -> oo limit 2 G(3) - 1 = 2.033
    exact = transient_variance_report(simple_walk(3), GaussianField(), 300,
                                      2, seed_base=1, kmax=299)
    assert exact.finite_n_mean == pytest.approx(1.887, abs=5e-4)
    assert exact.series_prediction > 2.03
    short = transient_variance_report(simple_walk(3), GaussianField(), 300,
                                      2, seed_base=1, kmax=40)
    assert short.finite_n_mean == pytest.approx(exact.finite_n_mean, abs=2e-3)
    assert short.mc_estimate == exact.mc_estimate


def test_finite_n_variance_with_drift_continues_the_geometric_fit():
    law = StepDistribution([((1,), 0.7), ((-1,), 0.3)])
    exact = transient_variance_report(law, GaussianField(), 200, 2,
                                      seed_base=1, kmax=199)
    short = transient_variance_report(law, GaussianField(), 200, 2,
                                      seed_base=1, kmax=60)
    # the limit is 2 / |2p - 1| - 1 = 4; the finite-n mean sits below it
    assert short.series_prediction == pytest.approx(4.0, abs=1e-3)
    assert exact.finite_n_mean < 3.9
    assert short.finite_n_mean == pytest.approx(exact.finite_n_mean, abs=1e-3)


def test_hurwitz_zeta_matches_scipy_bit_for_bit():
    # the grid of orders the local-CLT tails use, x = d/2 + m, at integer,
    # half-integer and random shifts q
    from scipy.special import zeta
    qs = np.concatenate([np.arange(1.0, 334.0), np.arange(333) + 0.5,
                         np.random.default_rng(0).uniform(0.5, 5000, 331)])
    for x in (d / 2 + m for d in range(3, 12) for m in range(30)):
        got = np.array([spectral.hurwitz_zeta(x, q) for q in qs.tolist()])
        assert got.tobytes() == zeta(x, qs).tobytes(), x


@pytest.mark.parametrize("q", [0.1, 0.5, 1.0, 3.0, 8.9,  # direct summation
                               1e8 + 1, 3e8, 1e12, 1e300])  # asymptotic
def test_hurwitz_zeta_matches_scipy_at_small_and_huge_shifts(q):
    from scipy.special import zeta
    xs = [1.0001, 1.5, 2.0, 7.5, 30.5, 80.0]
    assert [spectral.hurwitz_zeta(x, q) for x in xs] == zeta(xs, q).tolist()


def _hurwitz_zeta_oracle(x: float, q: float, terms: int = 100,
                         corrections: int = 10) -> float:
    """sum_{k < terms} (q + k)^-x at 40 digits, plus the tail from N = q +
    terms by Euler-Maclaurin: N^(1-x)/(x-1) + N^-x/2 + sum_j B_2j/(2j)!
    (x)_(2j-1) N^(1-x-2j)."""
    import mpmath
    with mpmath.workdps(40):
        x, q = mpmath.mpf(x), mpmath.mpf(q)
        total = mpmath.fsum((q + k) ** -x for k in range(terms))
        n = q + terms
        total += n ** (1 - x) / (x - 1) + n ** -x / 2
        rising = x  # (x)_(2j-1), the rising factorial
        for j in range(1, corrections + 1):
            total += (mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)
                      * rising * n ** (1 - x - 2 * j))
            rising *= (x + 2 * j - 1) * (x + 2 * j)
        return float(total)


def test_hurwitz_zeta_matches_a_direct_sum_at_the_clt_tail_points(monkeypatch):
    points, zeta = [], spectral.hurwitz_zeta
    monkeypatch.setattr(spectral, "hurwitz_zeta",
                        lambda x, q: points.append((x, q)) or zeta(x, q))
    spectral._clt_tails(simple_walk(3), 200,
                        [(0, 0, 0), (1, 0, 0), (2, 1, 1), (9, 6, 2)])
    assert len(points) == 4 * 30 and max(q for _, q in points) > 300
    for x, q in points:
        want = _hurwitz_zeta_oracle(x, q)
        assert abs(zeta(x, q) - want) <= 4 * math.ulp(want), (x, q)
