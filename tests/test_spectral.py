import itertools
import math

import numpy as np
import pytest

from selab import spectral
from selab import (LocalTimeLedger, RandomWalkSource, StepDistribution,
                   generate, kernel_from_ledger, kernel_grid_mean,
                   lag_correlation, phi, phi_lambda, psi, quadratic_form,
                   return_series, simple_walk, transient_variance_report)
from selab.fields import GaussianField, MovingAverageField, UniformField

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


def test_phi_lambda_monotone_approach():
    ts = [0.13, 0.31, 0.47]
    for t in ts:
        target = phi(PM1, [t])
        errs = [abs(phi_lambda(PM1, [t], lam) - target)
                for lam in (0.9, 0.99, 0.999)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.01 * max(1.0, abs(target))
    with pytest.raises(ValueError):
        phi_lambda(PM1, [0.3], 1.0)


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
        # dense convolution oracle on a box
        size = 2 * kmax + 1
        box = np.zeros((size, size))
        box[kmax, kmax] = 1.0
        for k in range(1, kmax + 1):
            nxt = np.zeros_like(box)
            for (a, b), p in law.atoms:
                # support radius stays below kmax, so np.roll never wraps mass
                nxt += p * np.roll(box, (a, b), axis=(0, 1))
            box = nxt
            for lag in [(0, 0), (1, 0), (0, -1)]:
                want = box[kmax + lag[0], kmax + lag[1]]
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
    kmax = 24
    want = spectral._requested_lags(law, kmax, lags)
    axis = spectral._axis_probs(law, kmax, want)
    grid = spectral._grid_probs(law, kmax, want)
    assert np.max(np.abs(axis - grid)) <= 1e-15


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


def test_transient_variance_small_run():
    rs = return_series(simple_walk(3), 60, [(0, 0, 0)])
    rep = transient_variance_report(simple_walk(3), UniformField(), 20000, 8,
                                    seed_base=5, kmax=60, series=rs)
    assert rep.positive
    assert rep.series_prediction == pytest.approx(
        rs.i_value((0, 0, 0)) / 12, rel=1e-12)
    assert abs(rep.defect_estimate) < 0.1 * rep.series_prediction


@pytest.mark.filterwarnings("error")
def test_lag_correlation_at_the_int64_edge():
    top = (1 << 63) - 1
    assert lag_correlation([[top - 1], [top]], [1, 1], (1,)) == 1
    assert lag_correlation([[-top - 1], [-top]], [2, 3], (-1,)) == 6
    with pytest.raises(OverflowError):
        lag_correlation([[-top - 1], [top]], [1, 1], (1,))


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
