import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from selab import selftest
from selab.fields import (DiscreteField, GaussianField, MovingAverageField,
                          UniformField)

ALL_FIELDS = [UniformField(), GaussianField(1.0, 2.0),
              DiscreteField([(0.0, 0.5), (1.0, 0.5)]),
              MovingAverageField([1.0, 0.5], sigma=2.0)]


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_site_values_pure(field):
    coords = np.array([[0, 0], [3, -1], [0, 0], [7, 7]])
    a = field.site_values(123, coords)
    b = field.site_values(123, coords)
    assert np.array_equal(a, b)
    assert a[0] == a[2]
    c = field.site_values(124, coords)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("field", ALL_FIELDS)
def test_cdf_monotone_and_limits(field):
    s = np.linspace(-12, 12, 200)
    f = field.cdf(s)
    assert np.all(np.diff(f) >= -1e-15)
    assert f[0] <= 1e-6 and f[-1] >= 1 - 1e-6


def test_uniform_marginals():
    f = UniformField()
    x = f.site_values(5, np.arange(50000).reshape(-1, 1))
    assert abs(x.mean() - 0.5) < 0.01
    assert abs(x.var() - 1 / 12) < 0.005
    assert float(f.cdf(0.3)) == pytest.approx(0.3)


def test_gaussian_marginals():
    f = GaussianField(mu=1.0, sigma=2.0)
    x = f.site_values(5, np.arange(50000).reshape(-1, 1))
    assert abs(x.mean() - 1.0) < 0.05
    assert abs(x.std() - 2.0) < 0.05
    assert float(f.cdf(1.0)) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        GaussianField(sigma=0.0)


def test_discrete_field():
    f = DiscreteField([(0.0, 0.25), (2.0, 0.75)])
    x = f.site_values(9, np.arange(20000).reshape(-1, 1))
    assert set(np.unique(x)) == {0.0, 2.0}
    assert abs(np.mean(x == 2.0) - 0.75) < 0.01
    assert list(f.cdf([-1.0, 0.0, 1.0, 2.0])) == [0.0, 0.25, 0.25, 1.0]
    assert f.variance == pytest.approx(0.75)
    with pytest.raises(ValueError):
        DiscreteField([(0.0, 0.5), (0.0, 0.5)])


@st.composite
def discrete_laws(draw):
    """1 to 12 distinct values in any order, zero probabilities allowed."""
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12,
                           unique=True))
    weights = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)),
                            min_size=len(values), max_size=len(values))
                   .filter(lambda w: sum(w) > 0))
    return DiscreteField([(v, w / sum(weights))
                          for v, w in zip(values, weights)])


@given(discrete_laws())
def test_discrete_quantile_maps_each_atom_to_its_value(field):
    values, probs = zip(*field.atoms)
    assert selftest.step_draws(field.quantile, probs, values)


def test_moving_average_marginal_and_covariance():
    f = MovingAverageField([1.0, 0.5], sigma=2.0)
    assert f.variance == pytest.approx(4.0 * 1.25)
    assert f.covariance((0, 0)) == pytest.approx(5.0)
    assert f.covariance((1, 0)) == pytest.approx(4.0 * 0.5)
    assert f.covariance((-1, 0)) == pytest.approx(2.0)
    assert f.covariance((2, 0)) == 0.0
    assert f.covariance((1, 1)) == 0.0
    coords = np.arange(40000).reshape(-1, 1) * 3  # spaced: independent values
    x = f.site_values(4, coords)
    assert abs(x.var() - 5.0) < 0.15
    assert abs(x.mean()) < 0.05


def test_moving_average_empirical_lag_covariance():
    f = MovingAverageField([1.0, 1.0])
    base = np.arange(60000).reshape(-1, 1)
    x0 = f.site_values(11, base)
    x1 = f.site_values(11, base + 1)
    emp = np.mean(x0 * x1) - x0.mean() * x1.mean()
    assert abs(emp - f.covariance((1,))) < 0.05


def test_moving_average_shares_innovations_across_overlap():
    # X(l) - X(l+1) with weights (1, 1) telescopes to xi(l) - xi(l+2)
    f = MovingAverageField([1.0, 1.0])
    base = np.arange(1000).reshape(-1, 1)
    x = f.site_values(3, base)
    x_next = f.site_values(3, base + 1)
    d = x_next - x  # = xi(l+2) - xi(l)
    var = np.var(d)
    assert abs(var - 2.0) < 0.2


def test_moving_average_validation():
    with pytest.raises(ValueError):
        MovingAverageField([])
    with pytest.raises(ValueError):
        MovingAverageField([1.0, -0.5])
    with pytest.raises(ValueError):
        MovingAverageField([1.0], sigma=0.0)
