import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from selab import rng, selftest


def test_mix64_golden():
    assert rng.mix64(0) == 0
    assert rng.mix64(42) == 12058926934050108962


def test_uniform_golden():
    assert rng.uniform_at(42, 0) == pytest.approx(0.7415648787718233, abs=0)
    assert rng.uniform_at(42, 1) == pytest.approx(0.1599103928769201, abs=0)


def test_scalar_vector_agree():
    u = rng.uniforms(seed=9, count=100, offset=3)
    assert all(u[i] == rng.uniform_at(9, 3 + i) for i in range(100))


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**40),
       st.integers(0, 40))
def test_uniforms_match_uniform_at(seed, offset, count):
    u = rng.uniforms(seed, count, offset)
    assert u.shape == (count,)
    assert u.tolist() == [rng.uniform_at(seed, offset + i)
                          for i in range(count)]


@given(st.integers(0, 2**64 - 1), st.integers(0, 2**40),
       st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_uniforms_overwrite_a_garbage_buffer(seed, offset, count, junk):
    # any prior bits, NaNs and infinities included, are overwritten
    buf = np.empty(count)
    buf.view(np.uint64)[:] = np.random.default_rng(junk).integers(
        0, 2**64 - 1, count, dtype=np.uint64, endpoint=True)
    assert rng.uniforms(seed, count, offset, out=buf) is buf
    assert np.array_equal(buf, rng.uniforms(seed, count, offset))
    assert buf.tolist() == [rng.uniform_at(seed, offset + i)
                            for i in range(count)]


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5))
def test_mix64_array_matches_scalar(zs):
    # in place: the caller's array is overwritten with its mix and returned
    arr = np.array(zs, dtype=np.uint64)
    assert rng.mix64_array(arr) is arr
    assert [int(h) for h in arr] == [rng.mix64(z) for z in zs]


def test_derive_distinct_streams():
    seeds = {rng.derive(1, "field", i) for i in range(1000)}
    assert len(seeds) == 1000
    assert rng.derive(1, "field", 0) != rng.derive(1, "walk", 0)
    assert rng.derive(1, "field", 0) == rng.derive(1, "field", 0)


def test_site_uniforms_pure_and_order_free():
    coords = np.array([[0, 0], [5, -3], [0, 0], [-1, 7]])
    u = rng.site_uniforms(11, coords)
    assert u[0] == u[2]  # same site, same value
    perm = rng.site_uniforms(11, coords[::-1])
    assert np.array_equal(perm, u[::-1])
    assert np.all((0 <= u) & (u < 1))


def test_site_uniforms_roughly_uniform():
    coords = np.arange(20000).reshape(-1, 1)
    u = rng.site_uniforms(3, coords)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(np.mean(u < 0.25) - 0.25) < 0.01


I64 = np.iinfo(np.int64)
coordinate = st.one_of(st.integers(I64.min, I64.max),
                       st.sampled_from([I64.min, I64.min + 1, -1, 0,
                                        I64.max - 1, I64.max]))


def _sites(d: int):
    """(d, up to 60 sites of Z^d) whose coordinates come from a pool of at
    most 3 values, so that sites share their (d - 1)-prefixes."""
    return st.lists(coordinate, min_size=1, max_size=3).flatmap(
        lambda pool: st.tuples(st.just(d), st.lists(
            st.lists(st.sampled_from(pool), min_size=d, max_size=d),
            max_size=60)))


@given(st.integers(1, 4).flatmap(_sites), st.integers(0, 2**64 - 1))
@example((3, []), 5)  # no sites
# a prefix spread past 2^62: pack_sites packs the dense ranks
@example((3, [[I64.min, 0, 5], [I64.max, 0, 5], [I64.min, 0, 6],
              [I64.max, -1, 5]]), 7)
def test_hash_sites_matches_scalar_mix_composition(d_sites, seed):
    # coordinates as an array (the flat fold), and as Sites grouped by
    # their (d - 1)-prefixes (int64 wraparound is the mixer's mod 2^64)
    d, sites = d_sites
    coords = np.array(sites, dtype=np.int64).reshape(len(sites), d)
    assert selftest.site_hash(coords, seed)


def _check_inverse(probs):
    inverse = rng.InverseCdf(probs)
    assert selftest.step_draws(inverse, probs)
    return inverse


@given(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)),
                min_size=1, max_size=40).filter(lambda w: sum(w) > 0))
@example([0.0, 1.0, 0.0])
@example([1e-300, 1.0])
@example([0.5, 0.5 + 2e-13, 0.0])  # thresholds past 1 count for none
def test_inverse_cdf_is_searchsorted(weights):
    _check_inverse(np.array(weights) / sum(weights))


def test_inverse_cdf_sizes_its_table_from_the_law():
    # dyadic thresholds on bucket edges need no pass; 1/6's need one
    assert _check_inverse([0.25] * 4).passes == 0
    assert _check_inverse([1 / 6] * 6).passes == 1
    assert _check_inverse(np.full(300, 1 / 300)).passes == 1
    # zero-probability atoms repeat a threshold, one pass each
    assert _check_inverse([0.2, 0.0, 0.0, 0.5, 0.3]).passes == 3
    # 100 tiny atoms below 2^-23 share every bucket the table can have
    tiny = _check_inverse([1e-9] * 100 + [1 - 1e-7])
    assert tiny.passes == 100


def test_inverse_cdf_takes_a_scalar_and_overwrites_u():
    inverse = rng.InverseCdf([0.5, 0.25, 0.25])
    u = np.array([0.0, 0.5, 0.7, 0.75, 0.99])
    assert inverse(u).tolist() == [0, 1, 1, 2, 2]
    assert u.tolist() == [0.0, 2.0, 2.8, 3.0, 3.96]  # scaled by 2^2
    assert int(inverse(np.array(0.6))) == 1
