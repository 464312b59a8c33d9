"""Unit and property-based tests for seeded RNG and Zipfian generator."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SeededRNG, ZipfianGenerator


def test_seeded_rng_is_reproducible():
    a = SeededRNG(42)
    b = SeededRNG(42)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_seeded_rng_different_seeds_differ():
    a = SeededRNG(1)
    b = SeededRNG(2)
    assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_spawn_produces_independent_stable_streams():
    parent = SeededRNG(7)
    child1 = parent.spawn(1)
    child1_again = SeededRNG(7).spawn(1)
    assert [child1.random() for _ in range(5)] == [child1_again.random() for _ in range(5)]


def test_bernoulli_extremes():
    rng = SeededRNG(0)
    assert all(rng.bernoulli(1.0) for _ in range(100))
    assert not any(rng.bernoulli(0.0) for _ in range(100))


def test_randint_bounds_inclusive():
    rng = SeededRNG(3)
    values = {rng.randint(1, 3) for _ in range(200)}
    assert values == {1, 2, 3}


def test_exponential_zero_mean_is_zero():
    rng = SeededRNG(0)
    assert rng.exponential(0) == 0.0


def test_zipfian_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ZipfianGenerator(0, 0.5)
    with pytest.raises(ValueError):
        ZipfianGenerator(10, -1)


def test_zipfian_theta_zero_is_roughly_uniform():
    gen = ZipfianGenerator(10, 0.0, rng=SeededRNG(11))
    counts = [0] * 10
    for _ in range(5000):
        counts[gen.next()] += 1
    assert min(counts) > 300  # every key hit a reasonable number of times


def test_zipfian_high_theta_concentrates_on_hot_keys():
    gen = ZipfianGenerator(10_000, 1.5, rng=SeededRNG(13))
    samples = [gen.next() for _ in range(5000)]
    hot_fraction = sum(1 for s in samples if s < 10) / len(samples)
    assert hot_fraction > 0.5


def test_zipfian_higher_theta_is_more_skewed():
    low = ZipfianGenerator(1000, 0.3, rng=SeededRNG(17))
    high = ZipfianGenerator(1000, 1.5, rng=SeededRNG(17))
    low_hot = sum(1 for _ in range(3000) if low.next() < 10)
    high_hot = sum(1 for _ in range(3000) if high.next() < 10)
    assert high_hot > low_hot


def test_zipfian_distinct_sampling_returns_unique_keys():
    gen = ZipfianGenerator(100, 0.9, rng=SeededRNG(19))
    keys = gen.sample_many(20, distinct=True)
    assert len(keys) == 20
    assert len(set(keys)) == 20


def test_zipfian_distinct_sampling_cannot_exceed_keyspace():
    gen = ZipfianGenerator(5, 0.9, rng=SeededRNG(19))
    with pytest.raises(ValueError):
        gen.sample_many(6, distinct=True)


def test_zipfian_zeta_is_computed_once_per_keyspace_and_skew():
    ZipfianGenerator._zeta.cache_clear()
    first = ZipfianGenerator(5_000, 0.9, SeededRNG(1))
    misses = ZipfianGenerator._zeta.cache_info().misses
    second = ZipfianGenerator(5_000, 0.9, SeededRNG(2))
    assert ZipfianGenerator._zeta.cache_info().misses == misses
    assert second._zetan == first._zetan
    assert [first.next() for _ in range(5)] != [second.next() for _ in range(5)]


def _exact_zeta(n, theta):
    return math.fsum(1.0 / math.pow(i, theta) for i in range(1, n + 1))


@pytest.mark.parametrize("theta", [0.3, 0.9, 1.0, 1.5])
def test_zipfian_zeta_integral_tail_is_within_1e_5_of_the_exact_sum(theta):
    """Past 10,000 items zeta adds an integral for the tail (Gray et al.'s
    generator at paper scale, 1 M keys per node); at 10,000 it is exact."""
    zeta = ZipfianGenerator._zeta
    assert zeta(10_000, theta) == pytest.approx(_exact_zeta(10_000, theta),
                                                rel=1e-12)
    for n in (100_000, 1_000_000):
        exact = _exact_zeta(n, theta)
        assert abs(zeta(n, theta) - exact) / exact < 1e-5, (n, theta)


def test_zipfian_two_item_key_space_does_not_divide_by_zero():
    """Regression: item_count=2 makes zeta(2) == zeta(n), so eta's
    denominator vanished; eta is never consulted for two items, so the
    generator must simply work."""
    generator = ZipfianGenerator(2, 2.0, rng=SeededRNG(0))
    samples = [generator.next() for _ in range(50)]
    assert set(samples) <= {0, 1}


def test_zipfian_theta_one_lies_between_its_neighbours():
    """Regression: the theta == 1 branch drew rank 2 about 50 times in 200 k
    (against ~10 k at 0.99 and 1.01); every hot rank must now sit between
    its frequencies at the two neighbouring skews."""
    def hot_counts(theta):
        generator = ZipfianGenerator(1_000, theta, rng=SeededRNG(1))
        counts = [0] * 10
        for _ in range(200_000):
            rank = generator.next()
            if rank < 10:
                counts[rank] += 1
        return counts

    below, at, above = hot_counts(0.99), hot_counts(1.0), hot_counts(1.01)
    for rank, (low, mid, high) in enumerate(zip(below, at, above)):
        assert 0.95 * min(low, high) <= mid <= 1.05 * max(low, high), (rank, low, mid, high)


@given(item_count=st.integers(min_value=1, max_value=100_000),
       theta=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
       seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_zipfian_samples_always_in_range(item_count, theta, seed):
    gen = ZipfianGenerator(item_count, theta, rng=SeededRNG(seed))
    for _ in range(30):
        value = gen.next()
        assert 0 <= value < item_count


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_uniform_within_bounds(seed):
    rng = SeededRNG(seed)
    for _ in range(20):
        value = rng.uniform(5.0, 6.0)
        assert 5.0 <= value <= 6.0
