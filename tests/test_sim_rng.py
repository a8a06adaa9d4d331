"""Unit tests for the zipfian generators."""

import pytest

from repro.sim.rng import ScrambledZipfian, ZipfianGenerator, make_rng


def test_make_rng_deterministic():
    assert make_rng(7).random() == make_rng(7).random()
    assert make_rng(7).random() != make_rng(8).random()


def test_zipfian_in_range():
    gen = ZipfianGenerator(1000, seed=3)
    draws = [gen.next() for _ in range(5000)]
    assert all(0 <= d < 1000 for d in draws)


def test_zipfian_is_skewed():
    gen = ZipfianGenerator(1000, seed=3)
    draws = [gen.next() for _ in range(20000)]
    head = sum(1 for d in draws if d < 10)
    # Zipf(0.99): the hottest 1% of items should receive far more than 1%
    # of the draws.
    assert head / len(draws) > 0.15


def test_zipfian_deterministic():
    a = ZipfianGenerator(500, seed=11)
    b = ZipfianGenerator(500, seed=11)
    assert [a.next() for _ in range(100)] == [b.next() for _ in range(100)]


def test_zipfian_rejects_bad_args():
    with pytest.raises(ValueError):
        ZipfianGenerator(0)
    with pytest.raises(ValueError):
        ZipfianGenerator(10, theta=1.0)


def test_scrambled_spreads_hot_keys():
    gen = ScrambledZipfian(1000, seed=5)
    draws = [gen.next() for _ in range(20000)]
    assert all(0 <= d < 1000 for d in draws)
    # The two hottest scrambled keys should not be adjacent raw indices.
    from collections import Counter
    top = [k for k, _ in Counter(draws).most_common(2)]
    assert abs(top[0] - top[1]) > 1


def test_scrambled_still_skewed():
    gen = ScrambledZipfian(1000, seed=5)
    from collections import Counter
    counts = Counter(gen.next() for _ in range(20000))
    hottest = counts.most_common(1)[0][1]
    assert hottest > 20000 * 0.02


def _old_next(gen):
    """``ZipfianGenerator.next`` before the threshold was hoisted into
    ``__init__``: ``math.pow`` twice per draw."""
    import math
    u = gen._rng.random()
    uz = u * gen._zetan
    if uz < 1.0:
        return 0
    if uz < 1.0 + math.pow(0.5, gen._theta):
        return 1
    return int(gen._items * math.pow(gen._eta * u - gen._eta + 1.0,
                                     gen._alpha))


@pytest.mark.parametrize("theta", [0.8, 0.99])
def test_zipfian_draws_equal_the_two_pow_formula(theta):
    """The key stream — and with it every virtual metric — is what it was:
    the hoisted constant and ``**`` go through the same libm ``pow``."""
    new = ZipfianGenerator(20_000, theta=theta, seed=1)
    old = ZipfianGenerator(20_000, theta=theta, seed=1)
    assert ([new.next() for _ in range(100_000)]
            == [_old_next(old) for _ in range(100_000)])
