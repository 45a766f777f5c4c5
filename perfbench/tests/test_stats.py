import pytest

import random
import statistics

from stats import (
    harrell_davis,
    highest_supported_percentile,
    nearest_rank,
    percentile_report,
    quartile_spread,
    regularized_beta,
)


def test_nearest_rank_returns_a_measured_sample():
    values = list(range(1, 11))
    assert nearest_rank(values, 50) == (5, 5)
    assert nearest_rank(values, 90) == (9, 1)
    assert nearest_rank(values, 100) == (10, 0)
    assert nearest_rank([7], 90) == (7, 0)
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank(values, 0)


def test_p90_is_supported_from_one_hundred_samples():
    report = percentile_report(range(100), 90)
    assert report["value"] == 89
    assert report["beyond"] == 10
    assert report["supported"]


def test_p90_with_too_few_samples_beyond_says_so():
    report = percentile_report(range(99), 90)
    assert report["beyond"] == 9
    assert not report["supported"]
    assert report["highest_supported"] == 89
    assert percentile_report(range(64), 90)["highest_supported"] == 84


def test_no_percentile_is_supported_below_eleven_samples():
    assert highest_supported_percentile(10) is None
    assert highest_supported_percentile(11) is not None


def test_samples_are_sorted_before_ranking():
    assert percentile_report([5, 1, 4, 2, 3], 50)["value"] == 3


def test_quartile_spread_is_a_share_of_the_median():
    assert quartile_spread([10.0] * 10) == 0
    # quartiles of 1..9 are 2.5 and 7.5 around the median 5
    assert quartile_spread(range(1, 10)) == pytest.approx(1.0)


def test_regularized_beta_matches_closed_forms():
    for x in (0.0, 0.1, 0.37, 0.5, 0.93, 1.0):
        assert regularized_beta(1, 1, x) == pytest.approx(x)
        # I_x(2, 3) is 12 times the integral of t(1-t)^2 from 0 to x
        expected = x**2 * (6 - 8 * x + 3 * x**2)
        assert regularized_beta(2, 3, x) == pytest.approx(expected)
    assert regularized_beta(40.5, 40.5, 0.5) == pytest.approx(0.5)


def test_harrell_davis_median_is_steady_between_clusters():
    assert harrell_davis([7.0] * 9, 0.5) == pytest.approx(7.0)
    assert harrell_davis(range(1, 100), 0.5) == pytest.approx(50.0)
    # two equal clusters: the sample median sits on their boundary and moves
    # with one sample crossing it, the Harrell-Davis median hardly moves
    low, high = [100.0] * 64, [150.0] * 64
    moved = [100.0] * 63 + [150.0] * 65
    assert statistics.median(low + high) == 125.0
    assert statistics.median(moved) == 150.0
    assert abs(harrell_davis(moved, 0.5) - harrell_davis(low + high, 0.5)) < 10
    rng = random.Random(3)
    noisy = [rng.gauss(10, 1) for _ in range(500)]
    assert harrell_davis(noisy, 0.5) == pytest.approx(statistics.median(noisy), abs=0.15)
