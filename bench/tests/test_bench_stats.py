"""The statistics the report is built from."""

import math

import pytest

from bench.metrics import low_quartile, rel_error, spread, tail_percentile


def test_tail_percentile_needs_ten_samples_beyond():
    samples = list(range(1, 1201))
    percentile, value = tail_percentile(samples)
    assert percentile == 99.0
    assert sum(s > value for s in samples) >= 10

    percentile, value = tail_percentile(list(range(1, 321)))
    assert 50.0 < percentile < 99.0            # p99 would leave only 3 beyond
    assert sum(s > value for s in range(1, 321)) == 10

    assert tail_percentile(list(range(15))) == (50.0, 7)   # only the median qualifies
    with pytest.raises(ValueError):
        tail_percentile([])


def test_low_quartile_and_spread():
    assert low_quartile([4.0]) == 4.0
    assert low_quartile([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0
    assert low_quartile([5.0, 1.0]) == 2.0
    assert spread([3.0]) == 0.0
    assert spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)          # range / median
    ten = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 30.0]   # one outlier
    assert spread(ten) < 0.03                                       # quartiles ignore it
    assert spread([0.0, 0.0]) == 0.0 and spread([0.0, 0.0, 1.0]) == math.inf


def test_rel_error_is_the_euclidean_relative_error():
    import numpy as np

    reference = np.array([3.0, 4.0])
    assert rel_error(reference, reference) == 0.0
    assert rel_error(np.array([3.0, 4.5]), reference) == pytest.approx(0.1)
