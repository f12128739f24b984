"""The percentile-selection rule and the repeat statistics."""

import pytest

from stats import (
    median, median_or_none, percentile, spread, summarise_latency,
    supported_tail,
)


def test_percentile_interpolates_like_numpy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile(values, 75) == pytest.approx(3.25)
    assert percentile([7.0], 95) == 7.0


def test_percentile_rejects_nonsense():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize("n, expected", [
    (10_000, 95.0),   # plenty beyond p95: capped, p99 stays a diagnostic
    (200, 95.0),      # exactly ten samples beyond p95
    (199, 90.0),      # one short: next rung down
    (100, 90.0),      # exactly ten beyond p90
    (99, 50.0),       # no tail supported: the median, not a guess
    (72, 50.0),
    (1, 50.0),
])
def test_supported_tail_keeps_ten_samples_beyond(n, expected):
    assert supported_tail(n) == expected
    if expected > 50.0:
        assert n * (100 - expected) >= 10 * 100


def test_summarise_latency_reports_rule_and_count():
    samples = [float(i) for i in range(1, 401)]
    summary = summarise_latency(samples, supported_tail(len(samples)))
    assert summary["n"] == 400
    assert summary["tail_pct"] == 95.0
    assert summary["p50"] == pytest.approx(200.5)
    assert summary["tail"] == pytest.approx(percentile(samples, 95))
    assert summary["p99"] > summary["tail"]


def test_spread_is_range_or_quartile_distance_over_median():
    assert spread([10.0, 11.0, 12.0]) == pytest.approx(2.0 / 11.0)
    assert spread([10.0, 12.0]) == pytest.approx(2.0 / 11.0)
    assert spread([5.0]) == 0.0
    # From four values on, one outlier no longer sets the spread.
    assert spread([10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 50.0]) == 0.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(2.0 / 3.0)
    assert median([3.0, 1.0, 2.0]) == 2.0


def test_median_or_none_propagates_missing():
    assert median_or_none([1.0, None]) is None
    assert median_or_none([]) is None
    assert median_or_none([1.0, 3.0]) == 2.0
