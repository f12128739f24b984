"""Verdicts of the set comparison."""

import pytest

from compare import verdict


@pytest.mark.parametrize("a, b, better, expected", [
    (100.0, 104.0, "higher", "same"),
    (100.0, 96.0, "higher", "same"),
    (100.0, 85.0, "higher", "worse"),
    (100.0, 115.0, "higher", "better"),
    (10.0, 11.5, "lower", "worse"),
    (10.0, 8.5, "lower", "better"),
])
def test_verdict_follows_direction_and_bound(a, b, better, expected):
    word, worsening = verdict(a, b, 0.01, 0.02, better, bound=0.10)
    assert word == expected
    got_worse = (b > a) == (better == "lower")
    assert worsening == pytest.approx(abs(b - a) / a * (1 if got_worse else -1))


def test_wide_spread_is_unresolved_not_unchanged():
    assert verdict(100.0, 100.0, 0.12, 0.01, "higher", 0.10)[0] == "unresolved"
    assert verdict(100.0, 50.0, 0.01, 0.30, "higher", 0.10)[0] == "unresolved"


def test_missing_value_is_unresolved():
    assert verdict(None, 1.0, None, 0.0, "lower", 0.1) == ("unresolved", None)
    assert verdict(1.0, None, 0.0, None, "lower", 0.1) == ("unresolved", None)
