"""Percentiles and the tail rule."""

import pytest

from perfbench import stats


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 95) == 7.0


def test_tail_rule_needs_ten_samples_beyond_p95():
    trusted = stats.tail_report([float(v) for v in range(200)], 95)
    assert trusted["beyond"] == 10
    assert trusted["trusted"]
    flagged = stats.tail_report([float(v) for v in range(199)], 95)
    assert flagged["beyond"] == 9
    assert not flagged["trusted"]
    assert flagged["samples"] == 199


def test_empty_inputs_raise():
    with pytest.raises(ValueError):
        stats.median([])
    with pytest.raises(ValueError):
        stats.percentile([], 50)
