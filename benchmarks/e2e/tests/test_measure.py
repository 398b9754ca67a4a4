"""The percentile rule and the spread the acceptance check uses."""

import numpy as np
import pytest

from e2e import measure
from e2e.inprocess import Repetition, _end_to_end


def test_highest_percentile_with_ten_samples_beyond():
    assert measure.supported_percentile(10) == 50
    assert measure.supported_percentile(99) == 50
    assert measure.supported_percentile(100) == 90
    assert measure.supported_percentile(999) == 90
    assert measure.supported_percentile(1000) == 99
    assert measure.supported_percentile(9999) == 99
    assert measure.supported_percentile(10000) == 99.9


def test_tail_is_p99_when_supported_and_lower_when_not():
    assert measure.tail_percentile(2000) == 99
    assert measure.tail_percentile(200) == 90
    assert measure.tail_percentile(50_000) == 99


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # statistics.quantiles(n=4), exclusive method: q1 = 11.75, q3 = 17.25
    assert measure.quartile_spread(values) == (17.25 - 11.75) / 14.5


def test_in_process_metrics_take_every_op_at_its_fastest_timing():
    def repetition(query_s, failed=0):
        return Repetition(
            traced=False, setup_s=0.1, wall_s=1.0, peak_rss_mb=100.0,
            query_s=np.array(query_s), update_s=np.zeros(0), failed=failed,
        )

    metrics = _end_to_end([
        repetition([0.002, 0.004, 0.010]), repetition([0.003, 0.001, 0.020], failed=1),
    ])
    assert metrics["ops_per_s"] == pytest.approx(2 / 0.013)  # correct ops only
    assert metrics["query_p50_ms"] == pytest.approx(2.0)
