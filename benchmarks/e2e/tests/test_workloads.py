"""Input generation is a pure function of (seed, workload)."""

import numpy as np
import pytest

from e2e import workloads

SCALE = 0.01


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    first = workloads.fingerprint(7, name, SCALE)
    assert first == workloads.fingerprint(7, name, SCALE)
    assert first != workloads.fingerprint(8, name, SCALE)


def test_update_victims_are_live_and_keys_follow_the_table():
    rows = workloads.rows_of("mixed_updates", SCALE)
    live = set(range(rows))
    next_key = rows
    updates = [
        op for op in workloads.repetition_ops(3, "mixed_updates", SCALE)
        if isinstance(op, workloads.UpdateSpec)
    ]
    assert len(updates) == workloads.QUERIES_PER_REPETITION["mixed_updates"] // workloads.UPDATE_EVERY
    for op in updates:
        assert op.keys.tolist() == list(range(next_key, next_key + workloads.UPDATE_ROWS))
        next_key += workloads.UPDATE_ROWS
        live.update(op.keys.tolist())
        victims = op.victims.tolist()
        assert len(set(victims)) == len(victims) and live.issuperset(victims)
        live.difference_update(victims)


def test_ranges_stay_inside_the_domain_and_hold_the_asked_share():
    rng = np.random.default_rng(0)
    lo, hi = workloads._ranges(rng, 1000, 0.01)
    assert lo.min() >= 0 and hi.max() <= workloads.DOMAIN + 1
    assert set(hi - lo - 1) == {workloads.DOMAIN // 100}


def test_zipf_order_repeats_and_unique_order_does_not():
    _, order = workloads.served_requests(5, "serve_zipf_narrow")
    assert len(np.unique(order)) < workloads.ZIPF_TEMPLATES < len(order)
    _, order = workloads.served_requests(5, "serve_unique_wide")
    assert len(np.unique(order)) == len(order)
