"""Span arithmetic on hand-built trees, and clean removal of the wrappers."""

import numpy as np

from e2e import layers, spans
from e2e.spans import END, NAME, PARENT, START


def test_self_time_subtracts_children_once():
    records = [
        ["root", 0.0, 10.0, -1, 1, 0],
        ["child", 1.0, 4.0, 0, 1, 0],
        ["grandchild", 2.0, 3.0, 1, 1, 0],
        ["child", 6.0, 9.0, 0, 1, 0],
    ]
    assert spans.self_times(records) == [4.0, 2.0, 1.0, 3.0]
    summary = spans.summarize(records)
    assert summary["child"] == {"calls": 2, "total_s": 6.0, "self_s": 5.0, "value": 0}
    assert sum(entry["self_s"] for entry in summary.values()) == 10.0


def test_parallel_children_are_counted_once_and_clipped_to_the_parent():
    records = [
        ["scatter", 0.0, 10.0, -1, 1, 0],
        ["shard", 2.0, 6.0, 0, 1, 0],
        ["shard", 4.0, 8.0, 0, 1, 0],
        ["late", 9.0, 12.0, 0, 1, 0],
    ]
    assert spans.self_times(records)[0] == 10.0 - 6.0 - 1.0


def test_a_task_that_outlives_its_submitter_counts_against_the_waiting_ancestor():
    # dispatch awaits a future; admit only submits the pool task and returns.
    records = [
        ["dispatch", 0.0, 10.0, -1, 1, 0],
        ["admit", 1.0, 2.0, 0, 1, 0],
        ["queue", 1.5, 3.0, 1, 1, 0],
        ["serve", 3.0, 9.0, 1, 1, 0],
    ]
    own = spans.self_times(records)
    assert own[1] == 0.5          # admit: its second minus the queued half
    assert own[0] == 10.0 - 8.0   # dispatch: covered from 1.0 to 9.0
    assert own[2] == 1.5 and own[3] == 6.0


def test_install_records_nested_spans_and_uninstall_leaves_nothing_behind():
    from repro import Database, Interval, Predicate, Query, SidewaysEngine

    rng = np.random.default_rng(0)
    db = Database()
    db.create_table("R", {c: rng.integers(1, 1000, 2000) for c in "AB"})
    engine = SidewaysEngine(db)
    query = Query("R", predicates=(Predicate("A", Interval.open(100, 300)),),
                  aggregates=(("max", "B"),))
    before = engine.run(query).row_count

    tracer = spans.Tracer(layers.TARGETS)
    tracer.install()
    try:
        assert spans.leftover_wrappers()
        assert engine.run(query).row_count == before
    finally:
        tracer.uninstall()
    assert spans.leftover_wrappers() == []

    records = tracer.records()
    names = [r[NAME] for r in records]
    assert names[0] == "engine.run" and records[0][PARENT] == -1
    assert {"core.reconstruct", "core.select", "engine.aggregate"} <= set(names)
    for record in records[1:]:
        parent = records[record[PARENT]]
        assert parent[START] <= record[START] <= record[END] <= parent[END]
    own = spans.self_times(records)
    assert abs(sum(own) - (records[0][END] - records[0][START])) < 1e-9

    count = len(tracer.spans)
    engine.run(query)  # wrappers are gone: nothing more is recorded
    assert len(tracer.spans) == count


def test_kernel_spans_carry_the_elements_they_moved():
    from repro.cracking.bounds import Bound, Side
    from repro.cracking import crack

    tracer = spans.Tracer(layers.TARGETS)
    tracer.install()
    try:
        head = np.arange(100, 0, -1)
        crack.crack_two(head, [head.copy(), head.copy()], 10, 60, Bound(50, Side.LT))
    finally:
        tracer.uninstall()
    (record,) = tracer.records()
    assert record[NAME] == "cracking.kernel" and record[spans.VALUE] == 50 * 3
