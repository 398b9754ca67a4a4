"""The answer key agrees with itself and with a naive row-by-row scan."""

import numpy as np

from e2e.oracle import Oracle
from e2e.workloads import QuerySpec, UpdateSpec


def _table(rows=5000, seed=0):
    rng = np.random.default_rng(seed)
    return {c: rng.integers(1, 1001, rows) for c in "ABC"}


def test_index_path_equals_mask_path():
    oracle = Oracle(_table())
    rng = np.random.default_rng(1)
    for _ in range(50):
        lo, lo2 = rng.integers(0, 900, 2)
        spec = QuerySpec((("A", int(lo), int(lo + 80)), ("B", int(lo2), int(lo2 + 500))))
        fast = np.sort(oracle.rows(spec))
        slow = np.sort(oracle.rows(spec, force_mask=True))
        assert np.array_equal(fast, slow) and len(fast)


def test_rows_match_a_naive_scan_after_updates():
    table = _table(rows=300)
    oracle = Oracle(table)
    rows = {c: np.array([500, 501]) for c in "ABC"}
    oracle.apply(UpdateSpec(rows, keys=np.array([300, 301]), victims=np.array([0, 5])))
    spec = QuerySpec((("A", 400, 600),))
    values = np.concatenate([table["A"], rows["A"]])
    expected = [i for i, v in enumerate(values) if 400 < v < 600 and i not in (0, 5)]
    assert sorted(oracle.rows(spec).tolist()) == expected
    assert {300, 301} <= set(expected)


def test_check_compares_count_aggregates_and_row_content_in_any_order():
    table = _table()
    oracle = Oracle(table)
    spec = QuerySpec((("A", 100, 300),), projections=("B",), aggregates=(("max", "C"),))
    found = oracle.rows(spec)
    columns = {"B": table["B"][found][::-1], "C": table["C"][found][::-1]}
    aggregates = {"max(C)": float(table["C"][found].max())}
    assert oracle.check(spec, len(found), aggregates, columns)
    assert oracle.check(spec, len(found), aggregates, {"B": columns["B"]})
    assert not oracle.check(spec, len(found) + 1)
    assert not oracle.check(spec, len(found), {"max(C)": aggregates["max(C)"] + 1})
    wrong = {"B": columns["B"].copy(), "C": columns["C"]}
    wrong["B"][0] += 1
    assert not oracle.check(spec, len(found), aggregates, wrong)
    assert not oracle.check(spec, len(found), aggregates, {"C": columns["C"]})


def test_oracle_keeps_its_own_copy_of_the_table():
    table = _table(rows=100)
    oracle = Oracle(table)
    spec = QuerySpec((("A", 0, 2000),))
    table["A"][:] = 0
    assert len(oracle.rows(spec, force_mask=True)) == 100


def test_answers_kept_for_a_static_table_are_not_used_after_an_update():
    oracle = Oracle(_table(rows=300))
    spec = QuerySpec((("A", 400, 600),))
    before = len(oracle.rows(spec))
    assert oracle.check(spec, before) and oracle.check(spec, before)
    rows = {c: np.array([500, 501]) for c in "ABC"}
    oracle.apply(UpdateSpec(rows, keys=np.array([300, 301]), victims=np.array([], dtype=np.int64)))
    assert oracle.check(spec, before + 2) and not oracle.check(spec, before)
