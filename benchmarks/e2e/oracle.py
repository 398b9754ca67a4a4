"""The benchmark's own answer key: plain numpy over the base arrays.

Qualifying rows are found with boolean masks over the live base arrays,
with every insert and delete the workload applied replayed here first.
While a table has not been updated, the first predicate is answered from a
stable argsort of its column instead of a full mask (1M-row masks on every
op would take as long as the timed window itself); the two paths return the
same row set, which ``tests/test_oracle.py`` checks.
"""

from __future__ import annotations

import numpy as np

from .workloads import QuerySpec, UpdateSpec


class Oracle:
    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        # Own copies: a program that scribbles on its input must not be able
        # to move the answer key with it.
        self.columns = {name: values.copy() for name, values in columns.items()}
        self.live = np.ones(len(next(iter(self.columns.values()))), dtype=bool)
        self._updated = False
        self._sorted: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        # Row count and aggregates per query, kept while the table has not
        # been updated: every repetition of a run asks the same questions.
        self._scalars: dict[QuerySpec, tuple[int, dict[str, float]]] = {}

    def apply(self, update: UpdateSpec) -> None:
        """Replay one update op: append the rows, tombstone the victims."""
        first_key = len(self.live)
        if first_key != int(update.keys[0]):
            raise AssertionError("update replayed out of order")
        for name in self.columns:
            self.columns[name] = np.concatenate([self.columns[name], update.rows[name]])
        self.live = np.concatenate([self.live, np.ones(len(update.keys), dtype=bool)])
        self.live[update.victims] = False
        self._updated = True

    def rows(self, spec: QuerySpec, force_mask: bool = False) -> np.ndarray:
        """Positions of the live rows that satisfy every predicate."""
        (attr, lo, hi), *rest = spec.predicates
        if self._updated or force_mask:
            values = self.columns[attr]
            found = np.flatnonzero(self.live & (values > lo) & (values < hi))
        else:
            order, ordered = self._index(attr)
            found = order[
                np.searchsorted(ordered, lo, "right"):np.searchsorted(ordered, hi, "left")
            ]
        for attr, lo, hi in rest:
            values = self.columns[attr][found]
            found = found[(values > lo) & (values < hi)]
        return found

    def _index(self, attr: str) -> tuple[np.ndarray, np.ndarray]:
        if attr not in self._sorted:
            order = np.argsort(self.columns[attr], kind="stable")
            self._sorted[attr] = (order, self.columns[attr][order])
        return self._sorted[attr]

    # -- comparing a program answer -------------------------------------------

    def check(
        self,
        spec: QuerySpec,
        row_count: int,
        aggregates: "dict[str, float] | None" = None,
        columns: "dict[str, np.ndarray] | None" = None,
    ) -> bool:
        """Does the program's answer match?  ``row_count`` is always compared;
        ``aggregates`` and the full row content (``columns``, in any row
        order) when given."""
        known = None if self._updated else self._scalars.get(spec)
        found = self.rows(spec) if known is None or columns is not None else None
        if known is None:
            known = (len(found), {
                f"{func}({attr})": _aggregate(func, self.columns[attr][found])
                for func, attr in spec.aggregates
            })
            if not self._updated:
                self._scalars[spec] = known
        expected_rows, expected_aggregates = known
        if row_count != expected_rows:
            return False
        if aggregates is not None:
            for key, expected in expected_aggregates.items():
                got = aggregates.get(key)
                if got is None or not _same_scalar(float(got), expected):
                    return False
        if columns is not None:
            # The program must return the projections; it may also return
            # the columns its aggregates read.
            names = sorted(columns)
            allowed = set(spec.projections) | {attr for _, attr in spec.aggregates}
            if not set(spec.projections) <= set(names) <= allowed:
                return False
            expected = _sorted_rows([self.columns[name][found] for name in names])
            actual = _sorted_rows([np.asarray(columns[name]) for name in names])
            if expected.shape != actual.shape or not np.array_equal(expected, actual):
                return False
        return True


def _aggregate(func: str, values: np.ndarray) -> float:
    if func != "max":
        raise ValueError(f"the workloads only use max(), not {func}()")
    return float(values.max()) if len(values) else float("nan")


def _same_scalar(got: float, expected: float) -> bool:
    """Equal, or both NaN: the answer for an empty input, the program's and ours."""
    return got == expected or (got != got and expected != expected)


def _sorted_rows(columns: list[np.ndarray]) -> np.ndarray:
    """Rows as a 2-d array in lexicographic order (column 0 most significant)."""
    if not columns:
        return np.empty((0, 0), dtype=np.int64)
    table = np.stack(columns, axis=1)
    return table[np.lexsort(tuple(reversed(columns)))]
