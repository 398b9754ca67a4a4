"""The mode-specific selection / tuple-reconstruction path for TPC-H plans.

Every query plan needs, per involved table, "the listed columns of the rows
qualifying these predicates".  The systems differ exactly there, so a mode
is a system of :data:`repro.engine.ENGINE_FACTORIES` and every selection is
that system's :meth:`~repro.engine.base.Engine.run`.

Joins, group-bys, and aggregations downstream are mode-independent, exactly
as in the paper ("the rest of the operators are performed using the original
column-store operators").
"""

from __future__ import annotations

import bisect
from functools import partial
from typing import Callable

import numpy as np

from repro.cracking.bounds import Interval
from repro.engine import ENGINE_FACTORIES, PresortedEngine
from repro.engine.database import Database
from repro.engine.query import Predicate, Query
from repro.errors import PlanError
from repro.storage.types import Dictionary
from repro.workloads.tpch.queries import PRESORT_THEN_BY

#: The paper's four systems; every other name in the engine table runs too.
MODES = ("monetdb", "presorted", "selection_cracking", "sideways")

Residual = Callable[[dict[str, np.ndarray]], np.ndarray]


def _code_range(lo: int, hi: int) -> Interval:
    """Dictionary codes ``[lo, hi)``.  An :class:`Interval` is never empty,
    so an empty range becomes ``[lo - 0.5, lo)``, which holds no integer
    code."""
    return Interval.half_open(lo if hi > lo else lo - 0.5, hi)

class ModeExecutor:
    """Executes the mode-specific part of a TPC-H plan on one system."""

    def __init__(self, db: Database, mode: str) -> None:
        factory = ENGINE_FACTORIES.get(mode)
        if factory is None:
            raise PlanError(f"unknown mode {mode!r}")
        self.db = db
        self.mode = mode
        self.recorder = db.recorder
        if mode == "presorted":
            factory = partial(PresortedEngine, then_by=PRESORT_THEN_BY)
        self.engine = factory(db)

    # -- dictionary helpers ---------------------------------------------------------

    def _dictionary(self, table: str, attr: str) -> Dictionary:
        dictionary = self.db.table(table).column(attr).dictionary
        if dictionary is None:
            raise PlanError(f"{table}.{attr} is not dictionary-encoded")
        return dictionary

    def _code(self, table: str, attr: str, string: str) -> tuple[int, bool]:
        """``string``'s sorted insertion point among the dictionary codes,
        and whether the dictionary holds it there."""
        values = self._dictionary(table, attr).values
        code = bisect.bisect_left(values, string)
        return code, code < len(values) and values[code] == string

    def eq(self, table: str, attr: str, string: str) -> Interval:
        """String equality as a point interval over dictionary codes.  A
        string absent from the dictionary selects nothing, as SQL ``=``
        would: the empty code range at its insertion point."""
        code, present = self._code(table, attr, string)
        return Interval.point(code) if present else _code_range(code, code)

    def prefix(self, table: str, attr: str, prefix: str) -> Interval:
        """``LIKE 'prefix%'`` as a half-open code range."""
        return _code_range(*self._dictionary(table, attr).prefix_range(prefix))

    def codes(self, table: str, attr: str, strings: list[str]) -> np.ndarray:
        """The codes of ``strings``; absent strings match nothing and are
        skipped."""
        found = [self._code(table, attr, s) for s in strings]
        return np.array([code for code, present in found if present], dtype=np.int64)

    def decode(self, table: str, attr: str, values: np.ndarray) -> list[str]:
        return self._dictionary(table, attr).decode(values)

    # -- the mode-specific select -------------------------------------------------------

    def select(
        self,
        table: str,
        predicates: list[Predicate],
        columns: list[str],
        residual: Residual | None = None,
    ) -> dict[str, np.ndarray]:
        """Columns of the rows qualifying ``predicates`` (and ``residual``).

        ``residual`` is a row-wise filter over the *fetched* columns (e.g.
        ``l_commitdate < l_receiptdate``) that no single-attribute structure
        can index; it runs after the engine's selection, on all modes alike.
        """
        query = Query(table, tuple(predicates), tuple(columns))
        out = self.engine.run(query).columns
        if residual is not None:
            mask = residual(out)
            self.recorder.sequential(len(mask))
            out = {attr: values[mask] for attr, values in out.items()}
        return out
