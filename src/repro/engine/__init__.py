"""Execution engines: the paper's four systems plus a row-store reference.

Every engine answers the same :class:`~repro.engine.query.Query` /
:class:`~repro.engine.query.JoinQuery` objects and returns a
:class:`~repro.engine.query.QueryResult` with per-phase wall-clock timings
and an access-pattern tally, so benchmark harnesses can compare systems
directly:

* :class:`~repro.engine.scan.PlainEngine` — non-cracking column-store
  ("MonetDB" in the paper's figures);
* :class:`~repro.engine.presorted.PresortedEngine` — per-selection-attribute
  presorted table copies ("presorted MonetDB");
* :class:`~repro.engine.selection_cracking.SelectionCrackingEngine` — cracker
  columns [CIDR'07];
* :class:`~repro.engine.sideways_engine.SidewaysEngine` — sideways cracking,
  full or partial maps (this paper);
* :class:`~repro.engine.rowstore.RowStoreEngine` — N-ary row-at-a-time
  reference ("MySQL", optionally presorted).

:data:`ENGINE_FACTORIES` is the one table of systems: every harness,
registry, TPC-H plan and ``python -m repro verify`` builds its engines from
it by name.
"""

from repro.engine.database import Database
from repro.engine.presorted import PresortedEngine
from repro.engine.query import JoinQuery, JoinSide, Predicate, Query, QueryResult
from repro.engine.rowstore import RowStoreEngine
from repro.engine.scan import PlainEngine
from repro.engine.selection_cracking import SelectionCrackingEngine
from repro.engine.sideways_engine import SidewaysEngine

#: System name -> ``factory(db)`` building that system's engine over ``db``.
ENGINE_FACTORIES = {
    "monetdb": PlainEngine,
    "presorted": PresortedEngine,
    "selection_cracking": SelectionCrackingEngine,
    "sideways": lambda db: SidewaysEngine(db, partial=False),
    "partial_sideways": lambda db: SidewaysEngine(db, partial=True),
    "rowstore": RowStoreEngine,
    "rowstore_presorted": lambda db: RowStoreEngine(db, presorted=True),
}

__all__ = [
    "ENGINE_FACTORIES",
    "Database",
    "Query",
    "JoinQuery",
    "JoinSide",
    "Predicate",
    "QueryResult",
    "PlainEngine",
    "PresortedEngine",
    "SelectionCrackingEngine",
    "SidewaysEngine",
    "RowStoreEngine",
]
