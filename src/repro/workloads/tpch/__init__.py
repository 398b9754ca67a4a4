"""A self-contained TPC-H substrate.

* :mod:`~repro.workloads.tpch.datagen` — a dbgen-style generator producing
  the eight TPC-H tables at a configurable scale factor (dates are stored as
  day ordinals, strings dictionary-encoded in lexicographic code order so
  equality and prefix predicates become integer ranges).
* :mod:`~repro.workloads.tpch.executor` — the mode-specific table-selection
  path: each system's engine (plain scans, presorted copies, cracker
  columns, sideways cracking, row stores) handles the query's selections
  and tuple reconstructions; joins, group-bys and aggregations use the
  common operators, as in the paper.
* :mod:`~repro.workloads.tpch.queries` — Q1, 3, 4, 6, 7, 8, 10, 12, 14, 15,
  19, 20 (every TPC-H query with a selection on a non-string attribute) with
  the benchmark's parameter-variation rules.
* :mod:`~repro.workloads.tpch.runner` — drives the 30-variation sequences of
  Fig. 14 and the mixed workload of Section 5.
"""

from repro.workloads.tpch.datagen import TPCHData, generate
from repro.workloads.tpch.executor import MODES, ModeExecutor
from repro.workloads.tpch.queries import QUERIES, ParamGen
from repro.workloads.tpch.queries_extra import EXTRA_QUERIES, ExtraParamGen

ALL_QUERIES = {**QUERIES, **EXTRA_QUERIES}

__all__ = [
    "TPCHData",
    "generate",
    "ModeExecutor",
    "MODES",
    "QUERIES",
    "EXTRA_QUERIES",
    "ALL_QUERIES",
    "ParamGen",
    "ExtraParamGen",
]
