"""Sideways cracking: the paper's primary contribution.

* :mod:`~repro.core.tape` — cracker tapes: ordered logs of crack / insert /
  delete / sort events; a map's *cursor* into its tape defines its alignment
  state.
* :mod:`~repro.core.replay` — the one tape interpreter: ``apply_entry``
  (one entry onto a head and its tails), ``align_gang`` (several maps or
  chunks along one tape), ``log_crack`` (a live crack onto the tape).
* :mod:`~repro.core.map` — cracker maps ``M_AB`` (head = selection attribute,
  tail = projection attribute) and the ``CrackedPair`` they share with
  partial-map chunks.
* :mod:`~repro.core.mapset` — map sets ``S_A``: all maps headed by one
  attribute, the shared tape, the ``M_Akey`` map, pending updates, and
  adaptive alignment.
* :mod:`~repro.core.bitvector` — bit-vector filtering for multi-selection
  plans.
* :mod:`~repro.core.histogram` — cracker indices as self-organizing
  histograms (map-set choice / selectivity estimation).
* :mod:`~repro.core.sideways` — the one sideways operator suite
  (``select``, ``select_create_bv``, ``select_refine_bv``, ``reconstruct``)
  over prepared areas, and its full-map facade (the one-area case).
* :mod:`~repro.core.partial` — partial sideways cracking (Section 4).
"""

from repro.core.map import CrackerMap
from repro.core.mapset import MapSet
from repro.core.sideways import SidewaysCracker
from repro.core.tape import CrackEntry, CrackerTape, DeleteEntry, InsertEntry, SortEntry

__all__ = [
    "CrackerMap",
    "MapSet",
    "SidewaysCracker",
    "CrackerTape",
    "CrackEntry",
    "InsertEntry",
    "DeleteEntry",
    "SortEntry",
]
