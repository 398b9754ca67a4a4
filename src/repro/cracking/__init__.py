"""Selection cracking: the substrate from Idreos et al., CIDR 2007 / SIGMOD 2007.

This package provides the pieces sideways cracking is built from:

* :mod:`~repro.cracking.bounds` — piece-boundary algebra for range predicates
  with inclusive/exclusive endpoints;
* :mod:`~repro.cracking.index` — the cracker index (boundaries in flat sorted
  arrays; the paper's AVL tree, see DESIGN.md);
* :mod:`~repro.cracking.kernels` — vectorized, *stable* (hence deterministic)
  crack-in-two / crack-in-three partitioning kernels;
* :mod:`~repro.cracking.crack` — the shared "crack a range into an index-backed
  cracked array" routine used by cracker columns, cracker maps, and chunks;
* :mod:`~repro.cracking.column` — cracker columns (selection cracking proper);
* :mod:`~repro.cracking.pending` / :mod:`~repro.cracking.ripple` — pending
  updates merged on demand with a vectorized Ripple merge (bulk passes over
  the index's arrays).
"""

from repro.cracking.bounds import Bound, Interval, Side
from repro.cracking.column import CrackerColumn
from repro.cracking.crack import crack_into
from repro.cracking.index import CrackerIndex
from repro.cracking.pending import PendingUpdates

__all__ = [
    "Bound",
    "Interval",
    "Side",
    "CrackerIndex",
    "CrackerColumn",
    "crack_into",
    "PendingUpdates",
]
