"""Former home of the cracker index, now :mod:`repro.cracking.index`.

Kept only so ``benchmarks/e2e/layers.py`` keeps resolving its
``cracking.index.*`` span targets through this module name.
"""

from repro.cracking.index import CrackerIndex, Piece  # noqa: F401
