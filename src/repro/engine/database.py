"""The database facade: tables, updates, and shared cracking structures.

One :class:`Database` is shared by every engine in a benchmark run so that
all systems answer queries over the same logical data, and updates flow to
every auxiliary structure consistently:

* base relations are append-only; deletions set tombstone bits that scan
  engines filter (MonetDB keeps deleted rows in base columns too);
* cracker columns and (partial) sideways crackers receive pending updates
  and merge them on demand;
* presorted copies are invalidated — the paper's point is precisely that
  there is no efficient way to maintain them under updates.

A database owns no checker: CrackSan, FaultSan and RaceSan watch whatever
runs inside an armed :class:`repro.analysis.checks.Checks` scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.mapset import FullMapStorage
from repro.core.partial.engine import PartialConfig, PartialSidewaysCracker
from repro.core.partial.storage import ChunkStorage
from repro.core.sideways import SidewaysCracker
from repro.cracking.column import CrackerColumn
from repro.cracking.progressive import parse_budget
from repro.cracking.stochastic import CrackPolicy, policy_rng, resolve_policy
from repro.errors import CatalogError, UpdateError
from repro.faults.guard import is_quarantined
from repro.server.locks import Mutex
from repro.stats.counters import StatsRecorder, global_recorder
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation


@dataclass
class _SortedCopy:
    relation: Relation
    build_seconds: float
    stale: bool = False


@dataclass
class _TableState:
    relation: Relation
    tombstones: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))


class Database:
    """Catalog plus all engines' auxiliary structures and update routing."""

    def __init__(
        self,
        recorder: StatsRecorder | None = None,
        full_map_budget: int | None = None,
        chunk_budget: int | None = None,
        partial_config: PartialConfig | None = None,
        crack_policy: "CrackPolicy | str | None" = None,
        crack_budget: "object | None" = None,
        crack_seed: int = 42,
    ) -> None:
        self.recorder = recorder or global_recorder()
        self.crack_policy = resolve_policy(crack_policy)
        self.crack_budget = parse_budget(crack_budget)
        self.crack_seed = crack_seed
        self.catalog = Catalog()
        self._tables: dict[str, _TableState] = {}
        self._crackers: dict[tuple[str, str], CrackerColumn] = {}
        self._sorted: dict[tuple[str, str, tuple[str, ...]], _SortedCopy] = {}
        self._sideways: dict[str, SidewaysCracker] = {}
        self._partial: dict[str, PartialSidewaysCracker] = {}
        self.full_map_storage = FullMapStorage(full_map_budget, self.recorder)
        self.chunk_storage = ChunkStorage(chunk_budget, self.recorder)
        self.partial_config = partial_config or PartialConfig()
        # Serving support: structure creation and update routing must be
        # atomic when many executor threads share one database.  The lock
        # guards the *catalog of structures*, never a query's cracking work —
        # the server's per-structure RW locks own that.
        self._meta_lock = Mutex("db.meta", reentrant=True)
        # Monotonic logical-data version: bumped by every insert/delete so
        # the serving layer's result cache can invalidate stale entries.
        self._data_version = 0
        # Resources that must be torn down with the database — serving
        # executors register here so their worker processes and shared-
        # memory segments never outlive (or leak past) the owning Database.
        self._closeables: list = []
        self._closed = False
        # close() serializes on its own (non-reentrant) mutex so concurrent
        # closers both block until teardown is fully done — a second caller
        # must never return while the first is still unlinking segments.
        self._close_mutex = Mutex("db.close")

    @property
    def data_version(self) -> int:
        """Monotonic counter of logical-data changes (inserts/deletes)."""
        return self._data_version

    def register_closeable(self, resource) -> None:
        """Tie ``resource`` (anything with an idempotent ``close()``) to
        this database's lifetime: :meth:`close` closes it."""
        with self._meta_lock:
            self._closeables.append(resource)

    def close(self) -> None:
        """Release everything registered against this database.  Idempotent
        and safe under concurrent callers: every closer serializes on the
        close mutex, so whichever thread loses the race blocks until the
        winner finished tearing everything down — nobody returns to a
        half-closed database.

        The serving layer registers its executors here, so closing the
        database shuts worker processes down and unlinks every shared-
        memory segment they mapped — no ``/dev/shm`` entry survives a
        closed database.
        """
        with self._close_mutex:
            with self._meta_lock:
                if self._closed:
                    return
                self._closed = True
                resources = list(self._closeables)
                self._closeables.clear()
            # Close outside the meta lock: an executor's close() joins
            # worker threads that may still need database reads to finish.
            for resource in reversed(resources):
                resource.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def set_crack_budget(self, budget: "object | None") -> None:
        """Select the progressive per-query budget for every structure.

        ``None`` restores eager cracking.  In-flight partial cracks keep
        their markers; they finish under the new allowance (or eagerly, on
        the next touch, when the budget is lifted).
        """
        resolved = parse_budget(budget)
        self.crack_budget = resolved
        for cracker in self._crackers.values():
            cracker.set_budget(resolved)
        for sideways in self._sideways.values():
            sideways.set_crack_budget(resolved)
        for partial in self._partial.values():
            partial.set_crack_budget(resolved)

    # -- fault healing -----------------------------------------------------------

    def heal_faults(self) -> list[str]:
        """Drop quarantined (or still-broken) structures for a lazy rebuild.

        Every auxiliary structure is redundant — base relations hold all
        primary data — so healing is simply forgetting the broken copy; the
        next query that needs it rebuilds it from scratch.  Structures that
        are not flagged but fail a deep validation (corruption a rollback
        could not undo, e.g. a mutated pre-snapshot tape entry) are treated
        the same.  Returns the labels of the structures that were dropped.
        """
        from repro.analysis import invariants, sanitizer
        from repro.faults.guard import quarantine

        def broken(obj, kind: str) -> bool:
            if is_quarantined(obj):
                return True
            with sanitizer.suspended():
                return bool(invariants.check(obj, kind, deep=True))

        healed: list[str] = []
        for key, cracker in list(self._crackers.items()):
            if broken(cracker, "column"):
                quarantine(cracker, "healed")
                healed.append(f"cracker_column[{key[0]}.{key[1]}]")
                del self._crackers[key]
        for table, sideways in self._sideways.items():
            for attr, mapset in list(sideways.sets.items()):
                if broken(mapset, "mapset"):
                    quarantine(mapset, "healed")
                    for cmap in mapset.maps.values():
                        quarantine(cmap, "healed")
                    healed.append(f"mapset[{table}.{attr}]")
                    self.full_map_storage.unregister_set(mapset)
                    del sideways.sets[attr]
        for table, partial in self._partial.items():
            for attr, pset in list(partial.sets.items()):
                bad = broken(pset, "partial_set")
                if not bad and pset.chunkmap is not None:
                    bad = broken(pset.chunkmap, "chunkmap")
                if bad:
                    quarantine(pset, "healed")
                    healed.append(f"partial_set[{table}.{attr}]")
                    if pset.chunkmap is not None:
                        quarantine(pset.chunkmap, "healed")
                    for pmap in pset.maps.values():
                        for chunk in pmap.chunks.values():
                            quarantine(chunk, "healed")
                        self.chunk_storage.unregister_map(pmap)
                    del partial.sets[attr]
        return healed

    # -- schema ----------------------------------------------------------------

    def create_table(self, name: str, arrays: dict[str, object]) -> Relation:
        relation = Relation.from_arrays(name, arrays)
        self.catalog.add(relation)
        self._tables[name] = _TableState(
            relation, np.zeros(len(relation), dtype=bool)
        )
        return relation

    def table(self, name: str) -> Relation:
        return self.catalog.get(name)

    def tombstones(self, name: str) -> np.ndarray:
        """Boolean mask of deleted rows (aligned with the base relation)."""
        state = self._tables.get(name)
        if state is None:
            raise CatalogError(f"no table named {name!r}")
        return state.tombstones

    def live_count(self, name: str) -> int:
        state = self._tables[name]
        return len(state.relation) - int(state.tombstones.sum())

    # -- updates ----------------------------------------------------------------------

    def insert(self, name: str, rows: dict[str, object]) -> np.ndarray:
        """Append tuples; returns their keys.  All structures are notified."""
        with self._meta_lock:
            state = self._tables.get(name)
            if state is None:
                raise CatalogError(f"no table named {name!r}")
            relation = state.relation
            start = len(relation)
            relation.append_rows(rows)
            count = len(relation) - start
            keys = np.arange(start, start + count, dtype=np.int64)
            state.tombstones = np.concatenate(
                [state.tombstones, np.zeros(count, dtype=bool)]
            )

            arrays = {
                attr: relation.values(attr)[start:] for attr in relation.attributes
            }
            for (tbl, attr), cracker in self._crackers.items():
                if tbl == name:
                    cracker.add_insertions(arrays[attr], keys)
                    # Appends replace the BAT object; keep the sanitizer's deep
                    # permutation check pointed at the current base column.
                    cracker._base = relation.column(attr)
            if name in self._sideways:
                self._sideways[name].notify_insertions(arrays, keys)
            if name in self._partial:
                self._partial[name].notify_insertions(arrays, keys)
            self._invalidate_sorted(name)
            self._data_version += 1
            return keys

    def delete(self, name: str, keys: np.ndarray) -> None:
        """Tombstone tuples by key.  All structures are notified."""
        with self._meta_lock:
            state = self._tables.get(name)
            if state is None:
                raise CatalogError(f"no table named {name!r}")
            keys = np.asarray(keys, dtype=np.int64)
            if state.tombstones[keys].any():
                raise UpdateError("attempt to delete an already-deleted key")
            state.tombstones[keys] = True

            relation = state.relation
            values_by_attr = {
                attr: relation.values(attr)[keys] for attr in relation.attributes
            }
            for (tbl, attr), cracker in self._crackers.items():
                if tbl == name:
                    cracker.add_deletions(values_by_attr[attr], keys)
            if name in self._sideways:
                self._sideways[name].notify_deletions(values_by_attr, keys)
            if name in self._partial:
                self._partial[name].notify_deletions(values_by_attr, keys)
            self._invalidate_sorted(name)
            self._data_version += 1

    def update(self, name: str, keys: np.ndarray, rows: dict[str, object]) -> np.ndarray:
        """An update is a deletion plus an insertion (the paper's model)."""
        self.delete(name, keys)
        return self.insert(name, rows)

    # -- auxiliary structures ---------------------------------------------------------------

    def cracker_column(self, table: str, attr: str) -> CrackerColumn:
        key = (table, attr)
        cracker = self._crackers.get(key)
        if cracker is None:
            # Double-checked under the meta lock: two server threads racing
            # to first-touch the same attribute must agree on one structure
            # (a lost copy would fork the cracked state and the tape).
            with self._meta_lock:
                cracker = self._crackers.get(key)
                if cracker is None:
                    relation = self.table(table)
                    cracker = CrackerColumn(
                        relation.column(attr), self.recorder,
                        policy=self.crack_policy,
                        budget=self.crack_budget,
                        rng=policy_rng(self.crack_seed, "column", table, attr),
                        label=f"cracker_column[{table}.{attr}]",
                    )
                    tombstoned = np.flatnonzero(self.tombstones(table))
                    if len(tombstoned):
                        cracker.add_deletions(
                            relation.values(attr)[tombstoned],
                            tombstoned.astype(np.int64),
                        )
                    self._crackers[key] = cracker
        return cracker

    def sideways(self, table: str) -> SidewaysCracker:
        cracker = self._sideways.get(table)
        if cracker is None:
            with self._meta_lock:
                cracker = self._sideways.get(table)
                if cracker is None:
                    state = self._tables[table]
                    cracker = SidewaysCracker(
                        self.table(table), self.recorder, self.full_map_storage,
                        tombstone_keys=lambda: np.flatnonzero(state.tombstones),
                        policy=self.crack_policy, crack_seed=self.crack_seed,
                        crack_budget=self.crack_budget,
                    )
                    self._sideways[table] = cracker
        return cracker

    def partial_sideways(self, table: str) -> PartialSidewaysCracker:
        cracker = self._partial.get(table)
        if cracker is None:
            with self._meta_lock:
                cracker = self._partial.get(table)
                if cracker is None:
                    state = self._tables[table]
                    cracker = PartialSidewaysCracker(
                        self.table(table),
                        config=self.partial_config,
                        recorder=self.recorder,
                        storage=self.chunk_storage,
                        tombstone_keys=lambda: np.flatnonzero(state.tombstones),
                        policy=self.crack_policy, crack_seed=self.crack_seed,
                        crack_budget=self.crack_budget,
                    )
                    self._partial[table] = cracker
        return cracker

    def sorted_copy(
        self, table: str, by: str, then_by: tuple[str, ...] = ()
    ) -> tuple[Relation, float]:
        """A presorted copy of ``table`` (tombstoned rows excluded).

        Returns the copy and the seconds spent building it (zero when it was
        cached).  Updates invalidate copies; the next access rebuilds.
        """
        import time

        key = (table, by, then_by)
        copy = self._sorted.get(key)
        if copy is None or copy.stale:
            state = self._tables[table]
            start = time.perf_counter()
            source = state.relation
            if state.tombstones.any():
                live = Relation(source.name)
                keep = ~state.tombstones
                for attr in source.attributes:
                    from repro.storage.bat import BAT

                    bat = source.column(attr)
                    live.add_column(
                        attr, BAT(bat.values[keep], bat.ctype, None, bat.dictionary)
                    )
                source = live
            relation = source.sorted_copy(by, then_by)
            seconds = time.perf_counter() - start
            self.recorder.sequential(len(relation) * len(relation.attributes) * 2)
            self.recorder.write(len(relation) * len(relation.attributes))
            copy = _SortedCopy(relation, seconds)
            self._sorted[key] = copy
            return copy.relation, copy.build_seconds
        return copy.relation, 0.0

    def _invalidate_sorted(self, table: str) -> None:
        for key, copy in self._sorted.items():
            if key[0] == table:
                copy.stale = True
