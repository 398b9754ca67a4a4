"""Database persistence."""

import json

import numpy as np
import pytest

from repro.cracking.bounds import Interval
from repro.engine import Database, PlainEngine, Predicate, Query, SidewaysEngine
from repro.errors import InjectedFault, PersistError, SchemaError
from repro.faults.plan import (
    PAYLOAD_SITES,
    SITES,
    FaultPlan,
    install_plan,
)
from repro.storage.persist import (
    _MANIFEST_KEY,
    _crc32,
    dumps,
    load_database,
    loads,
    save_database,
)


@pytest.fixture
def populated(rng):
    db = Database()
    db.create_table(
        "R",
        {
            "A": rng.integers(1, 10_000, size=1_000),
            "price": rng.uniform(0, 100, size=1_000),
            "tag": np.array([["x", "y"][i % 2] for i in range(1_000)]),
        },
    )
    db.delete("R", np.array([3, 7]))
    return db


class TestRoundTrip:
    def test_values_survive(self, populated, tmp_path):
        path = tmp_path / "db.npz"
        save_database(populated, path)
        restored = load_database(path)
        original = populated.table("R")
        copy = restored.table("R")
        for attr in original.attributes:
            assert np.array_equal(original.values(attr), copy.values(attr))

    def test_dictionary_survives(self, populated):
        restored = loads(dumps(populated))
        dictionary = restored.table("R").column("tag").dictionary
        assert dictionary.values == ("x", "y")

    def test_float_dtype_survives(self, populated):
        restored = loads(dumps(populated))
        assert restored.table("R").values("price").dtype == np.float64

    def test_tombstones_survive(self, populated):
        restored = loads(dumps(populated))
        assert restored.tombstones("R")[3]
        assert restored.tombstones("R")[7]
        assert restored.live_count("R") == 998

    def test_queries_agree_after_reload(self, populated):
        restored = loads(dumps(populated))
        query = Query(
            "R",
            predicates=(Predicate("A", Interval.open(100, 5_000)),),
            projections=("price",),
            aggregates=(("count", "price"),),
        )
        a = PlainEngine(populated).run(query)
        b = PlainEngine(restored).run(query)
        assert a.aggregates == b.aggregates

    def test_cracking_restarts_cold_but_correct(self, populated):
        engine = SidewaysEngine(populated)
        query = Query(
            "R",
            predicates=(Predicate("A", Interval.open(100, 5_000)),),
            projections=("price",),
        )
        warm = engine.run(query)
        restored = loads(dumps(populated))
        # Cracked state is not persisted: the restored side starts fresh.
        assert not restored._sideways
        cold_engine = SidewaysEngine(restored)
        cold = cold_engine.run(query)
        assert np.array_equal(np.sort(warm.columns["price"]),
                              np.sort(cold.columns["price"]))

    def test_multiple_tables(self, rng, tmp_path):
        db = Database()
        db.create_table("a", {"x": np.arange(10)})
        db.create_table("b", {"y": np.arange(5)})
        path = tmp_path / "multi.npz"
        save_database(db, path)
        restored = load_database(path)
        assert len(restored.table("a")) == 10
        assert len(restored.table("b")) == 5


class TestErrors:
    def test_not_an_archive(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(SchemaError):
            load_database(path)

    def test_unsupported_version(self, populated, tmp_path):
        path = _tampered(populated, tmp_path, _set_version(99))
        with pytest.raises(SchemaError, match="version"):
            load_database(path)


def _tampered(db, tmp_path, mutate):
    """Save ``db``, apply ``mutate(members, manifest)``, re-archive."""
    original = tmp_path / "db.npz"
    save_database(db, original)
    with np.load(original, allow_pickle=False) as archive:
        members = {key: archive[key] for key in archive.files}
    manifest = json.loads(bytes(members[_MANIFEST_KEY]).decode("utf-8"))
    mutate(members, manifest)
    members[_MANIFEST_KEY] = np.frombuffer(
        json.dumps(manifest).encode("utf-8"), dtype=np.uint8
    )
    tampered = tmp_path / "tampered.npz"
    np.savez_compressed(tampered, **members)
    return tampered


def _set_version(version):
    def mutate(_members, manifest):
        manifest["version"] = version

    return mutate


class TestCorruption:
    """Damaged snapshots raise structured PersistError, never load silently."""

    def test_truncated_file(self, populated, tmp_path):
        path = tmp_path / "db.npz"
        save_database(populated, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(PersistError) as exc_info:
            load_database(path)
        assert exc_info.value.path == str(path)
        assert exc_info.value.offset == len(blob) // 2

    def test_bit_flipped_file(self, populated, tmp_path):
        path = tmp_path / "db.npz"
        save_database(populated, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # one byte, somewhere in member data
        path.write_bytes(bytes(blob))
        with pytest.raises(PersistError) as exc_info:
            load_database(path)
        assert exc_info.value.path == str(path)

    def test_bit_flipped_array_fails_checksum(self, populated, tmp_path):
        def flip(members, _manifest):
            members["R::A"] = members["R::A"].copy()
            members["R::A"][17] ^= 0x5A  # recorded CRC no longer matches

        path = _tampered(populated, tmp_path, flip)
        with pytest.raises(PersistError, match="checksum mismatch") as exc_info:
            load_database(path)
        assert exc_info.value.member == "R::A"
        assert exc_info.value.path == str(path)

    def test_missing_member(self, populated, tmp_path):
        def drop(members, _manifest):
            del members["R::price"]

        path = _tampered(populated, tmp_path, drop)
        with pytest.raises(PersistError, match="missing") as exc_info:
            load_database(path)
        assert exc_info.value.member == "R::price"

    def test_corrupt_manifest_json(self, populated, tmp_path):
        path = tmp_path / "db.npz"
        save_database(populated, path)
        with np.load(path, allow_pickle=False) as archive:
            members = {key: archive[key] for key in archive.files}
        members[_MANIFEST_KEY] = np.frombuffer(b'{"ver', dtype=np.uint8)
        np.savez_compressed(path, **members)
        with pytest.raises(PersistError, match="JSON") as exc_info:
            load_database(path)
        assert exc_info.value.member == _MANIFEST_KEY

    def test_tombstone_length_mismatch(self, populated, tmp_path):
        def shorten(members, manifest):
            short = members["R::@tombstones"][:-5].copy()
            members["R::@tombstones"] = short
            # Keep the CRC consistent so only the length check can object.
            manifest["tables"]["R"]["tombstones_crc32"] = _crc32(short)

        path = _tampered(populated, tmp_path, shorten)
        with pytest.raises(PersistError, match="tombstone"):
            load_database(path)

    def test_v1_archive_without_checksums_loads(self, populated, tmp_path):
        def downgrade(_members, manifest):
            manifest["version"] = 1
            for spec in manifest["tables"].values():
                spec.pop("tombstones_crc32", None)
                for column in spec["columns"].values():
                    column.pop("crc32", None)

        path = _tampered(populated, tmp_path, downgrade)
        restored = load_database(path)
        assert np.array_equal(
            restored.table("R").values("A"), populated.table("R").values("A")
        )


class TestFailpoints:
    """The ``persist.save`` / ``persist.load`` FaultSan sites."""

    def _armed(self, spec):
        install_plan(FaultPlan.parse(spec))

    def teardown_method(self):
        install_plan(None)

    def test_sites_are_registered(self):
        assert {"persist.save", "persist.load"} <= set(SITES)
        assert {"persist.save", "persist.load"} <= PAYLOAD_SITES

    def test_save_error_leaves_no_archive(self, populated, tmp_path):
        path = tmp_path / "db.npz"
        self._armed("persist.save=error")
        with pytest.raises(InjectedFault, match="persist.save"):
            save_database(populated, path)
        assert not path.exists()

    def test_save_corrupt_is_a_torn_write(self, populated, tmp_path):
        """A corrupt fault at save time flips archive bytes under a
        pristine checksum; the live columns stay untouched and the next
        load reports the damage instead of serving it."""
        path = tmp_path / "db.npz"
        pristine = populated.table("R").values("A").copy()
        self._armed("persist.save=corrupt")
        save_database(populated, path)
        install_plan(None)
        assert np.array_equal(populated.table("R").values("A"), pristine)
        with pytest.raises(PersistError, match="checksum mismatch") as exc:
            load_database(path)
        assert exc.value.member == "R::A"

    def test_load_error_fires(self, populated, tmp_path):
        path = tmp_path / "db.npz"
        save_database(populated, path)
        self._armed("persist.load=error")
        with pytest.raises(InjectedFault, match="persist.load"):
            load_database(path)

    def test_load_corrupt_fails_the_checksum(self, populated, tmp_path):
        path = tmp_path / "db.npz"
        save_database(populated, path)
        self._armed("persist.load=corrupt")
        with pytest.raises(PersistError, match="checksum mismatch"):
            load_database(path)

    def test_unarmed_round_trip_avoids_staging_copies(self, populated):
        blob = dumps(populated)
        restored = loads(blob)
        assert np.array_equal(
            restored.table("R").values("A"), populated.table("R").values("A")
        )
