"""Artifact store: content-addressed IDs, refs, run history, resolution."""

import json

import pytest

from repro.bench.registry.artifacts import (
    ArtifactError,
    ArtifactStore,
    canonical_json,
    content_id,
    run_metadata,
)

PAYLOAD = {"summary": {"speedup": 2.0, "ok": True}, "cases": [1, 2, 3]}


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


class TestContentAddressing:
    def test_id_is_stable_across_key_order(self):
        a = {"x": 1, "y": {"b": 2, "a": 3}}
        b = {"y": {"a": 3, "b": 2}, "x": 1}
        assert content_id(a) == content_id(b)
        assert len(content_id(a)) == 20

    def test_id_changes_with_content(self):
        assert content_id({"x": 1}) != content_id({"x": 2})

    def test_canonical_json_has_no_whitespace(self):
        text = canonical_json({"a": 1, "b": [2, 3]})
        assert " " not in text and "\n" not in text


class TestStoreRoundTrip:
    def test_put_get_round_trip(self, store):
        record = store.put(PAYLOAD, run_metadata("exp99", scale=0.5, seed=7))
        assert store.get(record.artifact_id) == PAYLOAD
        assert store.has(record.artifact_id)
        assert record.meta["experiment"] == "exp99"
        assert record.meta["scale"] == 0.5
        assert record.meta["seed"] == 7

    def test_put_dedups_identical_payloads(self, store):
        r1 = store.put(PAYLOAD, run_metadata("exp99"))
        r2 = store.put(dict(PAYLOAD), run_metadata("exp99"))
        assert r1.artifact_id == r2.artifact_id
        objects = list((store.root / "objects").rglob("*.json"))
        assert len(objects) == 1
        # ...but both runs are recorded.
        assert len(store.runs("exp99")) == 2

    def test_get_unknown_id_raises(self, store):
        with pytest.raises(ArtifactError, match="unknown artifact"):
            store.get("0" * 20)

    def test_metadata_echoes_repro_scale_env(self, store, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        meta = run_metadata("exp99", scale=0.25)
        assert meta["repro_scale_env"] == "0.25"
        monkeypatch.delenv("REPRO_SCALE")
        assert run_metadata("exp99")["repro_scale_env"] is None

    def test_metadata_provenance_fields(self, store):
        meta = run_metadata("exp99", params={"queries": 10})
        for key in ("created", "git_sha", "host", "platform", "python",
                    "sanitize", "faults", "racesan"):
            assert key in meta
        assert meta["params"] == {"queries": 10}


class TestRefs:
    def test_set_and_get_ref(self, store):
        record = store.put(PAYLOAD, run_metadata("exp99"))
        store.set_ref("current/exp99", record.artifact_id)
        assert store.get_ref("current/exp99") == record.artifact_id
        assert store.refs() == {"current/exp99": record.artifact_id}

    def test_ref_to_missing_artifact_refused(self, store):
        with pytest.raises(ArtifactError, match="missing artifact"):
            store.set_ref("current/exp99", "f" * 20)

    def test_ref_repoint(self, store):
        r1 = store.put({"v": 1}, run_metadata("exp99"))
        r2 = store.put({"v": 2}, run_metadata("exp99"))
        store.set_ref("current/exp99", r1.artifact_id)
        store.set_ref("current/exp99", r2.artifact_id)
        assert store.get_ref("current/exp99") == r2.artifact_id


class TestResolve:
    def test_resolve_ref(self, store):
        record = store.put(PAYLOAD, run_metadata("exp99"))
        store.set_ref("baseline/exp99", record.artifact_id)
        assert store.resolve("ref:baseline/exp99") == PAYLOAD

    def test_resolve_artifact_id(self, store):
        record = store.put(PAYLOAD, run_metadata("exp99"))
        assert store.resolve(record.artifact_id) == PAYLOAD

    def test_resolve_file_path(self, store, tmp_path):
        path = tmp_path / "result.json"
        path.write_text(json.dumps(PAYLOAD))
        assert store.resolve(str(path)) == PAYLOAD

    def test_resolve_unknown_ref_lists_known(self, store):
        record = store.put(PAYLOAD, run_metadata("exp99"))
        store.set_ref("baseline/exp99", record.artifact_id)
        with pytest.raises(ArtifactError, match="baseline/exp99"):
            store.resolve("ref:current/exp99")

    def test_resolve_garbage_raises(self, store):
        with pytest.raises(ArtifactError, match="cannot resolve"):
            store.resolve("nonsense")


class TestRunHistory:
    def test_runs_sorted_by_created(self, store):
        for i in range(3):
            meta = run_metadata("exp99")
            meta["created"] = 1000.0 + i
            store.put({"v": i}, meta)
        created = [m["created"] for m in store.runs("exp99")]
        assert created == sorted(created)

    def test_runs_filtered_by_experiment(self, store):
        store.put({"v": 1}, run_metadata("expA"))
        store.put({"v": 2}, run_metadata("expB"))
        assert len(store.runs("expA")) == 1
        assert len(store.runs()) == 2

