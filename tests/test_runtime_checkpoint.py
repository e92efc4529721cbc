"""Checkpoint shards + manifest: atomicity, verification, resume."""

import json
import os

import pytest

from repro.obs import metrics
from repro.runtime import CheckpointError, CheckpointStore
from repro.runtime.atomic import atomic_write_bytes

CONTEXT = {"sample_period": 100, "keys": ["a", "b"]}


def _store(tmp_path, resume=False, context=CONTEXT):
    return CheckpointStore(str(tmp_path / "shards")).open(
        context=context, resume=resume)


class TestAtomicWrite:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "blob.bin")
        atomic_write_bytes(path, b"hello")
        assert open(path, "rb").read() == b"hello"

    def test_no_temp_droppings_on_success(self, tmp_path):
        atomic_write_bytes(str(tmp_path / "x"), b"data")
        assert sorted(os.listdir(tmp_path)) == ["x"]

    def test_overwrite_is_all_or_nothing(self, tmp_path):
        path = str(tmp_path / "x")
        atomic_write_bytes(path, b"old")
        atomic_write_bytes(path, b"new")
        assert open(path, "rb").read() == b"new"


def _writes_timed():
    return metrics().timer("runtime.atomic_write.seconds").count


class TestWriteTimer:
    def test_every_write_is_timed(self, tmp_path):
        before = _writes_timed()
        for i in range(4):
            atomic_write_bytes(str(tmp_path / "x"), b"%d" % i)
        assert _writes_timed() - before == 4

    def test_a_store_open_and_two_new_puts_are_five_writes(self, tmp_path):
        """``open`` writes the manifest; each new-key ``put`` writes its
        shard and rewrites the manifest."""
        before = _writes_timed()
        store = _store(tmp_path)
        store.put("a", {"records": [1]})
        store.put("b", {"records": [2]})
        assert _writes_timed() - before == 5


class TestCheckpointStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = _store(tmp_path)
        store.put("a", {"records": [1, 2, 3]})
        assert store.get("a") == {"records": [1, 2, 3]}
        assert store.has("a") and not store.has("b")

    def test_resume_sees_previous_shards(self, tmp_path):
        _store(tmp_path).put("a", {"records": [1]})
        store = _store(tmp_path, resume=True)
        assert store.valid_keys() == ["a"]
        assert store.get("a") == {"records": [1]}

    def test_fresh_open_clears_previous_state(self, tmp_path):
        _store(tmp_path).put("a", {"records": [1]})
        store = _store(tmp_path)           # no resume -> rebuild
        assert store.valid_keys() == []

    def test_resume_with_different_context_refused(self, tmp_path):
        _store(tmp_path).put("a", {"records": [1]})
        with pytest.raises(CheckpointError):
            _store(tmp_path, resume=True,
                   context={"sample_period": 250, "keys": ["a", "b"]})

    def test_tampered_shard_is_dropped_not_trusted(self, tmp_path):
        store = _store(tmp_path)
        store.put("a", {"records": [1]})
        store.put("b", {"records": [2]})
        shard = next(p for p in (tmp_path / "shards").iterdir()
                     if p.name.startswith("a") and
                     p.name.endswith(".shard.json"))
        shard.write_text(json.dumps({"records": [999]}))
        resumed = _store(tmp_path, resume=True)
        assert resumed.valid_keys() == ["b"]    # "a" must be re-simulated

    def test_get_checksum_mismatch_raises(self, tmp_path):
        store = _store(tmp_path)
        store.put("a", {"records": [1]})
        shard = next(p for p in (tmp_path / "shards").iterdir()
                     if p.name.endswith(".shard.json"))
        shard.write_bytes(b"garbage")
        with pytest.raises(CheckpointError):
            store.get("a")

    def test_get_unknown_key_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            _store(tmp_path).get("nope")

    def test_corrupt_manifest_refused_loudly(self, tmp_path):
        _store(tmp_path).put("a", {"records": [1]})
        (tmp_path / "shards" / "manifest.json").write_text("{not json")
        with pytest.raises(CheckpointError):
            _store(tmp_path, resume=True)

    def test_keys_with_awkward_characters(self, tmp_path):
        store = _store(tmp_path)
        key = "003-atk-spectre/pht v2-s1"
        store.put(key, {"records": []})
        assert store.get(key) == {"records": []}
