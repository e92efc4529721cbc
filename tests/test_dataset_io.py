"""Dataset persistence round-trips, atomicity and corruption handling."""

import dataclasses
import json
import shutil

import numpy as np
import pytest

from repro.data import (
    Dataset, DatasetChecksumError, DatasetCorruptError, DatasetError,
    DatasetMissingError, DatasetSchemaError, SampleRecord, load_dataset,
    save_dataset,
)
from repro.data.io import META_SCHEMA
from repro.runtime.digest import read_sealed, sha256_bytes, write_sealed
from repro.sim.hpc import COUNTER_NAMES


def test_roundtrip_preserves_everything(small_dataset, tmp_path):
    path = str(tmp_path / "corpus")
    save_dataset(small_dataset, path)
    loaded = load_dataset(path)
    assert len(loaded) == len(small_dataset)
    assert loaded.sample_period == small_dataset.sample_period
    for a, b in zip(loaded.records, small_dataset.records):
        assert a.deltas == list(b.deltas)
        assert a.label == b.label
        assert a.category == b.category
        assert a.phase == b.phase
        assert a.source == b.source
        assert a.commit_index == b.commit_index


def test_roundtrip_features_identical(small_dataset, tmp_path):
    path = str(tmp_path / "corpus.npz")
    save_dataset(small_dataset, path)
    loaded = load_dataset(path)
    Xa, ya, schema, norm = small_dataset.features()
    Xb = norm.transform(loaded.raw_matrix(schema))
    assert np.allclose(Xa, Xb)
    assert (ya == loaded.labels()).all()


def test_content_digest_is_the_sealed_sidecars_digest(small_dataset,
                                                      tmp_path):
    path = str(tmp_path / "corpus")
    save_dataset(small_dataset, path)
    with open(tmp_path / "corpus.meta.json") as f:
        sealed = json.load(f)
    assert load_dataset(path).content_sha256 == sealed["sha256"]
    assert small_dataset.content_sha256 is None     # never loaded


def test_content_digest_follows_the_content_not_the_path(small_dataset,
                                                         tmp_path):
    """A copy elsewhere keeps the digest; one relabelled record over the
    same matrix, saved at the same path, moves it."""
    here, there = tmp_path / "here", tmp_path / "there"
    here.mkdir()
    save_dataset(small_dataset, str(here / "corpus"))
    shutil.copytree(here, there)
    digest = load_dataset(str(here / "corpus")).content_sha256
    assert load_dataset(str(there / "corpus")).content_sha256 == digest
    relabelled = Dataset(sample_period=small_dataset.sample_period)
    relabelled.records = list(small_dataset.records)
    first = relabelled.records[0]
    relabelled.records[0] = dataclasses.replace(first, label=1 - first.label)
    save_dataset(relabelled, str(here / "corpus"))
    assert load_dataset(str(here / "corpus")).content_sha256 != digest


def test_corrupt_metadata_rejected(small_dataset, tmp_path):
    path = str(tmp_path / "corpus")
    save_dataset(small_dataset, path)
    meta = tmp_path / "corpus.meta.json"
    text = meta.read_text()
    # drop one record from the metadata
    data = json.loads(text)
    data["payload"]["records"] = data["payload"]["records"][:-1]
    meta.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        load_dataset(path)


def _tamper_first_attack_record(meta_path):
    """Relabel the sidecar's first attack window as benign in place,
    wherever the sidecar keeps its records."""
    with open(meta_path) as f:
        data = json.load(f)
    records = data.get("payload", data)["records"]
    record = next(r for r in records if r["label"] == 1)
    record["label"], record["category"] = 0, "benign"
    with open(meta_path, "w") as f:
        json.dump(data, f)


def test_tampered_sidecar_labels_fail_the_checksum(tmp_path, capsys):
    """Labels, categories and phases live only in the sidecar, so the
    sidecar's digest must cover them: a relabelled attack window must
    not load as a benign one."""
    from repro.cli import main
    path = str(tmp_path / "corpus")
    save_dataset(_tiny_dataset(4), path)
    _tamper_first_attack_record(path + ".meta.json")
    with pytest.raises(DatasetChecksumError):
        load_dataset(path)
    with pytest.raises(SystemExit) as exc:
        main(["train", path, "--no-manifest"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "checksum mismatch" in err


def _tiny_dataset(n=3):
    ds = Dataset(sample_period=100)
    width = len(COUNTER_NAMES)
    for i in range(n):
        ds.records.append(SampleRecord(
            deltas=[(i * 7 + j) % 100 for j in range(width)],
            label=i % 2, category="benign", phase=0,
            source=f"src{i}", commit_index=100 * i))
    return ds


class TestTypedErrors:
    def test_missing_metadata_sidecar(self, tmp_path):
        path = str(tmp_path / "corpus")
        save_dataset(_tiny_dataset(), path)
        (tmp_path / "corpus.meta.json").unlink()
        with pytest.raises(DatasetMissingError):
            load_dataset(path)

    def test_missing_npz(self, tmp_path):
        path = str(tmp_path / "corpus")
        save_dataset(_tiny_dataset(), path)
        (tmp_path / "corpus.npz").unlink()
        with pytest.raises(DatasetMissingError):
            load_dataset(path)

    def test_nonexistent_path(self, tmp_path):
        with pytest.raises(DatasetMissingError):
            load_dataset(str(tmp_path / "never-saved"))

    def test_truncated_npz(self, tmp_path):
        path = str(tmp_path / "corpus")
        save_dataset(_tiny_dataset(), path)
        npz = tmp_path / "corpus.npz"
        npz.write_bytes(npz.read_bytes()[: 40])
        with pytest.raises(DatasetChecksumError):
            load_dataset(path)
        # a sidecar resealed over the truncated matrix's digest passes
        # the checksum: the matrix parse itself must still object
        meta = str(tmp_path / "corpus.meta.json")
        data = read_sealed(meta, META_SCHEMA)
        data["npz_sha256"] = sha256_bytes(npz.read_bytes())
        write_sealed(meta, META_SCHEMA, data)
        with pytest.raises(DatasetCorruptError):
            load_dataset(path)

    def test_garbage_metadata_json(self, tmp_path):
        path = str(tmp_path / "corpus")
        save_dataset(_tiny_dataset(), path)
        (tmp_path / "corpus.meta.json").write_text("{not json at all")
        with pytest.raises(DatasetCorruptError):
            load_dataset(path)

    def test_row_count_mismatch(self, tmp_path):
        path = str(tmp_path / "corpus")
        save_dataset(_tiny_dataset(), path)
        meta = str(tmp_path / "corpus.meta.json")
        data = read_sealed(meta, META_SCHEMA)
        data["records"] = data["records"][:-1]
        write_sealed(meta, META_SCHEMA, data)       # a consistent seal
        with pytest.raises(DatasetSchemaError):
            load_dataset(path)

    def test_checksum_mismatch(self, tmp_path):
        path = str(tmp_path / "corpus")
        save_dataset(_tiny_dataset(), path)
        npz = tmp_path / "corpus.npz"
        npz.write_bytes(npz.read_bytes() + b"tail")
        with pytest.raises(DatasetChecksumError):
            load_dataset(path)

    def test_all_typed_errors_are_dataset_errors(self):
        for cls in (DatasetMissingError, DatasetCorruptError,
                    DatasetChecksumError, DatasetSchemaError):
            assert issubclass(cls, DatasetError)
            assert issubclass(cls, ValueError)   # legacy contract


class _Killed(BaseException):
    """Stands in for a SIGKILL at a precise point inside save_dataset."""


class TestMidWriteKill:
    """Killing save_dataset mid-write never leaves a loadable-but-wrong
    corpus: load either returns a fully-verified dataset or raises a
    DatasetError."""

    def _save_with_kill(self, dataset, path, kill_at):
        """Run save_dataset but die just before atomic write #kill_at
        publishes its file (the rename every atomic write ends in)."""
        import os
        real = os.replace
        calls = {"n": 0}

        def flaky(src, dst):
            calls["n"] += 1
            if calls["n"] >= kill_at:
                raise _Killed()
            return real(src, dst)

        os.replace = flaky
        try:
            with pytest.raises(_Killed):
                save_dataset(dataset, path)
        finally:
            os.replace = real

    @pytest.mark.parametrize("kill_at", [1, 2])
    def test_interrupted_overwrite_is_never_silently_wrong(
            self, tmp_path, kill_at):
        path = str(tmp_path / "corpus")
        old = _tiny_dataset(3)
        save_dataset(old, path)
        new = _tiny_dataset(5)
        self._save_with_kill(new, path, kill_at)
        try:
            loaded = load_dataset(path)
        except DatasetError:
            return                      # detected loudly: acceptable
        # if it loads, it must be exactly one of the two corpora
        assert len(loaded) in (len(old), len(new))
        reference = old if len(loaded) == len(old) else new
        for a, b in zip(loaded.records, reference.records):
            assert a.deltas == list(b.deltas)

    def test_kill_before_any_write_preserves_old_corpus(self, tmp_path):
        path = str(tmp_path / "corpus")
        old = _tiny_dataset(3)
        save_dataset(old, path)
        self._save_with_kill(_tiny_dataset(5), path, 1)
        assert len(load_dataset(path)) == len(old)

    def test_kill_between_replaces_is_detected(self, tmp_path):
        # meta lands first; dying before the matrix write leaves a
        # mismatched pair that the checksum must reject
        path = str(tmp_path / "corpus")
        save_dataset(_tiny_dataset(3), path)
        self._save_with_kill(_tiny_dataset(5), path, 2)
        with pytest.raises(DatasetChecksumError):
            load_dataset(path)


# -- round-trip property test ------------------------------------------------

from hypothesis import given, settings, strategies as st  # noqa: E402

_WIDTH = len(COUNTER_NAMES)

_records = st.lists(
    st.builds(
        SampleRecord,
        deltas=st.lists(st.integers(min_value=0, max_value=1 << 40),
                        min_size=_WIDTH, max_size=_WIDTH),
        label=st.integers(min_value=0, max_value=1),
        category=st.sampled_from(["benign", "spectre-pht", "rowhammer"]),
        phase=st.integers(min_value=0, max_value=3),
        source=st.text(
            alphabet=st.characters(whitelist_categories=("L", "N"),
                                   max_codepoint=0x2FF),
            min_size=1, max_size=12),
        commit_index=st.integers(min_value=0, max_value=1 << 31),
    ),
    min_size=0, max_size=6)


@settings(max_examples=20, deadline=None)
@given(records=_records,
       period=st.integers(min_value=1, max_value=10_000))
def test_roundtrip_property(records, period, tmp_path_factory):
    """save -> load is the identity for any structurally valid dataset."""
    dataset = Dataset(records=records, sample_period=period)
    path = str(tmp_path_factory.mktemp("prop") / "corpus")
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    assert loaded.sample_period == period
    assert len(loaded) == len(dataset)
    for a, b in zip(loaded.records, dataset.records):
        assert a.deltas == list(b.deltas)
        assert (a.label, a.category, a.phase, a.source, a.commit_index) == \
            (b.label, b.category, b.phase, b.source, b.commit_index)

