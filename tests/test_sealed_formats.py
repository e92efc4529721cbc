"""The four persisted formats on the one sealed file: a flipped payload
byte reaches each format's typed error or self-heal, and a file in the
layout before the sealed format is refused with one CLI line."""

import json
import os

import pytest

from repro.campaign import CampaignSpec, CellCache, CellCorruptError
from repro.cli import main
from repro.core.patching import (
    ModelChecksumError, detector_to_dict, load_detector, save_detector,
)
from repro.data import (
    Dataset, DatasetChecksumError, SampleRecord, load_dataset,
    save_dataset,
)
from repro.data.io import counter_layout_sha256, record_to_dict
from repro.runtime import CheckpointError, CheckpointStore
from repro.runtime.digest import fingerprint, sha256_bytes
from repro.serve import demo_detector
from repro.sim.hpc import COUNTER_NAMES


def _dataset(n=4):
    return Dataset(sample_period=100, records=[
        SampleRecord(deltas=[(i * 7 + j) % 50 for j in
                             range(len(COUNTER_NAMES))],
                     label=i % 2, category="benign" if i % 2 == 0
                     else "spectre-pht", phase=0, source=f"src{i}",
                     commit_index=100 * i)
        for i in range(n)])


def _flip_payload_digit(path):
    """Change the first digit inside the sealed payload to another
    digit: the file still parses, so only the checksum can object."""
    with open(path, "rb") as f:
        data = bytearray(f.read())
    pos = data.index(b'"payload":')
    while chr(data[pos]) not in "0123456789":
        pos += 1
    data[pos] = ord("2") if data[pos] == ord("1") else ord("1")
    with open(path, "wb") as f:
        f.write(bytes(data))


def _detector(tmp_path):
    path = str(tmp_path / "det.json")
    save_detector(demo_detector(seed=0), path)
    _flip_payload_digit(path)
    with pytest.raises(ModelChecksumError):
        load_detector(path)


def _corpus(tmp_path):
    path = str(tmp_path / "corpus")
    save_dataset(_dataset(), path)
    _flip_payload_digit(path + ".meta.json")
    with pytest.raises(DatasetChecksumError):
        load_dataset(path)


def _checkpoint_shard(tmp_path):
    store = CheckpointStore(str(tmp_path / "ck")).open({"build": 1})
    store.put("a", {"records": [1, 2]})
    store.put("b", {"records": [3]})
    _flip_payload_digit(store.path("a"))
    resumed = CheckpointStore(store.directory).open({"build": 1},
                                                    resume=True)
    with pytest.raises(CheckpointError):
        resumed.get("a")
    assert resumed.valid_keys() == ["b"]


def _cell_entry(tmp_path):
    cell = CampaignSpec(workloads=("stream",)).expand()[0]
    cache = CellCache(str(tmp_path / "cache"))
    _flip_payload_digit(cache.put(cell, {"cycles": 42}))
    with pytest.raises(CellCorruptError) as exc:
        cache.get(cell.fingerprint)
    assert exc.value.reason == "checksum"
    cache.quarantine(cell.fingerprint, reason=exc.value.reason)
    assert cache.get(cell.fingerprint) is None
    assert cache.quarantined() == [f"{cell.fingerprint}.checksum.cell.json"]


@pytest.mark.parametrize("check", [_detector, _corpus, _checkpoint_shard,
                                   _cell_entry],
                         ids=["detector", "corpus", "checkpoint-shard",
                              "cell-entry"])
def test_flipped_payload_byte_reaches_the_typed_error(check, tmp_path):
    check(tmp_path)


# ---------------------------------------------------------------------------
# files in the layout before the sealed format


def _write_json(path, data, indent=None):
    with open(path, "w") as f:
        f.write(json.dumps(data, indent=indent))


def _old_detector(tmp_path):
    """A ``repro.detector/2`` envelope, as the previous writer made it."""
    detector = demo_detector(seed=0)
    payload = detector_to_dict(detector)
    path = str(tmp_path / "old-det.json")
    _write_json(path, {
        "format": "repro.detector/2",
        "sha256": fingerprint(payload),
        "schema_fingerprint": fingerprint(
            {"base": payload["schema"]["base"],
             "engineered": payload["schema"]["engineered"]}),
        "feature_count": detector.schema.dim,
        "detector": payload}, indent=1)
    return path


def _old_corpus(tmp_path):
    """A corpus whose sidecar is the previous unsealed layout."""
    dataset = _dataset()
    path = str(tmp_path / "old-corpus")
    save_dataset(dataset, path)
    with open(path + ".npz", "rb") as f:
        npz = f.read()
    _write_json(path + ".meta.json", {
        "format_version": 2, "sample_period": dataset.sample_period,
        "n_records": len(dataset.records), "npz_sha256": sha256_bytes(npz),
        "counters_sha256": counter_layout_sha256(),
        "records": [record_to_dict(r, with_deltas=False)
                    for r in dataset.records]})
    return path


def _exits_2_with_one_line(argv, capsys, *needles):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    for needle in needles:
        assert needle in err


def test_train_refuses_an_old_corpus(tmp_path, capsys):
    corpus = _old_corpus(tmp_path)
    _exits_2_with_one_line(["train", corpus, "--no-manifest"], capsys,
                           corpus, "repro.corpus/3")


def test_report_refuses_an_old_detector(tmp_path, capsys):
    corpus = str(tmp_path / "corpus")
    save_dataset(_dataset(), corpus)
    detector = _old_detector(tmp_path)
    _exits_2_with_one_line(["report", corpus, detector, "--no-manifest"],
                           capsys, detector, "repro.detector/3")


def test_serve_refuses_an_old_detector(tmp_path, capsys):
    detector = _old_detector(tmp_path)
    _exits_2_with_one_line(["serve", "--detector", detector, "--tenants",
                            "2", "--duration", "4", "--no-manifest"],
                           capsys, detector, "repro.detector/3")


def test_collect_resume_refuses_an_old_checkpoint(tmp_path, capsys):
    shards = tmp_path / "corpus.shards"
    shards.mkdir()
    _write_json(str(shards / "manifest.json"),
                {"version": 1, "context": {}, "shards": {}}, indent=1)
    capsys.readouterr()
    code = main(["collect", str(tmp_path / "corpus"), "--jobs", "2",
                 "--resume", "--no-manifest"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert "repro.checkpoint-manifest/2" in err


def test_campaign_resume_refuses_an_old_campaign(tmp_path, capsys):
    directory = tmp_path / "camp"
    directory.mkdir()
    _write_json(str(directory / "campaign.json"),
                {"schema": "repro.campaign/1", "spec_fingerprint": "0" * 64},
                indent=1)
    _exits_2_with_one_line(["campaign", str(directory), "--workloads",
                            "stream", "--attacks", "--resume",
                            "--no-manifest"], capsys, "repro.campaign/2")
    assert os.listdir(directory) == ["campaign.json"]
