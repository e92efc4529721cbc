"""Validated model artifacts: atomic, checksummed, schema-versioned
save/load with typed failures — a torn or tampered file can never load
into a silently wrong detector."""

import json

import numpy as np
import pytest

from repro.core.patching import (
    MODEL_FORMAT, ModelChecksumError, ModelCorruptError, ModelError,
    ModelMissingError, ModelSchemaError, detector_from_dict,
    detector_to_dict, load_detector, save_detector,
    verify_corpus_compatible,
)
from repro.core.perceptron import HardwareDetector, evax_schema
from repro.runtime.digest import canonical, fingerprint, write_sealed


@pytest.fixture()
def detector():
    det = HardwareDetector(evax_schema(), seed=3, threshold=0.7)
    det.normalizer.max_values = np.ones(det.schema.dim)
    return det


@pytest.fixture()
def artifact(detector, tmp_path):
    path = str(tmp_path / "detector.json")
    save_detector(detector, path)
    return path


def test_roundtrip_preserves_everything(detector, artifact):
    loaded = load_detector(artifact)
    assert loaded.threshold == detector.threshold
    assert loaded.schema.names == detector.schema.names
    for a, b in zip(loaded.net.parameters, detector.net.parameters):
        assert np.array_equal(a, b)
    assert np.array_equal(loaded.normalizer.max_values,
                          detector.normalizer.max_values)


def test_artifact_is_a_sealed_detector(detector, artifact):
    sealed = json.load(open(artifact))
    assert sealed["schema"] == MODEL_FORMAT == "repro.detector/3"
    assert sealed["payload"] == json.loads(
        canonical(detector_to_dict(detector)))
    assert sealed["sha256"] == fingerprint(sealed["payload"])


def test_missing_file_is_typed(tmp_path):
    with pytest.raises(ModelMissingError):
        load_detector(str(tmp_path / "nope.json"))


def test_truncated_file_is_corrupt(artifact):
    raw = open(artifact, "rb").read()
    open(artifact, "wb").write(raw[: len(raw) // 2])
    with pytest.raises(ModelCorruptError):
        load_detector(artifact)


def test_non_object_payload_is_corrupt(tmp_path):
    path = str(tmp_path / "d.json")
    open(path, "w").write("[1, 2, 3]")
    with pytest.raises(ModelCorruptError):
        load_detector(path)


def test_flipped_weight_fails_checksum(artifact):
    envelope = json.load(open(artifact))
    envelope["payload"]["layers"][0]["weights"][0][0] += 0.25
    json.dump(envelope, open(artifact, "w"))
    with pytest.raises(ModelChecksumError):
        load_detector(artifact)


def test_unknown_format_tag_is_schema_error(artifact):
    envelope = json.load(open(artifact))
    envelope["schema"] = "repro.detector/999"
    json.dump(envelope, open(artifact, "w"))
    with pytest.raises(ModelSchemaError):
        load_detector(artifact)


def test_nonfinite_weights_rejected_even_with_valid_checksum(detector,
                                                             tmp_path):
    """A NaN that survives into the artifact must be caught structurally
    — checksums only prove the file matches what was written."""
    detector.net.layers[0].weights[0, 0] = float("nan")
    path = str(tmp_path / "d.json")
    save_detector(detector, path)
    with pytest.raises(ModelSchemaError):
        load_detector(path)


def test_dimension_mismatch_rejected(detector, artifact):
    payload = detector_to_dict(detector)
    payload["layers"][0]["weights"] = payload["layers"][0]["weights"][:-1]
    # sealed by the one writer, so only the structural check can object
    write_sealed(artifact, MODEL_FORMAT, payload)
    with pytest.raises(ModelSchemaError):
        load_detector(artifact)


def test_legacy_envelope_less_artifact_is_refused(detector, tmp_path):
    """There is one reader: a bare ``detector_to_dict`` payload (the
    pre-envelope layout) is another format, not a detector."""
    path = str(tmp_path / "legacy.json")
    json.dump(detector_to_dict(detector), open(path, "w"))
    with pytest.raises(ModelSchemaError, match="repro.detector/3"):
        load_detector(path)


def test_model_errors_are_value_errors(artifact):
    """Back-compat: pre-taxonomy callers caught ValueError."""
    assert issubclass(ModelError, ValueError)
    open(artifact, "w").write("{not json")
    with pytest.raises(ValueError):
        load_detector(artifact)


def test_save_is_atomic_no_partial_file_on_crash(detector, tmp_path,
                                                 monkeypatch):
    """A crash mid-save leaves the previous artifact intact (temp +
    os.replace), never a half-written one."""
    import os
    path = str(tmp_path / "d.json")
    save_detector(detector, path)
    before = open(path, "rb").read()

    real_replace = os.replace

    def exploding_replace(src, dst):
        if dst == path:
            raise OSError("simulated crash at publish time")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", exploding_replace)
    detector.threshold = 0.9
    with pytest.raises(OSError):
        save_detector(detector, path)
    monkeypatch.undo()
    assert open(path, "rb").read() == before
    assert load_detector(path).threshold == 0.7


def test_cli_rejects_corrupted_detector_with_exit_2(artifact, capsys):
    from repro.cli import main

    envelope = json.load(open(artifact))
    envelope["payload"]["threshold"] = 0.2        # silently retuned
    json.dump(envelope, open(artifact, "w"))
    with pytest.raises(SystemExit) as err:
        main(["explain", artifact])
    assert err.value.code == 2
    out = capsys.readouterr()
    assert "checksum mismatch" in out.err
    assert artifact in out.err


def test_stale_schema_in_payload_is_typed_not_keyerror(detector):
    """A detector dict naming a counter this build's layout lacks must
    raise :class:`ModelSchemaError`, not a bare ``KeyError`` mid-gather
    — the arena resume path and the adaptive loader both rely on it."""
    payload = detector_to_dict(detector)
    payload["schema"]["base"] = ["no.such.counter"] \
        + payload["schema"]["base"][1:]
    with pytest.raises(ModelSchemaError, match="stale envelope"):
        detector_from_dict(payload)


def test_stale_engineered_counter_is_typed_too(detector):
    payload = detector_to_dict(detector)
    payload["schema"]["engineered"][0] = ["sec.bogus",
                                          ["no.such.counter", "icache.miss"]]
    with pytest.raises(ModelSchemaError):
        detector_from_dict(payload)


class TestVerifyCorpusCompatible:
    """Detector envelope vs evaluation corpus: each can be internally
    consistent yet mutually wrong; the check makes that typed."""

    def corpus(self, width=None, sha=None):
        from repro.data.dataset import Dataset, SampleRecord
        from repro.sim.hpc import COUNTER_NAMES
        width = width if width is not None else len(COUNTER_NAMES)
        record = SampleRecord(deltas=[1] * width, label=0,
                              category="benign", phase=0, source="b",
                              commit_index=0)
        return Dataset(records=[record], sample_period=100,
                       counters_sha256=sha)

    def test_compatible_pair_passes(self, detector):
        from repro.data.io import counter_layout_sha256
        assert verify_corpus_compatible(
            detector, self.corpus(sha=counter_layout_sha256())) is detector
        assert verify_corpus_compatible(detector,
                                        self.corpus(sha=None)) is detector

    def test_stale_detector_schema_is_rejected(self, detector):
        detector.schema.base_features = ("no.such.counter",) \
            + detector.schema.base_features[1:]
        with pytest.raises(ModelSchemaError, match="absent from"):
            verify_corpus_compatible(detector, self.corpus(),
                                     detector_origin="arena incumbent")

    def test_foreign_layout_fingerprint_is_rejected(self, detector):
        with pytest.raises(ModelSchemaError, match="different counter"):
            verify_corpus_compatible(detector, self.corpus(sha="0" * 64),
                                     corpus_origin="held-out corpus")

    def test_wrong_delta_width_is_rejected(self, detector):
        with pytest.raises(ModelSchemaError, match="counter deltas"):
            verify_corpus_compatible(detector, self.corpus(width=7))


def test_cli_adaptive_rejects_missing_detector_with_exit_2(tmp_path,
                                                           capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as err:
        main(["adaptive", "--detector", str(tmp_path / "none.json"),
              "--no-manifest"])
    assert err.value.code == 2
    assert "cannot load detector" in capsys.readouterr().err
